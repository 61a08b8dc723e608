//! Instance-feature dispatch: the one place a request's hints become a
//! worker plan.
//!
//! A request carries two hints, [`Parallelism`] and [`SearchStrategy`].
//! Every layer above the engine passes them down unchanged; [`plan`]
//! turns them into a concrete [`DispatchPlan`] (how many linear-search
//! workers and how many core-guided workers) from cheap
//! [`InstanceFeatures`]. The engine calls it with the features of the
//! instance it is handed; capacity planners (`satmap::planned_width`,
//! `satmap::plan_ceiling`) call it with pre-encode features.
//!
//! The bench data behind the tiers: the parallel machinery *loses* on
//! easy instances (a width-4 portfolio is ~1.4x slower than serial on
//! fig3, and the strategy race trails plain linear search), so `Auto`
//! hints spend workers only where the instance is hard. The tiers (measured in variables + hard clauses, or the O(1)
//! `encoding_estimate` before an encoding exists):
//!
//! * **small** (below [`SMALL_INSTANCE`]) — one worker, no race: the
//!   per-call overhead of threads exceeds the whole solve time.
//! * **medium** (below [`MEDIUM_INSTANCE`]) — at most two workers; a race
//!   runs one linear against one core-guided worker with bound exchange.
//! * **hard** — the full [`sat::auto_width`] worker budget, split across
//!   a heterogeneous linear + core-guided portfolio.
//!
//! An explicit width (`Parallelism::Serial` or `Parallelism::Width`) is
//! always honored — the dispatcher only decides the strategy mix for it.

use sat::{Parallelism, SearchStrategy};

use crate::wcnf::WcnfInstance;

/// Hardness (variables + hard clauses) below which a request is *small*:
/// solved inline by one worker.
pub const SMALL_INSTANCE: u64 = 5000;

/// Hardness below which a request is *medium*: at most two workers.
pub const MEDIUM_INSTANCE: u64 = 4 * SMALL_INSTANCE;

/// Diversification seed of the core-guided worker group in a heterogeneous
/// race (the linear group keeps seed 0, the historical base
/// configuration). A stable constant so fault-injection tests can target
/// exactly the core-guided group via [`sat::FaultPlan`]'s `panic_tag`.
pub const CORE_ROLE_SEED: u64 = 0xC0DE_5EED_0000_0001;

/// Cheap, O(instance-header) features the dispatcher sizes a plan from.
///
/// Either side can be absent: before an encoding exists only the device
/// size and the O(1) encoding estimate are known; once the WCNF is built,
/// [`InstanceFeatures::of`] reads the exact counts.
///
/// # Examples
///
/// ```
/// use maxsat::{InstanceFeatures, WcnfInstance};
/// let mut inst = WcnfInstance::new();
/// let a = inst.new_var().positive();
/// inst.add_hard([a]);
/// inst.add_soft(3, [!a]);
/// let f = InstanceFeatures::of(&inst);
/// assert_eq!(f.vars, 1);
/// assert_eq!(f.hard_clauses, 1);
/// assert_eq!(f.weighted_softs, 1);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InstanceFeatures {
    /// Number of variables in the instance.
    pub vars: usize,
    /// Number of hard clauses.
    pub hard_clauses: usize,
    /// Number of soft clauses.
    pub soft_clauses: usize,
    /// Soft clauses whose weight differs from 1 (a weighted objective —
    /// the families where core-guided search pays off most).
    pub weighted_softs: usize,
    /// Physical qubits of the target device, when routing (0 otherwise).
    pub device_qubits: usize,
    /// O(1) upper-bound proxy for the encoding size
    /// (`satmap::encoding_estimate`), used as the hardness signal before
    /// any encoding is built.
    pub encoding_estimate: usize,
}

impl InstanceFeatures {
    /// Reads the exact counts from a built WCNF instance.
    pub fn of(instance: &WcnfInstance) -> Self {
        InstanceFeatures {
            vars: instance.num_vars(),
            hard_clauses: instance.hard_clauses().len(),
            soft_clauses: instance.soft_clauses().len(),
            weighted_softs: instance.soft_clauses().filter(|&(w, _)| w != 1).count(),
            device_qubits: 0,
            encoding_estimate: 0,
        }
    }

    /// Returns a copy annotated with the target device size.
    pub fn with_device(mut self, qubits: usize) -> Self {
        self.device_qubits = qubits;
        self
    }

    /// Returns a copy annotated with the O(1) encoding-size estimate.
    pub fn with_encoding_estimate(mut self, estimate: usize) -> Self {
        self.encoding_estimate = estimate;
        self
    }

    /// The scalar hardness signal the tiers cut on: variables + hard
    /// clauses when the instance is built (the portfolio's own
    /// instance-size measure), falling back to the encoding estimate when
    /// only pre-encode features are known.
    pub fn hardness(&self) -> u64 {
        let built = self.vars + self.hard_clauses;
        if built > 0 {
            built as u64
        } else {
            self.encoding_estimate as u64
        }
    }
}

/// A concrete worker plan: how many workers run each strategy. Produced
/// by [`plan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DispatchPlan {
    /// Workers running the model-improving linear SAT-UNSAT search.
    pub linear_width: usize,
    /// Workers running the OLL core-guided search.
    pub core_width: usize,
    /// The hardness signal the plan was sized from (recorded for
    /// telemetry rows, so per-family bias mining has data).
    pub hardness: u64,
}

impl DispatchPlan {
    /// Total worker count across both strategy groups.
    pub fn total_width(&self) -> usize {
        self.linear_width + self.core_width
    }

    /// The strategy this plan runs: a single group's strategy, or
    /// [`SearchStrategy::Race`] for a mixed plan. Never `Auto`.
    pub fn strategy(&self) -> SearchStrategy {
        match (self.linear_width, self.core_width) {
            (_, 0) => SearchStrategy::Linear,
            (0, _) => SearchStrategy::CoreGuided,
            _ => SearchStrategy::Race,
        }
    }

    /// Stable label of the strategy mix for telemetry rows.
    pub fn mix_label(&self) -> &'static str {
        match self.strategy() {
            SearchStrategy::CoreGuided => "core-guided",
            SearchStrategy::Race => MIXED_LABEL,
            _ => "linear",
        }
    }
}

/// The [`DispatchPlan::mix_label`] of a mixed (racing) plan.
const MIXED_LABEL: &str = "linear+core-guided";

/// The strategy a finished solve actually ran, read back from its
/// telemetry: `"race"` when the widest dispatched plan was mixed, else
/// the name of the strategy that answered. `None` when no dispatched
/// solve ran. This is what routers report as their `strategy`
/// diagnostic, so it can never disagree with the row's `strategy`.
pub fn strategy_ran(telemetry: &sat::SolverTelemetry) -> Option<&'static str> {
    match telemetry.dispatch_mix {
        Some(MIXED_LABEL) => Some(SearchStrategy::Race.name()),
        Some(_) => telemetry.strategy,
        None => None,
    }
}

impl Default for DispatchPlan {
    /// The conservative plan: one linear worker.
    fn default() -> Self {
        DispatchPlan {
            linear_width: 1,
            core_width: 0,
            hardness: 0,
        }
    }
}

/// True when the features say the weight-stratified core-guided search is
/// the better single-strategy bet: a *weighted* objective, with at least
/// as many weighted softs as unweighted ones. On such instances the
/// linear search must build (and repeatedly extend) a generalized
/// totalizer over every weighted soft — the dominant cost on the fidelity
/// objective (measured ~7x slower than stratified core-guided on
/// `q6_noise/fidelity`) — while core-guided relaxations stay
/// core-local. Unweighted objectives keep the linear default: models come
/// easily and the counting totalizer is cheap.
///
/// # Examples
///
/// ```
/// use maxsat::{dispatch, InstanceFeatures};
/// let weighted = InstanceFeatures { soft_clauses: 10, weighted_softs: 9, ..Default::default() };
/// assert!(dispatch::prefers_core(&weighted));
/// let unweighted = InstanceFeatures { soft_clauses: 10, weighted_softs: 0, ..Default::default() };
/// assert!(!dispatch::prefers_core(&unweighted));
/// ```
pub fn prefers_core(features: &InstanceFeatures) -> bool {
    features.weighted_softs > 0 && 2 * features.weighted_softs >= features.soft_clauses
}

/// Resolves features and a request's two hints into a concrete worker
/// plan.
///
/// * An `Auto` strategy runs the stratified core-guided search when
///   [`prefers_core`] says the objective is weighted, and the paper's
///   linear search otherwise; explicit strategies are never
///   second-guessed.
/// * `Auto` widths scale with hardness: 1 below [`SMALL_INSTANCE`], at
///   most 2 below [`MEDIUM_INSTANCE`], the machine-sized
///   [`sat::auto_width`] beyond; `Serial` and `Width(n)` are honored
///   as-is (`Width(0)` clamps to 1).
/// * `Race` on a small `Auto` request degenerates to a single worker —
///   linear, or core-guided when [`prefers_core`] says the objective is
///   weighted (the race overhead loses on small instances either way,
///   per the bench data); otherwise the width splits into a
///   heterogeneous linear + core-guided worker set, with the rounding
///   benefit going to the strategy [`prefers_core`] favors. A forced
///   width of 1 still races one worker per strategy — an explicit race
///   request always gets both strategies.
///
/// # Examples
///
/// ```
/// use maxsat::{dispatch, InstanceFeatures, Parallelism, SearchStrategy};
/// let small = InstanceFeatures { vars: 100, hard_clauses: 50, ..Default::default() };
/// let p = dispatch::plan(&small, SearchStrategy::Race, Parallelism::Auto);
/// assert_eq!((p.linear_width, p.core_width), (1, 0));
/// let forced = dispatch::plan(&small, SearchStrategy::Race, Parallelism::Width(4));
/// assert_eq!((forced.linear_width, forced.core_width), (2, 2));
/// ```
pub fn plan(
    features: &InstanceFeatures,
    strategy: SearchStrategy,
    parallelism: Parallelism,
) -> DispatchPlan {
    let hardness = features.hardness();
    let total = match parallelism {
        Parallelism::Serial => 1,
        Parallelism::Width(n) => n.max(1),
        Parallelism::Auto if hardness < SMALL_INSTANCE => 1,
        Parallelism::Auto if hardness < MEDIUM_INSTANCE => sat::auto_width().min(2),
        Parallelism::Auto => sat::auto_width(),
    };
    let (linear_width, core_width) = match strategy {
        SearchStrategy::Auto if prefers_core(features) => (0, total),
        SearchStrategy::Auto | SearchStrategy::Linear => (total, 0),
        SearchStrategy::CoreGuided => (0, total),
        SearchStrategy::Race => {
            if parallelism == Parallelism::Auto && hardness < SMALL_INSTANCE {
                // The race overhead loses on small instances; a single
                // worker of the feature-preferred strategy is the
                // measured winner there.
                if prefers_core(features) {
                    (0, total)
                } else {
                    (total, 0)
                }
            } else if prefers_core(features) {
                // Weighted objective: the core-guided group gets the
                // rounding benefit of an odd width.
                ((total / 2).max(1), total.div_ceil(2))
            } else {
                (total.div_ceil(2), (total / 2).max(1))
            }
        }
    };
    DispatchPlan {
        linear_width,
        core_width,
        hardness,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features(hardness: u64) -> InstanceFeatures {
        InstanceFeatures {
            vars: hardness as usize,
            ..Default::default()
        }
    }

    #[test]
    fn small_auto_requests_resolve_to_one_linear_worker_without_sharing() {
        for strategy in [
            SearchStrategy::Auto,
            SearchStrategy::Linear,
            SearchStrategy::CoreGuided,
            SearchStrategy::Race,
        ] {
            let p = plan(&features(SMALL_INSTANCE - 1), strategy, Parallelism::Auto);
            assert_eq!(p.total_width(), 1, "{strategy:?}");
        }
        // The race specifically degenerates to linear — no second thread.
        let p = plan(&features(10), SearchStrategy::Race, Parallelism::Auto);
        assert_eq!((p.linear_width, p.core_width), (1, 0));
        assert_eq!(p.mix_label(), "linear");
    }

    #[test]
    fn hardness_scales_auto_width_through_the_tiers() {
        let medium = plan(
            &features(SMALL_INSTANCE),
            SearchStrategy::Linear,
            Parallelism::Auto,
        );
        assert!(medium.total_width() <= 2);
        let hard = plan(
            &features(MEDIUM_INSTANCE),
            SearchStrategy::Linear,
            Parallelism::Auto,
        );
        assert_eq!(hard.total_width(), sat::auto_width());
        assert!(hard.total_width() >= medium.total_width());
    }

    #[test]
    fn forced_widths_are_honored_and_split_across_the_race() {
        // An explicit width is never second-guessed, only mixed.
        let p = plan(&features(10), SearchStrategy::Race, Parallelism::Width(3));
        assert_eq!((p.linear_width, p.core_width), (2, 1));
        assert_eq!(p.total_width(), 3);
        assert_eq!(p.mix_label(), "linear+core-guided");
        // A forced serial race still runs one worker per strategy (the
        // historical race shape): the caller explicitly asked to race.
        let serial = plan(&features(10), SearchStrategy::Race, Parallelism::Width(1));
        assert_eq!((serial.linear_width, serial.core_width), (1, 1));
        // Non-race strategies take the width whole.
        let linear = plan(&features(10), SearchStrategy::Linear, Parallelism::Width(4));
        assert_eq!((linear.linear_width, linear.core_width), (4, 0));
        let core = plan(
            &features(10),
            SearchStrategy::CoreGuided,
            Parallelism::Width(4),
        );
        assert_eq!((core.linear_width, core.core_width), (0, 4));
        assert_eq!(core.mix_label(), "core-guided");
        // Width 0 clamps to 1 like everywhere else in the stack.
        assert_eq!(
            plan(&features(10), SearchStrategy::Linear, Parallelism::Width(0)).total_width(),
            1
        );
    }

    #[test]
    fn a_serial_plan_runs_one_worker_at_every_tier() {
        // The hardness tiers size `Auto` widths only: a serial request
        // stays one worker however hard the instance.
        for hardness in [10, SMALL_INSTANCE, MEDIUM_INSTANCE] {
            for strategy in [SearchStrategy::Linear, SearchStrategy::CoreGuided] {
                let p = plan(&features(hardness), strategy, Parallelism::Serial);
                assert_eq!(p.total_width(), 1, "{strategy:?} at hardness {hardness}");
            }
        }
    }

    #[test]
    fn auto_strategy_follows_the_weighted_soft_share() {
        // Unweighted (swap-count) instances keep the paper's linear
        // search; weighted-soft-dominated (fidelity) instances get the
        // stratified core-guided search, at any width.
        let unweighted = InstanceFeatures {
            soft_clauses: 10,
            ..features(10)
        };
        let weighted = InstanceFeatures {
            weighted_softs: 9,
            ..unweighted
        };
        for parallelism in [
            Parallelism::Serial,
            Parallelism::Width(3),
            Parallelism::Auto,
        ] {
            let p = plan(&unweighted, SearchStrategy::Auto, parallelism);
            assert_eq!(p.strategy(), SearchStrategy::Linear, "{parallelism:?}");
            let p = plan(&weighted, SearchStrategy::Auto, parallelism);
            assert_eq!(p.strategy(), SearchStrategy::CoreGuided, "{parallelism:?}");
        }
        // An explicit strategy is never second-guessed by the features.
        for explicit in [
            SearchStrategy::Linear,
            SearchStrategy::CoreGuided,
            SearchStrategy::Race,
        ] {
            for f in [&unweighted, &weighted] {
                assert_eq!(plan(f, explicit, Parallelism::Serial).strategy(), explicit);
            }
        }
    }

    #[test]
    fn strategy_ran_names_the_race_or_the_answering_strategy() {
        let mut t = sat::SolverTelemetry::new();
        assert_eq!(strategy_ran(&t), None, "no dispatched solve ran");
        t.strategy = Some("core-guided");
        t.dispatch_mix = Some(
            plan(
                &features(10),
                SearchStrategy::CoreGuided,
                Parallelism::Serial,
            )
            .mix_label(),
        );
        assert_eq!(strategy_ran(&t), Some("core-guided"));
        t.strategy = Some("linear-sat-unsat");
        t.dispatch_mix =
            Some(plan(&features(10), SearchStrategy::Race, Parallelism::Serial).mix_label());
        assert_eq!(
            strategy_ran(&t),
            Some("race"),
            "a race is named, not its winner"
        );
    }

    #[test]
    fn hardness_falls_back_to_the_encoding_estimate_before_encoding() {
        let pre_encode = InstanceFeatures::default()
            .with_device(20)
            .with_encoding_estimate(MEDIUM_INSTANCE as usize);
        assert_eq!(pre_encode.hardness(), MEDIUM_INSTANCE);
        let built = features(42).with_encoding_estimate(MEDIUM_INSTANCE as usize);
        assert_eq!(built.hardness(), 42, "exact counts win once built");
    }

    #[test]
    fn features_of_counts_weighted_softs() {
        let mut inst = WcnfInstance::new();
        let a = inst.new_var().positive();
        let b = inst.new_var().positive();
        inst.add_hard([a, b]);
        inst.add_soft(1, [!a]);
        inst.add_soft(5, [!b]);
        let f = InstanceFeatures::of(&inst);
        assert_eq!(f.vars, 2);
        assert_eq!(f.hard_clauses, 1);
        assert_eq!(f.soft_clauses, 2);
        assert_eq!(f.weighted_softs, 1);
        assert_eq!(f.hardness(), 3);
    }

    #[test]
    fn prefers_core_tracks_the_weighted_soft_share() {
        let unweighted = InstanceFeatures {
            soft_clauses: 10,
            weighted_softs: 0,
            ..Default::default()
        };
        assert!(!prefers_core(&unweighted));
        let mostly_weighted = InstanceFeatures {
            soft_clauses: 10,
            weighted_softs: 5,
            ..Default::default()
        };
        assert!(prefers_core(&mostly_weighted), "half weighted is enough");
        let barely_weighted = InstanceFeatures {
            soft_clauses: 10,
            weighted_softs: 4,
            ..Default::default()
        };
        assert!(!prefers_core(&barely_weighted));
        assert!(!prefers_core(&InstanceFeatures::default()), "no softs");
    }

    #[test]
    fn weighted_races_bias_the_core_guided_group() {
        let weighted = InstanceFeatures {
            vars: 10,
            soft_clauses: 6,
            weighted_softs: 6,
            ..Default::default()
        };
        // Small Auto race degenerates to a single core-guided worker.
        let small = plan(&weighted, SearchStrategy::Race, Parallelism::Auto);
        assert_eq!((small.linear_width, small.core_width), (0, 1));
        assert_eq!(small.mix_label(), "core-guided");
        // An odd forced width gives the core-guided group the extra
        // worker; the unweighted split is mirrored.
        let odd = plan(&weighted, SearchStrategy::Race, Parallelism::Width(3));
        assert_eq!((odd.linear_width, odd.core_width), (1, 2));
        let serial = plan(&weighted, SearchStrategy::Race, Parallelism::Width(1));
        assert_eq!(
            (serial.linear_width, serial.core_width),
            (1, 1),
            "an explicit race always gets both strategies"
        );
    }

    #[test]
    fn plan_is_deterministic_and_recorded() {
        let f = features(SMALL_INSTANCE + 7);
        let a = plan(&f, SearchStrategy::Race, Parallelism::Width(4));
        let b = plan(&f, SearchStrategy::Race, Parallelism::Width(4));
        assert_eq!(a, b);
        assert_eq!(a.hardness, SMALL_INSTANCE + 7);
    }
}
