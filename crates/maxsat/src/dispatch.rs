//! Instance-feature dispatch: the one place a request's hints become a
//! worker plan.
//!
//! A request carries two hints, [`Parallelism`] and [`SearchStrategy`].
//! Every layer above the engine passes them down unchanged; [`plan`]
//! turns them into a concrete [`DispatchPlan`] (one search strategy, run
//! by how many portfolio workers) from cheap [`InstanceFeatures`]. The
//! engine calls it with the features of the instance it is handed;
//! capacity planners (`satmap::planned_width`, `satmap::plan_ceiling`)
//! call it with pre-encode features.
//!
//! The bench data behind the tiers: the parallel machinery *loses* on
//! easy instances (a width-4 portfolio is ~1.4x slower than serial on
//! fig3), so `Auto` hints spend workers only where the instance is hard.
//! The tiers (measured in variables + hard clauses, or the O(1)
//! `encoding_estimate` before an encoding exists):
//!
//! * **small** (below [`SMALL_INSTANCE`]) — one worker: the per-call
//!   overhead of threads exceeds the whole solve time.
//! * **medium** (below [`MEDIUM_INSTANCE`]) — at most two workers.
//! * **hard** — the full [`sat::auto_width`] worker budget.
//!
//! An explicit width (`Parallelism::Serial` or `Parallelism::Width`) is
//! always honored.

use sat::{Parallelism, SearchStrategy};

use crate::wcnf::WcnfInstance;

/// Hardness (variables + hard clauses) below which a request is *small*:
/// solved inline by one worker.
pub const SMALL_INSTANCE: u64 = 5000;

/// Hardness below which a request is *medium*: at most two workers.
pub const MEDIUM_INSTANCE: u64 = 4 * SMALL_INSTANCE;

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

/// A concrete worker plan: one search strategy, run by `width` portfolio
/// workers. Produced by [`plan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DispatchPlan {
    /// The strategy the solve runs: [`SearchStrategy::Linear`] or
    /// [`SearchStrategy::CoreGuided`], never `Auto`.
    pub strategy: SearchStrategy,
    /// Portfolio workers per SAT call (at least 1).
    pub width: usize,
    /// The hardness signal the plan was sized from (recorded for
    /// telemetry rows, so per-family bias mining has data).
    pub hardness: u64,
}

impl DispatchPlan {
    /// Stable label of the plan's strategy for telemetry rows
    /// (`"linear"` or `"core-guided"`).
    pub fn mix_label(&self) -> &'static str {
        match self.strategy {
            SearchStrategy::CoreGuided => "core-guided",
            _ => "linear",
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
///
/// # Examples
///
/// ```
/// use maxsat::{dispatch, InstanceFeatures, Parallelism, SearchStrategy};
/// let small = InstanceFeatures { vars: 100, hard_clauses: 50, ..Default::default() };
/// let p = dispatch::plan(&small, SearchStrategy::Auto, Parallelism::Auto);
/// assert_eq!((p.strategy, p.width), (SearchStrategy::Linear, 1));
/// let forced = dispatch::plan(&small, SearchStrategy::CoreGuided, Parallelism::Width(4));
/// assert_eq!((forced.strategy, forced.width), (SearchStrategy::CoreGuided, 4));
/// ```
pub fn plan(
    features: &InstanceFeatures,
    strategy: SearchStrategy,
    parallelism: Parallelism,
) -> DispatchPlan {
    let hardness = features.hardness();
    let width = match parallelism {
        Parallelism::Serial => 1,
        Parallelism::Width(n) => n.max(1),
        Parallelism::Auto if hardness < SMALL_INSTANCE => 1,
        Parallelism::Auto if hardness < MEDIUM_INSTANCE => sat::auto_width().min(2),
        Parallelism::Auto => sat::auto_width(),
    };
    let strategy = match strategy {
        SearchStrategy::Auto if prefers_core(features) => SearchStrategy::CoreGuided,
        SearchStrategy::Auto => SearchStrategy::Linear,
        explicit => explicit,
    };
    DispatchPlan {
        strategy,
        width,
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
        ] {
            let p = plan(&features(SMALL_INSTANCE - 1), strategy, Parallelism::Auto);
            assert_eq!(p.width, 1, "{strategy:?}");
        }
        // An unweighted Auto request resolves to the linear search.
        let p = plan(&features(10), SearchStrategy::Auto, Parallelism::Auto);
        assert_eq!((p.strategy, p.width), (SearchStrategy::Linear, 1));
        assert_eq!(p.mix_label(), "linear");
    }

    #[test]
    fn hardness_scales_auto_width_through_the_tiers() {
        let medium = plan(
            &features(SMALL_INSTANCE),
            SearchStrategy::Linear,
            Parallelism::Auto,
        );
        assert!(medium.width <= 2);
        let hard = plan(
            &features(MEDIUM_INSTANCE),
            SearchStrategy::Linear,
            Parallelism::Auto,
        );
        assert_eq!(hard.width, sat::auto_width());
        assert!(hard.width >= medium.width);
    }

    #[test]
    fn forced_widths_are_honored() {
        // An explicit width is never second-guessed, whatever the strategy.
        let linear = plan(&features(10), SearchStrategy::Linear, Parallelism::Width(4));
        assert_eq!((linear.strategy, linear.width), (SearchStrategy::Linear, 4));
        let core = plan(
            &features(10),
            SearchStrategy::CoreGuided,
            Parallelism::Width(3),
        );
        assert_eq!((core.strategy, core.width), (SearchStrategy::CoreGuided, 3));
        assert_eq!(core.mix_label(), "core-guided");
        // Width 0 clamps to 1 like everywhere else in the stack.
        assert_eq!(
            plan(&features(10), SearchStrategy::Linear, Parallelism::Width(0)).width,
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
                assert_eq!(p.width, 1, "{strategy:?} at hardness {hardness}");
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
            assert_eq!(p.strategy, SearchStrategy::Linear, "{parallelism:?}");
            let p = plan(&weighted, SearchStrategy::Auto, parallelism);
            assert_eq!(p.strategy, SearchStrategy::CoreGuided, "{parallelism:?}");
        }
        // An explicit strategy is never second-guessed by the features.
        for explicit in [SearchStrategy::Linear, SearchStrategy::CoreGuided] {
            for f in [&unweighted, &weighted] {
                assert_eq!(plan(f, explicit, Parallelism::Serial).strategy, explicit);
            }
        }
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
    fn plan_is_deterministic_and_recorded() {
        let f = features(SMALL_INSTANCE + 7);
        let a = plan(&f, SearchStrategy::CoreGuided, Parallelism::Width(4));
        let b = plan(&f, SearchStrategy::CoreGuided, Parallelism::Width(4));
        assert_eq!(a, b);
        assert_eq!(a.hardness, SMALL_INSTANCE + 7);
    }
}
