//! The two request-level solver hints: how many workers a solve may use
//! ([`Parallelism`]) and which MaxSAT search drives it
//! ([`SearchStrategy`]).
//!
//! They live at the bottom of the stack so every layer can pass them
//! down unchanged: the routing API re-exports them as
//! `circuit::Parallelism` and `circuit::SearchStrategy`, the MaxSAT
//! engine carries them in its options, and only its dispatcher
//! (`maxsat::dispatch::plan`) turns them into a concrete worker plan,
//! against the instance it is handed.

/// How many diversified SAT workers a request may use per solver call.
///
/// A hint, not a count: the MaxSAT dispatcher resolves it per solver call
/// against the instance's features, so one process can serve wide
/// interactive requests and narrow ones side by side.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// One worker, no racing (deterministic wall-clock, least overhead).
    #[default]
    Serial,
    /// Let the dispatcher size the plan from the instance: one worker
    /// below its small-instance gate, at most two below its medium gate,
    /// and [`crate::auto_width`] (the machine's cores, clamped to
    /// [`crate::MAX_AUTO_WIDTH`]) beyond.
    Auto,
    /// Exactly this many workers (clamped to at least 1).
    Width(usize),
}

/// Which MaxSAT search strategy a solve runs (pure heuristics ignore it).
/// Every solve runs exactly one strategy; `Auto` only defers the choice
/// to the dispatcher.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Let the dispatcher pick per solver call from the built instance's
    /// features: objectives dominated by weighted softs (fidelity mode)
    /// run the stratified core-guided search, everything else the
    /// paper's linear search. Unweighted requests therefore behave
    /// exactly like [`SearchStrategy::Linear`].
    #[default]
    Auto,
    /// Model-improving linear SAT-UNSAT search (the paper's behaviour).
    Linear,
    /// OLL-style core-guided lower-bounding search.
    CoreGuided,
}

impl SearchStrategy {
    /// Short name for telemetry rows and experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            SearchStrategy::Auto => "auto",
            SearchStrategy::Linear => "linear-sat-unsat",
            SearchStrategy::CoreGuided => "core-guided",
        }
    }
}
