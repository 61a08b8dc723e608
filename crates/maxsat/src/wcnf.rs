//! Weighted partial MaxSAT instances and the WCNF text format.
//!
//! The paper's SATMAP tool emits WCNF and calls Open-WBO-Inc; this module
//! provides the same interchange format (classic `p wcnf <vars> <clauses>
//! <top>` header) so instances can be inspected or exported to external
//! solvers.
//!
//! Clauses are stored flat: each kind (hard, soft) keeps all of its
//! literals in one `Vec<Lit>` plus one end offset per clause, and softs
//! keep their weights alongside. Adding a clause pushes its literals
//! without any per-clause allocation, reading one back is a slice borrow,
//! and cloning or dropping an instance is a handful of buffer copies or
//! frees however many clauses it holds.

use std::fmt::Write as _;

use sat::Lit;

/// Clauses of one kind, stored flat: clause `i` is
/// `lits[ends[i - 1]..ends[i]]` (starting at 0 for the first).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct ClauseList {
    lits: Vec<Lit>,
    ends: Vec<usize>,
}

impl ClauseList {
    /// Appends one clause and returns it.
    fn push<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> &[Lit] {
        let start = self.lits.len();
        self.lits.extend(lits);
        self.ends.push(self.lits.len());
        &self.lits[start..]
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    fn get(&self, i: usize) -> &[Lit] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.lits[start..self.ends[i]]
    }

    fn iter(&self) -> impl ExactSizeIterator<Item = &[Lit]> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// One past the largest variable index `clause` mentions (0 if empty).
fn vars_used(clause: &[Lit]) -> usize {
    clause
        .iter()
        .map(|l| l.var().index() + 1)
        .max()
        .unwrap_or(0)
}

/// Variable indices must stay below this bound to fit a [`sat::Var`]
/// (the limit `sat::Var::new` checks).
const VAR_LIMIT: u64 = (u32::MAX / 2) as u64;

/// A weighted partial MaxSAT instance: hard clauses that must hold and soft
/// clauses whose total satisfied weight is maximized.
///
/// # Examples
///
/// ```
/// use maxsat::WcnfInstance;
/// use sat::{Lit, Var};
///
/// let mut inst = WcnfInstance::new();
/// let a = inst.new_var().positive();
/// let b = inst.new_var().positive();
/// inst.add_hard([a, b]);
/// inst.add_soft(1, [!a]);
/// inst.add_soft(1, [!b]);
/// assert_eq!(inst.num_vars(), 2);
/// assert_eq!(inst.hard_clauses().next(), Some(&[a, b][..]));
/// assert_eq!(inst.soft_clauses().nth(1), Some((1, &[!b][..])));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WcnfInstance {
    num_vars: usize,
    hard: ClauseList,
    soft: ClauseList,
    /// `weights[i]` is the weight of soft clause `i`.
    weights: Vec<u64>,
}

impl WcnfInstance {
    /// Creates an empty instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> sat::Var {
        let v = sat::Var::new(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Ensures at least `n` variables exist.
    pub fn reserve_vars(&mut self, n: usize) {
        self.num_vars = self.num_vars.max(n);
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Adds a hard clause.
    pub fn add_hard<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        let used = vars_used(self.hard.push(lits));
        self.num_vars = self.num_vars.max(used);
    }

    /// Adds a soft clause with the given `weight`.
    ///
    /// # Panics
    ///
    /// Panics if `weight == 0`.
    pub fn add_soft<I: IntoIterator<Item = Lit>>(&mut self, weight: u64, lits: I) {
        assert!(weight > 0, "soft clause weight must be positive");
        let used = vars_used(self.soft.push(lits));
        self.num_vars = self.num_vars.max(used);
        self.weights.push(weight);
    }

    /// The hard clauses, in insertion order.
    pub fn hard_clauses(&self) -> impl ExactSizeIterator<Item = &[Lit]> + '_ {
        self.hard.iter()
    }

    /// The soft clauses as `(weight, literals)`, in insertion order.
    pub fn soft_clauses(&self) -> impl ExactSizeIterator<Item = (u64, &[Lit])> + '_ {
        self.weights.iter().copied().zip(self.soft.iter())
    }

    /// Sum of all soft weights (the worst possible cost plus one is used as
    /// the WCNF "top" weight).
    pub fn total_soft_weight(&self) -> u64 {
        self.weights.iter().sum()
    }

    /// Cost of `model` (indexed by variable): total weight of *falsified*
    /// soft clauses, or `None` if a hard clause is violated.
    pub fn cost_of(&self, model: &[bool]) -> Option<u64> {
        let sat_lit =
            |l: &Lit| model.get(l.var().index()).copied().unwrap_or(false) == l.is_positive();
        if !self.hard_clauses().all(|h| h.iter().any(sat_lit)) {
            return None;
        }
        Some(
            self.soft_clauses()
                .filter(|(_, lits)| !lits.iter().any(sat_lit))
                .map(|(weight, _)| weight)
                .sum(),
        )
    }

    /// Renders the instance in classic WCNF format.
    pub fn to_wcnf(&self) -> String {
        let top = self.total_soft_weight() + 1;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "p wcnf {} {} {}",
            self.num_vars,
            self.hard.len() + self.soft.len(),
            top
        );
        let hard = self.hard_clauses().map(|lits| (top, lits));
        for (weight, lits) in hard.chain(self.soft_clauses()) {
            let _ = write!(out, "{weight} ");
            for l in lits {
                let _ = write!(out, "{} ", l.to_dimacs());
            }
            let _ = writeln!(out, "0");
        }
        out
    }

    /// Parses a classic-format WCNF document.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed line: a bad header,
    /// a missing weight, a zero soft weight, an unparsable literal, or a
    /// variable count or literal too large for a [`sat::Var`].
    pub fn parse_wcnf(text: &str) -> Result<Self, String> {
        let mut inst = WcnfInstance::new();
        let mut top: Option<u64> = None;
        let mut lits = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            let err = |what: &str| format!("line {}: {what}", lineno + 1);
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            if let Some(rest) = line.strip_prefix('p') {
                let parts: Vec<&str> = rest.split_whitespace().collect();
                if parts.first() != Some(&"wcnf") || parts.len() < 4 {
                    return Err(err("bad wcnf header"));
                }
                let vars = parts[1]
                    .parse::<u64>()
                    .ok()
                    .filter(|&v| v < VAR_LIMIT)
                    .ok_or_else(|| err("bad var count"))?;
                inst.reserve_vars(vars as usize);
                top = Some(parts[3].parse().map_err(|_| err("bad top weight"))?);
                continue;
            }
            let mut toks = line.split_whitespace();
            let weight: u64 = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| err("missing weight"))?;
            lits.clear();
            for t in toks {
                let v = t
                    .parse::<i64>()
                    .ok()
                    .filter(|v| v.unsigned_abs() < VAR_LIMIT)
                    .ok_or_else(|| err(&format!("bad literal '{t}'")))?;
                if v == 0 {
                    break;
                }
                lits.push(Lit::from_dimacs(v));
            }
            match top {
                Some(t) if weight >= t => inst.add_hard(lits.iter().copied()),
                _ if weight == 0 => return Err(err("zero soft weight")),
                _ => inst.add_soft(weight, lits.iter().copied()),
            }
        }
        Ok(inst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    #[test]
    fn wcnf_round_trip() {
        let mut inst = WcnfInstance::new();
        inst.reserve_vars(3);
        inst.add_hard([lit(1), lit(-2)]);
        inst.add_soft(5, [lit(3)]);
        inst.add_soft(2, [lit(-1), lit(2)]);
        let text = inst.to_wcnf();
        let parsed = WcnfInstance::parse_wcnf(&text).expect("parses");
        assert_eq!(parsed.hard_clauses().len(), 1);
        assert_eq!(parsed.soft_clauses().len(), 2);
        assert_eq!(parsed.total_soft_weight(), 7);
    }

    #[test]
    fn cost_of_model() {
        let mut inst = WcnfInstance::new();
        inst.reserve_vars(2);
        inst.add_hard([lit(1)]);
        inst.add_soft(3, [lit(2)]);
        // x1=true, x2=false: hard ok, soft falsified.
        assert_eq!(inst.cost_of(&[true, false]), Some(3));
        // x1=false violates the hard clause.
        assert_eq!(inst.cost_of(&[false, true]), None);
        assert_eq!(inst.cost_of(&[true, true]), Some(0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        let mut inst = WcnfInstance::new();
        inst.add_soft(0, [lit(1)]);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(WcnfInstance::parse_wcnf("p cnf 1 1\n").is_err());
        assert!(WcnfInstance::parse_wcnf("p wcnf a b c\n").is_err());
        assert!(WcnfInstance::parse_wcnf("nonsense\n").is_err());
        // A zero-weight soft, with and without a header.
        assert!(WcnfInstance::parse_wcnf("0 1 0\n").is_err());
        assert!(WcnfInstance::parse_wcnf("p wcnf 1 1 5\n0 1 0\n").is_err());
        // A literal that does not fit a variable index.
        assert!(WcnfInstance::parse_wcnf("p wcnf 1 1 5\n5 4294967297 0\n").is_err());
        // A header variable count at the variable bound.
        let huge = format!("p wcnf {} 0 5\n", u32::MAX / 2);
        assert!(WcnfInstance::parse_wcnf(&huge).is_err());
    }

    #[test]
    fn clause_boundaries_survive_storage_and_round_trip() {
        let build = |split: usize, soft: bool| {
            let abc = [lit(1), lit(2), lit(3)];
            let mut inst = WcnfInstance::new();
            for part in [&abc[..split], &abc[split..]] {
                if soft {
                    inst.add_soft(1, part.iter().copied());
                } else {
                    inst.add_hard(part.iter().copied());
                }
            }
            inst
        };
        for soft in [false, true] {
            let (a_bc, ab_c) = (build(1, soft), build(2, soft));
            assert_ne!(a_bc, ab_c, "soft={soft}");
            for inst in [a_bc, ab_c] {
                let parsed = WcnfInstance::parse_wcnf(&inst.to_wcnf()).expect("parses");
                assert_eq!(parsed, inst, "soft={soft}");
            }
        }
        let mut inst = build(1, false);
        inst.add_hard([]);
        inst.add_hard([lit(-2)]);
        let clauses: Vec<&[Lit]> = inst.hard_clauses().collect();
        assert_eq!(clauses, [&[lit(1)][..], &[lit(2), lit(3)], &[], &[lit(-2)]]);
    }

    #[test]
    fn empty_hard_clause_is_unsatisfiable() {
        let mut inst = WcnfInstance::new();
        inst.reserve_vars(1);
        inst.add_hard([lit(1)]);
        inst.add_hard([]);
        inst.add_soft(1, [lit(-1)]);
        assert_eq!(inst.cost_of(&[true]), None);
        assert_eq!(inst.cost_of(&[false]), None);
        let out = crate::solve(&inst, sat::ResourceBudget::unlimited());
        assert_eq!(out.status, crate::MaxSatStatus::Unsat);
    }

    #[test]
    fn empty_soft_clause_is_a_constant_cost() {
        let mut inst = WcnfInstance::new();
        inst.add_soft(4, []);
        inst.add_soft(1, [lit(-1)]);
        inst.add_hard([lit(1)]);
        assert_eq!(inst.cost_of(&[true]), Some(5));
        let options = crate::SolveOptions::default();
        let budget = sat::ResourceBudget::unlimited();
        let ctx = crate::SearchContext::<sat::Solver>::new(&inst, &budget, &options);
        assert_eq!(ctx.constant_cost(), 4);
        assert_eq!(ctx.quantized_indicators().len(), 1, "no indicator for []");
        let out = crate::solve(&inst, budget);
        assert_eq!(out.status, crate::MaxSatStatus::Optimal);
        assert_eq!(out.cost, Some(5));
    }

    #[test]
    fn reserve_vars_without_clauses() {
        let mut inst = WcnfInstance::new();
        inst.reserve_vars(7);
        assert_eq!(inst.num_vars(), 7);
        inst.reserve_vars(3);
        assert_eq!(inst.num_vars(), 7);
        assert_eq!(inst.hard_clauses().len(), 0);
        assert_eq!(inst.soft_clauses().len(), 0);
        let parsed = WcnfInstance::parse_wcnf(&inst.to_wcnf()).expect("parses");
        assert_eq!(parsed.num_vars(), 7);
    }
}
