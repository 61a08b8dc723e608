//! Seeded input generation. Every draw a workload makes comes from the
//! `--seed` argument through [`Rng`]; the program only ever sees the
//! generated requests.

use circuit::suite::Benchmark;
use circuit::{Circuit, Gate, OneQubitKind, Qubit, RepeatedStructure};

/// SplitMix64: small, seedable and stable across platforms.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Walks a pool in seeded random order, reshuffling after each pass, so a
/// run covers the pool evenly however long it lasts.
pub struct Cycler {
    order: Vec<usize>,
    pos: usize,
}

impl Cycler {
    pub fn new(len: usize, rng: &mut Rng) -> Self {
        let mut order: Vec<usize> = (0..len).collect();
        rng.shuffle(&mut order);
        Cycler { order, pos: 0 }
    }

    pub fn next(&mut self, rng: &mut Rng) -> usize {
        if self.pos == self.order.len() {
            rng.shuffle(&mut self.order);
            self.pos = 0;
        }
        self.pos += 1;
        self.order[self.pos - 1]
    }
}

/// The suite tier a benchmark name belongs to: `named` for the 40
/// RevLib-named circuits, `t1`..`t4` for the synthetic size tiers.
pub fn tier(name: &str) -> &'static str {
    for t in ["t1", "t2", "t3", "t4"] {
        if name.ends_with(&format!("_{t}")) {
            return t;
        }
    }
    "named"
}

/// The generator family of a synthetic suite circuit (`rev`, `adder`,
/// `modc`, `qft`, `rand`, `ising`); the named circuits are one family.
pub fn family(name: &str) -> &str {
    match tier(name) {
        "named" => "named",
        _ => name.split('_').next().unwrap_or(name),
    }
}

/// A seeded draw of suite indices, stratified with fixed per-round
/// weights so that every run sees the same mix of circuit kinds and only
/// the choice within a stratum depends on the seed.
pub struct StratifiedDraw {
    strata: Vec<(String, Vec<usize>, Cycler)>,
    round: Vec<usize>,
}

impl StratifiedDraw {
    /// `stratum(benchmark)` names the benchmark's stratum and gives the
    /// stratum's requests per round; `None` leaves the benchmark out.
    pub fn new(
        suite: &[Benchmark],
        stratum: impl Fn(&Benchmark) -> Option<(String, usize)>,
        rng: &mut Rng,
    ) -> Self {
        let mut keys: Vec<(String, usize)> = Vec::new();
        let mut members: Vec<Vec<usize>> = Vec::new();
        for (i, b) in suite.iter().enumerate() {
            let Some((key, weight)) = stratum(b) else {
                continue;
            };
            match keys.iter().position(|(k, _)| *k == key) {
                Some(k) => members[k].push(i),
                None => {
                    keys.push((key, weight));
                    members.push(vec![i]);
                }
            }
        }
        let mut strata = Vec::new();
        let mut round = Vec::new();
        for ((key, weight), pool) in keys.into_iter().zip(members) {
            round.extend(std::iter::repeat_n(strata.len(), weight));
            let cycler = Cycler::new(pool.len(), rng);
            strata.push((key, pool, cycler));
        }
        StratifiedDraw { strata, round }
    }

    /// Stratum name and per-round weight, for the recorded mix shares.
    pub fn shares(&self) -> Vec<(String, usize)> {
        self.strata
            .iter()
            .enumerate()
            .map(|(s, (key, _, _))| (key.clone(), self.round.iter().filter(|&&r| r == s).count()))
            .collect()
    }

    /// The next `round` of suite indices, in seeded order.
    pub fn next_round(&mut self, rng: &mut Rng) -> Vec<usize> {
        let mut order = self.round.clone();
        rng.shuffle(&mut order);
        order
            .into_iter()
            .map(|s| {
                let (_, pool, cycler) = &mut self.strata[s];
                pool[cycler.next(rng)]
            })
            .collect()
    }
}

/// The circuit with one trailing `rz` whose angle is drawn from `rng`: the
/// same routing problem (single-qubit gates do not constrain routing) under
/// a new cache key, the way a parameter sweep resubmits one circuit with
/// new angles.
pub fn angle_variant(c: &Circuit, rng: &mut Rng, tag: &str) -> Circuit {
    let mut out = Circuit::named(&format!("{}#{tag}", c.name()), c.num_qubits());
    out.extend_from(c);
    let theta = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * std::f64::consts::TAU;
    out.push(Gate::One {
        kind: OneQubitKind::Rz,
        qubit: Qubit(0),
        param: Some(theta),
    });
    out
}

/// A small random circuit for the fidelity objective: `qubits` logical
/// qubits, `cx` CX gates with unrestricted partners and half as many
/// single-qubit gates.
pub fn fidelity_circuit(qubits: usize, cx: usize, seed: u64) -> Circuit {
    let mut c = circuit::generators::random_local(qubits, cx, qubits - 1, 0.5, seed);
    c.set_name(&format!("fid_{qubits}q_{cx}cx_s{seed}"));
    c
}

/// QAOA MaxCut `H-layer ; C × cycles` on a seeded 3-regular graph, with the
/// repeated-structure declaration the cyclic router needs.
pub fn qaoa(n: usize, cycles: usize, graph_seed: u64) -> (Circuit, RepeatedStructure) {
    let edges = circuit::qaoa::three_regular_graph(n, graph_seed);
    let sub = circuit::qaoa::qaoa_subcircuit(n, &edges, 0.4, 0.3);
    let mut full = Circuit::named(&format!("qaoa_{n}q_{cycles}c_g{graph_seed}"), n);
    for q in 0..n {
        full.h(q);
    }
    let prefix_len = full.len();
    for _ in 0..cycles {
        full.extend_from(&sub);
    }
    (full, RepeatedStructure { prefix_len, cycles })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draw() {
        let suite = circuit::suite::suite();
        let stratum = |b: &Benchmark| {
            let t = tier(&b.name);
            (t == "named" || t == "t1").then(|| (t.to_string(), 1))
        };
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            let mut d = StratifiedDraw::new(&suite, stratum, &mut rng);
            (0..5)
                .flat_map(|_| d.next_round(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }

    #[test]
    fn tiers_and_families_parse() {
        assert_eq!(tier("modc_7q_49g_t1"), "t1");
        assert_eq!(family("modc_7q_49g_t1"), "modc");
        assert_eq!(tier("4mod5-bdd_287"), "named");
        assert_eq!(family("4mod5-bdd_287"), "named");
    }

    #[test]
    fn angle_variants_keep_the_routing_problem() {
        let c = circuit::generators::qft(5);
        let g = arch::devices::tokyo();
        let mut rng = Rng::new(1);
        let (a, b) = (
            angle_variant(&c, &mut rng, "a"),
            angle_variant(&c, &mut rng, "b"),
        );
        assert_eq!(a.len(), c.len() + 1);
        assert_eq!(a.two_qubit_interactions(), c.two_qubit_interactions());
        let fingerprint = |x: &Circuit| circuit::RouteRequest::new(x, &g).fingerprint();
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }
}
