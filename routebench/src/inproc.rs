//! The two in-process workloads. Both call the library the way a user
//! does: `routers::RouterRegistry` routers, then `circuit::verify`, then
//! `RouteOutcome::to_json` — the path `experiments::run_tool` takes. One
//! client, closed loop: the next request is sent when the previous one is
//! in hand.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use arch::{ConnectivityGraph, NoiseModel};
use circuit::suite::Benchmark;
use circuit::verify::verify;
use circuit::{Circuit, Objective, RouteError, RouteRequest, RouteSpec};
use routers::{BoxedRouter, RouterRegistry};

use crate::inputs::{fidelity_circuit, qaoa, Rng, StratifiedDraw};
use crate::report::{peak_rss_mb, Record, Run, Status};
use crate::trace::Tracer;
use crate::{repeat_setup, Args};

/// Per-request budget of `suite-swap`. Proven circuits of the drawn strata
/// finish in 1–50 ms or else need well over this, so few of them sit near
/// the cut; the rest are budget-bound and answer at the deadline.
pub const SUITE_BUDGET: Duration = Duration::from_millis(200);
/// Per-request budget of the fidelity requests of `weighted-cyclic`: caps
/// the heavy tail (most drawn circuits take 20–150 ms, the slowest ~1 s).
pub const FIDELITY_BUDGET: Duration = Duration::from_millis(300);
/// Per-request budget of the cyclic requests (they take about 0.2 s).
pub const CYCLIC_BUDGET: Duration = Duration::from_millis(5000);

/// The `suite-swap` stratum of a suite circuit and its requests per round.
/// The 35 named RevLib circuits of at most 6 qubits are the paper's small
/// traffic and carry the median; the 5 larger named ones, and tier t1 (at
/// most 120 two-qubit gates) and t2 (at most 450) by generator family,
/// make the tail, so every run sees the same mix of provable and
/// budget-bound kinds. Tiers t3/t4 are all budget-bound at any budget a
/// run can afford: they would add only timeouts, and their tket counts
/// would swamp `swap_ratio`.
fn suite_stratum(b: &Benchmark) -> Option<(String, usize)> {
    let family = crate::inputs::family(&b.name);
    match crate::inputs::tier(&b.name) {
        "named" if b.circuit.num_qubits() <= 6 => Some(("named/small".into(), 36)),
        "named" => Some(("named/large".into(), 2)),
        "t1" => Some((format!("t1/{family}"), 2)),
        "t2" => Some((format!("t2/{family}"), 1)),
        _ => None,
    }
}

/// One round of `weighted-cyclic`: (class, fresh). A slot that is not
/// fresh re-sends an earlier request of the same class, so the run checks
/// that serial answers repeat while the class shares stay fixed. Cyclic
/// requests are the majority so that the median and p90 fall in their
/// tight latency band rather than in the fidelity requests' long tail.
const ROUND: [(&str, bool); 10] = [
    ("fidelity", true),
    ("cyclic", true),
    ("fidelity", true),
    ("cyclic", true),
    ("cyclic", true),
    ("fidelity", true),
    ("cyclic", true),
    ("cyclic", true),
    ("fidelity", false),
    ("cyclic", false),
];

/// One prepared request.
struct Job {
    key: String,
    class: &'static str,
    lane: usize,
    circuit: usize,
    spec: RouteSpec,
    tket_swaps: usize,
    tket_infidelity: Option<f64>,
}

/// A router and the device it routes onto.
struct Lane {
    router: BoxedRouter,
    graph: ConnectivityGraph,
}

/// Everything a run needs, built at set-up.
struct Prepared {
    circuits: Vec<Circuit>,
    lanes: Vec<Lane>,
    jobs: Vec<Job>,
    baseline_rows: Vec<String>,
    mix: Vec<(String, usize)>,
}

impl Prepared {
    /// Routes every distinct circuit with tket (the swap and infidelity
    /// baselines), then warms the routers up.
    fn finish_setup(&mut self) -> Result<(), String> {
        let tket = RouterRegistry::standard()
            .create("tket")
            .map_err(|e| e.to_string())?;
        let mut memo: HashMap<usize, (usize, Option<f64>)> = HashMap::new();
        for job in &mut self.jobs {
            let (swaps, infid) = match memo.get(&job.circuit) {
                Some(&hit) => hit,
                None => {
                    let c = &self.circuits[job.circuit];
                    let graph = &self.lanes[job.lane].graph;
                    let outcome = tket.route_request(&RouteRequest::new(c, graph));
                    let routed = outcome
                        .routed()
                        .ok_or_else(|| format!("tket failed on {}", c.name()))?;
                    verify(c, graph, routed)
                        .map_err(|e| format!("tket answer to {}: {e}", c.name()))?;
                    let infid = match &job.spec.objective {
                        Objective::Fidelity(noise) => Some(routed.log_infidelity(c, graph, noise)),
                        Objective::SwapCount => None,
                    };
                    self.baseline_rows.push(outcome.to_json());
                    memo.insert(job.circuit, (routed.swap_count(), infid));
                    (routed.swap_count(), infid)
                }
            };
            job.tket_swaps = swaps;
            job.tket_infidelity = infid;
        }
        // Warm each router up on a fixed two-gate circuit, so set-up time
        // does not depend on which circuit the seed drew first.
        let mut tiny = Circuit::new(2);
        tiny.cx(0, 1);
        tiny.cx(1, 0);
        for (l, lane) in self.lanes.iter().enumerate() {
            let objective = self
                .jobs
                .iter()
                .find(|j| j.lane == l)
                .map(|j| j.spec.objective.clone())
                .unwrap_or_default();
            let spec = RouteSpec {
                objective,
                ..RouteSpec::default()
            };
            lane.router
                .route_request(&RouteRequest::with_spec(&tiny, &lane.graph, spec));
        }
        Ok(())
    }
}

fn create(registry: &RouterRegistry, name: &str) -> Result<BoxedRouter, String> {
    registry.create(name).map_err(|e| e.to_string())
}

/// `suite-swap`: a seeded, stratified draw from the 160-circuit suite on
/// Tokyo, each routed by `satmap` with the default spec (serial,
/// swap-count) under [`SUITE_BUDGET`].
pub fn suite_swap(args: &Args) -> Result<Run, String> {
    let (prepared, setup_s) = repeat_setup(|| {
        let registry = RouterRegistry::standard();
        let suite = circuit::suite::suite();
        let mut rng = Rng::new(args.seed);
        let mut draw = StratifiedDraw::new(&suite, suite_stratum, &mut rng);
        let spec = RouteSpec {
            budget: SUITE_BUDGET.into(),
            ..RouteSpec::default()
        };
        let mut jobs = Vec::new();
        // More than any run can route (fastest rounds take ~2 s).
        let rounds = (args.seconds / 2.0).ceil() as usize + 2;
        for _ in 0..rounds {
            for index in draw.next_round(&mut rng) {
                jobs.push(Job {
                    key: suite[index].name.clone(),
                    class: crate::inputs::tier(&suite[index].name),
                    lane: 0,
                    circuit: index,
                    spec: spec.clone(),
                    tket_swaps: 0,
                    tket_infidelity: None,
                });
            }
        }
        let mut prepared = Prepared {
            circuits: suite.into_iter().map(|b| b.circuit).collect(),
            lanes: vec![Lane {
                router: create(&registry, "satmap")?,
                graph: arch::devices::tokyo(),
            }],
            jobs,
            baseline_rows: Vec::new(),
            mix: draw.shares(),
        };
        prepared.finish_setup()?;
        Ok(prepared)
    })?;
    let notes = vec![
        ("device".into(), "tokyo".into()),
        ("router".into(), "satmap (serial, swap-count)".into()),
        ("budget_ms".into(), SUITE_BUDGET.as_millis().to_string()),
    ];
    Ok(drive("suite-swap", args, prepared, setup_s, notes))
}

/// `weighted-cyclic`: `Objective::Fidelity` requests to `nl-satmap` on
/// small seeded circuits, interleaved with QAOA MaxCut circuits sent to
/// `cyc-satmap` with their declared repeated structure, in [`ROUND`]s.
/// The device is the 2x3 grid: on Tokyo a single fidelity request
/// takes 0.05–9.6 s and a cyclic one about 1.7 s, too few per run for a
/// steady median.
pub fn weighted_cyclic(args: &Args) -> Result<Run, String> {
    let (prepared, setup_s) = repeat_setup(|| {
        let registry = RouterRegistry::standard();
        let fidelity_graph = arch::devices::grid(2, 2);
        let noise = NoiseModel::synthetic(&fidelity_graph, 2022);
        let mut rng = Rng::new(args.seed);
        let fidelity_spec = RouteSpec {
            budget: FIDELITY_BUDGET.into(),
            objective: Objective::Fidelity(noise.clone()),
            ..RouteSpec::default()
        };
        let mut circuits = Vec::new();
        let mut jobs: Vec<Job> = Vec::new();
        // More than any run can route (requests take ≥ 20 ms).
        let count = (args.seconds * 50.0) as usize + ROUND.len();
        let mut earlier: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
        for i in 0..count {
            let (class, fresh) = ROUND[i % ROUND.len()];
            let slot = usize::from(class == "cyclic");
            if !fresh {
                let pick = earlier[slot][rng.below(earlier[slot].len())];
                let again = &jobs[pick];
                jobs.push(Job {
                    key: again.key.clone(),
                    class,
                    lane: again.lane,
                    circuit: again.circuit,
                    spec: again.spec.clone(),
                    tket_swaps: 0,
                    tket_infidelity: None,
                });
                continue;
            }
            let (circuit, lane, spec) = if class == "fidelity" {
                let seed = rng.next_u64() >> 16;
                (fidelity_circuit(4, 6, seed), 0, fidelity_spec.clone())
            } else {
                let cycles = 2 + rng.below(3);
                let graph_seed = rng.next_u64() >> 16;
                let (c, repetition) = qaoa(6, cycles, graph_seed);
                let spec = RouteSpec {
                    budget: CYCLIC_BUDGET.into(),
                    repetition: Some(repetition),
                    ..RouteSpec::default()
                };
                (c, 1, spec)
            };
            earlier[slot].push(jobs.len());
            jobs.push(Job {
                key: circuit.name().to_string(),
                class,
                lane,
                circuit: circuits.len(),
                spec,
                tket_swaps: 0,
                tket_infidelity: None,
            });
            circuits.push(circuit);
        }
        let mut prepared = Prepared {
            circuits,
            lanes: vec![
                Lane {
                    router: create(&registry, "nl-satmap")?,
                    graph: fidelity_graph,
                },
                Lane {
                    router: create(&registry, "cyc-satmap")?,
                    graph: arch::devices::grid(2, 3),
                },
            ],
            jobs,
            baseline_rows: Vec::new(),
            mix: ["fidelity", "cyclic"]
                .iter()
                .flat_map(|&class| {
                    [true, false].map(|fresh| {
                        let n = ROUND.iter().filter(|&&slot| slot == (class, fresh)).count();
                        (
                            format!("{class}{}", if fresh { "" } else { " (re-sent)" }),
                            n,
                        )
                    })
                })
                .collect(),
        };
        prepared.finish_setup()?;
        Ok(prepared)
    })?;
    let notes = vec![
        (
            "devices".into(),
            "fidelity grid:2x2 with noise model synthetic(2022), cyclic grid:2x3".into(),
        ),
        (
            "fidelity_budget_ms".into(),
            FIDELITY_BUDGET.as_millis().to_string(),
        ),
        (
            "cyclic_budget_ms".into(),
            CYCLIC_BUDGET.as_millis().to_string(),
        ),
    ];
    Ok(drive("weighted-cyclic", args, prepared, setup_s, notes))
}

/// The timed closed loop shared by both workloads.
fn drive(
    workload: &'static str,
    args: &Args,
    p: Prepared,
    setup_s: Vec<f64>,
    notes: Vec<(String, String)>,
) -> Run {
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(args.seconds);
    let mut tracer = Tracer::new(epoch, args.trace);
    let mut records = Vec::new();
    // Serial answers that carry their full proof strength must repeat
    // exactly when a request is sent again.
    let mut first_answer: HashMap<&str, usize> = HashMap::new();
    let mut gate_failures = Vec::new();
    for (i, job) in p.jobs.iter().cycle().enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let id = i as u64;
        let traced = tracer.set_active(crate::traced_slot(i));
        let c = &p.circuits[job.circuit];
        let Lane { router, graph } = &p.lanes[job.lane];
        let start = Instant::now();
        let root = tracer.open("request", "bench", id, None);
        let request = RouteRequest::with_spec(c, graph, job.spec.clone()).with_request_id(id);
        if traced {
            let _ = tracer.span("validate", "circuit", id, root, || request.validate());
            let _ = tracer.span("fingerprint", "circuit", id, root, || request.fingerprint());
        }
        let outcome = tracer.span("route", "core", id, root, || router.route_request(&request));
        let checked = tracer.span("verify", "circuit", id, root, || {
            outcome.routed().map(|r| verify(c, graph, r))
        });
        let row = tracer.span("to_json", "circuit", id, root, || outcome.to_json());
        tracer.close(root);
        let latency_s = start.elapsed().as_secs_f64();

        let status = match (&checked, outcome.error()) {
            (Some(Ok(())), _) => Status::Answered,
            (Some(Err(e)), _) => Status::Failed(format!("verify: {e}")),
            (None, Some(RouteError::Timeout)) => Status::BudgetExhausted,
            (None, Some(e)) => Status::Failed(e.to_string()),
            (None, None) => Status::Failed("no result".into()),
        };
        if let Status::Failed(why) = &status {
            gate_failures.push(format!("{} ({}): {why}", job.key, job.class));
        }
        let swaps = outcome.routed().map(|r| r.swap_count());
        // A weighted answer degraded only by quantization repeats, unless
        // the budget also cut its search: the row then still says
        // "quantized", so an answer that used most of its budget is not
        // compared.
        let cut = job.spec.budget.remaining_time().is_some_and(|allowed| {
            outcome.wall_time().as_secs_f64() >= 0.9 * allowed.as_secs_f64()
        });
        let full_strength = outcome.quality().is_proven()
            || (outcome.diagnostic("degraded_reason") == Some("quantized") && !cut);
        if let (Status::Answered, Some(s), true) = (&status, swaps, full_strength) {
            match first_answer.get(job.key.as_str()) {
                Some(&before) if before != s => gate_failures.push(format!(
                    "{}: serial answer changed between repeats ({before} then {s} swaps)",
                    job.key
                )),
                Some(_) => {}
                None => {
                    first_answer.insert(&job.key, s);
                }
            }
        }
        let infidelity = match (&job.spec.objective, job.tket_infidelity) {
            (Objective::Fidelity(noise), Some(tket)) => {
                let mine = match status {
                    Status::Answered => outcome.routed().map(|r| r.log_infidelity(c, graph, noise)),
                    _ => None,
                };
                Some((mine, tket))
            }
            _ => None,
        };
        records.push(Record {
            id,
            key: job.key.clone(),
            class: job.class,
            row,
            latency_s,
            ack_s: None,
            queue_wait_s: None,
            done_s: epoch.elapsed().as_secs_f64(),
            status,
            swaps,
            tket_swaps: job.tket_swaps,
            infidelity,
            traced,
        });
    }
    let window_s = records.last().map_or(0.0, |r| r.done_s);
    Run {
        workload,
        records,
        window_s,
        setup_s,
        peak_rss_mb: peak_rss_mb("self"),
        gate_failures,
        tracer,
        baseline_rows: p.baseline_rows,
        mix: p.mix,
        notes,
        shed_ratio: 0.0,
        auto_drift: 0,
    }
}
