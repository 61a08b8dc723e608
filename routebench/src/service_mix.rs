//! `service-mix`: the `routed` daemon with its default configuration, over
//! loopback, under a closed loop of [`CONNECTIONS`] clients.
//!
//! The daemon runs in a child process (this binary re-executed with
//! [`SERVE_FLAG`], which binds `service::Daemon` with
//! `DaemonConfig::default()` exactly as `routed --addr 127.0.0.1:0` does),
//! so its peak memory is its own. Outcome rows carry swap counts but not
//! the routed circuit, so after the timed window every distinct request is
//! routed again in-process by the same router, that answer is verified
//! with `circuit::verify`, and the daemon's answer must match its cost.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use circuit::verify::verify;
use circuit::{Circuit, Parallelism, RouteRequest, RouteSpec, SearchStrategy};
use routers::RouterRegistry;
use service::wire::{self, parse_json, JsonValue, Request};
use service::{Daemon, DaemonConfig, ServiceClient};

use crate::inputs::{angle_variant, family, tier, Cycler, Rng};
use crate::report::{peak_rss_mb, Record, Run, Status};
use crate::trace::Tracer;
use crate::{repeat_setup, Args};

/// Hidden first argument that turns this binary into the daemon.
pub const SERVE_FLAG: &str = "--serve-routed";

/// Client connections, each with one request outstanding (closed loop).
/// Matches the 2-core host the baseline was measured on.
pub const CONNECTIONS: usize = 2;

/// Budget of the small `satmap` requests.
const SMALL_BUDGET_MS: u64 = 2000;
/// Budget of the `"parallelism":"auto"` requests.
const AUTO_BUDGET_MS: u64 = 5000;
/// Budget of the requests meant to walk the supervisor's retry ladder to
/// its heuristic fallback: far below what their circuits need.
const LADDER_BUDGET_MS: u64 = 10;
/// A repeat re-sends a line at least this many requests old, so the
/// original has finished and its answer is cached.
const REPEAT_DISTANCE: usize = 40;

/// Requests per round of 20, by class. Small `satmap` requests are half
/// the traffic, so the median falls inside their latency band rather than
/// on the edge between them and the sub-millisecond heuristics and cache
/// hits.
const MIX: &[(&str, usize)] = &[
    ("tket", 1),
    ("sabre", 1),
    ("astar", 1),
    ("satmap", 7),
    ("satmap-qasm", 3),
    ("repeat", 4),
    ("auto", 2),
    ("ladder", 1),
];

/// Classes whose answers the route cache keeps, so a re-send of one is a
/// cache hit.
const CACHED: &[&str] = &["tket", "sabre", "astar", "satmap", "satmap-qasm"];

/// Runs the daemon in this process until a client drains it.
pub fn serve() -> ! {
    let daemon: Daemon = match Daemon::bind(DaemonConfig::default()) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("routebench daemon: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("listening {}", daemon.local_addr());
    let _ = std::io::stdout().flush();
    daemon.join();
    std::process::exit(0);
}

/// The daemon child process; killed and reaped if dropped undrained.
struct DaemonProcess {
    child: Child,
    addr: SocketAddr,
}

impl DaemonProcess {
    fn spawn() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
        let mut child = Command::new(exe)
            .arg(SERVE_FLAG)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("starting the daemon: {e}"))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line));
        let addr = line
            .trim()
            .strip_prefix("listening ")
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Some(Ok(_)), Some(addr)) => Ok(DaemonProcess { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "daemon did not report its address (got '{}')",
                    line.trim()
                ))
            }
        }
    }

    /// Drains the daemon over the wire and waits for it to exit.
    fn drain(mut self) -> Result<(), String> {
        let result = ServiceClient::connect(self.addr)
            .and_then(|mut c| c.drain())
            .map_err(|e| format!("draining the daemon: {e}"));
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for the daemon: {e}"))?;
        result?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for DaemonProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One prepared request.
struct Req {
    key: String,
    class: &'static str,
    router: &'static str,
    line: String,
    /// The circuit the daemon will decode (repeats share the original's).
    circuit: usize,
    /// For repeats: the index of the request re-sent.
    repeat_of: Option<usize>,
    /// The line's knobs as an in-process spec, always serial: the reference
    /// every answer, Auto ones included, is compared with.
    spec: RouteSpec,
    tket_swaps: usize,
}

struct Prepared {
    circuits: Vec<Circuit>,
    reqs: Vec<Req>,
    baseline_rows: Vec<String>,
    daemon: DaemonProcess,
}

fn prepare(args: &Args) -> Result<Prepared, String> {
    let registry = RouterRegistry::standard();
    let tokyo = arch::devices::tokyo();
    let suite = circuit::suite::suite();
    let mut rng = Rng::new(args.seed);

    let pool = |keep: &dyn Fn(&circuit::suite::Benchmark) -> bool| -> Vec<usize> {
        (0..suite.len()).filter(|&i| keep(&suite[i])).collect()
    };
    let heuristic_pool = pool(&|b| tier(&b.name) == "named");
    let small_pool = pool(&|b| tier(&b.name) == "named" && b.circuit.num_qubits() <= 6);
    // Auto requests go where the dispatcher widens the plan.
    let auto_pool = pool(&|b| {
        let small = tier(&b.name) == "named" && b.circuit.num_qubits() <= 6;
        let easy_t1 = tier(&b.name) == "t1"
            && matches!(family(&b.name), "rev" | "adder" | "modc")
            && b.circuit.num_two_qubit_gates() <= 40;
        (small || easy_t1)
            && satmap::planned_width(
                &b.circuit,
                &tokyo,
                Parallelism::Auto,
                SearchStrategy::Auto,
                1,
            ) > 1
    });
    let ladder_pool = pool(&|b| tier(&b.name) == "t1" && matches!(family(&b.name), "qft" | "rand"));
    let mut cyclers: HashMap<&str, (Vec<usize>, Cycler)> = HashMap::new();
    for (name, members) in [
        ("heuristic", heuristic_pool),
        ("small", small_pool),
        ("auto", auto_pool),
        ("ladder", ladder_pool),
    ] {
        let cycler = Cycler::new(members.len(), &mut rng);
        cyclers.insert(name, (members, cycler));
    }
    let mut draw = |name: &str, rng: &mut Rng| {
        let (members, cycler) = cyclers.get_mut(name).expect("pool exists");
        members[cycler.next(rng)]
    };

    let mut round: Vec<&'static str> = MIX
        .iter()
        .flat_map(|&(class, n)| std::iter::repeat_n(class, n))
        .collect();
    // More than any run can send (the cheapest rounds take ~0.1 s).
    let count = (args.seconds * 200.0) as usize + 64;
    let mut circuits: Vec<Circuit> = Vec::new();
    let mut reqs: Vec<Req> = Vec::with_capacity(count);
    // Indices of requests whose answers the cache keeps.
    let mut cached: Vec<usize> = Vec::new();
    while reqs.len() < count {
        rng.shuffle(&mut round);
        for &class in &round {
            let i = reqs.len();
            let old_enough = cached.partition_point(|&j| j + REPEAT_DISTANCE <= i);
            if class == "repeat" && old_enough > 0 {
                let j = cached[rng.below(old_enough)];
                let original = &reqs[j];
                reqs.push(Req {
                    key: original.key.clone(),
                    class: "repeat",
                    router: original.router,
                    line: original.line.clone(),
                    circuit: original.circuit,
                    repeat_of: Some(j),
                    spec: original.spec.clone(),
                    tket_swaps: 0,
                });
                continue;
            }
            // Nothing old enough to re-send yet (the first rounds only):
            // send a fresh small satmap request instead.
            let class = if class == "repeat" { "satmap" } else { class };
            if CACHED.contains(&class) {
                cached.push(i);
            }
            let (pool, router, budget_ms) = match class {
                "tket" | "sabre" | "astar" => ("heuristic", class, None),
                "satmap" | "satmap-qasm" => ("small", "satmap", Some(SMALL_BUDGET_MS)),
                "auto" => ("auto", "satmap", Some(AUTO_BUDGET_MS)),
                _ => ("ladder", "satmap", Some(LADDER_BUDGET_MS)),
            };
            let mut knobs = Vec::new();
            let mut spec = RouteSpec::default();
            if let Some(ms) = budget_ms {
                knobs.push(("budget_ms", ms.to_string()));
                spec.budget = Duration::from_millis(ms).into();
            }
            if class == "auto" {
                knobs.push(("parallelism", "\"auto\"".to_string()));
            }
            let base = &suite[draw(pool, &mut rng)].circuit;
            let variant = angle_variant(base, &mut rng, &i.to_string());
            let (circuit, line) = if class == "satmap-qasm" {
                let source = circuit::qasm::print(&variant);
                let line = wire::qasm_route_line(router, "tokyo", &source, &knobs);
                let mut parsed = circuit::qasm::parse(&source).map_err(|e| {
                    format!("printed QASM of {} does not parse: {e}", variant.name())
                })?;
                parsed.set_name(variant.name());
                (parsed, line)
            } else {
                let line = wire::route_line(router, "tokyo", &variant, &knobs);
                (variant, line)
            };
            circuits.push(circuit);
            reqs.push(Req {
                key: circuits[circuits.len() - 1].name().to_string(),
                class,
                router,
                line,
                circuit: circuits.len() - 1,
                repeat_of: None,
                spec,
                tket_swaps: 0,
            });
        }
    }

    // Swap baselines: tket on every circuit the daemon will see.
    let tket = registry.create("tket").map_err(|e| e.to_string())?;
    let mut tket_swaps = Vec::with_capacity(circuits.len());
    let mut baseline_rows = Vec::with_capacity(circuits.len());
    for c in &circuits {
        let outcome = tket.route_request(&RouteRequest::new(c, &tokyo));
        let routed = outcome
            .routed()
            .ok_or_else(|| format!("tket failed on {}", c.name()))?;
        verify(c, &tokyo, routed).map_err(|e| format!("tket answer to {}: {e}", c.name()))?;
        tket_swaps.push(routed.swap_count());
        baseline_rows.push(outcome.to_json());
    }
    for r in &mut reqs {
        r.tket_swaps = tket_swaps[r.circuit];
    }

    let daemon = DaemonProcess::spawn()?;
    warm_up(daemon.addr)?;
    Ok(Prepared {
        circuits,
        reqs,
        baseline_rows,
        daemon,
    })
}

/// One request the run does not count, so connection set-up and the first
/// worker's lazy state are paid before timing.
fn warm_up(addr: SocketAddr) -> Result<(), String> {
    let mut c = Circuit::new(2);
    c.cx(0, 1);
    let line = wire::route_line("tket", "linear:2", &c, &[]);
    let mut client = ServiceClient::connect(addr).map_err(|e| format!("connecting: {e}"))?;
    let id = client
        .submit_route(&line)
        .map_err(|e| format!("warm-up: {e}"))?
        .id();
    client.wait(id).map_err(|e| format!("warm-up: {e}"))?;
    Ok(())
}

/// What one client saw for one request.
struct Sample {
    index: usize,
    submit: Instant,
    ack: Option<Instant>,
    done: Instant,
    row: String,
    /// Protocol-level problem (not a routing failure).
    problem: Option<String>,
    traced: bool,
}

fn row_type(v: &JsonValue) -> &str {
    v.get("type").and_then(JsonValue::as_str).unwrap_or("")
}

fn row_id(v: &JsonValue) -> Option<u64> {
    v.get("request_id").and_then(JsonValue::as_u64)
}

/// What a client thread hands back: its samples, its spans, and its
/// connection (still open, for the closing `stats` check).
type ClientResult = Result<(Vec<Sample>, Tracer, ServiceClient), String>;

/// One closed-loop client: take the next request, send it, read its ack
/// and outcome, repeat until the deadline.
fn client_loop(
    addr: SocketAddr,
    reqs: &[Req],
    next: &AtomicUsize,
    epoch: Instant,
    deadline: Instant,
    trace: bool,
) -> ClientResult {
    let mut client = ServiceClient::connect(addr).map_err(|e| format!("connecting: {e}"))?;
    let mut tracer = Tracer::new(epoch, trace);
    let mut samples = Vec::new();
    loop {
        if Instant::now() >= deadline {
            break;
        }
        let index = next.fetch_add(1, Ordering::SeqCst);
        let Some(req) = reqs.get(index) else { break };
        let id = index as u64;
        let traced = tracer.set_active(crate::traced_slot(index));
        let root = tracer.open("request", "bench", id, None);
        if traced {
            // The daemon parses, validates and fingerprints every line;
            // the same public calls, timed here on the same line.
            let parsed = tracer.span("wire_parse", "service", id, root, || {
                wire::parse_request(&req.line)
            });
            if let Ok(Request::Route(cmd)) = parsed {
                let request = RouteRequest::with_spec(&cmd.circuit, &cmd.graph, cmd.spec.clone());
                let _ = tracer.span("validate", "circuit", id, root, || request.validate());
                let _ = tracer.span("fingerprint", "circuit", id, root, || request.fingerprint());
            }
        }
        let submit = Instant::now();
        let mut problem = None;
        let mut ack = None;
        let mut row = String::new();
        let exchange = (|| -> std::io::Result<()> {
            client.send(&req.line)?;
            let first = client.recv()?;
            let at = Instant::now();
            let v = parse_json(&first).map_err(std::io::Error::other)?;
            match row_type(&v) {
                "ack" => {
                    ack = Some(at);
                    let acked = row_id(&v);
                    row = client.recv()?;
                    let w = parse_json(&row).map_err(std::io::Error::other)?;
                    if row_type(&w) != "outcome" || row_id(&w) != acked {
                        problem = Some(format!("ack {acked:?} answered by '{row}'"));
                    }
                }
                "outcome" => row = first,
                _ => problem = Some(format!("unexpected line '{first}'")),
            }
            Ok(())
        })();
        let done = Instant::now();
        if let Err(e) = exchange {
            problem = Some(format!("connection: {e}"));
        }
        if let Some(a) = ack {
            tracer.record("ack", "service", id, root, submit, a);
            tracer.record("served", "service", id, root, a, done);
        } else {
            tracer.record("served", "service", id, root, submit, done);
        }
        tracer.close(root);
        let broken = problem
            .as_deref()
            .is_some_and(|p| p.starts_with("connection"));
        samples.push(Sample {
            index,
            submit,
            ack,
            done,
            row,
            problem,
            traced,
        });
        if broken {
            break;
        }
    }
    Ok((samples, tracer, client))
}

/// Routes `req` in-process with the same router and the serial
/// equivalent of its knobs, verifies the answer, and returns its swap
/// count when it is proven (the daemon's proven answer must match it).
fn reference(
    req: &Req,
    c: &Circuit,
    tracer: &mut Tracer,
    id: u64,
    failures: &mut Vec<String>,
) -> Result<Option<usize>, String> {
    let tokyo = arch::devices::tokyo();
    let outcome = RouterRegistry::standard()
        .route(
            req.router,
            &RouteRequest::with_spec(c, &tokyo, req.spec.clone()),
        )
        .map_err(|e| e.to_string())?;
    let checked = tracer.span("verify", "circuit", id, None, || {
        outcome.routed().map(|r| verify(c, &tokyo, r))
    });
    // The daemon renders every answer with `to_json`; time the same call
    // on the same kind of outcome.
    tracer.span("to_json", "circuit", id, None, || outcome.to_json());
    Ok(match checked {
        Some(Ok(())) if outcome.quality().is_proven() => outcome.routed().map(|r| r.swap_count()),
        Some(Err(e)) => {
            failures.push(format!("{}: in-process answer fails verify: {e}", req.key));
            None
        }
        _ => None,
    })
}

/// Rows must reconcile exactly once the daemon is quiet.
fn reconcile(stats: &JsonValue, sent: usize, acked: usize, failures: &mut Vec<String>) -> f64 {
    let n = |k: &str| stats.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
    let (received, rejected, shed, admitted) =
        (n("received"), n("rejected"), n("shed"), n("admitted"));
    let (completed, solved, failed) = (n("completed"), n("solved"), n("failed"));
    // The warm-up request is the daemon's first, before the timed window.
    let sent = sent as u64 + 1;
    let acked = acked as u64 + 1;
    let checks = [
        (
            received == rejected + shed + admitted,
            "received = rejected + shed + admitted",
        ),
        (completed == solved + failed, "completed = solved + failed"),
        (received == sent, "received = route lines sent"),
        (admitted == acked, "admitted = acks read"),
        (completed == admitted, "completed = admitted once quiet"),
    ];
    for (ok, what) in checks {
        if !ok {
            failures.push(format!("stats do not reconcile: {what}"));
        }
    }
    shed as f64 / received.max(1) as f64
}

pub fn run(args: &Args) -> Result<Run, String> {
    let (prepared, setup_s) = repeat_setup(|| prepare(args))?;
    let Prepared {
        circuits,
        reqs,
        baseline_rows,
        daemon,
    } = prepared;
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(args.seconds);
    let next = AtomicUsize::new(0);
    let results: Vec<ClientResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                s.spawn(|| client_loop(daemon.addr, &reqs, &next, epoch, deadline, args.trace))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut gate_failures = Vec::new();
    let mut tracer = Tracer::new(epoch, args.trace);
    let mut samples = Vec::new();
    let mut clients = Vec::new();
    for result in results {
        let (s, t, c) = result?;
        samples.extend(s);
        tracer.absorb(t);
        clients.push(c);
    }
    samples.sort_by_key(|s| s.index);

    // Every admitted id got exactly one row: after its last outcome each
    // connection must answer `stats` with nothing else in between.
    let mut last_stats = None;
    for client in &mut clients {
        let line = client
            .send(&wire::stats_line())
            .and_then(|()| client.recv())
            .map_err(|e| format!("stats: {e}"))?;
        let v = parse_json(&line).map_err(|e| format!("stats row: {e}"))?;
        if row_type(&v) != "stats" {
            gate_failures.push(format!("extra row after the last outcome: {line}"));
        }
        last_stats = Some((v, line));
    }
    let acked = samples.iter().filter(|s| s.ack.is_some()).count();
    let shed_ratio = last_stats.as_ref().map_or(0.0, |(v, _)| {
        reconcile(v, samples.len(), acked, &mut gate_failures)
    });
    let peak_rss = peak_rss_mb(&daemon.child.id().to_string());
    let stats_note = last_stats.map(|(_, line)| line).unwrap_or_default();
    drop(clients);
    daemon.drain()?;

    // Correctness: the same router in-process, verified, must agree.
    let mut references: HashMap<(&str, usize), Option<usize>> = HashMap::new();
    let mut records = Vec::with_capacity(samples.len());
    let mut answers: HashMap<usize, (Option<usize>, bool)> = HashMap::new();
    let mut auto_drift = 0;
    let mut ids = HashSet::new();
    for s in &samples {
        let req = &reqs[s.index];
        let v = parse_json(&s.row).unwrap_or(JsonValue::Null);
        if let Some(id) = row_id(&v) {
            if s.ack.is_some() && !ids.insert(id) {
                gate_failures.push(format!("request id {id} answered twice"));
            }
        }
        let swaps = v
            .get("swaps")
            .and_then(JsonValue::as_u64)
            .map(|x| x as usize);
        let solved = v
            .get("solved")
            .and_then(JsonValue::as_bool)
            .unwrap_or(false);
        let proven = matches!(
            v.get("quality").and_then(JsonValue::as_str),
            Some("optimal" | "warm_retry")
        );
        let mut status = match (&s.problem, solved, s.ack.is_some()) {
            (Some(p), _, _) => Status::Failed(p.clone()),
            (None, true, _) => Status::Answered,
            (None, false, false) => Status::Failed(format!(
                "answered at the door: {}",
                v.get("error").and_then(JsonValue::as_str).unwrap_or("?")
            )),
            (None, false, true) => Status::Failed(
                v.get("error")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("no result")
                    .to_string(),
            ),
        };
        if status == Status::Answered {
            let mismatch = match req.repeat_of {
                Some(j) => match answers.get(&j) {
                    Some(&(Some(before), true)) if proven && swaps != Some(before) => {
                        Some(format!("repeat answered {swaps:?}, original {before}"))
                    }
                    _ => None,
                },
                None if req.class == "ladder" => None,
                None => {
                    let reference = match references.entry((req.router, req.circuit)) {
                        Entry::Occupied(known) => *known.get(),
                        Entry::Vacant(slot) => *slot.insert(reference(
                            req,
                            &circuits[req.circuit],
                            &mut tracer,
                            s.index as u64,
                            &mut gate_failures,
                        )?),
                    };
                    match reference {
                        Some(r) if proven && swaps != Some(r) => {
                            if req.class == "auto" {
                                auto_drift += 1;
                                None
                            } else {
                                Some(format!("daemon answered {swaps:?} swaps, in-process {r}"))
                            }
                        }
                        _ => None,
                    }
                }
            };
            if let Some(why) = mismatch {
                status = Status::Failed(why);
            }
        }
        if let Status::Failed(why) = &status {
            gate_failures.push(format!("{} ({}): {why}", req.key, req.class));
        }
        answers.insert(s.index, (swaps, proven && status == Status::Answered));
        let at = |t: Instant| t.saturating_duration_since(s.submit).as_secs_f64();
        let wall_s = v.get("wall_s").and_then(JsonValue::as_f64).unwrap_or(0.0);
        records.push(Record {
            id: s.index as u64,
            key: req.key.clone(),
            class: req.class,
            row: s.row.clone(),
            latency_s: at(s.done),
            ack_s: s.ack.map(at),
            queue_wait_s: s
                .ack
                .map(|a| (s.done.saturating_duration_since(a).as_secs_f64() - wall_s).max(0.0)),
            done_s: s.done.saturating_duration_since(epoch).as_secs_f64(),
            status,
            swaps,
            tket_swaps: req.tket_swaps,
            infidelity: None,
            traced: s.traced,
        });
    }
    let first = samples.iter().map(|s| s.submit).min().unwrap_or(epoch);
    let last = samples.iter().map(|s| s.done).max().unwrap_or(epoch);
    let notes = vec![
        (
            "daemon".into(),
            "routed, DaemonConfig::default(), loopback".into(),
        ),
        ("connections".into(), CONNECTIONS.to_string()),
        (
            "budgets_ms".into(),
            format!("satmap {SMALL_BUDGET_MS}, auto {AUTO_BUDGET_MS}, ladder {LADDER_BUDGET_MS}"),
        ),
        (
            "auto_cost_drift".into(),
            format!(
                "{auto_drift} of {} auto requests differ from the serial answer",
                records.iter().filter(|r| r.class == "auto").count()
            ),
        ),
        ("closing_stats".into(), stats_note),
    ];
    Ok(Run {
        workload: "service-mix",
        records,
        window_s: last.saturating_duration_since(first).as_secs_f64(),
        setup_s,
        peak_rss_mb: peak_rss,
        gate_failures,
        tracer,
        baseline_rows,
        mix: MIX.iter().map(|&(c, n)| (c.to_string(), n)).collect(),
        notes,
        shed_ratio,
        auto_drift,
    })
}
