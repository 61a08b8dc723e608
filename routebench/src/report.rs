//! Per-request records, the metrics computed from them, and the output: a
//! human-readable report, per-request NDJSON rows, the span file, and the
//! closing one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use routers::RouterRegistry;
use service::wire::{parse_json, JsonValue};

use crate::trace::Tracer;

/// What became of one request.
#[derive(Debug, PartialEq)]
pub enum Status {
    /// A routed circuit is in hand and passed the benchmark's checks.
    Answered,
    /// No routed circuit: the request's own budget ran out first.
    BudgetExhausted,
    /// No routed circuit for any other reason (error, shed, failed check).
    Failed(String),
}

/// One request as the benchmark saw it.
pub struct Record {
    /// The benchmark's request id (submission order).
    pub id: u64,
    /// What was asked: circuit and, where it matters, the variant.
    pub key: String,
    /// The mix class the request was drawn for.
    pub class: &'static str,
    /// The program's own outcome row ([`circuit::RouteOutcome::to_json`]).
    pub row: String,
    /// Submission to a checked routed circuit (or failure) in hand.
    pub latency_s: f64,
    /// Service only: submission to the ack line.
    pub ack_s: Option<f64>,
    /// Service only: ack to outcome row, minus the row's own `wall_s` —
    /// the time the admitted request waited for a worker.
    pub queue_wait_s: Option<f64>,
    /// Completion time relative to the run's epoch.
    pub done_s: f64,
    pub status: Status,
    /// Swaps of the answer, when there is one.
    pub swaps: Option<usize>,
    /// Swaps tket inserts on the same circuit (computed at set-up).
    pub tket_swaps: usize,
    /// Fidelity requests: (log-infidelity of the answer, of tket's answer).
    pub infidelity: Option<(Option<f64>, f64)>,
    /// Whether spans were recorded for this request.
    pub traced: bool,
}

/// A finished run, ready to be reported.
pub struct Run {
    pub workload: &'static str,
    pub records: Vec<Record>,
    /// First submission to last completion.
    pub window_s: f64,
    /// Each set-up repetition's duration.
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: f64,
    /// Correctness-gate failures; any makes the run fail.
    pub gate_failures: Vec<String>,
    pub tracer: Tracer,
    /// tket rows computed at set-up (the swap baselines).
    pub baseline_rows: Vec<String>,
    /// Recorded mix shares: class or stratum, requests per round.
    pub mix: Vec<(String, usize)>,
    /// Extra `name = value` report lines (budgets, counts, daemon stats).
    pub notes: Vec<(String, String)>,
    /// Service only: requests shed at the door ÷ route lines received.
    pub shed_ratio: f64,
    /// Service only: Auto requests whose cost differs from the serial
    /// answer to the same circuit.
    pub auto_drift: usize,
}

/// A parsed outcome row.
struct Row {
    fields: JsonValue,
    /// The registry's canonical name of the router that answered (rows
    /// carry the router's own name, e.g. `mqth-astar` for `astar`).
    router: &'static str,
}

impl Row {
    fn parse(text: &str, registry: &RouterRegistry) -> Row {
        let fields = parse_json(text).unwrap_or(JsonValue::Null);
        let router = fields
            .get("router")
            .and_then(JsonValue::as_str)
            .and_then(|name| registry.canonical(name).ok())
            .unwrap_or("");
        Row { fields, router }
    }

    fn num(&self, key: &str) -> f64 {
        self.fields
            .get(key)
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
    }

    fn text(&self, key: &str) -> &str {
        self.fields
            .get(key)
            .and_then(JsonValue::as_str)
            .unwrap_or("")
    }

    fn flag(&self, key: &str) -> bool {
        self.fields
            .get(key)
            .and_then(JsonValue::as_bool)
            .unwrap_or(false)
    }

    /// Rows that reached an encoding router's solver (cache replays did not).
    fn solver(&self) -> bool {
        routers::ENCODING_ROUTERS.contains(&self.router) && !self.flag("cache_hit")
    }
}

/// Nearest-rank percentile of unsorted `values` (`q` in 0..=1).
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident memory of a process, from `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

impl Run {
    fn end_to_end(&self, rows: &[Row]) -> Vec<Metric> {
        let n = self.records.len();
        let lat_ms: Vec<f64> = self.records.iter().map(|r| r.latency_s * 1e3).collect();
        let optimal = self
            .records
            .iter()
            .zip(rows)
            .filter(|(r, row)| {
                r.status == Status::Answered
                    && matches!(row.text("quality"), "optimal" | "warm_retry")
            })
            .count();
        let (got, base) = self.records.iter().fold((0.0, 0.0), |(g, b), r| {
            let tk = r.tket_swaps as f64;
            let mine = match (&r.status, r.swaps) {
                (Status::Answered, Some(s)) => s as f64,
                _ => tk,
            };
            (g + mine, b + tk)
        });
        vec![
            metric(
                "setup_s",
                percentile(&self.setup_s, 0.5),
                "s",
                self.setup_s.len(),
            ),
            metric("routes_per_s", ratio(n as f64, self.window_s), "1/s", n),
            metric("route_p50_ms", percentile(&lat_ms, 0.5), "ms", n),
            metric("route_p90_ms", percentile(&lat_ms, 0.9), "ms", n),
            metric("optimal_ratio", ratio(optimal as f64, n as f64), "ratio", n),
            metric("swap_ratio", ratio(got, base), "ratio", n),
            metric("peak_rss_mb", self.peak_rss_mb, "MB", 1),
        ]
    }

    /// Metrics a single workload defines, printed but not gated: the
    /// contract gates only metrics every workload reports.
    fn workload_only(&self) -> Vec<Metric> {
        let n = self.records.len();
        let lat_ms: Vec<f64> = self.records.iter().map(|r| r.latency_s * 1e3).collect();
        let not_answered = self
            .records
            .iter()
            .filter(|r| r.status != Status::Answered)
            .count();
        let mut out = vec![metric(
            "failed_ratio",
            ratio(not_answered as f64, n as f64),
            "ratio",
            n,
        )];
        // The highest percentile with at least ten samples beyond it.
        if n >= 1000 {
            out.push(metric("route_p99_ms", percentile(&lat_ms, 0.99), "ms", n));
        }
        let fid: Vec<(Option<f64>, f64)> =
            self.records.iter().filter_map(|r| r.infidelity).collect();
        if !fid.is_empty() {
            let (got, base) = fid.iter().fold((0.0, 0.0), |(g, b), &(mine, tk)| {
                (g + mine.unwrap_or(tk), b + tk)
            });
            out.push(metric(
                "infidelity_ratio",
                ratio(got, base),
                "ratio",
                fid.len(),
            ));
        }
        out
    }

    fn per_layer(&self, rows: &[Row], registry: &RouterRegistry) -> Vec<Metric> {
        let solver: Vec<(&Record, &Row)> = self
            .records
            .iter()
            .zip(rows)
            .filter(|(_, row)| row.solver())
            .collect();
        let per_solve = |key: &str| mean(solver.iter().map(|(_, row)| row.num(key)));
        let sum_solve = |key: &str| solver.iter().map(|(_, row)| row.num(key)).sum::<f64>();
        let encode_s = sum_solve("encode_s");
        let solve_s = sum_solve("solve_s");
        let solver_latency_s: f64 = solver.iter().map(|(r, _)| r.latency_s).sum();

        // Heuristic wall time per router, over set-up baselines and served
        // rows (cache replays excluded).
        let baseline: Vec<Row> = self
            .baseline_rows
            .iter()
            .map(|r| Row::parse(r, registry))
            .collect();
        let heuristic_ms = |router: &str| {
            mean(
                rows.iter()
                    .chain(&baseline)
                    .filter(|row| row.router == router && !row.flag("cache_hit"))
                    .map(|row| row.num("wall_s") * 1e3),
            )
        };

        let span_mean = |name: &str, scale: f64| {
            let (total, count) = self.tracer.total_s(name);
            ratio(total * scale, count as f64)
        };
        let traced = self.records.iter().filter(|r| r.traced).count();
        let self_time = self.tracer.self_time_by_layer();
        let self_ms = |layer: &str| {
            ratio(
                self_time.get(layer).copied().unwrap_or(0.0) * 1e3,
                traced as f64,
            )
        };

        let lat = |on: bool| {
            let v: Vec<f64> = self
                .records
                .iter()
                .filter(|r| r.traced == on)
                .map(|r| r.latency_s * 1e3)
                .collect();
            percentile(&v, 0.5)
        };
        let (traced_p50, untraced_p50) = (lat(true), lat(false));

        let n = self.records.len() as f64;
        let share =
            |pred: &dyn Fn(&Row) -> bool| ratio(rows.iter().filter(|r| pred(r)).count() as f64, n);
        let acks: Vec<f64> = self.records.iter().filter_map(|r| r.ack_s).collect();
        let queue_waits: Vec<f64> = self.records.iter().filter_map(|r| r.queue_wait_s).collect();

        let m = metric;
        let s = solver.len();
        vec![
            m("core.encode_ms", per_solve("encode_s") * 1e3, "ms", s),
            m(
                "core.encode_share",
                ratio(encode_s, solver_latency_s),
                "ratio",
                s,
            ),
            m("core.wcnf_size", per_solve("dispatch_hardness"), "count", s),
            m("core.slices", per_solve("slices"), "count", s),
            m("core.backtracks", per_solve("backtracks"), "count", s),
            m(
                "core.unaccounted_ms",
                mean(solver.iter().map(|(_, row)| {
                    (row.num("wall_s") - row.num("encode_s") - row.num("solve_s")) * 1e3
                })),
                "ms",
                s,
            ),
            m("maxsat.solve_ms", per_solve("solve_s") * 1e3, "ms", s),
            m("maxsat.sat_calls", per_solve("sat_calls"), "count", s),
            m("maxsat.strata", per_solve("strata"), "count", s),
            m(
                "maxsat.exhaustion_steps",
                per_solve("exhaustion_steps"),
                "count",
                s,
            ),
            m(
                "maxsat.hardened_softs",
                per_solve("hardened_softs"),
                "count",
                s,
            ),
            m(
                "maxsat.dispatch_width_mean",
                per_solve("dispatch_width"),
                "workers",
                s,
            ),
            m(
                "maxsat.auto_drift_count",
                self.auto_drift as f64,
                "count",
                s,
            ),
            m("sat.conflicts", per_solve("conflicts"), "count", s),
            m("sat.decisions", per_solve("decisions"), "count", s),
            m("sat.propagations", per_solve("propagations"), "count", s),
            m("sat.restarts", per_solve("restarts"), "count", s),
            m(
                "sat.props_per_s",
                ratio(sum_solve("propagations"), solve_s),
                "1/s",
                s,
            ),
            m(
                "sat.useful_import_ratio",
                ratio(sum_solve("useful_imports"), sum_solve("clauses_imported")),
                "ratio",
                s,
            ),
            m("circuit.verify_ms", span_mean("verify", 1e3), "ms", traced),
            m(
                "circuit.to_json_us",
                span_mean("to_json", 1e6),
                "us",
                traced,
            ),
            m(
                "circuit.fingerprint_us",
                span_mean("fingerprint", 1e6),
                "us",
                traced,
            ),
            m(
                "circuit.validate_us",
                span_mean("validate", 1e6),
                "us",
                traced,
            ),
            m(
                "heuristics.tket_ms",
                heuristic_ms("tket"),
                "ms",
                baseline.len(),
            ),
            m(
                "heuristics.sabre_ms",
                heuristic_ms("sabre"),
                "ms",
                rows.len(),
            ),
            m(
                "heuristics.astar_ms",
                heuristic_ms("astar"),
                "ms",
                rows.len(),
            ),
            m(
                "registry.cache_hit_ratio",
                share(&|r| r.flag("cache_hit")),
                "ratio",
                rows.len(),
            ),
            m(
                "registry.attempts_mean",
                mean(rows.iter().map(|r| r.num("attempts"))),
                "count",
                rows.len(),
            ),
            m(
                "registry.degraded_ratio",
                share(&|r| r.text("quality") == "degraded"),
                "ratio",
                rows.len(),
            ),
            m(
                "service.ack_ms",
                mean(acks.iter().map(|a| a * 1e3)),
                "ms",
                acks.len(),
            ),
            m(
                "service.queue_wait_ms",
                mean(queue_waits.iter().map(|w| w * 1e3)),
                "ms",
                queue_waits.len(),
            ),
            m(
                "service.wire_parse_us",
                span_mean("wire_parse", 1e6),
                "us",
                traced,
            ),
            m("service.shed_ratio", self.shed_ratio, "ratio", rows.len()),
            m("self.bench_ms", self_ms("bench"), "ms", traced),
            m("self.circuit_ms", self_ms("circuit"), "ms", traced),
            m("self.core_ms", self_ms("core"), "ms", traced),
            m("self.service_ms", self_ms("service"), "ms", traced),
            m("trace.overhead_ms", traced_p50 - untraced_p50, "ms", traced),
            m(
                "trace.overhead_share",
                ratio(traced_p50 - untraced_p50, untraced_p50),
                "ratio",
                traced,
            ),
        ]
    }

    /// Writes the NDJSON files, prints the report and the closing JSON
    /// line, and returns the process exit code.
    pub fn finish(mut self, seed: u64, trace: bool) -> i32 {
        let registry = RouterRegistry::standard();
        let rows: Vec<Row> = self
            .records
            .iter()
            .map(|r| Row::parse(&r.row, &registry))
            .collect();
        let mut gate_failures = std::mem::take(&mut self.gate_failures);
        if self.records.is_empty() {
            gate_failures.push("no request completed inside the window".into());
        }
        let failed = self
            .records
            .iter()
            .filter(|r| matches!(r.status, Status::Failed(_)))
            .count();

        let stem = format!(".bench_out/{}-s{seed}-t{}", self.workload, u8::from(trace));
        if let Err(e) = self.write_files(&stem) {
            gate_failures.push(format!("writing {stem}.*: {e}"));
        }

        let e2e = self.end_to_end(&rows);
        let layer = self.per_layer(&rows, &registry);
        let mut report = String::new();
        let _ = writeln!(
            report,
            "routebench {} seed={seed} trace={} requests={} failed={failed} window_s={:.3}",
            self.workload,
            u8::from(trace),
            self.records.len(),
            self.window_s
        );
        let setups: Vec<String> = self.setup_s.iter().map(|t| format!("{t:.4}")).collect();
        let _ = writeln!(report, "  note setup_repetitions_s = {}", setups.join(" "));
        for (name, value) in &self.notes {
            let _ = writeln!(report, "  note {name} = {value}");
        }
        let mix: Vec<String> = self.mix.iter().map(|(k, w)| format!("{k}:{w}")).collect();
        let _ = writeln!(report, "  mix per round: {}", mix.join(" "));
        let mut by_class: BTreeMap<&str, (usize, Vec<f64>)> = BTreeMap::new();
        for r in &self.records {
            let e = by_class.entry(r.class).or_default();
            e.0 += 1;
            e.1.push(r.latency_s * 1e3);
        }
        for (class, (count, lat)) in &by_class {
            let _ = writeln!(
                report,
                "  class {class:<12} n={count:<6} share={:.3} p50_ms={:.3}",
                ratio(*count as f64, self.records.len() as f64),
                percentile(lat, 0.5)
            );
        }
        let shown = if trace { &layer } else { &e2e };
        for metric in
            e2e.iter()
                .chain(&self.workload_only())
                .chain(if trace { &layer[..] } else { &[] })
        {
            let _ = writeln!(
                report,
                "  {:<28} {:>14.6} {:<8} (n={})",
                metric.name, metric.value, metric.unit, metric.samples
            );
        }
        for failure in &gate_failures {
            let _ = writeln!(report, "  GATE FAILED: {failure}");
        }
        print!("{report}");

        let correct = gate_failures.is_empty();
        let metrics: Vec<String> = shown
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
            self.records.len().max(1),
            metrics.join(",")
        );
        if correct {
            0
        } else {
            1
        }
    }

    fn write_files(&self, stem: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(".bench_out")?;
        let mut out = String::new();
        for r in &self.records {
            let (status, why) = match &r.status {
                Status::Answered => ("answered", String::new()),
                Status::BudgetExhausted => ("budget_exhausted", String::new()),
                Status::Failed(why) => ("failed", why.clone()),
            };
            let opt = |v: Option<f64>| v.map_or("null".to_string(), |v| format!("{v:.6}"));
            // The program's row, with the benchmark's fields spliced in
            // front of its first field.
            let program = match r.row.strip_prefix('{') {
                Some(rest) if rest.len() > 1 => format!(",{rest}"),
                _ => "}".to_string(),
            };
            let _ = writeln!(
                out,
                "{{\"workload\":\"{}\",\"bench_id\":{},\"key\":\"{}\",\"class\":\"{}\",\"latency_ms\":{:.6},\"ack_ms\":{},\"queue_wait_ms\":{},\"status\":\"{status}\",\"why\":\"{}\",\"tket_swaps\":{},\"traced\":{}{program}",
                self.workload,
                r.id,
                circuit::escape_json(&r.key),
                r.class,
                r.latency_s * 1e3,
                opt(r.ack_s.map(|a| a * 1e3)),
                opt(r.queue_wait_s.map(|w| w * 1e3)),
                circuit::escape_json(&why),
                r.tket_swaps,
                r.traced,
            );
        }
        std::fs::write(format!("{stem}.rows.ndjson"), out)?;
        if self.tracer.enabled() {
            std::fs::write(format!("{stem}.trace.ndjson"), self.tracer.to_ndjson())?;
        }
        Ok(())
    }
}
