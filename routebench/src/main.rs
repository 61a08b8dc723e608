//! `routebench`: the repository's end-to-end routing benchmark.
//!
//! ```text
//! routebench --workload <suite-swap|weighted-cyclic|service-mix>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable report, then one JSON line with the run's
//! metrics (end-to-end with `--trace 0`, per layer with `--trace 1`).
//! Exits 1 when a correctness check fails, 2 on bad arguments. See
//! `README.md` in this directory for the workloads and metrics.

mod inproc;
mod inputs;
mod report;
mod service_mix;
mod trace;

use std::time::Instant;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: routebench --workload <suite-swap|weighted-cyclic|service-mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Longest window accepted: inputs are generated ahead in proportion to it.
const MAX_SECONDS: f64 = 600.0;

/// Set-up repetitions per run; `setup_s` reports their median.
const SETUP_REPEATS: usize = 9;

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} must be {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= MAX_SECONDS)
                    .ok_or_else(|| bad(&format!("a number in (0, {MAX_SECONDS}]")))?;
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(out)
}

/// Whether request `i` of a traced run is traced: a hash of the index, so
/// traced and untraced requests are two interleaved halves of the same
/// traffic whatever the period of a workload's mix.
pub fn traced_slot(i: usize) -> bool {
    inputs::Rng::new(i as u64).next_u64() & 1 == 1
}

/// Runs `setup` [`SETUP_REPEATS`] times, keeping the last result and each
/// repetition's duration.
pub fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous repetition first, so each one builds from
        // nothing.
        drop(last.take());
        let start = Instant::now();
        last = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one repetition"), times))
}

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some(service_mix::SERVE_FLAG) {
        service_mix::serve();
    }
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("routebench: {why}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run = match args.workload.as_str() {
        "suite-swap" => inproc::suite_swap(&args),
        "weighted-cyclic" => inproc::weighted_cyclic(&args),
        "service-mix" => service_mix::run(&args),
        other => {
            eprintln!("routebench: unknown workload '{other}'\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run {
        Ok(run) => std::process::exit(run.finish(args.seed, args.trace)),
        Err(why) => {
            eprintln!("routebench: {why}");
            std::process::exit(1);
        }
    }
}
