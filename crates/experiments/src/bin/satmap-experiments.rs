//! Command-line entry point regenerating the paper's tables and figures.
//!
//! Usage: `satmap-experiments [--jobs N] <q1|q1-runtimes|q2|q3-local|q3-cyclic|q3-breakdown|q4|q5-time|q5-size|q6|all>`
//!
//! `--jobs N` runs each suite sweep on N worker threads pulling from a
//! shared instance queue. Table rows keep their order for any N (results
//! land at their benchmark's index), so outputs are comparable across job
//! counts; only the wall-clock columns reflect the parallelism. Note that
//! per-instance budgets are wall-clock deadlines: oversubscribing the
//! machine (N well above the core count) leaves each instance less CPU
//! before its deadline, which can turn tight-budget runs into timeouts a
//! serial sweep would not hit. With non-binding budgets the solved set and
//! costs are identical for any N.
//!
//! Environment: `SATMAP_BUDGET_MS` (per-instance budget, default 2000),
//! `SATMAP_SUITE_LIMIT` (subsample the 160-benchmark suite),
//! `SATMAP_JOBS` (same as `--jobs`; the flag wins), `SATMAP_ROWS_JSON`
//! (append one JSON object per (benchmark, router) row — the same outcome
//! schema `BENCH_satmap.json` embeds under `routes`).

use experiments::{questions, runner};

fn main() {
    let mut args = std::env::args().skip(1);
    let mut command: Option<String> = None;
    let mut jobs: Option<usize> = None;
    let parse_jobs = |n: &str| {
        n.parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                eprintln!("--jobs requires a positive integer");
                std::process::exit(2);
            })
    };
    while let Some(arg) = args.next() {
        if arg == "--jobs" || arg == "-j" {
            jobs = Some(parse_jobs(&args.next().unwrap_or_default()));
        } else if let Some(n) = arg.strip_prefix("--jobs=") {
            jobs = Some(parse_jobs(n));
        } else {
            command = Some(arg);
        }
    }
    let jobs = jobs.unwrap_or_else(runner::env_jobs);
    let command = command.unwrap_or_else(|| "all".into());
    let run = |cmd: &str| match cmd {
        "q1" => print!("{}", questions::q1(false, jobs)),
        "q1-runtimes" => print!("{}", questions::q1(true, jobs)),
        "q2" => print!("{}", questions::q2(jobs)),
        "q3-local" => print!("{}", questions::q3_local(jobs)),
        "q3-cyclic" => print!("{}", questions::q3_cyclic()),
        "q3-breakdown" => print!("{}", questions::q3_breakdown(jobs)),
        "q4" => print!("{}", questions::q4(jobs)),
        "q5-time" => print!("{}", questions::q5(true, jobs)),
        "q5-size" => print!("{}", questions::q5(false, jobs)),
        "q6" => print!("{}", questions::q6(jobs)),
        other => {
            eprintln!("unknown experiment '{other}'");
            std::process::exit(2);
        }
    };
    if command == "all" {
        for cmd in [
            "q1",
            "q2",
            "q3-local",
            "q3-cyclic",
            "q3-breakdown",
            "q4",
            "q5-time",
            "q5-size",
            "q6",
        ] {
            println!("==================== {cmd} ====================");
            run(cmd);
            println!();
        }
    } else {
        run(&command);
    }
}
