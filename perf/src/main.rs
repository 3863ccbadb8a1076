//! The catenet benchmark.
//!
//! `catenet-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload in this process and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics untraced, the
//! per-layer metrics traced. Without `--workload` it runs every
//! workload, each in a process of its own, and exits non-zero if any
//! of them fails a check. See `README.md` beside this crate.

#![deny(unsafe_code)]

mod alloc;
mod apps;
mod cputime;
mod harness;
mod layers;
mod metrics;
mod real;
mod sim;

use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 4] = [
    sim::TRANSIT_CBR.name,
    sim::TCP_BULK.name,
    sim::LANES_METRO.name,
    real::NAME,
];

/// Seed used when none is given. `README.md` reserves another one
/// that no change may be tuned on.
const DEFAULT_SEED: u64 = 1988;
const DEFAULT_SECONDS: f64 = 24.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut words = std::env::args().skip(1);
    while let Some(flag) = words.next() {
        let value = words
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad(&format!("one of {WORKLOADS:?}")));
                }
                args.workload = Some(value);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn run_one(workload: &str, args: &Args) -> ExitCode {
    let spec = [&sim::TRANSIT_CBR, &sim::TCP_BULK, &sim::LANES_METRO]
        .into_iter()
        .find(|spec| spec.name == workload);
    let report = match (spec, args.trace) {
        (Some(spec), false) => sim::run(spec, args.seed, args.seconds),
        (Some(spec), true) => sim::trace(spec, args.seed, args.seconds),
        (None, false) => real::run(args.seconds),
        (None, true) => real::trace(args.seed, args.seconds),
    };
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, each in its own process so one's heap, threads and
/// page cache are not the next one's starting state.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut failed = Vec::new();
    for workload in WORKLOADS {
        println!("== {workload} ==");
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .expect("run this executable again");
        if !status.success() {
            failed.push(workload);
        }
    }
    if failed.is_empty() {
        println!("== all workloads passed their checks ==");
        ExitCode::SUCCESS
    } else {
        println!("== FAILED: {failed:?} ==");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("usage: catenet-perf [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]");
            return ExitCode::from(2);
        }
    };
    println!(
        "# host_cores={}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    match &args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    }
}
