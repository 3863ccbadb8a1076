//! Regenerate every experiment table in `EXPERIMENTS.md`.
//!
//! ```sh
//! cargo run --release --bin reproduce               # all experiments
//! cargo run --release --bin reproduce -- e1 e5      # a subset
//! cargo run --release --bin reproduce -- --fast     # fewer seeds
//! cargo run --release --bin reproduce -- e11 --soak 20   # randomized soak
//! cargo run --release --bin reproduce -- e13 --check     # timing-free JSON
//! cargo run --release --bin reproduce -- e17 --check --shards 4   # one K
//! ```

use catenet_bench::*;

/// The experiments `reproduce` runs, in the order it runs them.
const EXPERIMENTS: [&str; 17] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14",
    "e16", "e17", "ablations",
];

/// The flags it takes.
const FLAGS: [&str; 5] = ["--fast", "--check", "--full", "--soak N", "--shards N"];

/// A command line, checked.
#[derive(Debug, Default, PartialEq)]
struct Args {
    /// The experiments named (lower-cased); none named runs them all.
    selected: Vec<String>,
    /// Fewer seeds.
    fast: bool,
    /// Strip wall-clock fields from the BENCH JSON so CI can run twice
    /// and diff (it also implies the fast topology set).
    check: bool,
    /// The e17 scale tier (5,120 gateways, ~10⁵ flows); CI uploads its
    /// timing JSON as an artifact.
    full: bool,
    /// `--soak N` swaps the e11 battery table for N randomized runs.
    soak: Option<usize>,
    /// `--shards N` pins e17 to a single shard count (CI runs K=1 and
    /// K=4 separately and diffs the check-mode JSON across them).
    shards: Option<usize>,
}

/// Parse the arguments after the program name. An experiment or flag
/// not listed in [`EXPERIMENTS`] or [`FLAGS`] is an error: a misspelt
/// or retired name would otherwise run nothing and succeed.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => parsed.fast = true,
            "--check" => parsed.check = true,
            "--full" => parsed.full = true,
            flag @ ("--soak" | "--shards") => {
                let n = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(|| format!("{flag} takes a number"))?;
                if flag == "--soak" {
                    parsed.soak = Some(n);
                } else {
                    parsed.shards = Some(n);
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            name => {
                let id = name.to_lowercase();
                if !EXPERIMENTS.contains(&id.as_str()) {
                    return Err(format!("unknown experiment {name}"));
                }
                parsed.selected.push(id);
            }
        }
    }
    Ok(parsed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        selected,
        fast,
        check,
        full,
        soak,
        shards,
    } = parse_args(&args).unwrap_or_else(|error| {
        eprintln!("reproduce: {error}");
        eprintln!("experiments: {}", EXPERIMENTS.join(" "));
        eprintln!("flags: {}", FLAGS.join(" "));
        std::process::exit(2);
    });
    let seeds: Vec<u64> = if fast {
        SEEDS[..2].to_vec()
    } else {
        SEEDS.to_vec()
    };
    let want = |id: &str| selected.is_empty() || selected.iter().any(|s| s == id);

    println!("# catenet experiment reproduction");
    println!();
    println!(
        "Seeds: {:?}. Every number below is deterministic given the seed set.",
        seeds
    );
    println!();

    let run = |id: &str, name: &str, f: &dyn Fn(&[u64]) -> Table| {
        if want(id) {
            eprintln!("running {id} ({name})...");
            let start = std::time::Instant::now();
            let table = f(&seeds);
            eprintln!("  {id} done in {:.1}s", start.elapsed().as_secs_f64());
            println!("{table}");
        }
    };

    run("e1", "survivability", &|s| {
        e1_survivability::default_table(s)
    });
    run("e2", "types of service", &|s| {
        e2_type_of_service::default_table(s)
    });
    run("e3", "variety of networks", &|s| e3_variety::default_table(s));
    run("e4", "distributed management", &|s| {
        e4_distributed_mgmt::default_table(s)
    });
    if want("e5") {
        eprintln!("running e5 (cost effectiveness)...");
        println!("{}", e5_cost::overhead_table());
        println!("{}", e5_cost::arq_table(&seeds));
    }
    run("e6", "host attachment cost", &|s| {
        e6_host_cost::default_table(s)
    });
    run("e7", "accounting", &|s| e7_accounting::default_table(s));
    run("e8", "soft state", &|s| e8_soft_state::default_table(s));
    run("e9", "byte sequencing", &|s| {
        e9_byte_sequencing::default_table(s)
    });
    run("e10", "realizations", &|s| {
        e10_realizations::default_table(s)
    });
    if want("e11") {
        if let Some(runs) = soak {
            eprintln!("running e11 soak ({runs} randomized runs)...");
            let start = std::time::Instant::now();
            let table = e11_gauntlet::soak_table(runs, seeds[0]);
            eprintln!("  e11 soak done in {:.1}s", start.elapsed().as_secs_f64());
            println!("{table}");
        } else {
            run("e11", "survivability gauntlet", &|s| {
                e11_gauntlet::default_table(s)
            });
        }
    }
    run("e12", "per-heal reconvergence", &|s| {
        e12_reconvergence::default_table(s)
    });
    if want("e13") {
        eprintln!("running e13 (scale: scheduler and forwarding fast path)...");
        let start = std::time::Instant::now();
        let results = e13_scale::run_battery(fast || check, SEEDS[0]);
        eprintln!("  e13 done in {:.1}s", start.elapsed().as_secs_f64());
        println!("{}", e13_scale::table(&results));
        let json = e13_scale::to_json(&results, !check);
        std::fs::write("BENCH_e13.json", &json).expect("write BENCH_e13.json");
        eprintln!("  wrote BENCH_e13.json");
        assert!(
            results.iter().all(|r| r.gate()),
            "e13: the steady-state fast path allocated or relocated a packet"
        );
    }
    run("e14", "route-guard pricing", &|s| {
        e14_routeguard::default_table(s)
    });
    if want("e16") {
        eprintln!("running e16 (accountability: reconciliation, churn, integrity)...");
        let start = std::time::Instant::now();
        let results = e16_accountability::run_battery(fast || check, &seeds);
        eprintln!("  e16 done in {:.1}s", start.elapsed().as_secs_f64());
        println!("{}", e16_accountability::table(&results));
        let json = e16_accountability::to_json(&results, !check);
        std::fs::write("BENCH_e16.json", &json).expect("write BENCH_e16.json");
        eprintln!("  wrote BENCH_e16.json");
    }
    if want("e17") {
        let tier = if full {
            e17_parallel::Tier::Huge
        } else if fast || check {
            e17_parallel::Tier::Check
        } else {
            e17_parallel::Tier::Full
        };
        let counts: Vec<usize> = match shards {
            Some(k) => vec![k],
            // The scale tier defaults to the reference and the CI-core
            // count — K=8 on a 4-core runner doubles the wall clock for
            // no extra signal at 5,120 gateways.
            None if full => vec![1, 4],
            None => e17_parallel::SHARD_COUNTS.to_vec(),
        };
        eprintln!(
            "running e17 (sharded parallel execution) at K={counts:?} tier={tier:?}..."
        );
        let start = std::time::Instant::now();
        let results = e17_parallel::run_battery(tier, SEEDS[0], &counts);
        eprintln!("  e17 done in {:.1}s", start.elapsed().as_secs_f64());
        println!("{}", e17_parallel::table(&results));
        assert!(
            results.all_equal,
            "e17: dumps diverged across shard counts — a real ordering bug"
        );
        // The misaligned ring rides the standard full battery only (the
        // scale and check tiers have their own jobs).
        let misaligned = (tier == e17_parallel::Tier::Full).then(|| {
            eprintln!("running e17b (misaligned ring)...");
            let demo = e17_parallel::run_misaligned(SEEDS[0]);
            println!("{}", e17_parallel::misaligned_table(&demo));
            assert!(demo.all_equal, "e17b: partition choice changed bytes");
            demo
        });
        let json = e17_parallel::to_json(&results, !check, misaligned.as_ref());
        std::fs::write("BENCH_e17.json", &json).expect("write BENCH_e17.json");
        eprintln!("  wrote BENCH_e17.json");
    }
    if want("ablations") || selected.is_empty() {
        eprintln!("running ablations A1–A4...");
        println!("{}", ablations::collapse_table(&seeds));
        println!("{}", ablations::count_to_infinity_table());
        println!("{}", ablations::nagle_table(&seeds));
        println!("{}", ablations::quench_table(&seeds));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn known_names_and_flags_parse() {
        let args = parse("E11 e17 --check --shards 4 --soak 20 --fast --full").unwrap();
        assert_eq!(
            args,
            Args {
                selected: vec!["e11".into(), "e17".into()],
                fast: true,
                check: true,
                full: true,
                soak: Some(20),
                shards: Some(4),
            }
        );
        assert_eq!(parse("").unwrap(), Args::default(), "nothing named runs everything");
        for id in EXPERIMENTS {
            assert_eq!(parse(id).unwrap().selected, [id]);
        }
    }

    #[test]
    fn an_unknown_name_or_flag_is_refused() {
        assert_eq!(parse("e15"), Err("unknown experiment e15".into()));
        assert_eq!(parse("e11 e99"), Err("unknown experiment e99".into()));
        assert_eq!(parse("20"), Err("unknown experiment 20".into()), "a number needs its flag");
        assert_eq!(parse("e13 --chek"), Err("unknown flag --chek".into()));
        assert_eq!(parse("e11 --soak"), Err("--soak takes a number".into()));
        assert_eq!(parse("e17 --shards four"), Err("--shards takes a number".into()));
    }
}
