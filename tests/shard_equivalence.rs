//! Differential proof that sharded execution is observably identical
//! to the single-lane reference event loop.
//!
//! Sharding partitions the node set into K contiguous lanes, each with
//! its own scheduler, running conservative-lookahead windows and
//! exchanging cross-lane frames at barrier instants. Every simulation
//! result in this repo is only as trustworthy as the claim that this
//! changes *nothing observable* — so, exactly as the scheduler-backend
//! harness (`tests/scheduler_equivalence.rs`) earned the timer wheel
//! its default slot, this harness runs the full experiment batteries at
//! K ∈ {1, 2, 4, 8} and asserts byte identity:
//!
//! 1. **E11, chaos**: all 16 gauntlet scenarios across all 5 standard
//!    seeds — outcome, delivered-stream digest, metrics dump,
//!    time-series dump and flight-recorder ring, compared across every
//!    K.
//! 2. **E12, routing**: every ring size × fault kind — reconvergence
//!    measurements and all telemetry dumps.
//! 3. **E16, accounting**: crash-storm and clean reconciliation arms —
//!    ledger books, forfeited-tail counts, and dumps. Flush ordering
//!    across barriers is the likeliest casualty of sharding, so the
//!    books get their own battery here and a barrier-instant crash
//!    regression in `tests/accounting_reconciliation.rs`.
//! 4. **Random topologies**: the batteries above run topologies
//!    somebody drew. `random_topologies_match_single` draws its own —
//!    seeded rings with chords over link classes from 50 µs LANs to
//!    250 ms satellite hops, hosts and CBR flows placed at random — so
//!    lane boundaries, reach matrices and relay chains nobody thought
//!    of get the same byte comparison, at K = 2, 3 and 5. In a debug
//!    build (tier-1) every barrier of every run also asserts the
//!    protocol's safety property per crossing frame (`Network::absorb`).
//!
//! Every K > 1 count runs in **both** lane modes: `Sharded` (the
//! lanes run by the coordinator alone) and `Parallel` (the same lanes
//! handed by value to persistent worker threads). The chaos batteries
//! attach invariant apps that share state across nodes — the
//! gauntlet's sender and sink both hold the stream checker — which
//! once confined them to the serial arm; now that application handles
//! are `Arc<Mutex>` and `Application: Send`, the threaded arm runs
//! them too, and the barrier's happens-before (lanes touch shared
//! handles only inside their own window; cross-lane frames deliver
//! only after every lane is back with the coordinator) is exactly what
//! this harness pins as byte identity. Two scope notes: nothing
//! demotes any more — a lane owns everything it touches, the
//! attestation registry included, so the gauntlet's attested scenario
//! is a genuinely threaded run at every K like the other fifteen; and
//! the threaded E11 sweep runs every standard seed at every K, as a
//! test of its own beside the serial sweep so the two share the
//! suite's cores — E12 and E16 run both arms on everything they run,
//! and E17 carries the cross-K threaded proof on a workload built for
//! it.
//!
//! If lanes ever diverge, the failure message names the scenario, seed,
//! shard count and lane mode that exposed it — the reproduction recipe.

use catenet::sim::{Duration, Instant, LinkClass, Rng};
use catenet::stack::app::{CbrSink, CbrSource};
use catenet::stack::{Endpoint, Network, ShardKind};
use catenet_bench::e11_gauntlet::{run_with_shards, scenarios};
use catenet_bench::{e12_reconvergence, e16_accountability, SEEDS};

/// The shard counts every battery is swept across. K=1 is
/// `ShardKind::Single`, one lane through the same round (the default and
/// CI arm); the rest split the node set into real lanes with barriers.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn kind(k: usize) -> ShardKind {
    if k == 1 {
        ShardKind::Single
    } else {
        ShardKind::Sharded { shards: k }
    }
}

/// The lane modes to sweep at K lanes: the coordinator running every
/// lane (`Sharded`), and the identical lanes dealt over worker threads
/// (`Parallel` — as many threads as the host has cores, at most K).
fn arms(k: usize) -> [ShardKind; 2] {
    [
        ShardKind::Sharded { shards: k },
        ShardKind::Parallel { shards: k },
    ]
}

/// Run `scenario` at `seed` under every mode of `modes(k)`, every K > 1,
/// and require what `RunArtifacts` holds — the scored outcome
/// (including the delivered-stream digest) and all three telemetry
/// dumps — to equal the single-lane reference.
fn assert_e11_equal(seeds: &[u64], modes: fn(usize) -> ShardKind) {
    for scenario in scenarios() {
        for &seed in seeds {
            let reference = run_with_shards(scenario, seed, kind(1));
            // Either the transfer finished or it ended with an explicit
            // error — a hung run would make "equal" vacuous.
            assert!(
                reference.outcome.completed || reference.outcome.aborted,
                "unresolved run: scenario={} seed={seed}",
                scenario.name
            );
            for &k in &SHARD_COUNTS[1..] {
                let mode = modes(k).name();
                let sharded = run_with_shards(scenario, seed, modes(k));
                assert_eq!(
                    reference.outcome, sharded.outcome,
                    "outcome diverged: scenario={} seed={seed} shards={k} mode={mode}",
                    scenario.name
                );
                assert_eq!(
                    reference.metrics, sharded.metrics,
                    "metrics dump diverged: scenario={} seed={seed} shards={k} mode={mode}",
                    scenario.name
                );
                assert_eq!(
                    reference.series, sharded.series,
                    "series dump diverged: scenario={} seed={seed} shards={k} mode={mode}",
                    scenario.name
                );
                assert_eq!(
                    reference.flight, sharded.flight,
                    "flight ring diverged: scenario={} seed={seed} shards={k} mode={mode}",
                    scenario.name
                );
            }
        }
    }
}

/// E11, serial lanes: every gauntlet scenario, every standard seed,
/// every shard count.
#[test]
fn e11_battery_is_bit_identical_across_shard_counts() {
    assert_e11_equal(&SEEDS, |k| ShardKind::Sharded { shards: k });
}

/// E11, threaded lanes: every gauntlet scenario, every standard seed
/// and every shard count. A test of its own so it shares the suite's
/// second core with E12 and E16 instead of lengthening the serial
/// sweep.
#[test]
fn e11_battery_is_bit_identical_on_worker_threads() {
    assert_e11_equal(&SEEDS, |k| ShardKind::Parallel { shards: k });
}

/// E12: one disruption-then-heal cycle per (ring size, fault kind),
/// comparing the reconvergence measurements and all telemetry dumps
/// across every shard count.
#[test]
fn e12_reconvergence_is_bit_identical_across_shard_counts() {
    for &gateways in e12_reconvergence::RING_SIZES.iter() {
        for fault in e12_reconvergence::FaultKind::all() {
            for &seed in &SEEDS[..2] {
                let (recs_1, dumps_1) =
                    e12_reconvergence::run_with_shards(gateways, fault, seed, kind(1));
                assert!(
                    !recs_1.is_empty(),
                    "no heals measured: ring={gateways} fault={} seed={seed}",
                    fault.name()
                );
                for &k in &SHARD_COUNTS[1..] {
                    for shard in arms(k) {
                        let mode = shard.name();
                        let (recs_k, dumps_k) =
                            e12_reconvergence::run_with_shards(gateways, fault, seed, shard);
                        assert_eq!(
                            recs_1,
                            recs_k,
                            "reconvergence diverged: ring={gateways} fault={} seed={seed} \
                             shards={k} mode={mode}",
                            fault.name()
                        );
                        for (i, name) in ["metrics", "series", "flight"].iter().enumerate() {
                            assert_eq!(
                                dumps_1[i],
                                dumps_k[i],
                                "{name} dump diverged: ring={gateways} fault={} seed={seed} \
                                 shards={k} mode={mode}",
                                fault.name()
                            );
                        }
                    }
                }
            }
        }
    }
}

/// E16: the reconciliation arms — a crash storm repeatedly wiping the
/// middle gateway's ledger, and the lossless control — produce
/// byte-identical books, forfeited-tail counts, and telemetry at every
/// shard count. This is where fault→sample→flush ordering at shared
/// instants shows up as money, not just telemetry.
#[test]
fn e16_accounting_is_bit_identical_across_shard_counts() {
    let cases: Vec<(u64, bool)> = SEEDS[..2]
        .iter()
        .map(|&s| (s, true))
        .chain([(SEEDS[0], false)])
        .collect();
    for &(seed, storm) in &cases {
        let (run_1, dumps_1) =
            e16_accountability::run_reconcile_shards(seed, storm, kind(1));
        assert!(
            run_1.bounds_hold,
            "reference bound failed: seed={seed} storm={storm}: {run_1:?}"
        );
        for &k in &SHARD_COUNTS[1..] {
            for shard in arms(k) {
                let mode = shard.name();
                let (run_k, dumps_k) =
                    e16_accountability::run_reconcile_shards(seed, storm, shard);
                assert_eq!(
                    run_1, run_k,
                    "reconciliation diverged: seed={seed} storm={storm} shards={k} mode={mode}"
                );
                for (i, name) in ["metrics", "series", "flight"].iter().enumerate() {
                    assert_eq!(
                        dumps_1[i], dumps_k[i],
                        "{name} dump diverged: seed={seed} storm={storm} shards={k} mode={mode}"
                    );
                }
            }
        }
    }
}

/// A seeded random internetwork: a ring of 4–12 gateways plus chords,
/// every trunk of a class drawn from the whole latency range, and 2–4
/// CBR flows between hosts hung off random gateways. Hosts are added
/// after the gateways, so contiguous lanes tend to put a host and its
/// gateway on opposite sides of a boundary — the cheap-cut case.
fn random_net(seed: u64, shard: ShardKind) -> Network {
    const TRUNKS: [LinkClass; 6] = [
        LinkClass::ModernLan,
        LinkClass::EthernetLan,
        LinkClass::PacketRadio,
        LinkClass::ArpanetTrunk,
        LinkClass::T1Terrestrial,
        LinkClass::Satellite,
    ];
    let mut rng = Rng::from_seed(seed);
    let trunk = |rng: &mut Rng| TRUNKS[rng.below(TRUNKS.len() as u64) as usize];
    let mut net = Network::with_shards(seed, shard);
    let n = rng.range(4, 13) as usize;
    let gs: Vec<_> = (0..n).map(|i| net.add_gateway(format!("g{i}"))).collect();
    for i in 0..n {
        net.connect(gs[i], gs[(i + 1) % n], trunk(&mut rng));
    }
    for _ in 0..rng.range(0, n as u64 / 2 + 1) {
        let (a, b) = (rng.below(n as u64) as usize, rng.below(n as u64) as usize);
        if a != b {
            net.connect(gs[a], gs[b], trunk(&mut rng));
        }
    }
    let host = |net: &mut Network, rng: &mut Rng, name: String| {
        let h = net.add_host(name);
        let lan = [LinkClass::EthernetLan, LinkClass::ModernLan][rng.below(2) as usize];
        net.connect(h, gs[rng.below(n as u64) as usize], lan);
        h
    };
    for flow in 0..rng.range(2, 5) as u16 {
        let src = host(&mut net, &mut rng, format!("src{flow}"));
        let dst = host(&mut net, &mut rng, format!("dst{flow}"));
        let port = 7000 + flow;
        let to = Endpoint::new(net.node(dst).primary_addr(), port);
        net.attach_app(dst, Box::new(CbrSink::new(port)));
        net.attach_app(
            src,
            Box::new(CbrSource::new(
                to,
                Duration::from_millis(rng.range(10, 60)),
                rng.range(64, 1200) as usize,
                Instant::from_millis(rng.range(1_000, 4_000)),
                Instant::from_secs(9),
            )),
        );
    }
    net
}

/// `seeds` random topologies, each under `Sharded` and `Parallel` at
/// K = 2, 3, 5 against `Single`: all three dumps equal. Returns the
/// events the reference runs processed.
fn assert_random_topologies_equal(seeds: std::ops::Range<u64>) -> u64 {
    let run = |seed, shard| {
        let mut net = random_net(seed, shard);
        net.run_until(Instant::from_secs(10));
        let dumps = [net.metrics_dump(), net.series_dump(), net.flight_dump()];
        (dumps, net.sched_stats().processed)
    };
    let mut events = 0;
    for seed in seeds {
        let (reference, processed) = run(seed, ShardKind::Single);
        events += processed;
        for k in [2, 3, 5] {
            for shard in arms(k) {
                let (dumps, _) = run(seed, shard);
                assert_eq!(
                    reference, dumps,
                    "metrics/series/flight diverged: random topology seed={seed} {shard:?}"
                );
            }
        }
    }
    events
}

/// Random topologies, tier-1 size. The event floor keeps the property
/// from going vacuous if the generator ever stops producing traffic.
#[test]
fn random_topologies_match_single() {
    let events = assert_random_topologies_equal(0..40);
    assert!(events >= 100_000, "only {events} reference events");
}

/// The same property over 400 seeds, for CI's release-mode E17 job.
#[test]
#[ignore = "400 seeds x 7 runs: run explicitly, in release"]
fn random_topologies_match_single_400_seeds() {
    let events = assert_random_topologies_equal(0..400);
    assert!(events >= 1_000_000, "only {events} reference events");
}
