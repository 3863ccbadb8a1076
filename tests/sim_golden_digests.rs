//! Golden digests of the simulator arm's observable bytes.
//!
//! The substrate layer put the simulator behind a trait and grew a
//! real-I/O sibling next to it; this harness is the in-tree half of
//! the proof that the simulator itself was **not touched** by any of
//! it. It pins FNV-1a-64 digests of representative E11, E12 and E16
//! artifacts — scored outcome, metrics dump, time-series dump, flight
//! ring — to the exact values the pre-substrate tree produced
//! (regenerated from a clean checkout of that commit). Any change that
//! perturbs a single simulated event, sample row or ledger flush shows
//! up here as a digest mismatch naming the artifact.
//!
//! This complements, rather than repeats, the other determinism
//! harnesses: `shard_equivalence` proves K-lane runs equal the
//! single-lane run *of the current tree*, and CI's double-run diffs
//! prove the current tree equals itself; only a pinned golden value
//! proves the current tree equals the *past* tree.
//!
//! If a future PR changes simulator behavior on purpose (new default,
//! new telemetry row), regenerate: run with `--nocapture`, copy the
//! printed digests in, and say so in the PR.

use catenet::stack::ShardKind;
use catenet_bench::e11_gauntlet::{run_with_shards, scenarios};
use catenet_bench::{e12_reconvergence, e16_accountability, SEEDS};

/// FNV-1a 64-bit, the repo's standard content digest.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Compute the digest set: (artifact name, digest).
fn compute() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let battery = scenarios();
    // The calm control arm and a heavily faulted arm: between them they
    // cover the scheduler, TCP, RIP reconvergence, the fault engine,
    // and all three telemetry surfaces. The attested hijack is the one
    // run whose dumps carry route-guard verdict counters,
    // `guard_attest_rejected` and `GuardAction` incidents. The black
    // hole is the one run whose liar advertises a metric-0 victim and
    // eats the transit it attracts.
    for name in [
        "calm (control)",
        "crash-storm",
        "prefix-hijack (attested)",
        "byzantine-blackhole",
    ] {
        let scenario = *battery
            .iter()
            .find(|s| s.name == name)
            .expect("battery names are stable");
        let run = run_with_shards(scenario, SEEDS[0], ShardKind::Single);
        out.push((format!("e11/{name}/outcome"), fnv64(format!("{:?}", run.outcome).as_bytes())));
        out.push((format!("e11/{name}/metrics"), fnv64(run.metrics.as_bytes())));
        out.push((format!("e11/{name}/series"), fnv64(run.series.as_bytes())));
        out.push((format!("e11/{name}/flight"), fnv64(run.flight.as_bytes())));
    }
    let (recs, dumps) = e12_reconvergence::run_with_shards(
        5,
        e12_reconvergence::FaultKind::LinkCut,
        SEEDS[0],
        ShardKind::Single,
    );
    out.push(("e12/ring5-linkcut/heals".into(), fnv64(format!("{recs:?}").as_bytes())));
    for (dump, name) in dumps.iter().zip(["metrics", "series", "flight"]) {
        out.push((format!("e12/ring5-linkcut/{name}"), fnv64(dump.as_bytes())));
    }
    let (run, dumps) = e16_accountability::run_reconcile_shards(SEEDS[0], true, ShardKind::Single);
    out.push(("e16/storm/run".into(), fnv64(format!("{run:?}").as_bytes())));
    for (dump, name) in dumps.iter().zip(["metrics", "series", "flight"]) {
        out.push((format!("e16/storm/{name}"), fnv64(dump.as_bytes())));
    }
    out
}

/// The pinned values, generated from a clean checkout of the last
/// pre-substrate commit (`git worktree add … <that commit>`, same
/// computation). Order matches [`compute`]. The four attested-hijack
/// digests come from the last tree whose lane scraped a node's
/// counters after every pass, before nodes reported their own events;
/// the four black-hole digests from the last tree whose network
/// rewrote a liar's frames on the wire, before the node lied itself.
const GOLDEN: [(&str, u64); 24] = [
    ("e11/calm (control)/outcome", 0x06abe3f915f39ee3),
    ("e11/calm (control)/metrics", 0x1b374556a0117f40),
    ("e11/calm (control)/series", 0x61ac9c3352a7009f),
    ("e11/calm (control)/flight", 0x9125f72a35b27eb8),
    ("e11/crash-storm/outcome", 0x8cfab2e311b74b13),
    ("e11/crash-storm/metrics", 0xf40a6470e1203eb6),
    ("e11/crash-storm/series", 0x8253450a69255c44),
    ("e11/crash-storm/flight", 0x8a4a3c4cd778d933),
    ("e11/prefix-hijack (attested)/outcome", 0x7145e9c3a7cea84f),
    ("e11/prefix-hijack (attested)/metrics", 0x1f416c7c097ffdc1),
    ("e11/prefix-hijack (attested)/series", 0x1bb572642576375a),
    ("e11/prefix-hijack (attested)/flight", 0x40fb560794de1971),
    ("e11/byzantine-blackhole/outcome", 0xf14b35350f54d78b),
    ("e11/byzantine-blackhole/metrics", 0xf3c98e6eaf9a2416),
    ("e11/byzantine-blackhole/series", 0x3aa4dfd24bca51fe),
    ("e11/byzantine-blackhole/flight", 0x15e642c4a2290cdb),
    ("e12/ring5-linkcut/heals", 0xdd9ebffd60038cf3),
    ("e12/ring5-linkcut/metrics", 0x6f412f46179b18b7),
    ("e12/ring5-linkcut/series", 0x3e0be6182a360443),
    ("e12/ring5-linkcut/flight", 0x5b585a3d78decf86),
    ("e16/storm/run", 0xfac5fff4fd0ade82),
    ("e16/storm/metrics", 0x185056ea0ee73d2c),
    ("e16/storm/series", 0x605451076f3f981c),
    ("e16/storm/flight", 0xcfa98da4978694f2),
];

#[test]
fn sim_arm_dumps_match_the_pre_substrate_tree() {
    let computed = compute();
    // Print the full set first: on any mismatch this is the
    // regeneration recipe, copy-pasteable into `GOLDEN`.
    for (name, digest) in &computed {
        println!("    (\"{name}\", {digest:#018x}),");
    }
    assert_eq!(computed.len(), GOLDEN.len());
    for ((name, digest), (gold_name, gold)) in computed.iter().zip(GOLDEN.iter()) {
        assert_eq!(name, gold_name, "artifact order drifted");
        assert_eq!(
            *digest, *gold,
            "{name}: simulator bytes diverged from the pinned pre-substrate dump"
        );
    }
}
