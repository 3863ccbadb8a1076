//! Golden digests of the simulator arm's observable bytes.
//!
//! The substrate layer put the simulator behind a trait and grew a
//! real-I/O sibling next to it; this harness is the in-tree half of
//! the proof that the simulator itself was **not touched** by any of
//! it. It pins FNV-1a-64 digests of representative E11, E12 and E16
//! artifacts — scored outcome, metrics dump, time-series dump, flight
//! ring — and of the E2, E3 and E8 reports, the runs that carry UDP, to
//! the values of the pinned dump. A digest is re-pinned only by a
//! change that CHANGES.md names, with the cause of the move. Any other
//! change that perturbs a single simulated event, sample row or ledger
//! flush shows up here as a digest mismatch naming the artifact.
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
use catenet_bench::{
    e12_reconvergence, e16_accountability, e2_type_of_service, e3_variety, e8_soft_state, SEEDS,
};

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
    // eats the transit it attracts. The primary flap downs and raises
    // one trunk's interfaces over and over, so it is the run a change to
    // route withdrawal or to the update timers moves.
    for name in [
        "calm (control)",
        "crash-storm",
        "prefix-hijack (attested)",
        "byzantine-blackhole",
        "primary-flap",
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
    // The UDP applications: packet voice against TCP voice (E2), a
    // datagram that fragments and reassembles (E3), and CBR flows
    // through a soft-state gateway that crashes (E8).
    let voice = e2_type_of_service::quick(SEEDS[0]);
    out.push(("e2/quick".into(), fnv64(format!("{voice:?}").as_bytes())));
    let frag = e3_variety::quick(SEEDS[0]);
    out.push(("e3/quick".into(), fnv64(format!("{frag:?}").as_bytes())));
    let soft = e8_soft_state::quick(SEEDS[0]);
    out.push(("e8/quick".into(), fnv64(format!("{soft:?}").as_bytes())));
    out
}

/// The pinned values, first generated from a clean checkout of the
/// last pre-substrate commit and re-pinned since only by changes that
/// CHANGES.md names. Order matches [`compute`]. All but two come from
/// the first tree whose triggered updates left the periodic deadline
/// alone and whose gateways started their periodic clocks at phases of
/// their own. `e3/quick` and `e8/quick` come from the last tree whose
/// sockets queued a datagram until the node's service pass sent it.
const GOLDEN: [(&str, u64); 31] = [
    ("e11/calm (control)/outcome", 0xccaddeb072d29e30),
    ("e11/calm (control)/metrics", 0x413d405fdb3ffdba),
    ("e11/calm (control)/series", 0xbaa2716792a62695),
    ("e11/calm (control)/flight", 0x1e7a9b7eb7548619),
    ("e11/crash-storm/outcome", 0xeaa673568b9c61c1),
    ("e11/crash-storm/metrics", 0x99b423497c487451),
    ("e11/crash-storm/series", 0x0f4ee873e11efc05),
    ("e11/crash-storm/flight", 0x0ee9463d3134584c),
    ("e11/prefix-hijack (attested)/outcome", 0x8472732a47e3e927),
    ("e11/prefix-hijack (attested)/metrics", 0x476a2aac02cf399c),
    ("e11/prefix-hijack (attested)/series", 0xa169646394190fbf),
    ("e11/prefix-hijack (attested)/flight", 0xaf7f97c05246ddbd),
    ("e11/byzantine-blackhole/outcome", 0x9afc0c11a2ad6e9c),
    ("e11/byzantine-blackhole/metrics", 0x19dd0977ead4066c),
    ("e11/byzantine-blackhole/series", 0x2f0b1c92d3ec1657),
    ("e11/byzantine-blackhole/flight", 0xa8e7601b260f6081),
    ("e11/primary-flap/outcome", 0x21ad2aa611104464),
    ("e11/primary-flap/metrics", 0xa90ea72af507c9f5),
    ("e11/primary-flap/series", 0xdcaab1c3df8c8fc0),
    ("e11/primary-flap/flight", 0x536f83e5ab43b480),
    ("e12/ring5-linkcut/heals", 0x75390561404ab1c2),
    ("e12/ring5-linkcut/metrics", 0xb49403de779cfb54),
    ("e12/ring5-linkcut/series", 0x1cd0e23f81cf1641),
    ("e12/ring5-linkcut/flight", 0xc56ac272b0f3a11f),
    ("e16/storm/run", 0x99964cc29a4ecf9f),
    ("e16/storm/metrics", 0xfd2295b5c22361b5),
    ("e16/storm/series", 0x2dddfaf6c32c719f),
    ("e16/storm/flight", 0xcf196069d750ad38),
    ("e2/quick", 0xa516526290bf83b9),
    ("e3/quick", 0x0730a51e86a1b7f2),
    ("e8/quick", 0x5c75d27e243786c9),
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
            "{name}: simulator bytes diverged from the pinned dump"
        );
    }
}
