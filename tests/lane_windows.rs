//! Regression tests for the per-pair lane-window protocol's known
//! failure shapes — pinned as *counters*, never as byte divergence.
//!
//! The conservative window protocol (`crates/core/src/network.rs`,
//! `run_until`) promises that the lane count changes performance only:
//! every telemetry dump stays byte-identical to the single-lane
//! reference. The shapes most likely to break that promise in spirit
//! (correct bytes, useless speedup) are:
//!
//! 1. **A zero-latency link crossing a lane boundary.** The per-pair
//!    lookahead collapses the receiving lane's window to a single
//!    instant (the 1 µs serialization floor is all the slack there is).
//!    Correctness must survive — and `ShardStats::collapsed` must
//!    report the collapse instead of letting the run silently degrade
//!    to lockstep.
//! 2. **A fault plan denser than the lookahead window.** Every round
//!    is truncated by a pending coordinator op, so the barrier
//!    serializes on the plan. The batched dispatch (all same-instant
//!    actions in one interruption, only lanes with due events
//!    executed) must show up in `barrier_stalls`/`op_batches`/
//!    `lanes_skipped`, and the dumps must stay byte-identical at every
//!    K.
//! 3. **Lane boundaries left where the node order puts them.** On a
//!    ring whose balanced boundaries fall on host LANs, windows shrink
//!    from trunk width (30 ms) to LAN width (100 µs) — E17b measured
//!    21,408 windows against 640. The partitioner is the only boundary
//!    chooser, so nothing in a run would notice it degrading to equal
//!    chunks; the pin here would.

use catenet::sim::{Duration, FaultAction, FaultPlan, Instant, LinkClass};
use catenet::stack::app::{CbrSink, CbrSource};
use catenet::stack::iface::Framing;
use catenet::stack::{Endpoint, Network, ShardKind};
use catenet_bench::{e17_parallel, SEEDS};

/// h0 — g1 — g2 — h3 with *every* link zero-propagation, CBR both ways:
/// wherever the K = 2 boundary is put, it is on a zero-latency link.
fn zero_boundary_net(seed: u64, shard: ShardKind) -> Network {
    let mut net = Network::with_shards(seed, shard);
    let h0 = net.add_host("h0");
    let g1 = net.add_gateway("g1");
    let g2 = net.add_gateway("g2");
    let h3 = net.add_host("h3");
    let mut zero = LinkClass::EthernetLan.params();
    zero.propagation = Duration::ZERO;
    zero.jitter = Duration::ZERO;
    for (a, b) in [(h0, g1), (g1, g2), (g2, h3)] {
        net.connect_with(a, b, zero.clone(), Framing::Ethernet);
    }
    let a0 = net.node(h0).primary_addr();
    let a3 = net.node(h3).primary_addr();
    net.attach_app(h3, Box::new(CbrSink::new(5000)));
    net.attach_app(
        h0,
        Box::new(CbrSource::new(
            Endpoint::new(a3, 5000),
            Duration::from_millis(50),
            120,
            Instant::from_secs(1),
            Instant::from_secs(4),
        )),
    );
    net.attach_app(h0, Box::new(CbrSink::new(5001)));
    net.attach_app(
        h3,
        Box::new(CbrSource::new(
            Endpoint::new(a0, 5001),
            Duration::from_millis(50),
            120,
            Instant::from_secs(1),
            Instant::from_secs(4),
        )),
    );
    net
}

fn dumps(net: &Network) -> [String; 3] {
    [net.metrics_dump(), net.series_dump(), net.flight_dump()]
}

#[test]
fn zero_latency_boundary_link_is_byte_identical_and_counted() {
    let run = |shard| {
        let mut net = zero_boundary_net(7, shard);
        net.run_for(Duration::from_secs(5));
        (dumps(&net), net.shard_stats())
    };
    let (reference, single) = run(ShardKind::Single);
    // One lane is the same round with no peer to bound it: every
    // window starts at its next event, so it is always dispatched, and
    // there is no lookahead to collapse.
    assert!(single.windows > 0, "K = 1 counts its rounds: {single:?}");
    assert_eq!(single.windows, single.lanes_dispatched, "{single:?}");
    assert_eq!((single.lanes_skipped, single.collapsed), (0, 0), "{single:?}");
    for shard in [
        ShardKind::Sharded { shards: 2 },
        ShardKind::Parallel { shards: 2 },
    ] {
        let (d, stats) = run(shard);
        assert_eq!(d, reference, "dumps diverged under {shard:?}");
        assert!(stats.windows > 0, "rounds ran under {shard:?}");
        // Coordinator ops (here, telemetry samples) are K-independent.
        assert_eq!(stats.op_batches, single.op_batches, "{stats:?}");
        // The receiving lane's window collapses to the round-start
        // instant nearly every round: the peer's next event plus the
        // 1 µs floor is all the lookahead a zero-propagation boundary
        // link leaves. The counter is the alarm.
        assert!(
            stats.collapsed > 0,
            "zero-latency boundary must be reported: {stats:?}"
        );
        assert_eq!(
            stats.lanes_dispatched + stats.lanes_skipped,
            stats.windows * 2,
            "every round accounts for both lanes: {stats:?}"
        );
    }
}

/// Interleaved ring — g0,h0,g1,h1,g2,h2,g3,h3 with T1 trunks between
/// consecutive gateways — so every K ∈ {2, 4} boundary cuts a trunk,
/// never a LAN. CBR h0 ↔ h2 crosses the ring both ways.
fn ring_net(seed: u64, shard: ShardKind) -> (Network, Vec<usize>) {
    let mut net = Network::with_shards(seed, shard);
    let mut gs = Vec::new();
    let mut hs = Vec::new();
    for i in 0..4 {
        let g = net.add_gateway(format!("g{i}"));
        let h = net.add_host(format!("h{i}"));
        net.connect(h, g, LinkClass::EthernetLan);
        gs.push(g);
        hs.push(h);
    }
    let mut trunks = Vec::new();
    for i in 0..4 {
        trunks.push(net.connect(gs[i], gs[(i + 1) % 4], LinkClass::T1Terrestrial));
    }
    let a0 = net.node(hs[0]).primary_addr();
    let a2 = net.node(hs[2]).primary_addr();
    net.attach_app(hs[2], Box::new(CbrSink::new(6000)));
    net.attach_app(
        hs[0],
        Box::new(CbrSource::new(
            Endpoint::new(a2, 6000),
            Duration::from_millis(50),
            160,
            Instant::from_secs(5),
            Instant::from_secs(12),
        )),
    );
    net.attach_app(hs[0], Box::new(CbrSink::new(6001)));
    net.attach_app(
        hs[2],
        Box::new(CbrSource::new(
            Endpoint::new(a0, 6001),
            Duration::from_millis(50),
            160,
            Instant::from_secs(5),
            Instant::from_secs(12),
        )),
    );
    (net, trunks)
}

/// Two same-instant delay-spike/restore actions every 5 ms from t=6 s
/// to t=9 s — six times denser than the 30 ms T1 lookahead, so every
/// traffic round in that span is op-truncated.
fn dense_plan(trunks: &[usize]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    let mut at = Instant::from_secs(6);
    let step = Duration::from_millis(5);
    let mut spiked = false;
    while at < Instant::from_secs(9) {
        for &link in &trunks[..2] {
            let action = if spiked {
                FaultAction::RestoreDelay { link }
            } else {
                FaultAction::DelaySpike {
                    link,
                    extra: Duration::from_millis(1),
                    jitter: Duration::ZERO,
                }
            };
            plan.push(at, action);
        }
        spiked = !spiked;
        at += step;
    }
    plan
}

#[test]
fn dense_fault_plan_is_byte_identical_and_batches_dispatch() {
    let run = |shard| {
        let (mut net, trunks) = ring_net(21, shard);
        net.attach_fault_plan(dense_plan(&trunks));
        net.run_for(Duration::from_secs(15));
        (dumps(&net), net.shard_stats())
    };
    let (reference, _) = run(ShardKind::Single);
    for k in [2usize, 4] {
        let (d, stats) = run(ShardKind::Sharded { shards: k });
        assert_eq!(d, reference, "dumps diverged at K={k}");
        // Batching: every plan instant carries two fault actions and
        // both land in one coordinator interruption, so applied ops
        // strictly outnumber batches (telemetry samples ride along as
        // single-op batches, which is why this is `>` and not `== 2×`).
        assert!(
            stats.ops_applied > stats.op_batches && stats.op_batches > 0,
            "same-instant actions must share a batch: {stats:?}"
        );
        // The plan is denser than the lookahead: rounds are truncated
        // by a pending op, and the counter says so.
        assert!(stats.barrier_stalls > 0, "dense plan must stall: {stats:?}");
        // Only lanes with due events run; idle lanes are skipped.
        assert!(stats.lanes_skipped > 0, "idle lanes must be skipped: {stats:?}");
        assert_eq!(
            stats.lanes_dispatched + stats.lanes_skipped,
            stats.windows * k as u64,
            "every round accounts for every lane: {stats:?}"
        );
        // Trunk-only cuts: no window collapses (contrast with the
        // zero-latency boundary test above).
        assert_eq!(stats.collapsed, 0, "T1 cuts never collapse: {stats:?}");
    }
    // Threaded arm: same bytes, same skipping, through real threads.
    let (d, stats) = run(ShardKind::Parallel { shards: 2 });
    assert_eq!(d, reference, "threaded arm diverged");
    assert!(stats.lanes_skipped > 0);
}

#[test]
fn misaligned_ring_runs_on_trunk_width_windows() {
    // E17b's ring: 66 gateways in cell order (g, src, g, dst, …), 132
    // nodes, so four of the seven balanced K = 8 boundaries (16, 33,
    // 49, 66, 82, 99, 115) are odd — inside a cell, on a 100 µs LAN.
    let run = |shard| {
        let (mut net, _) = e17_parallel::build(
            e17_parallel::RING_MISALIGNED,
            e17_parallel::FLOWS_PER_CELL_CHECK,
            SEEDS[0],
            shard,
        );
        net.run_for(e17_parallel::VIRTUAL);
        (dumps(&net), net.shard_stats(), net.lane_bounds())
    };
    let (reference, _, _) = run(ShardKind::Single);
    let (d, stats, bounds) = run(ShardKind::Sharded { shards: 8 });
    assert_eq!(d, reference, "dumps diverged at K=8");
    assert_eq!(bounds.len(), 8);
    assert!(
        bounds.iter().all(|&(lo, _)| lo % 2 == 0),
        "a lane boundary sits inside a cell, on a LAN: {bounds:?}"
    );
    assert_eq!(stats.collapsed, 0, "{stats:?}");
    // 640 when this was written, 821 once each gateway's periodic
    // clock got a phase of its own and the 66 gateways' full tables
    // stopped leaving in one instant; equal chunks ran 21,408.
    assert!(
        stats.windows <= 900,
        "windows are no longer trunk width: {stats:?}"
    );
}
