//! E17 — Sharded parallel execution, priced (ROADMAP "parallel
//! execution"; paper §3, scale as a first-class goal).
//!
//! **Claim.** The architecture is meant for an internet "at the scale
//! of millions of users", but a one-core event loop caps every
//! experiment in this repo far below that. Conservative-lookahead
//! sharding (`ShardKind::Parallel`) partitions the node set into K
//! contiguous lanes that run windows of virtual time on their own
//! threads, exchanging cross-lane frames at barrier instants — and the
//! whole point of the design is that the speedup costs *nothing* in
//! observability: every dump is byte-identical to the single-lane
//! reference, at every K.
//!
//! **Experiment.** A ring of ≥1000 gateways with a host pair riding
//! every second gateway runs ~10⁴ concurrent local CBR/UDP flows
//! (packet voice, the datagram archetype) through the cold-start
//! routing storm and 30 s of steady state. The same construction runs
//! at K ∈ {1, 2, 4, 8}; per K we record wall clock, events processed,
//! datagrams forwarded, and an FNV-1a digest of each telemetry dump.
//! The digests must agree across every K — cross-K equivalence — and
//! the wall-clock ratio against K=1 is the headline speedup.
//!
//! **The window protocol** is the CMB-style per-lane-pair lookahead
//! matrix: lane i advances to `min over j of (T_j + reach(j→i)) − 1 µs`
//! and lanes with nothing due are skipped; window counters
//! ([`ShardStats`]) price it per run. K=1 is the same round with no
//! peer to bound it, so its row counts windows too: one per span
//! between coordinator ops (here, the telemetry sampler's cadence).
//!
//! **Topology.** Lanes are contiguous-by-NodeId, so the builder
//! interleaves creation — `g₀, src₀, g₁, dst₀, g₂, …` — making the node
//! sequence periodic in cells of four. On the main ring the gateway
//! count is a multiple of 16, so for K ≤ 8 the balanced boundaries
//! already land *between* cells: hosts share a lane with their gateway,
//! every cross-lane link is a T1 trunk, and windows get the full 30 ms
//! trunk propagation. The **misaligned ring** (E17b) drops that
//! convention on purpose — 66 gateways at K=8 put four of the balanced
//! boundaries *inside* cells, on 100 µs LANs — and shows
//! `catenet_core::partition` sliding them onto trunks on its own: the
//! window counters stay at trunk width, dumps byte-identical.
//!
//! Results render as tables and `BENCH_e17.json`. In `--check` mode
//! the JSON carries only K-invariant, seed-deterministic fields
//! (counts and dump digests — no shard count, no wall clock, no host
//! cores, no window counters), so CI can run it at K=1 and K=4, twice
//! each, and diff all the files: run-twice determinism and cross-K
//! equivalence in one byte comparison. The `--full` tier scales the
//! ring to 5,120 gateways / ~10⁵ flows for the CI timing artifact.

use crate::table::Table;
use catenet_core::app::{CbrSink, CbrSource};
use catenet_core::{Endpoint, Network, NodeId, ShardKind, ShardStats};
use catenet_sim::{Duration, Instant, LinkClass};

/// Shard counts the battery sweeps.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Ring size (gateways) in the full battery. A multiple of 16 so lane
/// boundaries stay cell-aligned for every K ≤ 8 (see module docs).
pub const RING_FULL: usize = 1024;
/// Ring size in the CI `--check` battery.
pub const RING_CHECK: usize = 192;
/// Ring size in the `--full` scale tier: 5,120 gateways → 2,560 cells
/// → 102,400 concurrent flows at [`FLOWS_PER_CELL_HUGE`].
pub const RING_HUGE: usize = 5120;
/// Flows per cell in the `--full` scale tier.
pub const FLOWS_PER_CELL_HUGE: usize = 40;
/// Ring size of the misaligned demo: 66 gateways → 132 nodes, so the
/// K=8 balanced boundaries are 16, 33, 49, 66, 82, 99, 115 — four of
/// them odd, i.e. inside a cell, on a host LAN.
pub const RING_MISALIGNED: usize = 66;
/// CBR flows per host-pair cell in the full battery (one cell per two
/// gateways: 1024 gateways → 512 cells → 10 240 concurrent flows).
pub const FLOWS_PER_CELL_FULL: usize = 20;
/// Flows per cell in the `--check` battery.
pub const FLOWS_PER_CELL_CHECK: usize = 4;
/// Virtual time per run: cold-start storm plus steady-state CBR.
pub const VIRTUAL: Duration = Duration::from_secs(30);
/// Flows start once nearby routes have propagated, like E13.
const FLOW_START: Instant = Instant::from_secs(8);
/// Flows stop 2 s before [`VIRTUAL`] ends so tails drain in-window.
const FLOW_STOP: Instant = Instant::from_secs(28);
/// CBR cadence: one 160-byte datagram per flow per 200 ms (packet
/// voice at report rate, scaled so 10⁴ flows stay tractable).
const CBR_INTERVAL: Duration = Duration::from_millis(200);
const CBR_SIZE: usize = 160;
/// Each cell's flows target the dst host two cells ahead: five ring
/// hops plus two LAN hops, comfortably inside the metric-16 horizon.
const CELL_SKIP: usize = 2;

/// Workload tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// CI `--check` size ([`RING_CHECK`]).
    Check,
    /// Standard full battery ([`RING_FULL`]).
    Full,
    /// `--full` scale tier ([`RING_HUGE`], ~10⁵ flows).
    Huge,
}

impl Tier {
    fn shape(self) -> (usize, usize) {
        match self {
            Tier::Check => (RING_CHECK, FLOWS_PER_CELL_CHECK),
            Tier::Full => (RING_FULL, FLOWS_PER_CELL_FULL),
            Tier::Huge => (RING_HUGE, FLOWS_PER_CELL_HUGE),
        }
    }
}

/// One shard count's run.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// Requested shard count K.
    pub shards: usize,
    /// Lanes actually created (K clamped to the node count).
    pub lanes: usize,
    /// Events processed (identical across K).
    pub events: u64,
    /// Datagrams forwarded by gateways (identical across K).
    pub forwarded: u64,
    /// FNV-1a digests of the metrics, series, and flight dumps.
    pub digests: [u64; 3],
    /// Wall clock for the simulation run, milliseconds.
    pub wall_ms: f64,
    /// Window-protocol counters (at K=1: one lane dispatched per
    /// window, each an op-free span).
    pub stats: ShardStats,
}

impl ShardRun {
    /// Mean lane-window span in microseconds — how far a lane runs per
    /// round. (Every run has rounds: K=1 counts its windows too.)
    pub fn avg_span_us(&self) -> f64 {
        let lane_windows = self.stats.lanes_dispatched + self.stats.lanes_skipped;
        self.stats.span_us as f64 / lane_windows as f64
    }
}

/// The full sweep.
#[derive(Debug, Clone)]
pub struct Battery {
    /// Gateways in the ring.
    pub gateways: usize,
    /// Host-pair cells (gateways / 2).
    pub cells: usize,
    /// Concurrent CBR flows (cells × flows-per-cell).
    pub flows: usize,
    /// One run per requested shard count.
    pub runs: Vec<ShardRun>,
    /// Every run produced identical dump digests, event counts, and
    /// forward counts — the cross-K equivalence bit.
    pub all_equal: bool,
    /// Cores the host reported (`std::thread::available_parallelism`);
    /// speedup is bounded by this, so CI numbers from a 4-core runner
    /// and laptop numbers are comparable only through it.
    pub host_cores: usize,
}

/// FNV-1a 64 over a dump — a stable fingerprint two JSON files can be
/// diffed on without embedding megabytes of telemetry.
pub fn fnv1a(text: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Build the interleaved ring and attach every flow, returning the
/// network and its gateway ids. See the module docs for why creation
/// order is load-bearing.
pub fn build(gateways: usize, flows_per_cell: usize, seed: u64, shard: ShardKind) -> (Network, Vec<NodeId>) {
    // Even gateway counts keep cells whole; *alignment* of lane
    // boundaries to cell edges is the main ring's convention (multiple
    // of 16) and deliberately not enforced here — the misaligned ring
    // exists to break it and let the partitioner repair it.
    assert!(gateways.is_multiple_of(2), "cells need gateway pairs");
    let cells = gateways / 2;
    let mut net = Network::with_shards(seed, shard);
    let mut gs = Vec::with_capacity(gateways);
    let mut srcs = Vec::with_capacity(cells);
    let mut dsts = Vec::with_capacity(cells);
    for i in 0..gateways {
        let g = net.add_gateway(format!("g{i}"));
        if let Some(&prev) = gs.last() {
            net.connect(prev, g, LinkClass::T1Terrestrial);
        }
        gs.push(g);
        if i % 2 == 0 {
            let src = net.add_host(format!("src{}", i / 2));
            net.connect(src, g, LinkClass::EthernetLan);
            srcs.push(src);
        } else {
            let dst = net.add_host(format!("dst{}", i / 2));
            net.connect(dst, g, LinkClass::EthernetLan);
            dsts.push(dst);
        }
    }
    net.connect(gs[gateways - 1], gs[0], LinkClass::T1Terrestrial);
    for cell in 0..cells {
        let target = dsts[(cell + CELL_SKIP) % cells];
        let dst_addr = net.node(target).primary_addr();
        for flow in 0..flows_per_cell {
            let port = 5000 + flow as u16;
            net.attach_app(target, Box::new(CbrSink::new(port)));
            net.attach_app(
                srcs[cell],
                Box::new(CbrSource::new(
                    Endpoint::new(dst_addr, port),
                    CBR_INTERVAL,
                    CBR_SIZE,
                    FLOW_START,
                    FLOW_STOP,
                )),
            );
        }
    }
    (net, gs)
}

/// Run one shard count over the given workload. K=1 is always the
/// `Single` reference; `threaded` selects `Parallel` vs `Sharded` lanes
/// for K>1 (the misaligned ring runs serial lanes — its windows are
/// protocol-priced by counters, not thread wall-clock).
pub fn run_one(
    gateways: usize,
    flows_per_cell: usize,
    seed: u64,
    shards: usize,
    threaded: bool,
) -> ShardRun {
    let shard = if shards == 1 {
        ShardKind::Single
    } else if threaded {
        ShardKind::Parallel { shards }
    } else {
        ShardKind::Sharded { shards }
    };
    let (mut net, gs) = build(gateways, flows_per_cell, seed, shard);
    let t0 = std::time::Instant::now();
    net.run_for(VIRTUAL);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let forwarded = gs.iter().map(|&g| net.node(g).stats.ip_forwarded).sum();
    ShardRun {
        shards,
        lanes: net.lane_count(),
        events: net.sched_stats().processed,
        forwarded,
        digests: crate::topo::dumps(&net),
        wall_ms,
        stats: net.shard_stats(),
    }
}

fn check_equal(runs: &[ShardRun]) -> bool {
    runs.windows(2).all(|w| {
        w[0].digests == w[1].digests
            && w[0].events == w[1].events
            && w[0].forwarded == w[1].forwarded
    })
}

/// Run the sweep on worker threads. `tier` sizes the workload;
/// `shard_counts` lets CI pin a single K (the `--shards N` flag).
pub fn run_battery(tier: Tier, seed: u64, shard_counts: &[usize]) -> Battery {
    let (gateways, flows_per_cell) = tier.shape();
    let runs = shard_counts
        .iter()
        .map(|&k| run_one(gateways, flows_per_cell, seed, k, true))
        .collect();
    battery(gateways, flows_per_cell, runs)
}

/// The misaligned ring: 66 gateways at K=8, where four balanced lane
/// boundaries would sit on host LANs (100 µs windows) and the
/// partitioner slides them onto trunks (30 ms windows). Serial lanes —
/// the observable is the window counters, not thread scaling — with
/// the K=1 reference pinning byte identity.
pub fn run_misaligned(seed: u64) -> Battery {
    let runs = [1, 8]
        .map(|k| run_one(RING_MISALIGNED, FLOWS_PER_CELL_CHECK, seed, k, false))
        .to_vec();
    battery(RING_MISALIGNED, FLOWS_PER_CELL_CHECK, runs)
}

fn battery(gateways: usize, flows_per_cell: usize, runs: Vec<ShardRun>) -> Battery {
    Battery {
        gateways,
        cells: gateways / 2,
        flows: (gateways / 2) * flows_per_cell,
        all_equal: check_equal(&runs),
        runs,
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Render the sweep as an experiment table.
pub fn table(battery: &Battery) -> Table {
    let title = format!(
        "E17 — Sharded parallel execution: ring-{} ({} concurrent CBR/UDP \
         flows), {VIRTUAL} of virtual time per run; per-pair-lookahead \
         lanes on persistent worker threads vs the single-lane reference \
         (host reported {} core{})",
        battery.gateways,
        battery.flows,
        battery.host_cores,
        if battery.host_cores == 1 { "" } else { "s" },
    );
    let mut table = rows(title, battery);
    table.note(
        "Expected shape: dumps equal on every row — the lane count is \
         observably indistinguishable from the reference, which is the whole \
         contract. At K>1 windows run at trunk width (~30 ms), none collapsed, \
         with idle lanes skipped instead of dispatched (K=1 is the same round \
         with no peer to bound it: one window per span between telemetry \
         samples); speedup at K=4 clears 1.5x \
         on a 4-core host and is bounded by the host core count (a 1-core \
         container spawns no worker, runs every lane on the calling thread \
         and reports ~1.0x). Wall-clock columns vary run to run; event \
         counts, forward counts, digests and window counters are \
         seed-deterministic.",
    );
    table
}

/// Render the misaligned ring as its own table.
pub fn misaligned_table(battery: &Battery) -> Table {
    let title = format!(
        "E17b — Latency-aware partitioning, misaligned ring-{} ({} flows, \
         serial lanes): four balanced K=8 boundaries would sit on host \
         LANs; the partitioner slides them onto T1 trunks",
        battery.gateways, battery.flows,
    );
    let mut table = rows(title, battery);
    table.note(
        "Expected shape: both rows byte-identical (partition choice is \
         performance-only) and the K=8 run at trunk-width windows — \
         hundreds of rounds, none collapsed — where a boundary left on a \
         LAN would mean ~100 µs windows and tens of thousands of rounds. \
         (Serial lanes: the counters, not the milliseconds, are the point.)",
    );
    table
}

/// One row per run, the first being the reference for "dumps equal"
/// and "speedup".
fn rows(title: String, battery: &Battery) -> Table {
    let mut table = Table::new(
        title,
        &[
            "shards",
            "lanes",
            "events",
            "forwarded",
            "dumps equal",
            "windows",
            "avg win (µs)",
            "collapsed",
            "skipped",
            "wall (ms)",
            "speedup",
        ],
    );
    let reference = &battery.runs[0];
    for r in &battery.runs {
        table.row(vec![
            format!("{}", r.shards),
            format!("{}", r.lanes),
            format!("{}", r.events),
            format!("{}", r.forwarded),
            if r.digests == reference.digests { "yes" } else { "NO" }.into(),
            format!("{}", r.stats.windows),
            format!("{:.0}", r.avg_span_us()),
            format!("{}", r.stats.collapsed),
            format!("{}", r.stats.lanes_skipped),
            format!("{:.1}", r.wall_ms),
            format!("{:.2}x", reference.wall_ms / r.wall_ms),
        ]);
    }
    table
}

/// Serialize as `BENCH_e17.json`. With `timings: false` (CI `--check`)
/// only K-invariant fields survive: no shard counts, no lane counts,
/// no wall clock, no host cores, no window counters — check files
/// produced at *different* K must be byte-identical, which is exactly
/// what CI diffs. With timings on, `misaligned` (when given) rides
/// along as the partitioner demo.
pub fn to_json(battery: &Battery, timings: bool, misaligned: Option<&Battery>) -> String {
    let mut out = String::from("{\n  \"experiment\": \"e17\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n  \"gateways\": {},\n  \"cells\": {},\n  \
         \"flows\": {},\n  \"virtual_secs\": {},\n",
        if timings { "full" } else { "check" },
        battery.gateways,
        battery.cells,
        battery.flows,
        VIRTUAL.total_micros() / 1_000_000,
    ));
    let r0 = battery.runs.first().expect("at least one shard count");
    out.push_str(&format!(
        "  \"events\": {},\n  \"forwarded\": {},\n  \"digest_metrics\": {},\n  \
         \"digest_series\": {},\n  \"digest_flight\": {},\n  \"all_equal\": {}",
        r0.events, r0.forwarded, r0.digests[0], r0.digests[1], r0.digests[2], battery.all_equal,
    ));
    if timings {
        out.push_str(&format!(
            ",\n  \"host_cores\": {},\n  \"runs\": [\n",
            battery.host_cores
        ));
        let reference = r0.wall_ms;
        out.push_str(&runs_json(&battery.runs, reference, "    "));
        out.push_str("  ]");
        if let Some(demo) = misaligned {
            out.push_str(&format!(
                ",\n  \"misaligned\": {{\n    \"gateways\": {},\n    \
                 \"flows\": {},\n    \"all_equal\": {},\n    \"runs\": [\n",
                demo.gateways, demo.flows, demo.all_equal,
            ));
            let demo_ref = demo.runs.first().map_or(0.0, |r| r.wall_ms);
            out.push_str(&runs_json(&demo.runs, demo_ref, "      "));
            out.push_str("    ]\n  }");
        }
        out.push_str("\n}\n");
    } else {
        out.push_str("\n}\n");
    }
    out
}

fn runs_json(runs: &[ShardRun], reference_wall_ms: f64, indent: &str) -> String {
    let mut out = String::new();
    for (i, r) in runs.iter().enumerate() {
        out.push_str(&format!(
            "{indent}{{\"shards\": {}, \"lanes\": {}, \
             \"wall_ms\": {:.3}, \"events_per_sec\": {:.0}, \"speedup\": {:.3}, \
             \"windows\": {}, \"avg_span_us\": {:.0}, \"collapsed\": {}, \
             \"barrier_stalls\": {}, \"lanes_dispatched\": {}, \
             \"lanes_skipped\": {}}}{}\n",
            r.shards,
            r.lanes,
            r.wall_ms,
            r.events as f64 / (r.wall_ms / 1e3),
            reference_wall_ms / r.wall_ms,
            r.stats.windows,
            r.avg_span_us(),
            r.stats.collapsed,
            r.stats.barrier_stalls,
            r.stats.lanes_dispatched,
            r.stats.lanes_skipped,
            if i + 1 < runs.len() { "," } else { "" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_ring_is_byte_identical_across_shard_counts() {
        // A 16-gateway ring (the smallest cell-aligned size) at K = 1,
        // 2, 4: identical digests, event counts, and forward counts —
        // the E17 contract end to end, threads included.
        let runs: Vec<ShardRun> = [1, 2, 4].map(|k| run_one(16, 2, 11, k, true)).to_vec();
        for r in &runs[1..] {
            assert_eq!(r.digests, runs[0].digests, "K={} dumps diverged", r.shards);
            assert_eq!(r.events, runs[0].events, "K={} event count", r.shards);
            assert_eq!(r.forwarded, runs[0].forwarded, "K={} forwards", r.shards);
        }
        assert_eq!(runs[0].lanes, 1);
        assert_eq!(runs[1].lanes, 2);
        assert_eq!(runs[2].lanes, 4);
        assert!(runs[0].events > 10_000, "storm + flows ran: {}", runs[0].events);
        assert!(runs[0].forwarded > 1_000, "datagrams crossed the ring");
    }

    #[test]
    fn json_check_mode_is_shard_invariant() {
        // Small-scale stand-in for the CI diff: one battery per K at a
        // 16-gateway ring, host-dependent fields deliberately skewed so
        // a leak into check mode would show as a diff.
        let battery = |k: usize, cores: usize| Battery {
            gateways: 16,
            cells: 8,
            flows: 16,
            runs: vec![run_one(16, 2, 11, k, true)],
            all_equal: true,
            host_cores: cores,
        };
        let ja = to_json(&battery(1, 1), false, None);
        let jb = to_json(&battery(4, 64), false, None);
        assert_eq!(ja, jb, "check JSON at K=1 and K=4 must diff clean");
        assert!(!ja.contains("wall_ms"), "no wall clock in check mode");
        assert!(!ja.contains("host_cores"), "no host facts in check mode");
        assert!(!ja.contains("shards"), "no shard count in check mode");
        assert!(!ja.contains("windows"), "no window counters in check mode");
        assert!(ja.contains("\"mode\": \"check\""));
        assert!(ja.contains("\"all_equal\": true"));
    }

    #[test]
    fn fnv1a_is_the_standard_vector() {
        // Classic FNV-1a test vectors pin the digest so a refactor
        // can't silently change every recorded fingerprint.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a("foobar"), 0x85944171f73967e8);
    }
}
