//! E13 — Scale: the scheduler and the forwarding fast path at 50–400
//! gateways (ROADMAP "performance re-anchor", "per-packet cost").
//!
//! **Claim.** Clark's gateways are cheap, stateless store-and-forward
//! elements; stressing the architecture's claims at realistic size
//! means simulating *hundreds* of them. Two things must then hold. The
//! event loop must not be the blocker — and a perf rewrite of the
//! measurement substrate is only trustworthy if it is proven observably
//! identical to what it replaced. And per-packet *processing*, which
//! §goal-5/6 blames for the datagram's cost, must not be buffer
//! management: pooled [`PacketBuf`](catenet_core::PacketBuf)s ride from
//! socket to wire and hop to hop with headers prepended into reserved
//! headroom (the mbuf/skbuff discipline), so a converged network
//! forwards a packet with **no allocation and no relocation at all**.
//!
//! **Experiment.** Gateway rings of 50–400 nodes (plus a grid-mesh
//! arm, [`crate::topo`]) run their cold-start distance-vector
//! convergence storm — the densest event mix the stack produces — and
//! bulk TCP flows, with the scheduler recording its op trace (every
//! post-clamp schedule and pop). One run per topology gives:
//!
//! 1. **Equivalence at scale**: the trace is replayed through the
//!    `BinaryHeap` reference and the timer wheel side by side
//!    ([`diffsched::replay_lockstep`]); every popped `(time, event)`
//!    pair must be equal, FIFO ties included — here at 400 gateways.
//! 2. **The fast-path gate**: pool counters over a steady-state window
//!    ([`WARMUP`]..[`VIRTUAL`]) divided by datagrams forwarded in it.
//!    [`TopoResult::gate`] holds iff that window saw zero fresh
//!    allocations and zero relocations; `reproduce -- e13` exits
//!    non-zero unless it holds on every topology.
//!
//! Nothing here reads a clock: what the wheel costs against the heap
//! is `perf/`'s to measure (`sim.sched.ns_per_op`, on each workload's
//! own trace). Results are rendered as a table and emitted as
//! `BENCH_e13.json`, both pure functions of the seed — CI runs it twice
//! and diffs.

use crate::table::Table;
use crate::topo;
use catenet_core::{Network, NodeId};
use catenet_sim::{diffsched, Duration};

/// Ring sizes (gateway counts) in the full battery.
pub const RING_SIZES: [usize; 4] = [50, 100, 200, 400];
/// Ring sizes in the fast/CI battery. Ring-400 is included so the CI
/// determinism diff exercises the overflow-heavy scheduler path (far
/// timers paging through the wheel's overflow map), not just the
/// in-window fast path the small rings stay inside.
pub const RING_SIZES_FAST: [usize; 3] = [50, 100, 400];
/// Virtual time each topology runs: long enough for the cold-start
/// storm, several periodic update rounds, and the bulk transfers.
pub const VIRTUAL: Duration = Duration::from_secs(30);
/// Steady-state window start: the convergence storm is over and every
/// bulk flow (staggered from 8 s) is under way by here, so the pool
/// counters between `WARMUP` and [`VIRTUAL`] price the *converged*
/// forwarding path, not topology construction.
pub const WARMUP: Duration = Duration::from_secs(12);

/// One topology's measurements.
#[derive(Debug, Clone)]
pub struct TopoResult {
    /// Display name, e.g. `ring-400` or `mesh-10x10`.
    pub name: String,
    /// Gateway count.
    pub gateways: usize,
    /// Events the simulation processed — and pops the lockstep replay
    /// compared heap against wheel on, every one equal.
    pub events: u64,
    /// Of those pops, how many came at the same instant as the one
    /// before: the pops FIFO tie order decided.
    pub lockstep_ties: u64,
    /// Entries that crossed the wheel's overflow map.
    pub overflow_inserts: u64,
    /// FNV-1a digests of the metrics, series and flight dumps.
    pub digests: [u64; 3],
    /// Datagrams forwarded by gateways over the full run.
    pub forwarded: u64,
    /// Datagrams forwarded inside the steady-state window.
    pub steady_forwarded: u64,
    /// Fresh allocations in the window.
    pub steady_allocs: u64,
    /// Prepends that missed their headroom in the window.
    pub steady_shift_copies: u64,
    /// Bytes those relocations copied in the window.
    pub steady_bytes_copied: u64,
    /// Freelist hits in the window.
    pub steady_recycled: u64,
    /// Freelist occupancy at the end of the run.
    pub pool_free: u64,
}

impl TopoResult {
    /// The fast path's standing claim on this topology: steady state
    /// neither allocates nor relocates.
    pub fn gate(&self) -> bool {
        self.steady_allocs == 0 && self.steady_shift_copies == 0
    }

    /// `n` per datagram forwarded in the steady-state window.
    fn per_forward(&self, n: u64) -> f64 {
        n as f64 / self.steady_forwarded.max(1) as f64
    }
}

/// Measure one topology. `build` populates the network and hands back
/// its gateways; the op trace is armed before it runs (topology kicks
/// schedule events, and a replayable trace has to start at event zero).
/// Pool and forwarding counters are snapshot at [`WARMUP`] so the gate
/// prices steady state only.
fn measure(name: &str, seed: u64, build: impl FnOnce(&mut Network) -> Vec<NodeId>) -> TopoResult {
    let mut net = Network::new(seed);
    net.set_sched_trace(true);
    let gateways = build(&mut net);
    let forwarded_by = |net: &Network| -> u64 {
        gateways.iter().map(|&g| net.node(g).stats.ip_forwarded).sum()
    };
    net.run_for(WARMUP);
    let at_warmup = net.pool().stats();
    let fwd_warmup = forwarded_by(&net);
    net.run_for(VIRTUAL - WARMUP);
    let trace = net.take_sched_trace();
    let stats = net.sched_stats();
    let pool = net.pool().stats();
    let forwarded = forwarded_by(&net);

    let (pops, lockstep_ties) = diffsched::replay_lockstep(&trace);
    assert_eq!(pops, stats.processed, "{name}: the trace misses pops");

    TopoResult {
        name: name.to_string(),
        gateways: gateways.len(),
        events: stats.processed,
        lockstep_ties,
        overflow_inserts: stats.wheel.overflow_inserts,
        digests: topo::dumps(&net),
        forwarded,
        steady_forwarded: forwarded - fwd_warmup,
        steady_allocs: pool.fresh_allocs - at_warmup.fresh_allocs,
        steady_shift_copies: pool.shift_copies - at_warmup.shift_copies,
        steady_bytes_copied: pool.bytes_copied - at_warmup.bytes_copied,
        steady_recycled: pool.recycled - at_warmup.recycled,
        pool_free: net.pool().free_buffers() as u64,
    }
}

/// Run the battery. `fast` selects the CI-sized topologies.
pub fn run_battery(fast: bool, seed: u64) -> Vec<TopoResult> {
    let sizes: &[usize] = if fast { &RING_SIZES_FAST } else { &RING_SIZES };
    let mut results: Vec<TopoResult> = sizes
        .iter()
        .map(|&n| measure(&format!("ring-{n}"), seed, |net| topo::build_ring(net, n)))
        .collect();
    let side = if fast { 5 } else { 10 };
    results.push(measure(&format!("mesh-{side}x{side}"), seed, |net| {
        topo::build_mesh(net, side)
    }));
    results
}

/// Render the battery as an experiment table.
pub fn table(results: &[TopoResult]) -> Table {
    let mut table = Table::new(
        format!(
            "E13 — Scale: cold-start DV convergence storm plus concurrent \
             bulk TCP flows, {VIRTUAL} of virtual time per topology on the \
             timer wheel; its scheduler op trace replayed through the heap \
             reference and the wheel side by side, every pop compared; \
             pool counters \
             over the steady-state window ({WARMUP}..{VIRTUAL}) per \
             forwarded datagram, gate = no allocation and no relocation in \
             that window"
        ),
        &[
            "topology",
            "gateways",
            "events",
            "lockstep equal",
            "same-instant ties",
            "overflow inserts",
            "forwarded",
            "steady forwarded",
            "allocs/fwd",
            "relocations",
            "bytes copied/fwd",
            "recycled",
            "gate",
        ],
    );
    for r in results {
        table.row(vec![
            r.name.clone(),
            format!("{}", r.gateways),
            format!("{}", r.events),
            // `measure` panics on the first unequal pop.
            "yes".into(),
            format!("{}", r.lockstep_ties),
            format!("{}", r.overflow_inserts),
            format!("{}", r.forwarded),
            format!("{}", r.steady_forwarded),
            format!("{:.4}", r.per_forward(r.steady_allocs)),
            format!("{}", r.steady_shift_copies),
            format!("{:.2}", r.per_forward(r.steady_bytes_copied)),
            format!("{}", r.steady_recycled),
            if r.gate() { "pass" } else { "FAIL" }.into(),
        ]);
    }
    table.note(
        "Expected shape: lockstep equal everywhere (the wheel pops exactly \
         what the heap reference pops, FIFO ties included), with far timers \
         crossing the wheel's overflow path on every topology; every row \
         passes the gate — the freelist serves the whole converged network \
         (recycled > 0, allocs/fwd exactly 0) and every header lands in \
         reserved headroom (0 relocations, 0 bytes copied). Every cell is \
         seed-deterministic; what the wheel costs per operation is \
         perf/'s sim.sched.ns_per_op.",
    );
    table
}

/// Serialize results as `BENCH_e13.json`: seed-deterministic numbers
/// only, so two runs diff clean.
pub fn to_json(results: &[TopoResult]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"e13\",\n");
    out.push_str(&format!(
        "  \"virtual_secs\": {},\n  \"warmup_secs\": {},\n  \"topologies\": [\n",
        VIRTUAL.total_micros() / 1_000_000,
        WARMUP.total_micros() / 1_000_000,
    ));
    for (i, r) in results.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", r.name));
        out.push_str(&format!("      \"gateways\": {},\n", r.gateways));
        out.push_str(&format!("      \"events\": {},\n", r.events));
        out.push_str(&format!(
            "      \"overflow_inserts\": {},\n",
            r.overflow_inserts
        ));
        out.push_str(&format!(
            "      \"lockstep_equal\": true,\n      \"lockstep_ties\": {},\n",
            r.lockstep_ties
        ));
        out.push_str(&format!(
            "      \"digest_metrics\": {},\n      \"digest_series\": {},\n      \"digest_flight\": {},\n",
            r.digests[0], r.digests[1], r.digests[2]
        ));
        out.push_str(&format!(
            "      \"forwarded\": {},\n      \"steady_forwarded\": {},\n      \
             \"pool_free_buffers\": {},\n",
            r.forwarded, r.steady_forwarded, r.pool_free
        ));
        out.push_str(&format!(
            "      \"steady_allocs\": {},\n      \"steady_shift_copies\": {},\n      \
             \"steady_bytes_copied\": {},\n      \"steady_recycled\": {},\n      \
             \"allocs_per_forward\": {:.4},\n      \"bytes_per_forward\": {:.2},\n",
            r.steady_allocs,
            r.steady_shift_copies,
            r.steady_bytes_copied,
            r.steady_recycled,
            r.per_forward(r.steady_allocs),
            r.per_forward(r.steady_bytes_copied),
        ));
        out.push_str(&format!("      \"gate\": {}\n", r.gate()));
        out.push_str(if i + 1 < results.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_ring_replays_equal_and_wheel_overflows() {
        // One small topology end to end: a trace the heap and the wheel
        // pop identically, a sane event count with real same-instant
        // ties in it, and far timers actually crossing the overflow map
        // (so the benchmark exercises the wheel's paging path, not just
        // the in-window fast path) — and a busy steady-state window the
        // freelist serves without allocating or relocating.
        let r = measure("ring-4", 11, |net| topo::build_ring(net, 4));
        assert_eq!(r.gateways, 4);
        assert!(r.events > 1_000, "convergence storm happened: {}", r.events);
        assert!(r.lockstep_ties > 0, "some pops share an instant");
        assert!(r.overflow_inserts > 0, "3 s DV timers cross windows");
        assert!(r.steady_forwarded > 1_000, "flows forwarded: {r:?}");
        assert!(r.steady_recycled > 0, "freelist never hit");
        assert!(r.gate(), "steady state allocated or relocated: {r:?}");
    }

    #[test]
    fn json_is_a_pure_function_of_the_seed() {
        let battery = || {
            [3, 4].map(|n| measure(&format!("ring-{n}"), 11, |net| topo::build_ring(net, n)))
        };
        let ja = to_json(&battery());
        crate::assert_pure_json(&ja, &to_json(&battery()));
        assert!(ja.contains("\"lockstep_equal\": true"));
        assert!(ja.contains("\"gate\": true"));
    }

    #[test]
    fn mesh_builds_and_replays_equal() {
        // The mesh passes the gate, and one relocation fails it.
        let r = measure("mesh-3x3", 23, |net| topo::build_mesh(net, 3));
        assert_eq!(r.gateways, 9);
        assert!(r.events > 1_000);
        assert!(r.gate() && r.forwarded > 1_000, "{r:?}");
        let relocated = TopoResult { steady_shift_copies: 1, ..r };
        assert!(!relocated.gate());
    }
}
