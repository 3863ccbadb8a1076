//! E15 — Forwarding fast-path gate (ROADMAP "per-packet cost").
//!
//! **Claim.** Clark's §goal-5/6 discussion blames the datagram
//! architecture's cost on per-packet *processing*, and the kernels of
//! the era answered with buffer pools and in-place header prepends
//! (mbufs, skbuffs). This stack does the same: pooled
//! [`PacketBuf`](catenet_core::PacketBuf)s ride from socket to wire and
//! hop to hop with headers prepended into reserved headroom, recycling
//! through a freelist instead of the allocator. So a converged network
//! forwards a packet with **no allocation and no relocation at all**.
//!
//! **Experiment.** The E13 topologies (gateway rings of 50–400 plus a
//! grid mesh, [`crate::topo`]) run their cold-start convergence storm
//! and bulk TCP flows. Pool counters over a steady-state window (after
//! the storm and the TCP starts settle) are divided by datagrams
//! forwarded in that window: allocations, headroom-miss relocations and
//! bytes copied per forwarded packet.
//!
//! **Gate.** [`TopoResult::gate`] holds iff the steady-state window saw
//! zero fresh allocations and zero relocations. `reproduce -- e15`
//! exits non-zero unless it holds on every topology, so a change that
//! reintroduces a per-packet allocation or loses a header's headroom
//! fails CI by name.
//!
//! Results are rendered as a table and emitted as `BENCH_e15.json`. In
//! `--check` mode the JSON omits wall-clock fields, leaving only
//! seed-deterministic numbers — CI runs it twice and diffs.

use crate::e13_scale::{RING_SIZES, VIRTUAL};
use crate::table::Table;
use crate::topo;
use catenet_core::{Network, NodeId};
use catenet_sim::Duration;

/// Ring sizes in the fast/CI battery.
pub const RING_SIZES_FAST: [usize; 2] = [50, 100];
/// Steady-state window start: the convergence storm is over and every
/// bulk flow (staggered from 8 s) is under way by here, so the counters
/// between `WARMUP` and [`VIRTUAL`] price the *converged* forwarding
/// path, not topology construction.
pub const WARMUP: Duration = Duration::from_secs(12);

/// One topology's measurements.
#[derive(Debug, Clone)]
pub struct TopoResult {
    /// Display name, e.g. `ring-400` or `mesh-10x10`.
    pub name: String,
    /// Gateway count.
    pub gateways: usize,
    /// Events the simulation processed.
    pub events: u64,
    /// Datagrams forwarded by gateways over the full run.
    pub forwarded: u64,
    /// Datagrams forwarded inside the steady-state window.
    pub steady_forwarded: u64,
    /// FNV-1a digests of the metrics, series and flight dumps.
    pub digests: [u64; 3],
    /// Fresh allocations in the window.
    pub steady_allocs: u64,
    /// Prepends that missed their headroom in the window.
    pub steady_shift_copies: u64,
    /// Bytes those relocations copied in the window.
    pub steady_bytes_copied: u64,
    /// Freelist hits in the window.
    pub steady_recycled: u64,
    /// Fresh allocations per datagram forwarded in the window.
    pub allocs_per_forward: f64,
    /// Bytes copied per datagram forwarded in the window.
    pub bytes_per_forward: f64,
    /// Freelist occupancy at the end of the run.
    pub pool_free: u64,
    /// Full-run wall clock, milliseconds.
    pub sim_ms: f64,
}

impl TopoResult {
    /// The fast path's standing claim on this topology: steady state
    /// neither allocates nor relocates.
    pub fn gate(&self) -> bool {
        self.steady_allocs == 0 && self.steady_shift_copies == 0
    }
}

/// Run one topology to [`VIRTUAL`], snapshotting pool and forwarding
/// counters at [`WARMUP`] so the window prices steady state only.
fn measure(name: &str, seed: u64, build: impl FnOnce(&mut Network) -> Vec<NodeId>) -> TopoResult {
    let mut net = Network::new(seed);
    let gateways = build(&mut net);
    let forwarded_by = |net: &Network| -> u64 {
        gateways.iter().map(|&g| net.node(g).stats.ip_forwarded).sum()
    };
    let t0 = std::time::Instant::now();
    net.run_for(WARMUP);
    let at_warmup = net.pool().stats();
    let fwd_warmup = forwarded_by(&net);
    net.run_for(VIRTUAL - WARMUP);
    let sim_ms = t0.elapsed().as_secs_f64() * 1e3;
    let stats = net.pool().stats();
    let forwarded = forwarded_by(&net);
    let steady_forwarded = forwarded - fwd_warmup;
    let per = |n: u64| n as f64 / (steady_forwarded.max(1)) as f64;
    let steady_allocs = stats.fresh_allocs - at_warmup.fresh_allocs;
    let steady_bytes_copied = stats.bytes_copied - at_warmup.bytes_copied;
    TopoResult {
        name: name.to_string(),
        gateways: gateways.len(),
        events: net.sched_stats().processed,
        forwarded,
        steady_forwarded,
        digests: topo::dumps(&net),
        steady_allocs,
        steady_shift_copies: stats.shift_copies - at_warmup.shift_copies,
        steady_bytes_copied,
        steady_recycled: stats.recycled - at_warmup.recycled,
        allocs_per_forward: per(steady_allocs),
        bytes_per_forward: per(steady_bytes_copied),
        pool_free: net.pool().free_buffers() as u64,
        sim_ms,
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
            "E15 — Forwarding fast path: pooled buffers with in-place header \
             prepends on the E13 topologies, {VIRTUAL} of virtual time each; \
             per-packet costs measured over the steady-state window \
             ({WARMUP}..{VIRTUAL}); gate = no allocation and no relocation \
             in that window"
        ),
        &[
            "topology",
            "gateways",
            "forwarded",
            "steady forwarded",
            "allocs/fwd",
            "relocations",
            "bytes copied/fwd",
            "recycled",
            "sim (ms)",
            "gate",
        ],
    );
    for r in results {
        table.row(vec![
            r.name.clone(),
            format!("{}", r.gateways),
            format!("{}", r.forwarded),
            format!("{}", r.steady_forwarded),
            format!("{:.4}", r.allocs_per_forward),
            format!("{}", r.steady_shift_copies),
            format!("{:.2}", r.bytes_per_forward),
            format!("{}", r.steady_recycled),
            format!("{:.1}", r.sim_ms),
            if r.gate() { "pass" } else { "FAIL" }.into(),
        ]);
    }
    table.note(
        "Expected shape: every row passes — the freelist serves the whole \
         converged network (recycled > 0, allocs/fwd exactly 0) and every \
         header lands in reserved headroom (0 relocations, 0 bytes copied). \
         The wall-clock column varies run to run; counters are \
         seed-deterministic.",
    );
    table
}

/// Serialize results as `BENCH_e15.json`. With `timings: false` (CI
/// `--check` mode) all wall-clock fields are omitted, leaving only
/// seed-deterministic numbers — run twice and diff.
pub fn to_json(results: &[TopoResult], timings: bool) -> String {
    let mut out = String::from("{\n  \"experiment\": \"e15\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n  \"virtual_secs\": {},\n  \"warmup_secs\": {},\n  \"topologies\": [\n",
        if timings { "full" } else { "check" },
        VIRTUAL.total_micros() / 1_000_000,
        WARMUP.total_micros() / 1_000_000,
    ));
    for (i, r) in results.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", r.name));
        out.push_str(&format!("      \"gateways\": {},\n", r.gateways));
        out.push_str(&format!("      \"events\": {},\n", r.events));
        out.push_str(&format!("      \"forwarded\": {},\n", r.forwarded));
        out.push_str(&format!(
            "      \"steady_forwarded\": {},\n",
            r.steady_forwarded
        ));
        out.push_str(&format!(
            "      \"digest_metrics\": {},\n      \"digest_series\": {},\n      \"digest_flight\": {},\n",
            r.digests[0], r.digests[1], r.digests[2]
        ));
        out.push_str(&format!("      \"pool_free_buffers\": {},\n", r.pool_free));
        out.push_str(&format!(
            "      \"steady_allocs\": {},\n      \"steady_shift_copies\": {},\n      \
             \"steady_bytes_copied\": {},\n      \"steady_recycled\": {},\n      \
             \"allocs_per_forward\": {:.4},\n      \"bytes_per_forward\": {:.2},\n",
            r.steady_allocs,
            r.steady_shift_copies,
            r.steady_bytes_copied,
            r.steady_recycled,
            r.allocs_per_forward,
            r.bytes_per_forward,
        ));
        if timings {
            out.push_str(&format!("      \"sim_ms\": {:.3},\n", r.sim_ms));
        }
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
    fn small_ring_passes_the_gate_on_a_busy_window() {
        let r = measure("ring-4", 11, |net| topo::build_ring(net, 4));
        assert_eq!(r.gateways, 4);
        assert!(r.steady_forwarded > 1_000, "flows forwarded: {r:?}");
        assert!(r.steady_recycled > 0, "freelist never hit");
        assert!(r.gate(), "steady state allocated or relocated: {r:?}");
    }

    #[test]
    fn mesh_passes_the_gate_and_one_relocation_fails_it() {
        let r = measure("mesh-3x3", 23, |net| topo::build_mesh(net, 3));
        assert!(r.gate() && r.forwarded > 1_000, "{r:?}");
        let relocated = TopoResult { steady_shift_copies: 1, ..r };
        assert!(!relocated.gate());
    }

    #[test]
    fn json_check_mode_is_deterministic_and_timing_free() {
        let a = measure("ring-3", 11, |net| topo::build_ring(net, 3));
        let b = measure("ring-3", 11, |net| topo::build_ring(net, 3));
        let ja = to_json(&[a], false);
        let jb = to_json(&[b], false);
        assert_eq!(ja, jb, "check-mode JSON replays bit-for-bit");
        assert!(!ja.contains("_ms"), "no wall-clock fields in check mode");
        assert!(ja.contains("\"mode\": \"check\""));
        assert!(ja.contains("\"gate\": true"));
    }
}
