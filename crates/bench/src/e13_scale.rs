//! E13 — Scheduler scale benchmark (ROADMAP "performance re-anchor").
//!
//! **Claim.** Clark's gateways are cheap, stateless store-and-forward
//! elements; stressing the architecture's claims at realistic size
//! means simulating *hundreds* of them. The event loop must not be the
//! blocker — and a perf rewrite of the measurement substrate is only
//! trustworthy if it is proven observably identical to what it
//! replaced.
//!
//! **Experiment.** Gateway rings of 50–400 nodes (plus a grid-mesh
//! arm, [`crate::topo`]) run their cold-start distance-vector
//! convergence storm — the densest event mix the stack produces — with
//! the scheduler recording its op trace (every post-clamp schedule and
//! pop). Three things are measured per topology:
//!
//! 1. **Equivalence at scale**: the trace is replayed through the
//!    `BinaryHeap` reference and the timer wheel side by side
//!    ([`diffsched::replay_lockstep`]); every popped `(time, event)`
//!    pair must be equal, FIFO ties included — here at 400 gateways.
//! 2. **End-to-end wall clock** of the full simulation.
//! 3. **Substrate throughput**: the trace is replayed against each
//!    backend in isolation. Replay isolates the event-queue cost from
//!    protocol work, so the heap/wheel speedup is measured on the
//!    *real* event mix, not a synthetic one.
//!
//! Results are rendered as a table and emitted as `BENCH_e13.json`. In
//! `--check` mode the JSON omits wall-clock fields, leaving only
//! seed-deterministic numbers — CI runs it twice and diffs.

use crate::table::Table;
use crate::topo;
use catenet_core::{Network, NodeId};
use catenet_sim::{diffsched, Duration, SchedulerKind};

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
/// Replay repetitions per backend; the minimum wall time is reported
/// (the run least perturbed by the host machine).
const REPLAY_REPS: usize = 7;

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
    /// Full-simulation wall clock, milliseconds.
    pub sim_ms: f64,
    /// Trace-replay wall clock, `[heap, wheel]`, milliseconds (min of
    /// [`REPLAY_REPS`] reps).
    pub replay_ms: [f64; 2],
    /// Trace-replay throughput, `[heap, wheel]`, events per second.
    pub replay_eps: [f64; 2],
    /// Substrate speedup: heap replay time / wheel replay time.
    pub speedup: f64,
}

/// Measure one topology. `build` populates the network; the op trace is
/// armed before it runs (topology kicks schedule events, and a
/// replayable trace has to start at event zero).
fn measure(name: &str, seed: u64, build: impl FnOnce(&mut Network) -> Vec<NodeId>) -> TopoResult {
    let mut net = Network::new(seed);
    net.set_sched_trace(true);
    let gateways = build(&mut net).len();
    let t0 = std::time::Instant::now();
    net.run_for(VIRTUAL);
    let sim_ms = t0.elapsed().as_secs_f64() * 1e3;
    let trace = net.take_sched_trace();
    let stats = net.sched_stats();

    let (pops, lockstep_ties) = diffsched::replay_lockstep(&trace);
    assert_eq!(pops, stats.processed, "{name}: the trace misses pops");

    let replay_ms = |kind: SchedulerKind| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..REPLAY_REPS {
            let t0 = std::time::Instant::now();
            let processed = diffsched::replay_trace(kind, &trace);
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
            assert_eq!(processed, stats.processed, "{name}: replay drift");
        }
        best
    };
    let heap_replay = replay_ms(SchedulerKind::Heap);
    let wheel_replay = replay_ms(SchedulerKind::Wheel);
    let eps = |ms: f64| stats.processed as f64 / (ms / 1e3);

    TopoResult {
        name: name.to_string(),
        gateways,
        events: stats.processed,
        lockstep_ties,
        overflow_inserts: stats.wheel.overflow_inserts,
        digests: topo::dumps(&net),
        sim_ms,
        replay_ms: [heap_replay, wheel_replay],
        replay_eps: [eps(heap_replay), eps(wheel_replay)],
        speedup: heap_replay / wheel_replay,
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
            "E13 — Scheduler scale benchmark: cold-start DV convergence storm \
             plus concurrent bulk TCP flows, {VIRTUAL} of virtual time per \
             topology on the timer wheel; its scheduler op trace replayed \
             through the heap reference and the wheel (lockstep = side by \
             side, every pop compared; replay = one backend alone, timed)"
        ),
        &[
            "topology",
            "gateways",
            "events",
            "lockstep equal",
            "same-instant ties",
            "sim (ms)",
            "replay heap (ms)",
            "replay wheel (ms)",
            "substrate speedup",
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
            format!("{:.1}", r.sim_ms),
            format!("{:.2}", r.replay_ms[0]),
            format!("{:.2}", r.replay_ms[1]),
            format!("{:.2}x", r.speedup),
        ]);
    }
    table.note(
        "Expected shape: lockstep equal everywhere (the wheel pops exactly \
         what the heap reference pops, FIFO ties included); substrate speedup \
         grows with topology size and clears 2x at the 400-gateway ring. \
         Wall-clock columns vary run to run; event and tie counts are \
         seed-deterministic.",
    );
    table
}

/// Serialize results as `BENCH_e13.json`. With `timings: false` (CI
/// `--check` mode) all wall-clock fields are omitted, leaving only
/// seed-deterministic numbers — run twice and diff.
pub fn to_json(results: &[TopoResult], timings: bool) -> String {
    let mut out = String::from("{\n  \"experiment\": \"e13\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n  \"virtual_secs\": {},\n  \"topologies\": [\n",
        if timings { "full" } else { "check" },
        VIRTUAL.total_micros() / 1_000_000
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
            "      \"digest_metrics\": {},\n      \"digest_series\": {},\n      \"digest_flight\": {}",
            r.digests[0], r.digests[1], r.digests[2]
        ));
        if timings {
            out.push_str(&format!(
                ",\n      \"heap\": {{\"replay_ms\": {:.3}, \"replay_events_per_sec\": {:.0}}},\n",
                r.replay_ms[0], r.replay_eps[0]
            ));
            out.push_str(&format!(
                "      \"wheel\": {{\"sim_ms\": {:.3}, \"replay_ms\": {:.3}, \"replay_events_per_sec\": {:.0}}},\n",
                r.sim_ms, r.replay_ms[1], r.replay_eps[1]
            ));
            out.push_str(&format!("      \"replay_speedup\": {:.3}\n", r.speedup));
        } else {
            out.push('\n');
        }
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
        // the in-window fast path).
        let r = measure("ring-4", 11, |net| topo::build_ring(net, 4));
        assert_eq!(r.gateways, 4);
        assert!(r.events > 1_000, "convergence storm happened: {}", r.events);
        assert!(r.lockstep_ties > 0, "some pops share an instant");
        assert!(r.overflow_inserts > 0, "3 s DV timers cross windows");
        assert!(r.speedup.is_finite() && r.speedup > 0.0);
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
        assert!(ja.contains("\"lockstep_equal\": true"));
    }

    #[test]
    fn mesh_builds_and_replays_equal() {
        let r = measure("mesh-3x3", 23, |net| topo::build_mesh(net, 3));
        assert_eq!(r.gateways, 9);
        assert!(r.events > 1_000);
    }
}
