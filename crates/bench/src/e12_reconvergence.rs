//! E12 — Measured per-heal reconvergence (paper §3, the recovery half
//! of survivability).
//!
//! **Claim.** Surviving a failure is only half the promise; the other
//! half is *recovering* from it in bounded time. After a cut link comes
//! back, a partition heals, or a crashed gateway reboots, the routing
//! system must return to quiescence quickly — survivability is hollow
//! if recovery takes unboundedly long (the "mask transient failures"
//! language of §3 implies a bound on the transient).
//!
//! **Experiment.** Gateway rings of increasing size run one
//! disruption-then-heal cycle per fault type — link cut, partition,
//! gateway crash — and the telemetry subsystem's convergence tracer
//! pairs each heal with the instant every gateway's routing table went
//! quiescent (no version change for a full quiescence gap). Every heal
//! is checked against a [`ReconvergenceBound`]; a censored measurement
//! (the run ended before routing provably settled) also counts as a
//! violation, so slow convergence cannot hide behind a short window.
//!
//! The bound is derived from the DV configuration in use
//! ([`catenet_routing::DvConfig::fast`]): triggered updates propagate a
//! heal in a few 3 s periodic rounds, but routes killed by the
//! disruption can keep timing out (18 s) and being garbage-collected
//! (12 s) well into the post-heal window. 30 s covers the worst case
//! with margin; exceeding it means recovery regressed.

use crate::table::Table;
use catenet_core::{Network, ReconvergenceBound};
use catenet_sim::{Duration, FaultAction, FaultPlan, LinkClass, ShardKind, TraceOp};
use catenet_telemetry::Reconvergence;

/// The reconvergence bound every heal is checked against.
pub const BOUND: Duration = Duration::from_secs(30);

/// The fault types whose heals are measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// One ring link is cut, then brought back up.
    LinkCut,
    /// The first gateway (and its host) is partitioned off, then healed.
    Partition,
    /// A gateway crashes, then reboots (the reboot is the heal: the
    /// rebuilt node must be re-integrated into everyone's tables).
    Crash,
}

impl FaultKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::LinkCut => "link-cut",
            FaultKind::Partition => "partition",
            FaultKind::Crash => "crash",
        }
    }

    /// All fault types, in reporting order.
    pub fn all() -> [FaultKind; 3] {
        [FaultKind::LinkCut, FaultKind::Partition, FaultKind::Crash]
    }
}

/// The gateway-ring sizes measured.
pub const RING_SIZES: [usize; 3] = [3, 5, 7];

/// Run one disruption-then-heal cycle on a `gateways`-node ring and
/// return the tracer's per-heal measurements.
pub fn run(gateways: usize, fault: FaultKind, seed: u64) -> Vec<Reconvergence> {
    run_with(gateways, fault, seed).0
}

/// [`run`], additionally returning the scheduler's op trace from event
/// zero — what the scheduler differential harness replays through the
/// heap reference and the wheel side by side.
pub fn run_with(
    gateways: usize,
    fault: FaultKind,
    seed: u64,
) -> (Vec<Reconvergence>, Vec<TraceOp>) {
    let (recs, _, trace) = run_config(gateways, fault, seed, ShardKind::Single);
    (recs, trace)
}

/// [`run`] on an explicit shard mode, additionally returning the full
/// telemetry dumps (metrics, series, flight) — the shard-equivalence
/// harness compares the measurements and dumps across K ∈ {1, 2, 4, 8}.
pub fn run_with_shards(
    gateways: usize,
    fault: FaultKind,
    seed: u64,
    shard: ShardKind,
) -> (Vec<Reconvergence>, [String; 3]) {
    let (recs, dumps, _) = run_config(gateways, fault, seed, shard);
    (recs, dumps)
}

/// The trace is armed before the first topology call (it has to start
/// at event zero) and comes back empty from a network that split: a
/// lane split retires the boot scheduler that was recording.
fn run_config(
    gateways: usize,
    fault: FaultKind,
    seed: u64,
    shard: ShardKind,
) -> (Vec<Reconvergence>, [String; 3], Vec<TraceOp>) {
    assert!(gateways >= 3, "a ring needs a backup path");
    let mut net = Network::with_shards(seed, shard);
    net.set_sched_trace(true);
    let h1 = net.add_host("h1");
    let gs: Vec<usize> = (0..gateways)
        .map(|i| net.add_gateway(format!("g{i}")))
        .collect();
    net.connect(h1, gs[0], LinkClass::EthernetLan);
    let mut ring_links = Vec::new();
    for i in 0..gateways {
        let next = (i + 1) % gateways;
        ring_links.push(net.connect(gs[i], gs[next], LinkClass::T1Terrestrial));
    }
    let h2 = net.add_host("h2");
    net.connect(gs[gateways / 2], h2, LinkClass::EthernetLan);
    net.converge_routing(Duration::from_secs(120));

    let start = net.now();
    let at = start + Duration::from_secs(5);
    let heal_after = Duration::from_secs(20);
    let mut plan = FaultPlan::new();
    match fault {
        FaultKind::LinkCut => {
            plan.push(at, FaultAction::LinkSet { link: ring_links[0], up: false });
            plan.push(at + heal_after, FaultAction::LinkSet { link: ring_links[0], up: true });
        }
        FaultKind::Partition => {
            plan.partition(vec![h1, gs[0]], at, heal_after);
        }
        FaultKind::Crash => {
            plan.push(at, FaultAction::NodeCrash { node: gs[1] });
            plan.push(at + heal_after, FaultAction::NodeRestart { node: gs[1] });
        }
    }
    net.attach_fault_plan(plan);
    // Post-heal window: bound + quiescence gap + slack, so a
    // bound-respecting heal always has room to *prove* it settled.
    net.run_for(Duration::from_secs(5) + heal_after + BOUND + Duration::from_secs(15));
    let recs = net.telemetry().convergence.reconvergences(net.now());
    let dumps = [net.metrics_dump(), net.series_dump(), net.flight_dump()];
    (recs, dumps, net.take_sched_trace())
}

/// Check one run's measurements against the bound. Every heal must be
/// both settled (quiescence proven inside the window) and within the
/// bound; anything else is a violation.
pub fn violations(recs: &[Reconvergence]) -> usize {
    let bound = ReconvergenceBound::new(BOUND);
    recs.iter()
        .filter(|r| !r.settled || bound.check(r.took).is_some())
        .count()
}

/// Run the full matrix over the seed set and render the table.
pub fn default_table(seeds: &[u64]) -> Table {
    let mut table = Table::new(
        format!(
            "E12 — Per-heal reconvergence: one disruption+heal cycle per fault type \
             on gateway rings, every heal checked against the {BOUND} bound \
             (settled = quiescence proven inside the run window)"
        ),
        &[
            "gateways",
            "fault",
            "heals",
            "settled",
            "median reconvergence (s)",
            "max (s)",
            "violations",
        ],
    );
    for &size in &RING_SIZES {
        for fault in FaultKind::all() {
            let mut all: Vec<Reconvergence> = Vec::new();
            let mut viol = 0;
            for &seed in seeds {
                let recs = run(size, fault, seed);
                viol += violations(&recs);
                all.extend(recs);
            }
            let mut tooks: Vec<u64> = all.iter().map(|r| r.took.total_micros()).collect();
            tooks.sort_unstable();
            let median = tooks
                .get(tooks.len() / 2)
                .map(|&us| format!("{:.1}", us as f64 / 1e6))
                .unwrap_or_else(|| "—".into());
            let max = tooks
                .last()
                .map(|&us| format!("{:.1}", us as f64 / 1e6))
                .unwrap_or_else(|| "—".into());
            let settled = all.iter().filter(|r| r.settled).count();
            table.row(vec![
                format!("{size}"),
                fault.name().into(),
                format!("{}", all.len()),
                format!("{settled}/{}", all.len()),
                median,
                max,
                format!("{viol}"),
            ]);
        }
    }
    table.note(
        "Expected shape: one measured heal per run (heals = seed count), every heal \
         settled, zero violations. Reconvergence grows with ring size — more \
         gateways, more tables to settle — but stays far inside the bound.",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_heal_is_measured_settled_and_bounded() {
        for &size in &RING_SIZES {
            for fault in FaultKind::all() {
                let recs = run(size, fault, 11);
                assert_eq!(recs.len(), 1, "{size}-ring {fault:?}: one heal, one row");
                assert!(
                    recs[0].settled,
                    "{size}-ring {fault:?}: quiescence proven ({recs:?})"
                );
                assert_eq!(
                    violations(&recs),
                    0,
                    "{size}-ring {fault:?}: within {BOUND} ({recs:?})"
                );
            }
        }
    }

    #[test]
    fn measurements_replay_bit_for_bit() {
        let a = run(5, FaultKind::Partition, 23);
        let b = run(5, FaultKind::Partition, 23);
        assert_eq!(a, b);
    }

    #[test]
    fn censored_or_slow_heals_count_as_violations() {
        use catenet_sim::Instant;
        let fast = Reconvergence {
            healed_at: Instant::from_secs(10),
            settled_at: Instant::from_secs(12),
            took: Duration::from_secs(2),
            settled: true,
        };
        let censored = Reconvergence { settled: false, ..fast };
        let slow = Reconvergence {
            took: BOUND + Duration::from_secs(1),
            ..fast
        };
        assert_eq!(violations(&[fast]), 0);
        assert_eq!(violations(&[censored]), 1);
        assert_eq!(violations(&[slow]), 1);
        assert_eq!(violations(&[fast, censored, slow]), 2);
    }
}
