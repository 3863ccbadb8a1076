//! What a node reports about itself: its own code bumps an
//! [`EventRecord`] where each reported thing happens, and the lane
//! drains it after every full service pass (`Node::drain_events`).
//! Nothing is diffed against an earlier reading, so a crash, which
//! resets the counters a node's parts keep, leaves no floor to fall
//! below. Undrained, as on the real substrate, the record stays bounded:
//! fixed counters, a verdict row per neighbour heard and at most
//! [`INCIDENT_LIMIT`] incidents.

use catenet_routing::{GuardIncident, NeighborVerdicts, RouteGuard};
use catenet_tcp::Socket;
use catenet_wire::Ipv4Address;

/// One telemetry-relevant thing a node reported during a lane window,
/// applied by the coordinator at the barrier.
pub(crate) enum HarvestOp {
    /// The node's routing table version moved.
    RouteChanged { version: u64 },
    /// TCP retransmission timers fired (`delta` new firings; `total`
    /// is the cumulative count for the recorder row).
    RtoFired { total: u64, delta: u64 },
    /// A per-node counter advanced by `delta`.
    Count { name: &'static str, delta: u64 },
    /// A per-(node, neighbor) guard counter advanced by `delta`.
    NeighborCount {
        name: &'static str,
        addr: Ipv4Address,
        delta: u64,
    },
    /// A guard incident for the flight recorder.
    Incident { detail: String },
}

/// Registry names of the per-node counters, in report order: ARP, then
/// [`EventRecord::reassembly`], then [`EventRecord::flows`].
const COUNT_NAMES: [&str; 8] = [
    "arp_gave_up_drops",
    "reassembled_datagrams",
    "reassembly_timeouts",
    "reassembly_evictions",
    "flow_evictions",
    "flow_idle_expired",
    "frag_attributed",
    "frag_unattributed",
];

/// Registry names of a neighbour's verdict counters, in report order.
const VERDICT_NAMES: [&str; 5] = [
    "guard_accepted",
    "guard_sanitized",
    "guard_damped",
    "guard_quarantined",
    "guard_attest_rejected",
];

/// Guard incidents a record keeps for a drain that has not come yet;
/// beyond this the oldest is dropped.
pub(crate) const INCIDENT_LIMIT: usize = 256;

/// What a node did since the record was last drained.
#[derive(Debug, Default)]
pub(crate) struct EventRecord {
    /// The routing-table version the last drain reported.
    reported_version: u64,
    /// RTO firings over the node's sockets.
    pub rto_fired: u64,
    /// Datagrams dropped by ARP resolutions that gave up.
    pub arp_gave_up: u64,
    /// Reassemblies completed, timed out, evicted.
    pub reassembly: [u64; 3],
    /// Flow-table evictions, idle expiries, fragments attributed and
    /// left unattributed.
    pub flows: [u64; 4],
    /// Guard verdicts per sending neighbour, in address order.
    pub verdicts: Vec<(Ipv4Address, [u64; 5])>,
    /// Guard incidents, oldest first.
    pub incidents: Vec<GuardIncident>,
}

/// Add to `tally` what grew between two readings of a part's cumulative
/// counters (a parole restarts a guard's totals for a neighbour: only
/// growth counts).
pub(crate) fn grew<const N: usize>(tally: &mut [u64; N], before: [u64; N], after: [u64; N]) {
    for ((total, was), is) in tally.iter_mut().zip(before).zip(after) {
        if is > was {
            *total += is - was;
        }
    }
}

fn counts(v: NeighborVerdicts) -> [u64; 5] {
    [
        v.accepted,
        v.sanitized,
        v.damped,
        v.quarantined,
        v.attest_rejected,
    ]
}

impl EventRecord {
    /// `guard` has judged a message from `neighbor`, whose verdict
    /// totals were `was`: keep the verdicts it added and its incidents,
    /// up to [`INCIDENT_LIMIT`].
    pub fn judged(&mut self, neighbor: Ipv4Address, was: NeighborVerdicts, guard: &mut RouteGuard) {
        let mut added = [0; 5];
        let is = guard.neighbor_verdicts(neighbor);
        grew(&mut added, counts(was), counts(is));
        let rows = &mut self.verdicts;
        if added != [0; 5] {
            match rows.binary_search_by_key(&neighbor, |&(addr, _)| addr) {
                Ok(row) => grew(&mut rows[row].1, [0; 5], added),
                Err(row) => rows.insert(row, (neighbor, added)),
            }
        }
        self.incidents.extend(guard.drain_incidents());
        let over = self.incidents.len().saturating_sub(INCIDENT_LIMIT);
        self.incidents.drain(..over);
    }

    /// Everything recorded since the last drain, as harvest ops in
    /// report order: route change, RTO firings with the `sockets`'
    /// total, per-node counters, per-neighbour verdicts, incidents. With
    /// nothing to report (nearly always) it writes nothing.
    pub fn drain(&mut self, version: Option<u64>, sockets: &[Socket]) -> Vec<HarvestOp> {
        let mut ops = Vec::new();
        if let Some(version) = version.filter(|&v| v != self.reported_version) {
            self.reported_version = version;
            ops.push(HarvestOp::RouteChanged { version });
        }
        if self.rto_fired > 0 {
            ops.push(HarvestOp::RtoFired {
                total: sockets.iter().map(|s| s.stats.timeouts).sum(),
                delta: core::mem::take(&mut self.rto_fired),
            });
        }
        let counts = [&mut self.arp_gave_up].into_iter();
        let counts = counts.chain(&mut self.reassembly).chain(&mut self.flows);
        // Zeros are never reported: reporting interns a counter, and a run
        // that never did a thing keeps its name out of the dumps.
        for (name, n) in COUNT_NAMES.into_iter().zip(counts) {
            if *n > 0 {
                let delta = core::mem::take(n);
                ops.push(HarvestOp::Count { name, delta });
            }
        }
        if self.verdicts.is_empty() && self.incidents.is_empty() {
            return ops;
        }
        for (addr, grown) in self.verdicts.drain(..) {
            for (name, delta) in VERDICT_NAMES.into_iter().zip(grown) {
                if delta > 0 {
                    ops.push(HarvestOp::NeighborCount { name, addr, delta });
                }
            }
        }
        let incidents = self.incidents.drain(..);
        ops.extend(incidents.map(|incident| HarvestOp::Incident {
            detail: incident.to_string(),
        }));
        ops
    }
}
