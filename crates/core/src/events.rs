//! What a node reports about itself: its own code bumps an
//! [`EventRecord`] where each reported thing happens, the lane takes
//! the record after every full service pass that left something in it
//! (`Node::take_events`) and banks it, and at the barrier
//! [`EventRecord::apply`] writes it into telemetry — the one place that
//! says what a node's report is called and where it lands. Nothing is
//! diffed against an earlier reading, so a crash, which resets the
//! counters a node's parts keep, leaves no floor to fall below.
//! Untaken, as on the real substrate, the record stays bounded: fixed
//! counters, a verdict row per neighbour heard and at most
//! [`INCIDENT_LIMIT`] incidents.

use crate::network::NodeId;
use catenet_routing::{GuardIncident, NeighborVerdicts, RouteGuard};
use catenet_sim::Instant;
use catenet_telemetry::{EventKind, Scope, Telemetry};
use catenet_wire::Ipv4Address;

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

/// Guard incidents a record keeps until it is taken; beyond this the
/// oldest is dropped.
pub(crate) const INCIDENT_LIMIT: usize = 256;

/// What a node did since its record was last taken.
#[derive(Debug, Default)]
pub(crate) struct EventRecord {
    /// A routing-table version the node has not reported before; filled
    /// in when the record is taken.
    pub route_version: Option<u64>,
    /// RTO firings over the node's sockets.
    pub rto_fired: u64,
    /// All RTO firings its sockets have counted, for the recorder row;
    /// filled in when the record is taken.
    pub rto_total: u64,
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

/// Advance the counter `name` at `scope`, interning it on first use.
pub(crate) fn count(telemetry: &mut Telemetry, name: &'static str, scope: Scope, delta: u64) {
    let id = telemetry.registry.counter(name, scope);
    telemetry.registry.add(id, delta);
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

    /// Whether there is nothing to report (a verdict row is only ever
    /// added with something in it).
    pub fn is_empty(&self) -> bool {
        self.route_version.is_none()
            && self.rto_fired == 0
            && self.arp_gave_up == 0
            && self.reassembly == [0; 3]
            && self.flows == [0; 4]
            && self.verdicts.is_empty()
            && self.incidents.is_empty()
    }

    /// Write what `node` reported at `at` into the flight recorder, the
    /// registry and the convergence tracer, in report order: route
    /// change, RTO firings, per-node counters, per-neighbour verdicts,
    /// incidents.
    pub fn apply(self, at: Instant, node: NodeId, telemetry: &mut Telemetry) {
        let scope = Scope::Node(node);
        if let Some(version) = self.route_version {
            let changed = EventKind::RouteChanged { node, version };
            telemetry.recorder.record(at, changed);
            telemetry.convergence.route_changed(at);
            count(telemetry, "route_changes", scope, 1);
        }
        if self.rto_fired > 0 {
            let total_timeouts = self.rto_total;
            let fired = EventKind::RtoFired { node, total_timeouts };
            telemetry.recorder.record(at, fired);
            count(telemetry, "tcp_rto_fired", scope, self.rto_fired);
        }
        let counts = [self.arp_gave_up].into_iter();
        let counts = counts.chain(self.reassembly).chain(self.flows);
        // Zeros are never reported: reporting interns a counter, and a run
        // that never did a thing keeps its name out of the dumps.
        for (name, n) in COUNT_NAMES.into_iter().zip(counts) {
            if n > 0 {
                count(telemetry, name, scope, n);
            }
        }
        for (addr, grown) in self.verdicts {
            let scope = Scope::Neighbor { node, addr: addr.0 };
            for (name, n) in VERDICT_NAMES.into_iter().zip(grown) {
                if n > 0 {
                    count(telemetry, name, scope, n);
                }
            }
        }
        for incident in self.incidents {
            let detail = incident.to_string();
            telemetry.recorder.record(at, EventKind::GuardAction { node, detail });
        }
    }
}
