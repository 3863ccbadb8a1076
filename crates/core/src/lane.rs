//! Shard lanes: the per-partition execution engine behind the network's
//! event loop.
//!
//! The network partitions its nodes into K contiguous *lanes* (one lane
//! covering everything in the `ShardKind::Single` reference arm). Each
//! lane owns its own scheduler, the outgoing direction of every link
//! whose sender lives in it, and a per-direction RNG — everything a
//! window of virtual time needs, with no access to telemetry or any
//! other lane. The coordinator (`Network::run_until`) decides window
//! bounds, runs each lane over the window (serially, or on scoped
//! threads in `ShardKind::Parallel`), and absorbs two kinds of output
//! at the barrier:
//!
//! - **cross-lane frames** ([`CrossFrame`]): buffered during the
//!   window, scheduled into the destination lane at the barrier. The
//!   conservative per-pair lookahead (lane i's window ends strictly
//!   before anything any peer does next could reach it — see
//!   `Network::run_until` and DESIGN.md "The lane protocol") plus the
//!   ≥ 1 µs serialization floor guarantee every crossing frame lands
//!   after the sender's own limit, so absorbing it never rewinds a
//!   lane.
//! - **harvest entries** ([`HarvestEntry`]): telemetry-relevant state
//!   changes *detected* lane-side but *applied* coordinator-side, in
//!   `(instant, token)` order. The token is the smallest delivery key
//!   that touched the node at that instant, which is exactly the order
//!   the single-lane arm services nodes — so recorder rows, counters
//!   and convergence-tracer calls land in the same order for every K,
//!   and the dumps cannot tell how many lanes produced them. Because
//!   per-pair limits are heterogeneous, the coordinator banks these
//!   and applies only up to the round's global safe horizon
//!   (`min` of all lane limits).
//!
//! Determinism across K rests on the delivery *key*: every scheduled
//! event carries `(origin node) << 32 | per-origin sequence`, and a
//! same-instant batch is sorted by key before delivery in every mode.
//! FIFO-per-sender is preserved (one origin's keys ascend), and the
//! cross-origin order becomes a pure function of the topology and seed
//! instead of an artifact of queue-insertion interleaving — which is
//! what makes it shard-count-independent.

use crate::app::Application;
use crate::byzantine::ByzantineState;
use crate::node::Node;
use crate::pool::{PacketBuf, PacketPool};
use catenet_sim::{Duration, Instant, Link, LinkOutcome, Rng, Scheduler};
use catenet_wire::Ipv4Address;
use std::collections::BTreeMap;

use crate::network::{FrameTap, LinkId, NodeId};

/// Cumulative route-guard verdict counters harvested per neighbor:
/// (accepted, sanitized, damped, quarantined, attest-rejected).
pub(crate) type GuardCounters = (u64, u64, u64, u64, u64);

/// Cumulative accounting counters harvested per node: (flow evictions,
/// idle expiries, fragments attributed via port cache, fragments left
/// unattributed).
pub(crate) type AcctCounters = (u64, u64, u64, u64);

/// What the last harvest of a node saw: the floors `harvest_node`
/// detects movement against.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct HarvestMarks {
    /// DV table version.
    pub dv_version: u64,
    /// Cumulative RTO firings over the node's sockets.
    pub rto_total: u64,
    /// (arp gave-up drops, reassembled, reassembly timeouts, reassembly
    /// evictions).
    pub counts: (u64, u64, u64, u64),
    /// Flow-table counters.
    pub acct: AcctCounters,
    /// Route-guard verdict totals per neighbor.
    pub guard: BTreeMap<Ipv4Address, GuardCounters>,
}

/// One endpoint of a duplex link.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LinkEnd {
    pub node: NodeId,
    pub iface: usize,
}

/// Where a frame offered on one (node, interface) goes, resolved when
/// the link is connected and again when the lanes split, so `transmit`
/// pays one dense lookup per frame.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Endpoint {
    /// Index of the outgoing directed link among the sender's lane's.
    pub link_idx: u32,
    /// The lane the receiver lives in.
    pub dest_lane: u32,
    /// The receiver.
    pub dest: LinkEnd,
}

/// Coordinator-side description of a duplex link: who is on each end.
/// The two directed [`Link`]s themselves live in the lanes that own
/// their senders (see [`LaneLink`] and `Network::link_home`).
pub(crate) struct LinkMeta {
    pub a: LinkEnd,
    pub b: LinkEnd,
}

/// A scheduled occurrence.
pub(crate) enum Event {
    /// A frame arriving at a node's interface.
    Frame {
        to: NodeId,
        iface: usize,
        frame: PacketBuf,
    },
    /// A timer wake for a node.
    Wake { node: NodeId },
}

/// A scheduler entry: the event plus its delivery key. The key gives
/// same-instant batches a total order that is independent of shard
/// count and of scheduler-insertion interleaving: `(origin node) << 32
/// | per-origin sequence`. The origin of a frame is its sender; the
/// origin of a wake is the node itself.
pub(crate) struct Keyed {
    pub key: u64,
    pub event: Event,
}

// The diffsched replay harness schedules dummy payloads of exactly
// this size so E13's backend comparison moves the same bytes per queue
// op as the real loop. A silent size change would quietly skew that
// workload — fail the build instead.
const _: () = assert!(
    std::mem::size_of::<Keyed>() == catenet_sim::diffsched::REPLAY_PAYLOAD_BYTES,
    "Keyed scheduler entry size drifted from diffsched::REPLAY_PAYLOAD_BYTES"
);
const _: () = assert!(
    std::mem::size_of::<Event>() == catenet_sim::diffsched::REPLAY_PAYLOAD_BYTES - 8,
    "Event enum size drifted (the 8-byte key must account for the rest)"
);

/// One directed link plus the RNG that rolls its loss, corruption and
/// jitter. Keying the RNG to the link direction (not a network-global
/// stream) is what makes realizations shard-count-independent: a
/// frame's fate depends only on the link it crossed and how many
/// frames crossed before it.
pub(crate) struct LaneLink {
    pub link: Link,
    pub rng: Rng,
}

impl LaneLink {
    /// The deterministic per-direction RNG stream. Independent of
    /// shard count: a function of the network seed and the directed
    /// link's identity only.
    pub fn seeded(seed: u64, link: LinkId, ab: bool) -> Rng {
        let dir = ((link as u64) << 1) | (ab as u64);
        Rng::from_seed(seed ^ 0xC4A0_11D1_4EC7_10E5u64 ^ dir.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// A frame that crossed a lane boundary during a window, buffered for
/// barrier exchange.
pub(crate) struct CrossFrame {
    pub at: Instant,
    pub key: u64,
    pub to: NodeId,
    pub iface: usize,
    pub frame: PacketBuf,
}

/// One telemetry-relevant change detected during a lane window,
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

/// All harvest ops for one node at one instant. `token` is the
/// smallest delivery key that touched the node at `at` (0 for a
/// coordinator kick, which is absorbed immediately and never merges
/// with window entries); sorting entries by `(at, token)` reproduces
/// the single-lane service order exactly.
pub(crate) struct HarvestEntry {
    pub at: Instant,
    pub token: u64,
    pub node: NodeId,
    pub ops: Vec<HarvestOp>,
}

/// One shard lane: a contiguous node range plus everything its windows
/// own outright.
pub(crate) struct Lane {
    /// First node id covered (inclusive).
    pub lo: NodeId,
    /// One past the last node id covered.
    pub hi: NodeId,
    /// The lane's scheduler. Lane 0 doubles as the boot scheduler
    /// before a K>1 network splits.
    pub sched: Scheduler<Keyed>,
    /// Directed links whose sender lives in this lane.
    pub links: Vec<LaneLink>,
    /// Frames bound for other lanes, buffered until the barrier.
    pub cross: Vec<CrossFrame>,
    /// Telemetry changes detected this window, absorbed at the barrier.
    pub harvests: Vec<HarvestEntry>,
    /// Frames offered to links since the last barrier absorb.
    pub frames_offered: u64,
    /// Unconnected-interface drops since the last barrier absorb.
    pub unconnected_drops: u64,
    /// The pool this lane's nodes allocate from (the network-shared
    /// pool, or a lane-private one in `ShardKind::Parallel`).
    pub pool: PacketPool,
    /// Whether cross-lane frames must be severed from this lane's pool
    /// (true only in `ShardKind::Parallel`, where pools are per-lane
    /// and not thread-safe).
    pub detach_cross: bool,
    /// Scratch: the same-instant batch being delivered.
    batch: Vec<Keyed>,
    /// Scratch: nodes touched at the current instant, with the first
    /// (= smallest) key that touched each.
    touched: Vec<(NodeId, u64)>,
    /// Scratch: outbox swap target, so drains allocate nothing in
    /// steady state.
    outbox: Vec<(usize, PacketBuf)>,
}

impl Lane {
    pub fn new(lo: NodeId, hi: NodeId, sched: Scheduler<Keyed>, pool: PacketPool) -> Lane {
        Lane {
            lo,
            hi,
            sched,
            links: Vec::new(),
            cross: Vec::new(),
            harvests: Vec::new(),
            frames_offered: 0,
            unconnected_drops: 0,
            pool,
            detach_cross: false,
            batch: Vec::new(),
            touched: Vec::new(),
            outbox: Vec::new(),
        }
    }
}

/// A lane plus mutable views of the network state its windows may
/// touch: the lane's node range (as disjoint slices) and shared
/// read-only topology. This is everything `run_window` needs — and,
/// deliberately, nothing else: no telemetry, no accounting collector,
/// no other lane. In `ShardKind::Parallel` one of these per lane is
/// handed to a scoped thread.
pub(crate) struct LaneView<'a> {
    pub lane: &'a mut Lane,
    pub lane_index: usize,
    pub lo: NodeId,
    pub nodes: &'a mut [Node],
    pub apps: &'a mut [Vec<Box<dyn Application>>],
    pub next_wake: &'a mut [Option<Instant>],
    pub event_seq: &'a mut [u64],
    pub service_count: &'a mut [u64],
    pub byz: &'a mut [Option<ByzantineState>],
    pub harvested: &'a mut [HarvestMarks],
    /// Per node (every node, not just this lane's), per interface: the
    /// link behind it. `None` (or a short row) = nothing connected.
    pub endpoints: &'a [Vec<Option<Endpoint>>],
    /// The frame tap, present only when a single lane runs (it is a
    /// coordinator-owned `FnMut`; multi-lane runs that install one are
    /// demoted to serial execution and still see every frame, but the
    /// per-lane window order of tap callbacks is not part of the
    /// determinism contract — dumps are).
    pub tap: Option<&'a mut FrameTap>,
}

impl LaneView<'_> {
    fn node(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id - self.lo]
    }

    /// Mint the next delivery key originating at `id`.
    fn next_key(&mut self, id: NodeId) -> u64 {
        let seq = &mut self.event_seq[id - self.lo];
        let key = ((id as u64) << 32) | *seq;
        *seq += 1;
        key
    }

    /// Run this lane up to and including `limit`: drain each event
    /// instant as one key-sorted batch, then service every touched
    /// node once, in first-touch (= ascending-key) order.
    pub fn run_window(&mut self, limit: Instant) {
        while let Some(at) = self.lane.sched.peek_time() {
            if at > limit {
                break;
            }
            let mut batch = core::mem::take(&mut self.lane.batch);
            batch.push(self.lane.sched.pop().expect("peeked").1);
            while let Some(keyed) = self.lane.sched.pop_due(at) {
                batch.push(keyed);
            }
            batch.sort_unstable_by_key(|keyed| keyed.key);
            let mut touched = core::mem::take(&mut self.lane.touched);
            touched.clear();
            for keyed in batch.drain(..) {
                let (node, key) = match keyed.event {
                    Event::Frame { to, iface, frame } => {
                        self.node(to).handle_frame(at, iface, frame);
                        (to, keyed.key)
                    }
                    Event::Wake { node } => {
                        if self.next_wake[node - self.lo] == Some(at) {
                            self.next_wake[node - self.lo] = None;
                        }
                        // A wake is the clock touching the node: whatever
                        // it was armed for is due, and a wake earlier than
                        // the node's current want has to re-arm the later
                        // one, which only a full pass does.
                        self.node(node).set_idle_gate(None);
                        (node, keyed.key)
                    }
                };
                if !touched.iter().any(|&(n, _)| n == node) {
                    touched.push((node, key));
                }
            }
            self.lane.batch = batch;
            for &(node, token) in &touched {
                self.service_node(node, at, token);
            }
            self.lane.touched = touched;
        }
    }

    /// One service pass: applications, protocol machinery, harvest
    /// detection, outbox drain, timer re-arm. `token` orders the
    /// resulting harvest entry among same-instant entries.
    ///
    /// A pass costs what is due. When the last full pass left the node
    /// with nothing but timers, none of them is due yet, the wake they
    /// asked for is still pending and only forwards have touched the
    /// node since (its idle gate is still armed), everything but the
    /// outbox drain is a no-op and is skipped — exactly, not
    /// approximately: see DESIGN.md, "What a service pass costs".
    pub fn service_node(&mut self, id: NodeId, now: Instant, token: u64) {
        let li = id - self.lo;
        self.service_count[li] += 1;
        let pending = self.next_wake[li];
        let skip = self.nodes[li].idle_gate().is_some_and(|gate| {
            now < gate.until
                && gate
                    .wake
                    .is_none_or(|want| pending.is_some_and(|at| at <= want))
        });
        if skip {
            #[cfg(debug_assertions)]
            self.assert_skippable(id, now, token);
        } else {
            // Applications first: they may write into sockets.
            let mut apps = core::mem::take(&mut self.apps[li]);
            for app in &mut apps {
                app.poll(&mut self.nodes[li], now);
            }
            self.apps[li] = apps;
            // Protocol machinery: timers, routing, socket dispatch.
            self.nodes[li].service(now);
            self.harvest_node(id, now, token);
        }
        // Push produced frames onto links. Swap semantics keep the
        // steady state allocation-free.
        let mut outbox = core::mem::take(&mut self.lane.outbox);
        self.nodes[li].swap_outbox(&mut outbox);
        for (iface, frame) in outbox.drain(..) {
            self.transmit(id, iface, frame, now);
        }
        self.lane.outbox = outbox;
        // Still armed after the drain (a queue-overflow quench can miss
        // in ARP and start a retry timer): the wake the node wants is the
        // one already pending.
        if skip && self.nodes[li].idle_gate().is_some() {
            return;
        }
        // Timer wake scheduling, and the gate for the passes to come.
        let timers = self.nodes[li].timers(now);
        let gate = timers.gate.filter(|_| self.apps[li].is_empty());
        self.nodes[li].set_idle_gate(gate);
        let mut want = timers.wake;
        for app in &self.apps[li] {
            if let Some(at) = app.next_wake() {
                let at = at.max(now);
                want = Some(match want {
                    Some(current) => current.min(at),
                    None => at,
                });
            }
        }
        if let Some(at) = want {
            let at = if at <= now {
                // "Immediately": schedule a hair later to let the event
                // loop breathe (prevents zero-delay spin).
                now + Duration::from_micros(1)
            } else {
                at
            };
            if self.next_wake[li].is_none_or(|pending| at < pending) {
                self.next_wake[li] = Some(at);
                let key = self.next_key(id);
                self.lane.sched.schedule_at(
                    at,
                    Keyed {
                        key,
                        event: Event::Wake { node: id },
                    },
                );
            }
        }
    }

    /// Debug builds check every skipped pass: the node is idle when
    /// recomputed from scratch, and a harvest finds nothing — no entry,
    /// no floor moved.
    #[cfg(debug_assertions)]
    fn assert_skippable(&mut self, id: NodeId, now: Instant, token: u64) {
        let li = id - self.lo;
        assert!(
            self.apps[li].is_empty(),
            "skipped a pass on a node with applications"
        );
        self.nodes[li].assert_idle(now);
        let marks = self.harvested[li].clone();
        let entries = self.lane.harvests.len();
        self.harvest_node(id, now, token);
        assert!(
            self.harvested[li] == marks && self.lane.harvests.len() == entries,
            "skipped a pass on node {id} at {now} with something to harvest"
        );
    }

    /// Offer a frame to the link behind (`from`, `iface`). Same-lane
    /// deliveries go straight into the lane scheduler; cross-lane
    /// deliveries are buffered for the barrier.
    pub fn transmit(&mut self, from: NodeId, iface: usize, mut frame: PacketBuf, now: Instant) {
        let Some(&Some(end)) = self.endpoints[from].get(iface) else {
            self.lane.unconnected_drops += 1;
            return;
        };
        // A compromised node lies on the wire, not in its own state:
        // the rewrite happens here so the tap (and the receiver) see
        // exactly what a byzantine gateway would have emitted.
        if let Some(state) = self.byz[from - self.lo].as_mut() {
            let framing = self.nodes[from - self.lo].ifaces[iface].framing;
            if let Some(corrupted) = state.corrupt_frame(iface, framing, &frame) {
                frame = self.lane.pool.adopt(PacketBuf::from_vec(corrupted));
            }
        }
        if let Some(tap) = self.tap.as_mut() {
            tap(now, &frame);
        }
        self.lane.frames_offered += 1;
        let dest = end.dest;
        let lane_link = &mut self.lane.links[end.link_idx as usize];
        match lane_link.link.transmit(now, &mut frame, &mut lane_link.rng) {
            LinkOutcome::Delivered { at, .. } => {
                let key = self.next_key(from);
                if end.dest_lane as usize == self.lane_index {
                    self.lane.sched.schedule_at(
                        at,
                        Keyed {
                            key,
                            event: Event::Frame {
                                to: dest.node,
                                iface: dest.iface,
                                frame,
                            },
                        },
                    );
                } else {
                    if self.lane.detach_cross {
                        frame.detach();
                    }
                    self.lane.cross.push(CrossFrame {
                        at,
                        key,
                        to: dest.node,
                        iface: dest.iface,
                        frame,
                    });
                }
            }
            LinkOutcome::Dropped(reason) => {
                // Datagram service: the DESTINATION is never told. But
                // the offering node knows its own queue overflowed —
                // 1988 gateways answered that with ICMP source quench.
                if reason == catenet_sim::DropReason::QueueFull {
                    self.node(from).on_queue_drop(now, iface, &frame);
                    let outbox = self.node(from).take_outbox();
                    for (out_iface, out_frame) in outbox {
                        // One level of recursion at most: quenches are
                        // ICMP errors, and errors about errors are
                        // suppressed by `icmp_error_for`.
                        self.transmit(from, out_iface, out_frame, now);
                    }
                }
            }
        }
    }

    /// Post-service observation for one node: detect routing-table
    /// changes, RTO firings, counter movement and guard verdicts, and
    /// record them as harvest ops for the coordinator to apply at the
    /// barrier. Detection here mirrors, field for field and in the
    /// same order, what the pre-shard loop wrote directly into
    /// telemetry — the coordinator replays the ops verbatim.
    fn harvest_node(&mut self, id: NodeId, now: Instant, token: u64) {
        let li = id - self.lo;
        let mut ops: Vec<HarvestOp> = Vec::new();
        let node = &self.nodes[li];
        if let Some(dv) = &node.dv {
            let version = dv.version();
            if version != self.harvested[li].dv_version {
                self.harvested[li].dv_version = version;
                ops.push(HarvestOp::RouteChanged { version });
            }
        }
        let rto: u64 = node.tcp_sockets.iter().map(|s| s.stats.timeouts).sum();
        let last_rto = self.harvested[li].rto_total;
        if rto != last_rto {
            self.harvested[li].rto_total = rto;
            // A drop means the sockets died with the node
            // (fate-sharing); only a rise is a firing.
            if rto > last_rto {
                ops.push(HarvestOp::RtoFired {
                    total: rto,
                    delta: rto - last_rto,
                });
            }
        }
        let cur = (
            node.stats.dropped_arp_gave_up,
            node.reassembler().completed,
            node.reassembler().timed_out,
            node.reassembler().evicted,
        );
        let last = self.harvested[li].counts;
        if cur != last {
            self.harvested[li].counts = cur;
            for (name, value, floor) in [
                ("arp_gave_up_drops", cur.0, last.0),
                ("reassembled_datagrams", cur.1, last.1),
                ("reassembly_timeouts", cur.2, last.2),
                ("reassembly_evictions", cur.3, last.3),
            ] {
                // `value < floor` only after a crash reset the source;
                // nothing new happened, the baseline just moved.
                if value > floor {
                    ops.push(HarvestOp::Count {
                        name,
                        delta: value - floor,
                    });
                }
            }
        }
        // Accounting harvest: flow-table counters, delta-counted so
        // accounting-off runs keep byte-identical dumps.
        let cur = match &node.flows {
            Some(flows) => (
                flows.evicted,
                flows.expired,
                flows.frag_attributed,
                flows.frag_unattributed,
            ),
            None => (0, 0, 0, 0),
        };
        let last = self.harvested[li].acct;
        if cur != last {
            self.harvested[li].acct = cur;
            for (name, value, floor) in [
                ("flow_evictions", cur.0, last.0),
                ("flow_idle_expired", cur.1, last.1),
                ("frag_attributed", cur.2, last.2),
                ("frag_unattributed", cur.3, last.3),
            ] {
                if value > floor {
                    ops.push(HarvestOp::Count {
                        name,
                        delta: value - floor,
                    });
                }
            }
        }
        // Route-guard harvest: verdict deltas per neighbor, incidents
        // for the flight recorder. With the guard off neither accrues.
        let mut verdict_rows: Vec<(Ipv4Address, GuardCounters)> = Vec::new();
        let mut incidents = Vec::new();
        if let Some(dv) = &mut self.nodes[li].dv {
            if dv.guard().enabled() {
                verdict_rows = dv
                    .guard()
                    .verdicts()
                    .map(|(addr, v)| {
                        (
                            addr,
                            (
                                v.accepted,
                                v.sanitized,
                                v.damped,
                                v.quarantined,
                                v.attest_rejected,
                            ),
                        )
                    })
                    .collect();
            }
            incidents = dv.guard_mut().drain_incidents();
        }
        for (addr, cur) in verdict_rows {
            let last = self.harvested[li]
                .guard
                .get(&addr)
                .copied()
                .unwrap_or((0, 0, 0, 0, 0));
            if cur == last {
                continue;
            }
            self.harvested[li].guard.insert(addr, cur);
            // `guard_attest_rejected` only accrues when attestation is
            // verified, so attestation-off runs emit no new counter.
            for (name, value, floor) in [
                ("guard_accepted", cur.0, last.0),
                ("guard_sanitized", cur.1, last.1),
                ("guard_damped", cur.2, last.2),
                ("guard_quarantined", cur.3, last.3),
                ("guard_attest_rejected", cur.4, last.4),
            ] {
                if value > floor {
                    ops.push(HarvestOp::NeighborCount {
                        name,
                        addr,
                        delta: value - floor,
                    });
                }
            }
        }
        for incident in incidents {
            ops.push(HarvestOp::Incident {
                detail: incident.to_string(),
            });
        }
        if !ops.is_empty() {
            self.lane.harvests.push(HarvestEntry {
                at: now,
                token,
                node: id,
                ops,
            });
        }
    }
}
