//! The internetwork: nodes wired together over simulated links, driven
//! by one deterministic event loop.
//!
//! The network owns the lanes (shard partitions, each owning its nodes,
//! its scheduler and its link directions — see `lane.rs`), and the
//! failure switches (node crash/reboot, link up/down) that the
//! survivability experiments script. It never looks inside a datagram:
//! everything above the link is the nodes' business — the same layering
//! discipline the architecture itself prescribes.
//!
//! The loop is one barrier protocol for every lane count K:
//! conservative-lookahead windows per lane, cross-lane frames and
//! telemetry harvests exchanged at barrier instants. Under
//! [`ShardKind::Single`] (the default) one lane covers every node, no
//! peer bounds it, and a window is a whole op-free span — the classic
//! serial event loop, as the K = 1 case of the same round. Under
//! `Sharded`/`Parallel` the node set splits into K contiguous lanes at
//! the first `run_until` (boundaries chosen by [`crate::partition`], so
//! cuts fall on the slowest links). Every dump is byte-identical across
//! K — `tests/shard_equivalence.rs` is the proof.
//!
//! [`Network::new`] and [`Network::with_shards`] are the whole
//! configuration surface: one scheduler (the timer wheel), one window
//! protocol (per-lane-pair lookahead), one boundary chooser, one buffer
//! path (pooled, headers prepended in place).

use crate::app::Application;
use crate::events::count;
use crate::iface::{Framing, Iface};
use crate::lane::{
    CrossFrame, Endpoint, Event, HarvestEntry, Lane, LaneLink, LaneWindow, Lanes, LinkEnd,
    LinkMeta, NodeSlot, Workers,
};
use crate::node::{Node, NodeRole};
use crate::partition::{self, CutLink};
use crate::pool::PacketPool;
use catenet_accounting::ledger::Ledger;
use catenet_accounting::report::{Reconciliation, ReportCollector};
use catenet_accounting::table::FlowTable;
use catenet_routing::{Attestor, GuardPolicy, MacKey, OriginId, OriginRegistry};
use catenet_sim::{
    Duration, FaultAction, FaultPlan, Instant, Link, LinkClass, LinkParams, SchedStats, Scheduler,
    ShardKind, ShardStats, TraceOp,
};
use catenet_telemetry::{EventKind, Sampler, Scope, Telemetry};
use catenet_wire::{EthernetAddress, Ipv4Address, Ipv4Cidr};
use std::sync::Arc;

/// Index of a node within the network.
pub type NodeId = usize;
/// A frame observer installed with [`Network::set_tap`].
pub type FrameTap = Box<dyn FnMut(Instant, &[u8])>;
/// Index of a (duplex) link within the network.
pub type LinkId = usize;

/// How many links one network can address: link `k` gets the /30
/// `10.(128 + k/256).(k%256).0`, and the plan ends at `10.255.255.0/30`.
pub const MAX_LINKS: usize = 128 * 256;

/// The goal-7 usage-report pipeline (see [`Network::enable_accounting`]):
/// flush cadence plus the administration's collector, which outlives any
/// gateway crash because it belongs to the network, not a node.
struct AccountingCtl {
    period: Duration,
    next_flush: Instant,
    collector: ReportCollector,
}

/// The simulated internetwork.
pub struct Network {
    /// Who is on each end of each duplex link. The directed `Link`s
    /// themselves live in the lanes that own their senders.
    links_meta: Vec<LinkMeta>,
    /// The execution lanes, which own the nodes. Exactly one (covering
    /// every node) until a `Sharded`/`Parallel` network splits at its
    /// first `run_until`.
    lanes: Lanes,
    /// `Parallel`'s threads, spawned at its first threaded window.
    workers: Option<Workers>,
    /// The seed every per-link RNG stream derives from.
    seed: u64,
    /// How the event loop partitions and executes the node set.
    shard: ShardKind,
    /// Set when a K>1 network has split into lanes; the topology is
    /// immutable from then on (contiguous partition and link homes
    /// would both be invalidated by growth).
    frozen: bool,
    now: Instant,
    /// Optional frame tap (e.g. a pcap writer) observing every frame
    /// offered to any link.
    tap: Option<FrameTap>,
    /// Total frames offered to links.
    pub frames_offered: u64,
    /// Attached chaos schedule, executed interleaved with traffic.
    fault_plan: Option<FaultPlan>,
    /// Links cut by the active partition (only those that were up), so
    /// healing restores exactly what the partition severed.
    partition_cut: Vec<LinkId>,
    /// Fault actions applied so far (for experiment reporting).
    pub faults_applied: u64,
    /// Frames offered on an interface with no link attached (counted
    /// rather than silently ignored).
    pub unconnected_drops: u64,
    /// The observability subsystem: metrics registry, time-series
    /// sampler, flight recorder, convergence tracer.
    telemetry: Telemetry,
    /// Route-origin attestation trust anchor (see
    /// [`Network::enable_attestation`]); `None` means attestation has
    /// never been enabled and nothing is signed or registered.
    attest_master: Option<MacKey>,
    /// The packet-buffer pool every node allocates from. Frames recycle
    /// through it instead of hitting the allocator per hop. A split
    /// gives each lane a pool of its own off this one (see
    /// [`PacketPool::lane_pool`]); its counters keep covering them all.
    pool: PacketPool,
    /// The usage-report pipeline, when [`Network::enable_accounting`]
    /// armed it. `None` means no ledgers flush and no accounting
    /// telemetry interns, so unenabled dumps stay byte-identical.
    accounting: Option<AccountingCtl>,
    /// The per-lane-pair lookahead closure, flattened K×K row-major in
    /// microseconds (`reach[j*k + i]` = lane j → lane i), built once at
    /// the split. Entry (j, i), j ≠ i, is the cheapest multi-hop relay
    /// chain from any node of lane j to any node of lane i, each hop
    /// priced at its link's base propagation plus the 1 µs
    /// serialization floor (`Link::tx_time` never rounds below one
    /// microsecond, so arrival is *strictly* later than the send even
    /// on a zero-propagation link). The diagonal is the cheapest cycle
    /// *through* the lane — a frame that leaves lane i can come back,
    /// and its return bounds how far i may run ahead of itself.
    /// `u64::MAX` = unreachable — all there is for one lane, which no
    /// frame leaves.
    lane_reach: Vec<u64>,
    /// Window-protocol counters.
    stats: ShardStats,
    /// Harvested telemetry the barrier may not apply yet. Under
    /// per-lane limits a fast lane can harvest an entry whose instant a
    /// slow lane has not reached; replaying it into the recorder early
    /// would reorder the flight dump against the serial reference. The
    /// barrier therefore banks entries here and applies only those at
    /// or below the global safe horizon (`min` of the round's limits) —
    /// everything later stays banked, flushed before any coordinator op
    /// and at run end. Kept `(at, token)`-sorted.
    pending_harvests: Vec<HarvestEntry>,
    /// Scratch: the frames crossing lanes at one barrier.
    crosses: Vec<CrossFrame>,
    /// Each lane's part in the current round; between rounds, `limit`
    /// is how far the lane has run.
    round: Vec<LaneWindow>,
}

impl Network {
    /// A fresh single-lane network. All randomness derives from `seed`.
    pub fn new(seed: u64) -> Network {
        Network::with_shards(seed, ShardKind::Single)
    }

    /// A fresh network on an explicit shard mode (the shard-equivalence
    /// harness and E17 run several and compare dumps byte-for-byte).
    pub fn with_shards(seed: u64, shard: ShardKind) -> Network {
        let pool = PacketPool::new();
        let boot = Lane::new(0, 0, Scheduler::new(), pool.clone());
        let mut lanes = Lanes::default();
        lanes.push(Box::new(boot));
        Network {
            links_meta: Vec::new(),
            lanes,
            workers: None,
            seed,
            shard,
            frozen: false,
            now: Instant::ZERO,
            tap: None,
            frames_offered: 0,
            fault_plan: None,
            partition_cut: Vec::new(),
            faults_applied: 0,
            unconnected_drops: 0,
            telemetry: Telemetry::new(),
            attest_master: None,
            pool,
            accounting: None,
            lane_reach: vec![u64::MAX],
            stats: ShardStats::default(),
            pending_harvests: Vec::new(),
            crosses: Vec::new(),
            round: vec![LaneWindow::default()],
        }
    }

    /// Window-protocol execution counters. Performance observables
    /// only — they vary across K while dumps stay byte-identical.
    pub fn shard_stats(&self) -> ShardStats {
        self.stats
    }

    /// The `(lo, hi)` node ranges of the execution lanes (one `(0, n)`
    /// range before a K>1 split).
    pub fn lane_bounds(&self) -> Vec<(usize, usize)> {
        self.lanes.iter().map(|l| (l.lo, l.hi())).collect()
    }

    /// How many lanes the node set is actually partitioned into. `1`
    /// until the first `run_until` splits a multi-shard network (the
    /// requested count is clamped to the node count).
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Scheduler counters (events scheduled/processed, wheel stats),
    /// summed over lanes. Each event is counted once: the boot lane is
    /// popped at a K>1 split, so an event it handed to a lane shows in
    /// that lane's `scheduled` only.
    pub fn sched_stats(&self) -> SchedStats {
        let mut total = SchedStats::default();
        for lane in self.lanes.iter() {
            let stats = lane.sched.stats();
            total.scheduled += stats.scheduled;
            total.processed += stats.processed;
            total.pending += stats.pending;
            total.wheel.windows_paged += stats.wheel.windows_paged;
            total.wheel.overflow_inserts += stats.wheel.overflow_inserts;
            total.wheel.distributed += stats.wheel.distributed;
        }
        total
    }

    /// Arm or disarm scheduler op tracing (see [`catenet_sim::TraceOp`])
    /// on the boot scheduler. Arm it before the first topology call: a
    /// replayable trace has to start at event zero. (Single-lane only —
    /// a split network's per-lane traces are not one replayable stream.)
    pub fn set_sched_trace(&mut self, on: bool) {
        self.lanes[0].sched.set_trace(on);
    }

    /// Take the recorded scheduler op trace, leaving tracing disarmed.
    pub fn take_sched_trace(&mut self) -> Vec<TraceOp> {
        self.lanes[0].sched.take_trace()
    }

    /// When the next scheduled event is due, if any (over all lanes).
    pub fn next_event_at(&self) -> Option<Instant> {
        self.lanes.iter().filter_map(|l| l.sched.peek_time()).min()
    }

    /// How many service passes a node has executed (a same-instant
    /// batch of events costs one pass, not one per event).
    pub fn service_passes(&self, id: NodeId) -> u64 {
        self.lanes.slot(id).service_count
    }

    /// Add a host.
    pub fn add_host(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(Node::new(name, NodeRole::Host))
    }

    /// Add a gateway.
    pub fn add_gateway(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(Node::new(name, NodeRole::Gateway))
    }

    /// Add a pre-built node. The node is wired to the network's shared
    /// packet pool so its datagrams ride recycled buffers.
    pub fn add_node(&mut self, mut node: Node) -> NodeId {
        assert!(
            !self.frozen,
            "topology is frozen once a sharded network has run"
        );
        node.set_pool(self.pool.clone());
        let boot = &mut self.lanes[0];
        boot.slots.push(NodeSlot::new(node));
        boot.slots.len() - 1
    }

    /// Install a route-guard policy on every node that runs routing.
    /// The policy survives node crash/restart (conversation state dies
    /// with a node; configuration does not). Call after the topology is
    /// built — nodes added later keep the default (guard off).
    pub fn set_guard_policy(&mut self, policy: GuardPolicy) {
        for slot in self.lanes.slots_mut() {
            if let Some(dv) = &mut slot.node.dv {
                dv.set_guard_policy(policy);
            }
        }
    }

    /// Build the route-origin attestation trust anchor and distribute
    /// it: every routing node's connected prefixes are registered under
    /// its node id, each engine gets a signing identity, and each guard
    /// gets the shared owner registry. Models the out-of-band PKI/IRR
    /// step real BGPsec assumes — ownership is established at topology
    /// build time, not learned from the routing protocol it protects.
    ///
    /// Call **before connecting links**: connecting a link emits the
    /// gateways' first triggered announcements immediately, and only an
    /// already-installed signing identity makes those go out attested.
    /// Links connected later re-derive and redistribute the registry,
    /// so topology growth keeps working. (Calling this after the
    /// topology is built also works, but the announcements already in
    /// flight went out unsigned and attested guards will drop them —
    /// they are re-learned, signed, at the next periodic round.)
    ///
    /// Guards only *verify* when their policy also sets
    /// [`GuardPolicy::attestation`].
    pub fn enable_attestation(&mut self) {
        // A fixed master key: the trust anchor is deterministic and
        // independent of the simulation's seeded randomness, so
        // enabling attestation perturbs no other random draw.
        self.attest_master = Some(MacKey([0x0bad_5eed_0f00_d001, 0xca7e_ae7a_77e5_7a11]));
        self.redistribute_attestation();
    }

    /// Rebuild the ownership registry from the current interfaces and
    /// push it (plus per-node signing identities) to every routing
    /// node. No-op until [`Network::enable_attestation`] has installed
    /// the trust anchor. An existing attestor keeps its serial so
    /// growth never steps the clock backwards under a receiver's
    /// replay window.
    fn redistribute_attestation(&mut self) {
        let Some(master) = self.attest_master else {
            return;
        };
        let mut registry = OriginRegistry::new(master);
        for (id, node) in self.lanes.slots().map(|slot| &slot.node).enumerate() {
            if node.dv.is_some() {
                for iface in &node.ifaces {
                    registry.register(iface.cidr.network(), OriginId(id as u16));
                }
            }
        }
        let registry = Arc::new(registry);
        for (id, slot) in self.lanes.slots_mut().enumerate() {
            if let Some(dv) = &mut slot.node.dv {
                // Derive directly rather than looking up in the
                // registry: a node enabled before its first link has no
                // registered prefix yet, but its identity is fixed.
                let origin = OriginId(id as u16);
                let key = MacKey::derive(master, origin);
                let seq = dv.attestor().map(|a| a.seq()).unwrap_or(0);
                let mut attestor = Attestor::new(origin, key);
                attestor.advance(seq);
                dv.set_attestor(Some(attestor));
                dv.guard_mut().set_registry(Some(Arc::clone(&registry)));
            }
        }
    }

    /// Borrow the packet pool (counters and occupancy, over every lane).
    pub fn pool(&self) -> &PacketPool {
        &self.pool
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.lanes.slot(id).node
    }

    /// Borrow a node mutably.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.lanes.slot_mut(id).node
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.lanes.last().map_or(0, |lane| lane.hi())
    }

    /// Attach an application to a node.
    pub fn attach_app(&mut self, node: NodeId, app: Box<dyn Application>) {
        self.lanes.slot_mut(node).apps.push(app);
        // Give it a chance to schedule its first wake.
        self.kick(node);
    }

    /// Install a frame tap observing every transmitted frame.
    pub fn set_tap(&mut self, tap: FrameTap) {
        self.tap = Some(tap);
    }

    // -------------------------------------------------------- topology

    /// Connect two nodes with a link of the given class, auto-assigning
    /// a /30 subnet. Hosts get a default route via the new peer if they
    /// have none yet. Returns the link id.
    pub fn connect(&mut self, a: NodeId, b: NodeId, class: LinkClass) -> LinkId {
        let framing = match class {
            LinkClass::EthernetLan | LinkClass::ModernLan => Framing::Ethernet,
            _ => Framing::RawIp,
        };
        self.connect_with(a, b, class.params(), framing)
    }

    /// Connect with explicit link parameters and framing. Panics, before
    /// anything changes, on a frozen topology or past [`MAX_LINKS`].
    pub fn connect_with(
        &mut self,
        a: NodeId,
        b: NodeId,
        params: LinkParams,
        framing: Framing,
    ) -> LinkId {
        assert_ne!(a, b, "no self-links");
        assert!(
            !self.frozen,
            "topology is frozen once a sharded network has run"
        );
        let link_id = self.links_meta.len();
        let (cidr, addr_a, addr_b) = link_subnet_plan(link_id);
        let ip_mtu = params.mtu - framing.overhead();

        let node_a = self.node_mut(a);
        let hw_a = hw_addr(a, node_a.ifaces.len());
        let iface_a = node_a.attach_iface(Iface {
            addr: addr_a,
            cidr,
            hardware: hw_a,
            peer: addr_b,
            ip_mtu,
            framing,
            up: true,
        });
        let node_b = self.node_mut(b);
        let hw_b = hw_addr(b, node_b.ifaces.len());
        let iface_b = node_b.attach_iface(Iface {
            addr: addr_b,
            cidr,
            hardware: hw_b,
            peer: addr_a,
            ip_mtu,
            framing,
            up: true,
        });

        // Hosts: default route via the first gateway they attach to.
        for (node, iface, peer) in [(a, iface_a, addr_b), (b, iface_b, addr_a)] {
            let node = self.node_mut(node);
            if node.role == NodeRole::Host {
                let default = Ipv4Cidr::new(Ipv4Address::UNSPECIFIED, 0);
                if node.static_routes.get(&default).is_none() {
                    node.static_routes.insert(default, (iface, Some(peer)));
                }
            }
        }

        let meta = LinkMeta {
            a: LinkEnd { node: a, iface: iface_a },
            b: LinkEnd { node: b, iface: iface_b },
        };
        self.links_meta.push(meta);
        // Both directions boot in lane 0; the split moves each to the
        // lane owning its sender. Each direction rolls its own RNG
        // stream keyed to (seed, link, direction), so frame fates are
        // independent of shard count by construction.
        let boot = &mut self.lanes[0];
        let idx = boot.links.len() as u32;
        boot.links.push(LaneLink {
            link: Link::new(params.clone()),
            rng: LaneLink::seeded(self.seed, link_id, true),
        });
        boot.links.push(LaneLink {
            link: Link::new(params),
            rng: LaneLink::seeded(self.seed, link_id, false),
        });
        self.set_endpoint(meta.a, meta.b, idx);
        self.set_endpoint(meta.b, meta.a, idx + 1);
        // Register the new subnet before the kicks below make routing
        // announce it — the triggered update must go out signed.
        self.redistribute_attestation();
        // New topology: let routing notice immediately.
        self.kick(a);
        self.kick(b);
        link_id
    }

    /// Point `from`'s interface at the directed link `link_idx` of its
    /// lane, toward `dest` wherever that node lives now: the one record
    /// of where a directed link lives.
    fn set_endpoint(&mut self, from: LinkEnd, dest: LinkEnd, link_idx: u32) {
        let dest_lane = self.lanes.of(dest.node) as u32;
        let row = &mut self.lanes.slot_mut(from.node).endpoints;
        if row.len() <= from.iface {
            row.resize(from.iface + 1, None);
        }
        row[from.iface] = Some(Endpoint {
            link_idx,
            dest_lane,
            dest,
        });
    }

    /// The subnet of a link.
    pub fn link_subnet(&self, link: LinkId) -> Ipv4Cidr {
        let end = self.links_meta[link].a;
        self.node(end.node).ifaces[end.iface].cidr
    }

    /// Every link's id with its a and b ends.
    pub(crate) fn link_ends(&self) -> impl Iterator<Item = (LinkId, LinkEnd, LinkEnd)> + '_ {
        self.links_meta.iter().enumerate().map(|(id, meta)| (id, meta.a, meta.b))
    }

    /// Where one direction of a link (`ab` selects a→b) lives: its
    /// sender's lane and the index its sender's endpoint records.
    fn link_home(&self, link: LinkId, ab: bool) -> (usize, usize) {
        let (from, _) = self.links_meta[link].dir(ab);
        let end = self.lanes.slot(from.node).endpoints[from.iface].expect("a connected interface");
        (self.lanes.of(from.node), end.link_idx as usize)
    }

    /// Borrow one direction of a link wherever its owning lane keeps it.
    fn link_dir(&self, link: LinkId, ab: bool) -> &Link {
        let (lane, idx) = self.link_home(link, ab);
        &self.lanes[lane].links[idx].link
    }

    /// Mutably borrow one direction of a link.
    fn link_dir_mut(&mut self, link: LinkId, ab: bool) -> &mut Link {
        let (lane, idx) = self.link_home(link, ab);
        &mut self.lanes[lane].links[idx].link
    }

    // -------------------------------------------------------- failures

    /// Take a link down (both directions) or bring it back up.
    pub fn set_link_up(&mut self, link: LinkId, up: bool) {
        self.link_dir_mut(link, true).set_up(up);
        self.link_dir_mut(link, false).set_up(up);
        let LinkMeta { a, b } = self.links_meta[link];
        let now = self.now;
        for end in [a, b] {
            self.node_mut(end.node).set_iface_up(end.iface, up, now);
            self.kick(end.node);
        }
    }

    /// Switch on the goal-7 accounting pipeline: every gateway gets a
    /// soft-state [`FlowTable`] and an epoch-stamped [`Ledger`] (keeping
    /// any it already carries), and every `period` the network flushes
    /// each live ledger into the administration's report collector. The
    /// collector belongs to the network, not a node, so a gateway crash
    /// loses at most one unflushed period — and even that tail is
    /// captured into the forfeited bucket at the crash instant (an
    /// omniscient-oracle convenience a real network would buy with
    /// battery-backed counters). Off by default: unenabled runs intern
    /// no accounting telemetry and their dumps stay byte-identical.
    pub fn enable_accounting(&mut self, period: Duration) {
        for slot in self.lanes.slots_mut() {
            let node = &mut slot.node;
            if node.role == NodeRole::Gateway {
                if node.flows.is_none() {
                    node.flows = Some(Box::new(FlowTable::new()));
                }
                if node.ledger.is_none() {
                    node.ledger = Some(Box::new(Ledger::new()));
                }
            }
        }
        self.accounting = Some(AccountingCtl {
            period,
            next_flush: self.now + period,
            collector: ReportCollector::new(),
        });
    }

    /// The administration's report collector, if accounting is enabled.
    pub fn report_collector(&self) -> Option<&ReportCollector> {
        self.accounting.as_ref().map(|ctl| &ctl.collector)
    }

    /// Network-wide reconciliation: every flushed report, every
    /// crash-forfeited tail, and every live ledger's unflushed tail,
    /// merged into one view. `None` until [`Network::enable_accounting`].
    pub fn reconcile(&self) -> Option<Reconciliation> {
        let ctl = self.accounting.as_ref()?;
        let tails = self.lanes.slots().map(|slot| &slot.node).filter_map(|node| {
            node.ledger
                .as_ref()
                .and_then(|ledger| ledger.peek_tail(&node.name))
        });
        Some(ctl.collector.reconcile(tails))
    }

    /// Flush every live gateway's ledger into the collector and arm the
    /// next flush instant.
    fn flush_ledgers(&mut self) {
        let Some(mut ctl) = self.accounting.take() else {
            return;
        };
        ctl.next_flush += ctl.period;
        for (id, slot) in self.lanes.slots_mut().enumerate() {
            let node = &mut slot.node;
            if !node.alive {
                continue;
            }
            let Some(ledger) = &mut node.ledger else {
                continue;
            };
            let name = node.name.clone();
            if let Some(report) = ledger.flush(&name) {
                let stray = report.unattributed;
                ctl.collector.absorb(report);
                let scope = Scope::Node(id);
                count(&mut self.telemetry, "acct_reports_flushed", scope, 1);
                if stray > 0 {
                    count(&mut self.telemetry, "acct_unattributed", scope, stray);
                }
            }
        }
        self.accounting = Some(ctl);
    }

    /// Crash a node: all volatile state is lost, frames in its queues
    /// vanish, and attached links stop accepting traffic toward it.
    pub fn crash_node(&mut self, id: NodeId) {
        // Oracle step: capture the dying ledger's unflushed tail into
        // the forfeited bucket before the crash wipes it, so the
        // conservation identity (flushed + forfeited + live tails =
        // everything recorded) survives arbitrary crash storms.
        if let Some(ctl) = &mut self.accounting {
            let node = &self.lanes.slot(id).node;
            if node.alive {
                if let Some(tail) = node
                    .ledger
                    .as_ref()
                    .and_then(|ledger| ledger.peek_tail(&node.name))
                {
                    let stray = tail.unattributed;
                    ctl.collector.forfeit(tail);
                    let scope = Scope::Node(id);
                    count(&mut self.telemetry, "acct_tails_forfeited", scope, 1);
                    if stray > 0 {
                        count(&mut self.telemetry, "acct_unattributed", scope, stray);
                    }
                }
            }
        }
        self.node_mut(id).crash();
    }

    /// Reboot a crashed node.
    pub fn restart_node(&mut self, id: NodeId) {
        self.node_mut(id).restart();
        self.kick(id);
    }

    /// Whether a link is up (both directions share fate).
    pub fn link_is_up(&self, link: LinkId) -> bool {
        self.link_dir(link, true).is_up()
    }

    // ------------------------------------------------------------ chaos

    /// Attach a fault schedule. Its events execute interleaved with
    /// traffic events in time order as [`Network::run_until`] advances.
    /// Replaces any previously attached plan.
    pub fn attach_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// Fault events not yet executed.
    pub fn pending_faults(&self) -> usize {
        self.fault_plan.as_ref().map_or(0, |p| p.remaining())
    }

    /// Apply one primitive fault action right now. Out-of-range node or
    /// link indices are ignored (a plan may be written for a larger
    /// topology than it is attached to); crash/restart of a node already
    /// in the target state is a no-op, so overlapping storm strikes are
    /// harmless.
    ///
    /// Every application lands in the flight recorder; *effective*
    /// topology-affecting actions additionally feed the convergence
    /// tracer (a crash of an already-dead node disrupts nothing, so it
    /// must not open a measurement window).
    pub fn apply_fault(&mut self, action: &FaultAction) {
        self.faults_applied += 1;
        let now = self.now;
        self.telemetry.recorder.record(
            now,
            EventKind::FaultInjected {
                description: describe_fault(action),
            },
        );
        count(&mut self.telemetry, "faults_applied", Scope::Global, 1);
        match action {
            FaultAction::LinkSet { link, up } => {
                if *link < self.links_meta.len() && self.link_is_up(*link) != *up {
                    // A partitioned-off link stays down until Heal.
                    if !self.partition_cut.contains(link) {
                        self.set_link_up(*link, *up);
                        if *up {
                            self.telemetry.convergence.heal(now);
                        } else {
                            self.telemetry.convergence.disruption(now);
                        }
                    }
                }
            }
            FaultAction::NodeCrash { node } => {
                if *node < self.node_count() && self.node(*node).alive {
                    self.crash_node(*node);
                    self.telemetry.convergence.disruption(now);
                }
            }
            FaultAction::NodeRestart { node } => {
                if *node < self.node_count() && !self.node(*node).alive {
                    self.restart_node(*node);
                    self.telemetry.convergence.heal(now);
                }
            }
            FaultAction::Partition { side_a } => {
                // One partition at a time: a new cut heals the old first.
                self.heal_partition();
                let crossing: Vec<LinkId> = (0..self.links_meta.len())
                    .filter(|&id| {
                        let meta = &self.links_meta[id];
                        side_a.contains(&meta.a.node) != side_a.contains(&meta.b.node)
                            && self.link_is_up(id)
                    })
                    .collect();
                for &id in &crossing {
                    self.set_link_up(id, false);
                }
                if !crossing.is_empty() {
                    self.telemetry.convergence.disruption(now);
                }
                self.partition_cut = crossing;
            }
            FaultAction::Heal => self.heal_partition(),
            // Quality and timing faults are silent: interfaces stay up
            // and routing notices nothing.
            FaultAction::Degrade {
                link,
                loss,
                corruption,
            } => {
                if *link < self.links_meta.len() {
                    for ab in [true, false] {
                        self.link_dir_mut(*link, ab).degrade(*loss, *corruption);
                    }
                }
            }
            FaultAction::Restore { link } => {
                if *link < self.links_meta.len() {
                    for ab in [true, false] {
                        let dir = self.link_dir_mut(*link, ab);
                        dir.restore();
                        dir.restore_delay();
                    }
                }
            }
            // One direction only: data drowns while ACKs sail through.
            FaultAction::DegradeOneWay {
                link,
                a_to_b,
                loss,
                corruption,
            } => {
                if *link < self.links_meta.len() {
                    self.link_dir_mut(*link, *a_to_b).degrade(*loss, *corruption);
                }
            }
            FaultAction::DelaySpike { link, extra, jitter } => {
                if *link < self.links_meta.len() {
                    for ab in [true, false] {
                        self.link_dir_mut(*link, ab).delay_spike(*extra, *jitter);
                    }
                }
            }
            FaultAction::RestoreDelay { link } => {
                if *link < self.links_meta.len() {
                    for ab in [true, false] {
                        self.link_dir_mut(*link, ab).restore_delay();
                    }
                }
            }
            FaultAction::Compromise { node, attack } => {
                if *node < self.node_count() && self.node_mut(*node).compromise(*attack) {
                    self.telemetry.convergence.disruption(now);
                }
            }
            FaultAction::Rehabilitate { node } => {
                if *node < self.node_count() && self.node_mut(*node).rehabilitate() {
                    self.telemetry.convergence.heal(now);
                }
            }
        }
    }

    fn heal_partition(&mut self) {
        let cut = core::mem::take(&mut self.partition_cut);
        if !cut.is_empty() {
            self.telemetry.convergence.heal(self.now);
        }
        for id in cut {
            self.set_link_up(id, true);
        }
    }

    // ------------------------------------------------------------- run

    /// Split a `Sharded`/`Parallel` network into its K lanes. Runs once,
    /// at the first `run_until`; the topology is frozen from then on.
    /// Nothing has been *processed* yet at that point (kicks service
    /// nodes directly; they only schedule), so redistributing the boot
    /// scheduler's pending events into per-lane schedulers loses no
    /// ordering or counter state.
    fn ensure_split(&mut self) {
        if self.frozen {
            return;
        }
        let n = self.node_count();
        let k = self.shard.shards().min(n.max(1));
        if k <= 1 {
            return;
        }
        self.frozen = true;
        // Lane boundaries slide off the equal `NodeId` chunks (within a
        // 25 % balance slack) to maximize the cheapest cut link, so LANs
        // and other zero/low-latency links stay lane-internal without
        // the builder arranging node order for it. Read latencies
        // before the boot lane (which still homes every link) is popped.
        let links: Vec<CutLink> = self
            .links_meta
            .iter()
            .enumerate()
            .map(|(id, meta)| CutLink {
                a: meta.a.node,
                b: meta.b.node,
                micros: self
                    .link_dir(id, true)
                    .base_propagation()
                    .total_micros()
                    .min(self.link_dir(id, false).base_propagation().total_micros())
                    .saturating_add(1),
            })
            .collect();
        let bounds = partition::partition(n, k, &links).bounds;
        debug_assert_eq!(bounds.len(), k, "partitioner preserves the lane count");
        let boot = *self.lanes.pop().expect("boot lane");
        debug_assert_eq!(
            boot.sched.stats().processed,
            0,
            "split must happen before the first event pops"
        );
        // Every lane gets the nodes of its range and a pool of its own:
        // recycling stays lane-local whoever runs the lane, so `Sharded`
        // and `Parallel` count the same buffers. Buffers older than the
        // split (in flight, ARP-pending) drop back into the boot pool.
        let mut slots = boot.slots.into_iter();
        for (i, &(lo, hi)) in bounds.iter().enumerate() {
            let mut lane = Lane::new(i, lo, Scheduler::new(), self.pool.lane_pool());
            lane.slots.extend(slots.by_ref().take(hi - lo));
            for slot in &mut lane.slots {
                slot.node.set_pool(lane.pool.clone());
            }
            self.lanes.push(Box::new(lane));
        }
        // Each directed link moves to the lane owning its sender, RNG
        // state intact (connect-time kicks already drew from it).
        for (dir, lane_link) in boot.links.into_iter().enumerate() {
            let (from, dest) = self.links_meta[dir / 2].dir(dir % 2 == 0);
            let home = self.lanes.of(from.node);
            let links = &mut self.lanes[home].links;
            let idx = links.len() as u32;
            links.push(lane_link);
            self.set_endpoint(from, dest, idx);
        }
        // Pending boot events follow their destination node.
        for (at, keyed) in boot.sched.into_drain() {
            let (Event::Frame { to: dest, .. } | Event::Wake { node: dest }) = keyed.event;
            let lane = self.lanes.of(dest);
            self.lanes[lane].sched.schedule_at(at, keyed);
        }
        self.build_lane_reach();
    }

    /// Build [`Network::lane_reach`]: directed per-lane-pair minimum
    /// hop latencies (base propagation + the 1 µs serialization floor),
    /// closed over relay chains with Floyd–Warshall. The closure is
    /// load-bearing, not pedantry: an *empty* lane imposes no
    /// next-event bound, yet can still relay a frame — lane A's frame
    /// can reach lane C through an idle lane B, so C's window must be
    /// bounded by `T_A + reach(A→C)` even with no direct A→C link. The
    /// diagonal starts at `MAX` (not zero) so Floyd–Warshall computes
    /// each lane's cheapest round-trip cycle: a lane far ahead of its
    /// peers can be re-entered by its own earlier output.
    fn build_lane_reach(&mut self) {
        let k = self.lanes.len();
        let mut reach = vec![u64::MAX; k * k];
        for (id, meta) in self.links_meta.iter().enumerate() {
            for ab in [true, false] {
                let (s, d) = meta.dir(ab);
                let (lj, li) = (self.lanes.of(s.node), self.lanes.of(d.node));
                if lj != li {
                    let hop = self
                        .link_dir(id, ab)
                        .base_propagation()
                        .total_micros()
                        .saturating_add(1);
                    let cell = &mut reach[lj * k + li];
                    *cell = (*cell).min(hop);
                }
            }
        }
        for m in 0..k {
            for j in 0..k {
                let jm = reach[j * k + m];
                if jm == u64::MAX {
                    continue;
                }
                for i in 0..k {
                    let mi = reach[m * k + i];
                    if mi == u64::MAX {
                        continue;
                    }
                    let via = jm.saturating_add(mi);
                    let cell = &mut reach[j * k + i];
                    if via < *cell {
                        *cell = via;
                    }
                }
            }
        }
        self.lane_reach = reach;
    }

    /// Barrier absorb: fold lane counters into the network totals,
    /// schedule buffered cross-lane frames into their destination lanes
    /// and apply harvested telemetry in `(instant, token)` order —
    /// exactly the order a single lane writes it inline.
    ///
    /// The protocol's one safety property is checked here, per frame,
    /// in debug builds: a crossing frame lands strictly after the limit
    /// its destination lane has run to (and after `horizon`, which on
    /// the `kick` path is `now`). The scheduler would clamp a past
    /// instant silently; a lookahead that lets one through is a bug in
    /// `run_until`'s bound or in `build_lane_reach`, and fails here.
    fn absorb(&mut self, horizon: Instant) {
        for lane in self.lanes.iter_mut() {
            self.frames_offered += core::mem::take(&mut lane.frames_offered);
            self.unconnected_drops += core::mem::take(&mut lane.unconnected_drops);
            self.crosses.append(&mut lane.cross);
            self.pending_harvests.append(&mut lane.harvests);
        }
        // Canonical insertion order, so per-lane scheduler state is a
        // pure function of the event multiset, not of lane iteration.
        // A crossing buffer changes pools with its lane: it recycles
        // where it is dropped.
        self.crosses.sort_unstable_by_key(|c| (c.at, c.keyed.key));
        for mut cross in self.crosses.drain(..) {
            let dest = cross.lane as usize;
            let ran_to = self.round[dest].limit.max(horizon);
            debug_assert!(
                cross.at > ran_to,
                "a frame crossing into lane {dest} lands at {}, and the lane has run to {ran_to}",
                cross.at,
            );
            let lane = &mut self.lanes[dest];
            if let Event::Frame { frame, .. } = &mut cross.keyed.event {
                frame.rehome(&lane.pool);
            }
            lane.sched.schedule_at(cross.at, cross.keyed);
        }
        self.apply_harvests(horizon);
    }

    /// Apply the banked harvest entries at or below `horizon` to
    /// telemetry, in `(instant, token)` order. A barrier passes its
    /// horizon: only entries up to it are complete — every lane has
    /// executed past them, so no later-harvested entry can sort before
    /// them — and the rest stay banked. Before a coordinator op runs
    /// (its own recorder writes and registry reads must see all earlier
    /// traffic) and at run end, the horizon is `FAR_FUTURE`: every
    /// banked entry is strictly earlier than an op, because traffic
    /// windows are capped one microsecond short of the next op instant.
    fn apply_harvests(&mut self, horizon: Instant) {
        if self.pending_harvests.is_empty() {
            return;
        }
        // Each lane's list is already (at, token)-sorted; the merge
        // recovers the global service order. Tokens are delivery keys,
        // unique across lanes, so the order is total.
        self.pending_harvests.sort_unstable_by_key(|h| (h.at, h.token));
        let done = self.pending_harvests.partition_point(|h| h.at <= horizon);
        for HarvestEntry { at, node, record, .. } in self.pending_harvests.drain(..done) {
            record.apply(at, node, &mut self.telemetry);
        }
    }

    /// Run the event loop until virtual time `t`, executing attached
    /// fault-plan events, telemetry samples and ledger flushes
    /// interleaved with traffic in time order. At equal times faults
    /// fire first (a crash at T kills frames arriving at T, exactly as
    /// a real power cut would), then the sampler (so a sample scheduled
    /// at a fault instant sees the post-fault world), then ledger
    /// flushes, then ordinary events.
    ///
    /// Execution proceeds in rounds. From the earliest pending instant
    /// `at`, each lane `i` runs up to its own limit
    /// `min(t, next-op-instant − 1 µs, A_i − 1 µs)`, where
    /// `A_i = min over lanes j of (T_j + reach(j→i))` is the earliest
    /// instant any peer's pending work (`T_j`, lane j's next event)
    /// could possibly reach lane i — the CMB-style per-pair bound, with
    /// `reach` the relay-closed lane-pair latency matrix (see
    /// the `lane_reach` field); the diagonal term bounds a lane
    /// against its own round-tripped output. Lanes with nothing due
    /// inside their window are skipped (nothing handed to a worker);
    /// the rest run — on the coordinator, or under `Parallel` dealt
    /// over the worker threads — and are all home again before the
    /// barrier absorbs cross-lane frames and harvested telemetry. One
    /// lane is the same round with nothing to bound it: `reach` is
    /// `[u64::MAX]`, the limit is the cap, and a window is a whole
    /// op-free span — the classic serial loop.
    ///
    /// Safety of the per-pair bound (why dumps stay byte-identical):
    /// every future cross-lane arrival into lane i happens at or after
    /// `A_i` — by induction over sends, a send from lane j is either a
    /// pre-scheduled event (time ≥ `T_j`) or descends from an earlier
    /// arrival, and each hop adds at least its link's base propagation
    /// plus the 1 µs serialization floor, which is exactly what `reach`
    /// sums. Lane i only executes instants strictly below `A_i`, so no
    /// event it processes can be preempted by a later-scheduled one,
    /// and same-instant batches stay complete. Progress is guaranteed:
    /// the lane owning `at` always has `A ≥ at + 1`, so it executes.
    pub fn run_until(&mut self, t: Instant) {
        self.ensure_split();
        let k = self.lanes.len();
        // A tap is the caller's `FnMut` and need not be `Send`: with
        // one installed the coordinator runs every window itself.
        let threaded =
            matches!(self.shard, ShardKind::Parallel { .. }) && k > 1 && self.tap.is_none();
        if threaded && self.workers.is_none() {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            self.workers = Some(Workers::spawn(k.min(cores) - 1));
        }
        self.round.resize(k, LaneWindow::default());
        loop {
            for (window, lane) in self.round.iter_mut().zip(self.lanes.iter()) {
                window.next = lane.sched.peek_time();
            }
            let lane_at = self.round.iter().filter_map(|w| w.next).min();
            let fault_at = self.fault_plan.as_ref().and_then(|p| p.next_at());
            let sample_at = Some(self.telemetry.sampler.next_sample_at()).filter(|&s| s <= t);
            let flush_at = self
                .accounting
                .as_ref()
                .map(|ctl| ctl.next_flush)
                .filter(|&f| f <= t);
            let at = match [lane_at, fault_at, sample_at, flush_at]
                .into_iter()
                .flatten()
                .min()
            {
                None => break,
                Some(at) => at,
            };
            if at > t {
                break;
            }
            self.now = at;
            // Coordinator ops, one kind per turn of the loop: faults, then
            // the sample, then the ledger flush (a crash at T forfeits the
            // tail a flush at T would have reported — power cuts don't
            // wait for bookkeeping).
            if [fault_at, sample_at, flush_at].contains(&Some(at)) {
                self.apply_harvests(Instant::FAR_FUTURE);
                let mut applied = 1;
                if fault_at == Some(at) {
                    // Batched dispatch: a dense plan often schedules many
                    // actions at one instant; draining them all here costs
                    // one barrier interruption instead of one per action.
                    applied = 0;
                    while let Some(event) = self.fault_plan.as_mut().and_then(|p| p.pop_due(at)) {
                        self.apply_fault(&event.action);
                        applied += 1;
                    }
                    debug_assert!(applied > 0, "fault peeked as due");
                } else if sample_at == Some(at) {
                    self.take_sample(at);
                } else {
                    self.flush_ledgers();
                }
                self.stats.op_batches += 1;
                self.stats.ops_applied += applied;
                continue;
            }
            // A round of pure traffic: no op is due at `at` (the
            // continues above dispatched any), so lanes may run up to
            // just before the next op instant, capped by `t` and each
            // lane's lookahead bound.
            let cap_t = t.total_micros();
            let op_us = [fault_at, sample_at, flush_at]
                .into_iter()
                .flatten()
                .min()
                .map(|op| op.total_micros() - 1);
            let cap = op_us.map_or(cap_t, |op| op.min(cap_t));
            let at_us = at.total_micros();
            let mut stalled = false;
            for i in 0..k {
                let mut bound = u64::MAX;
                for (j, peer) in self.round.iter().enumerate() {
                    if let Some(tj) = peer.next {
                        let r = self.lane_reach[j * k + i];
                        if r != u64::MAX {
                            bound = bound.min(tj.total_micros().saturating_add(r));
                        }
                    }
                }
                // Strictly below the earliest possible arrival: the
                // 1 µs floor in `reach` makes `bound − 1` safe and
                // still ≥ `at` for the lane owning the round start.
                let la = bound.saturating_sub(1);
                if op_us.is_some_and(|op| op < cap_t && la > op) {
                    stalled = true;
                }
                let lim = la.min(cap);
                debug_assert!(lim >= at_us, "every lane window includes the round start");
                // `reach` is closed over relays, so a peer's later work
                // can only push the bound out: what a lane has run past
                // stays final, and `absorb` may check a crossing frame
                // against this round's limit alone.
                debug_assert!(
                    lim >= self.round[i].limit.total_micros(),
                    "lane {i}'s limit moved back from {}",
                    self.round[i].limit,
                );
                if la < cap && lim == at_us {
                    self.stats.collapsed += 1;
                }
                self.round[i].limit = Instant::from_micros(lim);
            }
            // A lane's window never schedules into another lane's queue
            // (cross frames buffer until the absorb), so what is due is
            // settled before any lane runs, whoever runs it.
            for window in &mut self.round {
                window.due = window.next.is_some_and(|ti| ti <= window.limit);
            }
            match self.workers.as_mut().filter(|_| threaded) {
                Some(workers) => workers.run_windows(&mut self.lanes, &self.round),
                None => {
                    for (i, window) in self.round.iter().enumerate().filter(|(_, w)| w.due) {
                        self.lanes[i].run_window(window.limit, &mut self.tap);
                    }
                }
            }
            self.stats.windows += 1;
            self.stats.barrier_stalls += u64::from(stalled);
            for window in &self.round {
                self.stats.span_us += window.limit.total_micros() - at_us;
                if window.due {
                    self.stats.lanes_dispatched += 1;
                } else {
                    self.stats.lanes_skipped += 1;
                }
            }
            let horizon = self.round.iter().map(|w| w.limit).min().unwrap_or(at);
            self.absorb(horizon);
            self.now = horizon;
        }
        self.apply_harvests(Instant::FAR_FUTURE);
        self.now = t;
    }

    /// Run for a duration from the current time.
    pub fn run_for(&mut self, d: Duration) {
        self.run_until(self.now + d);
    }

    /// Force a service pass on a node right now (used after the caller
    /// mutated its sockets or apps from outside the loop). The pass runs
    /// in the node's lane and the barrier absorbs immediately,
    /// so frames it emits toward other lanes are scheduled before the
    /// caller regains control.
    pub fn kick(&mut self, id: NodeId) {
        // Don't advance time: just service at the current instant.
        let now = self.now;
        let lane = self.lanes.of(id);
        let lane = &mut self.lanes[lane];
        // Token 0: a kick is absorbed by itself, never merge-sorted
        // against window entries.
        lane.service_node(id, now, 0, &mut self.tap);
        self.absorb(now);
    }

    // -------------------------------------------------- observability

    /// Borrow the telemetry bundle (registry, sampler, recorder,
    /// convergence tracer).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Log an invariant evaluation in the flight recorder. A failed
    /// check also records an `InvariantTripped` event carrying the
    /// rendered violation, so the dump pinpoints the moment.
    pub fn record_invariant(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        let now = self.now;
        self.telemetry
            .recorder
            .record(now, EventKind::InvariantChecked { name, ok });
        if !ok {
            self.telemetry.recorder.record(
                now,
                EventKind::InvariantTripped {
                    description: detail.into(),
                },
            );
        }
    }

    /// The flight recorder's black-box readout.
    pub fn flight_dump(&self) -> String {
        self.telemetry.recorder.dump()
    }

    /// The metrics registry, rendered deterministically.
    pub fn metrics_dump(&self) -> String {
        self.telemetry.registry.dump()
    }

    /// The time-series rows, rendered deterministically.
    pub fn series_dump(&self) -> String {
        self.telemetry.sampler.dump()
    }

    /// One sampler pass: read every instrumented surface at `at` and
    /// append time-series rows. Pure observation — nothing in the
    /// simulation changes, so sampling can never perturb the run it
    /// measures.
    fn take_sample(&mut self, at: Instant) {
        self.telemetry.sampler.begin_sample(at);
        for (id, slot) in self.lanes.slots_mut().enumerate() {
            let node = &slot.node;
            if let Some(dv) = &node.dv {
                let version = dv.version();
                self.telemetry
                    .sampler
                    .record(at, "route_version", Scope::Node(id), version);
            }
            // Goodput: acked-byte delta over the cadence window, bits/s,
            // from the node's own count, which outlives a crash's sockets.
            let acked = node.stats.tcp_bytes_acked;
            let delta = acked.saturating_sub(slot.sampled_acked);
            if delta > 0 {
                let bps = delta.saturating_mul(8_000_000) / Sampler::CADENCE.total_micros();
                self.telemetry
                    .sampler
                    .record(at, "goodput_bps", Scope::Node(id), bps);
            }
            for (handle, sock) in node.tcp_sockets.iter().enumerate() {
                if !sock.is_active() {
                    continue;
                }
                let scope = Scope::Socket { node: id, handle };
                self.telemetry.sampler.record(
                    at,
                    "cwnd",
                    scope,
                    sock.congestion().window() as u64,
                );
                if let Some(srtt) = sock.rtt().srtt() {
                    self.telemetry
                        .sampler
                        .record(at, "srtt_us", scope, srtt.total_micros());
                }
            }
            slot.sampled_acked = acked;
        }
        for lid in 0..self.links_meta.len() {
            let depth = (self.link_dir(lid, true).queue_depth(at)
                + self.link_dir(lid, false).queue_depth(at)) as u64;
            if depth > 0 {
                self.telemetry
                    .sampler
                    .record(at, "queue_depth", Scope::Link(lid), depth);
            }
        }
        // Always-on heartbeat row: makes "a sample landed exactly here"
        // observable even on an otherwise idle network.
        self.telemetry
            .sampler
            .record(at, "faults_applied", Scope::Global, self.faults_applied);
        // Event-loop progress rows. Both are backend-independent by
        // construction (the loop drives them, not the queue's innards),
        // which the differential harness relies on: they make the dumps
        // sensitive to scheduling or batching divergence without making
        // them sensitive to which backend ran.
        // Summed over lanes; every event is processed in exactly one
        // lane (the split redistributes before anything pops), so the
        // row is identical for every shard count.
        self.telemetry.sampler.record(
            at,
            "sched_events",
            Scope::Global,
            self.lanes.iter().map(|l| l.sched.processed()).sum(),
        );
        self.telemetry.sampler.record(
            at,
            "service_passes",
            Scope::Global,
            self.lanes.slots().map(|slot| slot.service_count).sum(),
        );
    }

    /// Aggregate link statistics: (frames offered, frames delivered,
    /// frames lost to loss/corruption-drop, frames overflowed).
    pub fn link_totals(&self) -> (u64, u64, u64, u64) {
        let mut offered = 0;
        let mut delivered = 0;
        let mut lost = 0;
        let mut overflowed = 0;
        for lane in self.lanes.iter() {
            for lane_link in &lane.links {
                let stats = lane_link.link.stats();
                offered += stats.tx_frames;
                delivered += stats.delivered;
                lost += stats.lost;
                overflowed += stats.overflowed;
            }
        }
        (offered, delivered, lost, overflowed)
    }

    /// Run, in 500 ms steps, until no gateway's routing table (prefix,
    /// metric, interface) has changed for 7 s — more than two update
    /// intervals — or until `limit`. Returns the time of the last change
    /// (`limit` if the tables never went still). Stillness is not
    /// correctness: [`Network::routing_fixed_point`] checks the tables.
    pub fn converge_routing(&mut self, limit: Duration) -> Duration {
        let start = self.now;
        let deadline = start + limit;
        let mut last_change = self.routing_fingerprint();
        let mut stable_since = self.now;
        let step = Duration::from_millis(500);
        while self.now < deadline {
            self.run_for(step);
            let fp = self.routing_fingerprint();
            if fp != last_change {
                last_change = fp;
                stable_since = self.now;
            } else if self.now.duration_since(stable_since) >= Duration::from_secs(7) {
                return stable_since.duration_since(start);
            }
        }
        limit
    }

    fn routing_fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        for slot in self.lanes.slots() {
            if let Some(dv) = &slot.node.dv {
                for (prefix, route) in dv.routes() {
                    prefix.address().to_u32().hash(&mut hasher);
                    prefix.prefix_len().hash(&mut hasher);
                    route.metric.hash(&mut hasher);
                    route.next_hop.iface().hash(&mut hasher);
                }
            }
        }
        hasher.finish()
    }
}

fn describe_fault(action: &FaultAction) -> String {
    match action {
        FaultAction::LinkSet { link, up } => {
            format!("link {link} {}", if *up { "up" } else { "down" })
        }
        FaultAction::NodeCrash { node } => format!("crash node {node}"),
        FaultAction::NodeRestart { node } => format!("restart node {node}"),
        FaultAction::Partition { side_a } => format!("partition {side_a:?}"),
        FaultAction::Heal => "heal partition".to_string(),
        FaultAction::Degrade {
            link,
            loss,
            corruption,
        } => format!("degrade link {link} loss={loss:?} corruption={corruption:?}"),
        FaultAction::Restore { link } => format!("restore link {link}"),
        FaultAction::DegradeOneWay {
            link,
            a_to_b,
            loss,
            corruption,
        } => format!(
            "degrade link {link} ({}) loss={loss:?} corruption={corruption:?}",
            if *a_to_b { "a->b" } else { "b->a" }
        ),
        FaultAction::DelaySpike { link, extra, jitter } => {
            format!("delay-spike link {link} +{extra} jitter {jitter}")
        }
        FaultAction::RestoreDelay { link } => format!("restore-delay link {link}"),
        FaultAction::Compromise { node, attack } => {
            format!("compromise node {node} ({})", attack.name())
        }
        FaultAction::Rehabilitate { node } => format!("rehabilitate node {node}"),
    }
}

/// Link `k`'s subnet and the addresses of its a and b ends (`.1` and
/// `.2`); past [`MAX_LINKS`] the plan is exhausted.
fn link_subnet_plan(k: LinkId) -> (Ipv4Cidr, Ipv4Address, Ipv4Address) {
    assert!(
        k < MAX_LINKS,
        "address plan exhausted: a network holds at most {MAX_LINKS} links"
    );
    let (second, third) = (128 + (k / 256) as u8, (k % 256) as u8);
    (
        Ipv4Cidr::new(Ipv4Address::new(10, second, third, 0), 30),
        Ipv4Address::new(10, second, third, 1),
        Ipv4Address::new(10, second, third, 2),
    )
}

fn hw_addr(node: NodeId, iface: usize) -> EthernetAddress {
    EthernetAddress::new(
        0x02,
        0x00,
        (node >> 8) as u8,
        (node & 0xff) as u8,
        0x00,
        iface as u8,
    )
}

impl core::fmt::Debug for Network {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Network")
            .field("now", &self.now)
            .field("nodes", &self.node_count())
            .field("links", &self.links_meta.len())
            .field("lanes", &self.lanes.len())
            .field(
                "pending_events",
                &self.lanes.iter().map(|l| l.sched.len()).sum::<usize>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane::Keyed;
    use catenet_sim::ByzantineAttack;
    use catenet_wire::Icmpv4Message;
    use std::rc::Rc;

    /// h1 — g — h2 over T1 trunks.
    fn small_net() -> (Network, NodeId, NodeId, NodeId) {
        let mut net = Network::new(1);
        let h1 = net.add_host("h1");
        let g = net.add_gateway("g");
        let h2 = net.add_host("h2");
        net.connect(h1, g, LinkClass::T1Terrestrial);
        net.connect(g, h2, LinkClass::T1Terrestrial);
        (net, h1, g, h2)
    }

    #[test]
    fn ping_across_one_gateway() {
        let (mut net, h1, _g, h2) = small_net();
        let dst = net.node(h2).primary_addr();
        let now = net.now();
        net.node_mut(h1).send_ping(dst, 1, 1, 32, now);
        net.kick(h1);
        net.run_for(Duration::from_secs(2));
        let events = net.node_mut(h1).take_icmp_events();
        assert_eq!(events.len(), 1, "one echo reply");
        assert!(matches!(
            events[0].message,
            Icmpv4Message::EchoReply { ident: 1, seq_no: 1 }
        ));
        assert_eq!(events[0].from, dst);
        // RTT sanity: two T1 hops each way ≈ 120 ms + serialization.
        let rtt = events[0].at;
        assert!(rtt >= Instant::from_millis(120), "rtt {rtt}");
        assert!(rtt <= Instant::from_millis(200), "rtt {rtt}");
    }

    /// Every in-tree emitter writes no more than it reserved, so every
    /// pooled buffer goes back to its class: UDP (fragmented onto a
    /// 296-byte hop), TCP segments and their ACKs, ICMP echo with its
    /// pattern-`extend`ed request, ARP on the Ethernet hop. Debug builds
    /// catch an under-reserving emitter at the write; any build sees
    /// the buffer it reallocated discarded at release.
    #[test]
    fn pooled_emitters_stay_within_their_reservation() {
        use crate::app::{BulkSender, SinkServer};
        use crate::TcpConfig;
        let mut net = Network::new(7);
        let h1 = net.add_host("h1");
        let g = net.add_gateway("g");
        let h2 = net.add_host("h2");
        net.connect(h1, g, LinkClass::EthernetLan);
        let narrow = catenet_sim::LinkParams {
            mtu: 296,
            ..LinkClass::T1Terrestrial.params()
        };
        net.connect_with(g, h2, narrow, Framing::RawIp);
        let dst = net.node(h2).primary_addr();
        // A first ping resolves h1's gateway, so no datagram below
        // overflows the ARP queue.
        net.node_mut(h1).send_ping(dst, 1, 1, 32, Instant::ZERO);
        net.run_for(Duration::from_secs(1));
        let now = net.now();
        net.node_mut(h1).send_ping(dst, 1, 2, 600, now);
        let to = crate::Endpoint::new(dst, 7000);
        let inbox = net.node_mut(h2).udp_bind(7000);
        let socket = net.node_mut(h1).udp_bind(7001);
        for len in [1000, 160] {
            net.node_mut(h1).udp_send(socket, to, len, now, |p| p.fill(0x5a));
        }
        let sink = SinkServer::new(80, TcpConfig::default());
        let received = Arc::clone(&sink.received);
        net.attach_app(h2, Box::new(sink));
        let sender = BulkSender::new(
            crate::Endpoint::new(dst, 80),
            6_000,
            TcpConfig::default(),
            now,
        );
        net.attach_app(h1, Box::new(sender));
        net.kick(h1);
        net.run_for(Duration::from_secs(60));

        assert_eq!(
            net.node_mut(h1).take_icmp_events().len(),
            2,
            "both echoes answered"
        );
        assert_eq!(
            net.node(h2).udp_sockets[inbox].rx_queue_len(),
            2,
            "both datagrams arrived"
        );
        assert_eq!(*received.lock().unwrap(), 6_000, "the transfer completed");
        assert!(
            net.node(g).stats.frags_created > 0,
            "the narrow hop fragmented"
        );
        let stats = net.pool().stats();
        assert!(stats.released > 0 && stats.recycled > 0, "{stats:?}");
        assert_eq!(
            stats.discarded, 0,
            "a pooled buffer outgrew its class: {stats:?}"
        );
    }

    #[test]
    fn deterministic_replay() {
        let run = |seed: u64| {
            let mut net = Network::new(seed);
            let h1 = net.add_host("h1");
            let g = net.add_gateway("g");
            let h2 = net.add_host("h2");
            net.connect(h1, g, LinkClass::ArpanetTrunk);
            net.connect(g, h2, LinkClass::PacketRadio);
            let dst = net.node(h2).primary_addr();
            for seq in 0..20 {
                let now = net.now();
                net.node_mut(h1).send_ping(dst, 1, seq, 32, now);
                net.kick(h1);
                net.run_for(Duration::from_millis(500));
            }
            let events = net.node_mut(h1).take_icmp_events();
            events
                .iter()
                .map(|e| (e.at.total_micros(), e.message))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7), "same seed, same universe");
        assert_ne!(run(7), run(8), "different seed, different losses");
    }

    #[test]
    fn replay_payload_matches_the_real_event_size() {
        // A timed trace replay prices the scheduler with a dummy
        // payload sized like the real scheduler entry — the event enum
        // plus its 8-byte delivery key; if Keyed grows or shrinks, the
        // replay constant must follow.
        assert_eq!(
            std::mem::size_of::<Keyed>(),
            catenet_sim::diffsched::REPLAY_PAYLOAD_BYTES,
        );
    }

    #[test]
    fn same_instant_frames_keep_fifo_order_in_one_service_pass() {
        // Two senders on identical deterministic links, equal-size
        // datagrams loaded before either is serviced: both frames
        // arrive at the receiver at the same instant. Batched delivery
        // must hand them over in schedule order and charge the receiver
        // exactly one service pass for the pair.
        let mut net = Network::new(5);
        let a = net.add_host("a");
        let b = net.add_host("b");
        let c = net.add_host("c");
        let quiet = LinkParams {
            name: "quiet-t1",
            bandwidth_bps: 1_544_000,
            propagation: Duration::from_millis(5),
            jitter: Duration::ZERO,
            loss: 0.0,
            corruption: 0.0,
            mtu: 1500,
            queue_limit: 50,
        };
        net.connect_with(a, c, quiet.clone(), Framing::RawIp);
        net.connect_with(b, c, quiet, Framing::RawIp);
        net.node_mut(c).udp_bind(9000);
        let dst = crate::Endpoint::new(net.node(c).primary_addr(), 9000);
        let sa = net.node_mut(a).udp_bind(9001);
        let sb = net.node_mut(b).udp_bind(9002);
        let now = net.now();
        net.node_mut(a).udp_send(sa, dst, 5, now, |p| p.copy_from_slice(b"first"));
        net.node_mut(b).udp_send(sb, dst, 5, now, |p| p.copy_from_slice(b"other"));
        net.kick(a);
        net.kick(b);
        let passes_before = net.service_passes(c);
        let arrival = net.next_event_at().expect("two frames in flight");
        net.run_until(arrival);
        assert_eq!(
            net.service_passes(c),
            passes_before + 1,
            "two same-instant frames cost one batched service pass"
        );
        let first = net.node_mut(c).udp_sockets[0].recv().expect("first frame");
        let other = net.node_mut(c).udp_sockets[0].recv().expect("second frame");
        assert_eq!(&first.payload[..], b"first", "FIFO by schedule order");
        assert_eq!(&other.payload[..], b"other");
    }

    #[test]
    fn udp_delivery_across_network() {
        let (mut net, h1, _g, h2) = small_net();
        let dst_addr = net.node(h2).primary_addr();
        net.node_mut(h2).udp_bind(7000);
        let sock = net.node_mut(h1).udp_bind(7001);
        let payload = b"datagram service";
        let to = crate::Endpoint::new(dst_addr, 7000);
        net.node_mut(h1).udp_send(sock, to, payload.len(), Instant::ZERO, |p| {
            p.copy_from_slice(payload);
        });
        net.kick(h1);
        net.run_for(Duration::from_secs(1));
        let received = net.node_mut(h2).udp_sockets[0].recv().unwrap();
        assert_eq!(&received.payload[..], payload);
    }

    #[test]
    fn tcp_transfer_across_network() {
        let (mut net, h1, _g, h2) = small_net();
        let dst_addr = net.node(h2).primary_addr();
        net.node_mut(h2).tcp_listen(80, Default::default());
        let now = net.now();
        let handle = net
            .node_mut(h1)
            .tcp_connect(crate::Endpoint::new(dst_addr, 80), Default::default(), now)
            .unwrap();
        net.kick(h1);
        net.run_for(Duration::from_secs(2));
        assert_eq!(
            net.node(h1).tcp_sockets[handle].state(),
            catenet_tcp::State::Established
        );
        let payload = vec![0x42u8; 5_000];
        net.node_mut(h1).tcp_sockets[handle]
            .send_slice(&payload)
            .unwrap();
        net.kick(h1);
        net.run_for(Duration::from_secs(10));
        let server = &mut net.node_mut(h2).tcp_sockets[0];
        let mut buf = vec![0u8; 8_192];
        let mut received = Vec::new();
        loop {
            match server.recv_slice(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => received.extend_from_slice(&buf[..n]),
            }
        }
        assert_eq!(received, payload);
    }

    #[test]
    fn ethernet_lan_with_arp_works() {
        let mut net = Network::new(3);
        let h1 = net.add_host("h1");
        let h2 = net.add_host("h2");
        net.connect(h1, h2, LinkClass::EthernetLan); // Ethernet framing + ARP
        let dst = net.node(h2).primary_addr();
        let now = net.now();
        net.node_mut(h1).send_ping(dst, 9, 0, 16, now);
        net.kick(h1);
        net.run_for(Duration::from_secs(1));
        let events = net.node_mut(h1).take_icmp_events();
        assert_eq!(events.len(), 1, "ARP resolved, ping succeeded");
    }

    #[test]
    fn link_down_partitions() {
        let (mut net, h1, _g, h2) = small_net();
        let dst = net.node(h2).primary_addr();
        net.set_link_up(1, false);
        let now = net.now();
        net.node_mut(h1).send_ping(dst, 1, 1, 16, now);
        net.kick(h1);
        net.run_for(Duration::from_secs(2));
        let events = net.node_mut(h1).take_icmp_events();
        // Either silence or a net-unreachable from the gateway; never a
        // reply.
        assert!(events
            .iter()
            .all(|e| !matches!(e.message, Icmpv4Message::EchoReply { .. })));
    }

    #[test]
    fn routing_converges_on_triangle_and_heals() {
        // g1 — g2, g2 — g3, g1 — g3: full triangle with hosts on g1/g3.
        let mut net = Network::new(5);
        let h1 = net.add_host("h1");
        let g1 = net.add_gateway("g1");
        let g2 = net.add_gateway("g2");
        let g3 = net.add_gateway("g3");
        let h2 = net.add_host("h2");
        net.connect(h1, g1, LinkClass::EthernetLan);
        let direct = net.connect(g1, g3, LinkClass::T1Terrestrial);
        net.connect(g1, g2, LinkClass::T1Terrestrial);
        net.connect(g2, g3, LinkClass::T1Terrestrial);
        net.connect(g3, h2, LinkClass::EthernetLan);
        net.converge_routing(Duration::from_secs(60));
        let dst = net.node(h2).primary_addr();

        // Ping works over the direct g1—g3 edge.
        let now = net.now();
        net.node_mut(h1).send_ping(dst, 1, 1, 16, now);
        net.kick(h1);
        net.run_for(Duration::from_secs(2));
        assert_eq!(net.node_mut(h1).take_icmp_events().len(), 1);

        // Sever the direct edge; DV must reroute via g2.
        net.set_link_up(direct, false);
        net.converge_routing(Duration::from_secs(120));
        let now = net.now();
        net.node_mut(h1).send_ping(dst, 1, 2, 16, now);
        net.kick(h1);
        net.run_for(Duration::from_secs(3));
        let events = net.node_mut(h1).take_icmp_events();
        assert!(
            events
                .iter()
                .any(|e| matches!(e.message, Icmpv4Message::EchoReply { .. })),
            "rerouted around the dead link: {events:?}"
        );
    }

    #[test]
    fn gateway_crash_and_reboot_relearns_routes() {
        let (mut net, h1, g, h2) = small_net();
        net.converge_routing(Duration::from_secs(30));
        let routes_before = net.node(g).dv.as_ref().unwrap().live_routes();
        assert!(routes_before >= 2);
        net.crash_node(g);
        assert_eq!(net.node(g).dv.as_ref().unwrap().live_routes(), 0);
        net.restart_node(g);
        net.run_for(Duration::from_secs(15));
        assert!(
            net.node(g).dv.as_ref().unwrap().live_routes() >= 2,
            "gateway relearned its world from configuration + neighbors"
        );
        // And traffic flows again.
        let dst = net.node(h2).primary_addr();
        let now = net.now();
        net.node_mut(h1).send_ping(dst, 1, 9, 16, now);
        net.kick(h1);
        net.run_for(Duration::from_secs(2));
        assert_eq!(net.node_mut(h1).take_icmp_events().len(), 1);
    }

    #[test]
    fn gateway_quenches_overload_and_sender_slows() {
        // h1 --fast ethernet--> g --tiny-queue slow trunk--> h2:
        // the gateway's output queue overflows, it emits source quench,
        // and the TCP sender's congestion window collapses in response.
        let mut net = Network::new(77);
        let h1 = net.add_host("h1");
        let g = net.add_gateway("g");
        let h2 = net.add_host("h2");
        net.connect(h1, g, LinkClass::EthernetLan);
        net.connect_with(
            g,
            h2,
            catenet_sim::LinkParams {
                queue_limit: 2,
                loss: 0.0,
                corruption: 0.0,
                ..LinkClass::ArpanetTrunk.params()
            },
            Framing::RawIp,
        );
        net.converge_routing(Duration::from_secs(30));
        let dst = net.node(h2).primary_addr();
        net.node_mut(h2).tcp_listen(80, Default::default());
        let now = net.now();
        let handle = net
            .node_mut(h1)
            .tcp_connect(crate::Endpoint::new(dst, 80), Default::default(), now)
            .unwrap();
        net.kick(h1);
        net.run_for(Duration::from_secs(2));
        // Blast data; the 56 kb/s trunk with queue 2 must overflow.
        let blob = vec![0x11u8; 60_000];
        net.node_mut(h1).tcp_sockets[handle].send_slice(&blob).unwrap();
        net.kick(h1);
        net.run_for(Duration::from_secs(30));
        assert!(net.node(g).stats.quench_sent > 0, "gateway quenched");
        assert!(
            net.node(h1).tcp_sockets[handle].stats.quenches > 0,
            "sender applied the quench"
        );
        assert!(net.node(h1).stats.quench_applied > 0);
    }

    #[test]
    fn fragmentation_across_small_mtu_path() {
        // h1 —(1500)— g —(296)— h2: large UDP datagrams must fragment.
        let mut net = Network::new(11);
        let h1 = net.add_host("h1");
        let g = net.add_gateway("g");
        let h2 = net.add_host("h2");
        net.connect(h1, g, LinkClass::T1Terrestrial);
        net.connect(g, h2, LinkClass::SlipLine);
        let dst = net.node(h2).primary_addr();
        net.node_mut(h2).udp_bind(9000);
        let sock = net.node_mut(h1).udp_bind(9001);
        let payload = vec![0x5Au8; 1200];
        let to = crate::Endpoint::new(dst, 9000);
        net.node_mut(h1).udp_send(sock, to, payload.len(), Instant::ZERO, |p| {
            p.copy_from_slice(&payload);
        });
        net.kick(h1);
        net.run_for(Duration::from_secs(5));
        let received = net.node_mut(h2).udp_sockets[0].recv().expect("reassembled");
        assert_eq!(received.payload[..], payload[..]);
        assert!(net.node(g).stats.frags_created >= 4);
        assert_eq!(net.node(h2).reassembler().completed, 1);
        // The registry mirrors the reassembler's counter.
        assert_eq!(
            net.telemetry()
                .registry
                .get("reassembled_datagrams", Scope::Node(h2)),
            1
        );
    }

    #[test]
    fn fault_plan_executes_interleaved_with_traffic() {
        let (mut net, _h1, g, _h2) = small_net();
        let mut plan = catenet_sim::FaultPlan::new();
        plan.push(
            Instant::from_secs(1),
            catenet_sim::FaultAction::NodeCrash { node: g },
        );
        plan.push(
            Instant::from_secs(3),
            catenet_sim::FaultAction::NodeRestart { node: g },
        );
        plan.push(
            Instant::from_secs(5),
            catenet_sim::FaultAction::LinkSet { link: 0, up: false },
        );
        net.attach_fault_plan(plan);
        assert_eq!(net.pending_faults(), 3);
        net.run_until(Instant::from_secs(2));
        assert!(!net.node(g).alive, "crash fired");
        assert_eq!(net.pending_faults(), 2);
        net.run_until(Instant::from_secs(4));
        assert!(net.node(g).alive, "restart fired");
        net.run_until(Instant::from_secs(6));
        assert!(!net.link_is_up(0));
        assert_eq!(net.pending_faults(), 0);
        assert_eq!(net.faults_applied, 3);
    }

    #[test]
    fn partition_cuts_only_crossing_links_and_heals_exactly() {
        // h1 — gA — gB — h2, plus gA — gC — gB backup.
        let mut net = Network::new(9);
        let h1 = net.add_host("h1");
        let ga = net.add_gateway("gA");
        let gb = net.add_gateway("gB");
        let gc = net.add_gateway("gC");
        let h2 = net.add_host("h2");
        let l_h1 = net.connect(h1, ga, LinkClass::T1Terrestrial);
        let l_ab = net.connect(ga, gb, LinkClass::T1Terrestrial);
        let l_ac = net.connect(ga, gc, LinkClass::T1Terrestrial);
        let l_cb = net.connect(gc, gb, LinkClass::T1Terrestrial);
        let l_h2 = net.connect(gb, h2, LinkClass::T1Terrestrial);
        let mut plan = catenet_sim::FaultPlan::new();
        plan.partition(
            vec![h1, ga],
            Instant::from_secs(1),
            Duration::from_secs(2),
        );
        net.attach_fault_plan(plan);
        net.run_until(Instant::from_millis(1_500));
        // Links crossing the {h1, gA} boundary are down; the rest are up.
        assert!(net.link_is_up(l_h1));
        assert!(!net.link_is_up(l_ab));
        assert!(!net.link_is_up(l_ac));
        assert!(net.link_is_up(l_cb));
        assert!(net.link_is_up(l_h2));
        net.run_until(Instant::from_secs(4));
        for link in [l_h1, l_ab, l_ac, l_cb, l_h2] {
            assert!(net.link_is_up(link), "healed link {link}");
        }
    }

    #[test]
    fn flap_does_not_resurrect_partitioned_link() {
        let (mut net, _h1, _g, _h2) = small_net();
        let mut plan = catenet_sim::FaultPlan::new();
        plan.partition(vec![0], Instant::from_secs(1), Duration::from_secs(10));
        // A flap tries to raise link 0 mid-partition: must stay down.
        plan.push(
            Instant::from_secs(2),
            catenet_sim::FaultAction::LinkSet { link: 0, up: true },
        );
        net.attach_fault_plan(plan);
        net.run_until(Instant::from_secs(3));
        assert!(!net.link_is_up(0), "partition outranks the flap");
        net.run_until(Instant::from_secs(12));
        assert!(net.link_is_up(0), "heal restores the link");
    }

    #[test]
    fn degrade_window_is_invisible_to_routing_but_lossy() {
        let (mut net, h1, _g, h2) = small_net();
        let dst = net.node(h2).primary_addr();
        net.apply_fault(&FaultAction::Degrade {
            link: 0,
            loss: Some(1.0),
            corruption: None,
        });
        assert!(net.link_is_up(0), "blackhole looks healthy");
        let now = net.now();
        net.node_mut(h1).send_ping(dst, 4, 1, 16, now);
        net.kick(h1);
        net.run_for(Duration::from_secs(2));
        assert!(net.node_mut(h1).take_icmp_events().is_empty(), "blackholed");
        net.apply_fault(&FaultAction::Restore { link: 0 });
        let now = net.now();
        net.node_mut(h1).send_ping(dst, 4, 2, 16, now);
        net.kick(h1);
        net.run_for(Duration::from_secs(2));
        assert_eq!(net.node_mut(h1).take_icmp_events().len(), 1, "restored");
    }

    #[test]
    fn telemetry_dumps_are_byte_identical_across_runs() {
        let run = |seed: u64| {
            let mut net = Network::new(seed);
            let h1 = net.add_host("h1");
            let g = net.add_gateway("g");
            let h2 = net.add_host("h2");
            net.connect(h1, g, LinkClass::ArpanetTrunk);
            net.connect(g, h2, LinkClass::PacketRadio);
            let mut plan = catenet_sim::FaultPlan::new();
            plan.push(
                Instant::from_secs(3),
                catenet_sim::FaultAction::LinkSet { link: 1, up: false },
            );
            plan.push(
                Instant::from_secs(8),
                catenet_sim::FaultAction::LinkSet { link: 1, up: true },
            );
            net.attach_fault_plan(plan);
            let dst = net.node(h2).primary_addr();
            net.node_mut(h2).tcp_listen(80, Default::default());
            let now = net.now();
            let handle = net
                .node_mut(h1)
                .tcp_connect(crate::Endpoint::new(dst, 80), Default::default(), now)
                .unwrap();
            net.kick(h1);
            net.run_for(Duration::from_secs(2));
            let _ = net.node_mut(h1).tcp_sockets[handle].send_slice(&[0x33u8; 20_000]);
            net.kick(h1);
            net.run_for(Duration::from_secs(28));
            (net.metrics_dump(), net.series_dump(), net.flight_dump())
        };
        let (m1, s1, f1) = run(21);
        let (m2, s2, f2) = run(21);
        assert_eq!(m1, m2, "registry dump must replay bit-for-bit");
        assert_eq!(s1, s2, "time-series dump must replay bit-for-bit");
        assert_eq!(f1, f2, "flight-recorder dump must replay bit-for-bit");
        assert!(!s1.is_empty(), "sampler ran");
        assert!(f1.contains("fault: link 1 down"), "faults recorded: {f1}");
    }

    #[test]
    fn sample_at_a_fault_instant_sees_the_post_fault_world() {
        // Default cadence 500 ms; the fault lands exactly on a sample
        // boundary. Faults apply before the sample, so the heartbeat row
        // at that instant must already count it.
        let (mut net, _h1, _g, _h2) = small_net();
        let mut plan = catenet_sim::FaultPlan::new();
        plan.push(
            Instant::from_millis(1_500),
            catenet_sim::FaultAction::Degrade {
                link: 0,
                loss: Some(1.0),
                corruption: None,
            },
        );
        net.attach_fault_plan(plan);
        net.run_until(Instant::from_secs(3));
        let heartbeats: Vec<_> = net.telemetry().sampler.series("faults_applied").collect();
        let at = |ms| -> Vec<_> {
            heartbeats
                .iter()
                .filter(|s| s.at == Instant::from_millis(ms))
                .collect()
        };
        let at_fault = at(1_500);
        assert_eq!(at_fault.len(), 1, "exactly one heartbeat at the boundary");
        assert_eq!(at_fault[0].value, 1, "fault applied before the sample");
        assert_eq!(at(1_000)[0].value, 0, "previous sample predates the fault");
        // Cadence kept ticking: samples at 0.5, 1.0, 1.5, 2.0, 2.5, 3.0 s.
        assert_eq!(heartbeats.len(), 6);
    }

    #[test]
    fn link_cut_and_heal_yields_one_measured_reconvergence() {
        // Triangle with a backup path: cut the direct edge, heal it,
        // and the tracer must pair the heal with a settled measurement.
        let mut net = Network::new(17);
        let h1 = net.add_host("h1");
        let g1 = net.add_gateway("g1");
        let g2 = net.add_gateway("g2");
        let g3 = net.add_gateway("g3");
        let h2 = net.add_host("h2");
        net.connect(h1, g1, LinkClass::EthernetLan);
        let direct = net.connect(g1, g3, LinkClass::T1Terrestrial);
        net.connect(g1, g2, LinkClass::T1Terrestrial);
        net.connect(g2, g3, LinkClass::T1Terrestrial);
        net.connect(g3, h2, LinkClass::EthernetLan);
        net.converge_routing(Duration::from_secs(60));
        let mut plan = catenet_sim::FaultPlan::new();
        let cut_at = net.now() + Duration::from_secs(2);
        plan.push(cut_at, catenet_sim::FaultAction::LinkSet { link: direct, up: false });
        plan.push(
            cut_at + Duration::from_secs(20),
            catenet_sim::FaultAction::LinkSet { link: direct, up: true },
        );
        net.attach_fault_plan(plan);
        net.run_for(Duration::from_secs(60));
        let tracer = &net.telemetry().convergence;
        assert_eq!(tracer.heal_count(), 1);
        assert!(tracer.route_change_count() > 0, "DV reacted to the cut");
        let recs = tracer.reconvergences(net.now());
        assert_eq!(recs.len(), 1);
        assert!(recs[0].settled, "routing went quiescent after the heal");
        assert!(
            recs[0].took <= Duration::from_secs(30),
            "reconvergence took {}",
            recs[0].took
        );
    }

    #[test]
    fn one_way_degrade_hits_only_the_named_direction() {
        let (mut net, h1, _g, h2) = small_net();
        let dst = net.node(h2).primary_addr();
        let src = net.node(h1).primary_addr();
        // Kill h1→g entirely; g→h1 stays clean.
        net.apply_fault(&FaultAction::DegradeOneWay {
            link: 0,
            a_to_b: true,
            loss: Some(1.0),
            corruption: None,
        });
        let now = net.now();
        net.node_mut(h1).send_ping(dst, 5, 1, 16, now);
        net.kick(h1);
        net.run_for(Duration::from_secs(2));
        assert!(
            net.node_mut(h1).take_icmp_events().is_empty(),
            "forward direction blackholed"
        );
        assert_eq!(
            net.node(h2).stats.icmp_received,
            0,
            "request never crossed the degraded a→b direction"
        );
        // The reverse direction still delivers: h2's echo request
        // reaches h1 (the *reply* dies on the degraded direction, so
        // count arrivals at h1 rather than waiting for a round trip).
        let now = net.now();
        net.node_mut(h2).send_ping(src, 5, 2, 16, now);
        net.kick(h2);
        net.run_for(Duration::from_secs(2));
        assert_eq!(
            net.node(h1).stats.icmp_received,
            1,
            "request crossed the clean b→a direction of link 0"
        );
        net.apply_fault(&FaultAction::Restore { link: 0 });
        let now = net.now();
        net.node_mut(h1).send_ping(dst, 5, 3, 16, now);
        net.kick(h1);
        net.run_for(Duration::from_secs(2));
        assert_eq!(net.node_mut(h1).take_icmp_events().len(), 1, "restored");
    }

    #[test]
    fn fault_plans_replay_identically() {
        let run = |seed: u64| {
            let mut net = Network::new(seed);
            let h1 = net.add_host("h1");
            let g = net.add_gateway("g");
            let h2 = net.add_host("h2");
            net.connect(h1, g, LinkClass::ArpanetTrunk);
            net.connect(g, h2, LinkClass::PacketRadio);
            let mut rng = catenet_sim::Rng::from_seed(seed ^ 0xc0ffee);
            let mut plan = catenet_sim::FaultPlan::new();
            plan.link_flap(
                1,
                Instant::from_secs(1),
                Instant::from_secs(20),
                Duration::from_secs(3),
                Duration::from_secs(1),
                &mut rng,
            );
            plan.crash_storm(
                &[g],
                Instant::from_secs(2),
                Instant::from_secs(18),
                2,
                (Duration::from_secs(1), Duration::from_secs(2)),
                &mut rng,
            );
            net.attach_fault_plan(plan);
            let dst = net.node(h2).primary_addr();
            for seq in 0..40 {
                let now = net.now();
                net.node_mut(h1).send_ping(dst, 1, seq, 32, now);
                net.kick(h1);
                net.run_for(Duration::from_millis(500));
            }
            let events = net.node_mut(h1).take_icmp_events();
            (
                net.faults_applied,
                events
                    .iter()
                    .map(|e| (e.at.total_micros(), e.message))
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(13), run(13), "same seed, same chaos, same outcome");
    }

    /// Five-gateway ring, source host at g4, victim host at g2. g0 is
    /// compromised to advertise metric 0 for the victim's LAN and eat
    /// whatever arrives. Returns echo replies received by the source
    /// plus the liar's byzantine-drop count and the metrics dump.
    fn blackhole_ring(guard: bool) -> (usize, u64, String) {
        let mut net = Network::new(42);
        let gs: Vec<NodeId> = (0..5)
            .map(|i| net.add_gateway(format!("g{i}")))
            .collect();
        for &g in &gs {
            net.node_mut(g).set_dv_config(catenet_routing::DvConfig::fast());
        }
        for i in 0..5 {
            net.connect(gs[i], gs[(i + 1) % 5], LinkClass::T1Terrestrial);
        }
        let src = net.add_host("src");
        net.connect(src, gs[4], LinkClass::EthernetLan);
        let victim = net.add_host("victim");
        let victim_link = net.connect(gs[2], victim, LinkClass::EthernetLan);
        if guard {
            net.set_guard_policy(GuardPolicy::standard());
        }
        net.converge_routing(Duration::from_secs(120));
        let lan = net.link_subnet(victim_link);
        net.apply_fault(&FaultAction::Compromise {
            node: gs[0],
            attack: ByzantineAttack::BlackholeVictim {
                addr: lan.address().0,
                prefix_len: lan.prefix_len(),
            },
        });
        // Two fast periodic intervals: the lie (or its rejection) settles.
        net.run_for(Duration::from_secs(10));
        let dst = net.node(victim).primary_addr();
        let now = net.now();
        net.node_mut(src).send_ping(dst, 7, 1, 32, now);
        net.kick(src);
        net.run_for(Duration::from_secs(5));
        let replies = net.node_mut(src).take_icmp_events().len();
        (replies, net.node(gs[0]).stats.dropped_byzantine, net.metrics_dump())
    }

    #[test]
    fn compromised_gateway_blackholes_unguarded_ring() {
        let (replies, eaten, metrics) = blackhole_ring(false);
        assert_eq!(replies, 0, "metric-0 lie pulls traffic into the liar");
        assert!(eaten > 0, "the liar ate the redirected datagram");
        assert!(
            !metrics.contains("guard_"),
            "guard off: no guard metric is ever interned"
        );
    }

    #[test]
    fn route_guard_defeats_the_blackhole() {
        let (replies, eaten, metrics) = blackhole_ring(true);
        assert_eq!(replies, 1, "sanitized neighbors keep the honest route");
        assert_eq!(eaten, 0, "nothing is pulled toward the liar");
        assert!(
            metrics.contains("guard_sanitized"),
            "verdict counters harvested into the registry:\n{metrics}"
        );
    }

    /// A liar lies in what it writes, not in what it carries: a
    /// RIP-shaped datagram h1 sends to h2's port 520 crosses the
    /// compromised gateway byte for byte.
    #[test]
    fn a_liar_forwards_what_it_did_not_write_unchanged() {
        use catenet_routing::{RipEntry, RipMessage, RIP_PORT};
        use catenet_wire::{IpProtocol, Ipv4Packet, UdpPacket};
        let (mut net, h1, g, h2) = small_net();
        net.apply_fault(&FaultAction::Compromise {
            node: g,
            attack: ByzantineAttack::BlackholeVictim {
                addr: [10, 200, 0, 0],
                prefix_len: 16,
            },
        });
        let sent = RipMessage {
            entries: vec![RipEntry::new("10.1.0.0/16".parse().unwrap(), 3)],
        }
        .encode();
        let carried = Rc::new(std::cell::RefCell::new(Vec::new()));
        let log = Rc::clone(&carried);
        net.set_tap(Box::new(move |_, frame| {
            let Ok(ip) = Ipv4Packet::new_checked(frame) else {
                return;
            };
            if ip.protocol() != IpProtocol::Udp {
                return;
            }
            let Ok(udp) = UdpPacket::new_checked(ip.payload()) else {
                return;
            };
            if udp.src_port() == 4000 && udp.dst_port() == RIP_PORT {
                log.borrow_mut().push((ip.hop_limit(), udp.payload().to_vec()));
            }
        }));
        let to = crate::Endpoint::new(net.node(h2).primary_addr(), RIP_PORT);
        let socket = net.node_mut(h1).udp_bind(4000);
        let now = net.now();
        net.node_mut(h1).udp_send(socket, to, sent.len(), now, |p| p.copy_from_slice(&sent));
        net.kick(h1);
        net.run_for(Duration::from_secs(1));

        let carried = carried.borrow();
        let hops: Vec<u8> = carried.iter().map(|(ttl, _)| *ttl).collect();
        assert_eq!(hops, [64, 63], "h1's hop, then g's");
        for (_, payload) in carried.iter() {
            assert_eq!(payload, &sent, "the liar rewrote a datagram it forwarded");
        }
    }

    /// Same five-gateway ring as [`blackhole_ring`], but the liar runs a
    /// metric-1 prefix hijack — wire-legal, so sanitization alone cannot
    /// catch it. Guards are armed *before* convergence (cold boot, with
    /// the boot learning window absorbing the initial storm) and
    /// `attested` additionally distributes the origin registry and
    /// verifies proofs.
    fn hijack_ring(attested: bool, keep_proof: bool) -> (usize, u64, String) {
        let mut net = Network::new(42);
        let gs: Vec<NodeId> = (0..5)
            .map(|i| net.add_gateway(format!("g{i}")))
            .collect();
        for &g in &gs {
            net.node_mut(g).set_dv_config(catenet_routing::DvConfig::fast());
        }
        // The trust anchor is distributed before the first link exists,
        // so even the build-time triggered announcements go out signed.
        if attested {
            net.enable_attestation();
        }
        for i in 0..5 {
            net.connect(gs[i], gs[(i + 1) % 5], LinkClass::T1Terrestrial);
        }
        let src = net.add_host("src");
        net.connect(src, gs[4], LinkClass::EthernetLan);
        let victim = net.add_host("victim");
        let victim_link = net.connect(gs[2], victim, LinkClass::EthernetLan);
        if attested {
            net.set_guard_policy(GuardPolicy::attested());
        } else {
            net.set_guard_policy(GuardPolicy::boot_armed());
        }
        net.converge_routing(Duration::from_secs(120));
        let lan = net.link_subnet(victim_link);
        let attack = if keep_proof {
            ByzantineAttack::HijackAttested {
                addr: lan.address().0,
                prefix_len: lan.prefix_len(),
            }
        } else {
            ByzantineAttack::HijackPrefix {
                addr: lan.address().0,
                prefix_len: lan.prefix_len(),
            }
        };
        net.apply_fault(&FaultAction::Compromise { node: gs[0], attack });
        net.run_for(Duration::from_secs(10));
        let dst = net.node(victim).primary_addr();
        let now = net.now();
        net.node_mut(src).send_ping(dst, 7, 1, 32, now);
        net.kick(src);
        net.run_for(Duration::from_secs(5));
        let replies = net.node_mut(src).take_icmp_events().len();
        (replies, net.node(gs[0]).stats.dropped_byzantine, net.metrics_dump())
    }

    #[test]
    fn metric_one_hijack_walks_past_the_plain_guard() {
        let (replies, eaten, metrics) = hijack_ring(false, false);
        assert_eq!(replies, 0, "a wire-legal metric-1 lie is believed");
        assert!(eaten > 0, "the liar ate the redirected datagram");
        assert!(
            !metrics.contains("guard_attest_rejected"),
            "no attestation verdict without verification"
        );
    }

    #[test]
    fn origin_attestation_defeats_the_hijack() {
        let (replies, eaten, metrics) = hijack_ring(true, false);
        assert_eq!(replies, 1, "the unattested claim is dropped, honest route kept");
        assert_eq!(eaten, 0, "nothing is pulled toward the liar");
        assert!(
            metrics.contains("guard_attest_rejected"),
            "rejections harvested into the registry:\n{metrics}"
        );
    }

    #[test]
    fn attested_hijack_is_the_designed_residual() {
        let (replies, eaten, _metrics) = hijack_ring(true, true);
        assert_eq!(
            replies, 0,
            "a relayed genuine proof plus a shortened metric still wins: \
             origin attestation proves ownership, not path honesty"
        );
        assert!(eaten > 0, "the residual attack still eats traffic");
    }

    /// h0 — g1 — g2 — h3 over T1 trunks with CBR both ways: at K = 2
    /// the boundary falls between g1 and g2 and datagrams cross it in
    /// both directions.
    fn two_lane_net(shard: ShardKind) -> Network {
        let mut net = Network::with_shards(15, shard);
        let h0 = net.add_host("h0");
        let g1 = net.add_gateway("g1");
        let g2 = net.add_gateway("g2");
        let h3 = net.add_host("h3");
        net.connect(h0, g1, LinkClass::EthernetLan);
        net.connect(g1, g2, LinkClass::T1Terrestrial);
        net.connect(g2, h3, LinkClass::EthernetLan);
        for (from, to, port) in [(h0, h3, 5000), (h3, h0, 5001)] {
            let dst = crate::Endpoint::new(net.node(to).primary_addr(), port);
            net.attach_app(to, Box::new(crate::app::CbrSink::new(port)));
            net.attach_app(
                from,
                Box::new(crate::app::CbrSource::new(
                    dst,
                    Duration::from_millis(20),
                    200,
                    Instant::from_secs(1),
                    Instant::from_secs(9),
                )),
            );
        }
        net
    }

    #[test]
    fn lane_pools_are_counted_the_same_under_both_arms() {
        let run = |shard: ShardKind| {
            let mut net = two_lane_net(shard);
            net.run_until(Instant::from_secs(10));
            assert_eq!(net.lane_count(), 2);
            let dumps = (net.metrics_dump(), net.series_dump(), net.flight_dump());
            (net.pool().stats(), net.pool().free_buffers(), dumps)
        };
        let sharded = run(ShardKind::Sharded { shards: 2 });
        let parallel = run(ShardKind::Parallel { shards: 2 });
        assert_eq!(
            sharded, parallel,
            "pool counters and dumps are arm-independent"
        );
        let (stats, ..) = sharded;
        assert!(
            stats.recycled > 0 && stats.released > 0,
            "the lanes recycle: {stats:?}"
        );
    }

    #[test]
    fn sched_stats_sum_every_lane_wheel_counters_included() {
        let mut net = two_lane_net(ShardKind::Sharded { shards: 2 });
        net.run_until(Instant::from_secs(10));
        let [a, b] = [0, 1].map(|lane| net.lanes[lane].sched.stats().wheel);
        assert!(b.windows_paged > 0 && b.distributed > 0, "lane 1 pages its wheel: {b:?}");
        let total = net.sched_stats().wheel;
        assert_eq!(total.windows_paged, a.windows_paged + b.windows_paged);
        assert_eq!(total.overflow_inserts, a.overflow_inserts + b.overflow_inserts);
        assert_eq!(total.distributed, a.distributed + b.distributed);
    }

    #[test]
    fn a_panic_in_a_worker_lane_reaches_run_until_with_its_payload() {
        use std::sync::mpsc;
        use std::thread::{self, ThreadId};

        /// Panics at `at`, after noting which thread ran it.
        struct Bomb {
            at: Instant,
            ran_on: mpsc::Sender<ThreadId>,
        }
        impl Application for Bomb {
            fn poll(&mut self, _node: &mut Node, now: Instant) {
                if now >= self.at {
                    self.ran_on.send(thread::current().id()).unwrap();
                    panic!("lane application failed");
                }
            }
            fn next_wake(&self) -> Option<Instant> {
                Some(self.at)
            }
        }
        /// Keeps its own lane's window open until the bomb has run, so
        /// the coordinator cannot have taken the bomb's lane back.
        struct Hold {
            at: Option<Instant>,
            bomb: mpsc::Receiver<ThreadId>,
            ran_on: crate::Shared<Option<ThreadId>>,
        }
        impl Application for Hold {
            fn poll(&mut self, _node: &mut Node, now: Instant) {
                if self.at.is_some_and(|at| now >= at) {
                    self.at = None;
                    if thread::available_parallelism().map_or(1, |n| n.get()) > 1 {
                        let id = self.bomb.recv_timeout(std::time::Duration::from_secs(30));
                        *self.ran_on.lock().unwrap() = id.ok();
                    }
                }
            }
            fn next_wake(&self) -> Option<Instant> {
                self.at
            }
        }

        // Two hosts, one per lane, nothing scheduled but a wake at 1 s
        // on each: both lanes are due in the same window, the first is
        // the coordinator's and the bomb's goes to the worker.
        let (tx, rx) = mpsc::channel();
        let runner = thread::spawn(move || {
            let mut net = Network::with_shards(2, ShardKind::Parallel { shards: 2 });
            let h0 = net.add_host("h0");
            let h1 = net.add_host("h1");
            net.connect(h0, h1, LinkClass::T1Terrestrial);
            let at = Instant::from_secs(1);
            let (ran_on, bomb) = mpsc::channel();
            let bomb_thread = crate::shared(None);
            let hold = Hold {
                at: Some(at),
                bomb,
                ran_on: bomb_thread.clone(),
            };
            net.attach_app(h0, Box::new(hold));
            net.attach_app(h1, Box::new(Bomb { at, ran_on }));
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                net.run_until(Instant::from_secs(2))
            }));
            let payload = caught
                .err()
                .and_then(|panic| panic.downcast_ref::<&str>().map(|s| s.to_string()));
            let bomb_thread = *bomb_thread.lock().unwrap();
            // Joins the worker: a hang here is a hang of the test.
            drop(net);
            tx.send((payload, bomb_thread, thread::current().id()))
                .unwrap();
        });
        let (payload, bomb_thread, coordinator) = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("run_until re-raises and the network drops in bounded time");
        runner.join().unwrap();
        assert_eq!(payload.as_deref(), Some("lane application failed"));
        if thread::available_parallelism().map_or(1, |n| n.get()) > 1 {
            let bomb_thread = bomb_thread.expect("the bomb ran while the coordinator was held");
            assert_ne!(bomb_thread, coordinator, "the panic started on a worker");
        }
    }

    #[test]
    fn eight_lanes_run_on_no_more_threads_than_cores_and_match_sharded() {
        use std::collections::HashSet;
        use std::thread::{self, ThreadId};

        /// Notes every thread its node is serviced on.
        struct Probe(crate::Shared<HashSet<ThreadId>>);
        impl Application for Probe {
            fn poll(&mut self, _node: &mut Node, _now: Instant) {
                self.0.lock().unwrap().insert(thread::current().id());
            }
        }

        let run = |shard: ShardKind| {
            let mut net = Network::with_shards(8, shard);
            let threads = crate::shared(HashSet::new());
            let mut hosts = Vec::new();
            let mut gateways: Vec<NodeId> = Vec::new();
            for i in 0..8 {
                let g = net.add_gateway(format!("g{i}"));
                if let Some(&prev) = gateways.last() {
                    net.connect(prev, g, LinkClass::T1Terrestrial);
                }
                gateways.push(g);
                let h = net.add_host(format!("h{i}"));
                net.connect(h, g, LinkClass::EthernetLan);
                hosts.push(h);
            }
            net.connect(gateways[7], gateways[0], LinkClass::T1Terrestrial);
            for i in 0..8 {
                let to = hosts[(i + 3) % 8];
                let dst = crate::Endpoint::new(net.node(to).primary_addr(), 6000);
                net.attach_app(hosts[i], Box::new(crate::app::CbrSink::new(6000)));
                net.attach_app(
                    hosts[i],
                    Box::new(crate::app::CbrSource::new(
                        dst,
                        Duration::from_millis(50),
                        160,
                        Instant::from_secs(4),
                        Instant::from_secs(8),
                    )),
                );
                net.attach_app(hosts[i], Box::new(Probe(threads.clone())));
            }
            net.run_until(Instant::from_secs(9));
            assert_eq!(net.lane_count(), 8);
            let threads = threads.lock().unwrap().len();
            (
                threads,
                (net.metrics_dump(), net.series_dump(), net.flight_dump()),
            )
        };
        let (_, sharded) = run(ShardKind::Sharded { shards: 8 });
        let (threads, parallel) = run(ShardKind::Parallel { shards: 8 });
        assert_eq!(sharded, parallel, "byte-identical whoever runs the lanes");
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        assert!(
            threads <= cores.min(8),
            "{threads} threads ran lanes on {cores} cores"
        );
        assert_eq!(
            threads > 1,
            cores > 1,
            "every core the host has is put to work"
        );
    }

    /// RIP frames `gateway` offered to its links, by instant (one entry
    /// per instant however many interfaces it advertised on).
    fn rip_instants(
        net: &mut Network,
        gateway: NodeId,
    ) -> Rc<std::cell::RefCell<Vec<Instant>>> {
        use catenet_wire::{IpProtocol, Ipv4Packet, UdpPacket};
        let own: Vec<Ipv4Address> = net.node(gateway).ifaces.iter().map(|i| i.addr).collect();
        let seen = Rc::new(std::cell::RefCell::new(Vec::new()));
        let log = Rc::clone(&seen);
        net.set_tap(Box::new(move |at, frame| {
            let Ok(ip) = Ipv4Packet::new_checked(frame) else {
                return;
            };
            if ip.protocol() != IpProtocol::Udp || !own.contains(&ip.src_addr()) {
                return;
            }
            let Ok(udp) = UdpPacket::new_checked(ip.payload()) else {
                return;
            };
            let mut log = log.borrow_mut();
            if udp.dst_port() == catenet_routing::RIP_PORT && log.last() != Some(&at) {
                log.push(at);
            }
        }));
        seen
    }

    #[test]
    fn pending_wake_earlier_than_the_want_rearms_the_periodic() {
        // h1 — g1 — g2 on raw-IP trunks and h2 on an Ethernet LAN behind
        // g1; a datagram from h1 to h2 crosses g1 every 7 ms, so nearly
        // all of g1's service passes are forwards its idle gate may skip.
        // g1's first periodic, P, falls at its phase: 2.29 s, after the
        // stray wake below.
        //
        // A stray wake: at t = 0 g1's first advertisement to h2 misses
        // ARP, so g1 asks and arms a wake for the retry at 1 s. h2's
        // reply answers within the LAN's delay, and g1 wants only P
        // again — later than the wake still pending. That wake, under
        // transit load from 0.5 s, must be skipped and must re-arm P
        // exactly; were the re-arm lost, the periodic would ride on
        // whichever transit frame came next and drift off its schedule.
        //
        // A triggered round leaves the deadline alone: at 1 s a new
        // network appears behind g2, its triggered update reaches g1,
        // and g1 relays it at T ≈ 1.03 s. Its full tables then leave at
        // P, P + 3 s, … up to 20 s; were the triggered round to re-arm the
        // periodic, they would leave at T + 3k s, each one postponed by
        // the relay.
        let mut net = Network::new(1988);
        let h1 = net.add_host("h1");
        let g1 = net.add_gateway("g1");
        let g2 = net.add_gateway("g2");
        let h2 = net.add_host("h2");
        let h3 = net.add_host("h3");
        net.connect(h1, g1, LinkClass::T1Terrestrial);
        net.connect(g1, g2, LinkClass::T1Terrestrial);
        net.connect(g1, h2, LinkClass::EthernetLan);
        let seen = rip_instants(&mut net, g1);
        let sink = crate::Endpoint::new(net.node(h2).primary_addr(), 9000);
        net.attach_app(h2, Box::new(crate::app::CbrSink::new(9000)));
        net.attach_app(
            h1,
            Box::new(crate::app::CbrSource::new(
                sink,
                Duration::from_micros(7_001),
                160,
                Instant::from_millis(500),
                Instant::from_secs(20),
            )),
        );
        net.run_until(Instant::from_millis(900));
        let periodic = net.node(g1).dv.as_ref().unwrap().poll_at();
        assert!(periodic > Instant::from_secs(1), "g1's phase puts P after the stray: {periodic}");
        assert_eq!(net.node(g1).poll_at(net.now()), Some(periodic), "g1 wants only P");
        assert_eq!(net.node(g1).stats.arp_retries, 0, "h2's reply answered the request");
        assert_eq!(
            net.lanes.slot(g1).next_wake,
            Some(Instant::ZERO + crate::arp::REQUEST_INTERVAL),
            "the answered retry's wake is still pending"
        );
        net.run_until(Instant::from_secs(1));
        assert!(net.node(g1).is_quiet(net.now()), "a transit gateway idles between timers");
        // h1's socket holds no work either (its datagrams leave at the
        // send); its application is what keeps it polled.
        assert!(net.node(h1).is_quiet(net.now()), "a UDP socket is no work");
        assert_eq!(net.lanes.slot(g1).next_wake, Some(periodic), "the stray re-armed P");
        let before = seen.borrow().len();
        net.connect(g2, h3, LinkClass::T1Terrestrial);
        net.run_until(Instant::from_secs(20));

        let seen = seen.borrow();
        let relayed = seen[before];
        assert!(
            relayed > Instant::from_secs(1) && relayed < Instant::from_millis(1_200),
            "g1 relays the triggered update one trunk delay after 1 s: {relayed}"
        );
        let interval = Duration::from_secs(3);
        let expected: Vec<Instant> = (0..6u32).map(|k| periodic + interval * k).collect();
        assert_eq!(&seen[before + 1..], &expected[..], "periodics at P + 3k s exactly");
        assert!(
            net.service_passes(g1) > 2_000,
            "the schedule held under transit load: {} passes",
            net.service_passes(g1)
        );
    }

    #[test]
    fn a_refused_connect_leaves_nothing_behind() {
        let mut net = Network::with_shards(3, ShardKind::Sharded { shards: 2 });
        let h0 = net.add_host("h0");
        let h1 = net.add_host("h1");
        let h2 = net.add_host("h2");
        net.connect(h0, h1, LinkClass::T1Terrestrial);
        net.run_until(Instant::from_secs(1));
        let ifaces = |net: &Network| [h0, h2].map(|id| net.node(id).ifaces.len());
        let before = ifaces(&net);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.connect(h0, h2, LinkClass::T1Terrestrial)
        }));
        assert!(refused.is_err(), "a frozen topology takes no new link");
        assert_eq!(ifaces(&net), before);
        assert_eq!(net.links_meta.len(), 1);
        let default = Ipv4Cidr::new(Ipv4Address::UNSPECIFIED, 0);
        assert!(net.node(h2).static_routes.get(&default).is_none());
    }

    #[test]
    fn the_address_plan_runs_to_its_last_link() {
        let addr = |k| {
            let (cidr, a, b) = link_subnet_plan(k);
            (cidr.to_string(), a.to_string(), b.to_string())
        };
        let plan = |net: &str, a: &str, b: &str| (net.to_string(), a.to_string(), b.to_string());
        assert_eq!(addr(0), plan("10.128.0.0/30", "10.128.0.1", "10.128.0.2"));
        assert_eq!(addr(257), plan("10.129.1.0/30", "10.129.1.1", "10.129.1.2"));
        assert_eq!(
            addr(MAX_LINKS - 1),
            plan("10.255.255.0/30", "10.255.255.1", "10.255.255.2")
        );
    }

    #[test]
    #[should_panic(expected = "address plan exhausted: a network holds at most 32768 links")]
    fn the_address_plan_refuses_one_link_past_it() {
        link_subnet_plan(MAX_LINKS);
    }
}
