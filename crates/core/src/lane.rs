//! Shard lanes: the per-partition execution engine behind the network's
//! event loop.
//!
//! The network partitions its nodes into K contiguous *lanes* — one
//! lane covering everything under `ShardKind::Single`, which is K = 1
//! through the same round, not a path of its own. Each [`Lane`] owns
//! its nodes (one [`NodeSlot`] each), its own scheduler,
//! the outgoing direction of every link whose sender lives in it with
//! a per-direction RNG, and its packet pool — everything a window of
//! virtual time needs, and nothing else: no telemetry, no other lane.
//! That is also everything `Send` needs, so who runs a window is a
//! scheduling decision, not a safety argument. The coordinator
//! (`Network::run_until`) decides window bounds, runs each lane over
//! the window (itself, or under `ShardKind::Parallel` by handing the
//! boxed lane to a [`Workers`] thread and having it back at the
//! barrier), and absorbs two kinds of output there:
//!
//! - **cross-lane frames** ([`CrossFrame`]): buffered during the
//!   window, scheduled into the destination lane at the barrier. The
//!   conservative per-pair lookahead (lane i's window ends strictly
//!   before anything any peer does next could reach it — see
//!   `Network::run_until` and DESIGN.md "The lane protocol") plus the
//!   ≥ 1 µs serialization floor guarantee every crossing frame lands
//!   strictly after the limit its destination lane ran to, so
//!   absorbing it never rewinds a lane — `Network::absorb` asserts
//!   exactly that, per frame, in debug builds.
//! - **harvest entries** ([`HarvestEntry`]): a node's event record,
//!   taken after a full pass that left something in it — *bumped* by
//!   the node where each thing happened, carried as is, and *applied*
//!   coordinator-side (`EventRecord::apply`) in `(instant, token)`
//!   order. The token is the smallest delivery key that touched the
//!   node at that instant, which is exactly the order a single lane
//!   services nodes — so recorder rows, counters and convergence-tracer
//!   calls land in the same order for every K, and the dumps cannot
//!   tell how many lanes produced them. Because per-pair limits are
//!   heterogeneous, the coordinator banks these and applies only up to
//!   the round's global safe horizon (`min` of all lane limits).
//!
//! Determinism across K rests on the delivery *key*: every scheduled
//! event carries `(origin node) << 32 | per-origin sequence`, and a
//! same-instant batch is sorted by key before delivery in every mode.
//! FIFO-per-sender is preserved (one origin's keys ascend), and the
//! cross-origin order becomes a pure function of the topology and seed
//! instead of an artifact of queue-insertion interleaving — which is
//! what makes it shard-count-independent.

use crate::app::Application;
use crate::events::EventRecord;
use crate::node::Node;
use crate::pool::{PacketBuf, PacketPool};
use catenet_sim::{Duration, Instant, Link, LinkOutcome, Rng, Scheduler};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::thread::{self, JoinHandle};

use crate::network::{FrameTap, LinkId, NodeId};

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
#[derive(Clone, Copy)]
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
    /// The destination lane.
    pub lane: u32,
    pub keyed: Keyed,
}

/// What one node reported at one instant: the record its pass took.
/// `token` is the smallest delivery key that touched the node at `at`
/// (0 for a coordinator kick, which is absorbed immediately and never
/// merges with window entries); sorting entries by `(at, token)`
/// reproduces the single-lane service order exactly.
pub(crate) struct HarvestEntry {
    pub at: Instant,
    pub token: u64,
    pub node: NodeId,
    /// Boxed: a bank can hold tens of thousands of entries (a
    /// convergence storm reports a route change per gateway pass), and
    /// merging banks and sorting them should move 32-byte entries, not
    /// 144-byte records.
    pub record: Box<EventRecord>,
}

/// One node and everything the loop keeps about it, side by side: a
/// service pass walks one slot, a split moves a node whole. What the
/// node is (honest or compromised included) lives in the [`Node`]; a
/// slot holds only what driving it takes.
pub(crate) struct NodeSlot {
    /// Private to this module: the coordinator reaches it through
    /// [`NodeSlot::node`] / [`NodeSlot::node_mut`], so it cannot change
    /// a node and leave its idle gate armed.
    node: Node,
    pub apps: Vec<Box<dyn Application>>,
    /// The earliest wake pending in the lane's scheduler, if any.
    pub next_wake: Option<Instant>,
    /// Origin sequence for delivery keys (see [`Keyed`]).
    pub event_seq: u64,
    /// Service passes executed (each pass may handle a whole batch of
    /// same-instant events; see `Network::run_until`).
    pub service_count: u64,
    /// The node's `tcp_bytes_acked` at the previous sample (goodput
    /// rows).
    pub sampled_acked: u64,
    /// Per interface: the link behind it. `None` (or a short row) =
    /// nothing connected.
    pub endpoints: Vec<Option<Endpoint>>,
}

impl NodeSlot {
    pub fn new(node: Node) -> NodeSlot {
        NodeSlot {
            node,
            apps: Vec::new(),
            next_wake: None,
            event_seq: 0,
            service_count: 0,
            sampled_acked: 0,
            endpoints: Vec::new(),
        }
    }

    pub fn node(&self) -> &Node {
        &self.node
    }

    /// Whatever the caller does with the node, its next service pass is
    /// a full one.
    pub fn node_mut(&mut self) -> &mut Node {
        self.node.set_idle_gate(None);
        &mut self.node
    }
}

/// One shard lane: a contiguous node range plus everything its windows
/// own outright.
pub(crate) struct Lane {
    /// Which lane this is (what [`Endpoint::dest_lane`] names).
    pub index: usize,
    /// First node id covered.
    pub lo: NodeId,
    /// The nodes `lo..lo + slots.len()`.
    pub slots: Vec<NodeSlot>,
    /// The lane's scheduler. Lane 0 doubles as the boot scheduler
    /// before a K>1 network splits.
    pub sched: Scheduler<Keyed>,
    /// Directed links whose sender lives in this lane.
    pub links: Vec<LaneLink>,
    /// Frames bound for other lanes, buffered until the barrier.
    pub cross: Vec<CrossFrame>,
    /// What nodes reported this window, absorbed at the barrier.
    pub harvests: Vec<HarvestEntry>,
    /// Frames offered to links since the last barrier absorb.
    pub frames_offered: u64,
    /// Unconnected-interface drops since the last barrier absorb.
    pub unconnected_drops: u64,
    /// The pool this lane's nodes allocate from: the network's own
    /// before a split, one of its lane pools after.
    pub pool: PacketPool,
    /// Scratch: the same-instant batch being delivered.
    batch: Vec<Keyed>,
    /// Scratch: nodes touched at the current instant, with the first
    /// (= smallest) key that touched each.
    touched: Vec<(NodeId, u64)>,
    /// Scratch: outbox swap target, so drains allocate nothing in
    /// steady state.
    outbox: Vec<(usize, PacketBuf)>,
}

// Ownership is the whole thread-safety argument.
const _: fn() = || {
    fn is_send<T: Send>() {}
    is_send::<Lane>();
};

impl Lane {
    pub fn new(index: usize, lo: NodeId, sched: Scheduler<Keyed>, pool: PacketPool) -> Lane {
        Lane {
            index,
            lo,
            slots: Vec::new(),
            sched,
            links: Vec::new(),
            cross: Vec::new(),
            harvests: Vec::new(),
            frames_offered: 0,
            unconnected_drops: 0,
            pool,
            batch: Vec::new(),
            touched: Vec::new(),
            outbox: Vec::new(),
        }
    }

    /// One past the last node id covered.
    pub fn hi(&self) -> NodeId {
        self.lo + self.slots.len()
    }

    fn slot(&mut self, id: NodeId) -> &mut NodeSlot {
        &mut self.slots[id - self.lo]
    }

    /// Mint the next delivery key originating at `id`.
    fn next_key(&mut self, id: NodeId) -> u64 {
        let seq = &mut self.slot(id).event_seq;
        let key = ((id as u64) << 32) | *seq;
        *seq += 1;
        key
    }

    /// Run this lane up to and including `limit`: drain each event
    /// instant as one key-sorted batch, then service every touched
    /// node once, in first-touch (= ascending-key) order. `tap` is the
    /// caller's frame tap, not `Send`: only the coordinator passes one.
    pub fn run_window(&mut self, limit: Instant, tap: &mut Option<FrameTap>) {
        while let Some(at) = self.sched.peek_time() {
            if at > limit {
                break;
            }
            let mut batch = core::mem::take(&mut self.batch);
            batch.push(self.sched.pop().expect("peeked").1);
            while let Some(keyed) = self.sched.pop_due(at) {
                batch.push(keyed);
            }
            batch.sort_unstable_by_key(|keyed| keyed.key);
            let mut touched = core::mem::take(&mut self.touched);
            touched.clear();
            for keyed in batch.drain(..) {
                let (node, key) = match keyed.event {
                    Event::Frame { to, iface, frame } => {
                        self.slot(to).node.handle_frame(at, iface, frame);
                        (to, keyed.key)
                    }
                    Event::Wake { node } => {
                        let slot = self.slot(node);
                        if slot.next_wake == Some(at) {
                            slot.next_wake = None;
                        }
                        // A wake is the clock touching the node: whatever
                        // it was armed for is due, and a wake earlier than
                        // the node's current want has to re-arm the later
                        // one, which only a full pass does.
                        slot.node.set_idle_gate(None);
                        (node, keyed.key)
                    }
                };
                if !touched.iter().any(|&(n, _)| n == node) {
                    touched.push((node, key));
                }
            }
            self.batch = batch;
            for &(node, token) in &touched {
                self.service_node(node, at, token, tap);
            }
            self.touched = touched;
        }
    }

    /// One service pass: applications, protocol machinery, the node's
    /// event record, outbox drain, timer re-arm. `token` orders the
    /// resulting harvest entry among same-instant entries.
    ///
    /// A pass costs what is due. When the last full pass left the node
    /// with nothing but timers, none of them is due yet, the wake they
    /// asked for is still pending and only forwards have touched the
    /// node since (its idle gate is still armed), everything but the
    /// outbox drain is a no-op and is skipped — exactly, not
    /// approximately: see DESIGN.md, "What a service pass costs".
    pub fn service_node(
        &mut self,
        id: NodeId,
        now: Instant,
        token: u64,
        tap: &mut Option<FrameTap>,
    ) {
        let slot = self.slot(id);
        slot.service_count += 1;
        let pending = slot.next_wake;
        let skip = slot.node.idle_gate().is_some_and(|gate| {
            now < gate.until
                && gate
                    .wake
                    .is_none_or(|want| pending.is_some_and(|at| at <= want))
        });
        if skip {
            // Debug builds check every skipped pass: the node is idle
            // when recomputed from scratch and has nothing to report.
            debug_assert!(slot.apps.is_empty(), "skipped a pass with apps");
            #[cfg(debug_assertions)]
            slot.node.assert_idle(now);
        } else {
            // Applications first: they may write into sockets.
            for app in &mut slot.apps {
                app.poll(&mut slot.node, now);
            }
            // Protocol machinery: timers, routing, socket dispatch.
            slot.node.service(now);
            if let Some(record) = slot.node.take_events() {
                self.harvests.push(HarvestEntry {
                    at: now,
                    token,
                    node: id,
                    record: Box::new(record),
                });
            }
        }
        // Push produced frames onto links. Swap semantics keep the
        // steady state allocation-free.
        let mut outbox = core::mem::take(&mut self.outbox);
        self.slot(id).node.swap_outbox(&mut outbox);
        for (iface, frame) in outbox.drain(..) {
            self.transmit(id, iface, frame, now, tap);
        }
        self.outbox = outbox;
        let slot = &mut self.slots[id - self.lo];
        // Still armed after the drain (a queue-overflow quench can miss
        // in ARP and start a retry timer): the wake the node wants is the
        // one already pending.
        if skip && slot.node.idle_gate().is_some() {
            return;
        }
        // Timer wake scheduling, and the gate for the passes to come.
        let timers = slot.node.timers(now);
        let gate = timers.gate.filter(|_| slot.apps.is_empty());
        slot.node.set_idle_gate(gate);
        let mut want = timers.wake;
        for app in &slot.apps {
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
            if slot.next_wake.is_none_or(|pending| at < pending) {
                slot.next_wake = Some(at);
                let key = self.next_key(id);
                self.sched.schedule_at(
                    at,
                    Keyed {
                        key,
                        event: Event::Wake { node: id },
                    },
                );
            }
        }
    }

    /// Offer a frame to the link behind (`from`, `iface`). Same-lane
    /// deliveries go straight into the lane scheduler; cross-lane
    /// deliveries are buffered for the barrier.
    pub fn transmit(
        &mut self,
        from: NodeId,
        iface: usize,
        mut frame: PacketBuf,
        now: Instant,
        tap: &mut Option<FrameTap>,
    ) {
        let slot = &mut self.slots[from - self.lo];
        let Some(&Some(end)) = slot.endpoints.get(iface) else {
            self.unconnected_drops += 1;
            return;
        };
        if let Some(tap) = tap {
            tap(now, &frame);
        }
        self.frames_offered += 1;
        let dest = end.dest;
        let lane_link = &mut self.links[end.link_idx as usize];
        match lane_link.link.transmit(now, &mut frame, &mut lane_link.rng) {
            LinkOutcome::Delivered { at, .. } => {
                let keyed = Keyed {
                    key: self.next_key(from),
                    event: Event::Frame {
                        to: dest.node,
                        iface: dest.iface,
                        frame,
                    },
                };
                if end.dest_lane as usize == self.index {
                    self.sched.schedule_at(at, keyed);
                } else {
                    let lane = end.dest_lane;
                    self.cross.push(CrossFrame { at, lane, keyed });
                }
            }
            LinkOutcome::Dropped(reason) => {
                // Datagram service: the DESTINATION is never told. But
                // the offering node knows its own queue overflowed —
                // 1988 gateways answered that with ICMP source quench.
                if reason == catenet_sim::DropReason::QueueFull {
                    slot.node.on_queue_drop(now, iface, &frame);
                    for (out_iface, out_frame) in slot.node.take_outbox() {
                        // One level of recursion at most: quenches are
                        // ICMP errors, and errors about errors are
                        // suppressed by `icmp_error_for`.
                        self.transmit(from, out_iface, out_frame, now, tap);
                    }
                }
            }
        }
    }
}

/// One lane's part in a round of windows, as the coordinator plans it.
#[derive(Clone, Copy, Default)]
pub(crate) struct LaneWindow {
    /// The lane's next pending event when the round began.
    pub next: Option<Instant>,
    /// How far the lane may run (inclusive).
    pub limit: Instant,
    /// Whether anything is due within the limit: the lane runs.
    pub due: bool,
}

/// The network's lanes, in `NodeId` order. Between windows every lane
/// is home and the coordinator reaches nodes through here as plain
/// `&mut` code; inside [`Workers::run_windows`] they are out running.
/// Boxed: a lane is ~2 KB, and changing threads should move a pointer.
#[derive(Default)]
#[allow(clippy::vec_box)]
pub(crate) struct Lanes(Vec<Box<Lane>>);

impl core::ops::Deref for Lanes {
    type Target = Vec<Box<Lane>>;
    fn deref(&self) -> &Vec<Box<Lane>> {
        &self.0
    }
}

impl core::ops::DerefMut for Lanes {
    fn deref_mut(&mut self) -> &mut Vec<Box<Lane>> {
        &mut self.0
    }
}

impl Lanes {
    /// Which lane node `id` lives in.
    pub fn of(&self, id: NodeId) -> usize {
        self.partition_point(|lane| lane.hi() <= id)
    }

    pub fn slot(&self, id: NodeId) -> &NodeSlot {
        let lane = &self[self.of(id)];
        &lane.slots[id - lane.lo]
    }

    pub fn slot_mut(&mut self, id: NodeId) -> &mut NodeSlot {
        let lane = self.of(id);
        let lane = &mut self[lane];
        &mut lane.slots[id - lane.lo]
    }

    /// Every node's slot, in `NodeId` order.
    pub fn slots(&self) -> impl Iterator<Item = &NodeSlot> {
        self.iter().flat_map(|lane| &lane.slots)
    }

    /// Every node's slot, in `NodeId` order.
    pub fn slots_mut(&mut self) -> impl Iterator<Item = &mut NodeSlot> {
        self.iter_mut().flat_map(|lane| &mut lane.slots)
    }
}

// ------------------------------------------------------------ workers

/// Polls of a channel either side of a hand-off makes before it blocks
/// on it. A futex wake through a hypervisor costs as much as a whole
/// window of a busy ring (DESIGN.md, "The lane protocol"), so a worker
/// only helps if it is still awake when the next window arrives: the
/// bound outlasts the coordinator's barrier work between two windows
/// and caps what a pause burns at well under a millisecond.
const HANDOFF_SPINS: u32 = 4_000;

type Panic = Box<dyn Any + Send>;

/// One lane's window, travelling by value: the lane, how far to run.
type Job = (Box<Lane>, Instant);

/// Receive from `rx`, polling before blocking; `None` once the other
/// end is gone. Every so often a poll yields instead: should the two
/// threads be sharing a core, the one being waited for gets it at once.
fn receive<T>(rx: &Receiver<T>) -> Option<T> {
    for spin in 0..HANDOFF_SPINS {
        match rx.try_recv() {
            Ok(value) => return Some(value),
            Err(TryRecvError::Disconnected) => return None,
            Err(TryRecvError::Empty) if spin % 32 == 31 => thread::yield_now(),
            Err(TryRecvError::Empty) => std::hint::spin_loop(),
        }
    }
    rx.recv().ok()
}

/// Run each job's window; a panic comes back as a value, so the lanes
/// always travel home and the coordinator decides where to re-raise it.
fn run_jobs(jobs: &mut [Job]) -> Option<Panic> {
    catch_unwind(AssertUnwindSafe(|| {
        for (lane, limit) in jobs {
            lane.run_window(*limit, &mut None);
        }
    }))
    .err()
}

struct Worker {
    /// Lanes out, then back with whatever panicked on the way. The
    /// same `Vec` makes every round trip, so a window allocates nothing.
    jobs: SyncSender<Vec<Job>>,
    done: Receiver<(Vec<Job>, Option<Panic>)>,
    thread: JoinHandle<()>,
}

/// The threads of a `ShardKind::Parallel` network, spawned once and
/// joined when the network drops. Each window the coordinator deals
/// the due lanes round-robin over itself and the workers, runs its own
/// share, and has every lane home again before it returns.
pub(crate) struct Workers {
    workers: Vec<Worker>,
    /// Scratch: each runner's share of a window, the coordinator's
    /// first, then one for the lanes that sit the window out.
    shares: Vec<Vec<Job>>,
}

impl Workers {
    pub fn spawn(count: usize) -> Workers {
        let workers = (0..count)
            .map(|_| {
                let (jobs, posted) = sync_channel::<Vec<Job>>(1);
                let (back, done) = sync_channel(1);
                let thread = thread::spawn(move || {
                    while let Some(mut share) = receive(&posted) {
                        let panic = run_jobs(&mut share);
                        if back.send((share, panic)).is_err() {
                            break;
                        }
                    }
                });
                Worker { jobs, done, thread }
            })
            .collect();
        Workers {
            workers,
            shares: (0..count + 2).map(|_| Vec::new()).collect(),
        }
    }

    /// Run every lane of `round` that is due up to its limit. A panic
    /// inside any window is re-raised here, after every lane is home.
    pub fn run_windows(&mut self, lanes: &mut Lanes, round: &[LaneWindow]) {
        let runners = self.shares.len() - 1;
        let mut dealt = 0;
        for (lane, window) in lanes.drain(..).zip(round) {
            // The last share is the lanes with nothing due.
            let share = if window.due { dealt % runners } else { runners };
            dealt += usize::from(window.due);
            self.shares[share].push((lane, window.limit));
        }
        let (own, rest) = self.shares.split_first_mut().expect("runners >= 1");
        // A lone lane is the coordinator's: no hand-off at all.
        let posted = dealt.min(runners).saturating_sub(1);
        for (share, worker) in rest.iter_mut().zip(&self.workers).take(posted) {
            let share = core::mem::take(share);
            worker.jobs.send(share).expect("worker alive");
        }
        let mut panic = run_jobs(own);
        for (share, worker) in rest.iter_mut().zip(&self.workers).take(posted) {
            let (returned, theirs) = receive(&worker.done).expect("worker alive");
            *share = returned;
            panic = panic.or(theirs);
        }
        for share in &mut self.shares {
            lanes.extend(share.drain(..).map(|(lane, _)| lane));
        }
        lanes.sort_unstable_by_key(|lane| lane.index);
        if let Some(panic) = panic {
            resume_unwind(panic);
        }
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        for Worker { jobs, thread, .. } in self.workers.drain(..) {
            // Hanging up is the worker's signal to leave. It catches
            // its windows' panics, so the join has nothing to report.
            drop(jobs);
            let _ = thread.join();
        }
    }
}
