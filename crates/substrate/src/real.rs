//! The real-I/O realization: one OS process, one node, links as UDP
//! tunnels.
//!
//! Where the simulator realizes a link as a pair of delay/loss queues
//! inside one process, [`RealSubstrate`] realizes it as a pair of OS
//! UDP sockets: each frame the node emits becomes a [`crate::tunnel`]
//! record in its link's outgoing datagram, which leaves for the peer's
//! socket when the pass that filled it ends; each record of a datagram
//! the OS delivers is defensively decoded into a pooled buffer and
//! handed to [`Node::handle_frame`] exactly as a simulated frame would
//! be. The node — ARP, IP forwarding, DV routing, TCP, sockets,
//! applications — cannot tell the difference; that is the paper's
//! architecture/realization split made executable.
//!
//! Time is the other half of the realization. Virtual time jumps from
//! event to event; here a [`Clock`] maps monotonic wall time onto the
//! same microsecond [`Instant`]s, and [`RealSubstrate::run_until`]
//! sleeps in that clock until the next timer is due *or a frame
//! arrives*, whichever is first. Arrival is readiness-driven: under a
//! clock that really waits, each [`UdpTunnel`] gives its socket to one
//! reader thread that blocks in `recv`, fills a buffer from a small
//! ring the pump lends it, and rings the substrate's [`Doorbell`],
//! which unparks the thread sleeping inside [`Clock::sleep_until`]. A
//! full ring blocks the reader, so a backlog waits in the kernel's
//! receive buffer and nothing new can be dropped or grow without
//! bound. A clock that does not wait ([`crate::clock::TestClock`])
//! cannot wait for a thread either, so under it the pump polls the
//! nonblocking sockets itself; both routes end in one decode-and-count
//! function, a record at a time. Determinism is *not* promised on this
//! arm — the OS schedules delivery — which is exactly why the simulator
//! remains the CI arm for every byte-pinned experiment.
//!
//! [`UdpTunnel`] is the one kind of link; an interface without one is
//! a stub. `RealSubstrate` only ever asks a tunnel to queue, flush or
//! poll frames, so a TUN device (see the crate docs) would be a second
//! link type beside it, added when it exists.

use crate::clock::{Clock, WallClock};
use crate::config::NodeConfig;
use crate::tunnel::{self, TunnelStats, MAX_DATAGRAM, MAX_FRAME, TUNNEL_HEADER};
use crate::Substrate;
use catenet_core::app::Application;
use catenet_core::iface::{Framing, Iface};
use catenet_core::{Node, NodeRole, PacketBuf, PacketPool, PoolStats};
use catenet_sim::{Duration, Instant};
use catenet_wire::EthernetAddress;
use std::io;
use std::net::UdpSocket;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle, Thread};

/// Buffers a reader thread may hold (empty or filled) before it blocks,
/// leaving the rest of its datagram in hand and the rest of a burst in
/// the kernel's receive buffer.
pub const RING: usize = 32;

/// How long a pump that just ingested frames keeps looking at its
/// rings before it parks. A sender mid-burst delivers the next frame
/// within tens of microseconds; parking for it costs a futex round
/// trip each way and, on a busy host, a place at the back of the run
/// queue. Only an ingesting pass earns the budget, so an idle node
/// never polls. One constant, measured (DESIGN.md "What a wake
/// costs"), not an option.
const LINGER: std::time::Duration = std::time::Duration::from_micros(100);

/// How long a reader waits in `recv` before it looks at its stop flag:
/// the bound on how long dropping a tunnel takes.
const READER_TIMEOUT: std::time::Duration = std::time::Duration::from_millis(25);

/// How reader threads wake the pump: they count what they queue and
/// unpark whichever thread last entered [`RealSubstrate::run_until`].
///
/// A frame is counted before it can be taken and the pump uncounts
/// only what it took, so the count is never below zero, whatever the
/// interleaving. The unpark comes after the frame is queued, and
/// `unpark` leaves a token when the pump is not parked yet, so a frame
/// queued between the pump's last look at its rings and its
/// `park_timeout` makes that park return at once: drain-then-park
/// cannot lose a wake. A fresh one ([`Default`]) has no listener yet;
/// frames queue all the same.
#[derive(Default)]
pub struct Doorbell {
    pump: Mutex<Option<Thread>>,
    waiting: AtomicUsize,
    high_water: AtomicUsize,
}

impl Doorbell {
    /// The calling thread is the pump from now on.
    fn listen(&self) {
        *self.pump.lock().unwrap_or_else(PoisonError::into_inner) = Some(thread::current());
    }

    /// A reader queues one frame with `queue`, which says whether it
    /// went, and wakes the pump if it did. The count goes up first: the
    /// pump may take the frame the moment `queue` pushes it, and
    /// uncounts it when it does.
    fn publish(&self, queue: impl FnOnce() -> bool) -> bool {
        let waiting = self.waiting.fetch_add(1, Ordering::SeqCst) + 1;
        if !queue() {
            self.waiting.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        self.high_water.fetch_max(waiting, Ordering::Relaxed);
        if let Some(pump) = &*self.pump.lock().unwrap_or_else(PoisonError::into_inner) {
            pump.unpark();
        }
        true
    }

    /// The pump took one frame.
    fn took(&self) {
        self.waiting.fetch_sub(1, Ordering::SeqCst);
    }

    /// Frames queued by readers and not yet taken by the pump.
    fn waiting(&self) -> usize {
        self.waiting.load(Ordering::SeqCst)
    }

    /// Watch the rings for up to `budget`; whether a frame showed up.
    fn linger(&self, budget: std::time::Duration) -> bool {
        let started = std::time::Instant::now();
        while self.waiting() == 0 {
            if started.elapsed() >= budget {
                return false;
            }
            // Yield, never spin: with more runnable threads than cores
            // the reader this waits for may need this very core, and a
            // kernel that does not preempt leaves a spinner on it.
            thread::yield_now();
        }
        true
    }
}

/// Where a tunnel's frames come from.
enum Ingress {
    /// The pump polls the nonblocking socket itself, into this.
    Poll(Inbox),
    /// A reader thread is the socket's only receiver.
    Reader(Reader),
}

/// The reader thread's side of a tunnel, as the pump holds it.
struct Reader {
    /// Empty buffers, pump to reader. `None` once the tunnel is
    /// dropping: a reader blocked on an empty ring sees the hang-up.
    empties: Option<SyncSender<PacketBuf>>,
    /// Filled buffers, reader to pump.
    filled: Receiver<PacketBuf>,
    doorbell: Arc<Doorbell>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

/// Room for any UDP payload, so no datagram is silently cut to fit.
const DATAGRAM_ROOM: usize = 1 << 16;

/// A received datagram and how far its records have been read.
struct Inbox {
    bytes: Box<[u8]>,
    /// The records not read yet; `None` once the datagram is done.
    unread: Option<Range<usize>>,
}

impl Inbox {
    /// On the heap: a reader thread's whole stack is 64 KB.
    fn new() -> Inbox {
        Inbox {
            bytes: vec![0; DATAGRAM_ROOM].into_boxed_slice(),
            unread: None,
        }
    }

    /// Take the next datagram from `socket`; the last must be done.
    fn recv(&mut self, socket: &UdpSocket, stats: &Mutex<TunnelStats>) -> io::Result<()> {
        let n = socket.recv(&mut self.bytes)?;
        lock_stats(stats).datagrams += 1;
        self.unread = Some(0..n);
        Ok(())
    }

    /// [`accept`] the next record of the datagram in hand (with none in
    /// hand, `spare` comes straight back).
    fn accept(
        &mut self,
        link_id: u16,
        stats: &Mutex<TunnelStats>,
        spare: PacketBuf,
    ) -> Result<PacketBuf, PacketBuf> {
        let Some(unread) = self.unread.take() else {
            return Err(spare);
        };
        let records = &self.bytes[unread.clone()];
        let (verdict, rest) = accept(link_id, &mut lock_stats(stats), records, spare);
        self.unread = rest.map(|rest| unread.end - rest.len()..unread.end);
        verdict
    }
}

/// A UDP-tunnel link endpoint: frames ride [`crate::tunnel`] records
/// between two bound sockets, as many to a datagram as one pass has.
///
/// No call may block: the pump is the substrate's only thread that
/// touches the node. Sending is best-effort — real networks drop — and
/// [`recv_frame`](UdpTunnel::recv_frame) returns `None` when nothing is
/// pending.
pub struct UdpTunnel {
    /// With a reader thread, this handle only sends.
    socket: UdpSocket,
    link_id: u16,
    stats: Arc<Mutex<TunnelStats>>,
    pool: PacketPool,
    ingress: Ingress,
    /// Records queued for the peer: the next datagram.
    outgoing: Vec<u8>,
}

impl UdpTunnel {
    /// Bind `local` and aim at `remote`. The socket is connected, so
    /// datagrams from other sources are filtered by the OS.
    ///
    /// Received frames land in buffers from `pool`. With a `doorbell`
    /// the tunnel starts a reader thread that blocks on the socket and
    /// rings it per frame; without one the socket is nonblocking and
    /// [`UdpTunnel::recv_frame`] polls it.
    pub fn new(
        local: &str,
        remote: &str,
        link_id: u16,
        pool: PacketPool,
        doorbell: Option<Arc<Doorbell>>,
    ) -> io::Result<UdpTunnel> {
        let socket = UdpSocket::bind(local)?;
        socket.connect(remote)?;
        let stats = Arc::new(Mutex::new(TunnelStats::default()));
        let ingress = match doorbell {
            None => {
                socket.set_nonblocking(true)?;
                Ingress::Poll(Inbox::new())
            }
            Some(doorbell) => {
                // `try_clone` shares one open file description, and with
                // it O_NONBLOCK and SO_RCVTIMEO: the socket blocks, the
                // timeout is the reader's, and this handle never reads.
                socket.set_read_timeout(Some(READER_TIMEOUT))?;
                let (empties, reader_empties) = sync_channel(RING);
                let (reader_filled, filled) = sync_channel(RING);
                for _ in 0..RING {
                    empties
                        .try_send(spare(&pool))
                        .expect("the ring holds RING buffers");
                }
                let stop = Arc::new(AtomicBool::new(false));
                let reader = ReaderLoop {
                    socket: socket.try_clone()?,
                    link_id,
                    stats: Arc::clone(&stats),
                    empties: reader_empties,
                    filled: reader_filled,
                    doorbell: Arc::clone(&doorbell),
                    stop: Arc::clone(&stop),
                };
                let thread = thread::Builder::new()
                    .name(format!("tunnel-rx-{link_id}"))
                    .stack_size(64 * 1024)
                    .spawn(move || reader.run())?;
                Ingress::Reader(Reader {
                    empties: Some(empties),
                    filled,
                    doorbell,
                    stop,
                    thread: Some(thread),
                })
            }
        };
        Ok(UdpTunnel {
            socket,
            link_id,
            stats,
            pool,
            ingress,
            outgoing: Vec::with_capacity(MAX_DATAGRAM),
        })
    }

    /// The local socket address actually bound (useful with port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.socket.local_addr()
    }
}

/// An empty receive buffer: a whole recycled pool buffer, which
/// [`MAX_FRAME`] fills exactly, with nothing in it yet — a record is
/// appended, so no byte is zeroed first and none of a previous frame's
/// can show. No headroom: egress copies a frame into its datagram, so
/// nothing is ever prepended in place.
fn spare(pool: &PacketPool) -> PacketBuf {
    pool.alloc_header(0, 0, MAX_FRAME)
}

/// The one way a record becomes a frame, whoever received its
/// datagram: decode the first of `records` against `link_id`, count the
/// verdict in `stats`, append an accepted frame to the empty `spare` (a
/// rejected record hands it back, still empty). Also returns the records left to read:
/// `None` once the datagram is done, after its last record or at a
/// malformed one, which takes the rest of the datagram with it.
fn accept<'a>(
    link_id: u16,
    stats: &mut TunnelStats,
    records: &'a [u8],
    mut spare: PacketBuf,
) -> (Result<PacketBuf, PacketBuf>, Option<&'a [u8]>) {
    match tunnel::decode_next(link_id, records) {
        Ok((frame, rest)) => {
            stats.accepted += 1;
            spare.append(frame);
            (Ok(spare), (!rest.is_empty()).then_some(rest))
        }
        Err(reason) => {
            stats.record(reason);
            (Err(spare), None)
        }
    }
}

fn lock_stats(stats: &Mutex<TunnelStats>) -> std::sync::MutexGuard<'_, TunnelStats> {
    // Counters only: valid at every step, whoever panicked.
    stats.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What the reader thread owns.
struct ReaderLoop {
    socket: UdpSocket,
    link_id: u16,
    stats: Arc<Mutex<TunnelStats>>,
    empties: Receiver<PacketBuf>,
    filled: SyncSender<PacketBuf>,
    doorbell: Arc<Doorbell>,
    stop: Arc<AtomicBool>,
}

impl ReaderLoop {
    fn run(self) {
        let mut inbox = Inbox::new();
        // Take a buffer before a record: with the ring empty this
        // blocks, and the rest of the datagram in hand and whatever
        // arrives meanwhile wait, the latter in the kernel.
        while let Ok(mut spare) = self.empties.recv() {
            let frame = loop {
                if inbox.unread.is_none() {
                    if self.stop.load(Ordering::SeqCst) {
                        return;
                    }
                    // A timeout is the cue to look at `stop`; any other
                    // error is a connected socket reporting an ICMP
                    // error (peer not up yet): loss, as on a wire.
                    if inbox.recv(&self.socket, &self.stats).is_err() {
                        continue;
                    }
                }
                match inbox.accept(self.link_id, &self.stats, spare) {
                    Ok(frame) => break frame,
                    Err(unused) => spare = unused,
                }
            };
            if !self.doorbell.publish(|| self.filled.try_send(frame).is_ok()) {
                return; // the tunnel is gone
            }
        }
    }
}

impl UdpTunnel {
    /// Queue a frame for the peer. Returns the datagrams this had to
    /// ship first to make room for it (0 or 1).
    pub fn send_frame(&mut self, frame: PacketBuf) -> usize {
        let shipped = if self.outgoing.len() + TUNNEL_HEADER + frame.len() > MAX_DATAGRAM {
            self.flush()
        } else {
            0
        };
        let at = self.outgoing.len();
        self.outgoing.resize(at + TUNNEL_HEADER, 0);
        tunnel::write_header(self.link_id, frame.len(), &mut self.outgoing[at..]);
        self.outgoing.extend_from_slice(&frame);
        shipped
    }

    /// Ship what is queued, without waiting for more. Returns the
    /// datagrams shipped (0 or 1).
    pub fn flush(&mut self) -> usize {
        if self.outgoing.is_empty() {
            return 0;
        }
        // Best-effort, like the wire: a full socket buffer or an
        // unreachable peer is a dropped datagram, and TCP/RIP recover
        // exactly as they do from simulated loss.
        let _ = self.socket.send(&self.outgoing);
        self.outgoing.clear();
        1
    }

    /// Poll one pending frame, without blocking.
    pub fn recv_frame(&mut self) -> Option<PacketBuf> {
        let inbox = match &mut self.ingress {
            Ingress::Reader(reader) => {
                let frame = reader.filled.try_recv().ok()?;
                reader.doorbell.took();
                if let Some(empties) = &reader.empties {
                    // Never full: the frame just taken left a slot.
                    let _ = empties.try_send(spare(&self.pool));
                }
                return Some(frame);
            }
            Ingress::Poll(inbox) => inbox,
        };
        loop {
            if inbox.unread.is_none() {
                // WouldBlock: nothing pending. Anything else is a
                // connected socket surfacing an ICMP error (peer not
                // yet up); treat like loss and move on.
                inbox.recv(&self.socket, &self.stats).ok()?;
            }
            if let Ok(frame) = inbox.accept(self.link_id, &self.stats, spare(&self.pool)) {
                return Some(frame);
            }
        }
    }

    /// Ingress accounting (accepted / dropped-by-reason).
    pub fn stats(&self) -> TunnelStats {
        *lock_stats(&self.stats)
    }

    /// Start shutting down, without waiting for it: dropping the
    /// tunnel finishes the job. A substrate hangs up all its links
    /// before it drops any, so they wind down side by side.
    pub fn hang_up(&mut self) {
        if let Ingress::Reader(reader) = &mut self.ingress {
            reader.stop.store(true, Ordering::SeqCst);
            // A reader blocked on an empty ring leaves now, one blocked
            // in `recv` at its next timeout.
            reader.empties = None;
        }
    }
}

impl Drop for UdpTunnel {
    fn drop(&mut self) {
        self.hang_up();
        if let Ingress::Reader(reader) = &mut self.ingress {
            if let Some(thread) = reader.thread.take() {
                // A reader that panicked has nothing left to clean up,
                // and `Drop` must not panic in turn.
                let _ = thread.join();
            }
        }
    }
}

/// What the pump has done since the substrate was built — the
/// operator's view of the event loop, next to the tunnels' ingress
/// counters ([`RealSubstrate::link_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpStats {
    /// Passes of the loop: ingest, service, applications, flush.
    pub passes: u64,
    /// Sleeps that ended with a frame waiting in a ring.
    pub wakes_by_frame: u64,
    /// Sleeps that ended with nothing waiting: a timer, the deadline.
    pub wakes_by_timer: u64,
    /// Frames handed to the node.
    pub frames: u64,
    /// Frames taken from a link whose interface is down, and dropped
    /// there. With `frames`, every frame the tunnels accepted.
    pub dropped_iface_down: u64,
    /// Most frames ever found waiting in the rings at once.
    pub ring_high_water: u64,
    /// Datagrams shipped to peers, each carrying every frame one pass
    /// had for its link (up to [`MAX_DATAGRAM`] bytes).
    pub datagrams_sent: u64,
}

/// A node realized over real I/O: one [`Node`], one [`UdpTunnel`]
/// per interface, a [`Clock`] driving timers.
pub struct RealSubstrate {
    node: Node,
    /// Each interface's tunnel; `None` behind a stub (`local`)
    /// interface, a connected prefix with no wire: its egress frames
    /// vanish (exactly what a LAN with no other hosts does) and
    /// nothing ever arrives.
    links: Vec<Option<UdpTunnel>>,
    /// The configured tunnel link id of each interface.
    link_ids: Vec<u16>,
    apps: Vec<Box<dyn Application>>,
    clock: Box<dyn Clock>,
    /// The node's pool, which ingress buffers also come from.
    pool: PacketPool,
    /// `Some` when the clock waits, so reader threads feed the pump.
    doorbell: Option<Arc<Doorbell>>,
    /// The last pass stopped ingesting a link at [`RING`] frames, so
    /// more may be pending and the next pass must not wait. The bound
    /// is what keeps a burst from starving timers and the peer of
    /// acknowledgements: a TCP receiver here advertises its window
    /// when the node is serviced, *before* the application reads, so a
    /// whole 64 KB window ingested in one pass is answered with a
    /// window smaller than a segment — and a 200 ms delayed-ACK stall.
    backlog: bool,
    stats: PumpStats,
}

impl RealSubstrate {
    /// Realize `config` with the wall clock — the production driver.
    pub fn from_config(config: &NodeConfig) -> io::Result<RealSubstrate> {
        RealSubstrate::with_clock(config, Box::new(WallClock::new()))
    }

    /// Realize `config` over an explicit clock (tests use
    /// [`crate::clock::TestClock`] so protocol hours cost test
    /// milliseconds).
    pub fn with_clock(config: &NodeConfig, clock: Box<dyn Clock>) -> io::Result<RealSubstrate> {
        let mut node = Node::new(config.name.clone(), config.role);
        let pool = PacketPool::new();
        node.set_pool(pool.clone());
        // The one place the kind of clock matters: a thread can only
        // wake a pump that is really asleep.
        let doorbell = clock.waits().then(Arc::<Doorbell>::default);
        let mut links = Vec::new();
        for (index, iface) in config.ifaces.iter().enumerate() {
            let link = match (&iface.bind, &iface.remote) {
                (Some(bind), Some(remote)) => Some(UdpTunnel::new(
                    bind,
                    remote,
                    iface.link_id,
                    pool.clone(),
                    doorbell.clone(),
                )?),
                _ => None,
            };
            // Tunnels are point-to-point: raw IP framing, no ARP. The
            // hardware address is still required by the interface
            // record; derive a stable locally-administered one.
            node.attach_iface(Iface {
                addr: iface.addr,
                cidr: iface.cidr(),
                hardware: EthernetAddress::new(0x02, 0xC4, 0x7E, 0, 0, index as u8),
                peer: iface.peer.unwrap_or(iface.addr),
                ip_mtu: 1500,
                framing: Framing::RawIp,
                up: true,
            });
            links.push(link);
        }
        for route in &config.routes {
            let iface = config
                .ifaces
                .iter()
                .position(|i| i.peer == Some(route.via))
                .expect("config::parse validated the next hop");
            node.static_routes
                .insert(route.prefix, (iface, Some(route.via)));
        }
        Ok(RealSubstrate {
            node,
            links,
            link_ids: config.ifaces.iter().map(|i| i.link_id).collect(),
            apps: Vec::new(),
            clock,
            pool,
            doorbell,
            backlog: false,
            stats: PumpStats::default(),
        })
    }

    /// Hand an accepted frame to the node. A frame for a downed
    /// interface is dropped at the door, exactly as the simulator's
    /// link would not have delivered it.
    fn deliver(&mut self, now: Instant, iface: usize, frame: PacketBuf) -> bool {
        let up = self.node.ifaces.get(iface).map(|i| i.up) == Some(true);
        if up {
            self.node.handle_frame(now, iface, frame);
        }
        up
    }

    /// One non-blocking pass of the event loop: ingest pending tunnel
    /// frames (at most [`RING`] per link; `run_until` goes round again
    /// at once if a link had more), service the node (timers, RIP,
    /// TCP), poll applications (a ping or UDP datagram one sends joins
    /// the outbox at once), flush the outbox to the tunnels, one
    /// datagram per link — in that order. Returns the number of frames
    /// ingested.
    pub fn pump(&mut self) -> usize {
        let now = self.clock.now();
        let mut ingested = 0;
        self.backlog = false;
        for iface in 0..self.links.len() {
            let mut taken = 0;
            while let Some(frame) = self.links[iface].as_mut().and_then(UdpTunnel::recv_frame) {
                if self.deliver(now, iface, frame) {
                    ingested += 1;
                } else {
                    self.stats.dropped_iface_down += 1;
                }
                taken += 1;
                if taken == RING {
                    self.backlog = true;
                    break;
                }
            }
        }
        self.node.service(now);
        for app in &mut self.apps {
            app.poll(&mut self.node, now);
        }
        let mut shipped = 0;
        for (iface, frame) in self.node.take_outbox() {
            if let Some(Some(link)) = self.links.get_mut(iface) {
                shipped += link.send_frame(frame);
            }
        }
        // One datagram per link per pass, and it leaves now: nothing
        // waits for more traffic, so a lone frame is not delayed.
        for link in self.links.iter_mut().flatten() {
            shipped += link.flush();
        }
        self.stats.datagrams_sent += shipped as u64;
        self.stats.passes += 1;
        self.stats.frames += ingested as u64;
        ingested
    }

    /// Earliest instant anything wants a wake: node timers or app
    /// schedules.
    fn next_wake(&self, now: Instant) -> Option<Instant> {
        let mut wake = self.node.poll_at(now);
        for app in &self.apps {
            wake = match (wake, app.next_wake()) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        wake
    }

    /// Administratively raise or drop interface `iface` — the REPL's
    /// `up`/`down`: the `Node::set_iface_up` the simulator's
    /// `set_link_up` applies to both ends, applied to *one*. Neighbours
    /// on this node's other interfaces hear the withdrawal in its next
    /// update; the peer across the downed link is *not* told — on a real
    /// substrate it only finds out when RIP times the routes out, which
    /// is the paper's point about distributed failure detection.
    pub fn set_iface_up(&mut self, iface: usize, up: bool) {
        if iface < self.node.ifaces.len() {
            self.node.set_iface_up(iface, up, self.clock.now());
        }
    }

    /// Ingress statistics for interface `iface`.
    pub fn link_stats(&self, iface: usize) -> TunnelStats {
        self.links
            .get(iface)
            .and_then(Option::as_ref)
            .map(UdpTunnel::stats)
            .unwrap_or_default()
    }

    /// What the event loop has done so far.
    pub fn pump_stats(&self) -> PumpStats {
        PumpStats {
            ring_high_water: self
                .doorbell
                .as_ref()
                .map_or(0, |bell| bell.high_water.load(Ordering::Relaxed) as u64),
            ..self.stats
        }
    }

    /// Counters of the pool the node and the tunnels' rings share.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Feed a raw tunnel datagram through interface `iface`'s ingress
    /// as if it had arrived from the socket — the fuzz harness's
    /// direct line to the ingress hardening without needing a peer
    /// process. Same decode (against the interface's configured link
    /// id), same counting, same buffers, same door as a socket's
    /// datagram, record by record; only the counters are the caller's.
    pub fn ingest_payload(&mut self, iface: usize, payload: &[u8], stats: &mut TunnelStats) {
        let Some(&link_id) = self.link_ids.get(iface) else {
            return;
        };
        stats.datagrams += 1;
        let mut records = Some(payload);
        while let Some(unread) = records {
            let (verdict, rest) = accept(link_id, stats, unread, spare(&self.pool));
            records = rest;
            if let Ok(frame) = verdict {
                let now = self.clock.now();
                self.deliver(now, iface, frame);
            }
        }
    }

    /// The node this substrate hosts.
    pub fn node(&self) -> &Node {
        &self.node
    }

    /// The node this substrate hosts, mutably.
    pub fn node_mut(&mut self) -> &mut Node {
        &mut self.node
    }

    /// The node's display name.
    pub fn name(&self) -> &str {
        &self.node.name
    }

    /// Whether this node runs DV routing (router) or static routes
    /// (host).
    pub fn role(&self) -> NodeRole {
        self.node.role
    }

    /// The current instant on this substrate's clock.
    pub fn now(&self) -> Instant {
        self.clock.now()
    }

    /// Drive the node until `deadline` on its clock: deliver frames,
    /// fire timers, poll applications.
    pub fn run_until(&mut self, deadline: Instant) {
        if let Some(bell) = &self.doorbell {
            bell.listen();
        }
        loop {
            let ingested = self.pump();
            let now = self.clock.now();
            if now >= deadline {
                return;
            }
            // Poll, then block: frames travel in bursts, and the next
            // one of a burst is cheaper to meet awake.
            if self.backlog
                || ingested > 0 && self.doorbell.as_ref().is_some_and(|b| b.linger(LINGER))
            {
                continue;
            }
            // Sleep toward the earliest of: the deadline, the next
            // timer. Never sleep less than a sliver (a stale timer
            // must not spin the loop hot); a frame ends the sleep
            // early whatever the target.
            let mut target = deadline;
            if let Some(wake) = self.next_wake(now) {
                target = target.min(wake);
            }
            let floor = now + Duration::from_micros(200);
            self.clock.sleep_until(target.max(floor).min(deadline).max(now));
            if self.doorbell.as_ref().is_some_and(|b| b.waiting() > 0) {
                self.stats.wakes_by_frame += 1;
            } else {
                self.stats.wakes_by_timer += 1;
            }
        }
    }

    /// Advance by `d` from [`RealSubstrate::now`].
    pub fn run_for(&mut self, d: Duration) {
        let deadline = self.now() + d;
        self.run_until(deadline);
    }

    /// Attach an application to the node; `index` must be 0, the one
    /// node a real substrate hosts.
    pub fn attach_app(&mut self, index: usize, app: Box<dyn Application>) {
        assert_eq!(index, 0, "a real substrate hosts one node");
        self.apps.push(app);
    }
}

impl Drop for RealSubstrate {
    fn drop(&mut self) {
        // Every reader sees its cue before any is waited for.
        for link in self.links.iter_mut().flatten() {
            link.hang_up();
        }
    }
}

impl Substrate for RealSubstrate {
    fn now(&self) -> Instant {
        RealSubstrate::now(self)
    }

    fn run_until(&mut self, deadline: Instant) {
        RealSubstrate::run_until(self, deadline);
    }

    fn attach_app(&mut self, index: usize, app: Box<dyn Application>) {
        RealSubstrate::attach_app(self, index, app);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A spare is appended to, never overwritten in place: a short
    /// record in a buffer that last held a full-size frame is exactly
    /// the record, with nothing of the old frame behind it.
    #[test]
    fn a_short_record_in_a_recycled_spare_is_exactly_the_record() {
        let pool = PacketPool::new();
        let mut stats = TunnelStats::default();
        let long = vec![0x42u8; MAX_FRAME];
        let (verdict, _) = accept(7, &mut stats, &tunnel::encode(7, &long), spare(&pool));
        assert_eq!(&verdict.expect("well-formed")[..], &long[..]);

        let short = tunnel::encode(7, b"ack");
        let (verdict, rest) = accept(7, &mut stats, &short, spare(&pool));
        assert_eq!(pool.stats().recycled, 1, "test must exercise reuse");
        assert_eq!(&verdict.expect("well-formed")[..], b"ack");
        assert!(rest.is_none());

        // A rejected record hands the spare back as it came: empty.
        let (verdict, _) = accept(7, &mut stats, &tunnel::encode(8, b"x"), spare(&pool));
        assert_eq!(verdict.expect_err("wrong link").len(), 0);
        assert_eq!((stats.accepted, stats.wrong_link), (2, 1));
    }

    /// The losing order: the pump takes a frame and counts it taken
    /// between the reader's push and the rest of its publish. The
    /// count must read zero there, not wrap below it (which panics a
    /// debug build's reader on its next add).
    #[test]
    fn a_frame_taken_before_its_reader_returns_leaves_the_count_at_zero() {
        let bell = Doorbell::default();
        let (filled, taken) = sync_channel(1);
        let published = bell.publish(|| {
            filled.try_send(()).is_ok() && {
                taken.try_recv().expect("the frame is queued");
                bell.took();
                assert_eq!(bell.waiting(), 0, "taken before its reader returned");
                true
            }
        });
        assert!(published);
        assert_eq!(bell.waiting(), 0);
        assert_eq!(bell.high_water.load(Ordering::Relaxed), 1);

        // A push that fails takes its count back.
        drop(taken);
        assert!(!bell.publish(|| filled.try_send(()).is_ok()));
        assert_eq!(bell.waiting(), 0);
    }
}
