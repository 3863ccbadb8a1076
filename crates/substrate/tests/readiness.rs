//! The readiness-driven half of the real-I/O backend: what only shows
//! under a clock that really waits. Reader threads wake the pump
//! through the clock, the ring back-pressures into the kernel (or, mid-
//! datagram, into the reader) instead of dropping or growing, frames
//! either side of a pooled buffer's capacity survive the trip, and an
//! idle node does not spin.
//!
//! (`thread_hygiene.rs` is a file of its own because it counts the
//! process's threads, which tests running beside it would change.)

use catenet_core::app::Pinger;
use catenet_core::pool::HEADROOM;
use catenet_core::{PacketBuf, PacketPool};
use catenet_sim::{Duration, Instant};
use catenet_substrate::clock::{Clock, WallClock};
use catenet_substrate::config::{self, NodeConfig};
use catenet_substrate::real::{Doorbell, LinkEndpoint, RealSubstrate, UdpTunnel, RING};
use catenet_substrate::tunnel::{self, MAX_DATAGRAM, MAX_FRAME};
use catenet_substrate::Substrate;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

/// Two ports currently free on loopback. (Bind-then-drop: the tiny
/// race window is acceptable in a test sandbox.)
fn free_ports() -> (u16, u16) {
    let a = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind");
    let b = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind");
    let ports = (
        a.local_addr().expect("addr").port(),
        b.local_addr().expect("addr").port(),
    );
    drop((a, b));
    ports
}

/// A host with one tunnel and a default route through it: no routing
/// protocol, so no timer is ever due while nothing is sent.
fn host(name: &str, me: u8, peer: u8, bind: u16, remote: u16) -> NodeConfig {
    config::parse(&format!(
        "node host {name}\n\
         iface 0 10.1.0.{me}/30 peer 10.1.0.{peer} link 7 bind 127.0.0.1:{bind} remote 127.0.0.1:{remote}\n\
         route 0.0.0.0/0 via 10.1.0.{peer}\n"
    ))
    .expect("host config")
}

/// No slice hides a lost wake any more: a peer with nothing to do
/// sleeps the whole of its `run_for`, so an echo request is answered
/// promptly only if the reader thread's `unpark` reaches the pump
/// inside the clock.
#[test]
fn a_frame_wakes_a_peer_parked_with_no_timer_due() {
    let (pa, pb) = free_ports();
    let (config_a, config_b) = (host("a", 1, 2, pa, pb), host("b", 2, 1, pb, pa));
    let (up_tx, up_rx) = mpsc::channel();
    let peer = std::thread::spawn(move || {
        let mut b = RealSubstrate::from_config(&config_b).expect("b tunnels");
        up_tx.send(()).expect("the pinging side waits for this");
        b.run_for(Duration::from_secs(5));
        b.pump_stats()
    });
    let mut a = RealSubstrate::from_config(&config_a).expect("a tunnels");
    up_rx.recv().expect("peer thread came up");

    // Whether the request lands just before the peer parks or long
    // after, the token `unpark` leaves makes both the same case.
    let start = Substrate::now(&a) + Duration::from_millis(50);
    let pinger = Pinger::new(
        "10.1.0.2".parse().expect("addr"),
        Duration::from_secs(60),
        32,
        start,
        start + Duration::from_secs(1),
    );
    let replies = Arc::clone(&pinger.replies);
    a.attach_app(0, Box::new(pinger));
    a.run_until(start);
    let sent = std::time::Instant::now();
    while *replies.lock().expect("pinger") == 0 && sent.elapsed().as_secs() < 3 {
        a.run_for(Duration::from_millis(10));
    }
    let waited = sent.elapsed();
    assert_eq!(*replies.lock().expect("pinger"), 1, "no echo reply at all");
    assert!(
        waited < std::time::Duration::from_millis(500),
        "the parked peer took {waited:?} to answer: woken by its deadline, not by the frame"
    );
    let peer_stats = peer.join().expect("peer thread");
    assert!(peer_stats.wakes_by_frame >= 1, "{peer_stats:?}");
    assert_eq!(a.link_stats(0).dropped(), 0);
}

/// A burst at a substrate nobody pumps costs it one ring of buffers
/// and nothing else: the reader blocks on the empty ring, the rest of
/// the burst waits in (or overflows) the kernel's receive buffer, and
/// when pumping resumes everything the kernel kept is delivered and
/// counted, with no drop of ours.
#[test]
fn a_full_ring_blocks_the_reader_instead_of_allocating_or_dropping() {
    let (pa, pb) = free_ports();
    let mut b = RealSubstrate::from_config(&host("b", 2, 1, pb, pa)).expect("b tunnels");
    let blaster = std::net::UdpSocket::bind(("127.0.0.1", pa)).expect("bind the peer's port");
    blaster.connect(("127.0.0.1", pb)).expect("aim at b");
    // Not an IP datagram: the node counts and drops it, and answers
    // nothing, so the pool sees only what ingress itself allocates.
    let datagram = tunnel::encode(7, &[0xEE; 600]);
    const BLAST: u64 = 2_000;
    for _ in 0..BLAST {
        blaster.send(&datagram).expect("loopback send");
    }

    let filled = std::time::Instant::now();
    while b.link_stats(0).accepted < RING as u64 && filled.elapsed().as_secs() < 5 {
        std::thread::yield_now();
    }
    assert_eq!(
        b.link_stats(0).accepted,
        RING as u64,
        "the reader stops at a full ring"
    );
    assert_eq!(
        b.pool_stats().fresh_allocs,
        RING as u64,
        "an unpumped substrate owns one ring of buffers"
    );

    b.run_for(Duration::from_millis(300));
    let (link, pump, pool) = (b.link_stats(0), b.pump_stats(), b.pool_stats());
    assert!(
        link.accepted > RING as u64 && link.accepted <= BLAST,
        "the kernel kept more than a ring: {link:?}"
    );
    assert_eq!(link.dropped(), 0);
    assert_eq!(
        pump.frames, link.accepted,
        "every accepted frame reached the node"
    );
    assert_eq!(pump.ring_high_water, RING as u64);
    assert!(
        pool.fresh_allocs <= 2 * RING as u64,
        "draining {} frames recycles the ring's buffers: {pool:?}",
        link.accepted
    );
}

/// One datagram carrying twice what the ring holds reaches a substrate
/// nobody pumps: the reader fills the ring from it and then blocks with
/// the rest of the datagram in hand. Pumping lets it finish the
/// datagram through recycled buffers: every frame delivered, none
/// dropped, and the pool no bigger than for one-frame datagrams.
#[test]
fn a_batch_larger_than_the_ring_waits_in_the_reader() {
    const FRAMES: usize = 2 * RING;
    let (pa, pb) = free_ports();
    let mut b = RealSubstrate::from_config(&host("b", 2, 1, pb, pa)).expect("b tunnels");
    let blaster = std::net::UdpSocket::bind(("127.0.0.1", pa)).expect("bind the peer's port");
    blaster.connect(("127.0.0.1", pb)).expect("aim at b");
    // One-record datagrams concatenate into one datagram of records.
    // Not IP: the node counts and drops each frame and answers nothing.
    let datagram = tunnel::encode(7, &[0xEE; 600]).repeat(FRAMES);
    assert!(datagram.len() <= MAX_DATAGRAM);
    blaster.send(&datagram).expect("loopback send");

    let filled = std::time::Instant::now();
    while b.link_stats(0).accepted < RING as u64 && filled.elapsed().as_secs() < 5 {
        std::thread::yield_now();
    }
    // Give a reader that would read on past a full ring time to do so.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let link = b.link_stats(0);
    assert_eq!(
        (link.accepted, link.datagrams),
        (RING as u64, 1),
        "the reader stops mid-datagram at a full ring"
    );
    assert_eq!(b.pump_stats().ring_high_water, RING as u64);

    b.run_for(Duration::from_millis(300));
    let (link, pump, pool) = (b.link_stats(0), b.pump_stats(), b.pool_stats());
    assert_eq!((link.accepted, link.datagrams), (FRAMES as u64, 1));
    assert_eq!(link.dropped(), 0);
    assert_eq!(pump.frames, FRAMES as u64, "every frame reached the node");
    assert_eq!(pump.ring_high_water, RING as u64);
    assert!(
        pool.fresh_allocs <= FRAMES as u64,
        "the rest of the datagram recycles the ring's buffers: {pool:?}"
    );
}

/// Poll `rx` until a frame arrives.
fn await_frame(rx: &mut UdpTunnel) -> PacketBuf {
    let started = std::time::Instant::now();
    loop {
        if let Some(frame) = rx.recv_frame() {
            return frame;
        }
        assert!(started.elapsed().as_secs() < 5, "frame never arrived");
        std::thread::yield_now();
    }
}

/// `MAX_FRAME` equals a pooled buffer's capacity: behind its headroom a
/// node's buffer cannot hold the largest legal frames (the pool
/// allocates those exactly), and a ring buffer holds every one. Frames
/// either side of that line cross the tunnel and share one datagram
/// when one flush ships them; nothing panics and no byte changes.
#[test]
fn frames_either_side_of_a_pooled_buffer_round_trip() {
    let fits = MAX_FRAME - HEADROOM;
    let frames: Vec<Vec<u8>> = [0, 1, fits, fits + 1, MAX_FRAME]
        .iter()
        .map(|&len| (0..len).map(|i| (i % 251) as u8).collect())
        .collect();
    for threaded in [false, true] {
        let (pa, pb) = free_ports();
        let (addr_a, addr_b) = (format!("127.0.0.1:{pa}"), format!("127.0.0.1:{pb}"));
        let pool = PacketPool::new();
        let mut tx = UdpTunnel::new(&addr_a, &addr_b, 7, pool.clone(), None).expect("tx");
        let doorbell = threaded.then(Arc::<Doorbell>::default);
        let mut rx = UdpTunnel::new(&addr_b, &addr_a, 7, pool.clone(), doorbell).expect("rx");
        for bytes in &frames {
            let mut buf = pool.alloc(HEADROOM, bytes.len());
            buf.copy_from_slice(bytes);
            assert_eq!(tx.send_frame(buf), 0, "a few frames fit one datagram");
        }
        assert_eq!(tx.flush(), 1);
        assert_eq!(tx.flush(), 0, "nothing left to ship");
        for bytes in &frames {
            assert_eq!(&await_frame(&mut rx)[..], &bytes[..]);
        }
        let stats = rx.stats();
        assert_eq!((stats.accepted, stats.datagrams), (5, 1), "{stats:?}");
        assert_eq!(stats.dropped(), 0);
    }
}

/// A wall clock that counts how often it is asked to sleep.
struct CountingClock {
    inner: WallClock,
    sleeps: Arc<AtomicU64>,
}

impl Clock for CountingClock {
    fn now(&self) -> Instant {
        self.inner.now()
    }

    fn sleep_until(&mut self, deadline: Instant) {
        self.sleeps.fetch_add(1, Ordering::Relaxed);
        self.inner.sleep_until(deadline);
    }
}

/// With nothing to do the pump sleeps to its deadline in one piece:
/// no 1 ms slice, no spin while idle.
#[test]
fn an_idle_node_sleeps_to_its_deadline() {
    let (pa, pb) = free_ports();
    let sleeps = Arc::new(AtomicU64::new(0));
    let clock = CountingClock {
        inner: WallClock::new(),
        sleeps: Arc::clone(&sleeps),
    };
    let mut sub =
        RealSubstrate::with_clock(&host("solo", 1, 2, pa, pb), Box::new(clock)).expect("tunnels");
    let started = std::time::Instant::now();
    sub.run_for(Duration::from_millis(300));
    assert!(started.elapsed() >= std::time::Duration::from_millis(300));
    let (sleeps, stats) = (sleeps.load(Ordering::Relaxed), sub.pump_stats());
    assert!(sleeps >= 1, "300 ms passed without a sleep");
    assert!(sleeps < 10, "{sleeps} sleeps in 300 idle ms: {stats:?}");
    assert!(stats.passes < 12, "{stats:?}");
    assert_eq!(stats.wakes_by_frame, 0);
}
