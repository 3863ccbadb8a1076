//! In-process tests of the real-I/O backend: two [`RealSubstrate`]s in
//! one process, joined by genuine OS UDP sockets on 127.0.0.1, driven
//! by [`TestClock`]s so protocol seconds cost test milliseconds.
//!
//! These are the unit-level half of the realization proof; the
//! process-level half (separate `vrouter` processes, REPL-driven) is
//! `loopback_interop.rs`.

use catenet_core::app::{BulkSender, SinkServer};
use catenet_core::{shared, Endpoint, StreamIntegrity, TcpConfig};
use catenet_sim::{Duration, Instant, Rng};
use catenet_substrate::clock::TestClock;
use catenet_substrate::config;
use catenet_substrate::real::RealSubstrate;
use catenet_substrate::tunnel::{TunnelStats, MAX_DATAGRAM, TUNNEL_HEADER, TUNNEL_VERSION};
use catenet_substrate::Substrate;
use std::sync::Arc;

/// Two ports currently free on loopback. (Bind-then-drop: the tiny
/// race window is acceptable in a test sandbox.)
fn free_ports() -> (u16, u16) {
    let a = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind");
    let b = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind");
    let pa = a.local_addr().expect("addr").port();
    let pb = b.local_addr().expect("addr").port();
    drop((a, b));
    (pa, pb)
}

/// A two-router internet over one UDP-tunnel link, each router with a
/// stub LAN behind it:
///
/// ```text
/// [10.9.1.0/30]—r1 —(tunnel 127.0.0.1)— r2—[10.9.2.0/30]
/// ```
fn router_pair() -> (RealSubstrate, RealSubstrate) {
    let (pa, pb) = free_ports();
    let r1 = config::parse(&format!(
        "node router r1\n\
         iface 0 10.1.0.1/30 peer 10.1.0.2 link 7 bind 127.0.0.1:{pa} remote 127.0.0.1:{pb}\n\
         iface 1 10.9.1.1/30 local\n"
    ))
    .expect("r1 config");
    let r2 = config::parse(&format!(
        "node router r2\n\
         iface 0 10.1.0.2/30 peer 10.1.0.1 link 7 bind 127.0.0.1:{pb} remote 127.0.0.1:{pa}\n\
         iface 1 10.9.2.1/30 local\n"
    ))
    .expect("r2 config");
    let r1 = RealSubstrate::with_clock(&r1, Box::new(TestClock::new())).expect("r1 tunnels");
    let r2 = RealSubstrate::with_clock(&r2, Box::new(TestClock::new())).expect("r2 tunnels");
    (r1, r2)
}

/// Advance both substrates in small lockstep slices until `pred` holds
/// or `limit` protocol time passes. Returns whether `pred` held.
fn run_until_both(
    r1: &mut RealSubstrate,
    r2: &mut RealSubstrate,
    limit: Duration,
    mut pred: impl FnMut(&mut RealSubstrate, &mut RealSubstrate) -> bool,
) -> bool {
    let step = Duration::from_millis(5);
    let start = Substrate::now(r1);
    let mut t = start;
    let end = start + limit;
    while t < end {
        t = (t + step).min(end);
        r1.run_until(t);
        r2.run_until(t);
        if pred(r1, r2) {
            return true;
        }
    }
    false
}

fn r1_knows_r2_stub(r1: &RealSubstrate) -> bool {
    // `DvEngine::lookup` already filters routes at INFINITY_METRIC.
    let dst = "10.9.2.1".parse().expect("addr");
    r1.node().dv.as_ref().and_then(|dv| dv.lookup(dst)).is_some()
}

#[test]
fn rip_converges_across_real_udp_tunnels() {
    let (mut r1, mut r2) = router_pair();
    let converged = run_until_both(&mut r1, &mut r2, Duration::from_secs(30), |r1, r2| {
        r1_knows_r2_stub(r1)
            && r2
                .node()
                .dv
                .as_ref()
                .and_then(|dv| dv.lookup("10.9.1.1".parse().expect("addr")))
                .is_some()
    });
    assert!(converged, "RIP never converged over the loopback tunnel");
    // The learned route points across the tunnel, one hop beyond the
    // peer's connected prefix.
    let route = r1
        .node()
        .dv
        .as_ref()
        .and_then(|dv| dv.lookup("10.9.2.1".parse().expect("addr")))
        .copied()
        .expect("route exists");
    assert_eq!(route.next_hop.iface(), 0);
    assert_eq!(
        route.next_hop.gateway(),
        Some("10.1.0.2".parse().expect("addr"))
    );
    // A clean run drops nothing at the tunnel door.
    assert_eq!(r1.link_stats(0).dropped(), 0);
    assert_eq!(r2.link_stats(0).dropped(), 0);
    assert!(r1.link_stats(0).accepted > 0);
}

#[test]
fn tcp_transfer_rides_the_tunnel_end_to_end() {
    let (mut r1, mut r2) = router_pair();
    assert!(
        run_until_both(&mut r1, &mut r2, Duration::from_secs(30), |r1, _| {
            r1_knows_r2_stub(r1)
        }),
        "no convergence"
    );

    const BYTES: usize = 200_000;
    let checker = shared(StreamIntegrity::new());
    let sink = SinkServer::new(80, TcpConfig::default()).with_integrity(Arc::clone(&checker));
    r2.attach_app(0, Box::new(sink));
    let dst: catenet_wire::Ipv4Address = "10.9.2.1".parse().expect("addr");
    let sender = BulkSender::new(
        Endpoint::new(dst, 80),
        BYTES,
        TcpConfig::default(),
        Substrate::now(&r1) + Duration::from_millis(10),
    )
    .with_integrity(Arc::clone(&checker));
    let result = sender.result_handle();
    r1.attach_app(0, Box::new(sender));

    let done = run_until_both(&mut r1, &mut r2, Duration::from_secs(120), |_, _| {
        let r = result.lock().unwrap();
        r.completed_at.is_some() || r.aborted
    });
    assert!(done, "transfer neither completed nor aborted");
    let result = result.lock().unwrap();
    assert!(!result.aborted, "transfer aborted");
    assert_eq!(result.bytes_acked, BYTES as u64);
    let checker = checker.lock().unwrap();
    assert!(checker.is_complete(), "violations: {:?}", checker.violations());
    assert_eq!(checker.delivered_len(), BYTES);
    assert_eq!(checker.delivered_digest(), checker.sent_digest());
}

#[test]
fn iface_down_fails_routes_and_drops_ingress() {
    let (mut r1, mut r2) = router_pair();
    assert!(
        run_until_both(&mut r1, &mut r2, Duration::from_secs(30), |r1, _| {
            r1_knows_r2_stub(r1)
        }),
        "no convergence"
    );
    r1.set_iface_up(0, false);
    // The local engine fails everything over the interface at once.
    assert!(!r1_knows_r2_stub(&r1), "down iface still routes");
    // Frames the peer keeps sending are dropped at the door, and after
    // the route timeout the peer notices the silence too (distributed
    // failure detection — nobody told it).
    let peer_timed_out = run_until_both(&mut r1, &mut r2, Duration::from_secs(40), |_, r2| {
        r2.node()
            .dv
            .as_ref()
            .and_then(|dv| dv.lookup("10.9.1.1".parse().expect("addr")))
            .is_none()
    });
    assert!(peer_timed_out, "peer never timed the silent routes out");
    // Every frame the tunnel accepted is accounted for: handed to the
    // node, or dropped at the downed interface.
    let (link, pump) = (r1.link_stats(0), r1.pump_stats());
    assert!(pump.dropped_iface_down > 0, "{pump:?}");
    assert_eq!(link.accepted, pump.frames + pump.dropped_iface_down);
    // Raise it again: the connected prefix comes back and RIP re-learns.
    r1.set_iface_up(0, true);
    assert!(
        run_until_both(&mut r1, &mut r2, Duration::from_secs(30), |r1, _| {
            r1_knows_r2_stub(r1)
        }),
        "no reconvergence after up"
    );
}

/// The ingress path's sibling of `random_wire_input_never_panics`: raw
/// garbage fed through the same decode-count-fill-deliver path a
/// socket's datagram takes is counted, dropped, and never panics — and
/// the node still works afterward.
#[test]
fn garbage_tunnel_payloads_never_panic_the_substrate() {
    let (mut r1, mut r2) = router_pair();
    let mut rng = Rng::from_seed(0x5EED_F422);
    let mut stats = TunnelStats::default();
    for case in 0..2000u64 {
        let len = rng.below(2100) as usize;
        let mut payload = vec![0u8; len];
        for byte in payload.iter_mut() {
            *byte = rng.next_u32() as u8;
        }
        if case % 2 == 0 && len >= 8 {
            // Plausible header — the link id `router_pair` configures,
            // which is what ingress decodes against — so some frames
            // reach handle_frame.
            payload[0..2].copy_from_slice(&0xC47Eu16.to_be_bytes());
            payload[2] = TUNNEL_VERSION;
            payload[3] = 0;
            payload[4..6].copy_from_slice(&7u16.to_be_bytes());
            let body = (len - 8) as u16;
            payload[6..8].copy_from_slice(&body.to_be_bytes());
        }
        r1.ingest_payload(0, &payload, &mut stats);
    }
    assert_eq!(stats.accepted + stats.dropped(), 2000);
    assert!(stats.accepted > 0, "no payload survived to handle_frame");
    // The node shrugged it all off: RIP still converges afterward.
    assert!(
        run_until_both(&mut r1, &mut r2, Duration::from_secs(30), |r1, _| {
            r1_knows_r2_stub(r1)
        }),
        "no convergence after garbage storm"
    );
}

/// Two hosts over one tunnel: no routing protocol, so nothing but
/// what a test sends ever crosses it.
fn host_pair() -> (RealSubstrate, RealSubstrate) {
    let (pa, pb) = free_ports();
    let host = |name: &str, me: u8, peer: u8, bind: u16, remote: u16| {
        let cfg = config::parse(&format!(
            "node host {name}\n\
             iface 0 10.1.0.{me}/30 peer 10.1.0.{peer} link 7 bind 127.0.0.1:{bind} remote 127.0.0.1:{remote}\n\
             route 0.0.0.0/0 via 10.1.0.{peer}\n"
        ))
        .expect("host config");
        RealSubstrate::with_clock(&cfg, Box::new(TestClock::new())).expect("tunnels")
    };
    (host("a", 1, 2, pa, pb), host("b", 2, 1, pb, pa))
}

/// What one pass ships: `pings` echo requests of `frame` bytes each,
/// queued together, as (datagrams sent, datagrams and frames the peer
/// read).
fn one_pass(a: &mut RealSubstrate, b: &mut RealSubstrate, pings: u16, frame: usize) -> [u64; 3] {
    let (sent, read, accepted) = (
        a.pump_stats().datagrams_sent,
        b.link_stats(0).datagrams,
        b.link_stats(0).accepted,
    );
    let (dst, now) = ("10.1.0.2".parse().expect("addr"), Substrate::now(a));
    for seq in 0..pings {
        // 20 bytes of IP header and 8 of ICMP ahead of the payload.
        a.node_mut().send_ping(dst, 1, seq, frame - 28, now);
    }
    a.pump();
    let (all, sent_at) = (accepted + u64::from(pings), std::time::Instant::now());
    while b.link_stats(0).accepted < all && sent_at.elapsed().as_secs() < 5 {
        b.pump();
    }
    [
        a.pump_stats().datagrams_sent - sent,
        b.link_stats(0).datagrams - read,
        b.link_stats(0).accepted - accepted,
    ]
}

/// A pass's frames for one peer leave together, in as few datagrams as
/// `MAX_DATAGRAM` allows, and a lone frame still leaves at once.
#[test]
fn a_pass_ships_its_frames_in_as_few_datagrams_as_fit() {
    let (mut a, mut b) = host_pair();
    // A lone echo request: one datagram of one frame, shipped by the
    // pass that queued it.
    assert_eq!(one_pass(&mut a, &mut b, 1, 84), [1, 1, 1]);
    // 100 frames of 1,000 bytes: 64 records fill a datagram, so two
    // datagrams, which is ⌈bytes / MAX_DATAGRAM⌉.
    const FRAMES: u16 = 100;
    const FRAME: usize = 1_000;
    let bytes = usize::from(FRAMES) * (TUNNEL_HEADER + FRAME);
    let datagrams = bytes.div_ceil(MAX_DATAGRAM) as u64;
    assert_eq!(datagrams, 2);
    assert_eq!(
        one_pass(&mut a, &mut b, FRAMES, FRAME),
        [datagrams, datagrams, u64::from(FRAMES)]
    );
    assert_eq!(b.link_stats(0).dropped(), 0);
}

#[test]
fn wall_clock_slice_runs_too() {
    // A short smoke of the production WallClock driver: not the CI
    // workhorse (TestClock is), just proof the real sleep path works.
    let (pa, pb) = free_ports();
    let cfg = config::parse(&format!(
        "node router solo\n\
         iface 0 10.1.0.1/30 peer 10.1.0.2 link 1 bind 127.0.0.1:{pa} remote 127.0.0.1:{pb}\n"
    ))
    .expect("config");
    let mut sub = RealSubstrate::from_config(&cfg).expect("tunnels");
    let start = Substrate::now(&sub);
    sub.run_for(Duration::from_millis(30));
    let elapsed = Substrate::now(&sub).duration_since(start);
    assert!(elapsed >= Duration::from_millis(30));
    assert!(elapsed < Duration::from_secs(5), "run_for overslept: {elapsed:?}");
    let _ = Instant::ZERO; // keep the import honest
}
