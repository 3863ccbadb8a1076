//! Cross-crate integration tests: whole-stack scenarios through the
//! public API of the root `catenet` crate.

use catenet::sim::{Duration, LinkClass, LinkParams};
use catenet::stack::app::{BulkSender, SinkServer, UdpEchoServer};
use catenet::stack::iface::Framing;
use catenet::stack::{Endpoint, Network, TcpConfig};
use catenet::telemetry::Scope;
use std::sync::Arc;

/// h1 — g1 — g2 — h2 over the given trunk classes.
fn two_gateway_net(seed: u64, trunk1: LinkClass, trunk2: LinkClass) -> (Network, usize, usize) {
    let mut net = Network::new(seed);
    let h1 = net.add_host("h1");
    let g1 = net.add_gateway("g1");
    let g2 = net.add_gateway("g2");
    let h2 = net.add_host("h2");
    net.connect(h1, g1, LinkClass::EthernetLan);
    net.connect(g1, g2, trunk1);
    net.connect(g2, h2, trunk2);
    net.converge_routing(Duration::from_secs(60));
    (net, h1, h2)
}

#[test]
fn bulk_transfer_over_corrupting_satellite_path() {
    // Corruption (not just loss) must be caught by the end-to-end
    // checksums and repaired by retransmission — data integrity is the
    // endpoint's job, per the end-to-end argument.
    let mut net = Network::new(97);
    let h1 = net.add_host("h1");
    let g1 = net.add_gateway("g1");
    let g2 = net.add_gateway("g2");
    let h2 = net.add_host("h2");
    net.connect(h1, g1, LinkClass::EthernetLan);
    net.connect_with(
        g1,
        g2,
        LinkParams {
            corruption: 0.02,
            loss: 0.01,
            ..LinkClass::Satellite.params()
        },
        Framing::RawIp,
    );
    net.connect(g2, h2, LinkClass::EthernetLan);
    net.converge_routing(Duration::from_secs(60));

    let dst = net.node(h2).primary_addr();
    let sink = SinkServer::new(80, TcpConfig::default());
    let received = Arc::clone(&sink.received);
    net.attach_app(h2, Box::new(sink));
    let start = net.now();
    let sender = BulkSender::new(Endpoint::new(dst, 80), 150_000, TcpConfig::default(), start);
    let result = sender.result_handle();
    net.attach_app(h1, Box::new(sender));
    net.run_for(Duration::from_secs(300));

    assert!(result.lock().unwrap().completed_at.is_some(), "completed despite corruption");
    assert_eq!(*received.lock().unwrap(), 150_000, "every byte intact");
    assert!(result.lock().unwrap().retransmits > 0, "corruption forced retransmission");
    // The receiving host must have discarded corrupted segments.
    let h2_stats = net.node(h2).stats;
    assert!(
        h2_stats.dropped_transport_checksum + h2_stats.dropped_malformed > 0,
        "checksums caught in-flight corruption"
    );
}

#[test]
fn host_crash_kills_its_own_conversations_only() {
    // Fate-sharing, the destructive direction: when the *endpoint* dies,
    // its conversations die with it — and with the host rebooted, the
    // peer's next segment meets an RST.
    let (mut net, h1, h2) = two_gateway_net(98, LinkClass::T1Terrestrial, LinkClass::T1Terrestrial);
    let dst = net.node(h2).primary_addr();
    net.node_mut(h2).tcp_listen(80, TcpConfig::default());
    let now = net.now();
    let handle = net
        .node_mut(h1)
        .tcp_connect(Endpoint::new(dst, 80), TcpConfig::default(), now)
        .unwrap();
    net.kick(h1);
    net.run_for(Duration::from_secs(3));
    assert_eq!(net.node(h1).tcp_sockets[handle].state(), catenet::tcp::State::Established);

    // The server host dies and reboots. Its socket is gone forever.
    net.crash_node(h2);
    net.restart_node(h2);
    assert!(net.node(h2).tcp_sockets.is_empty());

    // Client sends into the void; the rebooted host answers with RST.
    net.node_mut(h1).tcp_sockets[handle].send_slice(b"hello?").unwrap();
    net.kick(h1);
    net.run_for(Duration::from_secs(10));
    assert_eq!(
        net.node(h1).tcp_sockets[handle].state(),
        catenet::tcp::State::Closed,
        "peer's RST tore the connection down"
    );
    let mut buf = [0u8; 8];
    assert!(net.node_mut(h1).tcp_sockets[handle].recv_slice(&mut buf).is_err());
}

#[test]
fn goodput_rows_keep_what_a_rebooted_host_had_acknowledged() {
    // A goodput row is the bytes a host's peers acknowledged over one
    // sample window: at the default 500 ms cadence, exactly 16 × those
    // bytes in bits/s. So the rows add up to every acknowledged byte —
    // also when the host crashes mid-window, and its sockets (and their
    // counters) die with it, and a new connection starts from zero.
    let mut net = Network::new(101);
    let h1 = net.add_host("h1");
    let g = net.add_gateway("g");
    let h2 = net.add_host("h2");
    net.connect(h1, g, LinkClass::EthernetLan);
    net.connect(g, h2, LinkClass::EthernetLan);
    net.converge_routing(Duration::from_secs(60));
    let dst = Endpoint::new(net.node(h2).primary_addr(), 80);
    let config = TcpConfig::default();
    net.attach_app(h2, Box::new(SinkServer::new(80, config.clone())));
    let start = net.now();
    net.attach_app(h1, Box::new(BulkSender::new(dst, 4_000_000, config.clone(), start)));
    // 250 ms into a sample window, mid-transfer.
    net.run_for(Duration::from_millis(2_250));
    let before_crash = net.node(h1).tcp_sockets[0].stats.bytes_acked;
    assert!(before_crash > 0 && before_crash < 4_000_000, "{before_crash}");
    net.crash_node(h1);
    net.restart_node(h1);
    // A fresh listener on the server and a fresh connection from the
    // rebooted host.
    net.attach_app(h2, Box::new(SinkServer::new(80, config.clone())));
    let start = net.now() + Duration::from_millis(100);
    let sender = BulkSender::new(dst, 20_000, config, start);
    let result = sender.result_handle();
    net.attach_app(h1, Box::new(sender));
    net.run_for(Duration::from_secs(10));
    assert!(result.lock().unwrap().completed_at.is_some(), "second transfer done");
    let acknowledged = before_crash + net.node(h1).tcp_sockets[0].stats.bytes_acked;
    let rows: u64 = net
        .telemetry()
        .sampler
        .series("goodput_bps")
        .filter(|row| row.scope == Scope::Node(h1))
        .map(|row| row.value)
        .sum();
    assert_eq!(rows, 16 * acknowledged, "goodput rows / 16 = bytes acknowledged");
}

#[test]
fn udp_echo_across_heterogeneous_path_with_fragmentation() {
    let (mut net, h1, h2) = two_gateway_net(99, LinkClass::ArpanetTrunk, LinkClass::SlipLine);
    let dst = net.node(h2).primary_addr();
    let echoed = {
        let server = UdpEchoServer::new(7);
        let echoed = Arc::clone(&server.echoed);
        net.attach_app(h2, Box::new(server));
        echoed
    };
    let sock = net.node_mut(h1).udp_bind(50_000);
    // 900 bytes: fragments on the 296-MTU serial line, both directions.
    let payload: Vec<u8> = (0..900).map(|i| (i % 251) as u8).collect();
    net.node_mut(h1).udp_sockets[sock].send_to(Endpoint::new(dst, 7), &payload);
    net.kick(h1);
    net.run_for(Duration::from_secs(30));
    assert_eq!(*echoed.lock().unwrap(), 1);
    let back = net.node_mut(h1).udp_sockets[sock].recv().expect("echo returned");
    assert_eq!(back.payload, payload, "fragmented, reassembled, twice, intact");
}

#[test]
fn workspace_level_determinism() {
    // The same seed produces the identical universe through the full
    // public API — the property all experiment tables rest on.
    let run = |seed: u64| -> (u64, u64, Vec<u64>) {
        let (mut net, h1, h2) =
            two_gateway_net(seed, LinkClass::PacketRadio, LinkClass::T1Terrestrial);
        let dst = net.node(h2).primary_addr();
        let sink = SinkServer::new(80, TcpConfig::default());
        let received = Arc::clone(&sink.received);
        net.attach_app(h2, Box::new(sink));
        let start = net.now();
        let sender = BulkSender::new(Endpoint::new(dst, 80), 30_000, TcpConfig::default(), start);
        let result = sender.result_handle();
        net.attach_app(h1, Box::new(sender));
        net.run_for(Duration::from_secs(120));
        // One guard for both reads: two `lock()` temporaries in a single
        // statement would deadlock (the first guard lives to the `;`).
        let r = result.lock().unwrap();
        let timings = vec![r.completed_at.map(|t| t.total_micros()).unwrap_or(0), r.retransmits];
        drop(r);
        let received = *received.lock().unwrap();
        (received, net.frames_offered, timings)
    };
    assert_eq!(run(1234), run(1234));
    assert_ne!(run(1234).1, run(4321).1, "different seed, different loss pattern");
}

#[test]
fn tos_marking_survives_end_to_end() {
    use catenet::wire::Tos;
    let (mut net, h1, h2) = two_gateway_net(100, LinkClass::T1Terrestrial, LinkClass::T1Terrestrial);
    let dst = net.node(h2).primary_addr();
    net.node_mut(h2).udp_bind(5060);
    let sock = net.node_mut(h1).udp_bind(5061);
    net.node_mut(h1).udp_sockets[sock].tos = Tos::new(5, true, false, false);
    net.node_mut(h1).udp_sockets[sock].send_to(Endpoint::new(dst, 5060), b"urgent voice");
    net.kick(h1);
    net.run_for(Duration::from_secs(2));
    // Delivery implies the marked datagram crossed both gateways; the
    // ToS octet is carried, not interpreted — exactly per RFC 791.
    assert!(net.node_mut(h2).udp_sockets[0].recv().is_some());
}
