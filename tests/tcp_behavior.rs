//! Network-level TCP behavior: MSS vs MTU interactions, fairness between
//! competing connections, and the R2 give-up threshold under partition.

use catenet::sim::{Duration, LinkClass};
use catenet::stack::app::{BulkSender, SinkServer};
use catenet::stack::{Endpoint, Network, TcpConfig};
use std::sync::Arc;

#[test]
fn tcp_crosses_a_smaller_mtu_than_its_mss_via_ip_fragmentation() {
    // MSS 536 segments (576-byte datagrams) over a 296-MTU serial line:
    // the gateway fragments, the receiving host reassembles, TCP never
    // notices — layering exactly as the architecture intends.
    let mut net = Network::new(71);
    let h1 = net.add_host("h1");
    let g = net.add_gateway("g");
    let h2 = net.add_host("h2");
    net.connect(h1, g, LinkClass::T1Terrestrial);
    net.connect(g, h2, LinkClass::SlipLine);
    net.converge_routing(Duration::from_secs(30));

    let dst = net.node(h2).primary_addr();
    let sink = SinkServer::new(80, TcpConfig::default());
    let received = Arc::clone(&sink.received);
    net.attach_app(h2, Box::new(sink));
    let start = net.now();
    let sender = BulkSender::new(Endpoint::new(dst, 80), 20_000, TcpConfig::default(), start);
    let result = sender.result_handle();
    net.attach_app(h1, Box::new(sender));
    net.run_for(Duration::from_secs(120));

    assert!(result.lock().unwrap().completed_at.is_some(), "{:?}", result.lock().unwrap());
    assert_eq!(*received.lock().unwrap(), 20_000);
    assert!(
        net.node(g).stats.frags_created > 0,
        "the gateway fragmented TCP segments"
    );
    assert!(net.node(h2).reassembler().completed > 0);
}

#[test]
fn a_segment_fits_its_first_hop_so_neither_host_fragments() {
    // MSS 1460 on both ends, but each host's first hop is an Ethernet
    // LAN whose IP MTU is 1486 (1500 less 14 bytes of framing): RFC
    // 1122 §4.2.2.6 clamps the MSS each side sends to 1486 − 40 = 1446,
    // so no full segment leaves a host as two fragments.
    let mut net = Network::new(75);
    let h1 = net.add_host("h1");
    let g = net.add_gateway("g");
    let h2 = net.add_host("h2");
    net.connect(h1, g, LinkClass::EthernetLan);
    net.connect(g, h2, LinkClass::EthernetLan);
    net.converge_routing(Duration::from_secs(30));

    let config = TcpConfig {
        mss: 1460,
        ..TcpConfig::default()
    };
    let dst = net.node(h2).primary_addr();
    let sink = SinkServer::new(80, config.clone());
    let received = Arc::clone(&sink.received);
    net.attach_app(h2, Box::new(sink));
    let start = net.now();
    let sender = BulkSender::new(Endpoint::new(dst, 80), 200_000, config, start);
    let result = sender.result_handle();
    net.attach_app(h1, Box::new(sender));
    net.run_for(Duration::from_secs(60));

    assert!(result.lock().unwrap().completed_at.is_some(), "{:?}", result.lock().unwrap());
    assert_eq!(*received.lock().unwrap(), 200_000);
    assert_eq!(net.node(h1).tcp_sockets[0].effective_mss(), 1446, "sender");
    assert_eq!(net.node(h2).tcp_sockets[0].effective_mss(), 1446, "listener");
    assert_eq!(net.node(h1).stats.frags_created, 0, "the sender fragmented");
}

#[test]
fn competing_connections_share_a_bottleneck_fairly_enough() {
    // Two Tahoe connections share one T1: neither starves. "Fair enough"
    // for 1988 means both finish and the slower one takes less than 3×
    // the faster one's time.
    let mut net = Network::new(72);
    let g1 = net.add_gateway("g1");
    let g2 = net.add_gateway("g2");
    net.connect(g1, g2, LinkClass::T1Terrestrial);
    let mut results = Vec::new();
    for i in 0..2 {
        let src = net.add_host(format!("src{i}"));
        let dst = net.add_host(format!("dst{i}"));
        net.connect(src, g1, LinkClass::EthernetLan);
        net.connect(dst, g2, LinkClass::EthernetLan);
        let _ = (src, dst);
        results.push((src, dst));
    }
    net.converge_routing(Duration::from_secs(60));
    let start = net.now();
    let mut handles = Vec::new();
    for &(src, dst) in &results {
        let dst_addr = net.node(dst).primary_addr();
        let sink = SinkServer::new(80, TcpConfig::default());
        net.attach_app(dst, Box::new(sink));
        let sender = BulkSender::new(
            Endpoint::new(dst_addr, 80),
            150_000,
            TcpConfig::default(),
            start + Duration::from_millis(100),
        );
        handles.push(sender.result_handle());
        net.attach_app(src, Box::new(sender));
    }
    net.run_for(Duration::from_secs(300));
    let durations: Vec<f64> = handles
        .iter()
        .map(|h| {
            h.lock().unwrap()
                .duration()
                .expect("both transfers complete")
                .secs_f64()
        })
        .collect();
    let (fast, slow) = (
        durations.iter().cloned().fold(f64::INFINITY, f64::min),
        durations.iter().cloned().fold(0.0, f64::max),
    );
    assert!(
        slow / fast < 3.0,
        "gross unfairness: {durations:?}"
    );
}

#[test]
fn r2_gives_up_during_a_permanent_partition() {
    // With max_retries configured, a connection across a permanently
    // severed path dies cleanly instead of retrying forever.
    let mut net = Network::new(73);
    let h1 = net.add_host("h1");
    let g = net.add_gateway("g");
    let h2 = net.add_host("h2");
    net.connect(h1, g, LinkClass::EthernetLan);
    let trunk = net.connect(g, h2, LinkClass::T1Terrestrial);
    net.converge_routing(Duration::from_secs(30));

    let dst = net.node(h2).primary_addr();
    net.node_mut(h2).tcp_listen(80, TcpConfig::default());
    let config = TcpConfig {
        max_retries: Some(4),
        ..TcpConfig::default()
    };
    let now = net.now();
    let handle = net
        .node_mut(h1)
        .tcp_connect(Endpoint::new(dst, 80), config, now)
        .unwrap();
    net.kick(h1);
    net.run_for(Duration::from_secs(2));
    assert_eq!(
        net.node(h1).tcp_sockets[handle].state(),
        catenet::tcp::State::Established
    );

    net.node_mut(h1).tcp_sockets[handle]
        .send_slice(b"doomed")
        .unwrap();
    net.set_link_up(trunk, false); // permanent partition
    net.kick(h1);
    // 4 retries with exponential backoff fit comfortably in 5 minutes.
    net.run_for(Duration::from_secs(300));
    assert_eq!(
        net.node(h1).tcp_sockets[handle].state(),
        catenet::tcp::State::Closed,
        "R2 fired"
    );
    let mut buf = [0u8; 4];
    assert_eq!(
        net.node_mut(h1).tcp_sockets[handle]
            .recv_slice(&mut buf)
            .unwrap_err(),
        catenet::tcp::TcpError::TimedOut
    );
}

#[test]
fn many_sequential_connections_reuse_the_listener_host() {
    // A server host accepts 5 connections one after another (each with
    // its own listening socket, smoltcp-style), exercising TIME-WAIT
    // coexistence and ephemeral port allocation.
    let mut net = Network::new(74);
    let h1 = net.add_host("client");
    let g = net.add_gateway("g");
    let h2 = net.add_host("server");
    net.connect(h1, g, LinkClass::EthernetLan);
    net.connect(g, h2, LinkClass::T1Terrestrial);
    net.converge_routing(Duration::from_secs(30));
    let dst = net.node(h2).primary_addr();

    for round in 0..5 {
        let sink = SinkServer::new(8000 + round, TcpConfig::default());
        let received = Arc::clone(&sink.received);
        net.attach_app(h2, Box::new(sink));
        let start = net.now();
        let sender = BulkSender::new(
            Endpoint::new(dst, 8000 + round),
            5_000,
            TcpConfig::default(),
            start,
        );
        let result = sender.result_handle();
        net.attach_app(h1, Box::new(sender));
        net.run_for(Duration::from_secs(30));
        assert!(
            result.lock().unwrap().completed_at.is_some(),
            "round {round}: {:?}",
            result.lock().unwrap()
        );
        assert_eq!(*received.lock().unwrap(), 5_000, "round {round}");
    }
    // Distinct ephemeral ports were used for each connection.
    let ports: std::collections::HashSet<u16> = net
        .node(h1)
        .tcp_sockets
        .iter()
        .map(|s| s.local().port)
        .collect();
    assert_eq!(ports.len(), 5);
}
