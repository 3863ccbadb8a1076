//! Virtual-circuit gateways: the fate-sharing counterfactual.
//!
//! In this mode a gateway refuses to forward a TCP segment unless it has
//! a *circuit* — per-connection forwarding state installed by observing
//! the connection's SYN. That is exactly the X.25/virtual-circuit world
//! the paper's §3 describes and rejects: "if the state information is
//! stored in the intermediate packet switching nodes ... loss of this
//! information \[destroys the conversation\]."
//!
//! The mechanism lives in [`crate::node::Node::vc_table`] (it has to sit
//! on the forwarding path); this module provides the switch and the
//! scenario-level tests. Experiment E1 runs the same gateway-crash
//! scenario with and without circuits and reports connection survival.

use crate::network::{Network, NodeId};
use std::collections::HashMap;

/// Put a gateway into virtual-circuit mode.
pub fn enable(net: &mut Network, gateway: NodeId) {
    net.node_mut(gateway).vc_table = Some(HashMap::new());
}

/// Number of circuits currently installed at a gateway.
pub fn circuit_count(net: &Network, gateway: NodeId) -> usize {
    net.node(gateway)
        .vc_table
        .as_ref()
        .map_or(0, |table| table.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{BulkSender, SinkServer};
    use crate::Endpoint;
    use catenet_sim::{Duration, Instant, LinkClass};
    use catenet_tcp::SocketConfig as TcpConfig;
    use std::sync::Arc;

    fn line_net(seed: u64) -> (Network, NodeId, NodeId, NodeId) {
        let mut net = Network::new(seed);
        let h1 = net.add_host("h1");
        let g = net.add_gateway("g");
        let h2 = net.add_host("h2");
        net.connect(h1, g, LinkClass::T1Terrestrial);
        net.connect(g, h2, LinkClass::T1Terrestrial);
        (net, h1, g, h2)
    }

    #[test]
    fn circuits_installed_by_syn_and_traffic_flows() {
        let (mut net, h1, g, h2) = line_net(31);
        enable(&mut net, g);
        let dst = net.node(h2).primary_addr();
        let sink = SinkServer::new(80, TcpConfig::default());
        let received = Arc::clone(&sink.received);
        net.attach_app(h2, Box::new(sink));
        let sender = BulkSender::new(
            Endpoint::new(dst, 80),
            20_000,
            TcpConfig::default(),
            Instant::from_millis(10),
        );
        let result = sender.result_handle();
        net.attach_app(h1, Box::new(sender));
        net.run_for(Duration::from_secs(60));
        assert!(result.lock().unwrap().completed_at.is_some(), "VC mode forwards fine");
        assert_eq!(*received.lock().unwrap(), 20_000);
        // Both directions of the connection installed circuits.
        assert_eq!(circuit_count(&net, g), 2);
    }

    #[test]
    fn gateway_reboot_kills_circuits_but_not_datagram_forwarding() {
        let (mut net, h1, g, h2) = line_net(32);
        enable(&mut net, g);
        let dst = net.node(h2).primary_addr();
        net.node_mut(h2).tcp_listen(80, TcpConfig::default());
        let now = net.now();
        let handle = net
            .node_mut(h1)
            .tcp_connect(Endpoint::new(dst, 80), TcpConfig::default(), now)
            .unwrap();
        net.kick(h1);
        net.run_for(Duration::from_secs(2));
        assert_eq!(
            net.node(h1).tcp_sockets[handle].state(),
            catenet_tcp::State::Established
        );
        assert_eq!(circuit_count(&net, g), 2);

        // Crash + instant reboot: routing returns, circuits do not.
        net.crash_node(g);
        net.restart_node(g);
        enable(&mut net, g); // VC software restarts too — with empty table
        net.run_for(Duration::from_secs(10)); // routing re-converges
        assert_eq!(circuit_count(&net, g), 0);

        // Mid-connection segments are now refused.
        net.node_mut(h1).tcp_sockets[handle]
            .send_slice(b"are you there?")
            .unwrap();
        net.kick(h1);
        net.run_for(Duration::from_secs(5));
        assert!(net.node(g).stats.dropped_no_circuit > 0, "old connection starves");
        // But ICMP (non-TCP) still flows — only *connection* state died.
        let now = net.now();
        net.node_mut(h1).send_ping(dst, 5, 1, 16, now);
        net.kick(h1);
        net.run_for(Duration::from_secs(2));
        assert_eq!(net.node_mut(h1).take_icmp_events().len(), 1);
    }

    #[test]
    fn stateless_gateway_survives_same_scenario() {
        // The control arm: no VC mode, same crash, connection lives.
        let (mut net, h1, g, h2) = line_net(33);
        let dst = net.node(h2).primary_addr();
        net.node_mut(h2).tcp_listen(80, TcpConfig::default());
        let now = net.now();
        let handle = net
            .node_mut(h1)
            .tcp_connect(Endpoint::new(dst, 80), TcpConfig::default(), now)
            .unwrap();
        net.kick(h1);
        net.run_for(Duration::from_secs(2));
        net.crash_node(g);
        net.restart_node(g);
        net.run_for(Duration::from_secs(10));
        net.node_mut(h1).tcp_sockets[handle]
            .send_slice(b"are you there?")
            .unwrap();
        net.kick(h1);
        net.run_for(Duration::from_secs(10));
        let server = &mut net.node_mut(h2).tcp_sockets[0];
        let mut buf = [0u8; 64];
        let n = server.recv_slice(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"are you there?", "fate-sharing: conversation survived");
    }
}
