//! E13's scale topologies: gateway rings and grid meshes with a bulk
//! TCP transfer around every second gateway.
//!
//! One run of each network gives both of E13's verdicts — the scheduler
//! under it and the buffer path through it. Each builder populates a
//! network the caller made (E13 arms the scheduler trace first: a
//! replayable trace has to start at event zero) and hands back the
//! gateway ids so forwarding counters can be summed. E16's overhead
//! ring lays the same flows around a ring of its own.

use catenet_core::app::{BulkSender, SinkServer};
use catenet_core::{Endpoint, Network, NodeId, TcpConfig};
use catenet_sim::{fnv1a, Instant, LinkClass, FNV_OFFSET};

/// A host pair with a bulk transfer every this many gateways.
const FLOW_SPACING: usize = 2;
/// Bytes per bulk transfer on the E13 topologies.
const FLOW_BYTES: usize = 500_000;

/// Attach host pairs around the topology: at every `FLOW_SPACING`-th
/// gateway, a sender host two gateways away from a sink host, with a
/// `bytes` transfer starting once nearby routes have had time to
/// propagate. Local flows (short paths) keep the workload meaningful
/// during the convergence storm, and dozens of concurrent sockets give
/// the scheduler a deep pending queue and the pool a steady stream of
/// buffers to recycle.
pub fn add_flows(net: &mut Network, gateways: &[NodeId], bytes: usize) {
    for i in (0..gateways.len()).step_by(FLOW_SPACING) {
        let near = gateways[i];
        let far = gateways[(i + 2) % gateways.len()];
        let sender = net.add_host(format!("src{i}"));
        let sink = net.add_host(format!("dst{i}"));
        net.connect(sender, near, LinkClass::EthernetLan);
        net.connect(sink, far, LinkClass::EthernetLan);
        let dst = net.node(sink).primary_addr();
        let config = TcpConfig::default();
        net.attach_app(sink, Box::new(SinkServer::new(80, config.clone())));
        net.attach_app(
            sender,
            Box::new(BulkSender::new(
                Endpoint::new(dst, 80),
                bytes,
                config,
                Instant::from_secs(8),
            )),
        );
    }
}

/// Build a `gateways`-node ring with a host hanging off either side —
/// the E12 topology scaled up — and the flows around it.
pub fn build_ring(net: &mut Network, gateways: usize) -> Vec<NodeId> {
    let h1 = net.add_host("h1");
    let gs: Vec<NodeId> = (0..gateways)
        .map(|i| net.add_gateway(format!("g{i}")))
        .collect();
    net.connect(h1, gs[0], LinkClass::EthernetLan);
    for i in 0..gateways {
        net.connect(gs[i], gs[(i + 1) % gateways], LinkClass::T1Terrestrial);
    }
    let h2 = net.add_host("h2");
    net.connect(gs[gateways / 2], h2, LinkClass::EthernetLan);
    add_flows(net, &gs, FLOW_BYTES);
    gs
}

/// Build a `side`×`side` grid mesh of gateways (each connected to its
/// right and down neighbors) with hosts at opposite corners, and the
/// flows around it. Meshes have far more redundant paths than rings, so
/// the convergence storm is denser per node.
pub fn build_mesh(net: &mut Network, side: usize) -> Vec<NodeId> {
    let gs: Vec<NodeId> = (0..side * side)
        .map(|i| net.add_gateway(format!("g{i}")))
        .collect();
    for row in 0..side {
        for col in 0..side {
            let here = gs[row * side + col];
            if col + 1 < side {
                net.connect(here, gs[row * side + col + 1], LinkClass::T1Terrestrial);
            }
            if row + 1 < side {
                net.connect(here, gs[(row + 1) * side + col], LinkClass::T1Terrestrial);
            }
        }
    }
    let h1 = net.add_host("h1");
    let h2 = net.add_host("h2");
    net.connect(h1, gs[0], LinkClass::EthernetLan);
    net.connect(h2, gs[side * side - 1], LinkClass::EthernetLan);
    add_flows(net, &gs, FLOW_BYTES);
    gs
}

/// FNV-1a digests of the metrics, series and flight dumps: what a
/// timing-free JSON carries so two runs can be diffed on everything the
/// simulation can observe.
pub fn dumps(net: &Network) -> [u64; 3] {
    [
        fnv1a(FNV_OFFSET, net.metrics_dump().as_bytes()),
        fnv1a(FNV_OFFSET, net.series_dump().as_bytes()),
        fnv1a(FNV_OFFSET, net.flight_dump().as_bytes()),
    ]
}
