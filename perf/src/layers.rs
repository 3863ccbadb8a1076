//! The traced run's per-layer prices: inputs captured from the
//! workload (frames off the tap, RIP payloads, scheduler ops) replayed
//! through each crate's public functions, timed from outside.
//!
//! A workload that produces no input of some class — the real
//! substrate has no tap, a quiet window may hold no RIP — takes that
//! class from a small seeded reference scenario instead, and the run
//! says how many classes did (`harness.ref_kernels`).

use catenet_core::app::{BulkSender, CbrSink, CbrSource};
use catenet_core::iface::{Framing, Iface};
use catenet_core::pool::HEADROOM;
use catenet_core::{Endpoint, Network, Node, NodeRole, PacketBuf, PacketPool, TcpConfig};
use catenet_routing::{DvConfig, DvEngine, RipEntry, RipMessage, RIP_PORT};
use catenet_sim::{
    diffsched, Duration, Instant, Link, LinkClass, LinkParams, Rng, SchedulerKind, TraceOp,
};
use catenet_substrate::tunnel;
use catenet_tcp::{Socket, SocketConfig};
use catenet_telemetry::registry::{Registry, Scope};
use catenet_wire::{
    checksum, EtherType, EthernetAddress, EthernetFrame, IpProtocol, Ipv4Address, Ipv4Cidr,
    Ipv4Packet, TcpPacket, UdpPacket,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use crate::apps::{SinkCounters, VerifySink};
use crate::harness::{quiet_cost, Tracer};
use crate::metrics::Values;
use crate::sim::lossless;

/// Frames kept for replay; every frame is still counted.
const MAX_FRAMES: usize = 20_000;
const MAX_RIP: usize = 2_000;
/// Scheduler ops replayed (any prefix of a trace is itself a trace).
const MAX_SCHED_OPS: usize = 2_000_000;
/// Wall budget of one kernel.
const KERNEL_BUDGET_S: f64 = 0.25;

/// What the tap and the scheduler trace collected.
#[derive(Default)]
pub struct Capture {
    /// Frame bytes back to back; `spans` indexes them. One arena, so
    /// capturing allocates once.
    arena: Vec<u8>,
    spans: Vec<(usize, usize)>,
    pub frames_seen: u64,
    /// RIP payloads with the announcing neighbour's address.
    rip: Vec<(Ipv4Address, Vec<u8>)>,
    pub rip_seen: u64,
    pub sched: Vec<TraceOp>,
}

impl Capture {
    pub fn with_capacity() -> Capture {
        Capture {
            arena: Vec::with_capacity(MAX_FRAMES * 256),
            spans: Vec::with_capacity(MAX_FRAMES),
            ..Capture::default()
        }
    }

    fn observe(&mut self, frame: &[u8]) {
        self.frames_seen += 1;
        if self.spans.len() < MAX_FRAMES {
            self.spans.push((self.arena.len(), frame.len()));
            self.arena.extend_from_slice(frame);
        }
        if let Some((src, payload)) = rip_payload(frame) {
            self.rip_seen += 1;
            if self.rip.len() < MAX_RIP {
                self.rip.push((src, payload.to_vec()));
            }
        }
    }

    fn frames(&self) -> impl Iterator<Item = &[u8]> {
        self.spans
            .iter()
            .map(|&(at, len)| &self.arena[at..at + len])
    }

    /// Keep the scheduler ops recorded since tracing was armed, behind
    /// one `Schedule` per event that was already pending then, so the
    /// replayed queue starts as deep as the live one was.
    pub fn set_sched(&mut self, pending: usize, armed_at: Instant, mut ops: Vec<TraceOp>) {
        ops.truncate(MAX_SCHED_OPS);
        self.sched = vec![TraceOp::Schedule(armed_at.total_micros()); pending];
        self.sched.extend(ops);
    }
}

/// Install a tap on `net` that feeds a fresh [`Capture`].
pub fn arm_tap(net: &mut Network) -> Rc<RefCell<Capture>> {
    let capture = Rc::new(RefCell::new(Capture::with_capacity()));
    let sink = Rc::clone(&capture);
    net.set_tap(Box::new(move |_at, frame| sink.borrow_mut().observe(frame)));
    capture
}

/// The IPv4 datagram inside a tapped frame: trunks carry it raw,
/// LANs behind an Ethernet header; anything else (ARP) is `None`.
fn ip_of(frame: &[u8]) -> Option<&[u8]> {
    if frame.first() == Some(&0x45) {
        return Some(frame);
    }
    let eth = EthernetFrame::new_checked(frame).ok()?;
    (eth.ethertype() == EtherType::Ipv4).then(|| &frame[catenet_wire::ethernet::HEADER_LEN..])
}

fn rip_payload(frame: &[u8]) -> Option<(Ipv4Address, &[u8])> {
    let datagram = ip_of(frame)?;
    let ip = Ipv4Packet::new_checked(datagram).ok()?;
    if ip.protocol() != IpProtocol::Udp || ip.is_fragment() {
        return None;
    }
    let udp = UdpPacket::new_checked(ip.payload()).ok()?;
    if udp.dst_port() != RIP_PORT {
        return None;
    }
    let udp_at = usize::from(ip.header_len());
    let payload = udp_at + catenet_wire::UDP_HEADER_LEN..udp_at + usize::from(udp.len_field());
    Some((ip.src_addr(), &datagram[payload]))
}

/// A transit data datagram: UDP or TCP that a gateway would forward.
fn is_transit(datagram: &[u8]) -> bool {
    let Ok(ip) = Ipv4Packet::new_checked(datagram) else {
        return false;
    };
    ip.hop_limit() > 1
        && !ip.is_fragment()
        && matches!(ip.protocol(), IpProtocol::Udp | IpProtocol::Tcp)
        && rip_payload(datagram).is_none()
}

/// Two hosts behind two gateways carrying one CBR stream and one bulk
/// transfer, tapped and scheduler-traced from event zero: a few
/// thousand frames of every kind the stack emits.
pub fn reference_capture(seed: u64) -> (Capture, Network) {
    let mut net = Network::new(seed);
    net.set_sched_trace(true);
    let capture = arm_tap(&mut net);
    let h1 = net.add_host("h1");
    let g1 = net.add_gateway("g1");
    let g2 = net.add_gateway("g2");
    let h2 = net.add_host("h2");
    net.connect_with(h1, g1, lossless(LinkClass::EthernetLan), Framing::Ethernet);
    net.connect_with(g1, g2, lossless(LinkClass::T1Terrestrial), Framing::RawIp);
    net.connect_with(g2, h2, lossless(LinkClass::EthernetLan), Framing::Ethernet);
    let dst = net.node(h2).primary_addr();
    net.attach_app(h2, Box::new(CbrSink::new(5000)));
    net.attach_app(
        h1,
        Box::new(CbrSource::new(
            Endpoint::new(dst, 5000),
            Duration::from_millis(5),
            160,
            Instant::from_secs(1),
            Instant::from_secs(3600),
        )),
    );
    let config = TcpConfig {
        mss: 1460,
        ..TcpConfig::default()
    };
    net.attach_app(
        h2,
        Box::new(VerifySink::new(
            80,
            config.clone(),
            Arc::new(SinkCounters::default()),
        )),
    );
    net.attach_app(
        h1,
        Box::new(BulkSender::new(
            Endpoint::new(dst, 80),
            1 << 40,
            config,
            Instant::from_secs(1),
        )),
    );
    net.run_until(Instant::from_secs(6));
    let ops = net.take_sched_trace();
    let mut capture = std::mem::take(&mut *capture.borrow_mut());
    capture.set_sched(0, Instant::ZERO, ops);
    (capture, net)
}

/// Per-layer prices of one traced run.
pub struct Prices {
    pub sched_ns_per_op: f64,
    pub link_ns_per_transmit: f64,
    pub wire_ns_per_parse: f64,
    pub checksum_ns_per_kb: f64,
    pub node_ns_per_forward: f64,
    pub node_bytes_copied_per_forward: f64,
    pub node_ns_per_idle_service: f64,
    pub tcp_ns_per_segment: f64,
    pub routing_ns_per_update: f64,
    pub counter_ns_per_add: f64,
    pub tunnel_ns_per_encode: f64,
    pub tunnel_ns_per_decode: f64,
    /// Input classes taken from the reference scenario.
    pub ref_kernels: u64,
}

/// Record the prices under their metric names.
pub fn set_prices(v: &mut Values, p: &Prices) {
    v.set("sim.sched.ns_per_op", p.sched_ns_per_op);
    v.set("sim.link.ns_per_transmit", p.link_ns_per_transmit);
    v.set("wire.ns_per_parse", p.wire_ns_per_parse);
    v.set("wire.checksum_ns_per_kb", p.checksum_ns_per_kb);
    v.set("core.node.ns_per_forward", p.node_ns_per_forward);
    v.set(
        "core.pool.bytes_copied_per_forward",
        p.node_bytes_copied_per_forward,
    );
    v.set("core.node.ns_per_idle_service", p.node_ns_per_idle_service);
    v.set("tcp.ns_per_segment", p.tcp_ns_per_segment);
    v.set("routing.ns_per_update", p.routing_ns_per_update);
    v.set("telemetry.ns_per_counter_add", p.counter_ns_per_add);
    v.set("substrate.tunnel.ns_per_encode", p.tunnel_ns_per_encode);
    v.set("substrate.tunnel.ns_per_decode", p.tunnel_ns_per_decode);
    v.set("harness.ref_kernels", p.ref_kernels as f64);
}

/// Call `sample` (one pass, returning its nanoseconds per operation)
/// repeatedly inside a span: the quiet quantile over passes.
fn sampled(tracer: &mut Tracer, name: &str, mut sample: impl FnMut() -> f64) -> f64 {
    let (samples, _) = tracer.span(format!("replay:{name}"), |_| {
        sample(); // warm caches and the allocator
        let started = std::time::Instant::now();
        let mut samples = Vec::new();
        while samples.len() < 3
            || (started.elapsed().as_secs_f64() < KERNEL_BUDGET_S && samples.len() < 200)
        {
            samples.push(sample());
        }
        samples
    });
    quiet_cost(samples)
}

/// [`sampled`] for a `pass` that is timed whole and performs `ops`
/// operations.
fn kernel(tracer: &mut Tracer, name: &str, ops: usize, mut pass: impl FnMut()) -> f64 {
    assert!(ops > 0, "{name}: nothing to replay");
    sampled(tracer, name, || {
        let t0 = std::time::Instant::now();
        pass();
        t0.elapsed().as_nanos() as f64 / ops as f64
    })
}

/// A gateway on its own: datagrams enter on interface 0 and a default
/// route sends them out of interface 1, both raw-IP so no ARP state
/// is involved.
fn standalone_gateway(pool: &PacketPool) -> Node {
    let mut node = Node::new("replay-gw", NodeRole::Gateway);
    node.set_pool(pool.clone());
    for (index, third) in [(0u8, 0u8), (1, 4)] {
        node.attach_iface(Iface {
            addr: Ipv4Address::new(10, 250, 0, third + 1),
            cidr: Ipv4Cidr::new(Ipv4Address::new(10, 250, 0, third), 30),
            hardware: EthernetAddress::new(0x02, 0xBE, 0, 0, 0, index),
            peer: Ipv4Address::new(10, 250, 0, third + 2),
            ip_mtu: 1500,
            framing: Framing::RawIp,
            up: true,
        });
    }
    node.static_routes.insert(
        Ipv4Cidr::new(Ipv4Address::UNSPECIFIED, 0),
        (1, Some(Ipv4Address::new(10, 250, 0, 6))),
    );
    node
}

/// Parse and verify one frame the way a receiving host would: link
/// header, IPv4 header checksum, transport checksum.
fn parse_verify(frame: &[u8]) -> bool {
    let Some(datagram) = ip_of(frame) else {
        return EthernetFrame::new_checked(frame).is_ok();
    };
    let Ok(ip) = Ipv4Packet::new_checked(datagram) else {
        return false;
    };
    if !ip.verify_checksum() {
        return false;
    }
    let (src, dst) = (ip.src_addr(), ip.dst_addr());
    match ip.protocol() {
        IpProtocol::Udp => {
            UdpPacket::new_checked(ip.payload()).is_ok_and(|p| p.verify_checksum(src, dst))
        }
        IpProtocol::Tcp => {
            TcpPacket::new_checked(ip.payload()).is_ok_and(|p| p.verify_checksum(src, dst))
        }
        _ => true,
    }
}

/// Price every layer. Each input class comes from `own` when the
/// workload captured any of it, else from `reference`.
pub fn price(tracer: &mut Tracer, own: &Capture, reference: &Capture) -> Prices {
    let mut ref_kernels = 0;
    let mut pick = |own_has: bool| {
        if own_has {
            own
        } else {
            ref_kernels += 1;
            reference
        }
    };
    let frames_from = pick(!own.spans.is_empty());
    let transit_from = pick(own.frames().filter_map(ip_of).any(is_transit));
    let rip_from = pick(!own.rip.is_empty());
    let sched_from = pick(!own.sched.is_empty());

    // sim: the scheduler under the workload's own op mix.
    let trace = &sched_from.sched;
    let sched_ns_per_op = kernel(tracer, "sim.sched", trace.len(), || {
        std::hint::black_box(diffsched::replay_trace(SchedulerKind::Wheel, trace));
    });

    // sim: the link model. Time advances by each frame's serialization
    // time, so the queue never fills and every frame takes the
    // delivered path.
    let mut arena = frames_from.arena.clone();
    let spans = &frames_from.spans;
    let params = LinkParams {
        mtu: 1600,
        ..lossless(LinkClass::T1Terrestrial)
    };
    let link_ns_per_transmit = kernel(tracer, "sim.link", spans.len(), || {
        let mut link = Link::new(params.clone());
        let mut rng = Rng::from_seed(1);
        let mut now = Instant::ZERO;
        for &(at, len) in spans {
            std::hint::black_box(link.transmit(now, &mut arena[at..at + len], &mut rng));
            now += params.tx_time(len);
        }
    });

    // wire: parse and verify, and the Internet checksum by itself.
    let wire_ns_per_parse = kernel(tracer, "wire.parse", spans.len(), || {
        let ok = frames_from
            .frames()
            .filter(|f| parse_verify(std::hint::black_box(f)))
            .count();
        std::hint::black_box(ok);
    });
    let frame_kb = frames_from.arena.len() as f64 / 1024.0;
    let checksum_ns_per_kb = kernel(tracer, "wire.checksum", spans.len(), || {
        for frame in frames_from.frames() {
            std::hint::black_box(checksum::checksum(std::hint::black_box(frame)));
        }
    }) * spans.len() as f64
        / frame_kb;

    // core.node: forwarding on a standalone gateway. Buffers are drawn
    // from the pool and filled before the clock starts; the timed part
    // is `handle_frame` plus draining the outbox, as a lane does.
    let transit: Vec<&[u8]> = transit_from
        .frames()
        .filter_map(ip_of)
        .filter(|d| is_transit(d))
        .collect();
    let pool = PacketPool::new();
    let mut gateway = standalone_gateway(&pool);
    let copied_before = pool.stats().bytes_copied;
    let forwarded_before = gateway.stats.ip_forwarded;
    let node_ns_per_forward = sampled(tracer, "core.node.forward", || {
        let batch: Vec<PacketBuf> = transit
            .iter()
            .map(|d| {
                let mut buf = pool.alloc(HEADROOM, d.len());
                buf.copy_from_slice(d);
                buf
            })
            .collect();
        let t0 = std::time::Instant::now();
        for buf in batch {
            gateway.handle_frame(Instant::from_secs(1), 0, buf);
            std::hint::black_box(gateway.take_outbox());
        }
        t0.elapsed().as_nanos() as f64 / transit.len() as f64
    });
    let forwarded = gateway.stats.ip_forwarded - forwarded_before;
    assert!(forwarded > 0, "the standalone gateway forwarded nothing");
    let node_bytes_copied_per_forward =
        (pool.stats().bytes_copied - copied_before) as f64 / forwarded as f64;

    // core.node: a service pass with nothing due.
    let mut idle_at = Instant::from_secs(1);
    gateway.service(idle_at);
    let node_ns_per_idle_service = kernel(tracer, "core.node.idle_service", 10_000, || {
        for _ in 0..10_000 {
            idle_at += Duration::from_micros(1);
            gateway.service(idle_at);
        }
        std::hint::black_box(gateway.take_outbox());
    });

    // tcp: two sockets back to back, segments carried by hand.
    let tcp_ns_per_segment = tcp_ns_per_segment(tracer);

    // routing: `handle_update` on decoded announcements. A fresh engine
    // per pass, so every pass learns the same routes.
    let updates: Vec<(Ipv4Address, Vec<RipEntry>)> = rip_from
        .rip
        .iter()
        .filter_map(|(src, payload)| Some((*src, RipMessage::decode(payload).ok()?.entries)))
        .collect();
    let routing_ns_per_update = kernel(tracer, "routing.update", updates.len(), || {
        let mut dv = DvEngine::new(DvConfig::fast());
        dv.add_connected(Ipv4Cidr::new(Ipv4Address::new(10, 250, 0, 0), 30), 0);
        for (src, entries) in &updates {
            std::hint::black_box(dv.handle_update(*src, 0, entries, Instant::from_secs(1)));
        }
    });

    // telemetry: a counter bump on an interned instrument.
    let mut registry = Registry::new();
    let ids: Vec<_> = (0..256)
        .map(|n| registry.counter("perf_probe", Scope::Node(n)))
        .collect();
    let counter_ns_per_add = kernel(tracer, "telemetry.counter_add", ids.len() * 64, || {
        for _ in 0..64 {
            for &id in &ids {
                registry.add(std::hint::black_box(id), 1);
            }
        }
    });

    // substrate: tunnel framing both ways.
    let tunnel_ns_per_encode = kernel(tracer, "substrate.tunnel.encode", spans.len(), || {
        for frame in frames_from.frames() {
            std::hint::black_box(tunnel::encode(7, std::hint::black_box(frame)));
        }
    });
    let encoded: Vec<Vec<u8>> = frames_from.frames().map(|f| tunnel::encode(7, f)).collect();
    let tunnel_ns_per_decode = kernel(tracer, "substrate.tunnel.decode", encoded.len(), || {
        for datagram in &encoded {
            std::hint::black_box(tunnel::decode(7, std::hint::black_box(datagram)).is_ok());
        }
    });

    Prices {
        sched_ns_per_op,
        link_ns_per_transmit,
        wire_ns_per_parse,
        checksum_ns_per_kb,
        node_ns_per_forward,
        node_bytes_copied_per_forward,
        node_ns_per_idle_service,
        tcp_ns_per_segment,
        routing_ns_per_update,
        counter_ns_per_add,
        tunnel_ns_per_encode,
        tunnel_ns_per_decode,
        ref_kernels,
    }
}

/// An established connection pumped by hand: the client writes, its
/// segments go straight into the server's `process`, the server's
/// ACKs straight back. Nanoseconds per segment either side emitted.
fn tcp_ns_per_segment(tracer: &mut Tracer) -> f64 {
    let a = Ipv4Address::new(10, 250, 1, 1);
    let b = Ipv4Address::new(10, 250, 1, 2);
    let config = SocketConfig {
        mss: 1460,
        ..SocketConfig::default()
    };
    let mut client = Socket::new(config.clone());
    let mut server = Socket::new(config);
    server.listen(Endpoint::new(b, 80)).expect("fresh socket");
    client
        .connect(Endpoint::new(a, 4000), Endpoint::new(b, 80), Instant::ZERO)
        .expect("fresh socket");
    let chunk = vec![0x5Au8; 8192];
    let mut sink = vec![0u8; 8192];
    let mut now = Instant::ZERO;
    let mut round = |client: &mut Socket, server: &mut Socket| {
        now += Duration::from_millis(1);
        let _ = client.send_slice(&chunk);
        while let Some((repr, data)) = client.dispatch(now) {
            server.process(now, b, a, &repr, &data);
        }
        while server.recv_slice(&mut sink).is_ok_and(|n| n > 0) {}
        while let Some((repr, data)) = server.dispatch(now) {
            client.process(now, a, b, &repr, &data);
        }
    };
    // Handshake and slow start are set-up, not steady state.
    for _ in 0..2_000 {
        round(&mut client, &mut server);
    }
    sampled(tracer, "tcp.segment", || {
        let before = client.stats.segs_sent + server.stats.segs_sent;
        let t0 = std::time::Instant::now();
        for _ in 0..500 {
            round(&mut client, &mut server);
        }
        let elapsed = t0.elapsed().as_nanos() as f64;
        let segments = client.stats.segs_sent + server.stats.segs_sent - before;
        assert!(segments > 0, "the back-to-back sockets stalled");
        elapsed / segments as f64
    })
}
