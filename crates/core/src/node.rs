//! A node: host or gateway.
//!
//! The same struct plays both roles because the architecture says they
//! differ in exactly one bit — whether the node forwards datagrams that
//! are not addressed to it. What each *keeps* differs profoundly:
//!
//! - A **gateway** keeps topology state (routing tables, learned by the
//!   distance-vector protocol) and *optionally* soft flow state and an
//!   accounting ledger. None of it describes any conversation; all of it
//!   is reconstructible. Crash a gateway and reboot it: connections
//!   running through it stall briefly and resume (experiment E1).
//! - A **host** keeps every byte of conversation state: TCP sockets,
//!   reassembly buffers, estimators. Crash a host and its conversations
//!   die *with* it — which is precisely fate-sharing's promise: state is
//!   lost only when the entity that cared about it is gone too.

use crate::arp::{ArpCache, Resolution};
use crate::byzantine::Compromise;
use crate::events::{grew, EventRecord};
use crate::iface::{Framing, Iface};
use crate::pool::{PacketBuf, PacketPool, HEADROOM};
use crate::socket::UdpSocket;
use catenet_accounting::flow::FlowId;
use catenet_accounting::ledger::Ledger;
use catenet_accounting::table::FlowTable;
use catenet_ip::{fragment_with, icmp, FragError, Reassembler, RoutingTable};
use catenet_routing::{DvEngine, ExportPolicy, RipMessage, RIP_PORT};
use catenet_sim::{ByzantineAttack, Duration, Instant};
use catenet_tcp::{Endpoint, Socket as TcpSocket, SocketConfig as TcpConfig, State as TcpState};
use catenet_wire::{
    ethernet, icmpv4, ipv4, ArpOperation, ArpPacket, ArpRepr, DstUnreachable, EtherType,
    EthernetAddress, EthernetFrame, EthernetRepr, Icmpv4Message, Icmpv4Packet, Icmpv4Repr,
    IpProtocol, Ipv4Address, Ipv4Packet, Ipv4Repr, TcpControl, TcpPacket, TcpRepr,
    TcpSeqNumber, TimeExceeded, Tos, UdpPacket, UdpRepr, UDP_HEADER_LEN,
};
use std::collections::{HashMap, VecDeque};

/// ICMP events a node keeps for an application that has not collected
/// them yet; beyond this the oldest is dropped (and counted).
pub const ICMP_INBOX_LIMIT: usize = 64;

/// Host or gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// End system: terminates transports, never forwards.
    Host,
    /// Packet switch: forwards, runs routing, holds no conversation state.
    Gateway,
}

/// Counters a node keeps about its own behavior.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeStats {
    /// IP datagrams handed up from links.
    pub ip_received: u64,
    /// Datagrams delivered to local protocols.
    pub ip_delivered: u64,
    /// Datagrams forwarded toward other nodes.
    pub ip_forwarded: u64,
    /// Datagrams originated by local sockets/protocols.
    pub ip_originated: u64,
    /// Drops: bad header checksum or unparseable.
    pub dropped_malformed: u64,
    /// Drops: no route to destination.
    pub dropped_no_route: u64,
    /// Drops: TTL expired in transit.
    pub dropped_ttl: u64,
    /// Drops: node was dead.
    pub dropped_dead: u64,
    /// Drops: DF set but fragmentation required.
    pub dropped_df: u64,
    /// Drops: virtual-circuit gateway had no circuit (baseline mode).
    pub dropped_no_circuit: u64,
    /// Drops: transport checksum failures.
    pub dropped_transport_checksum: u64,
    /// Drops: payload CRC32C option present but mismatched — corruption
    /// the 16-bit Internet checksum failed to catch.
    pub dropped_payload_crc: u64,
    /// Fragments created while forwarding or originating.
    pub frags_created: u64,
    /// ICMP messages generated.
    pub icmp_sent: u64,
    /// ICMP messages received for local consumption.
    pub icmp_received: u64,
    /// RSTs sent for segments with no matching socket.
    pub rst_sent: u64,
    /// ICMP source quenches emitted on queue overflow.
    pub quench_sent: u64,
    /// ICMP source quenches received and applied to local sockets.
    pub quench_applied: u64,
    /// ARP requests retransmitted after no reply (backoff timer).
    pub arp_retries: u64,
    /// Drops: ARP pending queue overflowed (or entry raced to Known).
    pub dropped_arp_unresolved: u64,
    /// Drops: ARP resolution gave up after exhausting its retries.
    pub dropped_arp_gave_up: u64,
    /// Drops: frame arrived for an interface index we don't have.
    pub dropped_bad_iface: u64,
    /// Drops: this (compromised) gateway silently ate a datagram for a
    /// victim prefix it had attracted with a black-hole advertisement.
    pub dropped_byzantine: u64,
    /// ICMP events dropped, oldest first, because no application took
    /// them before [`ICMP_INBOX_LIMIT`] more arrived.
    pub icmp_inbox_dropped: u64,
    /// Data bytes TCP peers acknowledged, over every socket the node
    /// has had: unlike the sockets, this survives a crash.
    pub tcp_bytes_acked: u64,
}

/// An ICMP message delivered to this node (for ping apps and error
/// reporting).
#[derive(Debug, Clone)]
pub struct IcmpEvent {
    /// Arrival time.
    pub at: Instant,
    /// Source of the ICMP datagram.
    pub from: Ipv4Address,
    /// The message.
    pub message: Icmpv4Message,
    /// The ICMP payload (echo data, or the quoted original datagram).
    pub payload: Vec<u8>,
}

/// What a node's timers say at the end of a service pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Timers {
    /// When the node next needs a wake ([`Node::poll_at`]).
    pub wake: Option<Instant>,
    /// The idle gate this pass may arm. `None`: the node has work the
    /// clock does not announce (a socket, a flow table, a reassembly, a
    /// pending triggered update) or is dead.
    pub gate: Option<IdleGate>,
}

/// The idle gate a full service pass leaves behind on a node with
/// nothing but timers, kept until anything disturbs them. See
/// DESIGN.md, "What a service pass costs".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IdleGate {
    /// Before this instant [`Node::service`] has nothing to do unless
    /// something other than the clock touches the node first.
    pub until: Instant,
    /// The wake the arming pass asked for.
    pub wake: Option<Instant>,
}

/// A host or gateway with its interfaces, sockets and protocol state.
pub struct Node {
    /// Display name.
    pub name: String,
    /// Host or gateway.
    pub role: NodeRole,
    /// False while crashed.
    pub alive: bool,
    /// Attachment points. Index = interface number everywhere.
    pub ifaces: Vec<Iface>,
    /// Per-interface ARP caches (used by Ethernet framing).
    arp: Vec<ArpCache>,
    /// Static routes (hosts; also gateway fallback).
    pub static_routes: RoutingTable<(usize, Option<Ipv4Address>)>,
    /// The distance-vector engine (gateways).
    pub dv: Option<DvEngine>,
    /// Export policy per interface (multi-AS boundaries).
    pub dv_policies: Vec<ExportPolicy>,
    reassembler: Reassembler,
    /// UDP sockets.
    pub udp_sockets: Vec<UdpSocket>,
    /// TCP sockets.
    pub tcp_sockets: Vec<TcpSocket>,
    /// Soft-state flow table (gateways, when enabled).
    pub flows: Option<FlowTable>,
    /// Accounting ledger (gateways, when enabled).
    pub ledger: Option<Ledger>,
    /// Virtual-circuit mode (baseline): per-connection forwarding state.
    pub vc_table: Option<HashMap<FlowId, usize>>,
    /// ICMP messages awaiting the application, newest last; bounded by
    /// [`ICMP_INBOX_LIMIT`].
    icmp_inbox: VecDeque<IcmpEvent>,
    /// Armed by the lane loop after a full service pass, cleared by
    /// everything that could give the next pass work: here, any receive
    /// path but the pure forward; in the network, every `&mut Node` it
    /// hands out.
    idle: Option<IdleGate>,
    /// Frames ready for the network to push onto links.
    outbox: Vec<(usize, PacketBuf)>,
    /// What the node did since the lane last took its record.
    events: EventRecord,
    /// The routing-table version the node last reported.
    reported_version: u64,
    /// The buffer pool all tx/rx packet memory comes from. Standalone
    /// nodes own a private pool; a [`Network`](crate::network) replaces
    /// it with the shared one at attach time so buffers recycle across
    /// the whole internetwork.
    pool: PacketPool,
    ip_ident: u16,
    next_ephemeral: u16,
    isn_counter: u32,
    /// Counters.
    pub stats: NodeStats,
    /// Default TTL for originated datagrams.
    pub default_ttl: u8,
    /// Whether this node emits ICMP source quench on queue overflow
    /// (RFC 792's congestion signal — gateways only, on by default).
    pub source_quench_enabled: bool,
    /// Rate limiter: last quench emission time.
    last_quench: Instant,
    /// The lie this node tells and the prefix it eats while compromised
    /// (see [`Node::compromise`]). Boxed: nearly every node is honest.
    compromise: Option<Box<Compromise>>,
}

impl Node {
    /// A node with no interfaces yet (the network builder attaches them).
    pub fn new(name: impl Into<String>, role: NodeRole) -> Node {
        let dv = match role {
            NodeRole::Gateway => Some(DvEngine::new(catenet_routing::DvConfig::fast())),
            NodeRole::Host => None,
        };
        Node {
            name: name.into(),
            role,
            alive: true,
            ifaces: Vec::new(),
            arp: Vec::new(),
            static_routes: RoutingTable::new(),
            dv,
            dv_policies: Vec::new(),
            reassembler: Reassembler::new(),
            udp_sockets: Vec::new(),
            tcp_sockets: Vec::new(),
            flows: None,
            ledger: None,
            vc_table: None,
            icmp_inbox: VecDeque::new(),
            idle: None,
            outbox: Vec::new(),
            events: EventRecord::default(),
            reported_version: 0,
            pool: PacketPool::new(),
            ip_ident: 1,
            next_ephemeral: 49_152,
            isn_counter: 0x0001_0000,
            stats: NodeStats::default(),
            default_ttl: 64,
            source_quench_enabled: role == NodeRole::Gateway,
            last_quench: Instant::ZERO,
            compromise: None,
        }
    }

    /// Replace this node's packet pool (the network shares one pool
    /// across the nodes of a lane so buffers recycle between them).
    /// Buffers the node already holds recycle where they came from.
    pub fn set_pool(&mut self, pool: PacketPool) {
        self.pool = pool;
    }

    /// Attach an interface; returns its index.
    pub fn attach_iface(&mut self, iface: Iface) -> usize {
        let index = self.ifaces.len();
        if let Some(dv) = &mut self.dv {
            dv.add_connected(iface.cidr.network(), index);
        }
        self.ifaces.push(iface);
        self.arp.push(ArpCache::new());
        self.dv_policies.push(ExportPolicy::All);
        index
    }

    /// Raise or drop interface `iface`: the flag flips and routing
    /// re-learns the connected prefix, or loses it together with every
    /// route learned over the interface. Only this end is told.
    pub fn set_iface_up(&mut self, iface: usize, up: bool, now: Instant) {
        self.ifaces[iface].up = up;
        let cidr = self.ifaces[iface].cidr.network();
        if let Some(dv) = &mut self.dv {
            if up {
                dv.add_connected(cidr, iface);
            } else {
                dv.remove_connected(&cidr);
                dv.fail_iface(iface, now);
            }
        }
    }

    /// Whether `addr` is one of our addresses.
    pub fn owns_addr(&self, addr: Ipv4Address) -> bool {
        self.ifaces.iter().any(|iface| iface.addr == addr)
    }

    /// Our address on interface `iface`.
    pub fn addr(&self, iface: usize) -> Ipv4Address {
        self.ifaces[iface].addr
    }

    /// The primary (first-interface) address.
    pub fn primary_addr(&self) -> Ipv4Address {
        self.ifaces.first().map(|i| i.addr).unwrap_or_default()
    }

    /// The IP reassembler. Its counters reset on crash, like everything
    /// else volatile; what the node reported of them does not.
    pub fn reassembler(&self) -> &Reassembler {
        &self.reassembler
    }

    // ------------------------------------------------------------ fate

    /// Crash: all volatile state dies. What a node loses here is the
    /// paper's survivability story in one function.
    pub fn crash(&mut self) {
        self.alive = false;
        // Conversation state (host): gone, and *should* be.
        self.tcp_sockets.clear();
        self.udp_sockets.clear();
        self.reassembler = Reassembler::new();
        self.icmp_inbox.clear();
        self.outbox.clear();
        // Topology state (gateway): gone, but reconstructible.
        if let Some(dv) = &mut self.dv {
            dv.clear();
        }
        for cache in &mut self.arp {
            cache.clear();
        }
        // Soft state: gone, rebuilds from traffic.
        if let Some(flows) = &mut self.flows {
            flows.lose();
        }
        if let Some(ledger) = &mut self.ledger {
            ledger.clear();
        }
        // Hard state in the network (VC baseline): gone, NOT
        // reconstructible — that is the point of experiment E1.
        if let Some(vc) = &mut self.vc_table {
            vc.clear();
        }
    }

    /// Reboot: connected routes of the interfaces that are up are
    /// re-declared (configuration, not conversation), and everything
    /// else re-learns.
    pub fn restart(&mut self) {
        self.alive = true;
        if let Some(dv) = &mut self.dv {
            dv.clear();
        }
        self.declare_connected();
    }

    /// Compromise the node: from its next advertisement on, every page
    /// it sends carries `attack`'s lie (its own table stays honest), and
    /// a traffic-attraction attack eats the transit it captures. A node
    /// already compromised keeps its first lie; returns whether this
    /// call compromised it. A crash and reboot keep the compromise.
    pub(crate) fn compromise(&mut self, attack: ByzantineAttack) -> bool {
        if self.compromise.is_some() {
            return false;
        }
        self.compromise = Some(Box::new(Compromise::new(attack)));
        true
    }

    /// Heal a compromise: the node advertises and forwards honestly
    /// again. Returns whether it was compromised.
    pub(crate) fn rehabilitate(&mut self) -> bool {
        self.compromise.take().is_some()
    }

    /// Whether the node silently eats transit for `dst` (a compromise
    /// that attracts the victim's traffic).
    pub fn eats(&self, dst: Ipv4Address) -> bool {
        self.compromise
            .as_ref()
            .is_some_and(|compromise| compromise.eats(dst))
    }

    /// Declare every interface that is up as a connected network. A
    /// downed interface stays withdrawn: a reboot or an engine swap is
    /// not a link coming back.
    fn declare_connected(&mut self) {
        if let Some(dv) = &mut self.dv {
            for (index, iface) in self.ifaces.iter().enumerate() {
                if iface.up {
                    dv.add_connected(iface.cidr.network(), index);
                }
            }
        }
    }

    // --------------------------------------------------------- sockets

    /// Replace the distance-vector configuration (gateways only),
    /// re-declaring the connected networks that are up into the fresh
    /// engine.
    pub fn set_dv_config(&mut self, config: catenet_routing::DvConfig) {
        let Some(old) = &self.dv else {
            return;
        };
        // The guard policy, the signing identity and the prefix-owner
        // registry are configuration, like the timers: they survive an
        // engine swap.
        let guard_policy = *old.guard().policy();
        let registry = old.guard().registry().cloned();
        let attestor = old.attestor().copied();
        let mut dv = DvEngine::new(config);
        dv.set_guard_policy(guard_policy);
        dv.guard_mut().set_registry(registry);
        dv.set_attestor(attestor);
        self.dv = Some(dv);
        self.declare_connected();
    }

    /// Bind a UDP socket; returns its handle.
    pub fn udp_bind(&mut self, port: u16) -> usize {
        self.udp_sockets.push(UdpSocket::bind(port));
        self.udp_sockets.len() - 1
    }

    /// Open a TCP connection; returns the socket handle.
    pub fn tcp_connect(
        &mut self,
        remote: Endpoint,
        mut config: TcpConfig,
        now: Instant,
    ) -> Result<usize, catenet_tcp::TcpError> {
        let (iface, _) = self
            .route(remote.addr)
            .ok_or(catenet_tcp::TcpError::InvalidState)?;
        let local = Endpoint::new(self.ifaces[iface].addr, self.alloc_port());
        config.initial_seq = self.next_isn();
        let mut socket = TcpSocket::new(config);
        socket.connect(local, remote, now)?;
        self.tcp_sockets.push(socket);
        Ok(self.tcp_sockets.len() - 1)
    }

    /// Open a listening TCP socket on `port`; returns the handle.
    pub fn tcp_listen(&mut self, port: u16, mut config: TcpConfig) -> usize {
        config.initial_seq = self.next_isn();
        let mut socket = TcpSocket::new(config);
        socket
            .listen(Endpoint::new(Ipv4Address::UNSPECIFIED, port))
            .expect("fresh socket listens");
        self.tcp_sockets.push(socket);
        self.tcp_sockets.len() - 1
    }

    fn alloc_port(&mut self) -> u16 {
        let port = self.next_ephemeral;
        self.next_ephemeral = if self.next_ephemeral == u16::MAX {
            49_152
        } else {
            self.next_ephemeral + 1
        };
        port
    }

    fn next_isn(&mut self) -> u32 {
        // RFC 793's 4 µs clock would also do; a strided counter keeps
        // distinct connections apart deterministically.
        self.isn_counter = self.isn_counter.wrapping_add(64_007);
        self.isn_counter
    }

    /// Send an ICMP echo request (ping).
    pub fn send_ping(
        &mut self,
        dst: Ipv4Address,
        ident: u16,
        seq_no: u16,
        payload_len: usize,
        now: Instant,
    ) {
        let repr = Icmpv4Repr {
            message: Icmpv4Message::EchoRequest { ident, seq_no },
            payload_len,
        };
        let mut buf = self.payload_buf(icmpv4::HEADER_LEN, payload_len);
        buf.extend((0..payload_len).map(|i| (i % 251) as u8));
        let mut packet = Icmpv4Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut packet);
        packet.fill_checksum();
        let src = self
            .route(dst)
            .map(|(iface, _)| self.ifaces[iface].addr)
            .unwrap_or_else(|| self.primary_addr());
        self.prepend_ip(&mut buf, src, dst, IpProtocol::Icmp, Tos::default());
        self.route_and_send(now, buf);
    }

    /// Drain the ICMP inbox.
    pub fn take_icmp_events(&mut self) -> Vec<IcmpEvent> {
        core::mem::take(&mut self.icmp_inbox).into()
    }

    /// Queue an ICMP event for the application, dropping the oldest
    /// when nobody has collected [`ICMP_INBOX_LIMIT`] of them.
    fn push_icmp_event(&mut self, event: IcmpEvent) {
        if self.icmp_inbox.len() >= ICMP_INBOX_LIMIT {
            self.icmp_inbox.pop_front();
            self.stats.icmp_inbox_dropped += 1;
        }
        self.icmp_inbox.push_back(event);
    }

    // --------------------------------------------------------- routing

    /// Forwarding decision: which interface, and the next hop's address.
    pub fn route(&self, dst: Ipv4Address) -> Option<(usize, Ipv4Address)> {
        // Directly attached networks win.
        for (index, iface) in self.ifaces.iter().enumerate() {
            if iface.up && iface.on_link(dst) {
                return Some((index, dst));
            }
        }
        if let Some(dv) = &self.dv {
            if let Some(route) = dv.lookup(dst) {
                let iface = route.next_hop.iface();
                if self.ifaces.get(iface).is_some_and(|i| i.up) {
                    return Some((iface, route.next_hop.gateway().unwrap_or(dst)));
                }
            }
        }
        if let Some((iface, gateway)) = self.static_routes.lookup(dst) {
            if self.ifaces.get(*iface).is_some_and(|i| i.up) {
                return Some((*iface, gateway.unwrap_or(dst)));
            }
        }
        None
    }

    /// A pooled buffer holding a zeroed `header` for a transport to emit
    /// into, with room for the `payload` bytes appended behind it and
    /// headroom for the IP and link headers prepended in front.
    fn payload_buf(&self, header: usize, payload: usize) -> PacketBuf {
        self.pool.alloc_header(HEADROOM, header, payload)
    }

    /// Emit an IPv4 header *in front of* the transport payload already
    /// sitting in `buf` — the fast path's replacement for building the
    /// datagram into a fresh allocation and copying the payload across.
    fn prepend_ip(
        &mut self,
        buf: &mut PacketBuf,
        src: Ipv4Address,
        dst: Ipv4Address,
        protocol: IpProtocol,
        tos: Tos,
    ) {
        let ident = self.ip_ident;
        self.ip_ident = self.ip_ident.wrapping_add(1);
        self.stats.ip_originated += 1;
        let repr = Ipv4Repr {
            src_addr: src,
            dst_addr: dst,
            protocol,
            payload_len: buf.len(),
            hop_limit: self.default_ttl,
            tos,
        };
        buf.prepend(ipv4::HEADER_LEN);
        let mut packet = Ipv4Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut packet);
        packet.set_ident(ident);
        packet.fill_checksum();
    }

    /// Route a locally originated datagram and transmit it.
    pub fn route_and_send(&mut self, now: Instant, datagram: impl Into<PacketBuf>) {
        let datagram = datagram.into();
        let dst = match Ipv4Packet::new_checked(&datagram[..]) {
            Ok(packet) => packet.dst_addr(),
            Err(_) => {
                self.stats.dropped_malformed += 1;
                return;
            }
        };
        match self.route(dst) {
            Some((iface, next_hop)) => self.output_datagram(now, iface, next_hop, datagram),
            None => self.stats.dropped_no_route += 1,
        }
    }

    /// Fragment (if needed), frame, and queue a datagram on `iface`.
    fn output_datagram(
        &mut self,
        now: Instant,
        iface: usize,
        next_hop: Ipv4Address,
        datagram: impl Into<PacketBuf>,
    ) {
        let datagram = datagram.into();
        if !self.alive || !self.ifaces[iface].up {
            self.stats.dropped_dead += 1;
            return;
        }
        let mtu = self.ifaces[iface].ip_mtu;
        if datagram.len() <= mtu {
            self.frame_and_push(now, iface, next_hop, datagram);
            return;
        }
        // Each fragment is born in a pooled buffer with headroom, so the
        // link header downstream prepends in place like any datagram's.
        let split = fragment_with(&datagram, mtu, |piece| {
            let mut buf = self
                .pool
                .alloc_header(HEADROOM, ipv4::HEADER_LEN, piece.payload().len());
            buf.append(piece.payload());
            piece.emit_header(&mut buf);
            self.stats.frags_created += 1;
            self.frame_and_push(now, iface, next_hop, buf);
        });
        match split {
            Ok(()) => {}
            Err(FragError::DontFragment) => {
                self.stats.dropped_df += 1;
                self.send_icmp_error(
                    now,
                    &datagram,
                    Icmpv4Message::DstUnreachable(DstUnreachable::FragRequired),
                );
            }
            Err(_) => self.stats.dropped_malformed += 1,
        }
    }

    fn frame_and_push(
        &mut self,
        now: Instant,
        iface: usize,
        next_hop: Ipv4Address,
        mut datagram: PacketBuf,
    ) {
        match self.ifaces[iface].framing {
            Framing::RawIp => self.outbox.push((iface, datagram)),
            Framing::Ethernet => {
                if let Some(hw) = self.arp[iface].get(next_hop, now) {
                    self.prepend_ethernet(iface, hw, EtherType::Ipv4, &mut datagram);
                    self.outbox.push((iface, datagram));
                    return;
                }
                // A miss starts (or feeds) a resolution with a retry timer.
                self.idle = None;
                match self.arp[iface].resolve(next_hop, datagram, now) {
                    // `get()` above missed at the same instant, so
                    // `resolve` cannot hit; if it somehow does, the
                    // datagram was consumed — count it, don't panic.
                    Resolution::Known(_) => self.stats.dropped_arp_unresolved += 1,
                    Resolution::RequestAndWait => {
                        let request = self.build_arp_request(iface, next_hop);
                        self.outbox.push((iface, request));
                    }
                    Resolution::Wait => {}
                    Resolution::QueueFull => self.stats.dropped_arp_unresolved += 1,
                }
            }
        }
    }

    /// Emit an Ethernet header into the headroom in front of `frame`'s
    /// current contents (an IP datagram headed for the wire).
    fn prepend_ethernet(
        &self,
        iface: usize,
        dst: EthernetAddress,
        ethertype: EtherType,
        frame: &mut PacketBuf,
    ) {
        let repr = EthernetRepr {
            src_addr: self.ifaces[iface].hardware,
            dst_addr: dst,
            ethertype,
        };
        frame.prepend(ethernet::HEADER_LEN);
        repr.emit(&mut EthernetFrame::new_unchecked(&mut frame[..]));
    }

    fn build_arp_request(&self, iface: usize, target: Ipv4Address) -> PacketBuf {
        let arp = ArpRepr {
            operation: ArpOperation::Request,
            source_hardware_addr: self.ifaces[iface].hardware,
            source_protocol_addr: self.ifaces[iface].addr,
            target_hardware_addr: EthernetAddress::default(),
            target_protocol_addr: target,
        };
        let mut buf = self.pool.alloc(ethernet::HEADER_LEN, arp.buffer_len());
        arp.emit(&mut ArpPacket::new_unchecked(&mut buf[..]));
        self.prepend_ethernet(iface, EthernetAddress::BROADCAST, EtherType::Arp, &mut buf);
        buf
    }

    /// Take the frames queued for transmission. Tests use this; the
    /// network drains via `swap_outbox`, which reuses one scratch vector
    /// instead of allocating per pass.
    pub fn take_outbox(&mut self) -> Vec<(usize, PacketBuf)> {
        core::mem::take(&mut self.outbox)
    }

    /// Exchange the (empty) `scratch` vector for the full outbox; the
    /// network drains `scratch` and hands it back next pass.
    pub(crate) fn swap_outbox(&mut self, scratch: &mut Vec<(usize, PacketBuf)>) {
        core::mem::swap(&mut self.outbox, scratch);
    }

    // ------------------------------------------------------- reception

    /// A frame arrived on `iface`.
    pub fn handle_frame(&mut self, now: Instant, iface: usize, frame: impl Into<PacketBuf>) {
        let mut frame = frame.into();
        if !self.alive {
            self.stats.dropped_dead += 1;
            return;
        }
        let Some(framing) = self.ifaces.get(iface).map(|i| i.framing) else {
            self.stats.dropped_bad_iface += 1;
            return;
        };
        match framing {
            Framing::RawIp => self.handle_datagram(now, frame),
            Framing::Ethernet => {
                let ethertype = {
                    let Ok(parsed) = EthernetFrame::new_checked(&frame[..]) else {
                        self.stats.dropped_malformed += 1;
                        return;
                    };
                    // Address filter: us or broadcast/multicast.
                    let dst = parsed.dst_addr();
                    if dst != self.ifaces[iface].hardware && dst.is_unicast() {
                        return;
                    }
                    parsed.ethertype()
                };
                match ethertype {
                    EtherType::Arp => self.handle_arp(now, iface, &frame[ethernet::HEADER_LEN..]),
                    EtherType::Ipv4 => {
                        // Strip the link header in place: the bytes stay
                        // put and become headroom for the next hop's
                        // framing.
                        frame.advance(ethernet::HEADER_LEN);
                        let datagram = self.pool.adopt(frame);
                        self.handle_datagram(now, datagram);
                    }
                    EtherType::Unknown(_) => {}
                }
            }
        }
    }

    fn handle_arp(&mut self, now: Instant, iface: usize, payload: &[u8]) {
        self.idle = None;
        let Ok(packet) = ArpPacket::new_checked(payload) else {
            self.stats.dropped_malformed += 1;
            return;
        };
        let Ok(repr) = ArpRepr::parse(&packet) else {
            self.stats.dropped_malformed += 1;
            return;
        };
        // Learn the sender either way (gratuitous or directed).
        let released =
            self.arp[iface].learn(repr.source_protocol_addr, repr.source_hardware_addr, now);
        for mut datagram in released {
            self.prepend_ethernet(iface, repr.source_hardware_addr, EtherType::Ipv4, &mut datagram);
            self.outbox.push((iface, datagram));
        }
        if repr.operation == ArpOperation::Request
            && repr.target_protocol_addr == self.ifaces[iface].addr
        {
            let reply = ArpRepr {
                operation: ArpOperation::Reply,
                source_hardware_addr: self.ifaces[iface].hardware,
                source_protocol_addr: self.ifaces[iface].addr,
                target_hardware_addr: repr.source_hardware_addr,
                target_protocol_addr: repr.source_protocol_addr,
            };
            let mut buf = self.pool.alloc(ethernet::HEADER_LEN, reply.buffer_len());
            reply.emit(&mut ArpPacket::new_unchecked(&mut buf[..]));
            self.prepend_ethernet(iface, repr.source_hardware_addr, EtherType::Arp, &mut buf);
            self.outbox.push((iface, buf));
        }
    }

    /// An IP datagram arrived (already stripped of framing).
    pub fn handle_datagram(&mut self, now: Instant, datagram: impl Into<PacketBuf>) {
        let datagram = datagram.into();
        self.stats.ip_received += 1;
        let (dst, is_fragment, header_ok) = match Ipv4Packet::new_checked(&datagram[..]) {
            Ok(packet) => (packet.dst_addr(), packet.is_fragment(), packet.verify_checksum()),
            Err(_) => {
                self.stats.dropped_malformed += 1;
                return;
            }
        };
        if !header_ok {
            self.stats.dropped_malformed += 1;
            return;
        }

        // Observation points (gateways): ledger and soft flow state see
        // every datagram that transits, local or forwarded.
        if let Some(ledger) = &mut self.ledger {
            ledger.record(&datagram);
        }
        if let Some(flows) = &mut self.flows {
            let before = flow_counts(flows);
            flows.observe(&datagram, now);
            grew(&mut self.events.flows, before, flow_counts(flows));
        }

        let local = self.owns_addr(dst)
            || self
                .ifaces
                .iter()
                .any(|iface| iface.up && iface.is_broadcast(dst));

        if local {
            // Anything delivered here can reach routing, reassembly or a
            // socket; only the forward below leaves `service` no work.
            self.idle = None;
            if is_fragment {
                let before = reassembly_counts(&self.reassembler);
                let pushed = self.reassembler.push(&datagram, now);
                grew(&mut self.events.reassembly, before, reassembly_counts(&self.reassembler));
                match pushed {
                    Ok(Some(whole)) => self.deliver_local(now, whole),
                    Ok(None) => {}
                    Err(_) => self.stats.dropped_malformed += 1,
                }
            } else {
                self.deliver_local(now, datagram);
            }
            return;
        }

        if self.role == NodeRole::Gateway {
            self.forward(now, datagram);
        }
        // Hosts silently drop strangers' datagrams.
    }

    fn forward(&mut self, now: Instant, mut datagram: PacketBuf) {
        // Virtual-circuit baseline: no circuit, no forwarding.
        if self.vc_table.is_some() && !self.vc_admit(&datagram) {
            self.stats.dropped_no_circuit += 1;
            return;
        }
        let (dst, expired) = {
            let mut packet = Ipv4Packet::new_unchecked(&mut datagram[..]);
            let ttl = packet.decrement_hop_limit();
            (packet.dst_addr(), ttl == 0)
        };
        if expired {
            self.stats.dropped_ttl += 1;
            self.send_icmp_error(
                now,
                &datagram,
                Icmpv4Message::TimeExceeded(TimeExceeded::TtlExpired),
            );
            return;
        }
        // A compromised gateway eats victim-prefix transit silently —
        // no ICMP, no log: from the outside it looks like the path
        // simply lost the datagram, which is what makes a routing
        // black hole so hard to diagnose.
        if self.eats(dst) {
            self.stats.dropped_byzantine += 1;
            return;
        }
        match self.route(dst) {
            Some((iface, next_hop)) => {
                self.stats.ip_forwarded += 1;
                self.output_datagram(now, iface, next_hop, datagram);
            }
            None => {
                self.stats.dropped_no_route += 1;
                self.send_icmp_error(
                    now,
                    &datagram,
                    Icmpv4Message::DstUnreachable(DstUnreachable::NetUnreachable),
                );
            }
        }
    }

    /// Virtual-circuit admission (baseline `vc`): TCP SYNs install
    /// circuits; everything else needs one. Non-TCP traffic is admitted
    /// (the baseline pins *connection* state, the paper's §3 target).
    fn vc_admit(&mut self, datagram: &[u8]) -> bool {
        let Ok(packet) = Ipv4Packet::new_checked(datagram) else {
            return false;
        };
        if packet.protocol() != IpProtocol::Tcp || packet.is_fragment() {
            return true;
        }
        let Ok(tcp) = TcpPacket::new_checked(packet.payload()) else {
            return true;
        };
        let Some(id) = FlowId::of_datagram(datagram) else {
            return true;
        };
        let out_iface = self.route(packet.dst_addr()).map(|(iface, _)| iface);
        let Some(vc) = self.vc_table.as_mut() else {
            // Only called in VC mode; admit rather than panic if not.
            return true;
        };
        if tcp.syn() {
            if let Some(iface) = out_iface {
                vc.insert(id, iface);
            }
            true
        } else {
            vc.contains_key(&id)
        }
    }

    /// The network layer reports that a frame this node offered to a
    /// link was tail-dropped (queue overflow). A 1988 gateway answers
    /// with ICMP source quench toward the datagram's source — the era's
    /// only explicit congestion signal (rate-limited here, as RFC 1122
    /// demands of all ICMP error generation).
    pub fn on_queue_drop(&mut self, now: Instant, iface: usize, frame: &[u8]) {
        if !self.source_quench_enabled || !self.alive {
            return;
        }
        // Rate limit: at most one quench per 2 ms.
        if now.duration_since(self.last_quench) < Duration::from_millis(2)
            && self.last_quench != Instant::ZERO
        {
            return;
        }
        let Some(framing) = self.ifaces.get(iface).map(|i| i.framing) else {
            self.stats.dropped_bad_iface += 1;
            return;
        };
        let datagram = match framing {
            Framing::RawIp => frame,
            Framing::Ethernet => {
                let Ok(eth) = EthernetFrame::new_checked(frame) else {
                    return;
                };
                if eth.ethertype() != EtherType::Ipv4 {
                    return;
                }
                &frame[catenet_wire::ethernet::HEADER_LEN..]
            }
        };
        // Don't quench our own originations (the socket already sees
        // the loss); only transit traffic.
        if let Ok(packet) = Ipv4Packet::new_checked(datagram) {
            if self.owns_addr(packet.src_addr()) {
                return;
            }
        }
        self.last_quench = now;
        self.stats.quench_sent += 1;
        self.send_icmp_error(now, datagram, Icmpv4Message::SourceQuench);
    }

    /// Parse the datagram quote inside an ICMP error: returns
    /// (src, dst, protocol, src_port, dst_port). The quote is only the
    /// header + 8 bytes, so full packet validation is impossible —
    /// exactly the situation real stacks face.
    fn parse_icmp_quote(quote: &[u8]) -> Option<(Ipv4Address, Ipv4Address, IpProtocol, u16, u16)> {
        if quote.len() < 20 || quote[0] >> 4 != 4 {
            return None;
        }
        let ihl = usize::from(quote[0] & 0x0f) * 4;
        if ihl < 20 || quote.len() < ihl + 4 {
            return None;
        }
        let src = Ipv4Address::from_bytes(&quote[12..16]);
        let dst = Ipv4Address::from_bytes(&quote[16..20]);
        let protocol = IpProtocol::from(quote[9]);
        let src_port = u16::from_be_bytes([quote[ihl], quote[ihl + 1]]);
        let dst_port = u16::from_be_bytes([quote[ihl + 2], quote[ihl + 3]]);
        Some((src, dst, protocol, src_port, dst_port))
    }

    fn send_icmp_error(&mut self, now: Instant, original: &[u8], message: Icmpv4Message) {
        // Source the error from the interface facing the sender.
        let replier = match Ipv4Packet::new_checked(original) {
            Ok(packet) => self
                .route(packet.src_addr())
                .map(|(iface, _)| self.ifaces[iface].addr)
                .unwrap_or_else(|| self.primary_addr()),
            Err(_) => return,
        };
        if let Some(error) = icmp::icmp_error_for(original, message, replier) {
            self.stats.icmp_sent += 1;
            self.route_and_send(now, error);
        }
    }

    fn deliver_local(&mut self, now: Instant, datagram: impl Into<PacketBuf>) {
        let datagram = datagram.into();
        self.stats.ip_delivered += 1;
        let Ok(packet) = Ipv4Packet::new_checked(&datagram[..]) else {
            self.stats.dropped_malformed += 1;
            return;
        };
        let src = packet.src_addr();
        let dst = packet.dst_addr();
        let protocol = packet.protocol();
        // Borrow, don't copy: the transport layers read the payload in
        // place and copy only what genuinely changes owner (socket rx).
        let payload = packet.payload();

        match protocol {
            IpProtocol::Icmp => self.deliver_icmp(now, src, dst, &datagram, payload),
            IpProtocol::Udp => self.deliver_udp(now, src, dst, &datagram, payload),
            IpProtocol::Tcp => self.deliver_tcp(now, src, dst, payload),
            IpProtocol::Unknown(_) => {
                self.send_icmp_error(
                    now,
                    &datagram,
                    Icmpv4Message::DstUnreachable(DstUnreachable::ProtoUnreachable),
                );
            }
        }
    }

    fn deliver_icmp(
        &mut self,
        now: Instant,
        src: Ipv4Address,
        dst: Ipv4Address,
        _datagram: &[u8],
        payload: &[u8],
    ) {
        let Ok(packet) = Icmpv4Packet::new_checked(payload) else {
            self.stats.dropped_malformed += 1;
            return;
        };
        let Ok(repr) = Icmpv4Repr::parse(&packet) else {
            self.stats.dropped_transport_checksum += 1;
            return;
        };
        self.stats.icmp_received += 1;
        match repr.message {
            Icmpv4Message::EchoRequest { ident, seq_no } => {
                // Answer with an echo reply carrying the same payload.
                let reply = Icmpv4Repr {
                    message: Icmpv4Message::EchoReply { ident, seq_no },
                    payload_len: repr.payload_len,
                };
                let mut buf = self.payload_buf(icmpv4::HEADER_LEN, repr.payload_len);
                buf.append(packet.payload());
                let mut out = Icmpv4Packet::new_unchecked(&mut buf[..]);
                reply.emit(&mut out);
                out.fill_checksum();
                self.stats.icmp_sent += 1;
                self.prepend_ip(&mut buf, dst, src, IpProtocol::Icmp, Tos::default());
                self.route_and_send(now, buf);
            }
            Icmpv4Message::SourceQuench => {
                // Steer the quench to the TCP connection it quotes: the
                // quoted datagram is one WE sent, so its source is our
                // local endpoint.
                if let Some((q_src, q_dst, proto, sport, dport)) =
                    Self::parse_icmp_quote(packet.payload())
                {
                    if proto == IpProtocol::Tcp {
                        let target = self.tcp_sockets.iter_mut().find(|socket| {
                            socket.local() == Endpoint::new(q_src, sport)
                                && socket.remote() == Endpoint::new(q_dst, dport)
                        });
                        if let Some(socket) = target {
                            socket.on_source_quench();
                            self.stats.quench_applied += 1;
                        }
                    }
                }
                self.push_icmp_event(IcmpEvent {
                    at: now,
                    from: src,
                    message: Icmpv4Message::SourceQuench,
                    payload: packet.payload().to_vec(),
                });
            }
            message => {
                self.push_icmp_event(IcmpEvent {
                    at: now,
                    from: src,
                    message,
                    payload: packet.payload().to_vec(),
                });
            }
        }
    }

    fn deliver_udp(
        &mut self,
        now: Instant,
        src: Ipv4Address,
        dst: Ipv4Address,
        datagram: &[u8],
        payload: &[u8],
    ) {
        let Ok(packet) = UdpPacket::new_checked(payload) else {
            self.stats.dropped_malformed += 1;
            return;
        };
        let Ok(repr) = UdpRepr::parse(&packet, src, dst) else {
            self.stats.dropped_transport_checksum += 1;
            return;
        };
        // Routing advertisements are consumed by the gateway itself;
        // hosts ignore routing chatter silently (RFC 1058 §3.1 — they
        // may listen passively, but never answer with ICMP errors).
        if repr.dst_port == RIP_PORT {
            if self.dv.is_some() {
                self.handle_rip(now, src, packet.payload());
            }
            return;
        }
        let from = Endpoint::new(src, repr.src_port);
        match self
            .udp_sockets
            .iter_mut()
            .find(|socket| socket.local_port == repr.dst_port)
        {
            Some(socket) => socket.deliver(from, now, packet.payload().to_vec()),
            None => {
                self.send_icmp_error(
                    now,
                    datagram,
                    Icmpv4Message::DstUnreachable(DstUnreachable::PortUnreachable),
                );
            }
        }
    }

    fn handle_rip(&mut self, now: Instant, from: Ipv4Address, payload: &[u8]) {
        let Ok(message) = RipMessage::decode(payload) else {
            self.stats.dropped_malformed += 1;
            return;
        };
        // Which interface faces this neighbor?
        let Some(iface) = self
            .ifaces
            .iter()
            .position(|i| i.up && i.on_link(from))
        else {
            return;
        };
        if let Some(dv) = &mut self.dv {
            let before = dv.guard().neighbor_verdicts(from);
            dv.handle_update(from, iface, &message.entries, now);
            self.events.judged(from, before, dv.guard_mut());
        }
    }

    fn deliver_tcp(&mut self, now: Instant, src: Ipv4Address, dst: Ipv4Address, payload: &[u8]) {
        let Ok(packet) = TcpPacket::new_checked(payload) else {
            self.stats.dropped_malformed += 1;
            return;
        };
        let Ok(repr) = TcpRepr::parse(&packet, src, dst) else {
            self.stats.dropped_transport_checksum += 1;
            return;
        };
        let data = packet.payload();
        // Opt-in strong integrity: verify the payload CRC32C whenever
        // the sender carried one. This catches exactly the corruption
        // classes the one's-complement checksum is blind to; the drop
        // leaves recovery to TCP retransmission, like any other loss.
        if let Some(crc) = repr.payload_crc {
            if crc != catenet_wire::crc32c(data) {
                self.stats.dropped_payload_crc += 1;
                return;
            }
        }
        // Synchronized sockets first, then listeners.
        let target = self
            .tcp_sockets
            .iter()
            .position(|s| s.state() != TcpState::Listen && s.accepts(dst, src, &repr))
            .or_else(|| {
                self.tcp_sockets
                    .iter()
                    .position(|s| s.state() == TcpState::Listen && s.accepts(dst, src, &repr))
            });
        match target {
            Some(index) => {
                let socket = &mut self.tcp_sockets[index];
                let (fired, acked) = (socket.stats.timeouts, socket.stats.bytes_acked);
                socket.process(now, dst, src, &repr, data);
                self.events.rto_fired += socket.stats.timeouts - fired;
                self.stats.tcp_bytes_acked += socket.stats.bytes_acked - acked;
            }
            None => {
                // RFC 793: a segment to nowhere earns an RST (unless it
                // is itself an RST).
                if repr.control != TcpControl::Rst {
                    self.send_tcp_rst(now, src, dst, &repr, data.len());
                }
            }
        }
    }

    fn send_tcp_rst(
        &mut self,
        now: Instant,
        src: Ipv4Address,
        dst: Ipv4Address,
        offending: &TcpRepr,
        payload_len: usize,
    ) {
        self.stats.rst_sent += 1;
        let rst = match offending.ack_number {
            Some(ack) => TcpRepr {
                src_port: offending.dst_port,
                dst_port: offending.src_port,
                control: TcpControl::Rst,
                seq_number: ack,
                ack_number: None,
                window_len: 0,
                max_seg_size: None,
                payload_crc: None,
                payload_len: 0,
            },
            None => TcpRepr {
                src_port: offending.dst_port,
                dst_port: offending.src_port,
                control: TcpControl::Rst,
                seq_number: TcpSeqNumber(0),
                ack_number: Some(
                    offending.seq_number + payload_len + offending.control.len(),
                ),
                window_len: 0,
                max_seg_size: None,
                payload_crc: None,
                payload_len: 0,
            },
        };
        let mut buf = Self::build_tcp_segment(&self.pool, &rst, (&[], &[]), dst, src);
        self.prepend_ip(&mut buf, dst, src, IpProtocol::Tcp, Tos::default());
        self.route_and_send(now, buf);
    }

    /// A pooled buffer holding the emitted TCP segment, headroom in
    /// front for the IP header. `payload` is the socket's transmit ring
    /// as it lends it (two slices when the range wraps). The one copy
    /// here — ring into wire buffer, appended behind the zeroed header —
    /// is the transfer of ownership from socket land to packet land;
    /// everything downstream prepends in place.
    fn build_tcp_segment(
        pool: &PacketPool,
        repr: &TcpRepr,
        payload: (&[u8], &[u8]),
        src: Ipv4Address,
        dst: Ipv4Address,
    ) -> PacketBuf {
        debug_assert_eq!(payload.0.len() + payload.1.len(), repr.payload_len);
        let mut buf = pool.alloc_header(HEADROOM, repr.header_len(), repr.payload_len);
        buf.append(payload.0);
        buf.append(payload.1);
        let mut packet = TcpPacket::new_unchecked(&mut buf[..]);
        repr.emit(&mut packet);
        packet.fill_checksum(src, dst);
        buf
    }

    // --------------------------------------------------------- service

    /// Run the node's periodic machinery and drain socket output.
    /// Called by the network after event delivery and on timer wakes.
    pub fn service(&mut self, now: Instant) {
        if !self.alive {
            return;
        }
        let before = reassembly_counts(&self.reassembler);
        self.reassembler.expire(now);
        grew(&mut self.events.reassembly, before, reassembly_counts(&self.reassembler));
        self.service_arp(now);
        if let Some(flows) = &mut self.flows {
            let before = flow_counts(flows);
            flows.expire_idle(now);
            grew(&mut self.events.flows, before, flow_counts(flows));
        }
        // Routing protocol.
        self.service_dv(now);
        // Transports.
        self.service_tcp(now);
        self.service_udp(now);
    }

    /// Expire stale ARP entries and drive the request retry machinery:
    /// due requests are retransmitted with backoff; resolutions that
    /// exhausted their attempts drop their pending datagrams (counted,
    /// not silent).
    fn service_arp(&mut self, now: Instant) {
        let mut retries: Vec<(usize, Ipv4Address)> = Vec::new();
        for (index, cache) in self.arp.iter_mut().enumerate() {
            cache.flush_expired(now);
            let tick = cache.tick(now);
            for target in tick.retries {
                self.stats.arp_retries += 1;
                retries.push((index, target));
            }
            for (_, dropped) in tick.gave_up {
                self.stats.dropped_arp_gave_up += dropped as u64;
                self.events.arp_gave_up += dropped as u64;
            }
        }
        for (iface, target) in retries {
            if !self.ifaces[iface].up {
                continue;
            }
            let request = self.build_arp_request(iface, target);
            self.outbox.push((iface, request));
        }
    }

    fn service_dv(&mut self, now: Instant) {
        let Some(dv) = &mut self.dv else {
            return;
        };
        dv.tick(now);
        let periodic = dv.periodic_due(now);
        let triggered = dv.triggered_due();
        if !periodic && !triggered {
            return;
        }
        let mut to_send: Vec<(usize, Vec<u8>)> = Vec::new();
        for (index, iface) in self.ifaces.iter().enumerate() {
            if !iface.up {
                continue;
            }
            let entries =
                dv.advertisement_for(index, &self.dv_policies[index], periodic);
            if entries.is_empty() && !periodic {
                continue;
            }
            for mut page in RipMessage::paginate(entries) {
                if let Some(compromise) = &mut self.compromise {
                    compromise.lie(index, &mut page);
                }
                to_send.push((index, page.encode()));
            }
        }
        dv.advertisements_sent(now);
        for (iface, payload) in to_send {
            let datagram = self.build_udp_datagram(
                self.ifaces[iface].addr,
                RIP_PORT,
                Endpoint::new(self.ifaces[iface].peer, RIP_PORT),
                Tos::default(),
                &payload,
            );
            let next_hop = self.ifaces[iface].peer;
            self.output_datagram(now, iface, next_hop, datagram);
        }
    }

    fn build_udp_datagram(
        &mut self,
        src: Ipv4Address,
        src_port: u16,
        to: Endpoint,
        tos: Tos,
        payload: &[u8],
    ) -> PacketBuf {
        let udp_repr = UdpRepr {
            src_port,
            dst_port: to.port,
            payload_len: payload.len(),
        };
        let mut buf = self.payload_buf(UDP_HEADER_LEN, payload.len());
        buf.append(payload);
        {
            let mut udp = UdpPacket::new_unchecked(&mut buf[..]);
            udp_repr.emit(&mut udp);
            udp.fill_checksum(src, to.addr);
        }
        self.prepend_ip(&mut buf, src, to.addr, IpProtocol::Udp, tos);
        buf
    }

    fn service_tcp(&mut self, now: Instant) {
        for index in 0..self.tcp_sockets.len() {
            let socket = &self.tcp_sockets[index];
            let (src, dst) = (socket.local().addr, socket.remote().addr);
            let fired = socket.stats.timeouts;
            while let Some(mut buf) = self.tcp_sockets[index].dispatch_with(now, |repr, head, tail| {
                Self::build_tcp_segment(&self.pool, repr, (head, tail), src, dst)
            }) {
                self.prepend_ip(&mut buf, src, dst, IpProtocol::Tcp, Tos::default());
                self.route_and_send(now, buf);
            }
            self.events.rto_fired += self.tcp_sockets[index].stats.timeouts - fired;
        }
    }

    fn service_udp(&mut self, now: Instant) {
        for index in 0..self.udp_sockets.len() {
            while let Some((to, payload)) = self.udp_sockets[index].take_tx() {
                let Some((iface, _)) = self.route(to.addr) else {
                    self.stats.dropped_no_route += 1;
                    continue;
                };
                let src = self.ifaces[iface].addr;
                let (src_port, tos) = {
                    let socket = &self.udp_sockets[index];
                    (socket.local_port, socket.tos)
                };
                let datagram = self.build_udp_datagram(src, src_port, to, tos, &payload);
                self.route_and_send(now, datagram);
            }
        }
    }

    /// When this node next needs a timer wake.
    pub fn poll_at(&self, now: Instant) -> Option<Instant> {
        self.timers(now).wake
    }

    /// One walk over everything with a clock: the wake [`Node::poll_at`]
    /// reports and, beside it, how long [`Node::service`] stays a no-op
    /// if only time passes.
    pub(crate) fn timers(&self, now: Instant) -> Timers {
        if !self.alive {
            return Timers {
                wake: None,
                gate: None,
            };
        }
        let mut wake: Option<Instant> = None;
        let mut consider = |at: Instant| {
            wake = Some(match wake {
                Some(current) => current.min(at),
                None => at,
            });
        };
        let mut idle = self.tcp_sockets.is_empty()
            && self.udp_sockets.is_empty()
            && self.flows.is_none()
            && self.reassembler.in_progress() == 0;
        let mut until = Instant::FAR_FUTURE;
        for socket in &self.tcp_sockets {
            if let Some(at) = socket.poll_at() {
                // `Instant::ZERO` means "immediately".
                consider(if at <= now { now } else { at });
            }
        }
        if let Some(dv) = &self.dv {
            consider(dv.poll_at().max(now));
            idle &= !dv.triggered_due();
            until = until.min(dv.poll_at()).min(dv.next_expiry());
        }
        if self.reassembler.in_progress() > 0 {
            consider(now + Duration::from_secs(1));
        }
        for cache in &self.arp {
            if let Some(at) = cache.next_event() {
                consider(at.max(now));
                until = until.min(at);
            }
        }
        Timers {
            wake,
            gate: idle.then_some(IdleGate { until, wake }),
        }
    }

    /// The idle gate, if the last full service pass armed one and
    /// nothing has disturbed the node since.
    pub(crate) fn idle_gate(&self) -> Option<IdleGate> {
        self.idle
    }

    /// Arm (or, with `None`, clear) the idle gate. The lane loop arms it
    /// at the end of a full pass; everything that could give the next
    /// pass work clears it.
    pub(crate) fn set_idle_gate(&mut self, gate: Option<IdleGate>) {
        self.idle = gate;
    }

    /// The routing-table version, if it moved since the last report.
    fn unreported_version(&self) -> Option<u64> {
        let version = self.dv.as_ref().map(DvEngine::version);
        version.filter(|&v| v != self.reported_version)
    }

    /// What the node did since its record was last taken, if anything;
    /// the lane takes it after every full pass. The two facts known
    /// only now are filled in here: a routing version not reported
    /// before, and the RTO total over the node's sockets.
    pub(crate) fn take_events(&mut self) -> Option<EventRecord> {
        if let Some(version) = self.unreported_version() {
            self.reported_version = version;
            self.events.route_version = Some(version);
        }
        if self.events.rto_fired > 0 {
            self.events.rto_total = self.tcp_sockets.iter().map(|s| s.stats.timeouts).sum();
        }
        (!self.events.is_empty()).then(|| core::mem::take(&mut self.events))
    }

    /// Check, from scratch and without the cached bounds, that
    /// [`Node::service`] at `now` would do nothing, that the node still
    /// wants the wake its gate recorded and that it has nothing to
    /// report. Run on every pass the lane loop skips in a debug build.
    #[cfg(debug_assertions)]
    pub(crate) fn assert_idle(&self, now: Instant) {
        let gate = self.idle.expect("a skipped pass has an armed gate");
        let name = &self.name;
        assert!(self.alive, "{name}: skipped a pass on a dead node");
        assert!(
            self.tcp_sockets.is_empty() && self.udp_sockets.is_empty(),
            "{name}: skipped a pass on a node with sockets"
        );
        assert!(self.flows.is_none(), "{name}: skipped a pass over a flow table");
        assert_eq!(self.reassembler.in_progress(), 0, "{name}: reassembly in progress");
        if let Some(dv) = &self.dv {
            assert!(!dv.triggered_due(), "{name}: triggered update pending");
            assert!(!dv.periodic_due(now), "{name}: periodic update due");
            for (prefix, route) in dv.routes() {
                assert!(route.expires_at > now, "{name}: route {prefix} due at {now}");
            }
        }
        for cache in &self.arp {
            assert!(
                cache.next_event().is_none_or(|at| at > now),
                "{name}: ARP retry due at {now}"
            );
        }
        assert_eq!(self.timers(now).wake, gate.wake, "{name}: wanted wake moved");
        assert_eq!(self.unreported_version(), None, "{name}: route change unreported");
        assert!(self.events.is_empty(), "{name}: had something to report");
    }
}

/// A reassembler's counters: completed, timed out, evicted.
fn reassembly_counts(r: &Reassembler) -> [u64; 3] {
    [r.completed, r.timed_out, r.evicted]
}

/// A flow table's counters: evictions, idle expiries, fragments
/// attributed and left unattributed.
fn flow_counts(flows: &FlowTable) -> [u64; 4] {
    [flows.evicted, flows.expired, flows.frag_attributed, flows.frag_unattributed]
}

impl core::fmt::Debug for Node {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Node")
            .field("name", &self.name)
            .field("role", &self.role)
            .field("alive", &self.alive)
            .field("ifaces", &self.ifaces.len())
            .field("tcp_sockets", &self.tcp_sockets.len())
            .field("udp_sockets", &self.udp_sockets.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catenet_routing::message::MAX_ENTRIES;
    use catenet_routing::{GuardPolicy, RipEntry, RouteGuard};
    use catenet_wire::Ipv4Cidr;

    fn host_with_iface() -> Node {
        let mut node = Node::new("h", NodeRole::Host);
        node.attach_iface(Iface {
            addr: Ipv4Address::new(10, 0, 0, 1),
            cidr: Ipv4Cidr::new(Ipv4Address::new(10, 0, 0, 0), 30),
            hardware: EthernetAddress::new(2, 0, 0, 0, 0, 1),
            peer: Ipv4Address::new(10, 0, 0, 2),
            ip_mtu: 1500,
            framing: Framing::RawIp,
            up: true,
        });
        node.static_routes.insert(
            Ipv4Cidr::new(Ipv4Address::UNSPECIFIED, 0),
            (0, Some(Ipv4Address::new(10, 0, 0, 2))),
        );
        node
    }

    #[test]
    fn route_prefers_on_link() {
        let node = host_with_iface();
        let (iface, next_hop) = node.route(Ipv4Address::new(10, 0, 0, 2)).unwrap();
        assert_eq!(iface, 0);
        assert_eq!(next_hop, Ipv4Address::new(10, 0, 0, 2));
        // Off-link goes via the default gateway.
        let (_, next_hop) = node.route(Ipv4Address::new(192, 0, 2, 1)).unwrap();
        assert_eq!(next_hop, Ipv4Address::new(10, 0, 0, 2));
    }

    #[test]
    fn echo_request_generates_reply_in_outbox() {
        let mut node = host_with_iface();
        // Hand-build an echo request addressed to the node.
        let icmp_repr = Icmpv4Repr {
            message: Icmpv4Message::EchoRequest { ident: 7, seq_no: 1 },
            payload_len: 4,
        };
        let mut icmp_buf = vec![0u8; icmp_repr.buffer_len()];
        let mut icmp = Icmpv4Packet::new_unchecked(&mut icmp_buf[..]);
        icmp_repr.emit(&mut icmp);
        icmp.payload_mut().copy_from_slice(b"ping");
        icmp.fill_checksum();
        let datagram = catenet_ip::build_ipv4(
            &Ipv4Repr {
                src_addr: Ipv4Address::new(10, 0, 0, 2),
                dst_addr: Ipv4Address::new(10, 0, 0, 1),
                protocol: IpProtocol::Icmp,
                payload_len: icmp_buf.len(),
                hop_limit: 64,
                tos: Tos::default(),
            },
            9,
            false,
            &icmp_buf,
        );
        node.handle_frame(Instant::ZERO, 0, datagram);
        let outbox = node.take_outbox();
        assert_eq!(outbox.len(), 1);
        let reply = Ipv4Packet::new_checked(&outbox[0].1[..]).unwrap();
        assert_eq!(reply.dst_addr(), Ipv4Address::new(10, 0, 0, 2));
        let reply_icmp = Icmpv4Packet::new_checked(reply.payload()).unwrap();
        let parsed = Icmpv4Repr::parse(&reply_icmp).unwrap();
        assert_eq!(
            parsed.message,
            Icmpv4Message::EchoReply { ident: 7, seq_no: 1 }
        );
        assert_eq!(reply_icmp.payload(), b"ping");
    }

    #[test]
    fn uncollected_icmp_events_are_bounded_and_the_newest_survive() {
        // Nobody calls `take_icmp_events` on a host without a ping
        // application, and every source quench a congested gateway
        // sends lands here.
        let mut node = host_with_iface();
        let extra = 10;
        for seq_no in 0..(ICMP_INBOX_LIMIT + extra) as u16 {
            let icmp_repr = Icmpv4Repr {
                message: Icmpv4Message::EchoReply { ident: 7, seq_no },
                payload_len: 4,
            };
            let mut icmp_buf = vec![0u8; icmp_repr.buffer_len()];
            let mut icmp = Icmpv4Packet::new_unchecked(&mut icmp_buf[..]);
            icmp_repr.emit(&mut icmp);
            icmp.fill_checksum();
            let datagram = catenet_ip::build_ipv4(
                &Ipv4Repr {
                    src_addr: Ipv4Address::new(10, 0, 0, 2),
                    dst_addr: Ipv4Address::new(10, 0, 0, 1),
                    protocol: IpProtocol::Icmp,
                    payload_len: icmp_buf.len(),
                    hop_limit: 64,
                    tos: Tos::default(),
                },
                seq_no,
                false,
                &icmp_buf,
            );
            node.handle_frame(Instant::from_millis(u64::from(seq_no)), 0, datagram);
        }
        assert_eq!(node.stats.icmp_inbox_dropped, extra as u64);
        let events = node.take_icmp_events();
        assert_eq!(events.len(), ICMP_INBOX_LIMIT);
        let seq_of = |event: &IcmpEvent| match event.message {
            Icmpv4Message::EchoReply { seq_no, .. } => seq_no,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(seq_of(&events[0]), extra as u16, "the oldest went first");
        assert_eq!(
            seq_of(events.last().unwrap()),
            (ICMP_INBOX_LIMIT + extra - 1) as u16,
            "the newest is still there"
        );
        assert!(node.take_icmp_events().is_empty());
    }

    #[test]
    fn udp_to_closed_port_earns_port_unreachable() {
        let mut node = host_with_iface();
        let datagram = {
            let mut tmp = Node::new("x", NodeRole::Host);
            tmp.build_udp_datagram(
                Ipv4Address::new(10, 0, 0, 2),
                5000,
                Endpoint::new(Ipv4Address::new(10, 0, 0, 1), 4444),
                Tos::default(),
                b"anyone home?",
            )
        };
        node.handle_frame(Instant::ZERO, 0, datagram);
        let outbox = node.take_outbox();
        assert_eq!(outbox.len(), 1);
        let error = Ipv4Packet::new_checked(&outbox[0].1[..]).unwrap();
        assert_eq!(error.protocol(), IpProtocol::Icmp);
        let icmp = Icmpv4Packet::new_checked(error.payload()).unwrap();
        let parsed = Icmpv4Repr::parse(&icmp).unwrap();
        assert_eq!(
            parsed.message,
            Icmpv4Message::DstUnreachable(DstUnreachable::PortUnreachable)
        );
        assert_eq!(node.stats.icmp_sent, 1);
    }

    #[test]
    fn udp_to_open_port_delivered() {
        let mut node = host_with_iface();
        let handle = node.udp_bind(4444);
        let datagram = {
            let mut tmp = Node::new("x", NodeRole::Host);
            tmp.build_udp_datagram(
                Ipv4Address::new(10, 0, 0, 2),
                5000,
                Endpoint::new(Ipv4Address::new(10, 0, 0, 1), 4444),
                Tos::default(),
                b"hello",
            )
        };
        node.handle_frame(Instant::from_millis(3), 0, datagram);
        let received = node.udp_sockets[handle].recv().unwrap();
        assert_eq!(received.payload, b"hello");
        assert_eq!(received.from, Endpoint::new(Ipv4Address::new(10, 0, 0, 2), 5000));
        assert_eq!(received.at, Instant::from_millis(3));
    }

    #[test]
    fn tcp_to_closed_port_earns_rst() {
        let mut node = host_with_iface();
        let syn = TcpRepr {
            src_port: 1234,
            dst_port: 80,
            control: TcpControl::Syn,
            seq_number: TcpSeqNumber(1000),
            ack_number: None,
            window_len: 100,
            max_seg_size: None,
            payload_crc: None,
            payload_len: 0,
        };
        let segment = Node::build_tcp_segment(
            &node.pool,
            &syn,
            (&[], &[]),
            Ipv4Address::new(10, 0, 0, 2),
            Ipv4Address::new(10, 0, 0, 1),
        );
        let datagram = catenet_ip::build_ipv4(
            &Ipv4Repr {
                src_addr: Ipv4Address::new(10, 0, 0, 2),
                dst_addr: Ipv4Address::new(10, 0, 0, 1),
                protocol: IpProtocol::Tcp,
                payload_len: segment.len(),
                hop_limit: 64,
                tos: Tos::default(),
            },
            1,
            false,
            &segment,
        );
        node.handle_frame(Instant::ZERO, 0, datagram);
        assert_eq!(node.stats.rst_sent, 1);
        let outbox = node.take_outbox();
        assert_eq!(outbox.len(), 1);
        let ip = Ipv4Packet::new_checked(&outbox[0].1[..]).unwrap();
        let tcp = TcpPacket::new_checked(ip.payload()).unwrap();
        assert!(tcp.rst());
        // RST to a SYN without ACK must ack seq+1.
        assert_eq!(tcp.ack_number(), TcpSeqNumber(1001));
    }

    #[test]
    fn dead_node_drops_everything() {
        let mut node = host_with_iface();
        node.crash();
        node.handle_frame(Instant::ZERO, 0, vec![0u8; 40]);
        assert_eq!(node.stats.dropped_dead, 1);
        assert!(node.take_outbox().is_empty());
    }

    #[test]
    fn crash_destroys_sockets_restart_does_not_restore_them() {
        let mut node = host_with_iface();
        node.udp_bind(9);
        node.tcp_listen(80, TcpConfig::default());
        node.crash();
        node.restart();
        assert!(node.udp_sockets.is_empty(), "fate-sharing: sockets died");
        assert!(node.tcp_sockets.is_empty());
        assert!(node.alive);
    }

    #[test]
    fn gateway_restart_relearns_connected_routes() {
        let mut gw = Node::new("g", NodeRole::Gateway);
        gw.attach_iface(Iface {
            addr: Ipv4Address::new(10, 0, 0, 2),
            cidr: Ipv4Cidr::new(Ipv4Address::new(10, 0, 0, 0), 30),
            hardware: EthernetAddress::new(2, 0, 0, 0, 0, 2),
            peer: Ipv4Address::new(10, 0, 0, 1),
            ip_mtu: 1500,
            framing: Framing::RawIp,
            up: true,
        });
        assert_eq!(gw.dv.as_ref().unwrap().live_routes(), 1);
        gw.crash();
        assert_eq!(gw.dv.as_ref().unwrap().live_routes(), 0);
        gw.restart();
        assert_eq!(gw.dv.as_ref().unwrap().live_routes(), 1);
    }

    /// The RIP pages in `node`'s outbox, with the interface each leaves.
    fn rip_pages(node: &mut Node) -> Vec<(usize, RipMessage)> {
        node.take_outbox()
            .into_iter()
            .map(|(iface, frame)| {
                let ip = Ipv4Packet::new_checked(&frame[..]).unwrap();
                let udp = UdpPacket::new_checked(ip.payload()).unwrap();
                assert_eq!(udp.dst_port(), RIP_PORT);
                (iface, RipMessage::decode(udp.payload()).unwrap())
            })
            .collect()
    }

    #[test]
    fn a_compromise_lies_in_every_page_and_survives_a_reboot() {
        let mut gw = Node::new("g", NodeRole::Gateway);
        for (net, addr) in [(0, 2), (1, 1)] {
            gw.attach_iface(Iface {
                addr: Ipv4Address::new(10, 0, net, addr),
                cidr: Ipv4Cidr::new(Ipv4Address::new(10, 0, net, 0), 30),
                hardware: EthernetAddress::default(),
                peer: Ipv4Address::new(10, 0, net, 3 - addr),
                ip_mtu: 1500,
                framing: Framing::RawIp,
                up: true,
            });
        }
        // 72 routes in all: more than one 64-entry page per interface.
        for i in 0..70 {
            let prefix = Ipv4Cidr::new(Ipv4Address::new(10, 100, i, 0), 24);
            gw.dv.as_mut().unwrap().add_connected(prefix, 1);
        }
        let routes = |gw: &Node| -> Vec<_> {
            gw.dv.as_ref().unwrap().routes().map(|(p, r)| (*p, *r)).collect()
        };
        let victim = Ipv4Cidr::new(Ipv4Address::new(10, 9, 0, 0), 16);
        let lies = |page: &RipMessage| page.entries.contains(&RipEntry::new(victim, 0));
        let transit = || {
            catenet_ip::build_ipv4(
                &Ipv4Repr {
                    src_addr: Ipv4Address::new(10, 0, 0, 1),
                    dst_addr: Ipv4Address::new(10, 9, 0, 1),
                    protocol: IpProtocol::Udp,
                    payload_len: 8,
                    hop_limit: 64,
                    tos: Tos::default(),
                },
                1,
                false,
                &[0u8; 8],
            )
        };
        gw.service(Instant::ZERO);
        let honest_routes = routes(&gw);
        let honest = rip_pages(&mut gw);
        assert_eq!(honest.len(), 4, "two pages per interface");

        assert!(gw.compromise(ByzantineAttack::BlackholeVictim {
            addr: [10, 9, 0, 0],
            prefix_len: 16,
        }));
        assert!(!gw.compromise(ByzantineAttack::FlapAdverts), "the first lie stays");
        gw.service(Instant::from_secs(3));
        assert_eq!(routes(&gw), honest_routes, "the liar's own table tells the truth");
        let told = rip_pages(&mut gw);
        assert_eq!(told.len(), honest.len());
        for ((iface, page), (honest_iface, honest_page)) in told.iter().zip(&honest) {
            assert_eq!(iface, honest_iface);
            assert!(lies(page), "a page on interface {iface} tells the truth");
            let mut truth = page.clone();
            truth.entries.retain(|entry| entry.prefix != victim);
            let mut expected = honest_page.clone();
            if expected.entries.len() == MAX_ENTRIES {
                expected.entries.pop(); // the lie displaced the last entry
            }
            assert_eq!(truth, expected, "the lie is added to the truth, nothing else");
        }
        gw.handle_frame(Instant::from_secs(3), 0, transit());
        assert_eq!(gw.stats.dropped_byzantine, 1, "the attracted transit is eaten");

        // A reboot re-learns the table but not honesty.
        gw.crash();
        gw.restart();
        assert!(gw.eats(victim.address()));
        gw.service(Instant::from_secs(4));
        let rebooted = rip_pages(&mut gw);
        assert!(!rebooted.is_empty() && rebooted.iter().all(|(_, page)| lies(page)));
        gw.handle_frame(Instant::from_secs(4), 0, transit());
        assert_eq!(gw.stats.dropped_byzantine, 2, "the rebooted liar eats again");

        // Rehabilitation clears both halves.
        assert!(gw.rehabilitate());
        assert!(!gw.rehabilitate(), "nothing left to heal");
        assert!(!gw.eats(victim.address()));
        gw.service(Instant::from_secs(7));
        let healed = rip_pages(&mut gw);
        assert!(!healed.is_empty() && !healed.iter().any(|(_, page)| lies(page)));
        gw.handle_frame(Instant::from_secs(7), 0, transit());
        assert_eq!(gw.stats.dropped_byzantine, 2);
        assert_eq!(gw.stats.dropped_no_route, 1, "honest again: no route, not eaten");
    }

    #[test]
    fn ephemeral_ports_and_isns_distinct() {
        let mut node = host_with_iface();
        let p1 = node.alloc_port();
        let p2 = node.alloc_port();
        assert_ne!(p1, p2);
        let isn1 = node.next_isn();
        let isn2 = node.next_isn();
        assert_ne!(isn1, isn2);
    }

    #[test]
    fn ttl_expiry_generates_time_exceeded() {
        let mut gw = Node::new("g", NodeRole::Gateway);
        gw.attach_iface(Iface {
            addr: Ipv4Address::new(10, 0, 0, 2),
            cidr: Ipv4Cidr::new(Ipv4Address::new(10, 0, 0, 0), 30),
            hardware: EthernetAddress::default(),
            peer: Ipv4Address::new(10, 0, 0, 1),
            ip_mtu: 1500,
            framing: Framing::RawIp,
            up: true,
        });
        gw.attach_iface(Iface {
            addr: Ipv4Address::new(10, 0, 1, 1),
            cidr: Ipv4Cidr::new(Ipv4Address::new(10, 0, 1, 0), 30),
            hardware: EthernetAddress::default(),
            peer: Ipv4Address::new(10, 0, 1, 2),
            ip_mtu: 1500,
            framing: Framing::RawIp,
            up: true,
        });
        // A datagram with TTL 1 destined beyond the gateway.
        let datagram = catenet_ip::build_ipv4(
            &Ipv4Repr {
                src_addr: Ipv4Address::new(10, 0, 0, 1),
                dst_addr: Ipv4Address::new(10, 0, 1, 2),
                protocol: IpProtocol::Udp,
                payload_len: 8,
                hop_limit: 1,
                tos: Tos::default(),
            },
            1,
            false,
            &[0u8; 8],
        );
        gw.handle_frame(Instant::ZERO, 0, datagram);
        assert_eq!(gw.stats.dropped_ttl, 1);
        let outbox = gw.take_outbox();
        assert_eq!(outbox.len(), 1, "ICMP time exceeded emitted");
        assert_eq!(outbox[0].0, 0, "sent back toward the source");
        let ip = Ipv4Packet::new_checked(&outbox[0].1[..]).unwrap();
        assert_eq!(ip.protocol(), IpProtocol::Icmp);
    }

    #[test]
    fn forwarding_fragments_to_smaller_mtu() {
        let mut gw = Node::new("g", NodeRole::Gateway);
        gw.attach_iface(Iface {
            addr: Ipv4Address::new(10, 0, 0, 2),
            cidr: Ipv4Cidr::new(Ipv4Address::new(10, 0, 0, 0), 30),
            hardware: EthernetAddress::default(),
            peer: Ipv4Address::new(10, 0, 0, 1),
            ip_mtu: 1500,
            framing: Framing::RawIp,
            up: true,
        });
        gw.attach_iface(Iface {
            addr: Ipv4Address::new(10, 0, 1, 1),
            cidr: Ipv4Cidr::new(Ipv4Address::new(10, 0, 1, 0), 30),
            hardware: EthernetAddress::default(),
            peer: Ipv4Address::new(10, 0, 1, 2),
            ip_mtu: 296,
            framing: Framing::RawIp,
            up: true,
        });
        let datagram = catenet_ip::build_ipv4(
            &Ipv4Repr {
                src_addr: Ipv4Address::new(10, 0, 0, 1),
                dst_addr: Ipv4Address::new(10, 0, 1, 2),
                protocol: IpProtocol::Udp,
                payload_len: 1000,
                hop_limit: 64,
                tos: Tos::default(),
            },
            42,
            false,
            &vec![0xAB; 1000],
        );
        gw.handle_frame(Instant::ZERO, 0, datagram);
        let outbox = gw.take_outbox();
        assert!(outbox.len() >= 4, "fragmented: got {}", outbox.len());
        assert!(outbox.iter().all(|(iface, frame)| *iface == 1 && frame.len() <= 296));
        assert_eq!(gw.stats.frags_created as usize, outbox.len());
        assert_eq!(gw.stats.ip_forwarded, 1);
    }

    fn ethernet_host() -> Node {
        let mut node = Node::new("h", NodeRole::Host);
        node.attach_iface(Iface {
            addr: Ipv4Address::new(10, 0, 0, 1),
            cidr: Ipv4Cidr::new(Ipv4Address::new(10, 0, 0, 0), 24),
            hardware: EthernetAddress::new(2, 0, 0, 0, 0, 1),
            peer: Ipv4Address::new(10, 0, 0, 2),
            ip_mtu: 1500,
            framing: Framing::Ethernet,
            up: true,
        });
        node
    }

    fn count_arp_requests(outbox: &[(usize, PacketBuf)]) -> usize {
        outbox
            .iter()
            .filter(|(_, frame)| {
                EthernetFrame::new_checked(&frame[..])
                    .is_ok_and(|eth| eth.ethertype() == EtherType::Arp)
            })
            .count()
    }

    #[test]
    fn unanswered_arp_retries_with_backoff_then_gives_up() {
        let mut node = ethernet_host();
        let peer = Ipv4Address::new(10, 0, 0, 2);
        node.output_datagram(Instant::ZERO, 0, peer, b"a datagram".to_vec());
        let first = node.take_outbox();
        assert_eq!(count_arp_requests(&first), 1, "initial request emitted");

        // Nobody answers. Drive the node by its own timers; each due
        // tick must emit exactly one retransmitted request until the
        // cache abandons the resolution.
        let mut retransmissions = 0;
        let mut now = Instant::ZERO;
        while let Some(at) = node.poll_at(now) {
            now = at;
            node.service(now);
            retransmissions += count_arp_requests(&node.take_outbox());
        }
        assert_eq!(
            retransmissions as u32,
            crate::arp::MAX_REQUEST_ATTEMPTS - 1,
            "retries beyond the initial request"
        );
        assert_eq!(node.stats.arp_retries, u64::from(crate::arp::MAX_REQUEST_ATTEMPTS - 1));
        assert_eq!(node.stats.dropped_arp_gave_up, 1, "queued datagram dropped on give-up");
        assert_eq!(node.stats.dropped_arp_unresolved, 0, "queue never overflowed");
        // Give-up: 1+2+4+8 s of backoff plus the final 8 s wait.
        assert_eq!(now, Instant::from_secs(23));
    }

    #[test]
    fn arp_reply_flushes_pending_and_cancels_retries() {
        let mut node = ethernet_host();
        let peer = Ipv4Address::new(10, 0, 0, 2);
        let peer_hw = EthernetAddress::new(2, 0, 0, 0, 0, 2);
        node.output_datagram(Instant::ZERO, 0, peer, b"a datagram".to_vec());
        node.take_outbox();
        // Peer answers before the first retry.
        let reply = ArpRepr {
            operation: ArpOperation::Reply,
            source_hardware_addr: peer_hw,
            source_protocol_addr: peer,
            target_hardware_addr: EthernetAddress::new(2, 0, 0, 0, 0, 1),
            target_protocol_addr: Ipv4Address::new(10, 0, 0, 1),
        };
        let mut buf = vec![0u8; reply.buffer_len()];
        reply.emit(&mut ArpPacket::new_unchecked(&mut buf[..]));
        let mut frame = PacketBuf::from_vec(buf);
        node.prepend_ethernet(0, EthernetAddress::new(2, 0, 0, 0, 0, 1), EtherType::Arp, &mut frame);
        node.handle_frame(Instant::from_millis(2), 0, frame);
        let outbox = node.take_outbox();
        assert_eq!(outbox.len(), 1, "pending datagram released");
        node.service(Instant::from_secs(30));
        assert_eq!(node.stats.arp_retries, 0, "no retries after resolution");
        assert_eq!(node.stats.dropped_arp_unresolved, 0);
        assert_eq!(node.stats.dropped_arp_gave_up, 0);
        assert!(count_arp_requests(&node.take_outbox()) == 0);
    }

    #[test]
    fn an_undrained_event_record_stays_bounded() {
        // Nothing drains a node on the real substrate, or a standalone
        // one like this: however many RTO firings and reassemblies it
        // takes, its record holds a count per kind of event, not an
        // entry per event — and a late drain still reports every one.
        // Beside its fixed counters, all a record can grow is these two.
        let footprint = |node: &Node| {
            let record = &node.events;
            (record.verdicts.capacity(), record.incidents.capacity())
        };
        let mut node = host_with_iface();
        let peer = Ipv4Address::new(10, 0, 0, 2);
        let to = Endpoint::new(peer, 80);
        node.tcp_connect(to, TcpConfig::default(), Instant::ZERO).unwrap();
        node.service(Instant::ZERO); // the SYN, which nobody answers
        let mut now = Instant::ZERO;
        let rounds = 200;
        let mut held = Vec::new();
        for ident in 0..rounds {
            now = node.poll_at(now).expect("the SYN is retransmitted forever");
            node.service(now);
            let datagram = catenet_ip::build_ipv4(
                &Ipv4Repr {
                    src_addr: peer,
                    dst_addr: node.addr(0),
                    protocol: IpProtocol::Udp,
                    payload_len: 1000,
                    hop_limit: 64,
                    tos: Tos::default(),
                },
                ident,
                false,
                &[0u8; 1000],
            );
            for piece in catenet_ip::fragment(&datagram, 296).unwrap() {
                node.handle_frame(now, 0, piece);
            }
            node.take_outbox();
            held.push(footprint(&node));
        }
        assert!(held.iter().all(|&grown| grown == held[0]), "{held:?}");
        let fired = node.tcp_sockets[0].stats.timeouts;
        assert_eq!(fired, u64::from(rounds));
        assert_eq!(node.events.rto_fired, fired);
        assert_eq!(node.events.reassembly, [u64::from(rounds), 0, 0]);
        let record = node.take_events().expect("something to report");
        assert_eq!(record.route_version, None, "a host has no routing table");
        assert_eq!((record.rto_fired, record.rto_total), (fired, fired));
        assert_eq!(record.reassembly, [u64::from(rounds), 0, 0]);
        assert!(node.take_events().is_none(), "taking the record empties it");
    }

    #[test]
    fn undrained_guard_incidents_keep_the_newest() {
        // Message `m` carries `1 + m % 7` metric-0 entries, each dropped
        // and the message reported in one incident; one a second stays
        // under the rate limit.
        let mut node = host_with_iface();
        let mut guard = RouteGuard::new(GuardPolicy::standard());
        let neighbor = Ipv4Address::new(10, 0, 0, 2);
        let bogus = RipEntry {
            prefix: Ipv4Cidr::new(Ipv4Address::new(10, 9, 0, 0), 16),
            metric: 0,
            attestation: None,
        };
        let messages = 300;
        for m in 0..messages {
            let was = guard.neighbor_verdicts(neighbor);
            let entries = vec![bogus; 1 + m % 7];
            guard.admit(neighbor, &entries, Instant::from_secs(m as u64), &[]);
            node.events.judged(neighbor, was, &mut guard);
        }
        let limit = crate::events::INCIDENT_LIMIT;
        assert_eq!(node.events.incidents.len(), limit);
        let mut telemetry = catenet_telemetry::Telemetry::new();
        let record = node.take_events().expect("verdicts and incidents");
        record.apply(Instant::ZERO, 0, &mut telemetry);
        let scope = catenet_telemetry::Scope::Neighbor { node: 0, addr: neighbor.0 };
        assert_eq!(telemetry.registry.get("guard_sanitized", scope), 300);
        assert_eq!(telemetry.registry.len(), 1, "no zero is interned");
        let rows: Vec<String> = telemetry.recorder.events().map(|e| e.kind.to_string()).collect();
        assert_eq!(rows.len(), limit);
        let oldest_kept = messages - limit;
        let expected = format!("sanitized {neighbor}: {} dropped, 0 clamped", 1 + oldest_kept % 7);
        assert_eq!(rows[0], format!("guard: node0 {expected}"));
    }

    #[test]
    fn frame_for_unknown_iface_is_counted_not_a_panic() {
        let mut node = host_with_iface();
        node.handle_frame(Instant::ZERO, 7, vec![0u8; 40]);
        assert_eq!(node.stats.dropped_bad_iface, 1);
        assert!(node.take_outbox().is_empty());
    }

    #[test]
    fn random_wire_input_never_panics() {
        // Fuzz-ish sweep: arbitrary bytes, arbitrary (possibly invalid)
        // interface indices, through the full receive path on both
        // framings. The invariant is simply "no panic, ever".
        let mut rng = catenet_sim::Rng::from_seed(0xA12F_00D5);
        for case in 0..2000 {
            let mut node = if case % 2 == 0 {
                host_with_iface()
            } else {
                ethernet_host()
            };
            let len = rng.below(120) as usize;
            let mut frame = vec![0u8; len];
            for byte in &mut frame {
                *byte = rng.next_u32() as u8;
            }
            // Occasionally steer toward parseable-looking headers so the
            // deeper layers get exercised, not just the length checks.
            if len >= 20 && rng.chance(0.5) {
                frame[0] = 0x45; // IPv4, IHL 5
                if len >= 14 && case % 2 == 1 {
                    frame[12] = 0x08; // EtherType IPv4 or ARP
                    frame[13] = if rng.chance(0.5) { 0x00 } else { 0x06 };
                }
            }
            let iface = rng.below(3) as usize; // 0 valid, 1-2 invalid
            node.handle_frame(Instant::from_millis(case), iface, frame);
            node.service(Instant::from_millis(case + 1));
            node.take_outbox();
        }
    }
}
