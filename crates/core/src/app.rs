//! Workload applications.
//!
//! These are the traffic archetypes the paper's "types of service"
//! section names: bulk file transfer (the TCP archetype), packet voice
//! (the low-latency datagram archetype that forced UDP into existence),
//! remote echo, and the diagnostic ping. Applications are polled by the
//! network whenever their node is serviced and may request timer wakes.
//!
//! Results are shared with the experiment harness through
//! [`Shared`] (`Arc<Mutex<…>>`) handles, so applications are `Send`
//! and run unchanged on the serial arms, the threaded `Parallel` arm,
//! and the real-I/O substrate. Lanes only touch a handle from inside
//! their own window and the barrier joins threads before any
//! cross-lane frame is delivered, so lock acquisition order — and
//! therefore every observable outcome — is schedule-independent.

use crate::invariant::StreamIntegrity;
use crate::node::Node;
use catenet_sim::{Duration, Instant, Summary};
use catenet_tcp::{Endpoint, SocketConfig as TcpConfig, State as TcpState, TcpError};
use std::sync::{Arc, Mutex};

/// A thread-safe shared cell: how applications publish results to the
/// driving harness. `Arc<Mutex>` rather than `Rc<RefCell>` so that the
/// holder may live on a different thread than the node (the `Parallel`
/// shard arm, or a real-I/O driver's operator thread).
pub type Shared<T> = Arc<Mutex<T>>;

/// A fresh [`Shared`] cell holding `value`.
pub fn shared<T>(value: T) -> Shared<T> {
    Arc::new(Mutex::new(value))
}

/// An application attached to a node.
///
/// `Send` is a supertrait: applications are owned by their node's lane,
/// and a lane may run on a worker thread (`Parallel`) or be driven by a
/// real-I/O event loop. State shared with the harness goes
/// through [`Shared`] handles.
pub trait Application: Send {
    /// Called whenever the node is serviced. The application may use any
    /// of the node's sockets and helpers.
    fn poll(&mut self, node: &mut Node, now: Instant);

    /// The next time this application needs a wake, if any.
    fn next_wake(&self) -> Option<Instant> {
        None
    }
}

// ===================================================================
// Bulk TCP transfer
// ===================================================================

/// Outcome of a bulk transfer, shared with the harness.
#[derive(Debug, Clone, Default)]
pub struct BulkResult {
    /// When the connection attempt began.
    pub started_at: Option<Instant>,
    /// When the transfer (including FIN handshake) completed.
    pub completed_at: Option<Instant>,
    /// Payload bytes acknowledged end to end.
    pub bytes_acked: u64,
    /// Payload bytes transmitted, retransmissions included — the upper
    /// bound any honest gateway ledger must stay under (E16).
    pub bytes_sent: u64,
    /// Segments retransmitted.
    pub retransmits: u64,
    /// RTO expirations.
    pub timeouts: u64,
    /// Total segments sent.
    pub segs_sent: u64,
    /// The connection died (reset / host crash).
    pub aborted: bool,
}

impl BulkResult {
    /// Transfer duration, if completed.
    pub fn duration(&self) -> Option<Duration> {
        Some(self.completed_at?.duration_since(self.started_at?))
    }

    /// Goodput in bits/second, if completed.
    pub fn goodput_bps(&self, bytes: usize) -> Option<f64> {
        let d = self.duration()?.secs_f64();
        (d > 0.0).then(|| bytes as f64 * 8.0 / d)
    }
}

/// Byte `i` of a bulk stream is `i % BULK_PERIOD`.
const BULK_PERIOD: usize = 251;
/// The most [`BulkSender`] offers its socket in one `send_slice`.
const BULK_CHUNK: usize = 8_192;
/// One period plus one chunk of the stream, so the chunk at any stream
/// position is a contiguous window of this table and is lent, not built.
static BULK_PATTERN: [u8; BULK_PERIOD + BULK_CHUNK] = {
    let mut table = [0u8; BULK_PERIOD + BULK_CHUNK];
    let mut i = 0;
    while i < table.len() {
        table[i] = (i % BULK_PERIOD) as u8;
        i += 1;
    }
    table
};

/// Sends `total` bytes over one TCP connection, then closes.
pub struct BulkSender {
    remote: Endpoint,
    total: usize,
    config: TcpConfig,
    start_at: Instant,
    handle: Option<usize>,
    written: usize,
    closed: bool,
    done: bool,
    /// Shared outcome.
    pub result: Shared<BulkResult>,
    /// Optional end-to-end integrity checker: every byte the transport
    /// accepts is recorded as "sent" (pair it with the receiving
    /// [`SinkServer`] recording "delivered").
    integrity: Option<Shared<StreamIntegrity>>,
}

impl BulkSender {
    /// A sender that starts at `start_at`.
    pub fn new(remote: Endpoint, total: usize, config: TcpConfig, start_at: Instant) -> BulkSender {
        BulkSender {
            remote,
            total,
            config,
            start_at,
            handle: None,
            written: 0,
            closed: false,
            done: false,
            result: shared(BulkResult::default()),
            integrity: None,
        }
    }

    /// Record every accepted byte into `checker` (the sending half of a
    /// [`StreamIntegrity`] pair).
    pub fn with_integrity(mut self, checker: Shared<StreamIntegrity>) -> BulkSender {
        self.integrity = Some(checker);
        self
    }

    /// Handle to the shared result.
    pub fn result_handle(&self) -> Shared<BulkResult> {
        Arc::clone(&self.result)
    }
}

impl Application for BulkSender {
    fn poll(&mut self, node: &mut Node, now: Instant) {
        if self.done {
            return;
        }
        let Some(handle) = self.handle else {
            if now >= self.start_at {
                match node.tcp_connect(self.remote, self.config.clone(), now) {
                    Ok(handle) => {
                        self.handle = Some(handle);
                        self.result.lock().unwrap().started_at = Some(now);
                    }
                    Err(_) => {
                        self.result.lock().unwrap().aborted = true;
                        self.done = true;
                    }
                }
            }
            return;
        };
        let Some(socket) = node.tcp_sockets.get_mut(handle) else {
            // Host crashed: fate-sharing destroyed the socket.
            self.result.lock().unwrap().aborted = true;
            self.done = true;
            return;
        };
        // Keep the transmit buffer fed. Bytes are a pure function of
        // stream position, so any corruption downstream is content-
        // detectable as well as checksum-detectable. The chunk is sized
        // to the buffer's actual room: a full buffer costs an empty
        // probe (which still surfaces reset/timeout errors).
        while self.written < self.total {
            let chunk = (self.total - self.written)
                .min(BULK_CHUNK)
                .min(socket.send_room());
            let phase = self.written % BULK_PERIOD;
            let pattern = &BULK_PATTERN[phase..phase + chunk];
            match socket.send_slice(pattern) {
                Ok(0) => break,
                Ok(n) => {
                    if let Some(integrity) = &self.integrity {
                        integrity.lock().unwrap().record_sent(&pattern[..n]);
                    }
                    self.written += n;
                }
                Err(_) => {
                    self.result.lock().unwrap().aborted = true;
                    self.done = true;
                    return;
                }
            }
        }
        // Close only once the handshake is done: closing in SYN-SENT
        // deletes the TCB (RFC 793) and would discard the buffered data.
        if self.written == self.total
            && !self.closed
            && matches!(socket.state(), TcpState::Established | TcpState::CloseWait)
        {
            socket.close();
            self.closed = true;
        }
        // Completion: our FIN acked (FinWait2/TimeWait/Closed) with all
        // data acknowledged.
        let mut result = self.result.lock().unwrap();
        result.bytes_acked = socket.stats.bytes_acked;
        result.bytes_sent = socket.stats.bytes_sent;
        result.retransmits = socket.stats.retransmits;
        result.timeouts = socket.stats.timeouts;
        result.segs_sent = socket.stats.segs_sent;
        if socket.has_timed_out() {
            // RTO give-up leaves the socket Closed with its buffers
            // cleared — which would satisfy the completion test below.
            // It is an error exit, never a completion.
            result.aborted = true;
            self.done = true;
        } else if self.closed
            && socket.all_acked()
            && matches!(
                socket.state(),
                TcpState::FinWait2 | TcpState::TimeWait | TcpState::Closed
            )
        {
            result.completed_at = Some(now);
            self.done = true;
        } else if socket.is_closed() && !socket.all_acked() {
            result.aborted = true;
            self.done = true;
        }
    }

    fn next_wake(&self) -> Option<Instant> {
        (self.handle.is_none() && !self.done).then_some(self.start_at)
    }
}

/// Accepts one TCP connection on `port` and counts what arrives.
pub struct SinkServer {
    port: u16,
    config: TcpConfig,
    handle: Option<usize>,
    /// Bytes received so far (shared).
    pub received: Shared<u64>,
    /// Set when the peer's FIN arrived and the stream drained.
    pub finished: Shared<Option<Instant>>,
    /// Optional end-to-end integrity checker: every delivered byte is
    /// recorded and checked against the sender's record.
    integrity: Option<Shared<StreamIntegrity>>,
}

impl SinkServer {
    /// A sink listening on `port`.
    pub fn new(port: u16, config: TcpConfig) -> SinkServer {
        SinkServer {
            port,
            config,
            handle: None,
            received: shared(0),
            finished: shared(None),
            integrity: None,
        }
    }

    /// Record every delivered byte into `checker` (the receiving half
    /// of a [`StreamIntegrity`] pair).
    pub fn with_integrity(mut self, checker: Shared<StreamIntegrity>) -> SinkServer {
        self.integrity = Some(checker);
        self
    }
}

impl Application for SinkServer {
    fn poll(&mut self, node: &mut Node, now: Instant) {
        let handle = match self.handle {
            Some(handle) => handle,
            None => {
                let handle = node.tcp_listen(self.port, self.config.clone());
                self.handle = Some(handle);
                handle
            }
        };
        let Some(socket) = node.tcp_sockets.get_mut(handle) else {
            return; // crashed
        };
        let mut buf = [0u8; 4096];
        loop {
            match socket.recv_slice(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    if let Some(integrity) = &self.integrity {
                        integrity.lock().unwrap().record_delivered(&buf[..n]);
                    }
                    *self.received.lock().unwrap() += n as u64;
                }
                Err(TcpError::Finished) => {
                    let mut finished = self.finished.lock().unwrap();
                    if finished.is_none() {
                        *finished = Some(now);
                        socket.close();
                    }
                    break;
                }
                Err(_) => break,
            }
        }
    }
}

// ===================================================================
// Constant-bit-rate datagram stream (packet voice)
// ===================================================================

/// CBR payload layout: 8-byte sequence + 8-byte send timestamp + padding.
pub const CBR_HEADER: usize = 16;

/// Sends fixed-size UDP datagrams at a fixed interval — the packet-voice
/// archetype from §4 of the paper.
pub struct CbrSource {
    remote: Endpoint,
    interval: Duration,
    size: usize,
    start_at: Instant,
    stop_at: Instant,
    next_send: Instant,
    seq: u64,
    socket: Option<usize>,
    /// Datagrams sent (shared).
    pub sent: Shared<u64>,
}

impl CbrSource {
    /// A source emitting `size`-byte datagrams every `interval` from
    /// `start_at` until `stop_at`.
    pub fn new(
        remote: Endpoint,
        interval: Duration,
        size: usize,
        start_at: Instant,
        stop_at: Instant,
    ) -> CbrSource {
        assert!(size >= CBR_HEADER);
        CbrSource {
            remote,
            interval,
            size,
            start_at,
            stop_at,
            next_send: start_at,
            seq: 0,
            socket: None,
            sent: shared(0),
        }
    }
}

impl Application for CbrSource {
    fn poll(&mut self, node: &mut Node, now: Instant) {
        let socket = *self
            .socket
            .get_or_insert_with(|| node.udp_bind(30_000 + (self.remote.port % 1000)));
        while self.next_send <= now && self.next_send < self.stop_at {
            // Written into the pooled buffer, whose padding comes zeroed.
            let sent = node.udp_send(socket, self.remote, self.size, now, |payload| {
                payload[..8].copy_from_slice(&self.seq.to_be_bytes());
                payload[8..CBR_HEADER].copy_from_slice(&now.total_micros().to_be_bytes());
            });
            if sent {
                *self.sent.lock().unwrap() += 1;
            }
            self.seq += 1;
            self.next_send += self.interval;
        }
    }

    fn next_wake(&self) -> Option<Instant> {
        (self.next_send < self.stop_at).then_some(self.next_send.max(self.start_at))
    }
}

/// Receives CBR datagrams and records one-way latency, loss and reorder.
pub struct CbrSink {
    port: u16,
    socket: Option<usize>,
    highest_seq: Option<u64>,
    /// One-way latencies in milliseconds (shared).
    pub latencies_ms: Shared<Summary>,
    /// Datagrams received (shared).
    pub received: Shared<u64>,
    /// Datagrams arriving with a sequence lower than one already seen.
    pub reordered: Shared<u64>,
}

impl CbrSink {
    /// A sink on `port`.
    pub fn new(port: u16) -> CbrSink {
        CbrSink {
            port,
            socket: None,
            highest_seq: None,
            latencies_ms: shared(Summary::new()),
            received: shared(0),
            reordered: shared(0),
        }
    }
}

impl Application for CbrSink {
    fn poll(&mut self, node: &mut Node, _now: Instant) {
        let socket = *self.socket.get_or_insert_with(|| node.udp_bind(self.port));
        let Some(sock) = node.udp_sockets.get_mut(socket) else {
            return;
        };
        while let Some(dgram) = sock.recv() {
            if dgram.payload.len() < CBR_HEADER {
                continue;
            }
            let seq = u64::from_be_bytes(dgram.payload[..8].try_into().expect("8 bytes"));
            let sent_us = u64::from_be_bytes(dgram.payload[8..16].try_into().expect("8 bytes"));
            let latency_us = dgram.at.total_micros().saturating_sub(sent_us);
            self.latencies_ms
                .lock().unwrap()
                .record(Duration::from_micros(latency_us));
            *self.received.lock().unwrap() += 1;
            match self.highest_seq {
                Some(highest) if seq < highest => *self.reordered.lock().unwrap() += 1,
                _ => self.highest_seq = Some(self.highest_seq.unwrap_or(0).max(seq)),
            }
        }
    }
}

/// The same voice stream carried over TCP — the wrong tool, on purpose.
/// Head-of-line blocking under loss is exactly what experiment E2 is
/// designed to show; this app timestamps 160-byte "frames" into the
/// stream and the paired [`TcpVoiceSink`] measures their arrival.
pub struct TcpVoiceSource {
    remote: Endpoint,
    interval: Duration,
    frame_size: usize,
    start_at: Instant,
    stop_at: Instant,
    next_send: Instant,
    seq: u64,
    handle: Option<usize>,
    config: TcpConfig,
    /// Frames written into the stream (shared).
    pub sent: Shared<u64>,
}

impl TcpVoiceSource {
    /// Frames of `frame_size` bytes every `interval` over one connection.
    pub fn new(
        remote: Endpoint,
        interval: Duration,
        frame_size: usize,
        config: TcpConfig,
        start_at: Instant,
        stop_at: Instant,
    ) -> TcpVoiceSource {
        assert!(frame_size >= CBR_HEADER);
        TcpVoiceSource {
            remote,
            interval,
            frame_size,
            start_at,
            stop_at,
            next_send: start_at,
            seq: 0,
            handle: None,
            config,
            sent: shared(0),
        }
    }
}

impl Application for TcpVoiceSource {
    fn poll(&mut self, node: &mut Node, now: Instant) {
        if now < self.start_at {
            return;
        }
        let handle = match self.handle {
            Some(handle) => handle,
            None => match node.tcp_connect(self.remote, self.config.clone(), now) {
                Ok(handle) => {
                    self.handle = Some(handle);
                    handle
                }
                Err(_) => return,
            },
        };
        let Some(socket) = node.tcp_sockets.get_mut(handle) else {
            return;
        };
        while self.next_send <= now && self.next_send < self.stop_at {
            let mut frame = vec![0u8; self.frame_size];
            frame[..8].copy_from_slice(&self.seq.to_be_bytes());
            frame[8..16].copy_from_slice(&now.total_micros().to_be_bytes());
            match socket.send_slice(&frame) {
                Ok(n) if n == frame.len() => {
                    self.seq += 1;
                    *self.sent.lock().unwrap() += 1;
                }
                // Buffer full: the stream is already blocked; the frame
                // is simply late (skip it — voice can't wait).
                _ => {}
            }
            self.next_send += self.interval;
        }
    }

    fn next_wake(&self) -> Option<Instant> {
        (self.next_send < self.stop_at).then_some(self.next_send.max(self.start_at))
    }
}

/// Receives the TCP voice stream and measures per-frame delivery latency.
pub struct TcpVoiceSink {
    port: u16,
    handle: Option<usize>,
    config: TcpConfig,
    frame_size: usize,
    pending: Vec<u8>,
    /// Per-frame latencies in milliseconds (shared).
    pub latencies_ms: Shared<Summary>,
    /// Frames received (shared).
    pub received: Shared<u64>,
}

impl TcpVoiceSink {
    /// A sink expecting `frame_size`-byte frames on `port`.
    pub fn new(port: u16, frame_size: usize, config: TcpConfig) -> TcpVoiceSink {
        TcpVoiceSink {
            port,
            handle: None,
            config,
            frame_size,
            pending: Vec::new(),
            latencies_ms: shared(Summary::new()),
            received: shared(0),
        }
    }
}

impl Application for TcpVoiceSink {
    fn poll(&mut self, node: &mut Node, now: Instant) {
        let handle = match self.handle {
            Some(handle) => handle,
            None => {
                let handle = node.tcp_listen(self.port, self.config.clone());
                self.handle = Some(handle);
                handle
            }
        };
        let Some(socket) = node.tcp_sockets.get_mut(handle) else {
            return;
        };
        let mut buf = [0u8; 4096];
        while let Ok(n) = socket.recv_slice(&mut buf) {
            if n == 0 {
                break;
            }
            self.pending.extend_from_slice(&buf[..n]);
        }
        while self.pending.len() >= self.frame_size {
            let frame: Vec<u8> = self.pending.drain(..self.frame_size).collect();
            let sent_us = u64::from_be_bytes(frame[8..16].try_into().expect("8 bytes"));
            let latency_us = now.total_micros().saturating_sub(sent_us);
            self.latencies_ms
                .lock().unwrap()
                .record(Duration::from_micros(latency_us));
            *self.received.lock().unwrap() += 1;
        }
    }
}

// ===================================================================
// Echo and ping
// ===================================================================

/// Echoes every UDP datagram back to its sender.
pub struct UdpEchoServer {
    port: u16,
    socket: Option<usize>,
    /// Datagrams echoed (shared).
    pub echoed: Shared<u64>,
}

impl UdpEchoServer {
    /// An echo server on `port`.
    pub fn new(port: u16) -> UdpEchoServer {
        UdpEchoServer {
            port,
            socket: None,
            echoed: shared(0),
        }
    }
}

impl Application for UdpEchoServer {
    fn poll(&mut self, node: &mut Node, now: Instant) {
        let socket = *self.socket.get_or_insert_with(|| node.udp_bind(self.port));
        while let Some(dgram) = node.udp_sockets.get_mut(socket).and_then(|s| s.recv()) {
            let payload = &dgram.payload[..];
            node.udp_send(socket, dgram.from, payload.len(), now, |out| {
                out.copy_from_slice(payload);
            });
            *self.echoed.lock().unwrap() += 1;
        }
    }
}

/// Sends pings at an interval and records round-trip times.
pub struct Pinger {
    dst: catenet_wire::Ipv4Address,
    interval: Duration,
    ident: u16,
    payload_len: usize,
    next_send: Instant,
    stop_at: Instant,
    next_seq: u16,
    sent_at: std::collections::HashMap<u16, Instant>,
    /// Round-trip times in milliseconds (shared).
    pub rtts_ms: Shared<Summary>,
    /// Replies received (shared).
    pub replies: Shared<u64>,
    /// Unreachable/time-exceeded errors received (shared).
    pub errors: Shared<u64>,
}

impl Pinger {
    /// Ping `dst` every `interval` until `stop_at`.
    pub fn new(
        dst: catenet_wire::Ipv4Address,
        interval: Duration,
        payload_len: usize,
        start_at: Instant,
        stop_at: Instant,
    ) -> Pinger {
        Pinger {
            dst,
            interval,
            ident: 0x4242,
            payload_len,
            next_send: start_at,
            stop_at,
            next_seq: 0,
            sent_at: std::collections::HashMap::new(),
            rtts_ms: shared(Summary::new()),
            replies: shared(0),
            errors: shared(0),
        }
    }
}

impl Application for Pinger {
    fn poll(&mut self, node: &mut Node, now: Instant) {
        while self.next_send <= now && self.next_send < self.stop_at {
            node.send_ping(self.dst, self.ident, self.next_seq, self.payload_len, now);
            self.sent_at.insert(self.next_seq, now);
            self.next_seq = self.next_seq.wrapping_add(1);
            self.next_send += self.interval;
        }
        for event in node.take_icmp_events() {
            match event.message {
                catenet_wire::Icmpv4Message::EchoReply { ident, seq_no } if ident == self.ident => {
                    if let Some(sent) = self.sent_at.remove(&seq_no) {
                        let rtt = event.at.duration_since(sent);
                        self.rtts_ms.lock().unwrap().record(rtt);
                        *self.replies.lock().unwrap() += 1;
                    }
                }
                catenet_wire::Icmpv4Message::DstUnreachable(_)
                | catenet_wire::Icmpv4Message::TimeExceeded(_) => {
                    *self.errors.lock().unwrap() += 1;
                }
                _ => {}
            }
        }
    }

    fn next_wake(&self) -> Option<Instant> {
        (self.next_send < self.stop_at).then_some(self.next_send)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use catenet_sim::LinkClass;

    #[test]
    fn bulk_transfer_end_to_end() {
        let mut net = Network::new(21);
        let h1 = net.add_host("h1");
        let g = net.add_gateway("g");
        let h2 = net.add_host("h2");
        net.connect(h1, g, LinkClass::T1Terrestrial);
        net.connect(g, h2, LinkClass::T1Terrestrial);
        let dst = net.node(h2).primary_addr();

        let sink = SinkServer::new(80, TcpConfig::default());
        let received = Arc::clone(&sink.received);
        net.attach_app(h2, Box::new(sink));

        let sender = BulkSender::new(
            Endpoint::new(dst, 80),
            50_000,
            TcpConfig::default(),
            Instant::from_millis(10),
        );
        let result = sender.result_handle();
        net.attach_app(h1, Box::new(sender));

        net.run_for(Duration::from_secs(120));
        let result = result.lock().unwrap();
        assert!(!result.aborted);
        assert!(result.completed_at.is_some(), "transfer completed");
        assert_eq!(result.bytes_acked, 50_000);
        assert_eq!(*received.lock().unwrap(), 50_000);
        assert!(result.goodput_bps(50_000).unwrap() > 10_000.0);
    }

    #[test]
    fn bulk_transfer_integrity_holds_over_corrupting_path() {
        use crate::invariant::StreamIntegrity;
        let mut net = Network::new(31);
        let h1 = net.add_host("h1");
        let g = net.add_gateway("g");
        let h2 = net.add_host("h2");
        net.connect(h1, g, LinkClass::T1Terrestrial);
        // A nasty second hop: real loss and corruption.
        net.connect_with(
            g,
            h2,
            catenet_sim::LinkParams {
                loss: 0.02,
                corruption: 0.02,
                ..LinkClass::T1Terrestrial.params()
            },
            crate::iface::Framing::RawIp,
        );
        let dst = net.node(h2).primary_addr();

        let checker = shared(StreamIntegrity::new());
        let sink = SinkServer::new(80, TcpConfig::default()).with_integrity(Arc::clone(&checker));
        net.attach_app(h2, Box::new(sink));
        let sender = BulkSender::new(
            Endpoint::new(dst, 80),
            40_000,
            TcpConfig::default(),
            Instant::from_millis(10),
        )
        .with_integrity(Arc::clone(&checker));
        let result = sender.result_handle();
        net.attach_app(h1, Box::new(sender));

        net.run_for(Duration::from_secs(300));
        assert!(result.lock().unwrap().completed_at.is_some(), "transfer completed");
        let checker = checker.lock().unwrap();
        assert!(checker.is_complete(), "violations: {:?}", checker.violations());
        assert_eq!(checker.delivered_len(), 40_000);
        assert_eq!(checker.delivered_digest(), checker.sent_digest());
    }

    #[test]
    fn cbr_stream_measures_latency() {
        let mut net = Network::new(22);
        let h1 = net.add_host("h1");
        let h2 = net.add_host("h2");
        net.connect(h1, h2, LinkClass::T1Terrestrial);
        let dst = net.node(h2).primary_addr();

        let sink = CbrSink::new(5004);
        let latencies = Arc::clone(&sink.latencies_ms);
        let received = Arc::clone(&sink.received);
        net.attach_app(h2, Box::new(sink));

        let source = CbrSource::new(
            Endpoint::new(dst, 5004),
            Duration::from_millis(20), // 50 pps
            160,                       // 64 kbit/s voice frame
            Instant::from_millis(100),
            Instant::from_secs(5),
        );
        let sent = Arc::clone(&source.sent);
        net.attach_app(h1, Box::new(source));

        net.run_for(Duration::from_secs(6));
        let sent = *sent.lock().unwrap();
        let received = *received.lock().unwrap();
        assert!(sent >= 240, "sent {sent}");
        assert!(received as f64 >= sent as f64 * 0.95, "received {received}/{sent}");
        let lat = latencies.lock().unwrap();
        // One T1 hop: ~30 ms propagation + ~1 ms serialization + jitter.
        assert!(lat.median() >= 30.0 && lat.median() <= 40.0, "median {}", lat.median());
    }

    #[test]
    fn udp_echo_round_trip() {
        let mut net = Network::new(23);
        let h1 = net.add_host("h1");
        let h2 = net.add_host("h2");
        net.connect(h1, h2, LinkClass::EthernetLan);
        let dst = net.node(h2).primary_addr();

        let server = UdpEchoServer::new(7);
        let echoed = Arc::clone(&server.echoed);
        net.attach_app(h2, Box::new(server));

        let sock = net.node_mut(h1).udp_bind(7777);
        net.node_mut(h1).udp_send(sock, Endpoint::new(dst, 7), 7, Instant::ZERO, |p| {
            p.copy_from_slice(b"echo me");
        });
        net.kick(h1);
        net.run_for(Duration::from_secs(1));

        assert_eq!(*echoed.lock().unwrap(), 1);
        let back = net.node_mut(h1).udp_sockets[sock].recv().unwrap();
        assert_eq!(&back.payload[..], b"echo me");
    }

    #[test]
    fn pinger_records_rtts() {
        let mut net = Network::new(24);
        let h1 = net.add_host("h1");
        let h2 = net.add_host("h2");
        net.connect(h1, h2, LinkClass::Satellite);
        let dst = net.node(h2).primary_addr();

        let pinger = Pinger::new(
            dst,
            Duration::from_millis(500),
            32,
            Instant::from_millis(10),
            Instant::from_secs(5),
        );
        let rtts = Arc::clone(&pinger.rtts_ms);
        let replies = Arc::clone(&pinger.replies);
        net.attach_app(h1, Box::new(pinger));

        net.run_for(Duration::from_secs(7));
        assert!(*replies.lock().unwrap() >= 8, "replies {}", *replies.lock().unwrap());
        let rtts = rtts.lock().unwrap();
        // Satellite: ~250 ms each way.
        assert!(rtts.median() >= 500.0, "median {}", rtts.median());
        assert!(rtts.median() <= 530.0, "median {}", rtts.median());
    }
}
