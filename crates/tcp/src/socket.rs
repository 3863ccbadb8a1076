//! The TCP socket: RFC 793 state machine with 1988-era extensions.
//!
//! Sans-IO design in the smoltcp idiom: the socket never touches the
//! network. [`Socket::process`] consumes a parsed [`TcpRepr`] + payload,
//! [`Socket::dispatch_with`] produces the next segment to transmit (call
//! it until it returns `None`), and [`Socket::poll_at`] says when the next
//! timer needs service. All conversation state — windows, buffers,
//! timers, estimators — lives in this struct and nowhere else in the
//! network: that is fate-sharing, the paper's answer to survivability.

use crate::assembler::OutOfOrderBuffer;
use crate::congestion::{CongestionAlgo, CongestionControl, DupAckAction};
use crate::rtt::RttEstimator;
use catenet_sim::{Duration, Instant};
use catenet_wire::{Ipv4Address, TcpControl, TcpRepr, TcpSeqNumber};
use std::collections::VecDeque;

/// A transport endpoint: address and port.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Endpoint {
    /// The IPv4 address.
    pub addr: Ipv4Address,
    /// The port number.
    pub port: u16,
}

impl Endpoint {
    /// Construct an endpoint.
    pub const fn new(addr: Ipv4Address, port: u16) -> Endpoint {
        Endpoint { addr, port }
    }

    /// Whether both address and port are unspecified.
    pub fn is_unspecified(&self) -> bool {
        self.addr.is_unspecified() && self.port == 0
    }
}

impl core::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}:{}", self.addr, self.port)
    }
}

/// The RFC 793 connection states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// No connection.
    Closed,
    /// Passive open: waiting for a SYN.
    Listen,
    /// Active open: SYN sent, awaiting SYN-ACK.
    SynSent,
    /// SYN received, SYN-ACK sent, awaiting ACK.
    SynReceived,
    /// Data transfer.
    Established,
    /// We closed first; FIN sent, awaiting its ACK.
    FinWait1,
    /// Our FIN acked; awaiting the peer's FIN.
    FinWait2,
    /// Peer closed first; we may still send.
    CloseWait,
    /// Simultaneous close: both FINs in flight.
    Closing,
    /// We closed after the peer; awaiting the final ACK.
    LastAck,
    /// Both sides closed; draining old segments for 2·MSL.
    TimeWait,
}

impl State {
    /// Whether the connection is synchronized (RFC 793 terminology).
    pub fn is_synchronized(&self) -> bool {
        !matches!(self, State::Closed | State::Listen | State::SynSent | State::SynReceived)
    }
}

impl core::fmt::Display for State {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Errors surfaced to the application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpError {
    /// The operation is illegal in the current state.
    InvalidState,
    /// The peer reset the connection.
    ConnectionReset,
    /// The peer closed its sending direction and the buffer is drained.
    Finished,
    /// The connection gave up after too many consecutive retransmission
    /// timeouts (RFC 1122's R2 threshold).
    TimedOut,
}

impl core::fmt::Display for TcpError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TcpError::InvalidState => write!(f, "invalid state for operation"),
            TcpError::ConnectionReset => write!(f, "connection reset by peer"),
            TcpError::Finished => write!(f, "connection finished"),
            TcpError::TimedOut => write!(f, "connection timed out"),
        }
    }
}

impl std::error::Error for TcpError {}

/// Tunable parameters of a socket.
#[derive(Debug, Clone)]
pub struct SocketConfig {
    /// Transmit buffer capacity in bytes.
    pub tx_capacity: usize,
    /// Receive buffer capacity in bytes (bounds the advertised window).
    pub rx_capacity: usize,
    /// Our maximum segment size (advertised in the SYN). 536 was the
    /// 1988 default for non-local destinations.
    pub mss: usize,
    /// Whether Nagle's algorithm coalesces small writes.
    pub nagle: bool,
    /// Congestion-control algorithm.
    pub congestion: CongestionAlgo,
    /// Delayed-ACK interval; `None` acks every segment immediately.
    pub delayed_ack: Option<Duration>,
    /// Maximum segment lifetime (TIME-WAIT lasts 2·MSL).
    pub msl: Duration,
    /// Give up the connection after this many *consecutive* RTO
    /// expirations with no forward progress (RFC 1122 §4.2.3.5's "R2"
    /// threshold). `None` retries forever — the 1980s default, and the
    /// default here so survivability experiments show the architecture's
    /// patience rather than the host's.
    pub max_retries: Option<u32>,
    /// Initial send sequence number (the stack supplies randomness).
    pub initial_seq: u32,
    /// Carry a CRC32C over every data segment's payload as a TCP option
    /// (kind 253), closing the Internet checksum's ~1/65536 escape
    /// classes at a cost of 8 header bytes per data segment. Off by
    /// default: the off arm emits byte-identical segments to a stack
    /// without the feature. Receivers verify whenever the option is
    /// present, so no negotiation is needed.
    pub payload_crc: bool,
}

impl Default for SocketConfig {
    fn default() -> SocketConfig {
        SocketConfig {
            tx_capacity: 65_535,
            rx_capacity: 65_535,
            mss: 536,
            nagle: true,
            congestion: CongestionAlgo::Tahoe,
            delayed_ack: Some(Duration::from_millis(200)),
            msl: Duration::from_secs(30),
            max_retries: None,
            initial_seq: 0x1000,
            payload_crc: false,
        }
    }
}

/// Counters for the experiment harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct SocketStats {
    /// Segments emitted (all kinds).
    pub segs_sent: u64,
    /// Segments accepted by `process`.
    pub segs_received: u64,
    /// Payload bytes emitted, including retransmissions.
    pub bytes_sent: u64,
    /// Payload bytes cumulatively acknowledged.
    pub bytes_acked: u64,
    /// Payload bytes delivered to the application in order.
    pub bytes_received: u64,
    /// Segments re-emitted (timeout or fast retransmit).
    pub retransmits: u64,
    /// Duplicate ACKs observed.
    pub dup_acks: u64,
    /// Zero-window probes sent.
    pub probes_sent: u64,
    /// RTO expirations.
    pub timeouts: u64,
    /// ICMP source quenches applied.
    pub quenches: u64,
}

/// A TCP socket.
#[derive(Debug, Clone)]
pub struct Socket {
    config: SocketConfig,
    state: State,
    local: Endpoint,
    remote: Endpoint,

    // Send sequence space.
    iss: TcpSeqNumber,
    /// Oldest unacknowledged sequence number.
    snd_una: TcpSeqNumber,
    /// Next sequence number to transmit (pulled back on retransmission).
    snd_nxt: TcpSeqNumber,
    /// Highest sequence number ever transmitted (+1).
    snd_max: TcpSeqNumber,
    /// Peer's advertised window.
    snd_wnd: usize,
    /// Segment seq/ack used for the last window update.
    snd_wl1: TcpSeqNumber,
    snd_wl2: TcpSeqNumber,
    /// Sequence number of tx_buffer[0].
    tx_base_seq: TcpSeqNumber,
    tx_buffer: VecDeque<u8>,
    /// Application requested close; FIN pending or sent.
    fin_queued: bool,
    /// Sequence number our FIN occupies, once determined.
    fin_seq: Option<TcpSeqNumber>,

    // Receive sequence space.
    irs: TcpSeqNumber,
    rcv_nxt: TcpSeqNumber,
    rx_buffer: VecDeque<u8>,
    ooo: OutOfOrderBuffer,
    /// Peer's FIN has been received and sequenced.
    rx_fin: bool,

    // Adaptive machinery.
    rtt: RttEstimator,
    cc: CongestionControl,
    /// Effective MSS (min of ours and the peer's advertisement).
    effective_mss: usize,
    dup_ack_count: u32,

    // Timers and pending actions.
    retransmit_at: Option<Instant>,
    delayed_ack_at: Option<Instant>,
    probe_at: Option<Instant>,
    time_wait_until: Option<Instant>,
    ack_pending: bool,
    segs_since_ack: u8,
    /// Set when the peer reset the connection.
    reset_by_peer: bool,
    /// Set when the connection gave up after R2 consecutive timeouts.
    timed_out_conn: bool,
    /// Consecutive RTO expirations since the last forward progress.
    consecutive_timeouts: u32,
    /// Set to emit an RST (on abort).
    rst_pending: bool,

    /// Counters.
    pub stats: SocketStats,
}

impl Socket {
    /// A closed socket with the given configuration.
    pub fn new(config: SocketConfig) -> Socket {
        assert!(config.mss >= 64, "MSS unreasonably small");
        let cc = CongestionControl::new(config.congestion, config.mss);
        let ooo = OutOfOrderBuffer::new(config.rx_capacity);
        Socket {
            config,
            state: State::Closed,
            local: Endpoint::default(),
            remote: Endpoint::default(),
            iss: TcpSeqNumber(0),
            snd_una: TcpSeqNumber(0),
            snd_nxt: TcpSeqNumber(0),
            snd_max: TcpSeqNumber(0),
            snd_wnd: 0,
            snd_wl1: TcpSeqNumber(0),
            snd_wl2: TcpSeqNumber(0),
            tx_base_seq: TcpSeqNumber(0),
            tx_buffer: VecDeque::new(),
            fin_queued: false,
            fin_seq: None,
            irs: TcpSeqNumber(0),
            rcv_nxt: TcpSeqNumber(0),
            rx_buffer: VecDeque::new(),
            ooo,
            rx_fin: false,
            rtt: RttEstimator::new(),
            cc,
            effective_mss: 536,
            dup_ack_count: 0,
            retransmit_at: None,
            delayed_ack_at: None,
            probe_at: None,
            time_wait_until: None,
            ack_pending: false,
            segs_since_ack: 0,
            reset_by_peer: false,
            timed_out_conn: false,
            consecutive_timeouts: 0,
            rst_pending: false,
            stats: SocketStats::default(),
        }
    }

    // ------------------------------------------------------- accessors

    /// The connection state.
    pub fn state(&self) -> State {
        self.state
    }

    /// The local endpoint.
    pub fn local(&self) -> Endpoint {
        self.local
    }

    /// The remote endpoint (unspecified while listening).
    pub fn remote(&self) -> Endpoint {
        self.remote
    }

    /// The effective (negotiated) maximum segment size.
    pub fn effective_mss(&self) -> usize {
        self.effective_mss
    }

    /// The congestion controller (for experiment introspection).
    pub fn congestion(&self) -> &CongestionControl {
        &self.cc
    }

    /// The RTT estimator (for experiment introspection).
    pub fn rtt(&self) -> &RttEstimator {
        &self.rtt
    }

    /// Whether the socket is fully dead (Closed with nothing pending).
    pub fn is_closed(&self) -> bool {
        self.state == State::Closed && !self.rst_pending
    }

    /// Whether the connection is usefully open in at least one direction.
    pub fn is_active(&self) -> bool {
        !matches!(self.state, State::Closed | State::Listen | State::TimeWait)
    }

    /// Bytes waiting in the receive buffer.
    pub fn recv_queue_len(&self) -> usize {
        self.rx_buffer.len()
    }

    /// Bytes waiting in the transmit buffer (unacked + unsent).
    pub fn send_queue_len(&self) -> usize {
        self.tx_buffer.len()
    }

    /// Whether every byte the application wrote has been acknowledged.
    pub fn all_acked(&self) -> bool {
        self.tx_buffer.is_empty()
    }

    fn rcv_wnd(&self) -> usize {
        self.config
            .rx_capacity
            .saturating_sub(self.rx_buffer.len())
            .min(65_535)
    }

    // ------------------------------------------------------ open/close

    /// Passive open on `local`.
    pub fn listen(&mut self, local: Endpoint) -> Result<(), TcpError> {
        if self.state != State::Closed {
            return Err(TcpError::InvalidState);
        }
        self.local = local;
        self.remote = Endpoint::default();
        self.state = State::Listen;
        Ok(())
    }

    /// Active open from `local` to `remote` at time `now`.
    pub fn connect(&mut self, local: Endpoint, remote: Endpoint, now: Instant) -> Result<(), TcpError> {
        if self.state != State::Closed {
            return Err(TcpError::InvalidState);
        }
        if remote.addr.is_unspecified() || remote.port == 0 || local.port == 0 {
            return Err(TcpError::InvalidState);
        }
        self.local = local;
        self.remote = remote;
        self.iss = TcpSeqNumber(self.config.initial_seq);
        self.snd_una = self.iss;
        self.snd_nxt = self.iss;
        self.snd_max = self.iss;
        self.tx_base_seq = self.iss + 1;
        self.state = State::SynSent;
        let _ = now;
        Ok(())
    }

    /// Graceful close: send remaining data, then FIN.
    pub fn close(&mut self) {
        match self.state {
            State::Listen | State::SynSent => {
                self.state = State::Closed;
            }
            State::SynReceived | State::Established => {
                self.fin_queued = true;
                self.state = State::FinWait1;
            }
            State::CloseWait => {
                self.fin_queued = true;
                self.state = State::LastAck;
            }
            _ => {}
        }
    }

    /// Hard abort: emit RST (if synchronized) and drop all state.
    pub fn abort(&mut self) {
        if self.state.is_synchronized() {
            self.rst_pending = true;
        }
        self.reset_to_closed();
    }

    /// Whether the connection gave up after `max_retries` consecutive
    /// RTO expirations (RFC 1122's R2). The closed state it leaves
    /// behind is an *error* outcome, not a graceful close — callers
    /// inspecting only [`Socket::state`] would confuse the two.
    pub fn has_timed_out(&self) -> bool {
        self.timed_out_conn
    }

    fn reset_to_closed(&mut self) {
        self.state = State::Closed;
        self.tx_buffer.clear();
        self.rx_buffer.clear();
        self.ooo.clear();
        self.fin_queued = false;
        self.fin_seq = None;
        self.retransmit_at = None;
        self.delayed_ack_at = None;
        self.probe_at = None;
        self.time_wait_until = None;
        self.ack_pending = false;
    }

    // ----------------------------------------------------- application

    /// Free space in the transmit buffer: the number of bytes the next
    /// [`send_slice`](Socket::send_slice) would accept. Lets an
    /// application size (or skip) its chunk instead of materializing
    /// data the buffer has no room for.
    pub fn send_room(&self) -> usize {
        self.config.tx_capacity - self.tx_buffer.len()
    }

    /// Append data to the transmit buffer; returns bytes accepted.
    pub fn send_slice(&mut self, data: &[u8]) -> Result<usize, TcpError> {
        if self.reset_by_peer {
            return Err(TcpError::ConnectionReset);
        }
        if self.timed_out_conn {
            return Err(TcpError::TimedOut);
        }
        match self.state {
            State::Established | State::CloseWait => {}
            State::SynSent | State::SynReceived => {} // queue before handshake completes
            _ => return Err(TcpError::InvalidState),
        }
        if self.fin_queued {
            return Err(TcpError::InvalidState);
        }
        let room = self.config.tx_capacity - self.tx_buffer.len();
        let take = data.len().min(room);
        self.tx_buffer.extend(&data[..take]);
        Ok(take)
    }

    /// Read received data into `buf`; returns bytes read (possibly 0).
    pub fn recv_slice(&mut self, buf: &mut [u8]) -> Result<usize, TcpError> {
        if self.rx_buffer.is_empty() {
            if self.reset_by_peer {
                return Err(TcpError::ConnectionReset);
            }
            if self.timed_out_conn {
                return Err(TcpError::TimedOut);
            }
            if self.rx_fin || matches!(self.state, State::Closed | State::TimeWait) {
                return Err(TcpError::Finished);
            }
            return Ok(0);
        }
        let n = buf.len().min(self.rx_buffer.len());
        let (head, tail) = ring_slices(&self.rx_buffer, 0, n);
        buf[..head.len()].copy_from_slice(head);
        buf[head.len()..n].copy_from_slice(tail);
        self.rx_buffer.drain(..n);
        Ok(n)
    }

    /// An ICMP source quench arrived for this connection: the network
    /// (a 1988 gateway under buffer pressure) asked us to slow down.
    pub fn on_source_quench(&mut self) {
        self.cc.on_quench();
        self.stats.quenches += 1;
    }

    // ---------------------------------------------------------- timers

    /// When the socket next needs `dispatch` called for timer service.
    pub fn poll_at(&self) -> Option<Instant> {
        if self.wants_to_transmit_now() {
            return Some(Instant::ZERO); // immediately
        }
        [
            self.retransmit_at,
            self.delayed_ack_at,
            self.probe_at,
            self.time_wait_until,
        ]
        .into_iter()
        .flatten()
        .min()
    }

    fn wants_to_transmit_now(&self) -> bool {
        if self.rst_pending || self.ack_pending {
            return true;
        }
        match self.state {
            State::SynSent | State::SynReceived => self.snd_nxt == self.iss,
            _ => self.has_sendable_data() || self.fin_ready_to_send(),
        }
    }

    fn end_of_data_seq(&self) -> TcpSeqNumber {
        self.tx_base_seq + self.tx_buffer.len()
    }

    fn has_sendable_data(&self) -> bool {
        if !self.state.is_synchronized() && self.state != State::SynReceived {
            return false;
        }
        if self.snd_nxt < self.tx_base_seq {
            // SYN still unacknowledged and at the front of the send queue.
            return false;
        }
        let unsent = (self.end_of_data_seq() - self.snd_nxt).max(0) as usize;
        if unsent == 0 {
            return false;
        }
        self.usable_window() > 0 && self.segment_would_pass_nagle(unsent)
    }

    fn fin_ready_to_send(&self) -> bool {
        self.fin_queued
            && self.fin_seq.is_none()
            && self.snd_nxt == self.end_of_data_seq()
            && self.snd_nxt >= self.tx_base_seq
    }

    fn usable_window(&self) -> usize {
        let flow = self.snd_wnd.min(self.cc.window());
        let in_flight = (self.snd_nxt - self.snd_una).max(0) as usize;
        flow.saturating_sub(in_flight)
    }

    fn segment_would_pass_nagle(&self, unsent: usize) -> bool {
        if !self.config.nagle {
            return true;
        }
        // Retransmissions always pass.
        if self.snd_nxt < self.snd_max {
            return true;
        }
        let in_flight = (self.snd_nxt - self.snd_una).max(0) as usize;
        // Full segment, or nothing outstanding, or closing (flush).
        unsent.min(self.usable_window()) >= self.effective_mss
            || in_flight == 0
            || self.fin_queued
    }

    fn service_timers(&mut self, now: Instant) {
        if let Some(at) = self.time_wait_until {
            if now >= at {
                self.reset_to_closed();
                return;
            }
        }
        if let Some(at) = self.delayed_ack_at {
            if now >= at {
                self.delayed_ack_at = None;
                self.ack_pending = true;
            }
        }
        if let Some(at) = self.retransmit_at {
            if now >= at && self.snd_max > self.snd_una {
                // RTO: rewind the cursor; congestion collapse; Karn.
                self.stats.timeouts += 1;
                self.consecutive_timeouts += 1;
                if let Some(limit) = self.config.max_retries {
                    if self.consecutive_timeouts > limit {
                        // RFC 1122 R2: the peer is gone; stop trying.
                        self.timed_out_conn = true;
                        self.reset_to_closed();
                        return;
                    }
                }
                let flight = (self.snd_max - self.snd_una).max(0) as usize;
                self.cc.on_timeout(flight);
                self.rtt.on_retransmit();
                self.snd_nxt = self.snd_una;
                self.dup_ack_count = 0;
                self.retransmit_at = Some(now + self.rtt.rto());
            } else if self.snd_max == self.snd_una {
                self.retransmit_at = None;
            }
        }
    }

    // -------------------------------------------------------- dispatch

    /// Produce the next segment to transmit, if any, and hand it to
    /// `emit` with its payload *lent*: the (at most two) slices of the
    /// transmit ring that hold it, `repr.payload_len` bytes together.
    /// Call repeatedly until `None`. The bytes change owner where `emit`
    /// writes them — for a node, straight into the wire buffer.
    pub fn dispatch_with<R>(
        &mut self,
        now: Instant,
        emit: impl FnOnce(&TcpRepr, &[u8], &[u8]) -> R,
    ) -> Option<R> {
        let (repr, offset) = self.next_segment(now)?;
        let (head, tail) = ring_slices(&self.tx_buffer, offset, repr.payload_len);
        Some(emit(&repr, head, tail))
    }

    /// [`dispatch_with`](Socket::dispatch_with) for callers that want the
    /// payload owned: the two slices concatenated into a fresh vector.
    pub fn dispatch(&mut self, now: Instant) -> Option<(TcpRepr, Vec<u8>)> {
        self.dispatch_with(now, |repr, head, tail| (*repr, [head, tail].concat()))
    }

    /// The next segment as its header and where in `tx_buffer` its
    /// `payload_len` bytes start.
    fn next_segment(&mut self, now: Instant) -> Option<(TcpRepr, usize)> {
        self.service_timers(now);

        if self.rst_pending {
            self.rst_pending = false;
            let repr = TcpRepr {
                src_port: self.local.port,
                dst_port: self.remote.port,
                control: TcpControl::Rst,
                seq_number: self.snd_nxt,
                ack_number: Some(self.rcv_nxt),
                window_len: 0,
                max_seg_size: None,
                payload_crc: None,
                payload_len: 0,
            };
            self.stats.segs_sent += 1;
            return Some((repr, 0));
        }

        match self.state {
            State::Closed | State::Listen | State::TimeWait => {
                // TIME-WAIT only ACKs retransmitted FINs (via ack_pending).
                if self.state == State::TimeWait && self.ack_pending {
                    return Some(self.make_ack());
                }
                None
            }
            State::SynSent => {
                if self.snd_nxt == self.iss {
                    Some(self.make_syn(now, false))
                } else {
                    None
                }
            }
            State::SynReceived => {
                if self.snd_nxt == self.iss {
                    Some(self.make_syn(now, true))
                } else if self.ack_pending {
                    Some(self.make_ack())
                } else {
                    None
                }
            }
            _ => self.dispatch_synchronized(now),
        }
    }

    fn make_syn(&mut self, now: Instant, is_syn_ack: bool) -> (TcpRepr, usize) {
        let repr = TcpRepr {
            src_port: self.local.port,
            dst_port: self.remote.port,
            control: TcpControl::Syn,
            seq_number: self.iss,
            ack_number: is_syn_ack.then_some(self.rcv_nxt),
            window_len: self.rcv_wnd() as u16,
            max_seg_size: Some(self.config.mss as u16),
            payload_crc: None,
            payload_len: 0,
        };
        self.snd_nxt = self.iss + 1;
        if self.snd_max < self.snd_nxt {
            self.snd_max = self.snd_nxt;
        } else {
            self.stats.retransmits += 1;
        }
        self.rtt.start_timing(now, (self.iss + 1).to_u32());
        self.retransmit_at = Some(now + self.rtt.rto());
        self.ack_pending = false;
        self.stats.segs_sent += 1;
        (repr, 0)
    }

    fn make_ack(&mut self) -> (TcpRepr, usize) {
        self.ack_pending = false;
        self.delayed_ack_at = None;
        self.segs_since_ack = 0;
        let repr = TcpRepr {
            src_port: self.local.port,
            dst_port: self.remote.port,
            control: TcpControl::None,
            seq_number: self.snd_nxt.max(self.snd_una),
            ack_number: Some(self.rcv_nxt),
            window_len: self.rcv_wnd() as u16,
            max_seg_size: None,
            payload_crc: None,
            payload_len: 0,
        };
        self.stats.segs_sent += 1;
        (repr, 0)
    }

    fn dispatch_synchronized(&mut self, now: Instant) -> Option<(TcpRepr, usize)> {
        // 1. Data (or FIN) within the window.
        if let Some(seg) = self.make_data_segment(now) {
            return Some(seg);
        }
        // 2. Zero-window probe.
        if let Some(at) = self.probe_at {
            if now >= at && self.snd_wnd == 0 && !self.tx_buffer.is_empty() {
                return Some(self.make_probe(now));
            }
        }
        if self.snd_wnd == 0 && !self.tx_buffer.is_empty() && self.probe_at.is_none() {
            self.probe_at = Some(now + self.rtt.rto());
        }
        // 3. Pure ACK.
        if self.ack_pending {
            return Some(self.make_ack());
        }
        None
    }

    fn make_data_segment(&mut self, now: Instant) -> Option<(TcpRepr, usize)> {
        if self.snd_nxt < self.tx_base_seq {
            // Our SYN occupies the cursor position: handled by state
            // machine (SynSent/SynReceived), not here. For synchronized
            // states this means a retransmit rewound to an acked SYN —
            // skip forward.
            self.snd_nxt = self.tx_base_seq;
        }
        let end_of_data = self.end_of_data_seq();
        let unsent = (end_of_data - self.snd_nxt).max(0) as usize;
        let window = self.usable_window();

        let send_fin_here = self.fin_queued
            && self.snd_nxt + unsent.min(window).min(self.effective_mss) == end_of_data
            && match self.fin_seq {
                None => true,
                // FIN retransmission: cursor rewound at or before it.
                Some(fin_seq) => self.snd_nxt <= fin_seq,
            };

        if unsent == 0 && !send_fin_here {
            return None;
        }
        if unsent > 0 && window == 0 {
            return None;
        }
        if unsent > 0 && !self.segment_would_pass_nagle(unsent) {
            return None;
        }

        // `unsent` is what lies past `offset`, so the payload is exactly
        // `tx_buffer[offset..offset + len]`.
        let len = unsent.min(window).min(self.effective_mss);
        let offset = (self.snd_nxt - self.tx_base_seq).max(0) as usize;

        let fin_now = send_fin_here && offset + len == self.tx_buffer.len();
        // FIN needs window room only conceptually; RFC allows FIN even
        // with zero window. We allow it.
        let control = if fin_now {
            TcpControl::Fin
        } else if len == 0 {
            return None;
        } else {
            TcpControl::Psh
        };

        let seq = self.snd_nxt;
        let seg_len = len + control.len();
        let is_retransmit = seq < self.snd_max;
        if fin_now {
            self.fin_seq = Some(seq + len);
        }
        self.snd_nxt = seq + seg_len;
        if self.snd_max < self.snd_nxt {
            self.snd_max = self.snd_nxt;
            self.rtt.start_timing(now, self.snd_nxt.to_u32());
        }
        if is_retransmit {
            self.stats.retransmits += 1;
        }
        self.retransmit_at = Some(now + self.rtt.rto());

        let repr = TcpRepr {
            src_port: self.local.port,
            dst_port: self.remote.port,
            control,
            seq_number: seq,
            ack_number: Some(self.rcv_nxt),
            window_len: self.rcv_wnd() as u16,
            max_seg_size: None,
            payload_crc: self.payload_crc(offset, len),
            payload_len: len,
        };
        self.ack_pending = false;
        self.delayed_ack_at = None;
        self.segs_since_ack = 0;
        self.stats.segs_sent += 1;
        self.stats.bytes_sent += len as u64;
        Some((repr, offset))
    }

    /// The CRC32C option for `tx_buffer[offset..offset + len]`, when the
    /// socket carries one and the segment carries data.
    fn payload_crc(&self, offset: usize, len: usize) -> Option<u32> {
        (self.config.payload_crc && len > 0).then(|| {
            let (head, tail) = ring_slices(&self.tx_buffer, offset, len);
            catenet_wire::crc32c_parts(&[head, tail])
        })
    }

    fn make_probe(&mut self, now: Instant) -> (TcpRepr, usize) {
        // Send one byte beyond the window to force a window update.
        let offset = (self.snd_nxt - self.tx_base_seq).max(0) as usize;
        let len = usize::from(offset < self.tx_buffer.len());
        let repr = TcpRepr {
            src_port: self.local.port,
            dst_port: self.remote.port,
            control: TcpControl::None,
            seq_number: self.snd_nxt,
            ack_number: Some(self.rcv_nxt),
            window_len: self.rcv_wnd() as u16,
            max_seg_size: None,
            payload_crc: self.payload_crc(offset, len),
            payload_len: len,
        };
        // The probe byte occupies sequence space: if the receiver has
        // room after all, its ACK covers it and must be creditable.
        self.snd_nxt = self.snd_nxt + len;
        if self.snd_max < self.snd_nxt {
            self.snd_max = self.snd_nxt;
        }
        self.stats.bytes_sent += len as u64;
        // Back the probe timer off.
        self.rtt.on_retransmit();
        self.probe_at = Some(now + self.rtt.rto());
        self.stats.probes_sent += 1;
        self.stats.segs_sent += 1;
        (repr, offset.min(self.tx_buffer.len()))
    }

    // --------------------------------------------------------- process

    /// Whether this socket should be offered `repr` (endpoint match).
    pub fn accepts(&self, local_addr: Ipv4Address, remote_addr: Ipv4Address, repr: &TcpRepr) -> bool {
        if self.state == State::Closed {
            return false;
        }
        if repr.dst_port != self.local.port {
            return false;
        }
        if !self.local.addr.is_unspecified() && self.local.addr != local_addr {
            return false;
        }
        if self.state == State::Listen {
            return repr.control == TcpControl::Syn && repr.ack_number.is_none();
        }
        self.remote.port == repr.src_port && self.remote.addr == remote_addr
    }

    /// Process an incoming segment. `local_addr`/`remote_addr` are the IP
    /// addresses of the carrying datagram (destination and source).
    pub fn process(
        &mut self,
        now: Instant,
        local_addr: Ipv4Address,
        remote_addr: Ipv4Address,
        repr: &TcpRepr,
        payload: &[u8],
    ) {
        debug_assert_eq!(repr.payload_len, payload.len());
        self.stats.segs_received += 1;
        self.service_timers(now);

        match self.state {
            State::Closed => {}
            State::Listen => self.process_listen(now, local_addr, remote_addr, repr),
            State::SynSent => self.process_syn_sent(now, repr),
            _ => self.process_general(now, repr, payload),
        }
    }

    fn process_listen(
        &mut self,
        _now: Instant,
        local_addr: Ipv4Address,
        remote_addr: Ipv4Address,
        repr: &TcpRepr,
    ) {
        if repr.control != TcpControl::Syn || repr.ack_number.is_some() {
            return; // stray segment; the stack-level RST handles it
        }
        self.local = Endpoint::new(local_addr, repr.dst_port);
        self.remote = Endpoint::new(remote_addr, repr.src_port);
        self.irs = repr.seq_number;
        self.rcv_nxt = repr.seq_number + 1;
        self.iss = TcpSeqNumber(self.config.initial_seq);
        self.snd_una = self.iss;
        self.snd_nxt = self.iss;
        self.snd_max = self.iss;
        self.tx_base_seq = self.iss + 1;
        self.snd_wnd = usize::from(repr.window_len);
        self.snd_wl1 = repr.seq_number;
        self.snd_wl2 = self.iss;
        if let Some(mss) = repr.max_seg_size {
            self.effective_mss = self.config.mss.min(usize::from(mss));
        } else {
            self.effective_mss = self.config.mss.min(536);
        }
        self.cc = CongestionControl::new(self.config.congestion, self.effective_mss);
        self.state = State::SynReceived;
    }

    fn process_syn_sent(&mut self, now: Instant, repr: &TcpRepr) {
        match (repr.control, repr.ack_number) {
            (TcpControl::Rst, ack)
                // Only a RST acking our SYN kills us.
                if ack == Some(self.iss + 1) => {
                    self.reset_by_peer = true;
                    self.reset_to_closed();
                }
            (TcpControl::Syn, Some(ack)) => {
                if ack != self.iss + 1 {
                    // Half-open remnant: tell them to go away.
                    self.rst_pending = false; // stack sends RST via challenge
                    return;
                }
                self.establish_from_syn(now, repr);
                self.snd_una = ack;
                self.state = State::Established;
                self.rtt.on_ack(now, |marker| {
                    (TcpSeqNumber(marker) - self.snd_una) <= 0
                });
                self.retransmit_at = None;
                self.ack_pending = true;
            }
            (TcpControl::Syn, None) => {
                // Simultaneous open.
                self.establish_from_syn(now, repr);
                self.snd_nxt = self.iss; // re-send as SYN-ACK
                self.state = State::SynReceived;
            }
            _ => {}
        }
    }

    fn establish_from_syn(&mut self, _now: Instant, repr: &TcpRepr) {
        self.irs = repr.seq_number;
        self.rcv_nxt = repr.seq_number + 1;
        self.snd_wnd = usize::from(repr.window_len);
        self.snd_wl1 = repr.seq_number;
        self.snd_wl2 = self.snd_una;
        if let Some(mss) = repr.max_seg_size {
            self.effective_mss = self.config.mss.min(usize::from(mss));
        } else {
            self.effective_mss = self.config.mss.min(536);
        }
        self.cc = CongestionControl::new(self.config.congestion, self.effective_mss);
    }

    fn process_general(&mut self, now: Instant, repr: &TcpRepr, payload: &[u8]) {
        // --- RST.
        if repr.control == TcpControl::Rst {
            // Accept only if in-window (blind-reset hardening).
            let in_window = (repr.seq_number - self.rcv_nxt) >= 0
                && ((repr.seq_number - self.rcv_nxt) as usize) < self.rcv_wnd().max(1);
            if in_window || repr.seq_number == self.rcv_nxt {
                self.reset_by_peer = true;
                self.reset_to_closed();
            }
            return;
        }

        // --- A SYN in a synchronized state: challenge-ACK.
        if repr.control == TcpControl::Syn && self.state != State::SynReceived {
            self.ack_pending = true;
            return;
        }

        // --- Sequence acceptability (RFC 793 p.26).
        let seg_len = payload.len() + repr.control.len();
        let seq = repr.seq_number;
        let window = self.rcv_wnd();
        let seq_offset = seq - self.rcv_nxt; // may be negative (old data)
        let acceptable = if seg_len == 0 {
            if window == 0 {
                seq == self.rcv_nxt
            } else {
                seq_offset >= -(65_535i32) && (seq_offset as i64) < window as i64
            }
        } else {
            // Some part of the segment must fall in the window (or abut
            // rcv_nxt from the left — pure retransmission).
            let seg_end = seq_offset as i64 + seg_len as i64;
            seg_end > 0 && (seq_offset as i64) < window as i64
        };
        if !acceptable {
            // Simultaneous open: the peer's SYN-ACK re-uses the SYN's
            // sequence number we already consumed, so it fails the window
            // check — but its ACK of our SYN is still valid and must
            // establish the connection, or both sides deadlock until RTO.
            if self.state == State::SynReceived && repr.control == TcpControl::Syn {
                if let Some(ack) = repr.ack_number {
                    if ack == self.iss + 1 {
                        self.snd_una = ack;
                        self.retransmit_at = None;
                        self.state = State::Established;
                    }
                }
            }
            // Old or far-future segment: re-ACK so the peer resyncs.
            self.ack_pending = true;
            return;
        }

        // --- ACK processing.
        if let Some(ack) = repr.ack_number {
            self.process_ack(now, repr, ack, payload.len());
        }

        // In SynReceived, an acceptable ACK of our SYN promotes us.
        if self.state == State::SynReceived {
            if let Some(ack) = repr.ack_number {
                if ack == self.iss + 1 {
                    self.state = State::Established;
                }
            }
        }

        // --- Payload.
        if !payload.is_empty() {
            self.process_payload(now, seq, payload);
        }

        // --- FIN.
        if repr.control == TcpControl::Fin {
            let fin_seq = seq + payload.len();
            if fin_seq == self.rcv_nxt {
                self.rcv_nxt = self.rcv_nxt + 1;
                self.rx_fin = true;
                self.ack_pending = true;
                match self.state {
                    State::SynReceived | State::Established => self.state = State::CloseWait,
                    State::FinWait1 => {
                        // Did they also ack our FIN?
                        if self.fin_acked() {
                            self.enter_time_wait(now);
                        } else {
                            self.state = State::Closing;
                        }
                    }
                    State::FinWait2 => self.enter_time_wait(now),
                    State::TimeWait => {
                        // Retransmitted FIN: restart 2MSL.
                        self.enter_time_wait(now);
                    }
                    _ => {}
                }
            } else if (fin_seq - self.rcv_nxt) > 0 {
                // FIN beyond a gap — ACK what we have; sender retransmits.
                self.ack_pending = true;
            } else {
                // Duplicate FIN (already sequenced): re-ACK it.
                self.ack_pending = true;
            }
        }
    }

    fn fin_acked(&self) -> bool {
        match self.fin_seq {
            Some(fin_seq) => (self.snd_una - (fin_seq + 1)) >= 0,
            None => false,
        }
    }

    fn enter_time_wait(&mut self, now: Instant) {
        self.state = State::TimeWait;
        self.time_wait_until = Some(now + self.config.msl * 2);
        self.retransmit_at = None;
        self.probe_at = None;
        self.ack_pending = true;
    }

    fn process_ack(&mut self, now: Instant, repr: &TcpRepr, ack: TcpSeqNumber, payload_len: usize) {
        // Ignore ACKs of data we never sent.
        if (ack - self.snd_max) > 0 {
            self.ack_pending = true;
            return;
        }

        let advance = (ack - self.snd_una).max(0) as usize;
        if advance > 0 {
            // Count data bytes (exclude SYN/FIN sequence units).
            let mut data_acked = advance;
            if (self.snd_una - (self.iss + 1)) < 0 && (ack - (self.iss + 1)) >= 0 {
                data_acked -= 1; // SYN consumed one unit
            }
            if let Some(fin_seq) = self.fin_seq {
                if (self.snd_una - (fin_seq + 1)) < 0 && (ack - (fin_seq + 1)) >= 0 {
                    data_acked -= 1; // FIN consumed one unit
                }
            }
            // Release acknowledged bytes from the transmit buffer.
            let buf_acked = {
                let past_base = (ack - self.tx_base_seq).max(0) as usize;
                past_base.min(self.tx_buffer.len())
            };
            self.tx_buffer.drain(..buf_acked);
            self.tx_base_seq = self.tx_base_seq + buf_acked;
            self.snd_una = ack;
            if self.snd_nxt < ack {
                self.snd_nxt = ack;
            }
            self.stats.bytes_acked += data_acked as u64;
            self.dup_ack_count = 0;
            self.consecutive_timeouts = 0;
            self.rtt.on_ack(now, |marker| (TcpSeqNumber(marker) - ack) <= 0);
            self.cc.on_ack(data_acked);
            // Timer: restart if data remains, clear otherwise.
            self.retransmit_at = if self.snd_max > self.snd_una {
                Some(now + self.rtt.rto())
            } else {
                None
            };
            // Our FIN acked?
            if self.fin_acked() {
                match self.state {
                    State::FinWait1 => self.state = State::FinWait2,
                    State::Closing => self.enter_time_wait(now),
                    State::LastAck => self.reset_to_closed(),
                    _ => {}
                }
            }
        } else if payload_len == 0
            && ack == self.snd_una
            && self.snd_max > self.snd_una
            && usize::from(repr.window_len) == self.snd_wnd
        {
            // Duplicate ACK.
            self.dup_ack_count += 1;
            self.stats.dup_acks += 1;
            let flight = (self.snd_max - self.snd_una).max(0) as usize;
            if let DupAckAction::FastRetransmit = self.cc.on_dup_ack(self.dup_ack_count, flight) {
                self.snd_nxt = self.snd_una;
                self.rtt.on_retransmit();
            }
        }

        // Window update (RFC 793 p.72 condition).
        let seq = repr.seq_number;
        if (seq - self.snd_wl1) > 0
            || (seq == self.snd_wl1 && (ack - self.snd_wl2) >= 0)
        {
            let new_wnd = usize::from(repr.window_len);
            if self.snd_wnd == 0 && new_wnd > 0 {
                self.probe_at = None;
            }
            self.snd_wnd = new_wnd;
            self.snd_wl1 = seq;
            self.snd_wl2 = ack;
        }
    }

    fn process_payload(&mut self, now: Instant, seq: TcpSeqNumber, payload: &[u8]) {
        let offset = seq - self.rcv_nxt;
        if offset < 0 {
            // Left-trim retransmitted prefix.
            let skip = (-offset) as usize;
            if skip >= payload.len() {
                self.ack_pending = true;
                return;
            }
            self.accept_in_order(now, &payload[skip..]);
        } else if offset == 0 {
            self.accept_in_order(now, payload);
        } else {
            // Out of order: buffer and demand the gap with an instant ACK.
            self.ooo.insert(offset as usize, payload);
            self.ack_pending = true;
        }
    }

    fn accept_in_order(&mut self, _now: Instant, data: &[u8]) {
        // Right-trim to the receive window.
        let room = self.rcv_wnd();
        let take = data.len().min(room);
        if take == 0 {
            self.ack_pending = true;
            return;
        }
        self.rx_buffer.extend(&data[..take]);
        self.rcv_nxt = self.rcv_nxt + take;
        self.stats.bytes_received += take as u64;
        // Pull any newly contiguous out-of-order data.
        self.ooo.advance(take);
        let extra = self.ooo.take_contiguous();
        if !extra.is_empty() {
            let room = self
                .config
                .rx_capacity
                .saturating_sub(self.rx_buffer.len());
            let keep = extra.len().min(room);
            self.rx_buffer.extend(&extra[..keep]);
            self.rcv_nxt = self.rcv_nxt + keep;
            self.stats.bytes_received += keep as u64;
            // Anything we couldn't keep is dropped; sender retransmits.
        }
        // ACK policy: immediate every second segment, else delayed.
        self.segs_since_ack += 1;
        if self.segs_since_ack >= 2 || self.config.delayed_ack.is_none() || self.rx_fin {
            self.ack_pending = true;
        } else if self.delayed_ack_at.is_none() {
            self.delayed_ack_at =
                Some(_now + self.config.delayed_ack.unwrap_or(Duration::ZERO));
        }
    }
}

/// `ring[offset..offset + len]` as the deque stores it: the part that
/// lies in its front half, then the part in its back half. Either may
/// be empty; both are not unless the range wraps.
fn ring_slices(ring: &VecDeque<u8>, offset: usize, len: usize) -> (&[u8], &[u8]) {
    let (front, back) = ring.as_slices();
    let (split, end) = (front.len(), offset + len);
    (
        &front[offset.min(split)..end.min(split)],
        &back[offset.saturating_sub(split)..end.saturating_sub(split)],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const A_ADDR: Ipv4Address = Ipv4Address::new(10, 0, 0, 1);
    const B_ADDR: Ipv4Address = Ipv4Address::new(10, 0, 0, 2);

    fn pair() -> (Socket, Socket) {
        let mut client_cfg = SocketConfig {
            initial_seq: 100,
            mss: 1000,
            ..SocketConfig::default()
        };
        client_cfg.delayed_ack = None;
        let mut server_cfg = SocketConfig {
            initial_seq: 900_000,
            mss: 1000,
            ..SocketConfig::default()
        };
        server_cfg.delayed_ack = None;
        let mut client = Socket::new(client_cfg);
        let mut server = Socket::new(server_cfg);
        server.listen(Endpoint::new(B_ADDR, 80)).unwrap();
        client
            .connect(
                Endpoint::new(A_ADDR, 49152),
                Endpoint::new(B_ADDR, 80),
                Instant::ZERO,
            )
            .unwrap();
        (client, server)
    }

    /// Shuttle segments between the two sockets until both go quiet.
    /// `drop_nth` drops the i-th segment observed (0-based) if given.
    fn exchange(a: &mut Socket, b: &mut Socket, now: Instant, drop: &mut dyn FnMut(u64) -> bool) {
        let mut counter = 0u64;
        for _ in 0..200 {
            let mut progressed = false;
            while let Some((repr, payload)) = a.dispatch(now) {
                progressed = true;
                let n = counter;
                counter += 1;
                if !drop(n) {
                    b.process(now, B_ADDR, A_ADDR, &repr, &payload);
                }
            }
            while let Some((repr, payload)) = b.dispatch(now) {
                progressed = true;
                let n = counter;
                counter += 1;
                if !drop(n) {
                    a.process(now, A_ADDR, B_ADDR, &repr, &payload);
                }
            }
            if !progressed {
                break;
            }
        }
    }

    fn no_drop(a: &mut Socket, b: &mut Socket, now: Instant) {
        exchange(a, b, now, &mut |_| false);
    }

    #[test]
    fn three_way_handshake() {
        let (mut client, mut server) = pair();
        assert_eq!(client.state(), State::SynSent);
        assert_eq!(server.state(), State::Listen);
        no_drop(&mut client, &mut server, Instant::ZERO);
        assert_eq!(client.state(), State::Established);
        assert_eq!(server.state(), State::Established);
        assert_eq!(server.remote(), Endpoint::new(A_ADDR, 49152));
        // MSS negotiated to the minimum of the two.
        assert_eq!(client.effective_mss(), 1000);
        assert_eq!(server.effective_mss(), 1000);
    }

    #[test]
    fn data_transfer_client_to_server() {
        let (mut client, mut server) = pair();
        no_drop(&mut client, &mut server, Instant::ZERO);
        assert_eq!(client.send_slice(b"hello, catenet").unwrap(), 14);
        no_drop(&mut client, &mut server, Instant::from_millis(1));
        let mut buf = [0u8; 64];
        let n = server.recv_slice(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello, catenet");
        assert!(client.all_acked());
    }

    #[test]
    fn bidirectional_transfer() {
        let (mut client, mut server) = pair();
        no_drop(&mut client, &mut server, Instant::ZERO);
        client.send_slice(b"ping").unwrap();
        server.send_slice(b"pong").unwrap();
        no_drop(&mut client, &mut server, Instant::from_millis(1));
        let mut buf = [0u8; 16];
        assert_eq!(server.recv_slice(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"ping");
        assert_eq!(client.recv_slice(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"pong");
    }

    #[test]
    fn large_transfer_respects_mss() {
        let (mut client, mut server) = pair();
        no_drop(&mut client, &mut server, Instant::ZERO);
        let data: Vec<u8> = (0..10_000).map(|i| (i % 256) as u8).collect();
        let mut sent = 0;
        let mut now = Instant::from_millis(1);
        let mut received = Vec::new();
        for _ in 0..200 {
            sent += client.send_slice(&data[sent..]).unwrap();
            no_drop(&mut client, &mut server, now);
            let mut buf = [0u8; 4096];
            loop {
                let n = server.recv_slice(&mut buf).unwrap();
                if n == 0 {
                    break;
                }
                received.extend_from_slice(&buf[..n]);
            }
            now += Duration::from_millis(10);
            if received.len() == data.len() {
                break;
            }
        }
        assert_eq!(received, data);
    }

    #[test]
    fn graceful_close_full_sequence() {
        let (mut client, mut server) = pair();
        no_drop(&mut client, &mut server, Instant::ZERO);
        client.send_slice(b"bye").unwrap();
        client.close();
        assert_eq!(client.state(), State::FinWait1);
        let now = Instant::from_millis(5);
        no_drop(&mut client, &mut server, now);
        // Server sees data then EOF.
        let mut buf = [0u8; 8];
        assert_eq!(server.recv_slice(&mut buf).unwrap(), 3);
        assert_eq!(server.recv_slice(&mut buf).unwrap_err(), TcpError::Finished);
        assert_eq!(server.state(), State::CloseWait);
        assert_eq!(client.state(), State::FinWait2);
        // Server closes its side.
        server.close();
        assert_eq!(server.state(), State::LastAck);
        no_drop(&mut client, &mut server, now + Duration::from_millis(5));
        assert_eq!(server.state(), State::Closed);
        assert_eq!(client.state(), State::TimeWait);
        // 2 MSL later the client is gone too.
        let after = now + Duration::from_secs(61);
        assert!(client.dispatch(after).is_none());
        assert_eq!(client.state(), State::Closed);
    }

    #[test]
    fn simultaneous_close_reaches_closed() {
        let (mut client, mut server) = pair();
        no_drop(&mut client, &mut server, Instant::ZERO);
        client.close();
        server.close();
        assert_eq!(client.state(), State::FinWait1);
        assert_eq!(server.state(), State::FinWait1);
        no_drop(&mut client, &mut server, Instant::from_millis(1));
        // Both end in TimeWait (or Closed after expiry) — never stuck.
        for s in [client.state(), server.state()] {
            assert!(
                matches!(s, State::TimeWait | State::Closed),
                "stuck in {s:?}"
            );
        }
    }

    #[test]
    fn lost_data_segment_is_retransmitted() {
        let (mut client, mut server) = pair();
        no_drop(&mut client, &mut server, Instant::ZERO);
        client.send_slice(b"important").unwrap();
        // Drop the first data segment.
        let mut dropped = false;
        exchange(
            &mut client,
            &mut server,
            Instant::from_millis(1),
            &mut |_| {
                if !dropped {
                    dropped = true;
                    true
                } else {
                    false
                }
            },
        );
        let mut buf = [0u8; 16];
        assert_eq!(server.recv_slice(&mut buf).unwrap(), 0, "segment was dropped");
        // Advance past the RTO; the timer fires and retransmission occurs.
        let later = Instant::from_millis(1) + RttEstimator::INITIAL_RTO + Duration::from_millis(700);
        no_drop(&mut client, &mut server, later);
        let n = server.recv_slice(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"important");
        assert!(client.stats.retransmits >= 1);
        assert!(client.stats.timeouts >= 1);
    }

    #[test]
    fn lost_syn_is_retransmitted() {
        let (mut client, mut server) = pair();
        // Drop the very first SYN.
        let mut first = true;
        exchange(&mut client, &mut server, Instant::ZERO, &mut |_| {
            let d = first;
            first = false;
            d
        });
        assert_eq!(client.state(), State::SynSent);
        no_drop(&mut client, &mut server, Instant::from_secs(2));
        assert_eq!(client.state(), State::Established);
        assert_eq!(server.state(), State::Established);
    }

    /// A pair with congestion control and Nagle disabled, so dispatch
    /// produces as many segments as the receive window allows.
    fn unthrottled_pair() -> (Socket, Socket) {
        let mut client = Socket::new(SocketConfig {
            initial_seq: 100,
            mss: 1000,
            nagle: false,
            congestion: CongestionAlgo::None,
            delayed_ack: None,
            ..SocketConfig::default()
        });
        let mut server = Socket::new(SocketConfig {
            initial_seq: 900_000,
            mss: 1000,
            delayed_ack: None,
            ..SocketConfig::default()
        });
        server.listen(Endpoint::new(B_ADDR, 80)).unwrap();
        client
            .connect(
                Endpoint::new(A_ADDR, 49152),
                Endpoint::new(B_ADDR, 80),
                Instant::ZERO,
            )
            .unwrap();
        (client, server)
    }

    #[test]
    fn out_of_order_segments_reassembled() {
        let (mut client, mut server) = unthrottled_pair();
        no_drop(&mut client, &mut server, Instant::ZERO);
        // Generate three segments by sending 2.5 MSS of data, but deliver
        // them to the server out of order by capturing first.
        let data: Vec<u8> = (0..2500).map(|i| (i % 256) as u8).collect();
        client.send_slice(&data).unwrap();
        let now = Instant::from_millis(1);
        let mut segs = Vec::new();
        while let Some(seg) = client.dispatch(now) {
            segs.push(seg);
        }
        assert!(segs.len() >= 3);
        segs.reverse();
        for (repr, payload) in &segs {
            server.process(now, B_ADDR, A_ADDR, repr, payload);
        }
        let mut buf = vec![0u8; 4096];
        let n = server.recv_slice(&mut buf).unwrap();
        assert_eq!(&buf[..n], &data[..n]);
        assert_eq!(n, 2500);
    }

    #[test]
    fn fast_retransmit_on_triple_dup_ack() {
        let (mut client, mut server) = pair();
        no_drop(&mut client, &mut server, Instant::ZERO);
        // Open the congestion window a bit first.
        let warm: Vec<u8> = vec![0xAA; 30_000];
        client.send_slice(&warm).unwrap();
        let mut now = Instant::from_millis(1);
        for _ in 0..10 {
            no_drop(&mut client, &mut server, now);
            now += Duration::from_millis(20);
        }
        let mut sink = vec![0u8; 16_384];
        while server.recv_slice(&mut sink).unwrap() > 0 {}

        // Send 7 segments; drop the first, deliver the rest → dup ACKs.
        // (The first returning ACK merely resynchronizes the advertised
        // window after the drain above; the following ones are genuine
        // duplicates.)
        let data: Vec<u8> = (0..7000).map(|i| (i % 256) as u8).collect();
        client.send_slice(&data).unwrap();
        let mut segs = Vec::new();
        while let Some(seg) = client.dispatch(now) {
            segs.push(seg);
        }
        assert!(segs.len() >= 6, "window too small: {} segs", segs.len());
        // Deliver each out-of-order segment and let the server's
        // immediate duplicate ACK flow back before the next arrives
        // (as it would on a real path).
        for (repr, payload) in segs.iter().skip(1) {
            server.process(now, B_ADDR, A_ADDR, repr, payload);
            while let Some((ack, ack_payload)) = server.dispatch(now) {
                client.process(now, A_ADDR, B_ADDR, &ack, &ack_payload);
            }
        }
        assert!(client.stats.dup_acks >= 3, "dup acks: {}", client.stats.dup_acks);
        // Client should have rewound and be ready to retransmit the hole
        // *without* waiting for the RTO.
        let before_timeout = now + Duration::from_millis(1);
        no_drop(&mut client, &mut server, before_timeout);
        let mut buf = vec![0u8; 16_384];
        let n = server.recv_slice(&mut buf).unwrap();
        assert_eq!(n, 7000);
        assert_eq!(&buf[..n], &data[..]);
        assert_eq!(client.stats.timeouts, 0, "fast retransmit, not RTO");
        assert!(client.congestion().fast_retransmits >= 1);
    }

    #[test]
    fn zero_window_blocks_then_probe_resumes() {
        // A server with a tiny receive buffer whose application reads
        // nothing: the window slams shut, and only probing reopens it.
        let mut client = Socket::new(SocketConfig {
            initial_seq: 100,
            mss: 1000,
            nagle: false,
            congestion: CongestionAlgo::None,
            delayed_ack: None,
            ..SocketConfig::default()
        });
        let mut server = Socket::new(SocketConfig {
            initial_seq: 200,
            mss: 1000,
            rx_capacity: 2_000,
            delayed_ack: None,
            ..SocketConfig::default()
        });
        server.listen(Endpoint::new(B_ADDR, 80)).unwrap();
        client
            .connect(Endpoint::new(A_ADDR, 49152), Endpoint::new(B_ADDR, 80), Instant::ZERO)
            .unwrap();
        no_drop(&mut client, &mut server, Instant::ZERO);

        let data = vec![0x55u8; 10_000];
        assert_eq!(client.send_slice(&data).unwrap(), 10_000);
        let mut now = Instant::from_millis(1);
        for _ in 0..10 {
            no_drop(&mut client, &mut server, now);
            now += Duration::from_millis(50);
        }
        // Server's 2 kB buffer is full; client saw window 0 and stopped.
        assert_eq!(server.recv_queue_len(), 2_000);
        assert!(client.send_queue_len() > 0, "client holds unsendable data");

        // Drain the server repeatedly; probe-elicited ACKs reopen the
        // window and the rest flows.
        let mut sink = vec![0u8; 4_096];
        let mut drained = 0;
        for _ in 0..200 {
            loop {
                let n = server.recv_slice(&mut sink).unwrap();
                if n == 0 {
                    break;
                }
                drained += n;
            }
            no_drop(&mut client, &mut server, now);
            now += Duration::from_millis(300);
            if drained == 10_000 {
                break;
            }
        }
        assert_eq!(drained, 10_000, "all data eventually delivered");
        assert_eq!(client.send_queue_len(), 0);
        assert!(client.stats.probes_sent >= 1, "probes: {}", client.stats.probes_sent);
    }

    #[test]
    fn nagle_coalesces_small_writes() {
        let (mut client, mut server) = pair();
        no_drop(&mut client, &mut server, Instant::ZERO);
        let now = Instant::from_millis(1);
        // First small write goes out immediately (nothing in flight).
        client.send_slice(b"a").unwrap();
        let (first, _) = client.dispatch(now).expect("first tinygram sent");
        assert_eq!(first.payload_len, 1);
        // Subsequent small writes are held while the first is unacked.
        client.send_slice(b"b").unwrap();
        client.send_slice(b"c").unwrap();
        assert!(client.dispatch(now).is_none(), "Nagle holds tinygrams");
        // ACK arrives → the held bytes go out as one segment.
        server.process(now, B_ADDR, A_ADDR, &first, b"a");
        while let Some((repr, payload)) = server.dispatch(now) {
            client.process(now, A_ADDR, B_ADDR, &repr, &payload);
        }
        let (second, payload) = client.dispatch(now).expect("coalesced segment");
        assert_eq!(second.payload_len, 2);
        assert_eq!(payload, b"bc");
    }

    #[test]
    fn nagle_off_sends_immediately() {
        let mut cfg = SocketConfig {
            nagle: false,
            initial_seq: 5,
            ..SocketConfig::default()
        };
        cfg.delayed_ack = None;
        let mut client = Socket::new(cfg);
        let mut server = Socket::new(SocketConfig {
            initial_seq: 7,
            delayed_ack: None,
            ..SocketConfig::default()
        });
        server.listen(Endpoint::new(B_ADDR, 80)).unwrap();
        client
            .connect(Endpoint::new(A_ADDR, 1000), Endpoint::new(B_ADDR, 80), Instant::ZERO)
            .unwrap();
        no_drop(&mut client, &mut server, Instant::ZERO);
        let now = Instant::from_millis(1);
        client.send_slice(b"a").unwrap();
        assert!(client.dispatch(now).is_some());
        client.send_slice(b"b").unwrap();
        assert!(client.dispatch(now).is_some(), "no Nagle: b goes immediately");
    }

    #[test]
    fn abort_sends_rst_and_peer_sees_reset() {
        let (mut client, mut server) = pair();
        no_drop(&mut client, &mut server, Instant::ZERO);
        client.abort();
        assert_eq!(client.state(), State::Closed);
        let (repr, payload) = client.dispatch(Instant::from_millis(1)).expect("RST");
        assert_eq!(repr.control, TcpControl::Rst);
        server.process(Instant::from_millis(1), B_ADDR, A_ADDR, &repr, &payload);
        assert_eq!(server.state(), State::Closed);
        let mut buf = [0u8; 4];
        assert_eq!(
            server.recv_slice(&mut buf).unwrap_err(),
            TcpError::ConnectionReset
        );
    }

    #[test]
    fn send_after_close_rejected() {
        let (mut client, mut server) = pair();
        no_drop(&mut client, &mut server, Instant::ZERO);
        client.close();
        assert_eq!(client.send_slice(b"x").unwrap_err(), TcpError::InvalidState);
    }

    #[test]
    fn connect_from_non_closed_rejected() {
        let (mut client, _server) = pair();
        assert_eq!(
            client
                .connect(Endpoint::new(A_ADDR, 1), Endpoint::new(B_ADDR, 2), Instant::ZERO)
                .unwrap_err(),
            TcpError::InvalidState
        );
    }

    #[test]
    fn rtt_estimator_seeds_from_handshake_or_data() {
        let (mut client, mut server) = pair();
        no_drop(&mut client, &mut server, Instant::ZERO);
        client.send_slice(b"time me").unwrap();
        no_drop(&mut client, &mut server, Instant::from_millis(40));
        assert!(client.rtt().samples >= 1);
    }

    #[test]
    fn duplicate_segment_reacked_not_redelivered() {
        let (mut client, mut server) = pair();
        no_drop(&mut client, &mut server, Instant::ZERO);
        client.send_slice(b"once").unwrap();
        let now = Instant::from_millis(1);
        let (repr, payload) = client.dispatch(now).unwrap();
        server.process(now, B_ADDR, A_ADDR, &repr, &payload);
        server.process(now, B_ADDR, A_ADDR, &repr, &payload); // duplicate
        let mut buf = [0u8; 16];
        assert_eq!(server.recv_slice(&mut buf).unwrap(), 4);
        assert_eq!(server.recv_slice(&mut buf).unwrap(), 0, "no double delivery");
    }

    #[test]
    fn listen_then_close_returns_to_closed() {
        let mut socket = Socket::new(SocketConfig::default());
        socket.listen(Endpoint::new(B_ADDR, 9)).unwrap();
        socket.close();
        assert_eq!(socket.state(), State::Closed);
    }

    #[test]
    fn accepts_matches_endpoints() {
        let (client, server) = pair();
        let syn = TcpRepr {
            src_port: 49152,
            dst_port: 80,
            control: TcpControl::Syn,
            seq_number: TcpSeqNumber(1),
            ack_number: None,
            window_len: 1000,
            max_seg_size: None,
            payload_crc: None,
            payload_len: 0,
        };
        assert!(server.accepts(B_ADDR, A_ADDR, &syn));
        let wrong_port = TcpRepr { dst_port: 81, ..syn };
        assert!(!server.accepts(B_ADDR, A_ADDR, &wrong_port));
        // Client in SynSent accepts only its own 4-tuple.
        let resp = TcpRepr {
            src_port: 80,
            dst_port: 49152,
            ..syn
        };
        assert!(client.accepts(A_ADDR, B_ADDR, &resp));
        assert!(!client.accepts(A_ADDR, Ipv4Address::new(9, 9, 9, 9), &resp));
    }

    #[test]
    fn simultaneous_open_converges() {
        let mut a = Socket::new(SocketConfig {
            initial_seq: 11,
            delayed_ack: None,
            ..SocketConfig::default()
        });
        let mut b = Socket::new(SocketConfig {
            initial_seq: 22,
            delayed_ack: None,
            ..SocketConfig::default()
        });
        a.connect(Endpoint::new(A_ADDR, 5000), Endpoint::new(B_ADDR, 6000), Instant::ZERO)
            .unwrap();
        b.connect(Endpoint::new(B_ADDR, 6000), Endpoint::new(A_ADDR, 5000), Instant::ZERO)
            .unwrap();
        // Exchange the crossing SYNs by hand.
        let (syn_a, _) = a.dispatch(Instant::ZERO).unwrap();
        let (syn_b, _) = b.dispatch(Instant::ZERO).unwrap();
        a.process(Instant::ZERO, A_ADDR, B_ADDR, &syn_b, &[]);
        b.process(Instant::ZERO, B_ADDR, A_ADDR, &syn_a, &[]);
        assert_eq!(a.state(), State::SynReceived);
        assert_eq!(b.state(), State::SynReceived);
        no_drop(&mut a, &mut b, Instant::from_millis(1));
        assert_eq!(a.state(), State::Established);
        assert_eq!(b.state(), State::Established);
    }

    #[test]
    fn poll_at_reports_retransmit_deadline() {
        let (mut client, mut server) = pair();
        no_drop(&mut client, &mut server, Instant::ZERO);
        client.send_slice(b"x").unwrap();
        let now = Instant::from_millis(10);
        let _ = client.dispatch(now).unwrap();
        // Something is in flight: poll_at must report a deadline.
        let at = client.poll_at().expect("retransmit timer armed");
        assert!(at > now);
        assert!(at <= now + RttEstimator::MAX_RTO);
    }

    #[test]
    fn connection_gives_up_after_r2_consecutive_timeouts() {
        let mut client = Socket::new(SocketConfig {
            initial_seq: 5,
            delayed_ack: None,
            max_retries: Some(3),
            ..SocketConfig::default()
        });
        let mut server = Socket::new(SocketConfig {
            initial_seq: 6,
            delayed_ack: None,
            ..SocketConfig::default()
        });
        server.listen(Endpoint::new(B_ADDR, 80)).unwrap();
        client
            .connect(Endpoint::new(A_ADDR, 9000), Endpoint::new(B_ADDR, 80), Instant::ZERO)
            .unwrap();
        no_drop(&mut client, &mut server, Instant::ZERO);
        client.send_slice(b"into the void").unwrap();
        // The path is cut: dispatch into nothing, advancing past each RTO.
        let mut now = Instant::from_millis(1);
        for _ in 0..64 {
            while client.dispatch(now).is_some() {}
            now += Duration::from_secs(70); // beyond even the max RTO
            if client.state() == State::Closed {
                break;
            }
        }
        assert_eq!(client.state(), State::Closed, "gave up");
        assert_eq!(
            client.send_slice(b"more").unwrap_err(),
            TcpError::TimedOut
        );
        let mut buf = [0u8; 4];
        assert_eq!(client.recv_slice(&mut buf).unwrap_err(), TcpError::TimedOut);
        assert!(client.stats.timeouts >= 4);
    }

    #[test]
    fn progress_resets_the_give_up_counter() {
        // Two timeouts, then an ACK, then two more timeouts: with
        // max_retries = 3 the connection must still be alive.
        let mut client = Socket::new(SocketConfig {
            initial_seq: 5,
            delayed_ack: None,
            max_retries: Some(3),
            nagle: false,
            ..SocketConfig::default()
        });
        let mut server = Socket::new(SocketConfig {
            initial_seq: 6,
            delayed_ack: None,
            ..SocketConfig::default()
        });
        server.listen(Endpoint::new(B_ADDR, 80)).unwrap();
        client
            .connect(Endpoint::new(A_ADDR, 9001), Endpoint::new(B_ADDR, 80), Instant::ZERO)
            .unwrap();
        no_drop(&mut client, &mut server, Instant::ZERO);
        let mut now = Instant::from_millis(1);
        client.send_slice(b"first").unwrap();
        // Two lost transmissions (timeouts 1 and 2).
        for _ in 0..2 {
            while client.dispatch(now).is_some() {}
            now += Duration::from_secs(70);
        }
        // Third attempt is delivered: progress.
        no_drop(&mut client, &mut server, now);
        assert!(client.all_acked());
        // Two more losses on new data: counter restarted, still alive.
        client.send_slice(b"second").unwrap();
        for _ in 0..2 {
            while client.dispatch(now).is_some() {}
            now += Duration::from_secs(70);
        }
        assert_ne!(client.state(), State::Closed, "counter was reset by progress");
        no_drop(&mut client, &mut server, now);
        assert!(client.all_acked());
    }

    #[test]
    fn repacketization_on_retransmit_combines_small_segments() {
        // The paper's byte-sequencing argument: after loss, the sender may
        // combine previously separate small packets into one.
        let mut cfg = SocketConfig {
            nagle: false, // allow tinygrams out
            initial_seq: 3,
            delayed_ack: None,
            mss: 1000,
            ..SocketConfig::default()
        };
        cfg.congestion = CongestionAlgo::None;
        let mut client = Socket::new(cfg);
        let mut server = Socket::new(SocketConfig {
            initial_seq: 9,
            delayed_ack: None,
            ..SocketConfig::default()
        });
        server.listen(Endpoint::new(B_ADDR, 80)).unwrap();
        client
            .connect(Endpoint::new(A_ADDR, 1234), Endpoint::new(B_ADDR, 80), Instant::ZERO)
            .unwrap();
        no_drop(&mut client, &mut server, Instant::ZERO);
        let now = Instant::from_millis(1);
        // Three tiny segments, all lost.
        for chunk in [&b"aa"[..], b"bb", b"cc"] {
            client.send_slice(chunk).unwrap();
            let seg = client.dispatch(now);
            assert!(seg.is_some()); // emitted and dropped on the floor
        }
        // RTO fires: the retransmission is ONE segment carrying all 6 bytes.
        let later = now + Duration::from_secs(2);
        let (repr, payload) = client.dispatch(later).expect("retransmission");
        assert_eq!(payload, b"aabbcc", "repacketized into one segment");
        assert_eq!(repr.payload_len, 6);
    }
}
