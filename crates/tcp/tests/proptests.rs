//! Property tests for the TCP crate's data structures: the out-of-order
//! buffer must always reconstruct the exact byte stream, the RTT
//! estimator must stay within its documented bounds for any sample
//! sequence, and the socket's ring-buffer slice arithmetic must agree
//! with a per-byte model under loss, reordering and retransmission.
//! Inputs are drawn from the simulator's seeded `Rng`, so every case is
//! reproducible from its case number.

use catenet_sim::{Duration, Instant, Rng};
use catenet_tcp::{Endpoint, OutOfOrderBuffer, RttEstimator, Socket, SocketConfig};
use catenet_wire::{crc32c, Ipv4Address, TcpControl, TcpRepr, TcpSeqNumber};
use std::collections::VecDeque;

#[test]
fn out_of_order_buffer_reconstructs_stream() {
    for case in 0..256 {
        let mut rng = Rng::for_case("ooo_reconstruct", case);
        let stream: Vec<u8> = (0..rng.range(1, 512)).map(|_| rng.below(256) as u8).collect();
        let cut_count = rng.below(12) as usize;
        let cuts: Vec<usize> = (0..cut_count).map(|_| rng.range(1, 64) as usize).collect();
        let order_seed = u64::from(rng.next_u32()) << 32 | u64::from(rng.next_u32());
        let duplicate_first = rng.chance(0.5);

        // Cut the stream into segments at the given widths.
        let mut segments: Vec<(usize, Vec<u8>)> = Vec::new();
        let mut offset = 0;
        let mut cuts = cuts.into_iter();
        while offset < stream.len() {
            let width = cuts.next().unwrap_or(stream.len()).min(stream.len() - offset);
            segments.push((offset, stream[offset..offset + width].to_vec()));
            offset += width;
        }
        // Deterministic shuffle.
        let mut state = order_seed | 1;
        for i in (1..segments.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            segments.swap(i, j);
        }
        if duplicate_first && !segments.is_empty() {
            let dup = segments[0].clone();
            segments.push(dup);
        }
        let mut buffer = OutOfOrderBuffer::new(4096);
        let mut out = Vec::new();
        for (seg_offset, data) in segments {
            // Offsets are relative to the current in-order point;
            // overlaps are allowed, insert handles them.
            if seg_offset >= out.len() {
                buffer.insert(seg_offset - out.len(), &data);
            }
            out.extend_from_slice(&buffer.take_contiguous());
        }
        out.extend_from_slice(&buffer.take_contiguous());
        assert_eq!(out, stream, "case {case}");
        assert!(buffer.is_empty());
    }
}

#[test]
fn rtt_estimator_bounds_hold_for_any_samples() {
    for case in 0..256 {
        let mut rng = Rng::for_case("rtt_bounds", case);
        let count = rng.range(1, 64) as usize;
        let mut est = RttEstimator::new();
        for _ in 0..count {
            if rng.chance(0.5) {
                est.on_retransmit();
            } else {
                est.sample(Duration::from_micros(rng.range(1, 10_000_000)));
            }
            let rto = est.rto();
            assert!(rto >= RttEstimator::MIN_RTO, "rto {rto} below floor");
            assert!(rto <= RttEstimator::MAX_RTO, "rto {rto} above ceiling");
            // After a clean sample the RTO covers the smoothed RTT.
            if let Some(srtt) = est.srtt() {
                if est.backoff() == 0 {
                    assert!(
                        rto >= srtt.min(RttEstimator::MAX_RTO).max(RttEstimator::MIN_RTO).min(rto),
                        "rto {rto} vs srtt {srtt}"
                    );
                }
            }
        }
    }
}

#[test]
fn backoff_is_monotone_nondecreasing_in_rto() {
    for case in 0..128 {
        let mut rng = Rng::for_case("rtt_backoff", case);
        let base_ms = rng.range(1, 1000);
        let backoffs = rng.range(1, 12);
        let mut est = RttEstimator::new();
        est.sample(Duration::from_millis(base_ms));
        let mut last = est.rto();
        for _ in 0..backoffs {
            est.on_retransmit();
            let rto = est.rto();
            assert!(rto >= last, "backoff shrank the RTO");
            last = rto;
        }
    }
}

// ---------------------------------------------------------------------
// The socket's rings against a per-byte model
// ---------------------------------------------------------------------

const CLIENT: Ipv4Address = Ipv4Address::new(10, 0, 0, 1);
const SERVER: Ipv4Address = Ipv4Address::new(10, 0, 0, 2);

/// A client sending `stream` to a server through a wire the test owns,
/// with the byte-at-a-time bookkeeping the sockets are checked against.
struct RingHarness {
    client: Socket,
    server: Socket,
    iss: TcpSeqNumber,
    tx_capacity: usize,
    check_crc: bool,
    stream: Vec<u8>,
    /// Segments in flight, each direction.
    to_server: Vec<(TcpRepr, Vec<u8>)>,
    to_client: Vec<(TcpRepr, Vec<u8>)>,
    /// Model of the client's transmit ring: one element per byte the
    /// socket accepted and the peer has not acknowledged.
    tx_model: VecDeque<u8>,
    written: usize,
    acked: usize,
    /// Model of the server's receive ring, and what the application has
    /// read out of it.
    rx_model: VecDeque<u8>,
    accepted: usize,
    read: Vec<u8>,
    now: Instant,
}

impl RingHarness {
    fn new(rng: &mut Rng) -> RingHarness {
        let iss = if rng.chance(0.25) {
            // Sequence space wraps 2³² mid-stream.
            u32::MAX - rng.below(2_000) as u32
        } else {
            rng.next_u32()
        };
        let tx_capacity = rng.range(8, 200) as usize;
        let check_crc = rng.chance(0.3);
        let client_cfg = SocketConfig {
            tx_capacity,
            rx_capacity: 64,
            mss: rng.range(64, 129) as usize,
            nagle: rng.chance(0.5),
            initial_seq: iss,
            payload_crc: check_crc,
            ..SocketConfig::default()
        };
        let server_cfg = SocketConfig {
            tx_capacity: 64,
            rx_capacity: rng.range(8, 300) as usize,
            mss: rng.range(64, 129) as usize,
            delayed_ack: rng.chance(0.5).then_some(Duration::from_millis(200)),
            initial_seq: rng.next_u32(),
            ..SocketConfig::default()
        };
        let mut client = Socket::new(client_cfg);
        let mut server = Socket::new(server_cfg);
        server.listen(Endpoint::new(SERVER, 80)).unwrap();
        client
            .connect(Endpoint::new(CLIENT, 49_152), Endpoint::new(SERVER, 80), Instant::ZERO)
            .unwrap();
        RingHarness {
            client,
            server,
            iss: TcpSeqNumber(iss),
            tx_capacity,
            check_crc,
            stream: (0..rng.range(1, 3_000)).map(|_| rng.below(256) as u8).collect(),
            to_server: Vec::new(),
            to_client: Vec::new(),
            tx_model: VecDeque::new(),
            written: 0,
            acked: 0,
            rx_model: VecDeque::new(),
            accepted: 0,
            read: Vec::new(),
            now: Instant::ZERO,
        }
    }

    /// The application writes up to `len` more bytes of the stream.
    fn write(&mut self, len: usize) {
        let len = len.min(self.stream.len() - self.written);
        let offered = &self.stream[self.written..self.written + len];
        let taken = self.client.send_slice(offered).expect("open for writing");
        assert_eq!(taken, len.min(self.tx_capacity - self.tx_model.len()));
        for &byte in &offered[..taken] {
            self.tx_model.push_back(byte);
        }
        self.written += taken;
    }

    /// Drain the client's `dispatch`, checking every payload against the
    /// stream at the position its sequence number names.
    fn client_dispatch(&mut self, lend: bool) {
        loop {
            let segment = if lend {
                self.client.dispatch_with(self.now, |repr, head, tail| {
                    assert_eq!(head.len() + tail.len(), repr.payload_len);
                    (*repr, [head, tail].concat())
                })
            } else {
                self.client.dispatch(self.now)
            };
            let Some((repr, payload)) = segment else { break };
            assert_eq!(payload.len(), repr.payload_len);
            if !payload.is_empty() {
                let at = (repr.seq_number - (self.iss + 1)) as usize;
                assert_eq!(payload, self.stream[at..at + payload.len()], "payload at {at}");
                // Only bytes the model still holds may be on the wire.
                assert!(at >= self.acked && at + payload.len() <= self.written);
                assert_eq!(repr.payload_crc, self.check_crc.then(|| crc32c(&payload)));
            }
            let is_probe = repr.control == TcpControl::None && payload.len() == 1;
            self.to_server.push((repr, payload));
            if is_probe {
                // A zero-window probe byte is outside the retransmission
                // timer (`make_probe` arms none): refused, or accepted and
                // its ACK lost, it stays in flight for good, and Nagle or
                // a window no wider than the stranded bytes then stalls
                // the sender forever. That defect is parked (ROADMAP item
                // 6) because fixing it changes behaviour; until then the
                // probe and its answer cross a clean wire at once, after
                // the application has made room for the byte.
                self.read(1);
                self.deliver_to_server(self.to_server.len() - 1);
                self.server_dispatch();
                while !self.to_client.is_empty() {
                    self.deliver_to_client(0);
                }
            }
        }
    }

    fn server_dispatch(&mut self) {
        while let Some(segment) = self.server.dispatch(self.now) {
            assert_eq!(segment.1.len(), 0, "the server never writes");
            self.to_client.push(segment);
        }
    }

    /// Deliver in-flight segment `index` of the client→server wire.
    fn deliver_to_server(&mut self, index: usize) {
        let (repr, payload) = self.to_server.remove(index);
        let before = self.server.stats.bytes_received;
        self.server.process(self.now, SERVER, CLIENT, &repr, &payload);
        let gained = (self.server.stats.bytes_received - before) as usize;
        for &byte in &self.stream[self.accepted..self.accepted + gained] {
            self.rx_model.push_back(byte);
        }
        self.accepted += gained;
    }

    /// Deliver in-flight segment `index` of the server→client wire; the
    /// model releases, byte by byte, what its ACK number covers.
    fn deliver_to_client(&mut self, index: usize) {
        let (repr, payload) = self.to_client.remove(index);
        self.client.process(self.now, CLIENT, SERVER, &repr, &payload);
        let ack = repr.ack_number.expect("every server segment acks");
        let covered = (ack - (self.iss + 1)).max(0) as usize;
        while self.acked < covered {
            assert_eq!(self.tx_model.pop_front(), Some(self.stream[self.acked]));
            self.acked += 1;
        }
    }

    /// The application reads into a buffer of `len` bytes.
    fn read(&mut self, len: usize) {
        let mut buf = vec![0u8; len];
        let n = self.server.recv_slice(&mut buf).expect("stream still open");
        assert_eq!(n, len.min(self.rx_model.len()));
        for &byte in &buf[..n] {
            assert_eq!(Some(byte), self.rx_model.pop_front());
        }
        self.read.extend_from_slice(&buf[..n]);
    }

    fn check(&self, case: u64, step: usize) {
        let at = format!("case {case} step {step}");
        assert_eq!(self.client.send_room(), self.tx_capacity - self.tx_model.len(), "{at}");
        assert_eq!(self.client.send_queue_len(), self.tx_model.len(), "{at}");
        assert_eq!(self.server.recv_queue_len(), self.rx_model.len(), "{at}");
        assert_eq!(self.read, self.stream[..self.read.len()], "{at}");
    }
}

#[test]
fn socket_rings_match_a_per_byte_model() {
    for case in 0..192 {
        let mut rng = Rng::for_case("socket_rings", case);
        let mut h = RingHarness::new(&mut rng);
        for step in 0..600 {
            match rng.below(12) {
                0 | 1 => {
                    let len = [0, 1, rng.below(40), rng.below(400)][rng.below(4) as usize];
                    h.write(len as usize);
                }
                2 | 3 => h.client_dispatch(rng.chance(0.5)),
                4 => h.server_dispatch(),
                5 | 6 if !h.to_server.is_empty() => {
                    // In order, or any segment in flight (reordering).
                    let index = if rng.chance(0.7) { 0 } else { rng.below(h.to_server.len() as u64) };
                    h.deliver_to_server(index as usize);
                }
                7 if !h.to_client.is_empty() => {
                    let index = if rng.chance(0.7) { 0 } else { rng.below(h.to_client.len() as u64) };
                    h.deliver_to_client(index as usize);
                }
                8 if !h.to_server.is_empty() => {
                    // Loss, or duplication.
                    let index = rng.below(h.to_server.len() as u64) as usize;
                    if rng.chance(0.7) {
                        h.to_server.remove(index);
                    } else {
                        let copy = h.to_server[index].clone();
                        h.to_server.push(copy);
                    }
                }
                9 if !h.to_client.is_empty() => {
                    h.to_client.remove(rng.below(h.to_client.len() as u64) as usize);
                }
                10 => {
                    let len = [0, 1, rng.below(16), rng.below(500)][rng.below(4) as usize];
                    h.read(len as usize);
                }
                // Time passes: delayed ACKs, probes and (past the RTO)
                // a rewind to `snd_una` and repacketized retransmission.
                _ => h.now += Duration::from_millis(rng.below(700)),
            }
            h.check(case, step);
        }
        // A clean network from here on: everything written arrives.
        for round in 0.. {
            assert!(round < 2_000, "case {case} did not drain");
            h.write(usize::MAX);
            h.client_dispatch(round % 2 == 0);
            while !h.to_server.is_empty() {
                h.deliver_to_server(0);
            }
            h.read(97);
            h.server_dispatch();
            while !h.to_client.is_empty() {
                h.deliver_to_client(0);
            }
            h.check(case, 600 + round);
            if h.read.len() == h.stream.len() && h.client.all_acked() {
                break;
            }
            h.now += Duration::from_millis(250);
        }
        assert_eq!(h.read, h.stream, "case {case}");
    }
}
