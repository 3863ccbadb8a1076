//! E6 — The cost of attaching a host (paper §8, goal 6).
//!
//! **Claim.** "The goal of host attachment ... a host \[must\] implement
//! [TCP/IP] ... \[and\] poor implementations hurt the network as well as
//! the host." The architecture deliberately pushes work to the endpoint
//! (checksums, reassembly, retransmission state) — this experiment
//! measures what that endpoint work costs per packet and per
//! connection, which is the number a 1988 host implementor cared about.
//!
//! **Experiment.** The stack's per-packet and per-connection operations,
//! each counted by what it makes a host do: fragmenting a 1,480-byte
//! datagram for a 576-byte MTU and reassembling it, and a whole TCP
//! session — handshake, 10 kB, close — over a loopback socket pair,
//! segment by segment on each end. Every count is a pure function of
//! the code. What each operation costs in time is `perf/`'s to measure:
//! `wire.ns_per_parse`, `wire.checksum_ns_per_kb` and
//! `tcp.ns_per_segment` price parsing, checksumming and a segment on a
//! workload's own traffic.

use crate::table::Table;
use catenet_ip::{build_ipv4, fragment, Reassembler};
use catenet_sim::Instant;
use catenet_tcp::{Endpoint, Socket, SocketConfig, State};
use catenet_wire::{IpProtocol, Ipv4Address, Ipv4Repr, Tos};

/// IPv4 header bytes in front of every segment the session sends.
const IP_HEADER: usize = 20;

/// A reference datagram carrying `payload` bytes.
pub fn sample_datagram(payload: usize) -> Vec<u8> {
    build_ipv4(
        &Ipv4Repr {
            src_addr: Ipv4Address::new(10, 0, 0, 1),
            dst_addr: Ipv4Address::new(10, 9, 0, 2),
            protocol: IpProtocol::Udp,
            payload_len: payload,
            hop_limit: 64,
            tos: Tos::default(),
        },
        42,
        false,
        &vec![0xA5u8; payload],
    )
}

/// What fragmenting one datagram and reassembling it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fragmented {
    /// Fragments made.
    pub fragments: usize,
    /// Bytes of all fragments together, headers included.
    pub wire_bytes: usize,
    /// Length of the datagram reassembled from them.
    pub reassembled: usize,
}

/// Fragment to MTU 576 and fully reassemble.
pub fn op_fragment_reassemble(datagram: &[u8]) -> Fragmented {
    let frags = fragment(datagram, 576).expect("fragmentable");
    let mut reasm = Reassembler::new();
    let mut reassembled = 0;
    for frag in &frags {
        if let Ok(Some(whole)) = reasm.push(frag, Instant::ZERO) {
            reassembled = whole.len();
        }
    }
    Fragmented {
        fragments: frags.len(),
        wire_bytes: frags.iter().map(Vec::len).sum(),
        reassembled,
    }
}

/// What one TCP session did, end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Session {
    /// Payload bytes the server read.
    pub received: u64,
    /// Segments the client sent: SYN, data, ACKs, FIN.
    pub client_segments: u64,
    /// Segments the server sent: SYN-ACK, ACKs, FIN.
    pub server_segments: u64,
    /// IPv4 bytes of every segment either end sent, headers included.
    pub wire_bytes: u64,
}

/// A complete TCP handshake, `bytes` of transfer and a close from both
/// ends over loopback.
pub fn op_tcp_session(bytes: usize) -> Session {
    let a = Ipv4Address::new(127, 0, 0, 1);
    let b = Ipv4Address::new(127, 0, 0, 2);
    let mut client = Socket::new(SocketConfig {
        initial_seq: 1,
        mss: 1460,
        delayed_ack: None,
        congestion: catenet_tcp::CongestionAlgo::None,
        tx_capacity: bytes.max(4096),
        ..SocketConfig::default()
    });
    let mut server = Socket::new(SocketConfig {
        initial_seq: 2,
        mss: 1460,
        delayed_ack: None,
        rx_capacity: bytes.max(4096),
        ..SocketConfig::default()
    });
    server.listen(Endpoint::new(b, 80)).expect("fresh");
    client
        .connect(Endpoint::new(a, 4000), Endpoint::new(b, 80), Instant::ZERO)
        .expect("fresh");
    let payload = vec![0x7Eu8; bytes];
    let mut written = 0;
    let mut session = Session {
        received: 0,
        client_segments: 0,
        server_segments: 0,
        wire_bytes: 0,
    };
    let mut buf = vec![0u8; 8192];
    let mut now = Instant::ZERO;
    for _ in 0..10_000 {
        if written < bytes {
            written += client.send_slice(&payload[written..]).unwrap_or(0);
        }
        if written == bytes && client.state() == State::Established {
            client.close();
        }
        let mut progressed = false;
        while let Some((repr, data)) = client.dispatch(now) {
            progressed = true;
            session.client_segments += 1;
            session.wire_bytes += (IP_HEADER + repr.header_len() + data.len()) as u64;
            server.process(now, b, a, &repr, &data);
        }
        while let Ok(n) = server.recv_slice(&mut buf) {
            if n == 0 {
                break;
            }
            session.received += n as u64;
        }
        if server.state() == State::CloseWait {
            server.close();
        }
        while let Some((repr, data)) = server.dispatch(now) {
            progressed = true;
            session.server_segments += 1;
            session.wire_bytes += (IP_HEADER + repr.header_len() + data.len()) as u64;
            client.process(now, a, b, &repr, &data);
        }
        if !client.is_active() && !server.is_active() {
            break;
        }
        if !progressed {
            now += catenet_sim::Duration::from_millis(10);
        }
    }
    session
}

/// The table: what each operation made the host send and keep.
pub fn default_table(_seeds: &[u64]) -> Table {
    let large = sample_datagram(1460);
    let mut table = Table::new(
        "E6 — Host attachment cost: what each operation makes the host do",
        &["operation", "count", "detail"],
    );
    let frag = op_fragment_reassemble(&large);
    table.row(vec![
        format!("fragment+reassemble ({}→576 MTU)", large.len()),
        format!("{} fragments, {} B reassembled", frag.fragments, frag.reassembled),
        format!(
            "{} wire B: {:.3} wire B per datagram B",
            frag.wire_bytes,
            frag.wire_bytes as f64 / large.len() as f64
        ),
    ]);
    for bytes in [1_024, 10_240] {
        let session = op_tcp_session(bytes);
        table.row(vec![
            format!("TCP session: SYN→{bytes} B→close"),
            format!(
                "client {} segments, server {}",
                session.client_segments, session.server_segments
            ),
            format!(
                "{} wire B for {} payload B: {:.3} wire B per payload B",
                session.wire_bytes,
                session.received,
                session.wire_bytes as f64 / session.received as f64
            ),
        ]);
    }
    table.note(
        "Paper's claim: the endpoint bears the cost of the missing in-network services \
         ('the host [must] implement ...'). Expected shape: a datagram too big for the \
         next network costs the host a fragment, and a header, per 552 B of its \
         payload (576 B less the header, in 8-byte units); a session is a SYN each way, \
         the data segments with the client's FIN on the last, one cumulative ACK with \
         the server's FIN, and the client's last ACK, so headers weigh most on short \
         sessions. Every cell is a count. What the operations cost in time is perf/'s \
         to measure: wire.ns_per_parse, wire.checksum_ns_per_kb and tcp.ns_per_segment.",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragment_reassemble_round_trips() {
        let dgram = sample_datagram(1460);
        let frag = op_fragment_reassemble(&dgram);
        assert_eq!(frag.reassembled, dgram.len());
        assert_eq!(frag.fragments, 3);
        assert_eq!(frag.wire_bytes, dgram.len() + 2 * 20, "two more IPv4 headers");
    }

    #[test]
    fn tcp_session_transfers_everything_and_closes() {
        for bytes in [10_240, 100] {
            let session = op_tcp_session(bytes);
            assert_eq!(session.received, bytes as u64);
            // The SYN, the data with the FIN on its last segment, and
            // the ACK of the server's FIN.
            let data = bytes.div_ceil(1460) as u64;
            assert_eq!(session.client_segments, data + 2, "{session:?}");
            // The SYN-ACK, then one ACK for everything, FIN set.
            assert_eq!(session.server_segments, 2, "{session:?}");
        }
    }

    #[test]
    fn default_table_renders_the_same_twice() {
        assert_eq!(default_table(&[]).to_string(), default_table(&[]).to_string());
    }
}
