//! E6 — The cost of attaching a host (paper §8, goal 6).
//!
//! **Claim.** "The goal of host attachment ... a host \[must\] implement
//! [TCP/IP] ... \[and\] poor implementations hurt the network as well as
//! the host." The architecture deliberately pushes work to the endpoint
//! (checksums, reassembly, retransmission state) — this experiment
//! measures what that endpoint work costs per packet and per
//! connection, which is the number a 1988 host implementor cared about.
//!
//! **Experiment.** Microbenchmarks of the stack's per-packet operations
//! (parse/validate, emit, checksum, fragment/reassemble) and the
//! per-connection handshake, run over a loopback socket pair.
//! `cargo bench -p catenet-bench --bench stack_micro` times each for a
//! fixed budget; the `reproduce` binary prints quick wall-clock
//! estimates of the same operations.

use crate::table::Table;
use catenet_ip::{build_ipv4, fragment, Reassembler};
use catenet_sim::Instant;
use catenet_tcp::{Endpoint, Socket, SocketConfig};
use catenet_wire::{checksum, IpProtocol, Ipv4Address, Ipv4Packet, Ipv4Repr, Tos};

/// A reference 1460-byte-payload datagram.
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

/// Parse + validate a datagram (the receive-path hot operation).
pub fn op_parse(datagram: &[u8]) -> bool {
    match Ipv4Packet::new_checked(datagram) {
        Ok(packet) => packet.verify_checksum(),
        Err(_) => false,
    }
}

/// Internet checksum over `data`.
pub fn op_checksum(data: &[u8]) -> u16 {
    checksum::checksum(data)
}

/// Fragment to MTU 576 and fully reassemble.
pub fn op_fragment_reassemble(datagram: &[u8]) -> usize {
    let frags = fragment(datagram, 576).expect("fragmentable");
    let mut reasm = Reassembler::new();
    let mut out = 0;
    for frag in &frags {
        if let Ok(Some(whole)) = reasm.push(frag, Instant::ZERO) {
            out = whole.len();
        }
    }
    out
}

/// A complete TCP handshake + 10 kB transfer + close over loopback.
pub fn op_tcp_session(bytes: usize) -> u64 {
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
    let mut received = 0u64;
    let mut buf = vec![0u8; 8192];
    let mut now = Instant::ZERO;
    for _ in 0..10_000 {
        if written < bytes {
            written += client.send_slice(&payload[written..]).unwrap_or(0);
        }
        let mut progressed = false;
        while let Some((repr, data)) = client.dispatch(now) {
            progressed = true;
            server.process(now, b, a, &repr, &data);
        }
        while let Ok(n) = server.recv_slice(&mut buf) {
            if n == 0 {
                break;
            }
            received += n as u64;
        }
        while let Some((repr, data)) = server.dispatch(now) {
            progressed = true;
            client.process(now, a, b, &repr, &data);
        }
        if received >= bytes as u64 {
            break;
        }
        if !progressed {
            now += catenet_sim::Duration::from_millis(10);
        }
    }
    received
}

fn time_per_op<F: FnMut() -> R, R>(mut f: F, iters: u32) -> f64 {
    let start = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// Quick wall-clock table (`benches/stack_micro.rs` times the same
/// operations for longer).
pub fn default_table(_seeds: &[u64]) -> Table {
    let small = sample_datagram(64);
    let large = sample_datagram(1460);
    let mut table = Table::new(
        "E6 — Host attachment cost: per-operation processing time (wall clock, this machine)",
        &["operation", "ns/op", "equiv. pkts/sec"],
    );
    let mut add = |name: &str, ns: f64| {
        table.row(vec![
            name.into(),
            format!("{ns:.0}"),
            format!("{:.2e}", 1e9 / ns),
        ]);
    };
    add("IPv4 parse+verify (64 B)", time_per_op(|| op_parse(&small), 200_000));
    add("IPv4 parse+verify (1460 B)", time_per_op(|| op_parse(&large), 100_000));
    add("Internet checksum (1460 B)", time_per_op(|| op_checksum(&large), 100_000));
    add(
        "fragment+reassemble (1480→576 MTU)",
        time_per_op(|| op_fragment_reassemble(&large), 20_000),
    );
    add(
        "TCP session: SYN→10 kB→close (whole session)",
        time_per_op(|| op_tcp_session(10_240), 2_000),
    );
    table.note(
        "Paper's claim: the endpoint bears the cost of the missing in-network services \
         ('the host [must] implement ...'). These are the per-packet/per-connection \
         costs a 1988 implementor paid; `cargo bench -p catenet-bench --bench \
         stack_micro` times each over a fixed wall-clock budget.",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_valid_rejects_corrupt() {
        let dgram = sample_datagram(256);
        assert!(op_parse(&dgram));
        let mut bad = dgram.clone();
        bad[9] ^= 0xff;
        assert!(!op_parse(&bad));
    }

    #[test]
    fn fragment_reassemble_round_trips() {
        let dgram = sample_datagram(1460);
        assert_eq!(op_fragment_reassemble(&dgram), dgram.len());
    }

    #[test]
    fn tcp_session_transfers_everything() {
        assert_eq!(op_tcp_session(10_240), 10_240);
        assert_eq!(op_tcp_session(100), 100);
    }
}
