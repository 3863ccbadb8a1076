//! Property-based tests (seeded deterministic loops) on the stack's core
//! invariants: wire-format round-trips, fragmentation/reassembly,
//! sequence-number arithmetic, the routing table against a naive model,
//! and TCP delivering exactly the written byte stream under arbitrary
//! loss.
//!
//! Each property draws its inputs from `catenet::sim::Rng`, so every
//! case is reproducible from its printed case number alone.

use catenet::ip::{build_ipv4, fragment, Reassembler, RoutingTable};
use catenet::sim::{Duration, Instant, Rng};
use catenet::tcp::{Endpoint, Socket, SocketConfig};
use catenet::wire::{
    checksum, IpProtocol, Ipv4Address, Ipv4Cidr, Ipv4Packet, Ipv4Repr, TcpSeqNumber, Tos,
    UdpPacket, UdpRepr,
};

fn bytes(rng: &mut Rng, lo: usize, hi: usize) -> Vec<u8> {
    let len = rng.range(lo as u64, hi as u64) as usize;
    (0..len).map(|_| rng.below(256) as u8).collect()
}

fn addr(rng: &mut Rng) -> Ipv4Address {
    let a = rng.range(1, 224) as u8;
    let b = rng.below(256) as u8;
    let c = rng.below(256) as u8;
    let d = rng.range(1, 255) as u8;
    let mut addr = Ipv4Address::new(a, b, c, d);
    if addr.is_loopback() || !addr.is_unicast() {
        addr = Ipv4Address::new(10, b, c, d);
    }
    addr
}

#[test]
fn checksum_verifies_after_fill() {
    // checksum(data || checksum-field) verifies — provided the checksum
    // lands 16-bit aligned, as it does in every real protocol header
    // (odd-length payloads are conceptually zero-padded *after* the
    // checksum field, not before it).
    let check = |data: &[u8]| {
        let mut buf = data.to_vec();
        if !buf.len().is_multiple_of(2) {
            buf.push(0);
        }
        let csum = checksum::checksum(&buf);
        buf.extend_from_slice(&csum.to_be_bytes());
        assert!(checksum::verify(&buf), "failed for {data:?}");
    };
    // Regression case once found by random search: a mostly-zero buffer
    // whose sum is close to the 0xffff fixed point.
    let mut regression = vec![0u8; 108];
    regression[9] = 1;
    regression.extend_from_slice(&[
        27, 252, 179, 233, 116, 7, 250, 62, 222, 94, 165, 223, 161, 242, 159, 201, 154, 154, 244,
        251, 242, 190, 200, 125, 166, 139, 238, 25, 50, 89, 224,
    ]);
    check(&regression);
    check(&[]);
    check(&[0xff; 64]);
    for case in 0..256 {
        let mut rng = Rng::for_case("checksum_fill", case);
        check(&bytes(&mut rng, 0, 256));
    }
}

#[test]
fn checksum_incremental_combine() {
    // combine(sum(a), sum(b)) == checksum(a || b) when a.len() is even
    // (one's-complement sums are position-independent only at 16-bit
    // granularity).
    for case in 0..256 {
        let mut rng = Rng::for_case("checksum_combine", case);
        let mut a = bytes(&mut rng, 0, 128);
        if !a.len().is_multiple_of(2) {
            a.pop();
        }
        let b = bytes(&mut rng, 0, 128);
        let whole: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(
            checksum::combine(&[checksum::sum(&a), checksum::sum(&b)]),
            checksum::checksum(&whole)
        );
    }
}

#[test]
fn ipv4_round_trip() {
    for case in 0..256 {
        let mut rng = Rng::for_case("ipv4_round_trip", case);
        let payload = bytes(&mut rng, 0, 512);
        let repr = Ipv4Repr {
            src_addr: addr(&mut rng),
            dst_addr: addr(&mut rng),
            protocol: IpProtocol::from(rng.below(256) as u8),
            payload_len: payload.len(),
            hop_limit: rng.range(1, 256) as u8,
            tos: Tos(rng.below(256) as u8),
        };
        let ident = rng.below(65536) as u16;
        let buf = build_ipv4(&repr, ident, false, &payload);
        let packet = Ipv4Packet::new_checked(&buf[..]).expect("valid");
        assert!(packet.verify_checksum());
        assert_eq!(Ipv4Repr::parse(&packet).expect("parses"), repr);
        assert_eq!(packet.payload(), &payload[..]);
        assert_eq!(packet.ident(), ident);
    }
}

#[test]
fn ipv4_single_bit_corruption_never_parses_cleanly() {
    // Any single-bit flip in the HEADER must be caught by checksum or
    // structural validation. Exhaustive over all 160 header bit
    // positions, across several payloads.
    for case in 0..8 {
        let mut rng = Rng::for_case("ipv4_corruption", case);
        let payload = bytes(&mut rng, 8, 128);
        let repr = Ipv4Repr {
            src_addr: Ipv4Address::new(10, 0, 0, 1),
            dst_addr: Ipv4Address::new(10, 0, 0, 2),
            protocol: IpProtocol::Udp,
            payload_len: payload.len(),
            hop_limit: 64,
            tos: Tos::default(),
        };
        let clean = build_ipv4(&repr, 7, false, &payload);
        for byte in 0..20 {
            for bit in 0..8 {
                let mut buf = clean.clone();
                buf[byte] ^= 1 << bit;
                let accepted = match Ipv4Packet::new_checked(&buf[..]) {
                    Ok(packet) => packet.verify_checksum(),
                    Err(_) => false,
                };
                assert!(!accepted, "corrupted header accepted (byte {byte} bit {bit})");
            }
        }
    }
}

#[test]
fn udp_round_trip_with_pseudo_header() {
    for case in 0..256 {
        let mut rng = Rng::for_case("udp_round_trip", case);
        let src = addr(&mut rng);
        let dst = addr(&mut rng);
        let payload = bytes(&mut rng, 0, 256);
        let repr = UdpRepr {
            src_port: rng.range(1, 65536) as u16,
            dst_port: rng.range(1, 65536) as u16,
            payload_len: payload.len(),
        };
        let mut buf = vec![0u8; repr.buffer_len()];
        let mut packet = UdpPacket::new_unchecked(&mut buf[..]);
        repr.emit(&mut packet);
        packet.payload_mut().copy_from_slice(&payload);
        packet.fill_checksum(src, dst);
        let parsed = UdpPacket::new_checked(&buf[..]).expect("valid");
        assert!(parsed.verify_checksum(src, dst));
        assert_eq!(UdpRepr::parse(&parsed, src, dst).expect("parses"), repr);
        assert_eq!(parsed.payload(), &payload[..]);
    }
}

fn check_fragmentation_case(payload_len: usize, mtu: usize, shuffle_seed: u64) {
    let payload: Vec<u8> = (0..payload_len).map(|i| (i % 251) as u8).collect();
    let repr = Ipv4Repr {
        src_addr: Ipv4Address::new(10, 0, 0, 1),
        dst_addr: Ipv4Address::new(10, 0, 0, 2),
        protocol: IpProtocol::Udp,
        payload_len,
        hop_limit: 32,
        tos: Tos::default(),
    };
    let datagram = build_ipv4(&repr, 99, false, &payload);
    let mut frags = match fragment(&datagram, mtu) {
        Ok(frags) => frags,
        Err(_) => return, // MTU too small to fragment into: fine
    };
    if frags.len() == 1 {
        // Fits without fragmentation: the stack never hands such a
        // datagram to the reassembler (only `is_fragment()` packets go
        // there), so neither does this test.
        assert_eq!(&frags[0], &datagram);
        return;
    }
    // Deterministic pseudo-shuffle.
    let mut state = shuffle_seed | 1;
    for i in (1..frags.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let j = (state >> 33) as usize % (i + 1);
        frags.swap(i, j);
    }
    let mut reasm = Reassembler::new();
    let mut whole = None;
    for frag in &frags {
        assert!(frag.len() <= mtu);
        if let Some(done) = reasm.push(frag, Instant::ZERO).expect("consistent") {
            whole = Some(done);
        }
    }
    assert_eq!(whole.expect("complete"), datagram);
}

#[test]
fn fragmentation_reassembles_in_any_order() {
    // Regression case once found by random search: a 1-byte payload at
    // the minimum MTU.
    check_fragmentation_case(1, 68, 0);
    for case in 0..256 {
        let mut rng = Rng::for_case("fragmentation", case);
        let payload_len = rng.range(1, 4000) as usize;
        let mtu = rng.range(68, 1500) as usize;
        let shuffle_seed = rng.next_u32() as u64 | (u64::from(rng.next_u32()) << 32);
        check_fragmentation_case(payload_len, mtu, shuffle_seed);
    }
}

#[test]
fn seq_number_ordering_antisymmetric() {
    for case in 0..1024 {
        let mut rng = Rng::for_case("seq_ordering", case);
        let a = rng.next_u32();
        let delta = rng.range(1, 0x7fff_ffff) as u32;
        let x = TcpSeqNumber(a);
        let y = x + delta as usize;
        assert!(y > x);
        assert!(x < y);
        assert_eq!(y - x, delta as i32);
    }
}

#[test]
fn routing_table_matches_naive_model() {
    for case in 0..128 {
        let mut rng = Rng::for_case("routing_model", case);
        let mut table = RoutingTable::new();
        let mut model: Vec<(Ipv4Cidr, u16)> = Vec::new();
        let routes = rng.range(1, 24);
        for _ in 0..routes {
            let len = rng.below(33) as u8;
            let addr = rng.next_u32();
            let value = rng.below(65536) as u16;
            let cidr = Ipv4Cidr::new(Ipv4Address::from_u32(addr), len).network();
            table.insert(cidr, value);
            model.retain(|(existing, _)| *existing != cidr);
            model.push((cidr, value));
        }
        let queries = rng.range(1, 32);
        for _ in 0..queries {
            let q = Ipv4Address::from_u32(rng.next_u32());
            let expected = model
                .iter()
                .filter(|(cidr, _)| cidr.contains(q))
                .max_by_key(|(cidr, _)| cidr.prefix_len())
                .map(|(_, v)| *v);
            assert_eq!(table.lookup(q).copied(), expected);
        }
    }
}

/// Drive a TCP socket pair through a deterministic loss pattern and
/// verify the received byte stream equals the written one exactly.
fn tcp_stream_integrity(writes: &[Vec<u8>], loss_mask: u64) -> bool {
    let a = Ipv4Address::new(10, 0, 0, 1);
    let b = Ipv4Address::new(10, 0, 0, 2);
    let mut client = Socket::new(SocketConfig {
        initial_seq: 11,
        mss: 200,
        delayed_ack: None,
        ..SocketConfig::default()
    });
    let mut server = Socket::new(SocketConfig {
        initial_seq: 22,
        mss: 200,
        delayed_ack: None,
        ..SocketConfig::default()
    });
    server.listen(Endpoint::new(b, 80)).expect("fresh");
    client
        .connect(Endpoint::new(a, 5000), Endpoint::new(b, 80), Instant::ZERO)
        .expect("fresh");
    let total: usize = writes.iter().map(|w| w.len()).sum();
    let expected: Vec<u8> = writes.iter().flatten().copied().collect();
    let mut received = Vec::new();
    let mut cursor = 0usize;
    let mut drop_counter = 0u32;
    let mut now = Instant::ZERO;
    let mut buf = [0u8; 1024];
    for _round in 0..3000 {
        while cursor < writes.len() {
            match client.send_slice(&writes[cursor]) {
                Ok(n) if n == writes[cursor].len() => cursor += 1,
                _ => break,
            }
        }
        let mut progressed = false;
        while let Some((repr, payload)) = client.dispatch(now) {
            progressed = true;
            drop_counter = drop_counter.wrapping_add(1);
            if loss_mask >> (drop_counter % 64) & 1 == 0 {
                server.process(now, b, a, &repr, &payload);
            }
        }
        while let Ok(n) = server.recv_slice(&mut buf) {
            if n == 0 {
                break;
            }
            received.extend_from_slice(&buf[..n]);
        }
        while let Some((repr, payload)) = server.dispatch(now) {
            progressed = true;
            drop_counter = drop_counter.wrapping_add(1);
            if loss_mask >> (drop_counter % 64) & 1 == 0 {
                client.process(now, a, b, &repr, &payload);
            }
        }
        if received.len() >= total && cursor == writes.len() {
            break;
        }
        if !progressed {
            now += Duration::from_millis(200);
        }
    }
    received == expected
}

#[test]
fn tcp_delivers_exactly_the_written_stream() {
    for case in 0..48 {
        let mut rng = Rng::for_case("tcp_stream", case);
        let count = rng.range(1, 12) as usize;
        let writes: Vec<Vec<u8>> = (0..count).map(|_| bytes(&mut rng, 1, 300)).collect();
        // An all-ones mask would drop everything forever; keep at least
        // half the positions clean.
        let raw = rng.next_u32() as u64 | (u64::from(rng.next_u32()) << 32);
        let mask = raw & 0x5555_5555_5555_5555;
        assert!(
            tcp_stream_integrity(&writes, mask),
            "stream corrupted or stalled (case {case})"
        );
    }
}
