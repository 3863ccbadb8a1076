//! Property-based round-trip tests for every wire format: whatever a
//! `Repr` can describe, `emit` followed by `parse` must return
//! unchanged, and checksums must verify. These are the invariants every
//! higher layer silently assumes. Inputs are drawn from the simulator's
//! seeded `Rng`, so every case is reproducible from its case number.

use catenet_sim::Rng;
use catenet_wire::*;

fn bytes(rng: &mut Rng, lo: usize, hi: usize) -> Vec<u8> {
    let len = rng.range(lo as u64, hi as u64) as usize;
    (0..len).map(|_| rng.below(256) as u8).collect()
}

fn addr(rng: &mut Rng) -> Ipv4Address {
    Ipv4Address::from([
        rng.below(256) as u8,
        rng.below(256) as u8,
        rng.below(256) as u8,
        rng.below(256) as u8,
    ])
}

fn hw_addr(rng: &mut Rng) -> EthernetAddress {
    EthernetAddress([
        rng.below(256) as u8,
        rng.below(256) as u8,
        rng.below(256) as u8,
        rng.below(256) as u8,
        rng.below(256) as u8,
        rng.below(256) as u8,
    ])
}

fn tcp_control(rng: &mut Rng) -> TcpControl {
    match rng.below(5) {
        0 => TcpControl::None,
        1 => TcpControl::Psh,
        2 => TcpControl::Syn,
        3 => TcpControl::Fin,
        _ => TcpControl::Rst,
    }
}

#[test]
fn ethernet_round_trip() {
    for case in 0..256 {
        let mut rng = Rng::for_case("ethernet_rt", case);
        let repr = EthernetRepr {
            src_addr: hw_addr(&mut rng),
            dst_addr: hw_addr(&mut rng),
            ethertype: EtherType::from(rng.below(65536) as u16),
        };
        let payload = bytes(&mut rng, 0, 128);
        let mut buf = vec![0u8; repr.buffer_len() + payload.len()];
        let mut frame = EthernetFrame::new_unchecked(&mut buf[..]);
        repr.emit(&mut frame);
        frame.payload_mut().copy_from_slice(&payload);
        let parsed = EthernetFrame::new_checked(&buf[..]).expect("valid");
        assert_eq!(EthernetRepr::parse(&parsed).expect("parses"), repr);
        assert_eq!(parsed.payload(), &payload[..]);
    }
}

#[test]
fn arp_round_trip() {
    for case in 0..256 {
        let mut rng = Rng::for_case("arp_rt", case);
        let repr = ArpRepr {
            operation: ArpOperation::from(rng.below(65536) as u16),
            source_hardware_addr: hw_addr(&mut rng),
            source_protocol_addr: addr(&mut rng),
            target_hardware_addr: hw_addr(&mut rng),
            target_protocol_addr: addr(&mut rng),
        };
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut ArpPacket::new_unchecked(&mut buf[..]));
        let parsed =
            ArpRepr::parse(&ArpPacket::new_checked(&buf[..]).expect("valid")).expect("parses");
        assert_eq!(parsed, repr);
    }
}

#[test]
fn tcp_round_trip() {
    for case in 0..256 {
        let mut rng = Rng::for_case("tcp_rt", case);
        let control = tcp_control(&mut rng);
        let mss = if rng.chance(0.5) {
            Some(rng.range(64, 65536) as u16)
        } else {
            None
        };
        let payload = bytes(&mut rng, 0, 256);
        let ack = if rng.chance(0.5) {
            Some(TcpSeqNumber(rng.next_u32()))
        } else {
            None
        };
        // MSS only rides on SYN segments; SYN carries no payload here.
        let (control, mss, payload) = if control == TcpControl::Syn {
            (control, mss, Vec::new())
        } else {
            (control, None, payload)
        };
        let src = addr(&mut rng);
        let dst = addr(&mut rng);
        let repr = TcpRepr {
            src_port: rng.range(1, 65536) as u16,
            dst_port: rng.range(1, 65536) as u16,
            control,
            seq_number: TcpSeqNumber(rng.next_u32()),
            ack_number: ack,
            window_len: rng.below(65536) as u16,
            max_seg_size: mss,
            payload_crc: None,
            payload_len: payload.len(),
        };
        let mut buf = vec![0u8; repr.buffer_len()];
        let mut packet = TcpPacket::new_unchecked(&mut buf[..]);
        repr.emit(&mut packet);
        packet.payload_mut().copy_from_slice(&payload);
        packet.fill_checksum(src, dst);
        let parsed_packet = TcpPacket::new_checked(&buf[..]).expect("valid");
        assert!(parsed_packet.verify_checksum(src, dst));
        let parsed = TcpRepr::parse(&parsed_packet, src, dst).expect("parses");
        assert_eq!(parsed, repr);
        assert_eq!(parsed_packet.payload(), &payload[..]);
        assert_eq!(parsed_packet.segment_len(), payload.len() + repr.control.len());
    }
}

#[test]
fn tcp_single_bit_header_corruption_detected() {
    // Exhaustive over all 160 single-bit flips in the fixed header,
    // across several payloads.
    for case in 0..8 {
        let mut rng = Rng::for_case("tcp_corruption", case);
        let payload = bytes(&mut rng, 1, 64);
        let src = Ipv4Address::new(10, 0, 0, 1);
        let dst = Ipv4Address::new(10, 0, 0, 2);
        let repr = TcpRepr {
            src_port: 1000,
            dst_port: 2000,
            control: TcpControl::Psh,
            seq_number: TcpSeqNumber(42),
            ack_number: Some(TcpSeqNumber(7)),
            window_len: 512,
            max_seg_size: None,
            payload_crc: None,
            payload_len: payload.len(),
        };
        let mut clean = vec![0u8; repr.buffer_len()];
        let mut packet = TcpPacket::new_unchecked(&mut clean[..]);
        repr.emit(&mut packet);
        packet.payload_mut().copy_from_slice(&payload);
        packet.fill_checksum(src, dst);
        for byte in 0..20 {
            for bit in 0..8 {
                let mut buf = clean.clone();
                buf[byte] ^= 1 << bit;
                let accepted = match TcpPacket::new_checked(&buf[..]) {
                    Ok(p) => p.verify_checksum(src, dst),
                    Err(_) => false,
                };
                assert!(!accepted, "corrupted TCP header accepted (byte {byte} bit {bit})");
            }
        }
    }
}

#[test]
fn icmp_echo_round_trip() {
    for case in 0..256 {
        let mut rng = Rng::for_case("icmp_rt", case);
        let ident = rng.below(65536) as u16;
        let seq_no = rng.below(65536) as u16;
        let message = if rng.chance(0.5) {
            Icmpv4Message::EchoRequest { ident, seq_no }
        } else {
            Icmpv4Message::EchoReply { ident, seq_no }
        };
        let payload = bytes(&mut rng, 0, 128);
        let repr = Icmpv4Repr {
            message,
            payload_len: payload.len(),
        };
        let mut buf = vec![0u8; repr.buffer_len()];
        let mut packet = Icmpv4Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut packet);
        packet.payload_mut().copy_from_slice(&payload);
        packet.fill_checksum();
        let parsed_packet = Icmpv4Packet::new_checked(&buf[..]).expect("valid");
        assert!(parsed_packet.verify_checksum());
        assert_eq!(Icmpv4Repr::parse(&parsed_packet).expect("parses"), repr);
        assert_eq!(parsed_packet.payload(), &payload[..]);
    }
}

#[test]
fn seq_number_add_sub_inverse() {
    for case in 0..1024 {
        let mut rng = Rng::for_case("seq_inverse", case);
        let x = TcpSeqNumber(rng.next_u32());
        let delta = rng.below(0x7fff_ffff) as usize;
        assert_eq!((x + delta) - delta, x);
        assert_eq!((x + delta) - x, delta as i32);
    }
}

#[test]
fn cidr_network_is_idempotent_and_contains_itself() {
    for case in 0..512 {
        let mut rng = Rng::for_case("cidr_idempotent", case);
        let a = addr(&mut rng);
        let len = rng.below(33) as u8;
        let cidr = Ipv4Cidr::new(a, len);
        let network = cidr.network();
        assert_eq!(network.network(), network);
        assert!(cidr.contains(a));
        assert!(network.contains(a));
        assert!(cidr.contains(cidr.broadcast()) || len == 32);
        // The netmask has exactly `len` leading ones.
        assert_eq!(cidr.netmask().to_u32().count_ones(), u32::from(len));
    }
}

#[test]
fn tos_round_trips_service_class() {
    for value in 0u16..=255 {
        let tos = Tos(value as u8);
        // service_class is a pure function of the preference bits.
        let reconstructed = Tos::new(
            tos.precedence(),
            tos.low_delay(),
            tos.high_throughput(),
            tos.high_reliability(),
        );
        assert_eq!(reconstructed.service_class(), tos.service_class());
        assert_eq!(reconstructed.precedence(), tos.precedence());
    }
}
