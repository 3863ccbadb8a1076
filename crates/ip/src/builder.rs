//! A constructor for whole IPv4 datagrams, for tests and benchmarks:
//! a node builds each datagram it sends in a pooled buffer and
//! prepends its header in place.

use catenet_wire::{Ipv4Flags, Ipv4Packet, Ipv4Repr};

/// Build a complete IPv4 datagram (header + payload) as an owned buffer.
///
/// `ident` seeds the identification field (needed if the datagram may be
/// fragmented downstream); `dont_frag` sets the DF flag.
pub fn build_ipv4(repr: &Ipv4Repr, ident: u16, dont_frag: bool, payload: &[u8]) -> Vec<u8> {
    assert_eq!(repr.payload_len, payload.len(), "repr/payload length mismatch");
    let mut buffer = vec![0u8; repr.total_len()];
    let mut packet = Ipv4Packet::new_unchecked(&mut buffer[..]);
    repr.emit(&mut packet);
    packet.set_ident(ident);
    packet.set_flags_and_frag_offset(
        Ipv4Flags {
            dont_frag,
            more_frags: false,
        },
        0,
    );
    packet.payload_mut().copy_from_slice(payload);
    packet.fill_checksum();
    buffer
}

#[cfg(test)]
mod tests {
    use super::*;
    use catenet_wire::{IpProtocol, Ipv4Address, Tos};

    fn repr(payload_len: usize) -> Ipv4Repr {
        Ipv4Repr {
            src_addr: Ipv4Address::new(10, 0, 0, 1),
            dst_addr: Ipv4Address::new(10, 0, 0, 2),
            protocol: IpProtocol::Udp,
            payload_len,
            hop_limit: 32,
            tos: Tos::default(),
        }
    }

    #[test]
    fn builds_valid_datagram() {
        let buffer = build_ipv4(&repr(5), 42, false, b"hello");
        let packet = Ipv4Packet::new_checked(&buffer[..]).unwrap();
        assert!(packet.verify_checksum());
        assert_eq!(packet.ident(), 42);
        assert_eq!(packet.payload(), b"hello");
        assert!(!packet.flags().dont_frag);
        assert!(!packet.is_fragment());
    }

    #[test]
    fn df_flag_set_when_requested() {
        let buffer = build_ipv4(&repr(0), 1, true, b"");
        let packet = Ipv4Packet::new_checked(&buffer[..]).unwrap();
        assert!(packet.flags().dont_frag);
        assert!(packet.verify_checksum());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let _ = build_ipv4(&repr(3), 0, false, b"four");
    }
}
