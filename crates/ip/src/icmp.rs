//! Whether to answer a datagram with an ICMP error, and how much of it
//! to quote: the RFC 1122 suppression rules that keep the error channel
//! from amplifying failures — never answer an ICMP error with another
//! error, never answer a non-initial fragment, never answer
//! broadcast/multicast traffic. The sender builds the datagram itself,
//! the way it builds every other one.

use catenet_wire::{Icmpv4Message, Icmpv4Packet, Icmpv4Repr, IpProtocol, Ipv4Packet};

/// How many bytes of the offending datagram an error message quotes:
/// the IP header plus 8 bytes of upper-layer header (RFC 792).
pub const QUOTE_EXTRA: usize = 8;

/// Decide whether an ICMP error may be sent about `original`. If so,
/// the returned header carries `message`, and its `payload_len` says how
/// much to quote: the error's payload is `original[..payload_len]`, and
/// it goes back to `original`'s source.
///
/// Returns `None` when the suppression rules forbid a reply.
pub fn icmp_error_for(original: &[u8], message: Icmpv4Message) -> Option<Icmpv4Repr> {
    debug_assert!(message.is_error(), "not an error message");
    let packet = Ipv4Packet::new_checked(original).ok()?;

    // Rule: no errors about non-initial fragments.
    if packet.frag_offset() != 0 {
        return None;
    }
    // Rule: no errors about broadcast/multicast/unspecified traffic.
    let src = packet.src_addr();
    let dst = packet.dst_addr();
    if !src.is_unicast() || dst.is_broadcast() || dst.is_multicast() {
        return None;
    }
    // Rule: no errors about ICMP errors.
    if packet.protocol() == IpProtocol::Icmp {
        if let Ok(inner) = Icmpv4Packet::new_checked(packet.payload()) {
            let is_echo = matches!(inner.msg_type(), 0 | 8);
            if !is_echo {
                return None;
            }
        } else {
            return None;
        }
    }

    let header_len = usize::from(packet.header_len());
    Some(Icmpv4Repr {
        message,
        payload_len: (header_len + QUOTE_EXTRA).min(original.len()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_ipv4;
    use catenet_wire::{DstUnreachable, Ipv4Address, Ipv4Flags, Ipv4Repr, TimeExceeded, Tos};

    const SRC: Ipv4Address = Ipv4Address::new(10, 0, 0, 1);
    const DST: Ipv4Address = Ipv4Address::new(10, 9, 0, 1);
    const GW: Ipv4Address = Ipv4Address::new(10, 0, 0, 254);

    fn datagram(
        src: Ipv4Address,
        dst: Ipv4Address,
        protocol: IpProtocol,
        payload: &[u8],
    ) -> Vec<u8> {
        build_ipv4(
            &Ipv4Repr {
                src_addr: src,
                dst_addr: dst,
                protocol,
                payload_len: payload.len(),
                hop_limit: 1,
                tos: Tos::default(),
            },
            77,
            false,
            payload,
        )
    }

    fn udp_datagram(src: Ipv4Address, dst: Ipv4Address) -> Vec<u8> {
        datagram(src, dst, IpProtocol::Udp, &[0xAB; 16])
    }

    /// The ICMP message `repr` describes, quoting `quote`.
    fn icmp_message(repr: &Icmpv4Repr, quote: &[u8]) -> Vec<u8> {
        let mut buf = vec![0u8; repr.buffer_len()];
        let mut icmp = Icmpv4Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut icmp);
        icmp.payload_mut().copy_from_slice(quote);
        icmp.fill_checksum();
        buf
    }

    fn allowed(original: &[u8], message: Icmpv4Message) -> bool {
        icmp_error_for(original, message).is_some()
    }

    const TTL_EXPIRED: Icmpv4Message = Icmpv4Message::TimeExceeded(TimeExceeded::TtlExpired);
    const PORT_UNREACHABLE: Icmpv4Message =
        Icmpv4Message::DstUnreachable(DstUnreachable::PortUnreachable);
    const HOST_UNREACHABLE: Icmpv4Message =
        Icmpv4Message::DstUnreachable(DstUnreachable::HostUnreachable);

    #[test]
    fn error_quotes_header_plus_eight() {
        let original = udp_datagram(SRC, DST);
        let repr = icmp_error_for(&original, TTL_EXPIRED).unwrap();
        assert_eq!(repr.message, TTL_EXPIRED);
        assert_eq!(repr.payload_len, 28); // 20-byte header + 8
    }

    #[test]
    fn quote_truncated_to_original_length() {
        // A 4-byte-payload datagram quotes only what exists.
        let original = datagram(SRC, DST, IpProtocol::Udp, &[1, 2, 3, 4]);
        let repr = icmp_error_for(&original, HOST_UNREACHABLE).unwrap();
        assert_eq!(repr.payload_len, 24);
    }

    #[test]
    fn no_error_about_non_initial_fragment() {
        let mut original = udp_datagram(SRC, DST);
        {
            let mut packet = Ipv4Packet::new_unchecked(&mut original[..]);
            packet.set_flags_and_frag_offset(
                Ipv4Flags {
                    dont_frag: false,
                    more_frags: true,
                },
                8,
            );
            packet.fill_checksum();
        }
        assert!(!allowed(&original, TTL_EXPIRED));
    }

    #[test]
    fn no_error_about_broadcast_or_bad_source() {
        let broadcast = udp_datagram(SRC, Ipv4Address::BROADCAST);
        assert!(!allowed(&broadcast, PORT_UNREACHABLE));
        let multicast = udp_datagram(SRC, Ipv4Address::new(224, 0, 0, 9));
        assert!(!allowed(&multicast, PORT_UNREACHABLE));
        let from_nowhere = udp_datagram(Ipv4Address::UNSPECIFIED, DST);
        assert!(!allowed(&from_nowhere, PORT_UNREACHABLE));
    }

    #[test]
    fn no_error_about_icmp_error() {
        let original = udp_datagram(SRC, DST);
        let repr = icmp_error_for(&original, TTL_EXPIRED).unwrap();
        let quote = &original[..repr.payload_len];
        let first_error = datagram(GW, SRC, IpProtocol::Icmp, &icmp_message(&repr, quote));
        // A gateway trying to report a problem with the error itself must
        // stay silent.
        assert!(!allowed(&first_error, HOST_UNREACHABLE));
    }

    #[test]
    fn error_about_echo_request_is_allowed() {
        // Echo requests are ICMP but not errors; reporting on them is legal
        // (this is what makes `ping` diagnose unreachable hosts).
        let echo_repr = Icmpv4Repr {
            message: Icmpv4Message::EchoRequest { ident: 1, seq_no: 1 },
            payload_len: 8,
        };
        let echo = icmp_message(&echo_repr, b"pingdata");
        let original = datagram(SRC, DST, IpProtocol::Icmp, &echo);
        assert!(allowed(&original, HOST_UNREACHABLE));
    }
}
