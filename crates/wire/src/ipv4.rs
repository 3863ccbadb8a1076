//! The Internet Protocol, version 4 (RFC 791).
//!
//! The IP datagram is the paper's "basic architectural feature": the
//! self-contained unit that can be forwarded by a gateway holding *no*
//! conversation state. Every design decision visible in this header —
//! fragmentation fields for the "variety of networks" goal, the ToS octet
//! for "types of service", TTL for loop survival, and the absence of any
//! connection identifier — is an artifact of the goal ordering Clark
//! describes.

use crate::checksum;
use crate::field::Field;
use crate::types::{IpProtocol, Ipv4Address, Tos};
use crate::{Error, Result};

/// Length of the options-free IPv4 header emitted by this stack.
pub const HEADER_LEN: usize = 20;

/// Every network in the catenet must carry a datagram of at least this
/// size without fragmentation (RFC 791's 68-octet rule, rounded to the
/// classic 576-byte reassembly guarantee is a host matter; links enforce
/// this link-layer minimum).
pub const MIN_MTU: usize = 68;

mod fields {
    use super::Field;
    pub const VER_IHL: usize = 0;
    pub const TOS: usize = 1;
    pub const LENGTH: Field = 2..4;
    pub const IDENT: Field = 4..6;
    pub const FLG_OFF: Field = 6..8;
    pub const TTL: usize = 8;
    pub const PROTOCOL: usize = 9;
    pub const CHECKSUM: Field = 10..12;
    pub const SRC_ADDR: Field = 12..16;
    pub const DST_ADDR: Field = 16..20;
}

/// The IPv4 header flags.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flags {
    /// Don't Fragment: gateways must drop (and signal) rather than fragment.
    pub dont_frag: bool,
    /// More Fragments: further fragments of this datagram follow.
    pub more_frags: bool,
}

/// The tuple that identifies fragments of one original datagram
/// (RFC 791 §3.2): source, destination, protocol, identification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    /// Source address of the original datagram.
    pub src_addr: Ipv4Address,
    /// Destination address of the original datagram.
    pub dst_addr: Ipv4Address,
    /// Upper-layer protocol.
    pub protocol: IpProtocol,
    /// The identification field.
    pub ident: u16,
}

/// A read/write view of an IPv4 packet.
#[derive(Debug, Clone)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wrap a buffer without validating it.
    pub const fn new_unchecked(buffer: T) -> Packet<T> {
        Packet { buffer }
    }

    /// Wrap a buffer and validate lengths and version.
    pub fn new_checked(buffer: T) -> Result<Packet<T>> {
        let packet = Self::new_unchecked(buffer);
        packet.check_len()?;
        Ok(packet)
    }

    /// Validate structural invariants: buffer covers the header, the IHL
    /// is sane, and the total length fits within the buffer.
    pub fn check_len(&self) -> Result<()> {
        let data = self.buffer.as_ref();
        if data.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        if self.version() != 4 {
            return Err(Error::Version);
        }
        let header_len = usize::from(self.header_len());
        if header_len < HEADER_LEN || header_len > data.len() {
            return Err(Error::Malformed);
        }
        let total_len = usize::from(self.total_len());
        if total_len < header_len || total_len > data.len() {
            return Err(Error::Malformed);
        }
        Ok(())
    }

    /// Recover the wrapped buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// The IP version field.
    pub fn version(&self) -> u8 {
        self.buffer.as_ref()[fields::VER_IHL] >> 4
    }

    /// The header length in bytes (IHL × 4).
    pub fn header_len(&self) -> u8 {
        (self.buffer.as_ref()[fields::VER_IHL] & 0x0f) * 4
    }

    /// The Type-of-Service octet.
    pub fn tos(&self) -> Tos {
        Tos(self.buffer.as_ref()[fields::TOS])
    }

    /// The total datagram length (header + payload) in bytes.
    pub fn total_len(&self) -> u16 {
        let raw = &self.buffer.as_ref()[fields::LENGTH];
        u16::from_be_bytes([raw[0], raw[1]])
    }

    /// The identification field.
    pub fn ident(&self) -> u16 {
        let raw = &self.buffer.as_ref()[fields::IDENT];
        u16::from_be_bytes([raw[0], raw[1]])
    }

    /// The flags.
    pub fn flags(&self) -> Flags {
        let raw = self.buffer.as_ref()[fields::FLG_OFF.start];
        Flags {
            dont_frag: raw & 0x40 != 0,
            more_frags: raw & 0x20 != 0,
        }
    }

    /// The fragment offset in bytes (the wire field is in 8-byte units).
    pub fn frag_offset(&self) -> u16 {
        let raw = &self.buffer.as_ref()[fields::FLG_OFF];
        (u16::from_be_bytes([raw[0], raw[1]]) & 0x1fff) << 3
    }

    /// Whether this packet is a fragment (offset ≠ 0 or more-fragments set).
    pub fn is_fragment(&self) -> bool {
        self.frag_offset() != 0 || self.flags().more_frags
    }

    /// The time-to-live field.
    pub fn hop_limit(&self) -> u8 {
        self.buffer.as_ref()[fields::TTL]
    }

    /// The upper-layer protocol.
    pub fn protocol(&self) -> IpProtocol {
        IpProtocol::from(self.buffer.as_ref()[fields::PROTOCOL])
    }

    /// The header checksum field.
    pub fn header_checksum(&self) -> u16 {
        let raw = &self.buffer.as_ref()[fields::CHECKSUM];
        u16::from_be_bytes([raw[0], raw[1]])
    }

    /// The source address.
    pub fn src_addr(&self) -> Ipv4Address {
        Ipv4Address::from_bytes(&self.buffer.as_ref()[fields::SRC_ADDR])
    }

    /// The destination address.
    pub fn dst_addr(&self) -> Ipv4Address {
        Ipv4Address::from_bytes(&self.buffer.as_ref()[fields::DST_ADDR])
    }

    /// The reassembly key of this packet.
    pub fn key(&self) -> Key {
        Key {
            src_addr: self.src_addr(),
            dst_addr: self.dst_addr(),
            protocol: self.protocol(),
            ident: self.ident(),
        }
    }

    /// Verify the header checksum.
    pub fn verify_checksum(&self) -> bool {
        let header = &self.buffer.as_ref()[..usize::from(self.header_len())];
        checksum::verify(header)
    }

    /// The payload, bounded by `total_len`.
    pub fn payload(&self) -> &[u8] {
        let header_len = usize::from(self.header_len());
        let total_len = usize::from(self.total_len());
        &self.buffer.as_ref()[header_len..total_len]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    /// Set the version and header-length fields for an options-free header.
    pub fn set_version_and_header_len(&mut self) {
        self.buffer.as_mut()[fields::VER_IHL] = 0x45;
    }

    /// Set the Type-of-Service octet.
    pub fn set_tos(&mut self, tos: Tos) {
        self.buffer.as_mut()[fields::TOS] = tos.0;
    }

    /// Set the total datagram length.
    pub fn set_total_len(&mut self, value: u16) {
        self.buffer.as_mut()[fields::LENGTH].copy_from_slice(&value.to_be_bytes());
    }

    /// Set the identification field.
    pub fn set_ident(&mut self, value: u16) {
        self.buffer.as_mut()[fields::IDENT].copy_from_slice(&value.to_be_bytes());
    }

    /// Set the flags and fragment offset (offset given in bytes; must be a
    /// multiple of 8).
    pub fn set_flags_and_frag_offset(&mut self, flags: Flags, offset_bytes: u16) {
        debug_assert_eq!(offset_bytes % 8, 0, "fragment offsets are 8-byte aligned");
        let mut raw = offset_bytes >> 3;
        if flags.dont_frag {
            raw |= 0x4000;
        }
        if flags.more_frags {
            raw |= 0x2000;
        }
        self.buffer.as_mut()[fields::FLG_OFF].copy_from_slice(&raw.to_be_bytes());
    }

    /// Set the time-to-live.
    pub fn set_hop_limit(&mut self, value: u8) {
        self.buffer.as_mut()[fields::TTL] = value;
    }

    /// Set the upper-layer protocol.
    pub fn set_protocol(&mut self, value: IpProtocol) {
        self.buffer.as_mut()[fields::PROTOCOL] = value.into();
    }

    /// Set the header checksum field.
    pub fn set_header_checksum(&mut self, value: u16) {
        self.buffer.as_mut()[fields::CHECKSUM].copy_from_slice(&value.to_be_bytes());
    }

    /// Set the source address.
    pub fn set_src_addr(&mut self, addr: Ipv4Address) {
        self.buffer.as_mut()[fields::SRC_ADDR].copy_from_slice(addr.as_bytes());
    }

    /// Set the destination address.
    pub fn set_dst_addr(&mut self, addr: Ipv4Address) {
        self.buffer.as_mut()[fields::DST_ADDR].copy_from_slice(addr.as_bytes());
    }

    /// Compute and store the header checksum.
    pub fn fill_checksum(&mut self) {
        self.set_header_checksum(0);
        let header_len = usize::from(self.header_len());
        let csum = checksum::checksum(&self.buffer.as_ref()[..header_len]);
        self.set_header_checksum(csum);
    }

    /// Decrement the TTL in place and refresh the checksum, as a gateway
    /// does when forwarding. Returns the new TTL.
    ///
    /// The checksum is adjusted with the RFC 1624 incremental update over
    /// the single 16-bit word that changed (`TTL | protocol`) instead of
    /// re-summing the whole header — O(1) per hop. For a header whose
    /// stored checksum verifies, the result is bit-identical to
    /// [`fill_checksum`](Self::fill_checksum) (`tests/ttl_incremental.rs`
    /// proves this over random headers); an already-expired TTL is left
    /// untouched.
    pub fn decrement_hop_limit(&mut self) -> u8 {
        let ttl = self.hop_limit();
        if ttl == 0 {
            return 0;
        }
        let data = self.buffer.as_mut();
        let old = u16::from_be_bytes([data[fields::TTL], data[fields::PROTOCOL]]);
        let new = old - 0x0100;
        data[fields::TTL] = ttl - 1;
        let refreshed = checksum::update(self.header_checksum(), old, new);
        self.set_header_checksum(refreshed);
        ttl - 1
    }

    /// Mutable access to the payload (bounded by `total_len`).
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let header_len = usize::from(self.header_len());
        let total_len = usize::from(self.total_len());
        &mut self.buffer.as_mut()[header_len..total_len]
    }
}

/// High-level representation of an (options-free) IPv4 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    /// Source address.
    pub src_addr: Ipv4Address,
    /// Destination address.
    pub dst_addr: Ipv4Address,
    /// Upper-layer protocol.
    pub protocol: IpProtocol,
    /// Payload length in bytes (excluding the IP header).
    pub payload_len: usize,
    /// Time-to-live.
    pub hop_limit: u8,
    /// Type of service.
    pub tos: Tos,
}

impl Repr {
    /// Parse and validate a non-fragment header into its representation.
    ///
    /// Fragments carry the same header but their payload is only a piece
    /// of the upper-layer datagram, so they are handled by the reassembler
    /// (in `catenet-ip`) rather than parsed directly to a `Repr`.
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Result<Repr> {
        packet.check_len()?;
        if !packet.verify_checksum() {
            return Err(Error::Checksum);
        }
        Ok(Repr {
            src_addr: packet.src_addr(),
            dst_addr: packet.dst_addr(),
            protocol: packet.protocol(),
            payload_len: usize::from(packet.total_len()) - usize::from(packet.header_len()),
            hop_limit: packet.hop_limit(),
            tos: packet.tos(),
        })
    }

    /// The length of the emitted header.
    pub const fn buffer_len(&self) -> usize {
        HEADER_LEN
    }

    /// The total datagram length this header describes.
    pub fn total_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    /// Emit the representation (ident 0, no fragmentation, checksum not
    /// yet filled — call [`Packet::fill_checksum`] after writing payload).
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut Packet<T>) {
        packet.set_version_and_header_len();
        packet.set_tos(self.tos);
        packet.set_total_len(self.total_len() as u16);
        packet.set_ident(0);
        packet.set_flags_and_frag_offset(Flags::default(), 0);
        packet.set_hop_limit(self.hop_limit);
        packet.set_protocol(self.protocol);
        packet.set_header_checksum(0);
        packet.set_src_addr(self.src_addr);
        packet.set_dst_addr(self.dst_addr);
    }
}

/// An IPv4 CIDR block: an address plus prefix length.
/// Ordered (address, then prefix length) so CIDR-keyed maps iterate
/// deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cidr {
    address: Ipv4Address,
    prefix_len: u8,
}

impl Cidr {
    /// Construct a CIDR block. Panics if `prefix_len > 32`.
    pub fn new(address: Ipv4Address, prefix_len: u8) -> Cidr {
        assert!(prefix_len <= 32, "prefix length out of range");
        Cidr {
            address,
            prefix_len,
        }
    }

    /// The address portion.
    pub fn address(&self) -> Ipv4Address {
        self.address
    }

    /// The prefix length.
    pub fn prefix_len(&self) -> u8 {
        self.prefix_len
    }

    /// The netmask as an address.
    pub fn netmask(&self) -> Ipv4Address {
        Ipv4Address::from_u32(self.mask())
    }

    fn mask(&self) -> u32 {
        if self.prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - u32::from(self.prefix_len))
        }
    }

    /// The network address (host bits cleared).
    pub fn network(&self) -> Cidr {
        Cidr {
            address: Ipv4Address::from_u32(self.address.to_u32() & self.mask()),
            prefix_len: self.prefix_len,
        }
    }

    /// The directed-broadcast address of this network.
    pub fn broadcast(&self) -> Ipv4Address {
        Ipv4Address::from_u32(self.address.to_u32() | !self.mask())
    }

    /// Whether `addr` falls within this block.
    pub fn contains(&self, addr: Ipv4Address) -> bool {
        (addr.to_u32() & self.mask()) == (self.address.to_u32() & self.mask())
    }

    /// Whether `other` is entirely within this block.
    pub fn contains_subnet(&self, other: &Cidr) -> bool {
        self.prefix_len <= other.prefix_len && self.contains(other.address)
    }
}

impl core::fmt::Display for Cidr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}/{}", self.address, self.prefix_len)
    }
}

impl core::str::FromStr for Cidr {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self> {
        let (addr, len) = s.split_once('/').ok_or(Error::Malformed)?;
        let address: Ipv4Address = addr.parse()?;
        let prefix_len: u8 = len.parse().map_err(|_| Error::Malformed)?;
        if prefix_len > 32 {
            return Err(Error::Malformed);
        }
        Ok(Cidr::new(address, prefix_len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_repr() -> Repr {
        Repr {
            src_addr: Ipv4Address::new(10, 0, 0, 1),
            dst_addr: Ipv4Address::new(10, 0, 0, 2),
            protocol: IpProtocol::Udp,
            payload_len: 8,
            hop_limit: 64,
            tos: Tos::default(),
        }
    }

    fn sample_packet() -> Vec<u8> {
        let repr = sample_repr();
        let mut buf = vec![0u8; repr.total_len()];
        let mut packet = Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut packet);
        packet.payload_mut().copy_from_slice(b"datagram");
        packet.fill_checksum();
        buf
    }

    #[test]
    fn emit_parse_round_trip() {
        let buf = sample_packet();
        let packet = Packet::new_checked(&buf[..]).unwrap();
        assert!(packet.verify_checksum());
        assert_eq!(Repr::parse(&packet).unwrap(), sample_repr());
        assert_eq!(packet.payload(), b"datagram");
        assert!(!packet.is_fragment());
    }

    #[test]
    fn checksum_corruption_detected() {
        let mut buf = sample_packet();
        buf[12] ^= 0x01; // flip a source-address bit
        let packet = Packet::new_checked(&buf[..]).unwrap();
        assert!(!packet.verify_checksum());
        assert_eq!(Repr::parse(&packet).unwrap_err(), Error::Checksum);
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = sample_packet();
        buf[0] = 0x65; // version 6
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::Version);
    }

    #[test]
    fn short_ihl_rejected() {
        let mut buf = sample_packet();
        buf[0] = 0x44; // IHL = 16 bytes < 20
        assert_eq!(
            Packet::new_checked(&buf[..]).unwrap_err(),
            Error::Malformed
        );
    }

    #[test]
    fn total_len_beyond_buffer_rejected() {
        let mut buf = sample_packet();
        buf[2] = 0xff;
        buf[3] = 0xff;
        assert_eq!(
            Packet::new_checked(&buf[..]).unwrap_err(),
            Error::Malformed
        );
    }

    #[test]
    fn payload_bounded_by_total_len() {
        // Extra trailing bytes (link-layer padding) must not leak into payload.
        let mut buf = sample_packet();
        buf.extend_from_slice(&[0xEE; 6]);
        let packet = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(packet.payload(), b"datagram");
    }

    #[test]
    fn fragment_fields_round_trip() {
        let mut buf = sample_packet();
        {
            let mut packet = Packet::new_unchecked(&mut buf[..]);
            packet.set_ident(0xbeef);
            packet.set_flags_and_frag_offset(
                Flags {
                    dont_frag: false,
                    more_frags: true,
                },
                1480,
            );
            packet.fill_checksum();
        }
        let packet = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(packet.ident(), 0xbeef);
        assert_eq!(packet.frag_offset(), 1480);
        assert!(packet.flags().more_frags);
        assert!(!packet.flags().dont_frag);
        assert!(packet.is_fragment());
        assert!(packet.verify_checksum());
    }

    #[test]
    fn ttl_decrement_refreshes_checksum() {
        let mut buf = sample_packet();
        let mut packet = Packet::new_unchecked(&mut buf[..]);
        let ttl_before = packet.hop_limit();
        let ttl_after = packet.decrement_hop_limit();
        assert_eq!(ttl_after, ttl_before - 1);
        assert!(packet.verify_checksum());
    }

    #[test]
    fn ttl_decrement_saturates_at_zero() {
        let mut buf = sample_packet();
        let mut packet = Packet::new_unchecked(&mut buf[..]);
        packet.set_hop_limit(0);
        assert_eq!(packet.decrement_hop_limit(), 0);
    }

    #[test]
    fn reassembly_key() {
        let buf = sample_packet();
        let packet = Packet::new_checked(&buf[..]).unwrap();
        let key = packet.key();
        assert_eq!(key.src_addr, Ipv4Address::new(10, 0, 0, 1));
        assert_eq!(key.protocol, IpProtocol::Udp);
    }

    #[test]
    fn cidr_basics() {
        let cidr = Cidr::new(Ipv4Address::new(192, 168, 1, 17), 24);
        assert_eq!(cidr.netmask(), Ipv4Address::new(255, 255, 255, 0));
        assert_eq!(
            cidr.network().address(),
            Ipv4Address::new(192, 168, 1, 0)
        );
        assert_eq!(cidr.broadcast(), Ipv4Address::new(192, 168, 1, 255));
        assert!(cidr.contains(Ipv4Address::new(192, 168, 1, 200)));
        assert!(!cidr.contains(Ipv4Address::new(192, 168, 2, 1)));
    }

    #[test]
    fn cidr_zero_prefix_contains_everything() {
        let default = Cidr::new(Ipv4Address::UNSPECIFIED, 0);
        assert!(default.contains(Ipv4Address::new(1, 2, 3, 4)));
        assert!(default.contains(Ipv4Address::BROADCAST));
    }

    #[test]
    fn cidr_subnet_containment() {
        let outer = Cidr::new(Ipv4Address::new(10, 0, 0, 0), 8);
        let inner = Cidr::new(Ipv4Address::new(10, 1, 0, 0), 16);
        assert!(outer.contains_subnet(&inner));
        assert!(!inner.contains_subnet(&outer));
    }

    #[test]
    fn cidr_parse_display() {
        let cidr: Cidr = "10.2.0.0/16".parse().unwrap();
        assert_eq!(cidr.to_string(), "10.2.0.0/16");
        assert!("10.2.0.0/33".parse::<Cidr>().is_err());
        assert!("10.2.0.0".parse::<Cidr>().is_err());
    }

    #[test]
    #[should_panic(expected = "prefix length")]
    fn cidr_bad_prefix_panics() {
        let _ = Cidr::new(Ipv4Address::UNSPECIFIED, 40);
    }
}
