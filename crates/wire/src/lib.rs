//! # catenet-wire
//!
//! Zero-copy wire formats for the DARPA Internet protocol suite, in the
//! idiom of `smoltcp`: each protocol has
//!
//! - a **view type** (`Packet<T: AsRef<[u8]>>`) that wraps a byte buffer and
//!   provides field accessors without copying, plus setters when
//!   `T: AsMut<[u8]>`, and
//! - a **representation** (`Repr`) — a plain Rust struct holding the parsed,
//!   validated, high-level content — with `parse` (view → repr) and `emit`
//!   (repr → view) round-trips.
//!
//! Supported formats: Ethernet II, ARP, IPv4 (including fragmentation
//! fields and 1988-era Type-of-Service), ICMPv4, UDP and TCP (with MSS
//! option). These are exactly the formats whose design rationale Clark's
//! 1988 SIGCOMM paper explains.
//!
//! ## Example
//!
//! ```
//! use catenet_wire::{Ipv4Address, Ipv4Packet, Ipv4Repr, IpProtocol};
//!
//! let repr = Ipv4Repr {
//!     src_addr: Ipv4Address::new(10, 0, 0, 1),
//!     dst_addr: Ipv4Address::new(10, 0, 0, 2),
//!     protocol: IpProtocol::Udp,
//!     payload_len: 4,
//!     hop_limit: 64,
//!     tos: Default::default(),
//! };
//! let mut buf = vec![0u8; repr.buffer_len() + 4];
//! let mut packet = Ipv4Packet::new_unchecked(&mut buf[..]);
//! repr.emit(&mut packet);
//! packet.payload_mut().copy_from_slice(b"ping");
//! packet.fill_checksum();
//!
//! let parsed = Ipv4Packet::new_checked(&buf[..]).unwrap();
//! assert_eq!(Ipv4Repr::parse(&parsed).unwrap(), repr);
//! assert_eq!(parsed.payload(), b"ping");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod arp;
pub mod checksum;
pub mod crc32c;
pub mod ethernet;
pub mod icmpv4;
pub mod ipv4;
pub mod tcp;
pub mod types;
pub mod udp;

pub use arp::{Operation as ArpOperation, Packet as ArpPacket, Repr as ArpRepr};
pub use crc32c::{crc32c, crc32c_parts};
pub use ethernet::{EtherType, Frame as EthernetFrame, Repr as EthernetRepr};
pub use icmpv4::{
    DstUnreachable, Message as Icmpv4Message, Packet as Icmpv4Packet, Repr as Icmpv4Repr,
    TimeExceeded,
};
pub use ipv4::{
    Cidr as Ipv4Cidr, Flags as Ipv4Flags, Key as Ipv4FragKey, Packet as Ipv4Packet,
    Repr as Ipv4Repr, HEADER_LEN as IPV4_HEADER_LEN, MIN_MTU as IPV4_MIN_MTU,
};
pub use tcp::{
    Control as TcpControl, Packet as TcpPacket, Repr as TcpRepr, SeqNumber as TcpSeqNumber,
    HEADER_LEN as TCP_HEADER_LEN,
};
pub use types::{EthernetAddress, IpProtocol, Ipv4Address, ServiceClass, Tos};
pub use udp::{Packet as UdpPacket, Repr as UdpRepr, HEADER_LEN as UDP_HEADER_LEN};

/// An error in parsing a wire format.
///
/// The catenet stack, like the DARPA internet it models, is liberal in what
/// it accepts: a parse error means the datagram is dropped silently (or with
/// an ICMP where the standard requires one), never that the node fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The buffer is shorter than the smallest valid encoding.
    Truncated,
    /// A checksum (header or pseudo-header) did not verify.
    Checksum,
    /// A field holds a value that is structurally impossible
    /// (e.g. an IPv4 IHL shorter than the fixed header).
    Malformed,
    /// A version field names a protocol version we do not speak.
    Version,
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Error::Truncated => write!(f, "truncated packet"),
            Error::Checksum => write!(f, "checksum mismatch"),
            Error::Malformed => write!(f, "malformed field"),
            Error::Version => write!(f, "unsupported protocol version"),
        }
    }
}

impl std::error::Error for Error {}

/// Result alias for wire-format operations.
pub type Result<T> = core::result::Result<T, Error>;

pub(crate) mod field {
    //! Byte ranges of protocol header fields, the smoltcp way.
    pub type Field = core::ops::Range<usize>;
    pub type Rest = core::ops::RangeFrom<usize>;
}
