//! # catenet-ip
//!
//! The internet layer: the machinery that realizes Clark's "variety of
//! networks" goal. It contains
//!
//! - [`table::RoutingTable`] — longest-prefix-match route lookup, generic
//!   over the next-hop type so both hosts (static routes) and the
//!   distance-vector protocol (metric-bearing routes) reuse it;
//! - [`frag`] — IPv4 fragmentation and reassembly, the mechanism that
//!   lets a datagram sized for one network cross another with a smaller
//!   MTU;
//! - [`icmp`] — whether to answer a datagram with an ICMP error
//!   (destination unreachable, time exceeded, source quench) and how
//!   much of it to quote, by the RFC 1122 rules about when *not* to;
//!   the sender builds the error like any datagram it originates;
//! - [`builder`] — a whole-datagram constructor for tests and
//!   benchmarks (a node prepends its IPv4 header in place instead).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod builder;
pub mod frag;
pub mod icmp;
pub mod table;

pub use builder::build_ipv4;
pub use frag::{fragment, fragment_with, FragError, Piece, Reassembler};
pub use table::RoutingTable;
