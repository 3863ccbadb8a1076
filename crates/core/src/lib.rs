//! # catenet-core
//!
//! The catenet stack and internetwork: hosts, stateless gateways, links,
//! sockets and applications, assembled exactly along the lines of Clark's
//! 1988 architecture — plus the *rejected* designs as baselines, so every
//! architectural claim in the paper can be measured rather than asserted.
//!
//! ## The architecture (what the paper prescribes)
//!
//! - [`node::Node`] — a host or gateway. A **gateway** holds only
//!   topology state (its routing table) and a reassembly-free forwarding
//!   path; it can crash and reboot without any conversation noticing
//!   (fate-sharing, goal 1). A **host** owns every bit of conversation
//!   state: TCP sockets, reassembly buffers, RTT estimators.
//! - [`network::Network`] — the event loop wiring nodes together over
//!   [`catenet_sim::Link`]s; supports node crash/reboot, link failure,
//!   and partition, which the survivability experiments script.
//! - [`socket::UdpSocket`] and re-exported [`catenet_tcp::Socket`] — the
//!   two "types of service" (goal 2).
//! - [`app`] — workload applications: bulk transfer (file transfer, the
//!   TCP archetype), constant-bit-rate sources (packet voice, the
//!   archetype that *forced* UDP to exist), echo and ping.
//!
//! ## The baselines (what the paper argues against)
//!
//! - [`baseline::vc`] — virtual-circuit gateways that pin per-connection
//!   state in the network (the rejected alternative to fate-sharing).
//! - [`baseline::linkarq`] — hop-by-hop reliable links (the rejected
//!   alternative to end-to-end retransmission, §7).
//! - [`baseline::pktseq`] — a packet-sequenced reliable transport (the
//!   rejected alternative to TCP's byte sequencing).
//!
//! ## The extensions (what the paper proposes for the future)
//!
//! - [`catenet_accounting::table::FlowTable`] — per-flow *soft state*
//!   in gateways, reconstructible from live traffic after a crash
//!   (§10's "flows").
//! - [`catenet_accounting::ledger::Ledger`] — per-flow packet/byte
//!   accounting (goal 7), used to measure how well datagram accounting
//!   approximates truth; [`catenet_accounting::report`] carries it
//!   across administrative boundaries.
//!
//! ## The gauntlet (how the claims are checked)
//!
//! - [`invariant`] — end-to-end invariant checkers (stream integrity,
//!   progress watchdog, reconvergence bounds) that the chaos experiments
//!   run against [`catenet_sim::FaultPlan`] schedules.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod app;
pub mod arp;
pub mod baseline;
mod byzantine;
mod events;
mod fixed_point;
pub mod iface;
pub mod invariant;
mod lane;
pub mod network;
pub mod node;
pub mod partition;
pub mod pool;
pub mod socket;

pub use app::{shared, Application, Shared};
pub use catenet_sim::{ShardKind, ShardStats};
pub use catenet_tcp::{Endpoint, Socket as TcpSocket, SocketConfig as TcpConfig};
pub use fixed_point::FixedPoint;
pub use invariant::{ProgressWatchdog, ReconvergenceBound, StreamIntegrity, Violation};
pub use network::{LinkId, Network, NodeId};
pub use node::{Node, NodeRole, NodeStats};
pub use pool::{PacketBuf, PacketPool, PoolStats};
pub use socket::UdpSocket;
