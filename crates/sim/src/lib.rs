//! # catenet-sim
//!
//! The deterministic discrete-event substrate under the catenet stack.
//!
//! Clark's 1988 paper describes an architecture evaluated on the real DARPA
//! internet — ARPANET trunks, SATNET satellite hops, packet radio, and
//! early LANs. None of that hardware is available, so this crate simulates
//! the only properties the architecture is allowed to assume of a network
//! (the paper's "variety of networks" goal makes the list *deliberately*
//! short): a network can carry a datagram of reasonable minimum size, with
//! some bandwidth, some latency, and no promise of reliability or order.
//!
//! Everything here is deterministic: virtual time is integer microseconds,
//! events are totally ordered (time, then insertion sequence), and all
//! randomness derives from one seed via [`Rng`]. A simulation replayed
//! with the same seed is identical bit for bit.
//!
//! Provided pieces:
//!
//! - [`time::Instant`] and [`time::Duration`] — virtual time.
//! - [`event::Scheduler`] — the event queue, generic over the event type.
//! - [`rng::Rng`] — seeded, forkable randomness.
//! - [`hash::fnv1a`] — the workspace's one content digest (FNV-1a 64).
//! - [`link::Link`] — a unidirectional channel with bandwidth, delay,
//!   loss, corruption, jitter and a drop-tail queue; [`link::LinkClass`]
//!   presets model the 1988 network classes.
//! - [`fault::FaultPlan`] — a deterministic, seed-driven schedule of
//!   fault events (flaps, crashes, partitions, bursts) for the
//!   survivability gauntlet.
//! - [`shard::ShardKind`] — execution modes for the event loop: the
//!   single-lane reference, and K-lane conservative-lookahead sharding
//!   (serial or threaded) proven byte-identical to it.
//! - [`pcap::PcapWriter`] — packet capture for offline inspection.
//! - [`stats`] — summary statistics used by the experiment harness.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod diffsched;
pub mod event;
pub mod fault;
pub mod hash;
pub mod link;
pub mod pcap;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod time;
pub mod wheel;

pub use diffsched::SchedulerKind;
pub use event::{SchedStats, Scheduler, TraceOp};
pub use fault::{ByzantineAttack, FaultAction, FaultEvent, FaultPlan};
pub use hash::{fnv1a, FNV_OFFSET};
pub use link::{DropReason, Link, LinkClass, LinkOutcome, LinkParams};
pub use rng::Rng;
pub use shard::{ShardKind, ShardStats};
pub use stats::Summary;
pub use time::{Duration, Instant};
