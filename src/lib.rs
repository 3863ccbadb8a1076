//! # catenet
//!
//! A userspace TCP/IP stack and deterministic internetwork simulator that
//! reproduces the architecture described in David D. Clark's
//! *"The Design Philosophy of the DARPA Internet Protocols"* (SIGCOMM 1988).
//!
//! This root crate re-exports the workspace members under stable names:
//!
//! - [`accounting`] — per-flow soft state, gateway ledgers, usage reconciliation
//! - [`sim`] — discrete-event simulator substrate (virtual time, links, faults)
//! - [`wire`] — zero-copy wire formats (Ethernet, ARP, IPv4, ICMPv4, UDP, TCP)
//! - [`ip`] — IP forwarding, fragmentation/reassembly, routing tables
//! - [`tcp`] — the TCP state machine with 1988-era congestion control
//! - [`routing`] — distance-vector routing with multi-AS policy
//! - [`telemetry`] — metrics registry, time-series sampler, flight recorder
//! - [`stack`] — hosts, stateless gateways, sockets, the simulated internetwork, baselines
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! per-claim experiment index.

pub use catenet_accounting as accounting;
pub use catenet_core as stack;
pub use catenet_ip as ip;
pub use catenet_routing as routing;
pub use catenet_sim as sim;
pub use catenet_tcp as tcp;
pub use catenet_telemetry as telemetry;
pub use catenet_wire as wire;
