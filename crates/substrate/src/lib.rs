//! Realizations of the catenet architecture.
//!
//! Clark's paper draws a hard line between the Internet *architecture*
//! — the protocols and the service model — and its *realizations*: the
//! actual collections of networks, links and gateways the architecture
//! is instantiated over. Until this crate existed the reproduction had
//! exactly one realization, the in-process deterministic simulator, so
//! the architecture/realization split was asserted but never
//! demonstrated. This crate makes the split load-bearing:
//!
//! - [`Node`](catenet_core::Node) is what the realizations share. Its
//!   state machines carry ARP, IP forwarding, DV routing and TCP
//!   *unchanged* across realizations; each realization drives it with
//!   its own clock and its own links.
//! - The **simulator** ([`catenet_core::Network`]) keeps virtual time,
//!   seeded RNGs, and byte-for-byte determinism — it remains the CI arm
//!   (the E11–E17 dump bytes are pinned by
//!   `tests/sim_golden_digests.rs`).
//! - The **real-I/O** backend ([`real::RealSubstrate`], driven through
//!   the [`Substrate`] trait) realizes links
//!   as UDP tunnels between OS sockets — one socket pair per link,
//!   frames carried verbatim in UDP payloads, as many to a datagram as
//!   one pass of the event loop has for the link — and replaces virtual
//!   time with a wall-clock timer driver whose sleep a frame arriving
//!   from the OS cuts short (one reader thread per tunnel, no polling
//!   slice). No root privileges or TUN device are needed, so it runs
//!   in CI; determinism is explicitly *not* promised on this arm (the
//!   OS schedules delivery).
//!
//! On top of the real backend, the `vhost` and `vrouter` binaries give
//! each OS process one node and an operator REPL, so two processes can
//! exchange RIP over UDP links, converge routes, and carry a TCP file
//! transfer end to end — the loopback interop test does exactly that.
//!
//! ## The TUN seam
//!
//! A third realization — a TUN device carrying our IP datagrams into
//! the kernel stack — plugs in at the same place the UDP tunnel does:
//! a [`real::LinkEndpoint`] turns frames (pooled buffers) into bytes on
//! a descriptor and back. A TUN endpoint would open `/dev/net/tun`,
//! set `IFF_TUN | IFF_NO_PI`, and exchange raw IPv4 packets (framing
//! [`catenet_core::iface::Framing::RawIp`]) instead of UDP payloads;
//! everything above the endpoint — node, routing, TCP, REPL — is
//! unchanged. It requires `CAP_NET_ADMIN`, so it is left as a
//! documented seam rather than a CI arm.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod clock;
pub mod config;
pub mod driver;
pub mod real;
pub mod repl;
pub mod tunnel;

use catenet_core::app::Application;
use catenet_sim::{Duration, Instant};

/// A real-I/O realization as a driver sees it: something that owns
/// nodes, a clock, and a way of moving frames between nodes.
/// [`real::RealSubstrate`] implements it.
///
/// The architecture lives entirely inside [`Node`](catenet_core::Node)
/// (ARP, IP, DV routing, TCP, sockets, applications); a substrate
/// decides what an instant means and what a link is (a UDP socket pair,
/// or — via the documented seam — a TUN device). Drivers reach the node
/// itself through the realization's own type
/// ([`real::RealSubstrate::node`]).
pub trait Substrate {
    /// The current instant on this substrate's clock.
    fn now(&self) -> Instant;

    /// Drive the realization until `deadline` on its clock: deliver
    /// frames, fire timers, poll applications.
    fn run_until(&mut self, deadline: Instant);

    /// Convenience: advance by `d` from [`Substrate::now`].
    fn run_for(&mut self, d: Duration) {
        let deadline = self.now() + d;
        self.run_until(deadline);
    }

    /// Attach an application to node `index`.
    fn attach_app(&mut self, index: usize, app: Box<dyn Application>);
}
