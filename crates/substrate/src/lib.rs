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
//! - [`Substrate`] is the seam. It exposes exactly what a driver needs
//!   — a clock, a way to advance it, and access to the nodes (whose
//!   [`Node`] state machines carry ARP, IP forwarding, DV routing and
//!   TCP *unchanged* across realizations).
//! - The **simulator** ([`catenet_core::Network`]) implements the
//!   trait by pure delegation. It keeps virtual time, seeded RNGs, and
//!   byte-for-byte determinism — it remains the CI arm, and nothing in
//!   its execution path changed to sit behind the trait (the E11–E17
//!   dump bytes are pinned by `tests/sim_golden_digests.rs`).
//! - The **real-I/O** backend ([`real::RealSubstrate`]) realizes links
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
use catenet_core::{Network, Node};
use catenet_sim::{Duration, Instant};

/// A realization of the catenet architecture: something that owns
/// nodes, a clock, and a way of moving frames between nodes.
///
/// The architecture lives entirely inside [`Node`] (ARP, IP, DV
/// routing, TCP, sockets, applications); a substrate decides what an
/// instant means (virtual vs. wall time) and what a link is (a
/// simulated queue vs. a UDP socket pair vs. — via the documented
/// seam — a TUN device).
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

    /// Number of nodes this realization hosts.
    fn node_count(&self) -> usize;

    /// Shared view of node `index`.
    fn node(&self, index: usize) -> &Node;

    /// Exclusive view of node `index`.
    fn node_mut(&mut self, index: usize) -> &mut Node;

    /// Attach an application to node `index`.
    fn attach_app(&mut self, index: usize, app: Box<dyn Application>);

    /// Force a service pass on node `index` at the next opportunity
    /// (e.g. after feeding a socket by hand).
    fn kick(&mut self, index: usize);
}

/// The deterministic simulator is the reference realization: the trait
/// is implemented by pure delegation, so putting the simulator behind
/// it cannot perturb a single scheduled event. (`NodeId` is `usize`,
/// so trait indices are node ids verbatim.)
impl Substrate for Network {
    fn now(&self) -> Instant {
        Network::now(self)
    }

    fn run_until(&mut self, deadline: Instant) {
        Network::run_until(self, deadline);
    }

    fn node_count(&self) -> usize {
        Network::node_count(self)
    }

    fn node(&self, index: usize) -> &Node {
        Network::node(self, index)
    }

    fn node_mut(&mut self, index: usize) -> &mut Node {
        Network::node_mut(self, index)
    }

    fn attach_app(&mut self, index: usize, app: Box<dyn Application>) {
        Network::attach_app(self, index, app);
    }

    fn kick(&mut self, index: usize) {
        Network::kick(self, index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catenet_core::app::{BulkSender, SinkServer};
    use catenet_core::{shared, Endpoint, StreamIntegrity, TcpConfig};
    use catenet_sim::LinkClass;
    use std::sync::Arc;

    /// A transfer driven purely through the trait object completes —
    /// i.e. the simulator is reachable as `dyn Substrate`, not just as
    /// a concrete `Network`.
    #[test]
    fn sim_backend_runs_behind_the_trait() {
        let mut net = Network::new(7);
        let h1 = net.add_host("h1");
        let g = net.add_gateway("g");
        let h2 = net.add_host("h2");
        net.connect(h1, g, LinkClass::T1Terrestrial);
        net.connect(g, h2, LinkClass::T1Terrestrial);
        let dst = Substrate::node(&net, h2).primary_addr();

        let checker = shared(StreamIntegrity::new());
        let sub: &mut dyn Substrate = &mut net;
        let sink = SinkServer::new(80, TcpConfig::default()).with_integrity(Arc::clone(&checker));
        sub.attach_app(h2, Box::new(sink));
        let sender = BulkSender::new(
            Endpoint::new(dst, 80),
            30_000,
            TcpConfig::default(),
            Instant::from_millis(10),
        )
        .with_integrity(Arc::clone(&checker));
        let result = sender.result_handle();
        sub.attach_app(h1, Box::new(sender));

        sub.run_for(Duration::from_secs(60));
        assert!(result.lock().unwrap().completed_at.is_some());
        let checker = checker.lock().unwrap();
        assert!(checker.is_complete());
        assert_eq!(checker.delivered_len(), 30_000);
    }
}
