//! E3 — Variety of networks: fragmentation and its price (paper §5, goal 3).
//!
//! **Claim.** "The Internet architecture ... makes a minimum set of
//! assumptions about the \[underlying\] network ... that the network can
//! transport a packet or datagram ... of reasonable \[minimum\] size."
//! Anything bigger is the internet layer's problem: gateways fragment,
//! destinations reassemble. The known cost (§7): losing one fragment
//! loses the whole datagram, so fragmentation *amplifies* loss.
//!
//! **Experiment.** UDP datagrams of increasing size cross the 1988
//! menagerie — Ethernet (MTU 1500) → ARPANET trunk (1006) → serial line
//! (296). We count fragments per datagram, delivery rate at a given
//! per-link loss, and header overhead. Delivered payloads are verified
//! byte-for-byte (reassembly correctness under real reordering).

use crate::table::Table;
use catenet_core::iface::Framing;
use catenet_core::{Endpoint, Network};
use catenet_sim::{Duration, LinkClass, LinkParams};
use catenet_wire::IPV4_HEADER_LEN;

/// One row of the fragmentation table.
#[derive(Debug, Clone, Copy)]
pub struct FragReport {
    /// Datagram payload size.
    pub payload: usize,
    /// Fragments each datagram becomes on the narrowest hop.
    pub frags_per_datagram: f64,
    /// Datagrams sent.
    pub sent: u64,
    /// Datagrams fully reassembled at the destination.
    pub delivered: u64,
    /// Header bytes per delivered payload byte (IP headers only).
    pub header_overhead: f64,
}

impl FragReport {
    /// Delivery fraction.
    pub fn delivery_rate(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        self.delivered as f64 / self.sent as f64
    }
}

/// Send `count` UDP datagrams of `payload` bytes across the
/// heterogeneous path with `loss` applied to every link.
pub fn run(seed: u64, payload: usize, count: u64, loss: f64) -> FragReport {
    let mut net = Network::new(seed);
    let h1 = net.add_host("h1");
    let g1 = net.add_gateway("g1");
    let g2 = net.add_gateway("g2");
    let h2 = net.add_host("h2");
    let lossy = |class: LinkClass| LinkParams {
        loss,
        corruption: 0.0,
        // Deep queues so the measured effect is fragmentation's loss
        // amplification, not rate-mismatch tail drop (which E5's queue
        // accounting covers separately).
        queue_limit: 64,
        ..class.params()
    };
    net.connect_with(h1, g1, lossy(LinkClass::EthernetLan), Framing::RawIp);
    net.connect_with(g1, g2, lossy(LinkClass::ArpanetTrunk), Framing::RawIp);
    net.connect_with(g2, h2, lossy(LinkClass::SlipLine), Framing::RawIp);
    net.converge_routing(Duration::from_secs(60));

    let dst = net.node(h2).primary_addr();
    net.node_mut(h2).udp_bind(9000);
    let sock = net.node_mut(h1).udp_bind(9001);
    let pattern: Vec<u8> = (0..payload).map(|i| (i % 251) as u8).collect();
    // Pace the datagrams so the 9.6 kb/s serial line can drain.
    let wire_per_dgram = payload + 28;
    let drain_time =
        Duration::from_secs_f64(wire_per_dgram as f64 * 8.0 / 9_600.0) + Duration::from_millis(80);
    for _ in 0..count {
        let (to, now) = (Endpoint::new(dst, 9000), net.now());
        net.node_mut(h1).udp_send(sock, to, payload, now, |p| p.copy_from_slice(&pattern));
        net.kick(h1);
        net.run_for(drain_time);
    }
    net.run_for(Duration::from_secs(20));

    let mut delivered = 0u64;
    while let Some(dgram) = net.node_mut(h2).udp_sockets[0].recv() {
        assert_eq!(dgram.payload[..], pattern[..], "reassembly must be byte-exact");
        delivered += 1;
    }
    // Fragments per datagram on the narrowest link (SLIP, IP MTU 296):
    // the g2→h2 hop's frame count over datagram count.
    let frags = net.node(g2).stats.frags_created.max(count) as f64 / count as f64;
    // The UDP datagram needs (payload + 8) transport bytes; each fragment
    // repeats the 20-byte IP header.
    let total_headers = frags.ceil() * IPV4_HEADER_LEN as f64 + 8.0;
    FragReport {
        payload,
        frags_per_datagram: frags,
        sent: count,
        delivered,
        header_overhead: total_headers / payload as f64,
    }
}

/// Render the paper table.
pub fn default_table(seeds: &[u64]) -> Table {
    let mut table = Table::new(
        "E3 — Variety of networks: datagrams across Ethernet(1500) → ARPANET(1006) → serial(296)",
        &[
            "payload (B)",
            "frags/datagram",
            "delivered @0% loss",
            "delivered @2%/link loss",
            "predicted @2%",
            "header overhead",
        ],
    );
    for payload in [256usize, 576, 1024, 2048, 4096] {
        let clean = run(seeds[0], payload, 40, 0.0);
        // Pool lossy runs across seeds.
        let mut sent = 0u64;
        let mut delivered = 0u64;
        for &seed in seeds {
            let lossy = run(seed, payload, 40, 0.02);
            sent += lossy.sent;
            delivered += lossy.delivered;
        }
        // A datagram of f fragments needs all f to survive 3 links:
        // P = (1-p)^(hops_before_split) × (1-p)^(2×f)… simplified model:
        // one Ethernet hop + one ARPANET hop (≤2 frags there) + f SLIP
        // fragments. Use the coarse bound (1-p)^(2 + 2f) for the note.
        let f = clean.frags_per_datagram;
        let predicted = (1.0f64 - 0.02).powf(2.0 + 2.0 * f);
        table.row(vec![
            format!("{payload}"),
            format!("{:.1}", clean.frags_per_datagram),
            format!("{:.0}%", clean.delivery_rate() * 100.0),
            format!("{:.0}%", 100.0 * delivered as f64 / sent as f64),
            format!("{:.0}%", predicted * 100.0),
            format!("{:.1}%", clean.header_overhead * 100.0),
        ]);
    }
    table.note(
        "Paper's claim: the internet layer assumes only a 'reasonable minimum' MTU of \
         each network and fragments across smaller ones — at the cost that a datagram \
         dies if ANY fragment dies. Expected shape: delivery at fixed link loss falls \
         with datagram size (loss amplification ≈ (1-p)^(2+2f)), while per-byte header \
         overhead falls.",
    );
    table
}

/// Small configuration for the quick-run benchmark.
pub fn quick(seed: u64) -> FragReport {
    run(seed, 1024, 10, 0.01)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_datagrams_unfragmented_and_delivered() {
        let report = run(11, 256, 20, 0.0);
        assert_eq!(report.delivered, 20);
        assert!(report.frags_per_datagram <= 1.01);
    }

    #[test]
    fn large_datagrams_fragment_and_still_deliver() {
        let report = run(11, 2048, 10, 0.0);
        assert_eq!(report.delivered, 10, "lossless: all reassembled");
        assert!(
            report.frags_per_datagram >= 7.0,
            "2 kB over 296-MTU: {} frags",
            report.frags_per_datagram
        );
    }

    #[test]
    fn loss_amplification_grows_with_size() {
        let small = run(11, 256, 60, 0.03);
        let large = run(11, 2048, 60, 0.03);
        assert!(
            large.delivery_rate() < small.delivery_rate(),
            "large {} vs small {}",
            large.delivery_rate(),
            small.delivery_rate()
        );
    }
}
