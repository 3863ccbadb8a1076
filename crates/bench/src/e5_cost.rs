//! E5 — Cost effectiveness: what the datagram architecture pays
//! (paper §7, goal 5).
//!
//! **Claims.** (a) "The headers of Internet packets are fairly large ...
//! for small packets this overhead is apparent." (b) "Lost packets are
//! not recovered at the network level \[but\] from one end of the path to
//! the other ... the retransmission consumes \[upstream\] capacity a
//! second time." The paper accepts both costs; this experiment prices
//! them.
//!
//! **Experiment.** (a) Header overhead as a function of payload size,
//! from the wire formats themselves. (b) Link transmissions per
//! usefully delivered packet for end-to-end vs hop-by-hop ARQ, sweeping
//! per-link loss and path length (via `baseline::linkarq`).

use crate::table::Table;
use catenet_core::baseline::linkarq;
use catenet_wire::{IPV4_HEADER_LEN, TCP_HEADER_LEN, UDP_HEADER_LEN};

/// Header overhead for a TCP segment carrying `payload` bytes.
pub fn tcp_overhead_fraction(payload: usize) -> f64 {
    let headers = IPV4_HEADER_LEN + TCP_HEADER_LEN;
    headers as f64 / (headers + payload) as f64
}

/// Header overhead for a UDP datagram carrying `payload` bytes.
pub fn udp_overhead_fraction(payload: usize) -> f64 {
    let headers = IPV4_HEADER_LEN + UDP_HEADER_LEN;
    headers as f64 / (headers + payload) as f64
}

/// The retransmission-strategy comparison at one operating point.
#[derive(Debug, Clone, Copy)]
pub struct ArqComparison {
    /// Hops on the path.
    pub hops: usize,
    /// Per-link loss probability.
    pub loss: f64,
    /// End-to-end: data transmissions per delivered packet.
    pub e2e_cost: f64,
    /// Hop-by-hop: data transmissions per delivered packet.
    pub hbh_cost: f64,
    /// End-to-end completion time for the batch.
    pub e2e_time: f64,
    /// Hop-by-hop completion time for the batch.
    pub hbh_time: f64,
}

/// Run both strategies at one operating point.
pub fn compare(hops: usize, loss: f64, packets: u64, seed: u64) -> ArqComparison {
    let e2e = linkarq::run_end_to_end(hops, loss, packets, 1000, seed);
    let hbh = linkarq::run_hop_by_hop(hops, loss, packets, 1000, seed ^ 0x5555);
    ArqComparison {
        hops,
        loss,
        e2e_cost: e2e.cost_per_packet(),
        hbh_cost: hbh.cost_per_packet(),
        e2e_time: e2e.finished_at.secs_f64(),
        hbh_time: hbh.finished_at.secs_f64(),
    }
}

/// Table (a): header overhead vs payload size.
pub fn overhead_table() -> Table {
    let mut table = Table::new(
        "E5a — Cost of headers: overhead fraction vs payload size",
        &["payload (B)", "TCP+IP overhead", "UDP+IP overhead"],
    );
    for payload in [1usize, 8, 64, 256, 536, 1024, 1460] {
        table.row(vec![
            format!("{payload}"),
            format!("{:.1}%", tcp_overhead_fraction(payload) * 100.0),
            format!("{:.1}%", udp_overhead_fraction(payload) * 100.0),
        ]);
    }
    table.note(
        "Paper's claim: 40 bytes of header is 'apparent' overhead for small packets — \
         a remote-login keystroke (1 byte) is ~97.6% header. Expected shape: overhead \
         falls hyperbolically with payload size.",
    );
    table
}

/// Table (b): retransmission strategy cost.
pub fn arq_table(seeds: &[u64]) -> Table {
    let mut table = Table::new(
        "E5b — Cost of end-to-end retransmission: link transmissions per delivered packet",
        &[
            "hops",
            "per-link loss",
            "end-to-end (paper)",
            "hop-by-hop (baseline)",
            "e2e/hbh ratio",
            "theory ratio",
        ],
    );
    for hops in [2usize, 4, 8] {
        for loss in [0.01, 0.05, 0.10, 0.20] {
            let mut e2e_sum = 0.0;
            let mut hbh_sum = 0.0;
            for &seed in seeds {
                let c = compare(hops, loss, 150, seed);
                e2e_sum += c.e2e_cost;
                hbh_sum += c.hbh_cost;
            }
            let e2e = e2e_sum / seeds.len() as f64;
            let hbh = hbh_sum / seeds.len() as f64;
            // Theory: hbh ≈ h/(1-p); e2e ≈ Σ_i (1-p)^{i-1} / (1-p)^h
            // (expected transmissions per attempt over success prob.).
            let p = loss;
            let attempts: f64 = (0..hops).map(|i| (1.0 - p).powi(i as i32)).sum();
            let theory_e2e = attempts / (1.0 - p).powi(hops as i32);
            let theory_hbh = hops as f64 / (1.0 - p);
            table.row(vec![
                format!("{hops}"),
                format!("{:.0}%", loss * 100.0),
                format!("{e2e:.2}"),
                format!("{hbh:.2}"),
                format!("{:.2}", e2e / hbh),
                format!("{:.2}", theory_e2e / theory_hbh),
            ]);
        }
    }
    table.note(
        "Paper's claim: end-to-end recovery re-crosses every upstream link, so its cost \
         grows like (1-p)^-h against hop-by-hop's (1-p)^-1. The architecture accepts \
         this because loss 'is not the common case' — the ratio column shows exactly \
         when that bet stops paying (long lossy paths). Expected shape: ratio ≈ 1 at \
         1% loss, diverging as loss × hops grows; measured ratios track theory.",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_shapes() {
        assert!(tcp_overhead_fraction(1) > 0.97);
        assert!(tcp_overhead_fraction(1460) < 0.03);
        assert!(udp_overhead_fraction(64) < tcp_overhead_fraction(64));
        // Monotone decreasing.
        assert!(tcp_overhead_fraction(8) > tcp_overhead_fraction(64));
    }

    #[test]
    fn e2e_never_cheaper_and_diverges_with_loss() {
        let mild = compare(4, 0.01, 150, 11);
        assert!(mild.e2e_cost >= mild.hbh_cost * 0.95, "{mild:?}");
        assert!(mild.e2e_cost / mild.hbh_cost < 1.3, "mild loss: near parity");
        let harsh = compare(8, 0.20, 150, 11);
        assert!(
            harsh.e2e_cost / harsh.hbh_cost > 1.5,
            "harsh: e2e {} vs hbh {}",
            harsh.e2e_cost,
            harsh.hbh_cost
        );
    }

    #[test]
    fn lossless_parity() {
        let c = compare(4, 0.0, 50, 1);
        assert!((c.e2e_cost - 4.0).abs() < 1e-9);
        assert!((c.hbh_cost - 4.0).abs() < 1e-9);
    }
}
