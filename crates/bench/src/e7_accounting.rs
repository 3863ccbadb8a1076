//! E7 — Accountability, the goal served worst (paper §9, goal 7).
//!
//! **Claim.** "The Internet architecture contains few tools for
//! accounting for packet flows ... \[a gateway\] cannot tell a
//! retransmitted byte from a new one," so billing by carried datagrams
//! systematically overstates the service a customer usefully received —
//! and the error grows with exactly the conditions (loss, congestion)
//! the customer would least like to pay extra for.
//!
//! **Experiment.** A bulk TCP transfer crosses a dumbbell whose trunk
//! loss we sweep. The middle gateway keeps a
//! [`catenet_accounting::ledger::Ledger`] (carried bytes, as a billing
//! gateway would see them); the receiving application records goodput
//! bytes (the truth). We report the accounting error.

use crate::table::Table;
use catenet_accounting::ledger::Ledger;
use catenet_core::app::{BulkSender, SinkServer};
use catenet_core::iface::Framing;
use catenet_core::{Endpoint, Network, TcpConfig};
use catenet_sim::{Duration, LinkClass, LinkParams};
use catenet_wire::IpProtocol;
use std::sync::Arc;

/// One operating point's accounting comparison.
#[derive(Debug, Clone, Copy)]
pub struct AccountingReport {
    /// Trunk loss probability.
    pub loss: f64,
    /// Bytes the gateway's ledger attributes to the conversation
    /// (both directions, IP bytes).
    pub billed_bytes: u64,
    /// Application-level bytes usefully delivered.
    pub goodput_bytes: u64,
    /// Transfer completed.
    pub completed: bool,
}

impl AccountingReport {
    /// Billed ÷ useful — the overcharge factor.
    pub fn overcharge(&self) -> f64 {
        if self.goodput_bytes == 0 {
            return f64::INFINITY;
        }
        self.billed_bytes as f64 / self.goodput_bytes as f64
    }
}

/// Run one transfer at one loss rate.
pub fn run(seed: u64, loss: f64, transfer: usize) -> AccountingReport {
    let mut net = Network::new(seed);
    let h1 = net.add_host("h1");
    let g1 = net.add_gateway("g1");
    let g2 = net.add_gateway("g2");
    let h2 = net.add_host("h2");
    net.connect(h1, g1, LinkClass::EthernetLan);
    net.connect_with(
        g1,
        g2,
        LinkParams {
            loss,
            corruption: 0.0,
            ..LinkClass::T1Terrestrial.params()
        },
        Framing::RawIp,
    );
    net.connect(g2, h2, LinkClass::EthernetLan);
    // g1 is the billing gateway.
    net.node_mut(g1).ledger = Some(Ledger::new());
    net.converge_routing(Duration::from_secs(60));
    let start = net.now();

    let dst = net.node(h2).primary_addr();
    let src_addr = net.node(h1).primary_addr();
    let sink = SinkServer::new(80, TcpConfig::default());
    let received = Arc::clone(&sink.received);
    net.attach_app(h2, Box::new(sink));
    let sender = BulkSender::new(
        Endpoint::new(dst, 80),
        transfer,
        TcpConfig::default(),
        start + Duration::from_millis(50),
    );
    let result = sender.result_handle();
    net.attach_app(h1, Box::new(sender));
    net.run_for(Duration::from_secs(600));

    let billed = net
        .node(g1)
        .ledger
        .as_ref()
        .expect("ledger enabled")
        .conversation_bytes(src_addr, dst, IpProtocol::Tcp);
    let goodput_bytes = *received.lock().unwrap();
    let completed = result.lock().unwrap().completed_at.is_some();
    AccountingReport {
        loss,
        billed_bytes: billed,
        goodput_bytes,
        completed,
    }
}

/// Render the paper table.
pub fn default_table(seeds: &[u64]) -> Table {
    let mut table = Table::new(
        "E7 — Accountability: gateway-billed bytes vs application goodput (200 kB transfer)",
        &[
            "trunk loss",
            "billed (kB, mean)",
            "goodput (kB)",
            "overcharge factor",
            "completed",
        ],
    );
    for loss in [0.0, 0.01, 0.02, 0.05, 0.10] {
        let reports: Vec<AccountingReport> = seeds
            .iter()
            .map(|&seed| run(seed, loss, 200_000))
            .collect();
        let billed =
            reports.iter().map(|r| r.billed_bytes).sum::<u64>() as f64 / reports.len() as f64;
        let goodput =
            reports.iter().map(|r| r.goodput_bytes).sum::<u64>() as f64 / reports.len() as f64;
        let overcharge =
            reports.iter().map(|r| r.overcharge()).sum::<f64>() / reports.len() as f64;
        let completed = reports.iter().filter(|r| r.completed).count();
        table.row(vec![
            format!("{:.0}%", loss * 100.0),
            format!("{:.1}", billed / 1000.0),
            format!("{:.1}", goodput / 1000.0),
            format!("{overcharge:.3}×"),
            format!("{completed}/{}", seeds.len()),
        ]);
    }
    table.note(
        "Paper's claim: datagram accounting cannot distinguish retransmitted bytes from \
         new ones — 'a poor tool' for accountability. Expected shape: even at 0% loss \
         the factor exceeds 1 (headers, ACKs, handshake); it grows with loss as \
         end-to-end retransmissions are billed again.",
    );
    table
}

/// Small configuration for criterion.
pub fn quick(seed: u64) -> AccountingReport {
    run(seed, 0.02, 40_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_overcharge_is_headers_only() {
        let report = run(11, 0.0, 100_000);
        assert!(report.completed);
        assert_eq!(report.goodput_bytes, 100_000);
        // Headers + ACK stream: between 1.0× and 1.5×.
        let factor = report.overcharge();
        assert!(factor > 1.0 && factor < 1.5, "factor {factor}");
    }

    #[test]
    fn loss_inflates_the_bill() {
        let clean = run(11, 0.0, 100_000);
        let lossy = run(11, 0.05, 100_000);
        assert!(lossy.completed);
        assert!(
            lossy.overcharge() > clean.overcharge(),
            "lossy {} vs clean {}",
            lossy.overcharge(),
            clean.overcharge()
        );
    }
}
