//! E10 — Realizations: one architecture across three orders of magnitude
//! (paper, "Architecture and Implementation").
//!
//! **Claim.** "The architecture tried very hard not to constrain the
//! range of services which the Internet could be engineered to provide
//! ... realizations \[range\] from campus LANs to transcontinental paths
//! with satellite hops," with wildly different bandwidth-delay products.
//! The endpoint (TCP's window) must absorb that whole range — the
//! architecture gives it nothing else.
//!
//! **Experiment.** The same bulk TCP transfer runs over three
//! realizations — modern LAN, T1 terrestrial, T1 satellite — at several
//! receive-window sizes. Throughput should track
//! `min(link rate, window / RTT)`: the bandwidth-delay-product ceiling.

use crate::table::Table;
use catenet_core::app::{BulkSender, SinkServer};
use catenet_core::{Endpoint, Network, TcpConfig};
use catenet_sim::{Duration, LinkClass};

/// One (realization, window) measurement.
#[derive(Debug, Clone, Copy)]
pub struct RealizationReport {
    /// The trunk class.
    pub trunk: LinkClass,
    /// Receive window in bytes.
    pub window: usize,
    /// Measured goodput in bits/second.
    pub goodput_bps: f64,
    /// The window/RTT ceiling in bits/second.
    pub window_ceiling_bps: f64,
    /// Completed within the limit.
    pub completed: bool,
}

/// Access-link class of a realization: a modern LAN realization is
/// all-LAN; wide-area realizations hang classic Ethernets off the trunk.
fn access_class(trunk: LinkClass) -> LinkClass {
    match trunk {
        LinkClass::ModernLan => LinkClass::ModernLan,
        _ => LinkClass::EthernetLan,
    }
}

fn path_rtt(trunk: LinkClass) -> f64 {
    let access = access_class(trunk).params().propagation.secs_f64();
    let t = trunk.params().propagation.secs_f64();
    2.0 * (2.0 * access + t)
}

/// The path's bottleneck rate in bits/second.
pub fn path_rate(trunk: LinkClass) -> f64 {
    (trunk.params().bandwidth_bps.min(access_class(trunk).params().bandwidth_bps)) as f64
}

/// Run one transfer over one realization.
pub fn run(seed: u64, trunk: LinkClass, window: usize, transfer: usize) -> RealizationReport {
    let mut net = Network::new(seed);
    let h1 = net.add_host("h1");
    let g1 = net.add_gateway("g1");
    let g2 = net.add_gateway("g2");
    let h2 = net.add_host("h2");
    net.connect(h1, g1, access_class(trunk));
    net.connect(g1, g2, trunk);
    net.connect(g2, h2, access_class(trunk));
    net.converge_routing(Duration::from_secs(60));
    let start = net.now();
    let dst = net.node(h2).primary_addr();
    let config = TcpConfig {
        rx_capacity: window,
        tx_capacity: transfer.max(65_535),
        mss: 1460,
        delayed_ack: None,
        ..TcpConfig::default()
    };
    let sink = SinkServer::new(80, config.clone());
    net.attach_app(h2, Box::new(sink));
    let sender = BulkSender::new(
        Endpoint::new(dst, 80),
        transfer,
        config,
        start + Duration::from_millis(10),
    );
    let result = sender.result_handle();
    net.attach_app(h1, Box::new(sender));
    net.run_for(Duration::from_secs(600));
    let result = result.lock().unwrap();
    let goodput = result.goodput_bps(transfer).unwrap_or(0.0);
    RealizationReport {
        trunk,
        window,
        goodput_bps: goodput,
        window_ceiling_bps: window as f64 * 8.0 / path_rtt(trunk),
        completed: result.completed_at.is_some(),
    }
}

/// Render the paper table.
pub fn default_table(seeds: &[u64]) -> Table {
    let mut table = Table::new(
        "E10 — Realizations: TCP goodput vs receive window across 1988's range of networks (1 MB transfer)",
        &[
            "realization",
            "trunk rate",
            "RTT (ms)",
            "window",
            "goodput (kb/s)",
            "min(rate, win/RTT) (kb/s)",
        ],
    );
    let seed = seeds[0];
    for (trunk, label) in [
        (LinkClass::ModernLan, "modern LAN"),
        (LinkClass::T1Terrestrial, "T1 terrestrial"),
        (LinkClass::Satellite, "T1 satellite"),
    ] {
        for window in [4_096usize, 16_384, 65_535] {
            let transfer = match trunk {
                LinkClass::ModernLan => 4_000_000,
                _ => 1_000_000,
            };
            let report = run(seed, trunk, window, transfer);
            let rate = path_rate(trunk);
            let ceiling = rate.min(report.window_ceiling_bps);
            table.row(vec![
                label.into(),
                format!("{:.1} Mb/s", rate / 1e6),
                format!("{:.1}", path_rtt(trunk) * 1000.0),
                format!("{} kB", window / 1024),
                if report.completed {
                    format!("{:.0}", report.goodput_bps / 1000.0)
                } else {
                    "DNF".into()
                },
                format!("{:.0}", ceiling / 1000.0),
            ]);
        }
    }
    table.note(
        "Paper's claim: the same architecture must serve realizations whose \
         bandwidth-delay products differ by orders of magnitude, with the endpoint \
         window as the only adaptation mechanism. Expected shape: goodput tracks \
         min(link rate, window/RTT) — on the satellite path small windows starve the \
         pipe; on the LAN even 4 kB saturates it.",
    );
    table
}

/// Small configuration for the quick-run benchmark.
pub fn quick(seed: u64) -> RealizationReport {
    run(seed, LinkClass::T1Terrestrial, 16_384, 100_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn satellite_throughput_window_limited() {
        let small = run(11, LinkClass::Satellite, 4_096, 200_000);
        let large = run(11, LinkClass::Satellite, 65_535, 200_000);
        assert!(small.completed && large.completed);
        assert!(
            large.goodput_bps > small.goodput_bps * 3.0,
            "large {} vs small {}",
            large.goodput_bps,
            small.goodput_bps
        );
        // Small window sits near its BDP ceiling (within 2×, given slow
        // start and delayed effects).
        assert!(
            small.goodput_bps < small.window_ceiling_bps * 1.2,
            "goodput {} vs ceiling {}",
            small.goodput_bps,
            small.window_ceiling_bps
        );
    }

    #[test]
    fn lan_saturates_with_any_window() {
        let report = run(11, LinkClass::ModernLan, 16_384, 1_000_000);
        assert!(report.completed);
        // Window/RTT for 16 kB over ~0.3 ms RTT is ≫ 100 Mb/s.
        assert!(
            report.goodput_bps > 5e7,
            "LAN goodput {} too low",
            report.goodput_bps
        );
    }

    #[test]
    fn terrestrial_between_the_extremes() {
        let report = run(11, LinkClass::T1Terrestrial, 65_535, 300_000);
        assert!(report.completed);
        // Should approach the T1 line rate.
        assert!(
            report.goodput_bps > 0.5 * 1_544_000.0,
            "goodput {}",
            report.goodput_bps
        );
    }
}
