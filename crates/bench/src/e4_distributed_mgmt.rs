//! E4 — Distributed management of resources (paper §6, goal 4).
//!
//! **Claim.** "The Internet architecture ... must permit distributed
//! management ... gateways ... implemented and managed by different
//! \[organizations\] exchange routing tables, even though they do not
//! completely trust each other." The mechanism is a routing protocol
//! that crosses administrative boundaries under each side's export
//! policy, and the cost is convergence time and routing chatter.
//!
//! **Experiment.** Chained administrative regions of distance-vector
//! gateways. We measure (a) cold-start convergence time, (b)
//! reconvergence after a border-link failure, and (c) routing-message
//! overhead — all as the internetwork grows.

use crate::table::Table;
use catenet_core::{LinkId, Network, NodeId};
use catenet_sim::{Duration, LinkClass};

/// The internetwork E4 runs on: chained administrative regions, each a
/// line of gateways with one host.
struct MultiAs {
    net: Network,
    /// One host per region.
    hosts: Vec<NodeId>,
    /// Gateways per region.
    regions: Vec<Vec<NodeId>>,
    /// Inter-region (border) links.
    borders: Vec<LinkId>,
}

/// Build `regions` chained regions of `size` gateways each, one host per
/// region, the last gateway of each region bordering the first of the
/// next, and converge routing. Every interface exports everything it
/// knows (the default policy), so a region carries transit.
fn multi_as(seed: u64, regions: usize, size: usize, trunk: LinkClass) -> MultiAs {
    assert!(regions >= 2 && size >= 1);
    let mut net = Network::new(seed);
    let mut all_regions = Vec::new();
    let mut hosts = Vec::new();
    for r in 0..regions {
        let gs: Vec<NodeId> = (0..size)
            .map(|i| net.add_gateway(format!("as{}g{}", r + 1, i + 1)))
            .collect();
        for pair in gs.windows(2) {
            net.connect(pair[0], pair[1], trunk);
        }
        let host = net.add_host(format!("h{}", r + 1));
        net.connect(host, gs[0], LinkClass::EthernetLan);
        hosts.push(host);
        all_regions.push(gs);
    }
    let borders = (0..regions - 1)
        .map(|r| {
            let left = *all_regions[r].last().expect("nonempty");
            net.connect(left, all_regions[r + 1][0], trunk)
        })
        .collect();
    net.converge_routing(Duration::from_secs(60 + 30 * (regions * size) as u64));
    net.routing_fixed_point().assert_holds("E4 build");
    MultiAs {
        net,
        hosts,
        regions: all_regions,
        borders,
    }
}

/// One topology's measurements.
#[derive(Debug, Clone, Copy)]
pub struct ConvergenceReport {
    /// Total gateways in the internetwork.
    pub gateways: usize,
    /// Cold-start convergence time.
    pub cold_start: Duration,
    /// Reconvergence after a mid-path border failure.
    pub after_failure: Duration,
    /// Routing messages processed per gateway per minute (steady state).
    pub updates_per_gw_min: f64,
    /// End-to-end reachability verified after healing.
    pub healed: bool,
}

/// Build a `regions × size` internetwork, time its convergence, break a
/// border, time the reconvergence, then verify reachability.
///
/// With `triggered` false the protocol falls back to pure periodic
/// advertisement (the pre-RFC-1058 behavior): convergence is then paced
/// by the update interval × internetwork diameter — the ablation that
/// shows why triggered updates matter.
pub fn run(seed: u64, regions: usize, size: usize, triggered: bool) -> ConvergenceReport {
    let mut m: MultiAs = multi_as(seed, regions, size, LinkClass::T1Terrestrial);
    let gateways: Vec<_> = m.regions.iter().flatten().copied().collect();
    if !triggered {
        let mut config = catenet_routing::DvConfig::fast();
        config.triggered_updates = false;
        for &gw in &gateways {
            m.net.node_mut(gw).set_dv_config(config.clone());
        }
    }
    // multi_as() already converged the cold start; measure it again from
    // a full routing flush (equivalent to simultaneous reboot).
    for &gw in &gateways {
        m.net.crash_node(gw);
    }
    for &gw in &gateways {
        m.net.restart_node(gw);
        if !triggered {
            let mut config = catenet_routing::DvConfig::fast();
            config.triggered_updates = false;
            m.net.node_mut(gw).set_dv_config(config.clone());
        }
    }
    let cold_start = m.net.converge_routing(Duration::from_secs(600));
    m.net.routing_fixed_point().assert_holds("E4 cold start");

    // Steady-state chatter over one minute.
    let before: u64 = gateways
        .iter()
        .map(|&g| m.net.node(g).dv.as_ref().expect("gateway").updates_received)
        .sum();
    m.net.run_for(Duration::from_secs(60));
    let after: u64 = gateways
        .iter()
        .map(|&g| m.net.node(g).dv.as_ref().expect("gateway").updates_received)
        .sum();
    let updates_per_gw_min = (after - before) as f64 / gateways.len() as f64;

    // Break the middle border link and time reconvergence. (With chained
    // regions there is no alternate path, so "reconvergence" means every
    // gateway learning the far side is unreachable — the DV worst case,
    // bounded by counting-to-infinity protections.)
    let border = m.borders[m.borders.len() / 2];
    m.net.set_link_up(border, false);
    let after_failure = m.net.converge_routing(Duration::from_secs(600));
    m.net.routing_fixed_point().assert_holds("E4 border cut");
    // Heal it and verify end-to-end reachability returns.
    m.net.set_link_up(border, true);
    m.net.converge_routing(Duration::from_secs(600));
    m.net.routing_fixed_point().assert_holds("E4 border heal");
    let src = m.hosts[0];
    let dst_addr = m.net.node(*m.hosts.last().expect("hosts")).primary_addr();
    let now = m.net.now();
    m.net.node_mut(src).send_ping(dst_addr, 7, 1, 32, now);
    m.net.kick(src);
    m.net.run_for(Duration::from_secs(10));
    let healed = !m.net.node_mut(src).take_icmp_events().is_empty();

    ConvergenceReport {
        gateways: gateways.len(),
        cold_start,
        after_failure,
        updates_per_gw_min,
        healed,
    }
}

/// Render the paper table.
pub fn default_table(seeds: &[u64]) -> Table {
    let mut table = Table::new(
        "E4 — Distributed management: DV routing across chained administrative regions (T1 trunks, 3 s update interval)",
        &[
            "regions × gateways",
            "total gw",
            "updates",
            "cold-start converge (s)",
            "reconverge after border cut (s)",
            "updates/gw/min",
            "healed",
        ],
    );
    for (regions, size) in [(2usize, 2usize), (3, 2), (3, 4), (4, 4)] {
        for (mode, triggered) in [("periodic-only", false), ("triggered", true)] {
            let report = run(seeds[0], regions, size, triggered);
            table.row(vec![
                format!("{regions} × {size}"),
                format!("{}", report.gateways),
                mode.into(),
                format!("{:.1}", report.cold_start.secs_f64()),
                format!("{:.1}", report.after_failure.secs_f64()),
                format!("{:.1}", report.updates_per_gw_min),
                if report.healed { "yes".into() } else { "NO".into() },
            ]);
        }
    }
    table.note(
        "Paper's claim: routing across organizations is feasible with gateways \
         'exchanging routing tables' under local policy; the architecture pays in \
         convergence time. Expected shape: with periodic-only advertisement \
         convergence grows with internetwork diameter (≈ interval × diameter); \
         triggered updates flatten it to propagation time; reachability always heals.",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_internetwork_converges_and_heals() {
        let report = run(11, 2, 2, true);
        assert!(report.healed);
        assert!(report.cold_start < Duration::from_secs(120));
        assert!(report.updates_per_gw_min > 0.0);
    }

    #[test]
    fn periodic_convergence_grows_with_diameter() {
        let small = run(11, 2, 2, false);
        let large = run(11, 4, 4, false);
        assert!(large.gateways > small.gateways);
        assert!(
            large.cold_start > small.cold_start,
            "large {:?} vs small {:?}",
            large.cold_start,
            small.cold_start
        );
        assert!(large.healed && small.healed);
    }

    #[test]
    fn triggered_updates_beat_periodic() {
        let periodic = run(11, 3, 4, false);
        let triggered = run(11, 3, 4, true);
        assert!(
            triggered.cold_start < periodic.cold_start,
            "triggered {:?} vs periodic {:?}",
            triggered.cold_start,
            periodic.cold_start
        );
    }
}
