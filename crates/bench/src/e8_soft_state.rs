//! E8 — Flows and soft state: the paper's proposal for the future
//! (paper §10, "Architecture and Implementation" / closing discussion).
//!
//! **Claim.** "A new building block ... the flow ... it would be
//! necessary for the gateways to have flow state ... but the state
//! information would not be critical ... 'soft state' ... could be lost
//! in a crash ... and reconstructed from the datagrams themselves." In
//! other words: gateways *may* hold per-flow state for resource
//! management without surrendering survivability, as long as the state
//! is derivable from the traffic.
//!
//! **Experiment.** Several CBR flows cross a gateway that maintains a
//! soft-state [`catenet_accounting::table::FlowTable`] with rate
//! estimates. We crash and reboot the gateway and measure how long (and
//! how many packets) the table takes to (a) re-discover every flow and
//! (b) bring each rate estimate back within 10% of truth. The
//! hard-state contrast is E1's virtual-circuit table, which never
//! recovers.

use crate::table::Table;
use catenet_accounting::table::FlowTable;
use catenet_core::app::{CbrSink, CbrSource};
use catenet_core::{Endpoint, Network};
use catenet_sim::{Duration, Instant, LinkClass};

/// Reconvergence measurements after a gateway reboot.
#[derive(Debug, Clone, Copy)]
pub struct SoftStateReport {
    /// Concurrent flows through the gateway.
    pub flows: usize,
    /// Flows tracked before the crash.
    pub tracked_before: usize,
    /// Virtual time from reboot until every flow reappears in the table.
    pub rediscovery: Option<Duration>,
    /// Virtual time from reboot until every rate estimate is within 10%.
    pub rate_reconvergence: Option<Duration>,
}

/// Run `flows` CBR streams through a soft-state gateway, crash it at
/// t=10 s for `outage`, then measure table recovery.
pub fn run(seed: u64, flows: usize, outage: Duration) -> SoftStateReport {
    let mut net = Network::new(seed);
    let g = net.add_gateway("g");
    let mut sinks = Vec::new();
    let mut true_rates = Vec::new();
    // Each flow gets its own pair of hosts so ports and addresses differ.
    for i in 0..flows {
        let h_src = net.add_host(format!("src{i}"));
        let h_dst = net.add_host(format!("dst{i}"));
        net.connect(h_src, g, LinkClass::T1Terrestrial);
        net.connect(g, h_dst, LinkClass::T1Terrestrial);
        let dst_addr = net.node(h_dst).primary_addr();
        let port = 6000 + i as u16;
        let sink = CbrSink::new(port);
        net.attach_app(h_dst, Box::new(sink));
        sinks.push(h_dst);
        // Stagger intervals so flows have distinct true rates.
        let interval = Duration::from_millis(10 + 5 * i as u64);
        let size = 200usize;
        // IP datagram bytes/sec: (payload+28) / interval.
        true_rates.push((size + 28) as f64 / interval.secs_f64());
        let source = CbrSource::new(
            Endpoint::new(dst_addr, port),
            interval,
            size,
            Instant::from_millis(100),
            Instant::from_secs(600),
        );
        net.attach_app(h_src, Box::new(source));
    }
    net.node_mut(g).flows = Some(Box::new(FlowTable::new()));
    net.converge_routing(Duration::from_secs(90));

    // Warm up.
    net.run_for(Duration::from_secs(10));
    let tracked_before = net.node(g).flows.as_ref().expect("enabled").len();

    // Crash and reboot.
    net.crash_node(g);
    net.run_for(outage);
    // The crash emptied the flow table; it restarts from nothing.
    net.restart_node(g);
    // Routing must also re-converge before traffic resumes through g.
    let reboot_at = net.now();

    let mut rediscovery = None;
    let mut rate_reconvergence = None;
    let step = Duration::from_millis(250);
    for _ in 0..400 {
        net.run_for(step);
        let table = net.node(g).flows.as_ref().expect("enabled");
        let entries = table.iter_sorted();
        if rediscovery.is_none() && entries.len() >= tracked_before && tracked_before > 0 {
            rediscovery = Some(net.now().duration_since(reboot_at));
        }
        if rediscovery.is_some() && rate_reconvergence.is_none() {
            // Match each tracked flow's rate against its true rate by
            // destination port.
            let mut all_ok = entries.len() >= tracked_before;
            for (id, state) in &entries {
                let index = (id.dst_port as usize).wrapping_sub(6000);
                if let Some(&true_rate) = true_rates.get(index) {
                    if !state.rate_within(true_rate, 0.10) {
                        all_ok = false;
                        break;
                    }
                }
            }
            if all_ok {
                rate_reconvergence = Some(net.now().duration_since(reboot_at));
                break;
            }
        }
    }
    SoftStateReport {
        flows,
        tracked_before,
        rediscovery,
        rate_reconvergence,
    }
}

/// Render the paper table.
pub fn default_table(seeds: &[u64]) -> Table {
    let mut table = Table::new(
        "E8 — Soft state: flow-table recovery after gateway crash (5 s outage)",
        &[
            "flows",
            "tracked pre-crash",
            "rediscovery after reboot (s, mean)",
            "rate re-convergence ≤10% (s, mean)",
            "hard-state (VC) recovery",
        ],
    );
    for flows in [2usize, 4, 8] {
        let reports: Vec<SoftStateReport> = seeds
            .iter()
            .map(|&seed| run(seed, flows, Duration::from_secs(5)))
            .collect();
        let mean =
            |values: Vec<Option<Duration>>| -> String {
                let ok: Vec<f64> = values.iter().flatten().map(|d| d.secs_f64()).collect();
                if ok.len() < values.len() {
                    format!("{}/{} recovered", ok.len(), values.len())
                } else {
                    format!("{:.1}", ok.iter().sum::<f64>() / ok.len() as f64)
                }
            };
        table.row(vec![
            format!("{flows}"),
            format!(
                "{:.1}",
                reports.iter().map(|r| r.tracked_before).sum::<usize>() as f64
                    / reports.len() as f64
            ),
            mean(reports.iter().map(|r| r.rediscovery).collect()),
            mean(reports.iter().map(|r| r.rate_reconvergence).collect()),
            "never (see E1)".into(),
        ]);
    }
    table.note(
        "Paper's claim: per-flow gateway state is compatible with survivability iff it \
         is soft — 'lost in a crash and reconstructed from the datagrams themselves'. \
         Expected shape: rediscovery within a few packet inter-arrivals of routing \
         recovery; rate estimates within 10% a few seconds later; independent of flow \
         count. The hard-state alternative (E1's circuits) never recovers.",
    );
    table
}

/// Small configuration for the quick-run benchmark.
pub fn quick(seed: u64) -> SoftStateReport {
    run(seed, 2, Duration::from_secs(2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flows_tracked_then_recovered() {
        let report = run(11, 3, Duration::from_secs(5));
        assert_eq!(report.tracked_before, 3, "all flows tracked pre-crash");
        let rediscovery = report.rediscovery.expect("table rebuilt");
        assert!(
            rediscovery < Duration::from_secs(30),
            "rebuilt from live traffic in {rediscovery}"
        );
        assert!(report.rate_reconvergence.is_some(), "rates re-converged");
    }
}
