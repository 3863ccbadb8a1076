//! E1 — Survivability through fate-sharing (paper §3, goal 1).
//!
//! **Claim.** "The state information which describes the on-going
//! conversation must be protected ... if \[it\] is stored in the
//! intermediate packet switching nodes, \[node loss destroys it\]. In the
//! Internet architecture, this state is gathered at the endpoint." A
//! gateway crash must therefore cost a conversation nothing but time.
//!
//! **Experiment.** Topology `h1 — gA — gD — gB — h2` with a *longer*
//! backup path `gA — gC1 — gC2 — gB` (strictly worse metric, so the
//! connection always starts on the primary). A bulk TCP transfer
//! starts; mid-transfer the primary middle gateway `gD` crashes (its
//! links drop carrier) and later reboots empty. Two architectures run
//! the identical scenario:
//!
//! - **datagram** (the paper's): stateless gateways + distance-vector
//!   rerouting — the connection stalls, reroutes, completes;
//! - **virtual-circuit** (the rejected): every gateway forwards TCP only
//!   along circuits installed by the SYN — after the crash no gateway on
//!   any path has the circuit, and the conversation is dead forever.

use crate::table::Table;
use catenet_core::app::{BulkSender, SinkServer};
use catenet_core::baseline::vc;
use catenet_core::{Endpoint, Network, TcpConfig};
use catenet_sim::{Duration, LinkClass};

/// One run's outcome.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// The transfer finished within the time limit.
    pub completed: bool,
    /// Completion time (transfer start → all data acked + FIN acked).
    pub duration: Option<Duration>,
    /// Retransmitted segments.
    pub retransmits: u64,
    /// RTO expirations.
    pub timeouts: u64,
}

/// Scenario parameters.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Bytes to transfer.
    pub transfer_bytes: usize,
    /// When the middle gateway dies.
    pub crash_at: Duration,
    /// How long it stays down.
    pub outage: Duration,
    /// Virtual-circuit mode on all gateways (the baseline arm).
    pub virtual_circuits: bool,
    /// Give up after this much virtual time.
    pub limit: Duration,
}

impl Default for Scenario {
    fn default() -> Scenario {
        Scenario {
            transfer_bytes: 400_000,
            crash_at: Duration::from_secs(2),
            outage: Duration::from_secs(20),
            virtual_circuits: false,
            limit: Duration::from_secs(180),
        }
    }
}

/// Run one scenario with one seed.
pub fn run(scenario: Scenario, seed: u64) -> Outcome {
    let mut net = Network::new(seed);
    let h1 = net.add_host("h1");
    let ga = net.add_gateway("gA");
    let gd = net.add_gateway("gD");
    let gb = net.add_gateway("gB");
    let gc1 = net.add_gateway("gC1");
    let gc2 = net.add_gateway("gC2");
    let h2 = net.add_host("h2");
    net.connect(h1, ga, LinkClass::EthernetLan);
    let l_ad = net.connect(ga, gd, LinkClass::T1Terrestrial);
    let l_db = net.connect(gd, gb, LinkClass::T1Terrestrial);
    // Backup: one hop longer, so DV always prefers the primary first.
    net.connect(ga, gc1, LinkClass::T1Terrestrial);
    net.connect(gc1, gc2, LinkClass::T1Terrestrial);
    net.connect(gc2, gb, LinkClass::T1Terrestrial);
    net.connect(gb, h2, LinkClass::EthernetLan);
    if scenario.virtual_circuits {
        for gw in [ga, gd, gb, gc1, gc2] {
            vc::enable(&mut net, gw);
        }
    }
    net.converge_routing(Duration::from_secs(90));
    let start = net.now();

    let dst = net.node(h2).primary_addr();
    let sink = SinkServer::new(80, TcpConfig::default());
    net.attach_app(h2, Box::new(sink));
    let sender = BulkSender::new(
        Endpoint::new(dst, 80),
        scenario.transfer_bytes,
        TcpConfig::default(),
        start + Duration::from_millis(100),
    );
    let result = sender.result_handle();
    net.attach_app(h1, Box::new(sender));

    // The crash: node dies and its links lose carrier.
    net.run_until(start + scenario.crash_at);
    net.crash_node(gd);
    net.set_link_up(l_ad, false);
    net.set_link_up(l_db, false);

    // The reboot.
    net.run_until(start + scenario.crash_at + scenario.outage);
    net.restart_node(gd);
    net.set_link_up(l_ad, true);
    net.set_link_up(l_db, true);

    net.run_until(start + scenario.limit);

    let result = result.lock().unwrap();
    Outcome {
        completed: result.completed_at.is_some(),
        duration: result.duration(),
        retransmits: result.retransmits,
        timeouts: result.timeouts,
    }
}

/// Run both arms over the seed set and render the paper table.
pub fn default_table(seeds: &[u64]) -> Table {
    let mut table = Table::new(
        "E1 — Survivability: gateway crash mid-transfer (400 kB, 20 s outage, backup path available)",
        &[
            "architecture",
            "completed",
            "median completion (s)",
            "mean retransmits",
            "mean RTO events",
        ],
    );
    for (name, virtual_circuits) in [("datagram + DV (paper)", false), ("virtual-circuit (baseline)", true)] {
        let outcomes: Vec<Outcome> = seeds
            .iter()
            .map(|&seed| {
                run(
                    Scenario {
                        virtual_circuits,
                        ..Scenario::default()
                    },
                    seed,
                )
            })
            .collect();
        let completed = outcomes.iter().filter(|o| o.completed).count();
        let mut durations: Vec<f64> = outcomes
            .iter()
            .filter_map(|o| o.duration.map(|d| d.secs_f64()))
            .collect();
        durations.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = durations
            .get(durations.len() / 2)
            .map(|d| format!("{d:.1}"))
            .unwrap_or_else(|| "—".into());
        let mean_retx =
            outcomes.iter().map(|o| o.retransmits).sum::<u64>() as f64 / outcomes.len() as f64;
        let mean_rto =
            outcomes.iter().map(|o| o.timeouts).sum::<u64>() as f64 / outcomes.len() as f64;
        table.row(vec![
            name.into(),
            format!("{completed}/{}", seeds.len()),
            median,
            format!("{mean_retx:.1}"),
            format!("{mean_rto:.1}"),
        ]);
    }
    table.note(
        "Paper's claim: endpoint state (fate-sharing) survives any gateway loss; \
         in-network connection state does not. Expected shape: datagram arm completes \
         on every seed, virtual-circuit arm never does.",
    );
    table
}

/// A small, fast configuration for the quick-run benchmark.
pub fn quick(seed: u64) -> Outcome {
    run(
        Scenario {
            transfer_bytes: 60_000,
            crash_at: Duration::from_secs(1),
            outage: Duration::from_secs(5),
            limit: Duration::from_secs(90),
            ..Scenario::default()
        },
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datagram_architecture_survives() {
        let outcome = run(Scenario::default(), 11);
        assert!(outcome.completed, "rerouted and completed: {outcome:?}");
        assert!(outcome.retransmits > 0, "the outage cost retransmissions");
    }

    #[test]
    fn virtual_circuits_die_with_the_gateway() {
        let outcome = run(
            Scenario {
                virtual_circuits: true,
                ..Scenario::default()
            },
            11,
        );
        assert!(!outcome.completed, "circuit state died with gD: {outcome:?}");
    }

    #[test]
    fn without_crash_both_arms_complete() {
        for virtual_circuits in [false, true] {
            let outcome = run(
                Scenario {
                    crash_at: Duration::from_secs(1_000), // never
                    limit: Duration::from_secs(60),
                    virtual_circuits,
                    ..Scenario::default()
                },
                23,
            );
            assert!(outcome.completed, "vc={virtual_circuits}: {outcome:?}");
        }
    }

    #[test]
    fn quick_outcome_sane() {
        let _ = quick(1);
    }
}
