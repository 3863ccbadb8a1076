//! Ablations: turn the architecture's individual design choices off,
//! one at a time, and measure what each one was buying.
//!
//! | ID | Choice ablated | Where the paper argues for it |
//! |----|----------------|-------------------------------|
//! | A1 | Congestion control (Tahoe/Reno vs none) | §7 admits end-to-end retransmission is dangerous; Jacobson's fix shipped the same year |
//! | A2 | Split horizon + poisoned reverse | §6's distributed routing only works if it converges — this is the counting-to-infinity demo |
//! | A3 | Nagle's algorithm | the "TCP" section's small-packet coalescing argument |
//! | A4 | ICMP source quench | RFC 792's congestion signal, the era's only in-network feedback |

use crate::channel::{run_tcp, ChannelParams};
use crate::table::Table;
use catenet_core::app::{BulkSender, SinkServer};
use catenet_core::iface::Framing;
use catenet_core::{Endpoint, Network, TcpConfig};
use catenet_routing::{DvConfig, DvEngine, ExportPolicy, INFINITY_METRIC};
use catenet_sim::{Duration, Instant, LinkClass, LinkParams};
use catenet_tcp::CongestionAlgo;
use catenet_wire::{Ipv4Address, Ipv4Cidr};


// ===================================================================
// A1 — congestion collapse
// ===================================================================

/// Aggregate outcome of several senders sharing one bottleneck.
#[derive(Debug, Clone, Copy)]
pub struct CollapseReport {
    /// Transfers that completed within the limit.
    pub completed: usize,
    /// Total senders.
    pub senders: usize,
    /// Aggregate goodput over the run (bits/second).
    pub aggregate_goodput_bps: f64,
    /// Fraction of frames offered to the bottleneck that were delivered
    /// (1 − drop rate): the "useful work" of the shared link.
    pub link_efficiency: f64,
    /// Total retransmitted segments across senders.
    pub retransmits: u64,
}

/// `senders` hosts each push `bytes` through one 56 kb/s trunk with a
/// short queue, all running the given congestion algorithm.
pub fn run_collapse(seed: u64, senders: usize, bytes: usize, algo: CongestionAlgo) -> CollapseReport {
    let mut net = Network::new(seed);
    let g1 = net.add_gateway("g1");
    let g2 = net.add_gateway("g2");
    net.connect_with(
        g1,
        g2,
        LinkParams {
            queue_limit: 8,
            loss: 0.0,
            corruption: 0.0,
            ..LinkClass::ArpanetTrunk.params()
        },
        Framing::RawIp,
    );
    let mut results = Vec::new();
    let mut receivers = Vec::new();
    for i in 0..senders {
        let src = net.add_host(format!("src{i}"));
        let dst = net.add_host(format!("dst{i}"));
        net.connect(src, g1, LinkClass::EthernetLan);
        net.connect(dst, g2, LinkClass::EthernetLan);
        receivers.push((src, dst));
    }
    net.converge_routing(Duration::from_secs(60));
    let start = net.now();
    let config = TcpConfig {
        congestion: algo,
        delayed_ack: None,
        ..TcpConfig::default()
    };
    for &(src, dst) in &receivers {
        let dst_addr = net.node(dst).primary_addr();
        let sink = SinkServer::new(80, config.clone());
        net.attach_app(dst, Box::new(sink));
        let sender = BulkSender::new(
            Endpoint::new(dst_addr, 80),
            bytes,
            config.clone(),
            start + Duration::from_millis(100),
        );
        results.push(sender.result_handle());
        net.attach_app(src, Box::new(sender));
    }
    let limit = Duration::from_secs(600);
    net.run_until(start + limit);

    let completed = results
        .iter()
        .filter(|r| r.lock().unwrap().completed_at.is_some())
        .count();
    let goodput_bytes: usize = results
        .iter()
        .map(|r| if r.lock().unwrap().completed_at.is_some() { bytes } else { 0 })
        .sum();
    let elapsed = results
        .iter()
        .filter_map(|r| r.lock().unwrap().completed_at)
        .map(|t| t.duration_since(start).secs_f64())
        .fold(0.0f64, f64::max)
        .max(1.0);
    let retransmits = results.iter().map(|r| r.lock().unwrap().retransmits).sum();
    // Efficiency of the network's work: frames delivered over frames
    // *presented* (including the ones the queue turned away).
    let (offered, delivered, _, overflowed) = net.link_totals();
    let presented = offered + overflowed;
    CollapseReport {
        completed,
        senders,
        aggregate_goodput_bps: goodput_bytes as f64 * 8.0 / elapsed,
        link_efficiency: if presented == 0 {
            0.0
        } else {
            delivered as f64 / presented as f64
        },
        retransmits,
    }
}

/// Render the A1 table.
pub fn collapse_table(seeds: &[u64]) -> Table {
    let mut table = Table::new(
        "A1 — Congestion-control ablation: 4 senders share a 56 kb/s trunk (40 kB each)",
        &[
            "algorithm",
            "completed",
            "aggregate goodput (kb/s)",
            "link efficiency",
            "total retransmits",
        ],
    );
    for (name, algo) in [
        ("none (pre-1988 TCP)", CongestionAlgo::None),
        ("Tahoe (VJ 1988)", CongestionAlgo::Tahoe),
        ("Reno (+fast recovery)", CongestionAlgo::Reno),
    ] {
        let mut completed = 0;
        let mut goodput = 0.0;
        let mut efficiency = 0.0;
        let mut retransmits = 0;
        for &seed in seeds {
            let report = run_collapse(seed, 4, 40_000, algo);
            completed += report.completed;
            goodput += report.aggregate_goodput_bps;
            efficiency += report.link_efficiency;
            retransmits += report.retransmits;
        }
        let n = seeds.len() as f64;
        table.row(vec![
            name.into(),
            format!("{completed}/{}", 4 * seeds.len()),
            format!("{:.1}", goodput / n / 1000.0),
            format!("{:.2}", efficiency / n),
            format!("{:.0}", retransmits as f64 / n),
        ]);
    }
    table.note(
        "Clark's paper predates Jacobson's fix by months and §7 frankly admits the \
         danger. Expected shape: without congestion control the shared trunk drowns \
         in retransmissions (low link efficiency, massive retransmit counts); Tahoe \
         and Reno keep the link doing useful work.",
    );
    table
}

// ===================================================================
// A2 — counting to infinity
// ===================================================================

/// Outcome of the route-withdrawal propagation race.
#[derive(Debug, Clone, Copy)]
pub struct ConvergencePathology {
    /// Advertisement rounds until the far gateway marks the dead route
    /// unreachable (or `None` if it never did within the bound).
    pub rounds_to_purge: Option<u32>,
    /// Total route-entry updates exchanged while converging.
    pub entries_exchanged: u64,
}

/// Two gateways in a line learn a stub prefix, the stub dies, and we
/// count advertisement rounds until both agree it is unreachable.
/// With split horizon off, the gateways reassure each other and count
/// metrics upward toward infinity — the classic DV pathology.
pub fn run_count_to_infinity(split_horizon: bool) -> ConvergencePathology {
    let mut config = DvConfig::fast();
    config.split_horizon = split_horizon;
    let mut a = DvEngine::new(config.clone());
    let mut b = DvEngine::new(config);
    let stub: Ipv4Cidr = "10.9.0.0/16".parse().expect("valid");
    let a_addr: Ipv4Address = "10.0.0.1".parse().expect("valid");
    let b_addr: Ipv4Address = "10.0.0.2".parse().expect("valid");
    // a is attached to the stub (iface 0) and to b (iface 1).
    a.add_connected(stub, 0);
    let mut now = Instant::ZERO;
    let mut entries_exchanged = 0u64;
    // Converge: a tells b.
    for _ in 0..4 {
        let ads = a.advertisement_for(1, &ExportPolicy::All, true);
        entries_exchanged += ads.len() as u64;
        b.handle_update(a_addr, 0, &ads, now);
        let ads = b.advertisement_for(0, &ExportPolicy::All, true);
        entries_exchanged += ads.len() as u64;
        a.handle_update(b_addr, 1, &ads, now);
        now += Duration::from_secs(1);
    }
    assert!(b.lookup("10.9.0.1".parse().expect("valid")).is_some());
    // The stub dies. Crucially, b's periodic advertisement goes out
    // FIRST each round (before it has heard the bad news) — the timing
    // race that makes counting-to-infinity possible at all.
    a.fail_iface(0, now);
    let mut rounds_to_purge = None;
    for round in 1..=64u32 {
        let ads = b.advertisement_for(0, &ExportPolicy::All, true);
        entries_exchanged += ads.len() as u64;
        a.handle_update(b_addr, 1, &ads, now);
        let ads = a.advertisement_for(1, &ExportPolicy::All, true);
        entries_exchanged += ads.len() as u64;
        b.handle_update(a_addr, 0, &ads, now);
        now += Duration::from_secs(1);
        let a_dead = a.lookup("10.9.0.1".parse().expect("valid")).is_none();
        let b_dead = b.lookup("10.9.0.1".parse().expect("valid")).is_none();
        let a_purged = a
            .routes()
            .find(|(p, _)| **p == stub.network())
            .is_none_or(|(_, r)| r.metric >= INFINITY_METRIC);
        let b_purged = b
            .routes()
            .find(|(p, _)| **p == stub.network())
            .is_none_or(|(_, r)| r.metric >= INFINITY_METRIC);
        if a_dead && b_dead && a_purged && b_purged {
            rounds_to_purge = Some(round);
            break;
        }
    }
    ConvergencePathology {
        rounds_to_purge,
        entries_exchanged,
    }
}

/// Render the A2 table.
pub fn count_to_infinity_table() -> Table {
    let mut table = Table::new(
        "A2 — Split-horizon ablation: advertisement rounds to purge a dead route (2 gateways)",
        &["split horizon + poison", "rounds to purge", "route entries exchanged"],
    );
    for (label, on) in [("ON (the design)", true), ("OFF (ablated)", false)] {
        let report = run_count_to_infinity(on);
        table.row(vec![
            label.into(),
            report
                .rounds_to_purge
                .map(|r| r.to_string())
                .unwrap_or_else(|| "never (>64)".into()),
            report.entries_exchanged.to_string(),
        ]);
    }
    table.note(
        "Without split horizon the two gateways mutually reassure each other about the \
         dead prefix and count metrics up to 16 one advertisement at a time — the \
         classic counting-to-infinity pathology that makes infinity=16 necessary at \
         all. Expected shape: ON purges in ~1 round; OFF needs ≈ INFINITY rounds and \
         proportionally more chatter.",
    );
    table
}

// ===================================================================
// A3 — Nagle's algorithm
// ===================================================================

/// Render the A3 table.
pub fn nagle_table(seeds: &[u64]) -> Table {
    let mut table = Table::new(
        "A3 — Nagle ablation: 400 × 8 B interactive writes over a 40 ms-RTT channel",
        &["Nagle", "segments", "wire kB", "completion (s)"],
    );
    for (label, nagle) in [("ON (the design)", true), ("OFF (ablated)", false)] {
        let mut segs = 0u64;
        let mut bytes = 0u64;
        let mut time = 0.0f64;
        for &seed in seeds {
            let writes: Vec<Vec<u8>> = (0..400).map(|i| vec![(i % 251) as u8; 8]).collect();
            let report = run_tcp(
                ChannelParams {
                    seed,
                    // A fast typist: one 8-byte write every 5 ms.
                    write_interval: Duration::from_millis(5),
                    ..ChannelParams::default()
                },
                &writes,
                nagle,
                536,
            );
            segs += report.segs_sent;
            bytes += report.wire_bytes;
            time += report.finished_at.secs_f64();
        }
        let n = seeds.len() as f64;
        table.row(vec![
            label.into(),
            format!("{:.0}", segs as f64 / n),
            format!("{:.1}", bytes as f64 / n / 1000.0),
            format!("{:.2}", time / n),
        ]);
    }
    table.note(
        "Nagle's algorithm (1984) is the mechanized form of the paper's small-packet \
         coalescing argument. Expected shape: ON collapses hundreds of tinygrams into \
         a handful of segments at a modest latency cost; OFF ships one header-dominated \
         packet per keystroke.",
    );
    table
}

// ===================================================================
// A4 — source quench
// ===================================================================

/// Outcome of the overload scenario with/without the congestion signal.
#[derive(Debug, Clone, Copy)]
pub struct QuenchReport {
    /// Transfer completed.
    pub completed: bool,
    /// Completion time in seconds (if completed).
    pub duration_s: Option<f64>,
    /// Frames the bottleneck tail-dropped.
    pub queue_drops: u64,
    /// Quenches the gateway emitted.
    pub quenches: u64,
}

/// One sender over a tiny-queue 56 kb/s trunk, with the gateway's
/// source-quench generation enabled or ablated.
pub fn run_quench(seed: u64, quench_enabled: bool) -> QuenchReport {
    let mut net = Network::new(seed);
    let h1 = net.add_host("h1");
    let g = net.add_gateway("g");
    let h2 = net.add_host("h2");
    net.connect(h1, g, LinkClass::EthernetLan);
    net.connect_with(
        g,
        h2,
        LinkParams {
            queue_limit: 4,
            loss: 0.0,
            corruption: 0.0,
            ..LinkClass::ArpanetTrunk.params()
        },
        Framing::RawIp,
    );
    net.node_mut(g).source_quench_enabled = quench_enabled;
    net.converge_routing(Duration::from_secs(30));
    let start = net.now();
    let dst = net.node(h2).primary_addr();
    let config = TcpConfig {
        delayed_ack: None,
        ..TcpConfig::default()
    };
    let sink = SinkServer::new(80, config.clone());
    net.attach_app(h2, Box::new(sink));
    let sender = BulkSender::new(
        Endpoint::new(dst, 80),
        60_000,
        config,
        start + Duration::from_millis(50),
    );
    let result = sender.result_handle();
    net.attach_app(h1, Box::new(sender));
    net.run_for(Duration::from_secs(300));
    let (_, _, _, overflowed) = net.link_totals();
    let result = result.lock().unwrap();
    QuenchReport {
        completed: result.completed_at.is_some(),
        duration_s: result.duration().map(|d| d.secs_f64()),
        queue_drops: overflowed,
        quenches: net.node(g).stats.quench_sent,
    }
}

/// Render the A4 table.
pub fn quench_table(seeds: &[u64]) -> Table {
    let mut table = Table::new(
        "A4 — Source-quench ablation: 60 kB through a 4-packet-queue 56 kb/s trunk",
        &[
            "gateway quench",
            "completed",
            "mean completion (s)",
            "mean queue drops",
            "mean quenches sent",
        ],
    );
    for (label, on) in [("ON (RFC 792)", true), ("OFF (ablated)", false)] {
        let reports: Vec<QuenchReport> = seeds.iter().map(|&s| run_quench(s, on)).collect();
        let n = reports.len() as f64;
        let completed = reports.iter().filter(|r| r.completed).count();
        let mean_time = reports.iter().filter_map(|r| r.duration_s).sum::<f64>()
            / reports.iter().filter(|r| r.duration_s.is_some()).count().max(1) as f64;
        table.row(vec![
            label.into(),
            format!("{completed}/{}", reports.len()),
            format!("{mean_time:.1}"),
            format!("{:.1}", reports.iter().map(|r| r.queue_drops).sum::<u64>() as f64 / n),
            format!("{:.1}", reports.iter().map(|r| r.quenches).sum::<u64>() as f64 / n),
        ]);
    }
    table.note(
        "Source quench was the 1988 architecture's only explicit congestion signal. \
         Expected shape: with quench ON the sender backs off before the RTO, dropping \
         fewer frames at the bottleneck; completion time is similar or better (Tahoe's \
         own loss response already covers much of the benefit — which is WHY quench \
         was eventually retired by RFC 6633).",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collapse_without_cc_is_worse() {
        let none = run_collapse(11, 4, 30_000, CongestionAlgo::None);
        let tahoe = run_collapse(11, 4, 30_000, CongestionAlgo::Tahoe);
        assert!(
            none.retransmits > tahoe.retransmits * 2,
            "none {} vs tahoe {} retransmits",
            none.retransmits,
            tahoe.retransmits
        );
        assert!(
            tahoe.link_efficiency > none.link_efficiency,
            "tahoe {} vs none {}",
            tahoe.link_efficiency,
            none.link_efficiency
        );
        assert_eq!(tahoe.completed, 4, "Tahoe finishes everything");
    }

    #[test]
    fn counting_to_infinity_without_split_horizon() {
        let with = run_count_to_infinity(true);
        let without = run_count_to_infinity(false);
        let with_rounds = with.rounds_to_purge.expect("purges fast");
        assert!(with_rounds <= 3, "split horizon purges in {with_rounds} rounds");
        if let Some(rounds) = without.rounds_to_purge {
            // (None = never purged within the bound: the pathology in full.)
            assert!(rounds >= 5, "counting to infinity took only {rounds} rounds?");
        }
        assert!(without.entries_exchanged > with.entries_exchanged);
    }

    #[test]
    fn nagle_reduces_segments_for_paced_writes() {
        let writes: Vec<Vec<u8>> = (0..200).map(|_| vec![0u8; 8]).collect();
        let paced = ChannelParams {
            write_interval: Duration::from_millis(5),
            ..ChannelParams::default()
        };
        let on = run_tcp(paced, &writes, true, 536);
        let off = run_tcp(paced, &writes, false, 536);
        assert!(on.completed && off.completed, "on={on:?} off={off:?}");
        assert!(
            on.segs_sent * 3 < off.segs_sent,
            "nagle on {} vs off {}",
            on.segs_sent,
            off.segs_sent
        );
        assert!(on.wire_bytes < off.wire_bytes);
    }

    #[test]
    fn quench_reduces_queue_drops() {
        let on = run_quench(11, true);
        let off = run_quench(11, false);
        assert!(on.completed && off.completed);
        assert!(on.quenches > 0);
        assert_eq!(off.quenches, 0);
        assert!(
            on.queue_drops <= off.queue_drops,
            "quench on {} drops vs off {}",
            on.queue_drops,
            off.queue_drops
        );
    }
}
