//! E2 — Types of service: why TCP and IP had to split (paper §4, goal 2).
//!
//! **Claim.** "It was felt that ... reliable, sequenced delivery ...
//! \[is\] too restrictive ... the most important example ... is real time
//! delivery of digitized speech ... it is preferable to lose an
//! occasional packet than to wait for retransmission." Hence the TCP/IP
//! split and UDP.
//!
//! **Experiment.** A 64 kbit/s voice stream (160-byte frames every
//! 20 ms) crosses a lossy T1 dumbbell twice: once over UDP (the
//! architecture's answer) and once inside a TCP stream (the rejected
//! single-service world). We report per-frame delivery-latency
//! percentiles and loss. UDP loses a few frames and keeps its latency;
//! TCP loses none but stalls every frame behind each retransmission
//! (head-of-line blocking), which for voice is strictly worse.

use crate::table::Table;
use catenet_core::app::{CbrSink, CbrSource, TcpVoiceSink, TcpVoiceSource};
use catenet_core::iface::Framing;
use catenet_core::{Endpoint, Network, TcpConfig};
use catenet_sim::{Duration, LinkParams, Summary};
use std::sync::Arc;

/// Measured delivery behavior of one transport arm.
#[derive(Debug, Clone)]
pub struct VoiceReport {
    /// Frames handed to the transport.
    pub sent: u64,
    /// Frames delivered to the listener.
    pub received: u64,
    /// Delivery latency distribution (ms).
    pub latency_ms: Summary,
}

impl VoiceReport {
    /// Fraction of frames lost (never delivered).
    pub fn loss_fraction(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        1.0 - (self.received as f64 / self.sent as f64)
    }
}

fn lossy_t1(loss: f64) -> LinkParams {
    LinkParams {
        loss,
        ..catenet_sim::LinkClass::T1Terrestrial.params()
    }
}

fn voice_net(seed: u64, loss: f64) -> (Network, usize, usize) {
    let mut net = Network::new(seed);
    let h1 = net.add_host("talker");
    let g1 = net.add_gateway("g1");
    let g2 = net.add_gateway("g2");
    let h2 = net.add_host("listener");
    net.connect(h1, g1, catenet_sim::LinkClass::EthernetLan);
    net.connect_with(g1, g2, lossy_t1(loss), Framing::RawIp);
    net.connect(g2, h2, catenet_sim::LinkClass::EthernetLan);
    net.converge_routing(Duration::from_secs(60));
    (net, h1, h2)
}

/// Voice over UDP: the architecture's datagram service.
pub fn run_udp(seed: u64, loss: f64, seconds: u64) -> VoiceReport {
    let (mut net, h1, h2) = voice_net(seed, loss);
    let dst = net.node(h2).primary_addr();
    let start = net.now();
    let sink = CbrSink::new(5004);
    let latencies = Arc::clone(&sink.latencies_ms);
    let received = Arc::clone(&sink.received);
    net.attach_app(h2, Box::new(sink));
    let source = CbrSource::new(
        Endpoint::new(dst, 5004),
        Duration::from_millis(20),
        160,
        start + Duration::from_millis(100),
        start + Duration::from_secs(seconds),
    );
    let sent = Arc::clone(&source.sent);
    net.attach_app(h1, Box::new(source));
    net.run_until(start + Duration::from_secs(seconds + 3));
    let sent = *sent.lock().unwrap();
    let received = *received.lock().unwrap();
    let latency_ms = latencies.lock().unwrap().clone();
    VoiceReport {
        sent,
        received,
        latency_ms,
    }
}

/// Voice inside TCP: the rejected single-service world.
pub fn run_tcp(seed: u64, loss: f64, seconds: u64) -> VoiceReport {
    let (mut net, h1, h2) = voice_net(seed, loss);
    let dst = net.node(h2).primary_addr();
    let start = net.now();
    let config = TcpConfig {
        nagle: false, // give TCP its best shot at low latency
        delayed_ack: None,
        ..TcpConfig::default()
    };
    let sink = TcpVoiceSink::new(5005, 160, config.clone());
    let latencies = Arc::clone(&sink.latencies_ms);
    let received = Arc::clone(&sink.received);
    net.attach_app(h2, Box::new(sink));
    let source = TcpVoiceSource::new(
        Endpoint::new(dst, 5005),
        Duration::from_millis(20),
        160,
        config,
        start + Duration::from_millis(100),
        start + Duration::from_secs(seconds),
    );
    let sent = Arc::clone(&source.sent);
    net.attach_app(h1, Box::new(source));
    net.run_until(start + Duration::from_secs(seconds + 10));
    let sent = *sent.lock().unwrap();
    let received = *received.lock().unwrap();
    let latency_ms = latencies.lock().unwrap().clone();
    VoiceReport {
        sent,
        received,
        latency_ms,
    }
}

/// Render the paper table across loss rates.
pub fn default_table(seeds: &[u64]) -> Table {
    let mut table = Table::new(
        "E2 — Types of service: 64 kbit/s voice over UDP vs TCP (T1 path, 20 s of speech)",
        &[
            "link loss",
            "transport",
            "frames lost",
            "p50 latency (ms)",
            "p95 (ms)",
            "p99 (ms)",
            "max (ms)",
        ],
    );
    for loss in [0.01, 0.03] {
        for (name, runner) in [
            ("UDP (paper)", run_udp as fn(u64, f64, u64) -> VoiceReport),
            ("TCP (baseline)", run_tcp as fn(u64, f64, u64) -> VoiceReport),
        ] {
            // Pool latencies across seeds.
            let mut pooled = Summary::new();
            let mut sent = 0u64;
            let mut received = 0u64;
            for &seed in seeds {
                let report = runner(seed, loss, 20);
                sent += report.sent;
                received += report.received;
                for &v in report.latency_ms.values() {
                    pooled.record(v);
                }
            }
            let loss_pct = 100.0 * (1.0 - received as f64 / sent.max(1) as f64);
            table.row(vec![
                format!("{:.0}%", loss * 100.0),
                name.into(),
                format!("{loss_pct:.2}%"),
                format!("{:.1}", pooled.median()),
                format!("{:.1}", pooled.percentile(0.95)),
                format!("{:.1}", pooled.percentile(0.99)),
                format!("{:.1}", pooled.max()),
            ]);
        }
    }
    table.note(
        "Paper's claim: reliable sequenced delivery is the wrong service for speech — \
         better to lose a frame than to wait for its retransmission. Expected shape: \
         UDP loses ≈ the link loss rate but keeps a flat latency tail; TCP loses \
         nothing but its p95/p99 latency explodes with head-of-line blocking.",
    );
    table
}

/// Small configuration for the quick-run benchmark.
pub fn quick(seed: u64) -> (VoiceReport, VoiceReport) {
    (run_udp(seed, 0.02, 5), run_tcp(seed, 0.02, 5))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn udp_keeps_latency_flat_and_loses_a_little() {
        let report = run_udp(11, 0.02, 10);
        assert!(report.sent >= 490, "sent {}", report.sent);
        let loss = report.loss_fraction();
        assert!(loss > 0.0 && loss < 0.10, "loss {loss}");
        // p99 within a couple frame-times of the median: no HoL blocking.
        assert!(
            report.latency_ms.percentile(0.99) < report.latency_ms.median() + 50.0,
            "p99 {} vs median {}",
            report.latency_ms.percentile(0.99),
            report.latency_ms.median()
        );
    }

    #[test]
    fn tcp_delivers_everything_but_stalls() {
        let udp = run_udp(11, 0.03, 10);
        let tcp = run_tcp(11, 0.03, 10);
        // TCP delivers (nearly) all frames...
        assert!(
            tcp.received as f64 >= tcp.sent as f64 * 0.98,
            "tcp delivered {}/{}",
            tcp.received,
            tcp.sent
        );
        // ...but its tail latency is far worse than UDP's.
        assert!(
            tcp.latency_ms.percentile(0.99) > udp.latency_ms.percentile(0.99) * 2.0,
            "tcp p99 {} vs udp p99 {}",
            tcp.latency_ms.percentile(0.99),
            udp.latency_ms.percentile(0.99)
        );
    }
}
