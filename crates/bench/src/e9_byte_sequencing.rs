//! E9 — Byte sequencing vs packet sequencing (paper, "TCP" section).
//!
//! **Claim.** "TCP was originally designed to \[sequence\] packets ...
//! \[switching to bytes\] permits the packets to be broken up and
//! repacketized ... and permits a number of small packets to be gathered
//! together into one." The paper recounts this as a hard-won design
//! decision; this experiment prices the alternative.
//!
//! **Experiment.** Two workloads cross an identical seeded lossy channel
//! (see [`crate::channel`]) under both transports:
//!
//! - **tinygrams**: many small application writes (remote-login style).
//!   Byte sequencing (with Nagle) coalesces them; packet sequencing must
//!   carry one packet per write forever.
//! - **lossy bulk**: fixed-size writes under loss. Byte sequencing may
//!   repacketize on retransmission; packet sequencing retransmits the
//!   original packets only.

use crate::channel::{run_pktseq, run_tcp, ChannelParams, TransferReport};
use crate::table::Table;

/// Both transports' reports for one workload.
#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    /// TCP (byte sequencing).
    pub tcp: TransferReport,
    /// The packet-sequenced baseline.
    pub pktseq: TransferReport,
}

/// Tinygram workload: `count` writes of `size` bytes.
pub fn run_tinygrams(seed: u64, count: usize, size: usize, loss: f64) -> Comparison {
    let writes: Vec<Vec<u8>> = (0..count).map(|i| vec![(i % 251) as u8; size]).collect();
    let params = ChannelParams {
        loss,
        seed,
        ..ChannelParams::default()
    };
    Comparison {
        tcp: run_tcp(params, &writes, true, 536),
        pktseq: run_pktseq(params, &writes, 8),
    }
}

/// Bulk workload under loss: `count` writes of 512 bytes.
pub fn run_lossy_bulk(seed: u64, count: usize, loss: f64) -> Comparison {
    let writes: Vec<Vec<u8>> = (0..count).map(|i| vec![(i % 251) as u8; 512]).collect();
    let params = ChannelParams {
        loss,
        seed,
        ..ChannelParams::default()
    };
    Comparison {
        tcp: run_tcp(params, &writes, true, 536),
        pktseq: run_pktseq(params, &writes, 8),
    }
}

/// Render the paper table.
pub fn default_table(seeds: &[u64]) -> Table {
    let mut table = Table::new(
        "E9 — Byte vs packet sequencing over an identical lossy channel (40 ms RTT)",
        &[
            "workload",
            "transport",
            "segments sent",
            "wire kB",
            "retransmits",
            "completion (s)",
        ],
    );
    let mut emit = |workload: &str, label: &str, reports: &[TransferReport]| {
        let n = reports.len() as f64;
        let mean_u = |f: fn(&TransferReport) -> u64| reports.iter().map(f).sum::<u64>() as f64 / n;
        let mean_t = reports
            .iter()
            .map(|r| r.finished_at.secs_f64())
            .sum::<f64>()
            / n;
        let all_done = reports.iter().all(|r| r.completed);
        table.row(vec![
            workload.into(),
            label.into(),
            format!("{:.0}", mean_u(|r| r.segs_sent)),
            format!("{:.1}", mean_u(|r| r.wire_bytes) / 1000.0),
            format!("{:.0}", mean_u(|r| r.retransmits)),
            if all_done {
                format!("{mean_t:.2}")
            } else {
                "DNF".into()
            },
        ]);
    };
    // Tinygrams, lossless: pure coalescing comparison.
    let tiny: Vec<Comparison> = seeds
        .iter()
        .map(|&seed| run_tinygrams(seed, 400, 8, 0.0))
        .collect();
    emit(
        "400 × 8 B writes, 0% loss",
        "TCP bytes (paper)",
        &tiny.iter().map(|c| c.tcp).collect::<Vec<_>>(),
    );
    emit(
        "400 × 8 B writes, 0% loss",
        "pkt-seq (baseline)",
        &tiny.iter().map(|c| c.pktseq).collect::<Vec<_>>(),
    );
    // Bulk under loss: retransmission efficiency.
    for loss in [0.05, 0.15] {
        let bulk: Vec<Comparison> = seeds
            .iter()
            .map(|&seed| run_lossy_bulk(seed, 200, loss))
            .collect();
        let label = format!("200 × 512 B writes, {:.0}% loss", loss * 100.0);
        emit(
            &label,
            "TCP bytes (paper)",
            &bulk.iter().map(|c| c.tcp).collect::<Vec<_>>(),
        );
        emit(
            &label,
            "pkt-seq (baseline)",
            &bulk.iter().map(|c| c.pktseq).collect::<Vec<_>>(),
        );
    }
    table.note(
        "Paper's claim: byte sequencing 'permits a number of small packets to be \
         gathered together into one' and repacketization on retransmit. Expected \
         shape: on tinygrams TCP sends far fewer segments and wire bytes; under loss \
         TCP's window+coalescing finish faster at comparable wire cost.",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_sequencing_wins_tinygrams() {
        let c = run_tinygrams(11, 300, 8, 0.0);
        assert!(c.tcp.completed && c.pktseq.completed);
        assert!(
            c.tcp.segs_sent * 4 < c.pktseq.segs_sent,
            "tcp {} vs pktseq {} segments",
            c.tcp.segs_sent,
            c.pktseq.segs_sent
        );
        assert!(c.tcp.wire_bytes < c.pktseq.wire_bytes);
    }

    #[test]
    fn both_complete_lossy_bulk() {
        let c = run_lossy_bulk(11, 100, 0.10);
        assert!(c.tcp.completed, "tcp finished");
        assert!(c.pktseq.completed, "pktseq finished");
        assert!(c.tcp.retransmits > 0 && c.pktseq.retransmits > 0);
    }
}
