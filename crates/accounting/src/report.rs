//! Usage reports across administrative boundaries.
//!
//! Clark §9 wants accountability between *administrations*, not inside
//! one box. The pieces here model that boundary: each gateway
//! periodically [`flush`](crate::Ledger::flush)es its volatile ledger
//! into a [`GatewayReport`] and hands it to a [`ReportCollector`] that
//! belongs to the administration, not the gateway — so a gateway crash
//! loses at most one unflushed period, never the reports already
//! delivered.
//!
//! The collector distinguishes three fates for a recorded byte:
//!
//! 1. **Attributed** — flushed in a normal periodic report.
//! 2. **Forfeited** — recorded, but the gateway crashed before the next
//!    flush. The simulator captures the dying ledger's tail at the
//!    crash instant (an omniscient-oracle convenience a real network
//!    buys with battery-backed counters or a neighbor's estimate).
//! 3. **Unattributed** — carried but unparseable; counted, not keyed.
//!
//! [`Reconciliation`] merges all three into a network-wide view with a
//! conservation identity: for every gateway,
//! `attributed + forfeited (+ live tail, if supplied) = everything that
//! gateway ever recorded`, epoch by epoch, with no byte in two buckets.

use crate::ledger::{Account, AccountKey};
use catenet_wire::{IpProtocol, Ipv4Address};
use std::collections::{BTreeMap, BTreeSet};

/// One flushed (or forfeited) accounting period from one gateway.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatewayReport {
    /// Reporting gateway's name — the administrative identity.
    pub gateway: String,
    /// Crash epoch the period was recorded in.
    pub epoch: u64,
    /// Per-gateway report sequence number (monotone across epochs).
    pub seq: u64,
    /// Accounts recorded this period, in deterministic sorted order.
    pub accounts: Vec<(AccountKey, Account)>,
    /// Datagrams carried but unparseable this period.
    pub unattributed: u64,
}

impl GatewayReport {
    /// Total transport-payload bytes in this report.
    pub fn payload_bytes(&self) -> u64 {
        self.accounts.iter().map(|(_, a)| a.payload_bytes).sum()
    }

    /// Total datagrams in this report.
    pub fn packets(&self) -> u64 {
        self.accounts.iter().map(|(_, a)| a.packets).sum()
    }
}

/// The administration's mailbox for gateway reports.
#[derive(Debug, Default)]
pub struct ReportCollector {
    flushed: Vec<GatewayReport>,
    forfeited: Vec<GatewayReport>,
}

impl ReportCollector {
    /// An empty collector.
    pub fn new() -> ReportCollector {
        ReportCollector::default()
    }

    /// Accept a periodic report flushed by a live gateway.
    pub fn absorb(&mut self, report: GatewayReport) {
        self.flushed.push(report);
    }

    /// Capture the tail a crashing gateway was about to lose.
    pub fn forfeit(&mut self, report: GatewayReport) {
        self.forfeited.push(report);
    }

    /// Number of periodic reports received.
    pub fn flushed_count(&self) -> usize {
        self.flushed.len()
    }

    /// Number of crash-forfeited tails captured.
    pub fn forfeited_count(&self) -> usize {
        self.forfeited.len()
    }

    /// Sequence numbers missing from a gateway's flushed report stream
    /// (gaps mean a report was lost in transit — distinct from a crash,
    /// which forfeits a period *before* it gets a number... except the
    /// captured tail keeps its seq, so crashes leave no gap either).
    pub fn missing_seqs(&self, gateway: &str) -> Vec<u64> {
        let mut seen: Vec<u64> = self
            .flushed
            .iter()
            .chain(&self.forfeited)
            .filter(|r| r.gateway == gateway)
            .map(|r| r.seq)
            .collect();
        seen.sort_unstable();
        match seen.last() {
            None => Vec::new(),
            Some(&last) => (0..=last).filter(|seq| !seen.contains(seq)).collect(),
        }
    }

    /// Merge everything collected (plus any live, unflushed tails the
    /// caller peeked from still-running gateways) into one network-wide
    /// reconciliation.
    pub fn reconcile<I>(&self, live_tails: I) -> Reconciliation
    where
        I: IntoIterator<Item = GatewayReport>,
    {
        let mut rec = Reconciliation::default();
        for report in &self.flushed {
            rec.merge(report, Bucket::Attributed);
        }
        for report in &self.forfeited {
            rec.merge(report, Bucket::Forfeited);
        }
        for report in live_tails {
            rec.merge(&report, Bucket::Attributed);
        }
        rec
    }
}

enum Bucket {
    Attributed,
    Forfeited,
}

/// Per-gateway merged totals inside a [`Reconciliation`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct GatewayTotals {
    /// Accounts from periodic reports and live tails.
    pub attributed: BTreeMap<AccountKey, Account>,
    /// Accounts from crash-forfeited tails.
    pub forfeited: BTreeMap<AccountKey, Account>,
    /// Unparseable-datagram count across all buckets.
    pub unattributed: u64,
    /// Highest epoch seen — how many times this gateway crashed, plus
    /// error if reports are missing.
    pub max_epoch: u64,
    /// Number of report periods merged.
    pub periods: u64,
}

impl GatewayTotals {
    /// The carried account for a key, attributed and forfeited combined
    /// — "every carried byte lands somewhere".
    pub fn carried(&self, key: &AccountKey) -> Account {
        let mut total = self.attributed.get(key).copied().unwrap_or_default();
        if let Some(f) = self.forfeited.get(key) {
            total.absorb(f);
        }
        total
    }

    /// Transport-payload bytes carried between two hosts for a protocol,
    /// both directions, attributed and forfeited combined.
    pub fn conversation_payload(
        &self,
        a: Ipv4Address,
        b: Ipv4Address,
        protocol: IpProtocol,
    ) -> u64 {
        let protocol = u8::from(protocol);
        let one = |src, dst| {
            self.carried(&AccountKey {
                src,
                dst,
                protocol,
            })
            .payload_bytes
        };
        one(a, b) + one(b, a)
    }

    /// Total payload bytes this gateway carried (all keys, both buckets).
    pub fn total_payload_bytes(&self) -> u64 {
        self.attributed
            .values()
            .chain(self.forfeited.values())
            .map(|a| a.payload_bytes)
            .sum()
    }

    /// Total datagrams this gateway carried (all keys, both buckets).
    pub fn total_packets(&self) -> u64 {
        self.attributed
            .values()
            .chain(self.forfeited.values())
            .map(|a| a.packets)
            .sum()
    }
}

/// The network-wide merge of every report: who carried what for whom.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Reconciliation {
    /// Per-gateway totals, in deterministic (name) order.
    pub gateways: BTreeMap<String, GatewayTotals>,
}

impl Reconciliation {
    fn merge(&mut self, report: &GatewayReport, bucket: Bucket) {
        let totals = self.gateways.entry(report.gateway.clone()).or_default();
        let side = match bucket {
            Bucket::Attributed => &mut totals.attributed,
            Bucket::Forfeited => &mut totals.forfeited,
        };
        for (key, account) in &report.accounts {
            side.entry(*key).or_default().absorb(account);
        }
        totals.unattributed += report.unattributed;
        totals.max_epoch = totals.max_epoch.max(report.epoch);
        totals.periods += 1;
    }

    /// Totals for one gateway, if it ever reported.
    pub fn gateway(&self, name: &str) -> Option<&GatewayTotals> {
        self.gateways.get(name)
    }

    /// Every origin (source address) that appears in any account — the
    /// parties a bill could be sent to.
    pub fn origins(&self) -> BTreeSet<Ipv4Address> {
        self.gateways
            .values()
            .flat_map(|g| {
                g.attributed
                    .keys()
                    .chain(g.forfeited.keys())
                    .map(|k| k.src)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::Ledger;
    use catenet_ip::build_ipv4;
    use catenet_wire::{Ipv4Repr, Tos};

    const A: Ipv4Address = Ipv4Address::new(10, 0, 0, 1);
    const B: Ipv4Address = Ipv4Address::new(10, 9, 0, 1);

    fn dgram(src: Ipv4Address, dst: Ipv4Address, len: usize) -> Vec<u8> {
        build_ipv4(
            &Ipv4Repr {
                src_addr: src,
                dst_addr: dst,
                protocol: IpProtocol::Udp,
                payload_len: len,
                hop_limit: 64,
                tos: Tos::default(),
            },
            0,
            false,
            &vec![0u8; len],
        )
    }

    #[test]
    fn conservation_across_flush_crash_and_tail() {
        let mut ledger = Ledger::new();
        let mut collector = ReportCollector::new();
        let total = |n: u64| n; // readability

        // Period 1: flushed normally.
        ledger.record(&dgram(A, B, 100));
        ledger.record(&dgram(A, B, 100));
        collector.absorb(ledger.flush("g1").unwrap());

        // Period 2: recorded, then the gateway crashes. The oracle
        // captures the tail before clear() wipes it.
        ledger.record(&dgram(A, B, 100));
        collector.forfeit(ledger.peek_tail("g1").unwrap());
        ledger.clear();

        // Period 3 (new epoch): still unflushed at reconcile time.
        ledger.record(&dgram(B, A, 50));
        let live = ledger.peek_tail("g1");

        let rec = collector.reconcile(live);
        let g1 = rec.gateway("g1").expect("g1 reported");
        // Conservation: 4 datagrams recorded, 4 datagrams land.
        assert_eq!(g1.total_packets(), total(4));
        // Payload: 3 × 92 A→B + 1 × 42 B→A, split across buckets.
        assert_eq!(g1.total_payload_bytes(), 3 * 92 + 42);
        assert_eq!(
            g1.conversation_payload(A, B, IpProtocol::Udp),
            3 * 92 + 42
        );
        let forfeited: u64 = g1.forfeited.values().map(|a| a.payload_bytes).sum();
        assert_eq!(forfeited, 92, "exactly the crashed period's tail");
        assert_eq!(g1.max_epoch, 1, "the crash is visible in the epochs");
        assert_eq!(rec.origins(), BTreeSet::from([A, B]));
    }

    #[test]
    fn missing_seq_detection() {
        let mut ledger = Ledger::new();
        let mut collector = ReportCollector::new();
        for _ in 0..3 {
            ledger.record(&dgram(A, B, 10));
            collector.absorb(ledger.flush("g1").unwrap());
        }
        assert_eq!(collector.missing_seqs("g1"), Vec::<u64>::new());
        // Drop the middle report (lost in transit, say).
        let mut lossy = ReportCollector::new();
        ledger.record(&dgram(A, B, 10));
        let keep = ledger.flush("g1").unwrap(); // seq 3
        ledger.record(&dgram(A, B, 10));
        let _lost = ledger.flush("g1").unwrap(); // seq 4, never absorbed
        ledger.record(&dgram(A, B, 10));
        let last = ledger.flush("g1").unwrap(); // seq 5
        lossy.absorb(keep);
        lossy.absorb(last);
        assert_eq!(lossy.missing_seqs("g1"), vec![0, 1, 2, 4]);
    }

    #[test]
    fn gateways_merge_independently() {
        let mut g1 = Ledger::new();
        let mut g2 = Ledger::new();
        let mut collector = ReportCollector::new();
        g1.record(&dgram(A, B, 100));
        g2.record(&dgram(A, B, 100));
        collector.absorb(g1.flush("g1").unwrap());
        collector.absorb(g2.flush("g2").unwrap());
        let rec = collector.reconcile(None);
        assert_eq!(rec.gateways.len(), 2);
        // Both gateways on the path saw the same conversation: their
        // independent books agree — that is the administrative check.
        assert_eq!(
            rec.gateway("g1").unwrap().total_payload_bytes(),
            rec.gateway("g2").unwrap().total_payload_bytes(),
        );
    }
}
