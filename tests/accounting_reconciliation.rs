//! Proptest-style (seeded, reproducible) properties of the accounting
//! subsystem's crash reconciliation.
//!
//! Clark lists accountability as the *least* important goal of the 1988
//! architecture and the paper admits the resulting tooling is weak:
//! gateways meter datagrams, not bills, and a gateway reboot wipes
//! whatever its ledger held. The accounting crate's answer is an
//! explicit conservation law — every byte a ledger ever records ends up
//! in exactly one of three buckets: a flushed report, a crash-forfeited
//! tail, or the live in-memory tail. These tests drive randomized
//! record/flush/crash schedules (pure data-structure level) and
//! randomized crash storms (full simulator level) against that law.
//!
//! Each case derives its RNG from the printed case number alone, so a
//! failure reproduces from the assertion message.

use catenet::accounting::ledger::Ledger;
use catenet::accounting::report::ReportCollector;
use catenet::ip::build_ipv4;
use catenet::sim::Rng;
use catenet::stack::ShardKind;
use catenet::wire::{IpProtocol, Ipv4Address, Ipv4Repr, Tos};
use catenet_bench::e16_accountability::{run_reconcile, run_reconcile_barrier_crash};

/// A well-formed datagram of a raw (non-TCP, non-UDP) protocol, so the
/// ledger's payload accounting is exactly the IP payload length.
fn raw_datagram(rng: &mut Rng) -> (Vec<u8>, u64) {
    let payload: Vec<u8> = (0..rng.range(1, 200)).map(|_| rng.below(256) as u8).collect();
    let repr = Ipv4Repr {
        // A handful of sources and two destinations, so accounts merge.
        src_addr: Ipv4Address::new(10, 0, 0, rng.range(1, 5) as u8),
        dst_addr: Ipv4Address::new(10, 9, 0, rng.range(1, 3) as u8),
        protocol: IpProtocol::from(99),
        payload_len: payload.len(),
        hop_limit: 32,
        tos: Tos(0),
    };
    let len = payload.len() as u64;
    (build_ipv4(&repr, rng.below(65_536) as u16, false, &payload), len)
}

/// Conservation across arbitrary record/flush/crash schedules: flushed
/// reports + forfeited tails + the live tail account for every packet
/// and every payload byte the ledger ever recorded — and the per-epoch
/// report sequence has no gaps the collector can't explain.
#[test]
fn randomized_schedules_conserve_every_recorded_byte() {
    for case in 0..64u64 {
        let mut rng = Rng::for_case("conserve", case);
        let mut ledger = Ledger::new();
        let mut collector = ReportCollector::new();
        let (mut packets, mut payload, mut garbage) = (0u64, 0u64, 0u64);
        let mut crashes = 0u64;

        for _ in 0..rng.range(50, 300) {
            match rng.below(100) {
                // Record a well-formed datagram.
                0..=69 => {
                    let (datagram, len) = raw_datagram(&mut rng);
                    ledger.record(&datagram);
                    packets += 1;
                    payload += len;
                }
                // Record garbage: too short to parse, lands in the
                // unattributed tally rather than vanishing.
                70..=79 => {
                    ledger.record(&[0x45, 0x00]);
                    garbage += 1;
                }
                // Periodic flush into the administration's collector.
                80..=89 => {
                    if let Some(report) = ledger.flush("gw") {
                        collector.absorb(report);
                    }
                }
                // Crash: the oracle captures the tail at the crash
                // instant, then the reboot wipes the ledger.
                _ => {
                    if let Some(tail) = ledger.peek_tail("gw") {
                        collector.forfeit(tail);
                    }
                    ledger.clear();
                    crashes += 1;
                }
            }
        }

        let rec = collector.reconcile(ledger.peek_tail("gw"));
        let totals = rec.gateway("gw");
        let (got_packets, got_payload, got_garbage) = totals
            .map(|t| (t.total_packets(), t.total_payload_bytes(), t.unattributed))
            .unwrap_or((0, 0, 0));
        assert_eq!(got_packets, packets, "case {case}: packets leaked");
        assert_eq!(got_payload, payload, "case {case}: payload bytes leaked");
        assert_eq!(got_garbage, garbage, "case {case}: unattributed leaked");
        assert!(
            collector.missing_seqs("gw").is_empty(),
            "case {case}: unexplained report gap"
        );
        if let Some(t) = totals {
            assert!(
                t.max_epoch <= crashes,
                "case {case}: epoch {} outran {crashes} crashes",
                t.max_epoch
            );
        }
    }
}

/// The end-to-end bound under randomized crash storms, on seeds the E16
/// battery never uses: for every gateway on the path, reconciled
/// payload sits between receiver goodput and sender transmissions —
/// crash-forfeited tails included — and the transfer itself survives
/// (fate-sharing: the endpoints own the state that matters).
#[test]
fn crash_storms_respect_the_retransmission_inflation_bound() {
    for seed in [5u64, 19, 101] {
        let r = run_reconcile(seed, true);
        assert!(r.faults > 0, "seed {seed}: storm never fired");
        assert!(r.bounds_hold, "seed {seed}: {r:?}");
        assert!(r.completed, "seed {seed}: transfer did not survive the storm");
        assert!(
            r.goodput <= r.sent,
            "seed {seed}: goodput {} over sent {}",
            r.goodput,
            r.sent
        );
    }
}

/// A crash landing *exactly* on a ledger-flush instant — which in
/// sharded execution is also a coordinator barrier — must forfeit the
/// identical ledger tail under K=1 and K>1. Faults apply before
/// flushes at a shared instant (a power cut does not wait for
/// bookkeeping), and that fault→sample→flush ordering is the likeliest
/// thing lane windows could break: a lane that ran its window past the
/// barrier before the crash applied would let the flush report bytes
/// the crash should have forfeited. Seeded, so a failure names the
/// (seed, K) pair that reproduces it.
#[test]
fn barrier_instant_crash_forfeits_the_same_tail_at_every_shard_count() {
    for seed in [11u64, 19, 101] {
        let (reference, ref_dumps) = run_reconcile_barrier_crash(seed, ShardKind::Single);
        assert_eq!(reference.faults, 2, "seed {seed}: crash + restart applied");
        assert!(reference.mid_epochs >= 1, "seed {seed}: the ledger saw the crash");
        assert!(
            reference.forfeited >= 1,
            "seed {seed}: the colliding flush must lose to the crash — \
             the tail is forfeited, not reported: {reference:?}"
        );
        assert!(reference.bounds_hold, "seed {seed}: {reference:?}");
        for shards in [2usize, 5] {
            let (sharded, dumps) =
                run_reconcile_barrier_crash(seed, ShardKind::Sharded { shards });
            assert_eq!(
                reference, sharded,
                "seed {seed} shards={shards}: books diverged at the barrier"
            );
            assert_eq!(
                ref_dumps, dumps,
                "seed {seed} shards={shards}: telemetry diverged at the barrier"
            );
        }
    }
}

/// With no faults the books agree across administrative boundaries: all
/// three gateways report identical byte counts, within one warm-up
/// retransmission of goodput, and nothing is forfeited.
#[test]
fn clean_runs_reconcile_across_gateways() {
    let r = run_reconcile(7, false);
    assert!(r.completed && r.bounds_hold, "{r:?}");
    assert!(
        r.reconciled.iter().all(|&c| c == r.reconciled[0]),
        "gateways disagree: {:?}",
        r.reconciled
    );
    assert!(r.reconciled[0] - r.goodput <= 2 * 536, "{r:?}");
    assert_eq!(r.forfeited, 0, "{r:?}");
}
