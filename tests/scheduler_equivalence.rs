//! Differential proof that the timer-wheel scheduler is observably
//! identical to the binary heap it replaced.
//!
//! Every simulation result in this repo rests on the wheel; the heap
//! survives in `catenet-sim` as the reference it is held to. This
//! harness earns that trust three ways:
//!
//! 1. **System level, chaos**: the full E11 survivability gauntlet —
//!    all 15 scenarios across all 5 standard seeds — each run once with
//!    the scheduler recording its op trace, and the trace replayed
//!    through a heap and a wheel side by side
//!    ([`catenet_sim::diffsched::replay_lockstep`]): every popped
//!    `(time, event)` pair must be equal, on the exact schedule/pop
//!    interleaving a live run produced.
//! 2. **System level, routing**: the E12 reconvergence experiment —
//!    every ring size × fault kind — replayed the same way.
//! 3. **Property level**: thousands of seeded random schedule/pop
//!    interleavings driven through both backends in lockstep
//!    ([`catenet_sim::diffsched::run_lockstep`]), which checks every
//!    observable (`peek_time`, `len`, `now`, each popped `(at,
//!    payload)` pair) after every single op — FIFO tie-breaking and
//!    the expired-timer clamp included.
//!
//! A simulation is a deterministic function of the order its scheduler
//! pops events in, so equal pops on a run's own trace mean the heap
//! would have produced the same run — without simulating it twice. If
//! the backends ever diverge, the failure names the trace op, and the
//! loop position names the scenario and seed.

use catenet_bench::e11_gauntlet::{run_with, scenarios};
use catenet_bench::{e12_reconvergence, SEEDS};
use catenet_sim::diffsched::{random_ops, replay_lockstep, run_lockstep};
use catenet_sim::Rng;

/// E11: every gauntlet scenario, every standard seed; each run's trace
/// pops identically from both backends.
#[test]
fn e11_battery_is_bit_identical_across_backends() {
    let (mut pops, mut ties) = (0u64, 0u64);
    for scenario in scenarios() {
        for &seed in SEEDS.iter() {
            eprintln!("e11 scenario={} seed={seed}", scenario.name);
            let (art, trace) = run_with(scenario, seed);
            // Either the transfer finished or it ended with an explicit
            // error — a hung run would make "equal" vacuous.
            assert!(
                art.outcome.completed || art.outcome.aborted,
                "unresolved run: scenario={} seed={seed}",
                scenario.name
            );
            let (p, t) = replay_lockstep(&trace);
            pops += p;
            ties += t;
        }
    }
    // Sanity: the traces were long (1,800,729 pops when written), and
    // FIFO order alone decided some of them (1,235 — link timing is in
    // microseconds with per-link jitter, so live ties are rare; the
    // property test below is where they are dense).
    assert!(pops > 1_500_000, "only {pops} pops across the battery");
    assert!(ties > 1_000, "only {ties} same-instant ties");
}

/// E12: one disruption-then-heal cycle per (ring size, fault kind),
/// each run's trace replayed through both backends.
#[test]
fn e12_reconvergence_is_bit_identical_across_backends() {
    let (mut pops, mut ties) = (0u64, 0u64);
    for &gateways in e12_reconvergence::RING_SIZES.iter() {
        for fault in e12_reconvergence::FaultKind::all() {
            for &seed in &SEEDS[..2] {
                eprintln!("e12 ring={gateways} fault={} seed={seed}", fault.name());
                let (recs, trace) = e12_reconvergence::run_with(gateways, fault, seed);
                assert!(
                    !recs.is_empty(),
                    "no heals measured: ring={gateways} fault={} seed={seed}",
                    fault.name()
                );
                let (p, t) = replay_lockstep(&trace);
                pops += p;
                ties += t;
            }
        }
    }
    // 10,432 pops and 154 ties when written.
    assert!(pops > 10_000, "only {pops} pops across the matrix");
    assert!(ties > 100, "only {ties} same-instant ties");
}

/// Property test: 2400 seeded random interleavings of schedule-after /
/// schedule-at(-in-the-past) / pop, each driven through both backends
/// in lockstep with every observable compared after every op. Workload
/// lengths vary so drain points land at different depths; the
/// distribution is biased toward timer-wheel edge cases (same-instant
/// bursts, far-future overflow, scheduling mid-drain, expired clamps).
#[test]
fn random_interleavings_never_diverge() {
    const CASES: u64 = 2400;
    let mut total_pops = 0u64;
    for case in 0..CASES {
        let mut rng = Rng::from_seed(0x5EED_D1FF_0000_0000 | case);
        let len = 80 + (case as usize % 9) * 35;
        let ops = random_ops(&mut rng, len);
        let (pops, fingerprint) = run_lockstep(&ops);
        total_pops += pops;
        // Replaying the identical workload must reproduce the identical
        // pop sequence — spot-checked on a slice of cases to keep the
        // suite fast.
        if case % 240 == 0 {
            assert_eq!(
                run_lockstep(&ops),
                (pops, fingerprint),
                "case {case} is not deterministic"
            );
        }
    }
    // Sanity: the property wasn't satisfied vacuously.
    assert!(total_pops > 100_000, "only {total_pops} pops across all cases");
}
