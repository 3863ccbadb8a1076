//! Differential testing of the timer wheel against its reference.
//!
//! Every simulation runs on the timer wheel; the `BinaryHeap` backend
//! it replaced is kept for one job, as the reference the wheel is
//! tested against here. The wheel only earns its place if it is
//! *observably identical* to that heap — same pop order, same
//! timestamps, same FIFO tie-breaking, same clamp behavior, on any
//! interleaving of schedules and pops. This module is the machinery
//! for proving that:
//!
//! - [`Op`] / [`random_ops`] — a randomized schedule/pop workload,
//!   biased toward the pathological cases (bursts at one instant,
//!   far-future timers, scheduling while draining).
//! - [`run_lockstep`] — drive one heap and one wheel scheduler through
//!   the same op sequence, asserting every observable matches at every
//!   step. Returns a fingerprint of the merged pop sequence so callers
//!   can also pin cross-run determinism.
//! - [`replay_lockstep`] — the same side-by-side comparison driven by
//!   a [`TraceOp`] log captured from a live simulation: the system-level
//!   half of the proof, on the exact event mix a real run produced,
//!   without simulating anything twice.
//! - [`replay_trace`] — replay such a log against one chosen backend;
//!   E13 wall-clocks this to compare substrate throughput.
//!
//! `tests/scheduler_equivalence.rs` runs [`run_lockstep`] on thousands
//! of seeded random workloads and [`replay_lockstep`] on the traces of
//! the full E11/E12 batteries.
//!
//! Schedulers only. The lane barrier protocol is checked on the engine
//! that runs it: `catenet-core`'s `Network::absorb` asserts its safety
//! property on every crossing frame in debug builds, and
//! `tests/shard_equivalence.rs` compares randomized topologies at
//! several lane counts against one lane, dump for dump.

use crate::event::{Scheduler, SchedulerKind, TraceOp};
use crate::rng::Rng;
use crate::time::{Duration, Instant};

/// One step of a differential workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Schedule a payload this many microseconds after the current
    /// virtual time (clamping applies if a pop moved `now` past it).
    Schedule {
        /// Delay in microseconds from the time the op executes.
        delay: u64,
    },
    /// Schedule a payload at an *absolute* time, possibly in the past,
    /// to exercise the expired-timer clamp path.
    ScheduleAt {
        /// Absolute virtual time in microseconds.
        at: u64,
    },
    /// Pop the earliest pending event (a no-op when empty).
    Pop,
}

/// Generate a random op sequence of length `len`.
///
/// The distribution is deliberately adversarial for a timer wheel:
/// roughly half of schedules land inside a small window (forcing dense
/// slots and same-instant ties), a slice lands thousands of windows out
/// (forcing overflow paging), and absolute-time schedules aim at or
/// before `now` (forcing the clamp path to interleave with fresh
/// events).
pub fn random_ops(rng: &mut Rng, len: usize) -> Vec<Op> {
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let roll = rng.range(0, 100);
        let op = if roll < 35 {
            // Dense near-future: lots of collisions at few instants.
            Op::Schedule {
                delay: rng.range(0, 50),
            }
        } else if roll < 50 {
            // Mid-range within a window or two.
            Op::Schedule {
                delay: rng.range(0, 40_000),
            }
        } else if roll < 58 {
            // Far future: overflow buckets, many windows skipped.
            Op::Schedule {
                delay: rng.range(1 << 20, 1 << 26),
            }
        } else if roll < 65 {
            // Absolute times clustered near zero: mostly clamped once
            // pops advance the clock.
            Op::ScheduleAt {
                at: rng.range(0, 2_000),
            }
        } else {
            Op::Pop
        };
        ops.push(op);
    }
    // Always drain fully at the end so every scheduled event is
    // compared, not just the prefix the random pops reached.
    ops.resize(ops.len() + len, Op::Pop);
    ops
}

/// Drive a heap scheduler and a wheel scheduler through `ops` in
/// lockstep, panicking on the first observable divergence.
///
/// Observables compared at every step: `peek_time`, `len`, `now`, and
/// for each pop the `(time, payload)` pair. Payloads are the op index
/// that scheduled them, so a FIFO violation (not just a time-order
/// violation) flips the payload and is caught. Returns
/// `(pops, fingerprint)` — a count and an order-sensitive FNV-style
/// hash of the pop sequence, for cross-run determinism checks.
pub fn run_lockstep(ops: &[Op]) -> (u64, u64) {
    let mut heap: Scheduler<u64> = Scheduler::with_kind(SchedulerKind::Heap);
    let mut wheel: Scheduler<u64> = Scheduler::with_kind(SchedulerKind::Wheel);
    assert_eq!(heap.kind(), SchedulerKind::Heap);
    assert_eq!(wheel.kind(), SchedulerKind::Wheel);

    let mut pops = 0u64;
    let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |value: u64| {
        fingerprint ^= value;
        fingerprint = fingerprint.wrapping_mul(0x1000_0000_01b3);
    };

    for (i, op) in ops.iter().enumerate() {
        let payload = i as u64;
        match *op {
            Op::Schedule { delay } => {
                let delay = Duration::from_micros(delay);
                heap.schedule_after(delay, payload);
                wheel.schedule_after(delay, payload);
            }
            Op::ScheduleAt { at } => {
                let at = Instant::from_micros(at);
                heap.schedule_at(at, payload);
                wheel.schedule_at(at, payload);
            }
            Op::Pop => {
                let a = heap.pop();
                let b = wheel.pop();
                assert_eq!(a, b, "pop diverged at op {i}");
                if let Some((at, payload)) = a {
                    pops += 1;
                    fold(at.total_micros());
                    fold(payload);
                }
            }
        }
        assert_eq!(
            heap.peek_time(),
            wheel.peek_time(),
            "peek diverged after op {i} ({op:?})"
        );
        assert_eq!(heap.len(), wheel.len(), "len diverged after op {i}");
        assert_eq!(heap.now(), wheel.now(), "now diverged after op {i}");
    }
    assert!(heap.is_empty() && wheel.is_empty(), "workload did not drain");
    assert_eq!(heap.processed(), wheel.processed());
    (pops, fingerprint)
}

/// Replay a captured [`TraceOp`] log through a heap and a wheel side by
/// side, panicking on the first pop that differs.
///
/// Payloads are the index of the op that scheduled them, so the two
/// backends must agree on *which* event pops, not only on when — a
/// broken FIFO tie order flips the payload. Returns `(pops, ties)`:
/// how many pops were compared, and how many of them popped at the
/// same instant as the pop before (the ones tie order decided), so a
/// caller can show its traces were not trivially easy.
pub fn replay_lockstep(trace: &[TraceOp]) -> (u64, u64) {
    let mut heap: Scheduler<u64> = Scheduler::with_kind(SchedulerKind::Heap);
    let mut wheel: Scheduler<u64> = Scheduler::with_kind(SchedulerKind::Wheel);
    let (mut pops, mut ties) = (0u64, 0u64);
    let mut last = None;
    for (i, op) in trace.iter().enumerate() {
        match *op {
            TraceOp::Schedule(at) => {
                let at = Instant::from_micros(at);
                heap.schedule_at(at, i as u64);
                wheel.schedule_at(at, i as u64);
            }
            TraceOp::Pop => {
                let popped = wheel.pop();
                assert_eq!(heap.pop(), popped, "pop diverged at trace op {i}");
                let (at, _) = popped.expect("a trace records only pops that returned an event");
                pops += 1;
                ties += u64::from(last == Some(at));
                last = Some(at);
            }
        }
    }
    (pops, ties)
}

/// Size in bytes of the payload [`replay_trace`] schedules. It matches
/// `catenet-core`'s (private) `Keyed` scheduler entry — a 56-byte
/// niche-packed event enum (a pooled `PacketBuf` frame: `Vec<u8>` plus
/// headroom offset and pool handle, and a node id) wrapped with the
/// 8-byte delivery key that gives every event a shard-independent
/// total order — so replay moves the same number of bytes per queue
/// operation as the real simulation. That matters for an honest
/// backend comparison: the heap copies whole entries on every sift,
/// while the wheel moves each entry O(1) times, so a too-small payload
/// flatters the heap. A compile-time assertion and a test in
/// `catenet-core` pin the real entry to this size.
pub const REPLAY_PAYLOAD_BYTES: usize = 64;

/// The replay payload: dead weight of [`REPLAY_PAYLOAD_BYTES`] bytes.
type ReplayPayload = [u64; REPLAY_PAYLOAD_BYTES / 8];

/// Replay a captured [`TraceOp`] log against a fresh scheduler of the
/// given kind, returning the number of events processed. E13 wall-clocks
/// this call per backend to measure substrate throughput on the exact
/// event mix a real simulation produced.
pub fn replay_trace(kind: SchedulerKind, trace: &[TraceOp]) -> u64 {
    let mut sched: Scheduler<ReplayPayload> = Scheduler::with_kind(kind);
    for op in trace {
        match *op {
            TraceOp::Schedule(at) => {
                sched.schedule_at(Instant::from_micros(at), ReplayPayload::default())
            }
            TraceOp::Pop => {
                let popped = sched.pop();
                debug_assert!(popped.is_some(), "trace pops an empty scheduler");
            }
        }
    }
    sched.processed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lockstep_accepts_a_handwritten_adversarial_sequence() {
        let ops = vec![
            Op::Schedule { delay: 10 },
            Op::Schedule { delay: 10 },
            Op::ScheduleAt { at: 0 },
            Op::Pop,
            Op::ScheduleAt { at: 3 },
            Op::Schedule { delay: 1 << 22 },
            Op::Pop,
            Op::Pop,
            Op::Pop,
            Op::Pop,
            Op::Pop,
        ];
        let (pops, _) = run_lockstep(&ops);
        assert_eq!(pops, 5);
    }

    #[test]
    fn lockstep_fingerprint_is_deterministic() {
        let mut rng = Rng::from_seed(0xD1FF);
        let ops = random_ops(&mut rng, 300);
        let (pops_a, fp_a) = run_lockstep(&ops);
        let (pops_b, fp_b) = run_lockstep(&ops);
        assert!(pops_a > 0);
        assert_eq!((pops_a, fp_a), (pops_b, fp_b));
    }

    #[test]
    fn replay_processes_every_trace_pop() {
        let mut sched: Scheduler<u8> = Scheduler::new();
        sched.set_trace(true);
        for i in 0..20 {
            sched.schedule_at(Instant::from_micros(i % 5), 0);
        }
        while sched.pop().is_some() {}
        let trace = sched.take_trace();
        for kind in SchedulerKind::all() {
            assert_eq!(replay_trace(kind, &trace), 20);
        }
    }

    #[test]
    fn replay_lockstep_counts_the_pops_it_compared() {
        // Same-instant bursts around a schedule in the past, which both
        // backends must clamp to `now` and queue behind what is already
        // pending there.
        use TraceOp::{Pop, Schedule};
        let mut trace = vec![Schedule(7); 3];
        trace.extend([Schedule(40), Pop, Pop, Schedule(2), Schedule(7), Schedule(1 << 22)]);
        trace.extend([Pop; 5]);
        // Pop order: 7 7 | 7 7(clamped) 7 40 2^22 — four pops repeat an instant.
        assert_eq!(replay_lockstep(&trace), (7, 4));
        assert_eq!(replay_lockstep(&[]), (0, 0));
    }
}
