//! Differential testing of the timer wheel against its reference.
//!
//! Every simulation runs on the timer wheel ([`Scheduler`]); the
//! `BinaryHeap` scheduler it replaced lives here, and only here, as the
//! reference the wheel is tested against. The wheel only earns its
//! place if it is *observably identical* to that heap — same pop order,
//! same timestamps, same FIFO tie-breaking, same clamp behavior, on any
//! interleaving of schedules and pops. This module is the machinery for
//! proving that:
//!
//! - [`Op`] / [`random_ops`] — a randomized schedule/pop workload,
//!   biased toward the pathological cases (bursts at one instant,
//!   far-future timers, scheduling while draining).
//! - [`run_lockstep`] — drive the heap reference and a wheel scheduler
//!   through the same op sequence, asserting every observable matches
//!   at every step. Returns a fingerprint of the merged pop sequence so
//!   callers can also pin cross-run determinism.
//! - [`replay_lockstep`] — the same side-by-side comparison driven by
//!   a [`TraceOp`] log captured from a live simulation: the system-level
//!   half of the proof, on the exact event mix a real run produced,
//!   without simulating anything twice. E13 runs it at 400 gateways.
//! - [`replay_trace`] — replay such a log through one queue alone, the
//!   wheel or the reference ([`SchedulerKind`]); the benchmark in
//!   `perf/` times it to price the scheduler on a workload's own mix.
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

use crate::event::{Scheduler, TraceOp};
use crate::hash::{fnv1a, FNV_OFFSET};
use crate::rng::Rng;
use crate::time::{Duration, Instant};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Which event queue [`replay_trace`] runs: the timer wheel every
/// simulation runs on, or the heap reference it is held to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// The `BinaryHeap` of `(at, seq, event)` entries the wheel replaced.
    Heap,
    /// The windowed timer wheel with an overflow map for far timers.
    Wheel,
}

impl SchedulerKind {
    /// Both kinds, reference first.
    pub fn all() -> [SchedulerKind; 2] {
        [SchedulerKind::Heap, SchedulerKind::Wheel]
    }
}

struct Entry<E> {
    at: Instant,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we need earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The reference scheduler: the ordering contract of
/// [`crate::event`] stated as directly as it can be — a `BinaryHeap`
/// ordered by `(at, seq)`, past times clamped to `now`.
struct Reference<E> {
    heap: BinaryHeap<Entry<E>>,
    now: Instant,
    seq: u64,
}

impl<E> Reference<E> {
    fn new() -> Reference<E> {
        Reference {
            heap: BinaryHeap::new(),
            now: Instant::ZERO,
            seq: 0,
        }
    }

    fn schedule_at(&mut self, at: Instant, event: E) {
        let at = at.max(self.now);
        self.heap.push(Entry {
            at,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    fn peek_time(&self) -> Option<Instant> {
        self.heap.peek().map(|entry| entry.at)
    }

    fn pop(&mut self) -> Option<(Instant, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.at;
        Some((entry.at, entry.event))
    }
}

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

/// Drive the heap reference and a wheel scheduler through `ops` in
/// lockstep, panicking on the first observable divergence.
///
/// Observables compared at every step: `peek_time`, `len`, `now`, and
/// for each pop the `(time, payload)` pair. Payloads are the op index
/// that scheduled them, so a FIFO violation (not just a time-order
/// violation) flips the payload and is caught. Returns
/// `(pops, fingerprint)` — a count and an order-sensitive FNV-1a
/// hash of the pop sequence, for cross-run determinism checks.
pub fn run_lockstep(ops: &[Op]) -> (u64, u64) {
    let mut heap: Reference<u64> = Reference::new();
    let mut wheel: Scheduler<u64> = Scheduler::new();

    let mut pops = 0u64;
    let mut fingerprint = FNV_OFFSET;
    let mut fold = |value: u64| fingerprint = fnv1a(fingerprint, &value.to_le_bytes());

    for (i, op) in ops.iter().enumerate() {
        let payload = i as u64;
        match *op {
            Op::Schedule { delay } => {
                let delay = Duration::from_micros(delay);
                heap.schedule_at(heap.now + delay, payload);
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
        assert_eq!(heap.heap.len(), wheel.len(), "len diverged after op {i}");
        assert_eq!(heap.now, wheel.now(), "now diverged after op {i}");
    }
    assert!(heap.heap.is_empty() && wheel.is_empty(), "workload did not drain");
    assert_eq!(wheel.processed(), pops);
    (pops, fingerprint)
}

/// Replay a captured [`TraceOp`] log through the heap reference and a
/// wheel side by side, panicking on the first pop that differs.
///
/// Payloads are the index of the op that scheduled them, so the two
/// queues must agree on *which* event pops, not only on when — a
/// broken FIFO tie order flips the payload. Returns `(pops, ties)`:
/// how many pops were compared, and how many of them popped at the
/// same instant as the pop before (the ones tie order decided), so a
/// caller can show its traces were not trivially easy.
pub fn replay_lockstep(trace: &[TraceOp]) -> (u64, u64) {
    let mut heap: Reference<u64> = Reference::new();
    let mut wheel: Scheduler<u64> = Scheduler::new();
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
/// operation as the real simulation. A compile-time assertion and a
/// test in `catenet-core` pin the real entry to this size.
pub const REPLAY_PAYLOAD_BYTES: usize = 64;

/// The replay payload: dead weight of [`REPLAY_PAYLOAD_BYTES`] bytes.
type ReplayPayload = [u64; REPLAY_PAYLOAD_BYTES / 8];

/// The two operations a trace replays, on the wheel and on its
/// reference alike.
trait Queue {
    fn push(&mut self, at: Instant);
    fn take(&mut self) -> bool;
}

impl Queue for Scheduler<ReplayPayload> {
    fn push(&mut self, at: Instant) {
        self.schedule_at(at, ReplayPayload::default());
    }
    fn take(&mut self) -> bool {
        self.pop().is_some()
    }
}

impl Queue for Reference<ReplayPayload> {
    fn push(&mut self, at: Instant) {
        self.schedule_at(at, ReplayPayload::default());
    }
    fn take(&mut self) -> bool {
        self.pop().is_some()
    }
}

/// Replay a captured [`TraceOp`] log against a fresh queue of the given
/// kind, returning the number of events popped.
pub fn replay_trace(kind: SchedulerKind, trace: &[TraceOp]) -> u64 {
    match kind {
        SchedulerKind::Heap => replay(&mut Reference::new(), trace),
        SchedulerKind::Wheel => replay(&mut Scheduler::new(), trace),
    }
}

fn replay(queue: &mut impl Queue, trace: &[TraceOp]) -> u64 {
    let mut popped = 0;
    for op in trace {
        match *op {
            TraceOp::Schedule(at) => queue.push(Instant::from_micros(at)),
            TraceOp::Pop => {
                let took = queue.take();
                debug_assert!(took, "trace pops an empty scheduler");
                popped += u64::from(took);
            }
        }
    }
    popped
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
