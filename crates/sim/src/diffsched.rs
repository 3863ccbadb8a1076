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

// ---------------------------------------------------------------------
// Shard-pair lockstep: a miniature model of the barrier protocol.
//
// The real sharded event loop in `catenet-core` partitions nodes into
// contiguous lanes and runs each over conservative-lookahead windows,
// exchanging cross-lane frames at barrier instants. This model strips
// that down to its essentials — nodes, directed links with integer
// latencies, deterministic hash-driven forwarding — so the *protocol*
// (window sizing, barrier exchange, (time, key) delivery order) can be
// property-tested over thousands of random topologies and partitions
// without dragging the whole network stack along.

/// A miniature topology for differential testing of the shard barrier
/// protocol: nodes, directed links with per-link latencies, and a set
/// of seed messages that start the deterministic forwarding cascade.
#[derive(Debug, Clone)]
pub struct ShardTopology {
    /// Number of nodes (ids `0..nodes`).
    pub nodes: usize,
    /// Directed links `(from, to, latency_micros)`; latency ≥ 1.
    pub links: Vec<(usize, usize, u64)>,
    /// Initial messages `(at_micros, to)` injected before the run.
    pub seeds: Vec<(u64, usize)>,
    /// Hop budget per cascade: each delivery forwards with one fewer
    /// hop, bounding the run.
    pub hops: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Msg {
    at: u64,
    key: u64,
    to: usize,
    hops: u32,
}

impl PartialOrd for Msg {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Msg {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed (earliest first) for use in a max-BinaryHeap.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.key.cmp(&self.key))
    }
}

fn fnv(values: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in values {
        h ^= v;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Deterministic forwarding decision: purely a function of the node and
/// its local delivery count, so it is identical no matter which shard
/// (or how many shards) delivered the message.
fn forwards(out: &[(usize, u64)], node: usize, count: u64) -> Vec<(usize, u64)> {
    if out.is_empty() {
        return Vec::new();
    }
    let h = fnv(&[node as u64, count]);
    let n = (h % 3) as usize; // 0, 1 or 2 forwards
    (0..n)
        .map(|j| out[((h >> (8 + 16 * j)) as usize) % out.len()])
        .collect()
}

/// Deliver one message and push its forwards through `emit`. Key
/// assignment mirrors the real engine: `(origin node) << 32 | seq`,
/// with a per-origin sequence counter — globally unique, and
/// independent of the shard count.
fn deliver(
    msg: Msg,
    out: &[Vec<(usize, u64)>],
    counts: &mut [u64],
    seqs: &mut [u64],
    mut emit: impl FnMut(Msg, u64),
) {
    let count = counts[msg.to];
    counts[msg.to] += 1;
    if msg.hops == 0 {
        return;
    }
    for (dest, latency) in forwards(&out[msg.to], msg.to, count) {
        let key = ((msg.to as u64) << 32) | seqs[msg.to];
        seqs[msg.to] += 1;
        emit(
            Msg {
                at: msg.at + latency,
                key,
                to: dest,
                hops: msg.hops - 1,
            },
            latency,
        );
    }
}

fn adjacency(topo: &ShardTopology) -> Vec<Vec<(usize, u64)>> {
    let mut out = vec![Vec::new(); topo.nodes];
    for &(from, to, latency) in &topo.links {
        assert!(latency >= 1, "zero-latency link in shard model");
        out[from].push((to, latency));
    }
    out
}

fn seed_msgs(topo: &ShardTopology, seqs: &mut [u64]) -> Vec<Msg> {
    topo.seeds
        .iter()
        .map(|&(at, to)| {
            let key = ((to as u64) << 32) | seqs[to];
            seqs[to] += 1;
            Msg {
                at,
                key,
                to,
                hops: topo.hops,
            }
        })
        .collect()
}

/// The reference arm: one totally ordered queue over all nodes,
/// popping in `(time, key)` order. Returns the delivery trace.
fn run_single(topo: &ShardTopology) -> Vec<(u64, u64, usize)> {
    let out = adjacency(topo);
    let mut counts = vec![0u64; topo.nodes];
    let mut seqs = vec![0u64; topo.nodes];
    let mut queue: std::collections::BinaryHeap<Msg> = std::collections::BinaryHeap::new();
    for msg in seed_msgs(topo, &mut seqs) {
        queue.push(msg);
    }
    let mut trace = Vec::new();
    while let Some(msg) = queue.pop() {
        trace.push((msg.at, msg.key, msg.to));
        deliver(msg, &out, &mut counts, &mut seqs, |fwd, _| queue.push(fwd));
    }
    trace
}

/// The sharded arm: contiguous-block partition into `shards` lanes,
/// each with its own queue, run over conservative-lookahead windows
/// (window length = minimum cross-shard link latency) with cross-shard
/// messages exchanged at barrier instants. Returns per-shard traces.
///
/// Barrier-safety invariants asserted on every crossing message:
/// - its delivery instant equals send instant + link latency (no
///   barrier may delay or hurry a frame), and is therefore no earlier
///   than the window-opening barrier plus the minimum link latency;
/// - its delivery instant is strictly after the barrier instant at
///   which it crossed, so absorbing it can never rewind a lane.
fn run_sharded(topo: &ShardTopology, shards: usize) -> Vec<Vec<(u64, u64, usize)>> {
    let k = shards.clamp(1, topo.nodes.max(1));
    let mut lane_of = vec![0usize; topo.nodes];
    for lane in 0..k {
        for node in lane_of.iter_mut().take((lane + 1) * topo.nodes / k).skip(lane * topo.nodes / k) {
            *node = lane;
        }
    }
    let out = adjacency(topo);
    let lookahead = topo
        .links
        .iter()
        .filter(|&&(from, to, _)| lane_of[from] != lane_of[to])
        .map(|&(_, _, latency)| latency)
        .min()
        .unwrap_or(u64::MAX);

    let mut counts = vec![0u64; topo.nodes];
    let mut seqs = vec![0u64; topo.nodes];
    let mut queues: Vec<std::collections::BinaryHeap<Msg>> =
        (0..k).map(|_| std::collections::BinaryHeap::new()).collect();
    for msg in seed_msgs(topo, &mut seqs) {
        queues[lane_of[msg.to]].push(msg);
    }

    let mut traces = vec![Vec::new(); k];
    while let Some(opens) = queues.iter().filter_map(|q| q.peek().map(|m| m.at)).min() {
        // Process [opens, barrier]: anything sent inside the window
        // over a cross-shard link lands at ≥ opens + lookahead, which
        // is strictly after the barrier.
        let barrier = if lookahead == u64::MAX {
            u64::MAX
        } else {
            opens.saturating_add(lookahead - 1)
        };
        let mut crossings: Vec<(Msg, u64, u64)> = Vec::new();
        for lane in 0..k {
            while queues[lane].peek().is_some_and(|m| m.at <= barrier) {
                let msg = queues[lane].pop().expect("peeked");
                traces[lane].push((msg.at, msg.key, msg.to));
                let sent_at = msg.at;
                let (queue, cross) = (&mut queues[lane], &mut crossings);
                deliver(msg, &out, &mut counts, &mut seqs, |fwd, latency| {
                    if lane_of[fwd.to] == lane {
                        queue.push(fwd);
                    } else {
                        cross.push((fwd, sent_at, latency));
                    }
                });
            }
        }
        for (msg, sent_at, latency) in crossings {
            assert_eq!(
                msg.at,
                sent_at + latency,
                "barrier exchange altered a delivery instant"
            );
            assert!(
                msg.at >= opens + lookahead,
                "cross-shard frame beat the source shard's barrier + link latency"
            );
            assert!(
                msg.at > barrier,
                "cross-shard frame delivered inside the window it was sent in"
            );
            queues[lane_of[msg.to]].push(msg);
        }
    }
    traces
}

/// Drive the single-queue reference and the K-shard windowed run over
/// the same topology, asserting (a) every barrier-safety invariant
/// inside the sharded run, (b) each shard-local trace matches the
/// reference trace restricted to that shard's nodes, and (c) the
/// per-shard traces merged by `(time, key)` reproduce the reference
/// trace exactly. Returns `(deliveries, fingerprint)` for cross-run
/// determinism checks.
pub fn run_shard_lockstep(topo: &ShardTopology, shards: usize) -> (u64, u64) {
    let reference = run_single(topo);
    let sharded = run_sharded(topo, shards);

    let k = sharded.len();
    let lane_of = |node: usize| -> usize {
        (0..k)
            .find(|&lane| node >= lane * topo.nodes / k && node < (lane + 1) * topo.nodes / k)
            .expect("node outside every lane")
    };
    for (lane, trace) in sharded.iter().enumerate() {
        let expected: Vec<_> = reference
            .iter()
            .copied()
            .filter(|&(_, _, to)| lane_of(to) == lane)
            .collect();
        assert_eq!(
            trace, &expected,
            "shard {lane}/{k} local order diverged from the single-shard trace"
        );
    }

    let mut merged: Vec<_> = sharded.into_iter().flatten().collect();
    merged.sort_unstable_by_key(|&(at, key, _)| (at, key));
    assert_eq!(
        merged, reference,
        "merged {k}-shard trace diverged from the single-shard reference"
    );

    let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
    for &(at, key, to) in &reference {
        fingerprint = fnv(&[fingerprint, at, key, to as u64]);
    }
    (reference.len() as u64, fingerprint)
}

/// Generate a random topology/partition pair for the barrier-safety
/// property test: a connected ring (so cascades spread) plus random
/// chords, random per-link latencies, random seeds and hop budgets.
pub fn random_shard_topology(rng: &mut Rng) -> (ShardTopology, usize) {
    let nodes = rng.range(4, 21) as usize;
    let shards = rng.range(2, 9) as usize;
    let mut links = Vec::new();
    for i in 0..nodes {
        let next = (i + 1) % nodes;
        links.push((i, next, rng.range(1, 50)));
        links.push((next, i, rng.range(1, 50)));
    }
    for _ in 0..rng.range(0, (nodes as u64) * 2) {
        let from = rng.below(nodes as u64) as usize;
        let to = rng.below(nodes as u64) as usize;
        if from != to {
            links.push((from, to, rng.range(1, 50)));
        }
    }
    let seeds = (0..rng.range(1, 6))
        .map(|_| (rng.range(0, 20), rng.below(nodes as u64) as usize))
        .collect();
    let topo = ShardTopology {
        nodes,
        links,
        seeds,
        hops: rng.range(4, 11) as u32,
    };
    (topo, shards)
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

    /// A tight ring with short cross-shard latencies: every window is
    /// small, so the barrier-exchange path is exercised hard.
    #[test]
    fn shard_model_matches_reference_on_a_handwritten_ring() {
        let topo = ShardTopology {
            nodes: 6,
            links: (0..6)
                .flat_map(|i| {
                    let next = (i + 1) % 6;
                    [(i, next, 3), (next, i, 3)]
                })
                .collect(),
            seeds: vec![(0, 0), (0, 3), (5, 1)],
            hops: 8,
        };
        let baseline = run_shard_lockstep(&topo, 1);
        assert!(baseline.0 > 3, "cascade should outgrow its seeds");
        for shards in [2, 3, 6] {
            assert_eq!(run_shard_lockstep(&topo, shards), baseline);
        }
    }

    /// The seeded barrier-safety property: random topologies and
    /// partitions × random cross-shard traffic. `run_shard_lockstep`
    /// asserts, per crossing frame, that delivery is never earlier
    /// than the source shard's barrier + link latency, and that every
    /// shard-local order matches the single-shard trace.
    #[test]
    fn shard_model_barrier_safety_holds_over_random_topologies() {
        let mut rng = Rng::from_seed(0x5A4D_BA21);
        let mut total = 0u64;
        for case in 0..200 {
            let (topo, shards) = random_shard_topology(&mut rng);
            let (deliveries, fp) = run_shard_lockstep(&topo, shards);
            // Cross-run determinism, spot-checked.
            if case % 40 == 0 {
                assert_eq!(run_shard_lockstep(&topo, shards), (deliveries, fp));
            }
            total += deliveries;
        }
        assert!(total > 1_000, "property test barely exercised anything");
    }

    /// Shard counts beyond the node count clamp instead of panicking.
    #[test]
    fn shard_model_clamps_oversized_partitions() {
        let topo = ShardTopology {
            nodes: 3,
            links: vec![(0, 1, 2), (1, 2, 2), (2, 0, 2)],
            seeds: vec![(0, 0)],
            hops: 5,
        };
        assert_eq!(run_shard_lockstep(&topo, 16), run_shard_lockstep(&topo, 1));
    }
}
