//! The discrete-event scheduler.
//!
//! A single totally ordered queue of `(time, sequence, event)` entries
//! on a windowed timer wheel ([`crate::wheel`], O(1) amortized) — the
//! queue every simulation runs on. The `BinaryHeap` it replaced
//! (O(log n) per operation) lives on in [`crate::diffsched`] as the
//! reference the wheel is held to: both implement the exact same
//! ordering contract, and the differential harness there checks every
//! pop of the wheel against the heap's.
//!
//! ## The ordering contract
//!
//! Every experiment in `EXPERIMENTS.md` rests on these three clauses,
//! which are pinned by regression tests below (and, on the heap side,
//! by the lockstep runs in [`crate::diffsched`]):
//!
//! 1. **Time order.** Events pop in non-decreasing `at` order, and the
//!    clock (`now`) advances to each popped event's timestamp.
//! 2. **FIFO ties.** Events scheduled for the same instant pop in
//!    insertion order (strictly increasing `seq`). Nothing may reorder
//!    two same-instant events, ever.
//! 3. **Expired-timer clamp.** Scheduling in the past is clamped to
//!    `now` — the simulated world has no time machine, and clamping
//!    (rather than panicking) mirrors how real stacks treat
//!    already-expired timers. A clamped event obeys clause 2 at its
//!    *clamped* time: it lands after every event already pending at
//!    `now`, because its sequence number is younger.

use crate::time::Instant;
use crate::wheel::{TimerWheel, WheelStats};

/// One recorded scheduler operation (see [`Scheduler::set_trace`]).
///
/// A trace captured from a live simulation can be replayed through the
/// wheel and its heap reference side by side, which is how E13 checks
/// the wheel on a *real* event mix rather than a synthetic one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// `schedule_at` with the post-clamp absolute time in microseconds.
    Schedule(u64),
    /// `pop` (which returned an event).
    Pop,
}

/// Aggregate counters describing a scheduler's life so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Events accepted by `schedule_at`.
    pub scheduled: u64,
    /// Events popped.
    pub processed: u64,
    /// Events currently pending.
    pub pending: usize,
    /// Timer-wheel internals.
    pub wheel: WheelStats,
}

/// A discrete-event scheduler over events of type `E`.
pub struct Scheduler<E> {
    wheel: TimerWheel<E>,
    now: Instant,
    seq: u64,
    processed: u64,
    scheduled: u64,
    trace: Option<Vec<TraceOp>>,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Scheduler<E> {
        Scheduler::new()
    }
}

impl<E> Scheduler<E> {
    /// An empty scheduler at time zero.
    pub fn new() -> Scheduler<E> {
        Scheduler {
            wheel: TimerWheel::new(),
            now: Instant::ZERO,
            seq: 0,
            processed: 0,
            scheduled: 0,
            trace: None,
        }
    }

    /// The current virtual time (the timestamp of the last popped event).
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Total events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime counters (scheduled, processed, pending, wheel internals).
    pub fn stats(&self) -> SchedStats {
        SchedStats {
            scheduled: self.scheduled,
            processed: self.processed,
            pending: self.len(),
            wheel: self.wheel.stats(),
        }
    }

    /// Start (or stop) recording a [`TraceOp`] log of every schedule and
    /// pop. Used by E13 to capture a real workload's event mix for
    /// replay against the heap reference.
    pub fn set_trace(&mut self, on: bool) {
        self.trace = if on { Some(Vec::new()) } else { None };
    }

    /// Take the recorded trace (empty if tracing was never enabled).
    pub fn take_trace(&mut self) -> Vec<TraceOp> {
        self.trace.take().unwrap_or_default()
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to `now` — the simulated world
    /// has no time machine, and clamping (rather than panicking) mirrors
    /// how real stacks treat already-expired timers.
    pub fn schedule_at(&mut self, at: Instant, event: E) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.scheduled += 1;
        if let Some(trace) = &mut self.trace {
            trace.push(TraceOp::Schedule(at.total_micros()));
        }
        self.wheel.insert(at.total_micros(), seq, event);
    }

    /// Schedule `event` after a delay from the current time.
    pub fn schedule_after(&mut self, delay: crate::time::Duration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// The timestamp of the next pending event.
    pub fn peek_time(&self) -> Option<Instant> {
        self.wheel.peek_min().map(Instant::from_micros)
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Instant, E)> {
        let entry = self.wheel.pop()?;
        let at = Instant::from_micros(entry.at);
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.processed += 1;
        if let Some(trace) = &mut self.trace {
            trace.push(TraceOp::Pop);
        }
        Some((at, entry.event))
    }

    /// Pop the next event only if it is due exactly at `at`. The batched
    /// delivery loop uses this to drain a whole instant in one pass.
    pub fn pop_due(&mut self, at: Instant) -> Option<E> {
        if self.peek_time() == Some(at) {
            self.pop().map(|(_, event)| event)
        } else {
            None
        }
    }

    /// Drop every pending event (used when tearing a network down).
    pub fn clear(&mut self) {
        self.wheel.clear();
    }

    /// Consume the scheduler and return every pending event in pop
    /// order. Used when a network splits into shard lanes: the boot
    /// scheduler's pending kicks are redistributed to per-lane
    /// schedulers without counting as processed work (the drain
    /// bypasses the `processed` counter and the trace log).
    pub fn into_drain(mut self) -> Vec<(Instant, E)> {
        self.trace = None;
        let mut drained = Vec::with_capacity(self.len());
        while let Some(entry) = self.pop() {
            drained.push(entry);
        }
        drained
    }
}

impl<E> core::fmt::Debug for Scheduler<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Scheduler")
            .field("now", &self.now)
            .field("pending", &self.len())
            .field("processed", &self.processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[test]
    fn pops_in_time_order() {
        let mut sched = Scheduler::new();
        sched.schedule_at(Instant::from_millis(30), "c");
        sched.schedule_at(Instant::from_millis(10), "a");
        sched.schedule_at(Instant::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| sched.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_resolve_in_insertion_order() {
        let mut sched = Scheduler::new();
        let t = Instant::from_millis(5);
        for i in 0..10 {
            sched.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| sched.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut sched = Scheduler::new();
        sched.schedule_at(Instant::from_millis(7), "x");
        assert_eq!(sched.now(), Instant::ZERO);
        sched.pop().unwrap();
        assert_eq!(sched.now(), Instant::from_millis(7));
        assert_eq!(sched.processed(), 1);
    }

    #[test]
    fn schedule_in_past_clamps_to_now() {
        let mut sched = Scheduler::new();
        sched.schedule_at(Instant::from_millis(10), "later");
        sched.pop().unwrap();
        sched.schedule_at(Instant::from_millis(3), "past");
        let (at, event) = sched.pop().unwrap();
        assert_eq!(event, "past");
        assert_eq!(at, Instant::from_millis(10));
    }

    #[test]
    fn clamped_event_queues_behind_events_already_pending_at_now() {
        // The clamp contract, clause 3: an already-expired timer lands
        // *after* everything pending at `now`, because FIFO ties break
        // on the younger sequence number. The heap-vs-wheel equivalence
        // proof depends on it.
        let mut sched = Scheduler::new();
        sched.schedule_at(Instant::from_millis(10), "first@10");
        sched.schedule_at(Instant::from_millis(10), "second@10");
        let (_, first) = sched.pop().unwrap();
        assert_eq!(first, "first@10");
        // now == 10ms; schedule far in the past. It must clamp to
        // 10ms and queue behind "second@10".
        sched.schedule_at(Instant::from_millis(1), "expired");
        sched.schedule_at(Instant::from_millis(2), "more-expired");
        let order: Vec<_> = std::iter::from_fn(|| sched.pop()).collect();
        assert_eq!(
            order,
            vec![
                (Instant::from_millis(10), "second@10"),
                (Instant::from_millis(10), "expired"),
                (Instant::from_millis(10), "more-expired"),
            ]
        );
    }

    #[test]
    fn clamped_event_interleaves_fifo_with_fresh_same_instant_events() {
        // Clamped ("expired") and genuinely-scheduled events at the same
        // instant share one FIFO order, decided purely by insertion.
        let mut sched = Scheduler::new();
        sched.schedule_at(Instant::from_millis(5), "opener");
        sched.pop().unwrap(); // now = 5ms
        sched.schedule_at(Instant::from_millis(1), "clamped-a");
        sched.schedule_at(Instant::from_millis(5), "fresh");
        sched.schedule_at(Instant::ZERO, "clamped-b");
        let order: Vec<_> = std::iter::from_fn(|| sched.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["clamped-a", "fresh", "clamped-b"]);
    }

    #[test]
    fn schedule_after_uses_current_time() {
        let mut sched = Scheduler::new();
        sched.schedule_at(Instant::from_millis(100), "first");
        sched.pop().unwrap();
        sched.schedule_after(Duration::from_millis(50), "second");
        let (at, _) = sched.pop().unwrap();
        assert_eq!(at, Instant::from_millis(150));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut sched = Scheduler::new();
        sched.schedule_at(Instant::from_millis(9), "x");
        assert_eq!(sched.peek_time(), Some(Instant::from_millis(9)));
        assert_eq!(sched.now(), Instant::ZERO);
        assert_eq!(sched.len(), 1);
        assert!(!sched.is_empty());
    }

    #[test]
    fn clear_empties_queue() {
        let mut sched = Scheduler::new();
        for i in 0..5 {
            sched.schedule_at(Instant::from_millis(i as u64), i);
        }
        sched.clear();
        assert!(sched.is_empty());
        assert!(sched.pop().is_none());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        // An event handler scheduling new events mid-run keeps total order.
        let mut sched: Scheduler<u32> = Scheduler::new();
        sched.schedule_at(Instant::from_millis(1), 1u32);
        sched.schedule_at(Instant::from_millis(5), 5u32);
        let mut seen = Vec::new();
        while let Some((at, e)) = sched.pop() {
            seen.push(e);
            if e == 1 {
                sched.schedule_at(at + Duration::from_millis(2), 3u32);
            }
        }
        assert_eq!(seen, vec![1, 3, 5]);
    }

    #[test]
    fn pop_due_drains_only_the_named_instant() {
        let mut sched = Scheduler::new();
        let t = Instant::from_millis(4);
        sched.schedule_at(t, "a");
        sched.schedule_at(t, "b");
        sched.schedule_at(Instant::from_millis(9), "later");
        assert_eq!(sched.pop().unwrap().1, "a");
        assert_eq!(sched.pop_due(t), Some("b"));
        assert_eq!(sched.pop_due(t), None, "9ms event is not due at 4ms");
        assert_eq!(sched.pop().unwrap().1, "later");
    }

    #[test]
    fn trace_records_post_clamp_times_and_pops() {
        let mut sched: Scheduler<&str> = Scheduler::new();
        sched.set_trace(true);
        sched.schedule_at(Instant::from_millis(2), "a");
        sched.pop().unwrap();
        sched.schedule_at(Instant::ZERO, "clamped");
        sched.pop().unwrap();
        let trace = sched.take_trace();
        assert_eq!(
            trace,
            vec![
                TraceOp::Schedule(2_000),
                TraceOp::Pop,
                TraceOp::Schedule(2_000), // clamped to now, not zero
                TraceOp::Pop,
            ]
        );
    }

    #[test]
    fn stats_count_scheduled_and_processed() {
        let mut sched: Scheduler<u32> = Scheduler::new();
        for i in 0..10 {
            sched.schedule_at(Instant::from_millis(i), i as u32);
        }
        for _ in 0..4 {
            sched.pop();
        }
        let stats = sched.stats();
        assert_eq!(stats.scheduled, 10);
        assert_eq!(stats.processed, 4);
        assert_eq!(stats.pending, 6);
    }
}
