//! The timer-wheel backend of the scheduler: a hierarchical windowed
//! wheel — exact one-microsecond slots for the near future, a ring of
//! window buckets for the mid future, and an overflow map for far
//! timers.
//!
//! Virtual time is integer microseconds, so the wheel can afford exact
//! slots: the current *window* is an array of 2^14 one-microsecond
//! slots (≈ 16.4 ms), and every entry inside the window sits in the
//! slot matching its exact timestamp. The second level is a ring of
//! 2^11 per-window buckets covering ≈ 33.6 s of horizon — protocol
//! timers (DV periodics at 3 s, route timeouts at 18 s, TCP
//! retransmits) land here with a single O(1) array push. Only timers
//! beyond the horizon fall through to a `BTreeMap` bucketed by window
//! index. When the wheel drains a window it pages the next occupied
//! one in (found via occupancy bitmaps, skipping empty windows
//! entirely, so an idle network costs nothing to fast-forward).
//!
//! Cost model: insert is O(1) (slot or bucket push plus bitmap words;
//! the far map is effectively never hit by protocol traffic), expiry is
//! O(1) amortized (each entry is distributed into a slot at most once,
//! and the next occupied slot/window is found by scanning small
//! bitmaps). This is what replaces the `BinaryHeap`'s O(log n) per
//! operation once topologies grow to hundreds of gateways (experiment
//! E13).
//!
//! Ordering contract — identical to the heap backend, bit for bit:
//! entries pop in `(at, seq)` order, so ties at one instant resolve in
//! insertion order. Within a slot that holds exactly one timestamp,
//! FIFO follows from only ever *appending*: direct inserts append in
//! seq order, and a paged-in bucket is distributed in its own insertion
//! order before any later insert can target the same window (a far
//! bucket for a window is distributed before the L2 bucket for the same
//! window, because every far entry predates every L2 entry of that
//! window — inserts migrate from far to L2 as the horizon advances,
//! never the other way). The differential harness in
//! [`crate::diffsched`] checks this contract against the heap on random
//! interleavings.

use std::collections::{BTreeMap, VecDeque};

/// Log2 of the window width: 2^12 µs ≈ 4.1 ms per window.
const WINDOW_BITS: u32 = 12;
/// Slots per window (one per microsecond).
const SLOTS: usize = 1 << WINDOW_BITS;
/// Mask extracting the slot index from a timestamp.
const SLOT_MASK: u64 = (SLOTS as u64) - 1;
/// One `u64` of occupancy bits per 64 slots.
const LEAF_WORDS: usize = SLOTS / 64;
/// One summary bit per leaf word.
const SUMMARY_WORDS: usize = LEAF_WORDS / 64;
/// Log2 of the second-level ring: 2^13 windows ≈ 33.6 s of horizon.
const L2_BITS: u32 = 13;
/// Window buckets in the second-level ring.
const L2_WINDOWS: usize = 1 << L2_BITS;
/// Mask extracting the ring index from a window index.
const L2_MASK: u64 = (L2_WINDOWS as u64) - 1;
/// One `u64` of occupancy bits per 64 ring buckets.
const L2_WORDS: usize = L2_WINDOWS / 64;

/// A scheduled entry: absolute time, insertion sequence, payload.
pub(crate) struct WheelEntry<E> {
    pub at: u64,
    pub seq: u64,
    pub event: E,
}

/// A far-overflow bucket: every entry of one future window, in
/// insertion order, with the bucket's minimum timestamp tracked so
/// peeking never has to scan.
struct Bucket<E> {
    min_at: u64,
    entries: Vec<WheelEntry<E>>,
}

/// One exact-microsecond slot. The first entry at the instant lives
/// inline (`head`), so the dominant single-entry case touches one
/// location instead of chasing a separate heap buffer; further
/// same-instant entries spill to `rest` in insertion order. Invariant:
/// `rest` is non-empty only while `head` is occupied.
struct Slot<E> {
    rest: Vec<WheelEntry<E>>,
    head: Option<WheelEntry<E>>,
}

/// A second-level ring bucket: one future window's entries in insertion
/// order, with the minimum timestamp cached inline (same cache line as
/// the entries' `Vec` header, so an insert touches one bucket location).
struct L2Bucket<E> {
    min_at: u64,
    entries: Vec<WheelEntry<E>>,
}

/// Counters describing what the wheel has done (for E13 reporting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WheelStats {
    /// Windows paged in (from the ring or the far map).
    pub windows_paged: u64,
    /// Entries that bypassed the slots (ring buckets + far map).
    pub overflow_inserts: u64,
    /// Entries distributed from a bucket into slots.
    pub distributed: u64,
}

pub(crate) struct TimerWheel<E> {
    /// Index (timestamp >> WINDOW_BITS) of the window `slots` covers.
    cur_window: u64,
    /// The current window: exact one-microsecond slots.
    slots: Vec<Slot<E>>,
    /// Occupancy bit per slot.
    leaf: [u64; LEAF_WORDS],
    /// Occupancy bit per leaf word.
    summary: [u64; SUMMARY_WORDS],
    /// The slot currently being drained (all entries share `current_at`).
    current: VecDeque<WheelEntry<E>>,
    current_at: u64,
    /// Which slot `current`'s buffer came from; the (empty) buffer is
    /// handed back before the next slot drains, so steady-state pops
    /// allocate nothing.
    current_slot: usize,
    /// Second level: one bucket per window within the horizon, indexed
    /// by `window & L2_MASK`. A bucket holds at most one window's worth
    /// of entries at a time (the wheel never advances past an occupied
    /// bucket without draining it, so ring laps cannot mix).
    l2: Vec<L2Bucket<E>>,
    /// Occupancy bit per ring bucket.
    l2_bits: [u64; L2_WORDS],
    /// Beyond the horizon: window index → bucket.
    far: BTreeMap<u64, Bucket<E>>,
    /// Drained ring and far buffers, empty but with their capacity, for
    /// the next bucket's first push to take. Handing a buffer back to
    /// the bucket it came from instead would park one high-water buffer
    /// in each of the ring's buckets per lap — memory proportional to
    /// virtual time. Through this list the wheel holds at most as many
    /// buffers as windows were ever occupied at once.
    spare: Vec<Vec<WheelEntry<E>>>,
    len: usize,
    stats: WheelStats,
}

impl<E> TimerWheel<E> {
    pub fn new() -> TimerWheel<E> {
        TimerWheel {
            cur_window: 0,
            slots: (0..SLOTS)
                .map(|_| Slot {
                    head: None,
                    rest: Vec::new(),
                })
                .collect(),
            leaf: [0; LEAF_WORDS],
            summary: [0; SUMMARY_WORDS],
            current: VecDeque::new(),
            current_at: 0,
            current_slot: 0,
            l2: (0..L2_WINDOWS)
                .map(|_| L2Bucket {
                    min_at: u64::MAX,
                    entries: Vec::new(),
                })
                .collect(),
            l2_bits: [0; L2_WORDS],
            far: BTreeMap::new(),
            spare: Vec::new(),
            len: 0,
            stats: WheelStats::default(),
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn stats(&self) -> WheelStats {
        self.stats
    }

    /// Insert an entry. The caller (the scheduler wrapper) guarantees
    /// `at` is never earlier than the timestamp of the last popped
    /// entry, and that `seq` is strictly increasing.
    pub fn insert(&mut self, at: u64, seq: u64, event: E) {
        self.len += 1;
        // An insert at the instant being drained joins the tail of the
        // drain run — `seq` is monotonic, so appending keeps FIFO.
        if !self.current.is_empty() && at == self.current_at {
            self.current.push_back(WheelEntry { at, seq, event });
            return;
        }
        let window = at >> WINDOW_BITS;
        if window == self.cur_window {
            let slot = (at & SLOT_MASK) as usize;
            let s = &mut self.slots[slot];
            let entry = WheelEntry { at, seq, event };
            if s.head.is_none() {
                debug_assert!(s.rest.is_empty(), "rest without a head");
                s.head = Some(entry);
            } else {
                s.rest.push(entry);
            }
            self.set_bit(slot);
            return;
        }
        debug_assert!(window > self.cur_window, "insert into a past window");
        self.stats.overflow_inserts += 1;
        if window - self.cur_window < L2_WINDOWS as u64 {
            let idx = (window & L2_MASK) as usize;
            let bucket = &mut self.l2[idx];
            if bucket.entries.capacity() == 0 {
                bucket.entries = self.spare.pop().unwrap_or_default();
            }
            bucket.min_at = bucket.min_at.min(at);
            bucket.entries.push(WheelEntry { at, seq, event });
            self.l2_bits[idx / 64] |= 1u64 << (idx % 64);
        } else {
            let spare = &mut self.spare;
            let bucket = self.far.entry(window).or_insert_with(|| Bucket {
                min_at: u64::MAX,
                entries: spare.pop().unwrap_or_default(),
            });
            bucket.min_at = bucket.min_at.min(at);
            bucket.entries.push(WheelEntry { at, seq, event });
        }
    }

    /// The earliest pending timestamp, without disturbing anything.
    pub fn peek_min(&self) -> Option<u64> {
        if !self.current.is_empty() {
            return Some(self.current_at);
        }
        if let Some(slot) = self.lowest_slot() {
            return Some((self.cur_window << WINDOW_BITS) | slot as u64);
        }
        // Every deferred bucket is in a strictly later window than any
        // slot of the current one, so this only applies when the wheel
        // proper is empty.
        let l2 = self
            .next_l2_window()
            .map(|w| self.l2[(w & L2_MASK) as usize].min_at);
        let far = self.far.first_key_value().map(|(_, bucket)| bucket.min_at);
        match (l2, far) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Remove and return the earliest entry.
    pub fn pop(&mut self) -> Option<WheelEntry<E>> {
        loop {
            if let Some(entry) = self.current.pop_front() {
                self.len -= 1;
                debug_assert_eq!(entry.at, self.current_at);
                return Some(entry);
            }
            if let Some(slot) = self.lowest_slot() {
                // The head entry pops directly — for the dominant
                // single-entry instant that's the whole slot, one
                // location touched, no buffer transfer. FIFO is
                // unaffected: a later insert at this same instant lands
                // back in this slot, which stays the lowest occupied
                // one (nothing earlier can be scheduled: the wrapper
                // clamps to now).
                if self.slots[slot].rest.is_empty() {
                    let entry = self.slots[slot].head.take().expect("occupied slot has a head");
                    self.clear_bit(slot);
                    self.len -= 1;
                    self.current_at = entry.at;
                    return Some(entry);
                }
                // Multi-entry instant: return the head now and queue
                // the spill as the drain run. First hand the exhausted
                // run buffer back to the slot it came from — both
                // Vec⇄VecDeque conversions reuse the allocation, so
                // steady state allocates nothing. The emptiness guard
                // matters: the slot can have been repopulated after the
                // run drained (an insert at `current_at` once `current`
                // is empty lands back in the slot, as can a page-in),
                // and overwriting it would drop live entries.
                if self.current.capacity() > 0 && self.slots[self.current_slot].head.is_none() {
                    debug_assert!(self.slots[self.current_slot].rest.is_empty());
                    self.slots[self.current_slot].rest =
                        Vec::from(core::mem::take(&mut self.current));
                    self.slots[self.current_slot].rest.clear();
                }
                let s = &mut self.slots[slot];
                let head = s.head.take().expect("occupied slot has a head");
                let rest = core::mem::take(&mut s.rest);
                self.clear_bit(slot);
                debug_assert!(rest.windows(2).all(|w| w[0].seq < w[1].seq));
                debug_assert!(rest.first().is_none_or(|e| head.seq < e.seq));
                self.current_at = head.at;
                self.current = VecDeque::from(rest);
                self.current_slot = slot;
                self.len -= 1;
                return Some(head);
            }
            // Current window exhausted: page in the next occupied one —
            // the earlier of the ring's next bucket and the far map's
            // first window (the same window can appear in both when
            // entries migrated from far range into ring range as the
            // horizon advanced).
            let l2_next = self.next_l2_window();
            let far_next = self.far.first_key_value().map(|(&w, _)| w);
            let window = match (l2_next, far_next) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => return None,
            };
            self.stats.windows_paged += 1;
            self.cur_window = window;
            // Far entries first: every far entry of this window was
            // inserted before every ring entry of it (see module docs),
            // so distributing far-then-ring keeps per-slot seq order.
            if far_next == Some(window) {
                let bucket = self.far.remove(&window).expect("key just seen");
                self.distribute(window, bucket.entries);
            }
            if l2_next == Some(window) {
                let idx = (window & L2_MASK) as usize;
                let entries = core::mem::take(&mut self.l2[idx].entries);
                self.l2[idx].min_at = u64::MAX;
                self.l2_bits[idx / 64] &= !(1u64 << (idx % 64));
                self.distribute(window, entries);
            }
        }
    }

    /// Scatter one window's bucket into the exact slots and keep the
    /// emptied buffer as a spare (no realloc churn, see `spare`).
    fn distribute(&mut self, window: u64, mut entries: Vec<WheelEntry<E>>) {
        self.stats.distributed += entries.len() as u64;
        for entry in entries.drain(..) {
            debug_assert_eq!(entry.at >> WINDOW_BITS, window);
            let slot = (entry.at & SLOT_MASK) as usize;
            let s = &mut self.slots[slot];
            if s.head.is_none() {
                debug_assert!(s.rest.is_empty(), "rest without a head");
                s.head = Some(entry);
            } else {
                s.rest.push(entry);
            }
            self.set_bit(slot);
        }
        self.spare.push(entries);
    }

    /// Drop every pending entry. Window position is retained, so the
    /// wheel stays consistent with the owning scheduler's clock.
    pub fn clear(&mut self) {
        self.current.clear();
        self.far.clear();
        for word in 0..LEAF_WORDS {
            let mut bits = self.leaf[word];
            while bits != 0 {
                let slot = word * 64 + bits.trailing_zeros() as usize;
                self.slots[slot].head = None;
                self.slots[slot].rest.clear();
                bits &= bits - 1;
            }
            self.leaf[word] = 0;
        }
        self.summary = [0; SUMMARY_WORDS];
        for word in 0..L2_WORDS {
            let mut bits = self.l2_bits[word];
            while bits != 0 {
                let idx = word * 64 + bits.trailing_zeros() as usize;
                let mut entries = core::mem::take(&mut self.l2[idx].entries);
                entries.clear();
                self.spare.push(entries);
                self.l2[idx].min_at = u64::MAX;
                bits &= bits - 1;
            }
            self.l2_bits[word] = 0;
        }
        self.len = 0;
    }

    fn set_bit(&mut self, slot: usize) {
        let word = slot / 64;
        self.leaf[word] |= 1u64 << (slot % 64);
        self.summary[word / 64] |= 1u64 << (word % 64);
    }

    fn clear_bit(&mut self, slot: usize) {
        let word = slot / 64;
        self.leaf[word] &= !(1u64 << (slot % 64));
        if self.leaf[word] == 0 {
            self.summary[word / 64] &= !(1u64 << (word % 64));
        }
    }

    /// The lowest occupied slot of the current window, via the two-level
    /// bitmap: at most four summary words, then one leaf word.
    fn lowest_slot(&self) -> Option<usize> {
        for (i, &sw) in self.summary.iter().enumerate() {
            if sw != 0 {
                let word = i * 64 + sw.trailing_zeros() as usize;
                let slot = word * 64 + self.leaf[word].trailing_zeros() as usize;
                return Some(slot);
            }
        }
        None
    }

    /// The absolute index of the next occupied ring window after
    /// `cur_window`. The ring is a circular buffer, so the scan starts
    /// just past `cur_window`'s own index and wraps; an index at or
    /// before it belongs to the next lap. (`cur_window`'s own bucket is
    /// always empty: in-window inserts go to slots, and a bucket a full
    /// lap out goes to the far map.)
    fn next_l2_window(&self) -> Option<u64> {
        let cur_idx = (self.cur_window & L2_MASK) as usize;
        let lap_base = self.cur_window - cur_idx as u64;
        if let Some(idx) = self.scan_l2(cur_idx + 1, L2_WINDOWS) {
            return Some(lap_base + idx as u64);
        }
        self.scan_l2(0, cur_idx)
            .map(|idx| lap_base + idx as u64 + L2_WINDOWS as u64)
    }

    /// First set bit of `l2_bits` in index range `[start, end)`.
    fn scan_l2(&self, start: usize, end: usize) -> Option<usize> {
        if start >= end {
            return None;
        }
        let mut word = start / 64;
        let last = (end - 1) / 64;
        let mut bits = self.l2_bits[word] & (!0u64 << (start % 64));
        loop {
            if bits != 0 {
                let idx = word * 64 + bits.trailing_zeros() as usize;
                return (idx < end).then_some(idx);
            }
            if word == last {
                return None;
            }
            word += 1;
            bits = self.l2_bits[word];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut wheel = TimerWheel::new();
        wheel.insert(50, 0, "b");
        wheel.insert(10, 1, "a");
        wheel.insert(50, 2, "c");
        wheel.insert(1 << 20, 3, "far"); // beyond the first window
        let order: Vec<_> = std::iter::from_fn(|| wheel.pop()).map(|e| e.event).collect();
        assert_eq!(order, vec!["a", "b", "c", "far"]);
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn ring_buckets_page_in_preserving_fifo() {
        let mut wheel = TimerWheel::new();
        let mid = (3u64 << WINDOW_BITS) + 7; // in the L2 ring
        for seq in 0..10 {
            wheel.insert(mid, seq, seq);
        }
        assert_eq!(wheel.stats().overflow_inserts, 10);
        assert_eq!(wheel.peek_min(), Some(mid));
        let order: Vec<_> = std::iter::from_fn(|| wheel.pop()).map(|e| e.seq).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
        assert_eq!(wheel.stats().windows_paged, 1);
    }

    #[test]
    fn beyond_horizon_entries_take_the_far_map() {
        let mut wheel = TimerWheel::new();
        let beyond = (L2_WINDOWS as u64 + 5) << WINDOW_BITS;
        wheel.insert(beyond, 0, "far");
        assert_eq!(wheel.peek_min(), Some(beyond));
        assert_eq!(wheel.pop().unwrap().event, "far");
        assert!(wheel.pop().is_none());
    }

    #[test]
    fn far_entries_merge_before_ring_entries_of_the_same_window() {
        // A window can collect entries in the far map (inserted while
        // it was beyond the horizon) and then in the ring (inserted
        // after the horizon advanced past it). Same-instant entries
        // from the two stores must still pop in seq order.
        let mut wheel = TimerWheel::new();
        let window = L2_WINDOWS as u64 + 100; // beyond the horizon at t=0
        let at = (window << WINDOW_BITS) + 9;
        wheel.insert(at, 0, 0); // → far map
        // Advance the wheel into ring range of `window` by draining an
        // intermediate entry.
        let step = 200u64 << WINDOW_BITS;
        wheel.insert(step, 1, 1);
        assert_eq!(wheel.pop().unwrap().seq, 1);
        wheel.insert(at, 2, 2); // now inside the horizon → ring bucket
        wheel.insert(at, 3, 3);
        let order: Vec<_> = std::iter::from_fn(|| wheel.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![0, 2, 3]);
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn insert_at_drain_instant_joins_the_run() {
        let mut wheel = TimerWheel::new();
        wheel.insert(5, 0, 0);
        wheel.insert(5, 1, 1);
        assert_eq!(wheel.pop().unwrap().seq, 0);
        // The slot is drained; a same-instant insert must still pop
        // after the rest of the run.
        wheel.insert(5, 2, 2);
        assert_eq!(wheel.pop().unwrap().seq, 1);
        assert_eq!(wheel.pop().unwrap().seq, 2);
        assert!(wheel.pop().is_none());
    }

    #[test]
    fn repopulated_slot_survives_the_buffer_hand_back() {
        // Regression: once a run drains *empty*, a same-instant insert
        // lands back in the slot itself (the join-the-run path needs a
        // non-empty run). The exhausted run buffer must not be handed
        // back on top of those live entries.
        let mut wheel = TimerWheel::new();
        wheel.insert(5, 0, 0);
        wheel.insert(5, 1, 1);
        assert_eq!(wheel.pop().unwrap().seq, 0);
        assert_eq!(wheel.pop().unwrap().seq, 1);
        // Run exhausted. Repopulate the same slot with two entries so
        // the multi-entry drain path (where the hand-back happens) runs.
        wheel.insert(5, 2, 2);
        wheel.insert(5, 3, 3);
        assert_eq!(wheel.pop().unwrap().seq, 2);
        assert_eq!(wheel.pop().unwrap().seq, 3);
        assert!(wheel.pop().is_none());
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn single_entry_instants_pop_without_a_slot_drain() {
        // The fast path: a slot holding exactly one entry pops straight
        // out of the slot. Interleave singles with a multi-entry run to
        // make sure the two paths compose.
        let mut wheel = TimerWheel::new();
        wheel.insert(10, 0, "single-a");
        wheel.insert(20, 1, "run-a");
        wheel.insert(20, 2, "run-b");
        wheel.insert(30, 3, "single-b");
        let order: Vec<_> = std::iter::from_fn(|| wheel.pop()).map(|e| e.event).collect();
        assert_eq!(order, vec!["single-a", "run-a", "run-b", "single-b"]);
        assert_eq!(wheel.len(), 0);
    }

    /// Buffers the wheel holds on to: one per ring or far bucket with
    /// capacity, plus the spares.
    fn retained_buffers<E>(wheel: &TimerWheel<E>) -> usize {
        let ring = wheel.l2.iter().filter(|b| b.entries.capacity() > 0).count();
        ring + wheel.far.len() + wheel.spare.len()
    }

    #[test]
    fn retained_buffers_are_bounded_by_peak_occupancy_not_by_laps() {
        // A steady workload: from every window, timers three and seven
        // windows ahead (ring) and, now and then, one beyond the horizon
        // (far map). A dozen or so windows are occupied at any time, yet
        // after three laps every one of the ring's 8,192 buckets has
        // been occupied three times.
        let mut wheel = TimerWheel::new();
        let mut seq = 0u64;
        let mut peak_occupied = 0usize;
        let occupied = |wheel: &TimerWheel<u64>| {
            wheel.l2_bits.iter().map(|w| w.count_ones() as usize).sum::<usize>() + wheel.far.len()
        };
        wheel.insert(0, seq, seq);
        let laps = 3 * L2_WINDOWS as u64;
        while let Some(entry) = wheel.pop() {
            let window = entry.at >> WINDOW_BITS;
            if window < laps && entry.at & SLOT_MASK == 0 {
                // One chain entry per window re-arms the workload.
                for ahead in [1u64, 3, 7] {
                    for k in 0..4 {
                        seq += 1;
                        wheel.insert(((window + ahead) << WINDOW_BITS) + k + 1, seq, seq);
                    }
                }
                if window.is_multiple_of(1000) {
                    seq += 1;
                    let far = window + L2_WINDOWS as u64 + 17;
                    wheel.insert((far << WINDOW_BITS) + 5, seq, seq);
                }
                seq += 1;
                wheel.insert((window + 1) << WINDOW_BITS, seq, seq);
            }
            peak_occupied = peak_occupied.max(occupied(&wheel));
            // (Counting buffers scans the ring; once per eight windows
            // is often enough to catch growth and keeps the test quick.)
            if entry.at & SLOT_MASK == 0 && window.is_multiple_of(8) {
                assert!(
                    retained_buffers(&wheel) <= peak_occupied,
                    "window {window}: {} buffers retained, peak occupancy {peak_occupied}",
                    retained_buffers(&wheel)
                );
            }
        }
        assert!(wheel.stats().windows_paged >= laps, "three laps were walked");
        assert!(peak_occupied <= 20, "the workload occupies few windows: {peak_occupied}");
        assert!(retained_buffers(&wheel) <= peak_occupied);
    }

    #[test]
    fn empty_windows_are_skipped() {
        let mut wheel = TimerWheel::new();
        let far = 1_000u64 << WINDOW_BITS; // a thousand windows out
        wheel.insert(far, 0, ());
        assert_eq!(wheel.peek_min(), Some(far));
        let entry = wheel.pop().unwrap();
        assert_eq!(entry.at, far);
        // One page-in, not a thousand.
        assert_eq!(wheel.stats().windows_paged, 1);
    }

    #[test]
    fn clear_empties_and_stays_usable() {
        let mut wheel = TimerWheel::new();
        for i in 0..100 {
            wheel.insert(i * 1000, i, i);
        }
        wheel.clear();
        assert_eq!(wheel.len(), 0);
        assert_eq!(wheel.peek_min(), None);
        wheel.insert(42, 100, 7);
        assert_eq!(wheel.pop().unwrap().event, 7);
    }
}
