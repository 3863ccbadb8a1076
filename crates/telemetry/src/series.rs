//! The time-series sampler: rows at a fixed virtual-time cadence.
//!
//! The sampler does not drive itself — the network's event loop merges
//! [`Sampler::next_sample_at`] into its own timeline and calls back when
//! the cadence comes due, exactly as it interleaves fault-plan events.
//! At an instant shared with a fault the loop applies the fault first,
//! so the sample records post-fault state (tested from the network side).

use crate::registry::Scope;
use catenet_sim::{Duration, Instant};
use std::collections::HashMap;
use std::fmt::Write as _;

/// One recorded time-series row, as [`Sampler::rows`] reads it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Virtual time the sample was taken.
    pub at: Instant,
    /// Metric name (static: the set of sampled series is fixed at
    /// compile time).
    pub metric: &'static str,
    /// What the row describes.
    pub scope: Scope,
    /// The sampled value.
    pub value: u64,
}

/// A stored row: the interned series and its value. The instant is the
/// pass's, kept once in `Sampler::passes`.
#[derive(Debug, Clone, Copy)]
struct Row {
    series: u32,
    value: u64,
}

/// Rows per storage chunk: 64 KiB of rows, allocated whole.
const CHUNK: usize = 4096;

/// The sampler: cadence state plus the recorded rows.
///
/// A pass's rows share one instant and the (metric, scope) pairs recur
/// from pass to pass, so neither is stored per row: each pair is
/// interned once as a series id, each pass keeps its instant and where
/// its rows start, and a row is a series id and a value (16 bytes, where
/// a whole [`Sample`] is 56). Rows live in fixed chunks of 4,096, so
/// a long run adds one chunk at a time instead of doubling one block.
#[derive(Debug)]
pub struct Sampler {
    next: Instant,
    /// Series id → (metric, scope).
    series: Vec<(&'static str, Scope)>,
    /// (metric, scope) → series id.
    ids: HashMap<(&'static str, Scope), u32>,
    /// One entry per pass that recorded a row: its instant and the
    /// index of its first row. Instants strictly increase.
    passes: Vec<(Instant, usize)>,
    /// Full chunks, then the one being filled.
    chunks: Vec<Vec<Row>>,
    /// Rows recorded, across every chunk.
    len: usize,
}

impl Default for Sampler {
    fn default() -> Sampler {
        Sampler::new()
    }
}

impl Sampler {
    /// Sampling cadence: two samples per virtual second.
    pub const CADENCE: Duration = Duration::from_millis(500);

    /// A sampler first due one cadence after the epoch.
    pub fn new() -> Sampler {
        Sampler {
            next: Instant::ZERO + Self::CADENCE,
            series: Vec::new(),
            ids: HashMap::new(),
            passes: Vec::new(),
            chunks: Vec::new(),
            len: 0,
        }
    }

    /// When the next sample is due.
    pub fn next_sample_at(&self) -> Instant {
        self.next
    }

    /// Tell the sampler a sample is being taken at `now`; advances the
    /// cadence clock past `now`. The caller records rows with
    /// [`Sampler::record`] after this.
    pub fn begin_sample(&mut self, now: Instant) {
        // Skip whole missed periods (the loop may have been idle), but
        // always move strictly past `now`.
        while self.next <= now {
            self.next += Self::CADENCE;
        }
    }

    /// Record one row. A row at a later instant than the last one opens
    /// a pass; `at` never goes back (the event loop only moves forward).
    pub fn record(&mut self, at: Instant, metric: &'static str, scope: Scope, value: u64) {
        match self.passes.last() {
            Some(&(last, _)) if last == at => {}
            last => {
                debug_assert!(
                    last.is_none_or(|&(last, _)| last < at),
                    "sampler row at {at:?} precedes the last pass at {last:?}"
                );
                self.passes.push((at, self.len));
            }
        }
        let known = &mut self.series;
        let series = *self.ids.entry((metric, scope)).or_insert_with(|| {
            known.push((metric, scope));
            u32::try_from(known.len() - 1).expect("fewer than 2^32 sampled series")
        });
        if self.len.is_multiple_of(CHUNK) {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        self.chunks.last_mut().expect("a chunk with room").push(Row { series, value });
        self.len += 1;
    }

    /// How many rows have been recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no row has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All recorded rows, in recording order (which is time order).
    pub fn rows(&self) -> impl ExactSizeIterator<Item = Sample> + '_ {
        Rows {
            sampler: self,
            pass: 0,
            row: 0,
        }
    }

    /// Rows of one metric.
    pub fn series<'a>(&'a self, metric: &'a str) -> impl Iterator<Item = Sample> + 'a {
        self.rows().filter(move |s| s.metric == metric)
    }

    /// Deterministic text dump: one `time metric{scope} value` line per
    /// row, in recording order.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for s in self.rows() {
            let _ = writeln!(
                out,
                "{:>12}us {}{{{}}} {}",
                s.at.total_micros(),
                s.metric,
                s.scope,
                s.value
            );
        }
        out
    }
}

/// [`Sampler::rows`]: walks the rows and the passes side by side.
struct Rows<'a> {
    sampler: &'a Sampler,
    /// The pass `row` belongs to.
    pass: usize,
    /// The next row to yield.
    row: usize,
}

impl Iterator for Rows<'_> {
    type Item = Sample;

    fn next(&mut self) -> Option<Sample> {
        let s = self.sampler;
        if self.row == s.len {
            return None;
        }
        let Row { series, value } = s.chunks[self.row / CHUNK][self.row % CHUNK];
        while s.passes.get(self.pass + 1).is_some_and(|&(_, first)| first <= self.row) {
            self.pass += 1;
        }
        self.row += 1;
        let (metric, scope) = s.series[series as usize];
        Some(Sample {
            at: s.passes[self.pass].0,
            metric,
            scope,
            value,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.sampler.len - self.row;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Rows<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadence_advances_and_skips_missed_periods() {
        let mut s = Sampler::new(); // 500 ms
        assert_eq!(s.next_sample_at(), Instant::from_millis(500));
        s.begin_sample(Instant::from_millis(500));
        assert_eq!(s.next_sample_at(), Instant::from_millis(1_000));
        // The loop idled for 2.3 s; the sampler does not replay missed
        // periods, it re-arms strictly past now.
        s.begin_sample(Instant::from_millis(3_300));
        assert_eq!(s.next_sample_at(), Instant::from_millis(3_500));
    }

    #[test]
    fn rows_and_dump_are_faithful() {
        let mut s = Sampler::new();
        s.record(Instant::from_secs(1), "queue_depth", Scope::Link(0), 3);
        s.record(Instant::from_secs(2), "queue_depth", Scope::Link(0), 0);
        s.record(Instant::from_secs(2), "route_version", Scope::Node(1), 7);
        assert_eq!(s.len(), 3);
        assert_eq!(s.series("queue_depth").count(), 2);
        assert_eq!(
            s.dump(),
            "     1000000us queue_depth{link0} 3\n     2000000us queue_depth{link0} 0\n     2000000us route_version{node1} 7\n"
        );
    }

    #[test]
    fn a_stored_row_is_at_most_16_bytes() {
        assert!(std::mem::size_of::<Row>() <= 16);
    }

    #[test]
    fn rows_past_one_chunk_read_back_in_order_and_fill_every_chunk() {
        let mut s = Sampler::new();
        let mut reference = Vec::new();
        // Passes of 1,000 rows, so passes straddle chunk boundaries.
        for pass in 1..=9u64 {
            let at = Instant::from_millis(500 * pass);
            for i in 0..1_000u64 {
                let scope = Scope::Node(i as usize % 7);
                s.record(at, "queue_depth", scope, pass * 1_000 + i);
                reference.push(Sample {
                    at,
                    metric: "queue_depth",
                    scope,
                    value: pass * 1_000 + i,
                });
            }
        }
        assert_eq!(s.len(), 9_000);
        assert_eq!(s.chunks.len(), 9_000usize.div_ceil(CHUNK));
        assert!(s.chunks.iter().all(|c| c.capacity() == CHUNK), "chunks never grow");
        assert!(s.chunks[..s.chunks.len() - 1].iter().all(|c| c.len() == CHUNK));
        assert_eq!(s.rows().len(), reference.len());
        assert_eq!(s.rows().collect::<Vec<_>>(), reference);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "precedes the last pass")]
    fn a_row_earlier_than_the_last_pass_is_refused() {
        let mut s = Sampler::new();
        s.record(Instant::from_secs(2), "queue_depth", Scope::Link(0), 3);
        s.record(Instant::from_secs(1), "queue_depth", Scope::Link(0), 3);
    }

    /// The old layout, one whole `Sample` per row, is the reference:
    /// random passes (many rows at one instant, idle stretches that skip
    /// periods, series that vanish and come back, every `Scope` variant)
    /// must read back identically through every accessor after every
    /// step.
    #[test]
    fn reads_back_exactly_what_a_vec_of_samples_holds() {
        const METRICS: [&str; 4] = ["cwnd", "queue_depth", "route_version", "faults_applied"];
        fn scope(rng: &mut catenet_sim::Rng) -> Scope {
            let small = |rng: &mut catenet_sim::Rng| rng.below(3) as usize;
            match rng.below(5) {
                0 => Scope::Global,
                1 => Scope::Node(small(rng)),
                2 => Scope::Link(small(rng)),
                3 => Scope::Socket {
                    node: small(rng),
                    handle: small(rng),
                },
                _ => Scope::Neighbor {
                    node: small(rng),
                    addr: [10, 0, 0, small(rng) as u8],
                },
            }
        }
        fn dump(rows: &[Sample]) -> String {
            rows.iter()
                .map(|s| {
                    format!(
                        "{:>12}us {}{{{}}} {}\n",
                        s.at.total_micros(),
                        s.metric,
                        s.scope,
                        s.value
                    )
                })
                .collect()
        }
        for case in 0..32 {
            let mut rng = catenet_sim::Rng::for_case("sampler_rows", case);
            let mut sampler = Sampler::new();
            let mut reference: Vec<Sample> = Vec::new();
            for _ in 0..60 {
                // Due now, or after an idle stretch of up to three
                // periods, or between two cadence ticks.
                let now = sampler.next_sample_at()
                    + Sampler::CADENCE * rng.below(4) as u32
                    + Duration::from_micros(rng.below(2) * rng.below(1_000));
                sampler.begin_sample(now);
                // Some passes record nothing at all.
                for _ in 0..rng.below(12) {
                    let row = Sample {
                        at: now,
                        metric: METRICS[rng.below(METRICS.len() as u64) as usize],
                        scope: scope(&mut rng),
                        value: rng.below(1 << 40),
                    };
                    sampler.record(row.at, row.metric, row.scope, row.value);
                    reference.push(row);
                }
                assert_eq!(sampler.len(), reference.len(), "case {case}");
                assert_eq!(sampler.is_empty(), reference.is_empty());
                let rows = sampler.rows();
                assert_eq!(rows.len(), reference.len());
                assert_eq!(rows.collect::<Vec<_>>(), reference, "case {case} at {now:?}");
                for metric in METRICS {
                    let want: Vec<Sample> =
                        reference.iter().filter(|s| s.metric == metric).copied().collect();
                    assert_eq!(sampler.series(metric).collect::<Vec<_>>(), want);
                }
                assert_eq!(sampler.dump(), dump(&reference), "case {case}");
            }
        }
    }
}
