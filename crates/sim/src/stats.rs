//! Summary statistics for the experiment harness.
//!
//! Every experiment in `EXPERIMENTS.md` that reports a distribution
//! reports one of durations (one-way latencies, round-trip times), in
//! milliseconds; this module is the one place those numbers are
//! computed.

use crate::time::Duration;

/// An accumulating set of durations with summary accessors in
/// milliseconds.
///
/// A sample is kept as whole microseconds: a sink keeps one per datagram
/// it receives, and a topology with ten thousand sinks holds more of
/// them than of anything else. A path's latencies spread over a few
/// milliseconds, so a set stores each as a `u16` offset from a base its
/// first sample sets (half the offset range below that sample), and
/// widens itself to whole `u32` microseconds the first time a sample
/// falls outside `base ..= base + 65,535 µs`. Every accessor reads a
/// sample back as `micros as f64 / 1000.0`, in recording order, so each
/// figure is computed from exactly the `f64` milliseconds a caller
/// converting at the sample would have recorded. The conversion
/// preserves order, so percentiles sort the integers.
#[derive(Clone)]
pub struct Summary {
    samples: Samples,
}

/// A [`Summary`]'s samples, in recording order.
#[derive(Clone)]
enum Samples {
    /// Every sample is `base + offset` µs.
    Narrow { base: u32, offsets: Vec<u16> },
    /// Whole microseconds.
    Wide(Vec<u32>),
}

impl Default for Summary {
    fn default() -> Summary {
        Summary::new()
    }
}

/// How far below its first sample a set's base lies: half the `u16`
/// range, so samples on either side of the first one stay narrow.
const BASE_BELOW_FIRST: u32 = 1 << 15;

/// A sample as the milliseconds every accessor reports.
fn millis(micros: u32) -> f64 {
    f64::from(micros) / 1000.0
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Summary {
        Summary {
            samples: Samples::Narrow {
                base: 0,
                offsets: Vec::new(),
            },
        }
    }

    /// Record one sample. A sample of 2^32 µs (about 71.6 minutes) or
    /// more is rejected loudly: no path in any experiment is that long,
    /// so it always indicates a harness bug.
    pub fn record(&mut self, sample: Duration) {
        let micros = sample.total_micros();
        let micros = u32::try_from(micros)
            .unwrap_or_else(|_| panic!("sample of {micros} µs does not fit in 2^32 µs"));
        self.push(micros);
    }

    fn push(&mut self, micros: u32) {
        match &mut self.samples {
            Samples::Narrow { base, offsets } => {
                if offsets.is_empty() {
                    *base = micros.saturating_sub(BASE_BELOW_FIRST);
                }
                match micros.checked_sub(*base).and_then(|d| u16::try_from(d).ok()) {
                    Some(offset) => offsets.push(offset),
                    None => {
                        let narrow = offsets.iter().map(|&offset| *base + u32::from(offset));
                        self.samples = Samples::Wide(narrow.chain([micros]).collect());
                    }
                }
            }
            Samples::Wide(wide) => wide.push(micros),
        }
    }

    /// Record every sample of `other`, after this set's own.
    pub fn merge(&mut self, other: &Summary) {
        for micros in other.micros() {
            self.push(micros);
        }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        match &self.samples {
            Samples::Narrow { offsets, .. } => offsets.len(),
            Samples::Wide(wide) => wide.len(),
        }
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// The samples in whole microseconds, in recording order.
    fn micros(&self) -> impl Iterator<Item = u32> + '_ {
        let (base, offsets, wide): (u32, &[u16], &[u32]) = match &self.samples {
            Samples::Narrow { base, offsets } => (*base, offsets, &[]),
            Samples::Wide(wide) => (0, &[], wide),
        };
        let narrow = offsets.iter().map(move |&offset| base + u32::from(offset));
        narrow.chain(wide.iter().copied())
    }

    /// The samples in milliseconds, in recording order.
    fn samples(&self) -> impl Iterator<Item = f64> + '_ {
        self.micros().map(millis)
    }

    /// Arithmetic mean, or 0 for an empty set.
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.total() / self.count() as f64
    }

    /// Sample standard deviation (n−1 denominator), or 0 with <2 samples.
    pub fn stddev(&self) -> f64 {
        if self.count() < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self.samples().map(|v| (v - mean) * (v - mean)).sum::<f64>()
            / (self.count() - 1) as f64;
        var.sqrt()
    }

    /// Smallest sample, or 0 for an empty set.
    pub fn min(&self) -> f64 {
        self.micros().min().map_or(0.0, millis)
    }

    /// Largest sample, or 0 for an empty set.
    pub fn max(&self) -> f64 {
        self.micros().max().map_or(0.0, millis)
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank on the sorted samples.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let mut sorted: Vec<u32> = self.micros().collect();
        sorted.sort_unstable();
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        millis(sorted[rank - 1])
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.percentile(0.5)
    }

    /// Sum of all samples.
    pub fn total(&self) -> f64 {
        self.samples().sum()
    }

    /// The samples in milliseconds, in recording order.
    pub fn values(&self) -> Vec<f64> {
        self.samples().collect()
    }
}

impl FromIterator<Duration> for Summary {
    fn from_iter<I: IntoIterator<Item = Duration>>(iter: I) -> Summary {
        let mut s = Summary::new();
        for sample in iter {
            s.record(sample);
        }
        s
    }
}

/// The samples in milliseconds, as a `Summary` of `f64`s would print
/// them (E2's golden digest hashes this text).
impl core::fmt::Debug for Summary {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Summary")
            .field("values", &self.values())
            .finish()
    }
}

impl core::fmt::Display for Summary {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} p50={:.3} p95={:.3} max={:.3}",
            self.count(),
            self.mean(),
            self.stddev(),
            self.min(),
            self.median(),
            self.percentile(0.95),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    fn ms(samples: &[u64]) -> Summary {
        samples.iter().map(|&m| Duration::from_millis(m)).collect()
    }

    #[test]
    fn empty_summary_is_all_zero() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.percentile(0.5), 0.0);
    }

    #[test]
    fn mean_and_total() {
        let s = ms(&[1, 2, 3, 4]);
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.total(), 10.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn stddev_matches_hand_computation() {
        let s = ms(&[2, 4, 4, 4, 5, 5, 7, 9]);
        // Sample variance of this classic set is 32/7.
        let expected = (32.0f64 / 7.0).sqrt();
        assert!((s.stddev() - expected).abs() < 1e-12);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let s = ms(&(1..=100).collect::<Vec<_>>());
        assert_eq!(s.percentile(0.50), 50.0);
        assert_eq!(s.percentile(0.95), 95.0);
        assert_eq!(s.percentile(0.99), 99.0);
        assert_eq!(s.percentile(1.0), 100.0);
        assert_eq!(s.percentile(0.0), 1.0); // clamped to first rank
        assert_eq!(s.median(), 50.0);
    }

    #[test]
    fn percentile_unsorted_input() {
        let s = ms(&[9, 1, 5]);
        assert_eq!(s.median(), 5.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn a_sample_of_2_to_the_32_micros_is_rejected() {
        let mut s = Summary::new();
        s.record(Duration::from_micros(u64::from(u32::MAX)));
        assert_eq!(s.max(), f64::from(u32::MAX) / 1000.0);
        s.record(Duration::from_micros(1 << 32));
    }

    #[test]
    fn display_is_stable() {
        let s = ms(&[1, 2]);
        let text = s.to_string();
        assert!(text.contains("n=2"));
        assert!(text.contains("mean=1.500"));
    }

    #[test]
    fn merge_appends_in_order() {
        let mut s = ms(&[3, 1]);
        s.merge(&ms(&[2]));
        assert_eq!(s.values(), vec![3.0, 1.0, 2.0]);
    }

    /// What a `Summary` was when it kept the `f64` milliseconds
    /// themselves, accessor for accessor: the reference every figure
    /// must equal bit for bit.
    mod reference {
        #[derive(Debug)]
        pub struct Summary {
            pub values: Vec<f64>,
        }

        impl Summary {
            pub fn mean(&self) -> f64 {
                if self.values.is_empty() {
                    return 0.0;
                }
                self.values.iter().sum::<f64>() / self.values.len() as f64
            }

            pub fn stddev(&self) -> f64 {
                if self.values.len() < 2 {
                    return 0.0;
                }
                let mean = self.mean();
                let var = self
                    .values
                    .iter()
                    .map(|v| (v - mean) * (v - mean))
                    .sum::<f64>()
                    / (self.values.len() - 1) as f64;
                var.sqrt()
            }

            pub fn min(&self) -> f64 {
                let min = self.values.iter().copied().fold(f64::INFINITY, f64::min);
                if min.is_finite() {
                    min
                } else {
                    0.0
                }
            }

            pub fn max(&self) -> f64 {
                let max = self
                    .values
                    .iter()
                    .copied()
                    .fold(f64::NEG_INFINITY, f64::max);
                if max.is_finite() {
                    max
                } else {
                    0.0
                }
            }

            pub fn percentile(&self, q: f64) -> f64 {
                if self.values.is_empty() {
                    return 0.0;
                }
                let mut sorted = self.values.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
                let q = q.clamp(0.0, 1.0);
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                sorted[rank - 1]
            }

            pub fn total(&self) -> f64 {
                self.values.iter().sum()
            }

            pub fn display(&self) -> String {
                format!(
                    "n={} mean={:.3} sd={:.3} min={:.3} p50={:.3} p95={:.3} max={:.3}",
                    self.values.len(),
                    self.mean(),
                    self.stddev(),
                    self.min(),
                    self.percentile(0.5),
                    self.percentile(0.95),
                    self.max()
                )
            }
        }
    }

    /// Every figure of `summary` equals the reference's for `micros`.
    fn assert_same_figures(case: &str, summary: &Summary, micros: &[u64]) {
        let reference = reference::Summary {
            values: micros.iter().map(|&us| us as f64 / 1000.0).collect(),
        };
        let same = |name: &str, got: f64, want: f64| {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{case}: {name} {got} != {want}"
            );
        };
        same("mean", summary.mean(), reference.mean());
        same("stddev", summary.stddev(), reference.stddev());
        same("min", summary.min(), reference.min());
        same("max", summary.max(), reference.max());
        same("total", summary.total(), reference.total());
        for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            same("percentile", summary.percentile(q), reference.percentile(q));
        }
        assert_eq!(summary.count(), reference.values.len());
        assert_eq!(summary.to_string(), reference.display(), "{case}");
        assert_eq!(format!("{summary:?}"), format!("{reference:?}"), "{case}");
        assert_eq!(format!("{summary:#?}"), format!("{reference:#?}"), "{case}");
    }

    fn summary_of(micros: &[u64]) -> Summary {
        micros.iter().map(|&us| Duration::from_micros(us)).collect()
    }

    fn is_wide(summary: &Summary) -> bool {
        matches!(summary.samples, Samples::Wide(_))
    }

    #[test]
    fn every_figure_equals_the_f64_reference_bit_for_bit() {
        for case in 0..256 {
            let mut rng = Rng::for_case("summary_exact", case);
            // Sub-millisecond, voice-path and full-range samples, with
            // ties at the small bound.
            let bound = [10, 1_000, 300_000, 1 << 32][case as usize % 4];
            let count = rng.below(300) as usize;
            let micros: Vec<u64> = (0..count).map(|_| rng.below(bound)).collect();
            assert_same_figures(&format!("case {case}"), &summary_of(&micros), &micros);

            // A set that widens mid-set: samples within a few ms of the
            // first, then one just outside `base ..= base + 65,535`
            // (above on even cases, below on odd ones), then more.
            let first = (1 << 16) + rng.below(1 << 31);
            let base = first - u64::from(BASE_BELOW_FIRST);
            let near = |rng: &mut Rng| first - 3_000 + rng.below(6_000);
            let before = 1 + rng.below(150) as usize;
            let mut micros = vec![first];
            micros.extend((1..before).map(|_| near(&mut rng)));
            // The range's two ends still fit.
            micros.extend([base, base + 65_535]);
            let mut summary = summary_of(&micros);
            assert!(!is_wide(&summary), "case {case}: widened inside the range");
            let outlier = if case % 2 == 0 {
                base + 65_536 + rng.below(1 << 20)
            } else {
                base - 1 - rng.below(base)
            };
            micros.push(outlier);
            summary.record(Duration::from_micros(outlier));
            assert!(is_wide(&summary), "case {case}: {outlier} µs stayed narrow");
            for _ in 0..rng.below(150) {
                let us = near(&mut rng);
                micros.push(us);
                summary.record(Duration::from_micros(us));
            }
            assert_same_figures(&format!("widened case {case}"), &summary, &micros);

            // A wide set merged into a narrow one, and the other way.
            let narrow: Vec<u64> = (0..rng.below(100)).map(|_| near(&mut rng)).collect();
            let mut merged = summary_of(&narrow);
            merged.merge(&summary);
            let both: Vec<u64> = narrow.iter().chain(&micros).copied().collect();
            assert_same_figures(&format!("narrow ← wide, case {case}"), &merged, &both);
            let mut merged = summary.clone();
            merged.merge(&summary_of(&narrow));
            let both: Vec<u64> = micros.iter().chain(&narrow).copied().collect();
            assert_same_figures(&format!("wide ← narrow, case {case}"), &merged, &both);
        }
    }

    #[test]
    fn a_summary_is_at_most_32_bytes() {
        assert!(std::mem::size_of::<Summary>() <= 32);
    }
}
