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
/// A sample is kept as whole microseconds in a `u32`, half of what an
/// `f64` or a [`Duration`] costs: a sink keeps one per datagram it
/// receives, and a topology with ten thousand sinks holds more of them
/// than of anything else. Every accessor reads a sample back as
/// `micros as f64 / 1000.0`, in recording order, so each figure is
/// computed from exactly the `f64` milliseconds a caller converting at
/// the sample would have recorded. The conversion preserves order, so
/// percentiles sort the integers.
#[derive(Clone, Default)]
pub struct Summary {
    micros: Vec<u32>,
}

/// A sample as the milliseconds every accessor reports.
fn millis(micros: u32) -> f64 {
    f64::from(micros) / 1000.0
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Summary {
        Summary { micros: Vec::new() }
    }

    /// Record one sample. A sample of 2^32 µs (about 71.6 minutes) or
    /// more is rejected loudly: no path in any experiment is that long,
    /// so it always indicates a harness bug.
    pub fn record(&mut self, sample: Duration) {
        let micros = sample.total_micros();
        let micros = u32::try_from(micros)
            .unwrap_or_else(|_| panic!("sample of {micros} µs does not fit in 2^32 µs"));
        self.micros.push(micros);
    }

    /// Record every sample of `other`, after this set's own.
    pub fn merge(&mut self, other: &Summary) {
        self.micros.extend_from_slice(&other.micros);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.micros.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.micros.is_empty()
    }

    /// The samples in milliseconds, in recording order.
    fn samples(&self) -> impl Iterator<Item = f64> + '_ {
        self.micros.iter().map(|&us| millis(us))
    }

    /// Arithmetic mean, or 0 for an empty set.
    pub fn mean(&self) -> f64 {
        if self.micros.is_empty() {
            return 0.0;
        }
        self.total() / self.micros.len() as f64
    }

    /// Sample standard deviation (n−1 denominator), or 0 with <2 samples.
    pub fn stddev(&self) -> f64 {
        if self.micros.len() < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self.samples().map(|v| (v - mean) * (v - mean)).sum::<f64>()
            / (self.micros.len() - 1) as f64;
        var.sqrt()
    }

    /// Smallest sample, or 0 for an empty set.
    pub fn min(&self) -> f64 {
        self.micros.iter().min().map_or(0.0, |&us| millis(us))
    }

    /// Largest sample, or 0 for an empty set.
    pub fn max(&self) -> f64 {
        self.micros.iter().max().map_or(0.0, |&us| millis(us))
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank on the sorted samples.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.micros.is_empty() {
            return 0.0;
        }
        let mut sorted = self.micros.clone();
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

    #[test]
    fn every_figure_equals_the_f64_reference_bit_for_bit() {
        for case in 0..256 {
            let mut rng = Rng::for_case("summary_exact", case);
            // Sub-millisecond, voice-path and full-range samples, with
            // ties at the small bound.
            let bound = [10, 1_000, 300_000, 1 << 32][case as usize % 4];
            let count = rng.below(300) as usize;
            let micros: Vec<u64> = (0..count).map(|_| rng.below(bound)).collect();
            let summary: Summary = micros.iter().map(|&us| Duration::from_micros(us)).collect();
            let reference = reference::Summary {
                values: micros.iter().map(|&us| us as f64 / 1000.0).collect(),
            };
            let same = |name: &str, got: f64, want: f64| {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "case {case}: {name} {got} != {want}"
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
            assert_eq!(summary.to_string(), reference.display(), "case {case}");
            assert_eq!(
                format!("{summary:?}"),
                format!("{reference:?}"),
                "case {case}"
            );
            assert_eq!(
                format!("{summary:#?}"),
                format!("{reference:#?}"),
                "case {case}"
            );
        }
    }
}
