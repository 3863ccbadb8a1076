//! The time-series sampler: rows at a fixed virtual-time cadence.
//!
//! The sampler does not drive itself — the network's event loop merges
//! [`Sampler::next_sample_at`] into its own timeline and calls back when
//! the cadence comes due, exactly as it interleaves fault-plan events.
//! At an instant shared with a fault the loop applies the fault first,
//! so the sample records post-fault state (tested from the network side).

use crate::registry::Scope;
use catenet_sim::{Duration, Instant};

/// One recorded time-series row.
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

/// The sampler: cadence state plus the recorded rows.
#[derive(Debug)]
pub struct Sampler {
    next: Instant,
    rows: Vec<Sample>,
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
            rows: Vec::new(),
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

    /// Record one row.
    pub fn record(&mut self, at: Instant, metric: &'static str, scope: Scope, value: u64) {
        self.rows.push(Sample {
            at,
            metric,
            scope,
            value,
        });
    }

    /// All recorded rows, in recording order (which is time order: the
    /// event loop only moves forward).
    pub fn rows(&self) -> &[Sample] {
        &self.rows
    }

    /// Rows of one metric.
    pub fn series<'a>(&'a self, metric: &'a str) -> impl Iterator<Item = &'a Sample> + 'a {
        self.rows.iter().filter(move |s| s.metric == metric)
    }

    /// Deterministic text dump: one `time metric{scope} value` line per
    /// row, in recording order.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for s in &self.rows {
            out.push_str(&format!(
                "{:>12}us {}{{{}}} {}\n",
                s.at.total_micros(),
                s.metric,
                s.scope,
                s.value
            ));
        }
        out
    }
}

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
        assert_eq!(s.rows().len(), 3);
        assert_eq!(s.series("queue_depth").count(), 2);
        assert_eq!(
            s.dump(),
            "     1000000us queue_depth{link0} 3\n     2000000us queue_depth{link0} 0\n     2000000us route_version{node1} 7\n"
        );
    }
}
