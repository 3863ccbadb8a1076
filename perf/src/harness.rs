//! Measurement plumbing shared by every workload: slice records and
//! their quiet-host quantiles, process CPU and memory readings, spans,
//! the host calibration kernel, and the result line the driver parses.

use std::fmt::Write as _;
use std::time::Instant;

/// Times the set-up is repeated in an untraced run, at least.
pub const SETUP_REPS: usize = 5;

/// Share of the samples taken as measured on an undisturbed host.
///
/// Other tenants of the machine only ever slow a slice down, for
/// milliseconds or for minutes, so the centre of the slices moves with
/// their load and the fast tail does not: over ten runs the median
/// slice rate of the simulator workloads spreads 12-20 %, the 95th
/// percentile 4-5 % (README, "The quiet-tail rule"). A quantile rather
/// than the extreme, so that a few slices of unusually cheap events
/// cannot set the result.
const QUIET_TAIL: f64 = 0.05;

/// One timed slice: equal virtual time on the simulator, equal wall
/// time on the real substrate.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub events: u64,
    /// Application payload delivered. The real substrate counts it per
    /// slice; the simulator shares a section's payload out over its
    /// slices by their events ([`attribute_payload`]).
    pub payload_bytes: f64,
}

/// Share `payload_bytes`, delivered over all of `slices`, out among
/// them in proportion to their events. Reading ten thousand sink
/// counters after every few-millisecond slice would cost more than the
/// slice; the payload per event of a section is exact on the simulator.
pub fn attribute_payload(slices: &mut [Slice], payload_bytes: u64) {
    let events: u64 = slices.iter().map(|s| s.events).sum();
    for slice in slices {
        slice.payload_bytes = payload_bytes as f64 * slice.events as f64 / events.max(1) as f64;
    }
}

/// The rate the fastest slices sustain: the `1 - QUIET_TAIL` quantile
/// over slices of each slice's own rate. A slice that moved nothing is
/// skipped rather than read as a zero rate.
pub fn quiet_rate(slices: &[Slice], rate: impl Fn(&Slice) -> Option<f64>) -> f64 {
    quantile(slices.iter().filter_map(rate).collect(), 1.0 - QUIET_TAIL)
}

/// The cost the cheapest samples show: the `QUIET_TAIL` quantile.
pub fn quiet_cost(costs: Vec<f64>) -> f64 {
    quantile(costs, QUIET_TAIL)
}

pub fn events_per_s(s: &Slice) -> Option<f64> {
    (s.events > 0).then(|| s.events as f64 / s.wall_s)
}

pub fn goodput_mb_s(s: &Slice) -> Option<f64> {
    (s.payload_bytes > 0.0).then(|| s.payload_bytes / 1e6 / s.wall_s)
}

/// Process CPU per delivered MB: the quiet quantile over slices.
pub fn cpu_ms_per_mb(slices: &[Slice]) -> f64 {
    let cost = |s: &Slice| (s.payload_bytes > 0.0).then(|| s.cpu_s * 1e3 / (s.payload_bytes / 1e6));
    quiet_cost(slices.iter().filter_map(cost).collect())
}

/// The `q`-quantile by linear interpolation; 0 for an empty sample.
pub fn quantile(mut values: Vec<f64>, q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite measurements"));
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn median(values: Vec<f64>) -> f64 {
    quantile(values, 0.5)
}

/// Interquartile range as a percentage of the median.
pub fn iqr_pct(values: &[f64]) -> f64 {
    let mid = median(values.to_vec());
    if mid == 0.0 {
        return 0.0;
    }
    (quantile(values.to_vec(), 0.75) - quantile(values.to_vec(), 0.25)) / mid * 100.0
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64, continued from `hash`.
pub fn fnv64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A fixed, cache-resident checksum loop owned by the benchmark (so no
/// change to the crates can move it): how fast the host is right now.
pub fn host_calib_ms() -> f64 {
    let words: Vec<u64> = (0..4096u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let start = Instant::now();
    let mut acc = 0u64;
    for round in 0..2000u64 {
        for &w in std::hint::black_box(&words) {
            acc = acc.rotate_left(1) ^ w.wrapping_add(round);
        }
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// Spans of one run, kept in memory and written out at exit.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

struct Span {
    name: String,
    start_us: u64,
    end_us: u64,
    parent: Option<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Time `f` as a span named `name`, a child of whichever span is
    /// open; returns `f`'s result and the span's seconds.
    pub fn span<R>(
        &mut self,
        name: impl Into<String>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        let id = self.spans.len();
        let start_us = self.epoch.elapsed().as_micros() as u64;
        self.spans.push(Span {
            name: name.into(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let started = Instant::now();
        let result = f(self);
        let secs = started.elapsed().as_secs_f64();
        self.open.pop();
        self.spans[id].end_us = self.epoch.elapsed().as_micros() as u64;
        (result, secs)
    }

    /// Write the spans as JSON to `perf/out/trace-<workload>.json`.
    pub fn write(&self, workload: &str) -> std::io::Result<()> {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        std::fs::create_dir_all(dir)?;
        let mut out = String::from("[\n");
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {id}, \"name\": \"{}\", \"start_us\": {}, \"end_us\": {}, \"parent\": {parent}}}{}",
                span.name,
                span.start_us,
                span.end_us,
                if id + 1 < self.spans.len() { "," } else { "" },
            );
        }
        out.push_str("]\n");
        std::fs::write(format!("{dir}/trace-{workload}.json"), out)
    }
}

/// What one run reports: the metrics of its mode, the operation count,
/// and whether every check held.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "{name} is not a finite measurement");
        println!("{name:<44} {value:>16.4} {unit}");
        self.metrics.push((name, value, unit));
    }

    /// Record a failed check; the run reports `correct: false`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            println!("CHECK FAILED: {what}");
            self.violations.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The line the driver reads: one JSON object, last on stdout.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", "),
        )
    }
}
