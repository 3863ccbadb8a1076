//! The metric names and units of `BENCHMARK.json`, in one place, so a
//! run cannot emit a name the contract does not list or skip one it
//! does.

use crate::harness::{self, quiet_rate, Report, Slice};
use std::collections::HashMap;

pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("events_per_s", "events/s"),
    ("goodput_mb_s", "MB/s"),
    ("cpu_ms_per_mb", "ms/MB"),
    ("peak_rss_mb", "MB"),
];

/// Host times carry a time unit; simulated time is `sim_us`, and a
/// count or share a workload has no use for reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("harness.timed_wall_s", "s"),
    ("harness.slices", "count"),
    ("harness.slice_iqr_pct", "%"),
    ("harness.host_calib_ms", "ms"),
    ("harness.trace_overhead_pct", "%"),
    ("harness.ref_kernels", "count"),
    ("sim.sched.events", "count"),
    ("sim.sched.ns_per_op", "ns/op"),
    ("sim.sched.share", "ratio"),
    ("sim.sched.overflow_inserts", "count"),
    ("sim.link.transmits", "count"),
    ("sim.link.ns_per_transmit", "ns/op"),
    ("sim.link.share", "ratio"),
    ("sim.link.queue_drops", "count"),
    ("sim.link.loss_drops", "count"),
    ("wire.ns_per_parse", "ns/op"),
    ("wire.checksum_ns_per_kb", "ns/KB"),
    ("core.node.forwards", "count"),
    ("core.node.ns_per_forward", "ns/op"),
    ("core.node.forward_share", "ratio"),
    ("core.node.service_passes", "count"),
    ("core.node.passes_per_event", "ratio"),
    ("core.node.ns_per_idle_service", "ns/op"),
    ("core.node.service_share", "ratio"),
    ("core.pool.fresh", "count"),
    ("core.pool.recycled", "count"),
    ("core.pool.shift_copies", "count"),
    ("core.pool.bytes_copied_per_forward", "B/op"),
    ("alloc.count_per_kevent", "1/kevent"),
    ("alloc.bytes_per_kevent", "B/kevent"),
    ("core.network.ns_per_event", "ns/event"),
    ("core.network.ns_per_event_first_slice", "ns/event"),
    ("core.network.ns_per_event_last_slice", "ns/event"),
    ("core.network.unattributed_share", "ratio"),
    ("core.network.coldstart_s", "s"),
    ("core.network.coldstart_events", "count"),
    ("core.lane.windows", "count"),
    ("core.lane.avg_span_us", "sim_us"),
    ("core.lane.events_per_window", "events/window"),
    ("core.lane.collapsed", "count"),
    ("core.lane.barrier_stalls", "count"),
    ("core.lane.dispatched", "count"),
    ("core.lane.skipped", "count"),
    ("core.lane.protocol_overhead_pct", "%"),
    ("core.lane.thread_speedup", "ratio"),
    ("core.lane.nonlane_us_per_window", "us/window"),
    ("tcp.segs_sent", "count"),
    ("tcp.retransmits", "count"),
    ("tcp.timeouts", "count"),
    ("tcp.retransmit_ratio", "ratio"),
    ("tcp.ns_per_segment", "ns/op"),
    ("tcp.share", "ratio"),
    ("routing.updates", "count"),
    ("routing.ns_per_update", "ns/op"),
    ("routing.share", "ratio"),
    ("telemetry.ns_per_counter_add", "ns/op"),
    ("telemetry.series_rows", "count"),
    ("telemetry.dump_ms", "ms"),
    ("substrate.tunnel.ns_per_encode", "ns/op"),
    ("substrate.tunnel.ns_per_decode", "ns/op"),
    ("substrate.tunnel.dropped", "count"),
    ("substrate.clock.sleeps_per_s", "1/s"),
    ("substrate.clock.sleep_share", "ratio"),
    ("substrate.frames_per_wakeup", "ratio"),
    ("substrate.rtt_p50_us", "us"),
    ("substrate.rtt_p90_us", "us"),
    ("substrate.rtt_p99_us", "us"),
];

/// Values gathered for one of the tables above.
pub struct Values {
    table: &'static [(&'static str, &'static str)],
    values: HashMap<&'static str, f64>,
}

impl Values {
    pub fn of(table: &'static [(&'static str, &'static str)]) -> Values {
        Values {
            table,
            values: HashMap::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.table.iter().any(|(n, _)| *n == name),
            "{name} is not a metric of this table"
        );
        self.values.insert(name, value);
    }

    /// The three end-to-end rates, from the slices of a timed section.
    pub fn set_rates(&mut self, slices: &[Slice]) {
        self.set("events_per_s", quiet_rate(slices, harness::events_per_s));
        self.set("goodput_mb_s", quiet_rate(slices, harness::goodput_mb_s));
        self.set("cpu_ms_per_mb", harness::cpu_ms_per_mb(slices));
    }

    /// Host time per event over `slices`, and over their first and
    /// last tenth: one slice of a few milliseconds says nothing alone.
    pub fn set_ns_per_event(&mut self, slices: &[Slice]) {
        let tenth = (slices.len() / 10).max(1);
        let ns_per_event = |slices: &[Slice]| 1e9 / quiet_rate(slices, harness::events_per_s);
        self.set("core.network.ns_per_event", ns_per_event(slices));
        self.set(
            "core.network.ns_per_event_first_slice",
            ns_per_event(&slices[..tenth]),
        );
        self.set(
            "core.network.ns_per_event_last_slice",
            ns_per_event(&slices[slices.len() - tenth..]),
        );
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Emit every metric of the table, in table order. An end-to-end
    /// metric left unset or at zero is a bug in the workload.
    pub fn emit(&self, report: &mut Report) {
        for &(name, unit) in self.table {
            let value = self.get(name);
            assert!(
                value > 0.0 || !std::ptr::eq(self.table, END_TO_END),
                "end-to-end metric {name} was not measured"
            );
            report.metric(name, value, unit);
        }
    }
}
