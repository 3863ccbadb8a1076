//! The three simulator workloads: topology builders, the untraced run
//! (repeated set-up, slices of a few milliseconds each, a fixed-work
//! checkpoint) and the traced run (counts, captures, replays).

use catenet_core::app::{BulkResult, BulkSender, CbrSink, CbrSource};
use catenet_core::iface::Framing;
use catenet_core::{Endpoint, Network, PoolStats, ShardKind, ShardStats, Shared, TcpConfig};
use catenet_sim::{Duration, Instant, LinkClass, LinkParams, Rng, SchedStats, Summary};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::alloc;
use crate::apps::{expected_receipt, SinkCounters, VerifySink, RECEIPT_BYTES};
use crate::cputime::process_cpu_s;
use crate::harness::{
    self, attribute_payload, fnv64, host_calib_ms, iqr_pct, median, peak_rss_mb, quiet_cost,
    quiet_rate, Report, Slice, Tracer, FNV_OFFSET, SETUP_REPS,
};
use crate::layers::{self, Capture};
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::real;

const CBR_SIZE: usize = 160;
const CBR_INTERVAL: Duration = Duration::from_millis(200);
/// Each cell's flows target the host two cells on: five trunk hops.
const CELL_SKIP: usize = 2;
const FLOWS_PER_CELL: usize = 20;
/// Virtual time the network keeps running after the last slice so
/// datagrams in flight can land before they are counted.
const DRAIN: Duration = Duration::from_secs(1);
/// Slices every untraced run completes before its fixed-work
/// checkpoint, however slow the host is.
const FIXED_SLICES: usize = 2000;
/// Slices of a traced run per second asked for: plain, under the
/// counting allocator, and with the tap and scheduler trace armed.
const PLAIN_SLICES_PER_S: f64 = 25.0;
const COUNTED_SLICES: usize = 100;
const TAPPED_SLICES_PER_S: f64 = 16.0;

/// One simulator workload.
pub struct Spec {
    pub name: &'static str,
    /// Execution arm of the untraced run.
    shard: ShardKind,
    /// Times an untraced run sets up: more often where it is cheap.
    setup_reps: usize,
    /// Flows start here; before it the network only converges routing.
    flow_start: Instant,
    /// End of warm-up, start of the first slice.
    warm: Instant,
    /// Virtual span of one slice: 5 to 8 ms of host time, short enough
    /// that some slices of every run fall between other tenants' bursts.
    slice: Duration,
    build: fn(u64, ShardKind, Instant) -> Sim,
    /// Simulated CBR one-way latency must land in this range (ms).
    latency_ms: Option<(f64, f64)>,
}

pub const TRANSIT_CBR: Spec = Spec {
    name: "transit-cbr",
    shard: ShardKind::Single,
    setup_reps: SETUP_REPS,
    flow_start: Instant::from_secs(8),
    warm: Instant::from_secs(10),
    slice: Duration::from_millis(10),
    build: build_transit,
    // Five T1 hops of 30 ms plus serialization, jitter and two LANs.
    latency_ms: Some((150.0, 200.0)),
};

pub const TCP_BULK: Spec = Spec {
    name: "tcp-bulk",
    shard: ShardKind::Single,
    setup_reps: 2 * SETUP_REPS,
    flow_start: Instant::from_secs(2),
    warm: Instant::from_secs(8),
    slice: Duration::from_millis(40),
    build: build_tcp_bulk,
    latency_ms: None,
};

pub const LANES_METRO: Spec = Spec {
    name: "lanes-metro",
    shard: ShardKind::Parallel { shards: 2 },
    setup_reps: 2 * SETUP_REPS,
    flow_start: Instant::from_secs(8),
    warm: Instant::from_secs(10),
    slice: Duration::from_millis(30),
    build: build_metro,
    // Five 1 ms trunk hops plus two LANs.
    latency_ms: Some((5.0, 9.0)),
};

/// A built network and the handles its applications publish through.
pub struct Sim {
    net: Network,
    cbr_sent: Vec<Shared<u64>>,
    cbr_received: Vec<Shared<u64>>,
    cbr_latency: Vec<Shared<Summary>>,
    tcp_sinks: Vec<Arc<SinkCounters>>,
    tcp_results: Vec<Shared<BulkResult>>,
}

/// `class` with its random loss and corruption switched off: the CBR
/// workloads count every datagram, so none may be lost by design.
pub fn lossless(class: LinkClass) -> LinkParams {
    LinkParams {
        loss: 0.0,
        corruption: 0.0,
        ..class.params()
    }
}

/// A ring of gateways with a host on each, built in E17's cell order
/// (`g, src, g, dst, …`) so lane boundaries fall between cells and
/// only trunks cross lanes. Every source host runs
/// [`FLOWS_PER_CELL`] CBR flows whose first datagrams are staggered
/// over one sending interval; synchronised starts would bunch the
/// whole load into one instant per interval.
fn build_ring(
    gateways: usize,
    trunk: LinkParams,
    seed: u64,
    shard: ShardKind,
    flow_start: Instant,
) -> Sim {
    assert!(gateways.is_multiple_of(2), "cells need gateway pairs");
    let cells = gateways / 2;
    let mut net = Network::with_shards(seed, shard);
    let mut gs = Vec::with_capacity(gateways);
    let (mut srcs, mut dsts) = (Vec::with_capacity(cells), Vec::with_capacity(cells));
    for i in 0..gateways {
        let g = net.add_gateway(format!("g{i}"));
        if let Some(&prev) = gs.last() {
            net.connect_with(prev, g, trunk.clone(), Framing::RawIp);
        }
        gs.push(g);
        let host = net.add_host(format!("h{i}"));
        net.connect_with(host, g, lossless(LinkClass::EthernetLan), Framing::Ethernet);
        if i % 2 == 0 { &mut srcs } else { &mut dsts }.push(host);
    }
    net.connect_with(gs[gateways - 1], gs[0], trunk, Framing::RawIp);

    let mut sim = Sim::around(net);
    let mut stagger = Rng::from_seed(seed ^ 0x57A6_6E12);
    for cell in 0..cells {
        let target = dsts[(cell + CELL_SKIP) % cells];
        let dst_addr = sim.net.node(target).primary_addr();
        for flow in 0..FLOWS_PER_CELL {
            let port = 5000 + flow as u16;
            let sink = CbrSink::new(port);
            sim.cbr_received.push(Arc::clone(&sink.received));
            sim.cbr_latency.push(Arc::clone(&sink.latencies_ms));
            sim.net.attach_app(target, Box::new(sink));
            let offset = Duration::from_micros(stagger.below(CBR_INTERVAL.total_micros()));
            let source = CbrSource::new(
                Endpoint::new(dst_addr, port),
                CBR_INTERVAL,
                CBR_SIZE,
                flow_start + offset,
                Instant::from_secs(1_000_000),
            );
            sim.cbr_sent.push(Arc::clone(&source.sent));
            sim.net.attach_app(srcs[cell], Box::new(source));
        }
    }
    sim
}

fn build_transit(seed: u64, shard: ShardKind, flow_start: Instant) -> Sim {
    build_ring(
        1024,
        lossless(LinkClass::T1Terrestrial),
        seed,
        shard,
        flow_start,
    )
}

fn build_metro(seed: u64, shard: ShardKind, flow_start: Instant) -> Sim {
    // 1 ms of lookahead between lanes: about a thousand windows per
    // virtual second, each holding a few hundred events.
    let trunk = LinkParams {
        name: "metro-trunk",
        bandwidth_bps: 100_000_000,
        propagation: Duration::from_millis(1),
        jitter: Duration::from_micros(50),
        loss: 0.0,
        corruption: 0.0,
        mtu: 1500,
        queue_limit: 100,
    };
    build_ring(256, trunk, seed, shard, flow_start)
}

/// Sixteen host pairs on their own Ethernet LANs either side of two
/// gateways joined by a gigabit LAN; one unbounded bulk transfer per
/// pair, checked byte by byte at the receiver. The LANs keep their
/// class's loss and corruption: TCP repairs both, and no flow fails.
fn build_tcp_bulk(seed: u64, shard: ShardKind, flow_start: Instant) -> Sim {
    let mut net = Network::with_shards(seed, shard);
    let g1 = net.add_gateway("g1");
    let g2 = net.add_gateway("g2");
    net.connect(g1, g2, LinkClass::ModernLan);
    let mut sim = Sim::around(net);
    let config = TcpConfig {
        mss: 1460,
        ..TcpConfig::default()
    };
    let mut stagger = Rng::from_seed(seed ^ 0x57A6_6E12);
    for pair in 0..16 {
        let a = sim.net.add_host(format!("a{pair}"));
        let b = sim.net.add_host(format!("b{pair}"));
        sim.net.connect(a, g1, LinkClass::EthernetLan);
        sim.net.connect(b, g2, LinkClass::EthernetLan);
        let dst = sim.net.node(b).primary_addr();
        let counters = Arc::new(SinkCounters::default());
        sim.net.attach_app(
            b,
            Box::new(VerifySink::new(80, config.clone(), Arc::clone(&counters))),
        );
        sim.tcp_sinks.push(counters);
        let sender = BulkSender::new(
            Endpoint::new(dst, 80),
            1 << 50,
            config.clone(),
            flow_start + Duration::from_micros(stagger.below(500_000)),
        );
        sim.tcp_results.push(sender.result_handle());
        sim.net.attach_app(a, Box::new(sender));
    }
    sim
}

/// Counters read off public stats; exact on the simulator.
#[derive(Clone, Copy)]
struct Counters {
    sched: SchedStats,
    dgrams_sent: u64,
    dgrams_received: u64,
    tcp_received: u64,
    link_offered: u64,
    link_lost: u64,
    link_overflowed: u64,
    node_drops: u64,
    forwards: u64,
    service_passes: u64,
    pool: PoolStats,
    tcp_segs: u64,
    tcp_retransmits: u64,
    tcp_timeouts: u64,
    rip_updates: u64,
}

impl Counters {
    /// Application payload delivered so far, headers and
    /// retransmissions excluded.
    fn payload_bytes(&self) -> u64 {
        self.dgrams_received * CBR_SIZE as u64 + self.tcp_received
    }
}

fn sum_shared(cells: &[Shared<u64>]) -> u64 {
    cells.iter().map(|c| *c.lock().expect("app panicked")).sum()
}

impl Sim {
    /// `net` with no application attached yet.
    fn around(net: Network) -> Sim {
        Sim {
            net,
            cbr_sent: Vec::new(),
            cbr_received: Vec::new(),
            cbr_latency: Vec::new(),
            tcp_sinks: Vec::new(),
            tcp_results: Vec::new(),
        }
    }

    fn events(&self) -> u64 {
        self.net.sched_stats().processed
    }

    fn counters(&self) -> Counters {
        let net = &self.net;
        let (link_offered, _, link_lost, link_overflowed) = net.link_totals();
        let mut c = Counters {
            sched: net.sched_stats(),
            dgrams_sent: sum_shared(&self.cbr_sent),
            dgrams_received: sum_shared(&self.cbr_received),
            tcp_received: self
                .tcp_sinks
                .iter()
                .map(|s| s.received.load(Ordering::Relaxed))
                .sum(),
            link_offered,
            link_lost,
            link_overflowed,
            node_drops: 0,
            forwards: 0,
            service_passes: 0,
            pool: net.pool().stats(),
            tcp_segs: 0,
            tcp_retransmits: 0,
            tcp_timeouts: 0,
            rip_updates: 0,
        };
        for id in 0..net.node_count() {
            let node = net.node(id);
            let s = &node.stats;
            c.node_drops += s.dropped_malformed
                + s.dropped_no_route
                + s.dropped_ttl
                + s.dropped_dead
                + s.dropped_df
                + s.dropped_transport_checksum
                + s.dropped_payload_crc
                + s.dropped_arp_unresolved
                + s.dropped_arp_gave_up
                + s.dropped_bad_iface;
            c.forwards += s.ip_forwarded;
            c.service_passes += net.service_passes(id);
            for socket in &node.tcp_sockets {
                c.tcp_segs += socket.stats.segs_sent;
                c.tcp_retransmits += socket.stats.retransmits;
                c.tcp_timeouts += socket.stats.timeouts;
            }
            c.rip_updates += node.dv.as_ref().map_or(0, |dv| dv.updates_received);
        }
        c
    }

    /// Median over sinks of each sink's median one-way latency (ms).
    fn cbr_latency_ms(&self) -> f64 {
        median(
            self.cbr_latency
                .iter()
                .map(|l| l.lock().expect("app panicked").median())
                .collect(),
        )
    }

    fn digests(&self) -> [u64; 3] {
        [
            fnv64(FNV_OFFSET, self.net.metrics_dump().as_bytes()),
            fnv64(FNV_OFFSET, self.net.series_dump().as_bytes()),
            fnv64(FNV_OFFSET, self.net.flight_dump().as_bytes()),
        ]
    }
}

fn show_digests(d: [u64; 3]) -> String {
    format!(
        "metrics={:#018x} series={:#018x} flight={:#018x}",
        d[0], d[1], d[2]
    )
}

/// Runs slices and remembers where the last one ended.
struct Meter {
    until: Instant,
    events: u64,
}

impl Meter {
    fn at_warm(sim: &Sim, spec: &Spec) -> Meter {
        Meter {
            until: spec.warm,
            events: sim.events(),
        }
    }

    /// Advance one slice of virtual time; only `run_until` is on the
    /// clocks. The slice's payload is attributed later, if at all.
    fn slice(&mut self, sim: &mut Sim, spec: &Spec) -> Slice {
        self.until += spec.slice;
        let cpu0 = process_cpu_s();
        let t0 = std::time::Instant::now();
        sim.net.run_until(self.until);
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = process_cpu_s() - cpu0;
        let events = sim.events();
        let slice = Slice {
            wall_s,
            cpu_s,
            events: events - self.events,
            payload_bytes: 0.0,
        };
        self.events = events;
        slice
    }
}

/// A built and warmed-up network, and what getting there cost.
struct SetUp {
    sim: Sim,
    /// Wall time and events up to `flow_start`: topology build plus
    /// cold-start routing convergence, before any flow has sent.
    coldstart_s: f64,
    coldstart_events: u64,
    /// Wall time of each step to the end of warm-up, back to back: the
    /// build, the cold start, then every `spec.slice` of warm-up under
    /// load. A seed's set-up is the same steps however often repeated.
    steps_s: Vec<f64>,
}

fn set_up(spec: &Spec, seed: u64, shard: ShardKind) -> SetUp {
    let mut last = std::time::Instant::now();
    let mut steps_s = Vec::new();
    let mut step_done = || {
        let now = std::time::Instant::now();
        steps_s.push((now - last).as_secs_f64());
        last = now;
    };
    let mut sim = (spec.build)(seed, shard, spec.flow_start);
    step_done();
    sim.net.run_until(spec.flow_start);
    step_done();
    let coldstart_events = sim.events();
    let mut until = spec.flow_start;
    while until < spec.warm {
        until = (until + spec.slice).min(spec.warm);
        sim.net.run_until(until);
        step_done();
    }
    SetUp {
        sim,
        coldstart_s: steps_s[0] + steps_s[1],
        coldstart_events,
        steps_s,
    }
}

/// Set-up time on an undisturbed host: each step's quiet quantile over
/// the repetitions, summed. One repetition is rarely left alone from
/// end to end; over five or ten, most of its steps are once.
fn quiet_setup_s(repetitions: &[Vec<f64>]) -> f64 {
    (0..repetitions[0].len())
        .map(|step| quiet_cost(repetitions.iter().map(|steps_s| steps_s[step]).collect()))
        .sum()
}

/// What the network had done when the fixed-work checkpoint was
/// taken: identical on every run of one seed, whatever the host.
struct Checkpoint {
    at: Instant,
    rss_mb: f64,
    digests: [u64; 3],
    counters: Counters,
    latency_ms: f64,
}

/// Operations that failed between two counter readings, and why.
fn failures(
    spec: &Spec,
    sim: &Sim,
    before: &Counters,
    after: &Counters,
    drained: &Counters,
    report: &mut Report,
) {
    if spec.latency_ms.is_some() {
        // Every drop is counted somewhere, and nothing sent by the
        // last slice's end may still be missing a second later.
        let dropped = (after.link_lost - before.link_lost)
            + (after.link_overflowed - before.link_overflowed)
            + (after.node_drops - before.node_drops);
        let shortfall = after.dgrams_sent.saturating_sub(drained.dgrams_received);
        report.attempted = after.dgrams_sent - before.dgrams_sent;
        report.failed = dropped + shortfall;
        report.check(drained.dgrams_received <= drained.dgrams_sent, || {
            "more datagrams received than sent".into()
        });
    } else {
        report.attempted = sim.tcp_results.len() as u64;
        for (flow, (result, sink)) in sim.tcp_results.iter().zip(&sim.tcp_sinks).enumerate() {
            let result = result.lock().expect("app panicked");
            let received = sink.received.load(Ordering::Relaxed);
            let intact = sink.mismatched.load(Ordering::Relaxed) == 0
                && (received < RECEIPT_BYTES
                    || sink.receipt.load(Ordering::Relaxed) == expected_receipt(RECEIPT_BYTES));
            if result.aborted || !intact || received > result.bytes_sent || received == 0 {
                println!(
                    "flow {flow} failed: aborted={} intact={intact} received={received} sent={}",
                    result.aborted, result.bytes_sent
                );
                report.failed += 1;
            }
        }
        report.check(after.tcp_received > before.tcp_received, || {
            "no TCP payload arrived during the timed section".into()
        });
    }
}

/// The untraced run: the end-to-end metrics.
pub fn run(spec: &Spec, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();

    // Set up several times; the last network is the one measured. The
    // same seed must warm up to the same dumps every time.
    let mut setups = Vec::new();
    let mut warm_digests = Vec::new();
    let mut sim = None;
    for _ in 0..spec.setup_reps {
        drop(sim.take());
        let built = set_up(spec, seed, spec.shard);
        setups.push(built.steps_s);
        warm_digests.push(built.sim.digests());
        sim = Some(built.sim);
    }
    let mut sim = sim.expect("at least one set-up");
    report.check(warm_digests.iter().all(|d| *d == warm_digests[0]), || {
        format!("set-up repetitions diverged: {warm_digests:x?}")
    });

    let before = sim.counters();
    let mut meter = Meter::at_warm(&sim, spec);
    let mut slices: Vec<Slice> = Vec::new();
    let mut checkpoint = None;
    let started = std::time::Instant::now();
    while slices.len() < FIXED_SLICES || started.elapsed().as_secs_f64() < seconds {
        slices.push(meter.slice(&mut sim, spec));
        if slices.len() == FIXED_SLICES {
            checkpoint = Some(Checkpoint {
                at: meter.until,
                rss_mb: peak_rss_mb(),
                digests: sim.digests(),
                counters: sim.counters(),
                latency_ms: if spec.latency_ms.is_some() {
                    sim.cbr_latency_ms()
                } else {
                    0.0
                },
            });
        }
    }
    let timed_wall_s: f64 = slices.iter().map(|s| s.wall_s).sum();
    let after = sim.counters();
    attribute_payload(&mut slices, after.payload_bytes() - before.payload_bytes());
    sim.net.run_until(meter.until + DRAIN);
    let drained = sim.counters();
    failures(spec, &sim, &before, &after, &drained, &mut report);

    let checkpoint = checkpoint.expect("the loop runs FIXED_SLICES slices");
    if let Some((lo, hi)) = spec.latency_ms {
        report.check((lo..=hi).contains(&checkpoint.latency_ms), || {
            format!(
                "CBR one-way latency {} ms outside {lo}..{hi}",
                checkpoint.latency_ms
            )
        });
    }

    println!(
        "# {} seed {seed}: {} slices of {} in {timed_wall_s:.2} s",
        spec.name,
        slices.len(),
        spec.slice
    );
    println!(
        "# simulated, at the fixed-work checkpoint (slice {FIXED_SLICES}, t={}): events={} datagrams={} cbr_latency_ms={:.3} tcp_bytes={} tcp_retransmits={}",
        checkpoint.at,
        checkpoint.counters.sched.processed,
        checkpoint.counters.dgrams_received,
        checkpoint.latency_ms,
        checkpoint.counters.tcp_received,
        checkpoint.counters.tcp_retransmits,
    );
    println!(
        "# digests at the checkpoint: {}",
        show_digests(checkpoint.digests)
    );
    println!("# ops={} failed={}", report.attempted, report.failed);

    let mut v = Values::of(END_TO_END);
    v.set("setup_s", quiet_setup_s(&setups));
    v.set_rates(&slices);
    v.set("peak_rss_mb", checkpoint.rss_mb);
    v.emit(&mut report);
    report
}

/// One execution arm of the traced run: a warmed-up network taken
/// through the plain (untraced, fixed-work) slices.
struct Arm {
    coldstart_s: f64,
    coldstart_events: u64,
    plain: Vec<Slice>,
    /// Counters either side of `plain`.
    before: Counters,
    after: Counters,
    /// Dump digests and window counters after `plain`.
    digests: [u64; 3],
    shard: ShardStats,
    sim: Sim,
    meter: Meter,
}

impl Arm {
    fn run(tracer: &mut Tracer, spec: &Spec, seed: u64, shard: ShardKind, seconds: f64) -> Arm {
        let slices = (seconds * PLAIN_SLICES_PER_S) as usize;
        let (arm, _) = tracer.span(format!("arm:{}", shard.name()), |tracer| {
            let (built, _) = tracer.span("setup", |_| set_up(spec, seed, shard));
            let mut sim = built.sim;
            let before = sim.counters();
            let mut meter = Meter::at_warm(&sim, spec);
            let plain = (0..slices)
                .map(|i| {
                    tracer
                        .span(format!("slice:{i}"), |_| meter.slice(&mut sim, spec))
                        .0
                })
                .collect();
            Arm {
                coldstart_s: built.coldstart_s,
                coldstart_events: built.coldstart_events,
                plain,
                before,
                after: sim.counters(),
                digests: sim.digests(),
                shard: sim.net.shard_stats(),
                sim,
                meter,
            }
        });
        arm
    }

    /// How far a counter moved over the plain slices.
    fn moved(&self, counter: fn(&Counters) -> u64) -> f64 {
        (counter(&self.after) - counter(&self.before)) as f64
    }

    /// Events per second of the plain slices on an undisturbed host.
    fn rate(&self) -> f64 {
        quiet_rate(&self.plain, harness::events_per_s)
    }

    /// Host time the plain slices take at that rate.
    fn quiet_wall_s(&self) -> f64 {
        self.moved(|c| c.sched.processed) / self.rate()
    }
}

/// What the slices after the plain ones collected.
struct Traced {
    slices: Vec<Slice>,
    capture: Capture,
    /// Events, allocations and bytes allocated while the counting
    /// allocator was on.
    counted: (u64, u64, u64),
}

/// Take the single-lane arm on: [`COUNTED_SLICES`] under the counting
/// allocator, then [`TAPPED_SLICES_PER_S`] per second asked for with the
/// tap and the scheduler trace armed. The allocator is counted apart
/// from the tap, whose capture buffers would otherwise be billed to
/// the network.
fn traced_slices(tracer: &mut Tracer, arm: &mut Arm, spec: &Spec, seconds: f64) -> Traced {
    let Arm { sim, meter, .. } = arm;
    let (counted, _) = tracer.span("alloc-count", |_| {
        let events = sim.events();
        let (_, count, bytes) = alloc::counted(|| {
            for _ in 0..COUNTED_SLICES {
                meter.slice(sim, spec);
            }
        });
        (sim.events() - events, count, bytes)
    });

    let pending = sim.net.sched_stats().pending;
    let armed_at = sim.net.now();
    sim.net.set_sched_trace(true);
    let capture = layers::arm_tap(&mut sim.net);
    let slices = (0..(seconds * TAPPED_SLICES_PER_S) as usize)
        .map(|i| {
            tracer
                .span(format!("traced-slice:{i}"), |_| meter.slice(sim, spec))
                .0
        })
        .collect();
    let ops = sim.net.take_sched_trace();
    let mut capture = std::mem::take(&mut *capture.borrow_mut());
    capture.set_sched(pending, armed_at, ops);
    Traced {
        slices,
        capture,
        counted,
    }
}

/// Counts and rates of the single-lane arm.
fn set_counts(v: &mut Values, arm: &Arm, traced: &Traced) {
    let events = arm.moved(|c| c.sched.processed);
    let plain_rates: Vec<f64> = arm.plain.iter().filter_map(harness::events_per_s).collect();
    let traced_rate = quiet_rate(&traced.slices, harness::events_per_s);
    let wall_s = |slices: &[Slice]| slices.iter().map(|s| s.wall_s).sum::<f64>();
    v.set(
        "harness.timed_wall_s",
        wall_s(&arm.plain) + wall_s(&traced.slices),
    );
    v.set(
        "harness.slices",
        (arm.plain.len() + traced.slices.len()) as f64,
    );
    v.set("harness.slice_iqr_pct", iqr_pct(&plain_rates));
    v.set(
        "harness.trace_overhead_pct",
        (arm.rate() - traced_rate) / arm.rate() * 100.0,
    );

    v.set("sim.sched.events", events);
    v.set(
        "sim.sched.overflow_inserts",
        arm.moved(|c| c.sched.wheel.overflow_inserts),
    );
    v.set("sim.link.transmits", arm.moved(|c| c.link_offered));
    v.set("sim.link.queue_drops", arm.moved(|c| c.link_overflowed));
    v.set("sim.link.loss_drops", arm.moved(|c| c.link_lost));
    v.set("core.node.forwards", arm.moved(|c| c.forwards));
    v.set("core.node.service_passes", arm.moved(|c| c.service_passes));
    v.set(
        "core.node.passes_per_event",
        arm.moved(|c| c.service_passes) / events,
    );
    v.set("core.pool.fresh", arm.moved(|c| c.pool.fresh_allocs));
    v.set("core.pool.recycled", arm.moved(|c| c.pool.recycled));
    v.set("core.pool.shift_copies", arm.moved(|c| c.pool.shift_copies));
    let (counted_events, allocs, alloc_bytes) = traced.counted;
    v.set(
        "alloc.count_per_kevent",
        allocs as f64 * 1e3 / counted_events as f64,
    );
    v.set(
        "alloc.bytes_per_kevent",
        alloc_bytes as f64 * 1e3 / counted_events as f64,
    );

    v.set_ns_per_event(&arm.plain);
    v.set("core.network.coldstart_s", arm.coldstart_s);
    v.set("core.network.coldstart_events", arm.coldstart_events as f64);

    let segments = arm.moved(|c| c.tcp_segs);
    v.set("tcp.segs_sent", segments);
    v.set("tcp.retransmits", arm.moved(|c| c.tcp_retransmits));
    v.set("tcp.timeouts", arm.moved(|c| c.tcp_timeouts));
    if segments > 0.0 {
        v.set(
            "tcp.retransmit_ratio",
            arm.moved(|c| c.tcp_retransmits) / segments,
        );
    }
    v.set("routing.updates", arm.moved(|c| c.rip_updates));
    v.set(
        "telemetry.series_rows",
        arm.sim.net.telemetry().sampler.rows().len() as f64,
    );
}

/// `lanes-metro`: the same plain slices under serial and threaded
/// lanes. A tap would demote `Parallel`, so the lane protocol is
/// priced by comparing arms, and all three must agree on every dump
/// byte.
fn set_lanes(
    v: &mut Values,
    report: &mut Report,
    tracer: &mut Tracer,
    single: &Arm,
    spec: &Spec,
    seed: u64,
    seconds: f64,
) {
    let lanes = spec.shard.shards();
    let sharded = Arm::run(
        tracer,
        spec,
        seed,
        ShardKind::Sharded { shards: lanes },
        seconds,
    );
    let parallel = Arm::run(
        tracer,
        spec,
        seed,
        ShardKind::Parallel { shards: lanes },
        seconds,
    );
    for (name, arm) in [("sharded", &sharded), ("parallel", &parallel)] {
        report.check(arm.digests == single.digests, || {
            format!(
                "{name} arm diverged from single: {}",
                show_digests(arm.digests)
            )
        });
    }
    println!(
        "# arms: single {:.0}, sharded {:.0}, parallel {:.0} events/s",
        single.rate(),
        sharded.rate(),
        parallel.rate(),
    );
    let stats = parallel.shard;
    let lane_windows = (stats.lanes_dispatched + stats.lanes_skipped) as f64;
    v.set("core.lane.windows", stats.windows as f64);
    v.set("core.lane.avg_span_us", stats.span_us as f64 / lane_windows);
    v.set(
        "core.lane.events_per_window",
        single.moved(|c| c.sched.processed) / stats.windows as f64,
    );
    v.set("core.lane.collapsed", stats.collapsed as f64);
    v.set("core.lane.barrier_stalls", stats.barrier_stalls as f64);
    v.set("core.lane.dispatched", stats.lanes_dispatched as f64);
    v.set("core.lane.skipped", stats.lanes_skipped as f64);
    v.set(
        "core.lane.protocol_overhead_pct",
        (single.rate() / sharded.rate() - 1.0) * 100.0,
    );
    v.set("core.lane.thread_speedup", parallel.rate() / sharded.rate());
    v.set(
        "core.lane.nonlane_us_per_window",
        (parallel.quiet_wall_s() - sharded.quiet_wall_s() / lanes as f64) * 1e6
            / stats.windows as f64,
    );
}

/// Each layer's price times how often the plain slices used it, over
/// their host time, both as on an undisturbed host; what is left over
/// is unattributed.
fn set_shares(v: &mut Values, prices: &layers::Prices, arm: &Arm) {
    let sched_ops = arm.moved(|c| c.sched.processed) + arm.moved(|c| c.sched.scheduled);
    let shares = [
        ("sim.sched.share", prices.sched_ns_per_op, sched_ops),
        (
            "sim.link.share",
            prices.link_ns_per_transmit,
            arm.moved(|c| c.link_offered),
        ),
        (
            "core.node.forward_share",
            prices.node_ns_per_forward,
            arm.moved(|c| c.forwards),
        ),
        (
            "core.node.service_share",
            prices.node_ns_per_idle_service,
            arm.moved(|c| c.service_passes),
        ),
        (
            "tcp.share",
            prices.tcp_ns_per_segment,
            arm.moved(|c| c.tcp_segs),
        ),
        (
            "routing.share",
            prices.routing_ns_per_update,
            arm.moved(|c| c.rip_updates),
        ),
    ];
    let mut attributed = 0.0;
    for (name, ns_per_op, ops) in shares {
        let share = ns_per_op * ops / (arm.quiet_wall_s() * 1e9);
        v.set(name, share);
        attributed += share;
    }
    v.set("core.network.unattributed_share", 1.0 - attributed);
}

/// The traced run: the per-layer metrics.
pub fn trace(spec: &Spec, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let mut v = Values::of(PER_LAYER);
    let mut calib = vec![host_calib_ms()];

    let mut arm = Arm::run(&mut tracer, spec, seed, ShardKind::Single, seconds);
    calib.push(host_calib_ms());
    let traced = traced_slices(&mut tracer, &mut arm, spec, seconds);
    calib.push(host_calib_ms());
    // The traced slices double as the drain of the plain ones.
    failures(
        spec,
        &arm.sim,
        &arm.before,
        &arm.after,
        &arm.sim.counters(),
        &mut report,
    );
    println!(
        "# {} seed {seed} traced: {} plain + {COUNTED_SLICES} counted + {} traced slices",
        spec.name,
        arm.plain.len(),
        traced.slices.len()
    );
    println!(
        "# digests after the plain slices: {}",
        show_digests(arm.digests)
    );
    set_counts(&mut v, &arm, &traced);

    let net = &arm.sim.net;
    let dumps: Vec<f64> = (0..3)
        .map(|_| {
            let dump = |_: &mut Tracer| {
                std::hint::black_box((net.metrics_dump(), net.series_dump(), net.flight_dump()));
            };
            tracer.span("telemetry.dump", dump).1 * 1e3
        })
        .collect();
    v.set("telemetry.dump_ms", quiet_cost(dumps));

    if spec.shard != ShardKind::Single {
        set_lanes(&mut v, &mut report, &mut tracer, &arm, spec, seed, seconds);
        calib.push(host_calib_ms());
    }

    let (reference, _) = layers::reference_capture(seed);
    let prices = layers::price(&mut tracer, &traced.capture, &reference);
    layers::set_prices(&mut v, &prices);
    set_shares(&mut v, &prices, &arm);

    // The substrate probe every traced run carries.
    let probe = real::probe(&mut tracer);
    probe.set(&mut v);
    report.attempted += probe.pings_sent;
    report.failed += probe.pings_sent - probe.replies;
    calib.push(host_calib_ms());
    v.set("harness.host_calib_ms", median(calib));

    if let Err(e) = tracer.write(spec.name) {
        report.check(false, || format!("writing the span file: {e}"));
    }
    v.emit(&mut report);
    report
}
