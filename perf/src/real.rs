//! The real-substrate workload: two `RealSubstrate` host nodes on the
//! wall clock, each built and driven on its own thread, joined by one
//! UDP tunnel over 127.0.0.1. Traffic crosses the host's loopback
//! interface, not a real link.
//!
//! A session pings first (round-trip times with nothing else on the
//! tunnel), then runs one unbounded bulk transfer that the receiving
//! thread cuts into equal wall-time slices. The simulator workloads'
//! traced runs carry a short ping-only session as their substrate
//! probe.

use catenet_core::app::{BulkResult, BulkSender, Pinger};
use catenet_core::{Endpoint, TcpConfig};
use catenet_sim::{Duration, Instant};
use catenet_substrate::clock::{Clock, WallClock};
use catenet_substrate::config::{self, NodeConfig};
use catenet_substrate::real::RealSubstrate;
use catenet_substrate::tunnel::TunnelStats;
use catenet_substrate::Substrate;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

use crate::apps::{expected_receipt, SinkCounters, VerifySink, RECEIPT_BYTES};
use crate::cputime::process_cpu_s;
use crate::harness::{
    self, host_calib_ms, iqr_pct, median, peak_rss_mb, quantile, quiet_cost, Report, Slice, Tracer,
    SETUP_REPS,
};
use crate::layers;
use crate::metrics::{Values, END_TO_END, PER_LAYER};

pub const NAME: &str = "real-loopback";

const PING_INTERVAL: Duration = Duration::from_millis(2);
/// Echoes answered before the link counts as up; their round-trip
/// times are discarded.
const WARM_ECHOES: usize = 100;
const ECHOES: usize = 2_000;
const PROBE_ECHOES: usize = 250;
/// Wall span of one bulk slice, made of `STEPS_PER_SLICE` steps so the
/// receiving thread notices a stop request quickly.
const STEP: Duration = Duration::from_millis(50);
const STEPS_PER_SLICE: usize = 2;
/// Bulk slices every untraced run completes, whatever `--seconds` says.
const MIN_SLICES: usize = 160;
/// Bulk time left out of the slices while TCP opens its window.
const RAMP_S: f64 = 0.6;

/// A wall clock that counts its sleeps and the time spent in them.
struct CountingClock {
    inner: WallClock,
    stats: Arc<ClockStats>,
}

#[derive(Default)]
struct ClockStats {
    sleeps: AtomicU64,
    slept_ns: AtomicU64,
}

impl Clock for CountingClock {
    fn now(&self) -> Instant {
        self.inner.now()
    }

    fn sleep_until(&mut self, deadline: Instant) {
        let t0 = std::time::Instant::now();
        self.inner.sleep_until(deadline);
        // Relaxed: statistics, read only after the threads are joined.
        self.stats.sleeps.fetch_add(1, Ordering::Relaxed);
        self.stats
            .slept_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

fn node(config: &NodeConfig, stats: &Arc<ClockStats>) -> RealSubstrate {
    let clock = CountingClock {
        inner: WallClock::new(),
        stats: Arc::clone(stats),
    };
    RealSubstrate::with_clock(config, Box::new(clock)).expect("bind a loopback tunnel")
}

/// Two host configs joined by one tunnel on freshly chosen ports.
fn pair_configs() -> (NodeConfig, NodeConfig) {
    // Bind-then-drop: the ports are free now, and nothing else in this
    // process binds between here and the tunnels doing so.
    let bind = || std::net::UdpSocket::bind("127.0.0.1:0").expect("bind loopback");
    let (sa, sb) = (bind(), bind());
    let port = |s: &std::net::UdpSocket| s.local_addr().expect("bound socket").port();
    let (pa, pb) = (port(&sa), port(&sb));
    drop((sa, sb));
    let host = |name: &str, me: u8, peer: u8, bind: u16, remote: u16| {
        config::parse(&format!(
            "node host {name}\n\
             iface 0 10.1.0.{me}/30 peer 10.1.0.{peer} link 7 bind 127.0.0.1:{bind} remote 127.0.0.1:{remote}\n\
             route 0.0.0.0/0 via 10.1.0.{peer}\n"
        ))
        .expect("generated config parses")
    };
    (host("a", 1, 2, pa, pb), host("b", 2, 1, pb, pa))
}

/// What one session measured.
struct Session {
    /// Wall from the start of the session to [`WARM_ECHOES`] answered.
    setup_s: f64,
    pings_sent: u64,
    replies: u64,
    /// Round trips after the warm-up ones, microseconds.
    rtts_us: Vec<f64>,
    /// Receiver-side bulk slices after the ramp.
    slices: Vec<Slice>,
    bulk: Option<(BulkResult, Arc<SinkCounters>)>,
    wall_s: f64,
    sleeps: u64,
    slept_s: f64,
    tunnels: [TunnelStats; 2],
}

/// Run one session: `echoes` measured pings, then `bulk_s` seconds of
/// bulk transfer (none when 0).
fn session(echoes: usize, bulk_s: f64) -> Session {
    let started = std::time::Instant::now();
    let (config_a, config_b) = pair_configs();
    let clocks = [
        Arc::new(ClockStats::default()),
        Arc::new(ClockStats::default()),
    ];
    let stop = Arc::new(AtomicBool::new(false));
    let sink = Arc::new(SinkCounters::default());
    let tcp = TcpConfig {
        mss: 1460,
        ..TcpConfig::default()
    };

    // Node B on its own thread: sink and echo responder. It reports
    // a slice every `STEPS_PER_SLICE` steps, stamped with its start.
    let (ready_tx, ready_rx) = mpsc::channel();
    let receiver = {
        let (stop, sink, tcp, clock) = (
            Arc::clone(&stop),
            Arc::clone(&sink),
            tcp.clone(),
            Arc::clone(&clocks[1]),
        );
        std::thread::spawn(move || {
            let mut b = node(&config_b, &clock);
            b.attach_app(0, Box::new(VerifySink::new(80, tcp, Arc::clone(&sink))));
            ready_tx.send(()).expect("the session waits for this");
            let mut slices = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                let slice_started = std::time::Instant::now();
                let (cpu0, frames0, bytes0) = (
                    process_cpu_s(),
                    b.link_stats(0).accepted,
                    sink.received.load(Ordering::Relaxed),
                );
                for _ in 0..STEPS_PER_SLICE {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    b.run_for(STEP);
                }
                slices.push((
                    slice_started,
                    Slice {
                        wall_s: slice_started.elapsed().as_secs_f64(),
                        cpu_s: process_cpu_s() - cpu0,
                        events: b.link_stats(0).accepted - frames0,
                        payload_bytes: (sink.received.load(Ordering::Relaxed) - bytes0) as f64,
                    },
                ));
            }
            (slices, b.link_stats(0))
        })
    };

    // Node A here: pinger, then sender.
    let mut a = node(&config_a, &clocks[0]);
    ready_rx.recv().expect("receiver thread came up");
    let peer = "10.1.0.2".parse().expect("literal address");
    let total_echoes = WARM_ECHOES + echoes;
    let ping_from = Substrate::now(&a) + Duration::from_millis(1);
    let ping_to =
        ping_from + Duration::from_micros(PING_INTERVAL.total_micros() * total_echoes as u64);
    let pinger = Pinger::new(peer, PING_INTERVAL, 32, ping_from, ping_to);
    let (rtts, replies) = (Arc::clone(&pinger.rtts_ms), Arc::clone(&pinger.replies));
    a.attach_app(0, Box::new(pinger));
    while (*replies.lock().expect("pinger panicked") as usize) < WARM_ECHOES
        && started.elapsed().as_secs_f64() < 5.0
    {
        a.run_for(Duration::from_millis(1));
    }
    let setup_s = started.elapsed().as_secs_f64();
    a.run_until(ping_to);
    // A reply can be a scheduling stall late; only one that stays
    // away a whole second counts as lost.
    let all_sent = std::time::Instant::now();
    while (*replies.lock().expect("pinger panicked") as usize) < total_echoes
        && all_sent.elapsed().as_secs_f64() < 1.0
    {
        a.run_for(Duration::from_millis(5));
    }

    let mut bulk = None;
    let mut bulk_started = None;
    if bulk_s > 0.0 {
        let sender = BulkSender::new(Endpoint::new(peer, 80), 1 << 50, tcp, Substrate::now(&a));
        let result = sender.result_handle();
        a.attach_app(0, Box::new(sender));
        bulk_started = Some(std::time::Instant::now());
        a.run_for(Duration::from_secs_f64(bulk_s));
        bulk = Some((
            result.lock().expect("sender panicked").clone(),
            Arc::clone(&sink),
        ));
    }
    stop.store(true, Ordering::SeqCst);
    let (slices, tunnel_b) = receiver.join().expect("receiver thread panicked");
    let wall_s = started.elapsed().as_secs_f64();

    let slices = slices
        .into_iter()
        .filter(|(at, s)| {
            s.payload_bytes > 0.0
                && bulk_started.is_some_and(|b| at.duration_since(b).as_secs_f64() >= RAMP_S)
        })
        .map(|(_, s)| s)
        .collect();
    let rtts_us = rtts.lock().expect("pinger panicked").values()
        [WARM_ECHOES.min(*replies.lock().expect("pinger panicked") as usize)..]
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    let replies = *replies.lock().expect("pinger panicked");
    Session {
        setup_s,
        pings_sent: total_echoes as u64,
        replies,
        rtts_us,
        slices,
        bulk,
        wall_s,
        sleeps: clocks
            .iter()
            .map(|c| c.sleeps.load(Ordering::Relaxed))
            .sum(),
        slept_s: clocks
            .iter()
            .map(|c| c.slept_ns.load(Ordering::Relaxed))
            .sum::<u64>() as f64
            / 1e9,
        tunnels: [a.link_stats(0), tunnel_b],
    }
}

/// Count a session's operations: every ping, and the flow if any.
fn account(session: &Session, report: &mut Report) {
    report.attempted += session.pings_sent;
    report.failed += session.pings_sent - session.replies;
    if let Some((result, sink)) = &session.bulk {
        report.attempted += 1;
        let received = sink.received.load(Ordering::Relaxed);
        let intact = sink.mismatched.load(Ordering::Relaxed) == 0
            && received >= RECEIPT_BYTES
            && sink.receipt.load(Ordering::Relaxed) == expected_receipt(RECEIPT_BYTES);
        println!(
            "# transfer: {received} bytes delivered, fnv64 of the first {RECEIPT_BYTES} = {:#018x}, intact={intact}",
            sink.receipt.load(Ordering::Relaxed)
        );
        if result.aborted || !intact || received > result.bytes_sent {
            report.failed += 1;
        }
    }
    let dropped: u64 = session.tunnels.iter().map(|t| t.dropped()).sum();
    report.check(dropped == 0, || {
        format!("{dropped} tunnel datagrams dropped at ingress")
    });
}

fn bulk_seconds(seconds: f64) -> f64 {
    let ping_s = (WARM_ECHOES + ECHOES) as f64 * PING_INTERVAL.secs_f64();
    let slice_s = STEP.secs_f64() * STEPS_PER_SLICE as f64;
    (seconds - ping_s).max(MIN_SLICES as f64 * slice_s + RAMP_S + slice_s)
}

/// The untraced run: the end-to-end metrics.
pub fn run(seconds: f64) -> Report {
    let mut report = Report::default();
    let mut setups: Vec<f64> = (1..SETUP_REPS).map(|_| session(0, 0.0).setup_s).collect();
    let s = session(ECHOES, bulk_seconds(seconds));
    setups.push(s.setup_s);
    account(&s, &mut report);
    report.check(s.slices.len() >= MIN_SLICES, || {
        format!("only {} bulk slices", s.slices.len())
    });
    println!(
        "# {NAME}: {} pings, rtt p50 {:.0} us; {} bulk slices",
        s.pings_sent,
        median(s.rtts_us.clone()),
        s.slices.len()
    );
    println!("# ops={} failed={}", report.attempted, report.failed);

    let mut v = Values::of(END_TO_END);
    v.set("setup_s", quiet_cost(setups));
    v.set_rates(&s.slices);
    v.set("peak_rss_mb", peak_rss_mb());
    v.emit(&mut report);
    report
}

/// The substrate's per-layer numbers from one session.
pub struct Probe {
    pub pings_sent: u64,
    pub replies: u64,
    session: Session,
}

impl Probe {
    pub fn set(&self, v: &mut Values) {
        let s = &self.session;
        let frames: u64 = s.tunnels.iter().map(|t| t.accepted).sum();
        v.set(
            "substrate.tunnel.dropped",
            s.tunnels.iter().map(|t| t.dropped()).sum::<u64>() as f64,
        );
        v.set(
            "substrate.clock.sleeps_per_s",
            s.sleeps as f64 / 2.0 / s.wall_s,
        );
        v.set("substrate.clock.sleep_share", s.slept_s / 2.0 / s.wall_s);
        v.set(
            "substrate.frames_per_wakeup",
            frames as f64 / s.sleeps as f64,
        );
        v.set("substrate.rtt_p50_us", quantile(s.rtts_us.clone(), 0.5));
        v.set("substrate.rtt_p90_us", quantile(s.rtts_us.clone(), 0.9));
        v.set("substrate.rtt_p99_us", quantile(s.rtts_us.clone(), 0.99));
    }
}

/// A short ping-only session, as a span of the calling run.
pub fn probe(tracer: &mut Tracer) -> Probe {
    let (session, _) = tracer.span("substrate-probe", |_| session(PROBE_ECHOES, 0.0));
    Probe {
        pings_sent: session.pings_sent,
        replies: session.replies,
        session,
    }
}

/// The traced run. The substrate has no tap, so the session itself is
/// the trace (counting clocks, tunnel and socket counters) and the
/// replays run on the reference capture.
pub fn trace(seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let mut v = Values::of(PER_LAYER);
    let mut calib = vec![host_calib_ms()];

    let (s, _) = tracer.span("session", |_| session(ECHOES, bulk_seconds(seconds)));
    account(&s, &mut report);
    calib.push(host_calib_ms());

    let rates: Vec<f64> = s.slices.iter().filter_map(harness::events_per_s).collect();
    v.set(
        "harness.timed_wall_s",
        s.slices.iter().map(|x| x.wall_s).sum(),
    );
    v.set("harness.slices", s.slices.len() as f64);
    v.set("harness.slice_iqr_pct", iqr_pct(&rates));
    v.set_ns_per_event(&s.slices);
    v.set("core.network.coldstart_s", s.setup_s);
    if let Some((result, _)) = &s.bulk {
        v.set("tcp.segs_sent", result.segs_sent as f64);
        v.set("tcp.retransmits", result.retransmits as f64);
        v.set("tcp.timeouts", result.timeouts as f64);
        v.set(
            "tcp.retransmit_ratio",
            result.retransmits as f64 / result.segs_sent.max(1) as f64,
        );
    }
    let probe = Probe {
        pings_sent: s.pings_sent,
        replies: s.replies,
        session: s,
    };
    probe.set(&mut v);

    let (reference, reference_net) = layers::reference_capture(seed);
    let prices = layers::price(&mut tracer, &layers::Capture::default(), &reference);
    layers::set_prices(&mut v, &prices);
    let (_, dump_s) = tracer.span("telemetry.dump", |_| {
        std::hint::black_box((
            reference_net.metrics_dump(),
            reference_net.series_dump(),
            reference_net.flight_dump(),
        ));
    });
    v.set("telemetry.dump_ms", dump_s * 1e3);
    calib.push(host_calib_ms());
    v.set("harness.host_calib_ms", median(calib));

    if let Err(e) = tracer.write(NAME) {
        report.check(false, || format!("writing the span file: {e}"));
    }
    v.emit(&mut report);
    report
}
