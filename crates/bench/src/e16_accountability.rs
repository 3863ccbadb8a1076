//! E16 — The accountability subsystem, priced (ROADMAP "goal 7, grown
//! up"; paper §9–§10).
//!
//! E7 established the *error* of datagram accounting; E8 established
//! that soft flow state *survives* a crash. This experiment prices the
//! full subsystem built on those two results — bounded LRU flow tables,
//! epoch-stamped ledgers, cross-boundary usage reports, and the opt-in
//! CRC32C integrity option — along three axes:
//!
//! 1. **Crash-storm reconciliation.** A bulk transfer crosses a
//!    three-gateway chain while a crash storm repeatedly kills and
//!    reboots the middle gateway. Ledgers flush every 2 s into the
//!    administration's collector; crash instants forfeit the unflushed
//!    tail into an explicit bucket. For every gateway and every seed the
//!    reconciled payload must satisfy the retransmission-inflation
//!    bound `goodput ≤ reconciled ≤ sender-transmitted`, and in a clean
//!    (no-fault, lossless) arm every gateway's books must *agree with
//!    each other to the byte* and sit within one segment of goodput —
//!    the only inflation a lossless network permits is the ARP warm-up
//!    drop on an edge LAN, retransmitted end to end.
//! 2. **Flow churn at 10⁵.** The table absorbs 100 000 distinct flows
//!    plus follow-on traffic, reporting exact-LRU evictions under a
//!    deliberately undersized capacity (bounded memory is enforced, not
//!    hoped for) and per-packet observe cost.
//!    An accounting-on vs accounting-off arm of an E13-style ring then
//!    checks that observation does not perturb forwarding: both arms
//!    process the same events and forward the same datagrams. The table
//!    prints those counts; the arms' wall clock, one short run each, is
//!    noise at this size and appears only in the full-mode JSON.
//! 3. **Corruption sweep.** The three corruption classes the Internet
//!    checksum provably accepts (`wire/tests/checksum_escape.rs`) are
//!    replayed against the CRC32C payload option: the checksum-only arm
//!    misses all of them, the +crc32c arm catches all of them, and the
//!    cost is 8 header bytes per data segment.
//!
//! Results render as a table and `BENCH_e16.json`; in `--check` mode
//! wall-clock fields are omitted and CI diffs two runs.

use crate::table::Table;
use catenet_accounting::flow::FlowId;
use catenet_accounting::table::{FlowTable, DEFAULT_CAPACITY};
use catenet_core::app::{BulkSender, SinkServer};
use catenet_core::iface::Framing;
use catenet_core::{Endpoint, Network, NodeId, TcpConfig};
use catenet_sim::{Duration, FaultAction, FaultPlan, Instant, LinkClass, LinkParams, Rng, ShardKind};
use catenet_wire::{checksum, crc32c, IpProtocol, Ipv4Address};
use std::sync::Arc;

/// Ledger flush cadence in the reconciliation runs.
pub const FLUSH_PERIOD: Duration = Duration::from_secs(2);
/// Bytes per bulk transfer in the reconciliation runs.
const TRANSFER: usize = 200_000;
/// Crash-storm shape: crashes of the middle gateway in the window.
const STORM_CRASHES: usize = 3;
/// Concurrent flows the churn benchmark drives through one table.
pub const CHURN_FLOWS: usize = 100_000;
/// The churn benchmark's undersized table: too small for
/// [`CHURN_FLOWS`], so LRU eviction must engage.
pub const BOUNDED_CAPACITY: usize = 65_536;

// ---------------------------------------------------------- part 1

/// One seed's crash-storm reconciliation outcome. Every field is
/// integral or boolean, so two runs compare with `==` — the
/// shard-equivalence harness asserts a K-lane run reconciles to the
/// byte-identical books the single-lane reference produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconcileRun {
    /// Seed.
    pub seed: u64,
    /// Crash storm applied (false = the clean control arm).
    pub storm: bool,
    /// Transfer completed.
    pub completed: bool,
    /// Payload bytes the application usefully received.
    pub goodput: u64,
    /// Payload bytes the sender transmitted, retransmissions included.
    pub sent: u64,
    /// Reconciled conversation payload per gateway (g1, g2, g3).
    pub reconciled: [u64; 3],
    /// `goodput ≤ reconciled ≤ sent` held at every gateway.
    pub bounds_hold: bool,
    /// Crash epochs the middle gateway's ledger went through.
    pub mid_epochs: u64,
    /// Periodic reports the collector received.
    pub reports: u64,
    /// Crash-forfeited tails the collector captured.
    pub forfeited: u64,
    /// Fault actions the driver applied.
    pub faults: u64,
}

/// Run one reconciliation arm: h1—g1—g2—g3—h2 chain, bulk transfer,
/// optional crash storm on g2, ledgers flushing every [`FLUSH_PERIOD`].
pub fn run_reconcile(seed: u64, storm: bool) -> ReconcileRun {
    run_reconcile_config(seed, storm, ShardKind::Single, false).0
}

/// [`run_reconcile`] on an explicit shard mode, additionally returning
/// the telemetry dumps (metrics, series, flight) so the
/// shard-equivalence harness can compare K-lane books byte for byte.
pub fn run_reconcile_shards(seed: u64, storm: bool, shard: ShardKind) -> (ReconcileRun, [String; 3]) {
    run_reconcile_config(seed, storm, shard, false)
}

/// The barrier-instant regression arm: instead of the seeded storm, a
/// single crash of the middle gateway is scheduled to land *exactly* on
/// a ledger-flush instant (a multiple of [`FLUSH_PERIOD`], which is
/// also a coordinator barrier in sharded execution). Faults must apply
/// before flushes at the same instant — a crash at T forfeits the tail
/// the flush at T would have reported — and that ordering is exactly
/// what sharded windows are most likely to break.
pub fn run_reconcile_barrier_crash(seed: u64, shard: ShardKind) -> (ReconcileRun, [String; 3]) {
    run_reconcile_config(seed, true, shard, true)
}

fn run_reconcile_config(
    seed: u64,
    storm: bool,
    shard: ShardKind,
    crash_on_flush: bool,
) -> (ReconcileRun, [String; 3]) {
    let mut net = Network::with_shards(seed, shard);
    let h1 = net.add_host("h1");
    let g1 = net.add_gateway("g1");
    let g2 = net.add_gateway("g2");
    let g3 = net.add_gateway("g3");
    let h2 = net.add_host("h2");
    net.connect(h1, g1, LinkClass::EthernetLan);
    for (a, b) in [(g1, g2), (g2, g3)] {
        net.connect_with(
            a,
            b,
            LinkParams {
                loss: 0.0,
                corruption: 0.0,
                // Deeper than the whole 64 KiB receive window (~122
                // MSS-sized segments): slow start probes capacity by
                // filling queues, and the control arm must be genuinely
                // lossless so reconciliation slack is pinned on the
                // endpoints, not on queue geometry.
                queue_limit: 128,
                ..LinkClass::T1Terrestrial.params()
            },
            Framing::RawIp,
        );
    }
    net.connect(g3, h2, LinkClass::EthernetLan);
    net.enable_accounting(FLUSH_PERIOD);
    net.converge_routing(Duration::from_secs(60));
    let start = net.now();

    let dst = net.node(h2).primary_addr();
    let src_addr = net.node(h1).primary_addr();
    let sink = SinkServer::new(80, TcpConfig::default());
    let received = Arc::clone(&sink.received);
    net.attach_app(h2, Box::new(sink));
    let sender = BulkSender::new(
        Endpoint::new(dst, 80),
        TRANSFER,
        TcpConfig::default(),
        start + Duration::from_millis(50),
    );
    let result = sender.result_handle();
    net.attach_app(h1, Box::new(sender));

    if crash_on_flush {
        // Accounting was enabled at t=0, so flushes land at exact
        // multiples of the period. Pick the first multiple at least 2 s
        // into the transfer: the mid-gateway ledger is guaranteed
        // non-empty when the crash and the flush collide.
        let period = FLUSH_PERIOD.total_micros();
        let earliest = (start + Duration::from_secs(2)).total_micros();
        let crash_at = Instant::from_micros(earliest.div_ceil(period) * period);
        let mut plan = FaultPlan::new();
        plan.push(crash_at, FaultAction::NodeCrash { node: g2 });
        plan.push(crash_at + Duration::from_secs(3), FaultAction::NodeRestart { node: g2 });
        net.attach_fault_plan(plan);
    } else if storm {
        let mut plan = FaultPlan::new();
        let mut storm_rng = Rng::from_seed(seed ^ 0xE16);
        plan.crash_storm(
            &[g2],
            start + Duration::from_secs(2),
            start + Duration::from_secs(40),
            STORM_CRASHES,
            (Duration::from_secs(1), Duration::from_secs(3)),
            &mut storm_rng,
        );
        net.attach_fault_plan(plan);
    }
    net.run_for(Duration::from_secs(300));

    let rec = net.reconcile().expect("accounting enabled");
    let reconciled = [g1, g2, g3].map(|g| {
        rec.gateway(&net.node(g).name)
            .map(|t| t.conversation_payload(src_addr, dst, IpProtocol::Tcp))
            .unwrap_or(0)
    });
    let goodput = *received.lock().unwrap();
    let (sent, completed) = {
        let r = result.lock().unwrap();
        (r.bytes_sent, r.completed_at.is_some())
    };
    let bounds_hold = reconciled
        .iter()
        .all(|&carried| goodput <= carried && carried <= sent);
    let collector = net.report_collector().expect("accounting enabled");
    let run = ReconcileRun {
        seed,
        storm,
        completed,
        goodput,
        sent,
        reconciled,
        bounds_hold,
        mid_epochs: rec
            .gateway(&net.node(g2).name)
            .map(|t| t.max_epoch)
            .unwrap_or(0),
        reports: collector.flushed_count() as u64,
        forfeited: collector.forfeited_count() as u64,
        faults: net.faults_applied,
    };
    let dumps = [net.metrics_dump(), net.series_dump(), net.flight_dump()];
    (run, dumps)
}

// ---------------------------------------------------------- part 2

/// Flow-churn measurements over one table.
#[derive(Debug, Clone, Copy)]
pub struct ChurnResult {
    /// Distinct flows offered.
    pub flows: usize,
    /// Observations performed (first sightings + revisits).
    pub observations: u64,
    /// Live flows at the end (a bounded table evicts the rest).
    pub live: usize,
    /// Capacity-pressure evictions (0 at the default capacity).
    pub evicted: u64,
    /// Idle expiries from the final sweep.
    pub expired: u64,
    /// Wall-clock nanoseconds per observation.
    pub ns_per_observe: f64,
}

fn churn_flow(i: usize) -> FlowId {
    FlowId {
        src_addr: Ipv4Address::new(10, (i >> 16) as u8, (i >> 8) as u8, i as u8),
        dst_addr: Ipv4Address::new(10, 200, ((i / 7) >> 8) as u8, (i / 7) as u8),
        protocol: 17,
        src_port: (1024 + (i % 50_000)) as u16,
        dst_port: 80,
    }
}

/// Drive [`CHURN_FLOWS`] distinct flows (plus revisit traffic) through
/// a table. `bounded` selects a deliberately undersized capacity
/// ([`BOUNDED_CAPACITY`]) so LRU eviction must engage; the default
/// capacity ([`DEFAULT_CAPACITY`]) holds the full set with headroom.
pub fn run_churn(flows: usize, bounded: bool) -> ChurnResult {
    let mut table = if bounded {
        FlowTable::with_capacity(BOUNDED_CAPACITY)
    } else {
        FlowTable::new()
    };
    let mut observations: u64 = 0;
    let t0 = std::time::Instant::now();
    // Round 1: every flow appears once, in index order.
    for i in 0..flows {
        table.observe_flow(churn_flow(i), 600, Instant::from_micros(i as u64));
        observations += 1;
    }
    // Round 2: every 3rd flow revisits — LRU touches, no inserts.
    let base = flows as u64;
    for i in (0..flows).step_by(3) {
        table.observe_flow(churn_flow(i), 600, Instant::from_micros(base + i as u64));
        observations += 1;
    }
    let ns_per_observe = t0.elapsed().as_nanos() as f64 / observations as f64;
    let live = table.len();
    let evicted = table.evicted;
    // Final idle sweep far in the future: everything evaporates — the
    // soft-state guarantee that the table never needs a GC pass.
    table.expire_idle(Instant::from_secs(3_600));
    ChurnResult {
        flows,
        observations,
        live,
        evicted,
        expired: table.expired,
        ns_per_observe,
    }
}

/// Accounting-on vs accounting-off overhead on an E13-style ring.
#[derive(Debug, Clone, Copy)]
pub struct OverheadResult {
    /// Ring size (gateways).
    pub gateways: usize,
    /// Scheduler events (identical across arms — accounting schedules
    /// nothing).
    pub events: u64,
    /// Datagrams forwarded (identical across arms — observation does
    /// not perturb forwarding).
    pub forwarded: u64,
    /// Both invariants above held.
    pub arms_agree: bool,
    /// Flows the busiest gateway's table learned.
    pub flows_seen: usize,
    /// Accounting-off wall clock, ms.
    pub off_ms: f64,
    /// Accounting-on wall clock, ms.
    pub on_ms: f64,
}

fn build_ring(gateways: usize, seed: u64, accounting: bool) -> (Network, Vec<NodeId>) {
    let mut net = Network::new(seed);
    let gs: Vec<NodeId> = (0..gateways)
        .map(|i| net.add_gateway(format!("g{i}")))
        .collect();
    for i in 0..gateways {
        net.connect(gs[i], gs[(i + 1) % gateways], LinkClass::T1Terrestrial);
    }
    crate::topo::add_flows(&mut net, &gs, 250_000);
    if accounting {
        net.enable_accounting(FLUSH_PERIOD);
    }
    (net, gs)
}

/// Measure the end-to-end cost of full accounting on every gateway.
pub fn run_overhead(gateways: usize, seed: u64) -> OverheadResult {
    let arm = |accounting: bool| {
        let (mut net, gs) = build_ring(gateways, seed, accounting);
        let t0 = std::time::Instant::now();
        net.run_for(Duration::from_secs(30));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let forwarded: u64 = gs.iter().map(|&g| net.node(g).stats.ip_forwarded).sum();
        let flows_seen = gs
            .iter()
            .filter_map(|&g| net.node(g).flows.as_ref().map(|f| f.len()))
            .max()
            .unwrap_or(0);
        (net.sched_stats().processed, forwarded, flows_seen, ms)
    };
    let (off_events, off_forwarded, _, off_ms) = arm(false);
    let (on_events, on_forwarded, flows_seen, on_ms) = arm(true);
    OverheadResult {
        gateways,
        events: on_events,
        forwarded: on_forwarded,
        arms_agree: off_events == on_events && off_forwarded == on_forwarded,
        flows_seen,
        off_ms,
        on_ms,
    }
}

// ---------------------------------------------------------- part 3

/// One corruption class's sweep outcome across both integrity arms.
#[derive(Debug, Clone)]
pub struct SweepClass {
    /// Class name.
    pub name: &'static str,
    /// Corruptions applied.
    pub trials: u64,
    /// Corruptions the Internet checksum alone detected (by
    /// construction of the classes: zero).
    pub caught_checksum_only: u64,
    /// Corruptions the +crc32c arm detected.
    pub caught_with_crc: u64,
}

/// Sealed 64-byte payload with its Internet checksum stored in-band,
/// the shape the escape-class constructions need (a zero word planted
/// at offset 20, checksum field at offset 6).
fn sealed_payload() -> Vec<u8> {
    let mut msg: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(41) ^ 0xa5).collect();
    msg[20] = 0;
    msg[21] = 0;
    msg[6] = 0;
    msg[7] = 0;
    let ck = checksum::checksum(&msg);
    msg[6..8].copy_from_slice(&ck.to_be_bytes());
    msg
}

fn put_word(msg: &mut [u8], offset: usize, value: u16) {
    msg[offset..offset + 2].copy_from_slice(&value.to_be_bytes());
}

fn get_word(msg: &[u8], offset: usize) -> u16 {
    u16::from_be_bytes([msg[offset], msg[offset + 1]])
}

/// Replay the checksum's provable blind spots against both arms. Every
/// corruption in every class passes `checksum::verify` (the
/// checksum-only arm accepts it as clean); the +crc32c arm recomputes
/// the payload CRC a sender would have stamped into the TCP option and
/// compares.
pub fn run_sweep() -> Vec<SweepClass> {
    let msg = sealed_payload();
    let crc_ref = crc32c(&msg);
    let mut classes = Vec::new();

    let mut grade = |name: &'static str, corruptions: Vec<Vec<u8>>| {
        let mut caught_with_crc = 0;
        for corrupt in &corruptions {
            assert!(
                checksum::verify(corrupt),
                "{name}: constructed corruption must escape the checksum"
            );
            if crc32c(corrupt) != crc_ref {
                caught_with_crc += 1;
            }
        }
        classes.push(SweepClass {
            name,
            trials: corruptions.len() as u64,
            caught_checksum_only: 0,
            caught_with_crc,
        });
    };

    // Class 1: the zero flip (0x0000 ↔ 0xFFFF at the planted word).
    let mut flipped = msg.clone();
    put_word(&mut flipped, 20, 0xffff);
    grade("zero-flip", vec![flipped]);

    // Class 2: cancelling word pairs at offsets (2, 10) — a
    // deterministic sample of the ~2^16-strong escape set.
    let (off_a, off_b) = (2usize, 10);
    let (a, b) = (get_word(&msg, off_a), get_word(&msg, off_b));
    let mut pairs = Vec::new();
    for step in 0..512u32 {
        let new_a = (step * 128 + 7) as u16;
        let need = (u32::from(b) % 0xffff + 0xffff + u32::from(a) % 0xffff
            - u32::from(new_a) % 0xffff)
            % 0xffff;
        let new_b = if need == 0 { 0xffff } else { need as u16 };
        if new_a == a && new_b == b {
            continue;
        }
        let mut corrupt = msg.clone();
        put_word(&mut corrupt, off_a, new_a);
        put_word(&mut corrupt, off_b, new_b);
        pairs.push(corrupt);
    }
    grade("cancelling-pair", pairs);

    // Class 3: word transpositions (every distinct-value aligned pair).
    let mut swaps = Vec::new();
    for i in 0..32usize {
        for j in (i + 1)..32 {
            let (wa, wb) = (get_word(&msg, i * 2), get_word(&msg, j * 2));
            if wa == wb {
                continue;
            }
            let mut swapped = msg.clone();
            put_word(&mut swapped, i * 2, wb);
            put_word(&mut swapped, j * 2, wa);
            swaps.push(swapped);
        }
    }
    grade("transposition", swaps);

    classes
}

/// The CRC32C option's per-packet byte cost: 8 header bytes (NOP, NOP,
/// kind, len, CRC³²) per data segment, as a fraction of segment size at
/// a given payload length.
pub fn crc_overhead_pct(payload: usize) -> f64 {
    8.0 * 100.0 / (20.0 + 20.0 + 8.0 + payload as f64)
}

// ---------------------------------------------------------- battery

/// Everything E16 measures, for one seed list.
#[derive(Debug, Clone)]
pub struct Battery {
    /// Crash-storm arms, one per seed.
    pub storms: Vec<ReconcileRun>,
    /// Clean control arms, one per seed.
    pub cleans: Vec<ReconcileRun>,
    /// Churn at the default capacity (no evictions expected).
    pub churn_roomy: ChurnResult,
    /// Churn at an undersized capacity (evictions enforced).
    pub churn_bounded: ChurnResult,
    /// Fast-path overhead arms.
    pub overhead: OverheadResult,
    /// Corruption sweep classes.
    pub sweep: Vec<SweepClass>,
}

/// Run the full battery. `fast` shrinks the overhead ring.
pub fn run_battery(fast: bool, seeds: &[u64]) -> Battery {
    Battery {
        storms: seeds.iter().map(|&s| run_reconcile(s, true)).collect(),
        cleans: seeds.iter().map(|&s| run_reconcile(s, false)).collect(),
        churn_roomy: run_churn(CHURN_FLOWS, false),
        churn_bounded: run_churn(CHURN_FLOWS, true),
        overhead: run_overhead(if fast { 16 } else { 50 }, seeds[0]),
        sweep: run_sweep(),
    }
}

/// Render the battery as an experiment table.
pub fn table(battery: &Battery) -> Table {
    let mut table = Table::new(
        format!(
            "E16 — Accountability subsystem: crash-storm reconciliation \
             (ledgers flushed every {FLUSH_PERIOD}, tails forfeited at crash \
             instants), {CHURN_FLOWS}-flow churn through the flow table, \
             and the CRC32C option vs the Internet checksum's blind spots"
        ),
        &["measure", "value", "detail"],
    );
    let bounds_ok = battery.storms.iter().filter(|r| r.bounds_hold).count();
    let exact = battery
        .cleans
        .iter()
        .filter(|r| {
            r.reconciled.iter().all(|&c| c == r.reconciled[0])
                && r.reconciled[0] - r.goodput <= 2 * 536
        })
        .count();
    let completed = battery.storms.iter().filter(|r| r.completed).count();
    let epochs: u64 = battery.storms.iter().map(|r| r.mid_epochs).sum();
    let forfeited: u64 = battery.storms.iter().map(|r| r.forfeited).sum();
    table.row(vec![
        "storm: bounds hold".into(),
        format!("{bounds_ok}/{}", battery.storms.len()),
        "goodput ≤ reconciled ≤ sent, every gateway, every seed".into(),
    ]);
    table.row(vec![
        "storm: completed".into(),
        format!("{completed}/{}", battery.storms.len()),
        format!(
            "mid-gateway epochs {epochs}, forfeited tails {forfeited} across seeds"
        ),
    ]);
    table.row(vec![
        "clean: books agree".into(),
        format!("{exact}/{}", battery.cleans.len()),
        "all gateways identical, within one MSS of goodput, zero loss".into(),
    ]);
    for (capacity, churn) in [
        (DEFAULT_CAPACITY, &battery.churn_roomy),
        (BOUNDED_CAPACITY, &battery.churn_bounded),
    ] {
        table.row(vec![
            format!("churn ({capacity} slots)"),
            format!("{} live, {} evicted", churn.live, churn.evicted),
            format!(
                "{:.0} ns/observe, {} expired by final sweep",
                churn.ns_per_observe, churn.expired
            ),
        ]);
    }
    let o = &battery.overhead;
    table.row(vec![
        format!("overhead ring-{}", o.gateways),
        format!("{} events, {} forwarded", o.events, o.forwarded),
        format!(
            "arms agree: {}; busiest table learned {} flows",
            if o.arms_agree { "yes" } else { "NO" },
            o.flows_seen
        ),
    ]);
    for class in &battery.sweep {
        table.row(vec![
            format!("sweep: {}", class.name),
            format!(
                "checksum-only caught {}/{}, +crc32c caught {}/{}",
                class.caught_checksum_only, class.trials, class.caught_with_crc, class.trials
            ),
            format!(
                "option cost: {:.2}% at 536 B payload, {:.2}% at 1460 B",
                crc_overhead_pct(536),
                crc_overhead_pct(1460)
            ),
        ]);
    }
    table.note(
        "Expected shape: every storm seed reconciles within the \
         retransmission-inflation bound even though the middle gateway's \
         ledger is wiped by every crash — flushed reports plus forfeited \
         tails conserve every recorded byte. The clean arm's gateways \
         agree to the byte, pinning the bound's slack entirely on \
         retransmissions. The table holds 10^5 flows; undersizing it \
         trades flows for memory via exact LRU, never via failure. The \
         CRC32C arm catches 100% of the corruption classes the Internet \
         checksum provably accepts, for 8 bytes per data segment. \
         Wall-clock columns vary run to run; all counters are \
         seed-deterministic.",
    );
    table
}

/// Serialize as `BENCH_e16.json`. With `timings: false` (CI `--check`)
/// wall-clock fields are omitted — run twice and diff.
pub fn to_json(battery: &Battery, timings: bool) -> String {
    let mut out = String::from("{\n  \"experiment\": \"e16\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n  \"flush_period_secs\": {},\n  \"churn_flows\": {},\n",
        if timings { "full" } else { "check" },
        FLUSH_PERIOD.total_micros() / 1_000_000,
        CHURN_FLOWS,
    ));
    for (key, runs) in [("storm", &battery.storms), ("clean", &battery.cleans)] {
        out.push_str(&format!("  \"{key}\": [\n"));
        for (i, r) in runs.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"seed\": {}, \"completed\": {}, \"goodput\": {}, \"sent\": {}, \
                 \"reconciled\": [{}, {}, {}], \"bounds_hold\": {}, \"mid_epochs\": {}, \
                 \"reports\": {}, \"forfeited\": {}, \"faults\": {}}}{}\n",
                r.seed,
                r.completed,
                r.goodput,
                r.sent,
                r.reconciled[0],
                r.reconciled[1],
                r.reconciled[2],
                r.bounds_hold,
                r.mid_epochs,
                r.reports,
                r.forfeited,
                r.faults,
                if i + 1 < runs.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n");
    }
    for (key, churn) in [
        ("churn_roomy", &battery.churn_roomy),
        ("churn_bounded", &battery.churn_bounded),
    ] {
        out.push_str(&format!(
            "  \"{key}\": {{\"flows\": {}, \"observations\": {}, \"live\": {}, \
             \"evicted\": {}, \"expired\": {}",
            churn.flows, churn.observations, churn.live, churn.evicted, churn.expired,
        ));
        if timings {
            out.push_str(&format!(", \"ns_per_observe\": {:.1}", churn.ns_per_observe));
        }
        out.push_str("},\n");
    }
    let o = &battery.overhead;
    out.push_str(&format!(
        "  \"overhead\": {{\"gateways\": {}, \"events\": {}, \"forwarded\": {}, \
         \"arms_agree\": {}, \"flows_seen\": {}",
        o.gateways, o.events, o.forwarded, o.arms_agree, o.flows_seen,
    ));
    if timings {
        out.push_str(&format!(
            ", \"off_ms\": {:.3}, \"on_ms\": {:.3}",
            o.off_ms, o.on_ms
        ));
    }
    out.push_str("},\n  \"sweep\": [\n");
    for (i, class) in battery.sweep.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"class\": \"{}\", \"trials\": {}, \"caught_checksum_only\": {}, \
             \"caught_with_crc\": {}}}{}\n",
            class.name,
            class.trials,
            class.caught_checksum_only,
            class.caught_with_crc,
            if i + 1 < battery.sweep.len() { "," } else { "" },
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"crc_option_bytes\": 8,\n  \"crc_overhead_pct_536\": {:.3},\n  \
         \"crc_overhead_pct_1460\": {:.3}\n}}\n",
        crc_overhead_pct(536),
        crc_overhead_pct(1460),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_reconciles_exactly() {
        let r = run_reconcile(11, false);
        assert!(r.completed);
        assert!(r.bounds_hold);
        assert_eq!(r.goodput, TRANSFER as u64);
        // With zero link loss every gateway on the chain sees the same
        // datagrams, so the three ledgers must agree with each other to
        // the byte.
        assert!(
            r.reconciled.iter().all(|&c| c == r.reconciled[0]),
            "lossless chain: all gateways carry identical byte counts: {:?}",
            r.reconciled
        );
        // The only inflation a lossless run permits is ARP warm-up: the
        // first data segment can die on an edge LAN (before the first
        // gateway, or after the last ledger records it) and be
        // retransmitted end to end. That bounds both gaps — carried over
        // goodput and sent over carried — to a segment or two.
        assert!(r.reconciled[0] - r.goodput <= 2 * 536, "{r:?}");
        assert!(r.sent - r.goodput <= 2 * 536, "sent {} vs {}", r.sent, r.goodput);
        assert_eq!(r.forfeited, 0);
        assert!(r.reports > 0, "periodic flushes happened");
    }

    #[test]
    fn crash_storm_stays_within_the_bound() {
        let r = run_reconcile(11, true);
        assert!(r.faults > 0, "storm applied");
        assert!(r.bounds_hold, "{r:?}");
        assert!(r.mid_epochs >= 1, "the middle gateway's ledger saw a crash");
        assert!(r.completed, "TCP survived the storm (fate-sharing)");
    }

    #[test]
    fn churn_holds_1e5_flows_and_bounded_geometry_evicts() {
        let roomy = run_churn(CHURN_FLOWS, false);
        assert_eq!(roomy.live, CHURN_FLOWS);
        assert_eq!(roomy.evicted, 0);
        assert_eq!(roomy.expired, CHURN_FLOWS as u64);

        let bounded = run_churn(CHURN_FLOWS, true);
        assert_eq!(
            bounded.live, BOUNDED_CAPACITY,
            "bounded at capacity exactly"
        );
        assert_eq!(bounded.expired, BOUNDED_CAPACITY as u64);
        // One eviction per overflowing insert (34 464), plus one per
        // revisit of an already-evicted flow, which re-learns and
        // evicts again: soft state re-learns, memory stays bounded.
        assert_eq!(bounded.evicted, 51_696);
    }

    #[test]
    fn accounting_overhead_arms_agree() {
        let o = run_overhead(6, 23);
        assert!(o.arms_agree, "{o:?}");
        assert!(o.flows_seen > 0, "gateways learned flows");
        assert!(o.forwarded > 1_000);
    }

    #[test]
    fn sweep_crc_catches_everything_the_checksum_misses() {
        let classes = run_sweep();
        assert_eq!(classes.len(), 3);
        for class in &classes {
            assert!(class.trials > 0);
            assert_eq!(class.caught_checksum_only, 0);
            assert_eq!(
                class.caught_with_crc, class.trials,
                "{}: CRC32C must catch the full class",
                class.name
            );
        }
    }

    #[test]
    fn json_check_mode_is_deterministic_and_timing_free() {
        let a = run_battery(true, &[11]);
        let b = run_battery(true, &[11]);
        let ja = to_json(&a, false);
        let jb = to_json(&b, false);
        assert_eq!(ja, jb, "check-mode JSON replays bit-for-bit");
        assert!(!ja.contains("_ms"), "no wall-clock fields in check mode");
        assert!(!ja.contains("ns_per_observe"));
        assert!(ja.contains("\"mode\": \"check\""));
        let overhead = |battery: &Battery| {
            table(battery)
                .rows
                .into_iter()
                .find(|row| row[0].starts_with("overhead"))
                .expect("overhead row")
        };
        assert_eq!(overhead(&a), overhead(&b), "the overhead row prints counts, not wall clock");
    }
}
