//! Property tests for the distance-vector engine: seeded-random
//! advertisement streams checking the invariants the protocol promises
//! regardless of what neighbors say.
//!
//! Six properties, each over many seeds:
//!
//! 1. **Metric bounds** — every stored metric stays in
//!    `1..=INFINITY_METRIC` and the table version never goes backwards,
//!    no matter what metrics (0 and 16 included) arrive on the wire.
//! 2. **Down means down** — after `fail_iface`, no *live* route ever
//!    points out that interface until it is revived.
//! 3. **Silence drains** — from any reachable random state, stopping
//!    all advertisements garbage-collects every learned route within
//!    `ROUTE_TIMEOUT + GC_TIMEOUT` (plus one tick of slack); only
//!    connected routes survive.
//! 4. **The expiry bound never hides an expiry** — `tick` returns
//!    without scanning while `now < next_expiry()`, so after *every*
//!    mutation `next_expiry()` must be at or below the brute-force
//!    minimum `expires_at`, and after every `tick(now)` no deadline at
//!    or before `now` may remain. `catenet-core`'s `Node::is_quiet`,
//!    which lets the lane loop skip a pass, rests on the same bound.
//! 5. **Down is announced** — after `fail_iface(i, now)` and the
//!    `tick(now)` that `Node::service_dv` runs before it advertises,
//!    the triggered update toward every other interface carries each
//!    prefix that had a live route over `i` — the connected prefix
//!    included — at `INFINITY_METRIC`, so neighbours need not wait out
//!    their route timeout.
//! 6. **The periodic deadline has one writer** — taking rounds the way
//!    `Node::service_dv` does (`tick`, then, if a periodic or triggered
//!    update is due, one advertisement per live interface and
//!    `advertisements_sent`), a round that was not periodic-due leaves
//!    `poll_at()` where it was, and a periodic round sets it to
//!    `now + UPDATE_INTERVAL`: a triggered update never postpones the
//!    full table (RFC 2453 §3.8 against §3.10.1).
//!
//! Each property runs twice per seed: guard off (the trusting 1988
//! behavior) and guard on (the hardened path) — the invariants are the
//! engine's, and no admission policy may break them.

use catenet_routing::{
    DvConfig, DvEngine, ExportPolicy, GuardPolicy, NextHop, RipEntry, INFINITY_METRIC,
};
use catenet_sim::{Duration, Instant, Rng};
use catenet_wire::{Ipv4Address, Ipv4Cidr};

const SEEDS: [u64; 8] = [3, 11, 23, 37, 41, 53, 97, 1988];
const IFACES: usize = 3;
const STEPS: usize = 300;
/// Largest virtual-time advance per step.
const MAX_STEP: Duration = Duration::from_secs(2);

fn connected_prefix(iface: usize) -> Ipv4Cidr {
    Ipv4Cidr::new(Ipv4Address::new(10, 0, iface as u8, 0), 30)
}

fn neighbor_on(iface: usize) -> Ipv4Address {
    Ipv4Address::new(10, 0, iface as u8, 2)
}

fn fresh_engine(guard: bool) -> DvEngine {
    let mut dv = DvEngine::new(DvConfig::fast());
    if guard {
        dv.set_guard_policy(GuardPolicy::standard());
    }
    for iface in 0..IFACES {
        dv.add_connected(connected_prefix(iface), iface);
    }
    dv
}

/// A random advertisement: 1–5 entries over a small prefix pool with
/// arbitrary legal wire metrics (0 and INFINITY are legal on the wire —
/// that they never become illegal *table* states is the property).
fn random_entries(rng: &mut Rng) -> Vec<RipEntry> {
    let n = rng.range(1, 6) as usize;
    (0..n)
        .map(|_| {
            RipEntry::new(
                Ipv4Cidr::new(
                    Ipv4Address::new(10, rng.range(1, 9) as u8, rng.below(4) as u8 * 64, 0),
                    if rng.chance(0.5) { 16 } else { 24 },
                ),
                rng.range(0, u64::from(INFINITY_METRIC) + 1) as u8,
            )
        })
        .collect()
}

/// Drive one random step; returns the updated virtual time.
fn step(
    dv: &mut DvEngine,
    rng: &mut Rng,
    now: Instant,
    iface_up: &mut [bool; IFACES],
) -> Instant {
    let now = now + Duration::from_micros(rng.range(100_000, MAX_STEP.total_micros()));
    let roll = rng.unit();
    if roll < 0.70 {
        // An advertisement from a neighbor on a live interface (the
        // node never hands the engine traffic heard on a down one).
        let live: Vec<usize> = (0..IFACES).filter(|&i| iface_up[i]).collect();
        if let Some(&iface) = live.get(rng.below(live.len().max(1) as u64) as usize) {
            dv.handle_update(neighbor_on(iface), iface, &random_entries(rng), now);
        }
    } else if roll < 0.80 {
        let iface = rng.below(IFACES as u64) as usize;
        if iface_up[iface] {
            dv.fail_iface(iface, now);
            iface_up[iface] = false;
        }
    } else if roll < 0.90 {
        let iface = rng.below(IFACES as u64) as usize;
        if !iface_up[iface] {
            dv.add_connected(connected_prefix(iface), iface);
            iface_up[iface] = true;
        }
    }
    dv.tick(now);
    now
}

#[test]
fn metrics_stay_within_protocol_bounds_under_random_streams() {
    for guard in [false, true] {
        for seed in SEEDS {
            let mut rng = Rng::from_seed(seed);
            let mut dv = fresh_engine(guard);
            let mut iface_up = [true; IFACES];
            let mut now = Instant::ZERO;
            let mut last_version = dv.version();
            for _ in 0..STEPS {
                now = step(&mut dv, &mut rng, now, &mut iface_up);
                for (prefix, route) in dv.routes() {
                    assert!(
                        (1..=INFINITY_METRIC).contains(&route.metric),
                        "seed {seed} guard {guard}: {prefix} has metric {} at {now}",
                        route.metric
                    );
                }
                let version = dv.version();
                assert!(version >= last_version, "seed {seed}: version went backwards");
                last_version = version;
            }
        }
    }
}

#[test]
fn no_live_route_ever_uses_a_downed_iface() {
    for guard in [false, true] {
        for seed in SEEDS {
            let mut rng = Rng::from_seed(seed ^ 0xD0_4E);
            let mut dv = fresh_engine(guard);
            let mut iface_up = [true; IFACES];
            let mut now = Instant::ZERO;
            for _ in 0..STEPS {
                now = step(&mut dv, &mut rng, now, &mut iface_up);
                for (prefix, route) in dv.routes() {
                    if route.metric < INFINITY_METRIC {
                        assert!(
                            iface_up[route.next_hop.iface()],
                            "seed {seed} guard {guard}: live route {prefix} \
                             uses downed iface {} at {now}",
                            route.next_hop.iface()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn silence_gcs_every_learned_route_within_deadline() {
    for guard in [false, true] {
        for seed in SEEDS {
            let mut rng = Rng::from_seed(seed ^ 0x6C_DEAD);
            let mut dv = fresh_engine(guard);
            let mut iface_up = [true; IFACES];
            let mut now = Instant::ZERO;
            for _ in 0..STEPS {
                now = step(&mut dv, &mut rng, now, &mut iface_up);
            }
            // The neighbors fall silent. Every learned route must expire
            // (ROUTE_TIMEOUT), hold at infinity (GC_TIMEOUT), then vanish;
            // ticks land at the same cadence the stream used.
            let deadline =
                now + DvConfig::ROUTE_TIMEOUT + DvConfig::GC_TIMEOUT + MAX_STEP + MAX_STEP;
            while now < deadline {
                now += MAX_STEP;
                dv.tick(now);
            }
            let leftovers: Vec<String> = dv
                .routes()
                .filter(|(_, r)| !matches!(r.next_hop, NextHop::Connected { .. }))
                .map(|(p, r)| format!("{p} metric {}", r.metric))
                .collect();
            assert!(
                leftovers.is_empty(),
                "seed {seed} guard {guard}: learned routes survived silence: {leftovers:?}"
            );
            for (iface, &up) in iface_up.iter().enumerate() {
                if up {
                    assert!(
                        dv.lookup(Ipv4Address::new(10, 0, iface as u8, 1)).is_some(),
                        "seed {seed}: connected prefix on live iface {iface} must survive"
                    );
                }
            }
        }
    }
}

#[test]
fn next_expiry_never_exceeds_the_earliest_deadline() {
    fn check(dv: &DvEngine, seed: u64, guard: bool, op: &str, now: Instant) {
        let earliest = dv
            .routes()
            .map(|(_, route)| route.expires_at)
            .min()
            .unwrap_or(Instant::FAR_FUTURE);
        assert!(
            dv.next_expiry() <= earliest,
            "seed {seed} guard {guard}: after {op} at {now} the bound {} is past \
             the earliest deadline {earliest}",
            dv.next_expiry()
        );
    }
    for guard in [false, true] {
        for seed in SEEDS {
            let mut rng = Rng::from_seed(seed ^ 0x1D1E);
            let mut dv = fresh_engine(guard);
            let mut now = Instant::ZERO;
            check(&dv, seed, guard, "add_connected", now);
            for _ in 0..4 * STEPS {
                now += Duration::from_micros(rng.range(1_000, MAX_STEP.total_micros()));
                let iface = rng.below(IFACES as u64) as usize;
                let roll = rng.unit();
                // Ticks are deliberately sparse: a tick makes the bound
                // exact, and the property is about the writes between.
                let op = if roll < 0.50 {
                    dv.handle_update(neighbor_on(iface), iface, &random_entries(&mut rng), now);
                    "handle_update"
                } else if roll < 0.68 {
                    dv.fail_iface(iface, now);
                    "fail_iface"
                } else if roll < 0.78 {
                    dv.add_connected(connected_prefix(iface), iface);
                    "add_connected"
                } else if roll < 0.80 {
                    dv.clear();
                    "clear"
                } else {
                    dv.tick(now);
                    for (prefix, route) in dv.routes() {
                        assert!(
                            route.expires_at > now,
                            "seed {seed} guard {guard}: tick at {now} left {prefix} \
                             due at {} in the table",
                            route.expires_at
                        );
                    }
                    "tick"
                };
                check(&dv, seed, guard, op, now);
            }
        }
    }
}

#[test]
fn a_downed_iface_is_withdrawn_on_every_other_iface() {
    for guard in [false, true] {
        for seed in SEEDS {
            let mut rng = Rng::from_seed(seed ^ 0xD0_A11);
            let mut dv = fresh_engine(guard);
            let mut iface_up = [true; IFACES];
            let mut now = Instant::ZERO;
            let mut downs = 0;
            for n in 0..STEPS {
                now = step(&mut dv, &mut rng, now, &mut iface_up);
                let iface = rng.below(IFACES as u64) as usize;
                if !iface_up[iface] || !rng.chance(0.2) {
                    continue;
                }
                let over: Vec<Ipv4Cidr> = dv
                    .routes()
                    .filter(|(_, r)| r.metric < INFINITY_METRIC && r.next_hop.iface() == iface)
                    .map(|(prefix, _)| *prefix)
                    .collect();
                assert!(over.contains(&connected_prefix(iface)));
                // The last round went out; what follows is the failure's.
                dv.advertisements_sent(now);
                dv.fail_iface(iface, now);
                iface_up[iface] = false;
                dv.tick(now);
                for other in (0..IFACES).filter(|&j| j != iface) {
                    let ads = dv.advertisement_for(other, &ExportPolicy::All, false);
                    for prefix in &over {
                        assert!(
                            ads.iter()
                                .any(|e| e.prefix == *prefix && e.metric == INFINITY_METRIC),
                            "seed {seed} guard {guard} step {n}: iface {iface} went down \
                             at {now}, but the update on iface {other} does not withdraw \
                             {prefix}: {ads:?}"
                        );
                    }
                }
                downs += 1;
            }
            assert!(
                downs > 0,
                "seed {seed}: the stream never downed an interface"
            );
        }
    }
}

#[test]
fn only_a_periodic_round_moves_the_periodic_deadline() {
    for guard in [false, true] {
        for seed in SEEDS {
            let mut rng = Rng::from_seed(seed ^ 0x9E_410D);
            let mut dv = fresh_engine(guard);
            let mut iface_up = [true; IFACES];
            let mut now = Instant::ZERO;
            let mut rounds = [0u32; 2];
            for n in 0..STEPS {
                now = step(&mut dv, &mut rng, now, &mut iface_up);
                // One round, as `Node::service_dv` takes it.
                dv.tick(now);
                let periodic = dv.periodic_due(now);
                if !periodic && !dv.triggered_due() {
                    continue;
                }
                let before = dv.poll_at();
                for iface in (0..IFACES).filter(|&i| iface_up[i]) {
                    dv.advertisement_for(iface, &ExportPolicy::All, periodic);
                }
                dv.advertisements_sent(now);
                let (kind, want) = if periodic {
                    ("periodic", now + DvConfig::UPDATE_INTERVAL)
                } else {
                    ("triggered", before)
                };
                assert_eq!(
                    dv.poll_at(),
                    want,
                    "seed {seed} guard {guard} step {n}: a {kind} round at {now} moved the \
                     periodic deadline from {before}"
                );
                rounds[usize::from(periodic)] += 1;
            }
            assert!(
                rounds.iter().all(|&r| r > 0),
                "seed {seed} guard {guard}: the stream took {rounds:?} triggered and periodic rounds"
            );
        }
    }
}
