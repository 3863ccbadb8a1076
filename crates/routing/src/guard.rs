//! Route-guard: defensive admission of routing announcements.
//!
//! Clark's fourth goal — distributed management — is the one the 1988
//! architecture satisfied least: gateways run by different
//! administrations exchange routing tables, yet nothing in the
//! architecture defends against a neighbor that *lies*. A compromised
//! gateway can advertise a metric-0 black hole for a victim prefix,
//! originate prefixes it does not own, replay stale tables, or flap its
//! announcements to churn every table in reach.
//!
//! The [`RouteGuard`] sits between the wire and
//! [`crate::DvEngine::handle_update`] and applies the defenses the 1988
//! design lacked, in order:
//!
//! 1. **Quarantine wall** — announcements from a quarantined neighbor
//!    are discarded wholesale until a timed parole expires.
//! 2. **Per-neighbor rate limiting** — a fixed window caps how many
//!    announcements one neighbor may send; excess messages are dropped
//!    and count as offenses.
//! 3. **Wire-level sanitization** — entries with out-of-range prefix
//!    lengths are dropped, metrics above infinity are clamped, metric-0
//!    entries are rejected outright (no honest gateway advertises below
//!    1 — a connected network costs 1 — so metric 0 is the black-hole
//!    signature), finite metrics beyond the configured topology radius
//!    are clamped to infinity, and finite-metric echoes of our own
//!    connected prefixes from off-link neighbors are rejected (an
//!    on-link peer legitimately shares a link prefix; a distant liar
//!    claiming a better route to our own network does not).
//! 4. **Flap damping** — per (neighbor, prefix), reachable↔unreachable
//!    transitions inside a window trip a hold-down that suppresses the
//!    prefix until the hold-down expires.
//!
//! Rate-limit hits and damping trips accumulate as offenses; enough
//! offenses quarantine the neighbor. Sanitization does *not* escalate —
//! it already neutralizes the bad entry surgically, and escalating it
//! would let a single poisoned prefix take down every honest route the
//! same neighbor carries.
//!
//! Two extensions close gaps PR 4 left open:
//!
//! - **Origin attestation** (`GuardPolicy::attestation`, with an
//!   [`OriginRegistry`] installed): a finite-metric entry for a
//!   registered prefix must carry a valid, fresh
//!   [`Attestation`](catenet_auth::Attestation) from a
//!   registered owner. Failures drop the *entry* — like sanitization,
//!   never the neighbor, because an honest gateway legitimately relays
//!   a forged announcement it could not itself verify was stripped
//!   upstream, and quarantining the relay would take down every honest
//!   route it carries. Repeated failures for one prefix trip a
//!   *prefix-level* hold-down instead: the lie is quarantined, the liar's
//!   honest routes survive. Unreachable (infinity) entries pass
//!   unattested — a withdrawal claims nothing — and unregistered
//!   finite-metric prefixes are dropped outright (bogus origination).
//! - **Boot learning window** (`GuardPolicy::boot_window`): for guards
//!   armed at t=0, the initial distance-vector storm — full tables,
//!   triggered bursts, transient count-to-infinity flips — looks exactly
//!   like the attacks rate limiting and flap damping exist to stop.
//!   During the window (measured from the first admitted message, so it
//!   restarts after a crash/reset) those two *escalating* defenses
//!   observe without enforcing; sanitization and attestation, which
//!   judge each entry on its own evidence, stay fully armed from the
//!   first packet.
//!
//! Everything is behind a [`GuardPolicy`] switch whose default is *off*
//! — the trusting 1988 behavior, kept as the reference the defense is
//! measured against (experiment E14). Every verdict and incident is
//! observable: per Allman's measurability principle, a rejected
//! announcement is a first-class event, not a silent drop.

use crate::message::{RipEntry, INFINITY_METRIC};
use catenet_auth::{Freshness, OriginId, OriginRegistry, ReplayWindow};
use catenet_sim::{Duration, Instant};
use catenet_wire::{Ipv4Address, Ipv4Cidr};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// The guard's knobs. `Default` is the policy-off trusting behavior;
/// [`GuardPolicy::standard`] enables the full defense with values tuned
/// to the fast DV profile ([`crate::DvConfig::fast`], 3 s updates).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardPolicy {
    /// Master switch. Off = announcements flow straight into the
    /// engine, exactly as the 1988 architecture trusted them to.
    pub enabled: bool,
    /// If set, no honest finite metric can exceed this (the known
    /// topology radius plus slack); larger finite metrics are clamped
    /// to infinity.
    pub topology_radius: Option<u8>,
    /// Fixed window over which announcements per neighbor are counted.
    pub rate_window: Duration,
    /// Maximum announcements one neighbor may send per window.
    pub rate_limit: u32,
    /// Window over which reachable↔unreachable flips are counted.
    pub flap_window: Duration,
    /// Flips within the window that trip the hold-down.
    pub flap_threshold: u32,
    /// How long a damped prefix stays suppressed.
    pub holddown: Duration,
    /// Offenses (rate-limit hits + damping trips) that quarantine the
    /// neighbor.
    pub quarantine_threshold: u32,
    /// How long a quarantined neighbor is ignored before parole.
    pub quarantine_parole: Duration,
    /// Boot learning window, measured from the first admitted message:
    /// rate limiting and flap damping observe without enforcing until it
    /// elapses. Zero (the default) keeps the original always-armed
    /// behavior.
    pub boot_window: Duration,
    /// Require origin attestations for finite-metric entries on
    /// registered prefixes (needs an [`OriginRegistry`] installed via
    /// [`RouteGuard::set_registry`]).
    pub attestation: bool,
    /// Replay tolerance, in attestation serial units (serials advance
    /// with virtual-time seconds, so this is roughly seconds of
    /// propagation lag a stored attestation may accumulate).
    pub attest_window: u32,
    /// Attestation failures for one (neighbor, prefix) that trip the
    /// prefix-level hold-down.
    pub attest_strikes: u32,
    /// How long an attestation-quarantined prefix stays suppressed.
    pub attest_holddown: Duration,
}

impl Default for GuardPolicy {
    fn default() -> GuardPolicy {
        GuardPolicy::off()
    }
}

impl GuardPolicy {
    /// The full defense, tuned to the fast DV profile: honest neighbors
    /// send ~4 announcements per 10 s (3 s periodic plus triggered
    /// bursts), so 40 per window is generous; four flips in 12 s is two
    /// full die/revive cycles inside four update periods — churn no
    /// honest route survives twice.
    pub fn standard() -> GuardPolicy {
        GuardPolicy {
            enabled: true,
            topology_radius: None,
            rate_window: Duration::from_secs(10),
            rate_limit: 40,
            flap_window: Duration::from_secs(12),
            flap_threshold: 4,
            holddown: Duration::from_secs(20),
            quarantine_threshold: 6,
            quarantine_parole: Duration::from_secs(45),
            boot_window: Duration::ZERO,
            attestation: false,
            // A stored attestation crosses one hop per 3 s update round,
            // so 64 serial units (~64 s) tolerates any diameter this
            // catenet reaches while expiring recorded adverts quickly.
            attest_window: 64,
            attest_strikes: 3,
            attest_holddown: Duration::from_secs(30),
        }
    }

    /// The explicit trusting policy (same as `Default`): the standard
    /// knob values with the master switch off.
    pub fn off() -> GuardPolicy {
        GuardPolicy {
            enabled: false,
            ..GuardPolicy::standard()
        }
    }

    /// The standard defense, armable from cold boot: a 30 s learning
    /// window covers the initial DV storm (full-table bursts and
    /// count-to-infinity transients) so t=0 arming never quarantines an
    /// honest neighbor.
    pub fn boot_armed() -> GuardPolicy {
        GuardPolicy {
            boot_window: Duration::from_secs(30),
            ..GuardPolicy::standard()
        }
    }

    /// [`GuardPolicy::boot_armed`] plus origin attestation.
    pub fn attested() -> GuardPolicy {
        GuardPolicy {
            attestation: true,
            ..GuardPolicy::boot_armed()
        }
    }
}

/// Message-level outcome of admission, in increasing severity. A
/// message earns the worst verdict any of its entries earned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GuardVerdict {
    /// Every entry admitted unchanged.
    Accepted,
    /// At least one entry was dropped or clamped.
    Sanitized,
    /// At least one prefix is under hold-down (or the message was
    /// rate-limited away).
    Damped,
    /// The neighbor is quarantined; the message was discarded.
    Quarantined,
}

impl GuardVerdict {
    /// Short display name (used as a counter suffix in telemetry).
    pub fn name(self) -> &'static str {
        match self {
            GuardVerdict::Accepted => "accepted",
            GuardVerdict::Sanitized => "sanitized",
            GuardVerdict::Damped => "damped",
            GuardVerdict::Quarantined => "quarantined",
        }
    }
}

/// Per-neighbor verdict totals, one counter per [`GuardVerdict`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NeighborVerdicts {
    /// Messages admitted unchanged.
    pub accepted: u64,
    /// Messages with at least one entry dropped or clamped.
    pub sanitized: u64,
    /// Messages damped (hold-down suppression or rate limit).
    pub damped: u64,
    /// Messages discarded at the quarantine wall.
    pub quarantined: u64,
    /// *Entries* (not messages) dropped for attestation failures —
    /// missing, forged, misattributed, stale, or bogus origination.
    pub attest_rejected: u64,
}

/// Why an attestation check failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttestFailure {
    /// Finite-metric entry for a registered prefix carried no
    /// attestation (MAC-less forgery, or a stripped hijack).
    Missing,
    /// Finite-metric entry for a prefix no origin is registered to
    /// announce (bogus origination).
    UnknownPrefix,
    /// The claimed origin is not a registered owner of the prefix.
    WrongOrigin,
    /// The tag did not verify under the claimed origin's key
    /// (origin-key spoofing).
    BadMac,
    /// The serial is older than the replay window tolerates (a
    /// recorded, stale-but-signed advertisement).
    Stale,
}

impl fmt::Display for AttestFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttestFailure::Missing => write!(f, "missing attestation"),
            AttestFailure::UnknownPrefix => write!(f, "unregistered prefix"),
            AttestFailure::WrongOrigin => write!(f, "wrong origin"),
            AttestFailure::BadMac => write!(f, "bad mac"),
            AttestFailure::Stale => write!(f, "stale serial"),
        }
    }
}

/// One observable guard action, drained by the owner into the flight
/// recorder — control-plane misbehavior must be measurable in-protocol,
/// not just injected.
#[derive(Debug, Clone, PartialEq)]
pub enum GuardIncident {
    /// Entries were dropped and/or clamped out of a message.
    Sanitized {
        /// Who sent the message.
        neighbor: Ipv4Address,
        /// Entries rejected outright.
        dropped: usize,
        /// Entries admitted with a corrected metric.
        clamped: usize,
    },
    /// A flapping prefix tripped its hold-down.
    Damped {
        /// Who sent the flapping announcements.
        neighbor: Ipv4Address,
        /// The prefix now suppressed.
        prefix: Ipv4Cidr,
        /// When the hold-down expires.
        until: Instant,
    },
    /// A message exceeded the per-neighbor rate limit.
    RateLimited {
        /// The over-talkative neighbor.
        neighbor: Ipv4Address,
    },
    /// Accumulated offenses quarantined the neighbor.
    Quarantined {
        /// The quarantined neighbor.
        neighbor: Ipv4Address,
        /// When parole is due.
        until: Instant,
    },
    /// A quarantine expired; the neighbor is heard again.
    Paroled {
        /// The paroled neighbor.
        neighbor: Ipv4Address,
    },
    /// An entry failed its origin-attestation check and was dropped.
    AttestRejected {
        /// Who relayed the failing entry.
        neighbor: Ipv4Address,
        /// The prefix the entry claimed.
        prefix: Ipv4Cidr,
        /// What failed.
        reason: AttestFailure,
    },
    /// Repeated attestation failures quarantined one prefix from one
    /// neighbor (the lie is suppressed; the neighbor's honest routes
    /// survive).
    PrefixQuarantined {
        /// Who keeps relaying the failing entry.
        neighbor: Ipv4Address,
        /// The suppressed prefix.
        prefix: Ipv4Cidr,
        /// When the hold-down expires.
        until: Instant,
    },
}

impl fmt::Display for GuardIncident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuardIncident::Sanitized { neighbor, dropped, clamped } => write!(
                f,
                "sanitized {neighbor}: {dropped} dropped, {clamped} clamped"
            ),
            GuardIncident::Damped { neighbor, prefix, until } => write!(
                f,
                "damped {prefix} from {neighbor} until t={:.1}s",
                until.total_micros() as f64 / 1e6
            ),
            GuardIncident::RateLimited { neighbor } => {
                write!(f, "rate-limited {neighbor}")
            }
            GuardIncident::Quarantined { neighbor, until } => write!(
                f,
                "quarantined {neighbor} until t={:.1}s",
                until.total_micros() as f64 / 1e6
            ),
            GuardIncident::Paroled { neighbor } => write!(f, "paroled {neighbor}"),
            GuardIncident::AttestRejected { neighbor, prefix, reason } => {
                write!(f, "attest-rejected {prefix} from {neighbor}: {reason}")
            }
            GuardIncident::PrefixQuarantined { neighbor, prefix, until } => write!(
                f,
                "prefix-quarantined {prefix} from {neighbor} until t={:.1}s",
                until.total_micros() as f64 / 1e6
            ),
        }
    }
}

/// What admission decided: the entries the engine may believe, plus the
/// message-level verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Admission {
    /// The sanitized entry list (possibly empty).
    pub entries: Vec<RipEntry>,
    /// The worst verdict any entry earned.
    pub verdict: GuardVerdict,
}

/// Flap-damping state for one (neighbor, prefix).
#[derive(Debug, Clone)]
struct PrefixState {
    last_reachable: bool,
    window_start: Instant,
    flips: u32,
    holddown_until: Option<Instant>,
}

impl PrefixState {
    fn new(now: Instant, reachable: bool) -> PrefixState {
        PrefixState {
            last_reachable: reachable,
            window_start: now,
            flips: 0,
            holddown_until: None,
        }
    }
}

/// Everything the guard remembers about one neighbor.
#[derive(Debug, Clone)]
struct NeighborState {
    msg_window_start: Instant,
    msgs_in_window: u32,
    offenses: u32,
    quarantined_until: Option<Instant>,
    verdicts: NeighborVerdicts,
    prefixes: BTreeMap<Ipv4Cidr, PrefixState>,
    attest_strikes: BTreeMap<Ipv4Cidr, u32>,
    attest_holddown: BTreeMap<Ipv4Cidr, Instant>,
}

impl NeighborState {
    fn new(now: Instant) -> NeighborState {
        NeighborState {
            msg_window_start: now,
            msgs_in_window: 0,
            offenses: 0,
            quarantined_until: None,
            verdicts: NeighborVerdicts::default(),
            prefixes: BTreeMap::new(),
            attest_strikes: BTreeMap::new(),
            attest_holddown: BTreeMap::new(),
        }
    }
}

/// The guard itself: per-neighbor admission state plus the incident log
/// the owner drains into telemetry. All state lives in `BTreeMap`s so
/// iteration — and therefore every harvested counter — is
/// deterministic.
#[derive(Debug, Clone)]
pub struct RouteGuard {
    policy: GuardPolicy,
    registry: Option<Arc<OriginRegistry>>,
    boot_started: Option<Instant>,
    origin_seq: BTreeMap<(OriginId, Ipv4Cidr), ReplayWindow>,
    neighbors: BTreeMap<Ipv4Address, NeighborState>,
    incidents: Vec<GuardIncident>,
}

impl RouteGuard {
    /// A guard with the given policy and no history.
    pub fn new(policy: GuardPolicy) -> RouteGuard {
        RouteGuard {
            policy,
            registry: None,
            boot_started: None,
            origin_seq: BTreeMap::new(),
            neighbors: BTreeMap::new(),
            incidents: Vec::new(),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> &GuardPolicy {
        &self.policy
    }

    /// Replace the policy and forget all per-neighbor history (changing
    /// the rules mid-game would make old offenses incomparable).
    pub fn set_policy(&mut self, policy: GuardPolicy) {
        self.policy = policy;
        self.reset();
    }

    /// Whether admission is enforced at all.
    pub fn enabled(&self) -> bool {
        self.policy.enabled
    }

    /// Install (or remove) the prefix-ownership registry attestation
    /// checks verify against. Configuration, like the policy: it
    /// survives [`RouteGuard::reset`].
    pub fn set_registry(&mut self, registry: Option<Arc<OriginRegistry>>) {
        self.registry = registry;
    }

    /// The installed ownership registry, if any.
    pub fn registry(&self) -> Option<&Arc<OriginRegistry>> {
        self.registry.as_ref()
    }

    /// Forget all per-neighbor state, replay tracking, and pending
    /// incidents; the policy and registry survive (they are
    /// configuration, not conversation state). The boot learning window
    /// restarts at the next admitted message — a rebooted guard faces a
    /// fresh DV storm.
    pub fn reset(&mut self) {
        self.neighbors.clear();
        self.incidents.clear();
        self.origin_seq.clear();
        self.boot_started = None;
    }

    /// Per-neighbor verdict totals, in address order.
    pub fn verdicts(&self) -> impl Iterator<Item = (Ipv4Address, NeighborVerdicts)> + '_ {
        self.neighbors.iter().map(|(addr, s)| (*addr, s.verdicts))
    }

    /// One neighbor's verdict totals (zero if it was never heard).
    pub fn neighbor_verdicts(&self, neighbor: Ipv4Address) -> NeighborVerdicts {
        self.neighbors.get(&neighbor).map_or_else(Default::default, |s| s.verdicts)
    }

    /// Take the pending incident log (oldest first).
    pub fn drain_incidents(&mut self) -> Vec<GuardIncident> {
        std::mem::take(&mut self.incidents)
    }

    /// How many neighbors are quarantined at `now`.
    pub fn quarantined_count(&self, now: Instant) -> usize {
        self.neighbors
            .values()
            .filter(|s| s.quarantined_until.is_some_and(|t| now < t))
            .count()
    }

    /// How many (neighbor, prefix) pairs are under attestation
    /// hold-down at `now`.
    pub fn quarantined_prefixes(&self, now: Instant) -> usize {
        self.neighbors
            .values()
            .map(|s| s.attest_holddown.values().filter(|&&t| now < t).count())
            .sum()
    }

    /// Admit (what survives of) an announcement from `neighbor`.
    /// `own_prefixes` lists the owner's *live* connected networks — the
    /// prefixes nobody else may claim a finite-metric route to, unless
    /// they share the link.
    pub fn admit(
        &mut self,
        neighbor: Ipv4Address,
        entries: &[RipEntry],
        now: Instant,
        own_prefixes: &[Ipv4Cidr],
    ) -> Admission {
        let p = self.policy;
        // The boot learning window runs from the first admitted message
        // (not the guard's construction): a guard armed at build time
        // starts learning when the network starts talking.
        let boot_started = *self.boot_started.get_or_insert(now);
        let booting = !p.boot_window.is_zero()
            && now.duration_since(boot_started) < p.boot_window;
        let state = self
            .neighbors
            .entry(neighbor)
            .or_insert_with(|| NeighborState::new(now));

        // 1. Quarantine wall, with timed parole.
        if let Some(until) = state.quarantined_until {
            if now < until {
                state.verdicts.quarantined += 1;
                return Admission {
                    entries: Vec::new(),
                    verdict: GuardVerdict::Quarantined,
                };
            }
            *state = NeighborState::new(now);
            self.incidents.push(GuardIncident::Paroled { neighbor });
        }

        // 2. Per-neighbor rate limit (fixed window). During boot the
        // window is tracked but never enforced: a cold-boot full-table
        // storm is indistinguishable from a flood by volume alone.
        if now.duration_since(state.msg_window_start) >= p.rate_window {
            state.msg_window_start = now;
            state.msgs_in_window = 0;
        }
        state.msgs_in_window += 1;
        if !booting && state.msgs_in_window > p.rate_limit {
            state.offenses += 1;
            self.incidents.push(GuardIncident::RateLimited { neighbor });
            if state.offenses >= p.quarantine_threshold {
                let until = now + p.quarantine_parole;
                state.quarantined_until = Some(until);
                self.incidents
                    .push(GuardIncident::Quarantined { neighbor, until });
            }
            state.verdicts.damped += 1;
            return Admission {
                entries: Vec::new(),
                verdict: GuardVerdict::Damped,
            };
        }

        // 3. Per-entry sanitization, 4. origin attestation, then
        // 5. flap damping.
        let mut admitted = Vec::with_capacity(entries.len());
        let mut dropped = 0usize;
        let mut clamped = 0usize;
        let mut rejected = 0usize;
        let mut damped_any = false;
        for entry in entries {
            if entry.prefix.prefix_len() > 32 {
                dropped += 1;
                continue;
            }
            let mut metric = entry.metric;
            if metric > INFINITY_METRIC {
                metric = INFINITY_METRIC;
                clamped += 1;
            }
            if metric == 0 {
                // Below the minimum any honest gateway can announce: the
                // black-hole signature.
                dropped += 1;
                continue;
            }
            if let Some(radius) = p.topology_radius {
                if metric < INFINITY_METRIC && metric > radius {
                    metric = INFINITY_METRIC;
                    clamped += 1;
                }
            }
            let prefix = entry.prefix.network();
            if metric < INFINITY_METRIC
                && own_prefixes.iter().any(|own| own.network() == prefix)
                && !prefix.contains(neighbor)
            {
                // A distant neighbor claims a live route to our own
                // connected network. (An on-link peer sharing the
                // prefix is normal; infinity echoes are poisoned
                // reverse — both pass.)
                dropped += 1;
                continue;
            }

            // Origin attestation: reachability claims for registered
            // prefixes need proof. Active even during boot — the check
            // judges the entry's own evidence, not traffic volume, so
            // there is nothing to learn first.
            if p.attestation && metric < INFINITY_METRIC {
                if let Some(registry) = &self.registry {
                    if let Some(&until) = state.attest_holddown.get(&prefix) {
                        if now < until {
                            // The prefix is quarantined from this
                            // neighbor; the lie stays suppressed.
                            damped_any = true;
                            continue;
                        }
                        state.attest_holddown.remove(&prefix);
                        state.attest_strikes.remove(&prefix);
                    }
                    let failure = if !registry.is_registered(prefix) {
                        Some(AttestFailure::UnknownPrefix)
                    } else {
                        match entry.attestation {
                            None => Some(AttestFailure::Missing),
                            Some(att) if !registry.owns(prefix, att.origin) => {
                                Some(AttestFailure::WrongOrigin)
                            }
                            Some(att) => {
                                let key = registry
                                    .key(att.origin)
                                    .expect("registered owner has a key");
                                if !att.verify(key, prefix) {
                                    Some(AttestFailure::BadMac)
                                } else {
                                    // Replay tracking is keyed on
                                    // (origin, prefix) globally, not per
                                    // neighbor: a per-neighbor high-water
                                    // mark would let a liar replay a
                                    // frozen advert forever to a victim
                                    // that never heard the fresh serial.
                                    let window = self
                                        .origin_seq
                                        .entry((att.origin, prefix))
                                        .or_insert_with(|| ReplayWindow::new(p.attest_window));
                                    match window.check(att.seq) {
                                        Freshness::Stale => Some(AttestFailure::Stale),
                                        Freshness::Fresh | Freshness::InWindow => None,
                                    }
                                }
                            }
                        }
                    };
                    if let Some(reason) = failure {
                        rejected += 1;
                        self.incidents.push(GuardIncident::AttestRejected {
                            neighbor,
                            prefix,
                            reason,
                        });
                        let strikes = state.attest_strikes.entry(prefix).or_insert(0);
                        *strikes += 1;
                        if *strikes >= p.attest_strikes {
                            let until = now + p.attest_holddown;
                            state.attest_holddown.insert(prefix, until);
                            self.incidents.push(GuardIncident::PrefixQuarantined {
                                neighbor,
                                prefix,
                                until,
                            });
                        }
                        continue;
                    }
                }
            }

            // Flap damping observes nothing during boot: the transient
            // reachable↔unreachable flips of initial convergence
            // (count-to-infinity, poisoned reverse races) are not churn
            // worth holding down, and must not seed the flip counters
            // enforcement later judges by.
            if !booting {
                let reachable = metric < INFINITY_METRIC;
                let ps = state
                    .prefixes
                    .entry(prefix)
                    .or_insert_with(|| PrefixState::new(now, reachable));
                if let Some(until) = ps.holddown_until {
                    if now < until {
                        damped_any = true;
                        continue;
                    }
                    // Hold-down served: the prefix starts over.
                    *ps = PrefixState::new(now, reachable);
                } else if ps.last_reachable != reachable {
                    if now.duration_since(ps.window_start) >= p.flap_window {
                        ps.window_start = now;
                        ps.flips = 0;
                    }
                    ps.flips += 1;
                    ps.last_reachable = reachable;
                    if ps.flips >= p.flap_threshold {
                        let until = now + p.holddown;
                        ps.holddown_until = Some(until);
                        state.offenses += 1;
                        self.incidents
                            .push(GuardIncident::Damped { neighbor, prefix, until });
                        damped_any = true;
                        continue;
                    }
                }
            }
            admitted.push(RipEntry {
                prefix: entry.prefix,
                metric,
                attestation: entry.attestation,
            });
        }

        if dropped + clamped > 0 {
            self.incidents.push(GuardIncident::Sanitized {
                neighbor,
                dropped,
                clamped,
            });
        }
        if state.quarantined_until.is_none() && state.offenses >= p.quarantine_threshold {
            let until = now + p.quarantine_parole;
            state.quarantined_until = Some(until);
            self.incidents
                .push(GuardIncident::Quarantined { neighbor, until });
        }

        state.verdicts.attest_rejected += rejected as u64;
        let mut verdict = GuardVerdict::Accepted;
        if dropped + clamped + rejected > 0 {
            verdict = verdict.max(GuardVerdict::Sanitized);
        }
        if damped_any {
            verdict = verdict.max(GuardVerdict::Damped);
        }
        match verdict {
            GuardVerdict::Accepted => state.verdicts.accepted += 1,
            GuardVerdict::Sanitized => state.verdicts.sanitized += 1,
            GuardVerdict::Damped => state.verdicts.damped += 1,
            GuardVerdict::Quarantined => state.verdicts.quarantined += 1,
        }
        Admission {
            entries: admitted,
            verdict,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cidr(s: &str) -> Ipv4Cidr {
        s.parse().unwrap()
    }

    fn addr(s: &str) -> Ipv4Address {
        s.parse().unwrap()
    }

    fn entry(prefix: &str, metric: u8) -> RipEntry {
        RipEntry::new(cidr(prefix), metric)
    }

    fn guard() -> RouteGuard {
        RouteGuard::new(GuardPolicy::standard())
    }

    fn secs(s: u64) -> Instant {
        Instant::from_secs(s)
    }

    #[test]
    fn default_policy_is_off_standard_is_on() {
        assert!(!GuardPolicy::default().enabled);
        assert!(!GuardPolicy::off().enabled);
        assert!(GuardPolicy::standard().enabled);
        assert!(!RouteGuard::new(GuardPolicy::off()).enabled());
    }

    #[test]
    fn clean_message_accepted_verbatim() {
        let mut g = guard();
        let entries = [entry("10.9.0.0/16", 2), entry("10.8.0.0/16", 16)];
        let a = g.admit(addr("10.0.0.2"), &entries, secs(0), &[]);
        assert_eq!(a.verdict, GuardVerdict::Accepted);
        assert_eq!(a.entries, entries.to_vec());
        assert!(g.drain_incidents().is_empty());
    }

    #[test]
    fn metric_zero_is_dropped_as_blackhole_signature() {
        let mut g = guard();
        let a = g.admit(
            addr("10.0.0.2"),
            &[entry("10.9.0.0/16", 0), entry("10.8.0.0/16", 3)],
            secs(0),
            &[],
        );
        assert_eq!(a.verdict, GuardVerdict::Sanitized);
        assert_eq!(a.entries, vec![entry("10.8.0.0/16", 3)]);
        let incidents = g.drain_incidents();
        assert_eq!(
            incidents,
            vec![GuardIncident::Sanitized {
                neighbor: addr("10.0.0.2"),
                dropped: 1,
                clamped: 0,
            }]
        );
    }

    #[test]
    fn over_infinity_metric_clamped() {
        let mut g = guard();
        let a = g.admit(addr("10.0.0.2"), &[entry("10.9.0.0/16", 200)], secs(0), &[]);
        assert_eq!(a.verdict, GuardVerdict::Sanitized);
        assert_eq!(a.entries, vec![entry("10.9.0.0/16", INFINITY_METRIC)]);
    }

    #[test]
    fn radius_clamps_impossible_finite_metrics() {
        let mut policy = GuardPolicy::standard();
        policy.topology_radius = Some(6);
        let mut g = RouteGuard::new(policy);
        let a = g.admit(
            addr("10.0.0.2"),
            &[entry("10.9.0.0/16", 7), entry("10.8.0.0/16", 6)],
            secs(0),
            &[],
        );
        assert_eq!(a.verdict, GuardVerdict::Sanitized);
        assert_eq!(
            a.entries,
            vec![
                entry("10.9.0.0/16", INFINITY_METRIC),
                entry("10.8.0.0/16", 6)
            ]
        );
    }

    #[test]
    fn off_link_echo_of_own_prefix_rejected() {
        let mut g = guard();
        let own = [cidr("10.1.0.0/16")];
        // A neighbor outside 10.1/16 claims a finite route to it: lie.
        let a = g.admit(addr("10.99.0.2"), &[entry("10.1.0.0/16", 2)], secs(0), &own);
        assert_eq!(a.verdict, GuardVerdict::Sanitized);
        assert!(a.entries.is_empty());
        // Infinity echoes (poisoned reverse) pass.
        let a = g.admit(
            addr("10.99.0.2"),
            &[entry("10.1.0.0/16", INFINITY_METRIC)],
            secs(1),
            &own,
        );
        assert_eq!(a.verdict, GuardVerdict::Accepted);
    }

    #[test]
    fn on_link_peer_may_share_our_prefix() {
        let mut g = guard();
        // The far end of a point-to-point link advertises the link
        // prefix we also have connected: normal, not an attack.
        let own = [cidr("10.12.0.0/24")];
        let a = g.admit(addr("10.12.0.2"), &[entry("10.12.0.0/24", 1)], secs(0), &own);
        assert_eq!(a.verdict, GuardVerdict::Accepted);
        assert_eq!(a.entries.len(), 1);
    }

    #[test]
    fn flapping_prefix_trips_holddown_then_paroles() {
        let mut g = guard(); // threshold 4 flips / 12 s, holddown 20 s
        let n = addr("10.0.0.2");
        // Alternate reachable/unreachable every second: flips at t=1..4.
        for t in 0..4u64 {
            let metric = if t % 2 == 0 { 2 } else { INFINITY_METRIC };
            g.admit(n, &[entry("10.9.0.0/16", metric)], secs(t), &[]);
        }
        let a = g.admit(n, &[entry("10.9.0.0/16", 2)], secs(4), &[]);
        assert_eq!(a.verdict, GuardVerdict::Damped);
        assert!(a.entries.is_empty(), "prefix suppressed under hold-down");
        assert!(g
            .drain_incidents()
            .iter()
            .any(|i| matches!(i, GuardIncident::Damped { .. })));
        // Hold-down still active at t=23 (tripped at t=4, holds 20 s).
        let a = g.admit(n, &[entry("10.9.0.0/16", 2)], secs(23), &[]);
        assert_eq!(a.verdict, GuardVerdict::Damped);
        // Expired at t=24: the prefix is re-admitted fresh.
        let a = g.admit(n, &[entry("10.9.0.0/16", 2)], secs(25), &[]);
        assert_eq!(a.verdict, GuardVerdict::Accepted);
        assert_eq!(a.entries.len(), 1);
    }

    #[test]
    fn slow_flaps_never_trip() {
        let mut g = guard(); // window 12 s
        let n = addr("10.0.0.2");
        // One flip per 13 s: the window resets before the count builds.
        for t in 0..8u64 {
            let metric = if t % 2 == 0 { 2 } else { INFINITY_METRIC };
            let a = g.admit(n, &[entry("10.9.0.0/16", metric)], secs(t * 13), &[]);
            assert_ne!(a.verdict, GuardVerdict::Damped, "flip {t}");
        }
    }

    #[test]
    fn rate_limit_drops_excess_messages() {
        let mut g = guard(); // 40 per 10 s
        let n = addr("10.0.0.2");
        for _ in 0..40 {
            let a = g.admit(n, &[entry("10.9.0.0/16", 2)], secs(1), &[]);
            assert_eq!(a.verdict, GuardVerdict::Accepted);
        }
        let a = g.admit(n, &[entry("10.9.0.0/16", 2)], secs(1), &[]);
        assert_eq!(a.verdict, GuardVerdict::Damped);
        assert!(a.entries.is_empty());
        assert!(g
            .drain_incidents()
            .iter()
            .any(|i| matches!(i, GuardIncident::RateLimited { .. })));
        // A new window admits again.
        let a = g.admit(n, &[entry("10.9.0.0/16", 2)], secs(12), &[]);
        assert_eq!(a.verdict, GuardVerdict::Accepted);
    }

    #[test]
    fn offenses_quarantine_then_parole_resets() {
        let mut policy = GuardPolicy::standard();
        policy.flap_threshold = 1; // every flip is an instant offense
        policy.quarantine_threshold = 2;
        policy.quarantine_parole = Duration::from_secs(30);
        policy.holddown = Duration::from_secs(1);
        let mut g = RouteGuard::new(policy);
        let n = addr("10.0.0.2");
        // Two prefixes flip once each: two offenses → quarantine.
        g.admit(n, &[entry("10.9.0.0/16", 2), entry("10.8.0.0/16", 2)], secs(0), &[]);
        let a = g.admit(
            n,
            &[
                entry("10.9.0.0/16", INFINITY_METRIC),
                entry("10.8.0.0/16", INFINITY_METRIC),
            ],
            secs(1),
            &[],
        );
        assert_eq!(a.verdict, GuardVerdict::Damped);
        assert_eq!(g.quarantined_count(secs(2)), 1);
        assert!(g
            .drain_incidents()
            .iter()
            .any(|i| matches!(i, GuardIncident::Quarantined { .. })));
        // While quarantined: everything discarded.
        let a = g.admit(n, &[entry("10.7.0.0/16", 2)], secs(10), &[]);
        assert_eq!(a.verdict, GuardVerdict::Quarantined);
        assert!(a.entries.is_empty());
        // After parole (t=31): heard again, history wiped.
        let a = g.admit(n, &[entry("10.7.0.0/16", 2)], secs(32), &[]);
        assert_eq!(a.verdict, GuardVerdict::Accepted);
        assert_eq!(g.quarantined_count(secs(32)), 0);
        assert!(g
            .drain_incidents()
            .iter()
            .any(|i| matches!(i, GuardIncident::Paroled { .. })));
    }

    #[test]
    fn verdict_totals_accumulate_per_neighbor() {
        let mut g = guard();
        let n1 = addr("10.0.0.2");
        let n2 = addr("10.0.0.3");
        g.admit(n1, &[entry("10.9.0.0/16", 2)], secs(0), &[]);
        g.admit(n1, &[entry("10.9.0.0/16", 0)], secs(1), &[]);
        g.admit(n2, &[entry("10.9.0.0/16", 2)], secs(2), &[]);
        let v: Vec<_> = g.verdicts().collect();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].0, n1);
        assert_eq!(v[0].1.accepted, 1);
        assert_eq!(v[0].1.sanitized, 1);
        assert_eq!(v[1].0, n2);
        assert_eq!(v[1].1.accepted, 1);
    }

    #[test]
    fn reset_forgets_history_keeps_policy() {
        let mut g = guard();
        g.admit(addr("10.0.0.2"), &[entry("10.9.0.0/16", 0)], secs(0), &[]);
        g.reset();
        assert_eq!(g.verdicts().count(), 0);
        assert!(g.drain_incidents().is_empty());
        assert!(g.enabled());
    }

    #[test]
    fn incidents_render_for_the_flight_recorder() {
        let neighbor = addr("10.0.0.2");
        let texts = [
            GuardIncident::Sanitized { neighbor, dropped: 2, clamped: 1 }.to_string(),
            GuardIncident::Damped {
                neighbor,
                prefix: cidr("10.9.0.0/16"),
                until: secs(30),
            }
            .to_string(),
            GuardIncident::RateLimited { neighbor }.to_string(),
            GuardIncident::Quarantined { neighbor, until: secs(60) }.to_string(),
            GuardIncident::Paroled { neighbor }.to_string(),
        ];
        assert_eq!(texts[0], "sanitized 10.0.0.2: 2 dropped, 1 clamped");
        assert_eq!(texts[1], "damped 10.9.0.0/16 from 10.0.0.2 until t=30.0s");
        assert_eq!(texts[2], "rate-limited 10.0.0.2");
        assert_eq!(texts[3], "quarantined 10.0.0.2 until t=60.0s");
        assert_eq!(texts[4], "paroled 10.0.0.2");
        let attest_texts = [
            GuardIncident::AttestRejected {
                neighbor,
                prefix: cidr("10.9.0.0/16"),
                reason: AttestFailure::BadMac,
            }
            .to_string(),
            GuardIncident::PrefixQuarantined {
                neighbor,
                prefix: cidr("10.9.0.0/16"),
                until: secs(90),
            }
            .to_string(),
        ];
        assert_eq!(attest_texts[0], "attest-rejected 10.9.0.0/16 from 10.0.0.2: bad mac");
        assert_eq!(
            attest_texts[1],
            "prefix-quarantined 10.9.0.0/16 from 10.0.0.2 until t=90.0s"
        );
    }

    // ---- origin attestation ----

    use catenet_auth::{Attestation, MacKey, OriginId, OriginRegistry};

    const MASTER: MacKey = MacKey([0x11, 0x22]);

    /// Registry with origin 1 owning 10.9/16 and 10.8/16, origin 2
    /// owning 10.7/16.
    fn registry() -> Arc<OriginRegistry> {
        let mut reg = OriginRegistry::new(MASTER);
        reg.register(cidr("10.9.0.0/16"), OriginId(1));
        reg.register(cidr("10.8.0.0/16"), OriginId(1));
        reg.register(cidr("10.7.0.0/16"), OriginId(2));
        Arc::new(reg)
    }

    fn signed(prefix: &str, metric: u8, origin: u16, seq: u32) -> RipEntry {
        let key = MacKey::derive(MASTER, OriginId(origin));
        RipEntry::attested(
            cidr(prefix),
            metric,
            Attestation::sign(key, OriginId(origin), cidr(prefix), seq),
        )
    }

    fn attested_guard() -> RouteGuard {
        let mut policy = GuardPolicy::attested();
        policy.boot_window = Duration::ZERO; // enforcement tests want t=0 teeth
        let mut g = RouteGuard::new(policy);
        g.set_registry(Some(registry()));
        g
    }

    #[test]
    fn valid_attestation_admitted_and_propagated() {
        let mut g = attested_guard();
        let e = signed("10.9.0.0/16", 2, 1, 10);
        let a = g.admit(addr("10.0.0.2"), &[e], secs(0), &[]);
        assert_eq!(a.verdict, GuardVerdict::Accepted);
        assert_eq!(a.entries, vec![e], "attestation must survive admission");
    }

    #[test]
    fn missing_attestation_on_registered_prefix_rejected() {
        let mut g = attested_guard();
        let a = g.admit(
            addr("10.0.0.2"),
            &[entry("10.9.0.0/16", 2), signed("10.8.0.0/16", 3, 1, 5)],
            secs(0),
            &[],
        );
        assert_eq!(a.verdict, GuardVerdict::Sanitized);
        assert_eq!(a.entries.len(), 1, "only the signed entry survives");
        assert_eq!(a.entries[0].prefix, cidr("10.8.0.0/16"));
        assert!(g.drain_incidents().iter().any(|i| matches!(
            i,
            GuardIncident::AttestRejected { reason: AttestFailure::Missing, .. }
        )));
    }

    #[test]
    fn unregistered_finite_prefix_rejected_as_bogus_origination() {
        let mut g = attested_guard();
        let a = g.admit(addr("10.0.0.2"), &[entry("198.18.0.0/24", 1)], secs(0), &[]);
        assert!(a.entries.is_empty());
        assert!(g.drain_incidents().iter().any(|i| matches!(
            i,
            GuardIncident::AttestRejected { reason: AttestFailure::UnknownPrefix, .. }
        )));
    }

    #[test]
    fn wrong_origin_and_spoofed_key_rejected() {
        let mut g = attested_guard();
        // Origin 2 does not own 10.9/16, even with its own valid key.
        let wrong = signed("10.9.0.0/16", 2, 2, 10);
        let a = g.admit(addr("10.0.0.2"), &[wrong], secs(0), &[]);
        assert!(a.entries.is_empty());
        // Claiming origin 1 but signing with a key origin 1 doesn't
        // hold (key spoofing): tag never verifies.
        let spoof_key = MacKey::derive(MASTER, OriginId(99));
        let spoofed = RipEntry::attested(
            cidr("10.9.0.0/16"),
            2,
            Attestation::sign(spoof_key, OriginId(1), cidr("10.9.0.0/16"), 11),
        );
        let a = g.admit(addr("10.0.0.2"), &[spoofed], secs(1), &[]);
        assert!(a.entries.is_empty());
        let incidents = g.drain_incidents();
        assert!(incidents.iter().any(|i| matches!(
            i,
            GuardIncident::AttestRejected { reason: AttestFailure::WrongOrigin, .. }
        )));
        assert!(incidents.iter().any(|i| matches!(
            i,
            GuardIncident::AttestRejected { reason: AttestFailure::BadMac, .. }
        )));
    }

    #[test]
    fn replayed_stale_advert_rejected() {
        let mut policy = GuardPolicy::attested();
        policy.boot_window = Duration::ZERO;
        policy.attest_window = 4;
        let mut g = RouteGuard::new(policy);
        g.set_registry(Some(registry()));
        let n = addr("10.0.0.2");
        // Fresh serial 100 establishes the high-water mark.
        let a = g.admit(n, &[signed("10.9.0.0/16", 2, 1, 100)], secs(0), &[]);
        assert_eq!(a.verdict, GuardVerdict::Accepted);
        // Reordered-but-fresh (within the window) still passes.
        let a = g.admit(n, &[signed("10.9.0.0/16", 2, 1, 97)], secs(1), &[]);
        assert_eq!(a.verdict, GuardVerdict::Accepted);
        // A recorded advert from long ago is stale, even though the
        // signature itself is genuine.
        let a = g.admit(n, &[signed("10.9.0.0/16", 2, 1, 90)], secs(2), &[]);
        assert!(a.entries.is_empty());
        assert!(g.drain_incidents().iter().any(|i| matches!(
            i,
            GuardIncident::AttestRejected { reason: AttestFailure::Stale, .. }
        )));
    }

    #[test]
    fn replay_tracking_is_global_not_per_neighbor() {
        let mut g = attested_guard();
        // Neighbor A delivers the fresh serial...
        g.admit(addr("10.0.0.2"), &[signed("10.9.0.0/16", 2, 1, 500)], secs(0), &[]);
        // ...so neighbor B cannot replay a long-stale one.
        let a = g.admit(addr("10.0.0.3"), &[signed("10.9.0.0/16", 2, 1, 1)], secs(1), &[]);
        assert!(a.entries.is_empty());
    }

    #[test]
    fn infinity_entries_pass_unattested() {
        let mut g = attested_guard();
        // A withdrawal (poisoned reverse) claims no reachability and
        // needs no proof.
        let a = g.admit(
            addr("10.0.0.2"),
            &[entry("10.9.0.0/16", INFINITY_METRIC)],
            secs(0),
            &[],
        );
        assert_eq!(a.verdict, GuardVerdict::Accepted);
        assert_eq!(a.entries.len(), 1);
    }

    #[test]
    fn repeated_failures_quarantine_the_prefix_not_the_neighbor() {
        let mut g = attested_guard(); // attest_strikes 3, holddown 30 s
        let n = addr("10.0.0.2");
        for t in 0..3u64 {
            // The lie (unsigned hijack of 10.9/16) rides along with an
            // honest signed route each time.
            let a = g.admit(
                n,
                &[entry("10.9.0.0/16", 1), signed("10.8.0.0/16", 2, 1, t as u32)],
                secs(t),
                &[],
            );
            assert_eq!(a.entries.len(), 1, "honest route survives at t={t}");
        }
        assert_eq!(g.quarantined_prefixes(secs(3)), 1);
        assert_eq!(g.quarantined_count(secs(3)), 0, "the neighbor itself is not quarantined");
        assert!(g.drain_incidents().iter().any(|i| matches!(
            i,
            GuardIncident::PrefixQuarantined { .. }
        )));
        // While quarantined, even a *valid* attestation for that prefix
        // from this neighbor is suppressed...
        let a = g.admit(n, &[signed("10.9.0.0/16", 2, 1, 10)], secs(10), &[]);
        assert_eq!(a.verdict, GuardVerdict::Damped);
        assert!(a.entries.is_empty());
        // ...and the hold-down expires on schedule (tripped at t=2).
        let a = g.admit(n, &[signed("10.9.0.0/16", 2, 1, 11)], secs(33), &[]);
        assert_eq!(a.verdict, GuardVerdict::Accepted);
        assert_eq!(g.quarantined_prefixes(secs(33)), 0);
    }

    #[test]
    fn attest_rejections_counted_per_entry() {
        let mut g = attested_guard();
        g.admit(
            addr("10.0.0.2"),
            &[entry("10.9.0.0/16", 1), entry("10.8.0.0/16", 1)],
            secs(0),
            &[],
        );
        let v: Vec<_> = g.verdicts().collect();
        assert_eq!(v[0].1.attest_rejected, 2);
        assert_eq!(v[0].1.sanitized, 1, "one message, two rejected entries");
    }

    #[test]
    fn attestation_off_ignores_registry() {
        let mut policy = GuardPolicy::standard();
        policy.attestation = false;
        let mut g = RouteGuard::new(policy);
        g.set_registry(Some(registry()));
        // Unsigned registered prefix: admitted — the 1988 behavior.
        let a = g.admit(addr("10.0.0.2"), &[entry("10.9.0.0/16", 2)], secs(0), &[]);
        assert_eq!(a.verdict, GuardVerdict::Accepted);
    }

    // ---- boot learning window ----

    #[test]
    fn boot_window_tolerates_the_initial_storm() {
        let mut g = RouteGuard::new(GuardPolicy::boot_armed()); // 30 s window
        let n = addr("10.0.0.2");
        // A cold-boot burst far over the rate limit: all admitted, no
        // offenses, no quarantine.
        for i in 0..120 {
            let a = g.admit(n, &[entry("10.9.0.0/16", 2)], secs(i / 20), &[]);
            assert_eq!(a.verdict, GuardVerdict::Accepted, "message {i}");
        }
        // Convergence-transient flips inside the window: never damped.
        for t in 0..6u64 {
            let metric = if t % 2 == 0 { 2 } else { INFINITY_METRIC };
            let a = g.admit(n, &[entry("10.7.0.0/16", metric)], secs(7 + t), &[]);
            assert_eq!(a.verdict, GuardVerdict::Accepted, "flip {t}");
        }
        assert_eq!(g.quarantined_count(secs(29)), 0);
        assert!(g.drain_incidents().is_empty(), "boot storm leaves no incident trail");
    }

    #[test]
    fn enforcement_arms_when_boot_window_ends() {
        let mut g = RouteGuard::new(GuardPolicy::boot_armed());
        let n = addr("10.0.0.2");
        g.admit(n, &[entry("10.9.0.0/16", 2)], secs(0), &[]); // boot starts
        // Past the 30 s window, the rate limit has teeth again.
        for _ in 0..40 {
            let a = g.admit(n, &[entry("10.9.0.0/16", 2)], secs(40), &[]);
            assert_eq!(a.verdict, GuardVerdict::Accepted);
        }
        let a = g.admit(n, &[entry("10.9.0.0/16", 2)], secs(40), &[]);
        assert_eq!(a.verdict, GuardVerdict::Damped);
    }

    #[test]
    fn sanitization_and_attestation_armed_during_boot() {
        let mut g = RouteGuard::new(GuardPolicy::attested()); // 30 s boot window
        g.set_registry(Some(registry()));
        let n = addr("10.0.0.2");
        // Metric-0 black hole in the very first message: still dropped.
        let a = g.admit(n, &[entry("10.9.0.0/16", 0)], secs(0), &[]);
        assert_eq!(a.verdict, GuardVerdict::Sanitized);
        assert!(a.entries.is_empty());
        // Unsigned hijack during boot: still rejected.
        let a = g.admit(n, &[entry("10.9.0.0/16", 1)], secs(1), &[]);
        assert!(a.entries.is_empty());
    }

    #[test]
    fn reset_restarts_the_boot_window() {
        let mut g = RouteGuard::new(GuardPolicy::boot_armed());
        let n = addr("10.0.0.2");
        g.admit(n, &[entry("10.9.0.0/16", 2)], secs(0), &[]);
        // Guard reboots at t=100 (e.g. its gateway crashed): the next
        // storm is a fresh boot, not post-window traffic.
        g.reset();
        for _ in 0..100 {
            let a = g.admit(n, &[entry("10.9.0.0/16", 2)], secs(100), &[]);
            assert_eq!(a.verdict, GuardVerdict::Accepted);
        }
        assert_eq!(g.quarantined_count(secs(100)), 0);
    }

    #[test]
    fn registry_survives_reset() {
        let mut g = attested_guard();
        g.reset();
        assert!(g.registry().is_some(), "the registry is configuration");
        // And enforcement still works post-reset.
        let a = g.admit(addr("10.0.0.2"), &[entry("10.9.0.0/16", 1)], secs(0), &[]);
        assert!(a.entries.is_empty());
    }
}
