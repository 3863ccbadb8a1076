//! Declarative fault injection: the chaos side of the survivability goal.
//!
//! Clark ranks survivability second only to connectivity itself (§3):
//! the internet must keep delivering as long as *any* physical path
//! exists, with failures masked below the transport layer. Testing that
//! claim needs failures on demand — reproducible ones. A [`FaultPlan`]
//! is a deterministic, seed-driven schedule of fault events (link flaps,
//! crash storms, partitions, loss/corruption bursts, blackholes) that a
//! simulation driver executes interleaved with ordinary traffic events.
//!
//! Two properties matter:
//!
//! - **Determinism.** A plan is built once from a forked [`Rng`] stream
//!   and then replayed as plain data; the same seed always yields the
//!   same fault timeline, so every gauntlet run is bit-for-bit
//!   reproducible.
//! - **Declarativeness.** The plan knows nothing about the network it
//!   will torment. Nodes and links are named by plain indices; the
//!   driver (in `catenet-core`) maps them onto real topology and applies
//!   the primitive actions. Any experiment can attach a plan.

use crate::rng::Rng;
use crate::time::{Duration, Instant};

/// How a compromised gateway lies in its routing announcements.
///
/// Clark's fourth goal — distributed management — assumed gateways from
/// different administrations would exchange routing tables in good
/// faith; the 1988 architecture has no defense against a neighbor that
/// lies. These are the classic control-plane attacks a byzantine
/// gateway can mount with nothing but forged announcements. The plan
/// stays topology-ignorant: victim prefixes are raw address bytes, and
/// the compromised node (in `catenet-core`) rewrites each routing page
/// it writes, deterministically, before encoding it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzantineAttack {
    /// Originate `count` bogus prefixes the gateway does not own, at an
    /// attractive metric — route-table pollution that soaks up
    /// forwarding state and attracts traffic for addresses nobody
    /// serves.
    BogusOrigins {
        /// How many fabricated prefixes to append to each announcement.
        count: u8,
    },
    /// Advertise a metric-0 route for a victim prefix — below the
    /// minimum any honest gateway can announce (a connected network is
    /// metric 1) — so every neighbor prefers the liar, then silently
    /// drop the attracted traffic: the classic black hole.
    BlackholeVictim {
        /// Victim network address, big-endian bytes.
        addr: [u8; 4],
        /// Victim prefix length in bits.
        prefix_len: u8,
    },
    /// Replay the first announcement ever sent on each interface
    /// forever after — a stale-table replay that freezes the liar's
    /// contribution to routing while the real topology moves on.
    ReplayStale,
    /// Alternate every announcement between the truth and
    /// all-routes-unreachable — advertisement flapping that makes every
    /// neighbor's table churn on each routing period.
    FlapAdverts,
    /// Rewrite the victim prefix to metric 1 and strip its origin
    /// attestation — a prefix hijack by an authenticated neighbor that
    /// cannot produce the owner's proof. Attestation-verifying guards
    /// reject the unattested claim; plain guards believe it (metric 1
    /// is perfectly legal).
    HijackPrefix {
        /// Victim network address, big-endian bytes.
        addr: [u8; 4],
        /// Victim prefix length in bits.
        prefix_len: u8,
    },
    /// Rewrite the victim prefix to metric 1 while *keeping* the valid
    /// attestation the liar legitimately relays — the designed residual:
    /// origin attestation proves who owns the prefix, not that the
    /// advertised path or metric is honest (BGPsec's unsolved problem).
    HijackAttested {
        /// Victim network address, big-endian bytes.
        addr: [u8; 4],
        /// Victim prefix length in bits.
        prefix_len: u8,
    },
    /// Forge an attestation for the victim prefix under the true
    /// owner's identity but without its key — origin-key spoofing. The
    /// MAC cannot verify, so attestation-armed guards drop the entry.
    SpoofOrigin {
        /// Victim network address, big-endian bytes.
        addr: [u8; 4],
        /// Victim prefix length in bits.
        prefix_len: u8,
    },
}

impl ByzantineAttack {
    /// Short display name for tables and flight-recorder events.
    pub fn name(self) -> &'static str {
        match self {
            ByzantineAttack::BogusOrigins { .. } => "bogus-origins",
            ByzantineAttack::BlackholeVictim { .. } => "blackhole-victim",
            ByzantineAttack::ReplayStale => "replay-stale",
            ByzantineAttack::FlapAdverts => "flap-adverts",
            ByzantineAttack::HijackPrefix { .. } => "hijack-prefix",
            ByzantineAttack::HijackAttested { .. } => "hijack-attested",
            ByzantineAttack::SpoofOrigin { .. } => "spoof-origin",
        }
    }
}

/// One primitive fault the driver knows how to apply.
///
/// Everything a plan can express is compiled down to these. Node and
/// link identifiers are plain indices into the driver's topology.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Force a link administratively up or down (both directions).
    /// Interfaces see the change, so routing reacts — this is a
    /// *visible* failure.
    LinkSet {
        /// Link index in the driver's topology.
        link: usize,
        /// Desired state.
        up: bool,
    },
    /// Crash a node: all volatile state is lost (fate-sharing — the
    /// state dies with the machine it described).
    NodeCrash {
        /// Node index.
        node: usize,
    },
    /// Reboot a previously crashed node.
    NodeRestart {
        /// Node index.
        node: usize,
    },
    /// Partition the network: every link with exactly one endpoint in
    /// `side_a` is cut. At most one partition is active at a time; a new
    /// one heals the old first.
    Partition {
        /// Nodes on one side of the cut.
        side_a: Vec<usize>,
    },
    /// Heal the active partition, restoring exactly the links it cut.
    Heal,
    /// Override a link's loss and/or corruption probability (both
    /// directions). Unlike [`FaultAction::LinkSet`], interfaces stay up
    /// and routing notices nothing — this is a *silent* degradation,
    /// the failure mode end-to-end checks exist for.
    Degrade {
        /// Link index.
        link: usize,
        /// New loss probability, if overridden.
        loss: Option<f64>,
        /// New corruption probability, if overridden.
        corruption: Option<f64>,
    },
    /// Restore a degraded link to its baseline quality.
    Restore {
        /// Link index.
        link: usize,
    },
    /// Override loss and/or corruption in *one direction only*
    /// (`a_to_b` selects which). The reverse direction stays clean —
    /// the asymmetric failure mode where data drowns but ACKs survive
    /// (or vice versa), which a bidirectional model can never produce.
    DegradeOneWay {
        /// Link index.
        link: usize,
        /// `true` degrades the a→b direction, `false` the b→a one.
        a_to_b: bool,
        /// New loss probability, if overridden.
        loss: Option<f64>,
        /// New corruption probability, if overridden.
        corruption: Option<f64>,
    },
    /// Inflate a link's propagation delay by `extra` and replace its
    /// jitter (both directions). Interfaces stay up and no packet is
    /// lost — but when `jitter` exceeds the spacing between back-to-back
    /// frames, they arrive *reordered*: the silent failure mode that
    /// sequence numbers exist to absorb.
    DelaySpike {
        /// Link index.
        link: usize,
        /// Added one-way propagation delay.
        extra: Duration,
        /// Replacement jitter (reordering pressure).
        jitter: Duration,
    },
    /// Restore a delay-spiked link to its baseline timing.
    RestoreDelay {
        /// Link index.
        link: usize,
    },
    /// Compromise a node: from now on the driver corrupts its outgoing
    /// routing announcements according to `attack`. The node otherwise
    /// runs normally — it forwards, answers ARP, keeps its own table —
    /// which is exactly what makes a lying gateway harder to spot than
    /// a dead one.
    Compromise {
        /// Node index.
        node: usize,
        /// The lie it tells.
        attack: ByzantineAttack,
    },
    /// Rehabilitate a compromised node: its announcements are honest
    /// again (the heal of the byzantine fault).
    Rehabilitate {
        /// Node index.
        node: usize,
    },
}

/// A fault action bound to a point in virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the action fires.
    pub at: Instant,
    /// What happens.
    pub action: FaultAction,
}

/// A deterministic schedule of fault events.
///
/// Events are kept sorted by time; equal times preserve insertion order,
/// so a plan built the same way fires the same way. The driver consumes
/// the plan with [`FaultPlan::next_at`] / [`FaultPlan::pop_due`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    cursor: usize,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedule one primitive action. Maintains time order; ties keep
    /// insertion order (so the builder's own sequencing is the
    /// tie-break, deterministically).
    pub fn push(&mut self, at: Instant, action: FaultAction) {
        let pos = self.events.partition_point(|e| e.at <= at);
        self.events.insert(pos, FaultEvent { at, action });
        // Never insert into the already-consumed prefix.
        debug_assert!(pos >= self.cursor, "fault scheduled in the past");
    }

    /// Total number of events (consumed and pending).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan has no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events not yet consumed.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.cursor
    }

    /// The scheduled events, in firing order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Time of the next unconsumed event.
    pub fn next_at(&self) -> Option<Instant> {
        self.events.get(self.cursor).map(|e| e.at)
    }

    /// Consume and return the next event if it is due at or before
    /// `now`.
    pub fn pop_due(&mut self, now: Instant) -> Option<FaultEvent> {
        let event = self.events.get(self.cursor)?;
        if event.at > now {
            return None;
        }
        self.cursor += 1;
        Some(event.clone())
    }

    // ----------------------------------------------------- builders

    /// A link that flaps: up-periods and down-periods drawn from
    /// exponential distributions with the given means, over
    /// `[start, end)`. The link is guaranteed up again by `end`.
    pub fn link_flap(
        &mut self,
        link: usize,
        start: Instant,
        end: Instant,
        mean_up: Duration,
        mean_down: Duration,
        rng: &mut Rng,
    ) {
        let mut t = start;
        let mut up = true;
        loop {
            let mean = if up { mean_up } else { mean_down };
            let hold = rng.exponential(mean.total_micros().max(1) as f64);
            t += Duration::from_micros((hold as u64).max(1_000));
            if t >= end {
                break;
            }
            up = !up;
            self.push(t, FaultAction::LinkSet { link, up });
        }
        if !up {
            self.push(end, FaultAction::LinkSet { link, up: true });
        }
    }

    /// A crash storm: `crashes` crash-then-restart pairs, each hitting a
    /// node drawn from `nodes` at a time drawn uniformly from
    /// `[start, end)`, rebooting after a delay drawn uniformly from
    /// `restart_after`. The driver ignores a crash aimed at an
    /// already-dead node (and a restart aimed at a live one), so
    /// overlapping strikes are harmless.
    pub fn crash_storm(
        &mut self,
        nodes: &[usize],
        start: Instant,
        end: Instant,
        crashes: usize,
        restart_after: (Duration, Duration),
        rng: &mut Rng,
    ) {
        assert!(!nodes.is_empty(), "crash storm needs victims");
        let span = end.duration_since(start).total_micros().max(1);
        let (lo, hi) = restart_after;
        for _ in 0..crashes {
            let node = nodes[rng.below(nodes.len() as u64) as usize];
            let at = start + Duration::from_micros(rng.below(span));
            let delay = if hi > lo {
                Duration::from_micros(rng.range(lo.total_micros(), hi.total_micros()))
            } else {
                lo
            };
            self.push(at, FaultAction::NodeCrash { node });
            self.push(at + delay, FaultAction::NodeRestart { node });
        }
    }

    /// Partition `side_a` from the rest of the network at `at`, healing
    /// after `heal_after`.
    pub fn partition(&mut self, side_a: Vec<usize>, at: Instant, heal_after: Duration) {
        let heal_at = at + heal_after;
        self.push(at, FaultAction::Partition { side_a });
        self.push(heal_at, FaultAction::Heal);
    }

    /// A loss burst: the link silently drops packets with probability
    /// `loss` during `[at, at + duration)`. Routing sees nothing.
    pub fn loss_burst(&mut self, link: usize, at: Instant, duration: Duration, loss: f64) {
        self.push(
            at,
            FaultAction::Degrade {
                link,
                loss: Some(loss),
                corruption: None,
            },
        );
        self.push(at + duration, FaultAction::Restore { link });
    }

    /// A corruption burst: the link flips bits with probability
    /// `corruption` during `[at, at + duration)`. Only end-to-end
    /// checksums stand between this and the application.
    pub fn corruption_burst(
        &mut self,
        link: usize,
        at: Instant,
        duration: Duration,
        corruption: f64,
    ) {
        self.push(
            at,
            FaultAction::Degrade {
                link,
                loss: None,
                corruption: Some(corruption),
            },
        );
        self.push(at + duration, FaultAction::Restore { link });
    }

    /// A blackhole window: the link silently eats *everything* for
    /// `duration` — the classic failed-gateway-that-still-answers-ARP.
    /// Distinct from [`FaultPlan::link_flap`]: interfaces stay up, so
    /// routing keeps trusting the path.
    pub fn blackhole(&mut self, link: usize, at: Instant, duration: Duration) {
        self.loss_burst(link, at, duration, 1.0);
    }

    /// An asymmetric loss burst: one direction of the link drops with
    /// probability `loss` during `[at, at + duration)` while the reverse
    /// direction stays clean. `a_to_b` selects the lossy direction.
    pub fn one_way_loss_burst(
        &mut self,
        link: usize,
        a_to_b: bool,
        at: Instant,
        duration: Duration,
        loss: f64,
    ) {
        self.push(
            at,
            FaultAction::DegradeOneWay {
                link,
                a_to_b,
                loss: Some(loss),
                corruption: None,
            },
        );
        self.push(at + duration, FaultAction::Restore { link });
    }

    /// A delay spike: the link's one-way latency grows by `extra` with
    /// jitter `jitter` during `[at, at + duration)`, then snaps back.
    /// Nothing is dropped; the damage is reordering and RTT inflation.
    pub fn delay_spike(
        &mut self,
        link: usize,
        at: Instant,
        duration: Duration,
        extra: Duration,
        jitter: Duration,
    ) {
        self.push(at, FaultAction::DelaySpike { link, extra, jitter });
        self.push(at + duration, FaultAction::RestoreDelay { link });
    }

    /// Compromise `node` at `at` with no scheduled rehabilitation — the
    /// gateway lies for the rest of the run.
    pub fn compromise(&mut self, node: usize, attack: ByzantineAttack, at: Instant) {
        self.push(at, FaultAction::Compromise { node, attack });
    }

    /// Compromise `node` for a bounded window `[at, at + duration)`,
    /// then rehabilitate it — the disruption-then-heal shape every
    /// reconvergence measurement needs.
    pub fn compromise_window(
        &mut self,
        node: usize,
        attack: ByzantineAttack,
        at: Instant,
        duration: Duration,
    ) {
        self.push(at, FaultAction::Compromise { node, attack });
        self.push(at + duration, FaultAction::Rehabilitate { node });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> Instant {
        Instant::from_secs(s)
    }

    #[test]
    fn events_stay_sorted_with_stable_ties() {
        let mut plan = FaultPlan::new();
        plan.push(secs(5), FaultAction::LinkSet { link: 0, up: false });
        plan.push(secs(1), FaultAction::NodeCrash { node: 2 });
        plan.push(secs(5), FaultAction::LinkSet { link: 1, up: false });
        plan.push(secs(3), FaultAction::Heal);
        let times: Vec<u64> = plan.events().iter().map(|e| e.at.total_micros()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        // The two t=5 events keep insertion order: link 0 before link 1.
        assert_eq!(
            plan.events()[2].action,
            FaultAction::LinkSet { link: 0, up: false }
        );
        assert_eq!(
            plan.events()[3].action,
            FaultAction::LinkSet { link: 1, up: false }
        );
    }

    #[test]
    fn pop_due_consumes_in_order_and_respects_now() {
        let mut plan = FaultPlan::new();
        plan.push(secs(2), FaultAction::Heal);
        plan.push(secs(1), FaultAction::NodeCrash { node: 0 });
        assert_eq!(plan.next_at(), Some(secs(1)));
        assert!(plan.pop_due(Instant::ZERO).is_none());
        let first = plan.pop_due(secs(1)).expect("due");
        assert_eq!(first.action, FaultAction::NodeCrash { node: 0 });
        assert_eq!(plan.remaining(), 1);
        assert!(plan.pop_due(secs(1)).is_none(), "heal not due yet");
        assert!(plan.pop_due(secs(10)).is_some());
        assert_eq!(plan.remaining(), 0);
        assert_eq!(plan.next_at(), None);
    }

    #[test]
    fn link_flap_is_deterministic_and_ends_up() {
        let build = |seed: u64| {
            let mut rng = Rng::from_seed(seed);
            let mut plan = FaultPlan::new();
            plan.link_flap(
                3,
                secs(1),
                secs(60),
                Duration::from_secs(5),
                Duration::from_secs(2),
                &mut rng,
            );
            plan
        };
        let a = build(42);
        let b = build(42);
        assert_eq!(a, b, "same seed, same flap schedule");
        assert_ne!(a, build(43), "different seed, different schedule");
        // The waveform alternates down/up and leaves the link up.
        let mut expect_up = false;
        for event in a.events() {
            match event.action {
                FaultAction::LinkSet { link: 3, up } => {
                    assert_eq!(up, expect_up, "waveform must alternate");
                    expect_up = !expect_up;
                }
                ref other => panic!("unexpected action {other:?}"),
            }
        }
        match a.events().last() {
            Some(FaultEvent {
                action: FaultAction::LinkSet { up: true, .. },
                at,
            }) => assert!(*at <= secs(60)),
            other => panic!("flap must end with the link up, got {other:?}"),
        }
    }

    #[test]
    fn crash_storm_pairs_each_crash_with_a_later_restart() {
        let mut rng = Rng::from_seed(7);
        let mut plan = FaultPlan::new();
        plan.crash_storm(
            &[1, 2, 3],
            secs(10),
            secs(50),
            6,
            (Duration::from_secs(1), Duration::from_secs(4)),
            &mut rng,
        );
        let crashes: Vec<_> = plan
            .events()
            .iter()
            .filter(|e| matches!(e.action, FaultAction::NodeCrash { .. }))
            .collect();
        let restarts: Vec<_> = plan
            .events()
            .iter()
            .filter(|e| matches!(e.action, FaultAction::NodeRestart { .. }))
            .collect();
        assert_eq!(crashes.len(), 6);
        assert_eq!(restarts.len(), 6);
        for c in &crashes {
            assert!(c.at >= secs(10) && c.at < secs(50));
            if let FaultAction::NodeCrash { node } = c.action {
                assert!([1, 2, 3].contains(&node));
            }
        }
    }

    #[test]
    fn bursts_pair_degrade_with_restore() {
        let mut plan = FaultPlan::new();
        plan.loss_burst(0, secs(5), Duration::from_secs(10), 0.5);
        plan.corruption_burst(1, secs(7), Duration::from_secs(3), 0.2);
        plan.blackhole(2, secs(20), Duration::from_secs(5));
        let degrades = plan
            .events()
            .iter()
            .filter(|e| matches!(e.action, FaultAction::Degrade { .. }))
            .count();
        let restores = plan
            .events()
            .iter()
            .filter(|e| matches!(e.action, FaultAction::Restore { .. }))
            .count();
        assert_eq!(degrades, 3);
        assert_eq!(restores, 3);
        // Blackhole is total loss.
        assert!(plan.events().iter().any(|e| matches!(
            e.action,
            FaultAction::Degrade {
                link: 2,
                loss: Some(l),
                ..
            } if l == 1.0
        )));
    }

    #[test]
    fn one_way_burst_names_a_direction_and_restores() {
        let mut plan = FaultPlan::new();
        plan.one_way_loss_burst(4, true, secs(2), Duration::from_secs(6), 0.5);
        assert_eq!(plan.len(), 2);
        assert_eq!(
            plan.events()[0].action,
            FaultAction::DegradeOneWay {
                link: 4,
                a_to_b: true,
                loss: Some(0.5),
                corruption: None,
            }
        );
        assert_eq!(plan.events()[1].at, secs(8));
        assert_eq!(plan.events()[1].action, FaultAction::Restore { link: 4 });
    }

    #[test]
    fn delay_spike_pairs_with_restore_delay() {
        let mut plan = FaultPlan::new();
        plan.delay_spike(
            1,
            secs(10),
            Duration::from_secs(4),
            Duration::from_millis(150),
            Duration::from_millis(80),
        );
        assert_eq!(plan.len(), 2);
        assert_eq!(
            plan.events()[0].action,
            FaultAction::DelaySpike {
                link: 1,
                extra: Duration::from_millis(150),
                jitter: Duration::from_millis(80),
            }
        );
        assert_eq!(plan.events()[1].at, secs(14));
        assert_eq!(plan.events()[1].action, FaultAction::RestoreDelay { link: 1 });
    }

    #[test]
    fn partition_heals_after_window() {
        let mut plan = FaultPlan::new();
        plan.partition(vec![0, 1], secs(3), Duration::from_secs(9));
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.events()[0].at, secs(3));
        assert!(matches!(plan.events()[0].action, FaultAction::Partition { .. }));
        assert_eq!(plan.events()[1].at, secs(12));
        assert_eq!(plan.events()[1].action, FaultAction::Heal);
    }

    #[test]
    fn compromise_window_pairs_with_rehabilitate() {
        let mut plan = FaultPlan::new();
        let attack = ByzantineAttack::BlackholeVictim {
            addr: [10, 0, 7, 0],
            prefix_len: 24,
        };
        plan.compromise_window(3, attack, secs(5), Duration::from_secs(40));
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.events()[0].at, secs(5));
        assert_eq!(plan.events()[0].action, FaultAction::Compromise { node: 3, attack });
        assert_eq!(plan.events()[1].at, secs(45));
        assert_eq!(plan.events()[1].action, FaultAction::Rehabilitate { node: 3 });
    }

    #[test]
    fn open_ended_compromise_never_heals() {
        let mut plan = FaultPlan::new();
        plan.compromise(1, ByzantineAttack::FlapAdverts, secs(2));
        assert_eq!(plan.len(), 1);
        assert!(!plan
            .events()
            .iter()
            .any(|e| matches!(e.action, FaultAction::Rehabilitate { .. })));
    }

    #[test]
    fn attack_names_are_distinct() {
        let names = [
            ByzantineAttack::BogusOrigins { count: 4 }.name(),
            ByzantineAttack::BlackholeVictim { addr: [0; 4], prefix_len: 0 }.name(),
            ByzantineAttack::ReplayStale.name(),
            ByzantineAttack::FlapAdverts.name(),
        ];
        let mut unique = names.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    #[should_panic(expected = "crash storm needs victims")]
    fn empty_crash_storm_refused() {
        let mut rng = Rng::from_seed(1);
        let mut plan = FaultPlan::new();
        plan.crash_storm(
            &[],
            secs(0),
            secs(10),
            1,
            (Duration::ZERO, Duration::ZERO),
            &mut rng,
        );
    }
}
