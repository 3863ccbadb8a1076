//! E14 — Pricing the route guard and origin attestation: byzantine
//! blast radius across three defense arms (paper §4's "the network is
//! assumed hostile" taken at its word for the *control* plane).
//!
//! Clark's gateways believe whatever their neighbors advertise — the
//! 1988 design has no admission control on routing state, and the paper
//! itself lists "resistance to malicious attack" among the goals the
//! architecture under-served. This experiment measures what that trust
//! costs and what each layer of defense buys back:
//!
//! - **off** — the trusting 1988 reference.
//! - **guard** — [`GuardPolicy::boot_armed`]: per-entry sanitization,
//!   rate limiting, flap damping, radius clamp. Armed from **t = 0**
//!   (cold boot): a boot learning window absorbs the honest triggered-
//!   update storm of initial convergence, closing the provisioning gap
//!   earlier revisions of this experiment recorded as an open item.
//! - **guard+attest** — [`GuardPolicy::attested`] plus a distributed
//!   [`catenet_routing::OriginRegistry`]: every finite announcement for
//!   a registered prefix must carry a valid, fresh MAC from the
//!   prefix's owner.
//!
//! Three attacks price the arms:
//!
//! - **blackhole** ([`ByzantineAttack::BlackholeVictim`]) — metric 0
//!   for the victim LAN; wire-illegal, so plain sanitization kills it.
//! - **hijack** ([`ByzantineAttack::HijackPrefix`]) — metric *1* with
//!   the owner's attestation stripped; wire-legal, walks straight past
//!   the plain guard, dies at attestation verification.
//! - **hijack-attested** ([`ByzantineAttack::HijackAttested`]) — metric
//!   1 while relaying the genuine attestation the liar legitimately
//!   holds. The MAC verifies; the lie survives even the attested arm.
//!   This is the designed residual: origin attestation proves prefix
//!   *ownership*, not path or metric honesty (BGPsec's open problem).
//!
//! The **blast radius** is the fraction of ordered host pairs whose
//! forwarding path fails while the lie is live: eaten at the liar, no
//! route, or caught in a loop. The walk is a deterministic
//! forwarding-table traversal, not a ping sweep, so the number is exact
//! and byte-identical across runs. After a fixed window the node is
//! rehabilitated and the convergence tracer times the recovery. The
//! cold-boot convergence time is reported per arm — the price of
//! admission control measured where it is paid.
//!
//! Topologies: gateway rings (a host on every gateway, the liar
//! diametrically opposite the victim) and a 10×10 **wrapped** mesh — a
//! torus, because an unwrapped 10×10 grid has diameter 18 and RIP's
//! 15-hop horizon would censor the far corners even with everyone
//! honest. Guard policies are provisioned to the topology: radius from
//! the real diameter, rate limit and boot window scaled up on the torus
//! where a full table paginates into many more messages per round.

use catenet_core::{Network, NodeId};
use catenet_routing::{DvConfig, GuardPolicy};
use catenet_sim::{ByzantineAttack, Duration, FaultPlan, LinkClass};
use catenet_telemetry::Reconvergence;

use crate::table::Table;

/// Ring sizes exercised (odd, so "opposite" is unambiguous enough).
pub const RING_SIZES: [usize; 2] = [5, 7];
/// Wrapped-mesh side length.
pub const MESH_SIDE: usize = 10;
/// How long the compromise lasts before rehabilitation.
const COMPROMISE_WINDOW: Duration = Duration::from_secs(40);
/// When, after convergence, the compromise begins.
const LEAD_IN: Duration = Duration::from_secs(5);
/// Post-rehabilitation observation window (settle + quiescence proof).
const RECOVERY_WINDOW: Duration = Duration::from_secs(60);
/// Forwarding-walk hop budget; exceeding it counts as a loop.
const WALK_HOP_LIMIT: usize = 64;

/// One topology under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// A gateway ring with a host on every gateway.
    Ring(usize),
    /// A wrapped (toroidal) mesh of `MESH_SIDE`² gateways with hosts at
    /// six spread-out gateways, the liar's included.
    WrappedMesh,
}

impl Topology {
    /// All topologies in table order.
    pub fn all() -> Vec<Topology> {
        let mut tops: Vec<Topology> = RING_SIZES.iter().map(|&n| Topology::Ring(n)).collect();
        tops.push(Topology::WrappedMesh);
        tops
    }

    /// Display name.
    pub fn name(&self) -> String {
        match self {
            Topology::Ring(n) => format!("ring-{n}"),
            Topology::WrappedMesh => format!("mesh-{MESH_SIDE}x{MESH_SIDE}-wrapped"),
        }
    }

    /// A radius bound for the guard: the largest metric an honest
    /// advertisement can carry here, plus one hop of slack.
    fn radius(&self) -> u8 {
        match self {
            // Farthest gateway is n/2 hops; its LAN costs one more.
            Topology::Ring(n) => (n / 2 + 2) as u8,
            // Torus eccentricity is side/2 + side/2 = 10; LAN +1.
            Topology::WrappedMesh => (MESH_SIDE + 2) as u8,
        }
    }
}

/// The defense arm a run prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// No admission control — the trusting 1988 reference.
    Off,
    /// Cold-boot-armed route guard, no attestation.
    Guard,
    /// Cold-boot-armed route guard verifying origin attestations.
    GuardAttest,
}

impl Arm {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Arm::Off => "off",
            Arm::Guard => "guard",
            Arm::GuardAttest => "guard+attest",
        }
    }
}

/// The lie a run prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attack {
    /// Metric 0 for the victim LAN — wire-illegal.
    Blackhole,
    /// Metric 1 with the owner's attestation stripped — wire-legal.
    Hijack,
    /// Metric 1 relaying the genuine attestation — verifies everywhere.
    HijackAttested,
}

impl Attack {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Attack::Blackhole => "blackhole",
            Attack::Hijack => "hijack",
            Attack::HijackAttested => "hijack-attested",
        }
    }

    fn byzantine(&self, lan: catenet_wire::Ipv4Cidr) -> ByzantineAttack {
        let (addr, prefix_len) = (lan.address().0, lan.prefix_len());
        match self {
            Attack::Blackhole => ByzantineAttack::BlackholeVictim { addr, prefix_len },
            Attack::Hijack => ByzantineAttack::HijackPrefix { addr, prefix_len },
            Attack::HijackAttested => ByzantineAttack::HijackAttested { addr, prefix_len },
        }
    }
}

/// The guard policy for one topology × arm: the base preset with the
/// radius, rate limit and boot window provisioned to topology scale.
/// On the torus a full table paginates into ~9 messages per round (206
/// prefixes, 25 attested entries per page), so the ring-sized rate
/// limit would brand honest periodic traffic an attack; and 100
/// gateways take longer to converge than 5, so the boot learning
/// window is longer too.
fn policy_for(topology: Topology, arm: Arm) -> Option<GuardPolicy> {
    let base = match arm {
        Arm::Off => return None,
        Arm::Guard => GuardPolicy::boot_armed(),
        Arm::GuardAttest => GuardPolicy::attested(),
    };
    let (rate_limit, boot_window) = match topology {
        Topology::Ring(_) => (40, Duration::from_secs(30)),
        Topology::WrappedMesh => (80, Duration::from_secs(60)),
    };
    Some(GuardPolicy {
        topology_radius: Some(topology.radius()),
        rate_limit,
        boot_window,
        ..base
    })
}

/// How one ordered host pair fared in the forwarding walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PairOutcome {
    Delivered,
    /// Eaten by the compromised node's black-hole forwarding plane.
    Eaten,
    NoRoute,
    Loop,
}

/// Measurements from one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Blast {
    /// Ordered host pairs whose walk failed while the lie was live.
    pub failed_pairs: usize,
    /// Total ordered host pairs.
    pub total_pairs: usize,
    /// Hosts in the topology (`total_pairs == hosts * (hosts - 1)`).
    pub hosts: usize,
    /// How long the cold boot took to converge — guards armed from
    /// t = 0, so this prices admission control where it is paid.
    pub cold_boot: Duration,
    /// The convergence tracer's recovery measurements (one expected:
    /// compromise opens the window, rehabilitation heals it).
    pub reconvergences: Vec<Reconvergence>,
    /// Guard verdicts other than plain acceptance, network-wide
    /// (zero when guards are off — nothing is ever even counted).
    pub guard_interventions: u64,
    /// Entries rejected by attestation verification, network-wide
    /// (zero unless the arm verifies).
    pub attest_rejections: u64,
}

impl Blast {
    /// Failed fraction as a percentage string.
    pub fn fraction(&self) -> String {
        format!(
            "{:.1}%",
            100.0 * self.failed_pairs as f64 / self.total_pairs.max(1) as f64
        )
    }
}

struct Built {
    net: Network,
    hosts: Vec<NodeId>,
    liar: NodeId,
    victim_gateway_link: usize,
}

/// Build one topology. `attested` distributes the origin-attestation
/// trust anchor **before** the first link is connected, so even the
/// build-time triggered announcements go out signed.
fn build(topology: Topology, seed: u64, attested: bool) -> Built {
    match topology {
        Topology::Ring(n) => {
            let mut net = Network::new(seed);
            let gs: Vec<NodeId> = (0..n).map(|i| net.add_gateway(format!("g{i}"))).collect();
            for &g in &gs {
                net.node_mut(g).set_dv_config(DvConfig::fast());
            }
            if attested {
                net.enable_attestation();
            }
            for i in 0..n {
                net.connect(gs[i], gs[(i + 1) % n], LinkClass::T1Terrestrial);
            }
            let mut hosts = Vec::new();
            let mut victim_gateway_link = 0;
            let victim_gw = n / 2;
            for (i, &g) in gs.iter().enumerate() {
                let h = net.add_host(format!("h{i}"));
                let link = net.connect(g, h, LinkClass::EthernetLan);
                if i == victim_gw {
                    victim_gateway_link = link;
                }
                hosts.push(h);
            }
            Built {
                net,
                liar: gs[0],
                hosts,
                victim_gateway_link,
            }
        }
        Topology::WrappedMesh => {
            let side = MESH_SIDE;
            let mut net = Network::new(seed);
            let gs: Vec<NodeId> = (0..side * side)
                .map(|i| net.add_gateway(format!("g{}-{}", i / side, i % side)))
                .collect();
            for &g in &gs {
                net.node_mut(g).set_dv_config(DvConfig::fast());
            }
            if attested {
                net.enable_attestation();
            }
            let at = |r: usize, c: usize| gs[r * side + c];
            for r in 0..side {
                for c in 0..side {
                    net.connect(at(r, c), at(r, (c + 1) % side), LinkClass::T1Terrestrial);
                    net.connect(at(r, c), at((r + 1) % side, c), LinkClass::T1Terrestrial);
                }
            }
            // Victim at one corner, liar antipodal on the torus, other
            // hosts placed so honest and lying distances *differ* —
            // (3,7) and (7,3) sit strictly closer to the liar, (0,5)
            // and (5,0) strictly closer to the victim. (Equidistant
            // placements would leave a metric-1 hijack unable to
            // capture anyone beyond the liar's own host, and the arms
            // would price identically by accident of geometry.)
            let placements = [(0usize, 0usize), (5, 5), (3, 7), (7, 3), (0, 5), (5, 0)];
            let mut hosts = Vec::new();
            let mut victim_gateway_link = 0;
            for (i, &(r, c)) in placements.iter().enumerate() {
                let h = net.add_host(format!("h{r}-{c}"));
                let link = net.connect(at(r, c), h, LinkClass::EthernetLan);
                if i == 0 {
                    victim_gateway_link = link;
                }
                hosts.push(h);
            }
            Built {
                net,
                liar: at(5, 5),
                hosts,
                victim_gateway_link,
            }
        }
    }
}

/// Deterministic forwarding walk for one ordered pair: follow each
/// node's current table from `src` toward `dst`'s address.
fn walk(net: &Network, src: NodeId, dst_host: NodeId) -> PairOutcome {
    let dst = net.node(dst_host).primary_addr();
    let mut cur = src;
    for _ in 0..WALK_HOP_LIMIT {
        let node = net.node(cur);
        if node.owns_addr(dst) {
            return PairOutcome::Delivered;
        }
        if node.eats(dst) {
            return PairOutcome::Eaten;
        }
        let Some((_iface, via)) = node.route(dst) else {
            return PairOutcome::NoRoute;
        };
        // The next hop (or the destination itself, when `via == dst` on
        // the final LAN) is whichever node owns the next-hop address.
        let Some(next) = (0..net.node_count()).find(|&id| net.node(id).owns_addr(via)) else {
            return PairOutcome::NoRoute;
        };
        cur = next;
    }
    PairOutcome::Loop
}

/// Run one topology × arm × attack × seed; returns the measurements.
pub fn run(topology: Topology, arm: Arm, attack: Attack, seed: u64) -> Blast {
    let Built {
        mut net,
        hosts,
        liar,
        victim_gateway_link,
    } = build(topology, seed, arm == Arm::GuardAttest);
    // Defenses are configuration, so they are armed *before* the first
    // advertisement ever flows — a cold boot, not a retrofit onto a
    // converged network. The boot learning window inside the policy is
    // what makes this survivable; nothing here waits for convergence.
    if let Some(policy) = policy_for(topology, arm) {
        net.set_guard_policy(policy);
    }
    let cold_boot = net.converge_routing(Duration::from_secs(120));

    // The lie targets the victim host's LAN — the auto-assigned subnet
    // of the victim's access link.
    let lan = net.link_subnet(victim_gateway_link);
    let start = net.now();
    let mut plan = FaultPlan::new();
    plan.compromise_window(
        liar,
        attack.byzantine(lan),
        start + LEAD_IN,
        COMPROMISE_WINDOW,
    );
    net.attach_fault_plan(plan);

    // Mid-window: the lie (or its rejection) has settled — fast-config
    // triggered updates cross any of these topologies in a few seconds.
    net.run_for(LEAD_IN + COMPROMISE_WINDOW / 2);
    let mut failed_pairs = 0;
    let mut total_pairs = 0;
    for &src in &hosts {
        for &dst in &hosts {
            if src == dst {
                continue;
            }
            total_pairs += 1;
            if walk(&net, src, dst) != PairOutcome::Delivered {
                failed_pairs += 1;
            }
        }
    }

    // Through rehabilitation and the recovery window.
    net.run_for(COMPROMISE_WINDOW / 2 + RECOVERY_WINDOW);
    let reconvergences = net.telemetry().convergence.reconvergences(net.now());
    let registry = &net.telemetry().registry;
    let attest_rejections = registry.total("guard_attest_rejected");
    let guard_interventions = registry.total("guard_sanitized")
        + registry.total("guard_damped")
        + registry.total("guard_quarantined");
    Blast {
        failed_pairs,
        total_pairs,
        hosts: hosts.len(),
        cold_boot,
        reconvergences,
        guard_interventions,
        attest_rejections,
    }
}

/// The combinations the table prices. Blackhole runs under every arm
/// (the original E14 matrix, now cold-boot-armed); the wire-legal
/// hijack is priced guard vs guard+attest — against `off` it is simply
/// the blackhole row with a one-hop-worse lie; and the attested hijack
/// only means anything under the arm it is designed to survive.
pub fn combos() -> Vec<(Attack, Arm)> {
    vec![
        (Attack::Blackhole, Arm::Off),
        (Attack::Blackhole, Arm::Guard),
        (Attack::Blackhole, Arm::GuardAttest),
        (Attack::Hijack, Arm::Guard),
        (Attack::Hijack, Arm::GuardAttest),
        (Attack::HijackAttested, Arm::GuardAttest),
    ]
}

/// Run the full matrix over the seed set and render the table.
pub fn default_table(seeds: &[u64]) -> Table {
    let mut table = Table::new(
        format!(
            "E14 — Pricing admission control and origin attestation: one \
             compromised gateway lies about a victim LAN over a \
             {COMPROMISE_WINDOW} window; blast radius = ordered host pairs \
             whose forwarding walk fails mid-window. Guards are armed from \
             cold boot (t=0) in every defended arm"
        ),
        &[
            "topology",
            "hosts",
            "attack",
            "arm",
            "failed pairs",
            "blast radius",
            "interventions",
            "attest rejections",
            "cold boot (s)",
            "median recovery (s)",
            "settled",
        ],
    );
    for topology in Topology::all() {
        for (attack, arm) in combos() {
            let mut failed = 0;
            let mut total = 0;
            let mut interventions = 0;
            let mut rejections = 0;
            let mut recs: Vec<Reconvergence> = Vec::new();
            let mut hosts = 0;
            let mut boots: Vec<u64> = Vec::new();
            for &seed in seeds {
                let blast = run(topology, arm, attack, seed);
                failed += blast.failed_pairs;
                total += blast.total_pairs;
                interventions += blast.guard_interventions;
                rejections += blast.attest_rejections;
                hosts = blast.hosts;
                boots.push(blast.cold_boot.total_micros());
                recs.extend(blast.reconvergences);
            }
            boots.sort_unstable();
            let boot_median = format!("{:.1}", boots[boots.len() / 2] as f64 / 1e6);
            let mut tooks: Vec<u64> = recs.iter().map(|r| r.took.total_micros()).collect();
            tooks.sort_unstable();
            let median = tooks
                .get(tooks.len() / 2)
                .map(|&us| format!("{:.1}", us as f64 / 1e6))
                .unwrap_or_else(|| "—".into());
            let settled = recs.iter().filter(|r| r.settled).count();
            table.row(vec![
                topology.name(),
                format!("{hosts}"),
                attack.name().into(),
                arm.name().into(),
                format!("{failed}/{total}"),
                format!("{:.1}%", 100.0 * failed as f64 / total.max(1) as f64),
                format!("{interventions}"),
                format!("{rejections}"),
                boot_median,
                median,
                format!("{settled}/{}", recs.len()),
            ]);
        }
    }
    table.note(
        "Blackhole (metric 0, wire-illegal): off, every source whose \
         lie-distance to the liar undercuts its honest distance to the victim \
         is captured; either guard arm sanitizes the lie at the liar's direct \
         neighbors and only the liar's own host — whose first hop is the \
         compromised forwarding plane itself — still loses traffic. Hijack \
         (metric 1, wire-legal, attestation stripped): the plain guard \
         believes it — sanitization has nothing to object to — and every \
         closer-to-the-liar source is captured; the attested arm rejects the \
         proof-less claim and the blast radius collapses back to the liar's \
         own host. Hijack-attested (metric 1, genuine relayed proof): the MAC \
         verifies, the lie survives the attested arm — the designed residual. \
         Origin attestation proves who owns a prefix, not that the advertised \
         path is honest.",
    );
    table.note(
        "All defended arms are armed from t=0: the boot learning window \
         (rate limiting observed but not enforced, flap damping deferred, \
         sanitization and attestation always live) absorbs the honest \
         triggered-update storm of a cold start, so convergence costs within \
         a second of the unguarded runs and no honest neighbor is ever \
         quarantined. The mesh is wrapped into a torus: an unwrapped 10×10 \
         grid has diameter 18, past RIP's 15-hop horizon, which would censor \
         far-corner pairs even with every gateway honest.",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guards_strictly_shrink_the_blackhole_blast_radius_on_rings() {
        for &n in &RING_SIZES {
            let off = run(Topology::Ring(n), Arm::Off, Attack::Blackhole, 11);
            let on = run(Topology::Ring(n), Arm::Guard, Attack::Blackhole, 11);
            assert!(
                off.failed_pairs > on.failed_pairs,
                "ring-{n}: off {}/{} must strictly exceed guard {}/{}",
                off.failed_pairs,
                off.total_pairs,
                on.failed_pairs,
                on.total_pairs
            );
            assert!(
                on.failed_pairs <= 1,
                "ring-{n}: guards leave at most the liar's own host exposed"
            );
            assert_eq!(off.guard_interventions, 0, "guards off: nothing counted");
            assert!(on.guard_interventions > 0, "guards on: sanitization visible");
        }
    }

    #[test]
    fn attestation_strictly_shrinks_the_hijack_blast_radius_on_rings() {
        // Hand-computed captures: a metric-1 hijack captures every
        // gateway strictly closer to the liar than to the victim.
        // Ring-5 (liar g0, victim g2): g0's and g4's hosts → 2 pairs.
        // Ring-7 (liar g0, victim g3): g0's, g1's and g6's hosts → 3.
        for (&n, expect_guard) in RING_SIZES.iter().zip([2usize, 3]) {
            let guard = run(Topology::Ring(n), Arm::Guard, Attack::Hijack, 11);
            let attested = run(Topology::Ring(n), Arm::GuardAttest, Attack::Hijack, 11);
            assert_eq!(
                guard.failed_pairs, expect_guard,
                "ring-{n}: wire-legal hijack walks past the plain guard"
            );
            assert_eq!(
                attested.failed_pairs, 1,
                "ring-{n}: attestation strands the lie at the liar's own host"
            );
            assert!(attested.failed_pairs < guard.failed_pairs);
            assert_eq!(guard.attest_rejections, 0, "plain guard never verifies");
            assert!(
                attested.attest_rejections > 0,
                "rejections visible in telemetry"
            );
        }
    }

    #[test]
    fn attested_hijack_is_the_designed_residual() {
        // The genuine relayed proof verifies, so the attested arm fares
        // exactly as badly as the plain guard against the bare hijack.
        let residual = run(
            Topology::Ring(5),
            Arm::GuardAttest,
            Attack::HijackAttested,
            11,
        );
        let plain = run(Topology::Ring(5), Arm::Guard, Attack::Hijack, 11);
        assert_eq!(residual.failed_pairs, plain.failed_pairs);
        assert_eq!(
            residual.attest_rejections, 0,
            "nothing to reject: every MAC in the network verifies"
        );
    }

    #[test]
    fn cold_boot_arming_quarantines_no_honest_neighbor() {
        // The regression the boot window exists for: guards armed at
        // t=0 must survive the initial DV storm without branding any
        // honest neighbor an attacker. An honest run (no compromise
        // planned) must deliver every pair with zero quarantines.
        for &n in &RING_SIZES {
            for arm in [Arm::Guard, Arm::GuardAttest] {
                let mut built = build(Topology::Ring(n), 11, arm == Arm::GuardAttest);
                built
                    .net
                    .set_guard_policy(policy_for(Topology::Ring(n), arm).unwrap());
                built.net.converge_routing(Duration::from_secs(120));
                built.net.run_for(Duration::from_secs(30));
                assert_eq!(
                    built.net.telemetry().registry.total("guard_quarantined"),
                    0,
                    "ring-{n} {}: honest cold boot must not quarantine",
                    arm.name()
                );
                assert_eq!(
                    built.net.telemetry().registry.total("guard_attest_rejected"),
                    0,
                    "ring-{n} {}: honest proofs all verify",
                    arm.name()
                );
                for &src in &built.hosts {
                    for &dst in &built.hosts {
                        if src != dst {
                            assert_eq!(walk(&built.net, src, dst), PairOutcome::Delivered);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn recovery_is_measured_and_settles() {
        let off = run(Topology::Ring(5), Arm::Off, Attack::Blackhole, 23);
        assert_eq!(off.reconvergences.len(), 1, "one compromise, one recovery");
        assert!(off.reconvergences[0].settled, "{:?}", off.reconvergences);
    }

    #[test]
    fn blast_measurements_replay_bit_for_bit() {
        let a = run(Topology::Ring(5), Arm::Off, Attack::Blackhole, 37);
        let b = run(Topology::Ring(5), Arm::Off, Attack::Blackhole, 37);
        assert_eq!(a, b);
        let ga = run(Topology::Ring(5), Arm::GuardAttest, Attack::Hijack, 37);
        let gb = run(Topology::Ring(5), Arm::GuardAttest, Attack::Hijack, 37);
        assert_eq!(ga, gb);
    }

    #[test]
    fn walk_hop_limit_brands_loops() {
        // Sanity on the walk itself: a converged honest ring delivers
        // every pair.
        let built = build(Topology::Ring(5), 41, false);
        let mut net = built.net;
        net.converge_routing(Duration::from_secs(120));
        for &src in &built.hosts {
            for &dst in &built.hosts {
                if src != dst {
                    assert_eq!(walk(&net, src, dst), PairOutcome::Delivered);
                }
            }
        }
    }

    /// The torus is the expensive topology; this is the full
    /// strictly-lower assertion on it. ~100 gateways × three runs, so
    /// it is ignored by default and exercised by the E14 reproduction
    /// (and can be run explicitly with `--ignored`).
    #[test]
    #[ignore = "expensive: three full torus runs"]
    fn attestation_strictly_shrinks_the_hijack_blast_radius_on_the_torus() {
        let guard = run(Topology::WrappedMesh, Arm::Guard, Attack::Hijack, 11);
        let attested = run(Topology::WrappedMesh, Arm::GuardAttest, Attack::Hijack, 11);
        // Captures: the liar's own host plus (3,7) and (7,3), which sit
        // strictly closer to the liar at (5,5) than to the victim (0,0).
        assert_eq!(guard.failed_pairs, 3);
        assert_eq!(attested.failed_pairs, 1);
        let honest = run(Topology::WrappedMesh, Arm::GuardAttest, Attack::Blackhole, 11);
        assert!(
            honest.failed_pairs <= 1,
            "cold-boot-armed attested torus: blackhole dies at the neighbors"
        );
    }
}
