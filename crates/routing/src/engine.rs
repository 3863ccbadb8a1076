//! The distance-vector routing engine.
//!
//! Sans-IO: the owner (a gateway in `catenet-core`) feeds received
//! advertisements to [`DvEngine::handle_update`] and periodically asks
//! [`DvEngine::advertisement_for`] what to tell each neighbor. The engine
//! holds only *topology* state — never conversation state — so a gateway
//! that crashes and reboots with an empty table re-learns everything
//! within a few update intervals. Experiment E1 depends on exactly this.

use crate::guard::{GuardPolicy, GuardVerdict, RouteGuard};
use crate::message::{RipEntry, INFINITY_METRIC};
use catenet_auth::{Attestation, Attestor};
use catenet_ip::RoutingTable;
use catenet_sim::{Duration, Instant};
use catenet_wire::{Ipv4Address, Ipv4Cidr};

/// Where a route points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextHop {
    /// The prefix is directly attached via the given interface index.
    Connected {
        /// Local interface index.
        iface: usize,
    },
    /// Reachable via a neighbor gateway.
    Via {
        /// The neighbor's address.
        gateway: Ipv4Address,
        /// Local interface index toward that neighbor.
        iface: usize,
    },
}

impl NextHop {
    /// The local interface this route uses.
    pub fn iface(&self) -> usize {
        match *self {
            NextHop::Connected { iface } => iface,
            NextHop::Via { iface, .. } => iface,
        }
    }

    /// The gateway to forward to, if not directly connected.
    pub fn gateway(&self) -> Option<Ipv4Address> {
        match *self {
            NextHop::Connected { .. } => None,
            NextHop::Via { gateway, .. } => Some(gateway),
        }
    }
}

/// One learned (or connected) route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DvRoute {
    /// Forwarding target.
    pub next_hop: NextHop,
    /// Hop count; [`INFINITY_METRIC`] marks a dead route awaiting GC.
    pub metric: u8,
    /// When the route is declared dead unless refreshed.
    pub expires_at: Instant,
    /// Set on any change; drives triggered updates.
    pub changed: bool,
    /// The origin attestation the route arrived with, stored so
    /// re-advertisements propagate the origin's proof hop by hop
    /// (refreshed on every update from the current next hop, so serials
    /// keep advancing through the fabric).
    pub attestation: Option<Attestation>,
}

/// Export policy toward one class of neighbor — the paper's
/// "distributed management" knob. An administration decides what
/// reachability it reveals across its boundary.
#[derive(Debug, Clone, Default)]
pub enum ExportPolicy {
    /// Advertise everything (interior neighbor, same administration).
    #[default]
    All,
    /// Advertise only routes falling inside these prefixes
    /// (exterior neighbor: reveal our own networks, not our peers').
    Only(Vec<Ipv4Cidr>),
}

impl ExportPolicy {
    fn permits(&self, prefix: &Ipv4Cidr) -> bool {
        match self {
            ExportPolicy::All => true,
            ExportPolicy::Only(allowed) => allowed.iter().any(|a| a.contains_subnet(prefix)),
        }
    }
}

/// Protocol timing and behavior parameters.
#[derive(Debug, Clone)]
pub struct DvConfig {
    /// Interval between periodic full-table advertisements.
    pub update_interval: Duration,
    /// Silence after which a learned route is declared dead.
    pub route_timeout: Duration,
    /// How long a dead route is advertised at infinity before removal.
    pub gc_timeout: Duration,
    /// Whether changes produce immediate (triggered) updates.
    pub triggered_updates: bool,
    /// Split horizon: never advertise a route back where it came from...
    pub split_horizon: bool,
    /// ...and if poisoned reverse is on, advertise it back at infinity
    /// instead of omitting it (faster loop breaking, bigger updates).
    pub poisoned_reverse: bool,
}

impl Default for DvConfig {
    fn default() -> DvConfig {
        DvConfig {
            update_interval: Duration::from_secs(30),
            route_timeout: Duration::from_secs(180),
            gc_timeout: Duration::from_secs(120),
            triggered_updates: true,
            split_horizon: true,
            poisoned_reverse: true,
        }
    }
}

impl DvConfig {
    /// A fast-converging profile for laptop-scale simulations (timers
    /// scaled down ~10×; ratios preserved).
    pub fn fast() -> DvConfig {
        DvConfig {
            update_interval: Duration::from_secs(3),
            route_timeout: Duration::from_secs(18),
            gc_timeout: Duration::from_secs(12),
            ..DvConfig::default()
        }
    }
}

/// The engine: a routing table plus the protocol rules that maintain it.
#[derive(Debug, Clone)]
pub struct DvEngine {
    config: DvConfig,
    table: RoutingTable<DvRoute>,
    next_periodic: Instant,
    /// A lower bound on the earliest `expires_at` in the table: every
    /// write of a deadline lowers it, and [`DvEngine::tick`] — the only
    /// reader of deadlines — leaves it exact. Before this instant
    /// `tick` has nothing to do and returns without scanning.
    next_expiry: Instant,
    /// Set when any route changed; cleared when advertisements are taken.
    trigger_pending: bool,
    /// Messages processed (for the overhead accounting in E4).
    pub updates_received: u64,
    /// Route changes applied.
    pub changes_applied: u64,
    /// Monotone table version: bumped once per mutation that changes
    /// what the table *says* (insert, metric change, poison, drop).
    /// Refreshes that only extend a deadline do not count. Telemetry
    /// samples this to timestamp reconvergence.
    version: u64,
    /// Defensive admission of announcements (off by default — the
    /// trusting 1988 behavior).
    guard: RouteGuard,
    /// Signing identity for this gateway's connected prefixes (None —
    /// the default — emits unattested announcements, byte-identical to
    /// the original wire format).
    attestor: Option<Attestor>,
}

impl DvEngine {
    /// A fresh engine that wants to advertise immediately.
    pub fn new(config: DvConfig) -> DvEngine {
        DvEngine {
            config,
            table: RoutingTable::new(),
            next_periodic: Instant::ZERO,
            next_expiry: Instant::FAR_FUTURE,
            trigger_pending: false,
            updates_received: 0,
            changes_applied: 0,
            version: 0,
            guard: RouteGuard::new(GuardPolicy::off()),
            attestor: None,
        }
    }

    /// The protocol configuration.
    pub fn config(&self) -> &DvConfig {
        &self.config
    }

    /// The route guard (verdict totals, quarantine state).
    pub fn guard(&self) -> &RouteGuard {
        &self.guard
    }

    /// Mutable guard access (the owner drains incidents through this).
    pub fn guard_mut(&mut self) -> &mut RouteGuard {
        &mut self.guard
    }

    /// Install a guard policy. Existing guard history is forgotten;
    /// routes already in the table are untouched (the guard screens
    /// what comes *in*, it does not audit the past).
    pub fn set_guard_policy(&mut self, policy: GuardPolicy) {
        self.guard.set_policy(policy);
    }

    /// Install (or remove) the signing identity for this gateway's
    /// connected prefixes.
    pub fn set_attestor(&mut self, attestor: Option<Attestor>) {
        self.attestor = attestor;
    }

    /// The signing identity, if one is installed.
    pub fn attestor(&self) -> Option<&Attestor> {
        self.attestor.as_ref()
    }

    /// The table's monotone version counter.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Declare a directly connected network on `iface`.
    pub fn add_connected(&mut self, prefix: Ipv4Cidr, iface: usize) {
        self.table.insert(
            prefix,
            DvRoute {
                next_hop: NextHop::Connected { iface },
                metric: 1,
                expires_at: Instant::FAR_FUTURE,
                changed: true,
                // Connected routes are signed live at advertisement
                // time (the attestor stamps the current serial).
                attestation: None,
            },
        );
        self.trigger_pending = true;
        self.version += 1;
    }

    /// Withdraw a connected network (interface went down).
    pub fn remove_connected(&mut self, prefix: &Ipv4Cidr) {
        if let Some(route) = self.table.get_mut(prefix) {
            if matches!(route.next_hop, NextHop::Connected { .. }) {
                route.metric = INFINITY_METRIC;
                route.changed = true;
                // Already expired: the next `tick` drops the route, and
                // `Node::service_dv` ticks before it advertises, so the
                // triggered update never carries this withdrawal and
                // neighbours wait out their route timeout. A known
                // defect, kept because fixing it moves E11/E12 results
                // (ROADMAP.md item 6, "withdrawn connected prefix").
                route.expires_at = Instant::ZERO;
                self.next_expiry = Instant::ZERO;
                self.trigger_pending = true;
                self.version += 1;
            }
        }
    }

    /// An interface went down: every route using it — connected or
    /// learned — is immediately dead (this is what real routers do;
    /// waiting for the timeout would advertise a black hole for most of
    /// a route-timeout period).
    pub fn fail_iface(&mut self, iface: usize, now: Instant) {
        let gc = self.config.gc_timeout;
        let mut changed = false;
        for (_, route) in self.table.iter_mut() {
            if route.next_hop.iface() == iface && route.metric < INFINITY_METRIC {
                route.metric = INFINITY_METRIC;
                route.changed = true;
                route.expires_at = now + gc;
                changed = true;
            }
        }
        if changed {
            self.next_expiry = self.next_expiry.min(now + gc);
            self.trigger_pending = true;
            self.version += 1;
        }
    }

    /// Look up the forwarding entry for `addr`. Dead routes don't forward.
    pub fn lookup(&self, addr: Ipv4Address) -> Option<&DvRoute> {
        self.table
            .lookup(addr)
            .filter(|route| route.metric < INFINITY_METRIC)
    }

    /// Iterate all routes (live and dying).
    pub fn routes(&self) -> impl Iterator<Item = (&Ipv4Cidr, &DvRoute)> {
        self.table.iter()
    }

    /// Number of live routes.
    pub fn live_routes(&self) -> usize {
        self.table
            .iter()
            .filter(|(_, r)| r.metric < INFINITY_METRIC)
            .count()
    }

    /// Process an advertisement from `gateway` heard on `iface`.
    /// Returns true if anything changed (the caller may then ask for
    /// triggered updates).
    ///
    /// With a guard policy enabled, the announcement first passes
    /// through [`RouteGuard::admit`]; only the entries that survive
    /// sanitization, damping and quarantine reach the table. With the
    /// policy off (the default) this path is byte-for-byte the trusting
    /// 1988 behavior.
    pub fn handle_update(
        &mut self,
        gateway: Ipv4Address,
        iface: usize,
        entries: &[RipEntry],
        now: Instant,
    ) -> bool {
        self.updates_received += 1;
        let admission;
        let entries: &[RipEntry] = if self.guard.enabled() {
            let own: Vec<Ipv4Cidr> = self
                .table
                .iter()
                .filter(|(_, r)| {
                    matches!(r.next_hop, NextHop::Connected { .. }) && r.metric == 1
                })
                .map(|(p, _)| *p)
                .collect();
            admission = self.guard.admit(gateway, entries, now, &own);
            if admission.verdict == GuardVerdict::Quarantined {
                return false;
            }
            &admission.entries
        } else {
            entries
        };
        let mut changed_any = false;
        for entry in entries {
            let advertised = entry.metric.saturating_add(1).min(INFINITY_METRIC);
            let prefix = entry.prefix.network();
            match self.table.get_mut(&prefix) {
                Some(route) => {
                    let from_same_gateway = route.next_hop.gateway() == Some(gateway);
                    if matches!(route.next_hop, NextHop::Connected { .. }) && route.metric == 1 {
                        // Never override a live connected route.
                        continue;
                    }
                    if from_same_gateway {
                        // Our current next hop speaks: always believe it.
                        route.expires_at = now + self.config.route_timeout;
                        // Take the refreshed attestation even when the
                        // metric is unchanged: the origin's serial keeps
                        // advancing and downstream verifiers track it.
                        route.attestation = entry.attestation;
                        if route.metric != advertised {
                            route.metric = advertised;
                            route.changed = true;
                            changed_any = true;
                            if advertised >= INFINITY_METRIC {
                                route.expires_at = now + self.config.gc_timeout;
                            }
                        }
                        self.next_expiry = self.next_expiry.min(route.expires_at);
                    } else if advertised < route.metric {
                        *route = DvRoute {
                            next_hop: NextHop::Via { gateway, iface },
                            metric: advertised,
                            expires_at: now + self.config.route_timeout,
                            changed: true,
                            attestation: entry.attestation,
                        };
                        self.next_expiry = self.next_expiry.min(route.expires_at);
                        changed_any = true;
                    }
                }
                None => {
                    if advertised < INFINITY_METRIC {
                        let expires_at = now + self.config.route_timeout;
                        self.table.insert(
                            prefix,
                            DvRoute {
                                next_hop: NextHop::Via { gateway, iface },
                                metric: advertised,
                                expires_at,
                                changed: true,
                                attestation: entry.attestation,
                            },
                        );
                        self.next_expiry = self.next_expiry.min(expires_at);
                        changed_any = true;
                    }
                }
            }
        }
        if changed_any {
            self.changes_applied += 1;
            self.trigger_pending = true;
            self.version += 1;
        }
        changed_any
    }

    /// Expire silent routes and collect garbage. Call at least once per
    /// update interval.
    pub fn tick(&mut self, now: Instant) {
        if now < self.next_expiry {
            return;
        }
        let gc = self.config.gc_timeout;
        let mut newly_dead = false;
        let mut dropped = false;
        let mut next_expiry = Instant::FAR_FUTURE;
        self.table.retain(|_, route| {
            if route.expires_at <= now {
                if route.metric >= INFINITY_METRIC {
                    // Already at infinity and GC expired: drop.
                    dropped = true;
                    return false;
                }
                // Newly dead: hold at infinity through a GC period.
                route.metric = INFINITY_METRIC;
                route.changed = true;
                route.expires_at = now + gc;
                newly_dead = true;
            }
            next_expiry = next_expiry.min(route.expires_at);
            true
        });
        self.next_expiry = next_expiry;
        if newly_dead {
            self.trigger_pending = true;
        }
        if newly_dead || dropped {
            self.version += 1;
        }
    }

    /// Whether a periodic advertisement is due.
    pub fn periodic_due(&self, now: Instant) -> bool {
        now >= self.next_periodic
    }

    /// Whether a triggered advertisement is pending.
    pub fn triggered_due(&self) -> bool {
        self.config.triggered_updates && self.trigger_pending
    }

    /// When the engine next needs service.
    pub fn poll_at(&self) -> Instant {
        self.next_periodic
    }

    /// No route's deadline falls before this instant (a lower bound,
    /// exact after every [`DvEngine::tick`]): until then `tick` is a
    /// no-op whenever it is called.
    pub fn next_expiry(&self) -> Instant {
        self.next_expiry
    }

    /// Build the advertisement for the neighbor reached via `iface`,
    /// applying split horizon / poisoned reverse and the export policy.
    /// `full` selects between a complete table (periodic) and only
    /// changed routes (triggered).
    pub fn advertisement_for(
        &self,
        iface: usize,
        policy: &ExportPolicy,
        full: bool,
    ) -> Vec<RipEntry> {
        let mut entries = Vec::new();
        for (prefix, route) in self.table.iter() {
            if !full && !route.changed {
                continue;
            }
            if !policy.permits(prefix) {
                continue;
            }
            let learned_here = route.next_hop.iface() == iface
                && !matches!(route.next_hop, NextHop::Connected { .. });
            let metric = if learned_here && self.config.split_horizon {
                if self.config.poisoned_reverse {
                    INFINITY_METRIC
                } else {
                    continue;
                }
            } else {
                route.metric
            };
            // Attach provenance: connected prefixes get a fresh
            // signature at the current serial, learned routes relay the
            // stored attestation unchanged (a gateway can only vouch for
            // what it owns). Unreachable entries claim nothing and
            // carry nothing.
            let attestation = if metric >= INFINITY_METRIC {
                None
            } else if matches!(route.next_hop, NextHop::Connected { .. }) {
                self.attestor.as_ref().map(|a| a.sign(*prefix))
            } else {
                route.attestation
            };
            entries.push(RipEntry {
                prefix: *prefix,
                metric,
                attestation,
            });
        }
        entries
    }

    /// Mark the advertisement round complete: clears change flags and
    /// schedules the next periodic update.
    pub fn advertisements_sent(&mut self, now: Instant) {
        for (_, route) in self.table.iter_mut() {
            route.changed = false;
        }
        self.trigger_pending = false;
        self.next_periodic = now + self.config.update_interval;
        if let Some(attestor) = &mut self.attestor {
            // Serials advance with virtual time (seconds), which makes
            // them monotone across a crash/reboot with no stable
            // storage: the clock is the journal.
            attestor.advance((now.total_millis() / 1000) as u32);
        }
    }

    /// Forget everything (gateway crash). Connected networks must be
    /// re-declared by the owner on reboot — which is trivial, because
    /// they are configuration, not conversation state.
    pub fn clear(&mut self) {
        if self.table.iter().next().is_some() {
            self.version += 1;
        }
        self.table.clear();
        self.trigger_pending = false;
        self.next_periodic = Instant::ZERO;
        self.next_expiry = Instant::FAR_FUTURE;
        // Guard history is volatile too — fate-sharing — but the
        // policy itself is configuration and survives the reboot.
        self.guard.reset();
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

    fn engine() -> DvEngine {
        DvEngine::new(DvConfig::fast())
    }

    #[test]
    fn connected_routes_advertised_at_metric_one() {
        let mut dv = engine();
        dv.add_connected(cidr("10.1.0.0/16"), 0);
        let ads = dv.advertisement_for(1, &ExportPolicy::All, true);
        assert_eq!(ads.len(), 1);
        assert_eq!(ads[0].metric, 1);
        assert_eq!(ads[0].prefix, cidr("10.1.0.0/16"));
    }

    #[test]
    fn learned_route_adds_one_hop() {
        let mut dv = engine();
        let changed = dv.handle_update(
            addr("10.0.0.2"),
            0,
            &[RipEntry::new(cidr("10.9.0.0/16"), 2)],
            Instant::ZERO,
        );
        assert!(changed);
        let route = dv.lookup(addr("10.9.1.1")).unwrap();
        assert_eq!(route.metric, 3);
        assert_eq!(route.next_hop.gateway(), Some(addr("10.0.0.2")));
        assert_eq!(route.next_hop.iface(), 0);
    }

    #[test]
    fn better_route_replaces_worse() {
        let mut dv = engine();
        dv.handle_update(
            addr("10.0.0.2"),
            0,
            &[RipEntry::new(cidr("10.9.0.0/16"), 5)],
            Instant::ZERO,
        );
        dv.handle_update(
            addr("10.0.1.2"),
            1,
            &[RipEntry::new(cidr("10.9.0.0/16"), 2)],
            Instant::ZERO,
        );
        let route = dv.lookup(addr("10.9.0.1")).unwrap();
        assert_eq!(route.metric, 3);
        assert_eq!(route.next_hop.gateway(), Some(addr("10.0.1.2")));
    }

    #[test]
    fn worse_route_from_other_gateway_ignored() {
        let mut dv = engine();
        dv.handle_update(
            addr("10.0.0.2"),
            0,
            &[RipEntry::new(cidr("10.9.0.0/16"), 2)],
            Instant::ZERO,
        );
        let changed = dv.handle_update(
            addr("10.0.1.2"),
            1,
            &[RipEntry::new(cidr("10.9.0.0/16"), 9)],
            Instant::ZERO,
        );
        assert!(!changed);
        assert_eq!(
            dv.lookup(addr("10.9.0.1")).unwrap().next_hop.gateway(),
            Some(addr("10.0.0.2"))
        );
    }

    #[test]
    fn current_gateway_worsening_is_believed() {
        // Counting-to-infinity protection: the next hop's word is law.
        let mut dv = engine();
        dv.handle_update(
            addr("10.0.0.2"),
            0,
            &[RipEntry::new(cidr("10.9.0.0/16"), 2)],
            Instant::ZERO,
        );
        dv.handle_update(
            addr("10.0.0.2"),
            0,
            &[RipEntry::new(cidr("10.9.0.0/16"), 7)],
            Instant::ZERO,
        );
        assert_eq!(dv.lookup(addr("10.9.0.1")).unwrap().metric, 8);
    }

    #[test]
    fn infinity_from_current_gateway_kills_route() {
        let mut dv = engine();
        dv.handle_update(
            addr("10.0.0.2"),
            0,
            &[RipEntry::new(cidr("10.9.0.0/16"), 2)],
            Instant::ZERO,
        );
        dv.handle_update(
            addr("10.0.0.2"),
            0,
            &[RipEntry::new(cidr("10.9.0.0/16"), INFINITY_METRIC)],
            Instant::ZERO,
        );
        assert!(dv.lookup(addr("10.9.0.1")).is_none());
        // But it is still *advertised* at infinity (route poisoning).
        let ads = dv.advertisement_for(9, &ExportPolicy::All, true);
        assert_eq!(ads.len(), 1);
        assert_eq!(ads[0].metric, INFINITY_METRIC);
    }

    #[test]
    fn connected_route_never_overridden() {
        let mut dv = engine();
        dv.add_connected(cidr("10.1.0.0/16"), 0);
        dv.handle_update(
            addr("10.0.0.2"),
            1,
            &[RipEntry::new(cidr("10.1.0.0/16"), 0)],
            Instant::ZERO,
        );
        let route = dv.lookup(addr("10.1.0.1")).unwrap();
        assert_eq!(route.metric, 1);
        assert!(matches!(route.next_hop, NextHop::Connected { iface: 0 }));
    }

    #[test]
    fn split_horizon_with_poison() {
        let mut dv = engine();
        dv.handle_update(
            addr("10.0.0.2"),
            0,
            &[RipEntry::new(cidr("10.9.0.0/16"), 1)],
            Instant::ZERO,
        );
        // Back toward iface 0: poisoned.
        let back = dv.advertisement_for(0, &ExportPolicy::All, true);
        assert_eq!(back[0].metric, INFINITY_METRIC);
        // Toward another iface: real metric.
        let fwd = dv.advertisement_for(1, &ExportPolicy::All, true);
        assert_eq!(fwd[0].metric, 2);
    }

    #[test]
    fn split_horizon_without_poison_omits() {
        let mut config = DvConfig::fast();
        config.poisoned_reverse = false;
        let mut dv = DvEngine::new(config);
        dv.handle_update(
            addr("10.0.0.2"),
            0,
            &[RipEntry::new(cidr("10.9.0.0/16"), 1)],
            Instant::ZERO,
        );
        assert!(dv.advertisement_for(0, &ExportPolicy::All, true).is_empty());
        assert_eq!(dv.advertisement_for(1, &ExportPolicy::All, true).len(), 1);
    }

    #[test]
    fn export_policy_filters_foreign_routes() {
        let mut dv = engine();
        dv.add_connected(cidr("10.1.0.0/16"), 0);
        dv.handle_update(
            addr("10.0.0.2"),
            1,
            &[RipEntry::new(cidr("172.16.0.0/16"), 1)],
            Instant::ZERO,
        );
        // Exterior policy: only reveal our own 10.1/16.
        let policy = ExportPolicy::Only(vec![cidr("10.1.0.0/16")]);
        let ads = dv.advertisement_for(2, &policy, true);
        assert_eq!(ads.len(), 1);
        assert_eq!(ads[0].prefix, cidr("10.1.0.0/16"));
    }

    #[test]
    fn silent_route_times_out_then_gcs() {
        let mut dv = engine(); // timeout 18 s, gc 12 s
        dv.handle_update(
            addr("10.0.0.2"),
            0,
            &[RipEntry::new(cidr("10.9.0.0/16"), 1)],
            Instant::ZERO,
        );
        dv.tick(Instant::from_secs(10));
        assert!(dv.lookup(addr("10.9.0.1")).is_some());
        dv.tick(Instant::from_secs(19));
        assert!(dv.lookup(addr("10.9.0.1")).is_none(), "timed out");
        // Still advertised at infinity during GC hold.
        assert_eq!(
            dv.advertisement_for(1, &ExportPolicy::All, true)[0].metric,
            INFINITY_METRIC
        );
        dv.tick(Instant::from_secs(32));
        assert_eq!(dv.advertisement_for(1, &ExportPolicy::All, true).len(), 0);
    }

    #[test]
    fn refresh_prevents_timeout() {
        let mut dv = engine();
        let entry = [RipEntry::new(cidr("10.9.0.0/16"), 1)];
        dv.handle_update(addr("10.0.0.2"), 0, &entry, Instant::ZERO);
        dv.handle_update(addr("10.0.0.2"), 0, &entry, Instant::from_secs(10));
        dv.tick(Instant::from_secs(19));
        assert!(dv.lookup(addr("10.9.0.1")).is_some());
    }

    #[test]
    fn triggered_updates_carry_only_changes() {
        let mut dv = engine();
        dv.add_connected(cidr("10.1.0.0/16"), 0);
        dv.advertisements_sent(Instant::ZERO); // clears change flags
        assert!(!dv.triggered_due());
        dv.handle_update(
            addr("10.0.0.2"),
            1,
            &[RipEntry::new(cidr("10.9.0.0/16"), 1)],
            Instant::from_secs(1),
        );
        assert!(dv.triggered_due());
        let partial = dv.advertisement_for(2, &ExportPolicy::All, false);
        assert_eq!(partial.len(), 1, "only the new route");
        assert_eq!(partial[0].prefix, cidr("10.9.0.0/16"));
        let full = dv.advertisement_for(2, &ExportPolicy::All, true);
        assert_eq!(full.len(), 2, "full table still has both");
    }

    #[test]
    fn periodic_schedule() {
        let mut dv = engine(); // 3 s interval
        assert!(dv.periodic_due(Instant::ZERO));
        dv.advertisements_sent(Instant::ZERO);
        assert!(!dv.periodic_due(Instant::from_secs(2)));
        assert!(dv.periodic_due(Instant::from_secs(3)));
        assert_eq!(dv.poll_at(), Instant::from_secs(3));
    }

    #[test]
    fn remove_connected_poisons() {
        let mut dv = engine();
        dv.add_connected(cidr("10.1.0.0/16"), 0);
        dv.remove_connected(&cidr("10.1.0.0/16"));
        assert!(dv.lookup(addr("10.1.0.1")).is_none());
        let ads = dv.advertisement_for(1, &ExportPolicy::All, true);
        assert_eq!(ads[0].metric, INFINITY_METRIC);
    }

    #[test]
    fn fail_iface_kills_learned_routes_immediately() {
        let mut dv = engine();
        dv.handle_update(
            addr("10.0.0.2"),
            0,
            &[RipEntry::new(cidr("10.9.0.0/16"), 1)],
            Instant::ZERO,
        );
        dv.handle_update(
            addr("10.0.1.2"),
            1,
            &[RipEntry::new(cidr("10.8.0.0/16"), 1)],
            Instant::ZERO,
        );
        dv.fail_iface(0, Instant::from_secs(1));
        assert!(dv.lookup(addr("10.9.0.1")).is_none(), "iface-0 route dead");
        assert!(dv.lookup(addr("10.8.0.1")).is_some(), "iface-1 route alive");
        assert!(dv.triggered_due(), "poison goes out as a triggered update");
        // The dead route can be replaced by a worse alternative now.
        dv.handle_update(
            addr("10.0.1.2"),
            1,
            &[RipEntry::new(cidr("10.9.0.0/16"), 5)],
            Instant::from_secs(2),
        );
        assert_eq!(dv.lookup(addr("10.9.0.1")).unwrap().metric, 6);
    }

    #[test]
    fn clear_forgets_everything() {
        let mut dv = engine();
        dv.add_connected(cidr("10.1.0.0/16"), 0);
        dv.clear();
        assert_eq!(dv.routes().count(), 0);
        assert!(dv.periodic_due(Instant::ZERO));
    }

    #[test]
    fn version_counts_material_changes_only() {
        let mut dv = engine();
        assert_eq!(dv.version(), 0);
        dv.add_connected(cidr("10.1.0.0/16"), 0);
        assert_eq!(dv.version(), 1);
        let entry = [RipEntry::new(cidr("10.9.0.0/16"), 1)];
        dv.handle_update(addr("10.0.0.2"), 1, &entry, Instant::ZERO);
        assert_eq!(dv.version(), 2, "new route learned");
        // A pure refresh extends the deadline but says nothing new.
        dv.handle_update(addr("10.0.0.2"), 1, &entry, Instant::from_secs(2));
        assert_eq!(dv.version(), 2, "refresh is not a change");
        // A quiet tick changes nothing either.
        dv.tick(Instant::from_secs(3));
        assert_eq!(dv.version(), 2);
        dv.fail_iface(1, Instant::from_secs(4));
        assert_eq!(dv.version(), 3, "poison is a change");
        // GC drop of the poisoned route is a change too (12 s hold).
        dv.tick(Instant::from_secs(17));
        assert_eq!(dv.version(), 4);
        dv.clear();
        assert_eq!(dv.version(), 5);
        dv.clear();
        assert_eq!(dv.version(), 5, "clearing empty is a no-op");
    }

    #[test]
    fn guarded_engine_rejects_blackhole_advert() {
        let mut trusting = engine();
        let mut guarded = engine();
        guarded.set_guard_policy(GuardPolicy::standard());
        let blackhole = [RipEntry::new(cidr("10.9.0.0/16"), 0)];
        // The trusting engine installs the metric-0 lie at cost 1 —
        // unbeatable by any honest path.
        assert!(trusting.handle_update(addr("10.0.0.2"), 0, &blackhole, Instant::ZERO));
        assert_eq!(trusting.lookup(addr("10.9.0.1")).unwrap().metric, 1);
        // The guarded engine refuses it outright.
        assert!(!guarded.handle_update(addr("10.0.0.2"), 0, &blackhole, Instant::ZERO));
        assert!(guarded.lookup(addr("10.9.0.1")).is_none());
        let verdicts: Vec<_> = guarded.guard().verdicts().collect();
        assert_eq!(verdicts[0].1.sanitized, 1);
    }

    #[test]
    fn guard_off_is_bitwise_trusting_behavior() {
        let mut dv = engine();
        assert!(!dv.guard().enabled());
        // Policy off: even a metric-0 lie flows straight in, exactly as
        // the 1988 architecture trusted it to.
        dv.handle_update(
            addr("10.0.0.2"),
            0,
            &[RipEntry::new(cidr("10.9.0.0/16"), 0)],
            Instant::ZERO,
        );
        assert_eq!(dv.lookup(addr("10.9.0.1")).unwrap().metric, 1);
        assert_eq!(dv.guard().verdicts().count(), 0, "no guard state accrues");
    }

    #[test]
    fn three_node_line_converges_and_heals() {
        // A --- B --- C: propagate A's network to C, then kill B's route
        // and watch poison flow. Engines exchange ads by hand.
        let mut a = engine();
        let mut b = engine();
        let mut c = engine();
        a.add_connected(cidr("10.1.0.0/16"), 0); // A's LAN
        let a_addr = addr("10.12.0.1"); // A on the A-B net
        let b_addr_ab = addr("10.12.0.2");
        let b_addr_bc = addr("10.23.0.2");
        let c_addr = addr("10.23.0.3");
        let _ = (b_addr_ab, c_addr);

        let now = Instant::ZERO;
        // Round 1: A → B.
        let ads = a.advertisement_for(1, &ExportPolicy::All, true);
        b.handle_update(a_addr, 0, &ads, now);
        assert_eq!(b.lookup(addr("10.1.5.5")).unwrap().metric, 2);
        // Round 2: B → C.
        let ads = b.advertisement_for(1, &ExportPolicy::All, true);
        c.handle_update(b_addr_bc, 0, &ads, now);
        assert_eq!(c.lookup(addr("10.1.5.5")).unwrap().metric, 3);
        // A's network dies.
        a.remove_connected(&cidr("10.1.0.0/16"));
        let ads = a.advertisement_for(1, &ExportPolicy::All, true);
        b.handle_update(a_addr, 0, &ads, now);
        assert!(b.lookup(addr("10.1.5.5")).is_none(), "poison reached B");
        let ads = b.advertisement_for(1, &ExportPolicy::All, true);
        c.handle_update(b_addr_bc, 0, &ads, now);
        assert!(c.lookup(addr("10.1.5.5")).is_none(), "poison reached C");
    }

    use catenet_auth::{MacKey, OriginId};

    fn attestor(origin: u16) -> Attestor {
        let master = MacKey([0xAA, 0xBB]);
        Attestor::new(OriginId(origin), MacKey::derive(master, OriginId(origin)))
    }

    #[test]
    fn attestor_signs_connected_prefixes_only() {
        let mut dv = engine();
        dv.set_attestor(Some(attestor(7)));
        dv.add_connected(cidr("10.1.0.0/16"), 0);
        // A learned route arrives without an attestation.
        dv.handle_update(
            addr("10.12.0.2"),
            0,
            &[RipEntry::new(cidr("10.2.0.0/16"), 1)],
            Instant::ZERO,
        );
        let ads = dv.advertisement_for(1, &ExportPolicy::All, true);
        let connected = ads.iter().find(|e| e.prefix == cidr("10.1.0.0/16")).unwrap();
        let learned = ads.iter().find(|e| e.prefix == cidr("10.2.0.0/16")).unwrap();
        let att = connected.attestation.expect("connected prefix signed");
        assert_eq!(att.origin, OriginId(7));
        let key = MacKey::derive(MacKey([0xAA, 0xBB]), OriginId(7));
        assert!(att.verify(key, cidr("10.1.0.0/16")));
        assert!(
            learned.attestation.is_none(),
            "engine must not originate proofs for routes it merely relays"
        );
    }

    #[test]
    fn learned_attestations_are_stored_and_relayed() {
        let origin = attestor(3);
        let proof = {
            let mut a = origin;
            a.advance(42);
            a.sign(cidr("10.3.0.0/16"))
        };
        let mut dv = engine();
        dv.handle_update(
            addr("10.12.0.2"),
            0,
            &[RipEntry::attested(cidr("10.3.0.0/16"), 1, proof)],
            Instant::ZERO,
        );
        assert_eq!(
            dv.lookup(addr("10.3.1.1")).unwrap().attestation,
            Some(proof)
        );
        // The proof rides the re-advertisement unchanged.
        let ads = dv.advertisement_for(1, &ExportPolicy::All, true);
        assert_eq!(ads[0].attestation, Some(proof));
        // A refresh with a newer serial replaces the stored proof.
        let newer = {
            let mut a = attestor(3);
            a.advance(43);
            a.sign(cidr("10.3.0.0/16"))
        };
        dv.handle_update(
            addr("10.12.0.2"),
            0,
            &[RipEntry::attested(cidr("10.3.0.0/16"), 1, newer)],
            Instant::ZERO,
        );
        assert_eq!(dv.lookup(addr("10.3.1.1")).unwrap().attestation, Some(newer));
    }

    #[test]
    fn attestor_serial_tracks_virtual_time() {
        let mut dv = engine();
        dv.set_attestor(Some(attestor(5)));
        dv.add_connected(cidr("10.5.0.0/16"), 0);
        dv.advertisements_sent(Instant::ZERO + Duration::from_secs(9));
        let s1 = dv.attestor().unwrap().seq();
        dv.advertisements_sent(Instant::ZERO + Duration::from_secs(21));
        let s2 = dv.attestor().unwrap().seq();
        assert_eq!((s1, s2), (9, 21));
        // Time never runs backwards, and neither does the serial.
        dv.advertisements_sent(Instant::ZERO + Duration::from_secs(15));
        assert_eq!(dv.attestor().unwrap().seq(), 21);
    }

    #[test]
    fn attestor_survives_clear() {
        let mut dv = engine();
        dv.set_attestor(Some(attestor(9)));
        dv.add_connected(cidr("10.9.0.0/16"), 0);
        dv.clear();
        assert!(dv.attestor().is_some(), "identity is config, not state");
        assert!(dv.lookup(addr("10.9.1.1")).is_none(), "table is state");
    }
}
