//! The ARP table: hardware-address resolution on Ethernet-framed links.
//!
//! Part of the "host attachment with low effort" goal (§8): on a
//! broadcast LAN a host needs to know only its own IP address; everything
//! else is discovered. Entries expire (smoltcp uses one minute; so do
//! we), a short queue holds datagrams awaiting resolution, and
//! outstanding requests are *retried* with exponential backoff rather
//! than silently abandoned — a resolution that never answers eventually
//! gives up and reports the datagrams it dropped, so the failure is
//! visible in node statistics instead of vanishing (§6's argument that
//! silent loss is the worst kind).
//!
//! A node has one [`ArpTable`] for all its interfaces. It owns the
//! learned entries (kept per interface: an address learned on one
//! interface does not resolve on another), every resolution in
//! progress with the datagrams waiting on it, and the answer to the one
//! question the node asks on every pass, "when do you next need me?"
//! ([`ArpTable::next_event`]). The table's own methods keep that answer
//! exact, so the node holds no copy of it, and a crash forgets all of
//! it, timers included, in one [`ArpTable::clear`].

use crate::pool::PacketBuf;
use catenet_sim::{Duration, Instant};
use catenet_wire::{EthernetAddress, Ipv4Address};
use std::collections::{BTreeMap, HashMap};

/// How long a learned entry stays valid.
pub const ENTRY_LIFETIME: Duration = Duration::from_secs(60);
/// Spacing after the first request for the same address; doubles per
/// retry up to [`MAX_BACKOFF_SHIFT`] doublings.
pub const REQUEST_INTERVAL: Duration = Duration::from_secs(1);
/// Datagrams queued per unresolved address.
pub const PENDING_LIMIT: usize = 4;
/// Requests sent for one target before giving up (initial + retries).
pub const MAX_REQUEST_ATTEMPTS: u32 = 5;
/// Cap on the exponential backoff: the interval stops doubling after
/// this many doublings (1 s, 2 s, 4 s, 8 s, 8 s, ...).
pub const MAX_BACKOFF_SHIFT: u32 = 3;

#[derive(Debug, Clone)]
struct Entry {
    hardware: EthernetAddress,
    expires_at: Instant,
}

/// A resolution in progress: its request state and the datagrams that
/// wait for its answer. It exists exactly while a request is
/// outstanding, so no datagram waits without one.
#[derive(Debug)]
struct Resolving {
    /// Requests sent so far.
    attempts: u32,
    /// When the next retry (or give-up) is due.
    next_retry: Instant,
    /// Datagrams waiting, oldest first, at most [`PENDING_LIMIT`].
    /// Pooled buffers, so their release on `learn` re-enters the fast
    /// path copy-free.
    waiting: Vec<PacketBuf>,
}

/// What backoff applies after the `attempts`-th request.
fn backoff_after(attempts: u32) -> Duration {
    REQUEST_INTERVAL * (1u32 << attempts.saturating_sub(1).min(MAX_BACKOFF_SHIFT))
}

/// The outcome of one [`ArpTable::tick`]: which targets to re-request
/// and which resolutions were abandoned, each in (interface, address)
/// order.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ArpTick {
    /// `(interface, target)` pairs whose request should be
    /// retransmitted now.
    pub retries: Vec<(usize, Ipv4Address)>,
    /// `(interface, target, dropped)` for each resolution given up on,
    /// with the number of waiting datagrams it dropped.
    pub gave_up: Vec<(usize, Ipv4Address, usize)>,
}

/// Every interface's resolutions, and when the node is next needed.
#[derive(Debug, Default)]
pub struct ArpTable {
    /// Learned entries, indexed by interface number; an interface that
    /// never learned anything may have no map yet.
    entries: Vec<HashMap<Ipv4Address, Entry>>,
    /// A lower bound on the earliest `expires_at` in `entries`: every
    /// [`learn`](ArpTable::learn) lowers it, and
    /// [`flush_expired`](ArpTable::flush_expired)'s scan leaves it
    /// exact. Before this instant nothing can expire and the flush
    /// skips its scan.
    next_expiry: Instant,
    /// Resolutions in progress over every interface, keyed and so
    /// iterated in (interface, address) order, the order retries go
    /// out in. Empty on a quiet gateway.
    resolving: BTreeMap<(usize, Ipv4Address), Resolving>,
    /// The earliest `next_retry` in `resolving`, kept exact by every
    /// method that changes `resolving`.
    next_event: Option<Instant>,
}

/// What [`ArpTable::enqueue`] did with a datagram.
#[derive(Debug, PartialEq, Eq)]
pub enum Resolution {
    /// Queued; a request should be sent now.
    RequestAndWait,
    /// Queued; a request was sent recently.
    Wait,
    /// The waiting queue is full; the datagram was dropped.
    QueueFull,
}

impl ArpTable {
    /// An empty table.
    pub fn new() -> ArpTable {
        ArpTable::default()
    }

    /// The hardware address of `target` on interface `iface`, if a live
    /// entry holds it.
    pub fn get(&self, iface: usize, target: Ipv4Address, now: Instant) -> Option<EthernetAddress> {
        let entry = self.entries.get(iface)?.get(&target)?;
        (entry.expires_at > now).then_some(entry.hardware)
    }

    /// After [`get`](ArpTable::get) missed: queue `datagram` on the
    /// resolution of `target` over `iface`, starting one if none is in
    /// progress, and say whether to send a request.
    pub fn enqueue(
        &mut self,
        iface: usize,
        target: Ipv4Address,
        datagram: impl Into<PacketBuf>,
        now: Instant,
    ) -> Resolution {
        // A new resolution is one whose first request is due now.
        let resolving = self
            .resolving
            .entry((iface, target))
            .or_insert_with(|| Resolving {
                attempts: 0,
                next_retry: now,
                waiting: Vec::with_capacity(PENDING_LIMIT),
            });
        if resolving.waiting.len() >= PENDING_LIMIT {
            return Resolution::QueueFull;
        }
        resolving.waiting.push(datagram.into());
        // A resolution out of attempts sends nothing more: the tick
        // due now gives up on it, this datagram included.
        if now < resolving.next_retry || resolving.attempts >= MAX_REQUEST_ATTEMPTS {
            return Resolution::Wait;
        }
        resolving.attempts += 1;
        resolving.next_retry = now + backoff_after(resolving.attempts);
        self.refresh();
        Resolution::RequestAndWait
    }

    /// Advance the retry machinery to `now`. Each due resolution either
    /// earns a retransmission (attempts left) or is abandoned, dropping
    /// its waiting datagrams.
    pub fn tick(&mut self, now: Instant) -> ArpTick {
        let mut tick = ArpTick::default();
        if self.next_event.is_none_or(|at| at > now) {
            return tick;
        }
        self.resolving.retain(|&(iface, target), resolving| {
            if resolving.next_retry > now {
                return true;
            }
            if resolving.attempts >= MAX_REQUEST_ATTEMPTS {
                tick.gave_up.push((iface, target, resolving.waiting.len()));
                return false;
            }
            resolving.attempts += 1;
            resolving.next_retry = now + backoff_after(resolving.attempts);
            tick.retries.push((iface, target));
            true
        });
        self.refresh();
        tick
    }

    /// When the next retry or give-up is due, if any resolution is in
    /// progress.
    pub fn next_event(&self) -> Option<Instant> {
        self.next_event
    }

    /// Learn (or refresh) a mapping on `iface`; returns the datagrams
    /// that were waiting for it, oldest first.
    pub fn learn(
        &mut self,
        iface: usize,
        protocol: Ipv4Address,
        hardware: EthernetAddress,
        now: Instant,
    ) -> Vec<PacketBuf> {
        if self.entries.len() <= iface {
            self.entries.resize_with(iface + 1, HashMap::new);
        }
        let expires_at = now + ENTRY_LIFETIME;
        self.entries[iface].insert(
            protocol,
            Entry {
                hardware,
                expires_at,
            },
        );
        self.next_expiry = self.next_expiry.min(expires_at);
        let Some(resolved) = self.resolving.remove(&(iface, protocol)) else {
            return Vec::new();
        };
        self.refresh();
        resolved.waiting
    }

    /// Drop expired entries.
    pub fn flush_expired(&mut self, now: Instant) {
        if now < self.next_expiry {
            return;
        }
        let mut next_expiry = Instant::FAR_FUTURE;
        for entries in &mut self.entries {
            entries.retain(|_, entry| {
                let live = entry.expires_at > now;
                if live {
                    next_expiry = next_expiry.min(entry.expires_at);
                }
                live
            });
        }
        self.next_expiry = next_expiry;
    }

    /// Forget everything (node reboot).
    pub fn clear(&mut self) {
        *self = ArpTable::default();
    }

    /// Re-read the earliest retry after `resolving` changed.
    fn refresh(&mut self) {
        self.next_event = self.resolving.values().map(|r| r.next_retry).min();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IP: Ipv4Address = Ipv4Address::new(10, 0, 0, 9);
    const HW: EthernetAddress = EthernetAddress::new(2, 0, 0, 0, 0, 9);

    /// What a node does with a datagram for `target`: look it up, and
    /// queue it on a miss.
    fn resolve(
        table: &mut ArpTable,
        target: Ipv4Address,
        datagram: &[u8],
        now: Instant,
    ) -> Resolution {
        assert_eq!(table.get(0, target, now), None, "only a miss enqueues");
        table.enqueue(0, target, datagram.to_vec(), now)
    }

    #[test]
    fn miss_queues_and_requests() {
        let mut table = ArpTable::new();
        let r = resolve(&mut table, IP, b"pkt1", Instant::ZERO);
        assert_eq!(r, Resolution::RequestAndWait);
        // Second miss within the rate-limit window queues silently.
        let r = resolve(&mut table, IP, b"pkt2", Instant::from_millis(100));
        assert_eq!(r, Resolution::Wait);
        // After the interval, we may ask again.
        let r = resolve(&mut table, IP, b"pkt3", Instant::from_millis(1100));
        assert_eq!(r, Resolution::RequestAndWait);
    }

    #[test]
    fn learn_returns_pending_in_order() {
        let mut table = ArpTable::new();
        resolve(&mut table, IP, b"pkt1", Instant::ZERO);
        resolve(&mut table, IP, b"pkt2", Instant::ZERO);
        let released = table.learn(0, IP, HW, Instant::from_millis(5));
        assert_eq!(released.len(), 2);
        assert_eq!(&released[0][..], b"pkt1");
        assert_eq!(&released[1][..], b"pkt2");
        // Subsequent lookups are straight hits.
        assert_eq!(table.get(0, IP, Instant::from_millis(6)), Some(HW));
    }

    #[test]
    fn entries_expire() {
        let mut table = ArpTable::new();
        table.learn(0, IP, HW, Instant::ZERO);
        assert!(table.get(0, IP, Instant::from_secs(59)).is_some());
        assert!(table.get(0, IP, Instant::from_secs(61)).is_none());
        table.flush_expired(Instant::from_secs(61));
        assert!(table.entries[0].is_empty());
    }

    #[test]
    fn queue_caps_at_limit() {
        let mut table = ArpTable::new();
        for i in 0..PENDING_LIMIT {
            let r = resolve(&mut table, IP, &[i as u8], Instant::ZERO);
            assert_ne!(r, Resolution::QueueFull);
        }
        assert_eq!(
            resolve(&mut table, IP, b"overflow", Instant::ZERO),
            Resolution::QueueFull
        );
        // Learning releases exactly the queued ones.
        assert_eq!(table.learn(0, IP, HW, Instant::ZERO).len(), PENDING_LIMIT);
    }

    #[test]
    fn refresh_extends_lifetime() {
        let mut table = ArpTable::new();
        table.learn(0, IP, HW, Instant::ZERO);
        table.learn(0, IP, HW, Instant::from_secs(50));
        assert!(table.get(0, IP, Instant::from_secs(100)).is_some());
    }

    #[test]
    fn clear_forgets_all() {
        let mut table = ArpTable::new();
        table.learn(0, IP, HW, Instant::ZERO);
        resolve(
            &mut table,
            Ipv4Address::new(10, 0, 0, 8),
            b"x",
            Instant::ZERO,
        );
        table.clear();
        assert!(table.get(0, IP, Instant::ZERO).is_none());
        assert!(table.entries.is_empty() && table.resolving.is_empty());
        assert!(table.next_event().is_none());
    }

    #[test]
    fn distinct_targets_and_interfaces_independent() {
        let other_ip = Ipv4Address::new(10, 0, 0, 10);
        let other_hw = EthernetAddress::new(2, 0, 0, 0, 0, 10);
        let mut table = ArpTable::new();
        table.learn(0, IP, HW, Instant::ZERO);
        table.learn(0, other_ip, other_hw, Instant::ZERO);
        assert_eq!(table.get(0, IP, Instant::ZERO), Some(HW));
        assert_eq!(table.get(0, other_ip, Instant::ZERO), Some(other_hw));
        // Learned on interface 0, unknown on interface 2: a miss there
        // starts a resolution of its own.
        assert_eq!(table.get(2, IP, Instant::ZERO), None);
        assert_eq!(
            table.enqueue(2, IP, b"x".to_vec(), Instant::ZERO),
            Resolution::RequestAndWait
        );
        assert!(
            table.learn(0, IP, HW, Instant::ZERO).is_empty(),
            "not interface 2's"
        );
        assert_eq!(table.learn(2, IP, HW, Instant::ZERO).len(), 1);
    }

    #[test]
    fn tick_retries_with_exponential_backoff() {
        let mut table = ArpTable::new();
        resolve(&mut table, IP, b"pkt", Instant::ZERO);
        // Attempt 1 at t=0; retries due at 1 s, then +2 s, +4 s, +8 s.
        assert_eq!(table.next_event(), Some(Instant::from_secs(1)));
        assert!(table.tick(Instant::from_millis(999)).retries.is_empty());

        let mut retry_times = Vec::new();
        for _ in 0..4 {
            let now = table.next_event().expect("request in progress");
            let tick = table.tick(now);
            assert_eq!(tick.retries, vec![(0, IP)]);
            assert!(tick.gave_up.is_empty());
            retry_times.push(now);
        }
        assert_eq!(
            retry_times,
            vec![
                Instant::from_secs(1),
                Instant::from_secs(3),
                Instant::from_secs(7),
                Instant::from_secs(15),
            ]
        );
    }

    #[test]
    fn tick_gives_up_after_max_attempts_and_reports_drops() {
        let mut table = ArpTable::new();
        resolve(&mut table, IP, b"pkt1", Instant::ZERO);
        resolve(&mut table, IP, b"pkt2", Instant::from_millis(10));
        let mut gave_up_at = None;
        while let Some(at) = table.next_event() {
            let tick = table.tick(at);
            if !tick.gave_up.is_empty() {
                assert_eq!(tick.gave_up, vec![(0, IP, 2)]);
                assert!(tick.retries.is_empty());
                gave_up_at = Some(at);
            }
        }
        // Backoff 1+2+4+8 then a final 8 s wait before abandoning.
        let now = gave_up_at.expect("resolution abandoned");
        assert_eq!(now, Instant::from_secs(23));
        assert!(table.next_event().is_none());
        // The slate is clean: a new miss starts over at attempt 1.
        assert_eq!(
            resolve(&mut table, IP, b"pkt3", now),
            Resolution::RequestAndWait
        );
        assert_eq!(table.next_event(), Some(now + REQUEST_INTERVAL));
    }

    #[test]
    fn a_miss_at_the_give_up_instant_sends_no_sixth_request() {
        let mut table = ArpTable::new();
        assert_eq!(
            resolve(&mut table, IP, b"pkt1", Instant::ZERO),
            Resolution::RequestAndWait
        );
        let mut requests = 1;
        for secs in [1, 3, 7, 15] {
            requests += table.tick(Instant::from_secs(secs)).retries.len();
        }
        let at = Instant::from_secs(23);
        assert_eq!(table.next_event(), Some(at), "the give-up is due");
        assert_eq!(resolve(&mut table, IP, b"pkt2", at), Resolution::Wait);
        let tick = table.tick(at);
        assert!(tick.retries.is_empty());
        assert_eq!(tick.gave_up, vec![(0, IP, 2)]);
        assert_eq!(requests, MAX_REQUEST_ATTEMPTS as usize);
        assert!(table.next_event().is_none());
    }

    #[test]
    fn learn_cancels_outstanding_request() {
        let mut table = ArpTable::new();
        resolve(&mut table, IP, b"pkt", Instant::ZERO);
        assert!(table.next_event().is_some());
        table.learn(0, IP, HW, Instant::from_millis(500));
        assert!(table.next_event().is_none());
        let tick = table.tick(Instant::from_secs(30));
        assert_eq!(tick, ArpTick::default());
    }

    #[test]
    fn tick_orders_by_interface_then_address() {
        let a = Ipv4Address::new(10, 0, 0, 3);
        let b = Ipv4Address::new(10, 0, 0, 1);
        let c = Ipv4Address::new(10, 0, 0, 2);
        let mut table = ArpTable::new();
        for (iface, ip) in [(1, a), (1, b), (0, c), (0, a)] {
            table.enqueue(iface, ip, b"x".to_vec(), Instant::ZERO);
        }
        let tick = table.tick(Instant::from_secs(1));
        assert_eq!(tick.retries, vec![(0, c), (0, a), (1, b), (1, a)]);
    }

    /// One seeded random operation on a table over three interfaces.
    enum Step {
        Learn(usize, Ipv4Address, EthernetAddress),
        Miss(usize, Ipv4Address, Vec<u8>),
        Flush,
        Tick,
        Clear,
    }

    fn random_step(rng: &mut catenet_sim::Rng, step: u32) -> Step {
        let iface = rng.below(3) as usize;
        let target = Ipv4Address::new(10, 0, 0, rng.below(8) as u8);
        let hw = EthernetAddress::new(2, 0, 0, 0, 0, rng.below(4) as u8);
        match rng.below(100) {
            0..=29 => Step::Learn(iface, target, hw),
            30..=59 => Step::Miss(iface, target, step.to_be_bytes().to_vec()),
            60..=89 => Step::Flush,
            90..=98 => Step::Tick,
            _ => Step::Clear,
        }
    }

    /// Apply `step` as a node would (a miss enqueues only if `get`
    /// missed); `flush` stands in for [`ArpTable::flush_expired`].
    /// Returns what the step reported, for comparing two tables.
    fn apply(
        table: &mut ArpTable,
        step: &Step,
        now: Instant,
        flush: fn(&mut ArpTable, Instant),
    ) -> String {
        match step {
            Step::Learn(iface, target, hw) => {
                let released = table.learn(*iface, *target, *hw, now);
                format!(
                    "{:?}",
                    released.iter().map(|buf| buf.to_vec()).collect::<Vec<_>>()
                )
            }
            Step::Miss(iface, target, datagram) => match table.get(*iface, *target, now) {
                Some(hw) => format!("hit {hw:?}"),
                None => format!(
                    "{:?}",
                    table.enqueue(*iface, *target, datagram.clone(), now)
                ),
            },
            Step::Flush => {
                flush(table, now);
                String::new()
            }
            Step::Tick => format!("{:?}", table.tick(now)),
            Step::Clear => {
                table.clear();
                String::new()
            }
        }
    }

    /// The reference `flush_expired`: every interface's scan, every time.
    fn flush_brute(table: &mut ArpTable, now: Instant) {
        for entries in &mut table.entries {
            entries.retain(|_, entry| entry.expires_at > now);
        }
    }

    type Contents = (
        Vec<(usize, Ipv4Address, EthernetAddress, Instant)>,
        Vec<(usize, Ipv4Address, u32, Instant, Vec<Vec<u8>>)>,
    );

    /// Everything a table holds, in (interface, address) order.
    fn contents(table: &ArpTable) -> Contents {
        let mut entries: Vec<_> = table
            .entries
            .iter()
            .enumerate()
            .flat_map(|(iface, entries)| {
                entries
                    .iter()
                    .map(move |(&ip, entry)| (iface, ip, entry.hardware, entry.expires_at))
            })
            .collect();
        entries.sort_unstable_by_key(|entry| (entry.0, entry.1));
        let resolving = table
            .resolving
            .iter()
            .map(|(&(iface, ip), r)| {
                let waiting = r.waiting.iter().map(|buf| buf.to_vec()).collect();
                (iface, ip, r.attempts, r.next_retry, waiting)
            })
            .collect();
        (entries, resolving)
    }

    #[test]
    fn skipping_flush_scans_changes_nothing() {
        for seed in 0..16 {
            let mut rng = catenet_sim::Rng::from_seed(seed);
            let (mut fast, mut brute) = (ArpTable::new(), ArpTable::new());
            let mut now = Instant::ZERO;
            for step in 0..2_000u32 {
                now += Duration::from_millis(rng.below(8_000));
                let op = random_step(&mut rng, step);
                let got = apply(&mut fast, &op, now, ArpTable::flush_expired);
                assert_eq!(got, apply(&mut brute, &op, now, flush_brute));
                assert_eq!(
                    contents(&fast),
                    contents(&brute),
                    "seed {seed}, step {step}"
                );
                assert!(
                    fast.entries
                        .iter()
                        .flat_map(HashMap::values)
                        .all(|e| e.expires_at >= fast.next_expiry),
                    "seed {seed}, step {step}: the bound is above an entry"
                );
            }
        }
    }

    #[test]
    fn next_event_is_the_earliest_retry_after_every_step() {
        for seed in 0..16 {
            let mut rng = catenet_sim::Rng::from_seed(seed);
            let mut table = ArpTable::new();
            let mut now = Instant::ZERO;
            for step in 0..2_000u32 {
                now += Duration::from_millis(rng.below(3_000));
                let op = random_step(&mut rng, step);
                apply(&mut table, &op, now, ArpTable::flush_expired);
                let earliest = table.resolving.values().map(|r| r.next_retry).min();
                assert_eq!(table.next_event(), earliest, "seed {seed}, step {step}");
            }
        }
    }
}
