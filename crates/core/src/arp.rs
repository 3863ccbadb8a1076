//! The ARP cache: hardware-address resolution on Ethernet-framed links.
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

use crate::pool::PacketBuf;
use catenet_sim::{Duration, Instant};
use catenet_wire::{EthernetAddress, Ipv4Address};
use std::collections::HashMap;

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

/// An in-progress resolution attempt for one target.
#[derive(Debug, Clone)]
struct RequestState {
    /// Requests sent so far (>= 1 once the state exists).
    attempts: u32,
    /// When the next retry (or give-up) is due.
    next_retry: Instant,
}

/// What backoff applies after the `attempts`-th request.
fn backoff_after(attempts: u32) -> Duration {
    REQUEST_INTERVAL * (1u32 << attempts.saturating_sub(1).min(MAX_BACKOFF_SHIFT))
}

/// The outcome of one [`ArpCache::tick`]: which targets to re-request
/// and which resolutions were abandoned.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ArpTick {
    /// Targets whose request should be retransmitted now, in address order.
    pub retries: Vec<Ipv4Address>,
    /// Targets given up on, with the number of pending datagrams dropped
    /// for each, in address order.
    pub gave_up: Vec<(Ipv4Address, usize)>,
}

/// The cache plus pending-datagram queue.
#[derive(Debug, Default)]
pub struct ArpCache {
    entries: HashMap<Ipv4Address, Entry>,
    /// A lower bound on the earliest `expires_at` in `entries`: every
    /// [`learn`](ArpCache::learn) lowers it, and
    /// [`flush_expired`](ArpCache::flush_expired)'s scan leaves it
    /// exact. Before this instant nothing can expire and the flush
    /// skips its scan.
    next_expiry: Instant,
    /// Datagrams waiting for resolution, per target. Held as pooled
    /// buffers so release on `learn` re-enters the fast path copy-free.
    pending: HashMap<Ipv4Address, Vec<PacketBuf>>,
    /// Outstanding request per target (retry/backoff state).
    requests: HashMap<Ipv4Address, RequestState>,
}

/// The outcome of a transmit-side lookup.
#[derive(Debug, PartialEq, Eq)]
pub enum Resolution {
    /// The hardware address is known.
    Known(EthernetAddress),
    /// Unknown; the datagram was queued and a request should be sent.
    RequestAndWait,
    /// Unknown; the datagram was queued, a request was sent recently.
    Wait,
    /// Unknown and the pending queue is full; the datagram was dropped.
    QueueFull,
}

impl ArpCache {
    /// An empty cache.
    pub fn new() -> ArpCache {
        ArpCache::default()
    }

    /// Number of live entries at `now`.
    pub fn len(&self, now: Instant) -> usize {
        self.entries
            .values()
            .filter(|entry| entry.expires_at > now)
            .count()
    }

    /// Whether the cache holds no live entries.
    pub fn is_empty(&self, now: Instant) -> bool {
        self.len(now) == 0
    }

    /// Look up without side effects.
    pub fn get(&self, target: Ipv4Address, now: Instant) -> Option<EthernetAddress> {
        self.entries
            .get(&target)
            .filter(|entry| entry.expires_at > now)
            .map(|entry| entry.hardware)
    }

    /// Transmit-side resolution: returns the hardware address or queues
    /// `datagram` for later and says whether to emit a request.
    pub fn resolve(
        &mut self,
        target: Ipv4Address,
        datagram: impl Into<PacketBuf>,
        now: Instant,
    ) -> Resolution {
        if let Some(hw) = self.get(target, now) {
            return Resolution::Known(hw);
        }
        let queue = self.pending.entry(target).or_default();
        if queue.len() >= PENDING_LIMIT {
            return Resolution::QueueFull;
        }
        queue.push(datagram.into());
        match self.requests.get_mut(&target) {
            None => {
                self.requests.insert(
                    target,
                    RequestState {
                        attempts: 1,
                        next_retry: now + backoff_after(1),
                    },
                );
                Resolution::RequestAndWait
            }
            Some(state) if now >= state.next_retry => {
                state.attempts += 1;
                state.next_retry = now + backoff_after(state.attempts);
                Resolution::RequestAndWait
            }
            Some(_) => Resolution::Wait,
        }
    }

    /// Advance the retry machinery to `now`. Each due request either
    /// earns a retransmission (attempts left) or is abandoned, dropping
    /// its pending datagrams. Results are sorted by address so callers
    /// behave deterministically regardless of hash order.
    pub fn tick(&mut self, now: Instant) -> ArpTick {
        let mut due: Vec<Ipv4Address> = self
            .requests
            .iter()
            .filter(|(_, state)| state.next_retry <= now)
            .map(|(&target, _)| target)
            .collect();
        due.sort_unstable();
        let mut tick = ArpTick::default();
        for target in due {
            let Some(state) = self.requests.get_mut(&target) else {
                continue;
            };
            if state.attempts >= MAX_REQUEST_ATTEMPTS {
                self.requests.remove(&target);
                let dropped = self.pending.remove(&target).map_or(0, |q| q.len());
                tick.gave_up.push((target, dropped));
            } else {
                state.attempts += 1;
                state.next_retry = now + backoff_after(state.attempts);
                tick.retries.push(target);
            }
        }
        tick
    }

    /// When the next retry or give-up is due, if any resolution is in
    /// progress.
    pub fn next_event(&self) -> Option<Instant> {
        self.requests.values().map(|state| state.next_retry).min()
    }

    /// Learn (or refresh) a mapping; returns any datagrams that were
    /// waiting for it.
    pub fn learn(
        &mut self,
        protocol: Ipv4Address,
        hardware: EthernetAddress,
        now: Instant,
    ) -> Vec<PacketBuf> {
        let expires_at = now + ENTRY_LIFETIME;
        self.entries.insert(
            protocol,
            Entry {
                hardware,
                expires_at,
            },
        );
        self.next_expiry = self.next_expiry.min(expires_at);
        self.requests.remove(&protocol);
        self.pending.remove(&protocol).unwrap_or_default()
    }

    /// Drop expired entries and orphaned pending queues.
    pub fn flush_expired(&mut self, now: Instant) {
        if now >= self.next_expiry {
            let mut next_expiry = Instant::FAR_FUTURE;
            self.entries.retain(|_, entry| {
                let live = entry.expires_at > now;
                if live {
                    next_expiry = next_expiry.min(entry.expires_at);
                }
                live
            });
            self.next_expiry = next_expiry;
        }
        // Pending datagrams with no resolution in progress are hopeless
        // (give-up in `tick` already removes them; this is a backstop).
        if !self.pending.is_empty() {
            let requests = &self.requests;
            self.pending
                .retain(|target, _| requests.contains_key(target));
        }
    }

    /// Forget everything (node reboot).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.pending.clear();
        self.requests.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IP: Ipv4Address = Ipv4Address::new(10, 0, 0, 9);
    const HW: EthernetAddress = EthernetAddress::new(2, 0, 0, 0, 0, 9);

    #[test]
    fn miss_queues_and_requests() {
        let mut cache = ArpCache::new();
        let r = cache.resolve(IP, b"pkt1".to_vec(), Instant::ZERO);
        assert_eq!(r, Resolution::RequestAndWait);
        // Second miss within the rate-limit window queues silently.
        let r = cache.resolve(IP, b"pkt2".to_vec(), Instant::from_millis(100));
        assert_eq!(r, Resolution::Wait);
        // After the interval, we may ask again.
        let r = cache.resolve(IP, b"pkt3".to_vec(), Instant::from_millis(1100));
        assert_eq!(r, Resolution::RequestAndWait);
    }

    #[test]
    fn learn_returns_pending_in_order() {
        let mut cache = ArpCache::new();
        cache.resolve(IP, b"pkt1".to_vec(), Instant::ZERO);
        cache.resolve(IP, b"pkt2".to_vec(), Instant::ZERO);
        let released = cache.learn(IP, HW, Instant::from_millis(5));
        assert_eq!(released.len(), 2);
        assert_eq!(&released[0][..], b"pkt1");
        assert_eq!(&released[1][..], b"pkt2");
        assert_eq!(cache.get(IP, Instant::from_millis(5)), Some(HW));
        // Subsequent resolution is a straight hit.
        assert_eq!(
            cache.resolve(IP, b"pkt3".to_vec(), Instant::from_millis(6)),
            Resolution::Known(HW)
        );
    }

    #[test]
    fn entries_expire() {
        let mut cache = ArpCache::new();
        cache.learn(IP, HW, Instant::ZERO);
        assert!(cache.get(IP, Instant::from_secs(59)).is_some());
        assert!(cache.get(IP, Instant::from_secs(61)).is_none());
        cache.flush_expired(Instant::from_secs(61));
        assert!(cache.is_empty(Instant::from_secs(61)));
    }

    #[test]
    fn queue_caps_at_limit() {
        let mut cache = ArpCache::new();
        for i in 0..PENDING_LIMIT {
            let r = cache.resolve(IP, vec![i as u8], Instant::ZERO);
            assert_ne!(r, Resolution::QueueFull);
        }
        assert_eq!(
            cache.resolve(IP, b"overflow".to_vec(), Instant::ZERO),
            Resolution::QueueFull
        );
        // Learning releases exactly the queued ones.
        assert_eq!(cache.learn(IP, HW, Instant::ZERO).len(), PENDING_LIMIT);
    }

    #[test]
    fn refresh_extends_lifetime() {
        let mut cache = ArpCache::new();
        cache.learn(IP, HW, Instant::ZERO);
        cache.learn(IP, HW, Instant::from_secs(50));
        assert!(cache.get(IP, Instant::from_secs(100)).is_some());
    }

    #[test]
    fn clear_forgets_all() {
        let mut cache = ArpCache::new();
        cache.learn(IP, HW, Instant::ZERO);
        cache.resolve(Ipv4Address::new(10, 0, 0, 8), b"x".to_vec(), Instant::ZERO);
        cache.clear();
        assert!(cache.get(IP, Instant::ZERO).is_none());
        assert!(cache.is_empty(Instant::ZERO));
        assert!(cache.next_event().is_none());
    }

    #[test]
    fn distinct_targets_independent() {
        let other_ip = Ipv4Address::new(10, 0, 0, 10);
        let other_hw = EthernetAddress::new(2, 0, 0, 0, 0, 10);
        let mut cache = ArpCache::new();
        cache.learn(IP, HW, Instant::ZERO);
        cache.learn(other_ip, other_hw, Instant::ZERO);
        assert_eq!(cache.get(IP, Instant::ZERO), Some(HW));
        assert_eq!(cache.get(other_ip, Instant::ZERO), Some(other_hw));
        assert_eq!(cache.len(Instant::ZERO), 2);
    }

    #[test]
    fn tick_retries_with_exponential_backoff() {
        let mut cache = ArpCache::new();
        cache.resolve(IP, b"pkt".to_vec(), Instant::ZERO);
        // Attempt 1 at t=0; retries due at 1 s, then +2 s, +4 s, +8 s.
        assert_eq!(cache.next_event(), Some(Instant::from_secs(1)));
        assert!(cache.tick(Instant::from_millis(999)).retries.is_empty());

        let mut retry_times = Vec::new();
        for _ in 0..4 {
            let now = cache.next_event().expect("request in progress");
            let tick = cache.tick(now);
            assert_eq!(tick.retries, vec![IP]);
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
        let mut cache = ArpCache::new();
        cache.resolve(IP, b"pkt1".to_vec(), Instant::ZERO);
        cache.resolve(IP, b"pkt2".to_vec(), Instant::from_millis(10));
        let mut gave_up_at = None;
        while let Some(at) = cache.next_event() {
            let tick = cache.tick(at);
            if !tick.gave_up.is_empty() {
                assert_eq!(tick.gave_up, vec![(IP, 2)]);
                assert!(tick.retries.is_empty());
                gave_up_at = Some(at);
            }
        }
        // Backoff 1+2+4+8 then a final 8 s wait before abandoning.
        let now = gave_up_at.expect("resolution abandoned");
        assert_eq!(now, Instant::from_secs(23));
        assert!(cache.next_event().is_none());
        // The slate is clean: a new resolve starts over at attempt 1.
        assert_eq!(
            cache.resolve(IP, b"pkt3".to_vec(), now),
            Resolution::RequestAndWait
        );
        assert_eq!(cache.next_event(), Some(now + REQUEST_INTERVAL));
    }

    #[test]
    fn learn_cancels_outstanding_request() {
        let mut cache = ArpCache::new();
        cache.resolve(IP, b"pkt".to_vec(), Instant::ZERO);
        assert!(cache.next_event().is_some());
        cache.learn(IP, HW, Instant::from_millis(500));
        assert!(cache.next_event().is_none());
        let tick = cache.tick(Instant::from_secs(30));
        assert_eq!(tick, ArpTick::default());
    }

    /// The reference `flush_expired` must match: both scans, every time.
    fn flush_brute(cache: &mut ArpCache, now: Instant) {
        cache.entries.retain(|_, entry| entry.expires_at > now);
        let requests = &cache.requests;
        cache
            .pending
            .retain(|target, _| requests.contains_key(target));
    }

    type Contents = (
        Vec<(Ipv4Address, EthernetAddress, Instant)>,
        Vec<(Ipv4Address, Vec<Vec<u8>>)>,
        Vec<(Ipv4Address, u32, Instant)>,
    );

    /// Everything a cache holds, in address order.
    fn contents(cache: &ArpCache) -> Contents {
        let mut entries: Vec<_> = cache
            .entries
            .iter()
            .map(|(&ip, entry)| (ip, entry.hardware, entry.expires_at))
            .collect();
        let mut pending: Vec<_> = cache
            .pending
            .iter()
            .map(|(&ip, queue)| (ip, queue.iter().map(|buf| buf.to_vec()).collect()))
            .collect();
        let mut requests: Vec<_> = cache
            .requests
            .iter()
            .map(|(&ip, state)| (ip, state.attempts, state.next_retry))
            .collect();
        entries.sort_unstable_by_key(|entry| entry.0);
        pending.sort_unstable_by_key(|queue| queue.0);
        requests.sort_unstable_by_key(|request| request.0);
        (entries, pending, requests)
    }

    #[test]
    fn skipping_flush_scans_changes_nothing() {
        for seed in 0..16 {
            let mut rng = catenet_sim::Rng::from_seed(seed);
            let (mut fast, mut brute) = (ArpCache::new(), ArpCache::new());
            let mut now = Instant::ZERO;
            for step in 0..2_000u32 {
                now += Duration::from_millis(rng.below(8_000));
                let target = Ipv4Address::new(10, 0, 0, rng.below(8) as u8);
                let hw = EthernetAddress::new(2, 0, 0, 0, 0, rng.below(4) as u8);
                match rng.below(100) {
                    0..=29 => {
                        let released = fast.learn(target, hw, now);
                        let expected = brute.learn(target, hw, now);
                        assert_eq!(released.len(), expected.len());
                    }
                    30..=59 => {
                        let datagram = step.to_be_bytes().to_vec();
                        let got = fast.resolve(target, datagram.clone(), now);
                        assert_eq!(got, brute.resolve(target, datagram, now));
                    }
                    60..=89 => {
                        fast.flush_expired(now);
                        flush_brute(&mut brute, now);
                    }
                    90..=98 => assert_eq!(fast.tick(now), brute.tick(now)),
                    _ => {
                        fast.clear();
                        brute.clear();
                    }
                }
                assert_eq!(
                    contents(&fast),
                    contents(&brute),
                    "seed {seed}, step {step}"
                );
                assert!(
                    fast.entries
                        .values()
                        .all(|e| e.expires_at >= fast.next_expiry),
                    "seed {seed}, step {step}: the bound is above an entry"
                );
            }
        }
    }

    #[test]
    fn tick_orders_multiple_targets_by_address() {
        let a = Ipv4Address::new(10, 0, 0, 3);
        let b = Ipv4Address::new(10, 0, 0, 1);
        let c = Ipv4Address::new(10, 0, 0, 2);
        let mut cache = ArpCache::new();
        for ip in [a, b, c] {
            cache.resolve(ip, b"x".to_vec(), Instant::ZERO);
        }
        let tick = cache.tick(Instant::from_secs(1));
        assert_eq!(tick.retries, vec![b, c, a]);
    }
}
