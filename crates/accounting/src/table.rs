//! The soft-state flow table.
//!
//! The seed's single `HashMap` table is honest but unbounded; this is
//! the same soft-state idea engineered for the ROADMAP's
//! ~10⁵-concurrent-flow target:
//!
//! - **Bounded capacity + exact LRU.** The table holds at most
//!   `capacity` flows ([`DEFAULT_CAPACITY`] unless built
//!   [`with_capacity`](FlowTable::with_capacity)) in one slab with an
//!   intrusive doubly-linked recency list and one index: observe = O(1)
//!   touch, overflow evicts the least-recently-seen flow in O(1) and
//!   counts it. Soft state means eviction is *safe* — the flow
//!   re-learns on its next datagram, exactly like a crash, only
//!   smaller.
//! - **Idle evaporation.** Recency order doubles as idle order, so
//!   expiry walks from the cold end and stops at the first live entry
//!   instead of scanning everything.
//! - **Reassembly-aware fragment attribution.** First fragments carry
//!   ports and register their [`FragKey`]; follow-on fragments look the
//!   ports up and join the right flow (`frag_attributed`), or fall into
//!   the portless bucket *counted* (`frag_unattributed`) — E7's stated
//!   approximation, measured instead of silent.
//!
//! A table lives in one gateway, and a gateway in one lane of the
//! executor, so nothing partitions it further.

use crate::flow::{Classified, FlowId, FlowState, FragKey};
use catenet_sim::{Duration, Instant};
use std::collections::HashMap;

/// Sentinel for "no slot" in the intrusive list.
const NIL: usize = usize::MAX;

/// Flow capacity of [`FlowTable::new`]: 131 072 flows, headroom over
/// the 10⁵ target.
pub const DEFAULT_CAPACITY: usize = 131_072;
/// Idle time after which a flow evaporates (soft state!): a flow not
/// seen for this long is gone at the next
/// [`expire_idle`](FlowTable::expire_idle).
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(30);
/// Time constant of the per-flow EWMA rate estimate: a gap of this
/// long moves the estimate ~63 % of the way to the new sample.
pub const RATE_TAU: Duration = Duration::from_secs(1);
/// Follow-on fragments can arrive before their first fragment or long
/// after; the port cache holds at most this many reassembly groups.
const FRAG_CACHE_CAP: usize = 256;
/// And remembers each group at most this long.
const FRAG_CACHE_TTL: Duration = Duration::from_secs(60);

/// One slab entry: a flow plus its position in the recency list.
#[derive(Debug, Clone)]
struct Slot {
    id: FlowId,
    state: FlowState,
    /// Toward the most recently seen entry.
    newer: usize,
    /// Toward the least recently seen entry.
    older: usize,
}

/// First-fragment port memory: what reassembly would know, scoped to
/// attribution. Bounded FIFO with a TTL; deterministic.
#[derive(Debug, Default)]
struct FragPortCache {
    map: HashMap<FragKey, (u16, u16, Instant)>,
    order: std::collections::VecDeque<FragKey>,
}

impl FragPortCache {
    fn insert(&mut self, key: FragKey, ports: (u16, u16), now: Instant) {
        if self.map.len() >= FRAG_CACHE_CAP && !self.map.contains_key(&key) {
            while let Some(oldest) = self.order.pop_front() {
                if self.map.remove(&oldest).is_some() {
                    break;
                }
            }
        }
        if self.map.insert(key, (ports.0, ports.1, now)).is_none() {
            self.order.push_back(key);
        }
    }

    fn lookup(&self, key: &FragKey, now: Instant) -> Option<(u16, u16)> {
        let &(src, dst, at) = self.map.get(key)?;
        (now.duration_since(at) < FRAG_CACHE_TTL).then_some((src, dst))
    }

    fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }
}

/// The gateway's soft-state flow table (bounded, exact LRU).
#[derive(Debug)]
pub struct FlowTable {
    /// Where each live flow sits in `slots`.
    index: HashMap<FlowId, usize>,
    slots: Vec<Slot>,
    /// Slots freed by eviction or expiry, reused before `slots` grows.
    free: Vec<usize>,
    /// Most recently seen slot.
    head: usize,
    /// Least recently seen slot.
    tail: usize,
    capacity: usize,
    frag_cache: FragPortCache,
    /// Total entries expired (idle evaporation) so far.
    pub expired: u64,
    /// Total entries evicted by LRU capacity pressure.
    pub evicted: u64,
    /// Total table losses (crashes).
    pub losses: u64,
    /// Follow-on fragments attributed to their flow via the port cache.
    pub frag_attributed: u64,
    /// Follow-on fragments that fell into the portless bucket because
    /// no first fragment was remembered — E7's measured approximation.
    pub frag_unattributed: u64,
}

impl FlowTable {
    /// A table of [`DEFAULT_CAPACITY`] flows.
    pub fn new() -> FlowTable {
        FlowTable::with_capacity(DEFAULT_CAPACITY)
    }

    /// A table that holds at most `capacity` flows, evicting the least
    /// recently seen one to admit another.
    pub fn with_capacity(capacity: usize) -> FlowTable {
        assert!(
            capacity > 0,
            "a flow table needs room for at least one flow"
        );
        FlowTable {
            index: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            frag_cache: FragPortCache::default(),
            expired: 0,
            evicted: 0,
            losses: 0,
            frag_attributed: 0,
            frag_unattributed: 0,
        }
    }

    /// Number of live flows.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The most flows the table holds at once.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Observe one forwarded datagram.
    pub fn observe(&mut self, datagram: &[u8], now: Instant) {
        let id = match FlowId::classify(datagram) {
            Classified::Direct(id) => id,
            Classified::FirstFragment(id, key) => {
                self.frag_cache.insert(key, (id.src_port, id.dst_port), now);
                id
            }
            Classified::FollowOn(portless, key) => {
                match self.frag_cache.lookup(&key, now) {
                    Some((src_port, dst_port)) => {
                        self.frag_attributed += 1;
                        FlowId {
                            src_port,
                            dst_port,
                            ..portless
                        }
                    }
                    None => {
                        self.frag_unattributed += 1;
                        portless
                    }
                }
            }
            Classified::Unparseable => return,
        };
        self.observe_flow(id, datagram.len() as u64, now);
    }

    /// Observe one datagram already resolved to a flow id (the churn
    /// benchmark path: no parsing, just table mechanics).
    pub fn observe_flow(&mut self, id: FlowId, bytes: u64, now: Instant) {
        match self.index.get(&id) {
            Some(&slot) => {
                let state = &mut self.slots[slot].state;
                let dt = now.duration_since(state.last_seen).secs_f64();
                let inst_rate = if dt > 0.0 { bytes as f64 / dt } else { 0.0 };
                // Exponentially weighted moving average with gap decay.
                let alpha = if dt > 0.0 {
                    1.0 - (-dt / RATE_TAU.secs_f64()).exp()
                } else {
                    0.0
                };
                state.rate_bps += alpha * (inst_rate - state.rate_bps);
                state.packets += 1;
                state.bytes += bytes;
                state.last_seen = now;
                self.touch(slot);
            }
            None => {
                if self.len() >= self.capacity {
                    // Bounded soft state: the coldest flow pays. It will
                    // re-learn from its next datagram, like a tiny crash.
                    self.evict_tail();
                    self.evicted += 1;
                }
                self.insert_front(
                    id,
                    FlowState {
                        packets: 1,
                        bytes,
                        first_seen: now,
                        last_seen: now,
                        rate_bps: 0.0,
                    },
                );
            }
        }
    }

    /// Look up a flow.
    pub fn get(&self, id: &FlowId) -> Option<&FlowState> {
        self.index.get(id).map(|&slot| &self.slots[slot].state)
    }

    /// Iterate flows in deterministic (sorted) order.
    pub fn iter_sorted(&self) -> Vec<(&FlowId, &FlowState)> {
        let mut entries: Vec<(&FlowId, &FlowState)> = self
            .index
            .values()
            .map(|&slot| (&self.slots[slot].id, &self.slots[slot].state))
            .collect();
        entries.sort_by_key(|(id, _)| **id);
        entries
    }

    /// Evaporate idle entries. The essence of soft state: nothing
    /// refreshes, nothing stays. Recency order doubles as idle order,
    /// so the walk starts at the cold end and stops early.
    pub fn expire_idle(&mut self, now: Instant) {
        while self.tail != NIL {
            let state = &self.slots[self.tail].state;
            if now.duration_since(state.last_seen) < IDLE_TIMEOUT {
                break;
            }
            self.evict_tail();
            self.expired += 1;
        }
    }

    /// When [`expire_idle`](FlowTable::expire_idle) next has work: the
    /// coldest flow's last sighting plus [`IDLE_TIMEOUT`], or `None`
    /// for an empty table. O(1), since recency order is idle order.
    pub fn next_expiry(&self) -> Option<Instant> {
        (self.tail != NIL).then(|| self.slots[self.tail].state.last_seen + IDLE_TIMEOUT)
    }

    /// Lose everything (gateway crash). The paper's point: this is
    /// *survivable* — the table rebuilds from the traffic itself.
    pub fn lose(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.frag_cache.clear();
        self.losses += 1;
    }

    /// Unlink `slot` from the recency list.
    fn unlink(&mut self, slot: usize) {
        let (newer, older) = (self.slots[slot].newer, self.slots[slot].older);
        if newer == NIL {
            self.head = older;
        } else {
            self.slots[newer].older = older;
        }
        if older == NIL {
            self.tail = newer;
        } else {
            self.slots[older].newer = newer;
        }
    }

    /// Link `slot` in as the most recently seen entry.
    fn link_front(&mut self, slot: usize) {
        self.slots[slot].newer = NIL;
        self.slots[slot].older = self.head;
        if self.head != NIL {
            self.slots[self.head].newer = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Move an existing slot to the front (freshly observed).
    fn touch(&mut self, slot: usize) {
        if self.head != slot {
            self.unlink(slot);
            self.link_front(slot);
        }
    }

    /// Remove the least-recently-seen flow. The caller checked that
    /// the table is not empty.
    fn evict_tail(&mut self) {
        let tail = self.tail;
        self.unlink(tail);
        self.index.remove(&self.slots[tail].id);
        self.free.push(tail);
    }

    /// Insert a new flow at the front, reusing a free slot if any.
    fn insert_front(&mut self, id: FlowId, state: FlowState) {
        let entry = Slot {
            id,
            state,
            newer: NIL,
            older: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = entry;
                slot
            }
            None => {
                self.slots.push(entry);
                self.slots.len() - 1
            }
        };
        self.index.insert(id, slot);
        self.link_front(slot);
    }
}

impl Default for FlowTable {
    fn default() -> Self {
        FlowTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catenet_ip::build_ipv4;
    use catenet_wire::{Ipv4Repr, Tos, UdpPacket, UdpRepr};
    use catenet_wire::{IpProtocol, Ipv4Address};

    fn udp_datagram(src_port: u16, dst_port: u16, len: usize) -> Vec<u8> {
        let udp_repr = UdpRepr {
            src_port,
            dst_port,
            payload_len: len,
        };
        let mut udp_buf = vec![0u8; udp_repr.buffer_len()];
        let src = Ipv4Address::new(10, 0, 0, 1);
        let dst = Ipv4Address::new(10, 9, 0, 1);
        {
            let mut udp = UdpPacket::new_unchecked(&mut udp_buf[..]);
            udp_repr.emit(&mut udp);
            udp.fill_checksum(src, dst);
        }
        build_ipv4(
            &Ipv4Repr {
                src_addr: src,
                dst_addr: dst,
                protocol: IpProtocol::Udp,
                payload_len: udp_buf.len(),
                hop_limit: 64,
                tos: Tos::default(),
            },
            1,
            false,
            &udp_buf,
        )
    }

    fn flow(i: u32) -> FlowId {
        FlowId {
            src_addr: Ipv4Address::new(10, (i >> 16) as u8, (i >> 8) as u8, i as u8),
            dst_addr: Ipv4Address::new(10, 9, 0, 1),
            protocol: 17,
            src_port: 5000,
            dst_port: 6000,
        }
    }

    #[test]
    fn observe_accumulates() {
        let mut table = FlowTable::new();
        let dgram = udp_datagram(5000, 6000, 100);
        for i in 0..10 {
            table.observe(&dgram, Instant::from_millis(i * 10));
        }
        assert_eq!(table.len(), 1);
        let id = FlowId::of_datagram(&dgram).unwrap();
        let state = table.get(&id).unwrap();
        assert_eq!(state.packets, 10);
        assert_eq!(state.bytes, 10 * dgram.len() as u64);
        assert_eq!(state.first_seen, Instant::ZERO);
        assert_eq!(state.last_seen, Instant::from_millis(90));
    }

    #[test]
    fn rate_estimate_converges() {
        let mut table = FlowTable::new();
        let dgram = udp_datagram(5000, 6000, 972); // 1000-byte datagram
        // 1000 bytes every 10 ms = 100 kB/s.
        for i in 0..500 {
            table.observe(&dgram, Instant::from_millis(i * 10));
        }
        let id = FlowId::of_datagram(&dgram).unwrap();
        let state = table.get(&id).unwrap();
        assert!(
            state.rate_within(100_000.0, 0.1),
            "rate estimate {} not within 10% of 100 kB/s",
            state.rate_bps
        );
    }

    #[test]
    fn distinct_flows_tracked_separately() {
        let mut table = FlowTable::new();
        table.observe(&udp_datagram(1, 2, 10), Instant::ZERO);
        table.observe(&udp_datagram(3, 4, 10), Instant::ZERO);
        assert_eq!(table.len(), 2);
        let sorted = table.iter_sorted();
        assert!(sorted[0].0 < sorted[1].0);
    }

    #[test]
    fn idle_entries_evaporate() {
        let mut table = FlowTable::new();
        table.observe(&udp_datagram(1, 2, 10), Instant::ZERO);
        table.observe(&udp_datagram(3, 4, 10), Instant::from_secs(29));
        table.expire_idle(Instant::from_secs(31));
        assert_eq!(table.len(), 1, "only the idle flow evaporated");
        assert_eq!(table.expired, 1);
    }

    #[test]
    fn lose_clears_but_rebuilds() {
        let mut table = FlowTable::new();
        let dgram = udp_datagram(5000, 6000, 100);
        table.observe(&dgram, Instant::ZERO);
        table.lose();
        assert!(table.is_empty());
        assert_eq!(table.losses, 1);
        // Traffic keeps flowing: the table rebuilds without help.
        table.observe(&dgram, Instant::from_millis(10));
        assert_eq!(table.len(), 1);
        let id = FlowId::of_datagram(&dgram).unwrap();
        assert_eq!(table.get(&id).unwrap().packets, 1);
    }

    #[test]
    fn garbage_input_ignored() {
        let mut table = FlowTable::new();
        table.observe(&[0u8; 10], Instant::ZERO);
        assert!(table.is_empty());
    }

    #[test]
    fn capacity_bound_evicts_exact_lru() {
        // Capacity 3: the least-recently-observed flow pays.
        let mut table = FlowTable::with_capacity(3);
        let now = |ms| Instant::from_millis(ms);
        table.observe_flow(flow(1), 100, now(0));
        table.observe_flow(flow(2), 100, now(1));
        table.observe_flow(flow(3), 100, now(2));
        // Touch flow 1 so flow 2 is the coldest.
        table.observe_flow(flow(1), 100, now(3));
        table.observe_flow(flow(4), 100, now(4));
        assert_eq!(table.len(), 3);
        assert_eq!(table.evicted, 1);
        assert!(table.get(&flow(2)).is_none(), "LRU victim was flow 2");
        assert!(table.get(&flow(1)).is_some());
        assert!(table.get(&flow(3)).is_some());
        assert!(table.get(&flow(4)).is_some());
    }

    #[test]
    fn eviction_then_return_relearns() {
        let mut table = FlowTable::with_capacity(2);
        table.observe_flow(flow(1), 100, Instant::from_millis(0));
        table.observe_flow(flow(2), 100, Instant::from_millis(1));
        table.observe_flow(flow(3), 100, Instant::from_millis(2)); // evicts 1
        table.observe_flow(flow(1), 100, Instant::from_millis(3)); // evicts 2, re-learns 1
        assert_eq!(table.evicted, 2);
        let state = table.get(&flow(1)).unwrap();
        assert_eq!(state.packets, 1, "re-learned from scratch, like a crash");
        assert_eq!(state.first_seen, Instant::from_millis(3));
    }

    #[test]
    fn expire_idle_stops_at_first_live_entry() {
        let mut table = FlowTable::with_capacity(16);
        for i in 0..8 {
            table.observe_flow(flow(i), 64, Instant::from_secs(u64::from(i)));
        }
        table.expire_idle(Instant::from_secs(34));
        // Flows observed at t=0..4 are ≥ 30 s idle; 5..7 live on.
        assert_eq!(table.len(), 3);
        assert_eq!(table.expired, 5);
        assert!(table.get(&flow(4)).is_none());
        assert!(table.get(&flow(5)).is_some());
    }

    fn udp_fragments(src_port: u16, dst_port: u16, ident: u16) -> (Vec<u8>, Vec<u8>) {
        // Build a UDP datagram and split it into two raw IP fragments.
        let whole = udp_datagram(src_port, dst_port, 64);
        let header_len = 20;
        let payload = &whole[header_len..];
        let (first_pay, rest_pay) = payload.split_at(32);
        let src = Ipv4Address::new(10, 0, 0, 1);
        let dst = Ipv4Address::new(10, 9, 0, 1);
        let mk = |pay: &[u8], offset: u16, more: bool| {
            let mut buf = vec![0u8; 20 + pay.len()];
            {
                let mut p = catenet_wire::Ipv4Packet::new_unchecked(&mut buf[..]);
                p.set_version_and_header_len();
                p.set_tos(Tos::default());
                p.set_total_len((20 + pay.len()) as u16);
                p.set_ident(ident);
                p.set_flags_and_frag_offset(
                    catenet_wire::Ipv4Flags {
                        dont_frag: false,
                        more_frags: more,
                    },
                    offset,
                );
                p.set_hop_limit(64);
                p.set_protocol(IpProtocol::Udp);
                p.set_src_addr(src);
                p.set_dst_addr(dst);
                p.payload_mut().copy_from_slice(pay);
                p.fill_checksum();
            }
            buf
        };
        (mk(first_pay, 0, true), mk(rest_pay, 32, false))
    }

    #[test]
    fn follow_on_fragments_attributed_via_port_cache() {
        let mut table = FlowTable::new();
        let (first, rest) = udp_fragments(5000, 6000, 77);
        table.observe(&first, Instant::ZERO);
        table.observe(&rest, Instant::from_millis(1));
        assert_eq!(table.frag_attributed, 1);
        assert_eq!(table.frag_unattributed, 0);
        // Both fragments landed in the ported flow; no portless entry.
        assert_eq!(table.len(), 1);
        let id = FlowId::of_datagram(&first).unwrap();
        assert_eq!(id.src_port, 5000);
        assert_eq!(table.get(&id).unwrap().packets, 2);
    }

    #[test]
    fn orphan_follow_on_counted_unattributed() {
        let mut table = FlowTable::new();
        let (_, rest) = udp_fragments(5000, 6000, 78);
        // The first fragment never arrives (lost upstream).
        table.observe(&rest, Instant::ZERO);
        assert_eq!(table.frag_unattributed, 1);
        let entries = table.iter_sorted();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0.src_port, 0, "portless bucket");
    }

    #[test]
    fn crash_forgets_fragment_ports_too() {
        let mut table = FlowTable::new();
        let (first, rest) = udp_fragments(5000, 6000, 79);
        table.observe(&first, Instant::ZERO);
        table.lose();
        table.observe(&rest, Instant::from_millis(1));
        assert_eq!(
            table.frag_unattributed, 1,
            "port memory is volatile state and died with the table"
        );
    }

    /// What an exact LRU of `capacity` flows holds, most recently seen
    /// first, and what it has evicted and expired: the brute-force
    /// reference the table must equal after every step.
    struct Model {
        capacity: usize,
        recency: Vec<(u32, Instant)>,
        evicted: u64,
        expired: u64,
    }

    impl Model {
        fn observe(&mut self, id: u32, now: Instant) {
            if let Some(at) = self.recency.iter().position(|&(seen, _)| seen == id) {
                self.recency.remove(at);
            } else if self.recency.len() == self.capacity {
                self.recency.pop();
                self.evicted += 1;
            }
            self.recency.insert(0, (id, now));
        }

        fn expire_idle(&mut self, now: Instant) {
            let live = |&(_, seen): &(u32, Instant)| now.duration_since(seen) < IDLE_TIMEOUT;
            let before = self.recency.len();
            self.recency.retain(live);
            self.expired += (before - self.recency.len()) as u64;
        }
    }

    #[test]
    fn the_table_is_an_exact_lru() {
        for case in 0..16 {
            let mut rng = catenet_sim::Rng::for_case("the_table_is_an_exact_lru", case);
            let capacity = 1 + (case % 8) as usize;
            let mut table = FlowTable::with_capacity(capacity);
            let mut model = Model {
                capacity,
                recency: Vec::new(),
                evicted: 0,
                expired: 0,
            };
            let mut now = Instant::ZERO;
            for step in 0..2_000 {
                now += Duration::from_millis(rng.below(20_000));
                match rng.below(100) {
                    0..=79 => {
                        let id = rng.below(12) as u32;
                        table.observe_flow(flow(id), 64, now);
                        model.observe(id, now);
                    }
                    80..=97 => {
                        table.expire_idle(now);
                        model.expire_idle(now);
                    }
                    _ => {
                        table.lose();
                        model.recency.clear();
                    }
                }
                let mut live: Vec<FlowId> = model.recency.iter().map(|&(id, _)| flow(id)).collect();
                live.sort_unstable();
                let got: Vec<FlowId> = table.iter_sorted().into_iter().map(|(id, _)| *id).collect();
                let at = format!("case {case}, step {step}");
                assert_eq!(got, live, "{at}");
                assert_eq!(table.len(), live.len(), "{at}");
                assert_eq!(table.evicted, model.evicted, "{at}");
                assert_eq!(table.expired, model.expired, "{at}");
                let coldest = model.recency.iter().map(|&(_, seen)| seen).min();
                assert_eq!(table.next_expiry(), coldest.map(|seen| seen + IDLE_TIMEOUT), "{at}");
            }
        }
    }
}
