//! IPv4 fragmentation and reassembly (RFC 791 §2.3, §3.2).
//!
//! Fragmentation is the concession the internet layer makes to the
//! "variety of networks" goal: rather than require every network to carry
//! the largest datagram any host might send, a gateway may split a
//! datagram to fit the next network's MTU, and *only the destination host*
//! reassembles — gateways never hold fragments, keeping them stateless
//! (the survivability goal again).
//!
//! The cost the paper acknowledges (§7, cost-effectiveness): losing any
//! one fragment loses the whole datagram, so fragmented traffic amplifies
//! loss. Experiment E3 measures exactly this.

use catenet_sim::{Duration, Instant};
use catenet_wire::{Ipv4Flags, Ipv4FragKey, Ipv4Packet, IPV4_HEADER_LEN};
use std::collections::hash_map::{Entry, HashMap};

/// Errors from fragmentation or reassembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FragError {
    /// The datagram needs fragmenting but carries the Don't-Fragment flag.
    /// A gateway answers this with ICMP "fragmentation required".
    DontFragment,
    /// The MTU cannot fit even a single 8-byte payload slice.
    MtuTooSmall,
    /// The input was not a valid IPv4 packet.
    Malformed,
    /// Fragments describe a datagram larger than the reassembler accepts.
    TooLarge,
    /// Two fragments disagree about overlapping bytes (suspicious; the
    /// whole reassembly is abandoned, the conservative 1988 response).
    InconsistentOverlap,
}

impl core::fmt::Display for FragError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FragError::DontFragment => write!(f, "fragmentation needed but DF set"),
            FragError::MtuTooSmall => write!(f, "MTU too small to fragment into"),
            FragError::Malformed => write!(f, "malformed fragment"),
            FragError::TooLarge => write!(f, "reassembled datagram too large"),
            FragError::InconsistentOverlap => write!(f, "inconsistent fragment overlap"),
        }
    }
}

impl std::error::Error for FragError {}

/// Split `datagram` (a complete, checksummed IPv4 packet) into fragments
/// that each fit in `mtu` bytes. Returns the input unchanged (as a single
/// element) if it already fits.
pub fn fragment(datagram: &[u8], mtu: usize) -> Result<Vec<Vec<u8>>, FragError> {
    if datagram.len() <= mtu {
        return Ok(vec![datagram.to_vec()]);
    }
    let mut fragments = Vec::new();
    fragment_with(datagram, mtu, |piece| {
        let mut buffer = vec![0u8; piece.len()];
        piece.emit(&mut buffer);
        fragments.push(buffer);
    })?;
    Ok(fragments)
}

/// One fragment of a datagram being split: what [`fragment_with`] hands
/// its caller, who supplies the memory it is emitted into.
#[derive(Debug, Clone, Copy)]
pub struct Piece<'a> {
    header: &'a [u8],
    chunk: &'a [u8],
    offset: u16,
    more_frags: bool,
}

impl Piece<'_> {
    /// Length of the fragment: header plus its slice of the payload.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        IPV4_HEADER_LEN + self.chunk.len()
    }

    /// The fragment's slice of the original payload.
    pub fn payload(&self) -> &[u8] {
        self.chunk
    }

    /// Write the fragment's header — the original's, with this
    /// fragment's length, fragmentation fields and checksum — into the
    /// first [`IPV4_HEADER_LEN`] bytes of `buffer`; the rest is the
    /// caller's, for [`payload`](Piece::payload).
    pub fn emit_header(&self, buffer: &mut [u8]) {
        let header = &mut buffer[..IPV4_HEADER_LEN];
        header.copy_from_slice(self.header);
        let mut frag = Ipv4Packet::new_unchecked(header);
        frag.set_version_and_header_len(); // normalize: we copied 20 bytes only
        frag.set_total_len(self.len() as u16);
        frag.set_flags_and_frag_offset(
            Ipv4Flags {
                dont_frag: false,
                more_frags: self.more_frags,
            },
            self.offset,
        );
        frag.fill_checksum();
    }

    /// Write the whole fragment — header, then payload — into `buffer`,
    /// which must be exactly [`len`](Piece::len) bytes.
    pub fn emit(&self, buffer: &mut [u8]) {
        self.emit_header(buffer);
        buffer[IPV4_HEADER_LEN..].copy_from_slice(self.chunk);
    }
}

/// The split itself: call `each` with every [`Piece`] of a `datagram`
/// that does not fit `mtu`, in offset order. [`fragment`] emits them into
/// vectors; a node emits them into pooled buffers with headroom.
pub fn fragment_with(
    datagram: &[u8],
    mtu: usize,
    mut each: impl FnMut(Piece<'_>),
) -> Result<(), FragError> {
    let packet = Ipv4Packet::new_checked(datagram).map_err(|_| FragError::Malformed)?;
    if packet.flags().dont_frag {
        return Err(FragError::DontFragment);
    }
    // Each fragment's payload must be a multiple of 8 (except the last).
    let slice = (mtu.saturating_sub(IPV4_HEADER_LEN)) & !7;
    if slice == 0 {
        return Err(FragError::MtuTooSmall);
    }

    let payload = packet.payload();
    let base_offset = packet.frag_offset(); // refragmenting a fragment is legal
    let original_more = packet.flags().more_frags;
    let mut offset = 0usize;
    while offset < payload.len() {
        let end = (offset + slice).min(payload.len());
        each(Piece {
            header: &datagram[..IPV4_HEADER_LEN],
            chunk: &payload[offset..end],
            offset: base_offset + offset as u16,
            more_frags: end < payload.len() || original_more,
        });
        offset = end;
    }
    Ok(())
}

#[derive(Debug)]
struct Partial {
    /// Whether the offset-zero fragment's header is in `data[..20]`.
    has_header: bool,
    /// The datagram being rebuilt: room for the header, then the
    /// upper-layer payload as far as it has been seen.
    data: Vec<u8>,
    /// Payload bytes held contiguously from offset zero: all there is to
    /// track while fragments arrive in order.
    prefix: usize,
    /// Byte ranges held beyond the prefix: sorted, coalesced, none
    /// touching it.
    ranges: Vec<(usize, usize)>,
    /// Total payload length, known once the MF=0 fragment arrives.
    total_len: Option<usize>,
    /// When this reassembly gives up.
    deadline: Instant,
}

impl Partial {
    /// A reassembly with room reserved for `reserve` payload bytes
    /// behind the header.
    fn new(deadline: Instant, reserve: usize) -> Partial {
        let mut data = Vec::with_capacity(IPV4_HEADER_LEN + reserve);
        data.resize(IPV4_HEADER_LEN, 0);
        Partial {
            has_header: false,
            data,
            prefix: 0,
            ranges: Vec::new(),
            total_len: None,
            deadline,
        }
    }

    /// Take in one fragment (checked by the caller); `Ok(true)` once the
    /// datagram is whole.
    fn accept(&mut self, fragment: &[u8]) -> Result<bool, FragError> {
        let packet = Ipv4Packet::new_unchecked(fragment);
        let start = usize::from(packet.frag_offset());
        let bytes = packet.payload();
        let end = start + bytes.len();
        if start == 0 {
            self.data[..IPV4_HEADER_LEN].copy_from_slice(&fragment[..IPV4_HEADER_LEN]);
            self.has_header = true;
        }
        if !packet.flags().more_frags {
            self.total_len = Some(end);
        }
        // What is already held of the newcomer's bytes must agree with
        // it; the ranges it touches or overlaps merge with it in place.
        // (Every held byte lies inside `data`, so nothing is compared
        // past its end.)
        let payload = &self.data[IPV4_HEADER_LEN..];
        let agrees = |&(r0, r1): &(usize, usize)| {
            let (a, b) = (start.max(r0), end.min(r1));
            a >= b || payload[a..b] == bytes[a - start..b - start]
        };
        let lo = self.ranges.partition_point(|&(_, r1)| r1 < start);
        let hi = self.ranges.partition_point(|&(r0, _)| r0 <= end);
        let touched = &self.ranges[lo..hi];
        if !agrees(&(0, self.prefix)) || !touched.iter().all(agrees) {
            return Err(FragError::InconsistentOverlap);
        }
        let merged = touched
            .iter()
            .fold((start, end), |(m0, m1), &(r0, r1)| (m0.min(r0), m1.max(r1)));
        // In order, the newcomer starts where `data` ends and is simply
        // appended. Out of order, it fills bytes `data` already spans (a
        // hole, zero until now, or a duplicate) and appends the rest; one
        // that starts past the end leaves a zeroed hole in front of it.
        let at = IPV4_HEADER_LEN + start;
        if self.data.len() < at {
            self.data.resize(at, 0);
        }
        let inside = (self.data.len() - at).min(bytes.len());
        self.data[at..at + inside].copy_from_slice(&bytes[..inside]);
        self.data.extend_from_slice(&bytes[inside..]);
        if start <= self.prefix {
            self.prefix = self.prefix.max(merged.1);
            self.ranges.drain(lo..hi);
        } else {
            self.ranges.splice(lo..hi, [merged]);
        }
        Ok(self.has_header
            && self.ranges.is_empty()
            && self.total_len.is_some_and(|total| self.prefix >= total))
    }

    /// The whole datagram: the header written into the room kept for it,
    /// fragmentation fields cleared — the reassembly buffer itself.
    fn finish(mut self) -> Vec<u8> {
        let total = self.total_len.expect("complete implies total");
        self.data.truncate(IPV4_HEADER_LEN + total);
        let mut whole = Ipv4Packet::new_unchecked(&mut self.data[..]);
        whole.set_total_len((IPV4_HEADER_LEN + total) as u16);
        whole.set_flags_and_frag_offset(Ipv4Flags::default(), 0);
        whole.fill_checksum();
        self.data
    }
}

/// The destination host's fragment reassembler.
#[derive(Debug)]
pub struct Reassembler {
    partials: HashMap<Ipv4FragKey, Partial>,
    timeout: Duration,
    max_datagram: usize,
    max_concurrent: usize,
    /// Payload length of the datagram completed last.
    last_total: usize,
    /// Datagrams successfully reassembled.
    pub completed: u64,
    /// Reassemblies abandoned on timeout.
    pub timed_out: u64,
    /// Reassemblies evicted to make room for a newer one.
    pub evicted: u64,
}

impl Reassembler {
    /// The classic 15-second reassembly timeout (RFC 791's suggested TTL-
    /// derived upper bound).
    pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(15);
    /// The largest datagram this reassembler will rebuild (full IPv4 max).
    pub const DEFAULT_MAX_DATAGRAM: usize = 65_535;

    /// A reassembler with default limits.
    pub fn new() -> Reassembler {
        Reassembler::with_limits(Self::DEFAULT_TIMEOUT, Self::DEFAULT_MAX_DATAGRAM, 64)
    }

    /// A reassembler with explicit limits.
    pub fn with_limits(timeout: Duration, max_datagram: usize, max_concurrent: usize) -> Reassembler {
        Reassembler {
            partials: HashMap::new(),
            timeout,
            max_datagram,
            max_concurrent,
            last_total: 0,
            completed: 0,
            timed_out: 0,
            evicted: 0,
        }
    }

    /// Number of reassemblies in progress.
    pub fn in_progress(&self) -> usize {
        self.partials.len()
    }

    /// Accept one fragment. Returns `Ok(Some(datagram))` when the arrival
    /// completes a datagram (returned as a full IPv4 packet buffer with
    /// cleared fragmentation fields), `Ok(None)` while holes remain.
    pub fn push(&mut self, fragment: &[u8], now: Instant) -> Result<Option<Vec<u8>>, FragError> {
        let packet = Ipv4Packet::new_checked(fragment).map_err(|_| FragError::Malformed)?;
        debug_assert!(packet.is_fragment(), "non-fragment fed to reassembler");

        let key = packet.key();
        let end = usize::from(packet.frag_offset()) + packet.payload().len();
        if end > self.max_datagram {
            self.partials.remove(&key);
            return Err(FragError::TooLarge);
        }
        // Bounded buffer: a new reassembly arriving at capacity evicts
        // the *oldest* partial (earliest deadline; the whole key, protocol
        // included, breaks ties — left to the map, they would fall in its
        // random iteration order). Graceful degradation: under a fragment
        // flood the newest traffic — most likely to still complete —
        // keeps working, and the stale half-datagrams that were probably
        // never finishing are the ones that pay.
        if self.partials.len() >= self.max_concurrent && !self.partials.contains_key(&key) {
            if let Some(victim) = self
                .partials
                .iter()
                .min_by_key(|(k, p)| (p.deadline, k.src_addr, k.dst_addr, k.protocol, k.ident))
                .map(|(k, _)| *k)
            {
                self.partials.remove(&victim);
                self.evicted += 1;
            }
        }

        // One lookup: the entry is fed in place, and leaves through the
        // same handle when the fragment completes or condemns it.
        let whole = match self.partials.entry(key) {
            Entry::Occupied(mut slot) => match slot.get_mut().accept(fragment) {
                Ok(false) => return Ok(None),
                Ok(true) => slot.remove().finish(),
                Err(e) => {
                    slot.remove();
                    return Err(e);
                }
            },
            Entry::Vacant(slot) => {
                // A flow's datagrams are mostly one size: reserving what
                // the last one took, once, spares the buffer from growing
                // as the later fragments arrive.
                let reserve = self.last_total.max(end).min(self.max_datagram);
                let mut partial = Partial::new(now + self.timeout, reserve);
                if !partial.accept(fragment)? {
                    slot.insert(partial);
                    return Ok(None);
                }
                partial.finish()
            }
        };
        self.completed += 1;
        self.last_total = whole.len() - IPV4_HEADER_LEN;
        Ok(Some(whole))
    }

    /// Abandon reassemblies whose deadline has passed. Returns the keys of
    /// abandoned datagrams paired with whether their first fragment had
    /// arrived (RFC 1122: send ICMP time-exceeded only if it had).
    pub fn expire(&mut self, now: Instant) -> Vec<(Ipv4FragKey, bool)> {
        let mut expired = Vec::new();
        self.partials.retain(|key, partial| {
            if partial.deadline <= now {
                expired.push((*key, partial.has_header));
                false
            } else {
                true
            }
        });
        self.timed_out += expired.len() as u64;
        // Deterministic order for the simulator's sake: by the whole key,
        // so no two entries tie.
        expired.sort_by_key(|(key, _)| (key.src_addr, key.dst_addr, key.protocol, key.ident));
        expired
    }
}

impl Default for Reassembler {
    fn default() -> Self {
        Reassembler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_ipv4;
    use catenet_wire::{IpProtocol, Ipv4Address, Ipv4Repr, Tos};

    fn datagram(len: usize, ident: u16, dont_frag: bool) -> Vec<u8> {
        datagram_of(IpProtocol::Udp, len, ident, dont_frag)
    }

    fn datagram_of(protocol: IpProtocol, len: usize, ident: u16, dont_frag: bool) -> Vec<u8> {
        let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        build_ipv4(
            &Ipv4Repr {
                src_addr: Ipv4Address::new(10, 0, 0, 1),
                dst_addr: Ipv4Address::new(10, 0, 0, 2),
                protocol,
                payload_len: len,
                hop_limit: 32,
                tos: Tos::default(),
            },
            ident,
            dont_frag,
            &payload,
        )
    }

    #[test]
    fn small_datagram_passes_through() {
        let dgram = datagram(100, 1, false);
        let frags = fragment(&dgram, 576).unwrap();
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0], dgram);
    }

    #[test]
    fn fragments_fit_mtu_and_reassemble() {
        let dgram = datagram(4000, 7, false);
        let frags = fragment(&dgram, 576).unwrap();
        assert!(frags.len() > 1);
        for frag in &frags {
            assert!(frag.len() <= 576);
            let packet = Ipv4Packet::new_checked(&frag[..]).unwrap();
            assert!(packet.verify_checksum());
            assert!(packet.is_fragment());
            assert_eq!(packet.ident(), 7);
        }
        // Last fragment clears MF; all others set it.
        let mf: Vec<bool> = frags
            .iter()
            .map(|f| Ipv4Packet::new_unchecked(&f[..]).flags().more_frags)
            .collect();
        assert!(mf[..mf.len() - 1].iter().all(|&b| b));
        assert!(!mf[mf.len() - 1]);

        let mut reasm = Reassembler::new();
        let mut result = None;
        for frag in &frags {
            result = reasm.push(frag, Instant::ZERO).unwrap();
        }
        let whole = result.expect("complete after last fragment");
        assert_eq!(whole, dgram);
        assert_eq!(reasm.completed, 1);
    }

    #[test]
    fn reassembly_handles_any_arrival_order() {
        let dgram = datagram(3000, 9, false);
        let frags = fragment(&dgram, 296).unwrap();
        assert!(frags.len() >= 10);
        // Reverse order.
        let mut reasm = Reassembler::new();
        let mut result = None;
        for frag in frags.iter().rev() {
            assert!(result.is_none());
            result = reasm.push(frag, Instant::ZERO).unwrap();
        }
        assert_eq!(result.unwrap(), dgram);
        // Interleaved order.
        let mut reasm = Reassembler::new();
        let mut order: Vec<usize> = (0..frags.len()).collect();
        order.rotate_left(frags.len() / 2);
        let mut result = None;
        for &i in &order {
            result = reasm.push(&frags[i], Instant::ZERO).unwrap();
        }
        assert_eq!(result.unwrap(), dgram);
    }

    #[test]
    fn duplicate_fragments_harmless() {
        let dgram = datagram(1000, 3, false);
        let frags = fragment(&dgram, 576).unwrap();
        let mut reasm = Reassembler::new();
        assert!(reasm.push(&frags[0], Instant::ZERO).unwrap().is_none());
        assert!(reasm.push(&frags[0], Instant::ZERO).unwrap().is_none());
        let whole = reasm.push(&frags[1], Instant::ZERO).unwrap().unwrap();
        assert_eq!(whole, dgram);
    }

    #[test]
    fn df_refuses_fragmentation() {
        let dgram = datagram(4000, 1, true);
        assert_eq!(fragment(&dgram, 576).unwrap_err(), FragError::DontFragment);
    }

    #[test]
    fn df_datagram_that_fits_is_fine() {
        let dgram = datagram(100, 1, true);
        assert_eq!(fragment(&dgram, 576).unwrap().len(), 1);
    }

    #[test]
    fn hopeless_mtu_rejected() {
        let dgram = datagram(4000, 1, false);
        assert_eq!(fragment(&dgram, 24).unwrap_err(), FragError::MtuTooSmall);
    }

    #[test]
    fn refragmenting_a_fragment_preserves_offsets() {
        let dgram = datagram(4000, 11, false);
        let first_pass = fragment(&dgram, 1500).unwrap();
        // Take a middle fragment across a smaller-MTU network.
        let second_pass = fragment(&first_pass[1], 296).unwrap();
        assert!(second_pass.len() > 1);
        // All pieces from both passes reassemble to the original.
        let mut reasm = Reassembler::new();
        let mut result = None;
        for frag in first_pass
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 1)
            .map(|(_, f)| f)
            .chain(second_pass.iter())
        {
            result = reasm.push(frag, Instant::ZERO).unwrap();
        }
        assert_eq!(result.unwrap(), dgram);
    }

    #[test]
    fn missing_fragment_never_completes() {
        let dgram = datagram(2000, 5, false);
        let frags = fragment(&dgram, 576).unwrap();
        let mut reasm = Reassembler::new();
        for frag in frags.iter().skip(1) {
            assert!(reasm.push(frag, Instant::ZERO).unwrap().is_none());
        }
        assert_eq!(reasm.in_progress(), 1);
    }

    #[test]
    fn timeout_expires_partial_reassembly() {
        let dgram = datagram(2000, 5, false);
        let frags = fragment(&dgram, 576).unwrap();
        let mut reasm = Reassembler::new();
        reasm.push(&frags[0], Instant::ZERO).unwrap();
        assert!(reasm.expire(Instant::from_secs(10)).is_empty());
        let expired = reasm.expire(Instant::from_secs(16));
        assert_eq!(expired.len(), 1);
        assert!(expired[0].1, "first fragment had arrived");
        assert_eq!(reasm.in_progress(), 0);
        assert_eq!(reasm.timed_out, 1);
    }

    #[test]
    fn expire_reports_missing_first_fragment() {
        let dgram = datagram(2000, 5, false);
        let frags = fragment(&dgram, 576).unwrap();
        let mut reasm = Reassembler::new();
        reasm.push(&frags[1], Instant::ZERO).unwrap();
        let expired = reasm.expire(Instant::from_secs(20));
        assert_eq!(expired.len(), 1);
        assert!(!expired[0].1);
    }

    #[test]
    fn distinct_idents_reassemble_independently() {
        let a = datagram(1000, 100, false);
        let b = datagram(1000, 101, false);
        let frags_a = fragment(&a, 576).unwrap();
        let frags_b = fragment(&b, 576).unwrap();
        let mut reasm = Reassembler::new();
        assert!(reasm.push(&frags_a[0], Instant::ZERO).unwrap().is_none());
        assert!(reasm.push(&frags_b[0], Instant::ZERO).unwrap().is_none());
        assert_eq!(reasm.in_progress(), 2);
        let whole_b = reasm.push(&frags_b[1], Instant::ZERO).unwrap().unwrap();
        assert_eq!(whole_b, b);
        let whole_a = reasm.push(&frags_a[1], Instant::ZERO).unwrap().unwrap();
        assert_eq!(whole_a, a);
    }

    #[test]
    fn overload_evicts_oldest_reassembly() {
        let mut reasm = Reassembler::with_limits(Duration::from_secs(15), 65_535, 2);
        // Two partials, started at distinct times: ident 0 is oldest.
        for ident in 0..2 {
            let d = datagram(1000, ident, false);
            let frags = fragment(&d, 576).unwrap();
            reasm
                .push(&frags[0], Instant::from_secs(u64::from(ident)))
                .unwrap();
        }
        // A third reassembly arrives at capacity: the oldest is evicted,
        // the newcomer is accepted.
        let d = datagram(1000, 99, false);
        let frags = fragment(&d, 576).unwrap();
        assert!(reasm.push(&frags[0], Instant::from_secs(5)).unwrap().is_none());
        assert_eq!(reasm.in_progress(), 2, "still at the cap");
        assert_eq!(reasm.evicted, 1);
        // The evicted datagram (ident 0) can no longer complete from its
        // second fragment alone…
        let d0 = datagram(1000, 0, false);
        let frags0 = fragment(&d0, 576).unwrap();
        // (this re-admits ident 0 as a *new* partial, evicting ident 1)
        assert!(reasm.push(&frags0[1], Instant::from_secs(6)).unwrap().is_none());
        assert_eq!(reasm.evicted, 2);
        // …while the newcomer completes fine.
        assert!(reasm.push(&frags[1], Instant::from_secs(6)).unwrap().is_some());
        assert_eq!(reasm.completed, 1);
    }

    #[test]
    fn eviction_never_exceeds_cap_under_flood() {
        let cap = 8;
        let mut reasm = Reassembler::with_limits(Duration::from_secs(15), 65_535, cap);
        for ident in 0..200u16 {
            let d = datagram(1000, ident, false);
            let frags = fragment(&d, 576).unwrap();
            // Only first fragments: nothing ever completes.
            reasm
                .push(&frags[0], Instant::from_millis(u64::from(ident)))
                .unwrap();
            assert!(reasm.in_progress() <= cap, "cap held at ident {ident}");
        }
        assert_eq!(reasm.in_progress(), cap);
        assert_eq!(reasm.evicted, 200 - cap as u64);
        // The survivors are exactly the newest `cap` reassemblies: each
        // still completes when its missing fragment arrives.
        for ident in (200 - cap as u16)..200 {
            let d = datagram(1000, ident, false);
            let frags = fragment(&d, 576).unwrap();
            let whole = reasm
                .push(&frags[1], Instant::from_secs(1))
                .unwrap()
                .expect("survivor completes");
            assert_eq!(whole, d);
        }
        assert_eq!(reasm.in_progress(), 0);
    }

    #[test]
    fn partials_differing_only_in_protocol_evict_and_expire_deterministically() {
        // Same source, destination, ident and deadline: only the
        // protocol tells the UDP and TCP partials apart, so it must break
        // the tie — the map's iteration order is random per instance.
        let first = |protocol| fragment(&datagram_of(protocol, 1000, 7, false), 576).unwrap();
        let mut outcomes = Vec::new();
        for _ in 0..64 {
            let mut reasm = Reassembler::with_limits(Duration::from_secs(15), 65_535, 2);
            for protocol in [IpProtocol::Udp, IpProtocol::Tcp, IpProtocol::Icmp] {
                let pushed = reasm.push(&first(protocol)[0], Instant::ZERO);
                assert_eq!(pushed, Ok(None));
            }
            assert_eq!(reasm.evicted, 1);
            let expired = reasm.expire(Instant::from_secs(60));
            let survivors: Vec<IpProtocol> = expired.iter().map(|(key, _)| key.protocol).collect();
            outcomes.push(survivors);
        }
        assert_eq!(outcomes[0].len(), 2);
        assert!(
            outcomes.iter().all(|survivors| *survivors == outcomes[0]),
            "survivors or their expiry order differ between instances: {outcomes:?}"
        );
    }

    #[test]
    fn duplicate_fragment_of_existing_partial_never_evicts() {
        let mut reasm = Reassembler::with_limits(Duration::from_secs(15), 65_535, 2);
        let a = datagram(1000, 1, false);
        let b = datagram(1000, 2, false);
        let frags_a = fragment(&a, 576).unwrap();
        let frags_b = fragment(&b, 576).unwrap();
        reasm.push(&frags_a[0], Instant::ZERO).unwrap();
        reasm.push(&frags_b[0], Instant::from_secs(1)).unwrap();
        // A duplicate of an in-progress reassembly is not "new": at the
        // cap it must not evict anything.
        reasm.push(&frags_a[0], Instant::from_secs(2)).unwrap();
        assert_eq!(reasm.evicted, 0);
        assert!(reasm.push(&frags_a[1], Instant::from_secs(2)).unwrap().is_some());
        assert!(reasm.push(&frags_b[1], Instant::from_secs(2)).unwrap().is_some());
    }

    #[test]
    fn timeout_eviction_interacts_with_cap() {
        // Partials that expire free room without counting as evictions.
        let mut reasm = Reassembler::with_limits(Duration::from_secs(15), 65_535, 4);
        for ident in 0..4u16 {
            let d = datagram(1000, ident, false);
            let frags = fragment(&d, 576).unwrap();
            reasm.push(&frags[0], Instant::ZERO).unwrap();
        }
        assert_eq!(reasm.in_progress(), 4);
        let expired = reasm.expire(Instant::from_secs(20));
        assert_eq!(expired.len(), 4);
        assert_eq!(reasm.timed_out, 4);
        assert_eq!(reasm.evicted, 0);
        // Room again: a new reassembly starts and completes cleanly.
        let d = datagram(1000, 50, false);
        let frags = fragment(&d, 576).unwrap();
        reasm.push(&frags[0], Instant::from_secs(21)).unwrap();
        assert!(reasm.push(&frags[1], Instant::from_secs(21)).unwrap().is_some());
        assert_eq!(reasm.evicted, 0);
    }

    #[test]
    fn inconsistent_overlap_abandons_reassembly() {
        let dgram = datagram(1200, 13, false);
        let frags = fragment(&dgram, 576).unwrap();
        let mut reasm = Reassembler::new();
        reasm.push(&frags[0], Instant::ZERO).unwrap();
        // Re-send fragment 0 with altered payload bytes.
        let mut evil = frags[0].clone();
        let len = evil.len();
        evil[len - 1] ^= 0xff;
        let mut packet = Ipv4Packet::new_unchecked(&mut evil[..]);
        packet.fill_checksum();
        assert_eq!(
            reasm.push(&evil, Instant::ZERO).unwrap_err(),
            FragError::InconsistentOverlap
        );
        assert_eq!(reasm.in_progress(), 0);
    }

    #[test]
    fn oversized_reassembly_rejected() {
        let mut reasm = Reassembler::with_limits(Duration::from_secs(15), 2048, 16);
        let dgram = datagram(4000, 21, false);
        let frags = fragment(&dgram, 576).unwrap();
        let mut saw_too_large = false;
        for frag in &frags {
            match reasm.push(frag, Instant::ZERO) {
                Err(FragError::TooLarge) => {
                    saw_too_large = true;
                    break;
                }
                Ok(_) => {}
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        assert!(saw_too_large);
    }

    #[test]
    fn fragment_count_matches_arithmetic() {
        // 4000-byte payload over MTU 576: slice = (576-20) & !7 = 552.
        let dgram = datagram(4000, 2, false);
        let frags = fragment(&dgram, 576).unwrap();
        assert_eq!(frags.len(), 4000usize.div_ceil(552));
    }

    #[test]
    fn reassembly_matches_the_reference() {
        use catenet_sim::Rng;
        let mut pushes = 0;
        let mut verdicts = [0u32; 4]; // whole, hole, InconsistentOverlap, TooLarge
        let mut writes = [0u32; 3]; // appended at the end, past a hole, filled inside
        let mut counted = [0u64; 2]; // evicted, timed out
        for case in 0..400u64 {
            let mut rng = Rng::from_seed(0xf4a6 ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            // A few datagrams in flight at once, each split twice over at
            // different MTUs so pieces of the two splits overlap; some
            // pieces re-split, duplicated, or altered after the fact.
            let mut wire: Vec<Vec<u8>> = Vec::new();
            for ident in 0..rng.range(1, 6) as u16 {
                let dgram = datagram(rng.range(30, 3_000) as usize, ident, false);
                for _ in 0..rng.range(1, 3) {
                    let mtu = [68, 296, 576, 1006, 1500][rng.below(5) as usize];
                    for piece in fragment(&dgram, mtu).unwrap() {
                        match rng.below(10) {
                            0 => {} // lost
                            1 => wire.extend(fragment(&piece, 68).unwrap()),
                            2 => {
                                let mut evil = piece.clone();
                                let at = rng.range(IPV4_HEADER_LEN as u64, evil.len() as u64);
                                evil[at as usize] ^= 0x40;
                                Ipv4Packet::new_unchecked(&mut evil[..]).fill_checksum();
                                wire.push(piece);
                                wire.push(evil);
                            }
                            3 => wire.extend([piece.clone(), piece]),
                            _ => wire.push(piece),
                        }
                    }
                }
            }
            // (A datagram that fit its MTU came through whole.)
            wire.retain(|piece| Ipv4Packet::new_unchecked(&piece[..]).is_fragment());
            for i in (1..wire.len()).rev() {
                wire.swap(i, rng.below(i as u64 + 1) as usize);
            }

            let timeout = Duration::from_secs(15);
            let max_datagram = [65_535, 2_048, 700][rng.below(3) as usize];
            let max_concurrent = rng.range(1, 5) as usize;
            let mut ours = Reassembler::with_limits(timeout, max_datagram, max_concurrent);
            let mut theirs = reference::Reassembler::with_limits(timeout, max_datagram, max_concurrent);
            let mut now = Instant::ZERO;
            for frag in &wire {
                now += Duration::from_millis(rng.below(4_000));
                if rng.chance(0.2) {
                    assert_eq!(ours.expire(now), theirs.expire(now), "case {case}");
                }
                let write = {
                    let packet = Ipv4Packet::new_unchecked(&frag[..]);
                    let at = IPV4_HEADER_LEN + usize::from(packet.frag_offset());
                    let held = ours
                        .partials
                        .get(&packet.key())
                        .map_or(IPV4_HEADER_LEN, |partial| partial.data.len());
                    match at.cmp(&held) {
                        std::cmp::Ordering::Equal => 0,
                        std::cmp::Ordering::Greater => 1,
                        std::cmp::Ordering::Less => 2,
                    }
                };
                let got = ours.push(frag, now);
                assert_eq!(got, theirs.push(frag, now), "case {case}");
                if got.is_ok() {
                    writes[write] += 1;
                }
                pushes += 1;
                verdicts[match got {
                    Ok(Some(_)) => 0,
                    Ok(None) => 1,
                    Err(FragError::InconsistentOverlap) => 2,
                    Err(FragError::TooLarge) => 3,
                    Err(other) => panic!("case {case}: unexpected {other:?}"),
                }] += 1;
                assert_eq!(
                    (ours.completed, ours.evicted, ours.timed_out, ours.in_progress()),
                    (theirs.completed, theirs.evicted, theirs.timed_out, theirs.in_progress()),
                    "case {case}"
                );
            }
            let end = now + Duration::from_secs(60);
            assert_eq!(ours.expire(end), theirs.expire(end), "case {case}");
            assert_eq!(ours.timed_out, theirs.timed_out, "case {case}");
            counted[0] += ours.evicted;
            counted[1] += ours.timed_out;
        }
        // The cases reach every verdict and count the two must agree on,
        // and every way a fragment is written into the datagram.
        assert!(verdicts.iter().all(|&n| n > 20), "{verdicts:?} of {pushes}");
        assert!(writes.iter().all(|&n| n > 20), "{writes:?} of {pushes}");
        assert!(counted.iter().all(|&n| n > 20), "{counted:?}");
    }

    /// The reassembler as it stood before it learned to rebuild the
    /// datagram in place — separate header and payload buffers, ranges
    /// re-sorted per fragment, a fresh vector at completion — kept as
    /// the oracle for `reassembly_matches_the_reference`.
    mod reference {
        use super::super::*;

        #[derive(Debug)]
        struct Partial {
            /// Header copied from the offset-zero fragment (once seen).
            header: Option<[u8; IPV4_HEADER_LEN]>,
            /// Reassembly buffer for the upper-layer payload.
            data: Vec<u8>,
            /// Received byte ranges of the payload, kept sorted and coalesced.
            ranges: Vec<(usize, usize)>,
            /// Total payload length, known once the MF=0 fragment arrives.
            total_len: Option<usize>,
            /// When this reassembly gives up.
            deadline: Instant,
        }

        impl Partial {
            fn new(deadline: Instant) -> Partial {
                Partial {
                    header: None,
                    data: Vec::new(),
                    ranges: Vec::new(),
                    total_len: None,
                    deadline,
                }
            }

            fn insert(&mut self, start: usize, bytes: &[u8]) -> Result<(), FragError> {
                let end = start + bytes.len();
                if self.data.len() < end {
                    self.data.resize(end, 0);
                }
                // Verify consistency with already-received overlapping ranges.
                for &(r0, r1) in &self.ranges {
                    let lo = start.max(r0);
                    let hi = end.min(r1);
                    if lo < hi && self.data[lo..hi] != bytes[lo - start..hi - start] {
                        return Err(FragError::InconsistentOverlap);
                    }
                }
                self.data[start..end].copy_from_slice(bytes);
                self.ranges.push((start, end));
                self.ranges.sort_unstable();
                let mut merged: Vec<(usize, usize)> = Vec::with_capacity(self.ranges.len());
                for &(s, e) in &self.ranges {
                    match merged.last_mut() {
                        Some((_, last_end)) if s <= *last_end => *last_end = (*last_end).max(e),
                        _ => merged.push((s, e)),
                    }
                }
                self.ranges = merged;
                Ok(())
            }

            fn is_complete(&self) -> bool {
                match (self.total_len, self.header.as_ref(), self.ranges.first()) {
                    (Some(total), Some(_), Some(&(0, end))) => end >= total && self.ranges.len() == 1,
                    _ => false,
                }
            }
        }

        #[derive(Debug)]
        pub struct Reassembler {
            partials: HashMap<Ipv4FragKey, Partial>,
            timeout: Duration,
            max_datagram: usize,
            max_concurrent: usize,
            pub completed: u64,
            pub timed_out: u64,
            pub evicted: u64,
        }

        impl Reassembler {
            pub fn with_limits(timeout: Duration, max_datagram: usize, max_concurrent: usize) -> Reassembler {
                Reassembler {
                    partials: HashMap::new(),
                    timeout,
                    max_datagram,
                    max_concurrent,
                    completed: 0,
                    timed_out: 0,
                    evicted: 0,
                }
            }

            pub fn in_progress(&self) -> usize {
                self.partials.len()
            }

            pub fn push(&mut self, fragment: &[u8], now: Instant) -> Result<Option<Vec<u8>>, FragError> {
                let packet = Ipv4Packet::new_checked(fragment).map_err(|_| FragError::Malformed)?;
                debug_assert!(packet.is_fragment(), "non-fragment fed to reassembler");

                let key = packet.key();
                let offset = usize::from(packet.frag_offset());
                let payload = packet.payload();
                let end = offset + payload.len();
                if end > self.max_datagram {
                    self.partials.remove(&key);
                    return Err(FragError::TooLarge);
                }
                // Bounded buffer: a new reassembly arriving at capacity evicts
                // the *oldest* partial (earliest deadline; deterministic key
                // order breaks ties). Graceful degradation: under a fragment
                // flood the newest traffic — most likely to still complete —
                // keeps working, and the stale half-datagrams that were probably
                // never finishing are the ones that pay.
                if !self.partials.contains_key(&key) && self.partials.len() >= self.max_concurrent {
                    if let Some(victim) = self
                        .partials
                        .iter()
                        .min_by_key(|(k, p)| {
                            (p.deadline, k.src_addr, k.dst_addr, k.protocol, k.ident)
                        })
                        .map(|(k, _)| *k)
                    {
                        self.partials.remove(&victim);
                        self.evicted += 1;
                    }
                }

                let deadline = now + self.timeout;
                let partial = self
                    .partials
                    .entry(key)
                    .or_insert_with(|| Partial::new(deadline));

                if offset == 0 {
                    let mut header = [0u8; IPV4_HEADER_LEN];
                    header.copy_from_slice(&fragment[..IPV4_HEADER_LEN]);
                    partial.header = Some(header);
                }
                if !packet.flags().more_frags {
                    partial.total_len = Some(end);
                }
                if let Err(e) = partial.insert(offset, payload) {
                    self.partials.remove(&key);
                    return Err(e);
                }

                if !self.partials[&key].is_complete() {
                    return Ok(None);
                }

                let partial = self.partials.remove(&key).expect("present");
                let total = partial.total_len.expect("complete implies total");
                let header = partial.header.expect("complete implies header");
                let mut buffer = vec![0u8; IPV4_HEADER_LEN + total];
                buffer[..IPV4_HEADER_LEN].copy_from_slice(&header);
                buffer[IPV4_HEADER_LEN..].copy_from_slice(&partial.data[..total]);
                let mut whole = Ipv4Packet::new_unchecked(&mut buffer[..]);
                whole.set_total_len((IPV4_HEADER_LEN + total) as u16);
                whole.set_flags_and_frag_offset(Ipv4Flags::default(), 0);
                whole.fill_checksum();
                self.completed += 1;
                Ok(Some(buffer))
            }

            pub fn expire(&mut self, now: Instant) -> Vec<(Ipv4FragKey, bool)> {
                let mut expired = Vec::new();
                self.partials.retain(|key, partial| {
                    if partial.deadline <= now {
                        expired.push((*key, partial.header.is_some()));
                        false
                    } else {
                        true
                    }
                });
                self.timed_out += expired.len() as u64;
                expired
                    .sort_by_key(|(key, _)| (key.src_addr, key.dst_addr, key.protocol, key.ident));
                expired
            }
        }
    }
}
