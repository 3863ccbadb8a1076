//! Pooled packet buffers: the memory layer of the zero-copy fast path.
//!
//! Clark's cost-effectiveness goals (§goal 5/6) blame datagram overhead on
//! per-packet *processing* — and in this stack, as in the kernels the
//! paper was written against, the dominant processing cost was buffer
//! management: every layer boundary allocated a fresh `Vec` and copied
//! the payload across. [`PacketPool`] replaces that with the classic
//! mbuf/skbuff discipline:
//!
//! - buffers are recycled through a freelist instead of returned to the
//!   allocator, so a converged network forwards packets with ~zero
//!   steady-state allocations;
//! - buffers come in two classes, as 4.3BSD's mbufs and clusters did: a
//!   packet whose final size (headroom, headers and payload) fits 256
//!   bytes takes a small buffer, anything up to 1,600 a large one, and
//!   each class recycles through its own freelist. A voice datagram, an
//!   ACK or an ARP frame then holds 256 bytes for its flight instead of
//!   1,600 — the working set is most of what a small packet costs;
//! - every buffer is handed out with [`HEADROOM`] spare bytes in front,
//!   so Ethernet/IPv4/UDP headers are *prepended in place* (the buffer's
//!   logical start moves backwards) instead of rebuilt into new `Vec`s;
//! - a [`PacketBuf`] releases itself back to its pool on drop, at every
//!   drop point — delivery, queue overflow, checksum discard — without
//!   the forwarding code knowing.
//!
//! The pool also *prices* what it does ([`PoolStats`]): fresh
//! allocations vs. freelist hits, and every byte that still gets copied
//! (a prepend that missed its headroom). E13 reads these as a standing
//! gate: on a converged network, allocations and relocations per
//! forwarded packet are exactly zero.
//!
//! A buffer's live range only grows by writing: [`PacketPool::alloc`]
//! zeroes it, and [`PacketPool::alloc_header`] zeroes only the headroom
//! and the header a caller emits into, the payload being
//! [`append`](PacketBuf::append)ed behind it — so no byte of a recycled
//! buffer's last packet can show, and none is zeroed just to be
//! overwritten. In debug builds buffers recycle poison-filled (`0xA5`,
//! [`POISON`]) so a path that reads bytes it never wrote sees garbage
//! loudly rather than a previous packet quietly. Release builds skip the
//! fill.
//!
//! Nor does a live range outgrow the buffer: the class is chosen from
//! the final size a caller declares, so a caller that appends more would
//! silently reallocate the buffer, which then no freelist takes back.
//! Debug builds assert at the write that a pooled buffer's capacity
//! never changes.

use std::fmt;
use std::ops::{AddAssign, Deref, DerefMut};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use catenet_wire::{ethernet, ipv4};

/// Spare bytes in front of every pooled buffer: enough to prepend an
/// IPv4 header and then an Ethernet header without moving the payload.
pub const HEADROOM: usize = ethernet::HEADER_LEN + ipv4::HEADER_LEN;

/// Capacity of a recycled small buffer, the mbuf of 4.3BSD's
/// mbuf/cluster split: a packet whose final size fits here — a 160-byte
/// CBR voice datagram (202 B with its headroom), a TCP ACK, an ARP
/// frame — takes one instead of a large buffer.
const SMALL_CAPACITY: usize = 256;

/// Capacity of a recycled large buffer, the cluster: max Ethernet
/// payload (1500) plus framing plus headroom, rounded up. Requests
/// larger than this get an exact-size allocation and are not recycled.
const BUF_CAPACITY: usize = 1600;

/// The buffer classes, smallest first: a request takes the first class
/// its final size fits, and a buffer recycles into the class whose
/// capacity it has.
const CLASSES: [usize; 2] = [SMALL_CAPACITY, BUF_CAPACITY];

/// Freelist depth bound per class — caps pool memory at a few MB;
/// beyond it, released buffers are dropped (counted in
/// [`PoolStats::discarded`]).
const MAX_FREE: usize = 8192;

/// The byte recycled buffers are filled with in debug builds.
pub const POISON: u8 = 0xa5;

/// Cumulative pool accounting. All counters are monotonic; occupancy is
/// read via [`PacketPool::free_buffers`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers allocated from the global allocator (freelist miss or an
    /// oversize request).
    pub fresh_allocs: u64,
    /// Allocations served from the freelist without touching the
    /// allocator.
    pub recycled: u64,
    /// Buffers returned to the freelist at drop.
    pub released: u64,
    /// Buffers dropped at release instead of recycled (freelist full or
    /// nonstandard capacity).
    pub discarded: u64,
    /// Prepends that missed headroom and had to relocate the packet.
    pub shift_copies: u64,
    /// Total bytes moved by headroom-miss relocations.
    pub bytes_copied: u64,
}

impl AddAssign for PoolStats {
    fn add_assign(&mut self, other: PoolStats) {
        self.fresh_allocs += other.fresh_allocs;
        self.recycled += other.recycled;
        self.released += other.released;
        self.discarded += other.discarded;
        self.shift_copies += other.shift_copies;
        self.bytes_copied += other.bytes_copied;
    }
}

struct PoolInner {
    /// One freelist per entry of [`CLASSES`].
    free: [Vec<Vec<u8>>; CLASSES.len()],
    stats: PoolStats,
    /// Pools split off with [`PacketPool::lane_pool`].
    lanes: Vec<PacketPool>,
}

/// A shared, recycling allocator for packet buffers.
///
/// Cloning is cheap (reference-counted); a [`Network`](crate::network)
/// hands one clone to every node so buffers released anywhere serve
/// allocations everywhere. The handle is `Send`: a shard lane carries
/// its pool to whichever thread runs its window. Only that thread
/// touches the pool until the lane is back at the barrier, so the lock
/// is never contended.
#[derive(Clone)]
pub struct PacketPool {
    inner: Arc<Mutex<PoolInner>>,
}

impl Default for PacketPool {
    fn default() -> Self {
        PacketPool::new()
    }
}

impl fmt::Debug for PacketPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.lock();
        f.debug_struct("PacketPool")
            .field("free", &inner.free.each_ref().map(Vec::len))
            .field("stats", &inner.stats)
            .finish()
    }
}

impl PacketPool {
    /// A fresh pool: poison-on-release in debug builds.
    pub fn new() -> PacketPool {
        PacketPool {
            inner: Arc::new(Mutex::new(PoolInner {
                free: Default::default(),
                stats: PoolStats::default(),
                lanes: Vec::new(),
            })),
        }
    }

    /// Every update under the lock leaves the counters and the freelist
    /// valid at each step, so a guard poisoned by a panic elsewhere is
    /// still sound to use — and [`PacketBuf`]'s `Drop` must not panic.
    fn lock(&self) -> MutexGuard<'_, PoolInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Visit this pool, then every lane pool split off it.
    fn for_each(&self, f: &mut dyn FnMut(&mut PoolInner)) {
        let mut inner = self.lock();
        f(&mut inner);
        for lane in &inner.lanes {
            lane.for_each(f);
        }
    }

    /// A pool with its own freelist and counters that this pool still
    /// answers for: [`stats`](Self::stats) and
    /// [`free_buffers`](Self::free_buffers) include it. A sharded
    /// network gives one to each lane, so recycling stays lane-local and
    /// deterministic.
    pub fn lane_pool(&self) -> PacketPool {
        let pool = PacketPool::new();
        self.lock().lanes.push(pool.clone());
        pool
    }

    /// Snapshot the cumulative counters.
    pub fn stats(&self) -> PoolStats {
        let mut total = PoolStats::default();
        self.for_each(&mut |inner| total += inner.stats);
        total
    }

    /// Current freelist occupancy, in buffers of either class.
    pub fn free_buffers(&self) -> usize {
        let mut free = 0;
        self.for_each(&mut |inner| free += inner.free.iter().map(Vec::len).sum::<usize>());
        free
    }

    /// Allocate a buffer with `len` zeroed payload bytes and `headroom`
    /// spare bytes in front for headers to be prepended into.
    pub fn alloc(&self, headroom: usize, len: usize) -> PacketBuf {
        self.alloc_header(headroom, len, 0)
    }

    /// Allocate a buffer for a packet whose first `header` bytes are
    /// emitted in place and whose `payload` bytes follow by
    /// [`append`](PacketBuf::append): only the headroom and the header
    /// are zeroed, and the live range starts as the header alone. Pooled
    /// or exact, in the smallest class that holds it, and counted, by
    /// the packet's final size, exactly as
    /// `alloc(headroom, header + payload)` would be.
    pub fn alloc_header(&self, headroom: usize, header: usize, payload: usize) -> PacketBuf {
        let total = headroom + header + payload;
        let mut data = {
            let mut inner = self.lock();
            match CLASSES.iter().position(|&capacity| total <= capacity) {
                Some(class) => match inner.free[class].pop() {
                    Some(buf) => {
                        inner.stats.recycled += 1;
                        buf
                    }
                    None => {
                        inner.stats.fresh_allocs += 1;
                        Vec::with_capacity(CLASSES[class])
                    }
                },
                None => {
                    // Oversize: exact allocation, never recycled.
                    inner.stats.fresh_allocs += 1;
                    Vec::with_capacity(total)
                }
            }
        };
        // Released buffers come back cleared, so this writes every byte
        // of the live range and the headroom.
        data.resize(headroom + header, 0);
        PacketBuf {
            data,
            start: headroom,
            pool: Some(self.clone()),
        }
    }

    /// Attach this pool to a buffer born outside it (a frame off the
    /// wire, a fragment, an ICMP error build) without copying, so its
    /// relocations are counted and its memory recycled if compatible.
    pub fn adopt(&self, mut buf: PacketBuf) -> PacketBuf {
        if buf.pool.is_none() {
            buf.pool = Some(self.clone());
        }
        buf
    }

    fn release(&self, mut data: Vec<u8>) {
        let mut inner = self.lock();
        let class = CLASSES
            .iter()
            .position(|&capacity| capacity == data.capacity());
        match class.map(|class| &mut inner.free[class]) {
            Some(free) if free.len() < MAX_FREE => {
                if cfg!(debug_assertions) {
                    data.fill(POISON);
                }
                data.clear();
                free.push(data);
                inner.stats.released += 1;
            }
            _ => inner.stats.discarded += 1,
        }
    }
}

/// An owned packet buffer whose logical start can move backwards into
/// headroom (header prepend) or forwards (header strip), without moving
/// the bytes. Dereferences to the live byte range; drops back into its
/// pool.
pub struct PacketBuf {
    data: Vec<u8>,
    start: usize,
    pool: Option<PacketPool>,
}

impl PacketBuf {
    /// Wrap a plain vector (no pool, no headroom). Prepends onto such a
    /// buffer relocate it; it is freed, not recycled, unless a pool
    /// [`adopt`](PacketPool::adopt)s it first.
    pub fn from_vec(data: Vec<u8>) -> PacketBuf {
        PacketBuf {
            data,
            start: 0,
            pool: None,
        }
    }

    /// Number of live bytes.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.data.len() - self.start
    }

    /// Spare bytes in front of the live range.
    pub fn headroom(&self) -> usize {
        self.start
    }

    /// Strip `n` bytes off the front in place (e.g. an Ethernet header
    /// on receive); they become headroom for a later prepend.
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end of packet");
        self.start += n;
    }

    /// Grow the live range `n` bytes backwards into headroom (e.g. to
    /// emit a header in front of a payload already in place). If the
    /// headroom is short the packet relocates — one counted copy, the
    /// exact cost the fast path exists to avoid.
    pub fn prepend(&mut self, n: usize) {
        if self.start >= n {
            self.start -= n;
            return;
        }
        let len = self.len();
        let mut relocated = match &self.pool {
            Some(pool) => {
                let buf = pool.alloc_header(HEADROOM, n, len);
                let mut inner = pool.lock();
                inner.stats.shift_copies += 1;
                inner.stats.bytes_copied += len as u64;
                drop(inner);
                buf
            }
            None => {
                let mut data = Vec::with_capacity(n + len);
                data.resize(n, 0);
                PacketBuf::from_vec(data)
            }
        };
        relocated.append(&self[..]);
        *self = relocated;
    }

    /// Write `bytes` behind the live range, which grows to hold them:
    /// how a payload lands behind the header
    /// [`alloc_header`](PacketPool::alloc_header) zeroed. The range only
    /// ever grows by writing, so no byte of the buffer's last packet can
    /// show.
    pub fn append(&mut self, bytes: &[u8]) {
        let reserved = self.data.capacity();
        self.data.extend_from_slice(bytes);
        self.check_reservation(reserved);
    }

    /// A pooled buffer holds exactly what its class (or its exact
    /// allocation) reserved: one that grew was silently reallocated and
    /// would be discarded at release instead of recycled, a leak in the
    /// fast path that fails nothing. Debug builds catch the emitter
    /// that under-reserved at the write.
    fn check_reservation(&self, reserved: usize) {
        debug_assert!(
            self.pool.is_none() || self.data.capacity() == reserved,
            "a pooled buffer outgrew its reservation of {reserved} bytes ({} live)",
            self.data.len()
        );
    }

    /// Hand the buffer over to `pool`: on drop it recycles there.
    /// The barrier does this to every frame that crossed a lane
    /// boundary, so a lane's pool is only ever touched by the thread
    /// running that lane. Contents and headroom are untouched, so dumps
    /// cannot tell.
    pub(crate) fn rehome(&mut self, pool: &PacketPool) {
        self.pool = Some(pool.clone());
    }
}

/// [`append`](PacketBuf::append) for bytes that are computed, not copied.
impl Extend<u8> for PacketBuf {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, bytes: I) {
        let reserved = self.data.capacity();
        self.data.extend(bytes);
        self.check_reservation(reserved);
    }
}

impl From<Vec<u8>> for PacketBuf {
    fn from(data: Vec<u8>) -> PacketBuf {
        PacketBuf::from_vec(data)
    }
}

impl Deref for PacketBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..]
    }
}

impl DerefMut for PacketBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data[self.start..]
    }
}

impl AsRef<[u8]> for PacketBuf {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl fmt::Debug for PacketBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PacketBuf")
            .field("len", &self.len())
            .field("headroom", &self.start)
            .field("pooled", &self.pool.is_some())
            .finish()
    }
}

impl Drop for PacketBuf {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.release(std::mem::take(&mut self.data));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepend_within_headroom_moves_no_bytes() {
        let pool = PacketPool::new();
        let mut buf = pool.alloc(HEADROOM, 4);
        buf.copy_from_slice(b"data");
        let before = pool.stats();
        buf.prepend(20);
        buf[..2].copy_from_slice(b"ip");
        assert_eq!(buf.len(), 24);
        assert_eq!(buf.headroom(), HEADROOM - 20);
        assert_eq!(&buf[20..], b"data");
        let after = pool.stats();
        assert_eq!(after.shift_copies, before.shift_copies);
        assert_eq!(after.bytes_copied, before.bytes_copied);
        assert_eq!(after.fresh_allocs, before.fresh_allocs);
    }

    #[test]
    fn prepend_past_headroom_relocates_and_is_counted() {
        let pool = PacketPool::new();
        let mut buf = pool.alloc(2, 3);
        buf.copy_from_slice(b"xyz");
        buf.prepend(14);
        assert_eq!(buf.len(), 17);
        assert_eq!(&buf[14..], b"xyz");
        let stats = pool.stats();
        assert_eq!(stats.shift_copies, 1);
        assert_eq!(stats.bytes_copied, 3);
        // The relocation re-established full headroom.
        assert_eq!(buf.headroom(), HEADROOM);
    }

    #[test]
    fn advance_then_prepend_round_trips() {
        let pool = PacketPool::new();
        let mut buf = pool.alloc(0, 8);
        buf.copy_from_slice(b"hdrABCDE");
        buf.advance(3);
        assert_eq!(&buf[..], b"ABCDE");
        buf.prepend(3);
        assert_eq!(&buf[..], b"hdrABCDE");
        assert_eq!(pool.stats().shift_copies, 0);
    }

    #[test]
    fn drop_recycles_and_next_alloc_reuses() {
        let pool = PacketPool::new();
        let buf = pool.alloc(HEADROOM, 100);
        drop(buf);
        assert_eq!(pool.free_buffers(), 1);
        let stats = pool.stats();
        assert_eq!((stats.fresh_allocs, stats.released), (1, 1));
        let _again = pool.alloc(HEADROOM, 50);
        assert_eq!(pool.free_buffers(), 0);
        assert_eq!(pool.stats().recycled, 1);
        assert_eq!(pool.stats().fresh_allocs, 1, "steady state allocates nothing");
    }

    /// Per class, smallest first: the class's capacity, and the
    /// smallest payload an `alloc(HEADROOM, _)` lands in it with.
    fn classes() -> impl Iterator<Item = (usize, usize)> {
        CLASSES.iter().enumerate().map(|(class, &capacity)| {
            let floor = class.checked_sub(1).map_or(0, |below| CLASSES[below]);
            (capacity, (floor + 1).saturating_sub(HEADROOM).max(1))
        })
    }

    #[test]
    fn recycled_buffers_never_leak_stale_bytes() {
        // The regression the poison exists to catch: packet A's bytes
        // must be unobservable in packet B, including in the headroom a
        // later prepend exposes and in the tail beyond B's length. Per
        // class: the secret fills a whole buffer, and the reuse is the
        // smallest request that recycles it.
        for (capacity, small) in classes() {
            let pool = PacketPool::new();
            let mut secret = pool.alloc(HEADROOM, capacity - HEADROOM);
            secret.iter_mut().for_each(|b| *b = 0x42);
            drop(secret);

            let mut reused = pool.alloc(HEADROOM, small);
            assert_eq!(
                pool.stats().recycled,
                1,
                "test must exercise reuse ({capacity})"
            );
            assert!(
                reused.iter().all(|&b| b == 0),
                "live range shows stale or poison bytes ({capacity})"
            );
            // Expose the entire headroom: hygiene requires it zeroed too.
            reused.prepend(HEADROOM);
            assert!(
                reused.iter().all(|&b| b == 0),
                "headroom leaked bytes from the previous packet ({capacity})"
            );
        }
    }

    #[test]
    fn appended_buffers_never_leak_stale_bytes() {
        // The same regression on the path that zeroes only the header:
        // the bytes behind it were the last packet's, and must stay
        // unreachable until written.
        for (capacity, small) in classes() {
            let pool = PacketPool::new();
            let mut secret = pool.alloc(HEADROOM, capacity - HEADROOM);
            secret.iter_mut().for_each(|b| *b = 0x42);
            drop(secret);

            let payload: Vec<u8> = (1..=small.max(100)).map(|i| i as u8).collect();
            let mut reused = pool.alloc_header(HEADROOM, 8, payload.len());
            assert_eq!(
                pool.stats().recycled,
                1,
                "test must exercise reuse ({capacity})"
            );
            assert_eq!(reused.len(), 8, "the live range starts as the header");
            assert!(reused.iter().all(|&b| b == 0), "header shows stale bytes");
            reused.append(&payload);
            assert_eq!(reused.len(), 8 + payload.len());
            assert!(reused[..8].iter().all(|&b| b == 0));
            assert_eq!(&reused[8..], &payload[..], "exactly the appended bytes");
            reused.prepend(HEADROOM);
            assert!(
                reused[..HEADROOM + 8].iter().all(|&b| b == 0),
                "headroom leaked bytes from the previous packet ({capacity})"
            );
            assert_eq!(&reused[HEADROOM + 8..], &payload[..]);
            // Counted by its final size, as `alloc` would have been.
            let stats = pool.stats();
            assert_eq!((stats.fresh_allocs, stats.recycled), (1, 1));
        }
    }

    #[test]
    fn poisoned_release_fills_buffer() {
        for (class, (capacity, small)) in classes().enumerate() {
            let pool = PacketPool::new();
            let mut buf = pool.alloc(HEADROOM, small);
            buf.iter_mut().for_each(|b| *b = 0x77);
            drop(buf);
            let inner = pool.lock();
            let freed = inner.free[class].last().expect("released into its class");
            // Released buffers are length-0 (content cleared); the poison
            // lives in the spare capacity and is re-zeroed per alloc.
            // Verify via a fresh alloc over the full capacity instead.
            assert!(freed.is_empty());
            drop(inner);
            let whole = pool.alloc(0, capacity);
            assert_eq!(
                pool.stats().recycled,
                1,
                "test must exercise reuse ({capacity})"
            );
            assert!(whole.iter().all(|&b| b == 0));
        }
    }

    /// The capacity a pooled buffer was handed out with.
    fn capacity(buf: &PacketBuf) -> usize {
        buf.data.capacity()
    }

    #[test]
    fn a_request_never_takes_a_buffer_of_the_other_class() {
        let pool = PacketPool::new();
        let small = pool.alloc(0, SMALL_CAPACITY);
        let large = pool.alloc(0, SMALL_CAPACITY + 1);
        assert_eq!(
            (capacity(&small), capacity(&large)),
            (SMALL_CAPACITY, BUF_CAPACITY)
        );
        // Only a large buffer free: a small request allocates a small one.
        drop(large);
        let small_again = pool.alloc(HEADROOM, 1);
        assert_eq!(capacity(&small_again), SMALL_CAPACITY);
        assert_eq!(
            pool.stats().fresh_allocs,
            3,
            "the large buffer was not lent"
        );
        // Only small buffers free: a large request allocates a large one.
        drop((small, small_again));
        let large_again = pool.alloc_header(HEADROOM, 20, SMALL_CAPACITY);
        assert_eq!(capacity(&large_again), BUF_CAPACITY);
        assert_eq!(pool.stats().recycled, 1, "the large buffer came back");
        let stats = pool.stats();
        assert_eq!((stats.fresh_allocs, stats.discarded), (3, 0));
    }

    #[test]
    fn free_buffers_sums_both_classes() {
        let pool = PacketPool::new();
        let lane = pool.lane_pool();
        drop([
            pool.alloc(0, 1),
            pool.alloc(0, BUF_CAPACITY),
            lane.alloc(0, 1),
        ]);
        assert_eq!(pool.free_buffers(), 3);
        assert_eq!(lane.free_buffers(), 1);
        assert!(format!("{pool:?}").contains("free: [1, 1]"), "{pool:?}");
    }

    #[test]
    fn a_relocating_prepend_recycles_in_the_class_of_its_new_size() {
        let pool = PacketPool::new();
        // Stays small: 10 bytes relocate into full headroom plus 14.
        let mut stays = pool.alloc(0, 10);
        stays.prepend(14);
        assert_eq!(capacity(&stays), SMALL_CAPACITY);
        // Grows out of the small class: 200 bytes behind 100 new ones.
        let mut grows = pool.alloc(2, 200);
        assert_eq!(capacity(&grows), SMALL_CAPACITY);
        grows.prepend(100);
        assert_eq!(capacity(&grows), BUF_CAPACITY);
        assert_eq!(pool.stats().shift_copies, 2);
        // Each relocation released the buffer it left; `grows` was born
        // in the one `stays` left.
        assert_eq!(pool.lock().free.each_ref().map(Vec::len), [1, 0]);
        drop((stays, grows));
        assert_eq!(pool.lock().free.each_ref().map(Vec::len), [2, 1]);
        assert_eq!(pool.stats().discarded, 0);
    }

    #[test]
    fn adopt_attaches_without_copying() {
        let pool = PacketPool::new();
        let buf = pool.adopt(PacketBuf::from_vec(b"abc".to_vec()));
        assert_eq!(&buf[..], b"abc");
        drop(buf);
        let stats = pool.stats();
        assert_eq!((stats.bytes_copied, stats.fresh_allocs), (0, 0));
        assert_eq!(stats.discarded, 1, "nonstandard capacity is not recycled");
    }

    #[test]
    fn oversize_requests_fall_back_to_exact_allocation() {
        let pool = PacketPool::new();
        let big = pool.alloc(HEADROOM, 64 * 1024);
        assert_eq!(big.len(), 64 * 1024);
        drop(big);
        assert_eq!(pool.free_buffers(), 0, "oversize buffers are not pooled");
        assert_eq!(pool.stats().discarded, 1);
    }

    #[test]
    fn from_vec_buffers_work_without_a_pool() {
        let mut buf = PacketBuf::from_vec(b"payload".to_vec());
        buf.prepend(2);
        buf[..2].copy_from_slice(b"ip");
        assert_eq!(&buf[..], b"ippayload");
        buf.advance(2);
        buf.append(b"!");
        assert_eq!(&buf[..], b"payload!");
    }
}
