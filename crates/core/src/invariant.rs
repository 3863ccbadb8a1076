//! End-to-end invariant checking for the survivability gauntlet.
//!
//! The paper's survivability story (§3) makes three testable promises:
//!
//! 1. **Integrity.** Whatever the network does to packets — loses,
//!    duplicates, reorders, corrupts — TCP delivers to the receiving
//!    application *exactly* the byte stream the sending application
//!    wrote, or it delivers an error. Never silently wrong data.
//!    [`StreamIntegrity`] checks this: the delivered stream must at all
//!    times be a prefix of the sent stream.
//! 2. **Progress.** As long as some physical path exists, conversations
//!    make progress. A connection that sits stuck while a path is up is
//!    a masked failure the architecture promised not to have.
//!    [`ProgressWatchdog`] flags it.
//! 3. **Reconvergence.** After the topology heals, routing must settle
//!    within a bounded time — survivability is hollow if recovery takes
//!    unboundedly long. [`ReconvergenceBound`] asserts the bound.
//!
//! Checkers are plain data fed by the applications (through the same
//! `Rc<RefCell<…>>` handle pattern the result structs use) and read by
//! the experiment harness. They never panic on violation: they *record*,
//! so a gauntlet run reports every broken invariant instead of dying at
//! the first.

use catenet_sim::{Duration, Instant};

/// One detected invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The receiver saw a byte that differs from what the sender wrote
    /// at the same stream offset — corrupted or misordered data slipped
    /// past the end-to-end checks.
    StreamMismatch {
        /// Stream offset of the first differing byte.
        at: usize,
        /// What the sender wrote there.
        expected: u8,
        /// What the receiver got.
        got: u8,
    },
    /// The receiver was handed more bytes than the sender ever wrote —
    /// duplicated data was delivered twice.
    StreamOverrun {
        /// Bytes the sender wrote.
        sent: usize,
        /// Bytes the receiver was handed.
        delivered: usize,
    },
    /// A connection made no progress for the watchdog's limit while a
    /// usable path existed.
    Stall {
        /// When progress was last observed.
        since: Instant,
        /// When the watchdog gave up waiting.
        flagged_at: Instant,
    },
    /// Routing took longer than the allowed bound to settle after a
    /// topology change.
    SlowReconvergence {
        /// Measured settle time.
        took: Duration,
        /// The promised bound.
        bound: Duration,
    },
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Violation::StreamMismatch { at, expected, got } => {
                write!(f, "stream mismatch at byte {at}: sent {expected:#04x}, got {got:#04x}")
            }
            Violation::StreamOverrun { sent, delivered } => {
                write!(f, "stream overrun: {delivered} bytes delivered of {sent} sent")
            }
            Violation::Stall { since, flagged_at } => {
                write!(f, "no progress since {since} (flagged at {flagged_at}) with a path up")
            }
            Violation::SlowReconvergence { took, bound } => {
                write!(f, "routing took {took} to reconverge (bound {bound})")
            }
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Per-connection stream-integrity checker.
///
/// The sender records every byte the transport *accepted*; the receiver
/// records every byte the transport *delivered*. The invariant: at every
/// instant, the delivered stream is a byte-for-byte prefix of the sent
/// stream. Violations are recorded, not panicked, and the first
/// mismatch stops further comparison (one corrupt byte would otherwise
/// cascade into thousands of "violations").
#[derive(Debug, Default)]
pub struct StreamIntegrity {
    sent: Vec<u8>,
    delivered: usize,
    delivered_digest: Option<u64>,
    violations: Vec<Violation>,
    poisoned: bool,
}

impl StreamIntegrity {
    /// A fresh checker.
    pub fn new() -> StreamIntegrity {
        StreamIntegrity {
            sent: Vec::new(),
            delivered: 0,
            delivered_digest: Some(FNV_OFFSET),
            violations: Vec::new(),
            poisoned: false,
        }
    }

    /// Record bytes the sending transport accepted.
    pub fn record_sent(&mut self, bytes: &[u8]) {
        self.sent.extend_from_slice(bytes);
    }

    /// Record bytes the receiving transport delivered, checking the
    /// prefix invariant as they arrive.
    pub fn record_delivered(&mut self, bytes: &[u8]) {
        if let Some(digest) = &mut self.delivered_digest {
            *digest = fnv1a(*digest, bytes);
        }
        if self.poisoned {
            self.delivered += bytes.len();
            return;
        }
        for &got in bytes {
            match self.sent.get(self.delivered) {
                Some(&expected) if expected == got => self.delivered += 1,
                Some(&expected) => {
                    self.violations.push(Violation::StreamMismatch {
                        at: self.delivered,
                        expected,
                        got,
                    });
                    self.poisoned = true;
                    self.delivered += 1;
                    return;
                }
                None => {
                    self.violations.push(Violation::StreamOverrun {
                        sent: self.sent.len(),
                        delivered: self.delivered + 1,
                    });
                    self.poisoned = true;
                    self.delivered += 1;
                    return;
                }
            }
        }
    }

    /// Bytes the receiver was handed.
    pub fn delivered_len(&self) -> usize {
        self.delivered
    }

    /// FNV-1a digest of everything delivered so far (for experiment
    /// tables — two runs with equal digests delivered equal streams).
    pub fn delivered_digest(&self) -> u64 {
        self.delivered_digest.unwrap_or(FNV_OFFSET)
    }

    /// FNV-1a digest of the sent prefix of the same length, for
    /// comparison against [`StreamIntegrity::delivered_digest`].
    pub fn sent_digest(&self) -> u64 {
        let upto = self.delivered.min(self.sent.len());
        fnv1a(FNV_OFFSET, &self.sent[..upto])
    }

    /// Whether every delivered byte matched the sent stream so far.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Whether the full sent stream arrived intact (a *completed*
    /// transfer's exit criterion; an aborted one only needs
    /// [`StreamIntegrity::is_clean`]).
    pub fn is_complete(&self) -> bool {
        self.is_clean() && self.delivered == self.sent.len()
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }
}

/// Flags connections that sit stuck while a usable path exists.
///
/// The experiment harness knows the fault timeline, so *it* tells the
/// watchdog when a path is available; the watchdog only has to notice
/// that progress stopped anyway. Stuck time accumulated while the path
/// was genuinely down does not count — that is the network doing its
/// best, not a bug.
#[derive(Debug)]
pub struct ProgressWatchdog {
    stall_limit: Duration,
    last_progress: Instant,
    last_value: u64,
    path_up_since: Option<Instant>,
    violations: Vec<Violation>,
    flagged_current: bool,
}

impl ProgressWatchdog {
    /// A watchdog that tolerates `stall_limit` of no progress while a
    /// path is up. The limit should comfortably exceed the worst-case
    /// RTO backoff plus routing reconvergence.
    pub fn new(stall_limit: Duration, now: Instant) -> ProgressWatchdog {
        ProgressWatchdog {
            stall_limit,
            last_progress: now,
            last_value: 0,
            path_up_since: Some(now),
            violations: Vec::new(),
            flagged_current: false,
        }
    }

    /// Tell the watchdog whether a usable path currently exists.
    pub fn set_path_available(&mut self, available: bool, now: Instant) {
        match (self.path_up_since, available) {
            (None, true) => {
                self.path_up_since = Some(now);
                // Recovery clock restarts when the path comes back.
                self.last_progress = self.last_progress.max(now);
            }
            (Some(_), false) => self.path_up_since = None,
            _ => {}
        }
    }

    /// Report the connection's monotone progress counter (e.g. bytes
    /// acked). Call this regularly; a stall is flagged at most once per
    /// stuck period.
    pub fn observe(&mut self, progress: u64, now: Instant) {
        if progress > self.last_value {
            self.last_value = progress;
            self.last_progress = now;
            self.flagged_current = false;
            return;
        }
        let Some(path_up_since) = self.path_up_since else {
            return;
        };
        let stuck_since = self.last_progress.max(path_up_since);
        if !self.flagged_current && now.duration_since(stuck_since) >= self.stall_limit {
            self.violations.push(Violation::Stall {
                since: stuck_since,
                flagged_at: now,
            });
            self.flagged_current = true;
        }
    }

    /// Stall violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Number of stalls flagged.
    pub fn stalls(&self) -> usize {
        self.violations.len()
    }
}

/// Asserts that routing settles within a bound after a topology change.
#[derive(Debug, Clone, Copy)]
pub struct ReconvergenceBound {
    /// The promised settle time.
    pub bound: Duration,
}

impl ReconvergenceBound {
    /// A bound of `bound`.
    pub fn new(bound: Duration) -> ReconvergenceBound {
        ReconvergenceBound { bound }
    }

    /// Check one measured reconvergence. Returns the violation if the
    /// bound was exceeded.
    pub fn check(&self, took: Duration) -> Option<Violation> {
        (took > self.bound).then_some(Violation::SlowReconvergence {
            took,
            bound: self.bound,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_prefix_delivery_is_clean() {
        let mut check = StreamIntegrity::new();
        check.record_sent(b"hello, catenet");
        check.record_delivered(b"hello");
        assert!(check.is_clean());
        assert!(!check.is_complete(), "tail still outstanding");
        check.record_delivered(b", catenet");
        assert!(check.is_complete());
        assert_eq!(check.delivered_digest(), check.sent_digest());
    }

    #[test]
    fn interleaved_send_and_delivery() {
        let mut check = StreamIntegrity::new();
        check.record_sent(b"abc");
        check.record_delivered(b"ab");
        check.record_sent(b"def");
        check.record_delivered(b"cdef");
        assert!(check.is_complete());
    }

    #[test]
    fn corrupted_byte_is_flagged_once() {
        let mut check = StreamIntegrity::new();
        check.record_sent(&[1, 2, 3, 4, 5]);
        check.record_delivered(&[1, 2, 9, 4, 5]);
        assert!(!check.is_clean());
        assert_eq!(check.violations().len(), 1, "poisoned, not cascading");
        assert_eq!(
            check.violations()[0],
            Violation::StreamMismatch {
                at: 2,
                expected: 3,
                got: 9
            }
        );
        // Further deliveries don't add more noise.
        check.record_delivered(&[1, 1, 1]);
        assert_eq!(check.violations().len(), 1);
        assert_ne!(check.delivered_digest(), check.sent_digest());
    }

    #[test]
    fn duplicated_delivery_is_an_overrun() {
        let mut check = StreamIntegrity::new();
        check.record_sent(b"xy");
        check.record_delivered(b"xy");
        check.record_delivered(b"xy");
        assert!(!check.is_clean());
        assert!(matches!(
            check.violations()[0],
            Violation::StreamOverrun { sent: 2, .. }
        ));
    }

    #[test]
    fn reordered_delivery_is_a_mismatch() {
        let mut check = StreamIntegrity::new();
        check.record_sent(b"abcd");
        check.record_delivered(b"abdc");
        assert!(!check.is_clean());
        assert!(matches!(
            check.violations()[0],
            Violation::StreamMismatch { at: 2, .. }
        ));
    }

    #[test]
    fn watchdog_tolerates_stalls_while_path_down() {
        let limit = Duration::from_secs(30);
        let mut dog = ProgressWatchdog::new(limit, Instant::ZERO);
        dog.observe(100, Instant::from_secs(1));
        // Path goes down; 10 minutes of stall are excused.
        dog.set_path_available(false, Instant::from_secs(2));
        dog.observe(100, Instant::from_secs(600));
        assert_eq!(dog.stalls(), 0);
        // Path heals; the clock restarts from the heal.
        dog.set_path_available(true, Instant::from_secs(600));
        dog.observe(100, Instant::from_secs(620));
        assert_eq!(dog.stalls(), 0, "only 20 s since heal");
        dog.observe(100, Instant::from_secs(640));
        assert_eq!(dog.stalls(), 1, "40 s stuck with a path up");
        // Flagged once per stuck period, not every observation.
        dog.observe(100, Instant::from_secs(700));
        assert_eq!(dog.stalls(), 1);
        // Progress resets the flag; a *new* stall is a new violation.
        dog.observe(200, Instant::from_secs(710));
        dog.observe(200, Instant::from_secs(800));
        assert_eq!(dog.stalls(), 2);
    }

    #[test]
    fn watchdog_flags_stuck_connection_with_path_up() {
        let mut dog = ProgressWatchdog::new(Duration::from_secs(10), Instant::ZERO);
        dog.observe(0, Instant::from_secs(11));
        assert_eq!(dog.stalls(), 1);
        match &dog.violations()[0] {
            Violation::Stall { since, flagged_at } => {
                assert_eq!(*since, Instant::ZERO);
                assert_eq!(*flagged_at, Instant::from_secs(11));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reconvergence_bound_checks() {
        let bound = ReconvergenceBound::new(Duration::from_secs(60));
        assert!(bound.check(Duration::from_secs(30)).is_none());
        let violation = bound.check(Duration::from_secs(90)).expect("over bound");
        assert!(matches!(violation, Violation::SlowReconvergence { .. }));
        assert!(violation.to_string().contains("reconverge"));
    }

    #[test]
    fn violations_display_readably() {
        let v = Violation::StreamMismatch {
            at: 7,
            expected: 0x41,
            got: 0x42,
        };
        assert_eq!(v.to_string(), "stream mismatch at byte 7: sent 0x41, got 0x42");
    }
}
