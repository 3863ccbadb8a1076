//! The flight recorder: a bounded ring of structured events.
//!
//! When an end-to-end invariant trips, "violations: 1" is useless for
//! diagnosis; what matters is the causal neighborhood — which fault
//! fired, which routes moved, which retransmission timers expired, in
//! what order. The recorder keeps the last N such events with virtual
//! timestamps; the dump is the black-box readout.

use catenet_sim::Instant;
use std::collections::VecDeque;

/// A structured event worth remembering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A fault-plan action was applied.
    FaultInjected {
        /// Human-readable description of the action.
        description: String,
    },
    /// A node's routing table changed (version advanced).
    RouteChanged {
        /// The node whose table changed.
        node: usize,
        /// Its new table version.
        version: u64,
    },
    /// A TCP retransmission timeout fired on some socket of a node.
    RtoFired {
        /// The node owning the socket.
        node: usize,
        /// The node's cumulative RTO count after this firing.
        total_timeouts: u64,
    },
    /// An invariant was evaluated.
    InvariantChecked {
        /// Which invariant.
        name: &'static str,
        /// Whether it held.
        ok: bool,
    },
    /// An invariant tripped; the recorder dump at this moment is the
    /// causal trace.
    InvariantTripped {
        /// The violation, rendered.
        description: String,
    },
    /// The route guard on a node acted on a neighbor's announcement
    /// (sanitized, damped, rate-limited, quarantined, paroled). Per the
    /// measurability principle, a rejected announcement is a
    /// first-class event, not a silent drop.
    GuardAction {
        /// The node whose guard acted.
        node: usize,
        /// The incident, rendered by the routing layer (which knows the
        /// addresses and prefixes involved).
        detail: String,
    },
    /// Free-form annotation from the harness.
    Note {
        /// The annotation.
        text: String,
    },
}

impl core::fmt::Display for EventKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EventKind::FaultInjected { description } => write!(f, "fault: {description}"),
            EventKind::RouteChanged { node, version } => {
                write!(f, "route-changed: node{node} table v{version}")
            }
            EventKind::RtoFired { node, total_timeouts } => {
                write!(f, "rto-fired: node{node} (total {total_timeouts})")
            }
            EventKind::InvariantChecked { name, ok } => {
                write!(f, "invariant-checked: {name} {}", if *ok { "ok" } else { "VIOLATED" })
            }
            EventKind::InvariantTripped { description } => {
                write!(f, "INVARIANT TRIPPED: {description}")
            }
            EventKind::GuardAction { node, detail } => {
                write!(f, "guard: node{node} {detail}")
            }
            EventKind::Note { text } => write!(f, "note: {text}"),
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Virtual time of the event.
    pub at: Instant,
    /// Monotone sequence number (never reused, survives ring eviction;
    /// gaps reveal how much history was lost).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The bounded ring buffer.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    buf: VecDeque<FlightEvent>,
    next_seq: u64,
    evicted: u64,
}

impl FlightRecorder {
    /// Events the ring holds before it evicts the oldest.
    pub const CAPACITY: usize = 256;

    /// An empty recorder keeping the last [`FlightRecorder::CAPACITY`]
    /// events.
    pub fn new() -> FlightRecorder {
        FlightRecorder::default()
    }

    /// Record an event, evicting the oldest if the ring is full.
    pub fn record(&mut self, at: Instant, kind: EventKind) {
        if self.buf.len() == Self::CAPACITY {
            self.buf.pop_front();
            self.evicted += 1;
        }
        self.buf.push_back(FlightEvent {
            at,
            seq: self.next_seq,
            kind,
        });
        self.next_seq += 1;
    }

    /// Events currently held, oldest first (and therefore in virtual-time
    /// order: recording only moves forward).
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.buf.iter()
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events recorded over the recorder's lifetime (held + evicted).
    pub fn total_recorded(&self) -> u64 {
        self.next_seq
    }

    /// Events lost to ring eviction.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The black-box readout: every held event, one line each, oldest
    /// first with virtual timestamps. Deterministic.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        if self.evicted > 0 {
            out.push_str(&format!(
                "... {} earlier event(s) evicted from the ring ...\n",
                self.evicted
            ));
        }
        for event in &self.buf {
            out.push_str(&format!(
                "{:>12}us #{:<5} {}\n",
                event.at.total_micros(),
                event.seq,
                event.kind
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn note(text: &str) -> EventKind {
        EventKind::Note {
            text: text.to_string(),
        }
    }

    #[test]
    fn records_in_order_until_capacity() {
        let mut rec = FlightRecorder::new();
        for i in 0..5u64 {
            rec.record(Instant::from_secs(i), note("x"));
        }
        assert_eq!(rec.len(), 5);
        assert_eq!(rec.evicted(), 0);
        let seqs: Vec<u64> = rec.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn wraparound_keeps_only_the_newest_and_counts_evictions() {
        let mut rec = FlightRecorder::new();
        let total = FlightRecorder::CAPACITY as u64 + 7;
        for i in 0..total {
            rec.record(Instant::from_secs(i), note("e"));
        }
        assert_eq!(rec.len(), FlightRecorder::CAPACITY, "bounded");
        assert_eq!(rec.evicted(), 7);
        assert_eq!(rec.total_recorded(), total);
        let seqs: Vec<u64> = rec.events().map(|e| e.seq).collect();
        assert_eq!(seqs, (7..total).collect::<Vec<_>>(), "oldest evicted first");
        let times: Vec<Instant> = rec.events().map(|e| e.at).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "time order");
        assert!(rec.dump().starts_with("... 7 earlier event(s) evicted"));
    }

    #[test]
    fn dump_renders_kinds_readably() {
        let mut rec = FlightRecorder::new();
        rec.record(
            Instant::from_millis(1_500),
            EventKind::FaultInjected {
                description: "link 2 down".to_string(),
            },
        );
        rec.record(
            Instant::from_millis(2_000),
            EventKind::RouteChanged { node: 1, version: 4 },
        );
        rec.record(
            Instant::from_millis(2_500),
            EventKind::RtoFired {
                node: 0,
                total_timeouts: 3,
            },
        );
        rec.record(
            Instant::from_millis(3_000),
            EventKind::InvariantTripped {
                description: "stall".to_string(),
            },
        );
        rec.record(
            Instant::from_millis(3_500),
            EventKind::GuardAction {
                node: 2,
                detail: "quarantined 10.0.0.2 until t=60.0s".to_string(),
            },
        );
        let dump = rec.dump();
        assert!(dump.contains("guard: node2 quarantined 10.0.0.2 until t=60.0s"));
        assert!(dump.contains("fault: link 2 down"));
        assert!(dump.contains("route-changed: node1 table v4"));
        assert!(dump.contains("rto-fired: node0 (total 3)"));
        assert!(dump.contains("INVARIANT TRIPPED: stall"));
    }
}
