//! # catenet-telemetry
//!
//! Virtual-time observability for the catenet stack.
//!
//! Clark's 1988 paper lists *distributed management* and *accountability*
//! among the architecture's goals, and later work (Allman et al.,
//! "Principles for Measurability in Protocol Design") argues that
//! measurement hooks must be designed into a stack rather than bolted on.
//! This crate is that design: every piece runs on virtual time from
//! [`catenet_sim::Instant`], never the wall clock, so telemetry output is
//! exactly as deterministic as the simulation it observes — two runs with
//! the same seed produce byte-identical dumps.
//!
//! Four pieces:
//!
//! - [`Registry`] — typed counters/gauges interned by name and
//!   [`Scope`] (global, node, link, socket). Hot paths pre-intern a
//!   [`InstrumentId`] once and bump a plain `Vec` slot thereafter; the
//!   deterministic sorted dump is only paid for when asked.
//! - [`Sampler`] — a time-series recorder taking rows at a fixed
//!   virtual-time cadence (goodput, queue depth, cwnd/RTT, routing-table
//!   versions). The event loop merges the sampler's next due time into
//!   its own timeline; at an instant shared with a fault the sample is
//!   taken *after* the fault, so it reflects post-fault state.
//! - [`FlightRecorder`] — a bounded ring buffer of structured events
//!   (fault injected, route changed, RTO fired, invariant checked) whose
//!   dump turns an invariant violation from "violations: 1" into a
//!   readable causal trace.
//! - [`ConvergenceTracer`] — pairs each heal event with the instant the
//!   routing system last changed before going quiescent, making
//!   "reconvergence ≤ bound per heal" a first-class measured quantity
//!   (experiment E12).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod convergence;
pub mod recorder;
pub mod registry;
pub mod series;

pub use convergence::{ConvergenceTracer, Reconvergence};
pub use recorder::{EventKind, FlightEvent, FlightRecorder};
pub use registry::{InstrumentId, MetricKind, Registry, Scope};
pub use series::{Sample, Sampler};

/// The observability bundle a network carries: one of each piece, on a
/// shared virtual clock.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// Named counters and gauges.
    pub registry: Registry,
    /// Cadence-driven time series.
    pub sampler: Sampler,
    /// Ring buffer of structured events.
    pub recorder: FlightRecorder,
    /// Per-heal reconvergence measurement.
    pub convergence: ConvergenceTracer,
}

impl Telemetry {
    /// An empty bundle.
    pub fn new() -> Telemetry {
        Telemetry::default()
    }
}
