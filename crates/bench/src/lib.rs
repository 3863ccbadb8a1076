//! # catenet-bench
//!
//! The experiment harness. Clark's 1988 paper has no tables or figures —
//! its evaluation is a prioritized list of architectural claims — so
//! each module here operationalizes one claim as a quantitative
//! experiment (the mapping is in `DESIGN.md` §3 and `EXPERIMENTS.md`):
//!
//! | Module | Claim measured |
//! |--------|----------------|
//! | [`e1_survivability`] | fate-sharing vs in-network connection state under gateway crash |
//! | [`e2_type_of_service`] | reliable-stream vs datagram service for voice-like traffic |
//! | [`e3_variety`] | fragmentation across heterogeneous MTUs, and its loss amplification |
//! | [`e4_distributed_mgmt`] | distance-vector convergence across administrative regions |
//! | [`e5_cost`] | end-to-end vs hop-by-hop retransmission; header overhead |
//! | [`e6_host_cost`] | per-packet and per-connection work the stack makes a host do |
//! | [`e7_accounting`] | gateway accounting error under end-to-end retransmission |
//! | [`e8_soft_state`] | soft-state flow tables rebuilding after gateway loss |
//! | [`e9_byte_sequencing`] | TCP byte sequencing vs packet sequencing |
//! | [`e10_realizations`] | one architecture across LAN / terrestrial / satellite realizations |
//! | [`e11_gauntlet`] | end-to-end invariants under scripted chaos (the survivability gauntlet) |
//! | [`e12_reconvergence`] | per-heal routing reconvergence, measured and bounded |
//! | [`e13_scale`] | scale at 50–400 gateways: the timer wheel pop for pop against its heap reference, and steady-state forwarding that allocates and relocates nothing |
//! | [`e14_routeguard`] | byzantine blast radius with and without the route-guard defense |
//! | [`e16_accountability`] | crash-reconcilable usage reports, 10⁵-flow churn, CRC32C vs checksum escapes |
//! | [`e17_parallel`] | sharded parallel execution: window counters per shard count, dumps byte-identical at every K |
//!
//! [`ablations`] additionally turns individual design choices *off* —
//! congestion control, split horizon, Nagle, source quench — and
//! measures what each was buying (tables A1–A4).
//!
//! Every experiment is deterministic given its seed list; `cargo run
//! --release --bin reproduce` regenerates every table in
//! `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ablations;
pub mod channel;
pub mod e1_survivability;
pub mod e10_realizations;
pub mod e11_gauntlet;
pub mod e12_reconvergence;
pub mod e13_scale;
pub mod e14_routeguard;
pub mod e16_accountability;
pub mod e17_parallel;
pub mod e2_type_of_service;
pub mod e3_variety;
pub mod e4_distributed_mgmt;
pub mod e5_cost;
pub mod e6_host_cost;
pub mod e7_accounting;
pub mod e8_soft_state;
pub mod e9_byte_sequencing;
pub mod table;
pub mod topo;

pub use table::Table;

/// The default seed set experiments average over.
pub const SEEDS: [u64; 5] = [11, 23, 37, 41, 53];

/// Two renderings of one BENCH file from two batteries: byte-equal, and
/// holding no wall-clock, host or mode field.
#[cfg(test)]
fn assert_pure_json(a: &str, b: &str) {
    assert_eq!(a, b, "the JSON replays bit-for-bit");
    for key in ["_ms", "speedup", "host_cores", "ns_per", "events_per_sec", "\"mode\""] {
        assert!(!a.contains(key), "{key} in {a}");
    }
}
