//! # catenet-accounting
//!
//! Goal 7 made concrete — the accountability subsystem Clark's paper
//! admits the architecture serves worst ("the Internet architecture
//! contains few tools for accounting for packet flows ... research is
//! needed", §9) built along the lines its closing section proposes:
//!
//! - **[`FlowTable`]** — the paper's §10 "flow" building block: soft
//!   per-flow gateway state keyed by the 5-tuple, with bounded capacity,
//!   exact-LRU eviction and idle evaporation, sized for ~10⁵ concurrent
//!   flows. Everything in it is reconstructible from the datagrams
//!   themselves, so a crash costs a re-learning transient and nothing
//!   more (experiments E8 and E16 measure the transient).
//! - **[`Ledger`]** — the billing view (who talked to whom, with which
//!   protocol), now *epoch-stamped*: every crash opens a new epoch, so
//!   records from before and after a reboot never alias.
//! - **[`GatewayReport`] / [`ReportCollector`] / [`Reconciliation`]** —
//!   periodic usage reports flushed out of the volatile ledger into an
//!   administrative collector, merged into a network-wide reconciliation
//!   that attributes every carried byte to an (origin, flow) pair or an
//!   explicit unattributed/forfeited bucket. The conservation identity
//!   (reports + live tail + crash-forfeited tail = everything ever
//!   recorded) is what lets crash-storm runs still reconcile against
//!   endpoint counts — E16 prices it.
//!
//! The crate is deliberately free of simulator or stack dependencies
//! beyond wire formats and virtual time: a gateway, a host, or an
//! offline report processor can all use it.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod flow;
pub mod ledger;
pub mod report;
pub mod table;

pub use flow::{Classified, FlowId, FlowState, FragKey};
pub use ledger::{Account, AccountKey, Ledger};
pub use report::{GatewayReport, Reconciliation, ReportCollector};
pub use table::FlowTable;
