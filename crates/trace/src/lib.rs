//! Trace manipulation: deriving RT-level unit traces and switching statistics
//! from one behavioral simulation.
//!
//! Section 2.3 of the paper: "an RT level simulation technique based on trace
//! manipulation … records signal traces of the inputs and outputs of each
//! functional unit, register, and multiplexer, and transforms signals
//! appropriately when a synthesis task (resource sharing, module selection)
//! is executed, without the need for re-simulation."
//!
//! The behavioral simulation of `impact-behsim` records, for every operation,
//! one trace row per execution in dynamic order, stored as columns. For any
//! RT-level design (allocation + binding) over the same CDFG, this crate
//! derives
//!
//! * the trace of every **functional unit** by a k-way merge of the traces
//!   of the operations bound to it, in dynamic execution order (exactly the
//!   `TR(A1|e8)` merge of the paper's three-addition example),
//! * the value sequence and switching activity of every **register**,
//! * the per-source activity (`a_i`) and probability of propagation (`p_i`)
//!   of every **multiplexer site**, ready for the mux-tree activity equations
//!   in `impact-rtl`.
//!
//! Because moves only change binding and module selection — never the set of
//! behaviors — one behavioral simulation suffices;
//! [`RtTraces::needs_resimulation`] reports whether any operation was never
//! exercised by the recorded inputs (the paper's criterion for re-simulating).

mod activity;
mod merge;
mod rt;
mod workload;

pub use activity::{hamming_distance, sequence_activity, toggle_count};
pub use rt::{FuStats, RegStats, RtTraces};
pub use workload::workload_digest;
