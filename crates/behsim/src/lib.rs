//! Behavioral (CDFG-level) simulator and execution-trace recorder.
//!
//! Section 2.3 of the paper relies on **one** behavioral simulation of the
//! design over "typical input sequences" to obtain the signal traces and
//! statistics that drive power estimation; later synthesis moves manipulate
//! those traces instead of re-simulating. This crate performs that behavioral
//! simulation: it interprets a [`Cdfg`](impact_cdfg::Cdfg) through its region
//! tree over a sequence of input passes and records
//!
//! * one [`NodeTrace`] per operation, a row per execution stored as
//!   columns (the per-operation traces `TR(op_i)` of the paper),
//! * the sequence of values written to every variable (register traces),
//! * branch-taken statistics (the probabilities of propagation `p_i`),
//! * loop iteration statistics (expected trip counts for ENC computation),
//! * primary-output values per pass (used by correctness tests).
//!
//! Values are simulated as unbounded `i64` behavioral quantities; bit widths
//! are used for area/power characterization, not for value truncation.
//!
//! # Example
//!
//! ```
//! let cdfg = impact_hdl::compile(
//!     "design acc { input a: 8; output y: 8; var s: 8 = 0; var i: 8;
//!        for (i = 0; i < 4; i = i + 1) { s = s + a; }
//!        y = s; }",
//! )?;
//! let inputs = vec![vec![3], vec![5]];
//! let trace = impact_behsim::simulate(&cdfg, &inputs)?;
//! assert_eq!(trace.passes(), 2);
//! let y = cdfg.variable_by_name("y").unwrap();
//! assert_eq!(trace.output(0, y), Some(12));
//! assert_eq!(trace.output(1, y), Some(20));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod error;
mod event;
mod profile;
mod sim;

pub use error::SimError;
pub use event::{Event, ExecutionTrace, NodeTrace};
pub use profile::{branch_count, BranchStats, ControlProfile, LoopStats};
pub use sim::{simulate, Simulator};
