//! # IMPACT — low-power high-level synthesis for control-flow intensive circuits
//!
//! This is the facade crate for the workspace reproducing
//! *"IMPACT: A High-Level Synthesis System for Low Power Control-Flow
//! Intensive Circuits"* (Khouri, Lakshminarayana, Jha — DATE 1998).
//!
//! It re-exports every sub-crate under a stable module hierarchy so that
//! downstream users can depend on a single crate:
//!
//! ```
//! use impact::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Compile a behavioral description to a CDFG …
//! let program = impact::benchmarks::gcd();
//! let cdfg = impact::hdl::compile(&program.source)?;
//! // … simulate it to obtain traces, and synthesize a low-power design.
//! let inputs = program.input_sequences(64, 7);
//! let exec = impact::behsim::simulate(&cdfg, &inputs)?;
//! let config = impact::core::SynthesisConfig::power_optimized(2.0);
//! let outcome = impact::core::Impact::new(config).synthesize(&cdfg, &exec)?;
//! assert!(outcome.report.power_mw > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! See the individual crates for the full API:
//!
//! * [`cdfg`] — the control-data flow graph intermediate representation,
//! * [`hdl`] — the behavioral frontend compiler,
//! * [`modlib`] — the RT-level module library,
//! * [`behsim`] — the behavioral simulator and trace recorder,
//! * [`stg`] — the state transition graph and ENC analysis,
//! * [`sched`] — the Wavesched-style and baseline schedulers,
//! * [`rtl`] — RT-level architectures (datapath, binding, mux trees, controller),
//! * [`trace`] — trace manipulation and switching statistics,
//! * [`power`] — the RT-level power estimator and Vdd scaling,
//! * [`core`] — the IMPACT iterative-improvement synthesis engine,
//! * [`benchmarks`] — the six paper benchmarks and their input generators.

pub use impact_behsim as behsim;
pub use impact_benchmarks as benchmarks;
pub use impact_cdfg as cdfg;
pub use impact_core as core;
pub use impact_hdl as hdl;
pub use impact_modlib as modlib;
pub use impact_power as power;
pub use impact_rtl as rtl;
pub use impact_sched as sched;
pub use impact_stg as stg;
pub use impact_trace as trace;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use impact_behsim::{simulate, ExecutionTrace};
    pub use impact_benchmarks::{all_benchmarks, Benchmark};
    pub use impact_cdfg::{Cdfg, CdfgBuilder, NodeId, Operation};
    pub use impact_core::{
        Impact, OptimizationMode, SweepSession, SynthesisConfig, SynthesisOutcome,
    };
    pub use impact_hdl::compile;
    pub use impact_modlib::ModuleLibrary;
    pub use impact_power::{PowerBreakdown, PowerEstimator};
    pub use impact_sched::{BaselineScheduler, Scheduler, WaveScheduler};
    pub use impact_stg::Stg;
}
