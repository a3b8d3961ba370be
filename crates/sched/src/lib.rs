//! Schedulers for control-flow intensive CDFGs.
//!
//! Two schedulers are provided, both producing a probabilistic
//! [`Stg`](impact_stg::Stg) whose transition probabilities come from the
//! behavioral profile:
//!
//! * [`BaselineScheduler`] — a path/basic-block list scheduler standing in for
//!   the conventional CFG schedulers the paper compares against ([9, 17]):
//!   no operation chaining, loops execute strictly sequentially, every loop
//!   iteration re-evaluates its header in its own state.
//! * [`WaveScheduler`] — the Wavesched-style scheduler IMPACT uses (\[18\]):
//!   operation chaining within the clock period, **concurrent loop
//!   optimization** (independent sibling loops are scheduled together), and
//!   **implicit loop unrolling** (the next iteration's header overlaps the
//!   last body state when dependences and resources allow), which minimizes
//!   the expected number of cycles without hurting the minimum or maximum
//!   schedule length.
//!
//! Both schedulers are resource-constrained (operations bound to the same
//! functional unit never share a state) and clock-period-constrained
//! (chained delays, including the 10 % chaining overhead, must fit in the
//! clock).
//!
//! Both return a [`Schedule`]: the STG and its ENC. What the power and area
//! models read of it is [`Schedule::summary`], a [`SchedulingResult`] of
//! four numbers, and that summary is what the evaluator caches.
//!
//! # Example
//!
//! ```
//! use impact_sched::{uniform_problem, BaselineScheduler, Scheduler, WaveScheduler};
//!
//! let cdfg = impact_hdl::compile(
//!     "design acc { input a: 8; output y: 16; var s: 16 = 0; var i: 8;
//!        for (i = 0; i < 8; i = i + 1) { s = s + a; }
//!        y = s; }",
//! )?;
//! let trace = impact_behsim::simulate(&cdfg, &[vec![3], vec![4]])?;
//! let problem = uniform_problem(&cdfg, trace.profile());
//! let base = BaselineScheduler::new().schedule(&problem)?;
//! let wave = WaveScheduler::new().schedule(&problem)?;
//! assert!(wave.enc <= base.enc, "Wavesched never increases the ENC");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod block;
mod error;
mod hierarchical;
mod problem;

pub use block::{block_digest, schedule_block, BlockSchedule, PlacedOp};
pub use error::SchedError;
pub use hierarchical::{
    compose, BaselineScheduler, BlockSource, InlineBlocks, RecordingBlocks, Scheduler,
    WaveScheduler,
};
pub use problem::{
    problem_digest, uniform_problem, Schedule, ScheduleConfig, SchedulingProblem, SchedulingResult,
};
