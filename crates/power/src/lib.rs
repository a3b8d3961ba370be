//! RT-level power and area estimation.
//!
//! This crate stands in for the RT-level estimator of \[19\] the paper plugs
//! its trace statistics into: average power is computed per RT-level unit
//! from effective switched capacitance, supply voltage, switching activity
//! and activation counts, and reported as a [`PowerBreakdown`] over
//! functional units, registers, multiplexer networks, controller and clock —
//! the same decomposition the paper uses when it observes that "interconnect
//! in the form of multiplexer networks may consume more than 40 % of the
//! total power of a CFI circuit".
//!
//! Average power of one unit is
//!
//! ```text
//! P = C_eff · Vdd² · activity · activations_per_pass / (ENC · T_clk)
//! ```
//!
//! with `C_eff` from the module library, activity and activation counts from
//! trace manipulation (`impact-trace`) and the expected number of cycles from
//! the schedule.
//!
//! # Example
//!
//! ```
//! use impact_power::{PowerConfig, PowerEstimator};
//! use impact_rtl::RtlDesign;
//! use impact_sched::{uniform_problem, Scheduler, WaveScheduler};
//! use impact_trace::RtTraces;
//!
//! let cdfg = impact_hdl::compile(
//!     "design d { input a: 8, b: 8; output y: 8; y = a + b; }",
//! )?;
//! let trace = impact_behsim::simulate(&cdfg, &[vec![1, 2], vec![200, 9]])?;
//! let library = impact_modlib::ModuleLibrary::standard();
//! let design = RtlDesign::initial_parallel(&cdfg, &library);
//! let schedule = WaveScheduler::new().schedule(&uniform_problem(&cdfg, trace.profile()))?;
//! let rt = RtTraces::new(&cdfg, &design, &trace);
//! let estimator = PowerEstimator::new(&library, PowerConfig::default());
//! let breakdown = estimator.estimate(&cdfg, &design, &rt, &schedule.summary());
//! assert!(breakdown.total_mw() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod estimator;

pub use estimator::{
    FuPowerProfile, MuxPowerProfile, PowerBreakdown, PowerConfig, PowerEstimator, PowerProfile,
    RegPowerProfile,
};
