//! End-to-end and per-layer benchmark of the IMPACT Figure 13 flow.
//!
//! `flow` drives the library through its public entry points, `oracle`
//! checks every report, `tracing` attributes a traced round's CPU to the
//! cache layers, `sys` reads the clocks and `/proc` counters, and
//! `calibration` scales CPU time to a reference machine speed. The binary
//! in `main.rs` runs one workload and prints its metrics; see `NOTES.md`
//! for what each workload and metric is for.

pub mod calibration;
pub mod flow;
pub mod oracle;
pub mod sys;
pub mod tracing;
