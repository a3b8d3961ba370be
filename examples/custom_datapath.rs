//! Using the lower-level APIs directly: build a CDFG programmatically with
//! the builder (no HDL text), inspect its structure, compare the baseline and
//! Wavesched schedulers, and estimate the power of a hand-built RT-level
//! architecture.
//!
//! Run with `cargo run --example custom_datapath`.

use impact::cdfg::{CdfgBuilder, Operation, ValueRef};
use impact::modlib::ModuleLibrary;
use impact::power::{PowerConfig, PowerEstimator};
use impact::prelude::*;
use impact::rtl::RtlDesign;
use impact::sched::uniform_problem;
use impact::trace::RtTraces;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small accumulate-and-saturate kernel built node by node:
    //   for (i = 0; i < 12; i++) { acc = acc + gain * sample; }
    //   if (acc > 200) { acc = 200; }
    let mut b = CdfgBuilder::new("saturating_mac");
    let sample = b.input("sample", 8);
    let gain = b.input("gain", 4);
    let out = b.output("acc_out", 16);
    b.local("acc", 16, Some(0))?;
    b.local("i", 8, Some(0))?;
    let acc = b.variable("acc").expect("declared above");
    let i = b.variable("i").expect("declared above");

    b.begin_loop("mac");
    let cond = b.binary(Operation::Lt, ValueRef::Var(i), ValueRef::Const(12), "c")?;
    b.end_loop_header(ValueRef::Var(cond));
    let product = b.binary(
        Operation::Mul,
        ValueRef::Var(sample),
        ValueRef::Var(gain),
        "%p",
    )?;
    b.binary(
        Operation::Add,
        ValueRef::Var(acc),
        ValueRef::Var(product),
        "acc",
    )?;
    b.binary(Operation::Add, ValueRef::Var(i), ValueRef::Const(1), "i")?;
    b.end_loop();

    let sat = b.binary(
        Operation::Gt,
        ValueRef::Var(acc),
        ValueRef::Const(200),
        "sat",
    )?;
    b.begin_branch(ValueRef::Var(sat));
    b.assign(ValueRef::Const(200), "acc")?;
    b.end_branch();
    b.emit_output(ValueRef::Var(acc), out);
    let cdfg = b.finish()?;
    println!(
        "Built `{}` with {} nodes and {} edges",
        cdfg.name(),
        cdfg.node_count(),
        cdfg.edge_count()
    );
    println!(
        "Graphviz dump available via Cdfg::to_dot ({} characters)",
        cdfg.to_dot().len()
    );

    // Simulate over a pulse-like input stream.
    let inputs: Vec<Vec<i64>> = (0..32).map(|k| vec![(k * 7) % 64, 1 + k % 4]).collect();
    let trace = simulate(&cdfg, &inputs)?;

    // Compare the two schedulers on the fully parallel architecture.
    let problem = uniform_problem(&cdfg, trace.profile());
    let baseline = BaselineScheduler::new().schedule(&problem)?;
    let wave = WaveScheduler::new().schedule(&problem)?;
    println!();
    println!(
        "Baseline scheduler : ENC {:.1}, {} states",
        baseline.enc,
        baseline.stg.state_count()
    );
    println!(
        "Wavesched          : ENC {:.1}, {} states",
        wave.enc,
        wave.stg.state_count()
    );

    // Estimate the power of the fully parallel RT architecture by hand.
    let library = ModuleLibrary::standard();
    let design = RtlDesign::initial_parallel(&cdfg, &library);
    let rt = RtTraces::new(&cdfg, &design, &trace);
    let estimator = PowerEstimator::new(&library, PowerConfig::default());
    let breakdown = estimator.estimate(&cdfg, &design, &rt, &wave.summary());
    println!();
    println!("Fully parallel architecture at 5 V:");
    println!(
        "  functional units : {:.4} mW",
        breakdown.functional_units_mw
    );
    println!("  registers        : {:.4} mW", breakdown.registers_mw);
    println!(
        "  mux networks     : {:.4} mW ({:.0}% of total)",
        breakdown.multiplexers_mw,
        100.0 * breakdown.mux_share()
    );
    println!("  controller       : {:.4} mW", breakdown.controller_mw);
    println!("  clock            : {:.4} mW", breakdown.clock_mw);
    println!("  total            : {:.4} mW", breakdown.total_mw());

    // And finally let IMPACT optimize it.
    let outcome = Impact::new(SynthesisConfig::power_optimized(2.0)).synthesize(&cdfg, &trace)?;
    println!();
    println!(
        "IMPACT result: {:.4} mW at {:.1} V with {} moves (vs {:.4} mW parallel at 5 V)",
        outcome.report.power_mw,
        outcome.report.vdd,
        outcome.report.moves_applied,
        outcome.report.initial_power_mw
    );
    Ok(())
}
