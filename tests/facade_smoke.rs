#![allow(clippy::unwrap_used)]

//! Smoke test for the `impact` facade crate: the prelude glob-import
//! compiles, every re-exported module is reachable, and the full
//! compile → simulate → synthesize pipeline runs through the prelude names
//! alone (the same flow as the crate-level quickstart doctest).

use impact::prelude::*;

#[test]
fn prelude_names_resolve_and_pipeline_runs() {
    // Every prelude item is nameable (compile-time check doubling as a
    // guard against accidental re-export removals).
    let _baseline: BaselineScheduler = BaselineScheduler::new();
    let _wave: WaveScheduler = WaveScheduler::new();
    let _library = ModuleLibrary::standard();
    let _mode = OptimizationMode::Power;

    let benchmarks = all_benchmarks();
    assert_eq!(benchmarks.len(), 6, "the paper's six benchmarks");

    // End-to-end through prelude names only.
    let bench: Benchmark = impact::benchmarks::gcd();
    let cdfg: Cdfg = compile(bench.source).expect("gcd compiles");
    assert!(cdfg.validate().is_ok());
    let trace: ExecutionTrace =
        simulate(&cdfg, &bench.input_sequences(8, 7)).expect("gcd simulates");
    assert_eq!(trace.passes(), 8);

    let config = SynthesisConfig::power_optimized(2.0);
    let outcome: SynthesisOutcome = Impact::new(config)
        .synthesize(&cdfg, &trace)
        .expect("gcd synthesizes");
    assert!(outcome.report.power_mw > 0.0);
    assert!(outcome.report.enc <= outcome.report.enc_limit + 1e-6);
}

#[test]
fn facade_modules_are_reachable() {
    // One cheap touch per re-exported module.
    let _ = impact::cdfg::CdfgBuilder::new("touch");
    let _ = impact::hdl::compile("design t { input a: 8; output y: 8; y = a; }").unwrap();
    let _ = impact::modlib::ModuleLibrary::standard();
    let _ = impact::stg::Stg::new(15.0);
    let _ = impact::trace::hamming_distance(3, 5, 8);
    let _ = impact::power::PowerConfig::default();
    let _ = impact::rtl::MuxSource::new("s", 0.5, 0.5);
    let _ = impact::core::SynthesisConfig::area_optimized(1.0);
    let _ = impact::benchmarks::all_benchmarks();
}
