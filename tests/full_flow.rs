#![allow(clippy::unwrap_used)]

//! End-to-end integration tests: behavioral compilation → simulation →
//! IMPACT synthesis for the paper's benchmarks, checking the constraints and
//! qualitative outcomes the paper reports.

use impact::prelude::*;

fn synthesize(
    bench: &Benchmark,
    passes: usize,
    config: SynthesisConfig,
) -> impact::core::SynthesisOutcome {
    let cdfg = bench.compile().expect("benchmark compiles");
    let inputs = bench.input_sequences(passes, 11);
    let trace = simulate(&cdfg, &inputs).expect("benchmark simulates");
    Impact::new(config.with_effort(2, 4))
        .synthesize(&cdfg, &trace)
        .expect("synthesis succeeds")
}

#[test]
fn every_benchmark_synthesizes_within_its_enc_budget() {
    for bench in all_benchmarks() {
        let outcome = synthesize(&bench, 16, SynthesisConfig::power_optimized(2.0));
        assert!(
            outcome.report.enc <= outcome.report.enc_limit + 1e-6,
            "{}: ENC {} exceeds budget {}",
            bench.name,
            outcome.report.enc,
            outcome.report.enc_limit
        );
        assert!(outcome.report.power_mw > 0.0);
        assert!(outcome.report.area > 0.0);
        assert!(outcome.schedule.stg.validate().is_ok());
    }
}

#[test]
fn power_optimization_beats_the_initial_parallel_architecture() {
    for name in ["gcd", "dealer", "x25_send"] {
        let bench = impact::benchmarks::by_name(name).expect("benchmark exists");
        let outcome = synthesize(&bench, 20, SynthesisConfig::power_optimized(2.5));
        assert!(
            outcome.report.power_mw < outcome.report.initial_power_mw,
            "{name}: optimized power {} should beat the 5 V parallel design {}",
            outcome.report.power_mw,
            outcome.report.initial_power_mw
        );
    }
}

#[test]
fn power_mode_never_loses_to_area_mode_on_power() {
    let bench = impact::benchmarks::gcd();
    let cdfg = bench.compile().unwrap();
    let inputs = bench.input_sequences(20, 5);
    let trace = simulate(&cdfg, &inputs).unwrap();
    let area = Impact::new(SynthesisConfig::area_optimized(2.0).with_effort(2, 4))
        .synthesize(&cdfg, &trace)
        .unwrap();
    let power = Impact::new(SynthesisConfig::power_optimized(2.0).with_effort(2, 4))
        .synthesize(&cdfg, &trace)
        .unwrap();
    assert!(
        power.report.power_mw <= area.report.power_mw * 1.02,
        "I-Power ({}) must not exceed A-Power ({})",
        power.report.power_mw,
        area.report.power_mw
    );
    // The paper's price for power optimization: bounded area overhead.
    assert!(
        power.report.area <= area.report.area * 1.6,
        "area overhead is unreasonably large ({} vs {})",
        power.report.area,
        area.report.area
    );
}

#[test]
fn laxity_sweep_makes_optimized_power_non_increasing() {
    let bench = impact::benchmarks::dealer();
    let cdfg = bench.compile().unwrap();
    let inputs = bench.input_sequences(20, 9);
    let trace = simulate(&cdfg, &inputs).unwrap();
    let mut previous = f64::INFINITY;
    for laxity in [1.0, 1.5, 2.0, 3.0] {
        let outcome = Impact::new(SynthesisConfig::power_optimized(laxity).with_effort(2, 3))
            .synthesize(&cdfg, &trace)
            .unwrap();
        assert!(
            outcome.report.power_mw <= previous * 1.05,
            "power should not rise as laxity grows (laxity {laxity}: {} vs previous {previous})",
            outcome.report.power_mw
        );
        previous = outcome.report.power_mw.min(previous);
    }
}

#[test]
fn synthesized_designs_keep_simulating_correctly() {
    // Synthesis never touches behavior: re-simulating the CDFG after a run
    // gives identical outputs for identical inputs.
    let bench = impact::benchmarks::gcd();
    let cdfg = bench.compile().unwrap();
    let inputs = bench.input_sequences(12, 21);
    let before = simulate(&cdfg, &inputs).unwrap();
    let _ = Impact::new(SynthesisConfig::power_optimized(1.5).with_effort(1, 2))
        .synthesize(&cdfg, &before)
        .unwrap();
    let after = simulate(&cdfg, &inputs).unwrap();
    let out = cdfg.variable_by_name("result").unwrap();
    for pass in 0..inputs.len() {
        assert_eq!(before.output(pass, out), after.output(pass, out));
    }
}

#[test]
fn facade_prelude_exposes_the_full_flow() {
    // Compile from source through the facade, as a downstream user would.
    let cdfg = compile(
        "design demo { input a: 8; output y: 8; var s: 8 = 0; var i: 8;
           for (i = 0; i < 3; i = i + 1) { s = s + a; }
           y = s; }",
    )
    .expect("facade compile works");
    let trace = simulate(&cdfg, &[vec![5], vec![7]]).expect("facade simulate works");
    let problem = impact::sched::uniform_problem(&cdfg, trace.profile());
    let schedule = WaveScheduler::new()
        .schedule(&problem)
        .expect("facade scheduling works");
    assert!(schedule.enc > 1.0);
    let library = ModuleLibrary::standard();
    assert!(!library.is_empty());
}

#[test]
fn a_chain_of_64_branches_synthesizes() {
    // 64 sequential if/else statements: the STG has 2^64 simple paths from
    // its entry, so no schedule may walk them one by one.
    let mut source =
        String::from("design branches { input a: 8, b: 8; output y: 8; var s: 8 = 0;\n");
    for bound in 0..64 {
        source.push_str(&format!(
            "  if (a > {bound}) {{ s = s + b; }} else {{ s = s - b; }}\n"
        ));
    }
    source.push_str("  y = s; }");
    let cdfg = compile(&source).expect("the design compiles");
    let inputs: Vec<Vec<i64>> = (0..8).map(|pass| vec![pass * 9, pass + 1]).collect();
    let trace = simulate(&cdfg, &inputs).expect("the design simulates");
    let outcome = Impact::new(SynthesisConfig::power_optimized(2.0).with_effort(1, 1))
        .synthesize(&cdfg, &trace)
        .expect("synthesis succeeds");
    let stg = &outcome.schedule.stg;
    assert!(stg.validate().is_ok());
    assert!(outcome.report.enc <= outcome.report.enc_limit + 1e-6);
    assert!(
        stg.state_count() >= 2 * 64,
        "each side of each branch holds a state"
    );
}
