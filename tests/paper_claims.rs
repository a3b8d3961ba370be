#![allow(clippy::unwrap_used)]

//! Integration tests pinning the qualitative claims of the paper that the
//! library must reproduce. The binaries listed in README's "Experiments"
//! section print the quantitative results.

use impact::prelude::*;
use impact::rtl::{MuxSource, MuxTree};
use impact::sched::uniform_problem;

/// Section 3.2.1: the worked mux example's activity numbers are exact.
#[test]
fn mux_example_activities_match_the_paper() {
    let sources = vec![
        MuxSource::new("e1", 0.6, 0.7),
        MuxSource::new("e2", 0.1, 0.2),
        MuxSource::new("e3", 0.2, 0.05),
        MuxSource::new("e4", 0.1, 0.05),
    ];
    let balanced = MuxTree::balanced(sources.clone()).switching_activity();
    let restructured = MuxTree::huffman(sources).switching_activity();
    assert!(
        (balanced - 1.09).abs() < 0.01,
        "balanced activity {balanced}"
    );
    assert!(
        (restructured - 0.72).abs() < 0.01,
        "restructured activity {restructured}"
    );
    let reduction = 1.0 - restructured / balanced;
    assert!((reduction - 0.34).abs() < 0.02, "reduction {reduction}");
}

/// Section 2.2: Wavesched never worsens the ENC and helps most on
/// control-flow intensive designs.
#[test]
fn wavesched_reduces_enc_most_on_cfi_designs() {
    let mut reductions = std::collections::HashMap::new();
    for bench in all_benchmarks() {
        let cdfg = bench.compile().unwrap();
        let inputs = bench.input_sequences(24, 3);
        let trace = simulate(&cdfg, &inputs).unwrap();
        let problem = uniform_problem(&cdfg, trace.profile());
        let base = BaselineScheduler::new().schedule(&problem).unwrap();
        let wave = WaveScheduler::new().schedule(&problem).unwrap();
        assert!(
            wave.enc <= base.enc + 1e-9,
            "{}: wavesched ENC {} worse than baseline {}",
            bench.name,
            wave.enc,
            base.enc
        );
        reductions.insert(bench.name, base.enc / wave.enc);
    }
    // The CFI example with concurrent loops benefits more than the
    // data-dominated Paulin benchmark.
    assert!(
        reductions["loops"] > reductions["paulin"],
        "loops ({:.2}x) should gain more than paulin ({:.2}x)",
        reductions["loops"],
        reductions["paulin"]
    );
}

/// Section 4 (Figure 13 shape): at a generous laxity, the power-optimized
/// design consumes substantially less power than the 5 V base design, and
/// Vdd scaling alone (A-Power) explains only part of the gap.
#[test]
fn power_optimization_beats_vdd_scaling_alone_on_gcd() {
    let bench = impact::benchmarks::gcd();
    let cdfg = bench.compile().unwrap();
    let inputs = bench.input_sequences(32, 13);
    let trace = simulate(&cdfg, &inputs).unwrap();

    let base = Impact::new(SynthesisConfig::area_optimized(1.0).with_effort(2, 4))
        .synthesize(&cdfg, &trace)
        .unwrap();
    let area_opt = Impact::new(SynthesisConfig::area_optimized(3.0).with_effort(2, 4))
        .synthesize(&cdfg, &trace)
        .unwrap();
    let power_opt = Impact::new(SynthesisConfig::power_optimized(3.0).with_effort(2, 4))
        .synthesize(&cdfg, &trace)
        .unwrap();

    let base_power = base.report.power_at_reference_mw;
    let a_power = area_opt.report.power_mw;
    let i_power = power_opt.report.power_mw;
    assert!(
        i_power < 0.6 * base_power,
        "I-Power ({i_power}) should be well below the 5 V base ({base_power})"
    );
    assert!(
        i_power <= a_power + 1e-9,
        "I-Power ({i_power}) must not exceed A-Power ({a_power})"
    );
}

/// Section 1 / [13]: multiplexer networks are a major power contributor in
/// CFI circuits once resources are shared — the motivation for the
/// restructuring move.
#[test]
fn mux_networks_are_major_consumers_in_shared_cfi_designs() {
    let bench = impact::benchmarks::gcd();
    let cdfg = bench.compile().unwrap();
    let inputs = bench.input_sequences(32, 3);
    let trace = simulate(&cdfg, &inputs).unwrap();
    let outcome = Impact::new(SynthesisConfig::area_optimized(2.0).with_effort(2, 4))
        .synthesize(&cdfg, &trace)
        .unwrap();
    // The paper quotes >40% for its technology; our analytical characterization
    // gives a smaller but still significant share.
    assert!(
        outcome.report.breakdown.mux_share() > 0.05,
        "mux share {:.3} unexpectedly small after area optimization",
        outcome.report.breakdown.mux_share()
    );
    assert!(
        outcome.report.breakdown.multiplexers_mw > 0.0,
        "mux networks must contribute measurable power"
    );
}

/// The paper's Figure 1 counts for the Loops CDFG: three loop structures.
#[test]
fn loops_cdfg_matches_figure_one_structure() {
    let cdfg = impact::benchmarks::loops().compile().unwrap();
    assert_eq!(impact::cdfg::region::total_loop_count(cdfg.regions()), 3);
    let elp_count = cdfg
        .nodes()
        .filter(|(_, n)| n.operation == impact::cdfg::Operation::EndLoop)
        .count();
    assert_eq!(elp_count, 3, "one Elp node terminates each loop");
    let (pos, neg, _) = cdfg.polarity_histogram();
    assert!(
        pos > 0 && neg > 0,
        "both control-port polarities are present"
    );
}
