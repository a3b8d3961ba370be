#![allow(clippy::unwrap_used)]

//! Property tests of the incremental evaluation engine: the Vdd binary
//! search agrees with an exhaustive linear scan of the supply grid, and
//! cached and uncached evaluation are bit-identical. That the two engines
//! synthesize identical results is `delta.rs`'s
//! `delta_engine_synthesizes_identically_to_the_oracle_engine`.

use std::sync::Arc;

use impact_behsim::simulate;
use impact_cdfg::{Cdfg, OpClass};
use impact_core::{DesignPoint, EngineConfig, Evaluator, SynthesisConfig};
use impact_rtl::RtlDesign;
use proptest::prelude::*;

fn gcd_setup(passes: usize) -> (Cdfg, impact_behsim::ExecutionTrace) {
    let bench = impact_benchmarks::gcd();
    let cdfg = bench.compile().unwrap();
    let inputs = bench.input_sequences(passes, 7);
    let trace = simulate(&cdfg, &inputs).unwrap();
    (cdfg, trace)
}

/// Derives a design from the initial parallel architecture by applying a
/// deterministic pseudo-random subset of moves selected by `seed`.
fn mutated_design(cdfg: &Cdfg, evaluator: &Evaluator<'_>, seed: u64) -> RtlDesign {
    let mut design = RtlDesign::initial_parallel(cdfg, evaluator.library());
    if seed & 1 == 1 {
        let adders = design.units_of_class(OpClass::AddSub);
        if adders.len() >= 2 {
            design.share_fus(adders[0], adders[1]).unwrap();
        }
    }
    if seed & 2 == 2 {
        let comparators = design.units_of_class(OpClass::Compare);
        if comparators.len() >= 2 {
            design.share_fus(comparators[0], comparators[1]).unwrap();
        }
    }
    if seed & 4 == 4 {
        let adders = design.units_of_class(OpClass::AddSub);
        let ripple = evaluator.library().variant_by_name("ripple_adder").unwrap();
        if let Some(&fu) = adders.first() {
            design
                .substitute_module(evaluator.library(), fu, ripple)
                .unwrap();
        }
    }
    if seed & 8 == 8 {
        for site in design.mux_sites(cdfg) {
            design.set_restructured(site.sink, true);
        }
    }
    if seed & 16 == 16 {
        let registers: Vec<_> = design.registers().map(|(id, _)| id).collect();
        if registers.len() >= 2 {
            design.share_registers(registers[0], registers[1]).unwrap();
        }
    }
    design
}

/// The exhaustive reference implementation of the supply search: scan the
/// grid bottom-up and take the first feasible level.
fn linear_scan(evaluator: &Evaluator<'_>, design: &RtlDesign) -> Option<Arc<DesignPoint>> {
    evaluator
        .evaluate_at_vdd(design, impact_modlib::VDD_REFERENCE)
        .unwrap()?;
    let levels = evaluator.library().vdd().levels().to_vec();
    levels
        .iter()
        .find_map(|&level| evaluator.evaluate_at_vdd(design, level).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn evaluate_matches_an_exhaustive_linear_scan(
        seed in 0u64..32,
        laxity_steps in 0u32..11,
    ) {
        let laxity = 1.0 + 0.2 * f64::from(laxity_steps);
        let (cdfg, trace) = gcd_setup(10);
        let evaluator =
            Evaluator::new(&cdfg, &trace, SynthesisConfig::power_optimized(laxity)).unwrap();
        let design = mutated_design(&cdfg, &evaluator, seed);
        let searched = evaluator.evaluate(&design).unwrap();
        let scanned = linear_scan(&evaluator, &design);
        prop_assert_eq!(searched, scanned);
    }

    #[test]
    fn cached_and_uncached_points_are_bit_identical(
        seed in 0u64..32,
        level_index in 0usize..39,
    ) {
        let (cdfg, trace) = gcd_setup(10);
        let config = SynthesisConfig::power_optimized(1.7);
        let cached = Evaluator::new(&cdfg, &trace, config.clone()).unwrap();
        let uncached = Evaluator::new(
            &cdfg,
            &trace,
            config.with_engine(EngineConfig::sequential()),
        )
        .unwrap();
        let design = mutated_design(&cdfg, &cached, seed);
        let levels = cached.library().vdd().levels().to_vec();
        let vdd = levels[level_index % levels.len()];
        let warm = cached.evaluate_at_vdd(&design, vdd).unwrap();
        let replay = cached.evaluate_at_vdd(&design, vdd).unwrap();
        let cold = uncached.evaluate_at_vdd(&design, vdd).unwrap();
        prop_assert_eq!(&warm, &replay);
        prop_assert_eq!(&warm, &cold);
        prop_assert_eq!(cached.evaluate(&design).unwrap(), uncached.evaluate(&design).unwrap());
    }
}
