#![allow(clippy::unwrap_used)]

//! Property tests of the incremental engine's schedule path: for arbitrary
//! move sequences, seeds, laxities and supply levels, the incremental engine
//! (every schedule-memo miss composed through the session's block layer, so
//! only blocks no earlier schedule stored are list-scheduled) is
//! bit-identical — STG states, ENC and power — to the full-reschedule oracle
//! (`EngineConfig::full_reschedule`) and to the brute-force sequential path.
//! The block layer is the only difference between the two engines: every
//! other cache layer sees exactly the oracle's traffic.

use impact_behsim::simulate;
use impact_cdfg::Cdfg;
use impact_core::{EngineConfig, Evaluator, Impact, Move, SynthesisConfig};
use impact_modlib::ModuleLibrary;
use impact_rtl::RtlDesign;
use proptest::prelude::*;

fn gcd_setup(passes: usize) -> (Cdfg, impact_behsim::ExecutionTrace) {
    let bench = impact_benchmarks::gcd();
    let cdfg = bench.compile().unwrap();
    let inputs = bench.input_sequences(passes, 29);
    let trace = simulate(&cdfg, &inputs).unwrap();
    (cdfg, trace)
}

/// Every move applicable to `design` (the test's own enumeration,
/// independent of the engine's generator).
fn candidate_moves(cdfg: &Cdfg, library: &ModuleLibrary, design: &RtlDesign) -> Vec<Move> {
    let mut moves = Vec::new();
    for site in design.mux_sites(cdfg) {
        if site.fan_in() >= 2 && !design.is_restructured(site.sink) {
            moves.push(Move::RestructureMux { sink: site.sink });
        }
    }
    for (fu, unit) in design.functional_units() {
        for variant in library.variants_for(unit.class) {
            if variant != unit.module {
                moves.push(Move::SubstituteModule {
                    fu,
                    module: variant,
                });
            }
        }
    }
    let units: Vec<_> = design
        .functional_units()
        .map(|(id, u)| (id, u.class))
        .collect();
    for (i, &(a, class_a)) in units.iter().enumerate() {
        for &(b, class_b) in units.iter().skip(i + 1) {
            if class_a == class_b {
                moves.push(Move::ShareFus { keep: a, remove: b });
            }
        }
    }
    for (fu, _) in design.functional_units() {
        let ops = design.ops_on(fu);
        if ops.len() >= 2 {
            moves.push(Move::SplitFu {
                fu,
                op: ops[ops.len() - 1],
            });
        }
    }
    let regs: Vec<_> = design.registers().map(|(id, _)| id).collect();
    for (i, &a) in regs.iter().enumerate() {
        for &b in regs.iter().skip(i + 1) {
            moves.push(Move::ShareRegisters { keep: a, remove: b });
        }
    }
    moves
}

/// Deterministic pseudo-random successor (LCG).
fn next_seed(seed: u64) -> u64 {
    seed.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

/// Applies a seed-selected sequence of up to `depth` moves.
fn apply_sequence(
    cdfg: &Cdfg,
    library: &ModuleLibrary,
    design: &mut RtlDesign,
    mut seed: u64,
    depth: usize,
) {
    for _ in 0..depth {
        let moves = candidate_moves(cdfg, library, design);
        if moves.is_empty() {
            break;
        }
        let mv = moves[(seed as usize) % moves.len()].clone();
        seed = next_seed(seed);
        let _ = mv.apply(cdfg, library, design);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn repaired_evaluation_matches_the_full_reschedule_oracle(
        seed in 0u64..1_000_000,
        depth in 0usize..5,
        level_index in 0usize..39,
        laxity_steps in 0u32..11,
    ) {
        let laxity = 1.0 + 0.2 * f64::from(laxity_steps);
        let (cdfg, trace) = gcd_setup(8);
        let config = SynthesisConfig::power_optimized(laxity);
        let incremental = Evaluator::new(&cdfg, &trace, config.clone()).unwrap();
        let oracle = Evaluator::new(
            &cdfg,
            &trace,
            config.clone().with_engine(EngineConfig::full_reschedule()),
        )
        .unwrap();
        let brute = Evaluator::new(
            &cdfg,
            &trace,
            config.with_engine(EngineConfig::sequential()),
        )
        .unwrap();
        // An arbitrary parent: the initial architecture after a seed-selected
        // move sequence.
        let mut parent = RtlDesign::initial_parallel(&cdfg, incremental.library());
        apply_sequence(&cdfg, incremental.library(), &mut parent, seed, depth);
        let levels = incremental.library().vdd().levels().to_vec();
        let vdd = levels[level_index % levels.len()];
        // The parent is evaluated first, as the search kernel does, so its
        // blocks are in the block layer when the candidates compose.
        prop_assert_eq!(
            incremental.evaluate(&parent).unwrap(),
            brute.evaluate(&parent).unwrap()
        );
        // Every candidate move off this parent is costed identically by the
        // three paths, at a fixed level and under the full supply search.
        // DesignPoint equality covers the schedule bit-for-bit: STG states
        // and transitions, ENC and power.
        let moves = candidate_moves(&cdfg, incremental.library(), &parent);
        let mut probe = seed;
        for _ in 0..4 {
            let mv = &moves[(probe as usize) % moves.len()];
            probe = next_seed(probe);
            let composed = incremental.evaluate_move_at_vdd(&parent, mv, vdd).unwrap();
            let rescheduled = oracle.evaluate_move_at_vdd(&parent, mv, vdd).unwrap();
            let cold = brute.evaluate_move_at_vdd(&parent, mv, vdd).unwrap();
            prop_assert_eq!(&composed, &rescheduled, "incremental vs full reschedule at {}", vdd);
            prop_assert_eq!(&composed, &cold, "incremental vs brute force at {}", vdd);
            let composed_full = incremental.evaluate_move(&parent, mv).unwrap();
            let rescheduled_full = oracle.evaluate_move(&parent, mv).unwrap();
            let cold_full = brute.evaluate_move(&parent, mv).unwrap();
            prop_assert_eq!(&composed_full, &rescheduled_full);
            prop_assert_eq!(&composed_full, &cold_full);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn repaired_engine_synthesizes_identically_to_the_oracle_engine(
        laxity_steps in 0u32..5,
    ) {
        let laxity = 1.0 + 0.5 * f64::from(laxity_steps);
        let (cdfg, trace) = gcd_setup(10);
        let config = SynthesisConfig::power_optimized(laxity).with_effort(2, 3);
        let composed = Impact::new(config.clone().with_engine(EngineConfig::incremental()))
            .synthesize(&cdfg, &trace)
            .unwrap();
        let oracle = Impact::new(config.clone().with_engine(EngineConfig::full_reschedule()))
            .synthesize(&cdfg, &trace)
            .unwrap();
        let brute = Impact::new(config.with_engine(EngineConfig::sequential()))
            .synthesize(&cdfg, &trace)
            .unwrap();
        prop_assert_eq!(&composed.report, &oracle.report);
        prop_assert_eq!(&composed.report, &brute.report);
        prop_assert_eq!(&composed.design, &oracle.design);
        prop_assert_eq!(&composed.design, &brute.design);
        prop_assert_eq!(composed.history.len(), oracle.history.len());
        // The incremental engine actually exercises the block layer; the
        // oracle never touches it.
        prop_assert!(composed.cache_stats.block.hits + composed.cache_stats.block.misses > 0);
        prop_assert_eq!(oracle.cache_stats.block.hits + oracle.cache_stats.block.misses, 0);
        // Incremental is FullReschedule plus the block layer: every other
        // layer sees the same lookups, hits and misses.
        let (ours, theirs) = (&composed.cache_stats, &oracle.cache_stats);
        prop_assert_eq!(ours.trace_stats, theirs.trace_stats);
        prop_assert_eq!(ours.context, theirs.context);
        prop_assert_eq!(ours.schedule, theirs.schedule);
        prop_assert_eq!(ours.point, theirs.point);
        prop_assert_eq!(ours.scaled, theirs.scaled);
    }
}
