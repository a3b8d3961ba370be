#![allow(clippy::unwrap_used)]

//! Property tests of delta evaluation: for arbitrary move sequences, seeds
//! and supply levels, the incremental engine's candidate evaluation
//! (patched fingerprints, patched contexts, memoized schedules composed from
//! the block layer) is bit-identical to the brute-force sequential oracle,
//! and `revert_delta` restores the exact pre-move design.

use impact_behsim::simulate;
use impact_cdfg::Cdfg;
use impact_core::{EngineConfig, Evaluator, Impact, Move, SynthesisConfig};
use impact_modlib::ModuleLibrary;
use impact_rtl::RtlDesign;
use proptest::prelude::*;

fn setup(
    bench: &impact_benchmarks::Benchmark,
    passes: usize,
    trace_seed: u64,
) -> (Cdfg, impact_behsim::ExecutionTrace) {
    let cdfg = bench.compile().unwrap();
    let inputs = bench.input_sequences(passes, trace_seed);
    let trace = simulate(&cdfg, &inputs).unwrap();
    (cdfg, trace)
}

/// Every move applicable to `design`, across all six move families (the
/// test's own enumeration, independent of the engine's generator).
fn candidate_moves(cdfg: &Cdfg, library: &ModuleLibrary, design: &RtlDesign) -> Vec<Move> {
    let mut moves = Vec::new();
    for site in design.mux_sites(cdfg) {
        if !design.is_restructured(site.sink) {
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
    for (reg, r) in design.registers() {
        if r.variables.len() >= 2 {
            moves.push(Move::SplitRegister {
                reg,
                var: r.variables[r.variables.len() - 1],
            });
        }
    }
    moves
}

/// Deterministic pseudo-random successor (LCG).
fn next_seed(seed: u64) -> u64 {
    seed.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

/// Applies a seed-selected sequence of up to `depth` moves, returning the
/// applied moves' deltas together with the chosen moves.
fn apply_sequence(
    cdfg: &Cdfg,
    library: &ModuleLibrary,
    design: &mut RtlDesign,
    mut seed: u64,
    depth: usize,
) -> Vec<(Move, impact_rtl::DesignDelta)> {
    let mut applied = Vec::new();
    for _ in 0..depth {
        let moves = candidate_moves(cdfg, library, design);
        if moves.is_empty() {
            break;
        }
        let mv = moves[(seed as usize) % moves.len()].clone();
        seed = next_seed(seed);
        if let Ok(delta) = mv.apply(cdfg, library, design) {
            applied.push((mv, delta));
        }
    }
    applied
}

/// Moves that must fail on `design`: self-sharing, sharing across classes,
/// a module of another class, splits that would leave a side empty, and
/// moves naming a unit the seeded moves removed from `initial`.
fn failing_moves(initial: &RtlDesign, design: &RtlDesign) -> Vec<Move> {
    let mut moves = Vec::new();
    let units: Vec<_> = design
        .functional_units()
        .map(|(id, u)| (id, u.clone()))
        .collect();
    let ops_by_unit = design.ops_by_unit();
    for (fu, unit) in &units {
        moves.push(Move::ShareFus {
            keep: *fu,
            remove: *fu,
        });
        if let Some((other, other_unit)) = units.iter().find(|(_, u)| u.class != unit.class) {
            moves.push(Move::ShareFus {
                keep: *fu,
                remove: *other,
            });
            moves.push(Move::SubstituteModule {
                fu: *fu,
                module: other_unit.module,
            });
            if let Some(&op) = ops_by_unit[other.index()].first() {
                moves.push(Move::SplitFu { fu: *fu, op });
            }
        }
        if let [op] = ops_by_unit[fu.index()][..] {
            moves.push(Move::SplitFu { fu: *fu, op });
        }
    }
    for (removed, _) in initial.functional_units() {
        if design.functional_unit(removed).is_err() {
            moves.push(Move::SubstituteModule {
                fu: removed,
                module: units[0].1.module,
            });
            moves.push(Move::ShareFus {
                keep: units[0].0,
                remove: removed,
            });
        }
    }
    for (reg, register) in design.registers() {
        moves.push(Move::ShareRegisters {
            keep: reg,
            remove: reg,
        });
        if let [var] = register.variables[..] {
            moves.push(Move::SplitRegister { reg, var });
        }
    }
    moves
}

/// In-place probing depends on this: on every benchmark design, from the
/// initial architecture and after seeded move sequences, every candidate of
/// all six move families applied to a copy and reverted leaves the copy
/// equal to the original, fingerprint included; a move that fails to apply
/// leaves the copy untouched.
#[test]
fn every_move_reverts_to_the_exact_design_on_every_benchmark() {
    let library = ModuleLibrary::standard();
    for bench in impact_benchmarks::all_benchmarks() {
        let cdfg = bench.compile().unwrap();
        let initial = RtlDesign::initial_parallel(&cdfg, &library);
        let mut families = std::collections::BTreeMap::new();
        let mut failures = 0;
        for (seed, steps) in [(0u64, 0), (7, 6), (1998, 20), (42, 40)] {
            let mut parent = initial.clone();
            let mut pick = seed;
            for _ in 0..steps {
                let moves = candidate_moves(&cdfg, &library, &parent);
                let _ = moves[(pick as usize) % moves.len()].apply(&cdfg, &library, &mut parent);
                pick = next_seed(pick);
            }
            let fingerprint = parent.fingerprint();
            let mut copy = parent.clone();
            for mv in candidate_moves(&cdfg, &library, &parent) {
                let what = format!("{} (seed {seed}): {mv}", bench.name);
                match mv.apply(&cdfg, &library, &mut copy) {
                    Ok(delta) => {
                        assert_ne!(copy, parent, "{what}: the move changes the design");
                        copy.revert_delta(&delta);
                        *families.entry(mv.kind()).or_insert(0) += 1;
                    }
                    Err(_) => failures += 1,
                }
                assert_eq!(copy, parent, "{what}");
                assert_eq!(copy.fingerprint(), fingerprint, "{what}");
            }
            for mv in failing_moves(&initial, &parent) {
                let what = format!("{} (seed {seed}): {mv}", bench.name);
                assert!(mv.apply(&cdfg, &library, &mut copy).is_err(), "{what}");
                assert_eq!(copy, parent, "{what}: a failed move changes nothing");
                failures += 1;
            }
        }
        assert_eq!(
            families.len(),
            6,
            "{}: every move family applies ({families:?})",
            bench.name
        );
        assert!(failures > 0, "{}: failing moves are checked", bench.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn fingerprints_patch_exactly_and_deltas_revert_exactly(
        seed in 0u64..1_000_000,
        depth in 1usize..8,
    ) {
        let cdfg = impact_benchmarks::gcd().compile().unwrap();
        let library = ModuleLibrary::standard();
        let mut design = RtlDesign::initial_parallel(&cdfg, &library);
        let original = design.clone();
        let mut running = design.fingerprint();
        let applied = apply_sequence(&cdfg, &library, &mut design, seed, depth);
        prop_assert!(!applied.is_empty(), "some move always applies");
        // Replaying the chain of patches tracks the full recomputation at
        // every step.
        let mut replay = original.clone();
        for (_, delta) in &applied {
            replay.apply_delta(delta);
            running = RtlDesign::fingerprint_update(running, delta);
            prop_assert_eq!(running, replay.fingerprint());
        }
        prop_assert_eq!(&replay, &design);
        // Reverting in reverse order restores the exact pre-move design.
        for (_, delta) in applied.iter().rev() {
            design.revert_delta(delta);
        }
        prop_assert_eq!(&design, &original);
        prop_assert_eq!(design.fingerprint(), original.fingerprint());
    }

    /// On every benchmark design: dealer and x25_send are the wide-mux
    /// ones, whose site deltas a move on gcd never exercises.
    #[test]
    fn delta_patched_evaluation_matches_oracle_and_brute_force(
        seed in 0u64..1_000_000,
        depth in 0usize..5,
        level_index in 0usize..39,
        laxity_steps in 0u32..11,
        parent_first in any::<bool>(),
    ) {
        let laxity = 1.0 + 0.2 * f64::from(laxity_steps);
        for bench in impact_benchmarks::all_benchmarks() {
            let (cdfg, trace) = setup(&bench, 8, 13);
            let config = SynthesisConfig::power_optimized(laxity);
            let delta_eval = Evaluator::new(&cdfg, &trace, config.clone()).unwrap();
            let brute = Evaluator::new(
                &cdfg,
                &trace,
                config.with_engine(EngineConfig::sequential()),
            )
            .unwrap();
            // An arbitrary parent: the initial architecture after a
            // seed-selected move sequence.
            let mut parent = RtlDesign::initial_parallel(&cdfg, delta_eval.library());
            apply_sequence(&cdfg, delta_eval.library(), &mut parent, seed, depth);
            let levels = delta_eval.library().vdd().levels().to_vec();
            let vdd = levels[level_index % levels.len()];
            // Evaluated first, as the search kernel does, the parent leaves
            // its context and blocks in the session, so the candidates patch
            // a cached context and compose from warm blocks; evaluated last,
            // it replays what its candidates cached.
            let parent_matches = || {
                assert_eq!(
                    delta_eval.evaluate(&parent).unwrap(),
                    brute.evaluate(&parent).unwrap(),
                    "{} parent",
                    bench.name
                );
            };
            if parent_first {
                parent_matches();
            }
            // Every candidate move off this parent is costed identically by
            // both engines, at a fixed level and under the full supply
            // search. DesignPoint equality covers the schedule bit for bit:
            // STG states and transitions, ENC and power.
            let moves = candidate_moves(&cdfg, delta_eval.library(), &parent);
            let mut probe = seed;
            for _ in 0..4 {
                let mv = &moves[(probe as usize) % moves.len()];
                probe = next_seed(probe);
                let patched = delta_eval.evaluate_move_at_vdd(&parent, mv, vdd).unwrap();
                let cold = brute.evaluate_move_at_vdd(&parent, mv, vdd).unwrap();
                prop_assert_eq!(&patched, &cold, "{} at {}", bench.name, vdd);
                let patched_full = delta_eval.evaluate_move(&parent, mv).unwrap();
                let cold_full = brute.evaluate_move(&parent, mv).unwrap();
                prop_assert_eq!(&patched_full, &cold_full, "{}", bench.name);
            }
            if !parent_first {
                parent_matches();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn delta_engine_synthesizes_identically_to_the_oracle_engine(
        laxity_steps in 0u32..5,
    ) {
        let laxity = 1.0 + 0.5 * f64::from(laxity_steps);
        for trace_seed in [13, 7] {
            let (cdfg, trace) = setup(&impact_benchmarks::gcd(), 10, trace_seed);
            let config = SynthesisConfig::power_optimized(laxity).with_effort(2, 3);
            let delta = Impact::new(config.clone().with_engine(EngineConfig::incremental()))
                .synthesize(&cdfg, &trace)
                .unwrap();
            let brute = Impact::new(config.with_engine(EngineConfig::sequential()))
                .synthesize(&cdfg, &trace)
                .unwrap();
            prop_assert_eq!(&delta.report, &brute.report, "trace seed {}", trace_seed);
            prop_assert_eq!(&delta.design, &brute.design, "trace seed {}", trace_seed);
            prop_assert_eq!(delta.history.len(), brute.history.len());
            // The delta engine actually exercises the schedule-memo and
            // block layers.
            let cache = delta.cache_stats;
            prop_assert!(cache.schedule.hits + cache.schedule.misses > 0, "{:?}", cache);
            prop_assert!(cache.block.hits + cache.block.misses > 0, "{:?}", cache);
        }
    }
}
