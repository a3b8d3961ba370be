//! Equivalence guarantees of the engine and its sweep-session cache layer:
//! every engine configuration reproduces the brute-force sequential engine on
//! every benchmark design, and a Figure 13 sweep over one shared session (and
//! over merged, independently populated sessions) is bit-identical to
//! independent cold runs, under any worker count.

use impact_bench::{
    assemble_fig13, batches_identical, figure13_jobs, paper_laxities, prepare, run_batch, SweepJob,
    DEFAULT_SEED,
};
use impact_core::{
    EngineConfig, ExplorerKind, Impact, SweepSession, SynthesisConfig, SynthesisOutcome,
};
use proptest::prelude::*;

const EFFORT: (usize, usize) = (2, 3);

#[test]
fn every_engine_reproduces_the_sequential_oracle_on_every_example_design() {
    // The oracle ladder: the full-rebuild, full-reschedule and incremental
    // engines, cold and over a shared session, must all reproduce the
    // brute-force sequential engine's sweep bit-for-bit, on all six designs
    // the benchmark's expected files cover.
    let laxities = [1.2, 2.4];
    let cases = [
        ("full_rebuild cold", EngineConfig::full_rebuild(), false),
        ("full_rebuild shared", EngineConfig::full_rebuild(), true),
        (
            "full_reschedule shared",
            EngineConfig::full_reschedule(),
            true,
        ),
        ("incremental cold", EngineConfig::incremental(), false),
        ("incremental shared", EngineConfig::incremental(), true),
    ];
    for bench in impact_benchmarks::all_benchmarks() {
        let (cdfg, trace) = prepare(&bench, 6, DEFAULT_SEED);
        let jobs_with = |engine: EngineConfig| -> Vec<SweepJob<'_>> {
            figure13_jobs(&cdfg, &trace, &laxities, (1, 2))
                .into_iter()
                .map(|mut job| {
                    job.config = job.config.with_engine(engine);
                    job
                })
                .collect()
        };
        let oracle = run_batch(&jobs_with(EngineConfig::sequential()), None, 0);
        for (name, engine, shared) in cases {
            let session = shared.then(SweepSession::new);
            let results = run_batch(&jobs_with(engine), session.as_ref(), 0);
            assert!(
                batches_identical(&oracle, &results),
                "{}: {name} diverged from the sequential oracle",
                bench.name
            );
            // The fast paths were actually taken: every cold incremental
            // job answers lookups from its own private cache, a shared
            // session answers from its layers, and the incremental engine
            // reaches the schedule-memo and block layers.
            if engine == EngineConfig::incremental() && !shared {
                for result in &results {
                    let cache = result.outcome.cache_stats;
                    let what = format!("{}: {name} {}", bench.name, result.label);
                    assert!(cache.hits + cache.misses > 0, "{what}");
                    assert!(cache.hit_rate() > 0.0, "{what}: {cache:?}");
                }
            }
            let Some(session) = session else { continue };
            let stats = session.stats();
            assert!(stats.hit_rate() > 0.0, "{}: {name} {stats:?}", bench.name);
            if engine == EngineConfig::incremental() {
                for layer in [stats.schedule, stats.block] {
                    assert!(layer.hits + layer.misses > 0, "{}: {stats:?}", bench.name);
                }
            }
        }
    }
}

#[test]
fn shared_session_figure13_sweep_matches_eleven_independent_cold_runs() {
    // The paper's full 11-point laxity grid: every job of the shared-session
    // sweep must reproduce its independent cold run bit-for-bit.
    let bench = impact_benchmarks::gcd();
    let laxities = paper_laxities();
    let (cdfg, trace) = prepare(&bench, 8, 5);
    let jobs = figure13_jobs(&cdfg, &trace, &laxities, EFFORT);
    assert_eq!(jobs.len(), 23, "base + two runs per laxity point");

    let cold = run_batch(&jobs, None, 1);
    let session = SweepSession::new();
    let shared = run_batch(&jobs, Some(&session), 0);

    assert!(batches_identical(&cold, &shared));
    let cold_series = assemble_fig13(bench.name, &laxities, &cold);
    let shared_series = assemble_fig13(bench.name, &laxities, &shared);
    for (a, b) in cold_series.points.iter().zip(&shared_series.points) {
        assert_eq!(a.a_power.to_bits(), b.a_power.to_bits());
        assert_eq!(a.i_power.to_bits(), b.i_power.to_bits());
        assert_eq!(a.i_area.to_bits(), b.i_area.to_bits());
        assert_eq!(a.i_vdd.to_bits(), b.i_vdd.to_bits());
    }
    assert!(
        session.stats().hits > session.stats().misses,
        "a warm sweep is dominated by hits ({:?})",
        session.stats()
    );
}

#[test]
fn merged_shard_sessions_rank_like_one_shared_cache() {
    // Two half-sweeps populate independent sessions; their merge must answer
    // a full sweep exactly like one session that saw everything.
    let bench = impact_benchmarks::gcd();
    let laxities = [1.0, 1.4, 1.8, 2.2, 2.6, 3.0];
    let (cdfg, trace) = prepare(&bench, 8, 5);
    let jobs = figure13_jobs(&cdfg, &trace, &laxities, EFFORT);

    let one_shared = SweepSession::new();
    let reference = run_batch(&jobs, Some(&one_shared), 0);

    let merged = SweepSession::new();
    for half in [&laxities[..3], &laxities[3..]] {
        let part = SweepSession::new();
        run_batch(&figure13_jobs(&cdfg, &trace, half, EFFORT), Some(&part), 0);
        merged.merge_from(&part);
    }
    let replayed = run_batch(&jobs, Some(&merged), 0);

    assert!(batches_identical(&reference, &replayed));
    // Both halves fully covered the replay's needs: the merged session
    // answers (almost) everything from its merged maps. The base job and the
    // laxity-independent entries overlap between halves, so the replay must
    // be hit-dominated.
    let stats = merged.stats();
    assert!(
        stats.hit_rate() > 0.9,
        "replay over merged sessions must be hit-dominated ({stats:?})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any laxity subset, any seed, any worker count: cold, shared-session
    /// and merged-session sweeps agree bit-for-bit.
    #[test]
    fn sweeps_agree_for_arbitrary_laxity_subsets(
        mask in 1u32..(1 << 6),
        seed in 0u64..1024,
        workers in 1usize..5,
    ) {
        let grid = [1.0, 1.4, 1.8, 2.2, 2.6, 3.0];
        let laxities: Vec<f64> = grid
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &l)| l)
            .collect();
        let bench = impact_benchmarks::gcd();
        let (cdfg, trace) = prepare(&bench, 6, seed);
        let jobs = figure13_jobs(&cdfg, &trace, &laxities, (1, 2));

        let cold = run_batch(&jobs, None, 1);
        let shared_session = SweepSession::new();
        let shared = run_batch(&jobs, Some(&shared_session), workers);
        prop_assert!(batches_identical(&cold, &shared));

        let merged = SweepSession::new();
        let split = laxities.len() / 2;
        for half in [&laxities[..split], &laxities[split..]] {
            let part = SweepSession::new();
            run_batch(&figure13_jobs(&cdfg, &trace, half, (1, 2)), Some(&part), workers);
            merged.merge_from(&part);
        }
        let replayed = run_batch(&jobs, Some(&merged), workers);
        prop_assert!(batches_identical(&cold, &replayed));
    }
}

#[test]
fn every_engine_walks_the_oracles_designs_under_every_explorer() {
    // Equal reports can hide different designs: two designs of one
    // fingerprint may differ in their empty resource slots, and a later
    // split numbers its new resource after them. The search owns the
    // designs it walks, so every engine, over a session that other runs
    // filled, must hand out the very design, move history and Pareto front
    // the sequential oracle does, under every explorer.
    let kinds = [
        EngineConfig::full_rebuild(),
        EngineConfig::full_reschedule(),
        EngineConfig::incremental(),
    ];
    let history = |outcome: &SynthesisOutcome| -> Vec<_> {
        (outcome.history.iter())
            .map(|r| (r.applied.clone(), r.gain.to_bits(), r.pass, r.strategy))
            .collect()
    };
    for bench in impact_benchmarks::all_benchmarks() {
        let (cdfg, trace) = prepare(&bench, 6, DEFAULT_SEED);
        let session = SweepSession::new();
        for explorer in ExplorerKind::all() {
            let run = |engine: EngineConfig, session: Option<&SweepSession>| {
                let config = SynthesisConfig::power_optimized(1.4)
                    .with_effort(1, 2)
                    .with_engine(engine.with_explorer(explorer));
                let engine = Impact::new(config);
                match session {
                    Some(session) => engine.synthesize_with_session(&cdfg, &trace, session),
                    None => engine.synthesize(&cdfg, &trace),
                }
                .expect("the benchmark designs synthesize")
            };
            let expected = run(EngineConfig::sequential(), None);
            for engine in kinds {
                let actual = run(engine, Some(&session));
                let what = format!("{} {explorer:?} {:?}", bench.name, engine.evaluator);
                assert_eq!(actual.report, expected.report, "{what}: report");
                assert_eq!(actual.design, expected.design, "{what}: design");
                assert_eq!(history(&actual), history(&expected), "{what}: history");
                assert_eq!(actual.front, expected.front, "{what}: front");
            }
        }
    }
}
