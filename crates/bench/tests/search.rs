//! Quality gates and static audits of the search-policy layer, under the
//! `verify` feature the bench crate turns on:
//!
//! - on cold cells, no explorer ends on worse power than the greedy oracle,
//!   at least one cell improves on it, and every outcome and Pareto-front
//!   member audits clean,
//! - every member of an `ExplorerKind::Pareto` front individually passes
//!   the `impact_verify` design/schedule rules (not just the returned best),
//! - `ExplorerKind::Restart`'s kick-and-revert machinery leaves a shared
//!   session coherent: the run passes [`VerifyLevel::Full`]'s inline session
//!   audit, and the session re-audits clean as data afterwards.

#![allow(clippy::unwrap_used)]

use impact_bench::{prepare, DEFAULT_SEED};
use impact_core::verify::audit_session;
use impact_core::{
    EngineConfig, Evaluator, ExplorerKind, Impact, SweepSession, SynthesisConfig, VerifyLevel,
};

/// Power tolerance of the greedy comparisons.
const POWER_EPS: f64 = 1e-9;

#[test]
fn every_explorer_matches_or_beats_greedy_and_audits_clean() {
    // Cold cells (10 passes, effort (2, 3)), every strategy on its own
    // private session: gcd @ 2.0 and dealer @ 1.0 and 2.0 improve on
    // greedy; gcd @ 1.0 does not.
    let mut improving = Vec::new();
    for bench in [impact_benchmarks::gcd(), impact_benchmarks::dealer()] {
        let (cdfg, trace) = prepare(&bench, 10, DEFAULT_SEED);
        for laxity in [1.0, 2.0] {
            let config = SynthesisConfig::power_optimized(laxity).with_effort(2, 3);
            let evaluator = Evaluator::new(&cdfg, &trace, config.clone()).unwrap();
            // `ExplorerKind::all` lists the greedy oracle first.
            let mut greedy = None;
            for explorer in ExplorerKind::all() {
                let cell = format!("{} {}@{laxity:.1}", bench.name, explorer.name());
                let engine = config.engine.with_explorer(explorer);
                let outcome = Impact::new(config.clone().with_engine(engine))
                    .synthesize(&cdfg, &trace)
                    .unwrap();
                let violations = evaluator.audit_outcome(&outcome);
                assert!(violations.is_empty(), "{cell}: {violations:?}");
                for (index, member) in outcome.front.iter().enumerate() {
                    let violations = evaluator.audit_design_point(&member.design, &member.point);
                    assert!(
                        violations.is_empty(),
                        "{cell} front[{index}]: {violations:?}"
                    );
                }
                let power = outcome.report.power_mw;
                let greedy_power = *greedy.get_or_insert(power);
                assert!(
                    power <= greedy_power + POWER_EPS,
                    "{cell}: {power} mW is worse than greedy's {greedy_power} mW"
                );
                if power < greedy_power - POWER_EPS {
                    improving.push(cell);
                }
            }
        }
    }
    println!("cells improving on greedy: {improving:?}");
    assert!(
        !improving.is_empty(),
        "no explorer improved on greedy in any cell"
    );
}

fn config_with(laxity: f64, explorer: ExplorerKind) -> SynthesisConfig {
    let config = SynthesisConfig::power_optimized(laxity).with_effort(2, 3);
    let engine = EngineConfig::incremental()
        .with_verify(VerifyLevel::Full)
        .with_explorer(explorer);
    config.with_engine(engine)
}

#[test]
fn every_pareto_front_member_audits_clean() {
    for bench in [impact_benchmarks::gcd(), impact_benchmarks::dealer()] {
        let (cdfg, trace) = prepare(&bench, 8, DEFAULT_SEED);
        for laxity in [1.0, 2.0] {
            let config = config_with(laxity, ExplorerKind::Pareto);
            let outcome = Impact::new(config.clone())
                .synthesize(&cdfg, &trace)
                .unwrap();
            assert!(!outcome.front.is_empty(), "{}: empty front", bench.name);
            let evaluator = Evaluator::new(&cdfg, &trace, config).unwrap();
            for (index, member) in outcome.front.iter().enumerate() {
                let violations = evaluator.audit_design_point(&member.design, &member.point);
                assert!(
                    violations.is_empty(),
                    "{} laxity {laxity} front[{index}]: {violations:?}",
                    bench.name
                );
            }
        }
    }
}

#[test]
fn restart_kicks_leave_a_shared_session_coherent() {
    let bench = impact_benchmarks::gcd();
    let (cdfg, trace) = prepare(&bench, 8, DEFAULT_SEED);
    let session = SweepSession::new();
    for laxity in [1.0, 2.0] {
        let explorer = ExplorerKind::Restart {
            restarts: 3,
            kicks: 2,
            seed: 11,
        };
        // VerifyLevel::Full audits every evaluation inline *and* the whole
        // session before the run returns — a kick whose revert left the
        // working design or the cache inconsistent fails here.
        let outcome = Impact::new(config_with(laxity, explorer))
            .synthesize_with_session(&cdfg, &trace, &session)
            .unwrap();
        assert!(outcome.cache_stats.explore.restarts > 0);
    }
    let violations = audit_session(&session);
    assert!(violations.is_empty(), "session audit found {violations:?}");
}
