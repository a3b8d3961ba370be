#![allow(clippy::unwrap_used)]

//! The explorer-layer contract, pinned from the outside:
//!
//! - `ExplorerKind::Greedy` is **bit-identical** to the pre-refactor
//!   monolithic engine. The pins below are `f64::to_bits` values captured
//!   from the engine as it stood before the search-policy extraction; any
//!   drift in power, area, supply, ENC, or the committed-move/pass counts is
//!   a regression in the kernel or the greedy policy, not noise.
//! - `ExplorerKind::Beam` with width 1 degenerates to greedy, bit for bit.
//! - `ExplorerKind::Restart` never does worse than greedy and is
//!   deterministic for a fixed seed.
//! - Every member of an `ExplorerKind::Pareto` front is non-dominated and
//!   the front contains the greedy optimum.

use impact_behsim::simulate;
use impact_cdfg::Cdfg;
use impact_core::{ExplorerKind, Impact, SynthesisConfig, SynthesisOutcome};
use proptest::prelude::*;

/// One pinned run: benchmark, laxity, then `f64::to_bits` of the final
/// power (at the chosen supply), power at the reference supply, area,
/// supply, and ENC — plus the committed-move and pass counts.
struct Pin {
    bench: &'static str,
    laxity: f64,
    power: u64,
    power_ref: u64,
    area: u64,
    vdd: u64,
    enc: u64,
    moves: usize,
    passes: usize,
}

/// Captured from the pre-refactor engine at `with_effort(2, 3)` over
/// `input_sequences(12, 17)`. Do not regenerate these from current code:
/// their whole point is that they predate the explorer extraction.
const PINS: &[Pin] = &[
    Pin {
        bench: "gcd",
        laxity: 1.0,
        power: 0x3fc9cbb935689ea3,
        power_ref: 0x3fce7a21792c3d9b,
        area: 0x407e800000000000,
        vdd: 0x4012666666666666,
        enc: 0x4052eaaaaaaaaaab,
        moves: 6,
        passes: 2,
    },
    Pin {
        bench: "gcd",
        laxity: 2.0,
        power: 0x3fb37bdea1d9bc3c,
        power_ref: 0x3fcf10992a8ad3f4,
        area: 0x4082f80000000000,
        vdd: 0x4006666666666666,
        enc: 0x4060655555555555,
        moves: 6,
        passes: 2,
    },
    Pin {
        bench: "x25_send",
        laxity: 1.0,
        power: 0x3fdc8b23faef3613,
        power_ref: 0x3fe0dc999c389f76,
        area: 0x4095f90000000000,
        vdd: 0x4012666666666666,
        enc: 0x40509aaaaaaaaaab,
        moves: 5,
        passes: 2,
    },
    Pin {
        bench: "x25_send",
        laxity: 2.0,
        power: 0x3fc56b51a8be4f2c,
        power_ref: 0x3fe94e66c4f24460,
        area: 0x40a2128000000000,
        vdd: 0x4002666666666666,
        enc: 0x4060a80000000000,
        moves: 0,
        passes: 1,
    },
    Pin {
        bench: "dealer",
        laxity: 1.0,
        power: 0x3fe21055adfec640,
        power_ref: 0x3fe64d0e1f801133,
        area: 0x409d720000000000,
        vdd: 0x4012000000000000,
        enc: 0x4039000000000000,
        moves: 1,
        passes: 2,
    },
    Pin {
        bench: "dealer",
        laxity: 2.0,
        power: 0x3fcaacf31b06e452,
        power_ref: 0x3fef843acea18c8c,
        area: 0x40a6e50000000000,
        vdd: 0x4002666666666666,
        enc: 0x4048f55555555556,
        moves: 0,
        passes: 1,
    },
    Pin {
        bench: "paulin",
        laxity: 1.0,
        power: 0x40038e44f4857994,
        power_ref: 0x40071ac78c5423ba,
        area: 0x40c0cb8000000000,
        vdd: 0x4012666666666666,
        enc: 0x405ec00000000000,
        moves: 6,
        passes: 2,
    },
    Pin {
        bench: "paulin",
        laxity: 2.0,
        power: 0x3fecf5afd1ead722,
        power_ref: 0x40058593b5928518,
        area: 0x40c1bf8000000000,
        vdd: 0x4007333333333333,
        enc: 0x406e800000000000,
        moves: 2,
        passes: 2,
    },
];

fn setup(bench: &str) -> (Cdfg, impact_behsim::ExecutionTrace) {
    let bench = impact_benchmarks::by_name(bench).unwrap();
    let cdfg = bench.compile().unwrap();
    let inputs = bench.input_sequences(12, 17);
    let trace = simulate(&cdfg, &inputs).unwrap();
    (cdfg, trace)
}

fn run(
    cdfg: &Cdfg,
    trace: &impact_behsim::ExecutionTrace,
    laxity: f64,
    explorer: ExplorerKind,
) -> SynthesisOutcome {
    let config = SynthesisConfig::power_optimized(laxity).with_effort(2, 3);
    let engine = config.engine.with_explorer(explorer);
    let config = config.with_engine(engine);
    Impact::new(config).synthesize(cdfg, trace).unwrap()
}

#[test]
fn greedy_explorer_is_bit_identical_to_the_pre_refactor_engine() {
    for pin in PINS {
        let (cdfg, trace) = setup(pin.bench);
        let outcome = run(&cdfg, &trace, pin.laxity, ExplorerKind::Greedy);
        let label = format!("{} laxity {}", pin.bench, pin.laxity);
        assert_eq!(
            outcome.report.power_mw.to_bits(),
            pin.power,
            "{label}: power"
        );
        assert_eq!(
            outcome.report.power_at_reference_mw.to_bits(),
            pin.power_ref,
            "{label}: reference power"
        );
        assert_eq!(outcome.report.area.to_bits(), pin.area, "{label}: area");
        assert_eq!(outcome.report.vdd.to_bits(), pin.vdd, "{label}: vdd");
        assert_eq!(outcome.report.enc.to_bits(), pin.enc, "{label}: enc");
        assert_eq!(outcome.report.moves_applied, pin.moves, "{label}: moves");
        assert_eq!(outcome.report.passes, pin.passes, "{label}: passes");
        assert!(outcome.front.is_empty(), "{label}: greedy reports no front");
        for record in &outcome.history {
            assert_eq!(record.strategy, "greedy", "{label}: strategy tag");
        }
    }
}

/// The exact outcome facets a search strategy determines; two outcomes with
/// equal facets committed the same moves to the same design.
fn facets(outcome: &SynthesisOutcome) -> (u64, u64, u64, u64, usize, usize, Vec<String>) {
    (
        outcome.report.power_mw.to_bits(),
        outcome.report.area.to_bits(),
        outcome.report.vdd.to_bits(),
        outcome.report.enc.to_bits(),
        outcome.report.moves_applied,
        outcome.report.passes,
        outcome
            .history
            .iter()
            .map(|r| format!("{:?}@{}", r.applied, r.pass))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Beam search with width 1 explores exactly one node per step and must
    /// therefore reproduce the greedy trajectory bit for bit, across
    /// benchmarks and laxities.
    #[test]
    fn beam_width_one_is_bit_identical_to_greedy(case in 0usize..6) {
        let bench = ["gcd", "dealer"][case % 2];
        let laxity = [1.0f64, 1.5, 2.0][case / 2];
        let (cdfg, trace) = setup(bench);
        let greedy = run(&cdfg, &trace, laxity, ExplorerKind::Greedy);
        let beam = run(&cdfg, &trace, laxity, ExplorerKind::Beam { width: 1 });
        let beam_strategies: Vec<_> =
            beam.history.iter().map(|r| r.strategy).collect();
        prop_assert!(beam_strategies.iter().all(|s| *s == "beam"));
        prop_assert_eq!(facets(&greedy), facets(&beam));
    }
}

#[test]
fn restart_explorer_never_loses_to_greedy_and_is_deterministic() {
    let (cdfg, trace) = setup("gcd");
    for laxity in [1.0, 2.0] {
        let greedy = run(&cdfg, &trace, laxity, ExplorerKind::Greedy);
        let kind = ExplorerKind::Restart {
            restarts: 2,
            kicks: 2,
            seed: 7,
        };
        let first = run(&cdfg, &trace, laxity, kind);
        let second = run(&cdfg, &trace, laxity, kind);
        assert!(
            first.report.power_mw <= greedy.report.power_mw + 1e-9,
            "restart must never be worse than greedy (laxity {laxity})"
        );
        assert_eq!(
            facets(&first),
            facets(&second),
            "restart is deterministic for a fixed seed (laxity {laxity})"
        );
    }
}

#[test]
fn pareto_front_members_are_mutually_non_dominated_and_contain_the_best() {
    let (cdfg, trace) = setup("gcd");
    for laxity in [1.0, 2.0] {
        let greedy = run(&cdfg, &trace, laxity, ExplorerKind::Greedy);
        let outcome = run(&cdfg, &trace, laxity, ExplorerKind::Pareto);
        assert_eq!(
            outcome.report.power_mw.to_bits(),
            greedy.report.power_mw.to_bits(),
            "the Pareto best point is the greedy optimum (laxity {laxity})"
        );
        let front: Vec<_> = outcome.front.iter().map(|member| &member.point).collect();
        assert!(!front.is_empty(), "front is never empty (laxity {laxity})");
        assert!(
            front.iter().any(|p| {
                p.power.total_mw().to_bits() == outcome.report.power_mw.to_bits()
                    && p.area.to_bits() == outcome.report.area.to_bits()
            }),
            "front contains the reported optimum (laxity {laxity})"
        );
        for (i, a) in front.iter().enumerate() {
            for (j, b) in front.iter().enumerate() {
                if i == j {
                    continue;
                }
                let dominated = a.power.total_mw() <= b.power.total_mw()
                    && a.area <= b.area
                    && a.enc() <= b.enc()
                    && (a.power.total_mw() < b.power.total_mw()
                        || a.area < b.area
                        || a.enc() < b.enc());
                assert!(
                    !dominated,
                    "front member {j} is dominated by {i} (laxity {laxity})"
                );
            }
        }
    }
}

#[test]
fn explore_stats_count_probes_and_commits() {
    let (cdfg, trace) = setup("gcd");
    let outcome = run(&cdfg, &trace, 2.0, ExplorerKind::Greedy);
    let stats = outcome.cache_stats.explore;
    assert!(stats.rank_probes > 0, "ranking probed candidates");
    assert!(stats.probes > 0, "full probes were made");
    assert_eq!(
        stats.commits as usize, outcome.report.moves_applied,
        "commit count matches the history"
    );
    assert_eq!(stats.restarts, 0);
    assert_eq!(stats.pareto_kept, 0);

    let pareto = run(&cdfg, &trace, 2.0, ExplorerKind::Pareto);
    let pstats = pareto.cache_stats.explore;
    assert_eq!(pstats.pareto_kept as usize, pareto.front.len());
    let restart = run(
        &cdfg,
        &trace,
        2.0,
        ExplorerKind::Restart {
            restarts: 2,
            kicks: 1,
            seed: 3,
        },
    );
    assert_eq!(restart.cache_stats.explore.restarts, 2);
}
