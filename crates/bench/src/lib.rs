//! Experiment drivers regenerating the tables and figures of the IMPACT
//! paper. The binaries in `src/bin/` print the series.
//!
//! Multi-run experiments (the Figure 13 laxity sweep, the warm-start and
//! search comparisons) are expressed as batches of [`SweepJob`]s over the
//! [`run_batch`] driver, sharing one [`SweepSession`] where the runs cover
//! the same workload.

use std::path::Path;
use std::time::Instant;

use impact_behsim::{simulate, ExecutionTrace};
use impact_benchmarks::Benchmark;
use impact_cdfg::Cdfg;
use impact_core::{
    CacheStats, ExploreStats, ExplorerKind, Impact, SnapshotScope, SnapshotStats, SweepSession,
    SynthesisConfig, SynthesisOutcome,
};
use impact_sched::{uniform_problem, BaselineScheduler, Scheduler, WaveScheduler};

mod driver;

pub use driver::{
    example_designs, fail, fail_if, min_metric, report_json, run_batch, write_report, BenchCli,
    JobResult, SweepJob,
};

/// Number of input passes used by the experiment drivers ("typical input
/// sequences"). Kept modest so the full Figure 13 sweep runs in minutes.
pub const DEFAULT_PASSES: usize = 48;

/// Seed used for the deterministic input generators.
pub const DEFAULT_SEED: u64 = 1998;

/// Search effort (improvement passes, sequence length) used by the drivers.
pub const DEFAULT_EFFORT: (usize, usize) = (3, 5);

/// One point of a Figure 13 curve.
#[derive(Clone, Copy, Debug)]
pub struct Fig13Point {
    /// Laxity factor of this point.
    pub laxity: f64,
    /// Power of the Vdd-scaled area-optimized design, normalized to the base.
    pub a_power: f64,
    /// Power of the IMPACT power-optimized design, normalized to the base.
    pub i_power: f64,
    /// Area of the power-optimized design, normalized to the base
    /// area-optimized design (laxity 1.0), as in the paper's I-Area curves.
    pub i_area: f64,
    /// Supply voltage chosen for the power-optimized design, in volts.
    pub i_vdd: f64,
    /// Absolute base power (area-optimized at laxity 1.0, 5 V), in mW.
    pub base_power_mw: f64,
}

/// A full Figure 13 sub-plot: one benchmark's curves.
#[derive(Clone, Debug)]
pub struct Fig13Series {
    /// Benchmark name.
    pub benchmark: String,
    /// The sampled laxity points.
    pub points: Vec<Fig13Point>,
}

impl Fig13Series {
    /// Largest power reduction of `I-Power` versus the 5 V base
    /// (the paper's "up to 6.7-fold" claim).
    pub fn max_reduction_vs_base(&self) -> f64 {
        self.points
            .iter()
            .map(|p| {
                if p.i_power > 0.0 {
                    1.0 / p.i_power
                } else {
                    0.0
                }
            })
            .fold(0.0, f64::max)
    }

    /// Largest power reduction of `I-Power` versus `A-Power`
    /// (the paper's "up to 2.6-fold" claim).
    pub fn max_reduction_vs_a_power(&self) -> f64 {
        self.points
            .iter()
            .map(|p| {
                if p.i_power > 0.0 {
                    p.a_power / p.i_power
                } else {
                    0.0
                }
            })
            .fold(0.0, f64::max)
    }

    /// Largest area overhead of the power-optimized designs
    /// (the paper's "no more than 30 %" claim).
    pub fn max_area_overhead(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.i_area - 1.0)
            .fold(0.0, f64::max)
    }
}

/// Compiles and simulates a benchmark once (the single behavioral simulation
/// every IMPACT run amortizes).
pub fn prepare(bench: &Benchmark, passes: usize, seed: u64) -> (Cdfg, ExecutionTrace) {
    let cdfg = bench.compile().expect("benchmark sources compile");
    let inputs = bench.input_sequences(passes, seed);
    let trace = simulate(&cdfg, &inputs).expect("benchmark inputs simulate");
    (cdfg, trace)
}

/// Runs one synthesis with the experiment-default effort.
pub fn run(cdfg: &Cdfg, trace: &ExecutionTrace, config: SynthesisConfig) -> SynthesisOutcome {
    let (passes, seq) = DEFAULT_EFFORT;
    Impact::new(config.with_effort(passes, seq))
        .synthesize(cdfg, trace)
        .expect("synthesis succeeds on the benchmark suite")
}

/// Builds the job list of one Figure 13 sweep: the normalization base
/// (area-optimized at laxity 1.0) followed by an area-optimized and a
/// power-optimized run per laxity point. Feed the list to [`run_batch`] and
/// the results to [`assemble_fig13`].
pub fn figure13_jobs<'a>(
    cdfg: &'a Cdfg,
    trace: &'a ExecutionTrace,
    laxities: &[f64],
    effort: (usize, usize),
) -> Vec<SweepJob<'a>> {
    let (passes, seq) = effort;
    let configure = |config: SynthesisConfig| config.with_effort(passes, seq);
    let mut jobs = Vec::with_capacity(1 + 2 * laxities.len());
    jobs.push(SweepJob::new(
        "base",
        cdfg,
        trace,
        configure(SynthesisConfig::area_optimized(1.0)),
    ));
    for &laxity in laxities {
        jobs.push(SweepJob::new(
            format!("area@{laxity:.1}"),
            cdfg,
            trace,
            configure(SynthesisConfig::area_optimized(laxity)),
        ));
        jobs.push(SweepJob::new(
            format!("power@{laxity:.1}"),
            cdfg,
            trace,
            configure(SynthesisConfig::power_optimized(laxity)),
        ));
    }
    jobs
}

/// Normalizes the results of a [`figure13_jobs`] batch into the figure's
/// series (results must be in submission order, as [`run_batch`] returns
/// them).
pub fn assemble_fig13(benchmark: &str, laxities: &[f64], results: &[JobResult]) -> Fig13Series {
    assert_eq!(
        results.len(),
        1 + 2 * laxities.len(),
        "one base plus two runs per laxity point"
    );
    let base = &results[0].outcome.report;
    let base_power = base.power_at_reference_mw;
    let base_area = base.area;
    let points = laxities
        .iter()
        .enumerate()
        .map(|(index, &laxity)| {
            let area_opt = &results[1 + 2 * index].outcome.report;
            let power_opt = &results[2 + 2 * index].outcome.report;
            Fig13Point {
                laxity,
                a_power: area_opt.power_mw / base_power,
                i_power: power_opt.power_mw / base_power,
                i_area: power_opt.area / base_area,
                i_vdd: power_opt.vdd,
                base_power_mw: base_power,
            }
        })
        .collect();
    Fig13Series {
        benchmark: benchmark.to_string(),
        points,
    }
}

/// Computes one benchmark's Figure 13 series over the given laxity points:
/// one shared [`SweepSession`] and a worker pool make the whole sweep close
/// to one cold run's cost, with results identical to independent runs.
pub fn figure13_series(bench: &Benchmark, laxities: &[f64], passes: usize) -> Fig13Series {
    let (cdfg, trace) = prepare(bench, passes, DEFAULT_SEED);
    let session = SweepSession::new();
    let jobs = figure13_jobs(&cdfg, &trace, laxities, DEFAULT_EFFORT);
    let results = run_batch(&jobs, Some(&session), 0);
    assemble_fig13(bench.name, laxities, &results)
}

/// The laxity grid of the paper (1.0 to 3.0).
pub fn paper_laxities() -> Vec<f64> {
    (0..=10).map(|i| 1.0 + 0.2 * f64::from(i)).collect()
}

/// A coarser laxity grid for quick runs.
pub fn quick_laxities() -> Vec<f64> {
    vec![1.0, 1.5, 2.0, 2.5, 3.0]
}

/// Expected-number-of-cycles comparison between the baseline CFG scheduler
/// and Wavesched on the initial fully-parallel architecture (Section 2.2).
#[derive(Clone, Debug)]
pub struct EncComparison {
    /// Benchmark name.
    pub benchmark: String,
    /// ENC of the baseline scheduler.
    pub baseline_enc: f64,
    /// ENC of the Wavesched-style scheduler.
    pub wavesched_enc: f64,
}

impl EncComparison {
    /// ENC reduction factor (baseline / wavesched).
    pub fn reduction(&self) -> f64 {
        if self.wavesched_enc > 0.0 {
            self.baseline_enc / self.wavesched_enc
        } else {
            0.0
        }
    }
}

/// Runs the scheduler comparison for one benchmark.
pub fn enc_comparison(bench: &Benchmark, passes: usize) -> EncComparison {
    let (cdfg, trace) = prepare(bench, passes, DEFAULT_SEED);
    let problem = uniform_problem(&cdfg, trace.profile());
    let baseline = BaselineScheduler::new()
        .schedule(&problem)
        .expect("baseline schedules the benchmarks");
    let wave = WaveScheduler::new()
        .schedule(&problem)
        .expect("wavesched schedules the benchmarks");
    EncComparison {
        benchmark: bench.name.to_string(),
        baseline_enc: baseline.enc,
        wavesched_enc: wave.enc,
    }
}

/// Whether two batch results carry bit-identical synthesis reports, job by
/// job.
pub fn batches_identical(a: &[JobResult], b: &[JobResult]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.outcome.report == y.outcome.report)
}

/// One-line rendering of the per-layer cache counters, for the bench
/// summaries: `layer hits/misses (hit%)` from cheapest to most expensive to
/// recompute.
pub fn format_layer_stats(stats: &CacheStats) -> String {
    let layer = |name: &str, layer: impact_core::LayerStats| {
        format!(
            "{name} {}/{} ({:.1}%)",
            layer.hits,
            layer.misses,
            100.0 * layer.hit_rate()
        )
    };
    format!(
        "{} | {} | {} | {} | {} | {} | {} | {} | {}",
        layer("stats", stats.trace_stats),
        layer("context", stats.context),
        layer("block", stats.block),
        layer("schedule", stats.schedule),
        layer("point", stats.point),
        layer("scaled", stats.scaled),
        format_merge_stats(&stats.merge),
        format_snapshot_stats(&stats.snapshot),
        format_explore_stats(&stats.explore),
    )
}

/// One-line rendering of the explorer counters: full probes (plus the
/// cheap reference-supply ranking probes), commits, exact reverts, the
/// widest beam actually realized, restarts taken, and Pareto kept/dominated.
pub fn format_explore_stats(stats: &ExploreStats) -> String {
    format!(
        "explore probes {} (rank {}) commits {} reverts {} beam {} restarts {} pareto {}/{}",
        stats.probes,
        stats.rank_probes,
        stats.commits,
        stats.reverts,
        stats.beam_width,
        stats.restarts,
        stats.pareto_kept,
        stats.pareto_dominated,
    )
}

/// One-line rendering of the cumulative merge counters: `merge absorbed N
/// dup N dropped N` (entries a session took in through `absorb` — snapshot
/// loads and session merges — vs duplicate-skipped and capacity-dropped
/// offers).
pub fn format_merge_stats(stats: &impact_core::AbsorbStats) -> String {
    format!(
        "merge absorbed {} dup {} dropped {}",
        stats.absorbed, stats.duplicates, stats.dropped
    )
}

/// One-line rendering of the snapshot save/load counters, including the
/// per-reason load rejections: `snapshot saves N loads N rejected N
/// (version N, digest N, truncated N)`.
pub fn format_snapshot_stats(stats: &SnapshotStats) -> String {
    format!(
        "snapshot saves {} loads {} rejected {} (version {}, digest {}, truncated {})",
        stats.saves,
        stats.loads,
        stats.rejected(),
        stats.rejected_version,
        stats.rejected_digest,
        stats.rejected_truncated,
    )
}

/// One benchmark's cold-vs-warm-start comparison: a sweep over a fresh
/// session, a snapshot save, a load into a second fresh session, and a rerun
/// of the same sweep against the loaded entries. The warm rerun must
/// reproduce the cold reports bit-for-bit and answer every design-point
/// lookup from the snapshot.
#[derive(Clone, Debug)]
pub struct WarmStartComparison {
    /// Benchmark name.
    pub benchmark: String,
    /// Number of laxity points swept.
    pub laxity_points: usize,
    /// Wall-clock of the cold sweep, in milliseconds.
    pub cold_ms: f64,
    /// Wall-clock of the warm rerun, in milliseconds.
    pub warm_ms: f64,
    /// Wall-clock of encoding the snapshot, in milliseconds.
    pub save_ms: f64,
    /// Wall-clock of verifying + absorbing the snapshot, in milliseconds.
    pub load_ms: f64,
    /// Size of the encoded snapshot, in bytes.
    pub snapshot_bytes: usize,
    /// Entries the warm session absorbed from the snapshot.
    pub absorbed: usize,
    /// Whether the warm rerun reproduced the cold reports bit-for-bit.
    pub identical: bool,
    /// Whether a snapshot file from a previous process already existed and
    /// was byte-identical to this run's fresh save (cross-process
    /// determinism; always `false` without a snapshot path or on the first
    /// run against one).
    pub resumed: bool,
    /// Cache counters of the warm session after the rerun (its `snapshot`
    /// field carries the save/load counters of this comparison).
    pub warm_cache: CacheStats,
}

impl WarmStartComparison {
    /// Cold sweep over warm start wall-clock, where the warm start is the
    /// snapshot load plus the rerun (the save is the cold run's to pay).
    /// Below 1 a warm start loses to recomputing.
    pub fn speedup(&self) -> f64 {
        let warm_start_ms = self.load_ms + self.warm_ms;
        if warm_start_ms > 0.0 {
            self.cold_ms / warm_start_ms
        } else {
            0.0
        }
    }

    /// Point-layer hit rate of the warm rerun.
    pub fn point_hit_rate(&self) -> f64 {
        self.warm_cache.point.hit_rate()
    }

    /// Whether the warm rerun answered every design-point lookup from the
    /// snapshot (100 % point-layer hit rate).
    pub fn fully_warm(&self) -> bool {
        self.warm_cache.point.hits > 0 && self.warm_cache.point.misses == 0
    }
}

/// Runs one benchmark's Figure 13 sweep cold, snapshots the session, reloads
/// the snapshot into a fresh session and reruns the sweep warm. With a
/// `snapshot_path` the bytes round-trip through the filesystem (atomic write,
/// verified load) and `resumed` reports whether a pre-existing file from an
/// earlier process was byte-identical to this run's save; without one the
/// bytes stay in memory. `effort` is `(max_passes, max_sequence_length)`;
/// both sweeps run one batch worker per CPU.
///
/// # Panics
///
/// Panics when the snapshot this run just saved fails verification — that is
/// a codec bug, not an input problem — or when `snapshot_path` is not
/// writable.
pub fn warm_start_comparison(
    bench: &Benchmark,
    laxities: &[f64],
    passes: usize,
    effort: (usize, usize),
    snapshot_path: Option<&Path>,
) -> WarmStartComparison {
    let (cdfg, trace) = prepare(bench, passes, DEFAULT_SEED);
    let jobs = figure13_jobs(&cdfg, &trace, laxities, effort);

    let cold_session = SweepSession::new();
    let started = Instant::now();
    let cold = run_batch(&jobs, Some(&cold_session), 0);
    let cold_ms = started.elapsed().as_secs_f64() * 1e3;

    let started = Instant::now();
    let bytes = cold_session.save_snapshot();
    let save_ms = started.elapsed().as_secs_f64() * 1e3;

    // Cross-process determinism check: a file left by a previous run must
    // byte-match this run's save before we replace it.
    let resumed = snapshot_path
        .and_then(|path| std::fs::read(path).ok())
        .is_some_and(|existing| existing == bytes);
    if let Some(path) = snapshot_path {
        impact_core::write_snapshot_bytes(path, &bytes).expect("snapshot path is writable");
    }

    let warm_session = SweepSession::new();
    let started = Instant::now();
    let merged = match snapshot_path {
        Some(path) => warm_session
            .load_from_file(path, SnapshotScope::Any)
            .expect("a snapshot this run just wrote verifies and loads"),
        None => warm_session
            .load_snapshot(&bytes, SnapshotScope::Any)
            .expect("a snapshot this run just saved verifies and loads"),
    };
    let load_ms = started.elapsed().as_secs_f64() * 1e3;

    let started = Instant::now();
    let warm = run_batch(&jobs, Some(&warm_session), 0);
    let warm_ms = started.elapsed().as_secs_f64() * 1e3;

    WarmStartComparison {
        benchmark: bench.name.to_string(),
        laxity_points: laxities.len(),
        cold_ms,
        warm_ms,
        save_ms,
        load_ms,
        snapshot_bytes: bytes.len(),
        absorbed: merged.absorbed as usize,
        identical: batches_identical(&cold, &warm),
        resumed,
        warm_cache: warm_session.stats(),
    }
}

/// One explorer's run on one `(benchmark, laxity)` cell of the search
/// comparison: which strategy ran and what it produced.
#[derive(Clone, Debug)]
pub struct SearchPoint {
    /// The strategy that produced this point.
    pub explorer: ExplorerKind,
    /// Its synthesis result (quality, history, wall-clock, counters).
    pub result: JobResult,
}

impl SearchPoint {
    /// Final power at the chosen supply, in mW.
    pub fn power_mw(&self) -> f64 {
        self.result.outcome.report.power_mw
    }

    /// The explorer counters of this run.
    pub fn explore_stats(&self) -> ExploreStats {
        self.result.outcome.cache_stats.explore
    }
}

/// Every explorer's result on one `(benchmark, laxity)` cell, greedy — the
/// oracle the refactor is pinned against — first. The quality-vs-time curve
/// of `search_bench`.
#[derive(Clone, Debug)]
pub struct SearchComparison {
    /// Benchmark name.
    pub benchmark: String,
    /// Laxity factor of this cell.
    pub laxity: f64,
    /// One point per explorer, in [`ExplorerKind::all`] order.
    pub points: Vec<SearchPoint>,
}

impl SearchComparison {
    /// The greedy oracle's point.
    ///
    /// # Panics
    ///
    /// Panics when the cell was built without the greedy explorer.
    pub fn greedy(&self) -> &SearchPoint {
        self.points
            .iter()
            .find(|p| p.explorer == ExplorerKind::Greedy)
            .expect("search cells always include the greedy oracle")
    }

    /// Whether any non-greedy strategy strictly beat greedy's final power.
    pub fn any_beats_greedy(&self) -> bool {
        let greedy = self.greedy().power_mw();
        self.points
            .iter()
            .filter(|p| p.explorer != ExplorerKind::Greedy)
            .any(|p| p.power_mw() < greedy - 1e-9)
    }

    /// Whether every non-greedy strategy is at least as good as greedy —
    /// the never-worse gate `search_bench` hard-fails on.
    pub fn none_worse_than_greedy(&self) -> bool {
        let greedy = self.greedy().power_mw();
        self.points.iter().all(|p| p.power_mw() <= greedy + 1e-9)
    }
}

/// Runs every explorer on one `(benchmark, laxity)` cell: cold (no shared
/// session, so cross-strategy cache reuse cannot flatten the timing curve)
/// and on a single worker (so per-job timing stays honest). `effort` is
/// `(max_passes, max_sequence_length)`.
pub fn search_cell(
    cdfg: &Cdfg,
    trace: &ExecutionTrace,
    benchmark: &str,
    laxity: f64,
    effort: (usize, usize),
    explorers: &[ExplorerKind],
) -> SearchComparison {
    let (passes, seq) = effort;
    let jobs: Vec<SweepJob<'_>> = explorers
        .iter()
        .map(|&kind| {
            let config = SynthesisConfig::power_optimized(laxity).with_effort(passes, seq);
            let engine = config.engine.with_explorer(kind);
            SweepJob::new(
                format!("{}@{laxity:.1}", kind.name()),
                cdfg,
                trace,
                config.with_engine(engine),
            )
        })
        .collect();
    let results = run_batch(&jobs, None, 1);
    SearchComparison {
        benchmark: benchmark.to_string(),
        laxity,
        points: explorers
            .iter()
            .zip(results)
            .map(|(&explorer, result)| SearchPoint { explorer, result })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impact_core::EngineConfig;

    /// Runs gcd's Figure 13 jobs at laxities 1.0 and 2.0 (8 passes, effort
    /// (1, 2)) under `engine`, cold or over one fresh shared session.
    fn gcd_sweep(engine: EngineConfig, shared: bool) -> (Vec<JobResult>, Option<SweepSession>) {
        let (cdfg, trace) = prepare(&impact_benchmarks::gcd(), 8, DEFAULT_SEED);
        let jobs: Vec<SweepJob<'_>> = figure13_jobs(&cdfg, &trace, &[1.0, 2.0], (1, 2))
            .into_iter()
            .map(|mut job| {
                job.config = job.config.with_engine(engine);
                job
            })
            .collect();
        let session = shared.then(SweepSession::new);
        let results = run_batch(&jobs, session.as_ref(), 1);
        (results, session)
    }

    #[test]
    fn laxity_grids_span_one_to_three() {
        let paper = paper_laxities();
        assert_eq!(paper.len(), 11);
        assert!((paper[0] - 1.0).abs() < 1e-12);
        assert!((paper[10] - 3.0).abs() < 1e-12);
        let quick = quick_laxities();
        assert_eq!(quick.len(), 5);
    }

    #[test]
    fn engine_comparison_reports_identical_results_and_counts_cache_traffic() {
        // The brute-force sequential engine and the cold incremental engine
        // agree bit-for-bit, and each incremental run's private cache is used.
        let (sequential, _) = gcd_sweep(EngineConfig::sequential(), false);
        let (incremental, _) = gcd_sweep(EngineConfig::incremental(), false);
        assert!(
            batches_identical(&sequential, &incremental),
            "engines must agree bit-for-bit"
        );
        for result in &incremental {
            let cache = result.outcome.cache_stats;
            assert!(cache.hits + cache.misses > 0, "{}", result.label);
            assert!(cache.hit_rate() > 0.0, "{}: {cache:?}", result.label);
        }
    }

    #[test]
    fn delta_comparison_reports_identical_results_across_generations() {
        // Full rebuild cold and over a shared session, and the delta-patched
        // incremental engine over a shared session, agree bit-for-bit.
        let (cold, _) = gcd_sweep(EngineConfig::full_rebuild(), false);
        let (shared, _) = gcd_sweep(EngineConfig::full_rebuild(), true);
        let (delta, session) = gcd_sweep(EngineConfig::incremental(), true);
        assert!(
            batches_identical(&cold, &shared) && batches_identical(&cold, &delta),
            "all three evaluator generations must agree"
        );
        // The delta sweep exercised the schedule-memo layer, and the summary
        // line renders every layer.
        let stats = session
            .expect("the delta sweep runs with a session")
            .stats();
        assert!(stats.schedule.hits + stats.schedule.misses > 0);
        let line = format_layer_stats(&stats);
        for name in ["stats", "context", "schedule", "point", "scaled"] {
            assert!(line.contains(name), "{line} must mention {name}");
        }
    }

    #[test]
    fn repair_comparison_reports_identical_results_across_generations() {
        // Full rebuild cold, whole-CDFG rescheduling over a shared session,
        // and block-granular repair over a shared session agree bit-for-bit.
        let (cold, _) = gcd_sweep(EngineConfig::full_rebuild(), false);
        let (memoized, _) = gcd_sweep(EngineConfig::full_reschedule(), true);
        let (repaired, session) = gcd_sweep(EngineConfig::incremental(), true);
        assert!(
            batches_identical(&cold, &memoized) && batches_identical(&cold, &repaired),
            "all three evaluator generations must agree"
        );
        // The repaired sweep exercised the block layer, and the summary line
        // renders it.
        let stats = session
            .expect("the repaired sweep runs with a session")
            .stats();
        assert!(stats.block.hits + stats.block.misses > 0);
        assert!(format_layer_stats(&stats).contains("block"));
    }

    #[test]
    fn enc_comparison_favors_wavesched() {
        let cmp = enc_comparison(&impact_benchmarks::gcd(), 12);
        assert!(cmp.reduction() >= 1.0);
        assert!(cmp.baseline_enc > 0.0);
    }

    #[test]
    fn figure13_point_normalization_is_sane_for_a_tiny_run() {
        let series = figure13_series(&impact_benchmarks::gcd(), &[1.0, 2.0], 10);
        assert_eq!(series.points.len(), 2);
        let p1 = &series.points[0];
        // At laxity 1.0 the Vdd-scaled area-optimized design is close to the base.
        assert!(p1.a_power > 0.5 && p1.a_power <= 1.3);
        // Power optimization never does worse than the area-optimized design.
        for p in &series.points {
            assert!(p.i_power <= p.a_power + 0.05);
            assert!(p.i_area > 0.3);
        }
        assert!(series.max_reduction_vs_base() >= 1.0);
    }
}
