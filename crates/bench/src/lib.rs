//! Experiment drivers regenerating the tables and figures of the IMPACT
//! paper. The binaries in `src/bin/` print the series.
//!
//! Multi-run experiments (the Figure 13 laxity sweep) are expressed as
//! batches of [`SweepJob`]s over the [`run_batch`] driver, sharing one
//! [`SweepSession`] where the runs cover the same workload.

use impact_behsim::{simulate, ExecutionTrace};
use impact_benchmarks::Benchmark;
use impact_cdfg::Cdfg;
use impact_core::{Impact, SweepSession, SynthesisConfig, SynthesisOutcome};
use impact_sched::{uniform_problem, BaselineScheduler, Scheduler, WaveScheduler};

mod driver;

pub use driver::{
    benchmark_named, example_designs, fail, fail_if, run_batch, BenchCli, JobResult, SweepJob,
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

#[cfg(test)]
mod tests {
    use super::*;

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
