//! The IMPACT iterative-improvement engine (Figure 7 of the paper).
//!
//! The engine prepares the evaluator and the probe/commit search kernel,
//! runs the strategy [`ExplorerKind`](crate::ExplorerKind) on
//! [`EngineConfig`](crate::EngineConfig) selects, and assembles the report —
//! the search policy itself lives in the `explore` module.

use impact_behsim::ExecutionTrace;
use impact_cdfg::Cdfg;
use impact_power::PowerBreakdown;
use impact_rtl::RtlDesign;
use impact_sched::Schedule;

use crate::cache::CacheStats;
use crate::config::SynthesisConfig;
use crate::error::SynthesisError;
use crate::evaluate::{EvaluatedDesign, Evaluator};
use crate::explore::SearchKernel;
use crate::moves::Move;
use crate::session::SweepSession;

/// One committed move together with its (possibly negative) gain.
#[derive(Clone, Debug)]
pub struct MoveRecord {
    /// The move applied.
    pub applied: Move,
    /// Cost reduction it produced (in the units of the optimization mode).
    pub gain: f64,
    /// Improvement pass during which it was committed.
    pub pass: usize,
    /// Name of the explorer strategy that committed it (e.g. `"greedy"`,
    /// `"beam"`, `"restart-kick"`), so mixed-strategy runs and audits can
    /// attribute history entries.
    pub strategy: &'static str,
}

/// Summary metrics of a finished synthesis run.
#[derive(Clone, PartialEq, Debug)]
pub struct SynthesisReport {
    /// Estimated average power at the selected supply, in milliwatts.
    pub power_mw: f64,
    /// Power of the final design at the 5 V reference supply, in milliwatts.
    pub power_at_reference_mw: f64,
    /// Power breakdown at the selected supply.
    pub breakdown: PowerBreakdown,
    /// Total area in equivalent gates.
    pub area: f64,
    /// Selected supply voltage in volts.
    pub vdd: f64,
    /// Expected number of cycles of the final schedule.
    pub enc: f64,
    /// Minimum achievable ENC for this design and library.
    pub enc_min: f64,
    /// The ENC budget (`laxity × enc_min`).
    pub enc_limit: f64,
    /// The laxity factor the run was constrained to.
    pub laxity: f64,
    /// Power of the initial fully-parallel architecture at 5 V (the paper's
    /// normalization base before area optimization).
    pub initial_power_mw: f64,
    /// Area of the initial fully-parallel architecture.
    pub initial_area: f64,
    /// Number of committed moves.
    pub moves_applied: usize,
    /// Number of improvement passes executed.
    pub passes: usize,
}

/// Result of [`Impact::synthesize`]: the final architecture, its schedule and
/// the report plus the move history.
#[derive(Clone, Debug)]
pub struct SynthesisOutcome {
    /// Final RT-level architecture: the design the search walked to.
    pub design: RtlDesign,
    /// Final schedule: the full state transition graph of the final design
    /// at the selected supply, composed once when the run ends (the search
    /// itself reads only schedule summaries). Its ENC is the report's.
    pub schedule: Schedule,
    /// Headline metrics.
    pub report: SynthesisReport,
    /// Committed moves in application order.
    pub history: Vec<MoveRecord>,
    /// Non-dominated power/area/latency front of the probed design space,
    /// each member its design with its point. Empty for single-point
    /// strategies; filled by
    /// [`ExplorerKind::Pareto`](crate::ExplorerKind::Pareto).
    pub front: Vec<EvaluatedDesign>,
    /// Evaluation-cache counters of the session the run used: cumulative
    /// over every run of the session when synthesized with a shared
    /// [`SweepSession`]. The sequential engine configuration holds no
    /// session, even when handed one, so it reports only the run's own
    /// search counters.
    pub cache_stats: CacheStats,
}

/// The IMPACT synthesis engine.
#[derive(Clone, Debug)]
pub struct Impact {
    config: SynthesisConfig,
}

impl Impact {
    /// Creates an engine with the given configuration.
    pub fn new(config: SynthesisConfig) -> Self {
        Self { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &SynthesisConfig {
        &self.config
    }

    /// Runs the full synthesis flow of Figure 7: start from the fully
    /// parallel architecture, iteratively apply variable-depth sequences of
    /// moves, and stop when a whole pass brings no improvement.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError::InfeasibleLaxity`] for a laxity below 1.0
    /// or NaN, and propagates scheduler failures (a clock period that is not
    /// finite and positive among them).
    pub fn synthesize(
        &self,
        cdfg: &Cdfg,
        trace: &ExecutionTrace,
    ) -> Result<SynthesisOutcome, SynthesisError> {
        let evaluator = Evaluator::new(cdfg, trace, self.config.clone())?;
        self.run_with(cdfg, evaluator)
    }

    /// [`Self::synthesize`] against a shared [`SweepSession`]: the run reads
    /// and populates the session's cache instead of a private one, so a sweep
    /// of runs (different laxity factors, different optimization modes, even
    /// different benchmarks) shares contexts, trace statistics and design
    /// points. Results are bit-identical to [`Self::synthesize`] — the cache
    /// only memoizes pure functions — but a warm session skips most of the
    /// cold cost. The sequential engine configuration
    /// ([`EngineConfig::sequential`](crate::EngineConfig::sequential)) holds
    /// no session and ignores `session`: it neither reads nor fills it.
    ///
    /// # Errors
    ///
    /// Same as [`Self::synthesize`].
    pub fn synthesize_with_session(
        &self,
        cdfg: &Cdfg,
        trace: &ExecutionTrace,
        session: &SweepSession,
    ) -> Result<SynthesisOutcome, SynthesisError> {
        let evaluator = Evaluator::with_session(cdfg, trace, self.config.clone(), session)?;
        self.run_with(cdfg, evaluator)
    }

    /// Runs the configured explorer over a prepared evaluator: build the
    /// probe/commit kernel, run the strategy selected by `engine.explorer`
    /// from the evaluated initial architecture, and assemble the report
    /// from what the strategy returns.
    fn run_with(
        &self,
        cdfg: &Cdfg,
        evaluator: Evaluator<'_>,
    ) -> Result<SynthesisOutcome, SynthesisError> {
        let mut kernel = SearchKernel::new(cdfg, &evaluator);

        let initial = evaluator.initial_design()?;
        let initial_power_mw = initial.point.power_at_reference.total_mw();
        let initial_area = initial.point.area;

        let exploration = self.config.engine.explorer.explore(&mut kernel, initial)?;

        // At the full auditing level the whole session is checked for cache
        // coherence before the outcome is handed out.
        if self.config.engine.verify == crate::VerifyLevel::Full {
            evaluator.audit_session()?;
        }

        // Explore counters ride the session backend like the cache layers,
        // so sweep drivers report cumulative numbers.
        let cache_stats = evaluator.record_explore(kernel.stats());

        let EvaluatedDesign {
            design,
            point: current,
        } = exploration.best;
        let schedule = evaluator.full_schedule(&design, &current)?;
        let report = SynthesisReport {
            power_mw: current.power.total_mw(),
            power_at_reference_mw: current.power_at_reference.total_mw(),
            breakdown: current.power,
            area: current.area,
            vdd: current.vdd,
            enc: current.enc(),
            enc_min: evaluator.enc_min(),
            enc_limit: evaluator.enc_limit(),
            laxity: self.config.laxity,
            initial_power_mw,
            initial_area,
            moves_applied: exploration.history.len(),
            passes: exploration.passes,
        };
        Ok(SynthesisOutcome {
            design,
            schedule,
            report,
            history: exploration.history,
            front: exploration.front,
            cache_stats,
        })
    }
}

// ------------------------------------------------------------- report codec

use impact_codec::{Encode, Encoder};

/// Version tag of [`SynthesisReport`]'s byte layout. Reports are compared as
/// encoded bytes (the `fig13bench` oracle writes them to its expected
/// files), so the layout is versioned like every cached type.
const TAG_SYNTHESIS_REPORT: u8 = 0x50;

impl Encode for SynthesisReport {
    fn encode(&self, w: &mut Encoder) {
        w.put_tag(TAG_SYNTHESIS_REPORT);
        w.put_f64(self.power_mw);
        w.put_f64(self.power_at_reference_mw);
        self.breakdown.encode(w);
        w.put_f64(self.area);
        w.put_f64(self.vdd);
        w.put_f64(self.enc);
        w.put_f64(self.enc_min);
        w.put_f64(self.enc_limit);
        w.put_f64(self.laxity);
        w.put_f64(self.initial_power_mw);
        w.put_f64(self.initial_area);
        w.put_usize(self.moves_applied);
        w.put_usize(self.passes);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use impact_behsim::simulate;

    fn setup(bench: impact_benchmarks::Benchmark, passes: usize) -> (Cdfg, ExecutionTrace) {
        let cdfg = bench.compile().unwrap();
        let inputs = bench.input_sequences(passes, 17);
        let trace = simulate(&cdfg, &inputs).unwrap();
        (cdfg, trace)
    }

    fn quick(config: SynthesisConfig) -> SynthesisConfig {
        config.with_effort(2, 3)
    }

    #[test]
    fn power_mode_reduces_power_versus_the_initial_architecture() {
        let (cdfg, trace) = setup(impact_benchmarks::gcd(), 12);
        let outcome = Impact::new(quick(SynthesisConfig::power_optimized(2.0)))
            .synthesize(&cdfg, &trace)
            .unwrap();
        assert!(
            outcome.report.power_at_reference_mw <= outcome.report.initial_power_mw + 1e-9,
            "search must not end on a worse design ({} vs {})",
            outcome.report.power_at_reference_mw,
            outcome.report.initial_power_mw
        );
        assert!(outcome.report.enc <= outcome.report.enc_limit + impact_verify::ENC_EPS);
        assert!(outcome.report.vdd <= 5.0);
    }

    #[test]
    fn area_mode_reduces_area_and_respects_the_enc_budget() {
        let (cdfg, trace) = setup(impact_benchmarks::gcd(), 12);
        let outcome = Impact::new(quick(SynthesisConfig::area_optimized(2.0)))
            .synthesize(&cdfg, &trace)
            .unwrap();
        assert!(outcome.report.area < outcome.report.initial_area);
        assert!(outcome.report.enc <= outcome.report.enc_limit + impact_verify::ENC_EPS);
        assert!(!outcome.history.is_empty());
    }

    #[test]
    fn higher_laxity_never_increases_optimized_power() {
        let (cdfg, trace) = setup(impact_benchmarks::gcd(), 12);
        let tight = Impact::new(quick(SynthesisConfig::power_optimized(1.0)))
            .synthesize(&cdfg, &trace)
            .unwrap();
        let relaxed = Impact::new(quick(SynthesisConfig::power_optimized(3.0)))
            .synthesize(&cdfg, &trace)
            .unwrap();
        assert!(
            relaxed.report.power_mw <= tight.report.power_mw + 1e-9,
            "more slack must not hurt power ({} vs {})",
            relaxed.report.power_mw,
            tight.report.power_mw
        );
        assert!(relaxed.report.vdd <= tight.report.vdd + 1e-9);
    }

    #[test]
    fn committed_moves_report_their_pass_and_kind() {
        let (cdfg, trace) = setup(impact_benchmarks::gcd(), 12);
        let outcome = Impact::new(quick(SynthesisConfig::power_optimized(2.0)))
            .synthesize(&cdfg, &trace)
            .unwrap();
        for record in &outcome.history {
            assert!(record.pass < outcome.report.passes);
            assert!(!record.applied.kind().is_empty());
            assert_eq!(record.strategy, "greedy", "default explorer attribution");
        }
        assert_eq!(outcome.history.len(), outcome.report.moves_applied);
        assert!(
            outcome.front.is_empty(),
            "single-point strategies return no front"
        );
    }

    #[test]
    fn infeasible_laxity_is_reported() {
        let (cdfg, trace) = setup(impact_benchmarks::gcd(), 8);
        assert!(matches!(
            Impact::new(SynthesisConfig::power_optimized(0.5)).synthesize(&cdfg, &trace),
            Err(SynthesisError::InfeasibleLaxity { .. })
        ));
    }

    #[test]
    fn data_dominated_designs_are_handled_too() {
        let (cdfg, trace) = setup(impact_benchmarks::paulin(), 6);
        let outcome = Impact::new(quick(SynthesisConfig::power_optimized(2.0)))
            .synthesize(&cdfg, &trace)
            .unwrap();
        assert!(outcome.report.power_mw > 0.0);
        assert!(outcome.report.enc <= outcome.report.enc_limit + impact_verify::ENC_EPS);
    }

    #[test]
    fn ranking_is_deterministic_across_thread_counts() {
        // Ranking runs on the calling thread, so pinning a thread count is a
        // no-op: the pinned configuration equals the unpinned one and
        // synthesizes the same design through the same moves.
        let (cdfg, trace) = setup(impact_benchmarks::gcd(), 10);
        let unpinned = crate::EngineConfig::incremental();
        let config = quick(SynthesisConfig::power_optimized(2.0));
        let baseline = Impact::new(config.clone().with_engine(unpinned))
            .synthesize(&cdfg, &trace)
            .unwrap();
        for threads in [0usize, 1, 2, 5] {
            let pinned = unpinned.with_ranking_threads(threads);
            assert_eq!(pinned, unpinned, "{threads} threads");
            let outcome = Impact::new(config.clone().with_engine(pinned))
                .synthesize(&cdfg, &trace)
                .unwrap();
            assert_eq!(outcome.report, baseline.report, "{threads} threads");
            assert_eq!(outcome.design, baseline.design, "{threads} threads");
            assert_eq!(outcome.history.len(), baseline.history.len());
            for (a, b) in outcome.history.iter().zip(&baseline.history) {
                assert_eq!(a.applied, b.applied);
            }
        }
    }

    #[test]
    fn sequential_and_incremental_engines_agree_bit_for_bit() {
        let (cdfg, trace) = setup(impact_benchmarks::gcd(), 12);
        let config = quick(SynthesisConfig::power_optimized(2.0));
        let oracle = Impact::new(
            config
                .clone()
                .with_engine(crate::EngineConfig::sequential()),
        );
        let sequential = oracle.synthesize(&cdfg, &trace).unwrap();
        let incremental = Impact::new(config.with_engine(crate::EngineConfig::incremental()))
            .synthesize(&cdfg, &trace)
            .unwrap();
        assert_eq!(sequential.report.power_mw, incremental.report.power_mw);
        assert_eq!(
            sequential.report.power_at_reference_mw,
            incremental.report.power_at_reference_mw
        );
        assert_eq!(sequential.report.area, incremental.report.area);
        assert_eq!(sequential.report.vdd, incremental.report.vdd);
        assert_eq!(sequential.report.enc, incremental.report.enc);
        assert_eq!(sequential.design, incremental.design);
        assert_eq!(
            sequential.report.moves_applied,
            incremental.report.moves_applied
        );
        // The sequential engine never touches the cache; the incremental one
        // uses it heavily.
        assert_eq!(
            sequential.cache_stats.hits + sequential.cache_stats.misses,
            0
        );
        assert!(incremental.cache_stats.hits > 0);
        // A session handed to the sequential engine is ignored: the same
        // run, and the session keeps no entries and sees no traffic.
        let session = SweepSession::new();
        let handed = oracle
            .synthesize_with_session(&cdfg, &trace, &session)
            .unwrap();
        assert_eq!(handed.report, sequential.report);
        assert_eq!(handed.design, sequential.design);
        assert_eq!(handed.cache_stats, sequential.cache_stats);
        assert!(session.backend().export().is_empty(), "no entries");
        assert_eq!(session.stats(), CacheStats::default(), "no traffic");
    }

    #[test]
    fn final_schedule_covers_every_functional_operation() {
        let (cdfg, trace) = setup(impact_benchmarks::gcd(), 12);
        let outcome = Impact::new(quick(SynthesisConfig::power_optimized(2.0)))
            .synthesize(&cdfg, &trace)
            .unwrap();
        for (id, node) in cdfg.nodes() {
            if node.operation.needs_functional_unit() {
                assert!(outcome.schedule.stg.state_of(id).is_some());
            }
        }
    }
}
