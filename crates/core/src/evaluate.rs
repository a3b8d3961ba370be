//! Cost evaluation of RT-level designs: scheduling, power, area and supply
//! scaling against the laxity constraint.
//!
//! Evaluation is *incremental* by default: every [`Evaluator`] works against
//! an evaluation session whose cache memoizes trace statistics by structural
//! content, per-design contexts (base delays + power profile) by design
//! fingerprint, and full [`DesignPoint`]s by `(workload, fingerprint, vdd)`.
//! The Vdd binary search therefore schedules each `(design, level)` pair at
//! most once per session, and re-probes are hash lookups.
//!
//! Design points are laxity-*independent*: the cache stores the full
//! evaluation of every probed `(design, vdd)` pair and the evaluator applies
//! its own ENC budget at read time, so a [`SweepSession`] shared across runs
//! with different laxity factors (the Figure 13 sweep) reuses the points,
//! contexts and statistics of earlier runs. Only the outcome of the full
//! supply search is keyed by the ENC budget, because the selected supply
//! depends on it.
//!
//! Every layer is reached through one memo helper, and whether the evaluator
//! holds a session is the one switch. With a session, a candidate's
//! fingerprint and context are patched from its parent's and a schedule-memo
//! miss is composed through the session's block layer. The sequential
//! evaluator ([`EngineConfig::sequential`](crate::EngineConfig::sequential))
//! holds none, so the helper skips every lookup and drops every store,
//! fingerprints and contexts are rebuilt from the whole design and schedules
//! are composed inline: the same code recomputes everything per call, which
//! reproduces the brute-force loop bit-identically — the cache only memoizes
//! pure functions.

use std::sync::Arc;

use impact_behsim::ExecutionTrace;
use impact_cdfg::{Cdfg, NodeId};
use impact_modlib::{ModuleLibrary, VDD_REFERENCE};
use impact_power::{
    FuPowerProfile, MuxPowerProfile, PowerBreakdown, PowerEstimator, PowerProfile, RegPowerProfile,
};
use impact_rtl::{
    DerivedSite, DesignDelta, DesignFingerprint, FingerprintHasher, FuId, FunctionalUnit, MuxSite,
    MuxTree, RegId, Register, RtlDesign, SignalKey,
};
use impact_sched::{
    BlockSchedule, BlockSource, InlineBlocks, ScheduleConfig, SchedulingProblem, SchedulingResult,
};
use impact_trace::{FuStats, RegStats, RtTraces};
use impact_verify::ENC_EPS;

use crate::cache::{CacheStats, DesignContext, LayerKey, MuxEntry};
use crate::config::{EvaluatorKind, OptimizationMode, SynthesisConfig};
use crate::error::SynthesisError;
use crate::explore::ExploreStats;
use crate::fingerprint::{
    BlockKey, ContextKey, FuStatsKey, MuxStatsKey, PointKey, RegStatsKey, ScaledKey, ScheduleKey,
    WorkloadId,
};
use crate::moves::Move;
use crate::session::SweepSession;

/// Provenance of a candidate design inside move-aware evaluation: its parent
/// design, the parent's structural fingerprint and the move's change-set.
/// An evaluator that holds a session turns full rebuilds into patches with
/// it — the candidate's fingerprint is XOR-patched from the parent's, and
/// its evaluation context is derived from the parent's context: the mux
/// sites the move touched are enumerated again, every other site is shared
/// with the parent by pointer, and only the touched profile entries are
/// recomputed. The sequential evaluator ignores it and rebuilds both from
/// the whole design.
struct MoveLineage<'a> {
    parent: &'a RtlDesign,
    parent_fingerprint: DesignFingerprint,
    delta: &'a DesignDelta,
}

/// The evaluation of one design at one supply: its schedule, operating point
/// and the resulting cost metrics. A point holds no architecture: the cache
/// keys it by the design's fingerprint, and the search keeps the designs it
/// walks next to their points ([`EvaluatedDesign`]).
#[derive(Clone, PartialEq, Debug)]
pub struct DesignPoint {
    /// Its schedule at the selected supply voltage. Shared: memoized
    /// schedules are handed out by pointer, so cloning a point (or serving a
    /// schedule-memo hit) never deep-copies the STG.
    pub schedule: Arc<SchedulingResult>,
    /// Selected supply voltage in volts.
    pub vdd: f64,
    /// Power at the selected supply voltage.
    pub power: PowerBreakdown,
    /// Power of the same design operated at the 5 V reference supply.
    pub power_at_reference: PowerBreakdown,
    /// Total area in equivalent gates.
    pub area: f64,
}

/// A design the search walked to, with its evaluation: the search owns the
/// architecture, the cache only its [`DesignPoint`].
#[derive(Clone, PartialEq, Debug)]
pub struct EvaluatedDesign {
    /// The RT-level architecture.
    pub design: RtlDesign,
    /// Its evaluation at the supply the search selected.
    pub point: DesignPoint,
}

impl DesignPoint {
    /// Expected number of cycles of the design at its operating point.
    pub fn enc(&self) -> f64 {
        self.schedule.enc
    }

    /// The scalar the search minimizes under the given mode.
    pub fn cost(&self, mode: OptimizationMode) -> f64 {
        match mode {
            OptimizationMode::Power => self.power.total_mw(),
            OptimizationMode::Area => self.area,
        }
    }
}

/// Evaluator bound to one design (CDFG + behavioral trace + configuration).
///
/// It owns the ENC budget derived from the laxity factor: `enc_limit =
/// laxity × enc_min`, where `enc_min` is the ENC of the Wavesched schedule of
/// the fully-parallel architecture with the fastest modules at 5 V.
///
/// Every evaluation entry point returns the cache's shared `Arc` allocation
/// of the point; clone it for an owned point.
/// [`EngineConfig::evaluator`](crate::EngineConfig::evaluator) decides only
/// whether the evaluator holds a session, and with it whether it patches and
/// memoizes; both [`EvaluatorKind`]s run this one code path and return
/// bit-identical points.
#[derive(Clone, Debug)]
pub struct Evaluator<'a> {
    cdfg: &'a Cdfg,
    trace: &'a ExecutionTrace,
    library: ModuleLibrary,
    config: SynthesisConfig,
    enc_min: f64,
    enc_limit: f64,
    /// Evaluation session; `None` (the sequential evaluator) makes the memo
    /// helper compute every value afresh and turns off fingerprint patching,
    /// context patching and the block layer. Clones of the evaluator (and
    /// every run handed the same external session) share one store.
    session: Option<SweepSession>,
    /// Content digest scoping this evaluator's cache keys within the session.
    workload: WorkloadId,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator over a private session (or none, for
    /// [`EvaluatorKind::Sequential`]) and computes the ENC budget.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError::InfeasibleLaxity`] for a laxity below 1.0
    /// or NaN, and propagates scheduling failures on the initial
    /// architecture (a clock period that is not finite and positive among
    /// them).
    pub fn new(
        cdfg: &'a Cdfg,
        trace: &'a ExecutionTrace,
        config: SynthesisConfig,
    ) -> Result<Self, SynthesisError> {
        Self::build(cdfg, trace, config, None)
    }

    /// Creates an evaluator sharing an external [`SweepSession`]: later runs
    /// over the same workload reuse the contexts, trace statistics and design
    /// points of earlier ones, including runs at *different* laxity factors.
    /// The sequential evaluator ([`EvaluatorKind::Sequential`]) holds no
    /// session and ignores `session`, since its results never depend on one:
    /// it neither reads nor fills it.
    ///
    /// # Errors
    ///
    /// Same as [`Self::new`].
    pub fn with_session(
        cdfg: &'a Cdfg,
        trace: &'a ExecutionTrace,
        config: SynthesisConfig,
        session: &SweepSession,
    ) -> Result<Self, SynthesisError> {
        Self::build(cdfg, trace, config, Some(session))
    }

    /// The one place the engine's [`EvaluatorKind`] is read: the sequential
    /// evaluator holds no session; the incremental one holds `shared`, or a
    /// private session without one.
    fn build(
        cdfg: &'a Cdfg,
        trace: &'a ExecutionTrace,
        config: SynthesisConfig,
        shared: Option<&SweepSession>,
    ) -> Result<Self, SynthesisError> {
        if config.laxity.is_nan() || config.laxity < 1.0 {
            return Err(SynthesisError::InfeasibleLaxity {
                laxity: config.laxity,
            });
        }
        let session = match config.engine.evaluator {
            EvaluatorKind::Sequential => None,
            EvaluatorKind::Incremental => Some(shared.cloned().unwrap_or_default()),
        };
        let library = ModuleLibrary::standard();
        let workload = workload_id(cdfg, trace, &config);
        let mut evaluator = Self {
            cdfg,
            trace,
            library,
            config,
            enc_min: 0.0,
            enc_limit: f64::INFINITY,
            session,
            workload,
        };
        // With auditing enabled, the CDFG itself is checked once up front —
        // per-point audits then only re-verify the derived artifacts.
        if evaluator.config.engine.verify != crate::VerifyLevel::Off {
            let violations = impact_verify::verify_cdfg(cdfg);
            if !violations.is_empty() {
                return Err(SynthesisError::Verification(
                    violations.iter().map(ToString::to_string).collect(),
                ));
            }
        }
        let initial = RtlDesign::initial_parallel(cdfg, &evaluator.library);
        // The minimum-ENC schedule goes through the memoized point path, so
        // repeat runs of a sweep (and this run's `initial_point`) reuse it.
        evaluator.enc_min = evaluator
            .raw_point_at(&initial, initial.fingerprint(), VDD_REFERENCE, None)?
            .enc();
        evaluator.enc_limit = evaluator.enc_min * evaluator.config.laxity;
        Ok(evaluator)
    }

    /// Minimum achievable ENC with the given library and clock.
    pub fn enc_min(&self) -> f64 {
        self.enc_min
    }

    /// The ENC budget (`laxity × enc_min`).
    pub fn enc_limit(&self) -> f64 {
        self.enc_limit
    }

    /// The module library used for evaluation.
    pub fn library(&self) -> &ModuleLibrary {
        &self.library
    }

    /// The synthesis configuration.
    pub fn config(&self) -> &SynthesisConfig {
        &self.config
    }

    /// The workload digest scoping this evaluator's cache keys.
    pub fn workload(&self) -> WorkloadId {
        self.workload
    }

    /// The memo helper every layer goes through: the entry `key` maps to in
    /// the layer its type names, or `compute`'s value, stored under `key`.
    /// Without a session nothing is looked up or stored, so every call
    /// computes — the brute-force loop.
    fn try_memo<K: LayerKey, E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<K::Value, E>,
    ) -> Result<K::Value, E> {
        let Some(session) = &self.session else {
            return compute();
        };
        let backend = &**session.backend();
        if let Some(value) = key.lookup(backend) {
            return Ok(value);
        }
        let value = compute()?;
        key.store(backend, value.clone());
        Ok(value)
    }

    /// [`Self::try_memo`] for computations that cannot fail.
    fn memo<K: LayerKey>(&self, key: K, compute: impl FnOnce() -> K::Value) -> K::Value {
        let Ok(value) = self.try_memo(key, || Ok::<_, std::convert::Infallible>(compute()));
        value
    }

    /// Builds and evaluates the initial fully-parallel architecture.
    ///
    /// # Errors
    ///
    /// Propagates scheduling failures; the initial architecture is always
    /// feasible for laxity ≥ 1.
    pub fn initial_point(&self) -> Result<DesignPoint, SynthesisError> {
        self.initial_design().map(|initial| initial.point)
    }

    /// [`Self::initial_point`] together with the architecture it evaluates:
    /// where the search starts.
    pub(crate) fn initial_design(&self) -> Result<EvaluatedDesign, SynthesisError> {
        let design = RtlDesign::initial_parallel(self.cdfg, &self.library);
        let point = self.evaluate(&design)?.map(Arc::unwrap_or_clone).ok_or(
            SynthesisError::InfeasibleLaxity {
                laxity: self.config.laxity,
            },
        )?;
        Ok(EvaluatedDesign { design, point })
    }

    /// Snapshot of the evaluation-cache counters (cumulative over the whole
    /// session when an external session is shared across runs; all zero for
    /// the sequential evaluator, which holds no session).
    pub fn cache_stats(&self) -> CacheStats {
        self.session
            .as_ref()
            .map(SweepSession::stats)
            .unwrap_or_default()
    }

    /// Records a finished run's search counters and returns the cache
    /// counters that include them: accumulated into the session (so sweeps
    /// report cumulative numbers), or the run's own without one.
    pub(crate) fn record_explore(&self, explore: ExploreStats) -> CacheStats {
        match &self.session {
            Some(session) => {
                session.backend().record_explore(explore);
                session.stats()
            }
            None => CacheStats {
                explore,
                ..CacheStats::default()
            },
        }
    }

    /// Fully evaluates a design: checks feasibility at the reference supply,
    /// then scales the supply down as far as the ENC budget allows. Returns
    /// `None` when the design violates the ENC budget even at 5 V.
    ///
    /// # Errors
    ///
    /// Propagates scheduler failures (which indicate malformed inputs, not
    /// infeasibility).
    pub fn evaluate(&self, design: &RtlDesign) -> Result<Option<Arc<DesignPoint>>, SynthesisError> {
        self.evaluate_scaled(design, design.fingerprint(), None)
    }

    /// Evaluates a design at one fixed supply voltage (a single scheduling),
    /// returning `None` when it violates the ENC budget there.
    ///
    /// # Errors
    ///
    /// Propagates scheduler failures.
    pub fn evaluate_at_vdd(
        &self,
        design: &RtlDesign,
        vdd: f64,
    ) -> Result<Option<Arc<DesignPoint>>, SynthesisError> {
        self.point_at(design, design.fingerprint(), vdd, None)
    }

    /// Applies `candidate` to a clone of `parent` and fully evaluates the
    /// result (supply search included). This is the move-aware entry point of
    /// delta evaluation: with a session, the candidate's fingerprint is
    /// patched from the parent's and its evaluation context is derived from
    /// the parent's, recomputing only the entries the move touched —
    /// bit-identical to the full rebuild the sequential evaluator runs.
    ///
    /// Returns `None` when the move is inapplicable to `parent` or the
    /// resulting design violates the ENC budget.
    ///
    /// # Errors
    ///
    /// Propagates scheduler failures.
    pub fn evaluate_move(
        &self,
        parent: &RtlDesign,
        candidate: &Move,
    ) -> Result<Option<Arc<DesignPoint>>, SynthesisError> {
        self.evaluate_candidate(parent, candidate, None)
    }

    /// [`Self::evaluate_move`] at one fixed supply voltage.
    ///
    /// # Errors
    ///
    /// Propagates scheduler failures.
    pub fn evaluate_move_at_vdd(
        &self,
        parent: &RtlDesign,
        candidate: &Move,
        vdd: f64,
    ) -> Result<Option<Arc<DesignPoint>>, SynthesisError> {
        self.evaluate_candidate(parent, candidate, Some(vdd))
    }

    /// Move-aware evaluation of `candidate` on a copy of `parent`: the full
    /// supply search when `vdd` is `None`, one level otherwise.
    fn evaluate_candidate(
        &self,
        parent: &RtlDesign,
        candidate: &Move,
        vdd: Option<f64>,
    ) -> Result<Option<Arc<DesignPoint>>, SynthesisError> {
        let mut scratch = parent.clone();
        self.evaluate_candidate_in(
            parent,
            parent.fingerprint(),
            &mut scratch,
            candidate,
            vdd,
            |_, point| point,
        )
    }

    /// Move-aware evaluation on a caller's scratch copy of `parent`, with
    /// the parent's fingerprint supplied, so the search kernel hashes its
    /// working design once per step instead of once per candidate: the move
    /// is applied to `scratch` in place, the candidate is looked up (or
    /// evaluated) by its fingerprint, and the move is reverted before the
    /// result is returned, on every path. `scratch` must equal `parent` on
    /// entry and equals it again on return, so the search kernel copies its
    /// working design once per stride of probes instead of once per probe.
    ///
    /// A feasible candidate is handed to `keep` together with its design,
    /// while the move is still applied; `keep`'s value is returned. The
    /// search copies the design there only for the candidates it chooses.
    pub(crate) fn evaluate_candidate_in<T>(
        &self,
        parent: &RtlDesign,
        parent_fingerprint: DesignFingerprint,
        scratch: &mut RtlDesign,
        candidate: &Move,
        vdd: Option<f64>,
        keep: impl FnOnce(&RtlDesign, Arc<DesignPoint>) -> T,
    ) -> Result<Option<T>, SynthesisError> {
        // A move that fails to apply leaves the design untouched.
        let Ok(delta) = candidate.apply(self.cdfg, &self.library, scratch) else {
            return Ok(None);
        };
        let lineage = MoveLineage {
            parent,
            parent_fingerprint,
            delta: &delta,
        };
        let fingerprint = self.candidate_fingerprint(scratch, &lineage);
        let result = match vdd {
            Some(vdd) => self.point_at(scratch, fingerprint, vdd, Some(&lineage)),
            None => self.evaluate_scaled(scratch, fingerprint, Some(&lineage)),
        }
        .map(|point| point.map(|point| keep(scratch, point)));
        scratch.revert_delta(&delta);
        result
    }

    /// The candidate's structural fingerprint: patched from the parent's
    /// digest when the evaluator holds a session, recomputed from the whole
    /// design otherwise (the sequential oracle).
    fn candidate_fingerprint(
        &self,
        candidate: &RtlDesign,
        lineage: &MoveLineage<'_>,
    ) -> DesignFingerprint {
        if self.session.is_none() {
            return candidate.fingerprint();
        }
        let patched = RtlDesign::fingerprint_update(lineage.parent_fingerprint, lineage.delta);
        debug_assert_eq!(
            patched,
            candidate.fingerprint(),
            "patched fingerprints must match full recomputation"
        );
        patched
    }

    /// The supply search, memoized per ENC budget. The design's fingerprint
    /// is computed once by the caller and threaded through every probe, as is
    /// the candidate's move lineage (`None` outside move-aware evaluation).
    fn evaluate_scaled(
        &self,
        design: &RtlDesign,
        fingerprint: DesignFingerprint,
        lineage: Option<&MoveLineage<'_>>,
    ) -> Result<Option<Arc<DesignPoint>>, SynthesisError> {
        let key = ScaledKey::new(self.workload, fingerprint, self.enc_limit);
        self.try_memo(key, || {
            let probe = |vdd: f64| self.point_at(design, fingerprint, vdd, lineage);
            let Some(reference_point) = probe(VDD_REFERENCE)? else {
                return Ok(None);
            };
            lowest_feasible_point(self.library.vdd().levels(), reference_point, probe).map(Some)
        })
    }

    /// Single-level evaluation with a precomputed fingerprint: the memoized
    /// point (laxity-independent) passed through this evaluator's ENC-budget
    /// filter.
    fn point_at(
        &self,
        design: &RtlDesign,
        fingerprint: DesignFingerprint,
        vdd: f64,
        lineage: Option<&MoveLineage<'_>>,
    ) -> Result<Option<Arc<DesignPoint>>, SynthesisError> {
        let point = self.raw_point_at(design, fingerprint, vdd, lineage)?;
        Ok((point.enc() <= self.enc_limit + ENC_EPS).then_some(point))
    }

    /// Fetches (or computes and memoizes) the full evaluation of a design at
    /// one supply level, *without* applying the ENC budget — this is what
    /// makes the entry reusable by runs at other laxity factors.
    fn raw_point_at(
        &self,
        design: &RtlDesign,
        fingerprint: DesignFingerprint,
        vdd: f64,
        lineage: Option<&MoveLineage<'_>>,
    ) -> Result<Arc<DesignPoint>, SynthesisError> {
        self.try_memo(PointKey::new(self.workload, fingerprint, vdd), || {
            let context = self.context_for(design, fingerprint, lineage);
            let schedule = self.schedule_with_context(&context, vdd)?;
            // The full point (power at both supplies and area) is built even
            // when this evaluator's budget will reject it: a budget check
            // here would make the entry depend on the laxity factor and kill
            // cross-laxity sharing. The extra arithmetic is small next to the
            // scheduling pass above, and a run at a looser budget gets the
            // finished point for free.
            let point = Arc::new(self.point_from_schedule(&context, vdd, schedule));
            if self.config.engine.verify != crate::VerifyLevel::Off {
                let violations =
                    self.audit(&context, design, fingerprint, vdd, &point.schedule, None);
                if !violations.is_empty() {
                    return Err(SynthesisError::Verification(
                        violations.iter().map(ToString::to_string).collect(),
                    ));
                }
            }
            Ok(point)
        })
    }

    /// Whole-session cache-coherence audit (run by the engine at
    /// [`VerifyLevel::Full`](crate::VerifyLevel)).
    pub(crate) fn audit_session(&self) -> Result<(), SynthesisError> {
        let Some(session) = &self.session else {
            return Ok(());
        };
        let violations = crate::verify::audit_session(session);
        if violations.is_empty() {
            Ok(())
        } else {
            Err(SynthesisError::Verification(
                violations.iter().map(ToString::to_string).collect(),
            ))
        }
    }

    /// Full static audit of a finished synthesis outcome, as data: CDFG
    /// well-formedness plus everything [`Self::audit_design_point`] checks,
    /// against the ENC budget the run was constrained to. Pure: returns the
    /// findings instead of failing, so drivers (the `impact-verify` binary,
    /// the true-negative tests) can report them. Runs regardless of
    /// [`VerifyLevel`](crate::VerifyLevel).
    pub fn audit_outcome(
        &self,
        outcome: &crate::SynthesisOutcome,
    ) -> Vec<impact_verify::Violation> {
        let mut violations = impact_verify::verify_cdfg(self.cdfg);
        violations.extend(self.audit_recomputed(
            &outcome.design,
            outcome.report.vdd,
            &outcome.schedule,
            outcome.report.enc_limit,
        ));
        violations
    }

    /// Full static audit of one evaluated design point, as data: legality
    /// of `design`, the point's architecture, its fingerprint recompute and
    /// context, mux-site consistency, and the point's schedule against the
    /// scheduling problem rebuilt at the point's supply — including this
    /// evaluator's ENC budget. The search tests in `impact_bench` run every
    /// reported Pareto-front member through this. Pure and independent of
    /// [`VerifyLevel`](crate::VerifyLevel), like [`Self::audit_outcome`].
    pub fn audit_design_point(
        &self,
        design: &RtlDesign,
        point: &DesignPoint,
    ) -> Vec<impact_verify::Violation> {
        self.audit_recomputed(design, point.vdd, &point.schedule, self.enc_limit)
    }

    /// [`Self::audit`] of a finished design against its recomputed
    /// fingerprint and context.
    fn audit_recomputed(
        &self,
        design: &RtlDesign,
        vdd: f64,
        schedule: &SchedulingResult,
        enc_limit: f64,
    ) -> Vec<impact_verify::Violation> {
        let fingerprint = design.fingerprint();
        let context = self.context_for(design, fingerprint, None);
        self.audit(
            &context,
            design,
            fingerprint,
            vdd,
            schedule,
            Some(enc_limit),
        )
    }

    /// The static audit shared by the inline point audit (see
    /// [`VerifyLevel`](crate::VerifyLevel)) and the public audits: design
    /// legality, `fingerprint` against a recompute (the key the point is
    /// stored under, so a patch that diverged is caught), `context` against
    /// the design it is stored for (binding, resource ids, restructuring
    /// flags and mux sites), and `schedule` against the problem rebuilt
    /// from `context` at `vdd`, under `enc_limit` when given. A cached point
    /// holds no design, so this is where its key and its context are checked
    /// against one: when the point is computed.
    fn audit(
        &self,
        context: &DesignContext,
        design: &RtlDesign,
        fingerprint: DesignFingerprint,
        vdd: f64,
        schedule: &SchedulingResult,
        enc_limit: Option<f64>,
    ) -> Vec<impact_verify::Violation> {
        let mut violations = impact_verify::verify_design(self.cdfg, design);
        violations.extend(impact_verify::verify_fingerprint(design, fingerprint));
        violations.extend(crate::verify::context_design_violations(context, design));
        violations.extend(impact_verify::verify_mux_sites(
            self.cdfg,
            design,
            &context.sites,
        ));
        let factor = self.library.vdd().delay_factor(vdd);
        let problem = self.problem_for(context, factor);
        violations.extend(impact_verify::verify_schedule(
            &problem, schedule, enc_limit,
        ));
        violations
    }

    /// Derives the full design point from a schedule: power at the probed and
    /// the reference supply plus area, all from the context's
    /// supply-independent profile.
    fn point_from_schedule(
        &self,
        context: &DesignContext,
        vdd: f64,
        schedule: Arc<SchedulingResult>,
    ) -> DesignPoint {
        let estimator = PowerEstimator::new(&self.library, self.config.power.clone().at_vdd(vdd));
        let power = estimator.estimate_profiled(&context.profile, &schedule);
        let area = estimator.area_profiled(&context.profile, &schedule);
        let power_at_reference = if (vdd - VDD_REFERENCE).abs() < 1e-9 {
            power
        } else {
            let ref_estimator = PowerEstimator::new(
                &self.library,
                self.config.power.clone().at_vdd(VDD_REFERENCE),
            );
            ref_estimator.estimate_profiled(&context.profile, &schedule)
        };
        DesignPoint {
            schedule,
            vdd,
            power,
            power_at_reference,
            area,
        }
    }

    /// Fetches (or builds and memoizes) the reusable evaluation context of a
    /// design. With a lineage and a session, a cache miss is served by
    /// patching the parent's context instead of rebuilding.
    fn context_for(
        &self,
        design: &RtlDesign,
        fingerprint: DesignFingerprint,
        lineage: Option<&MoveLineage<'_>>,
    ) -> Arc<DesignContext> {
        self.memo(ContextKey::new(self.workload, fingerprint), || {
            Arc::new(match lineage.filter(|_| self.session.is_some()) {
                Some(lineage) => {
                    let parent = self.context_for(lineage.parent, lineage.parent_fingerprint, None);
                    self.patch_context(&parent, lineage.parent, design, lineage.delta)
                }
                None => self.build_context(design),
            })
        })
    }

    /// Per-unit trace statistics (memoized by content): mean input activity
    /// and activations per pass.
    fn fu_stat_values(
        &self,
        rt: &RtTraces<'_>,
        design: &RtlDesign,
        fu: FuId,
        unit: &FunctionalUnit,
    ) -> (f64, f64) {
        let stats = self.fu_stats(rt, design, fu, unit.width);
        (stats.input_activity, stats.activations_per_pass)
    }

    /// Per-register trace statistics (memoized by content): mean per-write
    /// activity and writes per pass.
    fn reg_stat_values(&self, rt: &RtTraces<'_>, reg: RegId, register: &Register) -> (f64, f64) {
        let stats = self.reg_stats(rt, reg, register);
        (stats.activity, stats.writes_per_pass)
    }

    fn fu_stats(&self, rt: &RtTraces<'_>, design: &RtlDesign, fu: FuId, width: u8) -> FuStats {
        let key = FuStatsKey::of(self.workload, design, fu, width);
        self.memo(key, || rt.fu_stats(fu))
    }

    fn reg_stats(&self, rt: &RtTraces<'_>, reg: RegId, register: &Register) -> RegStats {
        let key = RegStatsKey::of(self.workload, &register.variables, register.width);
        self.memo(key, || rt.register_stats(reg))
    }

    /// Activity of a mux source signal, read from the memoized unit and
    /// register statistics: [`RtTraces::signal_activity`] without merging
    /// the source's trace again.
    fn signal_activity(&self, rt: &RtTraces<'_>, design: &RtlDesign, key: SignalKey) -> f64 {
        match key {
            SignalKey::Register(reg) => {
                if let Ok(register) = design.register(reg) {
                    return self.reg_stats(rt, reg, register).activity;
                }
            }
            SignalKey::FuOutput(fu) => {
                if let Ok(unit) = design.functional_unit(fu) {
                    return self.fu_stats(rt, design, fu, unit.width).output_activity;
                }
            }
            SignalKey::Constant(_) => {}
        }
        rt.signal_activity(key)
    }

    /// Depth of every source in a site's tree under the given construction.
    /// Restructured trees use the memoized activity statistics; balanced
    /// trees depend only on the fan-in, so no trace statistics are needed.
    fn site_depths(
        &self,
        rt: &RtTraces<'_>,
        design: &RtlDesign,
        site: &MuxSite,
        restructured: bool,
    ) -> Arc<Vec<usize>> {
        if restructured {
            return Arc::new(self.mux_entry(rt, design, site, true).depths);
        }
        Arc::new(MuxTree::balanced_depths(site.sources.len()))
    }

    /// Per-site trace statistics (memoized by content): tree activity and
    /// selections per pass under the given tree construction.
    fn mux_stat_values(
        &self,
        rt: &RtTraces<'_>,
        design: &RtlDesign,
        site: &MuxSite,
        restructured: bool,
    ) -> (f64, f64) {
        let entry = self.mux_entry(rt, design, site, restructured);
        (entry.tree_activity, entry.selections_per_pass)
    }

    /// Adds the mux stages each operand traverses to `delays`, in
    /// site-enumeration order, for the nodes `include` selects.
    fn add_site_delays(
        &self,
        delays: &mut [f64],
        sites: &[Arc<MuxSite>],
        depths: &[Arc<Vec<usize>>],
        include: impl Fn(NodeId) -> bool,
    ) {
        let mux_delay = self.library.mux2().delay_ns;
        for (site, depth_of) in sites.iter().zip(depths) {
            for (source, &depth) in site.sources.iter().zip(depth_of.iter()) {
                let extra = depth as f64 * mux_delay;
                for &op in &source.ops {
                    if include(op) {
                        delays[op.index()] += extra;
                    }
                }
            }
        }
    }

    /// Builds the evaluation context from scratch: enumerates the design's
    /// mux sites once and derives base delays, the scheduler binding, the
    /// supply-independent power profile and the patchable skeleton (resource
    /// ids, sites, tree depths) from that single enumeration. Trace
    /// statistics are memoized by content, so contexts of sibling candidate
    /// designs share almost all of the underlying trace traversals.
    fn build_context(&self, design: &RtlDesign) -> DesignContext {
        let rt = RtTraces::new(self.cdfg, design, self.trace);
        let sites: Vec<Arc<MuxSite>> = design
            .mux_sites(self.cdfg)
            .into_iter()
            .map(Arc::new)
            .collect();
        let site_restructured: Vec<bool> = sites
            .iter()
            .map(|site| design.is_restructured(site.sink))
            .collect();
        let site_depths: Vec<Arc<Vec<usize>>> = sites
            .iter()
            .zip(&site_restructured)
            .map(|(site, &restructured)| self.site_depths(&rt, design, site, restructured))
            .collect();
        let mut base_delays = design.node_module_delays(self.cdfg, &self.library);
        self.add_site_delays(&mut base_delays, &sites, &site_depths, |_| true);
        let profile = PowerProfile::assemble_with_sites(
            &self.library,
            design,
            &sites,
            |fu, unit| self.fu_stat_values(&rt, design, fu, unit),
            |reg, register| self.reg_stat_values(&rt, reg, register),
            |site, restructured| self.mux_stat_values(&rt, design, site, restructured),
        );
        DesignContext {
            base_delays,
            binding: design.scheduler_binding(),
            profile,
            fu_ids: design.functional_units().map(|(id, _)| id).collect(),
            reg_ids: design.registers().map(|(id, _)| id).collect(),
            sites,
            site_restructured,
            site_depths,
        }
    }

    /// Derives a candidate's evaluation context from its parent's in
    /// O(move). Bit-identical to [`Self::build_context`] on the candidate:
    /// only the mux sites of the resources the move touched are enumerated
    /// again ([`RtlDesign::derive_mux_sites`]); every other site, and its
    /// depth list when its statistics are untouched, is shared with the
    /// parent by pointer. Untouched profile entries are pure values copied
    /// verbatim, touched entries are recomputed through the exact same code
    /// paths (and the same memoized statistics) the full rebuild uses, and
    /// per-node delay sums and profile totals are replayed in the full
    /// build's order.
    fn patch_context(
        &self,
        parent: &DesignContext,
        parent_design: &RtlDesign,
        design: &RtlDesign,
        delta: &DesignDelta,
    ) -> DesignContext {
        let rt = RtTraces::new(self.cdfg, design, self.trace);
        let touched_fus = delta.changed_fus();
        let touched_regs = delta.changed_registers();

        // Candidate sites and the site-level diff: a candidate site reuses
        // the parent's depths and profile entry iff the parent had an equal
        // site at the same sink with the same tree construction, *and* none
        // of its sources reads a touched resource — a source's signal key
        // survives a move (it carries ids), but the statistics behind it
        // follow the resource's content (a merged register switches
        // differently even though its id is unchanged).
        let sources_untouched = |site: &MuxSite| {
            site.sources.iter().all(|source| match source.key {
                SignalKey::Register(reg) => !touched_regs.contains(&reg),
                SignalKey::FuOutput(fu) => !touched_fus.contains(&fu),
                SignalKey::Constant(_) => true,
            })
        };
        let derived = design.derive_mux_sites(self.cdfg, &parent.sites, delta);
        let mut sites = Vec::with_capacity(derived.len());
        let mut site_restructured = Vec::with_capacity(derived.len());
        let mut reused: Vec<Option<usize>> = Vec::with_capacity(derived.len());
        let mut parent_reused = vec![false; parent.sites.len()];
        for entry in derived {
            let (site, same_as_parent) = match entry {
                DerivedSite::Kept(pi) => (Arc::clone(&parent.sites[pi]), Some(pi)),
                DerivedSite::Fresh {
                    site,
                    parent: Some(pi),
                } if *parent.sites[pi] == site => (Arc::clone(&parent.sites[pi]), Some(pi)),
                DerivedSite::Fresh { site, .. } => (Arc::new(site), None),
            };
            // A kept site's flag changes only with an annotation the move
            // itself set or cleared.
            let annotated = delta
                .restructured
                .iter()
                .any(|&(sink, ..)| sink == site.sink);
            let restructured = match same_as_parent {
                Some(pi) if !annotated => parent.site_restructured[pi],
                _ => design.is_restructured(site.sink),
            };
            let reuse = same_as_parent.filter(|&pi| {
                parent.site_restructured[pi] == restructured && sources_untouched(&site)
            });
            if let Some(pi) = reuse {
                parent_reused[pi] = true;
            }
            sites.push(site);
            site_restructured.push(restructured);
            reused.push(reuse);
        }
        debug_assert!(
            sites
                .iter()
                .map(|site| &**site)
                .eq(&design.mux_sites(self.cdfg)),
            "derived mux sites must equal the full enumeration"
        );
        let site_depths: Vec<Arc<Vec<usize>>> = sites
            .iter()
            .zip(&site_restructured)
            .zip(&reused)
            .map(|((site, &restructured), reused)| match reused {
                Some(pi) => Arc::clone(&parent.site_depths[*pi]),
                None => self.site_depths(&rt, design, site, restructured),
            })
            .collect();

        // Nodes whose base delay may differ from the parent's: nodes whose
        // binding changed, nodes on a touched unit (module or width change),
        // and nodes routed through any site that changed on either side.
        let mut touched_node = vec![false; self.cdfg.node_count()];
        for &(node, _, _) in &delta.op_bindings {
            touched_node[node.index()] = true;
        }
        for &fu in &touched_fus {
            for op in parent_design.ops_on_iter(fu).chain(design.ops_on_iter(fu)) {
                touched_node[op.index()] = true;
            }
        }
        let changed_parent_sites = parent
            .sites
            .iter()
            .zip(&parent_reused)
            .filter(|(_, &reused)| !reused)
            .map(|(site, _)| site);
        let changed_sites = sites
            .iter()
            .zip(&reused)
            .filter(|(_, reused)| reused.is_none())
            .map(|(site, _)| site);
        for site in changed_parent_sites.chain(changed_sites) {
            for source in &site.sources {
                for &op in &source.ops {
                    touched_node[op.index()] = true;
                }
            }
        }

        // Base delays: untouched nodes keep the parent's value; touched
        // nodes are recomputed from scratch in fresh-build order (module
        // delay, then site extras in enumeration order).
        let mut base_delays = parent.base_delays.clone();
        for (index, touched) in touched_node.iter().enumerate() {
            if *touched {
                base_delays[index] =
                    design.node_module_delay(self.cdfg, &self.library, NodeId::new(index));
            }
        }
        self.add_site_delays(&mut base_delays, &sites, &site_depths, |op| {
            touched_node[op.index()]
        });

        // Scheduler binding: patched entry-wise from the delta.
        let mut binding = parent.binding.clone();
        for &(node, _, after) in &delta.op_bindings {
            binding[node.index()] = after.map(FuId::index);
        }

        // Power profile: the parent's and the candidate's resources are
        // walked in step (both id lists ascend). Untouched entries are copied
        // (stored activities are already floored, and the floor is
        // idempotent); touched and new ones are recomputed through the
        // memoized statistics, in the full build's order.
        let fu_ids: Vec<FuId> = design.functional_units().map(|(id, _)| id).collect();
        let reg_ids: Vec<RegId> = design.registers().map(|(id, _)| id).collect();
        let mut parent_fus = ParentEntries {
            ids: &parent.fu_ids,
            entries: &parent.profile.fus,
            touched: &touched_fus,
        };
        let fus = design
            .functional_units()
            .map(|(fu, unit)| match parent_fus.untouched(fu) {
                Some(entry) => *entry,
                None => FuPowerProfile::new(
                    &self.library,
                    unit,
                    self.fu_stat_values(&rt, design, fu, unit),
                ),
            })
            .collect();
        let mut parent_regs = ParentEntries {
            ids: &parent.reg_ids,
            entries: &parent.profile.regs,
            touched: &touched_regs,
        };
        let regs = design
            .registers()
            .map(|(reg, register)| match parent_regs.untouched(reg) {
                Some(entry) => *entry,
                None => RegPowerProfile::new(
                    &self.library,
                    register,
                    self.reg_stat_values(&rt, reg, register),
                ),
            })
            .collect();
        let muxes = sites
            .iter()
            .zip(&site_restructured)
            .zip(&reused)
            .map(|((site, &restructured), reused)| match reused {
                Some(pi) => parent.profile.muxes[*pi],
                None => MuxPowerProfile::new(
                    &self.library,
                    site,
                    self.mux_stat_values(&rt, design, site, restructured),
                ),
            })
            .collect();
        let profile = PowerProfile::from_entries(&self.library, design, &sites, fus, regs, muxes);
        DesignContext {
            base_delays,
            binding,
            profile,
            fu_ids,
            reg_ids,
            sites,
            site_restructured,
            site_depths,
        }
    }

    /// Memoized statistics of one mux site (tree activity, source depths,
    /// selection rate) for the given tree construction.
    fn mux_entry(
        &self,
        rt: &RtTraces<'_>,
        design: &RtlDesign,
        site: &MuxSite,
        restructured: bool,
    ) -> MuxEntry {
        let key = MuxStatsKey::of(self.workload, design, site, restructured);
        self.memo(key, || {
            compute_mux_entry(rt, site, restructured, |source| {
                self.signal_activity(rt, design, source)
            })
        })
    }

    /// The scheduling problem of a context at one supply level: base delays
    /// scaled by the supply-dependent factor, the context's binding and the
    /// run's Wavesched configuration.
    fn problem_for(&self, context: &DesignContext, factor: f64) -> SchedulingProblem<'a> {
        SchedulingProblem {
            cdfg: self.cdfg,
            node_delays: context.base_delays.iter().map(|d| d * factor).collect(),
            node_fu: context.binding.clone(),
            profile: self.trace.profile(),
            config: ScheduleConfig::wavesched().with_clock(self.config.clock_ns),
        }
    }

    /// Schedules from a prebuilt context: base delays are scaled by the
    /// supply-dependent factor, so no trace or mux analysis happens per
    /// level. Without a session the schedule is composed inline, as
    /// [`WaveScheduler`](impact_sched::WaveScheduler) does. With one, the
    /// result is shared through the session by a `(delays, binding, clock)`
    /// digest, so two designs differing only in power-irrelevant ways (and
    /// any number of laxity factors) schedule once, and a memo miss is
    /// composed ([`impact_sched::compose`]) through the session's per-block
    /// layer, so only the blocks no earlier schedule stored are
    /// list-scheduled. Both paths are bit-identical.
    fn schedule_with_context(
        &self,
        context: &DesignContext,
        vdd: f64,
    ) -> Result<Arc<SchedulingResult>, SynthesisError> {
        let factor = self.library.vdd().delay_factor(vdd);
        if self.session.is_none() {
            let problem = self.problem_for(context, factor);
            return Ok(Arc::new(impact_sched::compose(
                &problem,
                &mut InlineBlocks,
            )?));
        }
        // The memo key is digested straight from the context (streamed), so
        // a hit never materializes the scheduling problem's vectors.
        let key = ScheduleKey::new(
            self.workload,
            impact_sched::problem_digest(
                &ScheduleConfig::wavesched().with_clock(self.config.clock_ns),
                context.base_delays.iter().map(|d| d * factor),
                context.binding.iter().copied(),
            ),
        );
        self.try_memo(key, || {
            let problem = self.problem_for(context, factor);
            Ok(Arc::new(impact_sched::compose(&problem, &mut &*self)?))
        })
    }
}

/// [`BlockSource`] over the session's shared block-schedule layer: blocks
/// are fetched (or list-scheduled and stored) by `(workload, block digest)`,
/// so every composed schedule shares per-block entries with the schedules of
/// other designs, supply levels and sweep runs.
impl BlockSource for &Evaluator<'_> {
    fn block(
        &mut self,
        problem: &SchedulingProblem<'_>,
        nodes: &[NodeId],
    ) -> Result<Arc<BlockSchedule>, impact_sched::SchedError> {
        let digest = impact_sched::block_digest(problem, nodes);
        self.try_memo(BlockKey::new(self.workload, digest), || {
            impact_sched::schedule_block(problem, nodes).map(Arc::new)
        })
    }
}

/// Content digest of the evaluation workload: the trace (which embeds the
/// CDFG's dynamic behavior) plus the technology parameters shared by every
/// design evaluated under it. The laxity factor, optimization mode and
/// search-effort knobs are deliberately excluded — they steer the *search*,
/// not the value of any cached entry — which is what lets one session serve a
/// whole multi-laxity, multi-mode sweep.
fn workload_id(cdfg: &Cdfg, trace: &ExecutionTrace, config: &SynthesisConfig) -> WorkloadId {
    let mut hasher = FingerprintHasher::new();
    hasher.write_tag(0x5E);
    hasher.write_u128(impact_trace::workload_digest(cdfg, trace));
    hasher.write_f64(config.clock_ns);
    config.power.fingerprint_into(&mut hasher);
    WorkloadId(hasher.finish().as_u128())
}

/// A parent context's per-resource profile entries, walked in step with a
/// candidate's resources: both id lists ascend, and so does the move's
/// touched list, so each list is walked once per patch.
struct ParentEntries<'p, I, E> {
    ids: &'p [I],
    entries: &'p [E],
    touched: &'p [I],
}

impl<'p, I: Copy + Ord, E> ParentEntries<'p, I, E> {
    /// The parent's entry for resource `id` when the parent had one and the
    /// move left it untouched. Ids must be asked for in ascending order.
    fn untouched(&mut self, id: I) -> Option<&'p E> {
        while self.ids.first().is_some_and(|&parent| parent < id) {
            self.ids = &self.ids[1..];
            self.entries = &self.entries[1..];
        }
        while self.touched.first().is_some_and(|&touched| touched < id) {
            self.touched = &self.touched[1..];
        }
        if self.ids.first() != Some(&id) || self.touched.first() == Some(&id) {
            return None;
        }
        self.entries.first()
    }
}

/// Statistics of one mux site: the tree's switching activity, every source's
/// depth in the tree, and the selection rate. `activity` supplies each
/// source signal's activity.
fn compute_mux_entry(
    rt: &RtTraces<'_>,
    site: &MuxSite,
    restructured: bool,
    activity: impl FnMut(SignalKey) -> f64,
) -> MuxEntry {
    let sources = rt.mux_source_stats_with(site, activity);
    let tree = if restructured {
        MuxTree::huffman(sources)
    } else {
        MuxTree::balanced(sources)
    };
    MuxEntry {
        tree_activity: tree.switching_activity(),
        depths: (0..site.sources.len())
            .map(|i| tree.depth_of(i).unwrap_or(0))
            .collect(),
        selections_per_pass: rt.mux_selections_per_pass(site),
    }
}

/// Binary search for the lowest feasible supply on the discrete grid,
/// tracking the lowest feasible *probed* level explicitly. ENC grows
/// monotonically as the supply (and hence speed) drops, so the search
/// converges on the lowest feasible level; the explicit tracking guarantees
/// the returned point is exactly the best feasible probe even if a probe
/// behaves non-monotonically, instead of silently returning a stale
/// higher-Vdd point.
///
/// `reference` is the known-feasible point at the reference supply and stands
/// in for the top grid level (on the standard grid they coincide).
pub(crate) fn lowest_feasible_point<E>(
    levels: &[f64],
    reference: Arc<DesignPoint>,
    mut probe: impl FnMut(f64) -> Result<Option<Arc<DesignPoint>>, E>,
) -> Result<Arc<DesignPoint>, E> {
    let mut lowest: (usize, Arc<DesignPoint>) = (levels.len() - 1, reference);
    let (mut lo, mut hi) = (0usize, levels.len() - 1);
    while lo < hi {
        let mid = (lo + hi) / 2;
        match probe(levels[mid])? {
            Some(point) => {
                hi = mid;
                if mid < lowest.0 {
                    lowest = (mid, point);
                }
            }
            None => lo = mid + 1,
        }
    }
    // The top grid level was never probed directly (the reference point
    // stands in for it). If the search ended there and the reference supply
    // is not itself the top grid level, probe it once; when that probe is
    // infeasible the known-feasible reference point is kept — never a stale
    // mid-search point.
    if lowest.0 == levels.len() - 1 && (lowest.1.vdd - levels[lowest.0]).abs() > 1e-9 {
        if let Some(point) = probe(levels[lowest.0])? {
            lowest.1 = point;
        }
    }
    Ok(lowest.1)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use impact_behsim::simulate;

    fn gcd_setup(laxity: f64) -> (Cdfg, ExecutionTrace, SynthesisConfig) {
        let bench = impact_benchmarks::gcd();
        let cdfg = bench.compile().unwrap();
        let inputs = bench.input_sequences(16, 3);
        let trace = simulate(&cdfg, &inputs).unwrap();
        (cdfg, trace, SynthesisConfig::power_optimized(laxity))
    }

    #[test]
    fn enc_budget_scales_with_laxity() {
        let (cdfg, trace, config) = gcd_setup(2.0);
        let evaluator = Evaluator::new(&cdfg, &trace, config).unwrap();
        assert!(evaluator.enc_min() > 0.0);
        assert!((evaluator.enc_limit() - 2.0 * evaluator.enc_min()).abs() < 1e-9);
    }

    #[test]
    fn laxity_below_one_is_rejected() {
        // So are a NaN laxity and every clock period that is not finite and
        // positive: each is an error under both engines, never a panic and
        // never a design at zero or negative power. A tiny positive period
        // (`None` below) fails as an operation too slow for it, before any
        // state is placed: at 1e-6 ns every operation spans millions of them.
        let (cdfg, trace, config) = gcd_setup(2.0);
        let laxity = |laxity: f64| {
            let config = SynthesisConfig {
                laxity,
                ..config.clone()
            };
            (config, Some(SynthesisError::InfeasibleLaxity { laxity }))
        };
        let clock = |clock_ns: f64| {
            let error = impact_sched::SchedError::InvalidClock { clock_ns };
            (config.clone().with_clock(clock_ns), Some(error.into()))
        };
        let hostile = [
            laxity(0.8),
            laxity(f64::NAN),
            clock(0.0),
            clock(-5.0),
            clock(f64::INFINITY),
            clock(f64::NAN),
            (config.clone().with_clock(1e-6), None),
        ];
        for (config, expected) in hostile {
            for engine in [
                crate::EngineConfig::sequential(),
                crate::EngineConfig::incremental(),
            ] {
                let config = config.clone().with_engine(engine).with_effort(1, 1);
                let what = format!("laxity {}, clock {}", config.laxity, config.clock_ns);
                let errors = [
                    Evaluator::new(&cdfg, &trace, config.clone()).unwrap_err(),
                    crate::Impact::new(config)
                        .synthesize(&cdfg, &trace)
                        .unwrap_err(),
                ];
                for err in errors {
                    match &expected {
                        Some(expected) => {
                            assert_eq!(err.to_string(), expected.to_string(), "{what}");
                        }
                        None => assert!(
                            matches!(
                                err,
                                SynthesisError::Scheduling(
                                    impact_sched::SchedError::OperationTooSlow { clock_ns, .. }
                                ) if clock_ns == 1e-6
                            ),
                            "{what}: {err}"
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn a_schedule_memo_miss_moves_only_the_schedule_and_block_counters() {
        // A miss is one `compose` through the block layer: a miss path that
        // looked anything else up would move another layer's counters.
        let (cdfg, trace, config) = gcd_setup(2.0);
        let evaluator = Evaluator::new(&cdfg, &trace, config).unwrap();
        let mut design = RtlDesign::initial_parallel(&cdfg, evaluator.library());
        let adders = design.units_of_class(impact_cdfg::OpClass::AddSub);
        design.share_fus(adders[0], adders[1]).unwrap();
        let context = evaluator.context_for(&design, design.fingerprint(), None);
        let before = evaluator.cache_stats();
        evaluator.schedule_with_context(&context, 3.3).unwrap();
        let after = evaluator.cache_stats();
        let schedule_misses = after.schedule.misses - before.schedule.misses;
        let block_hits = after.block.hits - before.block.hits;
        let block_misses = after.block.misses - before.block.misses;
        assert_eq!(after.schedule.hits, before.schedule.hits);
        assert_eq!(schedule_misses, 1, "{after:?}");
        assert!(block_hits + block_misses > 0, "{after:?}");
        assert_eq!(after.schedules, before.schedules + 1);
        assert_eq!(
            after.block_schedules as u64,
            before.block_schedules as u64 + block_misses
        );
        let untouched = CacheStats {
            hits: after.hits - block_hits,
            misses: after.misses - schedule_misses - block_misses,
            schedules: before.schedules,
            block_schedules: before.block_schedules,
            schedule: before.schedule,
            block: before.block,
            ..after
        };
        assert_eq!(untouched, before, "only the schedule and block layers move");
    }

    #[test]
    fn initial_point_is_feasible_and_at_reduced_vdd_when_laxity_allows() {
        let (cdfg, trace, config) = gcd_setup(2.5);
        let evaluator = Evaluator::new(&cdfg, &trace, config).unwrap();
        let point = evaluator.initial_point().unwrap();
        assert!(point.enc() <= evaluator.enc_limit() + ENC_EPS);
        assert!(
            point.vdd < VDD_REFERENCE,
            "slack should be converted into a lower supply"
        );
        assert!(point.power.total_mw() < point.power_at_reference.total_mw());
    }

    #[test]
    fn laxity_one_keeps_the_reference_supply() {
        let (cdfg, trace, _) = gcd_setup(2.0);
        let evaluator =
            Evaluator::new(&cdfg, &trace, SynthesisConfig::power_optimized(1.0)).unwrap();
        let point = evaluator.initial_point().unwrap();
        // With no slack the supply can barely move; it must stay close to 5 V.
        assert!(
            point.vdd > 4.0,
            "vdd {} should stay near the reference",
            point.vdd
        );
    }

    #[test]
    fn infeasible_designs_evaluate_to_none() {
        let (cdfg, trace, config) = gcd_setup(1.0);
        let evaluator = Evaluator::new(&cdfg, &trace, config).unwrap();
        // Make the design much slower than the fully parallel one: share both
        // subtractors and put ripple adders on them.
        let mut design = RtlDesign::initial_parallel(&cdfg, evaluator.library());
        let adders = design.units_of_class(impact_cdfg::OpClass::AddSub);
        design.share_fus(adders[0], adders[1]).unwrap();
        let ripple = evaluator.library().variant_by_name("ripple_adder").unwrap();
        design
            .substitute_module(evaluator.library(), adders[0], ripple)
            .unwrap();
        // At laxity 1.0 the budget equals the fastest schedule, so this must
        // either be infeasible or cost strictly more cycles at 5 V.
        match evaluator.evaluate(&design).unwrap() {
            None => {}
            Some(point) => assert!(point.enc() <= evaluator.enc_limit() + ENC_EPS),
        }
    }

    /// Every move applicable to `design`, across all six move families.
    fn every_move(cdfg: &Cdfg, library: &ModuleLibrary, design: &RtlDesign) -> Vec<Move> {
        let mut moves = Vec::new();
        for site in design.mux_sites(cdfg) {
            if !design.is_restructured(site.sink) {
                moves.push(Move::RestructureMux { sink: site.sink });
            }
        }
        let units: Vec<_> = design.functional_units().collect();
        for (i, &(fu, unit)) in units.iter().enumerate() {
            for module in library.variants_for(unit.class) {
                if module != unit.module {
                    moves.push(Move::SubstituteModule { fu, module });
                }
            }
            for &(remove, other) in &units[i + 1..] {
                if other.class == unit.class {
                    moves.push(Move::ShareFus { keep: fu, remove });
                }
            }
            if let [_, .., op] = design.ops_on(fu)[..] {
                moves.push(Move::SplitFu { fu, op });
            }
        }
        let registers: Vec<_> = design.registers().collect();
        for (i, &(reg, register)) in registers.iter().enumerate() {
            for &(remove, _) in &registers[i + 1..] {
                moves.push(Move::ShareRegisters { keep: reg, remove });
            }
            if let [_, .., var] = register.variables[..] {
                moves.push(Move::SplitRegister { reg, var });
            }
        }
        moves
    }

    /// Every `f64` of a power profile, as bits.
    fn profile_bits(profile: &PowerProfile) -> Vec<u64> {
        let mut bits = vec![profile.register_bits, profile.datapath_area];
        for fu in &profile.fus {
            bits.extend([fu.capacitance_pf, fu.activity, fu.activations_per_pass]);
        }
        for reg in &profile.regs {
            bits.extend([reg.capacitance_pf, reg.activity, reg.writes_per_pass]);
        }
        for mux in &profile.muxes {
            bits.extend([
                mux.capacitance_pf,
                mux.tree_activity,
                mux.selections_per_pass,
            ]);
        }
        bits.into_iter().map(f64::to_bits).collect()
    }

    #[test]
    fn patched_contexts_equal_the_full_rebuild_field_by_field() {
        for bench in impact_benchmarks::all_benchmarks() {
            let cdfg = bench.compile().unwrap();
            let trace = simulate(&cdfg, &bench.input_sequences(6, 3)).unwrap();
            let config = SynthesisConfig::power_optimized(2.0);
            let evaluator = Evaluator::new(&cdfg, &trace, config).unwrap();
            let library = evaluator.library();
            // Parents: the initial architecture, then after every few seeded
            // moves, so later parents carry shared resources and annotations.
            let mut parent = RtlDesign::initial_parallel(&cdfg, library);
            let mut seed = 1998usize;
            for _ in 0..3 {
                let parent_context = evaluator.build_context(&parent);
                let moves = every_move(&cdfg, library, &parent);
                for mv in &moves {
                    let mut candidate = parent.clone();
                    let Ok(delta) = mv.apply(&cdfg, library, &mut candidate) else {
                        continue;
                    };
                    let patched =
                        evaluator.patch_context(&parent_context, &parent, &candidate, &delta);
                    let rebuilt = evaluator.build_context(&candidate);
                    let what = format!("{}: {mv}", bench.name);
                    assert_eq!(patched.sites, rebuilt.sites, "{what}: sites");
                    assert_eq!(
                        patched.site_restructured, rebuilt.site_restructured,
                        "{what}: restructured flags"
                    );
                    assert_eq!(patched.site_depths, rebuilt.site_depths, "{what}: depths");
                    assert_eq!(
                        profile_bits(&patched.profile),
                        profile_bits(&rebuilt.profile),
                        "{what}: profile"
                    );
                    assert_eq!(
                        patched
                            .base_delays
                            .iter()
                            .map(|d| d.to_bits())
                            .collect::<Vec<_>>(),
                        rebuilt
                            .base_delays
                            .iter()
                            .map(|d| d.to_bits())
                            .collect::<Vec<_>>(),
                        "{what}: base delays"
                    );
                    assert_eq!(patched.binding, rebuilt.binding, "{what}: binding");
                    assert_eq!(patched.fu_ids, rebuilt.fu_ids, "{what}: unit ids");
                    assert_eq!(patched.reg_ids, rebuilt.reg_ids, "{what}: register ids");
                }
                for _ in 0..4 {
                    let moves = every_move(&cdfg, library, &parent);
                    let _ = moves[seed % moves.len()].apply(&cdfg, library, &mut parent);
                    seed = seed.wrapping_mul(31).wrapping_add(7);
                }
            }
        }
    }

    /// A template point with its supply stamped, for driving the search core
    /// with synthetic feasibility patterns.
    fn stamped(template: &DesignPoint, vdd: f64) -> Arc<DesignPoint> {
        let mut point = template.clone();
        point.vdd = vdd;
        Arc::new(point)
    }

    #[test]
    fn vdd_search_returns_exactly_the_lowest_feasible_probed_level() {
        // Regression for the Vdd-search bug: the search must return the
        // design point of the lowest feasible grid level it probed — never a
        // stale higher-Vdd point left over from an earlier probe.
        let (cdfg, trace, config) = gcd_setup(2.0);
        let evaluator = Evaluator::new(&cdfg, &trace, config).unwrap();
        let template = evaluator.initial_point().unwrap();
        let levels = [1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0];

        // Monotone feasibility with threshold at index 3.
        let mut probes = Vec::new();
        let reference = stamped(&template, 5.0);
        let result = lowest_feasible_point(&levels, reference, |vdd| {
            probes.push(vdd);
            Ok::<_, SynthesisError>((vdd >= 3.0 - 1e-9).then(|| stamped(&template, vdd)))
        })
        .unwrap();
        assert_eq!(result.vdd, 3.0, "lowest feasible grid level is returned");
        assert!(probes.contains(&3.0), "the returned level was probed");

        // Adversarial non-monotone feasibility: whatever the probe pattern
        // does, the returned point is the lowest feasible level that was
        // probed, with its vdd exactly on the grid.
        for feasible_mask in 0u32..128 {
            let mut feasible_probes = Vec::new();
            let result = lowest_feasible_point(&levels, stamped(&template, 5.0), |vdd| {
                let index = levels.iter().position(|&l| l == vdd).unwrap();
                let ok = feasible_mask & (1 << index) != 0 || index == levels.len() - 1;
                if ok {
                    feasible_probes.push(index);
                }
                Ok::<_, SynthesisError>(ok.then(|| stamped(&template, vdd)))
            })
            .unwrap();
            let lowest_probed = feasible_probes.iter().copied().min();
            match lowest_probed {
                Some(lowest) => assert_eq!(
                    result.vdd, levels[lowest],
                    "mask {feasible_mask:#b}: stale point returned"
                ),
                None => assert_eq!(result.vdd, 5.0, "reference point is the fallback"),
            }
        }
    }

    #[test]
    fn vdd_search_probes_the_top_grid_level_when_the_reference_is_off_grid() {
        // On a custom grid whose top level sits below the reference supply,
        // an all-infeasible search must still probe the top level once and
        // keep the known-feasible reference point if that probe fails.
        let (cdfg, trace, config) = gcd_setup(2.0);
        let evaluator = Evaluator::new(&cdfg, &trace, config).unwrap();
        let template = evaluator.initial_point().unwrap();
        let levels = [2.0, 3.0, 4.0];
        // Top level feasible: the search must end on it, not on the 5 V
        // reference stand-in.
        let result = lowest_feasible_point(&levels, stamped(&template, 5.0), |vdd| {
            Ok::<_, SynthesisError>((vdd >= 4.0 - 1e-9).then(|| stamped(&template, vdd)))
        })
        .unwrap();
        assert_eq!(result.vdd, 4.0);
        // Nothing feasible on the grid: the reference point survives instead
        // of a stale mid-search point.
        let result = lowest_feasible_point(&levels, stamped(&template, 5.0), |_| {
            Ok::<_, SynthesisError>(None)
        })
        .unwrap();
        assert_eq!(result.vdd, 5.0);
    }

    #[test]
    fn evaluate_matches_a_linear_scan_of_the_grid() {
        // The binary search must agree with the exhaustive reference
        // implementation: scan the grid bottom-up and take the first feasible
        // level.
        let (cdfg, trace, config) = gcd_setup(1.8);
        let evaluator = Evaluator::new(&cdfg, &trace, config).unwrap();
        let mut design = RtlDesign::initial_parallel(&cdfg, evaluator.library());
        let adders = design.units_of_class(impact_cdfg::OpClass::AddSub);
        design.share_fus(adders[0], adders[1]).unwrap();
        let searched = evaluator.evaluate(&design).unwrap().unwrap();
        let levels = evaluator.library().vdd().levels().to_vec();
        let scanned = levels
            .iter()
            .find_map(|&level| evaluator.evaluate_at_vdd(&design, level).unwrap())
            .expect("the design is feasible at the reference supply");
        assert_eq!(searched, scanned);
    }

    #[test]
    fn cached_and_uncached_evaluation_are_bit_identical() {
        let (cdfg, trace, config) = gcd_setup(2.0);
        let cached = Evaluator::new(&cdfg, &trace, config.clone()).unwrap();
        let uncached = Evaluator::new(
            &cdfg,
            &trace,
            config.with_engine(crate::EngineConfig::sequential()),
        )
        .unwrap();
        let mut design = RtlDesign::initial_parallel(&cdfg, cached.library());
        let adders = design.units_of_class(impact_cdfg::OpClass::AddSub);
        design.share_fus(adders[0], adders[1]).unwrap();
        for site in design.mux_sites(&cdfg) {
            design.set_restructured(site.sink, true);
        }
        for vdd in [5.0, 3.3, 2.1] {
            let warm = cached.evaluate_at_vdd(&design, vdd).unwrap();
            let replay = cached.evaluate_at_vdd(&design, vdd).unwrap();
            let cold = uncached.evaluate_at_vdd(&design, vdd).unwrap();
            assert_eq!(warm, replay, "cache replay must be exact");
            assert_eq!(warm, cold, "cache on/off must be bit-identical");
        }
        assert_eq!(
            cached.evaluate(&design).unwrap(),
            uncached.evaluate(&design).unwrap()
        );
        assert!(cached.cache_stats().hits > 0);
        assert_eq!(
            uncached.cache_stats().hits + uncached.cache_stats().misses,
            0
        );
    }

    #[test]
    fn evaluate_at_reference_matches_reference_power() {
        let (cdfg, trace, config) = gcd_setup(1.5);
        let evaluator = Evaluator::new(&cdfg, &trace, config).unwrap();
        let design = RtlDesign::initial_parallel(&cdfg, evaluator.library());
        let point = evaluator
            .evaluate_at_vdd(&design, VDD_REFERENCE)
            .unwrap()
            .unwrap();
        assert!((point.power.total_mw() - point.power_at_reference.total_mw()).abs() < 1e-12);
        assert!(point.cost(OptimizationMode::Area) > 0.0);
        assert!(point.cost(OptimizationMode::Power) > 0.0);
    }

    #[test]
    fn a_shared_session_reuses_points_across_laxity_factors() {
        // The laxity-independent point map must serve evaluators with
        // different ENC budgets, each applying its own budget at read time.
        let (cdfg, trace, _) = gcd_setup(2.0);
        let session = SweepSession::new();
        let relaxed = Evaluator::with_session(
            &cdfg,
            &trace,
            SynthesisConfig::power_optimized(2.5),
            &session,
        )
        .unwrap();
        let mut design = RtlDesign::initial_parallel(&cdfg, relaxed.library());
        let adders = design.units_of_class(impact_cdfg::OpClass::AddSub);
        design.share_fus(adders[0], adders[1]).unwrap();
        let relaxed_point = relaxed.evaluate_at_vdd(&design, VDD_REFERENCE).unwrap();
        assert!(relaxed_point.is_some(), "feasible under a loose budget");

        let misses_after_relaxed = session.stats().misses;
        let tight = Evaluator::with_session(
            &cdfg,
            &trace,
            SynthesisConfig::power_optimized(1.0),
            &session,
        )
        .unwrap();
        let tight_point = tight.evaluate_at_vdd(&design, VDD_REFERENCE).unwrap();
        // The shared design misses nothing new at the reference level …
        assert_eq!(
            session.stats().misses,
            misses_after_relaxed,
            "the tight-budget evaluator must hit the relaxed run's entries"
        );
        // … and cold evaluation agrees with whatever the filter decided.
        let cold = Evaluator::new(&cdfg, &trace, SynthesisConfig::power_optimized(1.0)).unwrap();
        assert_eq!(
            tight_point,
            cold.evaluate_at_vdd(&design, VDD_REFERENCE).unwrap()
        );

        // Full evaluations (supply search) also agree per laxity.
        let cold_relaxed =
            Evaluator::new(&cdfg, &trace, SynthesisConfig::power_optimized(2.5)).unwrap();
        assert_eq!(
            relaxed.evaluate(&design).unwrap(),
            cold_relaxed.evaluate(&design).unwrap()
        );
        assert_eq!(tight.evaluate(&design).unwrap(), {
            let cold_tight =
                Evaluator::new(&cdfg, &trace, SynthesisConfig::power_optimized(1.0)).unwrap();
            cold_tight.evaluate(&design).unwrap()
        });
    }

    #[test]
    fn workloads_do_not_collide_across_traces_or_clocks() {
        let (cdfg, trace, config) = gcd_setup(2.0);
        let bench = impact_benchmarks::gcd();
        let other_trace = simulate(&cdfg, &bench.input_sequences(16, 4)).unwrap();
        let session = SweepSession::new();
        let a = Evaluator::with_session(&cdfg, &trace, config.clone(), &session).unwrap();
        let b = Evaluator::with_session(&cdfg, &other_trace, config.clone(), &session).unwrap();
        let c = Evaluator::with_session(&cdfg, &trace, config.clone().with_clock(25.0), &session)
            .unwrap();
        assert_ne!(
            a.workload(),
            b.workload(),
            "different inputs, different keys"
        );
        assert_ne!(
            a.workload(),
            c.workload(),
            "different clock, different keys"
        );
        // Same workload, same keys: a sibling evaluator over the same inputs.
        let d = Evaluator::with_session(&cdfg, &trace, config, &session).unwrap();
        assert_eq!(a.workload(), d.workload());
    }

    #[test]
    fn merged_shard_sessions_answer_like_a_shared_one() {
        let (cdfg, trace, config) = gcd_setup(2.0);
        let part_a = SweepSession::new();
        let part_b = SweepSession::new();
        let eval_a = Evaluator::with_session(&cdfg, &trace, config.clone(), &part_a).unwrap();
        let eval_b = Evaluator::with_session(&cdfg, &trace, config.clone(), &part_b).unwrap();
        let design_a = RtlDesign::initial_parallel(&cdfg, eval_a.library());
        let mut design_b = design_a.clone();
        let adders = design_b.units_of_class(impact_cdfg::OpClass::AddSub);
        design_b.share_fus(adders[0], adders[1]).unwrap();
        let point_a = eval_a.evaluate(&design_a).unwrap();
        let point_b = eval_b.evaluate(&design_b).unwrap();

        let merged = SweepSession::new();
        merged.merge_from(&part_a);
        merged.merge_from(&part_b);
        let eval_m = Evaluator::with_session(&cdfg, &trace, config, &merged).unwrap();
        let hits_before = merged.stats().hits;
        assert_eq!(eval_m.evaluate(&design_a).unwrap(), point_a);
        assert_eq!(eval_m.evaluate(&design_b).unwrap(), point_b);
        assert!(
            merged.stats().hits > hits_before,
            "merged entries must serve lookups"
        );
    }
}
