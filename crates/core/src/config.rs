//! Synthesis configuration.

use impact_modlib::DEFAULT_CLOCK_NS;
use impact_power::PowerConfig;

use crate::explore::ExplorerKind;

/// What the iterative improvement minimizes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OptimizationMode {
    /// Minimize estimated average power (the IMPACT objective).
    Power,
    /// Minimize area (the baseline the paper's `A-Power` designs come from).
    Area,
}

/// How much static invariant auditing the engine performs while it runs.
///
/// Auditing is implemented by the `impact_verify` checker and only compiled
/// in when the `verify` cargo feature is enabled; without the feature every
/// level behaves like [`VerifyLevel::Off`]. Intended for debug and CI
/// builds — the checks re-verify artifacts the evaluator just produced, so
/// they cost real time on top of every cache miss.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum VerifyLevel {
    /// No auditing (the release default).
    #[default]
    Off,
    /// Audit every freshly computed design point: design legality,
    /// fingerprint recompute and schedule legality against its problem.
    Points,
    /// [`VerifyLevel::Points`] plus a whole-session cache-coherence audit
    /// when a synthesis run finishes.
    Full,
}

/// Tuning of the incremental evaluation engine: memoization and parallel
/// candidate ranking. The default is the fully incremental engine; the
/// sequential configuration reproduces the brute-force evaluation loop
/// (every candidate rescheduled and re-profiled from scratch) and exists for
/// benchmarking and differential testing — both configurations produce
/// bit-identical synthesis results.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EngineConfig {
    /// Memoize evaluated design points, per-design contexts and trace
    /// statistics by structural fingerprint.
    pub cache: bool,
    /// Rank candidate moves on scoped worker threads.
    pub parallel_ranking: bool,
    /// Worker threads used for ranking; `0` means one per available CPU.
    pub ranking_threads: usize,
    /// Cost candidates through their move's [`DesignDelta`]: the candidate's
    /// fingerprint is patched from the parent's and its evaluation context is
    /// derived from the parent's by cloning only the touched entries, instead
    /// of re-hashing and rebuilding from scratch. Requires `cache`; results
    /// are bit-identical to the full rebuild (the oracle path, kept behind
    /// this flag for differential testing).
    ///
    /// [`DesignDelta`]: impact_rtl::DesignDelta
    pub delta_patching: bool,
    /// Memoize hierarchical schedules by a `(delays, binding, clock)` digest,
    /// so two designs differing only in power-irrelevant ways (module
    /// capacitance, register grouping, probability reordering that keeps the
    /// mux depths) share one schedule across the session. Requires `cache`.
    pub schedule_memo: bool,
    /// Repair schedules block by block instead of rescheduling the whole
    /// CDFG: on a schedule-memo miss whose parent schedule is in the cache,
    /// only the blocks the move touched are list-scheduled and the rest are
    /// spliced from the parent; every block scheduled this way also flows
    /// through a shared per-block cache layer keyed by
    /// [`block_digest`](impact_sched::block_digest). Requires `cache`;
    /// results are bit-identical to a full reschedule (the oracle path, kept
    /// behind [`EngineConfig::full_reschedule`] for differential testing).
    pub schedule_repair: bool,
    /// Static invariant auditing of evaluator outputs (requires the
    /// `verify` cargo feature to have any effect).
    pub verify: VerifyLevel,
    /// Search strategy run over the probe/commit kernel (see
    /// [`ExplorerKind`]). The default, [`ExplorerKind::Greedy`], is the
    /// paper's variable-depth descent and the oracle every other strategy
    /// is pinned against.
    pub explorer: ExplorerKind,
}

impl EngineConfig {
    /// The incremental engine: caching, delta patching, schedule memoization
    /// and delta-aware schedule repair on, ranking parallelized over the
    /// available CPUs.
    pub fn incremental() -> Self {
        Self {
            cache: true,
            parallel_ranking: true,
            ranking_threads: 0,
            delta_patching: true,
            schedule_memo: true,
            schedule_repair: true,
            verify: VerifyLevel::Off,
            explorer: ExplorerKind::Greedy,
        }
    }

    /// The caching engine *without* move-delta shortcuts: every candidate's
    /// fingerprint and context are rebuilt from the whole design (the oracle
    /// path the delta engine is differentially tested against, and the
    /// behavior of the engine before delta evaluation existed).
    pub fn full_rebuild() -> Self {
        Self {
            delta_patching: false,
            schedule_memo: false,
            schedule_repair: false,
            ..Self::incremental()
        }
    }

    /// The incremental engine with schedule *repair* disabled: every
    /// schedule-memo miss pays a full hierarchical reschedule. This is the
    /// oracle the repaired path is differentially tested against.
    pub fn full_reschedule() -> Self {
        Self {
            schedule_repair: false,
            ..Self::incremental()
        }
    }

    /// The brute-force reference engine: no memoization, single-threaded
    /// ranking.
    pub fn sequential() -> Self {
        Self {
            cache: false,
            parallel_ranking: false,
            ranking_threads: 0,
            delta_patching: false,
            schedule_memo: false,
            schedule_repair: false,
            verify: VerifyLevel::Off,
            explorer: ExplorerKind::Greedy,
        }
    }

    /// Returns a copy with a different auditing level (see [`VerifyLevel`];
    /// requires the `verify` cargo feature to have any effect).
    pub fn with_verify(mut self, verify: VerifyLevel) -> Self {
        self.verify = verify;
        self
    }

    /// Returns a copy running a different search strategy (see
    /// [`ExplorerKind`]). Every strategy descends through the same
    /// probe/commit kernel, so the greedy-no-worse invariant holds under any
    /// choice.
    pub fn with_explorer(mut self, explorer: ExplorerKind) -> Self {
        self.explorer = explorer;
        self
    }

    /// Returns a copy pinned to `threads` ranking workers (`0` = one per
    /// available CPU). `fig13bench` pins ranking to one thread so its
    /// steady workloads measure the flow without rank fan-out. Ranking is
    /// deterministic under any thread count, so the pin changes wall-clock,
    /// never results.
    pub fn with_ranking_threads(mut self, threads: usize) -> Self {
        self.ranking_threads = threads;
        self
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::incremental()
    }
}

/// Knobs of one synthesis run.
#[derive(Clone, PartialEq, Debug)]
pub struct SynthesisConfig {
    /// Optimization objective.
    pub mode: OptimizationMode,
    /// Allowed ENC as a multiple of the minimum achievable ENC (the paper's
    /// laxity factor, swept from 1.0 to 3.0 in Figure 13).
    pub laxity: f64,
    /// Clock period in nanoseconds.
    pub clock_ns: f64,
    /// Maximum number of improvement passes.
    pub max_passes: usize,
    /// Maximum number of moves per variable-depth sequence.
    pub max_sequence_length: usize,
    /// Enable the multiplexer-tree restructuring move.
    pub mux_restructuring: bool,
    /// Enable module selection/substitution moves.
    pub module_selection: bool,
    /// Enable functional-unit sharing/splitting moves.
    pub resource_sharing: bool,
    /// Enable register sharing/splitting moves.
    pub register_sharing: bool,
    /// Scale the supply voltage down into the slack left by the laxity
    /// constraint.
    pub vdd_scaling: bool,
    /// Power-estimator technology parameters.
    pub power: PowerConfig,
    /// Evaluation-engine tuning (caching, parallel ranking).
    pub engine: EngineConfig,
}

impl SynthesisConfig {
    /// Power-optimization mode with every move enabled (the `I-Power` /
    /// `I-Area` designs of the paper).
    pub fn power_optimized(laxity: f64) -> Self {
        Self {
            mode: OptimizationMode::Power,
            laxity,
            clock_ns: DEFAULT_CLOCK_NS,
            max_passes: 4,
            max_sequence_length: 6,
            mux_restructuring: true,
            module_selection: true,
            resource_sharing: true,
            register_sharing: true,
            vdd_scaling: true,
            power: PowerConfig::default(),
            engine: EngineConfig::default(),
        }
    }

    /// Area-optimization mode (the base / `A-Power` designs of the paper).
    /// Supply scaling is still applied when reporting power, but the search
    /// itself minimizes area.
    pub fn area_optimized(laxity: f64) -> Self {
        Self {
            mode: OptimizationMode::Area,
            ..Self::power_optimized(laxity)
        }
    }

    /// Disables the multiplexer-restructuring move (ablation).
    pub fn without_mux_restructuring(mut self) -> Self {
        self.mux_restructuring = false;
        self
    }

    /// Disables module selection (ablation).
    pub fn without_module_selection(mut self) -> Self {
        self.module_selection = false;
        self
    }

    /// Disables functional-unit sharing and splitting (ablation).
    pub fn without_resource_sharing(mut self) -> Self {
        self.resource_sharing = false;
        self
    }

    /// Disables register sharing and splitting (ablation).
    pub fn without_register_sharing(mut self) -> Self {
        self.register_sharing = false;
        self
    }

    /// Disables supply-voltage scaling (ablation).
    pub fn without_vdd_scaling(mut self) -> Self {
        self.vdd_scaling = false;
        self
    }

    /// Returns a copy with a different clock period.
    pub fn with_clock(mut self, clock_ns: f64) -> Self {
        self.clock_ns = clock_ns;
        self
    }

    /// Returns a copy with different search effort limits.
    pub fn with_effort(mut self, max_passes: usize, max_sequence_length: usize) -> Self {
        self.max_passes = max_passes;
        self.max_sequence_length = max_sequence_length;
        self
    }

    /// Returns a copy with a different evaluation-engine configuration.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        Self::power_optimized(1.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_set_the_expected_mode() {
        assert_eq!(
            SynthesisConfig::power_optimized(2.0).mode,
            OptimizationMode::Power
        );
        assert_eq!(
            SynthesisConfig::area_optimized(2.0).mode,
            OptimizationMode::Area
        );
        assert_eq!(SynthesisConfig::default().mode, OptimizationMode::Power);
    }

    #[test]
    fn ablation_builders_toggle_single_features() {
        let c = SynthesisConfig::power_optimized(1.5)
            .without_mux_restructuring()
            .without_module_selection()
            .without_resource_sharing()
            .without_register_sharing()
            .without_vdd_scaling();
        assert!(!c.mux_restructuring);
        assert!(!c.module_selection);
        assert!(!c.resource_sharing);
        assert!(!c.register_sharing);
        assert!(!c.vdd_scaling);
        assert!(SynthesisConfig::power_optimized(1.5).mux_restructuring);
    }

    #[test]
    fn engine_presets_and_builder() {
        assert!(EngineConfig::default().cache);
        assert!(EngineConfig::default().parallel_ranking);
        assert!(EngineConfig::default().delta_patching);
        assert!(EngineConfig::default().schedule_memo);
        assert!(EngineConfig::default().schedule_repair);
        let rebuild = EngineConfig::full_rebuild();
        assert!(rebuild.cache && !rebuild.delta_patching && !rebuild.schedule_memo);
        assert!(!rebuild.schedule_repair);
        let resched = EngineConfig::full_reschedule();
        assert!(resched.cache && resched.delta_patching && resched.schedule_memo);
        assert!(!resched.schedule_repair);
        let seq = EngineConfig::sequential();
        assert!(!seq.cache && !seq.parallel_ranking);
        assert!(!seq.delta_patching && !seq.schedule_memo && !seq.schedule_repair);
        assert_eq!(seq.explorer, ExplorerKind::Greedy);
        let beam = EngineConfig::incremental().with_explorer(ExplorerKind::Beam { width: 3 });
        assert_eq!(beam.explorer, ExplorerKind::Beam { width: 3 });
        let c = SynthesisConfig::power_optimized(2.0).with_engine(seq);
        assert_eq!(c.engine, seq);
        assert_eq!(
            SynthesisConfig::power_optimized(2.0).engine,
            EngineConfig::incremental()
        );
    }

    #[test]
    fn effort_and_clock_builders() {
        let c = SynthesisConfig::power_optimized(1.0)
            .with_clock(20.0)
            .with_effort(2, 3);
        assert_eq!(c.clock_ns, 20.0);
        assert_eq!(c.max_passes, 2);
        assert_eq!(c.max_sequence_length, 3);
    }
}
