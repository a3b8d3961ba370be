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
/// Auditing is implemented by the `impact_verify` checker. Intended for
/// debug and CI runs — the checks re-verify artifacts the evaluator just
/// produced, so they cost real time on top of every cache miss.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum VerifyLevel {
    /// No auditing (the release default).
    #[default]
    Off,
    /// Audit every freshly computed design point while its design is at
    /// hand: design legality, fingerprint recompute, the context against
    /// the design, and schedule legality against its problem.
    Points,
    /// [`VerifyLevel::Points`] plus a whole-session cache-coherence audit
    /// when a synthesis run finishes.
    Full,
}

/// Which evaluation engine costs candidate designs. Both synthesize
/// bit-identical results.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EvaluatorKind {
    /// The brute-force reference and the oracle of every equivalence test:
    /// it never holds a session, so every probe rebuilds its fingerprint and
    /// context from the whole design and schedules every block inline. It
    /// writes `fig13bench`'s expected files.
    Sequential,
    /// The incremental engine: a session memoizes trace statistics, contexts,
    /// schedules, design points and supply-search outcomes; a candidate's
    /// fingerprint and context are patched from its parent's through the
    /// move's [`DesignDelta`]; and every schedule-memo miss is composed
    /// ([`compose`](impact_sched::compose)) from a per-block layer keyed by
    /// [`block_digest`](impact_sched::block_digest), so only the blocks no
    /// earlier schedule of the session stored are list-scheduled.
    ///
    /// [`DesignDelta`]: impact_rtl::DesignDelta
    Incremental,
}

/// Tuning of the evaluation engine: which evaluator costs candidates,
/// auditing and the search strategy. The default is the incremental
/// engine. Every engine ranks candidates on the calling thread; parallelism
/// belongs one level up, where whole synthesis jobs run side by side.
/// The sequential configuration is the brute-force evaluation loop (every
/// candidate rescheduled and re-profiled from scratch): it runs the same
/// code without a session, ignores any session it is handed, exists for
/// differential testing and writes the benchmark's expected files. Both
/// configurations produce bit-identical synthesis results.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EngineConfig {
    /// Which evaluator costs candidates (see [`EvaluatorKind`]).
    pub evaluator: EvaluatorKind,
    /// Static invariant auditing of evaluator outputs.
    pub verify: VerifyLevel,
    /// Search strategy run over the probe/commit kernel (see
    /// [`ExplorerKind`]). The default, [`ExplorerKind::Greedy`], is the
    /// paper's variable-depth descent and the oracle every other strategy
    /// is pinned against.
    pub explorer: ExplorerKind,
}

impl EngineConfig {
    /// The incremental engine ([`EvaluatorKind::Incremental`]).
    pub fn incremental() -> Self {
        Self {
            evaluator: EvaluatorKind::Incremental,
            verify: VerifyLevel::Off,
            explorer: ExplorerKind::Greedy,
        }
    }

    /// The brute-force reference engine ([`EvaluatorKind::Sequential`]):
    /// no session, so no memoization.
    pub fn sequential() -> Self {
        Self {
            evaluator: EvaluatorKind::Sequential,
            ..Self::incremental()
        }
    }

    /// Returns a copy with a different auditing level (see [`VerifyLevel`]).
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

    /// Returns the configuration unchanged, whatever the argument. Every
    /// engine ranks candidates on the calling thread, so there is no
    /// ranking thread count to pin; the builder remains so that callers
    /// written against the old ranking fan-out (`fig13bench` among them)
    /// keep compiling.
    pub fn with_ranking_threads(self, _threads: usize) -> Self {
        self
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::incremental()
    }
}

/// Knobs of one synthesis run. Every evaluation scales the supply voltage
/// down into the slack the laxity leaves: the lowest level of the library's
/// supply grid at which the design still meets its ENC budget.
#[derive(Clone, PartialEq, Debug)]
pub struct SynthesisConfig {
    /// Optimization objective.
    pub mode: OptimizationMode,
    /// Allowed ENC as a multiple of the minimum achievable ENC (the paper's
    /// laxity factor, swept from 1.0 to 3.0 in Figure 13). Synthesis rejects
    /// a laxity below 1.0 or NaN.
    pub laxity: f64,
    /// Clock period in nanoseconds. Scheduling rejects one that is not
    /// finite and positive.
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
    /// Power-estimator technology parameters.
    pub power: PowerConfig,
    /// Evaluation-engine tuning (evaluator, auditing, search strategy).
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
            .without_register_sharing();
        assert!(!c.mux_restructuring);
        assert!(!c.module_selection);
        assert!(!c.resource_sharing);
        assert!(!c.register_sharing);
        assert!(SynthesisConfig::power_optimized(1.5).mux_restructuring);
    }

    #[test]
    fn engine_presets_and_builder() {
        assert_eq!(
            EngineConfig::default().evaluator,
            EvaluatorKind::Incremental
        );
        let seq = EngineConfig::sequential();
        assert_eq!(seq.evaluator, EvaluatorKind::Sequential);
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
