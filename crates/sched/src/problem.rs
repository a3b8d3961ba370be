//! Inputs and outputs of the schedulers.

use impact_behsim::ControlProfile;
use impact_cdfg::fingerprint::FingerprintHasher;
use impact_cdfg::{Cdfg, OpClass};
use impact_modlib::{ModuleLibrary, CHAINING_OVERHEAD, DEFAULT_CLOCK_NS};
use impact_stg::Stg;

/// Scheduler knobs.
#[derive(Clone, PartialEq, Debug)]
pub struct ScheduleConfig {
    /// Clock period in nanoseconds.
    pub clock_ns: f64,
    /// Allow dependent operations to chain within one clock period.
    pub chaining: bool,
    /// Merge independent sibling loops so they iterate concurrently.
    pub concurrent_loops: bool,
    /// Overlap the next iteration's loop header with the last body state
    /// (implicit loop unrolling).
    pub loop_overlap: bool,
    /// Fractional delay overhead added to every chained operation.
    pub chaining_overhead: f64,
}

impl ScheduleConfig {
    /// Configuration of the baseline (conventional CFG) scheduler.
    pub fn baseline() -> Self {
        Self {
            clock_ns: DEFAULT_CLOCK_NS,
            chaining: false,
            concurrent_loops: false,
            loop_overlap: false,
            chaining_overhead: CHAINING_OVERHEAD,
        }
    }

    /// Configuration of the Wavesched-style scheduler.
    pub fn wavesched() -> Self {
        Self {
            chaining: true,
            concurrent_loops: true,
            loop_overlap: true,
            ..Self::baseline()
        }
    }

    /// Returns a copy with a different clock period.
    pub fn with_clock(mut self, clock_ns: f64) -> Self {
        self.clock_ns = clock_ns;
        self
    }
}

impl Default for ScheduleConfig {
    fn default() -> Self {
        Self::wavesched()
    }
}

/// Everything a scheduler needs to know about one design point: the CDFG, the
/// effective delay and functional-unit binding of every node, the measured
/// control profile and the configuration.
#[derive(Clone, Debug)]
pub struct SchedulingProblem<'a> {
    /// The design being scheduled.
    pub cdfg: &'a Cdfg,
    /// Effective delay of every node (module delay plus interconnect), in
    /// nanoseconds, indexed by node.
    pub node_delays: Vec<f64>,
    /// Functional-unit instance executing every node (`None` for operations
    /// that need no functional unit); two nodes bound to the same instance
    /// never share a state.
    pub node_fu: Vec<Option<usize>>,
    /// Branch probabilities and loop trip counts from behavioral simulation.
    /// Borrowed, so constructing a problem per candidate design (the engine
    /// does this thousands of times per run) never copies the profile.
    pub profile: &'a ControlProfile,
    /// Scheduler knobs.
    pub config: ScheduleConfig,
}

impl SchedulingProblem<'_> {
    /// Content digest of everything that determines the schedule *besides*
    /// the CDFG and the control profile: the exact per-node delay bits, the
    /// functional-unit binding and the scheduler configuration.
    ///
    /// Scoped by a workload digest (which pins the CDFG and profile), two
    /// problems with equal digests schedule identically — even when they
    /// come from *different* RT-level designs that differ only in
    /// power-relevant ways (module capacitance, register activity, mux-tree
    /// probability ordering that leaves the depths unchanged). That is what
    /// lets an evaluation session share one memoized schedule across such
    /// designs instead of rescheduling each.
    pub fn digest(&self) -> u128 {
        problem_digest(
            &self.config,
            self.node_delays.iter().copied(),
            self.node_fu.iter().copied(),
        )
    }
}

/// [`SchedulingProblem::digest`] computed from streamed parts, for callers
/// that know the per-node delays and binding without materializing a problem
/// — e.g. an evaluator deriving a schedule key from a cached context and a
/// supply factor, so a memo hit never builds the problem. Bit-identical to
/// building the problem and digesting it.
pub fn problem_digest(
    config: &ScheduleConfig,
    node_delays: impl Iterator<Item = f64>,
    node_fu: impl Iterator<Item = Option<usize>>,
) -> u128 {
    let mut h = FingerprintHasher::new();
    h.write_tag(0x5C);
    h.write_f64(config.clock_ns);
    h.write_u64(
        u64::from(config.chaining)
            | u64::from(config.concurrent_loops) << 1
            | u64::from(config.loop_overlap) << 2,
    );
    h.write_f64(config.chaining_overhead);
    h.write_tag(1);
    for delay in node_delays {
        h.write_f64(delay);
    }
    h.write_tag(2);
    for fu in node_fu {
        h.write_u64(fu.map_or(0, |f| f as u64 + 1));
    }
    h.finish().as_u128()
}

/// What the power and area models read of a schedule: its ENC, and its
/// STG's clock period, state count and transition count
/// ([`Schedule::summary`]).
///
/// This is the value the evaluator caches and a design point holds: a
/// fixed-size record, where the [`Schedule`] it summarizes carries a graph
/// of every state, operation and transition.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SchedulingResult {
    /// Expected number of cycles of one pass.
    pub enc: f64,
    /// Clock period of the STG in nanoseconds.
    pub clock_ns: f64,
    /// Number of STG states (the controller's size).
    pub state_count: usize,
    /// Number of STG transitions (the controller's size).
    pub transition_count: usize,
}

/// Output of a scheduler: the STG and its ENC.
///
/// The block schedules it was composed from are not part of it: the audits
/// get them by composing the problem again through
/// [`RecordingBlocks`](crate::RecordingBlocks).
#[derive(Clone, PartialEq, Debug)]
pub struct Schedule {
    /// The state transition graph.
    pub stg: Stg,
    /// Expected number of cycles of one pass, computed hierarchically from
    /// the measured branch probabilities and loop trip counts.
    pub enc: f64,
}

impl Schedule {
    /// The four numbers the cost model reads of this schedule.
    pub fn summary(&self) -> SchedulingResult {
        SchedulingResult {
            enc: self.enc,
            clock_ns: self.stg.clock_ns(),
            state_count: self.stg.state_count(),
            transition_count: self.stg.transition_count(),
        }
    }
}

/// Builds a fully-parallel scheduling problem with default characterization:
/// every operation gets its own functional unit using the fastest library
/// variant for its class, `Select`/`Mov`/`Output` cost one mux delay and
/// `EndLoop` is free. This is the "initial RT level architecture" the IMPACT
/// algorithm starts from, and a convenient starting point for tests.
pub fn uniform_problem<'a>(cdfg: &'a Cdfg, profile: &'a ControlProfile) -> SchedulingProblem<'a> {
    let lib = ModuleLibrary::standard();
    let mut node_delays = Vec::with_capacity(cdfg.node_count());
    let mut node_fu = Vec::with_capacity(cdfg.node_count());
    let mut next_fu = 0usize;
    for (_, node) in cdfg.nodes() {
        let class = node.operation.class();
        if class == OpClass::None {
            let delay = if node.operation == impact_cdfg::Operation::EndLoop {
                0.0
            } else {
                lib.mux2().delay_ns
            };
            node_delays.push(delay);
            node_fu.push(None);
        } else {
            let variant = lib
                .fastest(class)
                .expect("standard library covers every functional class");
            // Width is taken from the defined variable when present.
            let width = node
                .defines
                .map(|v| cdfg.variable(v).width)
                .unwrap_or(impact_modlib::REFERENCE_WIDTH);
            node_delays.push(variant.delay_for_width(width));
            node_fu.push(Some(next_fu));
            next_fu += 1;
        }
    }
    SchedulingProblem {
        cdfg,
        node_delays,
        node_fu,
        profile,
        config: ScheduleConfig::wavesched(),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use impact_behsim::simulate;
    use impact_hdl::compile;

    #[test]
    fn config_presets_differ_in_the_expected_knobs() {
        let b = ScheduleConfig::baseline();
        let w = ScheduleConfig::wavesched();
        assert!(!b.chaining && w.chaining);
        assert!(!b.concurrent_loops && w.concurrent_loops);
        assert!(!b.loop_overlap && w.loop_overlap);
        assert_eq!(b.clock_ns, w.clock_ns);
        assert_eq!(ScheduleConfig::default(), w);
        assert_eq!(w.clone().with_clock(20.0).clock_ns, 20.0);
    }

    #[test]
    fn problem_digests_track_delays_binding_and_config() {
        let cdfg = compile(
            "design d { input a: 8; output y: 16; var s: 16 = 0; var i: 8;
               for (i = 0; i < 4; i = i + 1) { s = s + a * 2; }
               y = s; }",
        )
        .unwrap();
        let trace = simulate(&cdfg, &[vec![3]]).unwrap();
        let p = uniform_problem(&cdfg, trace.profile());
        let base = p.digest();
        assert_eq!(base, uniform_problem(&cdfg, trace.profile()).digest());
        let mut slower = p.clone();
        slower.node_delays[0] += 0.5;
        assert_ne!(slower.digest(), base, "delays are part of the digest");
        let mut rebound = p.clone();
        let bound = rebound
            .node_fu
            .iter()
            .position(|f| f.is_some())
            .expect("some node needs a unit");
        rebound.node_fu[bound] = Some(991);
        assert_ne!(rebound.digest(), base, "binding is part of the digest");
        let mut reclocked = p.clone();
        reclocked.config = reclocked.config.with_clock(21.5);
        assert_ne!(reclocked.digest(), base, "the clock is part of the digest");
        let mut unchained = p;
        unchained.config.chaining = false;
        assert_ne!(unchained.digest(), base, "config flags are in the digest");
    }

    #[test]
    fn uniform_problem_covers_every_node() {
        let cdfg = compile(
            "design d { input a: 8; output y: 16; var s: 16 = 0; var i: 8;
               for (i = 0; i < 4; i = i + 1) { s = s + a * 2; }
               y = s; }",
        )
        .unwrap();
        let trace = simulate(&cdfg, &[vec![3]]).unwrap();
        let p = uniform_problem(&cdfg, trace.profile());
        assert_eq!(p.node_delays.len(), cdfg.node_count());
        assert_eq!(p.node_fu.len(), cdfg.node_count());
        // Every functional-unit-needing node got a distinct unit.
        let mut fus: Vec<usize> = p.node_fu.iter().flatten().copied().collect();
        let before = fus.len();
        fus.sort_unstable();
        fus.dedup();
        assert_eq!(fus.len(), before);
        // Structural nodes have no functional unit.
        for (id, node) in cdfg.nodes() {
            if !node.operation.needs_functional_unit() {
                assert!(p.node_fu[id.index()].is_none());
            }
        }
    }
}
