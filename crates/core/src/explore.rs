//! The search-policy layer: the strategies [`ExplorerKind`] selects, run over
//! the probe/commit kernel.
//!
//! The paper's IMPACT loop is a greedy best-candidate-per-pass descent.
//! Delta evaluation and block-layer composition made probing a candidate
//! nearly free, so the search policy is a separate layer:
//!
//! * `SearchKernel` is the policy-free probe/commit kernel. It owns the
//!   mechanics every strategy shares — candidate generation, the
//!   fingerprint-once-per-step bookkeeping, cheap reference-supply ranking
//!   with deterministic tie-breaks, the fall-through-on-infeasible walk of
//!   the ranked list, and the [`ExploreStats`] counters.
//! * A strategy decides, given the kernel and the initial design point,
//!   which moves to probe, what to commit, and when to stop. The engine runs
//!   the one [`ExplorerKind`] on [`EngineConfig`](crate::EngineConfig)
//!   selects, through one `match`:
//!
//!   * [`ExplorerKind::Greedy`] — the paper's variable-depth descent. It is
//!     the oracle every other strategy is pinned against: none may return a
//!     worse design at the same laxity.
//!   * [`ExplorerKind::Beam`] — keeps the top-k move sequences alive per
//!     step instead of one; `k = 1` reduces exactly to greedy.
//!   * [`ExplorerKind::Restart`] — best-of-n greedy descents from seeded
//!     perturbation kicks, with the kicks rolled back through the
//!     transactional [`DesignDelta`] exact-revert path.
//!   * [`ExplorerKind::Pareto`] — a greedy descent that keeps every feasible
//!     probe and returns the non-dominated power/area/latency front for the
//!     laxity alongside the greedy point.
//!
//! All strategies run over the same [`Evaluator`] and therefore share one
//! [`SweepSession`](crate::SweepSession) cache: exploring more of the move
//! space amortizes the way laxity sweeps already amortize evaluation. The
//! cache holds evaluations only; the kernel owns every design it walks —
//! the working design it probes in place, and for each chosen candidate
//! that design with the move applied — and carries them through sequences,
//! beam nodes, restart kicks and the Pareto collector as
//! [`EvaluatedDesign`]s.

use std::sync::Arc;

use impact_cdfg::analysis::ExclusionInfo;
use impact_cdfg::Cdfg;
use impact_rtl::{DesignDelta, DesignFingerprint, RtlDesign};
use rand::prelude::*;

use crate::config::{OptimizationMode, SynthesisConfig};
use crate::engine::MoveRecord;
use crate::error::SynthesisError;
use crate::evaluate::{DesignPoint, EvaluatedDesign, Evaluator};
use crate::moves::{generate, Move};

/// Strict-improvement tolerance shared by every strategy's "keep the better
/// design" comparisons; equal-cost candidates keep the incumbent, so ties
/// never flap on floating-point noise.
const GAIN_EPS: f64 = 1e-9;

// ----------------------------------------------------------------- counters

/// Search-effort counters of the explore layer, reported alongside the cache
/// layers in [`CacheStats`](crate::CacheStats): how many candidates the
/// strategy probed, what it committed, and the strategy-specific work (beam
/// width realized, restarts taken, Pareto dominance outcomes).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ExploreStats {
    /// Full (supply-search) candidate evaluations issued.
    pub probes: u64,
    /// Cheap reference-supply ranking evaluations issued.
    pub rank_probes: u64,
    /// Moves committed into a run's history (including moves committed by
    /// descents a best-of-n strategy later discarded).
    pub commits: u64,
    /// Exact-revert rollbacks of applied deltas (restart kicks undone).
    pub reverts: u64,
    /// Widest beam actually realized (0 for non-beam strategies).
    pub beam_width: u64,
    /// Perturbation restarts taken.
    pub restarts: u64,
    /// Pareto-front members kept after dominance filtering.
    pub pareto_kept: u64,
    /// Collected points discarded as dominated (or metric-duplicates).
    pub pareto_dominated: u64,
}

impl ExploreStats {
    /// Accumulates another run's counters (sums, except `beam_width`, which
    /// keeps the maximum realized).
    pub fn accumulate(&mut self, other: ExploreStats) {
        self.probes += other.probes;
        self.rank_probes += other.rank_probes;
        self.commits += other.commits;
        self.reverts += other.reverts;
        self.beam_width = self.beam_width.max(other.beam_width);
        self.restarts += other.restarts;
        self.pareto_kept += other.pareto_kept;
        self.pareto_dominated += other.pareto_dominated;
    }
}

// ------------------------------------------------------------ kind + codec

/// Default beam width of [`ExplorerKind::Beam`] when none is given.
pub const DEFAULT_BEAM_WIDTH: usize = 3;
/// Default restart count of [`ExplorerKind::Restart`].
const DEFAULT_RESTARTS: usize = 4;
/// Default perturbation length (moves per kick) of
/// [`ExplorerKind::Restart`].
const DEFAULT_KICKS: usize = 2;
/// Default kick seed of [`ExplorerKind::Restart`].
const DEFAULT_RESTART_SEED: u64 = 1998;

/// Which search strategy the engine runs — the policy knob of
/// [`EngineConfig`](crate::EngineConfig). `Copy`/`Eq` like the rest of the
/// engine configuration.
///
/// Contract every strategy honors (property-tested against
/// [`ExplorerKind::Greedy`], the oracle): the reported design is feasible
/// under the run's ENC budget and its cost is never worse than what the
/// greedy descent reaches from the same initial point.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ExplorerKind {
    /// The paper's greedy variable-depth descent (the oracle), bit-identical
    /// to the engine before the search-policy layer existed.
    #[default]
    Greedy,
    /// Beam search over move sequences: each step expands every live
    /// sequence by its top-`width` feasible candidates and keeps the best
    /// `width` children overall, with deterministic tie-breaks (cumulative
    /// gain, then parent beam position, then candidate rank). The best
    /// prefix seen across the whole beam is committed per pass — with
    /// `width = 1` this is exactly the greedy pass.
    Beam {
        /// Number of move sequences kept alive per step (minimum 1).
        width: usize,
    },
    /// Best-of-n restarts: the unperturbed greedy descent first (so the
    /// result is never worse than greedy's), then repeated kicks of the
    /// incumbent by a few seeded random feasible moves, each followed by a
    /// descent, keeping the strictly best outcome. Kicks are applied to a
    /// scratch design through [`Move::apply`] and rolled back delta by delta
    /// through the transactional exact-revert path, so the incumbent is
    /// never mutated.
    Restart {
        /// Number of perturbation restarts after the base descent.
        restarts: usize,
        /// Moves per perturbation kick.
        kicks: usize,
        /// Seed of the kick generator (compat `rand` SplitMix64).
        seed: u64,
    },
    /// Greedy descent with a sweep collector: every feasible fully
    /// evaluated probe (and the initial design) is kept with its design,
    /// and the non-dominated power/area/latency front of the probed space
    /// is returned alongside the greedy best point, which stays
    /// bit-identical to [`ExplorerKind::Greedy`]'s.
    Pareto,
}

impl ExplorerKind {
    /// Short stable name, used in reports, history attribution and CLIs.
    pub fn name(&self) -> &'static str {
        match self {
            ExplorerKind::Greedy => "greedy",
            ExplorerKind::Beam { .. } => "beam",
            ExplorerKind::Restart { .. } => "restart",
            ExplorerKind::Pareto => "pareto",
        }
    }

    /// The four kinds with their default parameters, in oracle-first order —
    /// what the search tests in `impact_bench` compare against greedy.
    pub fn all() -> [ExplorerKind; 4] {
        [
            ExplorerKind::Greedy,
            ExplorerKind::Beam {
                width: DEFAULT_BEAM_WIDTH,
            },
            ExplorerKind::Restart {
                restarts: DEFAULT_RESTARTS,
                kicks: DEFAULT_KICKS,
                seed: DEFAULT_RESTART_SEED,
            },
            ExplorerKind::Pareto,
        ]
    }

    /// Parses a CLI spelling: `greedy`, `beam`, `beam:K`, `restart`,
    /// `restart:N`, `restart:N:K`, `restart:N:K:SEED`, `pareto`. Returns
    /// `None` for anything else.
    pub fn parse(spec: &str) -> Option<ExplorerKind> {
        let mut parts = spec.split(':');
        let head = parts.next()?;
        let arg = |part: Option<&str>, default: usize| -> Option<usize> {
            match part {
                None => Some(default),
                Some(text) => text.parse().ok(),
            }
        };
        let kind = match head {
            "greedy" => ExplorerKind::Greedy,
            "beam" => ExplorerKind::Beam {
                width: arg(parts.next(), DEFAULT_BEAM_WIDTH)?,
            },
            "restart" => ExplorerKind::Restart {
                restarts: arg(parts.next(), DEFAULT_RESTARTS)?,
                kicks: arg(parts.next(), DEFAULT_KICKS)?,
                seed: match parts.next() {
                    None => DEFAULT_RESTART_SEED,
                    Some(text) => text.parse().ok()?,
                },
            },
            "pareto" => ExplorerKind::Pareto,
            _ => return None,
        };
        parts.next().is_none().then_some(kind)
    }

    /// Runs the strategy to completion from the evaluated initial design.
    ///
    /// # Errors
    ///
    /// Propagates scheduler failures surfaced by the kernel's probes.
    pub(crate) fn explore(
        self,
        kernel: &mut SearchKernel<'_, '_>,
        initial: EvaluatedDesign,
    ) -> Result<Exploration, SynthesisError> {
        match self {
            ExplorerKind::Greedy => greedy_descent(kernel, initial, "greedy"),
            ExplorerKind::Beam { width } => descend(kernel, initial, "beam", |kernel, current| {
                beam_pass(kernel, current, width.max(1))
            }),
            ExplorerKind::Restart {
                restarts,
                kicks,
                seed,
            } => restart_search(kernel, initial, restarts, kicks, seed),
            ExplorerKind::Pareto => {
                kernel.collected = Some(vec![initial.clone()]);
                let mut exploration = greedy_descent(kernel, initial, "pareto")?;
                let collected = kernel.collected.take().unwrap_or_default();
                let (front, dominated) = pareto_front(collected);
                kernel.stats.pareto_kept += front.len() as u64;
                kernel.stats.pareto_dominated += dominated;
                exploration.front = front;
                Ok(exploration)
            }
        }
    }
}

// ------------------------------------------------------------------ kernel

/// A ranked candidate that survived full evaluation: the move, the resulting
/// design with its point, and its gain relative to the working design it was
/// probed from.
#[derive(Clone, Debug)]
pub(crate) struct RankedCandidate {
    /// The move.
    pub mv: Move,
    /// The design the move produced, fully evaluated (supply-scaled).
    pub reached: EvaluatedDesign,
    /// Cost reduction versus the working design, in the units of the
    /// optimization mode (negative for uphill moves).
    pub gain: f64,
}

/// The policy-free probe/commit kernel every strategy runs on.
///
/// It bundles what used to be hardwired into the engine's improvement pass:
/// candidate generation over the working design, the working design's
/// fingerprint hashed once per step (candidates are then delta-patched from
/// it), the cheap reference-supply ranking stage with its deterministic
/// tie-break, and the fall-through walk that fully evaluates candidates in
/// rank order until enough survive. The kernel also accumulates the
/// [`ExploreStats`] the engine reports.
pub(crate) struct SearchKernel<'e, 'a> {
    cdfg: &'e Cdfg,
    evaluator: &'e Evaluator<'a>,
    exclusion: ExclusionInfo,
    stats: ExploreStats,
    /// When set, every feasible candidate of a ranked step (and the initial
    /// design) is kept for post-hoc dominance filtering — the Pareto
    /// strategy's collector.
    collected: Option<Vec<EvaluatedDesign>>,
}

impl<'e, 'a> SearchKernel<'e, 'a> {
    /// Builds a kernel over a prepared evaluator.
    pub fn new(cdfg: &'e Cdfg, evaluator: &'e Evaluator<'a>) -> Self {
        Self {
            cdfg,
            evaluator,
            exclusion: ExclusionInfo::compute(cdfg),
            stats: ExploreStats::default(),
            collected: None,
        }
    }

    /// The run's configuration.
    pub fn config(&self) -> &SynthesisConfig {
        self.evaluator.config()
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> ExploreStats {
        self.stats
    }

    /// Candidate moves applicable to `design`, in generation (preference)
    /// order.
    pub fn candidates(&self, design: &RtlDesign) -> Vec<Move> {
        generate(
            self.cdfg,
            self.evaluator.library(),
            design,
            self.config(),
            &self.exclusion,
        )
    }

    /// One ranked search step: generates the candidates of `working`, ranks
    /// them with the cheap reference-supply evaluation, then fully evaluates
    /// in rank order — falling through infeasible candidates — until up to
    /// `width` survive. Returns the survivors in rank order; an empty vector
    /// means the step is exhausted (no candidates, or none feasible).
    ///
    /// `width = 1` is exactly the classic greedy step: probe the ranked list
    /// until the first feasible candidate.
    ///
    /// # Errors
    ///
    /// Propagates scheduler failures.
    pub fn ranked_step(
        &mut self,
        working: &EvaluatedDesign,
        width: usize,
    ) -> Result<Vec<RankedCandidate>, SynthesisError> {
        let candidates = self.candidates(&working.design);
        if candidates.is_empty() {
            return Ok(Vec::new());
        }

        // Fingerprint the working design once per step; every candidate's
        // digest and context are then patched from it through the move's
        // delta. Ranking and the walk probe in place on one copy of it.
        let parent_fingerprint = working.design.fingerprint();
        let mut scratch = working.design.clone();
        let ranked =
            self.rank_candidates(working, parent_fingerprint, &mut scratch, &candidates)?;
        self.stats.rank_probes += candidates.len() as u64;

        let mode = self.config().mode;
        let mut chosen: Vec<RankedCandidate> = Vec::new();
        let mut rest: &[(usize, f64)] = &ranked;
        while chosen.len() < width && !rest.is_empty() {
            let mut probed = 0u64;
            let advanced = first_feasible(rest, |index| {
                probed += 1;
                // A chosen candidate's design is copied while its move is
                // applied: one copy per feasible walk probe.
                self.evaluator.evaluate_candidate_in(
                    &working.design,
                    parent_fingerprint,
                    &mut scratch,
                    &candidates[index],
                    None,
                    |design, point| EvaluatedDesign {
                        design: design.clone(),
                        point: Arc::unwrap_or_clone(point),
                    },
                )
            })?;
            self.stats.probes += probed;
            let Some((index, reached)) = advanced else {
                break;
            };
            let position = rest
                .iter()
                .position(|&(i, _)| i == index)
                .expect("first_feasible returns an index from the ranked slice");
            rest = &rest[position + 1..];
            if let Some(collected) = &mut self.collected {
                collected.push(reached.clone());
            }
            chosen.push(RankedCandidate {
                mv: candidates[index].clone(),
                gain: working.point.cost(mode) - reached.point.cost(mode),
                reached,
            });
        }
        debug_assert_eq!(
            scratch, working.design,
            "every probe of the step must revert its move"
        );
        Ok(chosen)
    }

    /// Fully evaluates one specific move against `design` (the restart
    /// strategy's kick probe) on a copy of it. Returns `None` when the move
    /// is inapplicable or infeasible under the ENC budget.
    ///
    /// # Errors
    ///
    /// Propagates scheduler failures.
    pub fn probe_move(
        &mut self,
        design: &RtlDesign,
        mv: &Move,
    ) -> Result<Option<DesignPoint>, SynthesisError> {
        self.stats.probes += 1;
        let mut scratch = design.clone();
        self.evaluator.evaluate_candidate_in(
            design,
            design.fingerprint(),
            &mut scratch,
            mv,
            None,
            |_, point| Arc::unwrap_or_clone(point),
        )
    }

    /// Scores every applicable candidate at the reference supply, in
    /// generation order on the calling thread, and returns `(candidate
    /// index, gain)` pairs sorted best-first. Each probe applies its move to
    /// `scratch`, a copy of the working design, and reverts it.
    ///
    /// Higher gain ranks first, and among equal gains the earliest-generated
    /// candidate wins (move generation orders candidates by preference, e.g.
    /// mutually exclusive sharing pairs first, so the tie-break preserves
    /// that intent — and matches the winner the historical
    /// first-strictly-greater scan selected).
    fn rank_candidates(
        &self,
        working: &EvaluatedDesign,
        parent_fingerprint: DesignFingerprint,
        scratch: &mut RtlDesign,
        candidates: &[Move],
    ) -> Result<Vec<(usize, f64)>, SynthesisError> {
        let mode = self.config().mode;
        let working_reference_cost = reference_cost(&working.point, mode);
        let mut ranked = Vec::with_capacity(candidates.len());
        for (index, candidate) in candidates.iter().enumerate() {
            if let Some(gain) = self.evaluator.evaluate_candidate_in(
                &working.design,
                parent_fingerprint,
                scratch,
                candidate,
                Some(impact_modlib::VDD_REFERENCE),
                |_, point| working_reference_cost - reference_cost(&point, mode),
            )? {
                ranked.push((index, gain));
            }
        }
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        Ok(ranked)
    }
}

fn reference_cost(point: &DesignPoint, mode: OptimizationMode) -> f64 {
    match mode {
        OptimizationMode::Power => point.power_at_reference.total_mw(),
        OptimizationMode::Area => point.area,
    }
}

/// Walks a ranked candidate list and returns the first candidate that
/// survives full evaluation, together with its evaluation. A top-ranked
/// candidate whose full Vdd-scaled evaluation is infeasible no longer aborts
/// the caller's sequence — lower-ranked feasible candidates get their turn.
pub(crate) fn first_feasible<T, E>(
    ranked: &[(usize, f64)],
    mut evaluate: impl FnMut(usize) -> Result<Option<T>, E>,
) -> Result<Option<(usize, T)>, E> {
    for &(index, _) in ranked {
        if let Some(evaluated) = evaluate(index)? {
            return Ok(Some((index, evaluated)));
        }
    }
    Ok(None)
}

// --------------------------------------------------------------- strategies

/// Result of one strategy run.
#[derive(Clone, Debug)]
pub(crate) struct Exploration {
    /// The best design found (what the engine reports).
    pub best: EvaluatedDesign,
    /// Committed moves leading to `best`, in application order.
    pub history: Vec<MoveRecord>,
    /// Improvement passes executed (of the descent that produced `best`).
    pub passes: usize,
    /// Non-dominated power/area/latency front of the probed space. Empty
    /// for single-point strategies; [`ExplorerKind::Pareto`] fills it.
    pub front: Vec<EvaluatedDesign>,
}

/// A move sequence under construction: each move with the design it reached
/// and its gain.
type Sequence = Vec<(Move, EvaluatedDesign, f64)>;

/// Improvement passes until one commits nothing (or the pass limit). A pass
/// returns the move sequence it commits, empty for none; `strategy` is
/// recorded into every committed move.
fn descend(
    kernel: &mut SearchKernel<'_, '_>,
    start: EvaluatedDesign,
    strategy: &'static str,
    mut pass_moves: impl FnMut(
        &mut SearchKernel<'_, '_>,
        &EvaluatedDesign,
    ) -> Result<Sequence, SynthesisError>,
) -> Result<Exploration, SynthesisError> {
    let mut current = start;
    let mut history: Vec<MoveRecord> = Vec::new();
    let mut passes = 0usize;
    for pass in 0..kernel.config().max_passes {
        passes = pass + 1;
        let sequence = pass_moves(kernel, &current)?;
        if sequence.is_empty() {
            break;
        }
        kernel.stats.commits += sequence.len() as u64;
        for (mv, reached, gain) in sequence {
            history.push(MoveRecord {
                applied: mv,
                gain,
                pass,
                strategy,
            });
            current = reached;
        }
    }
    Ok(Exploration {
        best: current,
        history,
        passes,
        front: Vec::new(),
    })
}

/// The full classic descent (Figure 7 of the paper). Shared by the greedy,
/// restart and Pareto strategies so the point they all descend to is
/// computed by one code path.
fn greedy_descent(
    kernel: &mut SearchKernel<'_, '_>,
    start: EvaluatedDesign,
    strategy: &'static str,
) -> Result<Exploration, SynthesisError> {
    descend(kernel, start, strategy, greedy_pass)
}

/// One variable-depth improvement pass: build a sequence of locally best
/// moves, then keep the prefix with the best cumulative gain.
fn greedy_pass(
    kernel: &mut SearchKernel<'_, '_>,
    current: &EvaluatedDesign,
) -> Result<Sequence, SynthesisError> {
    let mut sequence: Sequence = Vec::new();
    let mut cumulative_gain = 0.0;
    let mut best_gain = 0.0;
    let mut best_prefix = 0usize;
    for _ in 0..kernel.config().max_sequence_length {
        let working = sequence.last().map_or(current, |(_, reached, _)| reached);
        let Some(chosen) = kernel.ranked_step(working, 1)?.pop() else {
            break;
        };
        cumulative_gain += chosen.gain;
        sequence.push((chosen.mv, chosen.reached, chosen.gain));
        if cumulative_gain > best_gain + GAIN_EPS {
            best_gain = cumulative_gain;
            best_prefix = sequence.len();
        }
    }
    sequence.truncate(best_prefix);
    Ok(sequence)
}

/// One live sequence of a beam pass.
struct BeamNode {
    seq: Sequence,
    cumulative_gain: f64,
}

/// One beam pass (see [`ExplorerKind::Beam`]): returns the best sequence
/// seen across the whole beam.
fn beam_pass(
    kernel: &mut SearchKernel<'_, '_>,
    root: &EvaluatedDesign,
    width: usize,
) -> Result<Sequence, SynthesisError> {
    let mut beam = vec![BeamNode {
        seq: Vec::new(),
        cumulative_gain: 0.0,
    }];
    let mut best_gain = 0.0;
    let mut best_seq: Sequence = Vec::new();

    for _ in 0..kernel.config().max_sequence_length {
        // Expand every live sequence by its top-`width` feasible
        // candidates; (parent position, candidate rank) ride along as the
        // deterministic tie-break.
        let mut children: Vec<(usize, usize, BeamNode)> = Vec::new();
        for (parent, node) in beam.iter().enumerate() {
            let working = node.seq.last().map_or(root, |(_, reached, _)| reached);
            let expansions = kernel.ranked_step(working, width)?;
            for (rank, candidate) in expansions.into_iter().enumerate() {
                let mut seq = node.seq.clone();
                let child_gain = node.cumulative_gain + candidate.gain;
                seq.push((candidate.mv, candidate.reached, candidate.gain));
                children.push((
                    parent,
                    rank,
                    BeamNode {
                        seq,
                        cumulative_gain: child_gain,
                    },
                ));
            }
        }
        if children.is_empty() {
            break;
        }
        children.sort_by(|a, b| {
            b.2.cumulative_gain
                .total_cmp(&a.2.cumulative_gain)
                .then(a.0.cmp(&b.0))
                .then(a.1.cmp(&b.1))
        });
        children.truncate(width);
        kernel.stats.beam_width = kernel.stats.beam_width.max(children.len() as u64);
        // First-strictly-greater in sorted order, so ties keep the earlier
        // (better-ranked) sequence — with width 1 this is the greedy pass's
        // best-prefix update.
        for (_, _, node) in &children {
            if node.cumulative_gain > best_gain + GAIN_EPS {
                best_gain = node.cumulative_gain;
                best_seq = node.seq.clone();
            }
        }
        beam = children.into_iter().map(|(_, _, node)| node).collect();
    }
    Ok(best_seq)
}

/// Random-candidate draws attempted per kick move before giving up on the
/// kick step (an infeasible draw is retried with the next random index).
const KICK_ATTEMPTS: usize = 8;

/// The restart strategy (see [`ExplorerKind::Restart`]).
fn restart_search(
    kernel: &mut SearchKernel<'_, '_>,
    initial: EvaluatedDesign,
    restarts: usize,
    kicks: usize,
    seed: u64,
) -> Result<Exploration, SynthesisError> {
    let mode = kernel.config().mode;
    // Run 0 is the unperturbed descent: the restart strategy can only ever
    // improve on the greedy result.
    let mut best = greedy_descent(kernel, initial, "restart")?;
    if kernel.config().max_passes == 0 || kicks == 0 {
        return Ok(best);
    }

    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..restarts {
        kernel.stats.restarts += 1;
        let Some((kicked, kick_records)) = kick(kernel, &best.best, kicks, &mut rng)? else {
            continue;
        };
        let descent = greedy_descent(kernel, kicked, "restart")?;
        if descent.best.point.cost(mode) < best.best.point.cost(mode) - GAIN_EPS {
            // The winning restart's history is the kick that escaped the
            // basin plus the descent that followed it.
            kernel.stats.commits += kick_records.len() as u64;
            let mut history = kick_records;
            history.extend(descent.history);
            best = Exploration {
                best: descent.best,
                history,
                passes: descent.passes,
                front: Vec::new(),
            };
        }
    }
    Ok(best)
}

/// Perturbs `from` by up to `kicks` random feasible moves. Returns the
/// kicked design and the kick's history records, or `None` when no
/// feasible perturbation was found. The scratch design the kick mutates is
/// copied out and then rolled back through [`RtlDesign::revert_delta`]
/// before returning, which (debug-)asserts the exact pre-kick state is
/// restored.
fn kick(
    kernel: &mut SearchKernel<'_, '_>,
    from: &EvaluatedDesign,
    kicks: usize,
    rng: &mut StdRng,
) -> Result<Option<(EvaluatedDesign, Vec<MoveRecord>)>, SynthesisError> {
    let mode = kernel.config().mode;
    let mut scratch = from.design.clone();
    let before = scratch.fingerprint();
    let mut deltas: Vec<DesignDelta> = Vec::new();
    let mut records: Vec<MoveRecord> = Vec::new();
    let mut point = from.point.clone();

    for _ in 0..kicks {
        let candidates = kernel.candidates(&scratch);
        if candidates.is_empty() {
            break;
        }
        let mut advanced = None;
        for _ in 0..KICK_ATTEMPTS {
            let pick = rng.random_range(0..candidates.len());
            if let Some(next) = kernel.probe_move(&scratch, &candidates[pick])? {
                advanced = Some((candidates[pick].clone(), next));
                break;
            }
        }
        let Some((mv, next)) = advanced else { break };
        let Ok(delta) = mv.apply(kernel.cdfg, kernel.evaluator.library(), &mut scratch) else {
            break;
        };
        deltas.push(delta);
        records.push(MoveRecord {
            applied: mv,
            gain: point.cost(mode) - next.cost(mode),
            pass: 0,
            strategy: "restart-kick",
        });
        point = next;
    }

    if records.is_empty() {
        return Ok(None);
    }
    let kicked = EvaluatedDesign {
        design: scratch.clone(),
        point,
    };
    // Roll the scratch design back move by move — the transactional
    // exact-revert path the deltas exist for.
    for delta in deltas.iter().rev() {
        scratch.revert_delta(delta);
        kernel.stats.reverts += 1;
    }
    debug_assert_eq!(
        scratch.fingerprint(),
        before,
        "reverting a kick must restore the exact pre-kick design"
    );
    Ok(Some((kicked, records)))
}

/// Whether `a` dominates `b` on the (power, area, ENC) objectives: no worse
/// on all three and strictly better on at least one.
fn dominates(a: &DesignPoint, b: &DesignPoint) -> bool {
    let a_metrics = [a.power.total_mw(), a.area, a.enc()];
    let b_metrics = [b.power.total_mw(), b.area, b.enc()];
    let no_worse = a_metrics.iter().zip(&b_metrics).all(|(x, y)| x <= y);
    let strictly_better = a_metrics.iter().zip(&b_metrics).any(|(x, y)| x < y);
    no_worse && strictly_better
}

/// Dominance-filters a set of evaluated designs on their points' (power,
/// area, ENC). Returns the non-dominated front in deterministic order (power
/// ascending, then area, then ENC) and the number of designs discarded as
/// dominated or as metric-duplicates.
pub fn pareto_front(mut designs: Vec<EvaluatedDesign>) -> (Vec<EvaluatedDesign>, u64) {
    let offered = designs.len();
    designs.sort_by(|a, b| {
        let (a, b) = (&a.point, &b.point);
        a.power
            .total_mw()
            .total_cmp(&b.power.total_mw())
            .then(a.area.total_cmp(&b.area))
            .then(a.enc().total_cmp(&b.enc()))
            .then(a.vdd.total_cmp(&b.vdd))
    });
    // Points with identical objectives are interchangeable for the front;
    // keep the first (lowest supply after the sort above).
    designs.dedup_by(|a, b| {
        let (a, b) = (&a.point, &b.point);
        a.power.total_mw() == b.power.total_mw() && a.area == b.area && a.enc() == b.enc()
    });
    let dominated: Vec<bool> = designs
        .iter()
        .map(|p| designs.iter().any(|q| dominates(&q.point, &p.point)))
        .collect();
    let front: Vec<EvaluatedDesign> = designs
        .into_iter()
        .zip(dominated)
        .filter_map(|(design, dominated)| (!dominated).then_some(design))
        .collect();
    let dominated = (offered - front.len()) as u64;
    (front, dominated)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn explorer_kind_parses_cli_spellings() {
        assert_eq!(ExplorerKind::parse("greedy"), Some(ExplorerKind::Greedy));
        assert_eq!(
            ExplorerKind::parse("beam"),
            Some(ExplorerKind::Beam {
                width: DEFAULT_BEAM_WIDTH
            })
        );
        assert_eq!(
            ExplorerKind::parse("beam:7"),
            Some(ExplorerKind::Beam { width: 7 })
        );
        assert_eq!(
            ExplorerKind::parse("restart:5:3:42"),
            Some(ExplorerKind::Restart {
                restarts: 5,
                kicks: 3,
                seed: 42
            })
        );
        assert_eq!(
            ExplorerKind::parse("restart"),
            Some(ExplorerKind::Restart {
                restarts: DEFAULT_RESTARTS,
                kicks: DEFAULT_KICKS,
                seed: DEFAULT_RESTART_SEED
            })
        );
        assert_eq!(ExplorerKind::parse("pareto"), Some(ExplorerKind::Pareto));
        assert_eq!(ExplorerKind::parse("beam:x"), None);
        assert_eq!(ExplorerKind::parse("annealing"), None);
        assert_eq!(ExplorerKind::parse("greedy:1"), None);
    }

    #[test]
    fn explore_stats_accumulate_sums_and_maxes() {
        let mut a = ExploreStats {
            probes: 10,
            rank_probes: 100,
            commits: 3,
            reverts: 1,
            beam_width: 2,
            restarts: 1,
            pareto_kept: 4,
            pareto_dominated: 6,
        };
        let b = ExploreStats {
            probes: 5,
            rank_probes: 50,
            commits: 2,
            reverts: 2,
            beam_width: 4,
            restarts: 3,
            pareto_kept: 1,
            pareto_dominated: 2,
        };
        a.accumulate(b);
        assert_eq!(a.probes, 15);
        assert_eq!(a.rank_probes, 150);
        assert_eq!(a.commits, 5);
        assert_eq!(a.reverts, 3);
        assert_eq!(a.beam_width, 4, "beam width keeps the maximum realized");
        assert_eq!(a.restarts, 4);
        assert_eq!(a.pareto_kept, 5);
        assert_eq!(a.pareto_dominated, 8);
    }

    #[test]
    fn in_place_ranking_matches_scoring_each_candidate_on_its_own() {
        // Ranking probes every candidate in place on one shared scratch copy
        // of the working design. Its order must equal scoring each candidate
        // on a fresh copy through the public move entry point, here on the
        // sessionless evaluator, sorted by (gain desc, index asc).
        for bench in [impact_benchmarks::gcd(), impact_benchmarks::dealer()] {
            let cdfg = bench.compile().unwrap();
            let trace = impact_behsim::simulate(&cdfg, &bench.input_sequences(8, 17)).unwrap();
            let config = SynthesisConfig::power_optimized(2.0);
            let mode = config.mode;
            let evaluator = Evaluator::new(&cdfg, &trace, config.clone()).unwrap();
            let sequential = crate::EngineConfig::sequential();
            let reference = Evaluator::new(&cdfg, &trace, config.with_engine(sequential)).unwrap();
            let mut kernel = SearchKernel::new(&cdfg, &evaluator);
            let mut working = evaluator.initial_design().unwrap();
            let mut steps = 0;
            while steps < 4 {
                let fingerprint = working.design.fingerprint();
                let candidates = kernel.candidates(&working.design);
                let mut scratch = working.design.clone();
                let ranked = kernel
                    .rank_candidates(&working, fingerprint, &mut scratch, &candidates)
                    .unwrap();
                assert_eq!(scratch, working.design, "every probe reverts its move");
                let working_cost = reference_cost(&working.point, mode);
                let mut expected: Vec<(usize, f64)> = candidates
                    .iter()
                    .enumerate()
                    .filter_map(|(index, mv)| {
                        let point = reference
                            .evaluate_move_at_vdd(&working.design, mv, impact_modlib::VDD_REFERENCE)
                            .unwrap()?;
                        Some((index, working_cost - reference_cost(&point, mode)))
                    })
                    .collect();
                expected.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                assert!(!expected.is_empty(), "{} step {steps}", bench.name);
                assert_eq!(ranked, expected, "{} step {steps}", bench.name);
                steps += 1;
                let Some(chosen) = kernel.ranked_step(&working, 1).unwrap().pop() else {
                    break;
                };
                working = chosen.reached;
            }
            assert!(steps >= 3, "{}: the walk commits moves", bench.name);
        }
    }

    #[test]
    fn infeasible_top_candidate_falls_through_to_the_next_ranked_one() {
        // Regression for the pass-abort bug: the engine used to `break` the
        // whole sequence when the top-ranked candidate's full evaluation came
        // back infeasible, discarding feasible lower-ranked candidates.
        let bench = impact_benchmarks::gcd();
        let cdfg = bench.compile().unwrap();
        let trace = impact_behsim::simulate(&cdfg, &bench.input_sequences(8, 17)).unwrap();
        let evaluator = Evaluator::new(
            &cdfg,
            &trace,
            SynthesisConfig::power_optimized(2.0).with_effort(1, 1),
        )
        .unwrap();
        let template = evaluator.initial_point().unwrap();
        let ranked = vec![(0usize, 3.0), (1, 2.0), (2, 1.0)];
        let mut probed = Vec::new();
        let result = first_feasible(&ranked, |index| -> Result<_, SynthesisError> {
            probed.push(index);
            // The best-gain candidate is infeasible under full evaluation.
            Ok((index != 0).then(|| template.clone()))
        })
        .unwrap();
        let (chosen, _) = result.expect("a lower-ranked feasible candidate is committed");
        assert_eq!(chosen, 1, "the next-ranked candidate is chosen");
        assert_eq!(probed, vec![0, 1], "ranking order is respected");
        // When every candidate is infeasible the step (not the whole pass
        // machinery) reports exhaustion.
        let none = first_feasible(
            &ranked,
            |_| -> Result<Option<DesignPoint>, SynthesisError> { Ok(None) },
        )
        .unwrap();
        assert!(none.is_none());
        // Errors propagate immediately.
        let err = first_feasible(
            &ranked,
            |_| -> Result<Option<DesignPoint>, SynthesisError> {
                Err(SynthesisError::InfeasibleLaxity { laxity: 0.0 })
            },
        );
        assert!(err.is_err());
    }
}
