//! Hierarchical composition of block schedules into a state transition graph,
//! following the CDFG region tree.
//!
//! The composer is split from block scheduling: every basic block the
//! traversal encounters is requested from a [`BlockSource`] (by default
//! inline list scheduling; the evaluator serves blocks from its session's
//! digest-keyed block layer), and the STG and the ENC are assembled from the
//! block results. The traversal — and therefore the block order, the state
//! numbering and every tail-placement decision — is deterministic given the
//! problem, which is what makes composition over cached block schedules
//! bit-identical to scheduling everything inline. The result keeps no record
//! of its blocks: whoever needs them recomposes the problem through
//! [`RecordingBlocks`].
//!
//! Composition returns the full [`Schedule`]. What the cost model reads of it
//! is [`Schedule::summary`], and a caching caller keeps only that: the graph
//! exists while a schedule is audited and in what a run hands out.
//!
//! Composition walks no graph: the ENC is composed from the regions' own
//! expectations, not solved on the finished STG. The builder appends to the
//! STG's flat vectors, recycles the edge lists it routes and keeps its
//! tail-placement scratch across calls, and the finished graph is shrunk to
//! its exact size.

use std::sync::Arc;

use impact_behsim::branch_count;
use impact_cdfg::{NodeId, Region};
use impact_stg::{Guard, ScheduledOp, StateId, Stg};

use crate::block::{schedule_block, BlockSchedule};
use crate::error::SchedError;
use crate::problem::{Schedule, ScheduleConfig, SchedulingProblem};

/// Supplier of basic-block schedules to the hierarchical composer.
///
/// The composer requests every block in traversal order and splices the
/// results into the STG. Implementations must return exactly what
/// [`schedule_block`] would produce for the problem and node list — block
/// schedules are pure functions of their
/// [`block_digest`](crate::block_digest), so any source that honors the
/// contract (a digest-keyed cache, say) composes bit-identically to
/// [`InlineBlocks`].
pub trait BlockSource {
    /// Produces the schedule of the block made of `nodes`.
    ///
    /// # Errors
    ///
    /// Returns a [`SchedError`] when the block cannot be scheduled (cyclic
    /// intra-block dependences, incomplete per-node tables).
    fn block(
        &mut self,
        problem: &SchedulingProblem<'_>,
        nodes: &[NodeId],
    ) -> Result<Arc<BlockSchedule>, SchedError>;
}

/// The default [`BlockSource`]: list-schedule every block inline.
#[derive(Clone, Copy, Debug, Default)]
pub struct InlineBlocks;

impl BlockSource for InlineBlocks {
    fn block(
        &mut self,
        problem: &SchedulingProblem<'_>,
        nodes: &[NodeId],
    ) -> Result<Arc<BlockSchedule>, SchedError> {
        Ok(Arc::new(schedule_block(problem, nodes)?))
    }
}

/// [`InlineBlocks`] that records every block it schedules. A [`Schedule`]
/// keeps only its STG and ENC, so the audits recompose a problem through
/// this source to check each of its blocks.
#[derive(Clone, Debug, Default)]
pub struct RecordingBlocks {
    /// Every block scheduled so far, as its node list and its schedule, in
    /// the order the composer requested them.
    pub blocks: Vec<(Vec<NodeId>, Arc<BlockSchedule>)>,
}

impl BlockSource for RecordingBlocks {
    fn block(
        &mut self,
        problem: &SchedulingProblem<'_>,
        nodes: &[NodeId],
    ) -> Result<Arc<BlockSchedule>, SchedError> {
        let block = InlineBlocks.block(problem, nodes)?;
        self.blocks.push((nodes.to_vec(), Arc::clone(&block)));
        Ok(block)
    }
}

/// Common interface of the IMPACT schedulers.
pub trait Scheduler {
    /// Produces the schedule (STG and ENC) of the given problem.
    ///
    /// # Errors
    ///
    /// Returns a [`SchedError`] when the problem is malformed (a clock
    /// period that is not finite and positive, incomplete per-node tables,
    /// cyclic intra-block dependences).
    fn schedule(&self, problem: &SchedulingProblem<'_>) -> Result<Schedule, SchedError>;
}

/// Conventional basic-block scheduler: no chaining, strictly sequential
/// loops. Stands in for the CFG schedulers of [9, 17].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BaselineScheduler;

impl BaselineScheduler {
    /// Creates a baseline scheduler.
    pub fn new() -> Self {
        Self
    }
}

impl Scheduler for BaselineScheduler {
    fn schedule(&self, problem: &SchedulingProblem<'_>) -> Result<Schedule, SchedError> {
        let mut p = problem.clone();
        p.config = ScheduleConfig {
            chaining: false,
            concurrent_loops: false,
            loop_overlap: false,
            ..problem.config.clone()
        };
        run(&p)
    }
}

/// Wavesched-style scheduler: chaining, concurrent loop optimization and
/// implicit loop unrolling.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WaveScheduler;

impl WaveScheduler {
    /// Creates a Wavesched-style scheduler.
    pub fn new() -> Self {
        Self
    }
}

impl Scheduler for WaveScheduler {
    fn schedule(&self, problem: &SchedulingProblem<'_>) -> Result<Schedule, SchedError> {
        let mut p = problem.clone();
        p.config = ScheduleConfig {
            chaining: true,
            concurrent_loops: true,
            loop_overlap: true,
            ..problem.config.clone()
        };
        run(&p)
    }
}

/// The source of the stand-in edge an overlapped loop's body is scheduled
/// with, next to the body's real incoming edges. It names no state: where
/// the composer would connect it, [`Builder::connect`] records the route
/// instead (destination, guard, probability factor), and the body's back
/// edges are later routed the same way — through a leading branch, split by
/// its probability.
const ROUTE_PROBE: StateId = StateId::new(usize::MAX);

/// A transition waiting for its destination state.
#[derive(Clone, Debug)]
struct PendingEdge {
    from: StateId,
    guard: Guard,
    probability: f64,
}

/// Result of scheduling one region or region sequence.
struct SeqResult {
    outgoing: Vec<PendingEdge>,
    expected: f64,
    entry: Option<StateId>,
}

struct Builder<'p, 'a, 's> {
    problem: &'p SchedulingProblem<'a>,
    stg: Stg,
    first_state: Option<StateId>,
    source: &'s mut dyn BlockSource,
    /// Scratch of tail placement: the distinct tail states of the edges
    /// being placed at, sorted.
    tails: Vec<StateId>,
    /// Scratch of tail placement: the units busy in one tail state.
    busy_units: Vec<usize>,
    /// Routes the [`ROUTE_PROBE`] edges took, as (destination, guard,
    /// probability factor), stacked: each overlapped loop reads the entries
    /// its body appended and truncates them again.
    routes: Vec<(StateId, Guard, f64)>,
}

fn run(problem: &SchedulingProblem<'_>) -> Result<Schedule, SchedError> {
    compose(problem, &mut InlineBlocks)
}

/// Composes the hierarchical schedule of `problem` from block schedules
/// served by `source`: the composer walks the region tree, requests every
/// basic block from the source, splices the block STGs together and derives
/// the ENC. With [`InlineBlocks`] this *is* the scheduler; with a caching
/// source only the blocks the source cannot serve are list-scheduled, and
/// the composition is bit-identical either way. The result holds no copy of
/// the blocks: the source is their only record.
///
/// # Errors
///
/// Returns a [`SchedError`] when the problem is malformed (a clock period
/// that is not finite and positive, incomplete per-node tables, cyclic
/// intra-block dependences).
pub fn compose(
    problem: &SchedulingProblem<'_>,
    source: &mut dyn BlockSource,
) -> Result<Schedule, SchedError> {
    SchedError::check_clock(problem.config.clock_ns)?;
    let required = problem.cdfg.node_count();
    if problem.node_delays.len() < required || problem.node_fu.len() < required {
        return Err(SchedError::IncompleteProblem {
            nodes: required,
            provided: problem.node_delays.len().min(problem.node_fu.len()),
        });
    }
    let mut builder = Builder {
        problem,
        stg: Stg::new(problem.config.clock_ns),
        first_state: None,
        source,
        tails: Vec::new(),
        busy_units: Vec::new(),
        routes: Vec::new(),
    };
    let result = builder.schedule_sequence(problem.cdfg.regions(), Vec::new(), 0)?;
    // Whatever probability mass is still dangling terminates the pass.
    for edge in &result.outgoing {
        let state = edge.from;
        let current = builder.stg.state(state).exit_probability;
        builder
            .stg
            .set_exit_probability(state, current + edge.probability);
    }
    if let Some(entry) = builder.first_state {
        builder.stg.set_entry(entry);
    } else {
        // Completely empty designs still get one idle state.
        let s = builder.stg.add_state();
        builder.stg.set_exit_probability(s, 1.0);
        builder.stg.set_entry(s);
    }
    let enc = if result.expected > 0.0 {
        result.expected
    } else {
        1.0
    };
    builder.stg.shrink_to_fit();
    Ok(Schedule {
        stg: builder.stg,
        enc,
    })
}

impl<'p, 'a, 's> Builder<'p, 'a, 's> {
    fn add_state(&mut self) -> StateId {
        let id = self.stg.add_state();
        if self.first_state.is_none() {
            self.first_state = Some(id);
        }
        id
    }

    fn connect(&mut self, edges: &[PendingEdge], to: StateId) {
        for edge in edges {
            if edge.from == ROUTE_PROBE {
                self.routes.push((to, edge.guard.clone(), edge.probability));
            } else {
                self.stg
                    .add_transition(edge.from, to, edge.guard.clone(), edge.probability);
            }
        }
    }

    /// Schedules a sequence of regions, attaching `incoming` transitions to
    /// the first state created.
    fn schedule_sequence(
        &mut self,
        regions: &[Region],
        incoming: Vec<PendingEdge>,
        branch_base: usize,
    ) -> Result<SeqResult, SchedError> {
        let mut pending = incoming;
        let mut expected = 0.0;
        let mut entry = None;
        let mut base = branch_base;

        let mut index = 0usize;
        while index < regions.len() {
            // Concurrent loop optimization: merge runs of adjacent independent
            // loops so their iterations share states.
            let merged_run = if self.problem.config.concurrent_loops {
                self.mergeable_loop_run(regions, index)
            } else {
                1
            };
            let result = if merged_run > 1 {
                let loops: Vec<&Region> = regions[index..index + merged_run].iter().collect();
                let consumed_branches: usize = loops
                    .iter()
                    .map(|r| branch_count(std::slice::from_ref(*r)))
                    .sum();
                let r = self.schedule_merged_loops(&loops, pending, base)?;
                base += consumed_branches;
                index += merged_run;
                r
            } else {
                let region = &regions[index];
                let r = self.schedule_region(region, pending, base)?;
                base += branch_count(std::slice::from_ref(region));
                index += 1;
                r
            };
            pending = result.outgoing;
            expected += result.expected;
            if entry.is_none() {
                entry = result.entry;
            }
        }
        Ok(SeqResult {
            outgoing: pending,
            expected,
            entry,
        })
    }

    /// Length of the run of adjacent, pairwise independent, branch-free loops
    /// with flat block bodies starting at `start` (1 when no merging applies).
    fn mergeable_loop_run(&self, regions: &[Region], start: usize) -> usize {
        let simple_loop = |region: &Region| -> bool {
            match region {
                Region::Loop(info) => {
                    branch_count(std::slice::from_ref(region)) == 0
                        && info.header.iter().all(|r| matches!(r, Region::Block(_)))
                        && info.body.iter().all(|r| matches!(r, Region::Block(_)))
                }
                _ => false,
            }
        };
        if !simple_loop(&regions[start]) {
            return 1;
        }
        let mut run = 1;
        // A candidate extends the run iff it is independent of *every* loop
        // already in it, which is exactly independence against their union —
        // accumulate the union instead of re-deriving per-pair node sets.
        let mut prior_nodes: std::collections::HashSet<NodeId> =
            regions[start].nodes().into_iter().collect();
        while start + run < regions.len() && simple_loop(&regions[start + run]) {
            let candidate_nodes = regions[start + run].nodes();
            let candidate_set: std::collections::HashSet<NodeId> =
                candidate_nodes.iter().copied().collect();
            let dependent = candidate_nodes.iter().any(|&n| {
                self.problem
                    .cdfg
                    .data_predecessors_iter(n)
                    .any(|p| prior_nodes.contains(&p))
            }) || prior_nodes.iter().any(|&n| {
                self.problem
                    .cdfg
                    .data_predecessors_iter(n)
                    .any(|p| candidate_set.contains(&p))
            });
            if dependent {
                break;
            }
            prior_nodes.extend(candidate_nodes);
            run += 1;
        }
        run
    }

    fn schedule_region(
        &mut self,
        region: &Region,
        incoming: Vec<PendingEdge>,
        branch_base: usize,
    ) -> Result<SeqResult, SchedError> {
        match region {
            Region::Block(nodes) => self.schedule_block_region(nodes, incoming),
            Region::Branch {
                then_regions,
                else_regions,
                selects,
                ..
            } => self.schedule_branch(then_regions, else_regions, selects, incoming, branch_base),
            Region::Loop(info) => {
                let expected_iterations = self
                    .problem
                    .profile
                    .loop_stats(&info.label)
                    .average_iterations();
                self.schedule_loop(
                    &info.header,
                    &info.body,
                    &info.end_nodes,
                    &info.label,
                    expected_iterations,
                    incoming,
                    branch_base,
                )
            }
        }
    }

    fn schedule_block_region(
        &mut self,
        nodes: &[NodeId],
        incoming: Vec<PendingEdge>,
    ) -> Result<SeqResult, SchedError> {
        let block = self.source.block(self.problem, nodes)?;
        if block.state_count == 0 {
            return Ok(SeqResult {
                outgoing: incoming,
                expected: 0.0,
                entry: None,
            });
        }
        let first = self.stg.add_chain(block.state_count).index();
        if self.first_state.is_none() {
            self.first_state = Some(StateId::new(first));
        }
        for op in &block.ops {
            self.stg.add_op(
                StateId::new(first + op.state),
                ScheduledOp::new(op.node, op.start_ns, op.start_ns + op.delay_ns),
            );
        }
        let mut outgoing = incoming;
        self.connect(&outgoing, StateId::new(first));
        outgoing.clear();
        outgoing.push(PendingEdge {
            from: StateId::new(first + block.state_count - 1),
            guard: Guard::Always,
            probability: 1.0,
        });
        Ok(SeqResult {
            outgoing,
            expected: block.state_count as f64,
            entry: Some(StateId::new(first)),
        })
    }

    fn schedule_branch(
        &mut self,
        then_regions: &[Region],
        else_regions: &[Region],
        selects: &[NodeId],
        incoming: Vec<PendingEdge>,
        branch_base: usize,
    ) -> Result<SeqResult, SchedError> {
        let p = self.problem.profile.branch(branch_base).probability_taken();
        let guard_edge = |e: &PendingEdge, taken: bool, prob: f64| PendingEdge {
            from: e.from,
            guard: Guard::Branch {
                index: branch_base,
                taken,
            },
            probability: e.probability * prob,
        };
        let then_incoming = incoming.iter().map(|e| guard_edge(e, true, p)).collect();
        let mut else_incoming = incoming;
        for e in &mut else_incoming {
            *e = guard_edge(e, false, 1.0 - p);
        }
        let then_base = branch_base + 1;
        let else_base = then_base + branch_count(then_regions);

        let then_result = self.schedule_sequence(then_regions, then_incoming, then_base)?;
        let else_result = self.schedule_sequence(else_regions, else_incoming, else_base)?;

        // Place the Sel (merge) nodes at the tail of every side that actually
        // created states; a side that stayed empty keeps its registers
        // unchanged and needs no merge activity.
        let mut then_out = then_result.outgoing;
        let mut then_extra = 0.0;
        if then_result.entry.is_some() && !selects.is_empty() {
            then_extra = self.place_tail_ops(&mut then_out, selects);
        }
        let mut else_out = else_result.outgoing;
        let mut else_extra = 0.0;
        if else_result.entry.is_some() && !selects.is_empty() {
            else_extra = self.place_tail_ops(&mut else_out, selects);
        }

        let expected = p * (then_result.expected + then_extra)
            + (1.0 - p) * (else_result.expected + else_extra);
        let mut outgoing = then_out;
        outgoing.extend(else_out);
        Ok(SeqResult {
            outgoing,
            expected,
            entry: then_result.entry.or(else_result.entry),
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn schedule_loop(
        &mut self,
        header: &[Region],
        body: &[Region],
        end_nodes: &[NodeId],
        label: &str,
        expected_iterations: f64,
        incoming: Vec<PendingEdge>,
        branch_base: usize,
    ) -> Result<SeqResult, SchedError> {
        let expected_iterations = expected_iterations.max(0.0);
        // Header: executed before every exit test.
        let mut header_result = self.schedule_sequence(header, incoming, branch_base)?;
        if header_result.entry.is_none() {
            // The exit condition is a pre-existing value; the test still needs
            // a state of its own.
            let s = self.add_state();
            self.connect(&header_result.outgoing, s);
            header_result = SeqResult {
                outgoing: vec![PendingEdge {
                    from: s,
                    guard: Guard::Always,
                    probability: 1.0,
                }],
                expected: 1.0,
                entry: Some(s),
            };
        }
        let header_entry = header_result.entry.expect("header entry ensured above");

        // The Elp nodes run when the loop exits; they are free structural
        // operations placed at the header tail.
        let mut header_out = header_result.outgoing;
        let elp_extra = if end_nodes.is_empty() {
            0.0
        } else {
            self.place_tail_ops(&mut header_out, end_nodes)
        };

        let p_continue = expected_iterations / (expected_iterations + 1.0);
        // One guard allocation per loop; every routed edge clones the
        // interned label.
        let continue_guard = Guard::loop_back(label, true);
        let exit_guard = Guard::loop_back(label, false);
        // An overlapped iteration re-enters the body where the header's
        // edges enter it: the probe, last so the real edges' transitions
        // keep their order, records those routes.
        let header_nodes: Vec<NodeId> = impact_cdfg::region::collect_all_nodes(header);
        let overlappable = self.problem.config.loop_overlap && !header_nodes.is_empty();
        let mut body_incoming = Vec::with_capacity(header_out.len() + usize::from(overlappable));
        body_incoming.extend(header_out.iter().map(|e| PendingEdge {
            from: e.from,
            guard: continue_guard.clone(),
            probability: e.probability * p_continue,
        }));
        if overlappable {
            body_incoming.push(PendingEdge {
                from: ROUTE_PROBE,
                guard: continue_guard.clone(),
                probability: 1.0,
            });
        }
        let mut exit_edges = header_out;
        for e in &mut exit_edges {
            *e = PendingEdge {
                from: e.from,
                guard: exit_guard.clone(),
                probability: e.probability * (1.0 - p_continue),
            };
        }

        let body_base = branch_base + branch_count(header);
        let routes_start = self.routes.len();
        let mut body_result = self.schedule_sequence(body, body_incoming, body_base)?;
        // A probe that crossed the body without entering a state stands for
        // an iteration that runs none of it; it leaves no back edge.
        body_result.outgoing.retain(|e| e.from != ROUTE_PROBE);

        if body_result.entry.is_none() {
            // Degenerate loop with an empty body: only the header repeats.
            // Close the back-edge onto the header itself.
            for e in &body_result.outgoing {
                self.stg
                    .add_transition(e.from, header_entry, e.guard.clone(), e.probability);
            }
            self.routes.truncate(routes_start);
            return Ok(SeqResult {
                outgoing: exit_edges,
                expected: (expected_iterations + 1.0) * header_result.expected + elp_extra,
                entry: Some(header_entry),
            });
        }
        // Implicit loop unrolling: try to replicate the header operations in
        // the body's tail states so the next iteration skips the header.
        let overlap = overlappable && self.can_place_at_tails(&body_result.outgoing, &header_nodes);

        let mut outgoing = exit_edges;
        if overlap {
            let mut body_out = body_result.outgoing;
            let extra = self.place_tail_ops(&mut body_out, &header_nodes);
            debug_assert_eq!(extra, 0.0, "placement feasibility was checked");
            for e in &body_out {
                // Back into the body the way the header entered it (the
                // header already executed here) …
                let back = e.probability * p_continue;
                for (to, guard, factor) in &self.routes[routes_start..] {
                    self.stg
                        .add_transition(e.from, *to, guard.clone(), back * factor);
                }
                // … or leave the loop.
                outgoing.push(PendingEdge {
                    from: e.from,
                    guard: exit_guard.clone(),
                    probability: e.probability * (1.0 - p_continue),
                });
            }
            self.routes.truncate(routes_start);
            let expected =
                header_result.expected + elp_extra + expected_iterations * body_result.expected;
            Ok(SeqResult {
                outgoing,
                expected,
                entry: Some(header_entry),
            })
        } else {
            for e in &body_result.outgoing {
                self.stg
                    .add_transition(e.from, header_entry, e.guard.clone(), e.probability);
            }
            self.routes.truncate(routes_start);
            let expected = (expected_iterations + 1.0) * header_result.expected
                + elp_extra
                + expected_iterations * body_result.expected;
            Ok(SeqResult {
                outgoing,
                expected,
                entry: Some(header_entry),
            })
        }
    }

    /// Schedules a run of independent loops as one merged loop iterating
    /// `max` of their expected trip counts; their headers and bodies are
    /// packed together under the shared resource constraints.
    fn schedule_merged_loops(
        &mut self,
        loops: &[&Region],
        incoming: Vec<PendingEdge>,
        branch_base: usize,
    ) -> Result<SeqResult, SchedError> {
        let mut header_nodes = Vec::new();
        let mut body_nodes = Vec::new();
        let mut end_nodes = Vec::new();
        let mut label = String::new();
        let mut expected_iterations = 0.0f64;
        for region in loops {
            let Region::Loop(info) = region else {
                unreachable!("mergeable_loop_run only returns loop regions")
            };
            header_nodes.extend(impact_cdfg::region::collect_all_nodes(&info.header));
            body_nodes.extend(impact_cdfg::region::collect_all_nodes(&info.body));
            end_nodes.extend_from_slice(&info.end_nodes);
            let e = self
                .problem
                .profile
                .loop_stats(&info.label)
                .average_iterations();
            if e >= expected_iterations {
                expected_iterations = e;
                label = info.label.clone();
            }
        }
        let header = vec![Region::Block(header_nodes)];
        let body = vec![Region::Block(body_nodes)];
        self.schedule_loop(
            &header,
            &body,
            &end_nodes,
            &label,
            expected_iterations,
            incoming,
            branch_base,
        )
    }

    /// Returns `true` if `nodes` can be appended (chained) to every distinct
    /// tail state of `edges` without violating the clock or reusing a busy
    /// functional unit. Leaves those tail states, sorted, in `self.tails`.
    fn can_place_at_tails(&mut self, edges: &[PendingEdge], nodes: &[NodeId]) -> bool {
        self.tails.clear();
        self.tails.extend(
            edges
                .iter()
                .map(|e| e.from)
                .filter(|&from| from != ROUTE_PROBE),
        );
        self.tails.sort_unstable();
        self.tails.dedup();
        let clock = self.problem.config.clock_ns;
        let overhead = self.problem.config.chaining_overhead;
        let node_fu = &self.problem.node_fu;
        for &state in &self.tails {
            let s = self.stg.state(state);
            let mut occupancy = s.occupancy_ns();
            // The busy-unit sets here are a handful of entries; a linear
            // probe beats hashing.
            let used = &mut self.busy_units;
            used.clear();
            used.extend(s.ops.iter().filter_map(|op| node_fu[op.node.index()]));
            for &node in nodes {
                if let Some(fu) = node_fu[node.index()] {
                    if used.contains(&fu) {
                        return false;
                    }
                    used.push(fu);
                }
                let delay = self.problem.node_delays[node.index()];
                let effective = if occupancy > 0.0 {
                    delay * (1.0 + overhead)
                } else {
                    delay
                };
                occupancy += effective;
                if occupancy > clock + 1e-9 {
                    return false;
                }
            }
        }
        true
    }

    /// Appends `nodes` to the tail states of `edges`, chaining them after the
    /// current occupancy. When they do not fit, one new state is created,
    /// every edge is redirected into it and the returned value is 1.0 (the
    /// extra expected cycle); otherwise 0.0.
    fn place_tail_ops(&mut self, edges: &mut Vec<PendingEdge>, nodes: &[NodeId]) -> f64 {
        if nodes.is_empty() || edges.is_empty() {
            return 0.0;
        }
        let overhead = self.problem.config.chaining_overhead;
        if self.can_place_at_tails(edges, nodes) {
            for &state in &self.tails {
                let mut occupancy = self.stg.state(state).occupancy_ns();
                for &node in nodes {
                    let delay = self.problem.node_delays[node.index()];
                    let effective = if occupancy > 0.0 {
                        delay * (1.0 + overhead)
                    } else {
                        delay
                    };
                    self.stg.add_op(
                        state,
                        ScheduledOp::new(node, occupancy, occupancy + effective),
                    );
                    occupancy += effective;
                }
            }
            0.0
        } else {
            let state = self.add_state();
            let mut occupancy = 0.0;
            for &node in nodes {
                let delay = self.problem.node_delays[node.index()];
                let effective = if occupancy > 0.0 {
                    delay * (1.0 + overhead)
                } else {
                    delay
                };
                self.stg.add_op(
                    state,
                    ScheduledOp::new(node, occupancy, occupancy + effective),
                );
                occupancy += effective;
            }
            self.connect(edges, state);
            edges.clear();
            edges.push(PendingEdge {
                from: state,
                guard: Guard::Always,
                probability: 1.0,
            });
            1.0
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::problem::uniform_problem;
    use impact_behsim::simulate;
    use impact_hdl::compile;

    fn schedule_both(src: &str, inputs: &[Vec<i64>]) -> (Schedule, Schedule) {
        let cdfg = compile(src).unwrap();
        let trace = simulate(&cdfg, inputs).unwrap();
        let problem = uniform_problem(&cdfg, trace.profile());
        let base = BaselineScheduler::new().schedule(&problem).unwrap();
        let wave = WaveScheduler::new().schedule(&problem).unwrap();
        (base, wave)
    }

    #[test]
    fn straight_line_designs_schedule_into_a_valid_stg() {
        let (base, wave) = schedule_both(
            "design d { input a: 8, b: 8; output y: 8; y = a + b; }",
            &[vec![1, 2]],
        );
        for result in [&base, &wave] {
            assert!(result.stg.validate().is_ok());
            assert!(result.enc >= 1.0);
        }
        assert!(wave.enc <= base.enc);
    }

    #[test]
    fn a_summary_is_the_enc_clock_and_counts_of_its_graph() {
        let (base, wave) = schedule_both(
            "design d { input a: 8; output y: 16; var s: 16 = 0; var i: 8;
               for (i = 0; i < 4; i = i + 1) { if (a > 3) { s = s + a; } }
               y = s; }",
            &[vec![2], vec![9]],
        );
        for schedule in [&base, &wave] {
            let summary = schedule.summary();
            assert_eq!(summary.enc.to_bits(), schedule.enc.to_bits());
            assert_eq!(summary.clock_ns, schedule.stg.clock_ns());
            assert_eq!(summary.state_count, schedule.stg.state_count());
            assert_eq!(summary.transition_count, schedule.stg.transition_count());
            assert!(summary.transition_count > summary.state_count);
        }
    }

    #[test]
    fn chaining_reduces_enc_on_dependent_chains() {
        let (base, wave) = schedule_both(
            "design d { input a: 8; output y: 8; var t: 8; t = a && 1; y = t || a; }",
            &[vec![1]],
        );
        // Logic operations are 3 ns each, so Wavesched chains them into far
        // fewer states than the baseline.
        assert!(wave.enc < base.enc);
    }

    #[test]
    fn loops_scale_enc_with_trip_count() {
        let (base, _wave) = schedule_both(
            "design d { input a: 8; output y: 16; var s: 16 = 0; var i: 8;
               for (i = 0; i < 10; i = i + 1) { s = s + a; }
               y = s; }",
            &[vec![2]],
        );
        // Ten iterations of a multi-state body dominate the ENC.
        assert!(base.enc > 10.0);
        assert!(base.stg.validate().is_ok());
    }

    #[test]
    fn wavesched_never_increases_enc_across_designs() {
        let designs = [
            "design a { input x: 8; output y: 8; if (x > 3) { y = x + 1; } else { y = x - 1; } }",
            "design b { input x: 8, z: 8; output y: 16; var s: 16 = 0; var i: 8;
               for (i = 0; i < 6; i = i + 1) { s = s + x * z; }
               y = s; }",
            "design c { input a: 8, b: 8; output g: 8; var x: 8; var y: 8;
               x = a; y = b;
               while (x != y) { if (x > y) { x = x - y; } else { y = y - x; } }
               g = x; }",
        ];
        let inputs: Vec<Vec<Vec<i64>>> = vec![
            vec![vec![1], vec![9]],
            vec![vec![3, 4], vec![5, 6]],
            vec![vec![12, 18], vec![7, 21]],
        ];
        for (src, ins) in designs.iter().zip(inputs) {
            let (base, wave) = schedule_both(src, &ins);
            assert!(
                wave.enc <= base.enc + 1e-9,
                "wavesched ENC {} exceeds baseline {} for {src}",
                wave.enc,
                base.enc
            );
        }
    }

    #[test]
    fn concurrent_loops_are_merged_when_independent() {
        // Two independent accumulation loops over different variables.
        let src = "design d { input a: 8, b: 8; output y: 16, z: 16;
             var s1: 16 = 0; var s2: 16 = 0; var i: 8 = 0; var j: 8 = 0;
             while (i < 8) { s1 = s1 + a; i = i + 1; }
             while (j < 8) { s2 = s2 + b; j = j + 1; }
             y = s1; z = s2; }";
        let cdfg = compile(src).unwrap();
        let trace = simulate(&cdfg, &[vec![1, 2]]).unwrap();
        let problem = uniform_problem(&cdfg, trace.profile());
        let wave = WaveScheduler::new().schedule(&problem).unwrap();
        let base = BaselineScheduler::new().schedule(&problem).unwrap();
        // Running both loops concurrently roughly halves the loop cycles.
        assert!(
            wave.enc < 0.75 * base.enc,
            "concurrent loop optimization should cut the ENC substantially ({} vs {})",
            wave.enc,
            base.enc
        );
        assert!(wave.stg.validate().is_ok());
    }

    #[test]
    fn dependent_loops_are_not_merged() {
        // The second loop consumes the first loop's result.
        let src = "design d { input a: 8; output y: 16;
             var s1: 16 = 0; var s2: 16 = 0; var i: 8 = 0; var j: 8 = 0;
             while (i < 4) { s1 = s1 + a; i = i + 1; }
             while (j < 4) { s2 = s2 + s1; j = j + 1; }
             y = s2; }";
        let cdfg = compile(src).unwrap();
        let trace = simulate(&cdfg, &[vec![1]]).unwrap();
        let problem = uniform_problem(&cdfg, trace.profile());
        let wave = WaveScheduler::new().schedule(&problem).unwrap();
        // Both loops must still execute their iterations sequentially: the
        // ENC reflects at least 8 body executions.
        assert!(
            wave.enc >= 8.0,
            "dependent loops must not be merged (ENC {})",
            wave.enc
        );
    }

    #[test]
    fn branch_probabilities_weight_the_enc() {
        let src = "design d { input x: 8; output y: 16;
             var s: 16 = 0; var i: 8;
             if (x > 100) {
               for (i = 0; i < 10; i = i + 1) { s = s + x; }
             } else {
               s = x;
             }
             y = s; }";
        let cdfg = compile(src).unwrap();
        // Mostly take the cheap path.
        let cheap: Vec<Vec<i64>> = (0..9).map(|v| vec![v]).collect();
        let trace_cheap = simulate(&cdfg, &cheap).unwrap();
        let p_cheap = uniform_problem(&cdfg, trace_cheap.profile());
        let enc_cheap = WaveScheduler::new().schedule(&p_cheap).unwrap().enc;
        // Mostly take the expensive loop path.
        let costly: Vec<Vec<i64>> = (0..9).map(|v| vec![120 + v]).collect();
        let trace_costly = simulate(&cdfg, &costly).unwrap();
        let p_costly = uniform_problem(&cdfg, trace_costly.profile());
        let enc_costly = WaveScheduler::new().schedule(&p_costly).unwrap().enc;
        assert!(
            enc_costly > 2.0 * enc_cheap,
            "loop-heavy profile must have much larger ENC ({enc_costly} vs {enc_cheap})"
        );
    }

    #[test]
    fn stg_expected_cycles_is_consistent_with_hierarchical_enc() {
        let src = "design d { input a: 8, b: 8; output g: 8; var x: 8; var y: 8;
             x = a; y = b;
             while (x != y) { if (x > y) { x = x - y; } else { y = y - x; } }
             g = x; }";
        let cdfg = compile(src).unwrap();
        let trace = simulate(&cdfg, &[vec![48, 36], vec![15, 40]]).unwrap();
        let problem = uniform_problem(&cdfg, trace.profile());
        let result = BaselineScheduler::new().schedule(&problem).unwrap();
        let markov = result.stg.expected_cycles();
        let relative = (markov - result.enc).abs() / result.enc;
        assert!(
            relative < 0.35,
            "Markov ENC {markov} and hierarchical ENC {} diverge too much",
            result.enc
        );
    }

    #[test]
    fn every_computational_node_is_scheduled_at_least_once() {
        let src = "design d { input a: 8, b: 8; output y: 16;
             var s: 16 = 0; var i: 8;
             for (i = 0; i < 5; i = i + 1) {
               if (a > b) { s = s + a; } else { s = s + b; }
             }
             y = s; }";
        let cdfg = compile(src).unwrap();
        let trace = simulate(&cdfg, &[vec![3, 9]]).unwrap();
        let problem = uniform_problem(&cdfg, trace.profile());
        for result in [
            BaselineScheduler::new().schedule(&problem).unwrap(),
            WaveScheduler::new().schedule(&problem).unwrap(),
        ] {
            for (id, node) in cdfg.nodes() {
                if node.operation.needs_functional_unit() {
                    assert!(
                        result.stg.state_of(id).is_some(),
                        "node {id} ({}) missing from the schedule",
                        node.operation
                    );
                }
            }
        }
    }

    #[test]
    fn incomplete_problems_are_rejected() {
        let cdfg = compile("design d { input a: 8; output y: 8; y = a + 1; }").unwrap();
        let trace = simulate(&cdfg, &[vec![1]]).unwrap();
        let mut problem = uniform_problem(&cdfg, trace.profile());
        problem.node_delays.pop();
        assert!(matches!(
            WaveScheduler::new().schedule(&problem),
            Err(SchedError::IncompleteProblem { .. })
        ));
    }
}
