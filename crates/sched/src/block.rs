//! Resource- and clock-constrained list scheduling of one basic block.

use std::collections::{HashMap, HashSet};

use impact_cdfg::fingerprint::FingerprintHasher;
use impact_cdfg::NodeId;

use crate::error::SchedError;
use crate::problem::SchedulingProblem;

/// One operation placed by the block scheduler.
#[derive(Clone, PartialEq, Debug)]
pub struct PlacedOp {
    /// The scheduled node.
    pub node: NodeId,
    /// State index within the block (0-based).
    pub state: usize,
    /// Start offset within its first state, in nanoseconds.
    pub start_ns: f64,
    /// Total delay of the operation, in nanoseconds (may exceed the clock for
    /// multi-cycle operations).
    pub delay_ns: f64,
    /// Index of the state in which the result becomes available.
    pub finish_state: usize,
    /// Offset within `finish_state` at which the result is available.
    pub finish_ns: f64,
}

/// The schedule of one basic block: a dense sequence of states.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct BlockSchedule {
    /// Placed operations.
    pub ops: Vec<PlacedOp>,
    /// Number of states used.
    pub state_count: usize,
}

/// The most clock periods one operation may span. A multi-cycle operation
/// takes one state per period, so a tiny clock would otherwise place states
/// without bound; [`schedule_block`] rejects a slower node before it places
/// any. No library operation comes near it: the slowest, a serial divider at
/// 255 bits, spans about 4,500 periods of a 15 ns clock at 1.2 V.
pub(crate) const MAX_SPAN_PERIODS: u32 = 1 << 16;

/// Content digest of everything [`schedule_block`] reads for one block:
/// the node list (ids in order — the CDFG behind them is pinned by the
/// caller's workload scope), the exact per-node delay bits and
/// functional-unit binding, and the configuration fields the block scheduler
/// consults (clock period, chaining flag, chaining overhead). The
/// hierarchical knobs (`concurrent_loops`, `loop_overlap`) are deliberately
/// excluded — they shape the *composition*, never a block's internal
/// schedule — so baseline and overlapping compositions share block entries.
///
/// Two blocks with equal digests schedule identically, which is what lets a
/// cache serve one [`BlockSchedule`] to every design, supply level and sweep
/// run that perturbs only other blocks.
pub fn block_digest(problem: &SchedulingProblem<'_>, nodes: &[NodeId]) -> u128 {
    let mut h = FingerprintHasher::new();
    h.write_tag(0x5B);
    h.write_f64(problem.config.clock_ns);
    h.write_u64(u64::from(problem.config.chaining));
    h.write_f64(problem.config.chaining_overhead);
    h.write_u64(nodes.len() as u64);
    for &node in nodes {
        h.write_u64(node.index() as u64);
        h.write_f64(problem.node_delays[node.index()]);
        h.write_u64(problem.node_fu[node.index()].map_or(0, |f| f as u64 + 1));
    }
    h.finish().as_u128()
}

/// Schedules the nodes of one basic block.
///
/// Dependences are the same-iteration data-dependence edges restricted to the
/// nodes of the block; predecessors outside the block are assumed to have
/// completed in earlier states. Operations bound to the same functional unit
/// never overlap, chained delays carry the configured overhead, and
/// operations slower than the clock become multi-cycle.
///
/// # Errors
///
/// Returns [`SchedError::InvalidClock`] if the clock period is not finite
/// and positive, [`SchedError::IncompleteProblem`] if the per-node tables
/// are too short, [`SchedError::OperationTooSlow`] if a node's delay spans
/// more than 2^16 clock periods and [`SchedError::DependenceCycle`] if the
/// block's dependence graph is cyclic.
pub fn schedule_block(
    problem: &SchedulingProblem<'_>,
    nodes: &[NodeId],
) -> Result<BlockSchedule, SchedError> {
    SchedError::check_clock(problem.config.clock_ns)?;
    if nodes.is_empty() {
        return Ok(BlockSchedule::default());
    }
    let required = nodes.iter().map(|n| n.index() + 1).max().unwrap_or(0);
    if problem.node_delays.len() < required || problem.node_fu.len() < required {
        return Err(SchedError::IncompleteProblem {
            nodes: problem.cdfg.node_count(),
            provided: problem.node_delays.len().min(problem.node_fu.len()),
        });
    }

    let clock = problem.config.clock_ns;
    for &node in nodes {
        let delay_ns = problem.node_delays[node.index()];
        let periods = delay_ns / clock;
        if periods > f64::from(MAX_SPAN_PERIODS) {
            return Err(SchedError::OperationTooSlow {
                node,
                delay_ns,
                clock_ns: clock,
                states_needed: periods.ceil() as u32,
            });
        }
    }
    let overhead = problem.config.chaining_overhead;
    let member: HashSet<NodeId> = nodes.iter().copied().collect();

    // Same-iteration predecessors restricted to the block.
    let mut preds: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    for &node in nodes {
        let p: Vec<NodeId> = problem
            .cdfg
            .data_predecessors_iter(node)
            .filter(|p| member.contains(p))
            .collect();
        preds.insert(node, p);
    }

    // Priority: delay-weighted height (longest downstream chain).
    let heights = heights(problem, nodes, &preds);

    let mut remaining: Vec<NodeId> = nodes.to_vec();
    let mut placed: HashMap<NodeId, PlacedOp> = HashMap::new();
    let mut schedule = BlockSchedule::default();
    // State index (exclusive) until which each functional unit is busy.
    let mut fu_busy_until: HashMap<usize, usize> = HashMap::new();
    let mut state = 0usize;

    while !remaining.is_empty() {
        let mut fu_used_this_state: HashSet<usize> = HashSet::new();
        let mut progressed = false;

        loop {
            // Gather candidates whose predecessors are all placed and
            // available in (or before) this state.
            let mut candidates: Vec<(NodeId, f64)> = Vec::new();
            for &node in &remaining {
                let Some(ready_at) = ready_time(node, &preds[&node], &placed, state, problem)
                else {
                    continue;
                };
                // Functional-unit availability.
                if let Some(fu) = problem.node_fu[node.index()] {
                    if fu_used_this_state.contains(&fu) {
                        continue;
                    }
                    if fu_busy_until.get(&fu).copied().unwrap_or(0) > state {
                        continue;
                    }
                }
                let delay = problem.node_delays[node.index()];
                let chained = ready_at > 0.0;
                if !chained || problem.config.chaining {
                    let effective = if chained {
                        delay * (1.0 + overhead)
                    } else {
                        delay
                    };
                    let fits_single = ready_at + effective <= clock + 1e-9;
                    let multicycle_ok = !chained && effective > clock;
                    if fits_single || multicycle_ok {
                        candidates.push((node, heights[&node]));
                    }
                }
            }
            if candidates.is_empty() {
                break;
            }
            candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("heights are finite"));
            let (node, _) = candidates[0];

            let ready_at = ready_time(node, &preds[&node], &placed, state, problem)
                .expect("candidate was ready");
            let delay = problem.node_delays[node.index()];
            let chained = ready_at > 0.0;
            let effective = if chained {
                delay * (1.0 + overhead)
            } else {
                delay
            };
            let (finish_state, finish_ns) = if ready_at + effective <= clock + 1e-9 {
                (state, ready_at + effective)
            } else {
                // Multi-cycle operation starting at the beginning of the state.
                let extra = ((effective - clock) / clock).ceil().max(0.0) as usize + 1;
                let finish_state = state + extra - 1;
                let finish_ns = effective - (extra as f64 - 1.0) * clock;
                (finish_state, finish_ns.max(0.0))
            };
            if let Some(fu) = problem.node_fu[node.index()] {
                fu_used_this_state.insert(fu);
                fu_busy_until.insert(fu, finish_state + 1);
            }
            placed.insert(
                node,
                PlacedOp {
                    node,
                    state,
                    start_ns: ready_at,
                    delay_ns: effective,
                    finish_state,
                    finish_ns,
                },
            );
            remaining.retain(|&n| n != node);
            progressed = true;
        }

        if !progressed {
            // Nothing fit in this state. That is fine while multi-cycle
            // operations are still in flight (or only just completed, with
            // chaining unable to use their tail) or units are busy; otherwise
            // the dependences can never be satisfied.
            let anything_in_flight = fu_busy_until.values().any(|&until| until > state)
                || placed.values().any(|op| op.finish_state >= state);
            let blocked_by_busy_unit = remaining.iter().any(|&n| {
                problem.node_fu[n.index()]
                    .map(|fu| fu_busy_until.get(&fu).copied().unwrap_or(0) > state)
                    .unwrap_or(false)
            });
            if !anything_in_flight && !blocked_by_busy_unit {
                return Err(SchedError::DependenceCycle { node: remaining[0] });
            }
        }
        state += 1;
    }

    schedule.state_count = placed
        .values()
        .map(|op| op.finish_state + 1)
        .max()
        .unwrap_or(0);
    let mut ops: Vec<PlacedOp> = placed.into_values().collect();
    ops.sort_by_key(|op| (op.state, op.node));
    schedule.ops = ops;
    Ok(schedule)
}

fn ready_time(
    node: NodeId,
    preds: &[NodeId],
    placed: &HashMap<NodeId, PlacedOp>,
    state: usize,
    problem: &SchedulingProblem<'_>,
) -> Option<f64> {
    let mut ready = 0.0f64;
    for &p in preds {
        let op = placed.get(&p)?;
        if op.finish_state > state {
            return None;
        }
        if op.finish_state == state {
            if !problem.config.chaining && op.state == state {
                // Without chaining a dependent operation must wait for the
                // next state.
                return None;
            }
            ready = ready.max(op.finish_ns);
        }
    }
    let _ = node;
    Some(ready)
}

fn heights(
    problem: &SchedulingProblem<'_>,
    nodes: &[NodeId],
    preds: &HashMap<NodeId, Vec<NodeId>>,
) -> HashMap<NodeId, f64> {
    // Process nodes in reverse program order; successors inside the block
    // always come later in program order, so one reverse sweep suffices.
    let mut succs: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    for (&node, ps) in preds {
        for &p in ps {
            succs.entry(p).or_default().push(node);
        }
    }
    let mut height: HashMap<NodeId, f64> = HashMap::new();
    for &node in nodes.iter().rev() {
        let own = problem.node_delays[node.index()];
        let down = succs
            .get(&node)
            .map(|list| {
                list.iter()
                    .map(|s| height.get(s).copied().unwrap_or(0.0))
                    .fold(0.0, f64::max)
            })
            .unwrap_or(0.0);
        height.insert(node, own + down);
    }
    height
}

// ---------------------------------------------------------------- snapshot codec

use impact_codec::{Decode, DecodeError, Decoder, Encode, Encoder};

/// Version tag of [`PlacedOp`]'s wire layout.
const TAG_PLACED_OP: u8 = 0x28;
/// Version tag of [`BlockSchedule`]'s wire layout.
const TAG_BLOCK_SCHEDULE: u8 = 0x29;

impl Encode for PlacedOp {
    fn encode(&self, w: &mut Encoder) {
        w.put_tag(TAG_PLACED_OP);
        self.node.encode(w);
        w.put_usize(self.state);
        w.put_f64(self.start_ns);
        w.put_f64(self.delay_ns);
        w.put_usize(self.finish_state);
        w.put_f64(self.finish_ns);
    }
}

impl Decode for PlacedOp {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        r.expect_tag(TAG_PLACED_OP)?;
        Ok(Self {
            node: Decode::decode(r)?,
            state: r.take_usize()?,
            start_ns: r.take_f64()?,
            delay_ns: r.take_f64()?,
            finish_state: r.take_usize()?,
            finish_ns: r.take_f64()?,
        })
    }
}

impl Encode for BlockSchedule {
    fn encode(&self, w: &mut Encoder) {
        w.put_tag(TAG_BLOCK_SCHEDULE);
        self.ops.encode(w);
        w.put_usize(self.state_count);
    }
}

impl Decode for BlockSchedule {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        r.expect_tag(TAG_BLOCK_SCHEDULE)?;
        Ok(Self {
            ops: Decode::decode(r)?,
            state_count: r.take_usize()?,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::problem::{uniform_problem, ScheduleConfig};
    use crate::{compose, RecordingBlocks, Scheduler};
    use impact_behsim::simulate;
    use impact_cdfg::Region;
    use impact_hdl::compile;

    fn first_block(cdfg: &impact_cdfg::Cdfg) -> Vec<NodeId> {
        match &cdfg.regions()[0] {
            Region::Block(nodes) => nodes.clone(),
            other => panic!("expected a block, found {other:?}"),
        }
    }

    fn problem_for(src: &str, inputs: &[Vec<i64>]) -> (impact_cdfg::Cdfg, Vec<Vec<i64>>) {
        let cdfg = compile(src).unwrap();
        (cdfg, inputs.to_vec())
    }

    #[test]
    fn independent_operations_share_a_state_on_different_units() {
        let (cdfg, inputs) = problem_for(
            "design d { input a: 8, b: 8; output y: 8, z: 8; y = a + 1; z = b + 2; }",
            &[vec![1, 2]],
        );
        let trace = simulate(&cdfg, &inputs).unwrap();
        let problem = uniform_problem(&cdfg, trace.profile());
        let block = first_block(&cdfg);
        let sched = schedule_block(&problem, &block).unwrap();
        // Two independent adds on two different adders plus the two chained
        // output transfers all fit in a single state.
        assert_eq!(sched.state_count, 1);
        assert_eq!(sched.ops.len(), block.len());
        assert!(sched.ops.iter().all(|op| op.state == 0));
    }

    #[test]
    fn shared_unit_serializes_independent_operations() {
        let (cdfg, inputs) = problem_for(
            "design d { input a: 8, b: 8; output y: 8, z: 8; y = a + 1; z = b + 2; }",
            &[vec![1, 2]],
        );
        let trace = simulate(&cdfg, &inputs).unwrap();
        let mut problem = uniform_problem(&cdfg, trace.profile());
        // Force both adds onto the same functional unit.
        let adds: Vec<usize> = cdfg
            .nodes()
            .filter(|(_, n)| n.operation == impact_cdfg::Operation::Add)
            .map(|(id, _)| id.index())
            .collect();
        let shared = problem.node_fu[adds[0]];
        problem.node_fu[adds[1]] = shared;
        let block = first_block(&cdfg);
        let sched = schedule_block(&problem, &block).unwrap();
        assert!(
            sched.state_count >= 2,
            "one adder cannot do two adds in one state"
        );
    }

    #[test]
    fn chaining_packs_dependent_operations_into_one_state() {
        let (cdfg, inputs) = problem_for(
            "design d { input a: 8; output y: 8; y = (a + 1) + 2; }",
            &[vec![1]],
        );
        let trace = simulate(&cdfg, &inputs).unwrap();
        let mut problem = uniform_problem(&cdfg, trace.profile());
        // Shrink the adder delays so two chained adds fit in one 15 ns cycle.
        for d in problem.node_delays.iter_mut() {
            if *d > 5.0 {
                *d = 6.0;
            }
        }
        let block = first_block(&cdfg);
        let chained = schedule_block(&problem, &block).unwrap();
        // 6 + 6·1.1 ≈ 12.6 ns fits in 15 ns, but the dependent output
        // transfer (12.6 + 3.3 ns) spills into a second state.
        assert_eq!(chained.state_count, 2);

        problem.config = ScheduleConfig::baseline();
        let unchained = schedule_block(&problem, &block).unwrap();
        assert_eq!(
            unchained.state_count, 3,
            "without chaining every dependent operation needs its own state"
        );
    }

    #[test]
    fn chaining_overhead_is_applied() {
        let (cdfg, inputs) = problem_for(
            "design d { input a: 8; output y: 8; y = (a + 1) + 2; }",
            &[vec![1]],
        );
        let trace = simulate(&cdfg, &inputs).unwrap();
        let mut problem = uniform_problem(&cdfg, trace.profile());
        // 8 + 8·1.1 = 16.8 ns > 15 ns: chaining must NOT happen even though
        // 8 + 8 = 16 > 15 would already fail, so use 7: 7 + 7.7 = 14.7 fits,
        // but with a 20% overhead 7 + 8.4 = 15.4 does not.
        for d in problem.node_delays.iter_mut() {
            if *d > 5.0 {
                *d = 7.0;
            }
        }
        problem.config.chaining_overhead = 0.20;
        let block = first_block(&cdfg);
        let sched = schedule_block(&problem, &block).unwrap();
        assert_eq!(sched.state_count, 2);
    }

    #[test]
    fn slow_operations_become_multi_cycle() {
        let (cdfg, inputs) = problem_for(
            "design d { input a: 8, b: 8; output y: 16; y = a * b + 1; }",
            &[vec![3, 4]],
        );
        let trace = simulate(&cdfg, &inputs).unwrap();
        let problem = uniform_problem(&cdfg, trace.profile());
        let block = first_block(&cdfg);
        let sched = schedule_block(&problem, &block).unwrap();
        // The 16-bit multiply takes well over one 15 ns cycle; the dependent
        // add must wait for its final state.
        let mul = sched
            .ops
            .iter()
            .find(|op| cdfg.node(op.node).operation == impact_cdfg::Operation::Mul)
            .unwrap();
        assert!(
            mul.finish_state > mul.state,
            "multiply spans several states"
        );
        let add = sched
            .ops
            .iter()
            .find(|op| cdfg.node(op.node).operation == impact_cdfg::Operation::Add)
            .unwrap();
        assert!(add.state >= mul.finish_state);
        assert!(sched.state_count > mul.finish_state);
    }

    #[test]
    fn empty_block_produces_empty_schedule() {
        let (cdfg, inputs) =
            problem_for("design d { input a: 8; output y: 8; y = a; }", &[vec![1]]);
        let trace = simulate(&cdfg, &inputs).unwrap();
        let problem = uniform_problem(&cdfg, trace.profile());
        let sched = schedule_block(&problem, &[]).unwrap();
        assert_eq!(sched.state_count, 0);
        assert!(sched.ops.is_empty());
    }

    /// A design with several non-empty blocks: the code around the loop, the
    /// loop header and both branch sides.
    const BLOCKY: &str = "design d { input a: 8, b: 8; output y: 16; var s: 16 = 0; var i: 8;
         for (i = 0; i < 4; i = i + 1) {
           if (a > b) { s = s + a * 2; } else { s = s - b; }
         }
         y = s; }";

    /// The non-empty blocks of `problem`'s design, as the composer requests
    /// them.
    fn nonempty_blocks(problem: &SchedulingProblem<'_>) -> Vec<Vec<NodeId>> {
        let mut recorded = RecordingBlocks::default();
        compose(problem, &mut recorded).unwrap();
        let blocks: Vec<Vec<NodeId>> = recorded
            .blocks
            .into_iter()
            .map(|(nodes, _)| nodes)
            .filter(|nodes| !nodes.is_empty())
            .collect();
        assert!(blocks.len() >= 4, "{} non-empty blocks", blocks.len());
        blocks
    }

    #[test]
    fn block_digests_track_the_delays_and_binding_of_their_own_nodes_only() {
        let cdfg = compile(BLOCKY).unwrap();
        let trace = simulate(&cdfg, &[vec![3, 1], vec![1, 3]]).unwrap();
        let problem = uniform_problem(&cdfg, trace.profile());
        let blocks = nonempty_blocks(&problem);
        for block in &blocks {
            let base = block_digest(&problem, block);
            assert_eq!(base, block_digest(&problem.clone(), block));
            for index in 0..problem.node_delays.len() {
                let inside = block.iter().any(|n| n.index() == index);
                // The lowest bit of the delay: the digest keys exact bits.
                let mut nudged = problem.clone();
                let delay = &mut nudged.node_delays[index];
                *delay = f64::from_bits(delay.to_bits() ^ 1);
                let mut rebound = problem.clone();
                rebound.node_fu[index] = Some(991);
                for (changed, what) in [(nudged, "delay bits"), (rebound, "binding")] {
                    assert_eq!(
                        block_digest(&changed, block) != base,
                        inside,
                        "node {index}'s {what} (inside the block: {inside})"
                    );
                }
            }
        }
    }

    #[test]
    fn block_digests_track_the_block_scheduler_config_only() {
        let cdfg = compile(BLOCKY).unwrap();
        let trace = simulate(&cdfg, &[vec![3, 1], vec![1, 3]]).unwrap();
        let problem = uniform_problem(&cdfg, trace.profile());
        let blocks = nonempty_blocks(&problem);
        let with = |change: fn(&mut ScheduleConfig)| {
            let mut changed = problem.clone();
            change(&mut changed.config);
            changed
        };
        let read = [
            ("the clock", with(|c| c.clock_ns = 21.5)),
            ("the chaining flag", with(|c| c.chaining = !c.chaining)),
            ("the chaining overhead", with(|c| c.chaining_overhead = 0.2)),
        ];
        // The composition knobs shape how blocks are put together, never a
        // block's own schedule.
        let ignored = [
            (
                "concurrent loops",
                with(|c| c.concurrent_loops = !c.concurrent_loops),
            ),
            ("loop overlap", with(|c| c.loop_overlap = !c.loop_overlap)),
        ];
        for block in &blocks {
            let base = block_digest(&problem, block);
            for (what, changed) in &read {
                assert_ne!(block_digest(changed, block), base, "{what}");
            }
            for (what, changed) in &ignored {
                assert_eq!(block_digest(changed, block), base, "{what}");
            }
        }
    }

    #[test]
    fn clocks_that_are_not_finite_and_positive_are_rejected() {
        // Each scheduler entry rejects them before it times a state; a zero
        // period would overflow the multi-cycle span. A tiny positive period
        // is timed, but every node spans more than `MAX_SPAN_PERIODS` of it,
        // so each non-empty block is rejected before it places a state.
        let cdfg = compile(BLOCKY).unwrap();
        let trace = simulate(&cdfg, &[vec![3, 1], vec![1, 3]]).unwrap();
        let problem = uniform_problem(&cdfg, trace.profile());
        let blocks = nonempty_blocks(&problem);
        for clock_ns in [0.0, -5.0, f64::INFINITY, f64::NAN, 1e-6] {
            let valid = clock_ns.is_finite() && clock_ns > 0.0;
            let mut hostile = problem.clone();
            hostile.config.clock_ns = clock_ns;
            let rejected = |result: Result<(), SchedError>| {
                let error = result.unwrap_err();
                let reported = match error {
                    SchedError::InvalidClock { clock_ns } if !valid => clock_ns,
                    SchedError::OperationTooSlow {
                        clock_ns,
                        states_needed,
                        ..
                    } if valid && states_needed > MAX_SPAN_PERIODS => clock_ns,
                    _ => panic!("clock {clock_ns}: {error}"),
                };
                assert_eq!(reported.to_bits(), clock_ns.to_bits());
            };
            let empty = (!valid).then_some(&[][..]);
            for block in blocks.iter().map(Vec::as_slice).chain(empty) {
                rejected(schedule_block(&hostile, block).map(drop));
            }
            rejected(compose(&hostile, &mut crate::InlineBlocks).map(drop));
            rejected(crate::WaveScheduler.schedule(&hostile).map(drop));
            rejected(crate::BaselineScheduler.schedule(&hostile).map(drop));
        }
    }

    #[test]
    fn priorities_favor_the_critical_path() {
        // y needs a long chain (mul then add); z is a single cheap op. With a
        // single shared adder the chain's add should not be starved at the end.
        let (cdfg, inputs) = problem_for(
            "design d { input a: 8, b: 8; output y: 16, z: 8; y = a * b + 1; z = a + 2; }",
            &[vec![3, 4]],
        );
        let trace = simulate(&cdfg, &inputs).unwrap();
        let problem = uniform_problem(&cdfg, trace.profile());
        let block = first_block(&cdfg);
        let sched = schedule_block(&problem, &block).unwrap();
        assert!(sched.state_count >= 2);
        // All four operations were placed exactly once.
        assert_eq!(sched.ops.len(), block.len());
    }
}
