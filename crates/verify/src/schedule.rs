//! Schedule legality rules.

use std::collections::HashMap;

use impact_cdfg::NodeId;
use impact_sched::{
    compose, BlockSchedule, RecordingBlocks, Schedule, SchedulingProblem, SchedulingResult,
};
use impact_stg::Stg;

use crate::{rules, Violation, ENC_EPS, TIME_EPS};

/// Tolerance for the arithmetic relation between a placed operation's state
/// span and its delay (accumulated floating-point error, looser than
/// [`TIME_EPS`]).
const SPAN_EPS: f64 = 1e-6;

/// Internal consistency of one block schedule, independent of the problem
/// it was derived from. With `clock_ns` given, also checks that every
/// operation fits the period. Locations are per-node; aggregate callers
/// qualify them via [`Violation::at`].
pub fn verify_block_schedule(schedule: &BlockSchedule, clock_ns: Option<f64>) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut seen: HashMap<NodeId, usize> = HashMap::new();
    for op in &schedule.ops {
        *seen.entry(op.node).or_insert(0) += 1;
    }
    for (node, count) in seen {
        if count > 1 {
            violations.push(Violation::error(
                rules::SCHED_COVERAGE,
                format!("node {}", node.index()),
                format!("operation placed {count} times in one block"),
            ));
        }
    }
    for op in &schedule.ops {
        let location = format!("node {}", op.node.index());
        if op.finish_state < op.state {
            violations.push(Violation::error(
                rules::SCHED_CLOCK,
                location.clone(),
                format!(
                    "operation finishes in state {} before its start state {}",
                    op.finish_state, op.state
                ),
            ));
            continue;
        }
        if op.finish_state >= schedule.state_count {
            violations.push(Violation::error(
                rules::SCHED_CLOCK,
                location.clone(),
                format!(
                    "finish state {} outside the block's {} states",
                    op.finish_state, schedule.state_count
                ),
            ));
        }
        if op.start_ns < -TIME_EPS || op.delay_ns < -TIME_EPS || op.finish_ns < -TIME_EPS {
            violations.push(Violation::error(
                rules::SCHED_CLOCK,
                location.clone(),
                "negative start, delay or finish time",
            ));
        }
        if let Some(clock) = clock_ns {
            if op.finish_ns > clock + TIME_EPS {
                violations.push(Violation::error(
                    rules::SCHED_CLOCK,
                    location.clone(),
                    format!(
                        "operation finishes {:.4} ns into a {:.4} ns clock period",
                        op.finish_ns, clock
                    ),
                ));
            }
            let span = (op.finish_state - op.state) as f64 * clock + op.finish_ns - op.start_ns;
            if (span - op.delay_ns).abs() > SPAN_EPS {
                violations.push(Violation::error(
                    rules::SCHED_CLOCK,
                    location.clone(),
                    format!(
                        "state span covers {span:.4} ns but the operation's delay is {:.4} ns",
                        op.delay_ns
                    ),
                ));
            }
        }
    }
    violations
}

/// Problem-independent invariants of a schedule summary: a finite
/// non-negative ENC, a finite positive clock period and at least one state.
/// A stored summary names neither its problem nor its graph, so this is what
/// an audit of a cache or a snapshot can check of it.
pub fn verify_summary_artifact(summary: &SchedulingResult) -> Vec<Violation> {
    let mut violations = Vec::new();
    if !summary.enc.is_finite() || summary.enc < 0.0 {
        violations.push(Violation::error(
            rules::SCHED_ENC,
            "schedule",
            format!("ENC {} is not a finite non-negative number", summary.enc),
        ));
    }
    if !summary.clock_ns.is_finite() || summary.clock_ns <= 0.0 {
        violations.push(Violation::error(
            rules::SCHED_STG,
            "schedule",
            format!(
                "clock period {} ns is not a finite positive number",
                summary.clock_ns
            ),
        ));
    }
    if summary.state_count == 0 {
        violations.push(Violation::error(
            rules::SCHED_STG,
            "schedule",
            "a schedule has at least one state",
        ));
    }
    violations
}

/// Problem-independent invariants of a full schedule: its state-transition
/// graph validates, and its summary passes [`verify_summary_artifact`].
pub fn verify_schedule_artifact(schedule: &Schedule) -> Vec<Violation> {
    let mut violations = Vec::new();
    if let Err(e) = schedule.stg.validate() {
        violations.push(Violation::error(
            rules::SCHED_STG,
            "stg",
            format!("state-transition graph fails validation: {e}"),
        ));
    }
    violations.extend(verify_summary_artifact(&schedule.summary()));
    violations
}

/// Audits a full schedule against the [`SchedulingProblem`] it claims to
/// solve: everything [`verify_schedule_artifact`] checks, coverage of every
/// schedulable operation, and its summary against the problem as
/// [`verify_summary`] checks one — which composes the problem again, inline
/// through [`RecordingBlocks`]. The stored STG must also equal that
/// composition's graph bit for bit. A schedule composed from a block source
/// that served a wrong block, legal on its own but not the problem's, fails
/// that comparison even where every number of its summary is right.
pub fn verify_schedule(
    problem: &SchedulingProblem<'_>,
    schedule: &Schedule,
    enc_limit: Option<f64>,
) -> Vec<Violation> {
    let mut violations = verify_schedule_artifact(schedule);
    violations.extend(coverage_violations(problem, &schedule.stg));
    let composed = check_against_problem(problem, &schedule.summary(), enc_limit, &mut violations);
    if composed.is_some_and(|composed| composed.stg != schedule.stg) {
        violations.push(Violation::error(
            rules::SCHED_STG,
            "stg",
            "stored graph differs from the one the problem composes to",
        ));
    }
    violations
}

/// Audits a schedule summary against the [`SchedulingProblem`] it claims to
/// summarize: everything [`verify_summary_artifact`] checks, the clock
/// against the problem's and — when `enc_limit` is given — the ENC within
/// budget (± [`ENC_EPS`]).
///
/// A summary keeps neither its graph nor its blocks, so the audit composes
/// the problem again, inline through [`RecordingBlocks`]: every block of that
/// composition must pass [`verify_block`], the composed schedule must pass
/// [`verify_schedule_artifact`] and cover every schedulable operation, and
/// the summary must equal the composition's field by field, bit for bit
/// (the ENC under [`rules::SCHED_ENC`], the clock and the counts under
/// [`rules::SCHED_STG`]).
pub fn verify_summary(
    problem: &SchedulingProblem<'_>,
    summary: &SchedulingResult,
    enc_limit: Option<f64>,
) -> Vec<Violation> {
    let mut violations = verify_summary_artifact(summary);
    if let Some(composed) = check_against_problem(problem, summary, enc_limit, &mut violations) {
        violations.extend(verify_schedule_artifact(&composed));
        violations.extend(coverage_violations(problem, &composed.stg));
    }
    violations
}

/// Every operation that occupies a functional unit is somewhere in `stg`.
fn coverage_violations(problem: &SchedulingProblem<'_>, stg: &Stg) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (id, node) in problem.cdfg.nodes() {
        if node.operation.needs_functional_unit() && stg.state_of(id).is_none() {
            violations.push(Violation::error(
                rules::SCHED_COVERAGE,
                format!("node {}", id.index()),
                format!(
                    "operation {:?} is missing from the schedule",
                    node.operation
                ),
            ));
        }
    }
    violations
}

/// The problem-side rules shared by [`verify_schedule`] and
/// [`verify_summary`]: the summary's clock against the problem's, the
/// budget, and the recomposition — every recomposed block against the
/// problem, and the summary against the composition's. Returns the
/// composition.
fn check_against_problem(
    problem: &SchedulingProblem<'_>,
    summary: &SchedulingResult,
    enc_limit: Option<f64>,
    violations: &mut Vec<Violation>,
) -> Option<Schedule> {
    let clock = problem.config.clock_ns;
    if summary.clock_ns != clock {
        violations.push(Violation::error(
            rules::SCHED_STG,
            "stg",
            format!(
                "STG clock {} ns disagrees with the problem's {} ns",
                summary.clock_ns, clock
            ),
        ));
    }
    if let Some(limit) = enc_limit {
        if summary.enc > limit + ENC_EPS {
            violations.push(Violation::error(
                rules::SCHED_ENC,
                "schedule",
                format!("ENC {} exceeds the budget {limit}", summary.enc),
            ));
        }
    }

    let mut recorded = RecordingBlocks::default();
    let composed = compose(problem, &mut recorded);
    for (index, (nodes, block)) in recorded.blocks.iter().enumerate() {
        let prefix = format!("block {index}");
        violations.extend(
            verify_block(problem, nodes, block)
                .into_iter()
                .map(|v| v.at(&prefix)),
        );
    }
    let composed = match composed {
        Ok(composed) => composed,
        Err(e) => {
            violations.push(Violation::error(
                rules::SCHED_STG,
                "schedule",
                format!("the problem does not compose: {e}"),
            ));
            return None;
        }
    };
    let expected = composed.summary();
    if expected.enc.to_bits() != summary.enc.to_bits() {
        violations.push(Violation::error(
            rules::SCHED_ENC,
            "schedule",
            format!(
                "stored ENC {} differs from the {} the problem composes to",
                summary.enc, expected.enc
            ),
        ));
    }
    let counts = |s: &SchedulingResult| (s.clock_ns.to_bits(), s.state_count, s.transition_count);
    if counts(summary) != counts(&expected) {
        violations.push(Violation::error(
            rules::SCHED_STG,
            "schedule",
            format!(
                "stored clock, states and transitions ({} ns, {}, {}) differ from the ({} ns, {}, {}) the problem composes to",
                summary.clock_ns,
                summary.state_count,
                summary.transition_count,
                expected.clock_ns,
                expected.state_count,
                expected.transition_count
            ),
        ));
    }
    Some(composed)
}

/// Audits one block schedule against the problem it was scheduled for and
/// the block's node list: the placed operations are exactly `nodes`, the
/// schedule is internally consistent under the problem's clock
/// ([`verify_block_schedule`]), data precedence holds inside the block, no
/// functional unit is busy twice at once, and delays agree with the
/// problem's node delays and chaining configuration. Locations are
/// per-node and per-unit.
pub fn verify_block(
    problem: &SchedulingProblem<'_>,
    nodes: &[NodeId],
    block: &BlockSchedule,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let known = |node: NodeId| {
        node.index() < problem.cdfg.node_count()
            && node.index() < problem.node_delays.len()
            && node.index() < problem.node_fu.len()
    };
    if let Some(node) = nodes.iter().find(|&&n| !known(n)) {
        violations.push(Violation::error(
            rules::SCHED_COVERAGE,
            "nodes",
            format!("block names unknown node index {}", node.index()),
        ));
        return violations;
    }
    if block.ops.iter().any(|op| !known(op.node)) {
        violations.push(Violation::error(
            rules::SCHED_COVERAGE,
            "ops",
            "block places an unknown node",
        ));
        return violations;
    }

    let mut placed: Vec<NodeId> = block.ops.iter().map(|op| op.node).collect();
    let mut listed: Vec<NodeId> = nodes.to_vec();
    placed.sort_unstable();
    listed.sort_unstable();
    if placed != listed {
        violations.push(Violation::error(
            rules::SCHED_COVERAGE,
            "nodes",
            "placed operations disagree with the block's node list",
        ));
    }
    violations.extend(verify_block_schedule(block, Some(problem.config.clock_ns)));

    let placed: HashMap<NodeId, &impact_sched::PlacedOp> =
        block.ops.iter().map(|op| (op.node, op)).collect();

    // Data precedence within the block (same-iteration dependences to
    // nodes outside the block are the hierarchical composer's concern).
    for op in &block.ops {
        for pred in problem.cdfg.data_predecessors_iter(op.node) {
            let Some(pred_op) = placed.get(&pred) else {
                continue;
            };
            if pred_op.finish_state > op.state {
                violations.push(Violation::error(
                    rules::SCHED_PRECEDENCE,
                    format!("node {}", op.node.index()),
                    format!(
                        "starts in state {} before predecessor {} finishes in state {}",
                        op.state,
                        pred.index(),
                        pred_op.finish_state
                    ),
                ));
            } else if pred_op.finish_state == op.state {
                if op.start_ns + TIME_EPS < pred_op.finish_ns {
                    violations.push(Violation::error(
                        rules::SCHED_PRECEDENCE,
                        format!("node {}", op.node.index()),
                        format!(
                            "starts at {:.4} ns before predecessor {} finishes at {:.4} ns",
                            op.start_ns,
                            pred.index(),
                            pred_op.finish_ns
                        ),
                    ));
                }
                if !problem.config.chaining && pred_op.state == op.state {
                    violations.push(Violation::error(
                        rules::SCHED_PRECEDENCE,
                        format!("node {}", op.node.index()),
                        format!(
                            "chained to predecessor {} with chaining disabled",
                            pred.index()
                        ),
                    ));
                }
            }
        }
    }

    // Per-state exclusivity of functional units: inclusive busy intervals
    // of ops sharing a unit must not overlap.
    let mut per_fu: HashMap<usize, Vec<(usize, usize, NodeId)>> = HashMap::new();
    for op in &block.ops {
        if let Some(fu) = problem.node_fu[op.node.index()] {
            per_fu
                .entry(fu)
                .or_default()
                .push((op.state, op.finish_state, op.node));
        }
    }
    for (fu, mut intervals) in per_fu {
        intervals.sort_unstable();
        for pair in intervals.windows(2) {
            let (_, prev_finish, prev_node) = pair[0];
            let (next_start, _, next_node) = pair[1];
            if next_start <= prev_finish {
                violations.push(Violation::error(
                    rules::SCHED_RESOURCES,
                    format!("unit {fu}"),
                    format!(
                        "nodes {} and {} overlap on the same functional unit",
                        prev_node.index(),
                        next_node.index()
                    ),
                ));
            }
        }
    }

    // Delays consistent with the problem and the chaining configuration.
    for op in &block.ops {
        let base = problem.node_delays[op.node.index()];
        let chained = base * (1.0 + problem.config.chaining_overhead);
        let location = format!("node {}", op.node.index());
        if op.start_ns > TIME_EPS {
            if !problem.config.chaining {
                violations.push(Violation::error(
                    rules::SCHED_CLOCK,
                    location.clone(),
                    "operation is chained but chaining is disabled",
                ));
            }
            if (op.delay_ns - chained).abs() > TIME_EPS {
                violations.push(Violation::error(
                    rules::SCHED_CLOCK,
                    location,
                    format!(
                        "chained delay {:.4} ns disagrees with {:.4} ns from the problem",
                        op.delay_ns, chained
                    ),
                ));
            }
        } else if (op.delay_ns - base).abs() > TIME_EPS && (op.delay_ns - chained).abs() > TIME_EPS
        {
            violations.push(Violation::error(
                rules::SCHED_CLOCK,
                location,
                format!(
                    "delay {:.4} ns disagrees with the problem's {:.4} ns",
                    op.delay_ns, base
                ),
            ));
        }
    }

    violations
}
