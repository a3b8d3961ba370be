//! Mutation-injection tests of the rule catalog: build real artifacts
//! (compiled benchmarks, fully-parallel designs, Wavesched schedules),
//! corrupt exactly one field, and check that the targeted rule — and only a
//! rule, never a panic — fires. The clean artifacts must stay silent, so
//! every rule is pinned from both sides.
//!
//! Corruption sites are chosen by proptest over a fixed deterministic seed
//! (the workspace's vendored proptest is seeded by test name), so repeated
//! runs explore the same cases.

#![allow(clippy::unwrap_used)]

use std::sync::Arc;

use impact_cdfg::{Cdfg, CdfgBuilder, CdfgError, NodeId, Operation, ValueRef, VarId};
use impact_modlib::ModuleLibrary;
use impact_rtl::{DesignDelta, MuxSink, MuxSite, RtlDesign, SignalKey, SignalSource};
use impact_sched::{
    compose, uniform_problem, BlockSchedule, RecordingBlocks, Schedule, SchedulingResult,
};
use impact_stg::{ScheduledOp, Stg};
use impact_verify::{
    has_errors, rules, structure_violation, verify_acyclic, verify_block, verify_block_schedule,
    verify_cdfg, verify_design, verify_fingerprint, verify_mux_sites, verify_schedule,
    verify_schedule_artifact, verify_summary, verify_summary_artifact, Severity, Violation,
};
use proptest::prelude::*;

fn gcd_cdfg() -> Cdfg {
    impact_benchmarks::gcd().compile().unwrap()
}

fn parallel_design(cdfg: &Cdfg) -> RtlDesign {
    RtlDesign::initial_parallel(cdfg, &ModuleLibrary::standard())
}

/// The blocks a schedule is composed from, in traversal order, each with
/// its node list.
type Blocks = Vec<(Vec<NodeId>, Arc<BlockSchedule>)>;

/// The Wavesched schedule of `bench` under its uniform problem, with the
/// blocks it was composed from.
fn schedule_for(
    bench: &impact_benchmarks::Benchmark,
    cdfg: &Cdfg,
) -> (impact_behsim::ExecutionTrace, Schedule, Blocks) {
    let trace = impact_behsim::simulate(cdfg, &bench.input_sequences(6, 7)).unwrap();
    let mut recording = RecordingBlocks::default();
    let result = compose(&uniform_problem(cdfg, trace.profile()), &mut recording).unwrap();
    (trace, result, recording.blocks)
}

fn schedule(cdfg: &Cdfg) -> (impact_behsim::ExecutionTrace, Schedule, Blocks) {
    schedule_for(&impact_benchmarks::gcd(), cdfg)
}

/// A single-source sink of a fully-parallel design, which is no mux site:
/// the first data port of a unit, which carries one operation.
fn lone_port(cdfg: &Cdfg, design: &RtlDesign) -> MuxSite {
    let (fu, unit) = design.functional_units().next().unwrap();
    let [op] = design.ops_on(fu)[..] else {
        panic!("{fu} carries one operation");
    };
    let key = match cdfg.edge(cdfg.node(op).inputs[0]).value {
        ValueRef::Var(var) => SignalKey::Register(design.register_of(var)),
        ValueRef::Const(value) => SignalKey::Constant(value),
    };
    MuxSite {
        sink: MuxSink::FuInput { fu, port: 0 },
        sources: vec![SignalSource { key, ops: vec![op] }],
        width: unit.width,
    }
}

fn fired(violations: &[Violation], rule: &str) -> bool {
    violations.iter().any(|v| v.rule == rule)
}

// ---------------------------------------------------------------- baselines

#[test]
fn clean_artifacts_are_silent() {
    let cdfg = gcd_cdfg();
    assert_eq!(verify_cdfg(&cdfg), vec![]);

    let design = parallel_design(&cdfg);
    assert_eq!(verify_design(&cdfg, &design), vec![]);
    assert_eq!(verify_fingerprint(&design, design.fingerprint()), vec![]);
    assert_eq!(
        verify_mux_sites(&cdfg, &design, &design.mux_sites(&cdfg)),
        vec![]
    );

    let (trace, result, _) = schedule(&cdfg);
    let problem = uniform_problem(&cdfg, trace.profile());
    assert_eq!(verify_schedule(&problem, &result, Some(result.enc)), vec![]);
    let summary = result.summary();
    assert_eq!(verify_summary_artifact(&summary), vec![]);
    assert_eq!(verify_summary(&problem, &summary, Some(result.enc)), vec![]);
}

// ---------------------------------------------------------------- CDFG rules

#[test]
fn undefined_operand_trips_the_operand_rule() {
    let mut b = CdfgBuilder::new("undef");
    let x = b.input("x", 8);
    let ghost = b.local("ghost", 8, None).unwrap();
    let y = b.output("y", 8);
    b.binary(Operation::Add, ValueRef::Var(x), ValueRef::Var(ghost), "s")
        .unwrap();
    let s = b.variable("s").unwrap();
    b.emit_output(ValueRef::Var(s), y);
    let cdfg = b.finish().unwrap();
    let violations = verify_cdfg(&cdfg);
    assert!(
        fired(&violations, rules::CDFG_OPERAND_DEFINED),
        "{violations:?}"
    );
    assert!(has_errors(&violations));
}

#[test]
fn initialized_locals_do_not_trip_the_operand_rule() {
    let mut b = CdfgBuilder::new("init");
    let x = b.input("x", 8);
    let seeded = b.local("seeded", 8, Some(3)).unwrap();
    let y = b.output("y", 8);
    b.binary(Operation::Add, ValueRef::Var(x), ValueRef::Var(seeded), "s")
        .unwrap();
    let s = b.variable("s").unwrap();
    b.emit_output(ValueRef::Var(s), y);
    let cdfg = b.finish().unwrap();
    assert_eq!(verify_cdfg(&cdfg), vec![]);
}

#[test]
fn structure_errors_map_to_the_structure_rule() {
    let violation = structure_violation(&CdfgError::UnknownVariable { var: VarId::new(7) });
    assert_eq!(violation.rule, rules::CDFG_STRUCTURE);
    assert_eq!(violation.severity, Severity::Error);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn injected_cycles_trip_the_acyclic_rule(n in 2usize..24, rotate in 0usize..24) {
        // A single n-cycle through every node.
        let violations = verify_acyclic(n, |i| vec![(i + 1 + rotate * n) % n]);
        prop_assert!(fired(&violations, rules::CDFG_ACYCLIC));

        // A self-loop on one node.
        let looped = rotate % n;
        let violations = verify_acyclic(n, |i| if i == looped { vec![i] } else { vec![] });
        prop_assert!(fired(&violations, rules::CDFG_ACYCLIC));

        // The same relation without the closing edge is clean.
        let violations = verify_acyclic(n, |i| if i > 0 { vec![i - 1] } else { vec![] });
        prop_assert!(violations.is_empty());
    }
}

// ---------------------------------------------------------------- RTL rules

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn unbinding_an_operation_trips_the_fu_rule(pick in 0usize..1000) {
        let cdfg = gcd_cdfg();
        let mut design = parallel_design(&cdfg);
        let fu_nodes: Vec<NodeId> = cdfg
            .nodes()
            .filter(|(_, n)| n.operation.needs_functional_unit())
            .map(|(id, _)| id)
            .collect();
        let node = fu_nodes[pick % fu_nodes.len()];
        let mut delta = DesignDelta::default();
        delta.op_bindings.push((node, design.fu_of(node), None));
        design.apply_delta(&delta);
        let violations = verify_design(&cdfg, &design);
        prop_assert!(fired(&violations, rules::RTL_FU_BINDING));
        prop_assert!(has_errors(&violations));
    }

    #[test]
    fn cross_binding_a_variable_trips_the_register_rule(pick in 0usize..1000) {
        let cdfg = gcd_cdfg();
        let mut design = parallel_design(&cdfg);
        let vars: Vec<_> = cdfg.variables().map(|(v, _)| v).collect();
        let var = vars[pick % vars.len()];
        let other = vars
            .iter()
            .copied()
            .find(|&v| design.register_of(v) != design.register_of(var))
            .unwrap();
        let mut delta = DesignDelta::default();
        delta
            .var_bindings
            .push((var, design.register_of(var), design.register_of(other)));
        design.apply_delta(&delta);
        let violations = verify_design(&cdfg, &design);
        prop_assert!(fired(&violations, rules::RTL_REG_BINDING));
    }
}

#[test]
fn annotating_a_single_source_sink_trips_the_mux_rule() {
    let cdfg = gcd_cdfg();
    let mut design = parallel_design(&cdfg);
    let lone = lone_port(&cdfg, &design);
    design.set_restructured(lone.sink, true);
    let violations = verify_design(&cdfg, &design);
    assert!(
        fired(&violations, rules::RTL_MUX_ANNOTATION),
        "{violations:?}"
    );
}

#[test]
fn stale_fingerprints_trip_the_fingerprint_rule() {
    let cdfg = gcd_cdfg();
    let mut design = parallel_design(&cdfg);
    let stale = design.fingerprint();
    let site = design
        .mux_sites(&cdfg)
        .into_iter()
        .next()
        .expect("the parallel design has mux sites");
    design.set_restructured(site.sink, true);
    let violations = verify_fingerprint(&design, stale);
    assert!(fired(&violations, rules::RTL_FINGERPRINT));
    // The recomputed fingerprint is silent again.
    assert_eq!(verify_fingerprint(&design, design.fingerprint()), vec![]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn corrupted_mux_site_lists_trip_the_consistency_rule(pick in 0usize..1000) {
        let cdfg = gcd_cdfg();
        let design = parallel_design(&cdfg);
        let clean = design.mux_sites(&cdfg);
        prop_assert!(clean.len() >= 2);
        let index = pick % clean.len();
        // Variants 4 and up are what a wrong site delta produces: each site
        // is plausible on its own, only the list as a whole is wrong.
        for variant in 0..9 {
            let mut sites = clean.clone();
            match variant {
                0 => {
                    // Duplicate signal key among the sources.
                    let duplicate = sites[index].sources[0].clone();
                    sites[index].sources.push(duplicate);
                }
                1 => {
                    // A routed op that is foreign to the sink (no unit
                    // binding, defines nothing).
                    let foreign = cdfg
                        .nodes()
                        .find(|&(id, node)| {
                            design.fu_of(id).is_none() && node.defines.is_none()
                        })
                        .map(|(id, _)| id)
                        .unwrap();
                    sites[index].sources[0].ops.push(foreign);
                }
                2 => {
                    // A source that routes nothing.
                    sites[index].sources[0].ops.clear();
                }
                3 => {
                    // A site with no sources at all.
                    sites[index].sources.clear();
                }
                4 => {
                    // A site missing from the list.
                    sites.remove(index);
                }
                5 => {
                    // An extra site: a single-source sink of the design.
                    sites.push(lone_port(&cdfg, &design));
                }
                6 => {
                    // A stale source key: an operand's variable moved to
                    // another register after the list was built.
                    let stale = sites
                        .iter_mut()
                        .flat_map(|site| site.sources.iter_mut())
                        .find(|source| matches!(source.key, SignalKey::Register(_)))
                        .unwrap();
                    let moved = design
                        .registers()
                        .map(|(id, _)| SignalKey::Register(id))
                        .find(|&key| key != stale.key)
                        .unwrap();
                    stale.key = moved;
                }
                7 => {
                    // A stale width.
                    sites[index].width += 1;
                }
                _ => {
                    // Two sites swapped out of enumeration order.
                    sites.swap(index, (index + 1) % clean.len());
                }
            }
            let violations = verify_mux_sites(&cdfg, &design, &sites);
            prop_assert!(
                fired(&violations, rules::CDFG_MUX_CONSISTENT),
                "variant {}: {:?}",
                variant,
                violations
            );
        }
    }
}

// ---------------------------------------------------------------- schedule rules

/// One (block, op) position drawn from recorded blocks.
fn placed_position(blocks: &Blocks, pick: usize) -> (usize, usize) {
    let placed: Vec<(usize, usize)> = blocks
        .iter()
        .enumerate()
        .flat_map(|(b, (_, schedule))| (0..schedule.ops.len()).map(move |o| (b, o)))
        .collect();
    placed[pick % placed.len()]
}

/// `stg` rebuilt state by state, with `shift` ns added to the start offset
/// of its `target`-th operation.
fn shifted(stg: &Stg, target: usize, shift: f64) -> Stg {
    let mut rebuilt = Stg::new(stg.clock_ns());
    let mut seen = 0;
    for state in stg.states() {
        let id = rebuilt.add_state();
        for op in state.ops {
            let start = op.start_ns + if seen == target { shift } else { 0.0 };
            seen += 1;
            rebuilt.add_op(id, ScheduledOp::new(op.node, start, op.finish_ns));
        }
        rebuilt.set_exit_probability(id, state.exit_probability);
    }
    for t in stg.transitions() {
        rebuilt.add_transition(t.from, t.to, t.guard.clone(), t.probability);
    }
    rebuilt.set_entry(stg.entry());
    rebuilt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn dropping_a_block_node_trips_the_coverage_rule(pick in 0usize..1000) {
        let cdfg = gcd_cdfg();
        let (trace, _, mut blocks) = schedule(&cdfg);
        let problem = uniform_problem(&cdfg, trace.profile());
        let block = (0..blocks.len())
            .map(|b| (pick + b) % blocks.len())
            .find(|&b| !blocks[b].0.is_empty())
            .unwrap();
        let (nodes, schedule) = &mut blocks[block];
        nodes.pop();
        let violations = verify_block(&problem, nodes, schedule);
        prop_assert!(fired(&violations, rules::SCHED_COVERAGE));
    }

    #[test]
    fn duplicating_a_placement_trips_the_coverage_rule(pick in 0usize..1000) {
        let cdfg = gcd_cdfg();
        let (_, result, mut blocks) = schedule(&cdfg);
        let (block, op) = placed_position(&blocks, pick);
        let schedule = Arc::make_mut(&mut blocks[block].1);
        let duplicate = schedule.ops[op].clone();
        schedule.ops.push(duplicate);
        let violations = verify_block_schedule(schedule, Some(result.stg.clock_ns()));
        prop_assert!(fired(&violations, rules::SCHED_COVERAGE));
    }

    #[test]
    fn clock_overruns_trip_the_clock_rule(pick in 0usize..1000) {
        let cdfg = gcd_cdfg();
        let (_, result, mut blocks) = schedule(&cdfg);
        let clock = result.stg.clock_ns();
        let (block, op) = placed_position(&blocks, pick);
        let schedule = Arc::make_mut(&mut blocks[block].1);
        schedule.ops[op].finish_ns = clock + 1.0;
        let violations = verify_block_schedule(schedule, Some(clock));
        prop_assert!(fired(&violations, rules::SCHED_CLOCK));
    }

    #[test]
    fn delay_corruption_trips_the_clock_rule(pick in 0usize..1000) {
        let cdfg = gcd_cdfg();
        let (trace, _, mut blocks) = schedule(&cdfg);
        let problem = uniform_problem(&cdfg, trace.profile());
        let (block, op) = placed_position(&blocks, pick);
        let (nodes, schedule) = &mut blocks[block];
        Arc::make_mut(schedule).ops[op].delay_ns += 2.5;
        let violations = verify_block(&problem, nodes, schedule);
        prop_assert!(fired(&violations, rules::SCHED_CLOCK));
    }

    #[test]
    fn enc_corruption_trips_the_enc_rule(numerator in 1u32..100) {
        let cdfg = gcd_cdfg();
        let (trace, mut result, _) = schedule(&cdfg);
        let problem = uniform_problem(&cdfg, trace.profile());

        // A budget below the (legal) ENC.
        let tight = result.enc * f64::from(numerator) / 101.0;
        let violations = verify_schedule(&problem, &result, Some(tight));
        prop_assert!(fired(&violations, rules::SCHED_ENC));

        // A non-finite ENC.
        result.enc = f64::NAN;
        let violations = verify_schedule_artifact(&result);
        prop_assert!(fired(&violations, rules::SCHED_ENC));
    }

    #[test]
    fn shifting_a_stored_operation_trips_the_stg_rule(pick in 0usize..1000) {
        let cdfg = gcd_cdfg();
        let (trace, mut result, _) = schedule(&cdfg);
        let problem = uniform_problem(&cdfg, trace.profile());
        let target = pick % result.stg.scheduled_op_count();
        prop_assert_eq!(&shifted(&result.stg, target, 0.0), &result.stg);
        // A graph that still validates, with one operation starting later
        // than the problem's composition starts it.
        result.stg = shifted(&result.stg, target, 0.5);
        prop_assert_eq!(verify_schedule_artifact(&result), vec![]);
        let violations = verify_schedule(&problem, &result, None);
        prop_assert!(fired(&violations, rules::SCHED_STG), "{:?}", violations);
    }
}

#[test]
fn nudging_the_stored_enc_by_one_ulp_trips_the_enc_rule() {
    let cdfg = gcd_cdfg();
    let (trace, mut result, _) = schedule(&cdfg);
    let problem = uniform_problem(&cdfg, trace.profile());
    result.enc = f64::from_bits(result.enc.to_bits() + 1);
    assert_eq!(verify_schedule_artifact(&result), vec![]);
    let violations = verify_schedule(&problem, &result, None);
    assert!(fired(&violations, rules::SCHED_ENC), "{violations:?}");
}

/// A named corruption of a schedule summary and the rule it must trip.
type Corruption = (&'static str, fn(&mut SchedulingResult), &'static str);

#[test]
fn corrupting_a_summary_field_trips_its_rule() {
    // A cached schedule is its summary: each of its four numbers, nudged
    // alone, must fail the audit that recomposes the problem, under the rule
    // its field belongs to. So must a full schedule's graph.
    let cdfg = gcd_cdfg();
    let (trace, result, _) = schedule(&cdfg);
    let problem = uniform_problem(&cdfg, trace.profile());
    let clean = result.summary();
    let fields: [Corruption; 4] = [
        ("state count", |s| s.state_count += 1, rules::SCHED_STG),
        ("transitions", |s| s.transition_count -= 1, rules::SCHED_STG),
        ("clock", |s| s.clock_ns += 0.5, rules::SCHED_STG),
        (
            "ENC",
            |s| s.enc = f64::from_bits(s.enc.to_bits() + 1),
            rules::SCHED_ENC,
        ),
    ];
    for (field, corrupt, rule) in fields {
        let mut summary = clean;
        corrupt(&mut summary);
        assert_eq!(verify_summary_artifact(&summary), vec![], "{field}");
        let violations = verify_summary(&problem, &summary, None);
        assert!(fired(&violations, rule), "{field}: {violations:?}");
    }

    // The graph a run hands out, with its first transition dropped.
    let mut stg = Stg::new(result.stg.clock_ns());
    for state in result.stg.states() {
        let id = stg.add_state();
        for op in state.ops {
            stg.add_op(id, op.clone());
        }
        stg.set_exit_probability(id, state.exit_probability);
    }
    for t in &result.stg.transitions()[1..] {
        stg.add_transition(t.from, t.to, t.guard.clone(), t.probability);
    }
    stg.set_entry(result.stg.entry());
    let corrupted = Schedule { stg, ..result };
    let violations = verify_schedule(&problem, &corrupted, None);
    assert!(fired(&violations, rules::SCHED_STG), "{violations:?}");

    // Summaries that no schedule can have fail on their own.
    let impossible: [Corruption; 5] = [
        ("no state", |s| s.state_count = 0, rules::SCHED_STG),
        ("zero clock", |s| s.clock_ns = 0.0, rules::SCHED_STG),
        (
            "infinite clock",
            |s| s.clock_ns = f64::INFINITY,
            rules::SCHED_STG,
        ),
        ("NaN ENC", |s| s.enc = f64::NAN, rules::SCHED_ENC),
        ("negative ENC", |s| s.enc = -1.0, rules::SCHED_ENC),
    ];
    for (what, corrupt, rule) in impossible {
        let mut summary = clean;
        corrupt(&mut summary);
        let violations = verify_summary_artifact(&summary);
        assert!(fired(&violations, rule), "{what}: {violations:?}");
    }
}

#[test]
fn forged_resource_sharing_trips_the_resource_rule() {
    // gcd's blocks hold one unit-bound operation each, so the double-booking
    // corruption needs a benchmark with wider blocks.
    let bench = impact_benchmarks::dealer();
    let cdfg = bench.compile().unwrap();
    let (trace, _, blocks) = schedule_for(&bench, &cdfg);
    let mut problem = uniform_problem(&cdfg, trace.profile());
    // Rebind two operations that overlap in time inside one block onto the
    // same unit; the block's schedule now double-books it.
    let (block, a, b) = blocks
        .iter()
        .enumerate()
        .find_map(|(index, (_, schedule))| {
            let ops = &schedule.ops;
            ops.iter()
                .enumerate()
                .flat_map(|(i, x)| ops.iter().skip(i + 1).map(move |y| (x, y)))
                .find(|(x, y)| {
                    x.state <= y.finish_state
                        && y.state <= x.finish_state
                        && problem.node_fu[x.node.index()].is_some()
                        && problem.node_fu[y.node.index()].is_some()
                })
                .map(|(x, y)| (index, x.node, y.node))
        })
        .expect("the parallel schedule has concurrent operations");
    problem.node_fu[b.index()] = problem.node_fu[a.index()];
    let (nodes, schedule) = &blocks[block];
    let violations = verify_block(&problem, nodes, schedule);
    assert!(fired(&violations, rules::SCHED_RESOURCES), "{violations:?}");
}

#[test]
fn reordering_a_dependence_trips_the_precedence_rule() {
    let cdfg = gcd_cdfg();
    let (trace, _, mut blocks) = schedule(&cdfg);
    let problem = uniform_problem(&cdfg, trace.profile());
    // Push some producer's finish past its in-block consumer's start state.
    let mutation = blocks.iter().enumerate().find_map(|(b, (_, schedule))| {
        schedule.ops.iter().find_map(|op| {
            cdfg.data_predecessors_iter(op.node)
                .find(|pred| schedule.ops.iter().any(|p| p.node == *pred))
                .map(|pred| (b, pred, op.state))
        })
    });
    let (block, pred, consumer_state) = mutation.expect("gcd has in-block dependences");
    let (nodes, schedule) = &mut blocks[block];
    let schedule = Arc::make_mut(schedule);
    let pred_op = schedule.ops.iter_mut().find(|p| p.node == pred).unwrap();
    pred_op.finish_state = consumer_state + 1;
    let violations = verify_block(&problem, nodes, schedule);
    assert!(
        fired(&violations, rules::SCHED_PRECEDENCE),
        "{violations:?}"
    );
}

#[test]
fn clock_mismatch_trips_the_stg_rule() {
    let cdfg = gcd_cdfg();
    let (trace, result, _) = schedule(&cdfg);
    let mut problem = uniform_problem(&cdfg, trace.profile());
    problem.config.clock_ns += 1.0;
    let violations = verify_schedule(&problem, &result, None);
    assert!(fired(&violations, rules::SCHED_STG), "{violations:?}");
}
