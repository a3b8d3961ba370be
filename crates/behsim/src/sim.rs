//! The region-tree interpreter.

use std::collections::HashMap;

use impact_cdfg::{Cdfg, EdgeId, NodeId, Operation, Region, ValueRef, VarId};

use crate::error::SimError;
use crate::event::{ExecutionTrace, NodeTrace};
use crate::profile::ControlProfile;

/// Simulates `cdfg` over `inputs`, where every inner vector provides one value
/// per primary input (in [`Cdfg::primary_inputs`] order) for one execution
/// pass.
///
/// # Errors
///
/// See [`SimError`]: empty input sequences, arity mismatches and runaway
/// loops are rejected.
pub fn simulate(cdfg: &Cdfg, inputs: &[Vec<i64>]) -> Result<ExecutionTrace, SimError> {
    Simulator::new(cdfg).run(inputs)
}

/// Reusable simulator bound to one CDFG.
#[derive(Clone, Debug)]
pub struct Simulator<'a> {
    cdfg: &'a Cdfg,
}

struct RunState {
    /// Current value of every variable, indexed by variable (0 when unset).
    env: Vec<i64>,
    nodes: Vec<NodeTrace>,
    pass_starts: Vec<u32>,
    /// Operand buffer reused by every executed node.
    operands: Vec<i64>,
    var_writes: Vec<Vec<i64>>,
    profile: ControlProfile,
    outputs: Vec<HashMap<VarId, i64>>,
    current_outputs: HashMap<VarId, i64>,
    sequence: u32,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator for `cdfg`.
    pub fn new(cdfg: &'a Cdfg) -> Self {
        Self { cdfg }
    }

    /// Runs the simulation over the given input passes.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run(&self, inputs: &[Vec<i64>]) -> Result<ExecutionTrace, SimError> {
        if inputs.is_empty() {
            return Err(SimError::NoInputPasses);
        }
        let primary_inputs = self.cdfg.primary_inputs();
        let mut state = RunState {
            env: vec![0; self.cdfg.variable_count()],
            nodes: vec![NodeTrace::default(); self.cdfg.node_count()],
            pass_starts: Vec::with_capacity(inputs.len()),
            operands: Vec::new(),
            var_writes: vec![Vec::new(); self.cdfg.variable_count()],
            profile: ControlProfile::with_branches(crate::profile::branch_count(
                self.cdfg.regions(),
            )),
            outputs: Vec::new(),
            current_outputs: HashMap::new(),
            sequence: 0,
        };

        for (pass_index, pass_values) in inputs.iter().enumerate() {
            if pass_values.len() != primary_inputs.len() {
                return Err(SimError::InputArityMismatch {
                    pass: pass_index,
                    expected: primary_inputs.len(),
                    found: pass_values.len(),
                });
            }
            state.pass_starts.push(state.sequence);
            state.env.fill(0);
            state.current_outputs.clear();
            // Primary inputs and declared initial values define the pass state.
            for (&var, &value) in primary_inputs.iter().zip(pass_values.iter()) {
                state.env[var.index()] = value;
                state.var_writes[var.index()].push(value);
            }
            for (var, decl) in self.cdfg.variables() {
                if let Some(init) = decl.initial {
                    state.env[var.index()] = init;
                }
            }
            self.exec_regions(self.cdfg.regions(), 0, &mut state)?;
            state
                .outputs
                .push(std::mem::take(&mut state.current_outputs));
        }

        Ok(ExecutionTrace::new(
            state.nodes,
            state.pass_starts,
            state.var_writes,
            state.profile,
            state.outputs,
            inputs.len() as u32,
        ))
    }

    fn resolve(&self, value: ValueRef, env: &[i64]) -> i64 {
        match value {
            ValueRef::Const(c) => c,
            ValueRef::Var(v) => env.get(v.index()).copied().unwrap_or(0),
        }
    }

    fn edge_value(&self, edge: EdgeId, env: &[i64]) -> i64 {
        self.resolve(self.cdfg.edge(edge).value, env)
    }

    fn exec_regions(
        &self,
        regions: &[Region],
        mut branch_base: usize,
        state: &mut RunState,
    ) -> Result<(), SimError> {
        for region in regions {
            self.exec_region(region, branch_base, state)?;
            branch_base += crate::profile::branch_count(std::slice::from_ref(region));
        }
        Ok(())
    }

    fn exec_region(
        &self,
        region: &Region,
        branch_base: usize,
        state: &mut RunState,
    ) -> Result<(), SimError> {
        match region {
            Region::Block(nodes) => {
                for &node in nodes {
                    self.exec_node(node, state);
                }
                Ok(())
            }
            Region::Branch {
                condition,
                then_regions,
                else_regions,
                selects,
                ..
            } => {
                let cond_value = self.resolve(*condition, &state.env);
                let taken = cond_value != 0;
                state.profile.record_branch(branch_base, taken);
                let snapshot = state.env.clone();
                let then_branches = crate::profile::branch_count(then_regions);
                if taken {
                    self.exec_regions(then_regions, branch_base + 1, state)?;
                } else {
                    self.exec_regions(else_regions, branch_base + 1 + then_branches, state)?;
                }
                for &sel in selects {
                    self.exec_select(sel, taken, cond_value, &snapshot, state);
                }
                Ok(())
            }
            Region::Loop(info) => {
                let header_branches = crate::profile::branch_count(&info.header);
                let mut iterations: u64 = 0;
                loop {
                    self.exec_regions(&info.header, branch_base, state)?;
                    let cond = self.resolve(info.condition, &state.env);
                    if cond == 0 {
                        break;
                    }
                    self.exec_regions(&info.body, branch_base + header_branches, state)?;
                    iterations += 1;
                    if iterations >= u64::from(info.max_iterations) {
                        return Err(SimError::IterationLimit {
                            label: info.label.clone(),
                            limit: info.max_iterations,
                        });
                    }
                }
                state.profile.record_loop(&info.label, iterations);
                for &end in &info.end_nodes {
                    self.exec_node(end, state);
                }
                Ok(())
            }
        }
    }

    fn exec_select(
        &self,
        node_id: NodeId,
        taken: bool,
        cond_value: i64,
        snapshot: &[i64],
        state: &mut RunState,
    ) {
        let node = self.cdfg.node(node_id);
        debug_assert_eq!(node.operation, Operation::Select);
        let then_ref = self.cdfg.edge(node.inputs[0]).value;
        let else_ref = self.cdfg.edge(node.inputs[1]).value;
        // The taken side's value lives in the current environment, the
        // not-taken side's value is whatever its register held before the
        // branch (the snapshot).
        let (then_value, else_value) = if taken {
            (
                self.resolve(then_ref, &state.env),
                self.resolve(else_ref, snapshot),
            )
        } else {
            (
                self.resolve(then_ref, snapshot),
                self.resolve(else_ref, &state.env),
            )
        };
        let output = if taken { then_value } else { else_value };
        self.record_event(
            node_id,
            &[then_value, else_value, cond_value],
            output,
            state,
        );
        if let Some(var) = node.defines {
            state.env[var.index()] = output;
            state.var_writes[var.index()].push(output);
        }
    }

    fn exec_node(&self, node_id: NodeId, state: &mut RunState) {
        let node = self.cdfg.node(node_id);
        let mut inputs = std::mem::take(&mut state.operands);
        inputs.clear();
        inputs.extend(node.inputs.iter().map(|&e| self.edge_value(e, &state.env)));
        let output = match node.operation {
            // Structural pass-through nodes simply forward their first input.
            Operation::EndLoop | Operation::Mov | Operation::Output => {
                inputs.first().copied().unwrap_or(0)
            }
            Operation::Select => {
                // Selects outside Branch regions (not produced by the builder)
                // read their condition from the control edge.
                let cond = node
                    .control
                    .condition
                    .map(|e| self.edge_value(e, &state.env))
                    .unwrap_or(0);
                if cond != 0 {
                    inputs.first().copied().unwrap_or(0)
                } else {
                    inputs.get(1).copied().unwrap_or(0)
                }
            }
            op => op.evaluate(&inputs),
        };
        self.record_event(node_id, &inputs, output, state);
        state.operands = inputs;
        if let Some(var) = node.defines {
            state.env[var.index()] = output;
            state.var_writes[var.index()].push(output);
            if node.operation == Operation::Output {
                state.current_outputs.insert(var, output);
            }
        }
    }

    fn record_event(&self, node: NodeId, inputs: &[i64], output: i64, state: &mut RunState) {
        state.nodes[node.index()].push(state.sequence, inputs, output);
        state.sequence = state.sequence.wrapping_add(1);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use impact_hdl::compile;

    fn out(cdfg: &Cdfg, trace: &ExecutionTrace, pass: usize, name: &str) -> i64 {
        trace
            .output(pass, cdfg.variable_by_name(name).unwrap())
            .unwrap()
    }

    #[test]
    fn straight_line_arithmetic_matches_reference() {
        let g = compile("design d { input a: 8, b: 8; output y: 16; y = a * b + 7; }").unwrap();
        let t = simulate(&g, &[vec![3, 4], vec![5, 6]]).unwrap();
        assert_eq!(out(&g, &t, 0, "y"), 19);
        assert_eq!(out(&g, &t, 1, "y"), 37);
    }

    #[test]
    fn gcd_produces_correct_results_and_loop_stats() {
        let g = compile(
            "design gcd { input a: 8, b: 8; output r: 8; var x: 8; var y: 8;
               x = a; y = b;
               while (x != y) { if (x > y) { x = x - y; } else { y = y - x; } }
               r = x; }",
        )
        .unwrap();
        let t = simulate(&g, &[vec![12, 18], vec![35, 14], vec![9, 9]]).unwrap();
        assert_eq!(out(&g, &t, 0, "r"), 6);
        assert_eq!(out(&g, &t, 1, "r"), 7);
        assert_eq!(out(&g, &t, 2, "r"), 9);
        let stats = t.loop_stats("loop0");
        assert_eq!(stats.entries, 3);
        assert!(stats.iterations > 0);
    }

    #[test]
    fn branch_probabilities_are_measured() {
        let g = compile(
            "design d { input x: 8; output y: 8;
               if (x > 10) { y = 1; } else { y = 0; } }",
        )
        .unwrap();
        let t = simulate(&g, &[vec![20], vec![5], vec![15], vec![3]]).unwrap();
        let stats = t.branch(0);
        assert_eq!(stats.taken, 2);
        assert_eq!(stats.not_taken, 2);
        assert!((stats.probability_taken() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn for_loops_iterate_the_declared_number_of_times() {
        let g = compile(
            "design d { input a: 8; output s: 16; var acc: 16 = 0; var i: 8;
               for (i = 0; i < 10; i = i + 1) { acc = acc + a; }
               s = acc; }",
        )
        .unwrap();
        let t = simulate(&g, &[vec![7]]).unwrap();
        assert_eq!(out(&g, &t, 0, "s"), 70);
        assert_eq!(t.loop_stats("loop0").iterations, 10);
    }

    #[test]
    fn nested_loops_multiply_iteration_counts() {
        let g = compile(
            "design d { output s: 16; var acc: 16 = 0; var i: 8; var j: 8;
               for (i = 0; i < 3; i = i + 1) {
                 for (j = 0; j < 4; j = j + 1) { acc = acc + 1; }
               }
               s = acc; }",
        )
        .unwrap();
        let t = simulate(&g, &[vec![]]).unwrap();
        assert_eq!(out(&g, &t, 0, "s"), 12);
        // Loop labels are assigned in lowering (program) order: the outer
        // `for` is loop0, the inner one loop1.
        assert_eq!(
            t.loop_stats("loop1").iterations,
            12,
            "inner loop runs 12 times in total"
        );
        assert_eq!(t.loop_stats("loop0").iterations, 3);
    }

    #[test]
    fn select_events_record_both_sides_and_condition() {
        let g = compile(
            "design d { input x: 8; output y: 8; var z: 8 = 5;
               if (x > 0) { z = 1; }
               y = z; }",
        )
        .unwrap();
        let t = simulate(&g, &[vec![3], vec![-2]]).unwrap();
        let sel = g
            .nodes()
            .find(|(_, n)| n.operation == Operation::Select)
            .map(|(id, _)| id)
            .unwrap();
        let events = t.node_trace(sel);
        assert_eq!(events.len(), 2);
        // Pass 0: condition true, z becomes 1; pass 1: condition false, z stays 5.
        assert_eq!(events.outputs()[0], 1);
        assert_eq!(events.outputs()[1], 5);
        assert_eq!(events.ports(), 3);
        assert_eq!(out(&g, &t, 0, "y"), 1);
        assert_eq!(out(&g, &t, 1, "y"), 5);
    }

    #[test]
    fn empty_input_sequence_is_rejected() {
        let g = compile("design d { input a: 8; output y: 8; y = a; }").unwrap();
        assert!(matches!(simulate(&g, &[]), Err(SimError::NoInputPasses)));
    }

    #[test]
    fn arity_mismatch_is_rejected_with_pass_index() {
        let g = compile("design d { input a: 8, b: 8; output y: 8; y = a + b; }").unwrap();
        let err = simulate(&g, &[vec![1, 2], vec![3]]).unwrap_err();
        assert!(matches!(err, SimError::InputArityMismatch { pass: 1, .. }));
    }

    #[test]
    fn runaway_loops_hit_the_iteration_limit() {
        let g = compile(
            "design d { input a: 8; output y: 8; var i: 8 = 0;
               while (i < 100000) { i = i + 0; }
               y = i; }",
        )
        .unwrap();
        assert!(matches!(
            simulate(&g, &[vec![1]]),
            Err(SimError::IterationLimit { .. })
        ));
    }

    #[test]
    fn variable_writes_track_every_update() {
        let g = compile(
            "design d { output s: 8; var acc: 8 = 0; var i: 8;
               for (i = 0; i < 4; i = i + 1) { acc = acc + 1; }
               s = acc; }",
        )
        .unwrap();
        let t = simulate(&g, &[vec![]]).unwrap();
        let acc = g.variable_by_name("acc").unwrap();
        assert_eq!(t.variable_writes(acc), &[1, 2, 3, 4]);
    }

    #[test]
    fn executions_per_pass_reflects_loop_trip_count() {
        let g = compile(
            "design d { input a: 8; output s: 16; var acc: 16 = 0; var i: 8;
               for (i = 0; i < 5; i = i + 1) { acc = acc + a; }
               s = acc; }",
        )
        .unwrap();
        let t = simulate(&g, &[vec![1], vec![2]]).unwrap();
        let add_acc = g
            .nodes()
            .find(|(_, n)| n.operation == Operation::Add && n.defines == g.variable_by_name("acc"))
            .map(|(id, _)| id)
            .unwrap();
        assert!((t.executions_per_pass(add_acc) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn paper_loops_example_executes_and_profiles_branches() {
        // The Loops benchmark of Figure 1 (structure-equivalent source).
        let g = compile(
            "design loops { input a: 1, b: 1, dd: 8; output zz: 16;
               var z: 16 = 0; var i: 8; var j: 8; var h: 8 = 0; var m: 8 = 0; var k: 8 = 0;
               var c: 1; var e: 16; var gg: 8;
               for (i = 0; i < 10; i = i + 1) {
                 c = a && b;
                 e = dd * i;
                 z = z + e;
                 if (c == 1) {
                   z = 0;
                 } else {
                   for (j = 0; j < 8; j = j + 1) {
                     gg = i - h;
                     h = gg + 5;
                     m = m + k;
                     k = dd * j;
                   }
                   z = h - m;
                   h = 8;
                   m = 0;
                 }
               }
               zz = z; }",
        )
        .unwrap();
        let t = simulate(&g, &[vec![1, 1, 3], vec![0, 1, 5]]).unwrap();
        // When a && b is true, z is reset every iteration, so zz ends at 0.
        assert_eq!(out(&g, &t, 0, "zz"), 0);
        // Outer loop (loop0) runs 10 iterations per pass, 2 passes; the inner
        // loop (loop1) runs 8 iterations for each of the 10 not-taken
        // iterations of pass 1.
        assert_eq!(t.loop_stats("loop0").iterations, 20);
        assert_eq!(t.loop_stats("loop1").iterations, 80);
        // The branch is taken in pass 0 (10 times) and not taken in pass 1.
        let b = t.branch(0);
        assert_eq!(b.taken, 10);
        assert_eq!(b.not_taken, 10);
    }
}
