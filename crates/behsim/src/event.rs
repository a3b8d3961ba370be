//! Execution traces: the per-operation signal traces produced by one
//! behavioral simulation, stored as columns.

use std::collections::HashMap;
use std::sync::OnceLock;

use impact_cdfg::fingerprint::FingerprintHasher;
use impact_cdfg::{NodeId, VarId};

use crate::profile::{BranchStats, ControlProfile, LoopStats};

/// The recorded executions of one CDFG node (the paper's `TR(op_i)`), one
/// row per execution in dynamic order, stored column by column: the global
/// sequence number, the result value and one column per input port.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct NodeTrace {
    sequence: Vec<u32>,
    output: Vec<i64>,
    inputs: Vec<Vec<i64>>,
}

/// The trace of a node that never executed.
static NO_EXECUTIONS: NodeTrace = NodeTrace {
    sequence: Vec::new(),
    output: Vec::new(),
    inputs: Vec::new(),
};

impl NodeTrace {
    /// Number of recorded executions.
    pub fn len(&self) -> usize {
        self.sequence.len()
    }

    /// Returns `true` when the node never executed.
    pub fn is_empty(&self) -> bool {
        self.sequence.is_empty()
    }

    /// Global dynamic order of each execution (strictly increasing).
    pub fn sequences(&self) -> &[u32] {
        &self.sequence
    }

    /// Result value of each execution.
    pub fn outputs(&self) -> &[i64] {
        &self.output
    }

    /// Number of input ports recorded per execution (for `Select` nodes the
    /// third port is the condition value).
    pub fn ports(&self) -> usize {
        self.inputs.len()
    }

    /// Operand values seen on one input port, one per execution; empty past
    /// the last port.
    pub fn inputs(&self, port: usize) -> &[i64] {
        self.inputs.get(port).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Appends one execution. A node always records the same number of
    /// operands, so its first execution fixes the port columns.
    pub(crate) fn push(&mut self, sequence: u32, inputs: &[i64], output: i64) {
        if self.sequence.is_empty() {
            self.inputs = vec![Vec::new(); inputs.len()];
        }
        debug_assert_eq!(self.inputs.len(), inputs.len(), "one arity per node");
        self.sequence.push(sequence);
        self.output.push(output);
        for (column, &value) in self.inputs.iter_mut().zip(inputs) {
            column.push(value);
        }
    }
}

/// One executed operation read out of its node's columns: the paper's trace
/// row "inputs | output" for one dynamic occurrence of a CDFG node.
#[derive(Clone, Copy, Debug)]
pub struct Event<'a> {
    /// The executed node.
    pub node: NodeId,
    /// Index of the input pass during which the event occurred.
    pub pass: u32,
    /// Global dynamic order of the event within the whole simulation.
    pub sequence: u32,
    /// Result value.
    pub output: i64,
    columns: &'a NodeTrace,
    row: usize,
}

impl Event<'_> {
    /// Number of operands the event recorded.
    pub fn ports(&self) -> usize {
        self.columns.ports()
    }

    /// Operand value on `port` (`0` past the last port).
    pub fn input(&self, port: usize) -> i64 {
        self.columns
            .inputs(port)
            .get(self.row)
            .copied()
            .unwrap_or(0)
    }
}

/// Everything recorded by one behavioral simulation.
///
/// The trace owns one [`NodeTrace`] per CDFG node, the per-variable write
/// sequences, the control-flow profile and the primary-output values of
/// every pass. Sequence numbers run from `0` to `event_count() - 1` in
/// dynamic order, each used by exactly one event.
#[derive(Clone, Debug)]
pub struct ExecutionTrace {
    nodes: Vec<NodeTrace>,
    /// Number of events recorded before each pass began, indexed by pass.
    pass_starts: Vec<u32>,
    first_seqs: Vec<u32>,
    events: usize,
    /// Values written to each variable, indexed by variable.
    var_writes: Vec<Vec<i64>>,
    profile: ControlProfile,
    outputs: Vec<HashMap<VarId, i64>>,
    passes: u32,
    /// Lazily computed [`Self::content_digest`]; the trace is immutable, so
    /// the first computation is kept for the trace's lifetime (and carried
    /// by clones).
    digest: OnceLock<u128>,
}

/// Equality over the recorded simulation only — the lazily memoized digest
/// is derived state and deliberately excluded.
impl PartialEq for ExecutionTrace {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes
            && self.pass_starts == other.pass_starts
            && self.var_writes == other.var_writes
            && self.profile == other.profile
            && self.outputs == other.outputs
            && self.passes == other.passes
    }
}

impl ExecutionTrace {
    pub(crate) fn new(
        nodes: Vec<NodeTrace>,
        pass_starts: Vec<u32>,
        var_writes: Vec<Vec<i64>>,
        profile: ControlProfile,
        outputs: Vec<HashMap<VarId, i64>>,
        passes: u32,
    ) -> Self {
        let events = nodes.iter().map(NodeTrace::len).sum::<usize>();
        let first_seqs = (0..pass_starts.len())
            .map(|pass| {
                let end = pass_starts.get(pass + 1).map_or(events, |&s| s as usize);
                let start = pass_starts[pass];
                if (start as usize) < end {
                    start
                } else {
                    0
                }
            })
            .collect();
        Self {
            nodes,
            pass_starts,
            first_seqs,
            events,
            var_writes,
            profile,
            outputs,
            passes,
            digest: OnceLock::new(),
        }
    }

    /// Sequence number of the first event recorded during each pass (`0` for
    /// passes that recorded none), indexed by pass.
    pub fn first_sequences(&self) -> &[u32] {
        &self.first_seqs
    }

    /// Deterministic 128-bit content digest of the trace: the dynamic event
    /// stream, the per-variable write sequences and the pass count.
    /// Memoized — the trace is immutable — so sweeps that scope many
    /// evaluation sessions by workload hash the event stream once instead of
    /// once per run.
    pub fn content_digest(&self) -> u128 {
        *self.digest.get_or_init(|| {
            let mut hasher = FingerprintHasher::new();
            hasher.write_tag(0xE1);
            hasher.write_u64(u64::from(self.passes));
            hasher.write_u64(self.events as u64);
            // Sequence numbers are dense, so scattering every row to its
            // sequence number restores the dynamic order.
            let mut order = vec![(0u32, 0u32); self.events];
            for (node, trace) in self.nodes.iter().enumerate() {
                for (row, &sequence) in trace.sequence.iter().enumerate() {
                    order[sequence as usize] = (node as u32, row as u32);
                }
            }
            let mut pass = 0;
            for (sequence, &(node, row)) in order.iter().enumerate() {
                while self
                    .pass_starts
                    .get(pass + 1)
                    .is_some_and(|&start| start as usize <= sequence)
                {
                    pass += 1;
                }
                let trace = &self.nodes[node as usize];
                let row = row as usize;
                hasher.write_u64(u64::from(node));
                hasher.write_u64(trace.ports() as u64);
                for column in &trace.inputs {
                    hasher.write_i64(column[row]);
                }
                hasher.write_i64(trace.output[row]);
                hasher.write_u64(pass as u64);
                hasher.write_u64(sequence as u64);
            }
            // Every written variable's writes, in variable-id order.
            hasher.write_tag(0xF2);
            for (var, writes) in self.var_writes.iter().enumerate() {
                if writes.is_empty() {
                    continue;
                }
                hasher.write_u64(var as u64);
                hasher.write_u64(writes.len() as u64);
                for &value in writes {
                    hasher.write_i64(value);
                }
            }
            hasher.finish().as_u128()
        })
    }

    /// The recorded executions of one node (the paper's `TR(op_i)` trace for
    /// that operation).
    pub fn node_trace(&self, node: NodeId) -> &NodeTrace {
        self.nodes.get(node.index()).unwrap_or(&NO_EXECUTIONS)
    }

    /// Execution `row` of `node`, in the node's dynamic order.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.node_trace(node).len()`.
    pub fn event(&self, node: NodeId, row: usize) -> Event<'_> {
        let columns = self.node_trace(node);
        let sequence = columns.sequence[row];
        let pass = self.pass_starts.partition_point(|&start| start <= sequence);
        Event {
            node,
            pass: pass.saturating_sub(1) as u32,
            sequence,
            output: columns.output[row],
            columns,
            row,
        }
    }

    /// Number of times a node executed across the whole simulation.
    pub fn execution_count(&self, node: NodeId) -> usize {
        self.node_trace(node).len()
    }

    /// Average number of executions of a node per input pass.
    pub fn executions_per_pass(&self, node: NodeId) -> f64 {
        self.execution_count(node) as f64 / f64::from(self.passes.max(1))
    }

    /// Sequence of values written to a variable across the simulation
    /// (the register trace of the register holding that variable).
    pub fn variable_writes(&self, var: VarId) -> &[i64] {
        self.var_writes
            .get(var.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Control-flow statistics (branch probabilities, loop trip counts).
    pub fn profile(&self) -> &ControlProfile {
        &self.profile
    }

    /// Statistics of the branch with the given preorder index.
    pub fn branch(&self, index: usize) -> BranchStats {
        self.profile.branch(index)
    }

    /// Statistics of the loop with the given label.
    pub fn loop_stats(&self, label: &str) -> LoopStats {
        self.profile.loop_stats(label)
    }

    /// Number of simulated input passes.
    pub fn passes(&self) -> u32 {
        self.passes
    }

    /// Value committed to primary output `var` during `pass`, if any.
    pub fn output(&self, pass: usize, var: VarId) -> Option<i64> {
        self.outputs.get(pass).and_then(|m| m.get(&var).copied())
    }

    /// All outputs committed during `pass`.
    pub fn outputs(&self, pass: usize) -> Option<&HashMap<VarId, i64>> {
        self.outputs.get(pass)
    }

    /// Total number of recorded operation events.
    pub fn event_count(&self) -> usize {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trace of `passes` passes whose events run on `nodes` in the given
    /// order, each with inputs `[output - 1, 1]`; every pass records the
    /// same number of events.
    fn trace_of(nodes: &[(usize, i64)], passes: u32) -> ExecutionTrace {
        let mut columns = vec![NodeTrace::default(); 10];
        for (sequence, &(node, output)) in nodes.iter().enumerate() {
            columns[node].push(sequence as u32, &[output - 1, 1], output);
        }
        let per_pass = nodes.len() as u32 / passes.max(1);
        ExecutionTrace::new(
            columns,
            (0..passes).map(|pass| pass * per_pass).collect(),
            Vec::new(),
            ControlProfile::default(),
            vec![HashMap::new(); passes as usize],
            passes,
        )
    }

    #[test]
    fn per_node_indexing_preserves_order() {
        let trace = trace_of(&[(0, 1), (1, 2), (0, 3)], 1);
        let n0 = trace.node_trace(NodeId::new(0));
        assert_eq!(n0.len(), 2);
        assert!(n0.sequences()[0] < n0.sequences()[1]);
        assert_eq!(trace.execution_count(NodeId::new(1)), 1);
        assert_eq!(trace.execution_count(NodeId::new(9)), 0);
        assert_eq!(trace.event_count(), 3);
    }

    #[test]
    fn executions_per_pass_divides_by_pass_count() {
        let trace = trace_of(&[(0, 1), (0, 2), (0, 3), (0, 4)], 2);
        assert!((trace.executions_per_pass(NodeId::new(0)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn missing_variable_has_empty_writes() {
        let trace = ExecutionTrace::new(
            vec![],
            vec![0],
            Vec::new(),
            ControlProfile::default(),
            vec![],
            1,
        );
        assert!(trace.variable_writes(VarId::new(0)).is_empty());
        assert!(trace.output(0, VarId::new(0)).is_none());
    }
}
