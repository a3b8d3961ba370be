//! States of the state transition graph and the operations scheduled in them.

use std::fmt;

use impact_cdfg::NodeId;

/// Identifier of a state (control step) in an [`Stg`](crate::Stg).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StateId(pub(crate) usize);

impl StateId {
    /// The id of the state with the given raw index, e.g. the `i`-th state
    /// of a chain from [`Stg::add_chain`](crate::Stg::add_chain) is
    /// `StateId::new(first.index() + i)`.
    pub const fn new(index: usize) -> Self {
        Self(index)
    }

    /// Raw index of the state.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One operation scheduled into a state, with its start and finish offsets
/// inside the clock period (used for chaining and cycle-time checks).
#[derive(Clone, PartialEq, Debug)]
pub struct ScheduledOp {
    /// The CDFG node executed in this state.
    pub node: NodeId,
    /// Offset from the start of the state at which the operation begins, in
    /// nanoseconds.
    pub start_ns: f64,
    /// Offset at which its result is available, in nanoseconds.
    pub finish_ns: f64,
}

impl ScheduledOp {
    /// Creates a scheduled operation.
    pub fn new(node: NodeId, start_ns: f64, finish_ns: f64) -> Self {
        Self {
            node,
            start_ns,
            finish_ns,
        }
    }
}

/// A state (control step) of the STG: a view of its operations and exit
/// probability, borrowed from the graph's flat storage.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct State<'a> {
    /// Operations executed in this state.
    pub ops: &'a [ScheduledOp],
    /// Probability that the pass terminates after this state
    /// (0 for purely internal states).
    pub exit_probability: f64,
}

impl State<'_> {
    /// Latest finish time of any operation in the state, in nanoseconds.
    pub fn occupancy_ns(&self) -> f64 {
        self.ops.iter().map(|op| op.finish_ns).fold(0.0, f64::max)
    }

    /// Number of operations scheduled in the state.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` when the state schedules the given node.
    pub fn contains(&self, node: NodeId) -> bool {
        self.ops.iter().any(|op| op.node == node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_is_the_latest_finish() {
        assert_eq!(State::default().occupancy_ns(), 0.0);
        let ops = [
            ScheduledOp::new(NodeId::new(0), 0.0, 10.0),
            ScheduledOp::new(NodeId::new(1), 10.0, 13.5),
        ];
        let s = State {
            ops: &ops,
            exit_probability: 0.0,
        };
        assert!((s.occupancy_ns() - 13.5).abs() < 1e-12);
        assert_eq!(s.op_count(), 2);
        assert!(s.contains(NodeId::new(1)));
        assert!(!s.contains(NodeId::new(7)));
    }

    #[test]
    fn state_id_display() {
        assert_eq!(StateId(4).to_string(), "s4");
        assert_eq!(StateId(4).index(), 4);
    }
}
