//! The state transition graph container.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use impact_cdfg::NodeId;

use crate::state::{ScheduledOp, State, StateId};

/// Condition attached to a transition.
#[derive(Clone, PartialEq, Debug)]
pub enum Guard {
    /// Unconditional transition.
    Always,
    /// Transition taken when the branch with the given preorder index
    /// evaluated to `taken`.
    Branch {
        /// Preorder index of the branch (see `impact_behsim::branch_count`).
        index: usize,
        /// Required outcome of the branch condition.
        taken: bool,
    },
    /// Loop back-edge (or exit edge) of the loop with the given label.
    Loop {
        /// The loop label. Shared: guards are cloned along every edge the
        /// composer routes, so the label is interned rather than re-allocated.
        label: Arc<str>,
        /// `true` for the back-edge (another iteration), `false` for the exit.
        continues: bool,
    },
}

impl Guard {
    /// Convenience constructor for a loop guard.
    pub fn loop_back(label: &str, continues: bool) -> Self {
        Guard::Loop {
            label: Arc::from(label),
            continues,
        }
    }
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Guard::Always => write!(f, "1"),
            Guard::Branch { index, taken } => {
                write!(f, "{}b{index}", if *taken { "" } else { "!" })
            }
            Guard::Loop { label, continues } => {
                write!(f, "{}{label}", if *continues { "" } else { "!" })
            }
        }
    }
}

/// A guarded, probabilistic transition between two states.
#[derive(Clone, PartialEq, Debug)]
pub struct Transition {
    /// Source state.
    pub from: StateId,
    /// Destination state.
    pub to: StateId,
    /// Condition under which the transition is taken.
    pub guard: Guard,
    /// Probability of taking the transition when leaving `from`.
    pub probability: f64,
}

/// Errors reported by [`Stg::validate`].
#[derive(Clone, PartialEq, Debug)]
pub enum StgError {
    /// A transition references a state that does not exist.
    DanglingState {
        /// The missing state.
        state: StateId,
    },
    /// The outgoing probability mass of a state differs from 1 by more than
    /// the tolerance.
    ProbabilityMass {
        /// The offending state.
        state: StateId,
        /// Total outgoing + exit probability found.
        total: f64,
    },
    /// The graph has no states.
    Empty,
}

impl fmt::Display for StgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StgError::DanglingState { state } => {
                write!(f, "transition references missing state {state}")
            }
            StgError::ProbabilityMass { state, total } => write!(
                f,
                "state {state} has outgoing probability mass {total:.4}, expected 1.0"
            ),
            StgError::Empty => write!(f, "state transition graph has no states"),
        }
    }
}

impl Error for StgError {}

/// Where one state's operations end in the graph's shared operation vector,
/// and its exit probability.
#[derive(Clone, Copy, PartialEq, Debug)]
struct StateSlot {
    ops_end: usize,
    exit_probability: f64,
}

/// A state transition graph: the output of scheduling.
///
/// The graph is stored flat: every state's operations lie in one shared
/// vector, state after state, and each state keeps only where its operations
/// end and its exit probability. [`Stg::state`] and [`Stg::states`] hand out
/// borrowed [`State`] views.
#[derive(Clone, PartialEq, Debug)]
pub struct Stg {
    clock_ns: f64,
    ops: Vec<ScheduledOp>,
    states: Vec<StateSlot>,
    transitions: Vec<Transition>,
    entry: StateId,
}

impl Stg {
    /// Creates an empty STG with the given clock period.
    pub fn new(clock_ns: f64) -> Self {
        Self {
            clock_ns,
            ops: Vec::new(),
            states: Vec::new(),
            transitions: Vec::new(),
            entry: StateId(0),
        }
    }

    /// Clock period in nanoseconds.
    pub fn clock_ns(&self) -> f64 {
        self.clock_ns
    }

    /// Adds an empty state and returns its id.
    pub fn add_state(&mut self) -> StateId {
        let id = StateId(self.states.len());
        self.states.push(StateSlot {
            ops_end: self.ops.len(),
            exit_probability: 0.0,
        });
        id
    }

    /// Adds a scheduled operation to a state. Adding to the newest state
    /// appends; adding to an earlier one (tail placement) inserts at that
    /// state's end and shifts the operations of every later state.
    ///
    /// # Panics
    ///
    /// Panics if the state does not exist.
    pub fn add_op(&mut self, state: StateId, op: ScheduledOp) {
        let end = self.states[state.0].ops_end;
        self.ops.insert(end, op);
        for slot in &mut self.states[state.0..] {
            slot.ops_end += 1;
        }
    }

    /// Appends `count` fresh states linked in order by unconditional
    /// transitions of probability 1.0 — the state skeleton one basic
    /// block's schedule is spliced into — and returns the id of the first.
    /// The chain's states are consecutive: the `i`-th is `first + i`. With
    /// `count == 0` nothing is added and the id returned is the next state's.
    pub fn add_chain(&mut self, count: usize) -> StateId {
        let first = self.states.len();
        for index in first..first + count {
            self.add_state();
            if index > first {
                self.add_transition(StateId(index - 1), StateId(index), Guard::Always, 1.0);
            }
        }
        StateId(first)
    }

    /// Adds a transition.
    pub fn add_transition(&mut self, from: StateId, to: StateId, guard: Guard, probability: f64) {
        self.transitions.push(Transition {
            from,
            to,
            guard,
            probability,
        });
    }

    /// Marks `state` as terminating the pass with the given probability.
    ///
    /// # Panics
    ///
    /// Panics if the state does not exist.
    pub fn set_exit_probability(&mut self, state: StateId, probability: f64) {
        self.states[state.0].exit_probability = probability;
    }

    /// Sets the entry state (defaults to the first state added).
    pub fn set_entry(&mut self, state: StateId) {
        self.entry = state;
    }

    /// Drops the spare capacity growth left behind, so a stored graph holds
    /// exactly its states, operations and transitions.
    pub fn shrink_to_fit(&mut self) {
        self.ops.shrink_to_fit();
        self.states.shrink_to_fit();
        self.transitions.shrink_to_fit();
    }

    /// The entry state.
    pub fn entry(&self) -> StateId {
        self.entry
    }

    /// Every state in id order (the `i`-th view is state `i`).
    pub fn states(&self) -> impl ExactSizeIterator<Item = State<'_>> + '_ {
        (0..self.states.len()).map(|index| self.state(StateId(index)))
    }

    /// Returns one state.
    ///
    /// # Panics
    ///
    /// Panics if the state does not exist.
    pub fn state(&self, id: StateId) -> State<'_> {
        let slot = self.states[id.0];
        let start =
            id.0.checked_sub(1)
                .map_or(0, |previous| self.states[previous].ops_end);
        State {
            ops: &self.ops[start..slot.ops_end],
            exit_probability: slot.exit_probability,
        }
    }

    /// All transitions.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Number of states (the controller's state count).
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Number of transitions (the controller's next-state logic size).
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// Total number of scheduled operation instances.
    pub fn scheduled_op_count(&self) -> usize {
        self.ops.len()
    }

    /// The state in which `node` is scheduled, if any.
    pub fn state_of(&self, node: NodeId) -> Option<StateId> {
        self.states().position(|s| s.contains(node)).map(StateId)
    }

    /// Outgoing transitions of a state.
    pub fn outgoing(&self, state: StateId) -> Vec<&Transition> {
        self.transitions
            .iter()
            .filter(|t| t.from == state)
            .collect()
    }

    /// Checks structural invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violation: an entry or transition endpoint that
    /// names a missing state, or a state whose outgoing probability mass is
    /// not 1 (within 1 %).
    pub fn validate(&self) -> Result<(), StgError> {
        if self.states.is_empty() {
            return Err(StgError::Empty);
        }
        for state in [self.entry]
            .into_iter()
            .chain(self.transitions.iter().flat_map(|t| [t.from, t.to]))
        {
            if state.0 >= self.states.len() {
                return Err(StgError::DanglingState { state });
            }
        }
        let mut mass: HashMap<usize, f64> = HashMap::new();
        for t in &self.transitions {
            *mass.entry(t.from.0).or_insert(0.0) += t.probability;
        }
        for (index, slot) in self.states.iter().enumerate() {
            let total = mass.get(&index).copied().unwrap_or(0.0) + slot.exit_probability;
            // States with no outgoing transitions and no exit probability are
            // implicit exits; anything else must sum to one.
            if total > 1e-9 && (total - 1.0).abs() > 0.01 {
                return Err(StgError::ProbabilityMass {
                    state: StateId(index),
                    total,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn two_state() -> Stg {
        let mut stg = Stg::new(15.0);
        let s0 = stg.add_state();
        let s1 = stg.add_state();
        stg.add_op(s0, ScheduledOp::new(NodeId::new(0), 0.0, 10.0));
        stg.add_op(s1, ScheduledOp::new(NodeId::new(1), 0.0, 10.0));
        stg.add_transition(s0, s1, Guard::Always, 1.0);
        stg.set_exit_probability(s1, 1.0);
        stg
    }

    #[test]
    fn construction_and_accessors() {
        let stg = two_state();
        assert_eq!(stg.state_count(), 2);
        assert_eq!(stg.transition_count(), 1);
        assert_eq!(stg.scheduled_op_count(), 2);
        assert_eq!(stg.entry().index(), 0);
        assert_eq!(stg.state_of(NodeId::new(1)), Some(StateId(1)));
        assert_eq!(stg.state_of(NodeId::new(9)), None);
        assert_eq!(stg.outgoing(StateId(0)).len(), 1);
    }

    #[test]
    fn tail_placement_inserts_into_an_earlier_state() {
        let mut stg = two_state();
        let s2 = stg.add_state();
        stg.add_op(s2, ScheduledOp::new(NodeId::new(2), 0.0, 5.0));
        stg.add_op(StateId(0), ScheduledOp::new(NodeId::new(3), 10.0, 12.0));
        let nodes = |state: State<'_>| -> Vec<usize> {
            state.ops.iter().map(|op| op.node.index()).collect()
        };
        let states: Vec<Vec<usize>> = stg.states().map(nodes).collect();
        assert_eq!(states, [vec![0, 3], vec![1], vec![2]]);
        assert_eq!(stg.state_of(NodeId::new(3)), Some(StateId(0)));
        assert_eq!(stg.state_of(NodeId::new(2)), Some(StateId(2)));
        assert_eq!(stg.state(StateId(1)).exit_probability, 1.0);
        assert!((stg.state(StateId(0)).occupancy_ns() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn chains_are_consecutive_states() {
        let mut stg = two_state();
        let first = stg.add_chain(3);
        assert_eq!(first, StateId(2));
        assert_eq!(stg.state_count(), 5);
        assert_eq!(stg.outgoing(StateId(2))[0].to, StateId(3));
        assert_eq!(stg.outgoing(StateId(3))[0].to, StateId(4));
        assert!(stg.outgoing(StateId(4)).is_empty());
        assert_eq!(stg.add_chain(0), StateId(5));
        assert_eq!(stg.state_count(), 5);
    }

    #[test]
    fn validation_accepts_well_formed_graphs() {
        assert!(two_state().validate().is_ok());
    }

    #[test]
    fn validation_rejects_dangling_states() {
        let mut stg = two_state();
        stg.add_transition(StateId(0), StateId(9), Guard::Always, 0.0);
        assert!(matches!(
            stg.validate(),
            Err(StgError::DanglingState { .. })
        ));
    }

    #[test]
    fn validation_rejects_a_missing_entry() {
        let mut stg = two_state();
        stg.set_entry(StateId(7));
        assert_eq!(
            stg.validate(),
            Err(StgError::DanglingState { state: StateId(7) })
        );
    }

    #[test]
    fn validation_rejects_bad_probability_mass() {
        let mut stg = Stg::new(15.0);
        let s0 = stg.add_state();
        let s1 = stg.add_state();
        stg.add_transition(s0, s1, Guard::Always, 0.4);
        // 0.4 total outgoing mass with no exit probability: invalid.
        assert!(matches!(
            stg.validate(),
            Err(StgError::ProbabilityMass { .. })
        ));
    }

    #[test]
    fn empty_graph_is_invalid() {
        assert!(matches!(Stg::new(15.0).validate(), Err(StgError::Empty)));
    }

    #[test]
    fn guard_display() {
        assert_eq!(Guard::Always.to_string(), "1");
        assert_eq!(
            Guard::Branch {
                index: 2,
                taken: true
            }
            .to_string(),
            "b2"
        );
        assert_eq!(
            Guard::Branch {
                index: 2,
                taken: false
            }
            .to_string(),
            "!b2"
        );
        assert_eq!(Guard::loop_back("l0", false).to_string(), "!l0");
    }
}
