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

// ---------------------------------------------------------------- snapshot codec

use impact_codec::{Decode, DecodeError, Decoder, Encode, Encoder};

/// Version tag of [`Guard`]'s wire layout.
const TAG_GUARD: u8 = 0x22;
/// Version tag of [`Transition`]'s wire layout.
const TAG_TRANSITION: u8 = 0x23;
/// Version tag of [`Stg`]'s wire layout.
const TAG_STG: u8 = 0x25;
/// Version tag of one state inside an [`Stg`]'s wire layout.
const TAG_STATE: u8 = 0x21;

impl Encode for Guard {
    fn encode(&self, w: &mut Encoder) {
        w.put_tag(TAG_GUARD);
        match self {
            Guard::Always => w.put_u8(0),
            Guard::Branch { index, taken } => {
                w.put_u8(1);
                w.put_usize(*index);
                w.put_bool(*taken);
            }
            Guard::Loop { label, continues } => {
                w.put_u8(2);
                w.put_str(label);
                w.put_bool(*continues);
            }
        }
    }
}

impl Decode for Guard {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        r.expect_tag(TAG_GUARD)?;
        Ok(match r.take_u8()? {
            0 => Guard::Always,
            1 => Guard::Branch {
                index: r.take_usize()?,
                taken: r.take_bool()?,
            },
            2 => Guard::Loop {
                label: Arc::from(r.take_str()?),
                continues: r.take_bool()?,
            },
            _ => return Err(DecodeError::Invalid("unknown Guard discriminant")),
        })
    }
}

impl Encode for Transition {
    fn encode(&self, w: &mut Encoder) {
        w.put_tag(TAG_TRANSITION);
        self.from.encode(w);
        self.to.encode(w);
        self.guard.encode(w);
        w.put_f64(self.probability);
    }
}

impl Decode for Transition {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        r.expect_tag(TAG_TRANSITION)?;
        Ok(Self {
            from: Decode::decode(r)?,
            to: Decode::decode(r)?,
            guard: Decode::decode(r)?,
            probability: r.take_f64()?,
        })
    }
}

impl Encode for Stg {
    /// Per state its tag, its operation list and its exit probability: the
    /// bytes of one `Vec` of operations per state.
    fn encode(&self, w: &mut Encoder) {
        w.put_tag(TAG_STG);
        w.put_f64(self.clock_ns);
        w.put_usize(self.states.len());
        for state in self.states() {
            w.put_tag(TAG_STATE);
            state.ops.encode(w);
            w.put_f64(state.exit_probability);
        }
        self.transitions.encode(w);
        self.entry.encode(w);
    }
}

/// Bytes of the smallest encoded state: its tag, an empty operation list
/// and its exit probability.
const MIN_STATE_LEN: usize = 1 + 8 + 8;

impl Decode for Stg {
    /// Rejects an entry or transition endpoint that names a missing state
    /// (an empty graph keeps entry 0), so every analysis of a decoded graph
    /// indexes only states it has.
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        r.expect_tag(TAG_STG)?;
        let clock_ns = r.take_f64()?;
        let state_count = r.take_len(MIN_STATE_LEN)?;
        let mut ops = Vec::new();
        let mut states = Vec::with_capacity(state_count);
        for _ in 0..state_count {
            r.expect_tag(TAG_STATE)?;
            for _ in 0..r.take_len(1)? {
                ops.push(ScheduledOp::decode(r)?);
            }
            states.push(StateSlot {
                ops_end: ops.len(),
                exit_probability: r.take_f64()?,
            });
        }
        ops.shrink_to_fit();
        let missing = |state: StateId| state.0 >= state_count;
        let transitions: Vec<Transition> = Decode::decode(r)?;
        if transitions.iter().any(|t| missing(t.from) || missing(t.to)) {
            return Err(DecodeError::Invalid("STG transition names a missing state"));
        }
        let entry = StateId::decode(r)?;
        if missing(entry) && !(state_count == 0 && entry.0 == 0) {
            return Err(DecodeError::Invalid("STG entry names a missing state"));
        }
        Ok(Self {
            clock_ns,
            ops,
            states,
            transitions,
            entry,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use impact_cdfg::fingerprint::FingerprintHasher;
    use impact_codec::{decode_from_slice, encode_to_vec};

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
    fn graphs_round_trip_through_the_codec() {
        let mut stg = two_state();
        stg.add_op(StateId(0), ScheduledOp::new(NodeId::new(2), 10.0, 12.0));
        stg.add_transition(StateId(1), StateId(0), Guard::loop_back("l", true), 0.0);
        let empty = Stg::new(15.0);
        for graph in [stg, empty] {
            let bytes = encode_to_vec(&graph);
            assert_eq!(decode_from_slice::<Stg>(&bytes).unwrap(), graph);
        }
    }

    /// A decoded graph must not name states it does not have: every
    /// analysis indexes states by the entry and the transition endpoints.
    #[test]
    fn decoding_rejects_an_entry_or_endpoint_past_the_states() {
        let bytes = encode_to_vec(&two_state());
        let invalid = |bytes: &[u8]| {
            matches!(
                decode_from_slice::<Stg>(bytes),
                Err(DecodeError::Invalid(_))
            )
        };
        // The entry is the last field.
        let entry_at = bytes.len() - 8;
        let mut mutant = bytes.clone();
        mutant[entry_at..].copy_from_slice(&7u64.to_le_bytes());
        assert!(invalid(&mutant));
        mutant[entry_at..].copy_from_slice(&1u64.to_le_bytes());
        assert_eq!(
            decode_from_slice::<Stg>(&mutant).unwrap().entry(),
            StateId(1)
        );

        // The only transition's `from` follows the transition count and its
        // tag; its `to` follows that.
        let from_at = entry_at - TRANSITION_TAIL_LEN;
        let field = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        assert_eq!(
            (bytes[from_at - 1], field(from_at), field(from_at + 8)),
            (TAG_TRANSITION, 0, 1)
        );
        for at in [from_at, from_at + 8] {
            let mut mutant = bytes.clone();
            mutant[at..at + 8].copy_from_slice(&2u64.to_le_bytes());
            assert!(invalid(&mutant));
        }

        // An empty graph keeps entry 0, and only entry 0.
        let mut empty = encode_to_vec(&Stg::new(15.0));
        assert!(decode_from_slice::<Stg>(&empty).is_ok());
        let entry_at = empty.len() - 8;
        empty[entry_at..].copy_from_slice(&1u64.to_le_bytes());
        assert!(invalid(&empty));
    }

    /// Bytes of `two_state`'s one transition from its `from` field on:
    /// `from`, `to`, an unconditional guard and the probability.
    const TRANSITION_TAIL_LEN: usize = 8 + 8 + 2 + 8;

    /// The encoded bytes of an STG built the way tail placement builds one:
    /// operations land in earlier states after later states exist.
    #[test]
    fn stg_wire_bytes_are_pinned() {
        let mut stg = Stg::new(12.5);
        let s0 = stg.add_state();
        let s1 = stg.add_state();
        let s2 = stg.add_state();
        let s3 = stg.add_state();
        let s4 = stg.add_state();
        stg.add_op(s0, ScheduledOp::new(NodeId::new(0), 0.0, 4.5));
        stg.add_op(s2, ScheduledOp::new(NodeId::new(3), 0.0, 9.0));
        stg.add_op(s1, ScheduledOp::new(NodeId::new(1), 0.0, 6.0));
        stg.add_op(s3, ScheduledOp::new(NodeId::new(5), 0.0, 3.0));
        // Tail placement: chained onto s0 and s1 after later states exist.
        stg.add_op(s0, ScheduledOp::new(NodeId::new(2), 4.5, 7.25));
        stg.add_op(s1, ScheduledOp::new(NodeId::new(4), 6.0, 8.5));
        stg.add_op(s0, ScheduledOp::new(NodeId::new(6), 7.25, 9.5));
        let branch = |taken| Guard::Branch { index: 0, taken };
        stg.add_transition(s0, s1, branch(true), 0.6);
        stg.add_transition(s0, s2, branch(false), 0.4);
        stg.add_transition(s1, s3, Guard::Always, 1.0);
        stg.add_transition(s2, s3, Guard::Always, 0.75);
        stg.set_exit_probability(s2, 0.25);
        stg.add_transition(s3, s0, Guard::loop_back("l0", true), 0.8);
        stg.add_transition(s3, s4, Guard::loop_back("l0", false), 0.2);
        stg.set_exit_probability(s4, 1.0);
        stg.set_entry(s0);
        assert_eq!(stg.state(s0).op_count(), 3);
        assert_eq!(stg.scheduled_op_count(), 7);

        let bytes = encode_to_vec(&stg);
        let mut h = FingerprintHasher::new();
        for &byte in &bytes {
            h.write_u64(u64::from(byte));
        }
        assert_eq!(
            (bytes.len(), h.finish().as_u128()),
            (467, 0x07d6_acc1_c3d9_8fa4_f0ce_4212_afc7_5c60)
        );
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
