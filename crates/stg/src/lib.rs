//! State transition graph (STG) model and expected-number-of-cycles analysis.
//!
//! Scheduling "is the process of assigning nodes in the CDFG to states, and
//! connecting the states via conditions to form a state transition graph"
//! (Section 2.2). This crate owns that data structure: states containing
//! scheduled (and possibly chained) operations, guarded probabilistic
//! transitions between states, and what the IMPACT cost function reads of
//! them —
//!
//! * the clock period,
//! * controller size estimates (state and transition counts),
//! * the **expected number of cycles** (ENC) of one pass through the design,
//!   solved exactly from the transition probabilities — the scheduler
//!   composes the ENC hierarchically, and tests check it against this
//!   Markov-chain solution.
//!
//! An [`Stg`] is stored flat: the operations of every state lie in one
//! shared vector, state after state, each state keeps only where its
//! operations end and its exit probability, and the transitions form one
//! more vector. A [`State`] is a view borrowed from that storage, so building
//! a graph allocates per vector, not per state.
//!
//! # Example
//!
//! ```
//! use impact_cdfg::NodeId;
//! use impact_stg::{Guard, ScheduledOp, Stg};
//!
//! // A two-state machine that loops back to the first state with
//! // probability 0.75 models a loop with an expected trip count of 3.
//! let mut stg = Stg::new(15.0);
//! let s0 = stg.add_state();
//! let s1 = stg.add_state();
//! stg.add_op(s0, ScheduledOp::new(NodeId::new(0), 0.0, 10.0));
//! stg.add_transition(s0, s1, Guard::Always, 1.0);
//! stg.add_transition(s1, s0, Guard::loop_back("l", true), 0.75);
//! stg.set_exit_probability(s1, 0.25);
//! let enc = stg.expected_cycles();
//! assert!((enc - 8.0).abs() < 1e-9); // 2 cycles per iteration, 4 visits of s0/s1 pair on average
//! ```

mod enc;
mod state;
mod stg;

pub use state::{ScheduledOp, State, StateId};
pub use stg::{Guard, Stg, StgError, Transition};
