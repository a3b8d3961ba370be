//! Error type for scheduling.

use std::error::Error;
use std::fmt;

use impact_cdfg::NodeId;

use crate::block::MAX_SPAN_PERIODS;

/// Errors reported by the schedulers.
#[derive(Clone, PartialEq, Debug)]
pub enum SchedError {
    /// An operation's delay spans more than 2^16 clock periods, the most
    /// one multi-cycle operation may take. [`schedule_block`](crate::schedule_block)
    /// raises it before it places any state of the block, so a tiny clock
    /// period fails at once instead of placing states without bound; the
    /// caller must slow the clock, pick a faster module or raise the supply.
    OperationTooSlow {
        /// The offending node.
        node: NodeId,
        /// Its effective delay in nanoseconds.
        delay_ns: f64,
        /// The clock period in nanoseconds.
        clock_ns: f64,
        /// The number of states a multi-cycle implementation would need
        /// (saturating at `u32::MAX`).
        states_needed: u32,
    },
    /// The per-node delay or binding tables do not cover every node.
    IncompleteProblem {
        /// Number of nodes in the CDFG.
        nodes: usize,
        /// Number of entries provided.
        provided: usize,
    },
    /// A dependence cycle was found among the operations of one basic block,
    /// which means the CDFG is malformed.
    DependenceCycle {
        /// A node on the cycle.
        node: NodeId,
    },
    /// The clock period is zero, negative, infinite or NaN: no state could
    /// be timed against it.
    InvalidClock {
        /// The requested clock period in nanoseconds.
        clock_ns: f64,
    },
}

impl SchedError {
    /// Accepts a clock period the schedulers can time states against:
    /// finite and positive.
    pub(crate) fn check_clock(clock_ns: f64) -> Result<(), SchedError> {
        if clock_ns.is_finite() && clock_ns > 0.0 {
            Ok(())
        } else {
            Err(SchedError::InvalidClock { clock_ns })
        }
    }
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::OperationTooSlow {
                node,
                delay_ns,
                clock_ns,
                states_needed,
            } => write!(
                f,
                "node {node} needs {delay_ns:.1} ns, {states_needed} periods of the {clock_ns} ns clock; an operation may span at most {MAX_SPAN_PERIODS}"
            ),
            SchedError::IncompleteProblem { nodes, provided } => write!(
                f,
                "scheduling problem provides {provided} per-node entries for a CDFG with {nodes} nodes"
            ),
            SchedError::DependenceCycle { node } => {
                write!(f, "dependence cycle detected within a basic block at node {node}")
            }
            SchedError::InvalidClock { clock_ns } => {
                write!(f, "clock period {clock_ns} ns is not a finite positive number")
            }
        }
    }
}

impl Error for SchedError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_the_node() {
        let e = SchedError::OperationTooSlow {
            node: NodeId::new(3),
            delay_ns: 40.0,
            clock_ns: 15.0,
            states_needed: 3,
        };
        assert!(e.to_string().contains("n3"));
        assert!(e.to_string().contains("40.0"));
    }

    #[test]
    fn error_is_std_error() {
        fn check<T: Error + Send + Sync + 'static>() {}
        check::<SchedError>();
    }
}
