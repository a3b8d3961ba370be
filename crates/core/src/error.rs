//! Error type of the synthesis engine.

use std::error::Error;
use std::fmt;

use impact_rtl::RtlError;
use impact_sched::SchedError;

/// Errors reported by [`Impact::synthesize`](crate::Impact::synthesize).
#[derive(Clone, PartialEq, Debug)]
pub enum SynthesisError {
    /// The laxity factor is below 1.0, so even the fastest schedule cannot
    /// satisfy the ENC constraint, or it is NaN.
    InfeasibleLaxity {
        /// The requested laxity factor.
        laxity: f64,
    },
    /// The initial fully-parallel architecture could not be scheduled.
    Scheduling(SchedError),
    /// An internal RT-level mutation failed (indicates a bug in move
    /// generation).
    Rtl(RtlError),
    /// Static invariant auditing found violations in a freshly produced
    /// artifact (only raised at a [`VerifyLevel`](crate::VerifyLevel) above
    /// `Off`). Each string is one rendered violation.
    Verification(Vec<String>),
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::InfeasibleLaxity { laxity } if laxity.is_nan() => {
                write!(
                    f,
                    "laxity factor is NaN; it must be a number of at least 1.0"
                )
            }
            SynthesisError::InfeasibleLaxity { laxity } => {
                write!(f, "laxity factor {laxity} is below 1.0 and cannot be met")
            }
            SynthesisError::Scheduling(e) => write!(f, "scheduling failed: {e}"),
            SynthesisError::Rtl(e) => write!(f, "RT-level transformation failed: {e}"),
            SynthesisError::Verification(violations) => {
                write!(
                    f,
                    "invariant audit found {} violation(s): {}",
                    violations.len(),
                    violations.join("; ")
                )
            }
        }
    }
}

impl Error for SynthesisError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SynthesisError::Scheduling(e) => Some(e),
            SynthesisError::Rtl(e) => Some(e),
            SynthesisError::InfeasibleLaxity { .. } | SynthesisError::Verification(_) => None,
        }
    }
}

impl From<SchedError> for SynthesisError {
    fn from(e: SchedError) -> Self {
        SynthesisError::Scheduling(e)
    }
}

impl From<RtlError> for SynthesisError {
    fn from(e: RtlError) -> Self {
        SynthesisError::Rtl(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_and_sources() {
        let e = SynthesisError::InfeasibleLaxity { laxity: 0.5 };
        assert!(e.to_string().contains("0.5"));
        assert!(e.source().is_none());
        let nan = SynthesisError::InfeasibleLaxity { laxity: f64::NAN }.to_string();
        assert!(nan.contains("NaN") && !nan.contains("below"), "{nan}");
        let e = SynthesisError::from(SchedError::IncompleteProblem {
            nodes: 3,
            provided: 1,
        });
        assert!(e.source().is_some());
    }

    #[test]
    fn verification_message_lists_violations() {
        let e = SynthesisError::Verification(vec!["a".into(), "b".into()]);
        assert!(e.to_string().contains("2 violation(s)"));
        assert!(e.to_string().contains("a; b"));
        assert!(e.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Error + Send + Sync + 'static>() {}
        check::<SynthesisError>();
    }
}
