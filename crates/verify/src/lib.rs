//! Static invariant checker for IMPACT artifacts.
//!
//! Every other layer of the workspace *produces* designs, schedules and
//! cached evaluations; this crate checks finished artifacts **as data**.
//! Each check is a pure function that returns a list of [`Violation`]s (rule
//! id, severity, location, message) and never panics on corrupt input — a
//! corrupted artifact is a finding, not a crash. The one check that runs
//! production code is [`verify_schedule`]: a schedule is only its STG and
//! ENC, so the audit composes the problem again to get the blocks it checks
//! as data and the graph and ENC the stored ones must equal.
//!
//! The rule catalog (see [`rules`]) spans three artifact families:
//!
//! - **CDFG well-formedness** ([`verify_cdfg`]): structural validity,
//!   acyclic same-iteration data dependence, every operand defined before
//!   (or outside) its use.
//! - **RTL design legality** ([`verify_design`], [`verify_fingerprint`],
//!   [`verify_mux_sites`]): functional-unit and register bindings
//!   consistent in both directions, multiplexer-site annotations matching
//!   the actual multi-source sites, the stored structural fingerprint
//!   matching a recompute.
//! - **Schedule legality** ([`verify_schedule`], [`verify_block`],
//!   [`verify_schedule_artifact`]): data precedence, per-state resource
//!   exclusivity under the binding, chained delays fitting the clock
//!   period, the stored STG and ENC equal to the problem's composition, ENC
//!   within budget (± [`ENC_EPS`]).
//!
//! Cache-coherence rules over [`impact_core`]'s sweep sessions reuse these
//! functions and the same rule ids; they live in `impact_core::verify`
//! because cache keys are crate-private there.
//!
//! [`impact_core`]: https://docs.rs/impact_core

mod cdfg;
mod design;
mod schedule;

use std::fmt;

pub use cdfg::{structure_violation, verify_acyclic, verify_cdfg};
pub use design::{verify_design, verify_fingerprint, verify_mux_sites};
pub use schedule::{
    verify_block, verify_block_schedule, verify_schedule, verify_schedule_artifact,
};

/// Tolerance applied to ENC-budget comparisons: a design whose ENC exceeds
/// the budget by at most this much still passes. `impact_core`'s evaluator
/// applies this same constant in its read-time budget filter, so the
/// evaluator and the audits never disagree at the boundary.
pub const ENC_EPS: f64 = 1e-9;

/// Tolerance applied to time comparisons (nanoseconds), identical to the
/// slack the block scheduler grants when fitting chains into the clock
/// period.
pub const TIME_EPS: f64 = 1e-9;

/// How bad a violated rule is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// Suspicious but not necessarily corrupt (e.g. a dead allocation).
    Warning,
    /// The artifact is illegal: using it can produce wrong results.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One violated invariant: which rule, how severe, where, and what exactly
/// went wrong.
#[derive(Clone, PartialEq, Debug)]
pub struct Violation {
    /// Stable rule identifier from [`rules`].
    pub rule: &'static str,
    /// Severity of the finding.
    pub severity: Severity,
    /// Human-readable location of the offending element (node, unit,
    /// state, cache key…).
    pub location: String,
    /// What the rule expected and what it found.
    pub message: String,
}

impl Violation {
    /// An [`Severity::Error`]-level violation.
    pub fn error(
        rule: &'static str,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Self {
            rule,
            severity: Severity::Error,
            location: location.into(),
            message: message.into(),
        }
    }

    /// A [`Severity::Warning`]-level violation.
    pub fn warning(
        rule: &'static str,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Self {
            rule,
            severity: Severity::Warning,
            location: location.into(),
            message: message.into(),
        }
    }

    /// Returns a copy with `prefix · ` prepended to the location — used by
    /// aggregate audits (sessions, snapshots) to qualify which entry an
    /// inner artifact violation belongs to.
    #[must_use]
    pub fn at(mut self, prefix: &str) -> Self {
        self.location = format!("{prefix} · {}", self.location);
        self
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} at {}: {}",
            self.severity, self.rule, self.location, self.message
        )
    }
}

/// `true` when any violation in the slice is [`Severity::Error`].
pub fn has_errors(violations: &[Violation]) -> bool {
    violations.iter().any(|v| v.severity == Severity::Error)
}

/// Stable rule identifiers, one per checked invariant family.
pub mod rules {
    /// The CDFG fails its own structural validation (dangling references,
    /// arity mismatches, malformed regions).
    pub const CDFG_STRUCTURE: &str = "cdfg-structure";
    /// Same-iteration data dependence contains a cycle.
    pub const CDFG_ACYCLIC: &str = "cdfg-acyclic";
    /// An operand reads a variable that is never defined: no defining node,
    /// no initial value, and not a primary input.
    pub const CDFG_OPERAND_DEFINED: &str = "cdfg-operand-defined";
    /// A multiplexer site disagrees with the CDFG definers / RTL binding
    /// that induce it (a source op not bound to the sink unit, a register
    /// source op that does not write the register, duplicate signal keys),
    /// or a stored site list differs from the design's multi-source sites
    /// (a site missing, extra or out of order, a stale width or source).
    pub const CDFG_MUX_CONSISTENT: &str = "cdfg-mux-consistent";

    /// Operation ↔ functional-unit binding is inconsistent: an operation
    /// needing a unit is unbound, bound to a missing unit or to a unit of
    /// the wrong class — or an active unit has no operations at all.
    pub const RTL_FU_BINDING: &str = "rtl-fu-binding";
    /// Variable ↔ register binding is inconsistent in either direction.
    pub const RTL_REG_BINDING: &str = "rtl-reg-binding";
    /// A mux-restructuring annotation points at a sink that is not an
    /// actual multi-source site of the design.
    pub const RTL_MUX_ANNOTATION: &str = "rtl-mux-annotation";
    /// The design's recomputed structural fingerprint differs from the
    /// stored (possibly XOR-patched) one.
    pub const RTL_FINGERPRINT: &str = "rtl-fingerprint";

    /// A schedulable operation is missing from the state-transition graph,
    /// or a block's placed operations disagree with its node list.
    pub const SCHED_COVERAGE: &str = "sched-coverage";
    /// A data dependence is violated: a consumer starts before its
    /// same-iteration producer finishes.
    pub const SCHED_PRECEDENCE: &str = "sched-precedence";
    /// Two operations bound to the same functional unit occupy overlapping
    /// state intervals.
    pub const SCHED_RESOURCES: &str = "sched-resources";
    /// An operation does not fit the clock period: wrong delay for its
    /// binding, a chain past the period boundary, or chaining used while
    /// disabled.
    pub const SCHED_CLOCK: &str = "sched-clock";
    /// The schedule's ENC is not a finite non-negative number, exceeds the
    /// budget beyond [`ENC_EPS`](super::ENC_EPS), or differs from the ENC the
    /// problem composes to.
    pub const SCHED_ENC: &str = "sched-enc";
    /// The state-transition graph fails its own validation, disagrees with
    /// the problem's clock, or differs from the graph the problem composes
    /// to (or the problem does not compose).
    pub const SCHED_STG: &str = "sched-stg";

    /// A cached design point is stored under another supply level than its
    /// own. (A point holds no design; its fingerprint is re-verified, under
    /// [`RTL_FINGERPRINT`], when the point is computed.)
    pub const CACHE_POINT_KEY: &str = "cache-point-key";
    /// A cached supply-search outcome violates the budget encoded in its
    /// key, or differs from the point-layer entry of its design and supply.
    pub const CACHE_SCALED_KEY: &str = "cache-scaled-key";
    /// A cached evaluation context is internally inconsistent or disagrees
    /// with the design whose fingerprint keys it (checked when a point is
    /// computed from it).
    pub const CACHE_CONTEXT: &str = "cache-context";
    /// A cached block schedule is internally inconsistent.
    pub const CACHE_BLOCK: &str = "cache-block";
    /// A snapshot file failed to decode (bad magic, version, digest,
    /// truncation).
    pub const CACHE_SNAPSHOT: &str = "cache-snapshot";
}
