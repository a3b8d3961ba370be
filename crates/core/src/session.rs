//! Sweep sessions: one cache shared across many synthesis runs.
//!
//! The paper's signature experiment (Figure 13) runs the same benchmark at
//! 11 laxity points, yet almost everything evaluation computes — trace
//! statistics, per-design contexts, design points on the supply grid — is
//! laxity-independent. A [`SweepSession`] hoists the evaluation cache out of
//! the per-run [`Evaluator`](crate::Evaluator) so those values survive across
//! runs: hand one session to every run of a sweep (or to every job of a batch
//! driver) and only the first run pays the cold cost.
//!
//! Sessions are `Arc`-shared handles: cloning a session clones the handle,
//! not the store, so scoped worker threads can synthesize concurrently
//! against one cache. Independently populated sessions (e.g. two halves of
//! a sweep, or a session and a snapshot loaded from disk) combine with
//! [`SweepSession::merge_from`] and [`SweepSession::load_snapshot`], which
//! are deterministic because every cache entry is a pure function of its
//! key.
//!
//! ```
//! use impact_core::{Impact, SweepSession, SynthesisConfig};
//!
//! let bench = impact_benchmarks::gcd();
//! let cdfg = bench.compile()?;
//! let trace = impact_behsim::simulate(&cdfg, &bench.input_sequences(12, 7))?;
//! let session = SweepSession::new();
//! let mut last_power = f64::INFINITY;
//! for laxity in [1.0, 2.0, 3.0] {
//!     let config = SynthesisConfig::power_optimized(laxity).with_effort(2, 3);
//!     let outcome = Impact::new(config).synthesize_with_session(&cdfg, &trace, &session)?;
//!     assert!(outcome.report.power_mw <= last_power + 1e-9);
//!     last_power = outcome.report.power_mw;
//! }
//! assert!(session.stats().hits > 0, "later runs reuse the earlier runs' work");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::path::Path;
use std::sync::Arc;

use crate::cache::{AbsorbStats, CacheBackend, CacheStats, InMemoryCache};
use crate::snapshot::{self, SnapshotError, SnapshotRejection, SnapshotScope};

/// A shared, mergeable evaluation-cache handle spanning synthesis runs.
///
/// Every run handed the same session (via
/// [`Impact::synthesize_with_session`](crate::Impact::synthesize_with_session)
/// or [`Evaluator::with_session`](crate::Evaluator::with_session)) reads and
/// writes one store. Results are bit-identical to independent cold runs:
/// cache keys embed the workload (CDFG, trace, technology) and the entries
/// are pure functions of their keys, so sharing changes wall-clock, never
/// outcomes.
#[derive(Clone, Debug)]
pub struct SweepSession {
    backend: Arc<dyn CacheBackend>,
}

impl SweepSession {
    /// Creates a session over a fresh in-process store.
    pub fn new() -> Self {
        Self::with_backend(Arc::new(InMemoryCache::new()))
    }

    /// Creates a session over a caller-provided backend (e.g. a custom store
    /// wrapping [`InMemoryCache`]).
    pub fn with_backend(backend: Arc<dyn CacheBackend>) -> Self {
        Self { backend }
    }

    /// The shared storage backend.
    pub fn backend(&self) -> &Arc<dyn CacheBackend> {
        &self.backend
    }

    /// Snapshot of the session's cache counters (cumulative over every run
    /// that used the session).
    pub fn stats(&self) -> CacheStats {
        self.backend.stats()
    }

    /// Merges every entry of `other` into this session and returns the merge
    /// counters (new entries absorbed vs duplicate-skipped), through the same
    /// `absorb` path snapshot loads use. Deterministic:
    /// cache entries are pure functions of their keys, so overlapping keys
    /// carry interchangeable values and merge order cannot influence later
    /// lookups. `other` keeps its entries; traffic counters are not
    /// transferred.
    pub fn merge_from(&self, other: &SweepSession) -> AbsorbStats {
        self.backend.absorb(other.backend.export())
    }

    /// Serializes the session's entries into snapshot bytes (deterministic:
    /// equal contents produce identical bytes).
    pub fn save_snapshot(&self) -> Vec<u8> {
        self.backend.save_snapshot()
    }

    /// Verifies snapshot bytes under `scope` and merges the entries into the
    /// session (through the same deterministic `absorb` path
    /// [`merge_from`](Self::merge_from) uses). Returns the merge counters.
    ///
    /// # Errors
    ///
    /// Returns the rejection class for stale, truncated or corrupt bytes; the
    /// session is left unchanged — a rejected load degrades to a cold start.
    pub fn load_snapshot(
        &self,
        bytes: &[u8],
        scope: SnapshotScope,
    ) -> Result<AbsorbStats, SnapshotRejection> {
        self.backend.load_snapshot(bytes, scope)
    }

    /// Writes the session's entries to a snapshot file, atomically (the bytes
    /// land in a temporary sibling renamed over the target).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_to_file(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        snapshot::write_snapshot_bytes(path.as_ref(), &self.save_snapshot())
    }

    /// Loads a snapshot file into the session. Returns the merge counters.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] for filesystem problems (including a missing
    /// file) and [`SnapshotError::Rejected`] for verification failures.
    pub fn load_from_file(
        &self,
        path: impl AsRef<Path>,
        scope: SnapshotScope,
    ) -> Result<AbsorbStats, SnapshotError> {
        let bytes = std::fs::read(path.as_ref())?;
        Ok(self.load_snapshot(&bytes, scope)?)
    }
}

impl Default for SweepSession {
    fn default() -> Self {
        Self::new()
    }
}
