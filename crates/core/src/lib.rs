//! IMPACT: Iterative iMprovement, Power optimizing Algorithm for Control-flow
//! inTensive designs.
//!
//! This crate is the paper's primary contribution: an iterative-improvement
//! high-level synthesis engine that searches the RT-level design space by
//! applying *moves* — multiplexer-tree restructuring, module
//! selection/substitution, resource sharing/splitting for functional units
//! and registers — to an initial fully-parallel architecture, re-scheduling
//! when a move requires it, and steering with an RT-level power (or area)
//! estimate derived from one behavioral simulation via trace manipulation.
//!
//! The search is the SCALP-style variable-depth strategy the paper
//! generalizes: each pass builds a sequence of locally best moves (individual
//! moves may have negative gain, which lets the algorithm escape local
//! minima), and commits the prefix of the sequence with the best cumulative
//! gain. The algorithm exits when a whole pass yields no improvement.
//!
//! Two optimization modes mirror the paper's experiments: `Power` (the IMPACT
//! objective, with supply-voltage scaling against the laxity constraint) and
//! `Area` (the baseline the paper's `A-Power` curves are derived from).
//!
//! # Example
//!
//! ```
//! use impact_core::{Impact, SynthesisConfig};
//!
//! let bench = impact_benchmarks::gcd();
//! let cdfg = bench.compile()?;
//! let inputs = bench.input_sequences(24, 1);
//! let trace = impact_behsim::simulate(&cdfg, &inputs)?;
//! let outcome = Impact::new(SynthesisConfig::power_optimized(2.0)).synthesize(&cdfg, &trace)?;
//! assert!(outcome.report.power_mw > 0.0);
//! assert!(outcome.report.enc <= outcome.report.enc_limit + 1e-6);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod cache;
mod config;
mod engine;
mod error;
mod evaluate;
mod explore;
mod fingerprint;
mod moves;
mod session;
mod snapshot;
#[cfg(feature = "verify")]
pub mod verify;

pub use cache::{
    AbsorbStats, CacheBackend, CacheSnapshot, CacheStats, DesignContext, InMemoryCache, LayerStats,
    MuxEntry,
};
pub use config::{EngineConfig, EvaluatorKind, OptimizationMode, SynthesisConfig, VerifyLevel};
pub use engine::{Impact, MoveRecord, SynthesisOutcome, SynthesisReport};
pub use error::SynthesisError;
pub use evaluate::{DesignPoint, EvaluatedDesign, Evaluator};
pub use explore::{pareto_front, ExploreStats, ExplorerKind, DEFAULT_BEAM_WIDTH};
pub use fingerprint::{
    BlockKey, ContextKey, FuStatsKey, MuxStatsKey, PointKey, RegStatsKey, ScaledKey, ScheduleKey,
    WorkloadId,
};
pub use moves::Move;
pub use session::SweepSession;
pub use snapshot::{
    decode_snapshot, encode_snapshot, write_snapshot_bytes, DiskCache, SnapshotError,
    SnapshotRejection, SnapshotScope, SnapshotStats, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
// The shared digest primitives live in `impact_cdfg::fingerprint`; re-export
// them so engine users need only this crate.
pub use impact_rtl::{DesignDelta, DesignFingerprint, FingerprintHasher};
