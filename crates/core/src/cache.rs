//! The shared cache layer of the incremental engine.
//!
//! Memoized values live in eight layers, which fall into four groups, from
//! cheapest to most expensive to recompute:
//!
//! * trace statistics (per-unit, per-register and per-mux-site activity),
//!   keyed by structural *content* so candidate designs share them,
//! * basic-block schedules keyed by
//!   [`block_digest`](impact_sched::block_digest), from which every
//!   hierarchical schedule miss is composed, so schedules that differ only
//!   in blocks a change touched share the rest,
//! * per-design evaluation contexts (base delays, binding and power profile)
//!   and hierarchical schedule summaries per problem digest (what the cost
//!   model reads: ENC, clock, state and transition counts),
//! * fully evaluated [`DesignPoint`]s per `(workload, design, vdd)` and the
//!   outcome of the full supply search per `(workload, design, enc budget)`.
//!
//! Each layer is declared once, as one row of the `cache_layers!` table. The
//! row names the layer's [`CacheSnapshot`] field, key and value types,
//! [`CacheBackend`] lookup/store pair, capacity bound and, for a layer that
//! snapshots persist, its section tag. The snapshot struct, its merge, the
//! traffic counters, the in-memory store, the snapshot sections,
//! [`DiskCache`](crate::DiskCache)'s forwarding and the key-to-layer mapping
//! the evaluator's memo helper uses are generated from the table. A new
//! layer is one new row, plus its two methods in the hand-written
//! [`CacheBackend`] trait.
//!
//! The context layer has no section tag: it is session-local. Contexts are
//! exported, absorbed and merged in memory like every other layer, but no
//! snapshot holds one. A run that needs a context a snapshot did not carry
//! rebuilds it from the design and the persisted trace statistics, or
//! patches it from its parent's, as it would after an eviction.
//!
//! Storage lives behind the [`CacheBackend`] trait so sessions can swap the
//! store: the in-process implementation is [`InMemoryCache`], an `Arc`-shared
//! mutex-protected map set. Two backends populated independently (a snapshot
//! load, or [`SweepSession::merge_from`](crate::SweepSession::merge_from))
//! combine deterministically via
//! [`CacheBackend::export`] / [`CacheBackend::absorb`]: every entry is a pure
//! function of its key, so when both sides hold the same key the values are
//! identical and merge order cannot influence later lookups.
//!
//! Computations never run under the lock, so synthesis runs sharing one
//! session from several threads can race to fill the same entry — both
//! sides compute identical values, and the last store wins. Design points
//! are stored behind `Arc`, so the per-level entries of the Vdd search and
//! the fully-scaled entry share allocations and a hit clones a pointer. A
//! point is an evaluation only (schedule, supply, power and area): the
//! cache keys it by the design's fingerprint and holds no design. When a
//! new entry would overflow a map's capacity bound the
//! map is cleared and the triggering entry inserted into the fresh map (a
//! store is always visible to the next lookup); the evictions are counted
//! and the simple policy keeps hit paths branch-light.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use impact_power::PowerProfile;
use impact_rtl::MuxSite;
use impact_sched::{BlockSchedule, SchedulingResult};
use impact_trace::{FuStats, RegStats};

use crate::evaluate::DesignPoint;
use crate::explore::ExploreStats;
use crate::fingerprint::{
    BlockKey, ContextKey, FuStatsKey, MuxStatsKey, PointKey, RegStatsKey, ScaledKey, ScheduleKey,
};
use crate::snapshot::{self, SnapshotRejection, SnapshotScope, SnapshotStats};

/// The cache layers, declared once. `cache_layers!(callback)` passes every
/// row to `callback!`, which expands them into per-layer code. A row reads
///
/// ```text
/// field: Key => Value, lookup / store, capacity[, section tag];
/// ```
///
/// naming the layer's [`CacheSnapshot`] field, key and value types,
/// [`CacheBackend`] method pair, capacity bound and, for a persisted layer,
/// snapshot section tag. The snapshot wire format writes one section per
/// tagged row, in row order; a row without a tag is session-local and never
/// persisted. The row's doc comment documents the snapshot field.
macro_rules! cache_layers {
    ($callback:ident) => {
        $callback! {
            /// Fully evaluated design points.
            points: PointKey => Arc<DesignPoint>, lookup_point / store_point, MAX_POINTS, 1;
            /// Supply-search outcomes (`None` = infeasible under the key's budget).
            scaled: ScaledKey => Option<Arc<DesignPoint>>, lookup_scaled / store_scaled, MAX_POINTS, 2;
            /// Per-design evaluation contexts. Session-local: exports carry
            /// them, snapshot bytes never do.
            contexts: ContextKey => Arc<DesignContext>, lookup_context / store_context, MAX_CONTEXTS;
            /// Memoized hierarchical schedule summaries.
            schedules: ScheduleKey => Arc<SchedulingResult>, lookup_schedule / store_schedule, MAX_SCHEDULES, 4;
            /// Memoized basic-block schedules.
            block_schedules: BlockKey => Arc<BlockSchedule>, lookup_block / store_block, MAX_BLOCKS, 5;
            /// Per-unit trace statistics.
            fu_stats: FuStatsKey => FuStats, lookup_fu / store_fu, MAX_STATS, 6;
            /// Per-register trace statistics.
            reg_stats: RegStatsKey => RegStats, lookup_reg / store_reg, MAX_STATS, 7;
            /// Per-mux-site trace statistics.
            mux_stats: MuxStatsKey => MuxEntry, lookup_mux / store_mux, MAX_STATS, 8;
        }
    };
}
pub(crate) use cache_layers;

/// Capacity bounds; a map whose bound a new entry would overflow is cleared
/// and the triggering entry is inserted into the fresh map.
const MAX_POINTS: usize = 16_384;
const MAX_CONTEXTS: usize = 4_096;
const MAX_SCHEDULES: usize = 16_384;
const MAX_BLOCKS: usize = 65_536;
const MAX_STATS: usize = 65_536;

/// Everything about one design that the Vdd search reuses across supply
/// levels: effective node delays at the reference supply, the scheduler
/// binding and the supply-independent power profile. Laxity-independent, so
/// sweep sessions reuse contexts across `enc_limit` values.
///
/// The context also records the *skeleton* it was assembled from — the
/// active resource ids behind each profile position and every mux site with
/// its tree depths — which is what lets
/// [`patch_context`](crate::Evaluator) derive a candidate's context from its
/// parent's, recomputing only the entries the move touched. Sites and depth
/// lists sit behind shared pointers, so a patched context shares every site
/// the move left alone with its parent instead of copying it.
#[derive(Clone, Debug)]
pub struct DesignContext {
    /// Effective per-node delays at delay factor 1.0 (module + interconnect).
    pub(crate) base_delays: Vec<f64>,
    /// Per-node functional-unit binding in scheduler form.
    pub(crate) binding: Vec<Option<usize>>,
    /// Supply-independent power/area coefficients.
    pub(crate) profile: PowerProfile,
    /// Functional-unit ids in allocation order (one per `profile.fus` entry).
    pub(crate) fu_ids: Vec<impact_rtl::FuId>,
    /// Register ids in allocation order (one per `profile.regs` entry).
    pub(crate) reg_ids: Vec<impact_rtl::RegId>,
    /// Every mux site of the design, in enumeration order (one per
    /// `profile.muxes` entry).
    pub(crate) sites: Vec<Arc<MuxSite>>,
    /// Whether each site's tree was restructured, parallel to `sites`.
    pub(crate) site_restructured: Vec<bool>,
    /// Depth of every source in each site's tree, parallel to `sites`.
    pub(crate) site_depths: Vec<Arc<Vec<usize>>>,
}

/// Memoized statistics of one mux site: the tree's switching activity, the
/// depth of every source in the tree, and the selection rate.
#[derive(Clone, PartialEq, Debug)]
pub struct MuxEntry {
    pub(crate) tree_activity: f64,
    pub(crate) depths: Vec<usize>,
    pub(crate) selections_per_pass: f64,
}

/// Hit/miss counters of one cache layer.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LayerStats {
    /// Lookups answered from the layer.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
}

impl LayerStats {
    /// Fraction of lookups answered from the layer.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total > 0 {
            self.hits as f64 / total as f64
        } else {
            0.0
        }
    }

    fn plus(self, other: LayerStats) -> LayerStats {
        LayerStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
        }
    }

    fn record(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }
}

/// Outcome counters of one [`CacheBackend::absorb`] merge (and, cumulatively,
/// of every merge a backend ever performed — see [`CacheStats::merge`]).
///
/// Because every cache entry is a pure function of its key, an incoming entry
/// under a key the backend already holds carries an interchangeable value;
/// the merge *skips* it (keeping the resident allocation) and counts it as a
/// duplicate. A load into a cold session absorbs only new entries, while a
/// high duplicate share means the merged side held work the receiver
/// already had.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct AbsorbStats {
    /// Entries newly inserted by the merge.
    pub absorbed: u64,
    /// Entries skipped because the key was already present (interchangeable
    /// values — the resident entry wins).
    pub duplicates: u64,
    /// Entries dropped because a map was at its capacity bound.
    pub dropped: u64,
}

impl AbsorbStats {
    /// Accumulates another merge's counters (for cumulative reporting).
    pub fn accumulate(&mut self, other: AbsorbStats) {
        self.absorbed += other.absorbed;
        self.duplicates += other.duplicates;
        self.dropped += other.dropped;
    }
}

/// Snapshot of a backend's effectiveness counters: the totals plus one
/// [`LayerStats`] per memoization layer, from cheapest to most expensive to
/// recompute.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache (sum over every layer).
    pub hits: u64,
    /// Lookups that had to compute (sum over every layer).
    pub misses: u64,
    /// Capacity events: a store that cleared a full map, or a merge that
    /// dropped overflow because a map was full (one per map and merge).
    pub evictions: u64,
    /// Memoized design points currently held.
    pub points: usize,
    /// Memoized per-design contexts currently held.
    pub contexts: usize,
    /// Memoized hierarchical schedules currently held.
    pub schedules: usize,
    /// Memoized basic-block schedules currently held.
    pub block_schedules: usize,
    /// Traffic on the raw trace-statistics maps (per-unit, per-register and
    /// per-mux-site activity combined).
    pub trace_stats: LayerStats,
    /// Traffic on the per-design context map.
    pub context: LayerStats,
    /// Traffic on the per-block schedule map: one lookup per block of every
    /// schedule composed on a schedule-memo miss.
    pub block: LayerStats,
    /// Traffic on the memoized-schedule map.
    pub schedule: LayerStats,
    /// Traffic on the per-`(design, vdd)` point map.
    pub point: LayerStats,
    /// Traffic on the supply-search outcome map.
    pub scaled: LayerStats,
    /// Snapshot save/load counters, including per-reason load rejections.
    pub snapshot: SnapshotStats,
    /// Cumulative merge counters over every `absorb` the backend performed
    /// (snapshot loads, session `merge_from`).
    pub merge: AbsorbStats,
    /// Cumulative search-effort counters over every synthesis run recorded
    /// against the backend (probes, commits, reverts and the
    /// strategy-specific work — see [`ExploreStats`]).
    pub explore: ExploreStats,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total > 0 {
            self.hits as f64 / total as f64
        } else {
            0.0
        }
    }
}

/// Storage interface of an evaluation session.
///
/// Implementations must be safe to share across the threads that run jobs
/// against one session (`Send + Sync`); every entry is a pure function of
/// its key, so backends may drop entries at any time (capacity eviction)
/// and may resolve concurrent stores of the same key in either order
/// without affecting synthesis results.
pub trait CacheBackend: Send + Sync + fmt::Debug {
    /// Fetches a memoized design point.
    fn lookup_point(&self, key: &PointKey) -> Option<Arc<DesignPoint>>;
    /// Stores a design point.
    fn store_point(&self, key: PointKey, value: Arc<DesignPoint>);
    /// Fetches the memoized outcome of a full supply search (`Some(None)`
    /// records "infeasible under this ENC budget").
    fn lookup_scaled(&self, key: &ScaledKey) -> Option<Option<Arc<DesignPoint>>>;
    /// Stores a supply-search outcome.
    fn store_scaled(&self, key: ScaledKey, value: Option<Arc<DesignPoint>>);
    /// Fetches a memoized per-design context.
    fn lookup_context(&self, key: &ContextKey) -> Option<Arc<DesignContext>>;
    /// Stores a per-design context.
    fn store_context(&self, key: ContextKey, value: Arc<DesignContext>);
    /// Fetches a memoized hierarchical schedule.
    fn lookup_schedule(&self, key: &ScheduleKey) -> Option<Arc<SchedulingResult>>;
    /// Stores a hierarchical schedule.
    fn store_schedule(&self, key: ScheduleKey, value: Arc<SchedulingResult>);
    /// Fetches a memoized basic-block schedule.
    fn lookup_block(&self, key: &BlockKey) -> Option<Arc<BlockSchedule>>;
    /// Stores a basic-block schedule.
    fn store_block(&self, key: BlockKey, value: Arc<BlockSchedule>);
    /// Fetches memoized per-unit trace statistics.
    fn lookup_fu(&self, key: &FuStatsKey) -> Option<FuStats>;
    /// Stores per-unit trace statistics.
    fn store_fu(&self, key: FuStatsKey, value: FuStats);
    /// Fetches memoized per-register trace statistics.
    fn lookup_reg(&self, key: &RegStatsKey) -> Option<RegStats>;
    /// Stores per-register trace statistics.
    fn store_reg(&self, key: RegStatsKey, value: RegStats);
    /// Fetches memoized per-mux-site statistics.
    fn lookup_mux(&self, key: &MuxStatsKey) -> Option<MuxEntry>;
    /// Stores per-mux-site statistics.
    fn store_mux(&self, key: MuxStatsKey, value: MuxEntry);
    /// Snapshot of the effectiveness counters.
    fn stats(&self) -> CacheStats;
    /// Accumulates one synthesis run's search-effort counters, so sessions
    /// report explore work alongside the cache layers. Backends that don't
    /// track them may keep the default no-op.
    fn record_explore(&self, stats: ExploreStats) {
        let _ = stats;
    }
    /// Copies every entry out (counters are not part of the snapshot).
    fn export(&self) -> CacheSnapshot;
    /// Merges a snapshot into this backend and reports what happened to the
    /// offered entries. Entries under keys this backend already holds are
    /// interchangeable with the incoming ones (same pure function, same key),
    /// so the resident entry is kept and the incoming one counted as a
    /// duplicate — the merge is deterministic regardless of arrival order;
    /// traffic counters are unaffected.
    fn absorb(&self, snapshot: CacheSnapshot) -> AbsorbStats;
    /// Serializes every entry into the versioned snapshot wire format
    /// (deterministic: equal contents produce identical bytes).
    fn save_snapshot(&self) -> Vec<u8> {
        snapshot::encode_snapshot(&self.export())
    }
    /// Decodes snapshot bytes, verifies them under `scope`, and merges the
    /// entries through [`Self::absorb`]. Returns the merge counters.
    ///
    /// # Errors
    ///
    /// Returns the rejection class for stale, truncated or corrupt bytes; the
    /// backend is left unchanged — a rejected load is a cache miss, never a
    /// wrong hit.
    fn load_snapshot(
        &self,
        bytes: &[u8],
        scope: SnapshotScope,
    ) -> Result<AbsorbStats, SnapshotRejection> {
        let decoded = snapshot::decode_snapshot(bytes, scope)?;
        Ok(self.absorb(decoded))
    }
}

/// Row callback of `cache_layers!`: the snapshot struct with one map per
/// layer, its size and merge, and one traffic counter per layer.
macro_rules! layer_maps {
    ($($(#[$doc:meta])* $field:ident: $key:ty => $value:ty, $lookup:ident / $store:ident, $cap:expr $(, $tag:literal)?;)*) => {
        /// Portable copy of a backend's entries, produced by
        /// [`CacheBackend::export`] and consumed by [`CacheBackend::absorb`].
        /// Fields are public so external [`CacheBackend`] implementations
        /// (disk stores, tracing wrappers) can build and consume snapshots;
        /// treat the values as opaque — they are pure functions of their keys.
        /// Cloning is cheap: the values are `Arc`-shared, so a clone copies
        /// pointers, not payloads.
        #[derive(Clone, Debug, Default)]
        pub struct CacheSnapshot {
            $($(#[$doc])* pub $field: HashMap<$key, $value>,)*
        }

        impl CacheSnapshot {
            /// Total number of entries across every map.
            pub fn len(&self) -> usize {
                0 $(+ self.$field.len())*
            }

            /// Whether the snapshot holds no entries at all.
            pub fn is_empty(&self) -> bool {
                self.len() == 0
            }

            /// Merges `incoming` map by map under the capacity bounds and
            /// returns the number of maps that dropped overflow.
            fn merge(&mut self, incoming: CacheSnapshot, stats: &mut AbsorbStats) -> u64 {
                let mut evictions = 0;
                $(evictions += u64::from(merge_bounded(&mut self.$field, incoming.$field, $cap, stats));)*
                evictions
            }
        }

        /// Lookup traffic of every layer.
        #[derive(Debug, Default)]
        struct LayerTraffic {
            $($field: LayerStats,)*
        }

        impl LayerTraffic {
            fn total(&self) -> LayerStats {
                LayerStats::default() $(.plus(self.$field))*
            }
        }
    };
}
cache_layers!(layer_maps);

/// Inserts into a bounded map. Only a *new* key can overflow the bound:
/// overwriting an entry already present (e.g. the racing-store case) must
/// never wipe the map. After a clear the triggering entry is inserted into
/// the fresh map, so a store followed by a lookup always hits. Returns
/// whether the map was cleared.
fn store_bounded<K: Eq + Hash, V>(map: &mut HashMap<K, V>, key: K, value: V, cap: usize) -> bool {
    let clear = map.len() >= cap && !map.contains_key(&key);
    if clear {
        map.clear();
    }
    map.insert(key, value);
    clear
}

/// Merges `incoming` into a bounded map. Unlike a store, a merge never
/// clears: incoming entries are added until the capacity bound, and only the
/// overflow is dropped — two full sessions must not annihilate each other.
/// Which overflow entries are kept is not specified; entries are pure, so
/// lookups stay correct either way. A key the map already holds keeps its
/// resident entry (interchangeable values) and counts as a duplicate.
/// Returns whether any entry was dropped.
fn merge_bounded<K: Eq + Hash, V>(
    map: &mut HashMap<K, V>,
    incoming: HashMap<K, V>,
    cap: usize,
    stats: &mut AbsorbStats,
) -> bool {
    let mut dropped = false;
    for (key, value) in incoming {
        if map.contains_key(&key) {
            stats.duplicates += 1;
        } else if map.len() >= cap {
            dropped = true;
            stats.dropped += 1;
        } else {
            map.insert(key, value);
            stats.absorbed += 1;
        }
    }
    dropped
}

#[derive(Debug, Default)]
struct CacheInner {
    maps: CacheSnapshot,
    traffic: LayerTraffic,
    evictions: u64,
    snapshot: SnapshotStats,
    merge: AbsorbStats,
    explore: ExploreStats,
}

/// The in-process [`CacheBackend`]: one mutex-protected map set, shared by
/// `Arc` between every evaluator (and every worker thread) of a session.
#[derive(Debug, Default)]
pub struct InMemoryCache {
    inner: Mutex<CacheInner>,
}

impl InMemoryCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the store, recovering from poison: a panicking evaluation
    /// worker can only abandon the mutex *between* map operations (no user
    /// code ever runs under the lock), so the maps are always structurally
    /// consistent and unrelated evaluations keep the cache instead of
    /// cascading the panic.
    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A key of one cache layer: picks that layer's [`CacheBackend`]
/// lookup/store pair, so one memo helper serves every layer.
pub(crate) trait LayerKey: Sized {
    /// The layer's value type.
    type Value: Clone;
    /// Fetches the entry under this key.
    fn lookup(&self, backend: &dyn CacheBackend) -> Option<Self::Value>;
    /// Stores an entry under this key.
    fn store(self, backend: &dyn CacheBackend, value: Self::Value);
}

/// Row callback of `cache_layers!`: one [`LayerKey`] impl per key type.
macro_rules! layer_keys {
    ($($(#[$doc:meta])* $field:ident: $key:ty => $value:ty, $lookup:ident / $store:ident, $cap:expr $(, $tag:literal)?;)*) => {$(
        impl LayerKey for $key {
            type Value = $value;

            fn lookup(&self, backend: &dyn CacheBackend) -> Option<$value> {
                backend.$lookup(self)
            }

            fn store(self, backend: &dyn CacheBackend, value: $value) {
                backend.$store(self, value);
            }
        }
    )*};
}
cache_layers!(layer_keys);

/// Row callback of `cache_layers!`: [`InMemoryCache`]'s lookup and store
/// methods, counting traffic and evictions.
macro_rules! in_memory_methods {
    ($($(#[$doc:meta])* $field:ident: $key:ty => $value:ty, $lookup:ident / $store:ident, $cap:expr $(, $tag:literal)?;)*) => {$(
        fn $lookup(&self, key: &$key) -> Option<$value> {
            let mut inner = self.lock();
            let found = inner.maps.$field.get(key).cloned();
            inner.traffic.$field.record(found.is_some());
            found
        }

        fn $store(&self, key: $key, value: $value) {
            let mut inner = self.lock();
            if store_bounded(&mut inner.maps.$field, key, value, $cap) {
                inner.evictions += 1;
            }
        }
    )*};
}

impl CacheBackend for InMemoryCache {
    cache_layers!(in_memory_methods);

    fn stats(&self) -> CacheStats {
        let inner = self.lock();
        let (maps, traffic) = (&inner.maps, &inner.traffic);
        let total = traffic.total();
        CacheStats {
            hits: total.hits,
            misses: total.misses,
            evictions: inner.evictions,
            points: maps.points.len(),
            contexts: maps.contexts.len(),
            schedules: maps.schedules.len(),
            block_schedules: maps.block_schedules.len(),
            trace_stats: traffic
                .fu_stats
                .plus(traffic.reg_stats)
                .plus(traffic.mux_stats),
            context: traffic.contexts,
            block: traffic.block_schedules,
            schedule: traffic.schedules,
            point: traffic.points,
            scaled: traffic.scaled,
            snapshot: inner.snapshot,
            merge: inner.merge,
            explore: inner.explore,
        }
    }

    fn record_explore(&self, stats: ExploreStats) {
        self.lock().explore.accumulate(stats);
    }

    fn export(&self) -> CacheSnapshot {
        self.lock().maps.clone()
    }

    fn absorb(&self, snapshot: CacheSnapshot) -> AbsorbStats {
        let mut inner = self.lock();
        let mut stats = AbsorbStats::default();
        let evictions = inner.maps.merge(snapshot, &mut stats);
        inner.evictions += evictions;
        inner.merge.accumulate(stats);
        stats
    }

    fn save_snapshot(&self) -> Vec<u8> {
        let bytes = snapshot::encode_snapshot(&self.export());
        self.lock().snapshot.saves += 1;
        bytes
    }

    fn load_snapshot(
        &self,
        bytes: &[u8],
        scope: SnapshotScope,
    ) -> Result<AbsorbStats, SnapshotRejection> {
        match snapshot::decode_snapshot(bytes, scope) {
            Ok(decoded) => {
                let stats = self.absorb(decoded);
                self.lock().snapshot.loads += 1;
                Ok(stats)
            }
            Err(rejection) => {
                self.lock().snapshot.record_rejection(rejection);
                Err(rejection)
            }
        }
    }
}

// ---------------------------------------------------------------- snapshot codec

use impact_codec::{Decode, DecodeError, Decoder, Encode, Encoder};

/// Version tag of [`MuxEntry`]'s wire layout.
const TAG_MUX_ENTRY: u8 = 0x40;

impl Encode for MuxEntry {
    fn encode(&self, w: &mut Encoder) {
        w.put_tag(TAG_MUX_ENTRY);
        w.put_f64(self.tree_activity);
        self.depths.encode(w);
        w.put_f64(self.selections_per_pass);
    }
}

impl Decode for MuxEntry {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        r.expect_tag(TAG_MUX_ENTRY)?;
        Ok(Self {
            tree_activity: r.take_f64()?,
            depths: Decode::decode(r)?,
            selections_per_pass: r.take_f64()?,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::fingerprint::WorkloadId;
    use impact_rtl::FingerprintHasher;

    fn context_key(tag: u64) -> ContextKey {
        let mut hasher = FingerprintHasher::new();
        hasher.write_u64(tag);
        ContextKey::new(WorkloadId(u128::from(tag)), hasher.finish())
    }

    fn sample_context() -> Arc<DesignContext> {
        Arc::new(DesignContext {
            base_delays: vec![1.0, 2.0],
            binding: vec![None, Some(0)],
            profile: PowerProfile {
                fus: Vec::new(),
                regs: Vec::new(),
                register_bits: 0.0,
                muxes: Vec::new(),
                datapath_area: 0.0,
            },
            fu_ids: Vec::new(),
            reg_ids: Vec::new(),
            sites: Vec::new(),
            site_restructured: Vec::new(),
            site_depths: Vec::new(),
        })
    }

    #[test]
    fn lookups_count_hits_and_misses() {
        let cache = InMemoryCache::new();
        let key = context_key(1);
        assert!(cache.lookup_context(&key).is_none());
        cache.store_context(key, sample_context());
        assert!(cache.lookup_context(&key).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.contexts, 1);
        assert!(stats.hit_rate() > 0.4 && stats.hit_rate() < 0.6);
        // The traffic landed on the context layer and nowhere else.
        assert_eq!(stats.context, LayerStats { hits: 1, misses: 1 });
        assert!((stats.context.hit_rate() - 0.5).abs() < 1e-12);
        for idle in [
            stats.point,
            stats.scaled,
            stats.schedule,
            stats.block,
            stats.trace_stats,
        ] {
            assert_eq!(idle, LayerStats::default());
        }
    }

    #[test]
    fn block_layer_counts_its_own_traffic() {
        let cache = InMemoryCache::new();
        let key = BlockKey::new(WorkloadId(1), 42);
        assert!(cache.lookup_block(&key).is_none());
        cache.store_block(key, Arc::new(BlockSchedule::default()));
        assert!(cache.lookup_block(&key).is_some());
        let stats = cache.stats();
        assert_eq!(stats.block, LayerStats { hits: 1, misses: 1 });
        assert_eq!(stats.block_schedules, 1);
    }

    #[test]
    fn a_store_followed_by_a_lookup_always_hits_at_capacity() {
        // Regression for capacity eviction: the entry whose insertion
        // triggers the overflow must land in the freshly cleared map — a
        // wholesale clear that discarded it would make the store invisible
        // to the very next lookup.
        let cache = InMemoryCache::new();
        for tag in 0..=(MAX_CONTEXTS as u64) {
            cache.store_context(context_key(tag), sample_context());
            assert!(
                cache.lookup_context(&context_key(tag)).is_some(),
                "entry {tag} must be readable immediately after its store"
            );
        }
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn overwriting_an_existing_key_at_capacity_does_not_evict() {
        let cache = InMemoryCache::new();
        for tag in 0..(MAX_CONTEXTS as u64) {
            cache.store_context(context_key(tag), sample_context());
        }
        // A racing re-store of a held key must not clear a full map.
        cache.store_context(context_key(0), sample_context());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 0, "overwrites never clear the map");
        assert_eq!(stats.contexts, MAX_CONTEXTS);
    }

    #[test]
    fn absorb_merges_entries_without_touching_counters() {
        let a = InMemoryCache::new();
        let b = InMemoryCache::new();
        a.store_context(context_key(1), sample_context());
        b.store_context(context_key(2), sample_context());
        // One overlapping key: pure-function entries, the resident one wins.
        b.store_context(context_key(1), sample_context());
        let merged = a.absorb(b.export());
        assert_eq!(
            merged,
            AbsorbStats {
                absorbed: 1,
                duplicates: 1,
                dropped: 0
            }
        );
        assert_eq!(a.stats().contexts, 2);
        assert_eq!(a.stats().hits, 0, "merging is not traffic");
        assert_eq!(a.stats().merge, merged, "cumulative counters match");
        assert!(a.lookup_context(&context_key(1)).is_some());
        assert!(a.lookup_context(&context_key(2)).is_some());
        // The donor keeps its entries.
        assert_eq!(b.stats().contexts, 2);
    }

    #[test]
    fn merge_is_order_independent_for_identical_pure_entries() {
        let part_a = InMemoryCache::new();
        let part_b = InMemoryCache::new();
        for tag in 0..8u64 {
            part_a.store_context(context_key(tag), sample_context());
        }
        for tag in 4..12u64 {
            part_b.store_context(context_key(tag), sample_context());
        }
        let ab = InMemoryCache::new();
        ab.absorb(part_a.export());
        ab.absorb(part_b.export());
        let ba = InMemoryCache::new();
        ba.absorb(part_b.export());
        ba.absorb(part_a.export());
        assert_eq!(ab.stats().contexts, 12);
        assert_eq!(ba.stats().contexts, 12);
        for tag in 0..12u64 {
            assert!(ab.lookup_context(&context_key(tag)).is_some());
            assert!(ba.lookup_context(&context_key(tag)).is_some());
        }
    }

    #[test]
    fn a_poisoned_mutex_is_recovered_instead_of_cascading() {
        let cache = Arc::new(InMemoryCache::new());
        cache.store_context(context_key(7), sample_context());
        // Poison the lock: a worker panics while holding it. Store/lookup
        // never run user code under the lock, so the maps stay consistent.
        let poisoner = Arc::clone(&cache);
        let result = std::thread::spawn(move || {
            let _guard = poisoner.inner.lock().unwrap();
            panic!("a batch worker dies while holding the cache lock");
        })
        .join();
        assert!(result.is_err(), "the worker must have panicked");
        assert!(cache.inner.is_poisoned());
        // Every operation keeps working on the recovered store.
        assert!(cache.lookup_context(&context_key(7)).is_some());
        cache.store_context(context_key(8), sample_context());
        assert_eq!(cache.stats().contexts, 2);
        let exported = cache.export();
        assert_eq!(exported.len(), 2);
        assert!(!exported.is_empty());
        cache.absorb(exported);
        assert_eq!(cache.stats().contexts, 2);
    }

    #[test]
    fn an_overflowing_merge_keeps_the_map_full_instead_of_clearing_it() {
        // Two caches that together exceed the capacity bound: the merge must
        // retain a full map (existing entries plus incoming ones up to the
        // cap), never wipe the combined work.
        let target = InMemoryCache::new();
        for tag in 0..(MAX_CONTEXTS as u64 - 8) {
            target.store_context(context_key(tag), sample_context());
        }
        let donor = InMemoryCache::new();
        for tag in 0..64u64 {
            donor.store_context(context_key(1_000_000 + tag), sample_context());
        }
        let merged = target.absorb(donor.export());
        assert_eq!(merged.absorbed, 8, "only the free capacity is filled");
        assert_eq!(merged.dropped, 56, "the overflow is counted, not inserted");
        assert_eq!(merged.duplicates, 0);
        let stats = target.stats();
        assert_eq!(stats.contexts, MAX_CONTEXTS, "map fills up to the bound");
        assert_eq!(stats.evictions, 1, "the dropped overflow counts once");
        // Every pre-merge entry survived.
        for tag in 0..(MAX_CONTEXTS as u64 - 8) {
            assert!(target.lookup_context(&context_key(tag)).is_some());
        }
    }

    #[test]
    fn snapshot_wire_format_v8_is_pinned() {
        // A reordered layer or table, a changed tag or a new per-type layout
        // would still round-trip; only files written by older builds would
        // notice (and silently fall back to a cold start). The encoded length
        // and the trailer digest of a fixed snapshot catch it here. The
        // snapshot holds a context too, which the bytes leave out.
        let workload = WorkloadId(1);
        let mut design = FingerprintHasher::new();
        design.write_u64(9);
        let mut snapshot = CacheSnapshot::default();
        snapshot
            .scaled
            .insert(ScaledKey::new(workload, design.finish(), 2.5), None);
        snapshot.contexts.insert(context_key(1), sample_context());
        snapshot
            .block_schedules
            .insert(BlockKey::new(workload, 42), Arc::default());
        snapshot.fu_stats.insert(
            FuStatsKey {
                workload,
                digest: 3,
            },
            FuStats {
                input_activity: 0.25,
                output_activity: 0.5,
                activations_per_pass: 3.0,
            },
        );
        snapshot.reg_stats.insert(
            RegStatsKey {
                workload,
                digest: 4,
            },
            RegStats {
                activity: 0.125,
                writes_per_pass: 2.0,
            },
        );
        snapshot.mux_stats.insert(
            MuxStatsKey {
                workload,
                digest: 5,
            },
            MuxEntry {
                tree_activity: 0.75,
                depths: vec![1, 2, 2],
                selections_per_pass: 1.5,
            },
        );
        // One schedule summary that the schedule layer and a design point
        // both refer to: the bytes hold it once.
        let schedule = Arc::new(SchedulingResult {
            enc: 3.0,
            clock_ns: 10.0,
            state_count: 2,
            transition_count: 1,
        });
        snapshot
            .schedules
            .insert(ScheduleKey::new(workload, 7), Arc::clone(&schedule));
        let point = DesignPoint {
            schedule,
            vdd: 3.3,
            power: impact_power::PowerBreakdown::default(),
            power_at_reference: impact_power::PowerBreakdown::default(),
            area: 100.0,
        };
        snapshot.points.insert(
            PointKey::new(workload, design.finish(), 3.3),
            Arc::new(point),
        );
        let bytes = snapshot::encode_snapshot(&snapshot);
        let (_, trailer) = bytes.split_at(bytes.len() - 16);
        assert_eq!(
            (
                bytes.len(),
                u128::from_le_bytes(trailer.try_into().unwrap())
            ),
            (639, 0x6761_6c88_d023_ac07_31de_bccc_661d_fadf)
        );
        // The summary's clock period marks it: no other value here is 10.0.
        let clock = 10.0f64.to_le_bytes();
        assert_eq!(
            bytes.windows(clock.len()).filter(|w| *w == clock).count(),
            1,
            "the shared schedule is written once"
        );
        let decoded = snapshot::decode_snapshot(&bytes, SnapshotScope::Any).unwrap();
        assert_eq!(decoded.len(), 7);
        assert!(decoded.contexts.is_empty(), "contexts are session-local");
        let shared = decoded.schedules.values().next().unwrap();
        let point = decoded.points.values().next().unwrap();
        assert!(Arc::ptr_eq(&point.schedule, shared), "and decoded shared");
        assert_eq!(snapshot::encode_snapshot(&decoded), bytes);
    }

    #[test]
    fn capacity_overflow_clears_the_map_and_counts_an_eviction() {
        let cache = InMemoryCache::new();
        for tag in 0..(MAX_CONTEXTS as u64 + 1) {
            cache.store_context(context_key(tag), sample_context());
        }
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert!(stats.contexts <= MAX_CONTEXTS);
    }
}
