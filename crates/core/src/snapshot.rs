//! Persistent cache snapshots: a compact, self-describing binary format for
//! [`CacheSnapshot`] plus a disk-backed [`CacheBackend`].
//!
//! The wire format is deliberately paranoid. A snapshot written by a previous
//! process is *advice*, never truth: any stale, truncated or corrupt file
//! must degrade to a cache miss — an honest cold start — and can never be
//! misread into a wrong hit. The layout:
//!
//! ```text
//! magic  b"IMPCACHE"                     8 bytes
//! format version (little-endian u32)     4 bytes
//! total file length (u64)                8 bytes   distinguishes truncation
//!                                                  from corruption
//! workload digest (u128)                16 bytes   digest over the sorted
//!                                                  distinct WorkloadIds
//! 5 × table of shared values, in dependency order — block schedules, mux
//! sites, site depth lists, schedule summaries, design points:
//!   tag (u8) | entry count (u64) | entries, back to back
//! 8 × section, one per cache layer in the order of the `cache_layers!` table:
//!   tag (u8) | entry count (u64) | (key, value) pairs sorted by key
//! whole-file digest (u128)              16 bytes   over everything above
//! ```
//!
//! A schedule's body is a fixed-size record of the summary the cache holds
//! ([`SchedulingResult`]): its tag, ENC, clock period, state count and
//! transition count, 33 bytes. Formats 2 to 6 wrote the whole STG there
//! (clock, per state its operations and exit probability, transitions and
//! entry); format 7 dropped it, since the cache no longer holds one. A
//! design point's body is its schedule reference, supply, two power
//! breakdowns and area; format 4 dropped the design copy format 3 carried,
//! since a point no longer holds one. A supply-search key is the workload,
//! the design fingerprint and the ENC budget; format 6 dropped the
//! scaling flag formats 1 to 5 carried. The whole-file digest mixes one
//! 64-bit word per step into two lanes (see `digest_bytes`).
//!
//! Values that the cache shares by pointer are written once, into their
//! table, and named everywhere else by their `u32` index: a design point
//! refers to its schedule, a context (in its section) to its mux sites and
//! depth lists, and the point, scaled, schedule and block layers to their
//! values. Tables are interned by *content*, not by pointer, so equal cache
//! contents always serialize to identical bytes however their values happen
//! to share memory (the property the warm-start tests assert across
//! processes): each table is numbered in order of first appearance while the
//! sections are written, walking the layers in row order with each layer's
//! keys sorted. Decoding builds one
//! `Arc` per table entry, so every value that refers to an entry shares it;
//! schedules of different problems with equal summaries share one entry.
//!
//! Rejections are classified three ways — wrong magic/version/shape,
//! including a reference to a table entry that was not decoded
//! ([`SnapshotRejection::Version`]), a digest mismatch including
//! wrong-workload scope ([`SnapshotRejection::Digest`]), and inputs that end
//! early ([`SnapshotRejection::Truncated`]) — and surface in
//! [`SnapshotStats`]. Because the whole-file digest covers every preceding
//! byte, any single bit flip anywhere in a snapshot is detected; saving and
//! loading each digest every byte exactly once.
//!
//! Loads merge through [`CacheBackend::absorb`], the same deterministic path
//! [`SweepSession::merge_from`](crate::SweepSession::merge_from) uses, so a
//! warm-started session is bit-identical to a cold one — it just skips the
//! recomputation.

use std::collections::BTreeSet;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::fs;
use std::hash::{BuildHasher, Hash};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use impact_codec::{Decode, DecodeError, Decoder, Encode, Encoder};
use impact_rtl::{FingerprintHasher, MuxSite};
use impact_sched::{BlockSchedule, SchedulingResult};
use impact_trace::{FuStats, RegStats};

use crate::cache::{
    cache_layers, AbsorbStats, CacheBackend, CacheSnapshot, CacheStats, DesignContext,
    InMemoryCache, MuxEntry,
};
use crate::evaluate::DesignPoint;
use crate::fingerprint::{
    BlockKey, ContextKey, FuStatsKey, MuxStatsKey, PointKey, RegStatsKey, ScaledKey, ScheduleKey,
    WorkloadId,
};

/// Leading magic of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"IMPCACHE";

/// Version of the snapshot container format. Bump on any layout change —
/// readers reject every other version to a cold start.
pub const SNAPSHOT_VERSION: u32 = 7;

/// Tags of the shared-value tables, in the order they are written.
const TABLE_BLOCKS: u8 = 0x81;
const TABLE_SITES: u8 = 0x82;
const TABLE_DEPTHS: u8 = 0x83;
const TABLE_SCHEDULES: u8 = 0x84;
const TABLE_POINTS: u8 = 0x85;

/// Version tags of the bodies whose layout this module owns.
const TAG_SCHEDULE: u8 = 0x2E;
const TAG_POINT: u8 = 0x45;
const TAG_CONTEXT: u8 = 0x44;

/// Bytes of the fixed prelude: magic, version and total length.
const PRELUDE_LEN: usize = SNAPSHOT_MAGIC.len() + 4 + 8;

/// Every section key starts with a workload id and a 128-bit digest, so an
/// entry takes at least this many bytes.
const MIN_ENTRY_LEN: usize = 32;

/// Why a snapshot was rejected at load time. Every class degrades to a cache
/// miss; the distinction only feeds the [`SnapshotStats`] counters and
/// operator-facing reports.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SnapshotRejection {
    /// Wrong magic, unknown format version, or a shape the current reader
    /// does not understand (table and section tags, per-type version tags,
    /// references to table entries that were not decoded).
    Version,
    /// A content digest did not match: the whole-file trailer, or the
    /// workload scope the loader required.
    Digest,
    /// The input ended before the declared structure was complete.
    Truncated,
}

impl fmt::Display for SnapshotRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotRejection::Version => write!(f, "unsupported snapshot version or layout"),
            SnapshotRejection::Digest => write!(f, "snapshot digest mismatch"),
            SnapshotRejection::Truncated => write!(f, "snapshot truncated"),
        }
    }
}

impl Error for SnapshotRejection {}

/// Which workloads a loader accepts from a snapshot.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SnapshotScope {
    /// Accept entries of any workload. Safe: every cache key embeds its
    /// [`WorkloadId`], so entries of other workloads can never answer this
    /// session's lookups — they only occupy capacity.
    #[default]
    Any,
    /// Accept only snapshots whose entries all belong to the given workload;
    /// anything else is rejected as a [`SnapshotRejection::Digest`] mismatch.
    Workload(WorkloadId),
}

/// Save/load counters of one backend, including per-reason load rejections.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SnapshotStats {
    /// Snapshots serialized by the backend.
    pub saves: u64,
    /// Snapshots decoded and absorbed successfully.
    pub loads: u64,
    /// Loads rejected for a version/layout mismatch.
    pub rejected_version: u64,
    /// Loads rejected for a digest mismatch (corruption or wrong workload).
    pub rejected_digest: u64,
    /// Loads rejected because the input ended early.
    pub rejected_truncated: u64,
}

impl SnapshotStats {
    /// Total rejected loads across every reason.
    pub fn rejected(&self) -> u64 {
        self.rejected_version + self.rejected_digest + self.rejected_truncated
    }

    pub(crate) fn record_rejection(&mut self, rejection: SnapshotRejection) {
        match rejection {
            SnapshotRejection::Version => self.rejected_version += 1,
            SnapshotRejection::Digest => self.rejected_digest += 1,
            SnapshotRejection::Truncated => self.rejected_truncated += 1,
        }
    }
}

/// Errors of the file-level snapshot helpers: I/O problems on one side,
/// well-formed-but-rejected snapshots on the other.
#[derive(Debug)]
pub enum SnapshotError {
    /// Reading or writing the file failed.
    Io(io::Error),
    /// The file was read but its contents were rejected.
    Rejected(SnapshotRejection),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o: {e}"),
            SnapshotError::Rejected(r) => write!(f, "snapshot rejected: {r}"),
        }
    }
}

impl Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<SnapshotRejection> for SnapshotError {
    fn from(r: SnapshotRejection) -> Self {
        SnapshotError::Rejected(r)
    }
}

/// Seeds of [`digest_bytes`]'s two lanes.
const DIGEST_SEEDS: (u64, u64) = (0xcbf2_9ce4_8422_2325, 0x6c62_272e_07bb_0142);
/// Odd multipliers of [`digest_bytes`]'s two lanes.
const DIGEST_MULTIPLIERS: (u64, u64) = (0x9e37_79b9_7f4a_7c15, 0xc2b2_ae3d_27d4_eb4f);

/// Digest of a byte string: a domain tag, the length, then the bytes as
/// little-endian 64-bit words (final partial word zero-padded), each mixed
/// into two lanes in one step.
///
/// A step xors the word into a lane, multiplies by the lane's odd constant
/// and rotates; for a fixed word that is a bijection of the lane state. Two
/// inputs of equal length that differ in one word therefore leave different
/// lanes behind after that word, and every later step keeps them apart: any
/// single flipped bit changes the digest. The rotation carries high bits
/// into the low bits the next multiply spreads upward.
fn digest_bytes(bytes: &[u8]) -> u128 {
    let (mut lo, mut hi) = DIGEST_SEEDS;
    let mut mix = |word: u64| {
        lo = (lo ^ word)
            .wrapping_mul(DIGEST_MULTIPLIERS.0)
            .rotate_left(23);
        hi = (hi ^ word)
            .wrapping_mul(DIGEST_MULTIPLIERS.1)
            .rotate_left(41);
    };
    mix(0xC6);
    mix(bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
    }
    let remainder = chunks.remainder();
    if !remainder.is_empty() {
        let mut word = [0u8; 8];
        word[..remainder.len()].copy_from_slice(remainder);
        mix(u64::from_le_bytes(word));
    }
    (u128::from(hi) << 64) | u128::from(lo)
}

/// Digest of a set of workload ids (sorted, distinct).
fn workload_digest(workloads: &BTreeSet<u128>) -> u128 {
    let mut h = FingerprintHasher::new();
    h.write_tag(0xC5);
    h.write_u64(workloads.len() as u64);
    for &w in workloads {
        h.write_u128(w);
    }
    h.finish().as_u128()
}

/// One table of shared values being written: every distinct body once, back
/// to back, in order of first appearance.
struct Table<T> {
    tag: u8,
    bodies: Encoder,
    /// Where each entry's body ends in `bodies`; it starts where the
    /// previous entry's ends.
    ends: Vec<usize>,
    /// Entries by the address of a value already interned. Every interned
    /// value is borrowed from the snapshot being encoded, so an address
    /// cannot be reused for other contents meanwhile.
    by_address: HashMap<*const T, u32>,
    /// The newest entry per hash of its body; `same_hash[i]` is the entry
    /// before `i` with the same hash. The hash only narrows the search: a
    /// match is confirmed by comparing the bytes.
    by_hash: HashMap<u64, u32>,
    same_hash: Vec<Option<u32>>,
}

impl<T> Table<T> {
    fn new(tag: u8) -> Self {
        Self {
            tag,
            bodies: Encoder::new(),
            ends: Vec::new(),
            by_address: HashMap::new(),
            by_hash: HashMap::new(),
            same_hash: Vec::new(),
        }
    }

    fn body(&self, index: u32) -> &[u8] {
        let index = index as usize;
        let start = index
            .checked_sub(1)
            .map_or(0, |previous| self.ends[previous]);
        &self.bodies.as_bytes()[start..self.ends[index]]
    }

    /// The entry of a value interned before under the same address.
    fn known(&self, value: &Arc<T>) -> Option<u32> {
        self.by_address.get(&Arc::as_ptr(value)).copied()
    }

    /// The index of `value`'s entry: found by address, else by the body
    /// `write` appends, else that body becomes a new entry.
    fn intern(&mut self, value: &Arc<T>, write: impl FnOnce(&mut Encoder)) -> u32 {
        if let Some(index) = self.known(value) {
            return index;
        }
        let start = self.bodies.len();
        write(&mut self.bodies);
        let hash = self
            .by_hash
            .hasher()
            .hash_one(&self.bodies.as_bytes()[start..]);
        let mut candidate = self.by_hash.get(&hash).copied();
        let index = loop {
            match candidate {
                Some(index) if self.body(index) == &self.bodies.as_bytes()[start..] => {
                    self.bodies.truncate(start);
                    break index;
                }
                Some(index) => candidate = self.same_hash[index as usize],
                None => {
                    let index =
                        u32::try_from(self.ends.len()).expect("fewer than 2^32 shared values");
                    self.ends.push(self.bodies.len());
                    self.same_hash.push(self.by_hash.insert(hash, index));
                    break index;
                }
            }
        };
        self.by_address.insert(Arc::as_ptr(value), index);
        index
    }

    fn encoded_len(&self) -> usize {
        1 + 8 + self.bodies.len()
    }

    fn write(&self, out: &mut Encoder) {
        out.put_u8(self.tag);
        out.put_usize(self.ends.len());
        out.put_raw(self.bodies.as_bytes());
    }
}

/// The shared-value tables of a snapshot being written.
struct Interner {
    blocks: Table<BlockSchedule>,
    sites: Table<MuxSite>,
    depths: Table<Vec<usize>>,
    schedules: Table<SchedulingResult>,
    points: Table<DesignPoint>,
}

impl Interner {
    fn new() -> Self {
        Self {
            blocks: Table::new(TABLE_BLOCKS),
            sites: Table::new(TABLE_SITES),
            depths: Table::new(TABLE_DEPTHS),
            schedules: Table::new(TABLE_SCHEDULES),
            points: Table::new(TABLE_POINTS),
        }
    }

    fn block(&mut self, block: &Arc<BlockSchedule>) -> u32 {
        self.blocks.intern(block, |w| block.encode(w))
    }

    fn site(&mut self, site: &Arc<MuxSite>) -> u32 {
        self.sites.intern(site, |w| site.encode(w))
    }

    fn depth_list(&mut self, depths: &Arc<Vec<usize>>) -> u32 {
        self.depths.intern(depths, |w| depths.encode(w))
    }

    fn schedule(&mut self, schedule: &Arc<SchedulingResult>) -> u32 {
        self.schedules.intern(schedule, |w| {
            w.put_tag(TAG_SCHEDULE);
            w.put_f64(schedule.enc);
            w.put_f64(schedule.clock_ns);
            w.put_usize(schedule.state_count);
            w.put_usize(schedule.transition_count);
        })
    }

    fn point(&mut self, point: &Arc<DesignPoint>) -> u32 {
        if let Some(index) = self.points.known(point) {
            return index;
        }
        let schedule = self.schedule(&point.schedule);
        self.points.intern(point, |w| {
            w.put_tag(TAG_POINT);
            w.put_u32(schedule);
            w.put_f64(point.vdd);
            point.power.encode(w);
            point.power_at_reference.encode(w);
            w.put_f64(point.area);
        })
    }

    fn encoded_len(&self) -> usize {
        self.blocks.encoded_len()
            + self.sites.encoded_len()
            + self.depths.encoded_len()
            + self.schedules.encoded_len()
            + self.points.encoded_len()
    }

    /// Writes the tables in dependency order: an entry refers only to
    /// tables written before its own.
    fn write(&self, out: &mut Encoder) {
        self.blocks.write(out);
        self.sites.write(out);
        self.depths.write(out);
        self.schedules.write(out);
        self.points.write(out);
    }
}

/// The shared values of a snapshot being read: one `Arc` per table entry.
struct Shared {
    blocks: Vec<Arc<BlockSchedule>>,
    sites: Vec<Arc<MuxSite>>,
    depths: Vec<Arc<Vec<usize>>>,
    schedules: Vec<Arc<SchedulingResult>>,
    points: Vec<Arc<DesignPoint>>,
}

/// Reads one table: its tag, an entry count bounded by the bytes that
/// remain, and that many bodies.
fn take_table<T>(
    r: &mut Decoder<'_>,
    tag: u8,
    mut body: impl FnMut(&mut Decoder<'_>) -> Result<T, DecodeError>,
) -> Result<Vec<Arc<T>>, DecodeError> {
    r.expect_tag(tag)?;
    let count = r.take_len(1)?;
    (0..count).map(|_| body(r).map(Arc::new)).collect()
}

/// Reads a reference into `table`, which holds only the entries decoded so
/// far: a forward or out-of-range reference is an error, never a panic.
fn take_ref<T>(r: &mut Decoder<'_>, table: &[Arc<T>]) -> Result<Arc<T>, DecodeError> {
    let index = r.take_u32()?;
    table
        .get(index as usize)
        .cloned()
        .ok_or(DecodeError::Invalid(
            "reference to a table entry not decoded",
        ))
}

impl Shared {
    /// Reads what [`Interner::write`] wrote.
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let blocks = take_table(r, TABLE_BLOCKS, BlockSchedule::decode)?;
        let sites = take_table(r, TABLE_SITES, MuxSite::decode)?;
        let depths = take_table(r, TABLE_DEPTHS, Vec::<usize>::decode)?;
        let schedules = take_table(r, TABLE_SCHEDULES, |r| {
            r.expect_tag(TAG_SCHEDULE)?;
            Ok(SchedulingResult {
                enc: r.take_f64()?,
                clock_ns: r.take_f64()?,
                state_count: r.take_usize()?,
                transition_count: r.take_usize()?,
            })
        })?;
        let points = take_table(r, TABLE_POINTS, |r| {
            r.expect_tag(TAG_POINT)?;
            Ok(DesignPoint {
                schedule: take_ref(r, &schedules)?,
                vdd: r.take_f64()?,
                power: Decode::decode(r)?,
                power_at_reference: Decode::decode(r)?,
                area: r.take_f64()?,
            })
        })?;
        Ok(Self {
            blocks,
            sites,
            depths,
            schedules,
            points,
        })
    }
}

/// A cache layer's value as its section holds it: shared values by
/// reference into their table, everything else inline.
trait LayerValue: Sized {
    fn put(&self, tables: &mut Interner, w: &mut Encoder);
    fn take(r: &mut Decoder<'_>, shared: &Shared) -> Result<Self, DecodeError>;
}

impl LayerValue for Arc<DesignPoint> {
    fn put(&self, tables: &mut Interner, w: &mut Encoder) {
        w.put_u32(tables.point(self));
    }

    fn take(r: &mut Decoder<'_>, shared: &Shared) -> Result<Self, DecodeError> {
        take_ref(r, &shared.points)
    }
}

impl LayerValue for Option<Arc<DesignPoint>> {
    fn put(&self, tables: &mut Interner, w: &mut Encoder) {
        w.put_bool(self.is_some());
        if let Some(point) = self {
            point.put(tables, w);
        }
    }

    fn take(r: &mut Decoder<'_>, shared: &Shared) -> Result<Self, DecodeError> {
        match r.take_bool()? {
            true => Ok(Some(LayerValue::take(r, shared)?)),
            false => Ok(None),
        }
    }
}

impl LayerValue for Arc<SchedulingResult> {
    fn put(&self, tables: &mut Interner, w: &mut Encoder) {
        w.put_u32(tables.schedule(self));
    }

    fn take(r: &mut Decoder<'_>, shared: &Shared) -> Result<Self, DecodeError> {
        take_ref(r, &shared.schedules)
    }
}

impl LayerValue for Arc<BlockSchedule> {
    fn put(&self, tables: &mut Interner, w: &mut Encoder) {
        w.put_u32(tables.block(self));
    }

    fn take(r: &mut Decoder<'_>, shared: &Shared) -> Result<Self, DecodeError> {
        take_ref(r, &shared.blocks)
    }
}

/// A context is written inline; its parallel site lists become one run of
/// `(site, restructured, depth list)` triples.
impl LayerValue for Arc<DesignContext> {
    fn put(&self, tables: &mut Interner, w: &mut Encoder) {
        w.put_tag(TAG_CONTEXT);
        self.base_delays.encode(w);
        self.binding.encode(w);
        self.profile.encode(w);
        self.fu_ids.encode(w);
        self.reg_ids.encode(w);
        debug_assert_eq!(self.site_restructured.len(), self.sites.len());
        debug_assert_eq!(self.site_depths.len(), self.sites.len());
        w.put_usize(self.sites.len());
        let triples = self
            .sites
            .iter()
            .zip(&self.site_restructured)
            .zip(&self.site_depths);
        for ((site, &restructured), depths) in triples {
            w.put_u32(tables.site(site));
            w.put_bool(restructured);
            w.put_u32(tables.depth_list(depths));
        }
    }

    fn take(r: &mut Decoder<'_>, shared: &Shared) -> Result<Self, DecodeError> {
        r.expect_tag(TAG_CONTEXT)?;
        let base_delays = Decode::decode(r)?;
        let binding = Decode::decode(r)?;
        let profile = Decode::decode(r)?;
        let fu_ids = Decode::decode(r)?;
        let reg_ids = Decode::decode(r)?;
        // A triple is two 4-byte references and a flag byte.
        let count = r.take_len(9)?;
        let mut sites = Vec::with_capacity(count);
        let mut site_restructured = Vec::with_capacity(count);
        let mut site_depths = Vec::with_capacity(count);
        for _ in 0..count {
            sites.push(take_ref(r, &shared.sites)?);
            site_restructured.push(r.take_bool()?);
            site_depths.push(take_ref(r, &shared.depths)?);
        }
        Ok(Arc::new(DesignContext {
            base_delays,
            binding,
            profile,
            fu_ids,
            reg_ids,
            sites,
            site_restructured,
            site_depths,
        }))
    }
}

/// Values no other entry shares are written inline with their own codec.
macro_rules! inline_layer_values {
    ($($value:ty),*) => {$(
        impl LayerValue for $value {
            fn put(&self, _: &mut Interner, w: &mut Encoder) {
                self.encode(w);
            }

            fn take(r: &mut Decoder<'_>, _: &Shared) -> Result<Self, DecodeError> {
                Decode::decode(r)
            }
        }
    )*};
}
inline_layer_values!(FuStats, RegStats, MuxEntry);

fn encode_section<K, V>(out: &mut Encoder, tag: u8, map: &HashMap<K, V>, tables: &mut Interner)
where
    K: Encode + Ord,
    V: LayerValue,
{
    let mut entries: Vec<(&K, &V)> = map.iter().collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
    out.put_u8(tag);
    out.put_usize(entries.len());
    for (key, value) in entries {
        key.encode(out);
        value.put(tables, out);
    }
}

fn decode_section<K, V>(
    r: &mut Decoder<'_>,
    tag: u8,
    shared: &Shared,
) -> Result<HashMap<K, V>, DecodeError>
where
    K: Decode + Eq + Hash,
    V: LayerValue,
{
    r.expect_tag(tag)?;
    let count = r.take_len(MIN_ENTRY_LEN)?;
    let mut map = HashMap::with_capacity(count);
    for _ in 0..count {
        let key = K::decode(r)?;
        map.insert(key, V::take(r, shared)?);
    }
    Ok(map)
}

/// Row callback of `cache_layers!`: the snapshot's workload scan and its
/// sections, one per layer under the row's tag, in row order.
macro_rules! snapshot_sections {
    ($($(#[$doc:meta])* $field:ident: $key:ty => $value:ty, $lookup:ident / $store:ident, $cap:expr, $tag:literal;)*) => {
        impl CacheSnapshot {
            /// The sorted distinct workload ids across every entry.
            fn workloads(&self) -> BTreeSet<u128> {
                let mut workloads = BTreeSet::new();
                $(workloads.extend(self.$field.keys().map(|k| k.workload.as_u128()));)*
                workloads
            }

            /// Writes every section, interning shared values into `tables`
            /// in the order they first appear.
            fn encode_sections(&self, tables: &mut Interner, out: &mut Encoder) {
                $(encode_section(out, $tag, &self.$field, tables);)*
            }

            /// Reads what [`Self::encode_sections`] wrote.
            fn decode_sections(r: &mut Decoder<'_>, shared: &Shared) -> Result<Self, DecodeError> {
                Ok(Self { $($field: decode_section(r, $tag, shared)?,)* })
            }
        }
    };
}
cache_layers!(snapshot_sections);

/// Serializes a [`CacheSnapshot`] into the versioned wire format.
/// Deterministic: equal snapshot contents always produce identical bytes,
/// whichever of their values share memory.
pub fn encode_snapshot(snapshot: &CacheSnapshot) -> Vec<u8> {
    let mut tables = Interner::new();
    let mut sections = Encoder::new();
    snapshot.encode_sections(&mut tables, &mut sections);
    // Prelude, workload digest, tables, sections and the 16-byte trailer.
    let len = PRELUDE_LEN + 16 + tables.encoded_len() + sections.len() + 16;
    let mut out = Encoder::with_capacity(len);
    out.put_raw(&SNAPSHOT_MAGIC);
    out.put_u32(SNAPSHOT_VERSION);
    out.put_u64(len as u64);
    out.put_u128(workload_digest(&snapshot.workloads()));
    tables.write(&mut out);
    // The bodies are in `out` now; free them before the sections follow.
    drop(tables);
    out.put_raw(sections.as_bytes());
    let trailer = digest_bytes(out.as_bytes());
    out.put_u128(trailer);
    debug_assert_eq!(out.len(), len);
    out.into_bytes()
}

/// Reads the workload digest, the tables and the sections: everything after
/// the prelude and before the trailer.
fn decode_body(r: &mut Decoder<'_>) -> Result<(u128, CacheSnapshot), DecodeError> {
    let workloads = r.take_u128()?;
    let shared = Shared::decode(r)?;
    let snapshot = CacheSnapshot::decode_sections(r, &shared)?;
    r.finish()?;
    Ok((workloads, snapshot))
}

/// Decodes snapshot bytes, verifying magic, version, the trailer digest and
/// the workload scope.
///
/// # Errors
///
/// Returns the [`SnapshotRejection`] class on any mismatch; the caller treats
/// every class as a cache miss.
pub fn decode_snapshot(
    bytes: &[u8],
    scope: SnapshotScope,
) -> Result<CacheSnapshot, SnapshotRejection> {
    if bytes.len() < PRELUDE_LEN + 16 {
        return Err(SnapshotRejection::Truncated);
    }
    if bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err(SnapshotRejection::Version);
    }
    // Parse the body only: the trailing 16 bytes are the whole-file digest.
    let (body, trailer) = bytes.split_at(bytes.len() - 16);
    let mut r = Decoder::new(&body[SNAPSHOT_MAGIC.len()..]);
    let version = r.take_u32().map_err(|_| SnapshotRejection::Truncated)?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotRejection::Version);
    }
    let declared_len = r.take_u64().map_err(|_| SnapshotRejection::Truncated)?;
    match u64::try_from(bytes.len()) {
        Ok(actual) if actual < declared_len => return Err(SnapshotRejection::Truncated),
        Ok(actual) if actual > declared_len => return Err(SnapshotRejection::Version),
        Ok(_) => {}
        Err(_) => return Err(SnapshotRejection::Version),
    }
    // The trailer covers every preceding byte, so from here on ANY bit flip
    // in the file is caught. (A flip in the length field itself
    // misclassifies as truncation or trailing junk, but is still rejected.)
    let declared_trailer = u128::from_le_bytes(trailer.try_into().expect("16-byte trailer"));
    if digest_bytes(body) != declared_trailer {
        return Err(SnapshotRejection::Digest);
    }
    // Every byte is digest-verified from here on: a decode failure means the
    // writer's layout differs from ours under the same container version — a
    // versioning problem, not corruption.
    let (header_workloads, snapshot) =
        decode_body(&mut r).map_err(|_| SnapshotRejection::Version)?;
    // The header's workload digest must agree with the decoded keys, and the
    // decoded workloads must fit the requested scope.
    let workloads = snapshot.workloads();
    if workload_digest(&workloads) != header_workloads {
        return Err(SnapshotRejection::Digest);
    }
    if let SnapshotScope::Workload(only) = scope {
        if workloads.iter().any(|&w| w != only.as_u128()) {
            return Err(SnapshotRejection::Digest);
        }
    }
    Ok(snapshot)
}

/// Numbers the temporary files of this process, so that concurrent saves to
/// one path never write into the same temporary file.
static TEMP_FILES: AtomicU64 = AtomicU64::new(0);

/// Writes snapshot bytes to `path` atomically: the bytes land in a sibling
/// temporary file which is then renamed over the target, so readers only ever
/// observe either the old snapshot or the complete new one. Parent
/// directories are created as needed.
///
/// # Errors
///
/// Propagates filesystem errors; the temporary file is removed on failure.
pub fn write_snapshot_bytes(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let mut tmp = path.as_os_str().to_owned();
    let serial = TEMP_FILES.fetch_add(1, Ordering::Relaxed);
    tmp.push(format!(".tmp.{}.{serial}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

/// A disk-backed [`CacheBackend`]: an [`InMemoryCache`] that can hydrate from
/// a snapshot file at open and persist back with [`DiskCache::flush`].
///
/// Opening with a missing file is a normal cold start; a stale, truncated or
/// corrupt file degrades to a cold start too (counted in
/// [`SnapshotStats`], surfaced via [`CacheStats::snapshot`]) and is replaced
/// wholesale on the next flush. All lookup/store traffic is served by the
/// in-memory store — the disk is touched only at `open` and `flush`.
#[derive(Debug)]
pub struct DiskCache {
    inner: InMemoryCache,
    path: PathBuf,
}

impl DiskCache {
    /// Opens a disk cache at `path`, loading the snapshot there if one
    /// exists and it passes verification under `scope`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than the file not existing.
    /// Rejected snapshot *contents* are not an error — they leave the cache
    /// cold with the rejection counted.
    pub fn open(path: impl Into<PathBuf>, scope: SnapshotScope) -> io::Result<Self> {
        let cache = Self {
            inner: InMemoryCache::new(),
            path: path.into(),
        };
        match fs::read(&cache.path) {
            Ok(bytes) => {
                let _ = cache.inner.load_snapshot(&bytes, scope);
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(cache)
    }

    /// Writes the current entries to the snapshot file (atomic
    /// temp-file-and-rename).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn flush(&self) -> io::Result<()> {
        write_snapshot_bytes(&self.path, &self.inner.save_snapshot())
    }
}

/// Row callback of `cache_layers!`: lookup and store methods that forward to
/// the wrapped [`InMemoryCache`].
macro_rules! forward_to_inner {
    ($($(#[$doc:meta])* $field:ident: $key:ty => $value:ty, $lookup:ident / $store:ident, $cap:expr, $tag:literal;)*) => {$(
        fn $lookup(&self, key: &$key) -> Option<$value> {
            self.inner.$lookup(key)
        }

        fn $store(&self, key: $key, value: $value) {
            self.inner.$store(key, value);
        }
    )*};
}

impl CacheBackend for DiskCache {
    cache_layers!(forward_to_inner);

    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
    fn record_explore(&self, stats: crate::ExploreStats) {
        self.inner.record_explore(stats);
    }
    fn export(&self) -> CacheSnapshot {
        self.inner.export()
    }
    fn absorb(&self, snapshot: CacheSnapshot) -> AbsorbStats {
        self.inner.absorb(snapshot)
    }
    fn save_snapshot(&self) -> Vec<u8> {
        self.inner.save_snapshot()
    }
    fn load_snapshot(
        &self,
        bytes: &[u8],
        scope: SnapshotScope,
    ) -> Result<AbsorbStats, SnapshotRejection> {
        self.inner.load_snapshot(bytes, scope)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::{Impact, SweepSession, SynthesisConfig};
    use impact_codec::encode_to_vec;
    use rand::{Rng, SeedableRng, StdRng};

    /// The contents of a real gcd session.
    fn gcd_snapshot() -> CacheSnapshot {
        let bench = impact_benchmarks::gcd();
        let cdfg = bench.compile().unwrap();
        let trace = impact_behsim::simulate(&cdfg, &bench.input_sequences(10, 7)).unwrap();
        let session = SweepSession::new();
        Impact::new(SynthesisConfig::power_optimized(1.6).with_effort(2, 3))
            .synthesize_with_session(&cdfg, &trace, &session)
            .unwrap();
        session.backend().export()
    }

    fn fresh_point(point: &DesignPoint) -> Arc<DesignPoint> {
        Arc::new(DesignPoint {
            schedule: Arc::new(*point.schedule),
            ..point.clone()
        })
    }

    /// A copy of `snapshot` in which no two values share an allocation.
    fn deep_copy(snapshot: &CacheSnapshot) -> CacheSnapshot {
        let contexts = snapshot.contexts.iter().map(|(key, context)| {
            let copy = DesignContext {
                sites: context
                    .sites
                    .iter()
                    .map(|site| Arc::new((**site).clone()))
                    .collect(),
                site_depths: context
                    .site_depths
                    .iter()
                    .map(|depths| Arc::new((**depths).clone()))
                    .collect(),
                ..(**context).clone()
            };
            (*key, Arc::new(copy))
        });
        CacheSnapshot {
            points: (snapshot.points.iter())
                .map(|(key, point)| (*key, fresh_point(point)))
                .collect(),
            scaled: (snapshot.scaled.iter())
                .map(|(key, point)| (*key, point.as_deref().map(fresh_point)))
                .collect(),
            contexts: contexts.collect(),
            schedules: (snapshot.schedules.iter())
                .map(|(key, schedule)| (*key, Arc::new(**schedule)))
                .collect(),
            block_schedules: (snapshot.block_schedules.iter())
                .map(|(key, block)| (*key, Arc::new((**block).clone())))
                .collect(),
            ..snapshot.clone()
        }
    }

    #[test]
    fn bytes_ignore_in_memory_sharing_and_decode_shares_equal_values() {
        let snapshot = gcd_snapshot();
        let bytes = encode_snapshot(&snapshot);
        assert_eq!(encode_snapshot(&deep_copy(&snapshot)), bytes);

        let decoded = decode_snapshot(&bytes, SnapshotScope::Any).unwrap();
        // Every point's schedule is the schedule-layer entry of equal content.
        let mut schedules: HashMap<u64, Vec<&Arc<SchedulingResult>>> = HashMap::new();
        for schedule in decoded.schedules.values() {
            schedules
                .entry(schedule.enc.to_bits())
                .or_default()
                .push(schedule);
        }
        let mut linked = 0;
        for point in decoded.points.values() {
            let candidates = schedules.get(&point.schedule.enc.to_bits());
            for &schedule in candidates.into_iter().flatten() {
                if **schedule == *point.schedule {
                    assert!(Arc::ptr_eq(schedule, &point.schedule));
                    linked += 1;
                }
            }
        }
        assert!(linked > 0, "some point's schedule is in the schedule layer");
        // Every supply-search outcome is the point-layer entry of equal
        // content.
        let mut points: HashMap<u64, Vec<&Arc<DesignPoint>>> = HashMap::new();
        for point in decoded.points.values() {
            points.entry(point.vdd.to_bits()).or_default().push(point);
        }
        let mut aliased = 0;
        for outcome in decoded.scaled.values().flatten() {
            for &point in points.get(&outcome.vdd.to_bits()).into_iter().flatten() {
                if **point == **outcome {
                    assert!(Arc::ptr_eq(point, outcome));
                    aliased += 1;
                }
            }
        }
        assert!(aliased > 0, "some outcome is also a point-layer entry");
        // Equal sites and equal depth lists are one allocation across every
        // context.
        let mut sites: HashMap<Vec<u8>, &Arc<MuxSite>> = HashMap::new();
        let mut depth_lists: HashMap<&Vec<usize>, &Arc<Vec<usize>>> = HashMap::new();
        let mut references = 0;
        for context in decoded.contexts.values() {
            for site in &context.sites {
                let first = *sites.entry(encode_to_vec(&**site)).or_insert(site);
                assert!(Arc::ptr_eq(first, site));
                references += 1;
            }
            for depths in &context.site_depths {
                let first = *depth_lists.entry(&**depths).or_insert(depths);
                assert!(Arc::ptr_eq(first, depths));
            }
        }
        assert!(sites.len() < references, "contexts share sites");
    }

    /// Recomputes the trailer, so a mutated body passes the digest and
    /// reaches the decoder proper.
    fn reseal(bytes: &mut [u8]) {
        let body = bytes.len() - 16;
        let digest = digest_bytes(&bytes[..body]);
        bytes[body..].copy_from_slice(&digest.to_le_bytes());
    }

    /// Overwrites the four bytes at `at` with `value` and reseals.
    fn patched(bytes: &[u8], at: usize, value: u32) -> Vec<u8> {
        let mut patched = bytes.to_vec();
        patched[at..at + 4].copy_from_slice(&value.to_le_bytes());
        reseal(&mut patched);
        patched
    }

    /// Where `needle` first occurs in `bytes`.
    fn find(bytes: &[u8], needle: &[u8]) -> usize {
        bytes
            .windows(needle.len())
            .position(|w| w == needle)
            .unwrap()
    }

    #[test]
    fn resealed_random_mutations_decode_or_are_rejected_without_panicking() {
        let bytes = encode_snapshot(&gcd_snapshot());
        let mut rng = StdRng::seed_from_u64(0x5eed_0002);
        // Each mutant costs two digest passes and a decode: about 20 ms in a
        // debug build.
        let mutants = 160;
        let mut decoded = 0;
        for _ in 0..mutants {
            let mut mutant = bytes.clone();
            for _ in 0..rng.random_range(1..=4usize) {
                // Past the prelude and before the trailer, which reseal
                // rewrites anyway.
                let at = rng.random_range(PRELUDE_LEN..bytes.len() - 20);
                match rng.random_range(0..3u32) {
                    0 => mutant[at] ^= 1 << rng.random_range(0..8u32),
                    1 => mutant[at] = rng.random_range(0..=255u8),
                    // A small integer: a plausible count or table reference.
                    _ => mutant[at..at + 4]
                        .copy_from_slice(&rng.random_range(0..64u32).to_le_bytes()),
                }
            }
            reseal(&mut mutant);
            if let Ok(snapshot) = decode_snapshot(&mutant, SnapshotScope::Any) {
                decoded += 1;
                // Whatever a mutant decodes to, the snapshot audit reports
                // it without panicking.
                let _ = crate::verify::audit_snapshot(&snapshot);
            }
        }
        assert!(decoded < mutants, "mutations are rejected");
    }

    #[test]
    fn dangling_references_and_oversized_tables_are_version_rejections() {
        let bytes = encode_snapshot(&gcd_snapshot());
        let body = &bytes[PRELUDE_LEN..bytes.len() - 16];
        let mut r = Decoder::new(body);
        r.take_u128().unwrap();
        let shared = Shared::decode(&mut r).unwrap();
        let reject = |mutant: &[u8]| decode_snapshot(mutant, SnapshotScope::Any).err();
        let mut resealed = bytes.clone();
        reseal(&mut resealed);
        assert_eq!(resealed, bytes, "resealing keeps a valid trailer");

        // The smallest point key's entry: its reference equals the table's
        // length.
        let snapshot = decode_snapshot(&bytes, SnapshotScope::Any).unwrap();
        let key = encode_to_vec(snapshot.points.keys().min().unwrap());
        let at = find(&bytes, &key) + key.len();
        let past_end = u32::try_from(shared.points.len()).unwrap();
        assert_eq!(
            reject(&patched(&bytes, at, past_end)),
            Some(SnapshotRejection::Version)
        );

        // The block table's count, the first field after the workload digest
        // and the table tag, claims more entries than bytes remain.
        let count_at = PRELUDE_LEN + 16 + 1;
        let mut oversized = bytes.clone();
        oversized[count_at..count_at + 8].copy_from_slice(&(bytes.len() as u64).to_le_bytes());
        reseal(&mut oversized);
        assert_eq!(reject(&oversized), Some(SnapshotRejection::Version));

        // The first point of the point table, the last table, names the
        // first schedule index past the decoded schedule table. Its
        // reference follows the table's tag and count and the point's tag.
        let mut tables = Interner::new();
        snapshot.encode_sections(&mut tables, &mut Encoder::new());
        let points_at = PRELUDE_LEN + 16 + tables.encoded_len() - tables.points.encoded_len();
        let at = points_at + 1 + 8 + 1;
        assert_eq!(bytes[at - 1], TAG_POINT);
        let undecoded = u32::try_from(shared.schedules.len()).unwrap();
        let reference = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        assert!(reference < undecoded, "the reference decodes as it is");
        assert_eq!(
            reject(&patched(&bytes, at, undecoded)),
            Some(SnapshotRejection::Version)
        );
    }
}
