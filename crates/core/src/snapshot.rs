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
//! section count (u32, = 8)               4 bytes
//! 8 × section:
//!   tag (u8) | payload length (u64) | payload digest (u128) | payload
//! whole-file digest (u128)              16 bytes   over everything above
//! ```
//!
//! Each section holds one cache layer's entries as length-prefixed
//! `(key, value)` pairs sorted by key, so equal cache contents always
//! serialize to identical bytes (the property the warm-start benches assert
//! across processes). Rejections are classified three ways — wrong
//! magic/version/shape ([`SnapshotRejection::Version`]), any digest mismatch
//! including wrong-workload scope ([`SnapshotRejection::Digest`]), and inputs
//! that end early ([`SnapshotRejection::Truncated`]) — and surface in
//! [`SnapshotStats`]. Because the whole-file digest covers every preceding
//! byte, any single bit flip anywhere in a snapshot is detected.
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
use std::hash::Hash;
use std::io;
use std::path::{Path, PathBuf};

use impact_codec::{Decode, Decoder, Encode, Encoder};
use impact_rtl::FingerprintHasher;

use crate::cache::{
    AbsorbStats, CacheBackend, CacheSnapshot, CacheStats, DesignContext, InMemoryCache, MuxEntry,
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
pub const SNAPSHOT_VERSION: u32 = 1;

/// Number of sections (one per cache layer).
const SECTION_COUNT: u32 = 8;

/// Section tags, in file order.
const SEC_POINTS: u8 = 1;
const SEC_SCALED: u8 = 2;
const SEC_CONTEXTS: u8 = 3;
const SEC_SCHEDULES: u8 = 4;
const SEC_BLOCKS: u8 = 5;
const SEC_FU_STATS: u8 = 6;
const SEC_REG_STATS: u8 = 7;
const SEC_MUX_STATS: u8 = 8;

/// Why a snapshot was rejected at load time. Every class degrades to a cache
/// miss; the distinction only feeds the [`SnapshotStats`] counters and
/// operator-facing reports.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SnapshotRejection {
    /// Wrong magic, unknown format version, or a shape the current reader
    /// does not understand (section tags, per-type version tags).
    Version,
    /// A content digest did not match: section payload, whole-file trailer,
    /// or the workload scope the loader required.
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

/// Digest of a byte string: length-prefixed, fed to the workspace hasher in
/// little-endian 64-bit words (final partial word zero-padded).
fn digest_bytes(bytes: &[u8]) -> u128 {
    let mut h = FingerprintHasher::new();
    h.write_tag(0xC6);
    h.write_u64(bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        h.write_u64(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
    }
    let remainder = chunks.remainder();
    if !remainder.is_empty() {
        let mut word = [0u8; 8];
        word[..remainder.len()].copy_from_slice(remainder);
        h.write_u64(u64::from_le_bytes(word));
    }
    h.finish().as_u128()
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

/// The sorted distinct workload ids across every entry of a snapshot.
fn snapshot_workloads(snapshot: &CacheSnapshot) -> BTreeSet<u128> {
    let mut workloads = BTreeSet::new();
    workloads.extend(snapshot.points.keys().map(|k| k.workload.as_u128()));
    workloads.extend(snapshot.scaled.keys().map(|k| k.workload.as_u128()));
    workloads.extend(snapshot.contexts.keys().map(|k| k.workload.as_u128()));
    workloads.extend(snapshot.schedules.keys().map(|k| k.workload.as_u128()));
    workloads.extend(
        snapshot
            .block_schedules
            .keys()
            .map(|k| k.workload.as_u128()),
    );
    workloads.extend(snapshot.fu_stats.keys().map(|k| k.workload.as_u128()));
    workloads.extend(snapshot.reg_stats.keys().map(|k| k.workload.as_u128()));
    workloads.extend(snapshot.mux_stats.keys().map(|k| k.workload.as_u128()));
    workloads
}

fn encode_section<K, V>(out: &mut Encoder, tag: u8, map: &HashMap<K, V>)
where
    K: Encode + Ord,
    V: Encode,
{
    let mut entries: Vec<(&K, &V)> = map.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    let mut payload = Encoder::new();
    payload.put_usize(entries.len());
    for (key, value) in entries {
        key.encode(&mut payload);
        value.encode(&mut payload);
    }
    let bytes = payload.into_bytes();
    out.put_u8(tag);
    out.put_u64(bytes.len() as u64);
    out.put_u128(digest_bytes(&bytes));
    out.put_raw(&bytes);
}

fn decode_section<K, V>(r: &mut Decoder<'_>, tag: u8) -> Result<HashMap<K, V>, SnapshotRejection>
where
    K: Decode + Eq + Hash,
    V: Decode,
{
    let found = r.take_u8().map_err(|_| SnapshotRejection::Truncated)?;
    if found != tag {
        return Err(SnapshotRejection::Version);
    }
    let len = r.take_u64().map_err(|_| SnapshotRejection::Truncated)?;
    let len = usize::try_from(len).map_err(|_| SnapshotRejection::Truncated)?;
    let declared = r.take_u128().map_err(|_| SnapshotRejection::Truncated)?;
    if len > r.remaining() {
        return Err(SnapshotRejection::Truncated);
    }
    let payload = r.take_raw(len).map_err(|_| SnapshotRejection::Truncated)?;
    if digest_bytes(payload) != declared {
        return Err(SnapshotRejection::Digest);
    }
    // The payload's bytes are digest-verified from here on: a decode failure
    // means the writer's layout differs from ours under the same container
    // version — a versioning problem, not corruption.
    let mut pr = Decoder::new(payload);
    let count = pr.take_len(1).map_err(|_| SnapshotRejection::Version)?;
    let mut map = HashMap::with_capacity(count);
    for _ in 0..count {
        let key = K::decode(&mut pr).map_err(|_| SnapshotRejection::Version)?;
        let value = V::decode(&mut pr).map_err(|_| SnapshotRejection::Version)?;
        map.insert(key, value);
    }
    pr.finish().map_err(|_| SnapshotRejection::Version)?;
    Ok(map)
}

/// Serializes a [`CacheSnapshot`] into the versioned wire format.
/// Deterministic: equal snapshot contents always produce identical bytes.
pub fn encode_snapshot(snapshot: &CacheSnapshot) -> Vec<u8> {
    let mut sections = Encoder::new();
    sections.put_u128(workload_digest(&snapshot_workloads(snapshot)));
    sections.put_u32(SECTION_COUNT);
    encode_section(&mut sections, SEC_POINTS, &snapshot.points);
    encode_section(&mut sections, SEC_SCALED, &snapshot.scaled);
    encode_section(&mut sections, SEC_CONTEXTS, &snapshot.contexts);
    encode_section(&mut sections, SEC_SCHEDULES, &snapshot.schedules);
    encode_section(&mut sections, SEC_BLOCKS, &snapshot.block_schedules);
    encode_section(&mut sections, SEC_FU_STATS, &snapshot.fu_stats);
    encode_section(&mut sections, SEC_REG_STATS, &snapshot.reg_stats);
    encode_section(&mut sections, SEC_MUX_STATS, &snapshot.mux_stats);
    let mut out = Encoder::new();
    out.put_raw(&SNAPSHOT_MAGIC);
    out.put_u32(SNAPSHOT_VERSION);
    // magic + version + length field + sections + 16-byte trailer.
    out.put_u64((SNAPSHOT_MAGIC.len() + 4 + 8 + sections.len() + 16) as u64);
    out.put_raw(sections.as_bytes());
    let trailer = digest_bytes(out.as_bytes());
    out.put_u128(trailer);
    out.into_bytes()
}

/// Decodes snapshot bytes, verifying magic, version, every digest and the
/// workload scope.
///
/// # Errors
///
/// Returns the [`SnapshotRejection`] class on any mismatch; the caller treats
/// every class as a cache miss.
pub fn decode_snapshot(
    bytes: &[u8],
    scope: SnapshotScope,
) -> Result<CacheSnapshot, SnapshotRejection> {
    // Fixed prelude (magic + version + declared length) and trailer.
    if bytes.len() < SNAPSHOT_MAGIC.len() + 4 + 8 + 16 {
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
    // in the file — header fields and section digests included — is caught.
    // (A flip in the length field itself misclassifies as truncation or
    // trailing junk, but is still rejected.)
    let declared_trailer = u128::from_le_bytes(trailer.try_into().expect("16-byte trailer"));
    if digest_bytes(body) != declared_trailer {
        return Err(SnapshotRejection::Digest);
    }
    let header_workloads = r.take_u128().map_err(|_| SnapshotRejection::Truncated)?;
    let sections = r.take_u32().map_err(|_| SnapshotRejection::Truncated)?;
    if sections != SECTION_COUNT {
        return Err(SnapshotRejection::Version);
    }
    let snapshot = CacheSnapshot {
        points: decode_section::<PointKey, _>(&mut r, SEC_POINTS)?,
        scaled: decode_section::<ScaledKey, Option<std::sync::Arc<DesignPoint>>>(
            &mut r, SEC_SCALED,
        )?,
        contexts: decode_section::<ContextKey, std::sync::Arc<DesignContext>>(
            &mut r,
            SEC_CONTEXTS,
        )?,
        schedules: decode_section::<ScheduleKey, _>(&mut r, SEC_SCHEDULES)?,
        block_schedules: decode_section::<BlockKey, _>(&mut r, SEC_BLOCKS)?,
        fu_stats: decode_section::<FuStatsKey, _>(&mut r, SEC_FU_STATS)?,
        reg_stats: decode_section::<RegStatsKey, _>(&mut r, SEC_REG_STATS)?,
        mux_stats: decode_section::<MuxStatsKey, MuxEntry>(&mut r, SEC_MUX_STATS)?,
    };
    if !r.is_empty() {
        return Err(SnapshotRejection::Version);
    }
    // The header's workload digest must agree with the decoded keys, and the
    // decoded workloads must fit the requested scope.
    let workloads = snapshot_workloads(&snapshot);
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
    tmp.push(format!(".tmp.{}", std::process::id()));
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
    scope: SnapshotScope,
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
            scope,
        };
        match fs::read(&cache.path) {
            Ok(bytes) => {
                let _ = cache.inner.load_snapshot(&bytes, cache.scope);
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

    /// The snapshot file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The workload scope loads are verified against.
    pub fn scope(&self) -> SnapshotScope {
        self.scope
    }
}

impl CacheBackend for DiskCache {
    fn lookup_point(&self, key: &PointKey) -> Option<std::sync::Arc<DesignPoint>> {
        self.inner.lookup_point(key)
    }
    fn store_point(&self, key: PointKey, value: std::sync::Arc<DesignPoint>) {
        self.inner.store_point(key, value);
    }
    fn lookup_scaled(&self, key: &ScaledKey) -> Option<Option<std::sync::Arc<DesignPoint>>> {
        self.inner.lookup_scaled(key)
    }
    fn store_scaled(&self, key: ScaledKey, value: Option<std::sync::Arc<DesignPoint>>) {
        self.inner.store_scaled(key, value);
    }
    fn lookup_context(&self, key: &ContextKey) -> Option<std::sync::Arc<DesignContext>> {
        self.inner.lookup_context(key)
    }
    fn store_context(&self, key: ContextKey, value: std::sync::Arc<DesignContext>) {
        self.inner.store_context(key, value);
    }
    fn lookup_schedule(
        &self,
        key: &ScheduleKey,
    ) -> Option<std::sync::Arc<impact_sched::SchedulingResult>> {
        self.inner.lookup_schedule(key)
    }
    fn store_schedule(
        &self,
        key: ScheduleKey,
        value: std::sync::Arc<impact_sched::SchedulingResult>,
    ) {
        self.inner.store_schedule(key, value);
    }
    fn lookup_block(&self, key: &BlockKey) -> Option<std::sync::Arc<impact_sched::BlockSchedule>> {
        self.inner.lookup_block(key)
    }
    fn store_block(&self, key: BlockKey, value: std::sync::Arc<impact_sched::BlockSchedule>) {
        self.inner.store_block(key, value);
    }
    fn lookup_fu(&self, key: &FuStatsKey) -> Option<impact_trace::FuStats> {
        self.inner.lookup_fu(key)
    }
    fn store_fu(&self, key: FuStatsKey, value: impact_trace::FuStats) {
        self.inner.store_fu(key, value);
    }
    fn lookup_reg(&self, key: &RegStatsKey) -> Option<impact_trace::RegStats> {
        self.inner.lookup_reg(key)
    }
    fn store_reg(&self, key: RegStatsKey, value: impact_trace::RegStats) {
        self.inner.store_reg(key, value);
    }
    fn lookup_mux(&self, key: &MuxStatsKey) -> Option<MuxEntry> {
        self.inner.lookup_mux(key)
    }
    fn store_mux(&self, key: MuxStatsKey, value: MuxEntry) {
        self.inner.store_mux(key, value);
    }
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
