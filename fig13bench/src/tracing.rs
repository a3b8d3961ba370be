//! The traced run's session backend: a [`CacheBackend`] that forwards every
//! call to an [`InMemoryCache`] and records where the CPU went.
//!
//! Every memoized layer is computed between a lookup miss and the store of
//! the same key, so the wrapper opens a span at each miss and closes it at
//! the matching store. Spans nest per thread (a point miss computes a
//! context, which computes trace statistics, ...), which gives each span its
//! parent; a span's self time is its duration minus its children's. A miss
//! that is never stored — the parent-schedule probe of a schedule repair
//! that falls back to a full reschedule — is closed as an *orphan* when an
//! enclosing span closes, and its time stays with its layer. Spans are timed
//! in thread CPU time; each forwarded call is timed in wall time, which
//! includes waiting for the cache lock.
//!
//! Nothing here touches library code: the session sees an ordinary backend.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Instant;

use impact_core::{
    AbsorbStats, BlockKey, CacheBackend, CacheSnapshot, CacheStats, ContextKey, DesignContext,
    DesignPoint, ExploreStats, FuStatsKey, InMemoryCache, MuxEntry, MuxStatsKey, PointKey,
    RegStatsKey, ScaledKey, ScheduleKey, SnapshotRejection, SnapshotScope,
};
use impact_sched::{BlockSchedule, SchedulingResult};
use impact_trace::{FuStats, RegStats};

use crate::sys::thread_cpu_ns;

/// A memoized layer of the session cache, named after the module whose
/// work a miss on it runs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Layer {
    /// Per-unit trace statistics (`impact_trace`).
    Fu,
    /// Per-register trace statistics (`impact_trace`).
    Reg,
    /// Per-mux-site trace statistics (`impact_trace`).
    Mux,
    /// Per-design evaluation context build or patch (`impact_core`).
    Context,
    /// Hierarchical schedule compose or repair (`impact_sched`).
    Schedule,
    /// Basic-block list scheduling (`impact_sched`).
    Block,
    /// Power and area of one design at one supply (`impact_power`).
    Point,
    /// The supply-voltage search over points.
    Vdd,
}

impl Layer {
    /// Every layer, in [`Layer::index`] order.
    pub const ALL: [Layer; 8] = [
        Layer::Fu,
        Layer::Reg,
        Layer::Mux,
        Layer::Context,
        Layer::Schedule,
        Layer::Block,
        Layer::Point,
        Layer::Vdd,
    ];

    /// Position of the layer in [`Layer::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Fu => "trace.fu",
            Layer::Reg => "trace.reg",
            Layer::Mux => "trace.mux",
            Layer::Context => "context",
            Layer::Schedule => "sched.schedule",
            Layer::Block => "sched.block",
            Layer::Point => "point",
            Layer::Vdd => "vdd",
        }
    }
}

/// Deterministic traffic counters of one layer. On a single ranking thread
/// these repeat exactly between runs of the same job list.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LayerCounts {
    /// Lookups answered by the cache.
    pub hits: u64,
    /// Lookups that missed (each opens a span).
    pub misses: u64,
    /// Spans closed by the store of their key.
    pub spans: u64,
    /// Spans never closed by a store (repair fallbacks on the schedule
    /// layer; nothing else is expected to leave one).
    pub orphans: u64,
    /// Stores with no open span of the same key on the storing thread.
    pub unpaired_stores: u64,
}

impl LayerCounts {
    fn add(&mut self, other: &LayerCounts) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.spans += other.spans;
        self.orphans += other.orphans;
        self.unpaired_stores += other.unpaired_stores;
    }
}

/// One closed span, as written to the span file.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Span {
    /// Index of the recording thread within the round.
    pub thread: u32,
    /// Id of the span, unique on its thread.
    pub id: u32,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u32>,
    /// Job (position in the round's job list) the span ran under.
    pub job: u32,
    /// Layer whose miss opened the span.
    pub layer: Layer,
    /// Whether the span was closed without a store of its key.
    pub orphan: bool,
    /// Thread CPU time at the miss, ns.
    pub start_ns: u64,
    /// Thread CPU time at the store (or at the enclosing close), ns.
    pub end_ns: u64,
}

#[derive(Debug)]
struct Frame {
    id: u32,
    layer: Layer,
    key: u64,
    job: u32,
    start_ns: u64,
    child_ns: u64,
}

#[derive(Debug)]
struct ThreadLog {
    thread: u32,
    main: bool,
    /// Main-thread calls seen when this thread made its first call: ranking
    /// workers of one fan-out stage share the value.
    epoch: u64,
    next_id: u32,
    stack: Vec<Frame>,
    spans: Vec<Span>,
    counts: [LayerCounts; 8],
    self_ns: [u64; 8],
    calls: u64,
    call_ns: u64,
    vdd_levels: u64,
    /// CPU covered by this thread's outermost spans, per job.
    top_ns: BTreeMap<u32, u64>,
}

impl ThreadLog {
    fn open(&mut self, layer: Layer, key: u64, job: u32, now: u64) {
        let id = self.next_id;
        self.next_id += 1;
        self.counts[layer.index()].misses += 1;
        self.stack.push(Frame {
            id,
            layer,
            key,
            job,
            start_ns: now,
            child_ns: 0,
        });
    }

    fn close(&mut self, layer: Layer, key: u64, now: u64) {
        let Some(depth) = self
            .stack
            .iter()
            .rposition(|frame| frame.layer == layer && frame.key == key)
        else {
            self.counts[layer.index()].unpaired_stores += 1;
            return;
        };
        while self.stack.len() > depth + 1 {
            self.pop(now, true);
        }
        self.pop(now, false);
    }

    fn pop(&mut self, now: u64, orphan: bool) {
        let Some(frame) = self.stack.pop() else {
            return;
        };
        let duration = now.saturating_sub(frame.start_ns);
        let layer = frame.layer.index();
        self.self_ns[layer] += duration.saturating_sub(frame.child_ns);
        if orphan {
            self.counts[layer].orphans += 1;
        } else {
            self.counts[layer].spans += 1;
        }
        let parent = match self.stack.last_mut() {
            Some(parent) => {
                parent.child_ns += duration;
                Some(parent.id)
            }
            None => {
                *self.top_ns.entry(frame.job).or_default() += duration;
                None
            }
        };
        self.spans.push(Span {
            thread: self.thread,
            id: frame.id,
            parent,
            job: frame.job,
            layer: frame.layer,
            orphan,
            start_ns: frame.start_ns,
            end_ns: now,
        });
    }
}

static NEXT_TRACER: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT: RefCell<Option<(u64, Arc<Mutex<ThreadLog>>)>> = const { RefCell::new(None) };
}

/// Span and counter collector of one round, shared by every session of the
/// round and every thread that touches them.
#[derive(Debug)]
pub struct Tracer {
    id: u64,
    main: ThreadId,
    job: AtomicU32,
    main_calls: AtomicU64,
    logs: Mutex<Vec<Arc<Mutex<ThreadLog>>>>,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .expect("a tracing lock is only poisoned by a panic that already failed the run")
}

fn key_hash<K: Hash>(key: &K) -> u64 {
    let mut hasher = DefaultHasher::new();
    key.hash(&mut hasher);
    hasher.finish()
}

impl Tracer {
    /// A collector whose job-driving thread is the calling thread.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            id: NEXT_TRACER.fetch_add(1, Ordering::Relaxed),
            main: std::thread::current().id(),
            job: AtomicU32::new(0),
            main_calls: AtomicU64::new(0),
            logs: Mutex::new(Vec::new()),
        })
    }

    /// Marks the start of job `job` (its position in the round's job list).
    pub fn begin_job(&self, job: u32) {
        self.job.store(job, Ordering::Relaxed);
    }

    /// Marks the end of the current job on the job-driving thread: spans a
    /// failed computation left open are closed as orphans.
    pub fn end_job(&self) {
        let now = thread_cpu_ns();
        self.with_log(|log| {
            while !log.stack.is_empty() {
                log.pop(now, true);
            }
        });
    }

    fn with_log<R>(&self, f: impl FnOnce(&mut ThreadLog) -> R) -> R {
        CURRENT.with(|current| {
            let mut current = current.borrow_mut();
            if !matches!(&*current, Some((id, _)) if *id == self.id) {
                *current = Some((self.id, self.register()));
            }
            let (_, log) = current.as_ref().expect("registered above");
            let mut log = lock(log);
            if log.main {
                self.main_calls.fetch_add(1, Ordering::Relaxed);
            }
            f(&mut log)
        })
    }

    fn register(&self) -> Arc<Mutex<ThreadLog>> {
        let mut logs = lock(&self.logs);
        let log = Arc::new(Mutex::new(ThreadLog {
            thread: u32::try_from(logs.len()).expect("fewer than 2^32 threads per round"),
            main: std::thread::current().id() == self.main,
            epoch: self.main_calls.load(Ordering::Relaxed),
            next_id: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            counts: [LayerCounts::default(); 8],
            self_ns: [0; 8],
            calls: 0,
            call_ns: 0,
            vdd_levels: 0,
            top_ns: BTreeMap::new(),
        }));
        logs.push(Arc::clone(&log));
        log
    }

    fn lookup<K: Hash, V>(
        &self,
        layer: Layer,
        key: &K,
        call: impl FnOnce() -> Option<V>,
    ) -> Option<V> {
        let start = Instant::now();
        let found = call();
        let call_ns = start.elapsed().as_nanos() as u64;
        let miss_key = found.is_none().then(|| key_hash(key));
        let job = self.job.load(Ordering::Relaxed);
        self.with_log(|log| {
            log.calls += 1;
            log.call_ns += call_ns;
            if layer == Layer::Point && log.stack.last().is_some_and(|f| f.layer == Layer::Vdd) {
                log.vdd_levels += 1;
            }
            match miss_key {
                None => log.counts[layer.index()].hits += 1,
                Some(key) => log.open(layer, key, job, thread_cpu_ns()),
            }
        });
        found
    }

    fn store<K: Hash>(&self, layer: Layer, key: &K, call: impl FnOnce()) {
        let key = key_hash(key);
        let now = thread_cpu_ns();
        let start = Instant::now();
        call();
        let call_ns = start.elapsed().as_nanos() as u64;
        self.with_log(|log| {
            log.calls += 1;
            log.call_ns += call_ns;
            log.close(layer, key, now);
        });
    }

    /// Everything recorded so far, merged over threads. Call once the
    /// round's threads have finished.
    pub fn summary(&self) -> TraceSummary {
        let logs = lock(&self.logs);
        let mut summary = TraceSummary::default();
        let mut stages: BTreeMap<u64, usize> = BTreeMap::new();
        for log in logs.iter() {
            let log = lock(log);
            for (total, counts) in summary.counts.iter_mut().zip(&log.counts) {
                total.add(counts);
            }
            for (total, ns) in summary.self_ns.iter_mut().zip(&log.self_ns) {
                *total += ns;
            }
            summary.calls += log.calls;
            summary.call_ns += log.call_ns;
            summary.vdd_levels += log.vdd_levels;
            summary.left_open += log.stack.len() as u64;
            for (&job, &ns) in &log.top_ns {
                *summary.top_ns.entry(job).or_default() += ns;
            }
            if !log.main {
                *stages.entry(log.epoch).or_default() += 1;
            }
            summary.spans.extend_from_slice(&log.spans);
        }
        summary.rank_threads = stages.values().copied().max().unwrap_or(1) as u64;
        summary
    }
}

/// Merged record of one traced round.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Traffic per layer, in [`Layer::ALL`] order.
    pub counts: [LayerCounts; 8],
    /// Self CPU time per layer, ns.
    pub self_ns: [u64; 8],
    /// Forwarded lookups and stores.
    pub calls: u64,
    /// Wall time inside forwarded lookups and stores, lock waits included.
    pub call_ns: u64,
    /// Point lookups made directly by a supply-voltage search.
    pub vdd_levels: u64,
    /// Spans still open when the summary was taken.
    pub left_open: u64,
    /// CPU covered by outermost spans, per job.
    pub top_ns: BTreeMap<u32, u64>,
    /// Widest fan-out stage in threads (1 when ranking runs inline).
    pub rank_threads: u64,
    /// Every closed span.
    pub spans: Vec<Span>,
}

impl TraceSummary {
    /// Counters of one layer.
    pub fn layer(&self, layer: Layer) -> LayerCounts {
        self.counts[layer.index()]
    }

    /// Self CPU time of one layer, ns.
    pub fn layer_self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer.index()]
    }

    /// The counters that must repeat exactly between single-threaded runs.
    pub fn deterministic_counts(&self) -> ([LayerCounts; 8], u64, u64) {
        (self.counts, self.calls, self.vdd_levels)
    }
}

/// A session backend that forwards every [`CacheBackend`] method to an
/// [`InMemoryCache`] and reports lookups and stores to a [`Tracer`].
#[derive(Debug)]
pub struct TracingBackend {
    inner: InMemoryCache,
    tracer: Arc<Tracer>,
}

impl TracingBackend {
    /// Wraps `inner`, reporting to `tracer`.
    pub fn new(inner: InMemoryCache, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

macro_rules! traced_map {
    ($lookup:ident, $store:ident, $layer:expr, $key:ty, $value:ty) => {
        fn $lookup(&self, key: &$key) -> Option<$value> {
            self.tracer.lookup($layer, key, || self.inner.$lookup(key))
        }

        fn $store(&self, key: $key, value: $value) {
            self.tracer
                .store($layer, &key, || self.inner.$store(key, value));
        }
    };
}

impl CacheBackend for TracingBackend {
    traced_map!(
        lookup_point,
        store_point,
        Layer::Point,
        PointKey,
        Arc<DesignPoint>
    );
    traced_map!(
        lookup_scaled,
        store_scaled,
        Layer::Vdd,
        ScaledKey,
        Option<Arc<DesignPoint>>
    );
    traced_map!(
        lookup_context,
        store_context,
        Layer::Context,
        ContextKey,
        Arc<DesignContext>
    );
    traced_map!(
        lookup_schedule,
        store_schedule,
        Layer::Schedule,
        ScheduleKey,
        Arc<SchedulingResult>
    );
    traced_map!(
        lookup_block,
        store_block,
        Layer::Block,
        BlockKey,
        Arc<BlockSchedule>
    );
    traced_map!(lookup_fu, store_fu, Layer::Fu, FuStatsKey, FuStats);
    traced_map!(lookup_reg, store_reg, Layer::Reg, RegStatsKey, RegStats);
    traced_map!(lookup_mux, store_mux, Layer::Mux, MuxStatsKey, MuxEntry);

    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    // The three methods below have default bodies in the trait. Inheriting
    // them would silently zero the explore and snapshot counters that
    // `InMemoryCache` keeps, so they forward like the rest.
    fn record_explore(&self, stats: ExploreStats) {
        self.inner.record_explore(stats);
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

    fn export(&self) -> CacheSnapshot {
        self.inner.export()
    }

    fn absorb(&self, snapshot: CacheSnapshot) -> AbsorbStats {
        self.inner.absorb(snapshot)
    }
}
