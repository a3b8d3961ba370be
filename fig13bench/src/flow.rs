//! The Figure 13 flow the benchmark drives through the library's public
//! entry points: compile and simulate every design, then replay one job
//! list per round on fresh sessions — cold, or warm from snapshot files.

use std::fs;
use std::hash::{DefaultHasher, Hasher};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use impact_behsim::ExecutionTrace;
use impact_cdfg::Cdfg;
use impact_core::{
    decode_snapshot, encode_snapshot, write_snapshot_bytes, CacheBackend, CacheStats, DiskCache,
    EngineConfig, Evaluator, ExploreStats, Impact, InMemoryCache, SnapshotScope, SweepSession,
    SynthesisConfig, SynthesisOutcome, SynthesisReport,
};

use crate::sys::process_cpu_ns;
use crate::tracing::{Tracer, TracingBackend};

/// Seed of the expected-report files.
pub const DEFAULT_SEED: u64 = 1998;
/// Search effort of every job: improvement passes, sequence length.
pub const EFFORT: (usize, usize) = (3, 5);
/// Input passes of the Figure 13 workloads.
pub const FIG13_PASSES: usize = 48;
/// Input passes of `long_trace`.
pub const LONG_TRACE_PASSES: usize = 150;

/// One set of inputs the benchmark runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// The paper's grid on 48-pass traces, ranking pinned to one thread.
    Fig13Sweep,
    /// The `Fig13Sweep` jobs on 150-pass traces: trace statistics dominate.
    LongTrace,
    /// The `Fig13Sweep` jobs replayed from snapshot files each round.
    WarmResume,
    /// `Fig13Sweep` at the engine's default ranking (a thread per CPU).
    Fig13Fanout,
}

impl Workload {
    /// Every workload, in the order the notes describe them.
    pub const ALL: [Workload; 4] = [
        Workload::Fig13Sweep,
        Workload::LongTrace,
        Workload::WarmResume,
        Workload::Fig13Fanout,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig13Sweep => "fig13_sweep",
            Workload::LongTrace => "long_trace",
            Workload::WarmResume => "warm_resume",
            Workload::Fig13Fanout => "fig13_fanout",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Input passes of every design's trace.
    pub fn passes(self) -> usize {
        match self {
            Workload::LongTrace => LONG_TRACE_PASSES,
            _ => FIG13_PASSES,
        }
    }

    /// Ranking threads of the engine (`0` = one per CPU).
    pub fn ranking_threads(self) -> usize {
        match self {
            Workload::Fig13Fanout => 0,
            _ => 1,
        }
    }

    /// The job list of one design.
    pub fn jobs(self) -> Vec<Job> {
        jobs(&laxity_grid(), self.ranking_threads())
    }

    /// Name of the expected-report file the workload is checked against;
    /// workloads that run the same jobs on the same traces share one.
    pub fn expected_name(self) -> &'static str {
        match self {
            Workload::LongTrace => "long_trace",
            _ => "fig13",
        }
    }
}

/// Laxity points of every workload's sweep: the paper's grid, 1.0 to 3.0
/// in steps of 0.2.
pub fn laxity_grid() -> Vec<f64> {
    (0..=10).map(|i| 1.0 + 0.2 * f64::from(i)).collect()
}

/// One compiled and simulated design.
#[derive(Debug)]
pub struct Design {
    /// Benchmark name.
    pub name: &'static str,
    /// Its control-data flow graph.
    pub cdfg: Cdfg,
    /// Its behavioral trace.
    pub trace: ExecutionTrace,
}

/// Cost and size of the front end over every design.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PrepareCost {
    /// CPU in `impact_hdl::compile`, ns.
    pub compile_ns: u64,
    /// CPU in `impact_behsim::simulate`, ns.
    pub simulate_ns: u64,
    /// CDFG nodes.
    pub nodes: u64,
    /// Simulation events.
    pub events: u64,
}

/// Compiles and simulates the six Figure 13 designs on `passes` seeded
/// input passes.
///
/// # Errors
///
/// Reports a front-end or simulation failure with the design's name.
pub fn prepare(passes: usize, seed: u64) -> Result<(Vec<Design>, PrepareCost), String> {
    let mut cost = PrepareCost::default();
    let mut designs = Vec::new();
    for bench in impact_benchmarks::all_benchmarks() {
        let inputs = bench.input_sequences(passes, seed);
        let start = process_cpu_ns();
        let cdfg = impact_hdl::compile(bench.source).map_err(|e| format!("{}: {e}", bench.name))?;
        let compiled = process_cpu_ns();
        let trace =
            impact_behsim::simulate(&cdfg, &inputs).map_err(|e| format!("{}: {e}", bench.name))?;
        cost.compile_ns += compiled - start;
        cost.simulate_ns += process_cpu_ns() - compiled;
        cost.nodes += cdfg.node_count() as u64;
        cost.events += trace.event_count() as u64;
        designs.push(Design {
            name: bench.name,
            cdfg,
            trace,
        });
    }
    Ok((designs, cost))
}

/// One synthesis run of a design's job list.
#[derive(Clone, Debug)]
pub struct Job {
    /// `base`, `area@L` or `power@L`.
    pub label: String,
    /// The run's configuration.
    pub config: SynthesisConfig,
}

/// A Figure 13 job list: the area-optimized base at laxity 1.0, then an
/// area- and a power-optimized run per laxity, all with the greedy
/// explorer at effort [`EFFORT`].
pub fn jobs(laxities: &[f64], ranking_threads: usize) -> Vec<Job> {
    let engine = EngineConfig::incremental().with_ranking_threads(ranking_threads);
    let job = |label: String, config: SynthesisConfig| Job {
        label,
        config: config.with_effort(EFFORT.0, EFFORT.1).with_engine(engine),
    };
    let mut jobs = vec![job("base".into(), SynthesisConfig::area_optimized(1.0))];
    for &laxity in laxities {
        jobs.push(job(
            format!("area@{laxity:.1}"),
            SynthesisConfig::area_optimized(laxity),
        ));
        jobs.push(job(
            format!("power@{laxity:.1}"),
            SynthesisConfig::power_optimized(laxity),
        ));
    }
    jobs
}

/// Timings of snapshot work, measured through the public codec calls.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SnapshotPhases {
    /// CPU reading and writing snapshot files, ns.
    pub io_ns: u64,
    /// CPU in `decode_snapshot` (decode plus digest verification), ns.
    pub decode_ns: u64,
    /// CPU in `export` plus `encode_snapshot`, ns.
    pub encode_ns: u64,
    /// CPU merging decoded entries into a fresh cache, ns.
    pub absorb_ns: u64,
    /// Entries decoded.
    pub entries: u64,
}

impl SnapshotPhases {
    fn timed<R>(slot: &mut u64, f: impl FnOnce() -> R) -> R {
        let start = process_cpu_ns();
        let result = f();
        *slot += process_cpu_ns() - start;
        result
    }

    /// Reads, decodes and absorbs the snapshot at `path` into a fresh
    /// cache, as `DiskCache::open` does. A missing or rejected file leaves
    /// the cache cold, as it does there; the flag says whether it loaded.
    pub fn load(&mut self, path: &Path) -> (InMemoryCache, bool) {
        let cache = InMemoryCache::new();
        let Ok(bytes) = Self::timed(&mut self.io_ns, || fs::read(path)) else {
            return (cache, false);
        };
        let decoded = Self::timed(&mut self.decode_ns, || {
            decode_snapshot(&bytes, SnapshotScope::Any)
        });
        let Ok(snapshot) = decoded else {
            return (cache, false);
        };
        self.entries += snapshot.len() as u64;
        Self::timed(&mut self.absorb_ns, || cache.absorb(snapshot));
        (cache, true)
    }

    /// Encodes `session` and writes it to `path`, as `DiskCache::flush`
    /// does.
    ///
    /// # Errors
    ///
    /// Propagates the write error.
    pub fn save(&mut self, session: &SweepSession, path: &Path) -> io::Result<()> {
        let bytes = Self::timed(&mut self.encode_ns, || {
            encode_snapshot(&session.backend().export())
        });
        Self::timed(&mut self.io_ns, || write_snapshot_bytes(path, &bytes))
    }
}

/// Cache and search counters summed over a round's sessions.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SessionTotals {
    /// Lookups answered by a cache layer.
    pub hits: u64,
    /// Lookups that computed.
    pub misses: u64,
    /// Whole-map clears at a capacity bound.
    pub evictions: u64,
    /// Search effort.
    pub explore: ExploreStats,
}

impl SessionTotals {
    fn add(&mut self, stats: &CacheStats) {
        self.hits += stats.hits;
        self.misses += stats.misses;
        self.evictions += stats.evictions;
        self.explore.accumulate(stats.explore);
    }
}

/// Called with each design's index and session once its jobs (and, warm,
/// its flush) are done, before the session is dropped. Its CPU is left out
/// of the round's timings.
pub type Inspect<'a> = &'a mut dyn FnMut(usize, &SweepSession);

/// Everything one round produced, in flat job order (design-major).
#[derive(Debug, Default)]
pub struct Round {
    /// Process CPU of the round, all threads, ns.
    pub cpu_ns: u64,
    /// Wall time of the round, ns.
    pub wall_ns: u64,
    /// Process CPU per design, ns.
    pub design_cpu_ns: Vec<u64>,
    /// Process CPU per job, ns.
    pub job_cpu_ns: Vec<u64>,
    /// Every job's report, or its error.
    pub reports: Vec<Result<SynthesisReport, String>>,
    /// Every job's full outcome, when the round keeps them for the audit.
    pub outcomes: Vec<Option<SynthesisOutcome>>,
    /// Counters of the round's sessions.
    pub totals: SessionTotals,
    /// Warm rounds: whether each design's flush succeeded.
    pub flushes: Vec<Result<(), String>>,
    /// Warm rounds: designs whose snapshot loaded (the rest started cold).
    pub warm_loads: u64,
    /// Warm rounds: snapshot work (phase timings only when traced).
    pub snapshot: SnapshotPhases,
    /// CPU dropping the sessions, ns.
    pub teardown_ns: u64,
    excluded_ns: u64,
}

impl Round {
    fn run_jobs(
        &mut self,
        design: &Design,
        jobs: &[Job],
        session: &SweepSession,
        tracer: Option<&Tracer>,
        keep_outcomes: bool,
    ) {
        for job in jobs {
            if let Some(tracer) = tracer {
                let index = u32::try_from(self.reports.len()).expect("fewer than 2^32 jobs");
                tracer.begin_job(index);
            }
            let start = process_cpu_ns();
            let result = Impact::new(job.config.clone()).synthesize_with_session(
                &design.cdfg,
                &design.trace,
                session,
            );
            self.job_cpu_ns.push(process_cpu_ns() - start);
            if let Some(tracer) = tracer {
                tracer.end_job();
            }
            self.reports.push(
                result
                    .as_ref()
                    .map(|outcome| outcome.report.clone())
                    .map_err(|e| format!("{} {}: {e}", design.name, job.label)),
            );
            self.outcomes.push(result.ok().filter(|_| keep_outcomes));
        }
    }

    /// Ends one design: counts its session, runs the inspection untimed,
    /// then drops the session — freeing the cache is part of the round —
    /// and records the design's CPU.
    fn end_design(
        &mut self,
        index: usize,
        session: SweepSession,
        start: u64,
        inspect: &mut Option<Inspect<'_>>,
    ) {
        self.totals.add(&session.stats());
        let inspected = process_cpu_ns();
        if let Some(inspect) = inspect {
            inspect(index, &session);
        }
        let dropping = process_cpu_ns();
        drop(session);
        let end = process_cpu_ns();
        self.excluded_ns += dropping - inspected;
        self.teardown_ns += end - dropping;
        self.design_cpu_ns
            .push(end - start - (dropping - inspected));
    }

    fn finish(&mut self, cpu_start: u64, wall_start: Instant) {
        self.cpu_ns = process_cpu_ns() - cpu_start - self.excluded_ns;
        self.wall_ns = wall_start.elapsed().as_nanos() as u64;
    }
}

fn session_over(cache: InMemoryCache, tracer: Option<&Arc<Tracer>>) -> SweepSession {
    match tracer {
        Some(tracer) => {
            SweepSession::with_backend(Arc::new(TracingBackend::new(cache, Arc::clone(tracer))))
        }
        None => SweepSession::with_backend(Arc::new(cache)),
    }
}

/// Runs every design's jobs on a fresh session of its own, dropped before
/// the next design starts. With a tracer the sessions use a
/// [`TracingBackend`] reporting to it.
pub fn cold_round(
    designs: &[Design],
    jobs: &[Job],
    tracer: Option<&Arc<Tracer>>,
    keep_outcomes: bool,
    mut inspect: Option<Inspect<'_>>,
) -> Round {
    let wall = Instant::now();
    let cpu = process_cpu_ns();
    let mut round = Round::default();
    for (index, design) in designs.iter().enumerate() {
        let start = process_cpu_ns();
        let session = session_over(InMemoryCache::new(), tracer);
        round.run_jobs(
            design,
            jobs,
            &session,
            tracer.map(Arc::as_ref),
            keep_outcomes,
        );
        round.end_design(index, session, start, &mut inspect);
    }
    round.finish(cpu, wall);
    round
}

/// Resumes every design from its snapshot file, reruns its jobs and
/// flushes the session back. Untraced rounds use `DiskCache::open` and
/// `flush`; traced rounds make the same calls through the public codec
/// functions, timing each phase.
pub fn warm_round(
    designs: &[Design],
    jobs: &[Job],
    fixtures: &[PathBuf],
    tracer: Option<&Arc<Tracer>>,
    keep_outcomes: bool,
    mut inspect: Option<Inspect<'_>>,
) -> Round {
    let wall = Instant::now();
    let cpu = process_cpu_ns();
    let mut round = Round::default();
    for (index, (design, path)) in designs.iter().zip(fixtures).enumerate() {
        let start = process_cpu_ns();
        if tracer.is_some() {
            let mut phases = round.snapshot;
            let (cache, loaded) = phases.load(path);
            round.warm_loads += u64::from(loaded);
            let session = session_over(cache, tracer);
            round.run_jobs(
                design,
                jobs,
                &session,
                tracer.map(Arc::as_ref),
                keep_outcomes,
            );
            round
                .flushes
                .push(phases.save(&session, path).map_err(|e| e.to_string()));
            round.snapshot = phases;
            round.end_design(index, session, start, &mut inspect);
            continue;
        }
        match DiskCache::open(path, SnapshotScope::Any) {
            Ok(cache) => {
                let cache = Arc::new(cache);
                round.warm_loads += u64::from(cache.stats().snapshot.loads > 0);
                let session = SweepSession::with_backend(cache.clone());
                round.run_jobs(design, jobs, &session, None, keep_outcomes);
                round.flushes.push(cache.flush().map_err(|e| e.to_string()));
                drop(cache);
                round.end_design(index, session, start, &mut inspect);
            }
            Err(e) => {
                for job in jobs {
                    round
                        .reports
                        .push(Err(format!("{} {}: open: {e}", design.name, job.label)));
                    round.outcomes.push(None);
                    round.job_cpu_ns.push(0);
                }
                round
                    .flushes
                    .push(Err(format!("{}: open: {e}", design.name)));
                round.design_cpu_ns.push(process_cpu_ns() - start);
            }
        }
    }
    round.finish(cpu, wall);
    round
}

/// Builds `warm_resume`'s fixtures: one cold round, each design's session
/// saved to `dir/<design>.impactcache`. Returns the paths and the round.
///
/// # Errors
///
/// Propagates the first write error.
pub fn build_fixtures(
    designs: &[Design],
    jobs: &[Job],
    dir: &Path,
) -> io::Result<(Vec<PathBuf>, Round)> {
    let paths: Vec<PathBuf> = designs
        .iter()
        .map(|design| dir.join(format!("{}.impactcache", design.name)))
        .collect();
    let mut saved = Ok(());
    let mut save = |index: usize, session: &SweepSession| {
        if saved.is_ok() {
            saved = session.save_to_file(&paths[index]);
        }
    };
    let round = cold_round(designs, jobs, None, false, Some(&mut save));
    saved?;
    Ok((paths, round))
}

/// Digest of a file's bytes, for the flush-identity check.
///
/// # Errors
///
/// Propagates the read error.
pub fn file_digest(path: &Path) -> io::Result<(u64, u64)> {
    let bytes = fs::read(path)?;
    let mut hasher = DefaultHasher::new();
    hasher.write(&bytes);
    Ok((bytes.len() as u64, hasher.finish()))
}

/// Statically audits every kept outcome of a round with
/// `Evaluator::audit_outcome`. Returns the violation count per job (a job
/// whose outcome is missing or whose evaluator cannot be built counts one).
pub fn audit(designs: &[Design], jobs: &[Job], round: &Round) -> Vec<usize> {
    round
        .outcomes
        .iter()
        .enumerate()
        .map(|(index, outcome)| {
            let design = &designs[index / jobs.len()];
            let job = &jobs[index % jobs.len()];
            let Some(outcome) = outcome else {
                return 1;
            };
            match Evaluator::new(&design.cdfg, &design.trace, job.config.clone()) {
                Ok(evaluator) => evaluator.audit_outcome(outcome).len(),
                Err(_) => 1,
            }
        })
        .collect()
}
