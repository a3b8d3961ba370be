//! The batch job driver: many `(benchmark, configuration)` synthesis jobs
//! scheduled over a scoped worker pool, optionally sharing one
//! [`SweepSession`] — plus the CLI and report plumbing every bench binary
//! shares ([`BenchCli`], [`example_designs`], [`report_json`],
//! [`write_report`], [`fail`], [`fail_if`]).
//!
//! Every multi-run experiment goes through [`run_batch`]: one place that
//! claims jobs off a shared queue, times each synthesis, and returns results
//! in submission order regardless of which worker finished first. Synthesis
//! itself is deterministic and runs on the worker that claimed the job, so
//! parallel batches produce bit-identical reports to sequential ones — the
//! pool only changes wall-clock.

use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use impact_behsim::ExecutionTrace;
use impact_benchmarks::Benchmark;
use impact_cdfg::Cdfg;
use impact_core::{Impact, SweepSession, SynthesisConfig, SynthesisOutcome};

/// One synthesis job of a batch: a prepared workload plus the configuration
/// to synthesize it under.
#[derive(Clone, Debug)]
pub struct SweepJob<'a> {
    /// Job label carried into the result (e.g. `power@1.4`).
    pub label: String,
    /// Compiled benchmark.
    pub cdfg: &'a Cdfg,
    /// Its behavioral trace.
    pub trace: &'a ExecutionTrace,
    /// Synthesis configuration of this job.
    pub config: SynthesisConfig,
}

impl<'a> SweepJob<'a> {
    /// Creates a job.
    pub fn new(
        label: impl Into<String>,
        cdfg: &'a Cdfg,
        trace: &'a ExecutionTrace,
        config: SynthesisConfig,
    ) -> Self {
        Self {
            label: label.into(),
            cdfg,
            trace,
            config,
        }
    }
}

/// Outcome of one batch job.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The job's label.
    pub label: String,
    /// The synthesis outcome.
    pub outcome: SynthesisOutcome,
    /// Wall-clock of this job's `synthesize` call, in milliseconds.
    pub wall_ms: f64,
}

/// Resolves a worker-count request: `0` means one per available CPU, and the
/// pool never outnumbers the jobs.
fn effective_workers(requested: usize, jobs: usize) -> usize {
    let available = if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    };
    available.min(jobs).max(1)
}

/// Runs every job, optionally against one shared session, over `workers`
/// scoped worker threads (`0` = one per available CPU; `1` runs the jobs
/// in submission order on the calling thread, which keeps per-job timing
/// honest for benchmarking). Results come back in submission order.
///
/// # Panics
///
/// Panics when a job's synthesis fails — batch jobs run the curated
/// benchmark suite, where failure indicates a bug, not an input problem.
pub fn run_batch(
    jobs: &[SweepJob<'_>],
    session: Option<&SweepSession>,
    workers: usize,
) -> Vec<JobResult> {
    let run_one = |job: &SweepJob<'_>| -> JobResult {
        let engine = Impact::new(job.config.clone());
        let started = Instant::now();
        let outcome = match session {
            Some(session) => engine.synthesize_with_session(job.cdfg, job.trace, session),
            None => engine.synthesize(job.cdfg, job.trace),
        }
        .unwrap_or_else(|error| panic!("batch job `{}` failed: {error}", job.label));
        JobResult {
            label: job.label.clone(),
            outcome,
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
        }
    };

    let workers = effective_workers(workers, jobs.len());
    if workers <= 1 {
        return jobs.iter().map(run_one).collect();
    }

    // Work-stealing by atomic claim; each result lands in its job's slot, so
    // finish order cannot reorder (or drop) results.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<JobResult>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(index) else { break };
                let result = run_one(job);
                *slots[index]
                    .lock()
                    .expect("a bench job never panics while holding its result slot") =
                    Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock cannot be poisoned after the scope joined")
                .expect("every claimed job stored its result")
        })
        .collect()
}

/// Parsed command line of a bench binary: the flags every driver shares
/// (`--smoke`, `--paper`, `--out PATH`) plus typed access to
/// binary-specific arguments.
#[derive(Clone, Debug)]
pub struct BenchCli {
    args: Vec<String>,
}

impl BenchCli {
    /// Parses the process arguments.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1).collect())
    }

    /// Builds a CLI from an explicit argument list (for tests).
    pub fn from_args(args: Vec<String>) -> Self {
        Self { args }
    }

    /// Whether a bare flag (e.g. `--smoke`) is present.
    pub fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// `--smoke`: reduced inputs so CI tracks the trajectory in seconds.
    pub fn smoke(&self) -> bool {
        self.flag("--smoke")
    }

    /// `--paper`: the full 11-point laxity grid of Figure 13.
    pub fn paper(&self) -> bool {
        self.flag("--paper")
    }

    /// The mode label reports carry: `"smoke"` or `"full"`.
    pub fn mode(&self) -> &'static str {
        if self.smoke() {
            "smoke"
        } else {
            "full"
        }
    }

    /// The operand following `key` (e.g. `--workers 4`), verbatim.
    pub fn value(&self, key: &str) -> Option<String> {
        self.args
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.args.get(i + 1))
            .cloned()
    }

    /// The operand following `key`, parsed: `Ok(None)` when the flag is
    /// absent, and an error naming the flag when its operand is missing or
    /// malformed — a typo must not silently run the default.
    pub fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        if !self.flag(key) {
            return Ok(None);
        }
        let operand = self
            .value(key)
            .ok_or_else(|| format!("`{key}` needs an operand"))?;
        operand
            .parse()
            .map(Some)
            .map_err(|_| format!("`{key}` got malformed operand `{operand}`"))
    }

    /// The report path: `--out PATH` or the binary's default.
    pub fn out_path(&self, default: &str) -> String {
        self.value("--out").unwrap_or_else(|| default.to_string())
    }
}

/// The example designs the benches and differential tests run on, smallest
/// first.
pub fn example_designs() -> Vec<Benchmark> {
    vec![
        impact_benchmarks::gcd(),
        impact_benchmarks::x25_send(),
        impact_benchmarks::dealer(),
        impact_benchmarks::paulin(),
    ]
}

/// Assembles the report envelope the bench binaries share: scalar header
/// fields (values are raw JSON), one or more named arrays of pre-rendered
/// objects, and a `headline` object.
pub fn report_json(
    scalars: &[(&str, String)],
    arrays: &[(&str, &[String])],
    headline: &str,
) -> String {
    let mut out = String::from("{\n");
    for (name, value) in scalars {
        out.push_str(&format!("  \"{name}\": {value},\n"));
    }
    for (name, items) in arrays {
        out.push_str(&format!("  \"{name}\": [\n"));
        for (i, item) in items.iter().enumerate() {
            out.push_str(&format!(
                "    {item}{}\n",
                if i + 1 < items.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
    }
    out.push_str(&format!("  \"headline\": {headline}\n"));
    out.push_str("}\n");
    out
}

/// Writes a report to `path` and logs the destination.
///
/// # Panics
///
/// Panics when the path is not writable — bench reports are the product of
/// the run, so failing to record them is a hard error.
pub fn write_report(path: &str, json: &str) {
    let mut file = std::fs::File::create(path).expect("bench output file is writable");
    file.write_all(json.as_bytes())
        .expect("bench output writes");
    println!("wrote {path}");
}

/// Exits non-zero with `FAIL: message`.
pub fn fail(message: &str) -> ! {
    eprintln!("FAIL: {message}");
    std::process::exit(1);
}

/// Exits non-zero with `FAIL: message` when `diverged` holds, making a
/// bench's equivalence check a hard gate wherever it runs.
pub fn fail_if(diverged: bool, message: &str) {
    if diverged {
        fail(message);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use impact_core::EngineConfig;

    #[test]
    fn batches_preserve_submission_order_and_match_sequential_runs() {
        let bench = impact_benchmarks::gcd();
        let cdfg = bench.compile().unwrap();
        let trace = impact_behsim::simulate(&cdfg, &bench.input_sequences(8, 11)).unwrap();
        let jobs: Vec<SweepJob<'_>> = [1.0, 1.6, 2.2]
            .iter()
            .map(|&laxity| {
                SweepJob::new(
                    format!("power@{laxity}"),
                    &cdfg,
                    &trace,
                    SynthesisConfig::power_optimized(laxity).with_effort(2, 3),
                )
            })
            .collect();
        let sequential = run_batch(&jobs, None, 1);
        let session = SweepSession::new();
        let parallel = run_batch(&jobs, Some(&session), 3);
        assert_eq!(sequential.len(), 3);
        for (a, b) in sequential.iter().zip(&parallel) {
            assert_eq!(a.label, b.label, "submission order is preserved");
            assert_eq!(a.outcome.report, b.outcome.report, "results are identical");
            assert!(a.wall_ms > 0.0 && b.wall_ms > 0.0);
        }
        assert!(session.stats().hits > 0, "jobs share the session");
    }

    #[test]
    fn malformed_operands_fail_instead_of_running_the_default() {
        let cli = |args: &[&str]| BenchCli::from_args(args.iter().map(|a| a.to_string()).collect());
        assert_eq!(cli(&[]).parsed::<usize>("--passes"), Ok(None));
        assert_eq!(
            cli(&["--passes", "12"]).parsed::<usize>("--passes"),
            Ok(Some(12))
        );
        let malformed = cli(&["--passes", "4O"])
            .parsed::<usize>("--passes")
            .unwrap_err();
        assert!(
            malformed.contains("--passes") && malformed.contains("4O"),
            "{malformed}"
        );
        let missing = cli(&["--smoke", "--passes"])
            .parsed::<usize>("--passes")
            .unwrap_err();
        assert!(missing.contains("--passes"), "{missing}");
    }

    #[test]
    fn worker_counts_resolve_sanely() {
        assert_eq!(effective_workers(1, 10), 1);
        assert_eq!(effective_workers(4, 2), 2);
        assert!(effective_workers(0, 64) >= 1);
        assert_eq!(effective_workers(3, 0), 1);
    }

    #[test]
    fn sequential_engine_jobs_run_through_the_same_path() {
        let bench = impact_benchmarks::gcd();
        let cdfg = bench.compile().unwrap();
        let trace = impact_behsim::simulate(&cdfg, &bench.input_sequences(8, 11)).unwrap();
        let config = SynthesisConfig::power_optimized(2.0)
            .with_effort(1, 2)
            .with_engine(EngineConfig::sequential());
        let jobs = [SweepJob::new("sequential", &cdfg, &trace, config)];
        let results = run_batch(&jobs, None, 1);
        assert_eq!(results[0].outcome.cache_stats.hits, 0);
        assert_eq!(results[0].outcome.cache_stats.misses, 0);
    }
}
