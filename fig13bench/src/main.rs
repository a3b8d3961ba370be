//! Runs one workload of the Figure 13 benchmark and prints its metrics.
//!
//! ```text
//! fig13bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! fig13bench --write-expected <fig13|long_trace>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics of the traced run with
//! `--trace 1`. The lines before it give provenance and the figures that
//! are printed but not gated (`wall_s`, `steal_s`, per-design CPU).

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fig13bench::flow::{
    self, Design, Inspect, Job, Round, SessionTotals, SnapshotPhases, Workload, DEFAULT_SEED,
};
use fig13bench::oracle::{self, Reference, Tally};
use fig13bench::tracing::{Layer, TraceSummary, Tracer};
use fig13bench::{calibration, sys};
use impact_core::{OptimizationMode, SweepSession};

/// Set-up repetitions after each measured round. `setup_s` is the median
/// of these and of the first set-up, which counts from process start.
/// Spread through the run, they see the same machine states as the rounds
/// and the calibration kernel. Fixture building makes `warm_resume`'s
/// set-up a hundred times costlier than the others'.
fn setup_reps_per_round(workload: Workload) -> usize {
    match workload {
        Workload::WarmResume => 1,
        _ => 5,
    }
}

/// What one set-up makes: the compiled and simulated designs, their
/// front-end cost, and on `warm_resume` the snapshot fixtures with the cold
/// round that wrote them.
type SetUp = (
    Vec<Design>,
    flow::PrepareCost,
    Option<(Vec<PathBuf>, Round)>,
);

/// Compiles and simulates every design and, on `warm_resume`, builds the
/// snapshot fixtures in `dir`.
fn set_up(workload: Workload, seed: u64, jobs: &[Job], dir: &Path) -> Result<SetUp, String> {
    let (designs, cost) = flow::prepare(workload.passes(), seed)?;
    let fixtures = if workload == Workload::WarmResume {
        Some(
            flow::build_fixtures(&designs, jobs, dir)
                .map_err(|e| format!("building fixtures: {e}"))?,
        )
    } else {
        None
    };
    Ok((designs, cost, fixtures))
}

/// Rounds a run measures at least, whatever `--seconds` says. A traced run
/// alternates untraced and traced rounds, so it needs two of each.
fn min_rounds(trace: bool) -> usize {
    if trace {
        4
    } else {
        3
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    WriteExpected(Workload),
}

fn parse_args() -> Result<Command, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("expected seconds"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
            }
            "--write-expected" => {
                let target = Workload::ALL
                    .into_iter()
                    .find(|w| w.expected_name() == value)
                    .ok_or_else(|| bad("expected fig13 or long_trace"))?;
                return Ok(Command::WriteExpected(target));
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn main() -> ExitCode {
    sys::pin_mmap_threshold();
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let result = match parse_args() {
        Ok(Command::Run(args)) => run(&args, bench_dir),
        Ok(Command::WriteExpected(workload)) => write_expected(workload, bench_dir),
        Err(e) => Err(e),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fig13bench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn expected_path(bench_dir: &Path, workload: Workload) -> PathBuf {
    bench_dir
        .join("expected")
        .join(format!("{}.txt", workload.expected_name()))
}

fn write_expected(workload: Workload, bench_dir: &Path) -> Result<(), String> {
    let (designs, _) = flow::prepare(workload.passes(), DEFAULT_SEED)?;
    let entries = oracle::oracle_entries(&designs, &workload.jobs())?;
    let path = expected_path(bench_dir, workload);
    let header = oracle::expected_header(workload.passes(), DEFAULT_SEED);
    oracle::write_expected(&path, &header, &entries)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {} reports to {}", entries.len(), path.display());
    Ok(())
}

/// This run's scratch directory, removed when the run ends however it
/// ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(path: PathBuf) -> Result<Self, String> {
        fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Self(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Per-layer record of one traced round.
struct Traced {
    summary: TraceSummary,
    /// Round CPU at the reference speed.
    scaled_cpu_ns: f64,
    job_cpu_ns: Vec<u64>,
    totals: SessionTotals,
    entries: u64,
    snapshot: SnapshotPhases,
    teardown_ns: u64,
}

/// One round of the workload: cold, or warm from the fixtures.
fn play(
    designs: &[Design],
    jobs: &[Job],
    fixtures: &[PathBuf],
    tracer: Option<&Arc<Tracer>>,
    keep_outcomes: bool,
    inspect: Option<Inspect<'_>>,
) -> Round {
    if fixtures.is_empty() {
        flow::cold_round(designs, jobs, tracer, keep_outcomes, inspect)
    } else {
        flow::warm_round(designs, jobs, fixtures, tracer, keep_outcomes, inspect)
    }
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut values: Vec<f64> = values.into_iter().collect();
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Geometric mean of final power over the power-optimized jobs.
fn power_geomean(jobs: &[Job], round: &Round) -> f64 {
    let logs: Vec<f64> = round
        .reports
        .iter()
        .enumerate()
        .filter(|(index, _)| jobs[index % jobs.len()].config.mode == OptimizationMode::Power)
        .filter_map(|(_, report)| report.as_ref().ok())
        .map(|report| report.power_mw.ln())
        .collect();
    mean(&logs).exp()
}

fn run(args: &Args, bench_dir: &Path) -> Result<(), String> {
    let workload = args.workload;
    let warm = workload == Workload::WarmResume;
    let root = bench_dir.parent().unwrap_or(bench_dir);
    let work = WorkDir::create(
        root.join(".fig13bench")
            .join(format!("run-{}", std::process::id())),
    )?;
    let jobs = workload.jobs();

    // The first set-up counts from process start.
    let (designs, cost, fixtures) = set_up(workload, args.seed, &jobs, &work.0)?;
    let mut setup_ns = vec![sys::process_cpu_ns() as f64];
    let setup_kernels: Vec<f64> = (0..3).map(|_| calibration::kernel_s()).collect();
    let mut setup_scaled = vec![setup_ns[0] * calibration::scale(mean(&setup_kernels))];
    let mut prepare_costs = vec![cost];
    let repeat_dir = work.0.join("setup");
    fs::create_dir_all(&repeat_dir).map_err(|e| format!("{}: {e}", repeat_dir.display()))?;

    // Everything the checks need, outside every timed interval.
    let reference = if args.seed == DEFAULT_SEED {
        match oracle::read_expected(&expected_path(bench_dir, workload))
            .and_then(|entries| oracle::aligned_reference(&entries, &designs, &jobs))
        {
            Ok(expected) => Reference::Expected(expected),
            Err(e) => Reference::Broken(e),
        }
    } else {
        Reference::FirstRound
    };
    let mut tally = Tally::default();
    if let Reference::Broken(e) = &reference {
        tally.note(format!("expected file unusable: {e}"));
    }
    let (fixture_paths, cold_reports) = match fixtures {
        Some((paths, cold)) => {
            let mut digests = Vec::with_capacity(paths.len());
            for path in paths {
                let digest =
                    flow::file_digest(&path).map_err(|e| format!("{}: {e}", path.display()))?;
                digests.push((path, digest));
            }
            let cold: Vec<Vec<u8>> = cold
                .reports
                .iter()
                .map(|r| r.as_ref().map(oracle::encode_report).unwrap_or_default())
                .collect();
            (digests, Some(cold))
        }
        None => (Vec::new(), None),
    };
    let paths: Vec<PathBuf> = fixture_paths.iter().map(|(p, _)| p.clone()).collect();

    // The first round warms the allocator and is not timed. Its outcomes
    // are audited, its reports are the reference at other seeds, and its
    // sessions give the snapshot a cold round's sessions would write.
    let mut reload = SnapshotPhases::default();
    let mut reload_error = None;
    let mut encoded = 0;
    let mut encode = |index: usize, session: &SweepSession| {
        if warm || reload_error.is_some() {
            return;
        }
        if args.trace {
            let path = work.0.join(format!("reload-{index}.impactcache"));
            match reload.save(session, &path) {
                Ok(()) => drop(reload.load(&path)),
                Err(e) => reload_error = Some(format!("{}: {e}", path.display())),
            }
        } else {
            encoded += session.save_snapshot().len() as u64;
        }
    };
    let first = play(&designs, &jobs, &paths, None, true, Some(&mut encode));
    if let Some(e) = reload_error {
        return Err(e);
    }
    tally.jobs(&first, &reference, cold_reports.as_deref());
    let mut snapshot_bytes = if warm {
        tally.flushes(&first, &fixture_paths)
    } else {
        encoded
    };
    let power = power_geomean(&jobs, &first);

    let rss_error = |e: std::io::Error| format!("peak RSS: {e}");
    sys::reset_peak_rss().map_err(rss_error)?;
    let steal_start = sys::steal_s().map_err(|e| format!("reading steal: {e}"))?;
    let wall_start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut untraced_cpu = Vec::new();
    let mut untraced_scaled = Vec::new();
    let mut untraced_wall = Vec::new();
    let mut design_cpu: Vec<Vec<f64>> = vec![Vec::new(); designs.len()];
    let mut speeds = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    let mut rounds = 0;
    let mut peak_rss = 0;
    loop {
        let tracer = (args.trace && rounds % 2 == 1).then(Tracer::new);
        let counting = tracer.is_some();
        let mut entries = 0;
        let mut kernels = Vec::new();
        let mut rss = Ok(());
        // Untimed, after each design: a calibration kernel, kept out of the
        // peak RSS because its table would sit on top of the live session,
        // and on traced rounds the session's entry count.
        let mut between_designs = |_: usize, session: &SweepSession| {
            if counting {
                entries += session.backend().export().len() as u64;
            }
            if rss.is_ok() {
                rss = sys::peak_rss_bytes().map(|bytes| peak_rss = peak_rss.max(bytes));
            }
            kernels.push(calibration::kernel_s());
            if rss.is_ok() {
                rss = sys::reset_peak_rss();
            }
        };
        let round = play(
            &designs,
            &jobs,
            &paths,
            tracer.as_ref(),
            false,
            Some(&mut between_designs),
        );
        rss.map_err(rss_error)?;
        rounds += 1;
        let speed = calibration::scale(mean(&kernels));
        speeds.push(speed);
        // The set-up repetitions run while the round's freed heap is still
        // resident: keep them out of the peak too. Each is calibrated by
        // the kernels on either side of it.
        peak_rss = peak_rss.max(sys::peak_rss_bytes().map_err(rss_error)?);
        let mut before = calibration::kernel_s();
        for _ in 0..setup_reps_per_round(workload) {
            // A repetition frees what it built before its clock stops.
            let start = sys::process_cpu_ns();
            let (_, cost, _) = set_up(workload, args.seed, &jobs, &repeat_dir)?;
            let ns = (sys::process_cpu_ns() - start) as f64;
            let after = calibration::kernel_s();
            setup_ns.push(ns);
            setup_scaled.push(ns * calibration::scale((before + after) / 2.0));
            prepare_costs.push(cost);
            before = after;
        }
        sys::reset_peak_rss().map_err(rss_error)?;
        tally.jobs(&round, &reference, cold_reports.as_deref());
        if warm {
            snapshot_bytes = tally.flushes(&round, &fixture_paths);
            if round.warm_loads != designs.len() as u64 {
                tally.note(format!(
                    "{} of {} snapshots loaded",
                    round.warm_loads,
                    designs.len()
                ));
            }
        }
        match &tracer {
            Some(tracer) => traced.push(Traced {
                summary: tracer.summary(),
                scaled_cpu_ns: round.cpu_ns as f64 * speed,
                job_cpu_ns: round.job_cpu_ns,
                totals: round.totals,
                entries,
                snapshot: round.snapshot,
                teardown_ns: round.teardown_ns,
            }),
            None => {
                untraced_cpu.push(round.cpu_ns as f64);
                untraced_scaled.push(round.cpu_ns as f64 * speed);
                untraced_wall.push(round.wall_ns as f64);
                for (slot, &ns) in design_cpu.iter_mut().zip(&round.design_cpu_ns) {
                    slot.push(ns as f64 * speed);
                }
            }
        }
        if rounds >= min_rounds(args.trace) && wall_start.elapsed() >= budget {
            break;
        }
    }
    let steal = sys::steal_s().map_err(|e| format!("reading steal: {e}"))? - steal_start;
    let wall = wall_start.elapsed().as_secs_f64();
    // The run's typical speed, for the per-layer times.
    let speed = median(speeds.iter().copied());

    let audit_start = sys::process_cpu_ns();
    let violations = flow::audit(&designs, &jobs, &first);
    let audit_ns = (sys::process_cpu_ns() - audit_start) as f64;
    tally.audit(&violations);

    let nproc = sys::nproc();
    let commit = sys::commit(root);
    let fail_rate = ratio(tally.failed as f64, tally.attempted as f64);
    let mut provenance = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"commit\": \"{commit}\", \"nproc\": {nproc}, \
         \"rounds\": {rounds}, \"passes\": {}, \"jobs_per_round\": {}, \"trace\": {}, \
         \"wall_s\": {wall}, \"steal_s\": {steal}, \"fail_rate\": {fail_rate}",
        workload.name(),
        args.seed,
        workload.passes(),
        designs.len() * jobs.len(),
        u8::from(args.trace),
    );
    let list = |values: &mut dyn Iterator<Item = f64>| {
        values
            .map(|s| format!("{s:.5}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let raw_setup_s = median(setup_ns.iter().copied()) / 1e9;
    let raw_cpu_s = median(untraced_cpu.iter().copied()) / 1e9;
    let _ = write!(
        provenance,
        ", \"raw_setup_s\": {raw_setup_s}, \"raw_cpu_s\": {raw_cpu_s}, \
         \"setup_reps_s\": [{}], \"round_cpu_s\": [{}], \"round_speed\": [{}]",
        list(&mut setup_ns.iter().map(|ns| ns / 1e9)),
        list(&mut untraced_cpu.iter().map(|ns| ns / 1e9)),
        list(&mut speeds.iter().copied()),
    );
    for (design, cpu) in designs.iter().zip(&design_cpu) {
        let _ = write!(
            provenance,
            ", \"design.{}.cpu_s\": {}",
            design.name,
            median(cpu.iter().copied()) / 1e9
        );
    }
    provenance.push('}');
    for note in &tally.notes {
        println!("note: {note}");
    }
    println!("provenance {provenance}");

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        per_layer(
            &traced,
            &prepare_costs,
            &untraced_cpu,
            &untraced_scaled,
            &untraced_wall,
            speed,
            audit_ns,
            &violations,
            reload,
            warm,
        )
    } else {
        vec![
            ("setup_s", median(setup_scaled.iter().copied()) / 1e9, "s"),
            ("cpu_s", median(untraced_scaled.iter().copied()) / 1e9, "s"),
            ("peak_rss_mb", peak_rss as f64 / 1e6, "MB"),
            ("power_geomean_mw", power, "mW"),
            ("snapshot_mb", snapshot_bytes as f64 / 1e6, "MB"),
        ]
    };
    if args.trace {
        write_spans(root, workload, args.seed, traced.last().map(|t| &t.summary))?;
    }
    for (name, value, unit) in &metrics {
        println!("{name:<24} {value:>14.6} {unit}");
    }
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (index, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if index == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    drop(work);
    Ok(())
}

/// The per-layer metrics of a traced run: counts from the first traced
/// round (they repeat exactly on one ranking thread), times as medians over
/// the traced rounds.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    traced: &[Traced],
    prepare_costs: &[flow::PrepareCost],
    untraced_cpu: &[f64],
    untraced_scaled: &[f64],
    untraced_wall: &[f64],
    speed: f64,
    audit_ns: f64,
    violations: &[usize],
    reload: SnapshotPhases,
    warm: bool,
) -> Vec<(&'static str, f64, &'static str)> {
    let Some(first) = traced.first() else {
        return Vec::new();
    };
    // CPU times at the reference speed, like `cpu_s`.
    let cpu_ms = |ns: f64| ms(ns) * speed;
    let time = |f: &dyn Fn(&Traced) -> f64| cpu_ms(median(traced.iter().map(f)));
    let self_ms = |layer: Layer| time(&|t| t.summary.layer_self_ns(layer) as f64);
    let counts = |layer: Layer| first.summary.layer(layer);
    let hit_rate = |layers: &[Layer]| {
        let (hits, lookups) = layers.iter().fold((0, 0), |(h, l), &layer| {
            let c = counts(layer);
            (h + c.hits, l + c.hits + c.misses)
        });
        ratio(hits as f64, lookups as f64)
    };
    let explore_self = |t: &Traced| {
        t.job_cpu_ns
            .iter()
            .enumerate()
            .map(|(job, &cpu)| {
                let covered = t.summary.top_ns.get(&(job as u32)).copied().unwrap_or(0);
                cpu.saturating_sub(covered) as f64
            })
            .sum::<f64>()
    };
    let snapshot = |f: &dyn Fn(&SnapshotPhases) -> u64| {
        if warm {
            time(&|t| f(&t.snapshot) as f64)
        } else {
            cpu_ms(f(&reload) as f64)
        }
    };
    let fu = counts(Layer::Fu);
    let reg = counts(Layer::Reg);
    let mux = counts(Layer::Mux);
    let schedule = counts(Layer::Schedule);
    let vdd = counts(Layer::Vdd);
    let unpaired: u64 = Layer::ALL
        .iter()
        .map(|&layer| {
            let c = counts(layer);
            let orphans = if layer == Layer::Schedule {
                0
            } else {
                c.orphans
            };
            orphans + c.unpaired_stores
        })
        .sum::<u64>()
        + first.summary.left_open;
    let cache_lookups = first.totals.hits + first.totals.misses;
    let cpu_per_wall = median(
        untraced_cpu
            .iter()
            .zip(untraced_wall)
            .map(|(cpu, wall)| ratio(*cpu, *wall)),
    );
    let traced_cpu = median(traced.iter().map(|t| t.scaled_cpu_ns));
    vec![
        (
            "hdl.compile_ms",
            cpu_ms(median(prepare_costs.iter().map(|c| c.compile_ns as f64))),
            "ms",
        ),
        ("hdl.nodes", first_cost(prepare_costs).nodes as f64, "count"),
        (
            "behsim.simulate_ms",
            cpu_ms(median(prepare_costs.iter().map(|c| c.simulate_ns as f64))),
            "ms",
        ),
        (
            "behsim.events",
            first_cost(prepare_costs).events as f64,
            "count",
        ),
        ("trace.mux.self_ms", self_ms(Layer::Mux), "ms"),
        ("trace.mux.misses", mux.spans as f64, "count"),
        ("trace.reg.self_ms", self_ms(Layer::Reg), "ms"),
        ("trace.reg.misses", reg.spans as f64, "count"),
        ("trace.fu.self_ms", self_ms(Layer::Fu), "ms"),
        ("trace.fu.misses", fu.spans as f64, "count"),
        (
            "trace.hit_rate",
            hit_rate(&[Layer::Fu, Layer::Reg, Layer::Mux]),
            "ratio",
        ),
        ("context.self_ms", self_ms(Layer::Context), "ms"),
        (
            "context.misses",
            counts(Layer::Context).spans as f64,
            "count",
        ),
        ("context.hit_rate", hit_rate(&[Layer::Context]), "ratio"),
        ("sched.schedule.self_ms", self_ms(Layer::Schedule), "ms"),
        ("sched.schedule.misses", schedule.spans as f64, "count"),
        ("sched.block.self_ms", self_ms(Layer::Block), "ms"),
        (
            "sched.block.misses",
            counts(Layer::Block).spans as f64,
            "count",
        ),
        ("sched.repair_fallbacks", schedule.orphans as f64, "count"),
        (
            "point.self_ms",
            time(&|t| {
                (t.summary.layer_self_ns(Layer::Point) + t.summary.layer_self_ns(Layer::Vdd)) as f64
            }),
            "ms",
        ),
        ("point.misses", counts(Layer::Point).spans as f64, "count"),
        ("point.hit_rate", hit_rate(&[Layer::Point]), "ratio"),
        ("vdd.searches", vdd.spans as f64, "count"),
        (
            "vdd.levels_per_search",
            ratio(first.summary.vdd_levels as f64, vdd.spans as f64),
            "ratio",
        ),
        ("explore.self_ms", time(&explore_self), "ms"),
        (
            "explore.probes",
            first.totals.explore.probes as f64,
            "count",
        ),
        (
            "explore.rank_probes",
            first.totals.explore.rank_probes as f64,
            "count",
        ),
        (
            "explore.commits",
            first.totals.explore.commits as f64,
            "count",
        ),
        (
            "explore.commit_ratio",
            ratio(
                first.totals.explore.commits as f64,
                first.totals.explore.probes as f64,
            ),
            "ratio",
        ),
        ("cache.calls", first.summary.calls as f64, "count"),
        (
            "cache.call_ms",
            ms(median(traced.iter().map(|t| t.summary.call_ns as f64))),
            "ms",
        ),
        (
            "cache.hit_rate",
            ratio(first.totals.hits as f64, cache_lookups as f64),
            "ratio",
        ),
        ("cache.evictions", first.totals.evictions as f64, "count"),
        ("cache.entries", first.entries as f64, "count"),
        ("cache.teardown_ms", time(&|t| t.teardown_ns as f64), "ms"),
        ("rank.threads", first.summary.rank_threads as f64, "count"),
        ("rank.cpu_per_wall", cpu_per_wall, "ratio"),
        ("snapshot.decode_ms", snapshot(&|p| p.decode_ns), "ms"),
        ("snapshot.encode_ms", snapshot(&|p| p.encode_ns), "ms"),
        ("snapshot.absorb_ms", snapshot(&|p| p.absorb_ns), "ms"),
        ("snapshot.io_ms", snapshot(&|p| p.io_ns), "ms"),
        (
            "snapshot.entries",
            if warm {
                first.snapshot.entries
            } else {
                reload.entries
            } as f64,
            "count",
        ),
        ("verify.audit_ms", cpu_ms(audit_ns), "ms"),
        (
            "verify.violations",
            violations.iter().sum::<usize>() as f64,
            "count",
        ),
        (
            "tracing.overhead",
            ratio(traced_cpu, median(untraced_scaled.iter().copied())) - 1.0,
            "ratio",
        ),
        ("tracing.unpaired", unpaired as f64, "count"),
    ]
}

fn first_cost(costs: &[flow::PrepareCost]) -> flow::PrepareCost {
    costs.first().copied().unwrap_or_default()
}

/// Writes the last traced round's spans to
/// `.fig13bench/spans/<workload>-seed<seed>.tsv` under `root`.
fn write_spans(
    root: &Path,
    workload: Workload,
    seed: u64,
    summary: Option<&TraceSummary>,
) -> Result<(), String> {
    let Some(summary) = summary else {
        return Ok(());
    };
    let dir = root.join(".fig13bench").join("spans");
    let path = dir.join(format!("{}-seed{seed}.tsv", workload.name()));
    let mut text = String::from("thread\tid\tparent\tjob\tlayer\torphan\tstart_ns\tend_ns\n");
    for span in &summary.spans {
        let parent = span
            .parent
            .map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{}\t{}\t{parent}\t{}\t{}\t{}\t{}\t{}",
            span.thread,
            span.id,
            span.job,
            span.layer.name(),
            u8::from(span.orphan),
            span.start_ns,
            span.end_ns
        );
    }
    fs::create_dir_all(&dir)
        .and_then(|()| fs::write(&path, text))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans {} ({} spans)", path.display(), summary.spans.len());
    Ok(())
}
