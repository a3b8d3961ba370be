//! The benchmark's own gates: the tracing backend changes no result and no
//! counter, its counts repeat exactly on one ranking thread, and the
//! correctness gate counts a corrupted expected entry and a truncated
//! snapshot fixture as failures.

#![allow(clippy::unwrap_used)]

use std::fs;
use std::path::PathBuf;

use fig13bench::flow::{self, Design, Job, Round};
use fig13bench::oracle::{self, Reference, Tally};
use fig13bench::tracing::{Layer, TraceSummary, Tracer};
use impact_core::{CacheStats, SnapshotScope, SweepSession};

fn gcd() -> Design {
    let bench = impact_benchmarks::gcd();
    let cdfg = impact_hdl::compile(bench.source).unwrap();
    let trace = impact_behsim::simulate(&cdfg, &bench.input_sequences(16, 7)).unwrap();
    Design {
        name: bench.name,
        cdfg,
        trace,
    }
}

fn small_jobs() -> Vec<Job> {
    flow::jobs(&[1.0, 2.0], 1)
}

/// A scratch directory of this test's own under cargo's target tmpdir.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs one cold round; the session is saved and reloaded before its
/// counters are taken, so the snapshot methods are exercised too.
fn round_with_stats(
    designs: &[Design],
    jobs: &[Job],
    tracer: Option<&std::sync::Arc<Tracer>>,
) -> (Round, CacheStats) {
    let mut stats = CacheStats::default();
    let mut inspect = |_: usize, session: &SweepSession| {
        let bytes = session.save_snapshot();
        session.load_snapshot(&bytes, SnapshotScope::Any).unwrap();
        stats = session.stats();
    };
    let round = flow::cold_round(designs, jobs, tracer, false, Some(&mut inspect));
    (round, stats)
}

fn encoded(round: &Round) -> Vec<Vec<u8>> {
    round
        .reports
        .iter()
        .map(|r| oracle::encode_report(r.as_ref().unwrap()))
        .collect()
}

#[test]
fn tracing_changes_no_report_and_no_counter() {
    let designs = [gcd()];
    let jobs = small_jobs();
    let (plain, plain_stats) = round_with_stats(&designs, &jobs, None);
    let tracer = Tracer::new();
    let (traced, traced_stats) = round_with_stats(&designs, &jobs, Some(&tracer));
    assert_eq!(encoded(&plain), encoded(&traced));
    assert_eq!(plain_stats, traced_stats);
    // The counters the trait's default bodies would have left at zero.
    assert!(traced_stats.explore.probes > 0);
    assert_eq!(traced_stats.snapshot.saves, 1);
    assert_eq!(traced_stats.snapshot.loads, 1);
}

fn traced_summary(designs: &[Design], jobs: &[Job]) -> (TraceSummary, CacheStats) {
    let tracer = Tracer::new();
    let (_, stats) = round_with_stats(designs, jobs, Some(&tracer));
    (tracer.summary(), stats)
}

#[test]
fn traced_counts_repeat_exactly_and_pair_every_miss() {
    let designs = [gcd()];
    let jobs = small_jobs();
    let (a, stats) = traced_summary(&designs, &jobs);
    let (b, _) = traced_summary(&designs, &jobs);
    assert_eq!(a.deterministic_counts(), b.deterministic_counts());
    assert_eq!(a.spans.len(), b.spans.len());
    assert_eq!(a.rank_threads, 1);
    assert_eq!(a.left_open, 0);
    // Every miss the cache counted opened a span; all but the schedule
    // layer's repair fallbacks were closed by their store.
    let misses = |layer: Layer| a.layer(layer).misses;
    assert_eq!(misses(Layer::Context), stats.context.misses);
    assert_eq!(misses(Layer::Schedule), stats.schedule.misses);
    assert_eq!(misses(Layer::Block), stats.block.misses);
    assert_eq!(misses(Layer::Point), stats.point.misses);
    assert_eq!(misses(Layer::Vdd), stats.scaled.misses);
    assert_eq!(
        misses(Layer::Fu) + misses(Layer::Reg) + misses(Layer::Mux),
        stats.trace_stats.misses
    );
    for layer in Layer::ALL {
        let counts = a.layer(layer);
        assert_eq!(counts.unpaired_stores, 0, "{layer:?}");
        assert_eq!(counts.misses, counts.spans + counts.orphans, "{layer:?}");
        if layer != Layer::Schedule {
            assert_eq!(counts.orphans, 0, "{layer:?}");
        }
    }
    assert!(a.layer(Layer::Mux).spans > 0 && a.layer_self_ns(Layer::Mux) > 0);
}

#[test]
fn a_corrupted_expected_entry_counts_as_one_failure() {
    let designs = [gcd()];
    let jobs = small_jobs();
    let dir = scratch("expected");
    let path = dir.join("gcd.txt");
    let entries = oracle::oracle_entries(&designs, &jobs).unwrap();
    oracle::write_expected(&path, "test", &entries).unwrap();
    let round = flow::cold_round(&designs, &jobs, None, false, None);

    let intact = oracle::read_expected(&path).unwrap();
    let mut tally = Tally::default();
    let reference = oracle::aligned_reference(&intact, &designs, &jobs).unwrap();
    tally.jobs(&round, &Reference::Expected(reference), None);
    assert_eq!((tally.attempted, tally.failed), (jobs.len() as u64, 0));

    let text = fs::read_to_string(&path).unwrap();
    let line = text.lines().nth(2).unwrap();
    let flipped = match line.chars().last().unwrap() {
        '0' => '1',
        _ => '0',
    };
    let corrupted = format!("{}{flipped}", &line[..line.len() - 1]);
    fs::write(&path, text.replacen(line, &corrupted, 1)).unwrap();
    let entries = oracle::read_expected(&path).unwrap();
    let mut tally = Tally::default();
    let reference = oracle::aligned_reference(&entries, &designs, &jobs).unwrap();
    tally.jobs(&round, &Reference::Expected(reference), None);
    assert_eq!((tally.attempted, tally.failed), (jobs.len() as u64, 1));
}

#[test]
fn a_truncated_fixture_counts_as_a_failed_flush() {
    let designs = [gcd()];
    let jobs = small_jobs();
    let dir = scratch("fixtures");
    let (paths, cold) = flow::build_fixtures(&designs, &jobs, &dir).unwrap();
    let cold = encoded(&cold);
    let fixture = |paths: &[PathBuf]| -> Vec<(PathBuf, (u64, u64))> {
        paths
            .iter()
            .map(|p| (p.clone(), flow::file_digest(p).unwrap()))
            .collect()
    };

    let intact = fixture(&paths);
    let round = flow::warm_round(&designs, &jobs, &paths, None, false, None);
    let mut tally = Tally::default();
    tally.jobs(&round, &Reference::FirstRound, Some(&cold));
    tally.flushes(&round, &intact);
    assert_eq!(round.warm_loads, 1);
    assert_eq!(tally.failed, 0, "{:?}", tally.notes);

    let file = fs::OpenOptions::new().write(true).open(&paths[0]).unwrap();
    file.set_len(intact[0].1 .0 / 2).unwrap();
    drop(file);
    let truncated = fixture(&paths);
    let round = flow::warm_round(&designs, &jobs, &paths, None, false, None);
    let mut tally = Tally::default();
    tally.jobs(&round, &Reference::FirstRound, Some(&cold));
    tally.flushes(&round, &truncated);
    assert_eq!(round.warm_loads, 0, "a truncated snapshot starts cold");
    assert_eq!(tally.attempted, jobs.len() as u64 + 1);
    assert_eq!(
        tally.failed, 1,
        "the cold start's flush differs from the file it loaded"
    );
}
