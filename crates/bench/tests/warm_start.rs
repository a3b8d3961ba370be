//! Acceptance tests of the persistence path on every example design:
//! sweep → snapshot → reload into a fresh session → rerun must reproduce
//! bit-identical reports with a 100 % point-layer hit rate, both in memory
//! and through the filesystem, where a second, independently built session
//! must also save byte-identical snapshot bytes. The sweeps' snapshot sizes
//! are pinned, so a change to what the cache stores shows in bytes.

use std::path::Path;

use impact_bench::{batches_identical, example_designs, figure13_jobs, prepare, run_batch};
use impact_benchmarks::Benchmark;
use impact_core::{CacheStats, SnapshotScope, SweepSession};

/// One design's warm start: the cold sweep's snapshot, the entries the warm
/// session absorbed from it, whether the warm rerun reproduced the cold
/// reports bit-for-bit, and the warm session's counters after the rerun.
struct WarmStart {
    bytes: Vec<u8>,
    absorbed: u64,
    identical: bool,
    warm: CacheStats,
}

impl WarmStart {
    /// Whether the warm rerun answered every design-point lookup from the
    /// snapshot.
    fn fully_warm(&self) -> bool {
        self.warm.point.hits > 0 && self.warm.point.misses == 0
    }
}

/// Laxities, passes and effort of every example design's sweep.
const LAXITIES: [f64; 2] = [1.2, 2.4];
const PASSES: usize = 6;
const EFFORT: (usize, usize) = (1, 2);

/// Sweeps `bench` over a fresh session, saves its snapshot — to `path` when
/// given, in memory otherwise — loads it into a second fresh session and
/// reruns the sweep there.
fn warm_start(bench: &Benchmark, path: Option<&Path>) -> WarmStart {
    let (cdfg, trace) = prepare(bench, PASSES, impact_bench::DEFAULT_SEED);
    let jobs = figure13_jobs(&cdfg, &trace, &LAXITIES, EFFORT);

    let cold_session = SweepSession::new();
    let cold = run_batch(&jobs, Some(&cold_session), 0);
    let bytes = cold_session.save_snapshot();

    let warm_session = SweepSession::new();
    let absorbed = match path {
        Some(path) => {
            impact_core::write_snapshot_bytes(path, &bytes).expect("the snapshot path is writable");
            warm_session
                .load_from_file(path, SnapshotScope::Any)
                .expect("a snapshot this run just wrote verifies and loads")
        }
        None => warm_session
            .load_snapshot(&bytes, SnapshotScope::Any)
            .expect("a snapshot this run just saved verifies and loads"),
    }
    .absorbed;
    let warm = run_batch(&jobs, Some(&warm_session), 0);

    WarmStart {
        bytes,
        absorbed,
        identical: batches_identical(&cold, &warm),
        warm: warm_session.stats(),
    }
}

#[test]
fn warm_start_replays_every_example_design_bit_identically() {
    for bench in example_designs() {
        let run = warm_start(&bench, None);
        assert!(
            run.identical,
            "{}: the warm rerun must reproduce the cold reports bit-for-bit",
            bench.name
        );
        assert!(
            run.fully_warm(),
            "{}: expected a 100% point-layer hit rate, got {:.3} ({} misses)",
            bench.name,
            run.warm.point.hit_rate(),
            run.warm.point.misses
        );
        assert!(run.absorbed > 0, "{}: nothing absorbed", bench.name);
        assert!(!run.bytes.is_empty());
        assert_eq!(run.warm.snapshot.loads, 1);
        assert_eq!(run.warm.snapshot.rejected(), 0);
    }
}

#[test]
fn example_sweep_snapshots_keep_their_pinned_sizes() {
    // What a sweep's cache stores, in bytes: schedules as fixed-size
    // summaries (format 7), points without designs. A change that stores
    // more per entry, or more entries, moves these counts.
    let pinned = [
        ("gcd", 114_649),
        ("x25_send", 559_673),
        ("dealer", 590_110),
        ("paulin", 259_130),
    ];
    let sizes: Vec<(&str, usize)> = example_designs()
        .iter()
        .map(|bench| {
            let (cdfg, trace) = prepare(bench, PASSES, impact_bench::DEFAULT_SEED);
            let jobs = figure13_jobs(&cdfg, &trace, &LAXITIES, EFFORT);
            let session = SweepSession::new();
            run_batch(&jobs, Some(&session), 0);
            (bench.name, session.save_snapshot().len())
        })
        .collect();
    assert_eq!(sizes, pinned);
}

#[test]
fn warm_start_through_the_filesystem_resumes_on_the_second_run() {
    let dir = std::env::temp_dir().join(format!("impact_warm_start_{}", std::process::id()));
    let path = dir.join("gcd.impactcache");
    let _ = std::fs::remove_file(&path);
    let bench = impact_benchmarks::gcd();

    let first = warm_start(&bench, Some(&path));
    assert!(first.identical && first.fully_warm());
    let written = std::fs::read(&path).expect("the run left a snapshot behind");
    assert!(
        written == first.bytes,
        "the file holds exactly the saved bytes"
    );

    // A second, independent run against the same directory must save a
    // byte-identical snapshot: snapshot bytes are a pure function of the
    // cache contents, not of a session's hash keys or insertion order.
    let second = warm_start(&bench, Some(&path));
    assert!(second.identical && second.fully_warm());
    assert!(
        second.bytes == written,
        "the second run must save the first run's snapshot byte for byte"
    );

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}
