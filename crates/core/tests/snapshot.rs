#![allow(clippy::unwrap_used)]

//! Persistence tests: snapshot round trips are lossless and deterministic,
//! warm-started sessions replay bit-identically with a full point-layer hit
//! rate, and stale, truncated or corrupt snapshots degrade to a cold start —
//! never a wrong hit — while leaving the session usable.

use std::sync::Arc;

use impact_behsim::simulate;
use impact_core::{
    write_snapshot_bytes, CacheBackend, DiskCache, Evaluator, Impact, SnapshotRejection,
    SnapshotScope, SweepSession, SynthesisConfig, SynthesisOutcome, SNAPSHOT_MAGIC,
};

fn gcd_job() -> (
    impact_cdfg::Cdfg,
    impact_behsim::ExecutionTrace,
    SynthesisConfig,
) {
    let bench = impact_benchmarks::gcd();
    let cdfg = bench.compile().unwrap();
    let trace = simulate(&cdfg, &bench.input_sequences(10, 7)).unwrap();
    let config = SynthesisConfig::power_optimized(1.6).with_effort(2, 3);
    (cdfg, trace, config)
}

fn run(
    cdfg: &impact_cdfg::Cdfg,
    trace: &impact_behsim::ExecutionTrace,
    config: &SynthesisConfig,
    session: &SweepSession,
) -> SynthesisOutcome {
    Impact::new(config.clone())
        .synthesize_with_session(cdfg, trace, session)
        .unwrap()
}

/// A populated session plus the cold outcome and its snapshot bytes.
fn populated() -> (SynthesisOutcome, Vec<u8>) {
    let (cdfg, trace, config) = gcd_job();
    let session = SweepSession::new();
    let cold = run(&cdfg, &trace, &config, &session);
    let bytes = session.save_snapshot();
    (cold, bytes)
}

#[test]
fn snapshots_are_deterministic_and_round_trip_losslessly() {
    let (cdfg, trace, config) = gcd_job();
    let session = SweepSession::new();
    let cold = run(&cdfg, &trace, &config, &session);
    let bytes = session.save_snapshot();
    assert_eq!(bytes, session.save_snapshot(), "same contents, same bytes");
    assert_eq!(session.stats().snapshot.saves, 2);

    // Export → save → load → absorb into a fresh session: the re-encoded
    // bytes are identical, so the round trip lost nothing.
    let warm = SweepSession::new();
    let merged = warm.load_snapshot(&bytes, SnapshotScope::Any).unwrap();
    assert!(merged.absorbed > 0, "the cold run populated every layer");
    assert_eq!(merged.duplicates, 0, "the fresh session had no entries");
    assert_eq!(merged.dropped, 0, "nothing was evicted at default capacity");
    assert_eq!(warm.save_snapshot(), bytes, "decode∘encode is the identity");
    assert_eq!(warm.stats().snapshot.loads, 1);

    // The warm replay reproduces the cold run bit for bit and never
    // recomputes a design point.
    let replay = run(&cdfg, &trace, &config, &warm);
    assert_eq!(replay.report, cold.report);
    assert_eq!(replay.design, cold.design);
    assert_eq!(replay.schedule, cold.schedule);
    let stats = warm.stats();
    assert!(stats.point.hits > 0);
    assert_eq!(
        stats.point.misses, 0,
        "a warm replay answers every point lookup from the snapshot"
    );
}

#[test]
fn workload_scoped_loads_accept_their_workload_and_reject_others() {
    let (cdfg, trace, config) = gcd_job();
    let session = SweepSession::new();
    let _ = run(&cdfg, &trace, &config, &session);
    let bytes = session.save_snapshot();
    let workload = Evaluator::with_session(&cdfg, &trace, config, &session)
        .unwrap()
        .workload();

    let scoped = SweepSession::new();
    assert!(scoped
        .load_snapshot(&bytes, SnapshotScope::Workload(workload))
        .is_ok());

    // A snapshot of a different workload (same benchmark, different trace)
    // fails the scope check and leaves the session cold.
    let other_trace = simulate(&cdfg, &impact_benchmarks::gcd().input_sequences(6, 3)).unwrap();
    let other_workload = Evaluator::with_session(
        &cdfg,
        &other_trace,
        SynthesisConfig::power_optimized(1.6).with_effort(2, 3),
        &scoped,
    )
    .unwrap()
    .workload();
    assert_ne!(workload, other_workload);
    let strict = SweepSession::new();
    assert_eq!(
        strict.load_snapshot(&bytes, SnapshotScope::Workload(other_workload)),
        Err(SnapshotRejection::Digest)
    );
    assert_eq!(strict.stats().snapshot.rejected_digest, 1);
    assert_eq!(strict.save_snapshot(), SweepSession::new().save_snapshot());
}

#[test]
fn every_sampled_bit_flip_is_rejected() {
    let (_, bytes) = populated();
    let session = SweepSession::new();
    // Exhaustively flipping every bit of a multi-megabyte snapshot is too
    // slow for CI; cover the structure instead: every byte of the header and
    // trailer plus a stride through the payload.
    let mut positions: Vec<usize> = (0..64.min(bytes.len())).collect();
    positions.extend((bytes.len().saturating_sub(48)..bytes.len()).collect::<Vec<_>>());
    positions.extend((0..bytes.len()).step_by(4097));
    for pos in positions {
        for bit in [0, 3, 7] {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1 << bit;
            assert!(
                session.load_snapshot(&corrupt, SnapshotScope::Any).is_err(),
                "a flip of byte {pos} bit {bit} must be rejected"
            );
        }
    }
    assert_eq!(session.stats().snapshot.loads, 0);
    // The session survived every rejection unchanged and still loads the
    // pristine bytes.
    assert!(session.load_snapshot(&bytes, SnapshotScope::Any).is_ok());
}

#[test]
fn truncations_are_rejected_with_the_truncation_reason() {
    let (_, bytes) = populated();
    let session = SweepSession::new();
    let cuts = [0, 1, 8, 20, 35, 36, 100, bytes.len() / 2, bytes.len() - 1];
    for &cut in &cuts {
        assert_eq!(
            session.load_snapshot(&bytes[..cut], SnapshotScope::Any),
            Err(SnapshotRejection::Truncated),
            "a snapshot cut to {cut} bytes must classify as truncated"
        );
    }
    assert_eq!(
        session.stats().snapshot.rejected_truncated,
        cuts.len() as u64
    );
}

#[test]
fn foreign_versions_and_magics_are_rejected_as_version_mismatches() {
    let (_, bytes) = populated();
    let session = SweepSession::new();

    // A writer with a bumped container version.
    let mut future = bytes.clone();
    future[SNAPSHOT_MAGIC.len()] = future[SNAPSHOT_MAGIC.len()].wrapping_add(1);
    assert_eq!(
        session.load_snapshot(&future, SnapshotScope::Any),
        Err(SnapshotRejection::Version)
    );

    // Writers of format v3, whose design points carried their designs, of
    // v4, whose schedules carried their block outcomes, of v5, whose STGs
    // carried their design's name and supply-search keys a scaling flag,
    // and of v6, whose schedules carried their whole STG.
    for old in [3u32, 4, 5, 6] {
        let mut stale = bytes.clone();
        stale[SNAPSHOT_MAGIC.len()..SNAPSHOT_MAGIC.len() + 4].copy_from_slice(&old.to_le_bytes());
        assert_eq!(
            session.load_snapshot(&stale, SnapshotScope::Any),
            Err(SnapshotRejection::Version)
        );
    }

    // A different file format altogether.
    let mut alien = bytes.clone();
    alien[..SNAPSHOT_MAGIC.len()].copy_from_slice(b"NOTCACHE");
    assert_eq!(
        session.load_snapshot(&alien, SnapshotScope::Any),
        Err(SnapshotRejection::Version)
    );

    // Trailing junk after the declared length.
    let mut padded = bytes.clone();
    padded.push(0);
    assert_eq!(
        session.load_snapshot(&padded, SnapshotScope::Any),
        Err(SnapshotRejection::Version)
    );

    assert_eq!(session.stats().snapshot.rejected_version, 7);
}

#[test]
fn disk_cache_persists_across_opens_and_degrades_corrupt_files_to_cold() {
    let path = std::env::temp_dir().join(format!(
        "impact_disk_cache_test_{}.snapshot",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let (cdfg, trace, config) = gcd_job();

    // A missing file is a normal cold open.
    let disk = Arc::new(DiskCache::open(&path, SnapshotScope::Any).unwrap());
    assert_eq!(disk.stats().snapshot.loads, 0);
    assert_eq!(disk.stats().snapshot.rejected(), 0);
    let session = SweepSession::with_backend(disk.clone());
    let cold = run(&cdfg, &trace, &config, &session);
    disk.flush().unwrap();

    // Reopening hydrates from disk; the replay is bit-identical with a full
    // point-layer hit rate.
    let reopened = Arc::new(DiskCache::open(&path, SnapshotScope::Any).unwrap());
    assert_eq!(reopened.stats().snapshot.loads, 1);
    let warm = SweepSession::with_backend(reopened.clone());
    let replay = run(&cdfg, &trace, &config, &warm);
    assert_eq!(replay.report, cold.report);
    assert_eq!(replay.design, cold.design);
    let stats = warm.stats();
    assert!(stats.point.hits > 0);
    assert_eq!(stats.point.misses, 0);

    // A corrupted file degrades to a counted cold start and the session
    // stays fully usable.
    let mut corrupt = std::fs::read(&path).unwrap();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x10;
    std::fs::write(&path, &corrupt).unwrap();
    let recovered = Arc::new(DiskCache::open(&path, SnapshotScope::Any).unwrap());
    let stats = recovered.stats();
    assert_eq!(stats.snapshot.loads, 0);
    assert_eq!(stats.snapshot.rejected(), 1);
    assert_eq!(stats.points, 0, "nothing from the corrupt file is trusted");
    let fresh = SweepSession::with_backend(recovered.clone());
    let redone = run(&cdfg, &trace, &config, &fresh);
    assert_eq!(
        redone.report, cold.report,
        "cold recomputation still agrees"
    );
    // Flushing replaces the corrupt file wholesale.
    recovered.flush().unwrap();
    let healed = DiskCache::open(&path, SnapshotScope::Any).unwrap();
    assert_eq!(healed.stats().snapshot.loads, 1);

    let _ = std::fs::remove_file(&path);
}

#[test]
fn concurrent_saves_to_one_path_never_expose_a_torn_file() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    // Four threads each write their own payload to one path while a reader
    // polls it: every write must succeed, and every read must see one
    // complete payload (or no file yet).
    let path = std::env::temp_dir().join(format!(
        "impact_concurrent_saves_{}.snapshot",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let payloads: Vec<Vec<u8>> = (0..4u8)
        .map(|writer| {
            (0..1 << 20)
                .map(|i: u32| writer.wrapping_mul(61) ^ (i % 251) as u8)
                .collect()
        })
        .collect();
    let writing = AtomicUsize::new(payloads.len());
    let failed_writes = AtomicUsize::new(0);
    let start = Barrier::new(payloads.len() + 1);
    let (reads, torn) = std::thread::scope(|scope| {
        for payload in &payloads {
            let (path, start) = (&path, &start);
            let (writing, failed_writes) = (&writing, &failed_writes);
            scope.spawn(move || {
                start.wait();
                for _ in 0..40 {
                    if write_snapshot_bytes(path, payload).is_err() {
                        failed_writes.fetch_add(1, Ordering::Relaxed);
                    }
                }
                writing.fetch_sub(1, Ordering::Release);
            });
        }
        start.wait();
        let (mut reads, mut torn) = (0, 0);
        while writing.load(Ordering::Acquire) > 0 {
            if let Ok(bytes) = std::fs::read(&path) {
                reads += 1;
                torn += usize::from(!payloads.contains(&bytes));
            }
        }
        (reads, torn)
    });
    assert_eq!(failed_writes.into_inner(), 0, "every save succeeds");
    assert_eq!(torn, 0, "{torn} of {reads} reads saw a torn snapshot");
    assert!(payloads.contains(&std::fs::read(&path).unwrap()));
    let _ = std::fs::remove_file(&path);
}
