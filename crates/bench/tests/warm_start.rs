//! Acceptance tests of the persistence path on every example design:
//! sweep → snapshot → reload into a fresh session → rerun must reproduce
//! bit-identical reports with a 100 % point-layer hit rate, both in memory
//! and through the filesystem (where a second run must also verify
//! cross-process byte identity via the `resumed` flag).

use impact_bench::{example_designs, warm_start_comparison};

#[test]
fn warm_start_replays_every_example_design_bit_identically() {
    let laxities = [1.2, 2.4];
    for bench in example_designs() {
        let cmp = warm_start_comparison(&bench, &laxities, 6, (1, 2), None);
        assert!(
            cmp.identical,
            "{}: the warm rerun must reproduce the cold reports bit-for-bit",
            cmp.benchmark
        );
        assert!(
            cmp.fully_warm(),
            "{}: expected a 100% point-layer hit rate, got {:.3} ({} misses)",
            cmp.benchmark,
            cmp.point_hit_rate(),
            cmp.warm_cache.point.misses
        );
        assert!(cmp.absorbed > 0, "{}: nothing absorbed", cmp.benchmark);
        assert!(cmp.snapshot_bytes > 0);
        assert_eq!(cmp.warm_cache.snapshot.loads, 1);
        assert_eq!(cmp.warm_cache.snapshot.rejected(), 0);
        assert!(!cmp.resumed, "no snapshot file was involved");
    }
}

#[test]
fn warm_start_through_the_filesystem_resumes_on_the_second_run() {
    let dir = std::env::temp_dir().join(format!("impact_warm_start_{}", std::process::id()));
    let path = dir.join("gcd.impactcache");
    let _ = std::fs::remove_file(&path);
    let bench = impact_benchmarks::gcd();
    let laxities = [1.2, 2.4];

    let first = warm_start_comparison(&bench, &laxities, 6, (1, 2), Some(&path));
    assert!(first.identical && first.fully_warm());
    assert!(
        !first.resumed,
        "no snapshot file existed before the first run"
    );
    assert!(path.is_file(), "the run left a snapshot behind");

    // A second, independent run against the same directory must produce a
    // byte-identical snapshot (cross-process determinism) and report it.
    let second = warm_start_comparison(&bench, &laxities, 6, (1, 2), Some(&path));
    assert!(second.identical && second.fully_warm());
    assert!(
        second.resumed,
        "the second run must find a byte-identical snapshot from the first"
    );
    assert_eq!(first.snapshot_bytes, second.snapshot_bytes);

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}
