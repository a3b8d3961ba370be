//! Warm-start gate of the persistence path: for every example design, runs
//! the Figure 13 laxity sweep over a fresh
//! [`SweepSession`](impact_core::SweepSession), snapshots the session,
//! reloads the snapshot into a fresh session and reruns the sweep warm. The
//! warm rerun must reproduce the cold reports bit-for-bit and answer every
//! design-point lookup from the snapshot. It measures nothing: fig13bench's
//! `warm_resume` workload times this path with calibration and oracle gates.
//!
//! Usage: `sweep_bench [--smoke] [--paper] [--snapshot-dir DIR]
//! [--expect-resume]`
//!
//! `--smoke` runs a reduced input set (fewer passes, smaller search effort,
//! the coarse 5-point laxity grid) so CI runs it in seconds. `--paper`
//! sweeps the full 11-point grid of the figure. Both sweeps use one batch
//! worker per CPU. With `--snapshot-dir` the snapshots round-trip through
//! `DIR/<design>.impactcache` instead of staying in memory (where
//! `impact-verify --snapshot-dir` audits them), and a second run against the
//! same directory verifies cross-process byte identity; `--expect-resume`
//! turns that verification into a hard gate. The process exits non-zero if
//! a warm rerun diverges from its cold run or misses the point layer.

use impact_bench::{
    example_designs, fail_if, format_layer_stats, paper_laxities, quick_laxities,
    warm_start_comparison, BenchCli, WarmStartComparison, DEFAULT_EFFORT, DEFAULT_PASSES,
};

fn main() {
    let cli = BenchCli::parse();
    let snapshot_dir = cli.value("--snapshot-dir").map(std::path::PathBuf::from);
    let expect_resume = cli.flag("--expect-resume");

    let (passes, effort) = if cli.smoke() {
        (10, (2, 3))
    } else {
        (DEFAULT_PASSES, DEFAULT_EFFORT)
    };
    let laxities = if cli.paper() {
        paper_laxities()
    } else {
        quick_laxities()
    };

    println!(
        "sweep bench ({}): {} laxity points, {passes} passes, effort {effort:?}, \
         {} jobs per sweep",
        cli.mode(),
        laxities.len(),
        1 + 2 * laxities.len(),
    );
    println!(
        "warm start (sweep → snapshot → reload → rerun{})",
        snapshot_dir
            .as_deref()
            .map(|d| format!(", snapshots in {}", d.display()))
            .unwrap_or_default()
    );
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>12} {:>8}",
        "design", "bytes", "absorbed", "identical", "point hit %", "resumed"
    );
    let mut warm_results = Vec::new();
    for bench in example_designs() {
        let path = snapshot_dir
            .as_ref()
            .map(|dir| dir.join(format!("{}.impactcache", bench.name)));
        let result = warm_start_comparison(&bench, &laxities, passes, effort, path.as_deref());
        println!(
            "{:>10} {:>10} {:>10} {:>10} {:>12.1} {:>8}",
            result.benchmark,
            result.snapshot_bytes,
            result.absorbed,
            result.identical,
            100.0 * result.point_hit_rate(),
            result.resumed,
        );
        println!(
            "{:>10} warm layers: {}",
            "",
            format_layer_stats(&result.warm_cache)
        );
        warm_results.push(result);
    }

    fail_if(
        warm_results.iter().any(|r| !r.identical),
        "warm-started sweep diverged from its cold run",
    );
    fail_if(
        !warm_results.iter().all(WarmStartComparison::fully_warm),
        "warm rerun missed the point layer (expected a 100% hit rate)",
    );
    if expect_resume {
        fail_if(
            warm_results.iter().any(|r| !r.resumed),
            "expected byte-identical snapshots from the previous run (--expect-resume)",
        );
    }
}
