//! Warm-start benchmark of the persistence path: for every example design,
//! runs the Figure 13 laxity sweep over a fresh
//! [`SweepSession`](impact_core::SweepSession), snapshots the session,
//! reloads the snapshot into a fresh session and reruns the sweep warm. The
//! warm rerun must reproduce the cold reports bit-for-bit and answer every
//! design-point lookup from the snapshot; the measurements go to
//! `BENCH_sweep.json`.
//!
//! Usage: `sweep_bench [--smoke] [--paper] [--out PATH] [--snapshot-dir DIR]
//! [--expect-resume]`
//!
//! `--smoke` runs a reduced input set (fewer passes, smaller search effort,
//! the coarse 5-point laxity grid) so CI can track the trajectory in seconds.
//! `--paper` sweeps the full 11-point grid of the figure. Both sweeps use one
//! batch worker per CPU. With `--snapshot-dir` the snapshots round-trip
//! through `DIR/<design>.impactcache` instead of staying in memory, and a
//! second run against the same directory verifies cross-process byte
//! identity; `--expect-resume` turns that verification into a hard gate. The
//! process exits non-zero if a warm rerun diverges from its cold run or
//! misses the point layer.

use impact_bench::{
    example_designs, fail_if, format_layer_stats, min_metric, paper_laxities, quick_laxities,
    report_json, warm_start_comparison, write_report, BenchCli, WarmStartComparison,
    DEFAULT_EFFORT, DEFAULT_PASSES,
};

fn warm_object(r: &WarmStartComparison) -> String {
    let c = &r.warm_cache;
    format!(
        "{{\"name\": \"{}\", \"cold_ms\": {:.3}, \"warm_ms\": {:.3}, \"speedup\": {:.3}, \
         \"save_ms\": {:.3}, \"load_ms\": {:.3}, \"snapshot_bytes\": {}, \"absorbed\": {}, \
         \"identical\": {}, \"resumed\": {}, \"layer_hit_rates\": {{\"stats\": {:.4}, \
         \"context\": {:.4}, \"block\": {:.4}, \"schedule\": {:.4}, \"point\": {:.4}, \
         \"scaled\": {:.4}}}}}",
        r.benchmark,
        r.cold_ms,
        r.warm_ms,
        r.speedup(),
        r.save_ms,
        r.load_ms,
        r.snapshot_bytes,
        r.absorbed,
        r.identical,
        r.resumed,
        c.trace_stats.hit_rate(),
        c.context.hit_rate(),
        c.block.hit_rate(),
        c.schedule.hit_rate(),
        c.point.hit_rate(),
        c.scaled.hit_rate(),
    )
}

fn main() {
    let cli = BenchCli::parse();
    let out_path = cli.out_path("BENCH_sweep.json");
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
    let mode = cli.mode();

    println!(
        "sweep bench ({mode}): {} laxity points, {passes} passes, effort {effort:?}, \
         {} jobs per sweep",
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
        "{:>10} {:>12} {:>12} {:>9} {:>10} {:>10} {:>10} {:>10} {:>12} {:>8}",
        "design",
        "cold (ms)",
        "warm (ms)",
        "speedup",
        "save (ms)",
        "load (ms)",
        "bytes",
        "identical",
        "point hit %",
        "resumed"
    );
    let mut warm_results = Vec::new();
    for bench in example_designs() {
        let path = snapshot_dir
            .as_ref()
            .map(|dir| dir.join(format!("{}.impactcache", bench.name)));
        let result = warm_start_comparison(&bench, &laxities, passes, effort, path.as_deref());
        println!(
            "{:>10} {:>12.1} {:>12.1} {:>9.2} {:>10.2} {:>10.2} {:>10} {:>10} {:>12.1} {:>8}",
            result.benchmark,
            result.cold_ms,
            result.warm_ms,
            result.speedup(),
            result.save_ms,
            result.load_ms,
            result.snapshot_bytes,
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

    let warm_objects: Vec<String> = warm_results.iter().map(warm_object).collect();
    let headline = format!(
        "{{\"min_warm_speedup\": {:.3}, \"all_warm_identical\": {}, \"all_fully_warm\": {}, \
         \"all_resumed\": {}}}",
        min_metric(&warm_results, WarmStartComparison::speedup),
        warm_results.iter().all(|r| r.identical),
        warm_results.iter().all(WarmStartComparison::fully_warm),
        warm_results.iter().all(|r| r.resumed),
    );
    let json = report_json(
        &[
            ("mode", format!("\"{mode}\"")),
            ("laxity_points", laxities.len().to_string()),
        ],
        &[("warm", &warm_objects)],
        &headline,
    );
    write_report(&out_path, &json);

    println!(
        "headline: a warm rerun from a snapshot (save and load excluded) is at least {:.2}x \
         faster than cold, across {} designs",
        min_metric(&warm_results, WarmStartComparison::speedup),
        warm_results.len()
    );

    fail_if(
        warm_results.iter().any(|r| !r.identical),
        "warm-started sweep diverged from its cold run",
    );
    fail_if(
        warm_results.iter().any(|r| !r.fully_warm()),
        "warm rerun missed the point layer (expected a 100% hit rate)",
    );
    if expect_resume {
        fail_if(
            warm_results.iter().any(|r| !r.resumed),
            "expected byte-identical snapshots from the previous run (--expect-resume)",
        );
    }
}
