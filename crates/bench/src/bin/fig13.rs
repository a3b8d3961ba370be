//! Regenerates Figure 13 of the paper: normalized power and area versus the
//! laxity factor for every benchmark.
//!
//! Usage:
//!
//! ```text
//! fig13 [--paper] [--benchmark NAME] [--passes N]
//! ```
//!
//! `--paper` sweeps the full 1.0–3.0 laxity grid in 0.2 steps (slower); the
//! default uses a coarser 5-point grid. `--benchmark` picks one of the six
//! designs by name and exits non-zero on a missing name or one that matches
//! none. Output is one table per benchmark with the `A-Power`, `I-Power` and
//! `I-Area` series of the corresponding sub-figure.

use impact_bench::{
    benchmark_named, fail, figure13_series, paper_laxities, quick_laxities, BenchCli,
    DEFAULT_PASSES,
};

fn main() {
    let cli = BenchCli::parse();
    let passes = cli
        .parsed("--passes")
        .unwrap_or_else(|message| fail(&message))
        .unwrap_or(DEFAULT_PASSES);
    let benches = match cli.parsed::<String>("--benchmark") {
        Ok(Some(name)) => vec![benchmark_named(&name)],
        Ok(None) => impact_benchmarks::all_benchmarks(),
        Err(message) => fail(&message),
    };

    let laxities = if cli.paper() {
        paper_laxities()
    } else {
        quick_laxities()
    };

    println!("Figure 13 reproduction: normalized power and area vs. laxity factor");
    println!(
        "({} laxity points, {} input passes per benchmark; normalization base = area-optimized design at laxity 1.0, 5 V)",
        laxities.len(),
        passes
    );

    for bench in benches {
        let series = figure13_series(&bench, &laxities, passes);
        println!();
        println!(
            "== {} ({}) — base power {:.4} mW",
            series.benchmark,
            bench.description,
            series
                .points
                .first()
                .map(|p| p.base_power_mw)
                .unwrap_or(0.0)
        );
        println!(
            "{:>8} {:>10} {:>10} {:>10} {:>8}",
            "laxity", "A-Power", "I-Power", "I-Area", "I-Vdd"
        );
        for p in &series.points {
            println!(
                "{:>8.1} {:>10.3} {:>10.3} {:>10.3} {:>8.2}",
                p.laxity, p.a_power, p.i_power, p.i_area, p.i_vdd
            );
        }
        println!(
            "   max reduction vs base: {:.2}x, vs A-Power: {:.2}x, max area overhead: {:.0}%",
            series.max_reduction_vs_base(),
            series.max_reduction_vs_a_power(),
            100.0 * series.max_area_overhead()
        );
    }
}
