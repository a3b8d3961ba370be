//! Swapping the search strategy under the IMPACT engine.
//!
//! The engine's policy layer is a first-class knob: `ExplorerKind` selects
//! who drives the probe/commit kernel. Greedy is the paper's variable-depth
//! search; beam keeps the k best move sequences per step instead of one;
//! restart reruns the descent from seeded random kicks and keeps the best;
//! the Pareto sweep records every feasible probe and reports the
//! power/area/ENC front alongside the optimum.
//!
//! Run with: `cargo run --release --example search_strategies`

use impact::core::{ExplorerKind, Impact, SynthesisConfig};
use impact::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = impact::benchmarks::gcd();
    let cdfg = bench.compile()?;
    let trace = simulate(&cdfg, &bench.input_sequences(24, 7))?;

    println!("search strategies on `{}` (laxity 2.0)", bench.name);
    println!(
        "{:>9} {:>12} {:>8} {:>8} {:>8}",
        "explorer", "power (mW)", "Vdd", "moves", "front"
    );
    for kind in ExplorerKind::all() {
        let config = SynthesisConfig::power_optimized(2.0).with_effort(3, 5);
        let engine = config.engine.with_explorer(kind);
        let outcome = Impact::new(config.with_engine(engine)).synthesize(&cdfg, &trace)?;
        println!(
            "{:>9} {:>12.4} {:>8.2} {:>8} {:>8}",
            kind.name(),
            outcome.report.power_mw,
            outcome.report.vdd,
            outcome.report.moves_applied,
            outcome.front.len(),
        );
        // Each committed move records which strategy drove it.
        if let Some(record) = outcome.history.first() {
            println!(
                "{:>9} first move: {} ({})",
                "", record.applied, record.strategy
            );
        }
    }

    // The Pareto sweep's front: every member is a design with its point,
    // feasible and non-dominated on (power, area, ENC).
    let config = SynthesisConfig::power_optimized(2.0).with_effort(3, 5);
    let engine = config.engine.with_explorer(ExplorerKind::Pareto);
    let outcome = Impact::new(config.with_engine(engine)).synthesize(&cdfg, &trace)?;
    println!("\npareto front at laxity 2.0:");
    for member in &outcome.front {
        let point = &member.point;
        println!(
            "  power {:>8.4} mW  area {:>7.0}  enc {:>7.1}  vdd {:>4.2}  units {:>2}",
            point.power.total_mw(),
            point.area,
            point.enc(),
            point.vdd,
            member.design.fu_count(),
        );
    }
    Ok(())
}
