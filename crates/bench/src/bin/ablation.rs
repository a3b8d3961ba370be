//! Ablation of the IMPACT move families: how much of the power reduction is
//! lost when multiplexer restructuring, module selection, resource sharing or
//! register sharing is disabled. The paper applies all of them
//! simultaneously; README's "Experiments" section lists this binary with the
//! other experiments.

use impact_bench::{prepare, run, DEFAULT_PASSES, DEFAULT_SEED};
use impact_core::SynthesisConfig;

fn main() {
    let laxity = 2.0;
    let benchmarks = ["gcd", "loops", "x25_send"];
    println!("Move-family ablation at laxity {laxity} ({DEFAULT_PASSES} passes); values are power in mW at the scaled supply");
    println!(
        "{:>10} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "benchmark", "full", "no-mux", "no-modsel", "no-sharing", "no-regshare"
    );
    for name in benchmarks {
        let bench = impact_benchmarks::by_name(name).expect("benchmark exists");
        let (cdfg, trace) = prepare(&bench, DEFAULT_PASSES, DEFAULT_SEED);
        let full = run(&cdfg, &trace, SynthesisConfig::power_optimized(laxity));
        let no_mux = run(
            &cdfg,
            &trace,
            SynthesisConfig::power_optimized(laxity).without_mux_restructuring(),
        );
        let no_modsel = run(
            &cdfg,
            &trace,
            SynthesisConfig::power_optimized(laxity).without_module_selection(),
        );
        let no_share = run(
            &cdfg,
            &trace,
            SynthesisConfig::power_optimized(laxity).without_resource_sharing(),
        );
        let no_regshare = run(
            &cdfg,
            &trace,
            SynthesisConfig::power_optimized(laxity).without_register_sharing(),
        );
        println!(
            "{:>10} {:>10.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4}",
            name,
            full.report.power_mw,
            no_mux.report.power_mw,
            no_modsel.report.power_mw,
            no_share.report.power_mw,
            no_regshare.report.power_mw
        );
    }
    println!();
    println!("Higher numbers in an ablation column mean the disabled move family was contributing savings.");
}
