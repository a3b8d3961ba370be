//! Regenerates the trace-manipulation example of Section 2.3 (Figures 3–6):
//! the three-addition CDFG is simulated once; sharing all additions on a
//! single adder produces the merged trace of the paper without re-simulation.

use impact_behsim::simulate;
use impact_cdfg::OpClass;
use impact_modlib::ModuleLibrary;
use impact_rtl::RtlDesign;
use impact_trace::RtTraces;

fn main() {
    let cdfg = impact_hdl::compile(
        "design fig3 { input a: 8, b: 8, c: 8, d: 8; output o: 8; var t: 8;
           t = b + c;
           if (a < 8) { o = t + d; } else { o = a + t; }
         }",
    )
    .expect("the Figure 3 design compiles");

    // Four passes whose condition outcomes are [T, T, F, T] as in the paper.
    let inputs = vec![
        vec![1, 10, 20, 3],
        vec![2, 11, 21, 4],
        vec![100, 12, 22, 5],
        vec![3, 13, 23, 6],
    ];
    let trace = simulate(&cdfg, &inputs).expect("the example simulates");

    let library = ModuleLibrary::standard();
    let mut design = RtlDesign::initial_parallel(&cdfg, &library);
    let adders = design.units_of_class(OpClass::AddSub);
    println!(
        "Fully parallel architecture: {} adders (one per addition).",
        adders.len()
    );
    design.share_fus(adders[0], adders[1]).expect("same class");
    design.share_fus(adders[0], adders[2]).expect("same class");
    println!("After resource sharing: 1 adder (the Figure 5 implementation).");
    println!();

    let rt = RtTraces::new(&cdfg, &design, &trace);
    let merged: Vec<_> = rt.merged_fu_events(adders[0]).collect();
    println!("Merged adder trace TR(A1) obtained by trace manipulation (no re-simulation):");
    println!(
        "{:>5} {:>6} {:>6} {:>6}   operation",
        "pass", "In1", "In2", "Out"
    );
    for event in &merged {
        let node = cdfg.node(event.node);
        println!(
            "{:>5} {:>6} {:>6} {:>6}   {}",
            event.pass,
            event.input(0),
            event.input(1),
            event.output,
            node.display_label()
        );
    }
    println!();
    println!(
        "Condition sequence e8 = [T, T, F, T]: the second addition of each pass is (+then, +then, +else, +then),"
    );
    println!("matching the merged-trace table of Section 2.3.");
    println!(
        "Adder input switching activity on the merged trace: {:.3}",
        rt.fu_stats(adders[0]).input_activity
    );
}
