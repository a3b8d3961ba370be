#![allow(clippy::unwrap_used)]

//! Integration test for the paper's Section 2.3 trace-manipulation example
//! (Figures 3–6): merging the per-operation traces of the three additions
//! under resource sharing reproduces the trace the shared adder would see,
//! without re-simulation.

use impact::behsim::simulate;
use impact::cdfg::{Operation, Polarity};
use impact::modlib::ModuleLibrary;
use impact::rtl::RtlDesign;
use impact::trace::RtTraces;

const FIG3: &str = "design fig3 { input a: 8, b: 8, c: 8, d: 8; output o: 8; var t: 8;
    t = b + c;
    if (a < 8) { o = t + d; } else { o = a + t; }
}";

#[test]
fn merged_adder_trace_matches_the_paper_table() {
    let cdfg = impact::hdl::compile(FIG3).unwrap();
    // Condition outcomes [T, T, F, T] as in the paper's example.
    let inputs = vec![
        vec![1, 10, 20, 3],
        vec![2, 11, 21, 4],
        vec![100, 12, 22, 5],
        vec![3, 13, 23, 6],
    ];
    let trace = simulate(&cdfg, &inputs).unwrap();

    let library = ModuleLibrary::standard();
    let mut design = RtlDesign::initial_parallel(&cdfg, &library);
    let adders = design.units_of_class(impact::cdfg::OpClass::AddSub);
    assert_eq!(adders.len(), 3, "three additions, three adders initially");
    design.share_fus(adders[0], adders[1]).unwrap();
    design.share_fus(adders[0], adders[2]).unwrap();

    let rt = RtTraces::new(&cdfg, &design, &trace);
    let merged: Vec<_> = rt.merged_fu_events(adders[0]).collect();

    // Two additions execute per pass: the unconditional `t = b + c` and the
    // taken branch's addition.
    assert_eq!(merged.len(), 8);
    for pair in merged.chunks(2) {
        assert_eq!(pair[0].pass, pair[1].pass, "events stay grouped by pass");
        assert!(
            pair[0].sequence < pair[1].sequence,
            "dynamic order is preserved"
        );
    }

    // The per-pass second addition follows the condition sequence [T, T, F, T].
    let then_add = cdfg
        .nodes()
        .find(|(_, n)| n.operation == Operation::Add && n.control.polarity == Polarity::ActiveHigh)
        .map(|(id, _)| id)
        .unwrap();
    let else_add = cdfg
        .nodes()
        .find(|(_, n)| n.operation == Operation::Add && n.control.polarity == Polarity::ActiveLow)
        .map(|(id, _)| id)
        .unwrap();
    let second: Vec<_> = merged.iter().skip(1).step_by(2).map(|e| e.node).collect();
    assert_eq!(second, vec![then_add, then_add, else_add, then_add]);

    // The merged trace is exactly the concatenation of the individual
    // operation traces (the paper's point: no information is lost and no
    // re-simulation is needed).
    let total_events: usize = cdfg
        .nodes()
        .filter(|(_, n)| n.operation == Operation::Add)
        .map(|(id, _)| trace.node_trace(id).len())
        .sum();
    assert_eq!(merged.len(), total_events);

    // Values are consistent with the behavioral semantics: each adder event
    // output equals the sum of its inputs.
    for event in merged {
        assert_eq!(event.output, event.input(0) + event.input(1));
    }
}

#[test]
fn per_operation_traces_concatenate_into_any_sharing_configuration() {
    let cdfg = impact::hdl::compile(FIG3).unwrap();
    let inputs: Vec<Vec<i64>> = (0..12).map(|i| vec![i, 10 + i, 20 + i, i]).collect();
    let trace = simulate(&cdfg, &inputs).unwrap();
    let library = ModuleLibrary::standard();

    // Sharing only two of the three adders also yields consistent traces.
    let mut design = RtlDesign::initial_parallel(&cdfg, &library);
    let adders = design.units_of_class(impact::cdfg::OpClass::AddSub);
    design.share_fus(adders[1], adders[2]).unwrap();
    let rt = RtTraces::new(&cdfg, &design, &trace);
    let merged = rt.merged_fu_events(adders[1]).count();
    let solo = rt.merged_fu_events(adders[0]).count();
    assert_eq!(
        merged + solo,
        cdfg.nodes()
            .filter(|(_, n)| n.operation == Operation::Add)
            .map(|(id, _)| trace.node_trace(id).len())
            .sum::<usize>()
    );
    // The design never needs re-simulation because every operation was
    // exercised by the inputs.
    assert!(!rt.needs_resimulation());
}
