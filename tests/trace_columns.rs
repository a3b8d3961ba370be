#![allow(clippy::unwrap_used)]

//! The columnar execution trace against the gather-sort derivation it
//! replaced: unit and register statistics on the six benchmark designs and a
//! seeded random corpus, mux source statistics fed memoized activities, and
//! the trace's content digest.

use std::collections::HashMap;

use impact::behsim::{simulate, ExecutionTrace};
use impact::benchmarks::all_benchmarks;
use impact::cdfg::{Cdfg, CdfgBuilder, OpClass, Operation, ValueRef, VariableKind};
use impact::modlib::ModuleLibrary;
use impact::rtl::{RtlDesign, SignalKey};
use impact::trace::{FuStats, RegStats, RtTraces};
use rand::prelude::*;

/// The gather-sort derivation of unit and register statistics: gather every
/// event, sort by sequence number, then walk the sorted values. The oracle
/// for the k-way merge in `impact_trace`.
mod reference {
    use impact::behsim::ExecutionTrace;
    use impact::cdfg::{Cdfg, VariableKind};
    use impact::rtl::{FuId, RegId, RtlDesign};
    use impact::trace::{sequence_activity, FuStats, RegStats};

    pub fn fu_stats(design: &RtlDesign, trace: &ExecutionTrace, fu: FuId) -> FuStats {
        let mut events: Vec<(u32, i64, Vec<i64>)> = Vec::new();
        for op in design.ops_on(fu) {
            let node = trace.node_trace(op);
            for row in 0..node.len() {
                let inputs = (0..node.ports()).map(|p| node.inputs(p)[row]).collect();
                events.push((node.sequences()[row], node.outputs()[row], inputs));
            }
        }
        events.sort_by_key(|e| e.0);
        let width = design.functional_unit(fu).map(|f| f.width).unwrap_or(8);
        let mut input_activity = 0.0;
        let ports = events.iter().map(|e| e.2.len()).max().unwrap_or(0);
        if events.len() >= 2 && ports > 0 {
            for port in 0..ports {
                let values: Vec<i64> = events
                    .iter()
                    .map(|e| e.2.get(port).copied().unwrap_or(0))
                    .collect();
                input_activity += sequence_activity(&values, width);
            }
            input_activity /= ports as f64;
        }
        let outputs: Vec<i64> = events.iter().map(|e| e.1).collect();
        FuStats {
            input_activity,
            output_activity: sequence_activity(&outputs, width),
            activations_per_pass: events.len() as f64 / f64::from(trace.passes().max(1)),
        }
    }

    pub fn register_values(
        cdfg: &Cdfg,
        design: &RtlDesign,
        trace: &ExecutionTrace,
        reg: RegId,
    ) -> Vec<i64> {
        let Ok(register) = design.register(reg) else {
            return Vec::new();
        };
        let mut writes: Vec<(u32, i64)> = Vec::new();
        for &var in register.variables.iter() {
            for &node in cdfg.definers_of(var) {
                let node = trace.node_trace(node);
                writes.extend(
                    node.sequences()
                        .iter()
                        .copied()
                        .zip(node.outputs().to_vec()),
                );
            }
        }
        let first_seqs = trace.first_sequences();
        for &var in register.variables.iter() {
            if cdfg.variable(var).kind == VariableKind::Input {
                for (pass, &value) in trace.variable_writes(var).iter().enumerate() {
                    let first_seq = first_seqs.get(pass).copied().unwrap_or(0);
                    writes.push((first_seq.saturating_sub(1), value));
                }
            }
        }
        writes.sort_by_key(|&(seq, _)| seq);
        writes.into_iter().map(|(_, v)| v).collect()
    }

    pub fn register_stats(
        cdfg: &Cdfg,
        design: &RtlDesign,
        trace: &ExecutionTrace,
        reg: RegId,
    ) -> RegStats {
        let width = design.register(reg).map(|r| r.width).unwrap_or(8);
        let values = register_values(cdfg, design, trace, reg);
        RegStats {
            activity: sequence_activity(&values, width),
            writes_per_pass: values.len() as f64 / f64::from(trace.passes().max(1)),
        }
    }
}

fn fu_bits(stats: FuStats) -> [u64; 3] {
    [
        stats.input_activity.to_bits(),
        stats.output_activity.to_bits(),
        stats.activations_per_pass.to_bits(),
    ]
}

fn reg_bits(stats: RegStats) -> [u64; 2] {
    [stats.activity.to_bits(), stats.writes_per_pass.to_bits()]
}

/// Checks every unit and register of `design` against the reference, bit
/// for bit.
fn assert_stats_match(name: &str, cdfg: &Cdfg, design: &RtlDesign, trace: &ExecutionTrace) {
    let rt = RtTraces::new(cdfg, design, trace);
    for (fu, _) in design.functional_units() {
        assert_eq!(
            fu_bits(rt.fu_stats(fu)),
            fu_bits(reference::fu_stats(design, trace, fu)),
            "{name}: {fu}"
        );
    }
    for (reg, _) in design.registers() {
        assert_eq!(
            rt.register_values(reg),
            reference::register_values(cdfg, design, trace, reg),
            "{name}: {reg}"
        );
        assert_eq!(
            reg_bits(rt.register_stats(reg)),
            reg_bits(reference::register_stats(cdfg, design, trace, reg)),
            "{name}: {reg}"
        );
    }
}

/// Checks every mux site's source statistics, fed the activities the
/// evaluator's memo layers hold, against the self-derived ones.
fn assert_mux_sources_match(name: &str, cdfg: &Cdfg, design: &RtlDesign, trace: &ExecutionTrace) {
    let rt = RtTraces::new(cdfg, design, trace);
    let mut memo: HashMap<SignalKey, f64> = HashMap::new();
    for (fu, _) in design.functional_units() {
        memo.insert(SignalKey::FuOutput(fu), rt.fu_stats(fu).output_activity);
    }
    for (reg, _) in design.registers() {
        memo.insert(SignalKey::Register(reg), rt.register_stats(reg).activity);
    }
    for site in design.mux_sites(cdfg) {
        let fed = rt.mux_source_stats_with(&site, |key| memo.get(&key).copied().unwrap_or(0.0));
        let derived = rt.mux_source_stats(&site);
        assert_eq!(fed.len(), derived.len(), "{name}: {:?}", site.sink);
        for (fed, derived) in fed.iter().zip(&derived) {
            assert_eq!(fed.label, derived.label);
            assert_eq!(fed.activity.to_bits(), derived.activity.to_bits());
            assert_eq!(fed.probability.to_bits(), derived.probability.to_bits());
        }
    }
}

/// Shares every unit of each class onto the first one and the registers in
/// pairs, checking the kept resource after each move and everything at the
/// end.
fn check_after_sharing(name: &str, cdfg: &Cdfg, design: &mut RtlDesign, trace: &ExecutionTrace) {
    let classes: Vec<OpClass> = design.functional_units().map(|(_, f)| f.class).collect();
    for class in classes {
        let units = design.units_of_class(class);
        for &other in units.iter().skip(1) {
            design.share_fus(units[0], other).unwrap();
            let rt = RtTraces::new(cdfg, design, trace);
            assert_eq!(
                fu_bits(rt.fu_stats(units[0])),
                fu_bits(reference::fu_stats(design, trace, units[0])),
                "{name}: {} after sharing {other}",
                units[0]
            );
        }
    }
    let registers: Vec<_> = design.registers().map(|(id, _)| id).collect();
    for pair in registers.chunks(2) {
        if let [keep, remove] = *pair {
            design.share_registers(keep, remove).unwrap();
            let rt = RtTraces::new(cdfg, design, trace);
            assert_eq!(
                reg_bits(rt.register_stats(keep)),
                reg_bits(reference::register_stats(cdfg, design, trace, keep)),
                "{name}: {keep} after sharing {remove}"
            );
        }
    }
    assert_stats_match(name, cdfg, design, trace);
    assert_mux_sources_match(name, cdfg, design, trace);
}

#[test]
fn merged_statistics_match_the_gather_sort_reference_on_every_benchmark() {
    let library = ModuleLibrary::standard();
    for bench in all_benchmarks() {
        let cdfg = bench.compile().unwrap();
        let trace = simulate(&cdfg, &bench.input_sequences(48, 1998)).unwrap();
        let mut design = RtlDesign::initial_parallel(&cdfg, &library);
        assert_stats_match(bench.name, &cdfg, &design, &trace);
        assert_mux_sources_match(bench.name, &cdfg, &design, &trace);
        check_after_sharing(bench.name, &cdfg, &mut design, &trace);
    }
}

/// A random straight-line, branching and looping design over three inputs
/// and four locals, with unary and binary operations. Its first statement
/// writes `v0`, so the first event of pass 0 defines a variable.
fn random_design(rng: &mut StdRng) -> String {
    fn operand(rng: &mut StdRng) -> String {
        match rng.random_range(0..3) {
            0 => ["a", "b", "c"][rng.random_range(0..3usize)].to_string(),
            1 => format!("v{}", rng.random_range(0..4)),
            _ => rng.random_range(0..16i64).to_string(),
        }
    }
    fn statements(rng: &mut StdRng, depth: usize, out: &mut String) {
        for _ in 0..rng.random_range(1..4) {
            match rng.random_range(0..5) {
                3 if depth < 2 => {
                    out.push_str(&format!("if ({} < {}) {{ ", operand(rng), operand(rng)));
                    statements(rng, depth + 1, out);
                    out.push_str("} else { ");
                    statements(rng, depth + 1, out);
                    out.push_str("} ");
                }
                4 if depth < 2 => {
                    let trips = rng.random_range(1..4);
                    out.push_str(&format!(
                        "for (i{depth} = 0; i{depth} < {trips}; i{depth} = i{depth} + 1) {{ "
                    ));
                    statements(rng, depth + 1, out);
                    out.push_str("} ");
                }
                // Unary operations share the add/sub and logic units with
                // binary ones, which read 0 on the second port.
                2 => {
                    let op = ["-", "!"][rng.random_range(0..2usize)];
                    let var = rng.random_range(0..4);
                    out.push_str(&format!("v{var} = {op}{}; ", operand(rng)));
                }
                _ => {
                    let op = ["+", "-", "*", "&", "|", "^"][rng.random_range(0..6usize)];
                    out.push_str(&format!(
                        "v{} = {} {op} {}; ",
                        rng.random_range(0..4),
                        operand(rng),
                        operand(rng)
                    ));
                }
            }
        }
    }
    let mut body = format!("v0 = {} + {}; ", operand(rng), operand(rng));
    statements(rng, 0, &mut body);
    format!(
        "design r {{ input a: 8, b: 8, c: 4; output y: 8;
           var v0: 8; var v1: 8 = 3; var v2: 8; var v3: 4 = 1; var i0: 8; var i1: 8;
           {body} y = v1 + v2; }}"
    )
}

#[test]
fn merged_statistics_match_the_gather_sort_reference_on_a_random_corpus() {
    let library = ModuleLibrary::standard();
    let mut rng = StdRng::seed_from_u64(0x7ace);
    let mut first_event_ties = 0;
    for case in 0..48 {
        let source = random_design(&mut rng);
        let cdfg = impact::hdl::compile(&source).unwrap();
        let inputs: Vec<Vec<i64>> = (0..rng.random_range(2..12))
            .map(|_| {
                vec![
                    rng.random_range(0..256),
                    rng.random_range(0..256),
                    rng.random_range(0..16),
                ]
            })
            .collect();
        let trace = simulate(&cdfg, &inputs).unwrap();
        let name = format!("case {case}: {source}");
        let mut design = RtlDesign::initial_parallel(&cdfg, &library);
        assert_stats_match(&name, &cdfg, &design, &trace);

        // An input variable sharing a register with the variable the first
        // event of pass 0 writes: the input's pass-0 load and that write
        // share a merge key.
        let first = cdfg
            .nodes()
            .map(|(id, _)| id)
            .find(|&id| trace.node_trace(id).sequences().first() == Some(&0))
            .unwrap();
        if let Some(var) = cdfg.node(first).defines {
            if cdfg.variable(var).kind != VariableKind::Input {
                let input = cdfg.primary_inputs()[case % 3];
                let keep = design.register_of(input);
                design
                    .share_registers(keep, design.register_of(var))
                    .unwrap();
                assert_stats_match(&name, &cdfg, &design, &trace);
                first_event_ties += 1;
            }
        }
        check_after_sharing(&name, &cdfg, &mut design, &trace);
    }
    assert!(first_event_ties > 0, "the corpus exercises the pass-0 tie");
}

#[test]
fn merged_register_statistics_match_the_reference_when_an_input_is_reassigned() {
    // Only a hand-built CDFG can redefine a primary input. Its write list
    // then outruns the pass count, and the loads past the last pass key at
    // 0, out of pass order.
    let mut builder = CdfgBuilder::new("reassigned");
    let a = builder.input("a", 8);
    let y = builder.output("y", 8);
    builder
        .binary(Operation::Add, ValueRef::Var(a), ValueRef::Const(3), "a")
        .unwrap();
    builder.emit_output(ValueRef::Var(a), y);
    let cdfg = builder.finish().unwrap();
    let trace = simulate(&cdfg, &[vec![1], vec![7], vec![2], vec![9]]).unwrap();
    let library = ModuleLibrary::standard();
    let mut design = RtlDesign::initial_parallel(&cdfg, &library);
    assert_stats_match("reassigned", &cdfg, &design, &trace);
    check_after_sharing("reassigned", &cdfg, &mut design, &trace);
}

#[test]
fn content_digests_of_the_benchmark_traces_are_pinned() {
    // The digest scopes every cache key and snapshot header, so the
    // columnar trace must hash exactly the stream the event list did.
    let pinned = [
        ("loops", 0x86e6ebfdb516e5fecfdba47f6943e23e_u128),
        ("gcd", 0xd8f336dcced1a4af0123e48e448d3a5b),
        ("dealer", 0x826fb115bbddcec29720760618dfe3e6),
        ("x25_send", 0xdfcf297466735c0d5888953ce3a68fc5),
        ("cordic", 0x06124a4fa7b63b806daf62dc991da7a4),
        ("paulin", 0x5e822f85b46f34d84779b4e57ccc6ebc),
    ];
    let benches = all_benchmarks();
    assert_eq!(benches.len(), pinned.len());
    for (bench, (name, digest)) in benches.iter().zip(pinned) {
        assert_eq!(bench.name, name);
        let cdfg = bench.compile().unwrap();
        let trace = simulate(&cdfg, &bench.input_sequences(48, 1998)).unwrap();
        assert_eq!(trace.content_digest(), digest, "{name}");
    }
}
