//! RT-level unit traces derived by trace manipulation.

use impact_behsim::{Event, ExecutionTrace, NodeTrace};
use impact_cdfg::{Cdfg, NodeId, VariableKind};
use impact_rtl::{FuId, MuxSite, MuxSource, RegId, RtlDesign, SignalKey};

use crate::activity::Toggles;
use crate::merge::Merge;

/// View over one behavioral [`ExecutionTrace`] through the lens of one
/// RT-level design: per-unit merged traces, register value sequences and
/// multiplexer statistics.
#[derive(Clone, Copy, Debug)]
pub struct RtTraces<'a> {
    cdfg: &'a Cdfg,
    design: &'a RtlDesign,
    trace: &'a ExecutionTrace,
}

/// Activity statistics of one functional unit, counted along a single merge
/// of its operations' traces.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FuStats {
    /// Mean input switching activity along the merged trace.
    pub input_activity: f64,
    /// Mean output switching activity along the merged trace.
    pub output_activity: f64,
    /// Average activations per input pass.
    pub activations_per_pass: f64,
}

/// Activity statistics of one register, counted along a single merge of its
/// value sequence.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RegStats {
    /// Mean per-write switching activity.
    pub activity: f64,
    /// Average writes per input pass.
    pub writes_per_pass: f64,
}

impl<'a> RtTraces<'a> {
    /// Creates the view. The trace must have been recorded on the same CDFG
    /// the design binds.
    pub fn new(cdfg: &'a Cdfg, design: &'a RtlDesign, trace: &'a ExecutionTrace) -> Self {
        Self {
            cdfg,
            design,
            trace,
        }
    }

    /// The underlying behavioral trace.
    pub fn execution(&self) -> &ExecutionTrace {
        self.trace
    }

    // ------------------------------------------------------------ functional units

    /// The merged trace of a functional unit: the events of every operation
    /// bound to it, in dynamic execution order (the paper's `TR(Du)`).
    pub fn merged_fu_events(&self, fu: FuId) -> impl Iterator<Item = Event<'a>> + 'a {
        let trace = self.trace;
        let ops = self.design.ops_on(fu);
        let merge = Merge::new(
            ops.iter()
                .map(|&op| trace.node_trace(op).sequences())
                .collect(),
        );
        merge.flat_map(move |(stream, rows)| {
            let op = ops[stream];
            rows.map(move |row| trace.event(op, row))
        })
    }

    /// Every per-unit statistic from one merge of the unit's operation
    /// traces, counting output and per-port toggles as it goes.
    pub fn fu_stats(&self, fu: FuId) -> FuStats {
        let width = self
            .design
            .functional_unit(fu)
            .map(|f| f.width)
            .unwrap_or(8);
        let ops: Vec<&NodeTrace> = self
            .design
            .ops_on_iter(fu)
            .map(|op| self.trace.node_trace(op))
            .collect();
        // The unit has as many input ports as its widest executed operation;
        // a narrower operation reads 0 on the ports it lacks.
        let ports = ops
            .iter()
            .filter(|op| !op.is_empty())
            .map(|op| op.ports())
            .max()
            .unwrap_or(0);
        let mut output = Toggles::default();
        let mut inputs = vec![Toggles::default(); ports];
        for (stream, rows) in Merge::new(ops.iter().map(|op| op.sequences()).collect()) {
            let op = ops[stream];
            output.extend(&op.outputs()[rows.clone()], width);
            for (port, toggles) in inputs.iter_mut().enumerate() {
                match op.inputs(port).get(rows.clone()) {
                    Some(values) => toggles.extend(values, width),
                    None => toggles.extend_zeros(rows.len(), width),
                }
            }
        }
        let events = output.values();
        let mut input_activity = 0.0;
        if events >= 2 && ports > 0 {
            for toggles in &inputs {
                input_activity += toggles.activity(width);
            }
            input_activity /= ports as f64;
        }
        FuStats {
            input_activity,
            output_activity: output.activity(width),
            activations_per_pass: events as f64 / f64::from(self.trace.passes().max(1)),
        }
    }

    // ------------------------------------------------------------ registers

    /// Value sequence seen by a register: every write performed by operations
    /// defining one of its variables, in dynamic order. Primary-input
    /// variables contribute their per-pass values.
    pub fn register_values(&self, reg: RegId) -> Vec<i64> {
        let mut values = Vec::new();
        self.visit_register_values(reg, |run| values.extend_from_slice(run));
        values
    }

    /// Every per-register statistic from one merge of the register's value
    /// sequence.
    pub fn register_stats(&self, reg: RegId) -> RegStats {
        let width = self.design.register(reg).map(|r| r.width).unwrap_or(8);
        let mut toggles = Toggles::default();
        self.visit_register_values(reg, |run| toggles.extend(run, width));
        RegStats {
            activity: toggles.activity(width),
            writes_per_pass: toggles.values() as f64 / f64::from(self.trace.passes().max(1)),
        }
    }

    /// Feeds [`Self::register_values`] to `visit`, a run at a time: a k-way
    /// merge of the output columns of the register's definers and of the
    /// loads of its primary-input variables.
    fn visit_register_values(&self, reg: RegId, mut visit: impl FnMut(&[i64])) {
        let Ok(register) = self.design.register(reg) else {
            return;
        };
        let mut keys: Vec<&[u32]> = Vec::new();
        let mut values: Vec<&[i64]> = Vec::new();
        for &var in &register.variables {
            for &node in self.cdfg.definers_of(var) {
                let definer = self.trace.node_trace(node);
                keys.push(definer.sequences());
                values.push(definer.outputs());
            }
        }
        // Primary inputs are loaded at the start of each pass: a load is keyed
        // by the sequence number of its pass's first event, less one. Each
        // input variable's loads form one stream, in pass order — which is
        // key order unless a pass recorded no event (its first sequence reads
        // 0) or the variable was also assigned; a stable sort then keeps
        // equal keys in write order.
        let first_seqs = self.trace.first_sequences();
        let loads: Vec<(Vec<u32>, Vec<i64>)> = register
            .variables
            .iter()
            .filter(|&&var| self.cdfg.variable(var).kind == VariableKind::Input)
            .map(|&var| {
                let mut loads: Vec<(u32, i64)> = self
                    .trace
                    .variable_writes(var)
                    .iter()
                    .enumerate()
                    .map(|(pass, &value)| {
                        let first_seq = first_seqs.get(pass).copied().unwrap_or(0);
                        (first_seq.saturating_sub(1), value)
                    })
                    .collect();
                if !loads.is_sorted_by_key(|&(key, _)| key) {
                    loads.sort_by_key(|&(key, _)| key);
                }
                loads.into_iter().unzip()
            })
            .collect();
        // Tie rule: load streams come after every definer, so a load whose key
        // equals a write's sequence number follows that write. For pass
        // p ≥ 1 that write is the last event of pass p − 1, which did come
        // first. For pass 0 the key is 0, the sequence number of the trace's
        // first event, so pass 0's load follows that event instead of
        // preceding it: a known defect, kept until the benchmark's expected
        // reports can be regenerated.
        for (load_keys, load_values) in &loads {
            keys.push(load_keys);
            values.push(load_values);
        }
        for (stream, rows) in Merge::new(keys) {
            visit(&values[stream][rows]);
        }
    }

    // ------------------------------------------------------------ multiplexers

    /// Activity of a physical signal (register output, functional-unit output
    /// or constant).
    pub fn signal_activity(&self, key: SignalKey) -> f64 {
        match key {
            SignalKey::Register(reg) => self.register_stats(reg).activity,
            SignalKey::FuOutput(fu) => self.fu_stats(fu).output_activity,
            SignalKey::Constant(_) => 0.0,
        }
    }

    /// Per-source statistics of a multiplexer site: the transition activity
    /// `a_i` of each source signal and its probability of propagation `p_i`
    /// (the fraction of the site's traffic routed through it), ready for
    /// [`impact_rtl::MuxTree`] construction.
    pub fn mux_source_stats(&self, site: &MuxSite) -> Vec<MuxSource> {
        self.mux_source_stats_with(site, |key| self.signal_activity(key))
    }

    /// [`Self::mux_source_stats`] with each source's activity `a_i` supplied
    /// by `activity`, called once per source in order. Memoized
    /// [`RegStats::activity`] and [`FuStats::output_activity`] values are
    /// exactly what [`Self::signal_activity`] would derive.
    pub fn mux_source_stats_with(
        &self,
        site: &MuxSite,
        mut activity: impl FnMut(SignalKey) -> f64,
    ) -> Vec<MuxSource> {
        let counts: Vec<f64> = site
            .sources
            .iter()
            .map(|src| {
                src.ops
                    .iter()
                    .map(|&op| self.trace.execution_count(op) as f64)
                    .sum::<f64>()
            })
            .collect();
        let total: f64 = counts.iter().sum();
        site.sources
            .iter()
            .zip(counts)
            .map(|(src, count)| {
                let probability = if total > 0.0 {
                    count / total
                } else {
                    1.0 / site.sources.len() as f64
                };
                MuxSource::new(&signal_label(src.key), activity(src.key), probability)
            })
            .collect()
    }

    /// Average number of times the site selects a value per input pass.
    pub fn mux_selections_per_pass(&self, site: &MuxSite) -> f64 {
        let total: usize = site
            .sources
            .iter()
            .flat_map(|s| s.ops.iter())
            .map(|&op| self.trace.execution_count(op))
            .sum();
        total as f64 / f64::from(self.trace.passes().max(1))
    }

    // ------------------------------------------------------------ re-simulation

    /// Operations that the recorded inputs never exercised.
    pub fn unexercised_nodes(&self) -> Vec<NodeId> {
        self.cdfg
            .nodes()
            .filter(|(id, node)| {
                node.operation.needs_functional_unit() && self.trace.execution_count(*id) == 0
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// Returns `true` when some operation was never exercised, in which case
    /// statistics derived for it are extrapolations and a re-simulation with
    /// richer inputs is advisable (the paper's "re-simulation is done on an
    /// as-needed basis").
    pub fn needs_resimulation(&self) -> bool {
        !self.unexercised_nodes().is_empty()
    }
}

fn signal_label(key: SignalKey) -> String {
    match key {
        SignalKey::Register(r) => r.to_string(),
        SignalKey::FuOutput(f) => f.to_string(),
        SignalKey::Constant(c) => c.to_string(),
    }
}

// ---------------------------------------------------------------- snapshot codec

use impact_codec::{Decode, DecodeError, Decoder, Encode, Encoder};

/// Version tag of [`FuStats`]'s wire layout.
const TAG_FU_STATS: u8 = 0x30;
/// Version tag of [`RegStats`]'s wire layout.
const TAG_REG_STATS: u8 = 0x31;

impl Encode for FuStats {
    fn encode(&self, w: &mut Encoder) {
        w.put_tag(TAG_FU_STATS);
        w.put_f64(self.input_activity);
        w.put_f64(self.output_activity);
        w.put_f64(self.activations_per_pass);
    }
}

impl Decode for FuStats {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        r.expect_tag(TAG_FU_STATS)?;
        Ok(Self {
            input_activity: r.take_f64()?,
            output_activity: r.take_f64()?,
            activations_per_pass: r.take_f64()?,
        })
    }
}

impl Encode for RegStats {
    fn encode(&self, w: &mut Encoder) {
        w.put_tag(TAG_REG_STATS);
        w.put_f64(self.activity);
        w.put_f64(self.writes_per_pass);
    }
}

impl Decode for RegStats {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        r.expect_tag(TAG_REG_STATS)?;
        Ok(Self {
            activity: r.take_f64()?,
            writes_per_pass: r.take_f64()?,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::sequence_activity;
    use impact_behsim::simulate;
    use impact_cdfg::{OpClass, Operation};
    use impact_hdl::compile;
    use impact_modlib::ModuleLibrary;

    /// The three-addition CDFG of Figure 3 of the paper:
    /// `t = b + c; if (a < 8) { out = t + d; } else { out = a + t; }`
    /// (variable names chosen so the three additions mirror +1, +3, +2).
    fn three_addition() -> (Cdfg, ExecutionTrace) {
        let cdfg = compile(
            "design fig3 { input a: 8, b: 8, c: 8, d: 8; output o: 8; var t: 8;
               t = b + c;
               if (a < 8) { o = t + d; } else { o = a + t; }
             }",
        )
        .unwrap();
        // Four passes with condition outcomes [T, T, F, T] as in the paper.
        let inputs = vec![
            vec![1, 10, 20, 3],
            vec![2, 11, 21, 4],
            vec![100, 12, 22, 5],
            vec![3, 13, 23, 6],
        ];
        let trace = simulate(&cdfg, &inputs).unwrap();
        (cdfg, trace)
    }

    #[test]
    fn merged_trace_reproduces_the_paper_sharing_example() {
        let (cdfg, trace) = three_addition();
        let lib = ModuleLibrary::standard();
        let mut design = RtlDesign::initial_parallel(&cdfg, &lib);
        // Share all three additions on one adder (the paper's single-adder
        // implementation of Figure 5).
        let adders = design.units_of_class(OpClass::AddSub);
        assert_eq!(adders.len(), 3);
        design.share_fus(adders[0], adders[1]).unwrap();
        design.share_fus(adders[0], adders[2]).unwrap();

        let rt = RtTraces::new(&cdfg, &design, &trace);
        let merged: Vec<Event<'_>> = rt.merged_fu_events(adders[0]).collect();
        // Two additions execute per pass (the unconditional one plus the
        // taken branch's addition): 8 events over 4 passes.
        assert_eq!(merged.len(), 8);
        // Dynamic order is monotonically increasing in sequence numbers.
        assert!(merged.windows(2).all(|w| w[0].sequence < w[1].sequence));
        // Condition outcomes [T, T, F, T] select +then, +then, +else, +then
        // as the second addition of each pass.
        let then_add = cdfg
            .nodes()
            .find(|(_, n)| {
                n.operation == Operation::Add
                    && n.defines == cdfg.variable_by_name("o")
                    && n.control.polarity == impact_cdfg::Polarity::ActiveHigh
            })
            .map(|(id, _)| id)
            .unwrap();
        let else_add = cdfg
            .nodes()
            .find(|(_, n)| {
                n.operation == Operation::Add
                    && n.defines == cdfg.variable_by_name("o")
                    && n.control.polarity == impact_cdfg::Polarity::ActiveLow
            })
            .map(|(id, _)| id)
            .unwrap();
        let second_adds: Vec<NodeId> = merged.iter().skip(1).step_by(2).map(|e| e.node).collect();
        assert_eq!(second_adds, vec![then_add, then_add, else_add, then_add]);
    }

    #[test]
    fn sharing_preserves_total_event_count() {
        let (cdfg, trace) = three_addition();
        let lib = ModuleLibrary::standard();
        let mut design = RtlDesign::initial_parallel(&cdfg, &lib);
        let adders = design.units_of_class(OpClass::AddSub);
        let parallel_total: usize = adders
            .iter()
            .map(|&f| {
                RtTraces::new(&cdfg, &design, &trace)
                    .merged_fu_events(f)
                    .count()
            })
            .sum();
        design.share_fus(adders[0], adders[1]).unwrap();
        design.share_fus(adders[0], adders[2]).unwrap();
        let rt = RtTraces::new(&cdfg, &design, &trace);
        assert_eq!(rt.merged_fu_events(adders[0]).count(), parallel_total);
    }

    #[test]
    fn sharing_unrelated_operations_raises_input_activity() {
        // Two adders fed with very different operand streams: merging them
        // onto one unit makes consecutive input vectors jump around, which is
        // exactly the power cost of over-sharing the paper describes.
        let cdfg = compile(
            "design d { input a: 8, b: 8; output y: 8, z: 8;
               y = a + 1; z = b + 200; }",
        )
        .unwrap();
        let inputs: Vec<Vec<i64>> = (0..16).map(|i| vec![i % 4, 190 + (i % 3)]).collect();
        let trace = simulate(&cdfg, &inputs).unwrap();
        let lib = ModuleLibrary::standard();
        let mut design = RtlDesign::initial_parallel(&cdfg, &lib);
        let adders = design.units_of_class(OpClass::AddSub);
        let rt_parallel_activity = {
            let rt = RtTraces::new(&cdfg, &design, &trace);
            (rt.fu_stats(adders[0]).input_activity + rt.fu_stats(adders[1]).input_activity) / 2.0
        };
        design.share_fus(adders[0], adders[1]).unwrap();
        let rt = RtTraces::new(&cdfg, &design, &trace);
        let shared_activity = rt.fu_stats(adders[0]).input_activity;
        assert!(
            shared_activity > rt_parallel_activity,
            "sharing increases per-activation switching ({rt_parallel_activity:.3} -> {shared_activity:.3})"
        );
    }

    #[test]
    fn register_values_follow_program_order() {
        let cdfg = compile(
            "design d { output s: 8; var acc: 8 = 0; var i: 8;
               for (i = 0; i < 4; i = i + 1) { acc = acc + 1; }
               s = acc; }",
        )
        .unwrap();
        let trace = simulate(&cdfg, &[vec![]]).unwrap();
        let lib = ModuleLibrary::standard();
        let design = RtlDesign::initial_parallel(&cdfg, &lib);
        let rt = RtTraces::new(&cdfg, &design, &trace);
        let acc = cdfg.variable_by_name("acc").unwrap();
        let values = rt.register_values(design.register_of(acc));
        assert_eq!(values, vec![1, 2, 3, 4]);
        let stats = rt.register_stats(design.register_of(acc));
        assert!(stats.activity > 0.0);
        assert!((stats.writes_per_pass - 4.0).abs() < 1e-12);
    }

    #[test]
    fn mux_source_probabilities_follow_branch_statistics() {
        let (cdfg, trace) = three_addition();
        let lib = ModuleLibrary::standard();
        let mut design = RtlDesign::initial_parallel(&cdfg, &lib);
        let adders = design.units_of_class(OpClass::AddSub);
        design.share_fus(adders[0], adders[1]).unwrap();
        design.share_fus(adders[0], adders[2]).unwrap();
        let rt = RtTraces::new(&cdfg, &design, &trace);
        let sites = design.mux_sites(&cdfg);
        let site = sites
            .iter()
            .find(|s| matches!(s.sink, impact_rtl::MuxSink::FuInput { fu, port: 0 } if fu == adders[0]))
            .expect("shared adder has a mux on its first input");
        let stats = rt.mux_source_stats(site);
        assert_eq!(stats.len(), site.fan_in());
        let total_p: f64 = stats.iter().map(|s| s.probability).sum();
        assert!((total_p - 1.0).abs() < 1e-9, "probabilities sum to one");
        assert!(rt.mux_selections_per_pass(site) > 0.0);
    }

    #[test]
    fn unexercised_operations_trigger_resimulation_advice() {
        let cdfg = compile(
            "design d { input x: 8; output y: 8;
               if (x > 50) { y = x * 3; } else { y = x + 1; } }",
        )
        .unwrap();
        // Only the else path is ever exercised.
        let trace = simulate(&cdfg, &[vec![1], vec![2]]).unwrap();
        let lib = ModuleLibrary::standard();
        let design = RtlDesign::initial_parallel(&cdfg, &lib);
        let rt = RtTraces::new(&cdfg, &design, &trace);
        assert!(rt.needs_resimulation());
        assert_eq!(rt.unexercised_nodes().len(), 1);
        // Exercising both paths clears the flag.
        let trace2 = simulate(&cdfg, &[vec![1], vec![99]]).unwrap();
        let rt2 = RtTraces::new(&cdfg, &design, &trace2);
        assert!(!rt2.needs_resimulation());
    }

    #[test]
    fn combined_stats_match_the_individual_metrics_exactly() {
        let (cdfg, trace) = three_addition();
        let lib = ModuleLibrary::standard();
        let mut design = RtlDesign::initial_parallel(&cdfg, &lib);
        let adders = design.units_of_class(OpClass::AddSub);
        design.share_fus(adders[0], adders[1]).unwrap();
        let rt = RtTraces::new(&cdfg, &design, &trace);
        let passes = f64::from(trace.passes());
        // The individual metrics, from the materialized merged trace.
        for (fu, unit) in design.functional_units() {
            let stats = rt.fu_stats(fu);
            let events: Vec<Event<'_>> = rt.merged_fu_events(fu).collect();
            let ports = events.iter().map(Event::ports).max().unwrap_or(0);
            let mut input_activity = 0.0;
            if events.len() >= 2 && ports > 0 {
                for port in 0..ports {
                    let values: Vec<i64> = events.iter().map(|e| e.input(port)).collect();
                    input_activity += sequence_activity(&values, unit.width);
                }
                input_activity /= ports as f64;
            }
            let outputs: Vec<i64> = events.iter().map(|e| e.output).collect();
            assert_eq!(stats.input_activity, input_activity);
            assert_eq!(
                stats.output_activity,
                sequence_activity(&outputs, unit.width)
            );
            assert_eq!(stats.activations_per_pass, events.len() as f64 / passes);
        }
        for (reg, register) in design.registers() {
            let stats = rt.register_stats(reg);
            let values = rt.register_values(reg);
            assert_eq!(stats.activity, sequence_activity(&values, register.width));
            assert_eq!(stats.writes_per_pass, values.len() as f64 / passes);
        }
    }

    #[test]
    fn constants_have_zero_activity() {
        let (cdfg, trace) = three_addition();
        let lib = ModuleLibrary::standard();
        let design = RtlDesign::initial_parallel(&cdfg, &lib);
        let rt = RtTraces::new(&cdfg, &design, &trace);
        assert_eq!(rt.signal_activity(SignalKey::Constant(42)), 0.0);
    }
}
