//! Content digest of an evaluation workload (CDFG + execution trace).
//!
//! Sweep sessions share one evaluation cache across many synthesis runs — and
//! potentially across *different* benchmarks batched over one worker pool.
//! The per-resource cache keys of the evaluation engine identify resources by
//! CDFG node and variable ids, which are only unique within one graph, so
//! every cache key is additionally scoped by a [`workload_digest`]: a
//! deterministic 128-bit content digest of the CDFG structure and the
//! recorded execution trace. Two jobs share cache entries exactly when they
//! evaluate the same behavior on the same inputs.
//!
//! The digest is stable across processes (no random hasher state), which is
//! what lets a snapshot written by one process warm-start another: the same
//! `(workload, resource)` pair hashes to the same key everywhere.

use impact_behsim::ExecutionTrace;
use impact_cdfg::Cdfg;
use impact_rtl::FingerprintHasher;

/// Deterministic 128-bit content digest of one `(CDFG, trace)` workload.
///
/// Covers the graph's full structure (per-node operation, control port,
/// defined variable; per-edge wiring, port, width and loop-carry flag;
/// per-variable kind and width), the dynamic event stream of the trace
/// (node, operands, result, pass, sequence) and the per-variable write
/// sequences. Everything that feeds scheduling dependencies, trace
/// statistics, base delays or power profiles is a pure function of these
/// inputs plus the design under evaluation, so equal digests imply
/// interchangeable cache entries — two graphs that differ only in wiring (and
/// happen to record coinciding traces) still digest differently.
pub fn workload_digest(cdfg: &Cdfg, trace: &ExecutionTrace) -> u128 {
    let mut hasher = FingerprintHasher::new();

    hasher.write_tag(0xC0);
    hasher.write_u64(cdfg.node_count() as u64);
    hasher.write_u64(cdfg.variable_count() as u64);
    for (id, node) in cdfg.nodes() {
        hasher.write_u64(id.index() as u64);
        hasher.write_u64(node.operation as u64);
        hasher.write_u64(node.inputs.len() as u64);
        hasher.write_u64(node.control.polarity as u64);
        hasher.write_i64(
            node.control
                .condition
                .map_or(-1, |edge| edge.index() as i64),
        );
        hasher.write_i64(node.defines.map_or(-1, |var| var.index() as i64));
    }
    hasher.write_tag(0xC1);
    hasher.write_u64(cdfg.edge_count() as u64);
    for (id, edge) in cdfg.edges() {
        hasher.write_u64(id.index() as u64);
        hasher.write_i64(match edge.source {
            impact_cdfg::EdgeSource::Node(node) => node.index() as i64,
            impact_cdfg::EdgeSource::External => -1,
        });
        hasher.write_u64(edge.target.index() as u64);
        hasher.write_u64(match edge.port {
            impact_cdfg::Port::Data(index) => u64::from(index),
            impact_cdfg::Port::Control => u64::MAX,
        });
        hasher.write_i64(edge.initial.unwrap_or(i64::MIN));
        hasher.write_u64(u64::from(edge.width));
        hasher.write_u64(u64::from(edge.loop_carried));
    }
    hasher.write_tag(0xC2);
    for (id, variable) in cdfg.variables() {
        hasher.write_u64(id.index() as u64);
        hasher.write_u64(variable.kind as u64);
        hasher.write_u64(u64::from(variable.width));
        hasher.write_i64(variable.initial.unwrap_or(i64::MIN));
    }

    // The trace side is one memoized digest over the event stream and the
    // per-variable write sequences: a sweep session scoping many runs by
    // workload hashes the (large, immutable) trace once instead of per run.
    hasher.write_tag(0xE0);
    hasher.write_u128(trace.content_digest());

    hasher.finish().as_u128()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use impact_behsim::simulate;

    fn compile(source: &str) -> Cdfg {
        impact_hdl::compile(source).unwrap()
    }

    const ADD: &str = "design d { input a: 8, b: 8; output y: 8; y = a + b; }";
    const SUB: &str = "design d { input a: 8, b: 8; output y: 8; y = a - b; }";

    #[test]
    fn identical_workloads_share_a_digest() {
        let cdfg = compile(ADD);
        let inputs = vec![vec![1, 2], vec![30, 4]];
        let a = simulate(&cdfg, &inputs).unwrap();
        let b = simulate(&cdfg, &inputs).unwrap();
        assert_eq!(workload_digest(&cdfg, &a), workload_digest(&cdfg, &b));
    }

    #[test]
    fn different_inputs_or_programs_change_the_digest() {
        let add = compile(ADD);
        let sub = compile(SUB);
        let short = simulate(&add, &[vec![1, 2]]).unwrap();
        let long = simulate(&add, &[vec![1, 2], vec![3, 4]]).unwrap();
        let other = simulate(&sub, &[vec![1, 2]]).unwrap();
        assert_ne!(workload_digest(&add, &short), workload_digest(&add, &long));
        assert_ne!(workload_digest(&add, &short), workload_digest(&sub, &other));
    }
}
