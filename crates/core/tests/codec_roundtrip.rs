#![allow(clippy::unwrap_used)]

//! Round-trip tests for every domain codec impl, driven by real synthesis
//! artifacts: for each persisted cache layer's key and value type,
//! `decode ∘ encode` is the identity and re-encoding the decoded value
//! reproduces the original bytes (so snapshots of snapshots are stable).
//! Design points and schedule summaries have no codec of their own — the
//! snapshot format writes them as shared table entries — so they round trip
//! through `encode_snapshot` and `decode_snapshot`. Contexts are
//! session-local: exported, never written.

use impact_behsim::simulate;
use impact_cdfg::{Cdfg, OpClass};
use impact_codec::{decode_from_slice, encode_to_vec, Decode, Encode};
use impact_core::{
    decode_snapshot, encode_snapshot, CacheSnapshot, Evaluator, Impact, SnapshotScope,
    SweepSession, SynthesisConfig,
};
use impact_rtl::RtlDesign;
use proptest::prelude::*;

fn gcd_setup(passes: usize) -> (Cdfg, impact_behsim::ExecutionTrace) {
    let bench = impact_benchmarks::gcd();
    let cdfg = bench.compile().unwrap();
    let trace = simulate(&cdfg, &bench.input_sequences(passes, 7)).unwrap();
    (cdfg, trace)
}

/// Byte-level identity: `decode ∘ encode` reproduces the original bytes.
fn assert_bytes_roundtrip<T: Encode + Decode>(value: &T, what: &str) {
    let bytes = encode_to_vec(value);
    let back: T = decode_from_slice(&bytes)
        .unwrap_or_else(|e| panic!("decoding a fresh {what} encoding failed: {e:?}"));
    assert_eq!(
        encode_to_vec(&back),
        bytes,
        "{what}: decode ∘ encode must reproduce the original bytes"
    );
}

/// Value-level identity for the types that implement `PartialEq`.
fn assert_value_roundtrip<T>(value: &T, what: &str)
where
    T: Encode + Decode + PartialEq + std::fmt::Debug,
{
    let back: T = decode_from_slice(&encode_to_vec(value)).unwrap();
    assert_eq!(&back, value, "{what}: decode ∘ encode must be the identity");
    assert_bytes_roundtrip(value, what);
}

/// Round-trips a whole snapshot through the wire format. The decoded
/// snapshot re-encodes to the original bytes.
fn snapshot_roundtrip(snapshot: &CacheSnapshot) -> CacheSnapshot {
    let bytes = encode_snapshot(snapshot);
    let back = decode_snapshot(&bytes, SnapshotScope::Any)
        .unwrap_or_else(|e| panic!("decoding a fresh snapshot encoding failed: {e:?}"));
    assert_eq!(
        encode_snapshot(&back),
        bytes,
        "snapshot: decode ∘ encode must reproduce the original bytes"
    );
    back
}

/// Derives a design from the initial parallel architecture by applying a
/// deterministic pseudo-random subset of moves selected by `seed`.
fn mutated_design(cdfg: &Cdfg, evaluator: &Evaluator<'_>, seed: u64) -> RtlDesign {
    let mut design = RtlDesign::initial_parallel(cdfg, evaluator.library());
    if seed & 1 == 1 {
        let adders = design.units_of_class(OpClass::AddSub);
        if adders.len() >= 2 {
            design.share_fus(adders[0], adders[1]).unwrap();
        }
    }
    if seed & 2 == 2 {
        let comparators = design.units_of_class(OpClass::Compare);
        if comparators.len() >= 2 {
            design.share_fus(comparators[0], comparators[1]).unwrap();
        }
    }
    if seed & 4 == 4 {
        let adders = design.units_of_class(OpClass::AddSub);
        let ripple = evaluator.library().variant_by_name("ripple_adder").unwrap();
        if let Some(&fu) = adders.first() {
            design
                .substitute_module(evaluator.library(), fu, ripple)
                .unwrap();
        }
    }
    if seed & 8 == 8 {
        for site in design.mux_sites(cdfg) {
            design.set_restructured(site.sink, true);
        }
    }
    design
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn evaluated_points_round_trip(seed in 0u64..16) {
        let (cdfg, trace) = gcd_setup(8);
        let session = SweepSession::new();
        let evaluator = Evaluator::with_session(
            &cdfg,
            &trace,
            SynthesisConfig::power_optimized(1.5),
            &session,
        )
        .unwrap();
        let design = mutated_design(&cdfg, &evaluator, seed);
        let point = evaluator
            .evaluate(&design)
            .unwrap()
            .expect("gcd at laxity 1.5 is feasible");
        let back = snapshot_roundtrip(&session.backend().export());
        let points = back.points.values().chain(back.scaled.values().flatten());
        prop_assert!(
            points.clone().any(|p| **p == *point),
            "DesignPoint: decode ∘ encode must be the identity"
        );
        prop_assert!(
            points.map(|p| &p.schedule).any(|s| **s == *point.schedule),
            "SchedulingResult: decode ∘ encode must be the identity"
        );
        assert_value_roundtrip(&point.power, "PowerBreakdown");
    }
}

#[test]
fn every_cache_layer_round_trips_keys_and_values() {
    let (cdfg, trace) = gcd_setup(8);
    let session = SweepSession::new();
    let config = SynthesisConfig::power_optimized(1.6).with_effort(2, 3);
    Impact::new(config)
        .synthesize_with_session(&cdfg, &trace, &session)
        .unwrap();
    let export = session.backend().export();

    // The shared value types round trip inside the snapshot.
    let back = snapshot_roundtrip(&export);

    assert!(!export.points.is_empty());
    for (k, v) in &export.points {
        assert_value_roundtrip(k, "PointKey");
        assert_eq!(&back.points[k], v, "Arc<DesignPoint>");
    }
    assert!(!export.scaled.is_empty());
    for (k, v) in &export.scaled {
        assert_value_roundtrip(k, "ScaledKey");
        assert_eq!(&back.scaled[k], v, "Option<Arc<DesignPoint>>");
    }
    assert!(!export.contexts.is_empty(), "contexts are exported");
    assert!(back.contexts.is_empty(), "but never persisted");
    assert!(!export.schedules.is_empty());
    for (k, v) in &export.schedules {
        assert_value_roundtrip(k, "ScheduleKey");
        assert_eq!(&back.schedules[k], v, "Arc<SchedulingResult>");
    }
    assert!(!export.block_schedules.is_empty());
    for (k, v) in &export.block_schedules {
        assert_value_roundtrip(k, "BlockKey");
        assert_value_roundtrip(v, "Arc<BlockSchedule>");
    }
    assert!(!export.fu_stats.is_empty());
    for (k, v) in &export.fu_stats {
        assert_value_roundtrip(k, "FuStatsKey");
        assert_value_roundtrip(v, "FuStats");
    }
    assert!(!export.reg_stats.is_empty());
    for (k, v) in &export.reg_stats {
        assert_value_roundtrip(k, "RegStatsKey");
        assert_value_roundtrip(v, "RegStats");
    }
    assert!(!export.mux_stats.is_empty());
    for (k, v) in &export.mux_stats {
        assert_value_roundtrip(k, "MuxStatsKey");
        assert_value_roundtrip(v, "MuxEntry");
    }
}
