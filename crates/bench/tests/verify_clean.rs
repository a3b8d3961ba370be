//! True-negative audits: `impact_verify` must stay silent on every artifact a
//! real synthesis run produces. Each of the six benchmark designs — loops'
//! overlapped loops and cordic included — is synthesized with the engine's
//! inline audits enabled ([`VerifyLevel::Full`] would have failed the run),
//! then the finished outcome, the shared session cache and the snapshot
//! round-trip are re-audited and must report zero violations. Every
//! schedule audit composes its problem again and compares the stored graph
//! and ENC with that composition.

#![allow(clippy::unwrap_used)]

use impact_bench::{prepare, DEFAULT_SEED};
use impact_core::verify::{audit_session, audit_snapshot_bytes};
use impact_core::{EngineConfig, Evaluator, Impact, SweepSession, SynthesisConfig, VerifyLevel};

#[test]
fn real_synthesis_artifacts_audit_clean() {
    for bench in impact_benchmarks::all_benchmarks() {
        let (cdfg, trace) = prepare(&bench, 8, DEFAULT_SEED);
        let session = SweepSession::new();
        for config in [
            SynthesisConfig::area_optimized(1.5),
            SynthesisConfig::power_optimized(1.5),
        ] {
            let config = config
                .with_effort(2, 3)
                .with_engine(EngineConfig::incremental().with_verify(VerifyLevel::Full));
            let outcome = Impact::new(config.clone())
                .synthesize_with_session(&cdfg, &trace, &session)
                .unwrap_or_else(|error| panic!("{} failed to synthesize: {error}", bench.name));
            let evaluator = Evaluator::with_session(&cdfg, &trace, config, &session).unwrap();
            let violations = evaluator.audit_outcome(&outcome);
            assert!(
                violations.is_empty(),
                "{}: outcome audit found {violations:?}",
                bench.name
            );
        }
        let violations = audit_session(&session);
        assert!(
            violations.is_empty(),
            "{}: session audit found {violations:?}",
            bench.name
        );
        let violations = audit_snapshot_bytes(&session.save_snapshot());
        assert!(
            violations.is_empty(),
            "{}: snapshot audit found {violations:?}",
            bench.name
        );
    }
}
