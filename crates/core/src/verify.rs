//! Cache-coherence auditing of sweep sessions and snapshots.
//!
//! The artifact-level rules live in [`impact_verify`]; this module adds the
//! rules that need the engine's crate-private cache keys: every
//! [`DesignPoint`](crate::DesignPoint), evaluation context and block
//! schedule in a session must be stored under a key that re-verifies
//! against its contents, and the layers must agree with each other where
//! they overlap (a supply-search outcome is the point-layer entry of its
//! design and supply; a hierarchical schedule and the block layer agree on
//! every shared digest).
//!
//! Cached points and contexts hold no design, so what needs one — a
//! point's fingerprint and a context's agreement with its design — is
//! checked by the inline audit when the point is computed
//! ([`VerifyLevel`](crate::VerifyLevel)), through
//! `context_design_violations` among others.
//!
//! Everything here is read-only: audits take a [`CacheSnapshot`] (or a
//! [`SweepSession`], which is exported to one) and return
//! [`Violation`]s, never mutating the session.

use std::sync::Arc;

use impact_modlib::VDD_REFERENCE;
pub use impact_verify::{
    has_errors, rules, verify_block_schedule, verify_cdfg, verify_design, verify_fingerprint,
    verify_mux_sites, verify_schedule, verify_schedule_artifact, Severity, Violation,
};

use crate::cache::{CacheSnapshot, DesignContext};
use crate::evaluate::ENC_EPS;
use crate::fingerprint::{BlockKey, PointKey};
use crate::session::SweepSession;
use crate::snapshot::{decode_snapshot, SnapshotScope};
use impact_rtl::RtlDesign;

/// Audits every cache layer of a live session. Equivalent to
/// [`audit_snapshot`] over the session's exported contents.
pub fn audit_session(session: &SweepSession) -> Vec<Violation> {
    audit_snapshot(&session.backend().export())
}

/// Decodes and audits serialized snapshot bytes. A rejected decode (bad
/// magic, version, digest or truncation) is reported as a single
/// [`rules::CACHE_SNAPSHOT`] violation.
pub fn audit_snapshot_bytes(bytes: &[u8]) -> Vec<Violation> {
    match decode_snapshot(bytes, SnapshotScope::Any) {
        Ok(snapshot) => audit_snapshot(&snapshot),
        Err(rejection) => vec![Violation::error(
            rules::CACHE_SNAPSHOT,
            "snapshot",
            format!("snapshot rejected: {rejection}"),
        )],
    }
}

/// Audits the exported contents of a cache: key ↔ content coherence for
/// design points, supply-search outcomes, contexts and block schedules,
/// plus artifact-level legality of every stored schedule.
pub fn audit_snapshot(snapshot: &CacheSnapshot) -> Vec<Violation> {
    let mut violations = Vec::new();

    for (key, point) in &snapshot.points {
        let location = format!("points[{:032x}@{}]", key.design.as_u128(), point.vdd);
        if point.vdd.to_bits() != key.vdd_bits {
            violations.push(Violation::error(
                rules::CACHE_POINT_KEY,
                location.clone(),
                format!(
                    "stored at supply {} V but keyed by {} V",
                    point.vdd,
                    f64::from_bits(key.vdd_bits)
                ),
            ));
        }
        violations.extend(
            verify_schedule_artifact(&point.schedule)
                .into_iter()
                .map(|v| v.at(&location)),
        );
    }

    for (key, entry) in &snapshot.scaled {
        let Some(point) = entry else {
            continue;
        };
        let location = format!("scaled[{:032x}]", key.design.as_u128());
        // The search returns one of the design's per-level points, so where
        // the point layer holds that level the two must agree.
        let level = PointKey::new(key.workload, key.design, point.vdd);
        if let Some(stored) = snapshot.points.get(&level) {
            if !Arc::ptr_eq(stored, point) && **stored != **point {
                violations.push(Violation::error(
                    rules::CACHE_SCALED_KEY,
                    location.clone(),
                    "supply-search outcome differs from the point-layer entry of its design and supply",
                ));
            }
        }
        let budget = f64::from_bits(key.enc_limit_bits);
        if point.enc() > budget + ENC_EPS {
            violations.push(Violation::error(
                rules::CACHE_SCALED_KEY,
                location.clone(),
                format!(
                    "stored outcome has ENC {} above the key's budget {budget}",
                    point.enc()
                ),
            ));
        }
        if !key.vdd_scaling && point.vdd != VDD_REFERENCE {
            violations.push(Violation::error(
                rules::CACHE_SCALED_KEY,
                location,
                format!(
                    "scaling-disabled outcome stored at {} V instead of the reference supply",
                    point.vdd
                ),
            ));
        }
    }

    for (key, context) in &snapshot.contexts {
        let location = format!("contexts[{:032x}]", key.design.as_u128());
        violations.extend(
            context_internal_violations(context)
                .into_iter()
                .map(|v| v.at(&location)),
        );
    }

    for (key, result) in &snapshot.schedules {
        let location = format!("schedules[{:032x}]", key.problem);
        violations.extend(
            verify_schedule_artifact(result)
                .into_iter()
                .map(|v| v.at(&location)),
        );
        // Where the hierarchical layer and the block layer claim the same
        // digest, the stored block schedules must be identical.
        for (index, outcome) in result.blocks.iter().enumerate() {
            let block_key = BlockKey::new(key.workload, outcome.digest);
            if let Some(stored) = snapshot.block_schedules.get(&block_key) {
                if **stored != *outcome.schedule {
                    violations.push(Violation::error(
                        rules::CACHE_SCHEDULE,
                        format!("{location} · block {index}"),
                        "block layer stores a different schedule under this block's digest",
                    ));
                }
            }
        }
    }

    for (key, block) in &snapshot.block_schedules {
        let location = format!("blocks[{:032x}]", key.digest);
        violations.extend(
            verify_block_schedule(block, None)
                .into_iter()
                .map(|v| v.at(&location)),
        );
        let expected = block
            .ops
            .iter()
            .map(|op| op.finish_state + 1)
            .max()
            .unwrap_or(0);
        if block.state_count != expected {
            violations.push(Violation::error(
                rules::CACHE_BLOCK,
                location,
                format!(
                    "state count {} disagrees with the {} states its operations span",
                    block.state_count, expected
                ),
            ));
        }
    }

    violations
}

/// Internal shape invariants of one evaluation context: parallel vectors
/// agree in length, resource id lists are strictly increasing (a patch
/// walks them in step with the candidate's), the binding points into the
/// active units, and every stored site is an actual multi-source site.
fn context_internal_violations(context: &DesignContext) -> Vec<Violation> {
    let mut violations = Vec::new();
    if context.base_delays.len() != context.binding.len() {
        violations.push(Violation::error(
            rules::CACHE_CONTEXT,
            "context",
            format!(
                "{} base delays but {} binding entries",
                context.base_delays.len(),
                context.binding.len()
            ),
        ));
    }
    let sites = context.sites.len();
    if context.site_restructured.len() != sites
        || context.site_depths.len() != sites
        || context.profile.muxes.len() != sites
    {
        violations.push(Violation::error(
            rules::CACHE_CONTEXT,
            "context",
            format!(
                "site vectors disagree: {sites} sites, {} flags, {} depth lists, {} profiles",
                context.site_restructured.len(),
                context.site_depths.len(),
                context.profile.muxes.len()
            ),
        ));
    } else {
        for (index, (site, depths)) in context.sites.iter().zip(&context.site_depths).enumerate() {
            if site.fan_in() < 2 {
                violations.push(Violation::error(
                    rules::CACHE_CONTEXT,
                    format!("site {index}"),
                    "stored mux site has fewer than two sources",
                ));
            }
            if depths.len() != site.sources.len() {
                violations.push(Violation::error(
                    rules::CACHE_CONTEXT,
                    format!("site {index}"),
                    format!(
                        "{} tree depths recorded for {} sources",
                        depths.len(),
                        site.sources.len()
                    ),
                ));
            }
        }
    }
    if context.profile.fus.len() != context.fu_ids.len() {
        violations.push(Violation::error(
            rules::CACHE_CONTEXT,
            "context",
            format!(
                "{} unit ids but {} unit power profiles",
                context.fu_ids.len(),
                context.profile.fus.len()
            ),
        ));
    }
    if context.profile.regs.len() != context.reg_ids.len() {
        violations.push(Violation::error(
            rules::CACHE_CONTEXT,
            "context",
            format!(
                "{} register ids but {} register power profiles",
                context.reg_ids.len(),
                context.profile.regs.len()
            ),
        ));
    }
    if context.fu_ids.windows(2).any(|w| w[0] >= w[1]) {
        violations.push(Violation::error(
            rules::CACHE_CONTEXT,
            "context",
            "unit id list is not strictly increasing",
        ));
    }
    if context.reg_ids.windows(2).any(|w| w[0] >= w[1]) {
        violations.push(Violation::error(
            rules::CACHE_CONTEXT,
            "context",
            "register id list is not strictly increasing",
        ));
    }
    for (node, binding) in context.binding.iter().enumerate() {
        if let Some(fu) = *binding {
            if !context.fu_ids.iter().any(|id| id.index() == fu) {
                violations.push(Violation::error(
                    rules::CACHE_CONTEXT,
                    format!("node {node}"),
                    format!("bound to unit index {fu} which is not in the context's unit list"),
                ));
            }
        }
    }
    violations
}

/// Coherence between a context and the design it is stored for (the one
/// whose fingerprint keys it): the context must describe exactly that
/// design. Part of the inline audit.
pub(crate) fn context_design_violations(
    context: &DesignContext,
    design: &RtlDesign,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    if context.binding != design.scheduler_binding() {
        violations.push(Violation::error(
            rules::CACHE_CONTEXT,
            "context",
            "binding disagrees with the design of the same fingerprint",
        ));
    }
    if !context
        .fu_ids
        .iter()
        .copied()
        .eq(design.functional_units().map(|(id, _)| id))
    {
        violations.push(Violation::error(
            rules::CACHE_CONTEXT,
            "context",
            "active unit list disagrees with the design of the same fingerprint",
        ));
    }
    if !context
        .reg_ids
        .iter()
        .copied()
        .eq(design.registers().map(|(id, _)| id))
    {
        violations.push(Violation::error(
            rules::CACHE_CONTEXT,
            "context",
            "active register list disagrees with the design of the same fingerprint",
        ));
    }
    for (index, (site, &restructured)) in context
        .sites
        .iter()
        .zip(&context.site_restructured)
        .enumerate()
    {
        if design.is_restructured(site.sink) != restructured {
            violations.push(Violation::error(
                rules::CACHE_CONTEXT,
                format!("site {index}"),
                "restructuring flag disagrees with the design of the same fingerprint",
            ));
        }
    }
    violations
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::{EngineConfig, Impact, SynthesisConfig, VerifyLevel};

    /// A session populated by two real gcd runs; every corruption test
    /// starts from its (clean) exported snapshot.
    fn populated_session() -> SweepSession {
        let bench = impact_benchmarks::gcd();
        let cdfg = bench.compile().unwrap();
        let trace = impact_behsim::simulate(&cdfg, &bench.input_sequences(6, 11)).unwrap();
        let session = SweepSession::new();
        for laxity in [1.0, 2.0] {
            Impact::new(SynthesisConfig::power_optimized(laxity).with_effort(2, 3))
                .synthesize_with_session(&cdfg, &trace, &session)
                .unwrap();
        }
        session
    }

    fn fired(violations: &[Violation], rule: &str) -> bool {
        violations.iter().any(|v| v.rule == rule)
    }

    #[test]
    fn clean_sessions_audit_silently() {
        let session = populated_session();
        assert_eq!(audit_session(&session), vec![]);
        assert_eq!(audit_snapshot_bytes(&session.save_snapshot()), vec![]);
    }

    #[test]
    fn engine_audits_accept_clean_runs_at_every_level() {
        let bench = impact_benchmarks::gcd();
        let cdfg = bench.compile().unwrap();
        let trace = impact_behsim::simulate(&cdfg, &bench.input_sequences(6, 11)).unwrap();
        for level in [VerifyLevel::Points, VerifyLevel::Full] {
            let config = SynthesisConfig::power_optimized(2.0)
                .with_effort(2, 3)
                .with_engine(EngineConfig::incremental().with_verify(level));
            Impact::new(config)
                .synthesize(&cdfg, &trace)
                .expect("a clean run passes the inline audit");
        }
    }

    #[test]
    fn rekeyed_points_trip_the_point_key_rule() {
        let mut snapshot = populated_session().backend().export();
        let key = *snapshot.points.keys().next().unwrap();
        let point = snapshot.points.remove(&key).unwrap();
        let forged = PointKey {
            vdd_bits: (point.vdd + 0.5).to_bits(),
            ..key
        };
        snapshot.points.insert(forged, point);
        assert!(fired(&audit_snapshot(&snapshot), rules::CACHE_POINT_KEY));
    }

    #[test]
    fn outcomes_that_disagree_with_the_point_layer_trip_the_scaled_key_rule() {
        let mut snapshot = populated_session().backend().export();
        // An outcome whose design and supply the point layer also holds.
        let key = *snapshot
            .scaled
            .iter()
            .find(|(key, outcome)| {
                outcome.as_ref().is_some_and(|point| {
                    let level = PointKey::new(key.workload, key.design, point.vdd);
                    snapshot.points.contains_key(&level)
                })
            })
            .expect("some outcome is also a point-layer entry")
            .0;
        let outcome = snapshot.scaled.get_mut(&key).unwrap().as_mut().unwrap();
        Arc::make_mut(outcome).area += 1.0;
        assert!(fired(&audit_snapshot(&snapshot), rules::CACHE_SCALED_KEY));
    }

    #[test]
    fn budget_violations_trip_the_scaled_key_rule() {
        let mut snapshot = populated_session().backend().export();
        let (key, point) = snapshot
            .scaled
            .iter()
            .find_map(|(k, v)| v.as_ref().map(|p| (*k, p.clone())))
            .expect("the session cached a feasible supply-search outcome");
        snapshot.scaled.remove(&key);
        let forged = crate::fingerprint::ScaledKey {
            enc_limit_bits: (point.enc() / 2.0).to_bits(),
            ..key
        };
        snapshot.scaled.insert(forged, Some(point));
        assert!(fired(&audit_snapshot(&snapshot), rules::CACHE_SCALED_KEY));
    }

    #[test]
    fn truncated_contexts_trip_the_context_rule() {
        let mut snapshot = populated_session().backend().export();
        let key = *snapshot.contexts.keys().next().unwrap();
        let context = snapshot.contexts.get_mut(&key).unwrap();
        Arc::make_mut(context).base_delays.pop();
        assert!(fired(&audit_snapshot(&snapshot), rules::CACHE_CONTEXT));
    }

    #[test]
    fn a_corrupted_cached_context_fails_the_inline_audit() {
        // A context stored under a design's fingerprint that binds one
        // operation differently: the point computed from it schedules a
        // problem that is not the design's, and the inline audit, which
        // holds the design, rejects it.
        let bench = impact_benchmarks::gcd();
        let cdfg = bench.compile().unwrap();
        let trace = impact_behsim::simulate(&cdfg, &bench.input_sequences(6, 11)).unwrap();
        let config = SynthesisConfig::power_optimized(2.0)
            .with_engine(EngineConfig::incremental().with_verify(VerifyLevel::Points));
        let session = SweepSession::new();
        let evaluator = crate::Evaluator::with_session(&cdfg, &trace, config, &session).unwrap();
        let mut design = impact_rtl::RtlDesign::initial_parallel(&cdfg, evaluator.library());
        let adders = design.units_of_class(impact_cdfg::OpClass::AddSub);
        design.share_fus(adders[0], adders[1]).unwrap();
        assert!(
            evaluator.evaluate(&design).is_ok(),
            "the clean context audits"
        );

        let fresh = SweepSession::new();
        let evaluator =
            crate::Evaluator::with_session(&cdfg, &trace, evaluator.config().clone(), &fresh)
                .unwrap();
        let key = crate::fingerprint::ContextKey::new(evaluator.workload(), design.fingerprint());
        let mut context = (*session.backend().lookup_context(&key).unwrap()).clone();
        let node = context
            .binding
            .iter()
            .position(Option::is_some)
            .expect("the context binds at least one operation");
        context.binding[node] = None;
        fresh.backend().store_context(key, Arc::new(context));
        let Err(crate::SynthesisError::Verification(violations)) = evaluator.evaluate(&design)
        else {
            panic!("a corrupted context must fail the inline audit");
        };
        assert!(
            violations.iter().any(|v| v.contains(rules::CACHE_CONTEXT)),
            "{violations:?}"
        );
    }

    #[test]
    fn block_layer_disagreement_trips_the_schedule_rule() {
        let mut snapshot = populated_session().backend().export();
        // A block digest claimed by both a hierarchical schedule and the
        // block layer; nudging the stored block makes them disagree without
        // breaking the block's own internal invariants.
        let block_key = snapshot
            .schedules
            .iter()
            .find_map(|(key, result)| {
                result.blocks.iter().find_map(|outcome| {
                    let candidate = BlockKey::new(key.workload, outcome.digest);
                    snapshot
                        .block_schedules
                        .contains_key(&candidate)
                        .then_some(candidate)
                })
            })
            .expect("the schedule and block layers share a digest");
        let block = snapshot.block_schedules.get_mut(&block_key).unwrap();
        Arc::make_mut(block).ops[0].start_ns += 0.25;
        assert!(fired(&audit_snapshot(&snapshot), rules::CACHE_SCHEDULE));
    }

    #[test]
    fn state_count_drift_trips_the_block_rule() {
        let mut snapshot = populated_session().backend().export();
        let key = *snapshot.block_schedules.keys().next().unwrap();
        let block = snapshot.block_schedules.get_mut(&key).unwrap();
        Arc::make_mut(block).state_count += 1;
        assert!(fired(&audit_snapshot(&snapshot), rules::CACHE_BLOCK));
    }

    #[test]
    fn undecodable_bytes_trip_the_snapshot_rule() {
        let violations = audit_snapshot_bytes(b"not a snapshot");
        assert!(fired(&violations, rules::CACHE_SNAPSHOT));
        let mut bytes = populated_session().save_snapshot();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(fired(&audit_snapshot_bytes(&bytes), rules::CACHE_SNAPSHOT));
    }
}
