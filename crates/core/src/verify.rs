//! Cache-coherence auditing of sweep sessions and snapshots.
//!
//! The artifact-level rules live in [`impact_verify`]; this module adds the
//! rules that need the engine's crate-private cache keys: a
//! [`DesignPoint`](crate::DesignPoint) sits under its own supply level, a
//! supply-search outcome respects the budget in its key and is the
//! point-layer entry of its design and supply where the point layer holds
//! one, and evaluation contexts and block schedules are internally
//! consistent. A stored schedule is a summary (ENC, clock, state and
//! transition counts) and is checked as numbers
//! ([`verify_summary_artifact`]: a finite non-negative ENC, a finite
//! positive clock, at least one state): it names neither its problem, its
//! graph nor the blocks it was composed from.
//!
//! Cached points and contexts hold no design and cached schedules no
//! problem, so what needs one — a point's fingerprint, a context's
//! agreement with its design, a schedule's agreement with the composition
//! of its problem — is checked by the inline audit when the point is
//! computed ([`VerifyLevel`](crate::VerifyLevel)), through
//! `context_design_violations`, [`verify_schedule`] (every graph composed
//! while the audit is on, validated and compared bit for bit with an inline
//! recomposition) and [`verify_summary`] (a summary served by the cache,
//! against that recomposition's).
//!
//! Everything here is read-only: audits take a [`CacheSnapshot`] (or a
//! [`SweepSession`], which is exported to one) and return
//! [`Violation`]s, never mutating the session.

use std::sync::Arc;

use impact_verify::ENC_EPS;
pub use impact_verify::{
    has_errors, rules, verify_block_schedule, verify_cdfg, verify_design, verify_fingerprint,
    verify_mux_sites, verify_schedule, verify_schedule_artifact, verify_summary,
    verify_summary_artifact, Severity, Violation,
};

use crate::cache::{CacheSnapshot, DesignContext};
use crate::fingerprint::PointKey;
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
/// plus artifact-level legality of every stored schedule summary — the
/// schedule layer's and every point's — checked as numbers by
/// [`verify_summary_artifact`]. A snapshot holds no graph, so graphs are
/// validated where one exists: when it is composed under an inline audit,
/// and in a run's outcome.
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
            verify_summary_artifact(&point.schedule)
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
                location,
                format!(
                    "stored outcome has ENC {} above the key's budget {budget}",
                    point.enc()
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
            verify_summary_artifact(result)
                .into_iter()
                .map(|v| v.at(&location)),
        );
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

    /// Evaluates gcd with two adders shared, audited inline at
    /// [`VerifyLevel::Points`], in a clean session; then again in a fresh
    /// session after `plant` stored entries there, given the clean session,
    /// the fresh one, its evaluator and the design. Returns the violations
    /// the second evaluation must fail with.
    fn inline_audit_after(
        plant: impl FnOnce(&SweepSession, &SweepSession, &crate::Evaluator<'_>, &RtlDesign),
    ) -> Vec<String> {
        let bench = impact_benchmarks::gcd();
        let cdfg = bench.compile().unwrap();
        let trace = impact_behsim::simulate(&cdfg, &bench.input_sequences(6, 11)).unwrap();
        let config = SynthesisConfig::power_optimized(2.0)
            .with_engine(EngineConfig::incremental().with_verify(VerifyLevel::Points));
        let session = SweepSession::new();
        let evaluator =
            crate::Evaluator::with_session(&cdfg, &trace, config.clone(), &session).unwrap();
        let mut design = RtlDesign::initial_parallel(&cdfg, evaluator.library());
        let adders = design.units_of_class(impact_cdfg::OpClass::AddSub);
        design.share_fus(adders[0], adders[1]).unwrap();
        assert!(
            evaluator.evaluate(&design).is_ok(),
            "the clean entries audit"
        );

        // A fresh session holds the initial design's entries only, so what
        // the shared design adds is planted before it is first read.
        let fresh = SweepSession::new();
        let evaluator = crate::Evaluator::with_session(&cdfg, &trace, config, &fresh).unwrap();
        plant(&session, &fresh, &evaluator, &design);
        let Err(crate::SynthesisError::Verification(violations)) = evaluator.evaluate(&design)
        else {
            panic!("a planted entry must fail the inline audit");
        };
        violations
    }

    #[test]
    fn a_corrupted_cached_context_fails_the_inline_audit() {
        // A context stored under a design's fingerprint that binds one
        // operation differently: the point computed from it schedules a
        // problem that is not the design's, and the inline audit, which
        // holds the design, rejects it.
        let violations = inline_audit_after(|clean, fresh, evaluator, design| {
            let key =
                crate::fingerprint::ContextKey::new(evaluator.workload(), design.fingerprint());
            let mut context = (*clean.backend().lookup_context(&key).unwrap()).clone();
            let node = context
                .binding
                .iter()
                .position(Option::is_some)
                .expect("the context binds at least one operation");
            context.binding[node] = None;
            fresh.backend().store_context(key, Arc::new(context));
        });
        assert!(
            violations.iter().any(|v| v.contains(rules::CACHE_CONTEXT)),
            "{violations:?}"
        );
    }

    #[test]
    fn a_legal_block_layer_entry_of_another_schedule_fails_the_inline_audit() {
        // A block-layer entry with every operation one state later and one
        // state more is legal on its own, so no session rule fires; but it is
        // not the schedule of its block. The point composed from it holds a
        // graph its problem does not compose to, and the inline audit, which
        // composes the problem again, rejects it.
        let violations = inline_audit_after(|clean, fresh, _, _| {
            let known = fresh.backend().export().block_schedules;
            let (key, block) = (clean.backend().export().block_schedules.into_iter())
                .find(|(key, block)| !known.contains_key(key) && !block.ops.is_empty())
                .expect("sharing two adders gives some block a new schedule");
            let mut shifted = (*block).clone();
            for op in &mut shifted.ops {
                op.state += 1;
                op.finish_state += 1;
            }
            shifted.state_count += 1;
            fresh.backend().store_block(key, Arc::new(shifted));
            assert_eq!(audit_session(fresh), vec![]);
        });
        assert!(
            violations.iter().any(|v| v.contains(rules::SCHED_STG)),
            "{violations:?}"
        );
    }

    #[test]
    fn a_block_layer_entry_with_an_operation_moved_inside_its_state_fails_the_inline_audit() {
        // The entry keeps its state count and every operation's state; one
        // operation starts and finishes later by the same amount, still
        // inside its state and the clock period. It is legal on its own, so
        // no session rule fires, and the schedule composed from it has every
        // summary field of the right one: only its graph differs. The
        // inline audit of the composed graph rejects it.
        let violations = inline_audit_after(|clean, fresh, evaluator, _| {
            let clock = evaluator.config().clock_ns;
            let known = fresh.backend().export().block_schedules;
            let (key, block) = (clean.backend().export().block_schedules.into_iter())
                .find(|(key, block)| !known.contains_key(key) && !block.ops.is_empty())
                .expect("sharing two adders gives some block a new schedule");
            let mut moved = (*block).clone();
            let op = (moved.ops.iter_mut())
                .min_by(|a, b| a.finish_ns.total_cmp(&b.finish_ns))
                .unwrap();
            let shift = (clock - op.finish_ns) / 2.0;
            assert!(shift > 0.0, "the operation has slack before the clock edge");
            op.start_ns += shift;
            op.finish_ns += shift;
            assert_eq!(verify_block_schedule(&moved, Some(clock)), vec![]);
            assert_eq!(moved.state_count, block.state_count);
            fresh.backend().store_block(key, Arc::new(moved));
            assert_eq!(audit_session(fresh), vec![]);
        });
        assert!(
            violations
                .iter()
                .any(|v| v.contains(rules::SCHED_STG) && v.contains("stored graph differs")),
            "{violations:?}"
        );
        assert!(
            !violations.iter().any(|v| v.contains(rules::SCHED_ENC)),
            "the summary is right: {violations:?}"
        );
    }

    #[test]
    fn a_corrupted_outcome_graph_fails_the_outcome_audit() {
        // An outcome's graph is composed apart from the point its report
        // reads, so the outcome audit recomposes it and checks the report.
        let bench = impact_benchmarks::gcd();
        let cdfg = bench.compile().unwrap();
        let trace = impact_behsim::simulate(&cdfg, &bench.input_sequences(6, 11)).unwrap();
        let config = SynthesisConfig::power_optimized(2.0).with_effort(2, 3);
        let outcome = Impact::new(config.clone())
            .synthesize(&cdfg, &trace)
            .unwrap();
        let evaluator = crate::Evaluator::new(&cdfg, &trace, config).unwrap();
        assert_eq!(evaluator.audit_outcome(&outcome), vec![]);

        let mut extra_state = outcome.clone();
        extra_state.schedule.stg.add_state();
        let violations = evaluator.audit_outcome(&extra_state);
        assert!(fired(&violations, rules::SCHED_STG), "{violations:?}");

        let mut other_enc = outcome;
        other_enc.schedule.enc += 1.0;
        let violations = evaluator.audit_outcome(&other_enc);
        assert!(fired(&violations, rules::SCHED_ENC), "{violations:?}");
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
