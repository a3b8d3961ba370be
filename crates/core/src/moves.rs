//! The iterative-improvement moves and their generation.

use std::fmt;

use impact_cdfg::analysis::ExclusionInfo;
use impact_cdfg::{Cdfg, NodeId, VarId};
use impact_modlib::{ModuleId, ModuleLibrary};
use impact_rtl::{DesignDelta, FuId, MuxSink, RegId, RtlDesign, RtlError};

use crate::config::SynthesisConfig;

/// One RT-level transformation considered by the search (Section 3.2).
#[derive(Clone, PartialEq, Debug)]
pub enum Move {
    /// Restructure the multiplexer tree at `sink` by activity-probability
    /// ordering (Section 3.2.1).
    RestructureMux {
        /// The mux site to restructure.
        sink: MuxSink,
    },
    /// Replace the module variant of a functional unit (Section 3.2.2).
    SubstituteModule {
        /// The unit whose implementation changes.
        fu: FuId,
        /// The new library variant.
        module: ModuleId,
    },
    /// Share two functional units of the same class (Section 3.2.3).
    ShareFus {
        /// The unit kept.
        keep: FuId,
        /// The unit removed; its operations move to `keep`.
        remove: FuId,
    },
    /// Split one operation off a shared functional unit (Section 3.2.3).
    SplitFu {
        /// The unit to split.
        fu: FuId,
        /// The operation moved onto a fresh unit.
        op: NodeId,
    },
    /// Merge two registers.
    ShareRegisters {
        /// The register kept.
        keep: RegId,
        /// The register removed; its variables move to `keep`.
        remove: RegId,
    },
    /// Split one variable off a shared register.
    SplitRegister {
        /// The register to split.
        reg: RegId,
        /// The variable moved to a fresh register.
        var: VarId,
    },
}

impl Move {
    /// Applies the move to a design, returning the transactional
    /// [`DesignDelta`] — the exact change-set the move made. The delta is
    /// what makes the move the unit of incrementality downstream: the
    /// evaluator patches the parent's fingerprint and evaluation context
    /// from it instead of rebuilding either, and [`RtlDesign::revert_delta`]
    /// undoes the move exactly.
    ///
    /// # Errors
    ///
    /// Propagates [`RtlError`]s (e.g. sharing incompatible units); the engine
    /// simply skips such candidates. A failed move leaves the design
    /// untouched.
    pub fn apply(
        &self,
        cdfg: &Cdfg,
        library: &ModuleLibrary,
        design: &mut RtlDesign,
    ) -> Result<DesignDelta, RtlError> {
        let mut delta = self.apply_unswept(cdfg, library, design)?;
        // Rebinding operations or variables can collapse a multi-source mux
        // site into a single-source one (e.g. sharing the two units that fed
        // a register input), stranding a restructuring annotation on a sink
        // that no longer is a mux site. Sweep those into the delta so the
        // invariant `annotated => multi-source` holds after *any* move
        // composition, not just the sequences the greedy search happens to
        // pick — and so a revert restores them exactly.
        if matches!(
            self,
            Move::ShareFus { .. }
                | Move::SplitFu { .. }
                | Move::ShareRegisters { .. }
                | Move::SplitRegister { .. }
        ) {
            clear_stale_annotations(cdfg, design, &mut delta);
        }
        Ok(delta)
    }

    /// The move's own change, before stale annotations are swept.
    fn apply_unswept(
        &self,
        cdfg: &Cdfg,
        library: &ModuleLibrary,
        design: &mut RtlDesign,
    ) -> Result<DesignDelta, RtlError> {
        match self {
            Move::RestructureMux { sink } => Ok(design.set_restructured_delta(*sink, true)),
            Move::SubstituteModule { fu, module } => {
                design.substitute_module(library, *fu, *module)
            }
            Move::ShareFus { keep, remove } => design.share_fus(*keep, *remove),
            Move::SplitFu { fu, op } => design.split_fu(cdfg, *fu, &[*op]),
            Move::ShareRegisters { keep, remove } => design.share_registers(*keep, *remove),
            Move::SplitRegister { reg, var } => design.split_register(cdfg, *reg, &[*var]),
        }
    }

    /// Short human-readable description for reports and logs.
    pub fn kind(&self) -> &'static str {
        match self {
            Move::RestructureMux { .. } => "restructure-mux",
            Move::SubstituteModule { .. } => "substitute-module",
            Move::ShareFus { .. } => "share-fus",
            Move::SplitFu { .. } => "split-fu",
            Move::ShareRegisters { .. } => "share-registers",
            Move::SplitRegister { .. } => "split-register",
        }
    }
}

impl fmt::Display for Move {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Move::RestructureMux { sink } => write!(f, "restructure mux at {sink}"),
            Move::SubstituteModule { fu, module } => write!(f, "substitute {module} on {fu}"),
            Move::ShareFus { keep, remove } => write!(f, "share {remove} into {keep}"),
            Move::SplitFu { fu, op } => write!(f, "split {op} off {fu}"),
            Move::ShareRegisters { keep, remove } => write!(f, "share {remove} into {keep}"),
            Move::SplitRegister { reg, var } => write!(f, "split {var} off {reg}"),
        }
    }
}

/// Clears restructuring annotations stranded on sinks that stopped being
/// multi-source mux sites, folding the clears into `delta` so reverting it
/// restores them. O(move): only the annotated sinks in the move's site scope
/// are checked ([`RtlDesign::stale_annotations`]), and nothing is listed
/// when the design carries no annotations (the common case while probing).
fn clear_stale_annotations(cdfg: &Cdfg, design: &mut RtlDesign, delta: &mut DesignDelta) {
    if design.restructured_sites().next().is_none() {
        return;
    }
    for sink in design.stale_annotations(cdfg, delta) {
        let cleared = design.set_restructured_delta(sink, false);
        delta.restructured.extend(cleared.restructured);
    }
}

/// Upper bound on the number of sharing candidates generated per move family
/// and step, to keep each variable-depth step affordable.
const MAX_PAIR_CANDIDATES: usize = 24;

/// Generates the candidate moves applicable to `design`.
///
/// Sharing candidates are ordered so that pairs whose operations are mutually
/// exclusive (opposite branch sides) come first — sharing those reduces the
/// number of states and usually area and power, as the paper notes.
pub fn generate(
    cdfg: &Cdfg,
    library: &ModuleLibrary,
    design: &RtlDesign,
    config: &SynthesisConfig,
    exclusion: &ExclusionInfo,
) -> Vec<Move> {
    let mut moves = Vec::new();

    if config.mux_restructuring {
        for sink in design.multi_source_sinks(cdfg) {
            if !design.is_restructured(sink) {
                moves.push(Move::RestructureMux { sink });
            }
        }
    }

    if config.module_selection {
        for (fu, unit) in design.functional_units() {
            for variant in library.variants_for(unit.class) {
                if variant != unit.module {
                    moves.push(Move::SubstituteModule {
                        fu,
                        module: variant,
                    });
                }
            }
        }
    }

    if config.resource_sharing {
        // Each unit's operations, listed once per call.
        let ops_by_unit = design.ops_by_unit();
        let mut pairs: Vec<(FuId, FuId, bool)> = Vec::new();
        let units: Vec<(FuId, impact_cdfg::OpClass)> = design
            .functional_units()
            .map(|(id, u)| (id, u.class))
            .collect();
        for (i, &(a, class_a)) in units.iter().enumerate() {
            for &(b, class_b) in units.iter().skip(i + 1) {
                if class_a != class_b {
                    continue;
                }
                let exclusive = ops_by_unit[a.index()].iter().all(|&oa| {
                    ops_by_unit[b.index()]
                        .iter()
                        .all(|&ob| exclusion.mutually_exclusive(oa, ob))
                });
                pairs.push((a, b, exclusive));
            }
        }
        // Mutually exclusive pairs first.
        pairs.sort_by_key(|&(_, _, exclusive)| !exclusive);
        for (a, b, _) in pairs.into_iter().take(MAX_PAIR_CANDIDATES) {
            moves.push(Move::ShareFus { keep: a, remove: b });
        }
        for &(fu, _) in &units {
            if let [_, .., op] = ops_by_unit[fu.index()][..] {
                moves.push(Move::SplitFu { fu, op });
            }
        }
    }

    if config.register_sharing {
        let regs: Vec<(RegId, u8)> = design.registers().map(|(id, r)| (id, r.width)).collect();
        let mut pairs: Vec<(RegId, RegId, u8)> = Vec::new();
        for (i, &(a, wa)) in regs.iter().enumerate() {
            for &(b, wb) in regs.iter().skip(i + 1) {
                pairs.push((a, b, wa.abs_diff(wb)));
            }
        }
        // Prefer width-compatible registers.
        pairs.sort_by_key(|&(_, _, diff)| diff);
        for (a, b, _) in pairs.into_iter().take(MAX_PAIR_CANDIDATES) {
            moves.push(Move::ShareRegisters { keep: a, remove: b });
        }
        for (reg, r) in design.registers() {
            if r.variables.len() >= 2 {
                moves.push(Move::SplitRegister {
                    reg,
                    var: r.variables[r.variables.len() - 1],
                });
            }
        }
    }

    moves
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::config::SynthesisConfig;
    use impact_modlib::ModuleLibrary;

    fn setup() -> (Cdfg, ModuleLibrary, RtlDesign, ExclusionInfo) {
        let cdfg = impact_benchmarks::gcd().compile().unwrap();
        let lib = ModuleLibrary::standard();
        let design = RtlDesign::initial_parallel(&cdfg, &lib);
        let excl = ExclusionInfo::compute(&cdfg);
        (cdfg, lib, design, excl)
    }

    #[test]
    fn every_move_family_is_generated_for_the_initial_design() {
        let (cdfg, lib, design, excl) = setup();
        let config = SynthesisConfig::power_optimized(2.0);
        let moves = generate(&cdfg, &lib, &design, &config, &excl);
        assert!(moves.iter().any(|m| matches!(m, Move::ShareFus { .. })));
        assert!(moves
            .iter()
            .any(|m| matches!(m, Move::SubstituteModule { .. })));
        assert!(moves
            .iter()
            .any(|m| matches!(m, Move::ShareRegisters { .. })));
        assert!(moves
            .iter()
            .any(|m| matches!(m, Move::RestructureMux { .. })));
        // No shared unit or register exists yet, so no splits.
        assert!(!moves.iter().any(|m| matches!(m, Move::SplitFu { .. })));
    }

    #[test]
    fn ablation_flags_suppress_their_move_families() {
        let (cdfg, lib, design, excl) = setup();
        let config = SynthesisConfig::power_optimized(2.0)
            .without_mux_restructuring()
            .without_module_selection()
            .without_resource_sharing()
            .without_register_sharing();
        assert!(generate(&cdfg, &lib, &design, &config, &excl).is_empty());
    }

    #[test]
    fn mutually_exclusive_sharing_candidates_come_first() {
        let (cdfg, lib, design, excl) = setup();
        let config = SynthesisConfig::power_optimized(2.0).without_register_sharing();
        let moves = generate(&cdfg, &lib, &design, &config, &excl);
        let first_share = moves.iter().find_map(|m| match m {
            Move::ShareFus { keep, remove } => Some((*keep, *remove)),
            _ => None,
        });
        // The two subtractions of GCD live on opposite branch sides, so the
        // first sharing candidate should pair mutually exclusive operations.
        let (keep, remove) = first_share.expect("sharing candidates exist");
        let oa = design.ops_on(keep)[0];
        let ob = design.ops_on(remove)[0];
        assert!(excl.mutually_exclusive(oa, ob));
    }

    #[test]
    fn applying_moves_mutates_the_design() {
        let (cdfg, lib, mut design, _excl) = setup();
        let adders = design.units_of_class(impact_cdfg::OpClass::AddSub);
        let mv = Move::ShareFus {
            keep: adders[0],
            remove: adders[1],
        };
        assert_eq!(mv.kind(), "share-fus");
        mv.apply(&cdfg, &lib, &mut design).unwrap();
        assert_eq!(design.ops_on(adders[0]).len(), 2);
        // Splitting it back is now a valid move.
        let split = Move::SplitFu {
            fu: adders[0],
            op: design.ops_on(adders[0])[1],
        };
        split.apply(&cdfg, &lib, &mut design).unwrap();
        assert_eq!(design.ops_on(adders[0]).len(), 1);
    }

    /// The sweep as it was before the site-scoped check: the whole-design
    /// site enumeration and a hash set. Kept here as the oracle.
    fn clear_stale_annotations_by_enumeration(
        cdfg: &Cdfg,
        design: &mut RtlDesign,
        delta: &mut DesignDelta,
    ) {
        let real: std::collections::HashSet<MuxSink> = design
            .mux_sites(cdfg)
            .into_iter()
            .map(|site| site.sink)
            .collect();
        let stale: Vec<MuxSink> = design
            .restructured_sites()
            .filter(|sink| !real.contains(sink))
            .collect();
        for sink in stale {
            let cleared = design.set_restructured_delta(sink, false);
            delta.restructured.extend(cleared.restructured);
        }
    }

    #[test]
    fn stale_annotation_sweeps_match_the_whole_design_enumeration() {
        let lib = ModuleLibrary::standard();
        let config = SynthesisConfig::power_optimized(2.0);
        let mut checked = 0;
        let mut cleared = 0;
        for bench in impact_benchmarks::all_benchmarks() {
            let cdfg = bench.compile().unwrap();
            let excl = ExclusionInfo::compute(&cdfg);
            let initial = RtlDesign::initial_parallel(&cdfg, &lib);
            // The initial design has nothing to split; one shared unit and
            // one shared register give the split families candidates too.
            let mut shared = initial.clone();
            for mv in generate(&cdfg, &lib, &initial, &config, &excl) {
                if matches!(mv, Move::ShareFus { .. } | Move::ShareRegisters { .. }) {
                    let _ = mv.apply(&cdfg, &lib, &mut shared);
                }
            }
            for mut design in [initial, shared] {
                for sink in design.multi_source_sinks(&cdfg) {
                    design.set_restructured(sink, true);
                }
                for mv in generate(&cdfg, &lib, &design, &config, &excl) {
                    if matches!(
                        mv,
                        Move::RestructureMux { .. } | Move::SubstituteModule { .. }
                    ) {
                        continue;
                    }
                    let mut oracle = design.clone();
                    let Ok(mut expected) = mv.apply_unswept(&cdfg, &lib, &mut oracle) else {
                        continue;
                    };
                    let unswept = expected.restructured.len();
                    clear_stale_annotations_by_enumeration(&cdfg, &mut oracle, &mut expected);
                    let mut swept = design.clone();
                    let delta = mv.apply(&cdfg, &lib, &mut swept).unwrap();
                    assert_eq!(delta, expected, "{}: {mv}", bench.name);
                    assert_eq!(swept, oracle, "{}: {mv}", bench.name);
                    checked += 1;
                    cleared += expected.restructured.len() - unswept;
                }
            }
        }
        assert!(
            checked > 0 && cleared > 0,
            "{checked} moves, {cleared} cleared"
        );
    }

    #[test]
    fn move_display_is_informative() {
        let (_, _, design, _) = setup();
        let fu = design.functional_units().next().unwrap().0;
        let mv = Move::SplitFu {
            fu,
            op: NodeId::new(3),
        };
        assert!(mv.to_string().contains("n3"));
    }
}
