//! Transactional design deltas: the exact change-set of one move.
//!
//! Every [`RtlDesign`](crate::RtlDesign) mutation returns a [`DesignDelta`]
//! recording the before/after value of every allocation slot, binding entry
//! and mux-shape annotation it touched. A delta is three things at once:
//!
//! * a **transaction log** — [`RtlDesign::apply_delta`] replays it onto a
//!   design in the pre-move state and [`RtlDesign::revert_delta`] restores
//!   the exact pre-move design (including allocation-vector lengths),
//! * a **touched-set** — evaluators patch per-design caches by cloning only
//!   the entries of the functional units, registers and mux sites a move
//!   actually changed instead of rebuilding whole contexts,
//! * a **fingerprint patch** — the structural digest is an XOR of independent
//!   per-component digests, so [`DesignDelta::patched_fingerprint`] turns a
//!   parent's digest into the candidate's by XOR-ing the changed components
//!   out and in, without re-hashing the rest of the design.
//!
//! [`RtlDesign::apply_delta`]: crate::RtlDesign::apply_delta
//! [`RtlDesign::revert_delta`]: crate::RtlDesign::revert_delta

use impact_cdfg::{NodeId, VarId};

use crate::design::{FuId, FunctionalUnit, MuxSink, RegId, Register};
use crate::{DesignFingerprint, FingerprintHasher};

/// Before/after value of one functional-unit allocation slot (`None` means
/// the slot is empty/removed).
#[derive(Clone, PartialEq, Debug)]
pub struct FuSlotChange {
    /// The slot.
    pub id: FuId,
    /// Slot content before the move.
    pub before: Option<FunctionalUnit>,
    /// Slot content after the move.
    pub after: Option<FunctionalUnit>,
}

/// Before/after value of one register allocation slot.
#[derive(Clone, PartialEq, Debug)]
pub struct RegSlotChange {
    /// The slot.
    pub id: RegId,
    /// Slot content before the move.
    pub before: Option<Register>,
    /// Slot content after the move.
    pub after: Option<Register>,
}

/// The exact change-set of one design mutation. It is a transaction log
/// ([`RtlDesign::apply_delta`](crate::RtlDesign::apply_delta) and
/// [`RtlDesign::revert_delta`](crate::RtlDesign::revert_delta)), the set of
/// components a move touched, and a fingerprint patch
/// ([`DesignDelta::patched_fingerprint`]).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct DesignDelta {
    /// Length of the functional-unit slot vector before the move (splits
    /// append slots; revert truncates back to this).
    pub(crate) fu_slots_before: usize,
    /// Length of the register slot vector before the move.
    pub(crate) reg_slots_before: usize,
    /// Touched functional-unit slots.
    pub fus: Vec<FuSlotChange>,
    /// Touched register slots.
    pub registers: Vec<RegSlotChange>,
    /// Touched operation bindings as `(node, before, after)`.
    pub op_bindings: Vec<(NodeId, Option<FuId>, Option<FuId>)>,
    /// Touched variable bindings as `(var, before, after)`.
    pub var_bindings: Vec<(VarId, RegId, RegId)>,
    /// Touched mux-shape annotations as `(sink, before, after)`.
    pub restructured: Vec<(MuxSink, bool, bool)>,
}

impl DesignDelta {
    /// An empty delta anchored to the given slot-vector lengths.
    pub(crate) fn new(fu_slots: usize, reg_slots: usize) -> Self {
        Self {
            fu_slots_before: fu_slots,
            reg_slots_before: reg_slots,
            ..Self::default()
        }
    }

    /// Whether the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.fus.is_empty()
            && self.registers.is_empty()
            && self.op_bindings.is_empty()
            && self.var_bindings.is_empty()
            && self.restructured.is_empty()
    }

    /// The functional unit a split created, if the move created one.
    pub fn created_fu(&self) -> Option<FuId> {
        self.fus
            .iter()
            .find(|c| {
                c.before.is_none() && c.after.is_some() && c.id.index() >= self.fu_slots_before
            })
            .map(|c| c.id)
    }

    /// The register a split created, if the move created one.
    pub fn created_register(&self) -> Option<RegId> {
        self.registers
            .iter()
            .find(|c| {
                c.before.is_none() && c.after.is_some() && c.id.index() >= self.reg_slots_before
            })
            .map(|c| c.id)
    }

    /// Ids of every functional unit the move touched (changed, removed or
    /// created).
    pub fn touched_fus(&self) -> impl Iterator<Item = FuId> + '_ {
        self.fus.iter().map(|c| c.id)
    }

    /// Ids of every register the move touched.
    pub fn touched_registers(&self) -> impl Iterator<Item = RegId> + '_ {
        self.registers.iter().map(|c| c.id)
    }

    /// Patches a parent design's structural digest into the post-move
    /// digest: every changed component's contribution is XOR-ed out (its
    /// before value) and in (its after value), leaving the untouched
    /// components' contributions untouched. Bit-identical to recomputing
    /// [`RtlDesign::fingerprint`](crate::RtlDesign::fingerprint) on the
    /// mutated design.
    pub fn patched_fingerprint(&self, base: DesignFingerprint) -> DesignFingerprint {
        let mut bits = base.as_u128();
        for change in &self.fus {
            if let Some(unit) = &change.before {
                bits ^= fu_component(change.id.index(), unit);
            }
            if let Some(unit) = &change.after {
                bits ^= fu_component(change.id.index(), unit);
            }
        }
        for change in &self.registers {
            if let Some(reg) = &change.before {
                bits ^= reg_component(change.id.index(), reg);
            }
            if let Some(reg) = &change.after {
                bits ^= reg_component(change.id.index(), reg);
            }
        }
        for &(node, before, after) in &self.op_bindings {
            bits ^= op_binding_component(node.index(), before);
            bits ^= op_binding_component(node.index(), after);
        }
        for &(var, before, after) in &self.var_bindings {
            bits ^= var_binding_component(var.index(), before);
            bits ^= var_binding_component(var.index(), after);
        }
        for &(sink, before, after) in &self.restructured {
            if before {
                bits ^= restructured_component(sink);
            }
            if after {
                bits ^= restructured_component(sink);
            }
        }
        DesignFingerprint::from_u128(bits)
    }
}

// ---------------------------------------------------------------- components
//
// The structural digest of a design is the XOR of one independent digest per
// component (occupied allocation slot, binding entry, restructured sink).
// XOR makes the combination order-free and self-inverse, which is what lets
// a delta patch the digest; every component embeds its position and a
// domain-separation tag, so equal content at different positions (or in
// different sections) contributes distinct values.

/// Seed digest of the empty design (a tagged hash, so an empty design does
/// not fingerprint to zero).
pub(crate) fn fingerprint_seed() -> u128 {
    let mut h = FingerprintHasher::new();
    h.write_tag(0);
    h.finish().as_u128()
}

/// Component digest of one occupied functional-unit slot.
pub(crate) fn fu_component(index: usize, unit: &FunctionalUnit) -> u128 {
    let mut h = FingerprintHasher::new();
    h.write_tag(1);
    h.write_u64(index as u64);
    h.write_u64(unit.class as u64);
    h.write_u64(unit.module.index() as u64);
    h.write_u64(u64::from(unit.width));
    h.finish().as_u128()
}

/// Component digest of one occupied register slot.
pub(crate) fn reg_component(index: usize, reg: &Register) -> u128 {
    let mut h = FingerprintHasher::new();
    h.write_tag(2);
    h.write_u64(index as u64);
    h.write_u64(u64::from(reg.width));
    h.write_u64(reg.variables.len() as u64);
    for &var in &reg.variables {
        h.write_u64(var.index() as u64);
    }
    h.finish().as_u128()
}

/// Component digest of one operation-binding entry (`None` included, so
/// bind/unbind transitions patch cleanly).
pub(crate) fn op_binding_component(index: usize, binding: Option<FuId>) -> u128 {
    let mut h = FingerprintHasher::new();
    h.write_tag(3);
    h.write_u64(index as u64);
    h.write_u64(binding.map_or(0, |fu| fu.index() as u64 + 1));
    h.finish().as_u128()
}

/// Component digest of one variable-binding entry.
pub(crate) fn var_binding_component(index: usize, reg: RegId) -> u128 {
    let mut h = FingerprintHasher::new();
    h.write_tag(4);
    h.write_u64(index as u64);
    h.write_u64(reg.index() as u64);
    h.finish().as_u128()
}

/// Component digest of one restructured mux sink.
pub(crate) fn restructured_component(sink: MuxSink) -> u128 {
    let mut h = FingerprintHasher::new();
    h.write_tag(5);
    match sink {
        MuxSink::FuInput { fu, port } => {
            h.write_u64(1);
            h.write_u64(fu.index() as u64);
            h.write_u64(u64::from(port));
        }
        MuxSink::RegisterInput { reg } => {
            h.write_u64(2);
            h.write_u64(reg.index() as u64);
        }
    }
    h.finish().as_u128()
}
