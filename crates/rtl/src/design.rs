//! Allocation, binding and module selection: the mutable RT-level design the
//! IMPACT moves operate on.

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashSet};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use impact_cdfg::{Cdfg, EdgeId, NodeId, OpClass, Operation, ValueRef, VarId};
use impact_modlib::{ModuleId, ModuleLibrary};

use crate::delta::{
    fingerprint_seed, fu_component, op_binding_component, reg_component, restructured_component,
    var_binding_component, DesignDelta, FuSlotChange, RegSlotChange,
};

/// Identifier of a functional-unit instance.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FuId(usize);

impl FuId {
    /// Raw index of the unit.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for FuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fu{}", self.0)
    }
}

/// Identifier of a register instance.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RegId(usize);

impl RegId {
    /// Raw index of the register.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for RegId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// One functional-unit instance.
#[derive(Clone, PartialEq, Debug)]
pub struct FunctionalUnit {
    /// Functional class of the operations it executes.
    pub class: OpClass,
    /// Selected module-library variant.
    pub module: ModuleId,
    /// Bit width of the instance (the widest operation bound to it).
    pub width: u8,
}

/// One register instance, possibly shared by several variables.
#[derive(Clone, PartialEq, Debug)]
pub struct Register {
    /// Variables stored in this register. The list is immutable and shared:
    /// cloning a register (and so a design, a delta or a cached point) bumps
    /// a reference count instead of copying it, and a move that changes a
    /// register builds the register's new list.
    pub variables: Arc<[VarId]>,
    /// Bit width (the widest variable stored).
    pub width: u8,
}

/// A physical signal source feeding a multiplexer site.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum SignalKey {
    /// Output of a register.
    Register(RegId),
    /// Output of a functional unit.
    FuOutput(FuId),
    /// A hard-wired constant.
    Constant(i64),
}

/// Where a multiplexer tree sits in the datapath.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum MuxSink {
    /// In front of data input port `port` of a functional unit.
    FuInput {
        /// The functional unit.
        fu: FuId,
        /// The data port index.
        port: u8,
    },
    /// In front of a register's data input.
    RegisterInput {
        /// The register.
        reg: RegId,
    },
}

impl fmt::Display for MuxSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MuxSink::FuInput { fu, port } => write!(f, "{fu}.in{port}"),
            MuxSink::RegisterInput { reg } => write!(f, "{reg}.d"),
        }
    }
}

/// One source of a multiplexer site together with the operations whose values
/// are routed through it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SignalSource {
    /// The physical source.
    pub key: SignalKey,
    /// CDFG nodes routed through this source at this site.
    pub ops: Vec<NodeId>,
}

/// A multiplexer site: a sink plus every source that can reach it. The
/// sites of a design ([`RtlDesign::mux_sites`]) each have two or more.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MuxSite {
    /// Where the tree sits.
    pub sink: MuxSink,
    /// The signals it selects between.
    pub sources: Vec<SignalSource>,
    /// Bit width of the routed data.
    pub width: u8,
}

impl MuxSite {
    /// Number of selectable sources (1 means no mux is needed).
    pub fn fan_in(&self) -> usize {
        self.sources.len()
    }

    /// Number of 2-to-1 multiplexers the site needs.
    pub fn mux_count(&self) -> usize {
        self.fan_in().saturating_sub(1)
    }
}

/// One entry of a candidate's mux-site list as
/// [`RtlDesign::derive_mux_sites`] derives it from the parent's list.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DerivedSite {
    /// The parent's site at this position of the parent's list, which the
    /// move cannot have changed.
    Kept(usize),
    /// A site enumerated again, with the position of the parent's site at
    /// the same sink, if the parent had one (the two may still be equal).
    Fresh {
        /// The candidate's site.
        site: MuxSite,
        /// Position of the parent's site at the same sink.
        parent: Option<usize>,
    },
}

/// Errors reported by [`RtlDesign`] mutations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RtlError {
    /// A functional unit or register id is unknown or was removed by an
    /// earlier sharing move.
    UnknownResource {
        /// Description of the missing resource.
        what: String,
    },
    /// Two units of different functional classes cannot be shared.
    ClassMismatch {
        /// Class of the unit kept.
        keep: OpClass,
        /// Class of the unit removed.
        remove: OpClass,
    },
    /// A module variant of the wrong class was requested for a unit.
    WrongModuleClass {
        /// Class of the unit.
        unit: OpClass,
        /// Class of the requested variant.
        variant: OpClass,
    },
    /// A split was requested that would leave one side empty.
    EmptySplit,
}

impl fmt::Display for RtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtlError::UnknownResource { what } => write!(f, "unknown resource: {what}"),
            RtlError::ClassMismatch { keep, remove } => {
                write!(f, "cannot share a {remove} unit into a {keep} unit")
            }
            RtlError::WrongModuleClass { unit, variant } => {
                write!(f, "cannot put a {variant} module on a {unit} unit")
            }
            RtlError::EmptySplit => {
                write!(f, "a split must move at least one operation or variable")
            }
        }
    }
}

impl Error for RtlError {}

/// The RT-level design: allocation, binding, module selection and mux-tree
/// shape annotations.
#[derive(Clone, PartialEq, Debug)]
pub struct RtlDesign {
    fus: Vec<Option<FunctionalUnit>>,
    registers: Vec<Option<Register>>,
    op_binding: Vec<Option<FuId>>,
    var_binding: Vec<RegId>,
    restructured: HashSet<MuxSink>,
}

impl RtlDesign {
    /// Builds the paper's initial architecture: "a parallel architecture, in
    /// which each node is assigned to a separate functional unit, each
    /// functional unit is chosen to be the fastest module available in the
    /// library, and each variable is assigned to a separate register".
    pub fn initial_parallel(cdfg: &Cdfg, library: &ModuleLibrary) -> Self {
        let mut fus = Vec::new();
        let mut op_binding = vec![None; cdfg.node_count()];
        for (id, node) in cdfg.nodes() {
            let class = node.operation.class();
            if class == OpClass::None {
                continue;
            }
            let module = library
                .fastest_id(class)
                .expect("library covers every functional class");
            let width = node
                .defines
                .map(|v| cdfg.variable(v).width)
                .unwrap_or(impact_modlib::REFERENCE_WIDTH);
            op_binding[id.index()] = Some(FuId(fus.len()));
            fus.push(Some(FunctionalUnit {
                class,
                module,
                width,
            }));
        }
        let mut registers = Vec::new();
        let mut var_binding = Vec::with_capacity(cdfg.variable_count());
        for (_, var) in cdfg.variables() {
            var_binding.push(RegId(registers.len()));
            registers.push(Some(Register {
                variables: Arc::from([VarId::new(var_binding.len() - 1)]),
                width: var.width,
            }));
        }
        Self {
            fus,
            registers,
            op_binding,
            var_binding,
            restructured: HashSet::new(),
        }
    }

    // ------------------------------------------------------------ accessors

    /// Active functional units as `(id, unit)` pairs.
    pub fn functional_units(&self) -> impl Iterator<Item = (FuId, &FunctionalUnit)> {
        self.fus
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.as_ref().map(|f| (FuId(i), f)))
    }

    /// Number of active functional units.
    pub fn fu_count(&self) -> usize {
        self.functional_units().count()
    }

    /// Returns an active functional unit.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::UnknownResource`] for removed or out-of-range ids.
    pub fn functional_unit(&self, id: FuId) -> Result<&FunctionalUnit, RtlError> {
        self.fus
            .get(id.0)
            .and_then(Option::as_ref)
            .ok_or_else(|| RtlError::UnknownResource {
                what: id.to_string(),
            })
    }

    /// Active registers as `(id, register)` pairs.
    pub fn registers(&self) -> impl Iterator<Item = (RegId, &Register)> {
        self.registers
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|r| (RegId(i), r)))
    }

    /// Number of active registers.
    pub fn register_count(&self) -> usize {
        self.registers().count()
    }

    /// Returns an active register.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::UnknownResource`] for removed or out-of-range ids.
    pub fn register(&self, id: RegId) -> Result<&Register, RtlError> {
        self.registers
            .get(id.0)
            .and_then(Option::as_ref)
            .ok_or_else(|| RtlError::UnknownResource {
                what: id.to_string(),
            })
    }

    /// Functional unit executing `node`, if it needs one.
    pub fn fu_of(&self, node: NodeId) -> Option<FuId> {
        self.op_binding.get(node.index()).copied().flatten()
    }

    /// Register holding `var`.
    pub fn register_of(&self, var: VarId) -> RegId {
        self.var_binding[var.index()]
    }

    /// Operations bound to a functional unit.
    pub fn ops_on(&self, fu: FuId) -> Vec<NodeId> {
        self.ops_on_iter(fu).collect()
    }

    /// Operations bound to a functional unit, in node order, without
    /// materializing the list (cache-key hashing iterates these thousands of
    /// times per run).
    pub fn ops_on_iter(&self, fu: FuId) -> impl Iterator<Item = NodeId> + '_ {
        self.op_binding
            .iter()
            .enumerate()
            .filter(move |&(_, b)| *b == Some(fu))
            .map(|(i, _)| NodeId::new(i))
    }

    /// The operations bound to every unit slot, in node order, indexed by
    /// [`FuId::index`] (removed slots get an empty list): one pass over the
    /// bindings instead of one [`Self::ops_on`] scan per unit.
    pub fn ops_by_unit(&self) -> Vec<Vec<NodeId>> {
        let mut ops = vec![Vec::new(); self.fus.len()];
        for (node, fu) in self.bound_ops() {
            ops[fu.index()].push(node);
        }
        ops
    }

    /// Active units of a given class.
    pub fn units_of_class(&self, class: OpClass) -> Vec<FuId> {
        self.functional_units()
            .filter(|(_, f)| f.class == class)
            .map(|(id, _)| id)
            .collect()
    }

    /// Per-node functional-unit binding in the form the schedulers expect.
    pub fn scheduler_binding(&self) -> Vec<Option<usize>> {
        self.op_binding.iter().map(|b| b.map(|f| f.0)).collect()
    }

    /// Marks or unmarks a mux site as restructured (activity-probability
    /// ordered instead of balanced).
    pub fn set_restructured(&mut self, sink: MuxSink, restructured: bool) {
        let _ = self.set_restructured_delta(sink, restructured);
    }

    /// [`Self::set_restructured`] returning the transactional change-set
    /// (empty when the annotation already had the requested value).
    pub fn set_restructured_delta(&mut self, sink: MuxSink, restructured: bool) -> DesignDelta {
        let mut delta = self.empty_delta();
        let before = self.restructured.contains(&sink);
        if before != restructured {
            delta.restructured.push((sink, before, restructured));
        }
        self.apply_delta(&delta);
        delta
    }

    /// Returns `true` if the site was restructured.
    pub fn is_restructured(&self, sink: MuxSink) -> bool {
        self.restructured.contains(&sink)
    }

    /// All sites currently marked as restructured.
    pub fn restructured_sites(&self) -> impl Iterator<Item = MuxSink> + '_ {
        self.restructured.iter().copied()
    }

    // ------------------------------------------------------------ mutations
    //
    // Every mutation is transactional: it computes its exact change-set as a
    // [`DesignDelta`] first, applies it via [`Self::apply_delta`], and
    // returns it, so callers can patch fingerprints and evaluation contexts
    // (or revert the move) without diffing whole designs.

    /// An empty delta anchored to this design's current slot-vector lengths.
    fn empty_delta(&self) -> DesignDelta {
        DesignDelta::new(self.fus.len(), self.registers.len())
    }

    /// Restructured-mux annotations that become stale when `remove` leaves
    /// the allocation, as delta drop entries.
    fn stale_fu_sinks(&self, remove: FuId) -> Vec<(MuxSink, bool, bool)> {
        self.restructured
            .iter()
            .filter(|sink| matches!(sink, MuxSink::FuInput { fu, .. } if *fu == remove))
            .map(|&sink| (sink, true, false))
            .collect()
    }

    /// Restructured-mux annotations that become stale when `remove` leaves
    /// the register allocation.
    fn stale_register_sinks(&self, remove: RegId) -> Vec<(MuxSink, bool, bool)> {
        self.restructured
            .iter()
            .filter(|sink| matches!(sink, MuxSink::RegisterInput { reg } if *reg == remove))
            .map(|&sink| (sink, true, false))
            .collect()
    }

    /// Resource sharing: every operation of `remove` is rebound onto `keep`
    /// and `remove` disappears from the allocation.
    ///
    /// # Errors
    ///
    /// Fails if either unit is unknown, the units are the same, or their
    /// classes differ.
    pub fn share_fus(&mut self, keep: FuId, remove: FuId) -> Result<DesignDelta, RtlError> {
        if keep == remove {
            return Err(RtlError::UnknownResource {
                what: format!("sharing {keep} with itself"),
            });
        }
        let keep_unit = self.functional_unit(keep)?.clone();
        let remove_unit = self.functional_unit(remove)?.clone();
        if keep_unit.class != remove_unit.class {
            return Err(RtlError::ClassMismatch {
                keep: keep_unit.class,
                remove: remove_unit.class,
            });
        }
        let mut delta = self.empty_delta();
        for (index, binding) in self.op_binding.iter().enumerate() {
            if *binding == Some(remove) {
                delta
                    .op_bindings
                    .push((NodeId::new(index), Some(remove), Some(keep)));
            }
        }
        let widened = FunctionalUnit {
            width: keep_unit.width.max(remove_unit.width),
            ..keep_unit.clone()
        };
        delta.fus.push(FuSlotChange {
            id: keep,
            before: Some(keep_unit),
            after: Some(widened),
        });
        delta.fus.push(FuSlotChange {
            id: remove,
            before: Some(remove_unit),
            after: None,
        });
        delta.restructured = self.stale_fu_sinks(remove);
        self.apply_delta(&delta);
        Ok(delta)
    }

    /// Resource splitting: the listed operations move from `fu` onto a new
    /// unit of the same class and module variant.
    ///
    /// # Errors
    ///
    /// Fails if `fu` is unknown, the list is empty, no listed operation is
    /// bound to `fu`, or every operation of `fu` would move (which would just
    /// rename the unit).
    pub fn split_fu(
        &mut self,
        cdfg: &Cdfg,
        fu: FuId,
        ops: &[NodeId],
    ) -> Result<DesignDelta, RtlError> {
        let unit = self.functional_unit(fu)?.clone();
        let moving: Vec<NodeId> = ops
            .iter()
            .copied()
            .filter(|&n| self.fu_of(n) == Some(fu))
            .collect();
        let staying = self.ops_on_iter(fu).count() - moving.len();
        if moving.is_empty() || staying == 0 {
            return Err(RtlError::EmptySplit);
        }
        let width = moving
            .iter()
            .map(|&n| {
                cdfg.node(n)
                    .defines
                    .map(|v| cdfg.variable(v).width)
                    .unwrap_or(unit.width)
            })
            .max()
            .unwrap_or(unit.width);
        let mut delta = self.empty_delta();
        let new_id = FuId(self.fus.len());
        delta.fus.push(FuSlotChange {
            id: new_id,
            before: None,
            after: Some(FunctionalUnit {
                class: unit.class,
                module: unit.module,
                width,
            }),
        });
        for node in moving {
            delta.op_bindings.push((node, Some(fu), Some(new_id)));
        }
        self.apply_delta(&delta);
        Ok(delta)
    }

    /// Module substitution: `fu` switches to a different library variant of
    /// the same class.
    ///
    /// # Errors
    ///
    /// Fails if the unit is unknown or the variant implements another class.
    pub fn substitute_module(
        &mut self,
        library: &ModuleLibrary,
        fu: FuId,
        module: ModuleId,
    ) -> Result<DesignDelta, RtlError> {
        let unit = self.functional_unit(fu)?.clone();
        let variant_class = library.variant(module).class;
        if unit.class != variant_class {
            return Err(RtlError::WrongModuleClass {
                unit: unit.class,
                variant: variant_class,
            });
        }
        let mut delta = self.empty_delta();
        if unit.module != module {
            let substituted = FunctionalUnit {
                module,
                ..unit.clone()
            };
            delta.fus.push(FuSlotChange {
                id: fu,
                before: Some(unit),
                after: Some(substituted),
            });
        }
        self.apply_delta(&delta);
        Ok(delta)
    }

    /// Register sharing: the variables of `remove` move into `keep`.
    ///
    /// # Errors
    ///
    /// Fails if either register is unknown or they are the same register.
    pub fn share_registers(&mut self, keep: RegId, remove: RegId) -> Result<DesignDelta, RtlError> {
        if keep == remove {
            return Err(RtlError::UnknownResource {
                what: format!("sharing {keep} with itself"),
            });
        }
        let removed = self.register(remove)?.clone();
        let kept = self.register(keep)?.clone();
        let mut delta = self.empty_delta();
        for (index, binding) in self.var_binding.iter().enumerate() {
            if *binding == remove {
                delta.var_bindings.push((VarId::new(index), remove, keep));
            }
        }
        let merged = Register {
            variables: kept
                .variables
                .iter()
                .chain(&*removed.variables)
                .copied()
                .collect(),
            width: kept.width.max(removed.width),
        };
        delta.registers.push(RegSlotChange {
            id: keep,
            before: Some(kept),
            after: Some(merged),
        });
        delta.registers.push(RegSlotChange {
            id: remove,
            before: Some(removed),
            after: None,
        });
        delta.restructured = self.stale_register_sinks(remove);
        self.apply_delta(&delta);
        Ok(delta)
    }

    /// Register splitting: the listed variables move out of `reg` into a new
    /// register.
    ///
    /// # Errors
    ///
    /// Fails if `reg` is unknown, no listed variable lives in it, or all of
    /// them would move.
    pub fn split_register(
        &mut self,
        cdfg: &Cdfg,
        reg: RegId,
        vars: &[VarId],
    ) -> Result<DesignDelta, RtlError> {
        let current = self.register(reg)?.clone();
        let moving: Vec<VarId> = vars
            .iter()
            .copied()
            .filter(|&v| self.register_of(v) == reg)
            .collect();
        if moving.is_empty() || moving.len() == current.variables.len() {
            return Err(RtlError::EmptySplit);
        }
        let width = moving
            .iter()
            .map(|&v| cdfg.variable(v).width)
            .max()
            .unwrap_or(current.width);
        let mut delta = self.empty_delta();
        let new_id = RegId(self.registers.len());
        for &v in &moving {
            delta.var_bindings.push((v, reg, new_id));
        }
        let remaining = Register {
            variables: current
                .variables
                .iter()
                .copied()
                .filter(|v| !moving.contains(v))
                .collect(),
            width: current.width,
        };
        delta.registers.push(RegSlotChange {
            id: reg,
            before: Some(current),
            after: Some(remaining),
        });
        delta.registers.push(RegSlotChange {
            id: new_id,
            before: None,
            after: Some(Register {
                variables: moving.into(),
                width,
            }),
        });
        self.apply_delta(&delta);
        Ok(delta)
    }

    /// Replays a delta onto a design in the delta's pre-move state: slot
    /// vectors grow as needed and every touched entry takes its `after`
    /// value. Applying a delta produced by one of the mutation methods above
    /// reproduces that mutation exactly.
    pub fn apply_delta(&mut self, delta: &DesignDelta) {
        #[cfg(debug_assertions)]
        let patched = delta.patched_fingerprint(self.fingerprint());
        for change in &delta.fus {
            if self.fus.len() <= change.id.0 {
                self.fus.resize(change.id.0 + 1, None);
            }
            self.fus[change.id.0] = change.after.clone();
        }
        for change in &delta.registers {
            if self.registers.len() <= change.id.0 {
                self.registers.resize(change.id.0 + 1, None);
            }
            self.registers[change.id.0] = change.after.clone();
        }
        for &(node, _, after) in &delta.op_bindings {
            self.op_binding[node.index()] = after;
        }
        for &(var, _, after) in &delta.var_bindings {
            self.var_binding[var.index()] = after;
        }
        for &(sink, _, after) in &delta.restructured {
            if after {
                self.restructured.insert(sink);
            } else {
                self.restructured.remove(&sink);
            }
        }
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            self.fingerprint(),
            patched,
            "apply_delta: the XOR-patched fingerprint must equal a recompute of the mutated design"
        );
    }

    /// Undoes a delta: every touched entry takes its `before` value and slot
    /// vectors are truncated back to their pre-move lengths, restoring the
    /// *exact* pre-move design (field-for-field equality, not just
    /// structural equivalence).
    pub fn revert_delta(&mut self, delta: &DesignDelta) {
        // The XOR patch is an involution, so patching the post-move
        // fingerprint yields the pre-move one the revert must restore.
        #[cfg(debug_assertions)]
        let pre_move = delta.patched_fingerprint(self.fingerprint());
        debug_assert!(
            self.fus.len() >= delta.fu_slots_before
                && self.registers.len() >= delta.reg_slots_before,
            "revert_delta: the design must be in the delta's post-move state"
        );
        for change in &delta.fus {
            if change.id.0 < delta.fu_slots_before {
                self.fus[change.id.0] = change.before.clone();
            }
        }
        self.fus.truncate(delta.fu_slots_before);
        for change in &delta.registers {
            if change.id.0 < delta.reg_slots_before {
                self.registers[change.id.0] = change.before.clone();
            }
        }
        self.registers.truncate(delta.reg_slots_before);
        for &(node, before, _) in &delta.op_bindings {
            self.op_binding[node.index()] = before;
        }
        for &(var, before, _) in &delta.var_bindings {
            self.var_binding[var.index()] = before;
        }
        for &(sink, before, _) in &delta.restructured {
            if before {
                self.restructured.insert(sink);
            } else {
                self.restructured.remove(&sink);
            }
        }
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            self.fingerprint(),
            pre_move,
            "revert_delta: reverting must restore the exact pre-move fingerprint"
        );
    }

    // ------------------------------------------------------------ analyses

    /// Structural fingerprint of the design: a deterministic digest of the
    /// allocation, binding, module selection and mux-shape annotations. Two
    /// designs with equal fingerprints evaluate identically, which is what
    /// lets the engine memoize scheduling and power results by design.
    ///
    /// The digest is the XOR of one independent component digest per
    /// occupied slot, binding entry and annotation (each embedding its
    /// position and a section tag), which is what makes it *incrementally
    /// updatable*: [`Self::fingerprint_update`] patches a parent's digest
    /// from a [`DesignDelta`] instead of re-hashing the whole design.
    pub fn fingerprint(&self) -> crate::DesignFingerprint {
        let mut bits = fingerprint_seed();
        for (index, slot) in self.fus.iter().enumerate() {
            if let Some(unit) = slot {
                bits ^= fu_component(index, unit);
            }
        }
        for (index, slot) in self.registers.iter().enumerate() {
            if let Some(reg) = slot {
                bits ^= reg_component(index, reg);
            }
        }
        for (index, binding) in self.op_binding.iter().enumerate() {
            bits ^= op_binding_component(index, *binding);
        }
        for (index, &reg) in self.var_binding.iter().enumerate() {
            bits ^= var_binding_component(index, reg);
        }
        for &sink in &self.restructured {
            bits ^= restructured_component(sink);
        }
        crate::DesignFingerprint::from_u128(bits)
    }

    /// Patches a parent design's fingerprint into the fingerprint of the
    /// design obtained by applying `delta` — only the touched components are
    /// hashed. Bit-identical to [`Self::fingerprint`] on the mutated design.
    pub fn fingerprint_update(
        base: crate::DesignFingerprint,
        delta: &DesignDelta,
    ) -> crate::DesignFingerprint {
        delta.patched_fingerprint(base)
    }

    /// Per-node module delays (no interconnect), in nanoseconds, at the
    /// reference supply. Structural nodes cost one mux delay, `EndLoop` is
    /// free.
    pub fn node_module_delays(&self, cdfg: &Cdfg, library: &ModuleLibrary) -> Vec<f64> {
        cdfg.nodes()
            .map(|(id, _)| self.node_module_delay(cdfg, library, id))
            .collect()
    }

    /// Module delay of one node (the per-node piece of
    /// [`Self::node_module_delays`], used by delta-patched evaluation to
    /// refresh only the nodes a move touched).
    pub fn node_module_delay(&self, cdfg: &Cdfg, library: &ModuleLibrary, node: NodeId) -> f64 {
        match self.fu_of(node) {
            Some(fu) => {
                let unit = self
                    .functional_unit(fu)
                    .expect("binding references active units");
                library.variant(unit.module).delay_for_width(unit.width)
            }
            None => {
                if cdfg.node(node).operation == Operation::EndLoop {
                    0.0
                } else {
                    library.mux2().delay_ns
                }
            }
        }
    }

    /// Enumerates every multiplexer site of the datapath: each
    /// functional-unit data input port and each register input where two or
    /// more distinct sources meet. A sink with one source needs no mux and
    /// is not a site. Sites come in [`MuxSink`] order.
    pub fn mux_sites(&self, cdfg: &Cdfg) -> Vec<MuxSite> {
        // Group the bindings once: the per-unit (and per-register) scans over
        // the whole design were quadratic, and site enumeration runs once per
        // evaluated candidate. Grouping in node order reproduces the scans'
        // enumeration order exactly.
        let ops_per_fu = self.ops_by_unit();
        let mut writers_per_reg: Vec<Vec<NodeId>> = vec![Vec::new(); self.registers.len()];
        for (node_id, node) in cdfg.nodes() {
            if let Some(defined) = node.defines {
                writers_per_reg[self.register_of(defined).index()].push(node_id);
            }
        }
        let mut sites = Vec::new();
        for (fu_id, unit) in self.functional_units() {
            self.push_fu_sites(cdfg, fu_id, unit, &ops_per_fu[fu_id.index()], &mut sites);
        }
        for (reg_id, reg) in self.registers() {
            sites.extend(self.register_site(cdfg, reg_id, reg, &writers_per_reg[reg_id.index()]));
        }
        sites
    }

    /// The sinks of the mux sites, in [`MuxSink`] order: the sinks of
    /// [`Self::mux_sites`], found by sorting every (sink, source) pair
    /// instead of building the sites' source lists.
    pub fn multi_source_sinks(&self, cdfg: &Cdfg) -> Vec<MuxSink> {
        let mut max_ports = vec![0; self.fus.len()];
        for (node_id, fu) in self.bound_ops() {
            let arity = cdfg.node(node_id).operation.arity();
            max_ports[fu.index()] = max_ports[fu.index()].max(arity);
        }
        let mut pairs: Vec<(MuxSink, SignalKey)> = Vec::with_capacity(2 * cdfg.node_count());
        for (node_id, fu) in self.bound_ops() {
            for port in 0..max_ports[fu.index()] {
                if let Some(key) = self.port_key(cdfg, node_id, port) {
                    let sink = MuxSink::FuInput {
                        fu,
                        port: port as u8,
                    };
                    pairs.push((sink, key));
                }
            }
        }
        for (node_id, node) in cdfg.nodes() {
            if let Some(defined) = node.defines {
                let sink = MuxSink::RegisterInput {
                    reg: self.register_of(defined),
                };
                pairs.extend(self.writer_keys(cdfg, node_id).map(|key| (sink, key)));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut sinks: Vec<MuxSink> = pairs
            .windows(2)
            .filter(|pair| pair[0].0 == pair[1].0)
            .map(|pair| pair[0].0)
            .collect();
        sinks.dedup();
        sinks
    }

    /// The restructuring annotations `delta`, the move that produced this
    /// design, left stranded: annotated sinks that are no longer
    /// multi-source mux sites, in [`Self::restructured_sites`] order. Only
    /// the sites in the move's site scope (the rule of
    /// [`Self::derive_mux_sites`]) can have changed, so only the annotated
    /// sinks among them are checked; every other annotation is as valid as
    /// it was before the move.
    pub fn stale_annotations(&self, cdfg: &Cdfg, delta: &DesignDelta) -> Vec<MuxSink> {
        let scope = delta.site_scope(cdfg, self);
        self.restructured_sites()
            .filter(|&sink| scope.contains(sink) && !self.is_multi_source(cdfg, sink))
            .collect()
    }

    /// Whether the site at `sink` has two or more distinct sources: whether
    /// [`Self::multi_source_sinks`] lists it, decided for one sink.
    fn is_multi_source(&self, cdfg: &Cdfg, sink: MuxSink) -> bool {
        match sink {
            MuxSink::FuInput { fu, port } => {
                self.functional_unit(fu).is_ok()
                    && two_distinct(
                        self.ops_on_iter(fu)
                            .filter_map(|op| self.port_key(cdfg, op, usize::from(port))),
                    )
            }
            MuxSink::RegisterInput { reg } => self.register(reg).is_ok_and(|register| {
                two_distinct(
                    register
                        .variables
                        .iter()
                        .flat_map(|&var| cdfg.definers_of(var))
                        .flat_map(|&writer| self.writer_keys(cdfg, writer)),
                )
            }),
        }
    }

    /// Every bound operation with its unit, in node order.
    fn bound_ops(&self) -> impl Iterator<Item = (NodeId, FuId)> + '_ {
        self.op_binding
            .iter()
            .enumerate()
            .filter_map(|(index, binding)| binding.map(|fu| (NodeId::new(index), fu)))
    }

    /// The candidate's mux sites (in [`MuxSink`] order) derived from its
    /// parent's: `parent` is the pre-move design's [`Self::mux_sites`] list,
    /// and `delta` the move that turned that design into `self`. Only the
    /// sites of the resources whose sites the move may have changed are
    /// enumerated again (the rule is `DesignDelta::site_scope`); every other
    /// parent site is kept by position. Equal to [`Self::mux_sites`].
    pub fn derive_mux_sites<S: Borrow<MuxSite>>(
        &self,
        cdfg: &Cdfg,
        parent: &[S],
        delta: &DesignDelta,
    ) -> Vec<DerivedSite> {
        let scope = delta.site_scope(cdfg, self);
        let mut fresh = Vec::new();
        for &fu in &scope.fus {
            if let Ok(unit) = self.functional_unit(fu) {
                let ops: Vec<NodeId> = self.ops_on_iter(fu).collect();
                self.push_fu_sites(cdfg, fu, unit, &ops, &mut fresh);
            }
        }
        for &reg in &scope.registers {
            if let Ok(register) = self.register(reg) {
                let mut writers: Vec<NodeId> = register
                    .variables
                    .iter()
                    .flat_map(|&var| cdfg.definers_of(var))
                    .copied()
                    .collect();
                writers.sort_unstable();
                fresh.extend(self.register_site(cdfg, reg, register, &writers));
            }
        }
        let mut fresh = fresh.into_iter().peekable();
        let mut derived = Vec::with_capacity(parent.len() + 1);
        for (index, site) in parent.iter().enumerate() {
            let sink = site.borrow().sink;
            while let Some(site) = fresh.next_if(|f| f.sink < sink) {
                derived.push(DerivedSite::Fresh { site, parent: None });
            }
            if !scope.contains(sink) {
                derived.push(DerivedSite::Kept(index));
            } else if let Some(site) = fresh.next_if(|f| f.sink == sink) {
                derived.push(DerivedSite::Fresh {
                    site,
                    parent: Some(index),
                });
            }
        }
        derived.extend(fresh.map(|site| DerivedSite::Fresh { site, parent: None }));
        derived
    }

    /// Appends the sites in front of one unit's data ports, in port order:
    /// the ports two or more distinct sources reach. `ops` are the
    /// operations bound to the unit, in node order.
    fn push_fu_sites(
        &self,
        cdfg: &Cdfg,
        fu: FuId,
        unit: &FunctionalUnit,
        ops: &[NodeId],
        sites: &mut Vec<MuxSite>,
    ) {
        let max_ports = ops
            .iter()
            .map(|&n| cdfg.node(n).operation.arity())
            .max()
            .unwrap_or(0);
        for port in 0..max_ports {
            let mut by_key: BTreeMap<SignalKey, Vec<NodeId>> = BTreeMap::new();
            for &op in ops {
                if let Some(key) = self.port_key(cdfg, op, port) {
                    by_key.entry(key).or_default().push(op);
                }
            }
            if by_key.len() < 2 {
                continue;
            }
            sites.push(MuxSite {
                sink: MuxSink::FuInput {
                    fu,
                    port: port as u8,
                },
                sources: into_sources(by_key),
                width: unit.width,
            });
        }
    }

    /// The site in front of one register's data input, when more than one
    /// distinct source writes it. `writers` are the nodes defining the
    /// register's variables, in node order.
    fn register_site(
        &self,
        cdfg: &Cdfg,
        reg: RegId,
        register: &Register,
        writers: &[NodeId],
    ) -> Option<MuxSite> {
        let mut by_key: BTreeMap<SignalKey, Vec<NodeId>> = BTreeMap::new();
        for &node_id in writers {
            for key in self.writer_keys(cdfg, node_id) {
                by_key.entry(key).or_default().push(node_id);
            }
        }
        (by_key.len() >= 2).then(|| MuxSite {
            sink: MuxSink::RegisterInput { reg },
            sources: into_sources(by_key),
            width: register.width,
        })
    }

    /// The signal data port `port` of `op`'s unit reads when `op` runs, if
    /// `op` has that input.
    fn port_key(&self, cdfg: &Cdfg, op: NodeId, port: usize) -> Option<SignalKey> {
        let &edge = cdfg.node(op).inputs.get(port)?;
        Some(self.signal_key(cdfg, cdfg.edge(edge).value))
    }

    /// The signals a writer routes into its register: a bound operation
    /// writes its unit's output; a structural writer routes the sources of
    /// its data inputs.
    fn writer_keys<'a>(
        &'a self,
        cdfg: &'a Cdfg,
        writer: NodeId,
    ) -> impl Iterator<Item = SignalKey> + 'a {
        let fu = self.fu_of(writer);
        let routed: &[EdgeId] = match fu {
            Some(_) => &[],
            None => &cdfg.node(writer).inputs,
        };
        fu.map(SignalKey::FuOutput).into_iter().chain(
            routed
                .iter()
                .map(move |&edge| self.signal_key(cdfg, cdfg.edge(edge).value)),
        )
    }

    fn signal_key(&self, _cdfg: &Cdfg, value: ValueRef) -> SignalKey {
        match value {
            ValueRef::Const(c) => SignalKey::Constant(c),
            ValueRef::Var(v) => SignalKey::Register(self.register_of(v)),
        }
    }

    /// Datapath area in equivalent gates: functional units, registers and
    /// 2-to-1 multiplexers (the controller is modelled separately, on top of
    /// the STG).
    pub fn datapath_area(&self, cdfg: &Cdfg, library: &ModuleLibrary) -> f64 {
        self.datapath_area_with_sites(library, &self.mux_sites(cdfg))
    }

    /// [`Self::datapath_area`] over a caller-provided mux-site list (the
    /// design's [`Self::mux_sites`]), so evaluation paths that already
    /// enumerated the sites (context building, delta patching) do not
    /// enumerate them again.
    pub fn datapath_area_with_sites<S: Borrow<MuxSite>>(
        &self,
        library: &ModuleLibrary,
        sites: &[S],
    ) -> f64 {
        let fu_area: f64 = self
            .functional_units()
            .map(|(_, f)| library.variant(f.module).area_for_width(f.width))
            .sum();
        let reg_area: f64 = self
            .registers()
            .map(|(_, r)| library.register().area_for_width(r.width))
            .sum();
        let mux_area: f64 = sites
            .iter()
            .map(Borrow::borrow)
            .map(|site: &MuxSite| {
                site.mux_count() as f64 * library.mux2().area_for_width(site.width)
            })
            .sum();
        fu_area + reg_area + mux_area
    }
}

/// Whether `keys` yields two distinct signals.
fn two_distinct(mut keys: impl Iterator<Item = SignalKey>) -> bool {
    let Some(first) = keys.next() else {
        return false;
    };
    keys.any(|key| key != first)
}

/// A site's sources from its signal-key grouping, in key order.
fn into_sources(by_key: BTreeMap<SignalKey, Vec<NodeId>>) -> Vec<SignalSource> {
    by_key
        .into_iter()
        .map(|(key, ops)| SignalSource { key, ops })
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use impact_hdl::compile;

    fn gcd() -> Cdfg {
        compile(
            "design gcd { input a: 8, b: 8; output r: 8; var x: 8; var y: 8;
               x = a; y = b;
               while (x != y) { if (x > y) { x = x - y; } else { y = y - x; } }
               r = x; }",
        )
        .unwrap()
    }

    fn adders(design: &RtlDesign) -> Vec<FuId> {
        design.units_of_class(OpClass::AddSub)
    }

    #[test]
    fn initial_parallel_gives_one_unit_per_operation_and_register_per_variable() {
        let cdfg = gcd();
        let lib = ModuleLibrary::standard();
        let design = RtlDesign::initial_parallel(&cdfg, &lib);
        let fu_ops = cdfg
            .nodes()
            .filter(|(_, n)| n.operation.needs_functional_unit())
            .count();
        assert_eq!(design.fu_count(), fu_ops);
        assert_eq!(design.register_count(), cdfg.variable_count());
        // Every unit uses the fastest variant for its class.
        for (_, unit) in design.functional_units() {
            assert_eq!(
                lib.variant(unit.module).name,
                lib.fastest(unit.class).unwrap().name
            );
        }
    }

    #[test]
    fn sharing_units_rebinds_operations_and_shrinks_the_allocation() {
        let cdfg = gcd();
        let lib = ModuleLibrary::standard();
        let mut design = RtlDesign::initial_parallel(&cdfg, &lib);
        let adds = adders(&design);
        assert!(adds.len() >= 2, "GCD has two subtractions");
        let before_area = design.datapath_area(&cdfg, &lib);
        design.share_fus(adds[0], adds[1]).unwrap();
        assert_eq!(
            design.fu_count(),
            cdfg.nodes()
                .filter(|(_, n)| n.operation.needs_functional_unit())
                .count()
                - 1
        );
        assert_eq!(design.ops_on(adds[0]).len(), 2);
        assert!(design.functional_unit(adds[1]).is_err());
        let after_area = design.datapath_area(&cdfg, &lib);
        assert!(after_area < before_area, "one fewer adder means less area");
    }

    #[test]
    fn sharing_different_classes_is_rejected() {
        let cdfg = gcd();
        let lib = ModuleLibrary::standard();
        let mut design = RtlDesign::initial_parallel(&cdfg, &lib);
        let add = adders(&design)[0];
        let cmp = design.units_of_class(OpClass::Compare)[0];
        assert!(matches!(
            design.share_fus(add, cmp),
            Err(RtlError::ClassMismatch { .. })
        ));
        assert!(matches!(
            design.share_fus(add, add),
            Err(RtlError::UnknownResource { .. })
        ));
    }

    #[test]
    fn splitting_reverses_sharing() {
        let cdfg = gcd();
        let lib = ModuleLibrary::standard();
        let mut design = RtlDesign::initial_parallel(&cdfg, &lib);
        let adds = adders(&design);
        design.share_fus(adds[0], adds[1]).unwrap();
        let shared_ops = design.ops_on(adds[0]);
        assert_eq!(shared_ops.len(), 2);
        let delta = design.split_fu(&cdfg, adds[0], &shared_ops[1..]).unwrap();
        let new_fu = delta.created_fu().expect("the split created a unit");
        assert_eq!(design.ops_on(adds[0]).len(), 1);
        assert_eq!(design.ops_on(new_fu).len(), 1);
        assert!(matches!(
            design.split_fu(&cdfg, adds[0], &[]),
            Err(RtlError::EmptySplit)
        ));
    }

    #[test]
    fn module_substitution_swaps_variants_of_the_same_class_only() {
        let cdfg = gcd();
        let lib = ModuleLibrary::standard();
        let mut design = RtlDesign::initial_parallel(&cdfg, &lib);
        let add = adders(&design)[0];
        let ripple = lib.variant_by_name("ripple_adder").unwrap();
        design.substitute_module(&lib, add, ripple).unwrap();
        assert_eq!(design.functional_unit(add).unwrap().module, ripple);
        let wallace = lib.variant_by_name("wallace_multiplier").unwrap();
        assert!(matches!(
            design.substitute_module(&lib, add, wallace),
            Err(RtlError::WrongModuleClass { .. })
        ));
    }

    #[test]
    fn register_sharing_and_splitting_track_variables() {
        let cdfg = gcd();
        let lib = ModuleLibrary::standard();
        let mut design = RtlDesign::initial_parallel(&cdfg, &lib);
        let x = cdfg.variable_by_name("x").unwrap();
        let y = cdfg.variable_by_name("y").unwrap();
        let rx = design.register_of(x);
        let ry = design.register_of(y);
        design.share_registers(rx, ry).unwrap();
        assert_eq!(design.register_of(y), rx);
        assert_eq!(design.register(rx).unwrap().variables.len(), 2);
        assert!(design.register(ry).is_err());
        let delta = design.split_register(&cdfg, rx, &[y]).unwrap();
        let new_reg = delta
            .created_register()
            .expect("the split created a register");
        assert_eq!(design.register_of(y), new_reg);
        assert_eq!(*design.register(rx).unwrap().variables, [x]);
    }

    #[test]
    fn sharing_units_increases_mux_fan_in() {
        let cdfg = gcd();
        let lib = ModuleLibrary::standard();
        let mut design = RtlDesign::initial_parallel(&cdfg, &lib);
        let adds = adders(&design);
        let fan_in_before: usize = design
            .mux_sites(&cdfg)
            .iter()
            .filter(|s| matches!(s.sink, MuxSink::FuInput { fu, .. } if fu == adds[0]))
            .map(MuxSite::fan_in)
            .sum();
        design.share_fus(adds[0], adds[1]).unwrap();
        let fan_in_after: usize = design
            .mux_sites(&cdfg)
            .iter()
            .filter(|s| matches!(s.sink, MuxSink::FuInput { fu, .. } if fu == adds[0]))
            .map(MuxSite::fan_in)
            .sum();
        assert!(
            fan_in_after > fan_in_before,
            "sharing routes more signals into the kept unit ({fan_in_before} -> {fan_in_after})"
        );
    }

    #[test]
    fn register_mux_sites_appear_for_multiply_written_registers() {
        let cdfg = gcd();
        let lib = ModuleLibrary::standard();
        let design = RtlDesign::initial_parallel(&cdfg, &lib);
        // x is written by the initial move, the subtraction and the Sel, so
        // its register needs a mux.
        let x = cdfg.variable_by_name("x").unwrap();
        let rx = design.register_of(x);
        let sites = design.mux_sites(&cdfg);
        assert!(sites
            .iter()
            .any(|s| s.sink == MuxSink::RegisterInput { reg: rx }));
    }

    #[test]
    fn restructure_annotations_follow_their_sites() {
        let cdfg = gcd();
        let lib = ModuleLibrary::standard();
        let mut design = RtlDesign::initial_parallel(&cdfg, &lib);
        let adds = adders(&design);
        let sink = MuxSink::FuInput {
            fu: adds[1],
            port: 0,
        };
        design.set_restructured(sink, true);
        assert!(design.is_restructured(sink));
        // Sharing away the unit drops the stale annotation.
        design.share_fus(adds[0], adds[1]).unwrap();
        assert!(!design.is_restructured(sink));
        assert_eq!(design.restructured_sites().count(), 0);
    }

    #[test]
    fn scheduler_binding_matches_fu_assignment() {
        let cdfg = gcd();
        let lib = ModuleLibrary::standard();
        let design = RtlDesign::initial_parallel(&cdfg, &lib);
        let binding = design.scheduler_binding();
        for (id, node) in cdfg.nodes() {
            assert_eq!(
                binding[id.index()].is_some(),
                node.operation.needs_functional_unit()
            );
        }
    }

    #[test]
    fn fingerprints_identify_structural_identity() {
        let cdfg = gcd();
        let lib = ModuleLibrary::standard();
        let design = RtlDesign::initial_parallel(&cdfg, &lib);
        // Identical construction gives identical fingerprints.
        assert_eq!(
            design.fingerprint(),
            RtlDesign::initial_parallel(&cdfg, &lib).fingerprint()
        );
        // Every mutation kind changes the digest.
        let base = design.fingerprint();
        let mut shared = design.clone();
        let adds = adders(&shared);
        shared.share_fus(adds[0], adds[1]).unwrap();
        assert_ne!(shared.fingerprint(), base);
        let mut substituted = design.clone();
        substituted
            .substitute_module(&lib, adds[0], lib.variant_by_name("ripple_adder").unwrap())
            .unwrap();
        assert_ne!(substituted.fingerprint(), base);
        let mut restructured = design.clone();
        restructured.set_restructured(
            MuxSink::FuInput {
                fu: adds[0],
                port: 0,
            },
            true,
        );
        assert_ne!(restructured.fingerprint(), base);
        // Undoing the annotation restores the original digest.
        restructured.set_restructured(
            MuxSink::FuInput {
                fu: adds[0],
                port: 0,
            },
            false,
        );
        assert_eq!(restructured.fingerprint(), base);
    }

    /// Every mutation kind applied once, as `(description, delta)` pairs,
    /// leaving `design` in the final state.
    fn apply_all_move_kinds(
        cdfg: &Cdfg,
        design: &mut RtlDesign,
    ) -> Vec<(&'static str, super::DesignDelta)> {
        let lib = ModuleLibrary::standard();
        let mut deltas = Vec::new();
        let adds = adders(design);
        deltas.push(("share_fus", design.share_fus(adds[0], adds[1]).unwrap()));
        deltas.push((
            "substitute_module",
            design
                .substitute_module(&lib, adds[0], lib.variant_by_name("ripple_adder").unwrap())
                .unwrap(),
        ));
        let sink = MuxSink::FuInput {
            fu: adds[0],
            port: 0,
        };
        deltas.push(("restructure", design.set_restructured_delta(sink, true)));
        let x = cdfg.variable_by_name("x").unwrap();
        let y = cdfg.variable_by_name("y").unwrap();
        let rx = design.register_of(x);
        let ry = design.register_of(y);
        deltas.push(("share_registers", design.share_registers(rx, ry).unwrap()));
        deltas.push((
            "split_register",
            design.split_register(cdfg, rx, &[y]).unwrap(),
        ));
        let shared_ops = design.ops_on(adds[0]);
        deltas.push((
            "split_fu",
            design.split_fu(cdfg, adds[0], &shared_ops[1..]).unwrap(),
        ));
        deltas
    }

    #[test]
    fn deltas_revert_to_the_exact_pre_move_design() {
        let cdfg = gcd();
        let lib = ModuleLibrary::standard();
        let mut design = RtlDesign::initial_parallel(&cdfg, &lib);
        let original = design.clone();
        let deltas = apply_all_move_kinds(&cdfg, &mut design);
        assert_ne!(design, original);
        for (kind, delta) in deltas.iter().rev() {
            assert!(!delta.is_empty(), "{kind} must record its changes");
            design.revert_delta(delta);
        }
        assert_eq!(design, original, "reverting in reverse order is exact");
        assert_eq!(design.fingerprint(), original.fingerprint());
    }

    #[test]
    fn applying_a_delta_reproduces_the_mutation() {
        let cdfg = gcd();
        let lib = ModuleLibrary::standard();
        let mut design = RtlDesign::initial_parallel(&cdfg, &lib);
        let twin = design.clone();
        let deltas = apply_all_move_kinds(&cdfg, &mut design);
        let mut replayed = twin;
        for (_, delta) in &deltas {
            replayed.apply_delta(delta);
        }
        assert_eq!(replayed, design);
    }

    #[test]
    fn incremental_fingerprints_match_full_recomputation() {
        let cdfg = gcd();
        let lib = ModuleLibrary::standard();
        let mut design = RtlDesign::initial_parallel(&cdfg, &lib);
        let mut running = design.fingerprint();
        let before = design.clone();
        let deltas = apply_all_move_kinds(&cdfg, &mut design);
        for (kind, delta) in &deltas {
            running = RtlDesign::fingerprint_update(running, delta);
            let _ = kind;
        }
        assert_eq!(running, design.fingerprint());
        // Reverting patches backwards too (XOR is self-inverse).
        for (_, delta) in deltas.iter().rev() {
            design.revert_delta(delta);
            // Recompute via patching the other way: patch with a delta whose
            // roles are swapped is equivalent to XOR-ing the same components,
            // so patching twice with the same delta round-trips.
            running = RtlDesign::fingerprint_update(running, delta);
        }
        assert_eq!(design, before);
        assert_eq!(running, before.fingerprint());
    }

    #[test]
    fn node_module_delays_reflect_module_choice() {
        let cdfg = gcd();
        let lib = ModuleLibrary::standard();
        let mut design = RtlDesign::initial_parallel(&cdfg, &lib);
        let add = adders(&design)[0];
        let fast = design.node_module_delays(&cdfg, &lib);
        design
            .substitute_module(&lib, add, lib.variant_by_name("ripple_adder").unwrap())
            .unwrap();
        let slow = design.node_module_delays(&cdfg, &lib);
        let op = design.ops_on(add)[0];
        assert!(slow[op.index()] > fast[op.index()]);
    }
}
