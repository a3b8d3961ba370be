//! The module library: a catalogue of characterized RT-level components.

use std::error::Error;
use std::fmt;

use impact_cdfg::OpClass;

use crate::variant::{DelayScaling, ModuleVariant};
use crate::voltage::VddScaling;

/// Identifier of a module variant inside a [`ModuleLibrary`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ModuleId(usize);

impl ModuleId {
    /// Raw index into the library.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ModuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Errors returned by library lookups.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LibraryError {
    /// No variant implements the requested functional-unit class.
    NoVariantForClass {
        /// The class that has no implementation.
        class: String,
    },
    /// No variant has the requested name.
    UnknownVariant {
        /// The requested name.
        name: String,
    },
}

impl fmt::Display for LibraryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LibraryError::NoVariantForClass { class } => {
                write!(f, "no module variant implements class {class}")
            }
            LibraryError::UnknownVariant { name } => {
                write!(f, "no module variant named `{name}`")
            }
        }
    }
}

impl Error for LibraryError {}

/// A catalogue of module variants plus register, multiplexer and
/// supply-voltage characterization.
#[derive(Clone, PartialEq, Debug)]
pub struct ModuleLibrary {
    variants: Vec<ModuleVariant>,
    register: ModuleVariant,
    mux2: ModuleVariant,
    vdd: VddScaling,
}

impl ModuleLibrary {
    /// Builds a library from explicit parts. Most users want
    /// [`ModuleLibrary::standard`].
    pub fn new(
        variants: Vec<ModuleVariant>,
        register: ModuleVariant,
        mux2: ModuleVariant,
        vdd: VddScaling,
    ) -> Self {
        Self {
            variants,
            register,
            mux2,
            vdd,
        }
    }

    /// The default characterization used throughout the experiments. Numbers
    /// are chosen so that the worked mux-restructuring example of Section
    /// 3.2.1 holds: a (fast) adder takes 10 ns, a 2-to-1 mux 3 ns, the clock
    /// is 15 ns and chaining costs 10 % per chained operation.
    pub fn standard() -> Self {
        use DelayScaling::{Constant, Linear, Logarithmic};
        use OpClass::{AddSub, Compare, Div, Logic, Mul, Shift};
        let variants = vec![
            ModuleVariant::new("ripple_adder", AddSub, 14.0, 48.0, 0.20, Linear),
            ModuleVariant::new("cla_adder", AddSub, 10.0, 90.0, 0.32, Logarithmic),
            ModuleVariant::new("array_multiplier", Mul, 36.0, 400.0, 1.80, Linear),
            ModuleVariant::new("wallace_multiplier", Mul, 24.0, 620.0, 2.40, Logarithmic),
            ModuleVariant::new("serial_divider", Div, 80.0, 220.0, 1.20, Linear),
            ModuleVariant::new("array_divider", Div, 40.0, 700.0, 2.60, Linear),
            ModuleVariant::new("ripple_comparator", Compare, 8.0, 30.0, 0.10, Linear),
            ModuleVariant::new("tree_comparator", Compare, 5.0, 55.0, 0.16, Logarithmic),
            ModuleVariant::new("logic_unit", Logic, 3.0, 16.0, 0.06, Constant),
            ModuleVariant::new("barrel_shifter", Shift, 6.0, 120.0, 0.40, Logarithmic),
        ];
        let register = ModuleVariant::new("register", OpClass::None, 2.0, 8.0, 0.08, Constant);
        let mux2 = ModuleVariant::new("mux2", OpClass::None, 3.0, 4.0, 0.06, Constant);
        Self::new(variants, register, mux2, VddScaling::standard())
    }

    /// Iterates over `(id, variant)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ModuleId, &ModuleVariant)> {
        self.variants
            .iter()
            .enumerate()
            .map(|(i, v)| (ModuleId(i), v))
    }

    /// Number of functional-unit variants (registers and muxes excluded).
    pub fn len(&self) -> usize {
        self.variants.len()
    }

    /// Returns `true` if the library holds no functional-unit variants.
    pub fn is_empty(&self) -> bool {
        self.variants.is_empty()
    }

    /// Returns the variant with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this library.
    pub fn variant(&self, id: ModuleId) -> &ModuleVariant {
        &self.variants[id.0]
    }

    /// Looks up a variant by name.
    ///
    /// # Errors
    ///
    /// Returns [`LibraryError::UnknownVariant`] when no variant has the name.
    pub fn variant_by_name(&self, name: &str) -> Result<ModuleId, LibraryError> {
        self.iter()
            .find(|(_, v)| v.name == name)
            .map(|(id, _)| id)
            .ok_or_else(|| LibraryError::UnknownVariant {
                name: name.to_string(),
            })
    }

    /// All variants implementing a class, sorted fastest first.
    pub fn variants_for(&self, class: OpClass) -> Vec<ModuleId> {
        let mut ids: Vec<ModuleId> = self
            .iter()
            .filter(|(_, v)| v.class == class)
            .map(|(id, _)| id)
            .collect();
        ids.sort_by(|&a, &b| {
            self.variant(a)
                .delay_ns
                .partial_cmp(&self.variant(b).delay_ns)
                .expect("delays are finite")
        });
        ids
    }

    /// Fastest variant for a class, or `None` when the class needs no
    /// functional unit or has no implementation.
    pub fn fastest(&self, class: OpClass) -> Option<&ModuleVariant> {
        self.variants_for(class).first().map(|&id| self.variant(id))
    }

    /// Fastest variant id for a class.
    pub fn fastest_id(&self, class: OpClass) -> Option<ModuleId> {
        self.variants_for(class).first().copied()
    }

    /// Smallest-area variant for a class.
    pub fn smallest(&self, class: OpClass) -> Option<&ModuleVariant> {
        self.smallest_id(class).map(|id| self.variant(id))
    }

    /// Smallest-area variant id for a class.
    pub fn smallest_id(&self, class: OpClass) -> Option<ModuleId> {
        self.iter()
            .filter(|(_, v)| v.class == class)
            .min_by(|(_, a), (_, b)| a.area.partial_cmp(&b.area).expect("areas are finite"))
            .map(|(id, _)| id)
    }

    /// The register characterization (per-bit area and capacitance are derived
    /// from the 8-bit reference via the usual width scaling).
    pub fn register(&self) -> &ModuleVariant {
        &self.register
    }

    /// The 2-to-1 multiplexer characterization used for mux trees.
    pub fn mux2(&self) -> &ModuleVariant {
        &self.mux2
    }

    /// The supply-voltage scaling model.
    pub fn vdd(&self) -> &VddScaling {
        &self.vdd
    }
}

impl Default for ModuleLibrary {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn standard_library_has_at_least_two_variants_per_arithmetic_class() {
        let lib = ModuleLibrary::standard();
        for class in [
            OpClass::AddSub,
            OpClass::Mul,
            OpClass::Div,
            OpClass::Compare,
        ] {
            assert!(
                lib.variants_for(class).len() >= 2,
                "class {class} needs at least two variants for module selection"
            );
        }
    }

    #[test]
    fn fastest_and_smallest_trade_off() {
        let lib = ModuleLibrary::standard();
        for class in [
            OpClass::AddSub,
            OpClass::Mul,
            OpClass::Div,
            OpClass::Compare,
        ] {
            let fast = lib.fastest(class).unwrap();
            let small = lib.smallest(class).unwrap();
            assert!(fast.delay_ns <= small.delay_ns);
            assert!(fast.area >= small.area);
        }
    }

    #[test]
    fn variant_lookup_by_name() {
        let lib = ModuleLibrary::standard();
        let id = lib.variant_by_name("wallace_multiplier").unwrap();
        assert_eq!(lib.variant(id).class, OpClass::Mul);
        assert!(matches!(
            lib.variant_by_name("flux_capacitor"),
            Err(LibraryError::UnknownVariant { .. })
        ));
    }

    #[test]
    fn paper_mux_example_characterization_holds() {
        // Section 3.2.1: adder 10 ns, mux 3 ns, clock 15 ns.
        let lib = ModuleLibrary::standard();
        assert!((lib.fastest(OpClass::AddSub).unwrap().delay_ns - 10.0).abs() < 1e-9);
        assert!((lib.mux2().delay_ns - 3.0).abs() < 1e-9);
        assert!((crate::DEFAULT_CLOCK_NS - 15.0).abs() < 1e-9);
    }

    #[test]
    fn no_functional_unit_class_has_no_variants() {
        let lib = ModuleLibrary::standard();
        assert!(lib.variants_for(OpClass::None).is_empty());
        assert!(lib.fastest(OpClass::None).is_none());
    }

    #[test]
    fn variants_for_returns_fastest_first() {
        let lib = ModuleLibrary::standard();
        let adders = lib.variants_for(OpClass::AddSub);
        assert!(lib.variant(adders[0]).delay_ns <= lib.variant(adders[1]).delay_ns);
    }

    #[test]
    fn library_is_not_empty_and_iterates_consistently() {
        let lib = ModuleLibrary::standard();
        assert!(!lib.is_empty());
        assert_eq!(lib.iter().count(), lib.len());
        for (id, v) in lib.iter() {
            assert_eq!(lib.variant(id).name, v.name);
        }
    }
}
