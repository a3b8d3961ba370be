//! The RT-level power and area estimator.

use std::borrow::Borrow;

use impact_cdfg::Cdfg;
use impact_modlib::{ModuleLibrary, VDD_REFERENCE};
use impact_rtl::{FuId, FunctionalUnit, MuxSite, MuxTree, RegId, Register, RtlDesign};
use impact_sched::SchedulingResult;
use impact_trace::RtTraces;

/// Technology and operating-point parameters of the estimator.
#[derive(Clone, PartialEq, Debug)]
pub struct PowerConfig {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Effective controller capacitance switched per cycle and per state of
    /// the FSM, in picofarads.
    pub controller_cap_per_state_pf: f64,
    /// Effective controller capacitance switched per cycle and per
    /// transition of the FSM, in picofarads.
    pub controller_cap_per_transition_pf: f64,
    /// Clock-network capacitance per register bit, switched every cycle, in
    /// picofarads.
    pub clock_cap_per_bit_pf: f64,
    /// Controller area in equivalent gates per state.
    pub controller_area_per_state: f64,
    /// Controller area in equivalent gates per transition.
    pub controller_area_per_transition: f64,
    /// Fraction of a functional unit's per-activation switching that it also
    /// pays in every cycle in which it is *idle* but its operand registers
    /// keep toggling (no operand isolation, as in the paper's technology).
    /// This is what makes resource sharing able to "reduce physical
    /// capacitance" in the cost function.
    pub idle_switching_fraction: f64,
}

impl Default for PowerConfig {
    fn default() -> Self {
        Self {
            vdd: VDD_REFERENCE,
            controller_cap_per_state_pf: 0.004,
            controller_cap_per_transition_pf: 0.0015,
            clock_cap_per_bit_pf: 0.0008,
            controller_area_per_state: 24.0,
            controller_area_per_transition: 6.0,
            idle_switching_fraction: 0.30,
        }
    }
}

impl PowerConfig {
    /// Returns a copy operating at a different supply voltage.
    pub fn at_vdd(mut self, vdd: f64) -> Self {
        self.vdd = vdd;
        self
    }

    /// Feeds the technology parameters that influence estimation into a
    /// content digest (the supply voltage is deliberately excluded: evaluation
    /// caches key supply-dependent results by the probed Vdd, and the config's
    /// own `vdd` field is overridden per probe via [`Self::at_vdd`]).
    pub fn fingerprint_into(&self, hasher: &mut impact_rtl::FingerprintHasher) {
        hasher.write_tag(0xB7);
        for parameter in [
            self.controller_cap_per_state_pf,
            self.controller_cap_per_transition_pf,
            self.clock_cap_per_bit_pf,
            self.controller_area_per_state,
            self.controller_area_per_transition,
            self.idle_switching_fraction,
        ] {
            hasher.write_f64(parameter);
        }
    }
}

/// Average power split over the RT-level structures, in milliwatts.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct PowerBreakdown {
    /// Functional units (adders, multipliers, comparators, …).
    pub functional_units_mw: f64,
    /// Registers.
    pub registers_mw: f64,
    /// Multiplexer networks (the interconnect the restructuring move attacks).
    pub multiplexers_mw: f64,
    /// Controller (FSM) power.
    pub controller_mw: f64,
    /// Clock network power.
    pub clock_mw: f64,
}

impl PowerBreakdown {
    /// Total average power in milliwatts.
    pub fn total_mw(&self) -> f64 {
        self.functional_units_mw
            + self.registers_mw
            + self.multiplexers_mw
            + self.controller_mw
            + self.clock_mw
    }

    /// Fraction of the total consumed by the multiplexer networks.
    pub fn mux_share(&self) -> f64 {
        let total = self.total_mw();
        if total > 0.0 {
            self.multiplexers_mw / total
        } else {
            0.0
        }
    }
}

/// Per-functional-unit slice of a [`PowerProfile`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FuPowerProfile {
    /// Effective switched capacitance of the unit, in picofarads.
    pub capacitance_pf: f64,
    /// Mean input switching activity (floored at 0.01 as in the estimator).
    pub activity: f64,
    /// Average activations per input pass.
    pub activations_per_pass: f64,
}

/// Per-register slice of a [`PowerProfile`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RegPowerProfile {
    /// Effective switched capacitance of the register, in picofarads.
    pub capacitance_pf: f64,
    /// Mean per-write switching activity (floored at 0.01).
    pub activity: f64,
    /// Average writes per input pass.
    pub writes_per_pass: f64,
}

/// Per-mux-site slice of a [`PowerProfile`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MuxPowerProfile {
    /// Effective switched capacitance of one 2-to-1 mux at the site's width,
    /// in picofarads.
    pub capacitance_pf: f64,
    /// Total switching activity of the site's mux tree (Equation (7)), using
    /// the Huffman-restructured shape where the design says so.
    pub tree_activity: f64,
    /// Average selections per input pass.
    pub selections_per_pass: f64,
}

/// Supply-independent power/area coefficients of one design, derived once
/// from the traces and reused for every supply level the Vdd search probes.
///
/// [`PowerEstimator::estimate`] recomputes these coefficients on every call;
/// the incremental engine builds the profile once per design (via
/// [`PowerProfile::from_traces`] or [`PowerProfile::assemble`] with memoized
/// statistics) and calls [`PowerEstimator::estimate_profiled`] per level,
/// which is pure arithmetic. Both paths produce bit-identical breakdowns.
#[derive(Clone, PartialEq, Debug)]
pub struct PowerProfile {
    /// One entry per active functional unit, in allocation order.
    pub fus: Vec<FuPowerProfile>,
    /// One entry per active register, in allocation order.
    pub regs: Vec<RegPowerProfile>,
    /// Total register bits (clock-network load).
    pub register_bits: f64,
    /// One entry per mux site of the design.
    pub muxes: Vec<MuxPowerProfile>,
    /// Datapath area in equivalent gates (controller area comes from the
    /// schedule and is added per evaluation).
    pub datapath_area: f64,
}

impl PowerProfile {
    /// Builds the profile directly from the traces (the uncached reference
    /// path).
    pub fn from_traces(
        library: &ModuleLibrary,
        cdfg: &Cdfg,
        design: &RtlDesign,
        traces: &RtTraces<'_>,
    ) -> Self {
        Self::assemble(
            library,
            cdfg,
            design,
            |fu, _| {
                let stats = traces.fu_stats(fu);
                (stats.input_activity, stats.activations_per_pass)
            },
            |reg, _| {
                let stats = traces.register_stats(reg);
                (stats.activity, stats.writes_per_pass)
            },
            |site, restructured| {
                let sources = traces.mux_source_stats(site);
                let tree = if restructured {
                    MuxTree::huffman(sources)
                } else {
                    MuxTree::balanced(sources)
                };
                (
                    tree.switching_activity(),
                    traces.mux_selections_per_pass(site),
                )
            },
        )
    }

    /// Builds the profile from caller-provided statistics: `fu_stats` returns
    /// `(input_activity, activations_per_pass)`, `reg_stats` returns
    /// `(activity, writes_per_pass)` and `mux_stats` returns
    /// `(tree_activity, selections_per_pass)` for a site and its restructured
    /// flag. This is the hook the evaluation cache uses to memoize trace
    /// statistics by structural content across candidate designs.
    pub fn assemble(
        library: &ModuleLibrary,
        cdfg: &Cdfg,
        design: &RtlDesign,
        fu_stats: impl FnMut(FuId, &FunctionalUnit) -> (f64, f64),
        reg_stats: impl FnMut(RegId, &Register) -> (f64, f64),
        mux_stats: impl FnMut(&MuxSite, bool) -> (f64, f64),
    ) -> Self {
        Self::assemble_with_sites(
            library,
            design,
            &design.mux_sites(cdfg),
            fu_stats,
            reg_stats,
            mux_stats,
        )
    }

    /// [`Self::assemble`] over a caller-provided mux-site list: evaluation
    /// paths that already enumerated the design's sites (context building,
    /// delta patching) hand them in instead of re-enumerating. `sites` must
    /// be `design.mux_sites(cdfg)`, in its enumeration order.
    pub fn assemble_with_sites<S: Borrow<MuxSite>>(
        library: &ModuleLibrary,
        design: &RtlDesign,
        sites: &[S],
        mut fu_stats: impl FnMut(FuId, &FunctionalUnit) -> (f64, f64),
        mut reg_stats: impl FnMut(RegId, &Register) -> (f64, f64),
        mut mux_stats: impl FnMut(&MuxSite, bool) -> (f64, f64),
    ) -> Self {
        let fus = design
            .functional_units()
            .map(|(fu_id, unit)| FuPowerProfile::new(library, unit, fu_stats(fu_id, unit)))
            .collect();
        let regs = design
            .registers()
            .map(|(reg_id, reg)| RegPowerProfile::new(library, reg, reg_stats(reg_id, reg)))
            .collect();
        let muxes = sites
            .iter()
            .map(Borrow::borrow)
            .map(|site| {
                let restructured = design.is_restructured(site.sink);
                MuxPowerProfile::new(library, site, mux_stats(site, restructured))
            })
            .collect();
        Self::from_entries(library, design, sites, fus, regs, muxes)
    }

    /// A profile from entries built elsewhere (a patched context copies the
    /// untouched ones from its parent's profile): one entry per active unit,
    /// per active register and per site of `sites`. The totals are summed
    /// afresh, never adjusted, so the profile is bit-identical to
    /// [`Self::assemble_with_sites`]'s.
    pub fn from_entries<S: Borrow<MuxSite>>(
        library: &ModuleLibrary,
        design: &RtlDesign,
        sites: &[S],
        fus: Vec<FuPowerProfile>,
        regs: Vec<RegPowerProfile>,
        muxes: Vec<MuxPowerProfile>,
    ) -> Self {
        let mut register_bits = 0.0;
        for (_, reg) in design.registers() {
            register_bits += f64::from(reg.width);
        }
        Self {
            fus,
            regs,
            register_bits,
            muxes,
            datapath_area: design.datapath_area_with_sites(library, sites),
        }
    }
}

impl FuPowerProfile {
    /// The entry of `unit` from its `(input_activity, activations_per_pass)`
    /// statistics.
    pub fn new(library: &ModuleLibrary, unit: &FunctionalUnit, stats: (f64, f64)) -> Self {
        let (activity, activations_per_pass) = stats;
        Self {
            capacitance_pf: library
                .variant(unit.module)
                .capacitance_for_width(unit.width),
            activity: activity.max(0.01),
            activations_per_pass,
        }
    }
}

impl RegPowerProfile {
    /// The entry of `reg` from its `(activity, writes_per_pass)` statistics.
    pub fn new(library: &ModuleLibrary, reg: &Register, stats: (f64, f64)) -> Self {
        let (activity, writes_per_pass) = stats;
        Self {
            capacitance_pf: library.register().capacitance_for_width(reg.width),
            activity: activity.max(0.01),
            writes_per_pass,
        }
    }
}

impl MuxPowerProfile {
    /// The entry of `site` from its `(tree_activity, selections_per_pass)`
    /// statistics.
    pub fn new(library: &ModuleLibrary, site: &MuxSite, stats: (f64, f64)) -> Self {
        let (tree_activity, selections_per_pass) = stats;
        Self {
            capacitance_pf: library.mux2().capacitance_for_width(site.width),
            tree_activity,
            selections_per_pass,
        }
    }
}

/// The estimator: library characterization plus operating point.
#[derive(Clone, Debug)]
pub struct PowerEstimator<'lib> {
    library: &'lib ModuleLibrary,
    config: PowerConfig,
}

impl<'lib> PowerEstimator<'lib> {
    /// Creates an estimator over the given library and configuration.
    pub fn new(library: &'lib ModuleLibrary, config: PowerConfig) -> Self {
        Self { library, config }
    }

    /// The active configuration.
    pub fn config(&self) -> &PowerConfig {
        &self.config
    }

    /// Estimates the average power of one design point.
    ///
    /// `traces` must view the same CDFG and RTL design; `schedule` provides
    /// the expected number of cycles per pass, the clock period and the
    /// controller size ([`Schedule::summary`](impact_sched::Schedule::summary)).
    /// This rebuilds the [`PowerProfile`] from the traces on every call; callers
    /// evaluating one design at several supply levels should build the
    /// profile once and use [`Self::estimate_profiled`] instead.
    pub fn estimate(
        &self,
        cdfg: &Cdfg,
        design: &RtlDesign,
        traces: &RtTraces<'_>,
        schedule: &SchedulingResult,
    ) -> PowerBreakdown {
        let profile = PowerProfile::from_traces(self.library, cdfg, design, traces);
        self.estimate_profiled(&profile, schedule)
    }

    /// Estimates the average power of one design point from a precomputed
    /// supply-independent profile: pure arithmetic, no trace traversal.
    pub fn estimate_profiled(
        &self,
        profile: &PowerProfile,
        schedule: &SchedulingResult,
    ) -> PowerBreakdown {
        let vdd_sq = self.config.vdd * self.config.vdd;
        let enc = schedule.enc.max(1.0);
        let pass_time_ns = enc * schedule.clock_ns;

        // Functional units: energy per activation is C·Vdd²·activity, plus a
        // reduced idle-switching term for every cycle the unit sits unused
        // while its operand registers toggle.
        let mut fu_energy_pj = 0.0;
        for fu in &profile.fus {
            let idle_cycles = (enc - fu.activations_per_pass).max(0.0);
            fu_energy_pj += fu.capacitance_pf * vdd_sq * fu.activity * fu.activations_per_pass;
            fu_energy_pj += fu.capacitance_pf
                * vdd_sq
                * self.config.idle_switching_fraction
                * fu.activity
                * idle_cycles;
        }

        // Registers.
        let mut reg_energy_pj = 0.0;
        for reg in &profile.regs {
            reg_energy_pj += reg.capacitance_pf * vdd_sq * reg.activity * reg.writes_per_pass;
        }

        // Multiplexer networks: the tree activity follows the paper's
        // equations, with the Huffman-restructured shape where the design
        // says so.
        let mut mux_energy_pj = 0.0;
        for mux in &profile.muxes {
            mux_energy_pj +=
                mux.capacitance_pf * vdd_sq * mux.tree_activity * mux.selections_per_pass;
        }

        // Controller: switched every cycle, sized by states and transitions.
        let states = schedule.state_count as f64;
        let transitions = schedule.transition_count as f64;
        let controller_energy_pj = enc
            * vdd_sq
            * (self.config.controller_cap_per_state_pf * states
                + self.config.controller_cap_per_transition_pf * transitions);

        // Clock network: every register bit is clocked every cycle.
        let clock_energy_pj =
            enc * vdd_sq * self.config.clock_cap_per_bit_pf * profile.register_bits;

        // pJ / ns = mW.
        PowerBreakdown {
            functional_units_mw: fu_energy_pj / pass_time_ns,
            registers_mw: reg_energy_pj / pass_time_ns,
            multiplexers_mw: mux_energy_pj / pass_time_ns,
            controller_mw: controller_energy_pj / pass_time_ns,
            clock_mw: clock_energy_pj / pass_time_ns,
        }
    }

    /// Total area (datapath plus controller) in equivalent gates.
    pub fn area(&self, cdfg: &Cdfg, design: &RtlDesign, schedule: &SchedulingResult) -> f64 {
        let datapath = design.datapath_area(cdfg, self.library);
        let controller = self.config.controller_area_per_state * schedule.state_count as f64
            + self.config.controller_area_per_transition * schedule.transition_count as f64;
        datapath + controller
    }

    /// Total area from a precomputed profile (datapath area memoized, the
    /// schedule-dependent controller term recomputed per evaluation).
    pub fn area_profiled(&self, profile: &PowerProfile, schedule: &SchedulingResult) -> f64 {
        let controller = self.config.controller_area_per_state * schedule.state_count as f64
            + self.config.controller_area_per_transition * schedule.transition_count as f64;
        profile.datapath_area + controller
    }
}

// ---------------------------------------------------------------- snapshot codec

use impact_codec::{Decode, DecodeError, Decoder, Encode, Encoder};

/// Version tag of [`PowerBreakdown`]'s wire layout.
const TAG_POWER_BREAKDOWN: u8 = 0x38;
/// Version tag of [`FuPowerProfile`]'s wire layout.
const TAG_FU_POWER_PROFILE: u8 = 0x39;
/// Version tag of [`RegPowerProfile`]'s wire layout.
const TAG_REG_POWER_PROFILE: u8 = 0x3A;
/// Version tag of [`MuxPowerProfile`]'s wire layout.
const TAG_MUX_POWER_PROFILE: u8 = 0x3B;
/// Version tag of [`PowerProfile`]'s wire layout.
const TAG_POWER_PROFILE: u8 = 0x3C;

impl Encode for PowerBreakdown {
    fn encode(&self, w: &mut Encoder) {
        w.put_tag(TAG_POWER_BREAKDOWN);
        w.put_f64(self.functional_units_mw);
        w.put_f64(self.registers_mw);
        w.put_f64(self.multiplexers_mw);
        w.put_f64(self.controller_mw);
        w.put_f64(self.clock_mw);
    }
}

impl Decode for PowerBreakdown {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        r.expect_tag(TAG_POWER_BREAKDOWN)?;
        Ok(Self {
            functional_units_mw: r.take_f64()?,
            registers_mw: r.take_f64()?,
            multiplexers_mw: r.take_f64()?,
            controller_mw: r.take_f64()?,
            clock_mw: r.take_f64()?,
        })
    }
}

impl Encode for FuPowerProfile {
    fn encode(&self, w: &mut Encoder) {
        w.put_tag(TAG_FU_POWER_PROFILE);
        w.put_f64(self.capacitance_pf);
        w.put_f64(self.activity);
        w.put_f64(self.activations_per_pass);
    }
}

impl Decode for FuPowerProfile {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        r.expect_tag(TAG_FU_POWER_PROFILE)?;
        Ok(Self {
            capacitance_pf: r.take_f64()?,
            activity: r.take_f64()?,
            activations_per_pass: r.take_f64()?,
        })
    }
}

impl Encode for RegPowerProfile {
    fn encode(&self, w: &mut Encoder) {
        w.put_tag(TAG_REG_POWER_PROFILE);
        w.put_f64(self.capacitance_pf);
        w.put_f64(self.activity);
        w.put_f64(self.writes_per_pass);
    }
}

impl Decode for RegPowerProfile {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        r.expect_tag(TAG_REG_POWER_PROFILE)?;
        Ok(Self {
            capacitance_pf: r.take_f64()?,
            activity: r.take_f64()?,
            writes_per_pass: r.take_f64()?,
        })
    }
}

impl Encode for MuxPowerProfile {
    fn encode(&self, w: &mut Encoder) {
        w.put_tag(TAG_MUX_POWER_PROFILE);
        w.put_f64(self.capacitance_pf);
        w.put_f64(self.tree_activity);
        w.put_f64(self.selections_per_pass);
    }
}

impl Decode for MuxPowerProfile {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        r.expect_tag(TAG_MUX_POWER_PROFILE)?;
        Ok(Self {
            capacitance_pf: r.take_f64()?,
            tree_activity: r.take_f64()?,
            selections_per_pass: r.take_f64()?,
        })
    }
}

impl Encode for PowerProfile {
    fn encode(&self, w: &mut Encoder) {
        w.put_tag(TAG_POWER_PROFILE);
        self.fus.encode(w);
        self.regs.encode(w);
        w.put_f64(self.register_bits);
        self.muxes.encode(w);
        w.put_f64(self.datapath_area);
    }
}

impl Decode for PowerProfile {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        r.expect_tag(TAG_POWER_PROFILE)?;
        Ok(Self {
            fus: Decode::decode(r)?,
            regs: Decode::decode(r)?,
            register_bits: r.take_f64()?,
            muxes: Decode::decode(r)?,
            datapath_area: r.take_f64()?,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use impact_behsim::{simulate, ExecutionTrace};
    use impact_cdfg::OpClass;
    use impact_hdl::compile;
    use impact_sched::{uniform_problem, Scheduler, WaveScheduler};

    fn setup(src: &str, inputs: &[Vec<i64>]) -> (Cdfg, ExecutionTrace, SchedulingResult) {
        let cdfg = compile(src).unwrap();
        let trace = simulate(&cdfg, inputs).unwrap();
        let schedule = WaveScheduler::new()
            .schedule(&uniform_problem(&cdfg, trace.profile()))
            .unwrap();
        (cdfg, trace, schedule.summary())
    }

    fn gcd_inputs() -> Vec<Vec<i64>> {
        (1..20).map(|i| vec![3 * i + 1, 2 * i + 5]).collect()
    }

    const GCD: &str = "design gcd { input a: 8, b: 8; output r: 8; var x: 8; var y: 8;
        x = a; y = b;
        while (x != y) { if (x > y) { x = x - y; } else { y = y - x; } }
        r = x; }";

    #[test]
    fn breakdown_components_are_positive_and_sum_to_total() {
        let (cdfg, trace, schedule) = setup(GCD, &gcd_inputs());
        let lib = ModuleLibrary::standard();
        let design = RtlDesign::initial_parallel(&cdfg, &lib);
        let rt = RtTraces::new(&cdfg, &design, &trace);
        let estimator = PowerEstimator::new(&lib, PowerConfig::default());
        let b = estimator.estimate(&cdfg, &design, &rt, &schedule);
        assert!(b.functional_units_mw > 0.0);
        assert!(b.registers_mw > 0.0);
        assert!(b.multiplexers_mw > 0.0);
        assert!(b.controller_mw > 0.0);
        assert!(b.clock_mw > 0.0);
        let sum = b.functional_units_mw
            + b.registers_mw
            + b.multiplexers_mw
            + b.controller_mw
            + b.clock_mw;
        assert!((b.total_mw() - sum).abs() < 1e-12);
        assert!(b.mux_share() > 0.0 && b.mux_share() < 1.0);
    }

    #[test]
    fn power_scales_quadratically_with_vdd() {
        let (cdfg, trace, schedule) = setup(GCD, &gcd_inputs());
        let lib = ModuleLibrary::standard();
        let design = RtlDesign::initial_parallel(&cdfg, &lib);
        let rt = RtTraces::new(&cdfg, &design, &trace);
        let p5 = PowerEstimator::new(&lib, PowerConfig::default())
            .estimate(&cdfg, &design, &rt, &schedule)
            .total_mw();
        let p25 = PowerEstimator::new(&lib, PowerConfig::default().at_vdd(2.5))
            .estimate(&cdfg, &design, &rt, &schedule)
            .total_mw();
        assert!((p25 / p5 - 0.25).abs() < 1e-9);
    }

    #[test]
    fn greedy_mux_restructuring_never_increases_mux_power() {
        // The Huffman construction is a heuristic, so IMPACT only keeps a
        // restructuring move when it actually reduces the estimate; applied
        // that way, the mux power never goes up.
        let (cdfg, trace, schedule) = setup(GCD, &gcd_inputs());
        let lib = ModuleLibrary::standard();
        let mut design = RtlDesign::initial_parallel(&cdfg, &lib);
        // Share the two subtractors to create real muxes in front of an adder.
        let adders = design.units_of_class(OpClass::AddSub);
        design.share_fus(adders[0], adders[1]).unwrap();
        let estimator = PowerEstimator::new(&lib, PowerConfig::default());
        let baseline = {
            let rt = RtTraces::new(&cdfg, &design, &trace);
            estimator
                .estimate(&cdfg, &design, &rt, &schedule)
                .multiplexers_mw
        };
        let mut current = baseline;
        for site in design.mux_sites(&cdfg) {
            design.set_restructured(site.sink, true);
            let rt = RtTraces::new(&cdfg, &design, &trace);
            let candidate = estimator
                .estimate(&cdfg, &design, &rt, &schedule)
                .multiplexers_mw;
            if candidate <= current {
                current = candidate;
            } else {
                design.set_restructured(site.sink, false);
            }
        }
        assert!(current <= baseline + 1e-12);
    }

    #[test]
    fn module_selection_changes_functional_unit_power() {
        let (cdfg, trace, schedule) = setup(GCD, &gcd_inputs());
        let lib = ModuleLibrary::standard();
        let mut design = RtlDesign::initial_parallel(&cdfg, &lib);
        let estimator = PowerEstimator::new(&lib, PowerConfig::default());
        let fast = {
            let rt = RtTraces::new(&cdfg, &design, &trace);
            estimator
                .estimate(&cdfg, &design, &rt, &schedule)
                .functional_units_mw
        };
        // Swap every adder to the low-capacitance ripple implementation.
        let ripple = lib.variant_by_name("ripple_adder").unwrap();
        for fu in design.units_of_class(OpClass::AddSub) {
            design.substitute_module(&lib, fu, ripple).unwrap();
        }
        let rt = RtTraces::new(&cdfg, &design, &trace);
        let slow = estimator
            .estimate(&cdfg, &design, &rt, &schedule)
            .functional_units_mw;
        assert!(slow < fast, "ripple adders switch less capacitance");
    }

    #[test]
    fn longer_schedules_spread_the_same_energy_over_more_time() {
        let (cdfg, trace, schedule) = setup(GCD, &gcd_inputs());
        let lib = ModuleLibrary::standard();
        let design = RtlDesign::initial_parallel(&cdfg, &lib);
        let rt = RtTraces::new(&cdfg, &design, &trace);
        let estimator = PowerEstimator::new(&lib, PowerConfig::default());
        let normal = estimator.estimate(&cdfg, &design, &rt, &schedule);
        let mut slow = schedule;
        slow.enc *= 2.0;
        let relaxed = estimator.estimate(&cdfg, &design, &rt, &slow);
        // Datapath power halves; only the per-cycle controller/clock terms stay.
        assert!(relaxed.functional_units_mw < normal.functional_units_mw);
        assert!(relaxed.total_mw() < normal.total_mw());
    }

    #[test]
    fn profiled_estimate_is_bit_identical_to_the_direct_path() {
        let (cdfg, trace, schedule) = setup(GCD, &gcd_inputs());
        let lib = ModuleLibrary::standard();
        let mut design = RtlDesign::initial_parallel(&cdfg, &lib);
        let adders = design.units_of_class(OpClass::AddSub);
        design.share_fus(adders[0], adders[1]).unwrap();
        for site in design.mux_sites(&cdfg) {
            design.set_restructured(site.sink, true);
        }
        let rt = RtTraces::new(&cdfg, &design, &trace);
        let profile = PowerProfile::from_traces(&lib, &cdfg, &design, &rt);
        for vdd in [5.0, 3.3, 1.5] {
            let estimator = PowerEstimator::new(&lib, PowerConfig::default().at_vdd(vdd));
            let direct = estimator.estimate(&cdfg, &design, &rt, &schedule);
            let profiled = estimator.estimate_profiled(&profile, &schedule);
            assert_eq!(direct, profiled);
            assert_eq!(
                estimator.area(&cdfg, &design, &schedule),
                estimator.area_profiled(&profile, &schedule)
            );
        }
    }

    #[test]
    fn area_includes_datapath_and_controller() {
        let (cdfg, trace, schedule) = setup(GCD, &gcd_inputs());
        let lib = ModuleLibrary::standard();
        let design = RtlDesign::initial_parallel(&cdfg, &lib);
        let estimator = PowerEstimator::new(&lib, PowerConfig::default());
        let total = estimator.area(&cdfg, &design, &schedule);
        let datapath = design.datapath_area(&cdfg, &lib);
        assert!(total > datapath);
        let _ = trace;
    }

    #[test]
    fn mux_networks_are_a_large_power_share_in_cfi_designs() {
        // The paper quotes >40% mux power for CFI circuits; our characterized
        // library should at least make the interconnect a major contributor
        // once units are shared.
        let (cdfg, trace, schedule) = setup(GCD, &gcd_inputs());
        let lib = ModuleLibrary::standard();
        let mut design = RtlDesign::initial_parallel(&cdfg, &lib);
        let adders = design.units_of_class(OpClass::AddSub);
        design.share_fus(adders[0], adders[1]).unwrap();
        let comps = design.units_of_class(OpClass::Compare);
        design.share_fus(comps[0], comps[1]).unwrap();
        let rt = RtTraces::new(&cdfg, &design, &trace);
        let b = PowerEstimator::new(&lib, PowerConfig::default())
            .estimate(&cdfg, &design, &rt, &schedule);
        assert!(
            b.mux_share() > 0.15,
            "mux share should be substantial in a shared CFI datapath, got {:.3}",
            b.mux_share()
        );
    }
}
