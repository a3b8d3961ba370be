#![allow(clippy::unwrap_used)]

//! The site delta against the full enumeration: on every benchmark design,
//! from the initial architecture and after seeded move sequences, every
//! applicable move of all six families derives the candidate's mux sites
//! from the parent's ([`RtlDesign::derive_mux_sites`]) exactly as the
//! candidate's own [`RtlDesign::mux_sites`] lists them — same sites, same
//! order — and [`RtlDesign::multi_source_sinks`] lists their sinks. Every
//! site listed has two or more distinct sources.

use std::collections::BTreeSet;

use impact_cdfg::{Cdfg, NodeId, VarId};
use impact_modlib::{ModuleId, ModuleLibrary};
use impact_rtl::{
    DerivedSite, DesignDelta, FuId, MuxSink, MuxSite, RegId, RtlDesign, RtlError, SignalKey,
};

/// One move of the six families.
#[derive(Clone, Copy, Debug)]
enum Move {
    Restructure(MuxSink),
    Substitute(FuId, ModuleId),
    ShareFus(FuId, FuId),
    SplitFu(FuId, NodeId),
    ShareRegisters(RegId, RegId),
    SplitRegister(RegId, VarId),
}

impl Move {
    fn apply(
        self,
        cdfg: &Cdfg,
        library: &ModuleLibrary,
        design: &mut RtlDesign,
    ) -> Result<DesignDelta, RtlError> {
        match self {
            Move::Restructure(sink) => Ok(design.set_restructured_delta(sink, true)),
            Move::Substitute(fu, module) => design.substitute_module(library, fu, module),
            Move::ShareFus(keep, remove) => design.share_fus(keep, remove),
            Move::SplitFu(fu, op) => design.split_fu(cdfg, fu, &[op]),
            Move::ShareRegisters(keep, remove) => design.share_registers(keep, remove),
            Move::SplitRegister(reg, var) => design.split_register(cdfg, reg, &[var]),
        }
    }
}

/// Every move applicable to `design`.
fn every_move(cdfg: &Cdfg, library: &ModuleLibrary, design: &RtlDesign) -> Vec<Move> {
    let mut moves = Vec::new();
    for site in design.mux_sites(cdfg) {
        if !design.is_restructured(site.sink) {
            moves.push(Move::Restructure(site.sink));
        }
    }
    let units: Vec<_> = design
        .functional_units()
        .map(|(id, unit)| (id, unit.clone()))
        .collect();
    for (i, (fu, unit)) in units.iter().enumerate() {
        for module in library.variants_for(unit.class) {
            if module != unit.module {
                moves.push(Move::Substitute(*fu, module));
            }
        }
        for (other, other_unit) in &units[i + 1..] {
            if other_unit.class == unit.class {
                moves.push(Move::ShareFus(*fu, *other));
            }
        }
        let ops = design.ops_on(*fu);
        if ops.len() >= 2 {
            moves.push(Move::SplitFu(*fu, ops[ops.len() - 1]));
        }
    }
    let registers: Vec<_> = design
        .registers()
        .map(|(id, reg)| (id, reg.variables.clone()))
        .collect();
    for (i, (reg, variables)) in registers.iter().enumerate() {
        for (other, _) in &registers[i + 1..] {
            moves.push(Move::ShareRegisters(*reg, *other));
        }
        if variables.len() >= 2 {
            moves.push(Move::SplitRegister(*reg, variables[variables.len() - 1]));
        }
    }
    moves
}

/// The derived list with every kept position resolved to the parent's site.
fn derived_sites(
    cdfg: &Cdfg,
    parent: &[MuxSite],
    candidate: &RtlDesign,
    delta: &DesignDelta,
) -> Vec<MuxSite> {
    candidate
        .derive_mux_sites(cdfg, parent, delta)
        .into_iter()
        .map(|entry| match entry {
            DerivedSite::Kept(index) => parent[index].clone(),
            DerivedSite::Fresh { site, parent: at } => {
                if let Some(at) = at {
                    assert_eq!(parent[at].sink, site.sink, "fresh site paired by sink");
                }
                site
            }
        })
        .collect()
}

/// Deterministic pseudo-random successor (LCG).
fn next_seed(seed: u64) -> u64 {
    seed.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

#[test]
fn derived_sites_equal_the_full_enumeration_on_every_benchmark() {
    let library = ModuleLibrary::standard();
    for bench in impact_benchmarks::all_benchmarks() {
        let cdfg = bench.compile().unwrap();
        for (seed, steps) in [(0u64, 0), (7, 6), (1998, 20), (42, 40)] {
            // The parent: the initial architecture after `steps` seeded moves.
            let mut parent = RtlDesign::initial_parallel(&cdfg, &library);
            let mut pick = seed;
            for _ in 0..steps {
                let moves = every_move(&cdfg, &library, &parent);
                let _ = moves[(pick as usize) % moves.len()].apply(&cdfg, &library, &mut parent);
                pick = next_seed(pick);
            }
            let parent_sites = parent.mux_sites(&cdfg);
            let mut checked = 0;
            for mv in every_move(&cdfg, &library, &parent) {
                let mut candidate = parent.clone();
                let Ok(delta) = mv.apply(&cdfg, &library, &mut candidate) else {
                    continue;
                };
                let sites = candidate.mux_sites(&cdfg);
                for site in &sites {
                    let keys: BTreeSet<SignalKey> =
                        site.sources.iter().map(|source| source.key).collect();
                    assert!(
                        site.fan_in() >= 2 && keys.len() == site.fan_in(),
                        "{} (seed {seed}): {mv:?} lists {site:?}",
                        bench.name
                    );
                }
                assert_eq!(
                    derived_sites(&cdfg, &parent_sites, &candidate, &delta),
                    sites,
                    "{} (seed {seed}): {mv:?}",
                    bench.name
                );
                assert_eq!(
                    candidate.multi_source_sinks(&cdfg),
                    sites.iter().map(|site| site.sink).collect::<Vec<_>>(),
                    "{} (seed {seed}): {mv:?}",
                    bench.name
                );
                checked += 1;
            }
            assert!(checked > 0, "{}: some move applies", bench.name);
        }
    }
}

#[test]
fn an_empty_delta_keeps_every_parent_site() {
    let library = ModuleLibrary::standard();
    let cdfg = impact_benchmarks::dealer().compile().unwrap();
    let mut design = RtlDesign::initial_parallel(&cdfg, &library);
    let sites = design.mux_sites(&cdfg);
    assert!(sites.len() >= 2, "dealer has wide mux sites");
    // Annotating a sink changes no site's content.
    let delta = design.set_restructured_delta(sites[0].sink, true);
    let derived = design.derive_mux_sites(&cdfg, &sites, &delta);
    assert_eq!(
        derived,
        (0..sites.len()).map(DerivedSite::Kept).collect::<Vec<_>>()
    );
}
