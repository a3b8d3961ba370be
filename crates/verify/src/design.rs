//! RTL design legality rules.

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};

use impact_cdfg::Cdfg;
use impact_rtl::{DesignFingerprint, MuxSink, MuxSite, RtlDesign, SignalKey};

use crate::{rules, Violation};

/// Audits an RT-level design against its CDFG: operation ↔ functional-unit
/// binding consistency ([`rules::RTL_FU_BINDING`]), variable ↔ register
/// binding consistency ([`rules::RTL_REG_BINDING`]) and restructuring
/// annotations pointing at real multi-source mux sites
/// ([`rules::RTL_MUX_ANNOTATION`]).
pub fn verify_design(cdfg: &Cdfg, design: &RtlDesign) -> Vec<Violation> {
    let mut violations = Vec::new();

    // Operation → unit direction.
    for (id, node) in cdfg.nodes() {
        let bound = design.fu_of(id);
        if node.operation.needs_functional_unit() {
            match bound {
                None => violations.push(Violation::error(
                    rules::RTL_FU_BINDING,
                    format!("node {}", id.index()),
                    format!(
                        "operation {:?} needs a functional unit but is unbound",
                        node.operation
                    ),
                )),
                Some(fu) => match design.functional_unit(fu) {
                    Err(e) => violations.push(Violation::error(
                        rules::RTL_FU_BINDING,
                        format!("node {}", id.index()),
                        format!("bound to an inactive unit: {e}"),
                    )),
                    Ok(unit) if unit.class != node.operation.class() => {
                        violations.push(Violation::error(
                            rules::RTL_FU_BINDING,
                            format!("node {} on {}", id.index(), fu),
                            format!(
                                "operation {:?} (class {:?}) bound to a {:?}-class unit",
                                node.operation,
                                node.operation.class(),
                                unit.class
                            ),
                        ));
                    }
                    Ok(_) => {}
                },
            }
        } else if let Some(fu) = bound {
            violations.push(Violation::error(
                rules::RTL_FU_BINDING,
                format!("node {} on {}", id.index(), fu),
                format!(
                    "operation {:?} needs no functional unit but is bound to one",
                    node.operation
                ),
            ));
        }
    }

    // Unit → operation direction: every active unit carries at least one
    // operation (a unit with none is a dead allocation the mutations never
    // produce).
    for (fu, _) in design.functional_units() {
        if design.ops_on_iter(fu).next().is_none() {
            violations.push(Violation::warning(
                rules::RTL_FU_BINDING,
                fu.to_string(),
                "active functional unit has no bound operations",
            ));
        }
    }

    // Variable → register direction.
    for (var, variable) in cdfg.variables() {
        let reg = design.register_of(var);
        match design.register(reg) {
            Err(e) => violations.push(Violation::error(
                rules::RTL_REG_BINDING,
                format!("variable `{}`", variable.name),
                format!("bound to an inactive register: {e}"),
            )),
            Ok(register) if !register.variables.contains(&var) => {
                violations.push(Violation::error(
                    rules::RTL_REG_BINDING,
                    format!("variable `{}` in {}", variable.name, reg),
                    "register does not list the variable bound to it",
                ));
            }
            Ok(_) => {}
        }
    }

    // Register → variable direction.
    for (reg, register) in design.registers() {
        if register.variables.is_empty() {
            violations.push(Violation::error(
                rules::RTL_REG_BINDING,
                reg.to_string(),
                "active register holds no variables",
            ));
        }
        let mut seen = HashSet::new();
        for &var in register.variables.iter() {
            if var.index() >= cdfg.variable_count() {
                violations.push(Violation::error(
                    rules::RTL_REG_BINDING,
                    reg.to_string(),
                    format!("register lists unknown variable index {}", var.index()),
                ));
                continue;
            }
            if !seen.insert(var) {
                violations.push(Violation::error(
                    rules::RTL_REG_BINDING,
                    reg.to_string(),
                    format!("register lists `{}` twice", cdfg.variable(var).name),
                ));
            }
            if design.register_of(var) != reg {
                violations.push(Violation::error(
                    rules::RTL_REG_BINDING,
                    format!("variable `{}` in {}", cdfg.variable(var).name, reg),
                    format!("variable is bound to {} instead", design.register_of(var)),
                ));
            }
        }
    }

    // Restructuring annotations must name actual multi-source sites.
    let real_sites: HashSet<MuxSink> = design
        .mux_sites(cdfg)
        .into_iter()
        .map(|site| site.sink)
        .collect();
    for sink in design.restructured_sites() {
        if !real_sites.contains(&sink) {
            violations.push(Violation::error(
                rules::RTL_MUX_ANNOTATION,
                sink.to_string(),
                "restructuring annotation on a sink that is not a multi-source mux site",
            ));
        }
    }

    violations
}

/// Audits a stored mux-site list (e.g. from a cached evaluation context)
/// for consistency with the CDFG definers and the design's binding
/// ([`rules::CDFG_MUX_CONSISTENT`]). Each stored site is checked on its own,
/// and the whole list against the design's [`RtlDesign::mux_sites`], which
/// is what a context stores: a missing, extra, stale or misordered site is
/// reported even when every site is plausible alone.
pub fn verify_mux_sites<S: Borrow<MuxSite>>(
    cdfg: &Cdfg,
    design: &RtlDesign,
    sites: &[S],
) -> Vec<Violation> {
    let mut violations = Vec::new();
    for site in sites.iter().map(Borrow::borrow) {
        let location = site.sink.to_string();
        if site.sources.is_empty() {
            violations.push(Violation::error(
                rules::CDFG_MUX_CONSISTENT,
                location.clone(),
                "mux site has no sources",
            ));
            continue;
        }
        let mut keys = HashSet::new();
        for source in &site.sources {
            if !keys.insert(&source.key) {
                violations.push(Violation::error(
                    rules::CDFG_MUX_CONSISTENT,
                    location.clone(),
                    format!("duplicate signal key {:?} among mux sources", source.key),
                ));
            }
            if source.ops.is_empty() {
                violations.push(Violation::error(
                    rules::CDFG_MUX_CONSISTENT,
                    location.clone(),
                    "mux source routes no operations",
                ));
            }
            for &op in &source.ops {
                if op.index() >= cdfg.node_count() {
                    violations.push(Violation::error(
                        rules::CDFG_MUX_CONSISTENT,
                        location.clone(),
                        format!("mux source names unknown node index {}", op.index()),
                    ));
                    continue;
                }
                match site.sink {
                    MuxSink::FuInput { fu, port } => {
                        if design.fu_of(op) != Some(fu) {
                            violations.push(Violation::error(
                                rules::CDFG_MUX_CONSISTENT,
                                location.clone(),
                                format!("source op {} is not bound to the sink unit", op.index()),
                            ));
                        } else if usize::from(port) >= cdfg.node(op).operation.arity() {
                            violations.push(Violation::error(
                                rules::CDFG_MUX_CONSISTENT,
                                location.clone(),
                                format!("source op {} has no data port {port}", op.index()),
                            ));
                        }
                    }
                    MuxSink::RegisterInput { reg } => {
                        let writes = cdfg
                            .node(op)
                            .defines
                            .is_some_and(|var| design.register_of(var) == reg);
                        if !writes {
                            violations.push(Violation::error(
                                rules::CDFG_MUX_CONSISTENT,
                                location.clone(),
                                format!(
                                    "source op {} does not write the sink register",
                                    op.index()
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
    violations.extend(site_list_violations(cdfg, design, sites));
    violations
}

/// Differences between a stored site list and the design's own multi-source
/// sites in enumeration order: sites missing, extra, stored twice or out of
/// order, and stored sites whose width or sources are stale.
fn site_list_violations<S: Borrow<MuxSite>>(
    cdfg: &Cdfg,
    design: &RtlDesign,
    sites: &[S],
) -> Vec<Violation> {
    let expected = design.mux_sites(cdfg);
    let position: HashMap<MuxSink, usize> = expected
        .iter()
        .enumerate()
        .map(|(index, site)| (site.sink, index))
        .collect();
    let error = |sink: MuxSink, message: String| {
        Violation::error(rules::CDFG_MUX_CONSISTENT, sink.to_string(), message)
    };
    let keys = |site: &MuxSite| -> Vec<SignalKey> { site.sources.iter().map(|s| s.key).collect() };
    let mut violations = Vec::new();
    let mut stored = vec![false; expected.len()];
    let mut previous: Option<usize> = None;
    for site in sites.iter().map(Borrow::borrow) {
        let Some(&index) = position.get(&site.sink) else {
            violations.push(error(
                site.sink,
                "stored site is not a multi-source site of the design".into(),
            ));
            continue;
        };
        if std::mem::replace(&mut stored[index], true) {
            violations.push(error(site.sink, "site is stored twice".into()));
            continue;
        }
        if previous.is_some_and(|previous| index < previous) {
            violations.push(error(
                site.sink,
                "site is stored out of enumeration order".into(),
            ));
        }
        previous = Some(index);
        let actual = &expected[index];
        if site.width != actual.width {
            violations.push(error(
                site.sink,
                format!(
                    "stored width {} but the design's site is {} bits wide",
                    site.width, actual.width
                ),
            ));
        }
        if keys(site) != keys(actual) {
            violations.push(error(
                site.sink,
                format!(
                    "stored source keys {:?} differ from the design's {:?}",
                    keys(site),
                    keys(actual)
                ),
            ));
        } else if site.sources != actual.sources {
            violations.push(error(
                site.sink,
                "stored sources route other operations than the design's".into(),
            ));
        }
    }
    for (site, _) in expected.iter().zip(&stored).filter(|(_, stored)| !**stored) {
        violations.push(error(
            site.sink,
            "multi-source site of the design is missing from the stored list".into(),
        ));
    }
    violations
}

/// Checks the design's recomputed structural fingerprint against a stored
/// (possibly XOR-patched) one ([`rules::RTL_FINGERPRINT`]).
pub fn verify_fingerprint(design: &RtlDesign, expected: DesignFingerprint) -> Vec<Violation> {
    let actual = design.fingerprint();
    if actual == expected {
        return Vec::new();
    }
    vec![Violation::error(
        rules::RTL_FINGERPRINT,
        "design",
        format!(
            "stored fingerprint {:032x} does not match recompute {:032x}",
            expected.as_u128(),
            actual.as_u128()
        ),
    )]
}
