//! The [`Cdfg`] container: nodes, edges, variables and the region tree.

use std::collections::HashMap;
use std::fmt;

use crate::error::CdfgError;
use crate::id::{EdgeId, NodeId, VarId};
use crate::node::{Node, Polarity};
use crate::op::{OpClass, Operation};
use crate::region::Region;

/// What an edge carries at execution time: a constant or the current value of
/// a variable.
///
/// The paper's edges "become only carriers of data values"; constants
/// (e.g. `10`) and variables (e.g. `a`) both travel on edges.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ValueRef {
    /// A literal constant.
    Const(i64),
    /// The current value of a variable (primary input, local or temporary).
    Var(VarId),
}

impl ValueRef {
    /// Convenience constructor mirroring [`ValueRef::Var`].
    pub fn var(v: VarId) -> Self {
        ValueRef::Var(v)
    }

    /// Returns the variable referenced, if any.
    pub fn as_var(self) -> Option<VarId> {
        match self {
            ValueRef::Var(v) => Some(v),
            ValueRef::Const(_) => None,
        }
    }

    /// Returns the constant carried, if any.
    pub fn as_const(self) -> Option<i64> {
        match self {
            ValueRef::Const(c) => Some(c),
            ValueRef::Var(_) => None,
        }
    }
}

impl fmt::Display for ValueRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueRef::Const(c) => write!(f, "{c}"),
            ValueRef::Var(v) => write!(f, "{v}"),
        }
    }
}

/// Structural producer of the value on an edge, used for dependence analysis.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EdgeSource {
    /// The value is produced by another node's output.
    Node(NodeId),
    /// The value comes from outside the graph: a constant, a primary input or
    /// a loop-carried value from a previous iteration.
    External,
}

/// Destination port of an edge on its target node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Port {
    /// Data input port with the given index.
    Data(u8),
    /// The node's single control port.
    Control,
}

/// A data or control carrier between nodes.
#[derive(Clone, Debug)]
pub struct Edge {
    /// Structural producer of the carried value.
    pub source: EdgeSource,
    /// Node consuming the value.
    pub target: NodeId,
    /// Port of the target node the edge enters.
    pub port: Port,
    /// Value carried at execution time.
    pub value: ValueRef,
    /// Initial value (the paper's "`i(0)`"), used for loop iterators and other
    /// loop-carried variables.
    pub initial: Option<i64>,
    /// Bit width of the carried value.
    pub width: u8,
    /// `true` when the use happens before the def in program order, i.e. the
    /// dependence is carried by a loop back-edge.
    pub loop_carried: bool,
}

/// Role of a variable in the behavioral description.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum VariableKind {
    /// Primary input read from the environment on each execution pass.
    Input,
    /// Primary output committed at the end of each execution pass.
    Output,
    /// Declared local variable.
    Local,
    /// Compiler-generated temporary.
    Temp,
}

/// A named value holder; at the RT level every live variable maps to a
/// register (initially one register per variable).
#[derive(Clone, Debug)]
pub struct Variable {
    /// Source-level name (temporaries get generated names like `%t3`).
    pub name: String,
    /// Role of the variable.
    pub kind: VariableKind,
    /// Bit width.
    pub width: u8,
    /// Initial value at the start of every execution pass, if any.
    pub initial: Option<i64>,
}

/// A control-data flow graph with its structured region tree.
///
/// Construct one with [`CdfgBuilder`](crate::CdfgBuilder) or by compiling a
/// behavioral description with the `impact-hdl` crate.
#[derive(Clone, Debug)]
pub struct Cdfg {
    name: String,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    variables: Vec<Variable>,
    var_by_name: HashMap<String, VarId>,
    regions: Vec<Region>,
    /// Lazily built [`Self::definers_of`] index; cleared by the (builder-only)
    /// mutating accessors, so it can never go stale.
    definers: std::sync::OnceLock<Vec<Vec<NodeId>>>,
    /// Lazily built [`Self::readers_of`] index, cleared like `definers`.
    readers: std::sync::OnceLock<Vec<Vec<NodeId>>>,
}

impl Cdfg {
    pub(crate) fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            nodes: Vec::new(),
            edges: Vec::new(),
            variables: Vec::new(),
            var_by_name: HashMap::new(),
            regions: Vec::new(),
            definers: std::sync::OnceLock::new(),
            readers: std::sync::OnceLock::new(),
        }
    }

    /// Name of the design (usually the benchmark name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of variables (including temporaries).
    pub fn variable_count(&self) -> usize {
        self.variables.len()
    }

    /// Returns the node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Returns the edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Returns the variable with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn variable(&self, id: VarId) -> &Variable {
        &self.variables[id.index()]
    }

    /// Iterates over `(id, node)` pairs.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId::new(i), n))
    }

    /// Iterates over `(id, edge)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId::new(i), e))
    }

    /// Iterates over `(id, variable)` pairs.
    pub fn variables(&self) -> impl Iterator<Item = (VarId, &Variable)> {
        self.variables
            .iter()
            .enumerate()
            .map(|(i, v)| (VarId::new(i), v))
    }

    /// Looks a variable up by source name.
    pub fn variable_by_name(&self, name: &str) -> Option<VarId> {
        self.var_by_name.get(name).copied()
    }

    /// Primary input variables, in declaration order.
    pub fn primary_inputs(&self) -> Vec<VarId> {
        self.variables()
            .filter(|(_, v)| v.kind == VariableKind::Input)
            .map(|(id, _)| id)
            .collect()
    }

    /// Primary output variables, in declaration order.
    pub fn primary_outputs(&self) -> Vec<VarId> {
        self.variables()
            .filter(|(_, v)| v.kind == VariableKind::Output)
            .map(|(id, _)| id)
            .collect()
    }

    /// Top-level region sequence (the program body).
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Data-input edges of a node, ordered by port index.
    pub fn data_inputs(&self, node: NodeId) -> Vec<EdgeId> {
        self.node(node).inputs.clone()
    }

    /// Nodes whose output feeds a data port of `node` (same-iteration
    /// dependences only; loop-carried edges are excluded).
    pub fn data_predecessors(&self, node: NodeId) -> Vec<NodeId> {
        self.data_predecessors_iter(node).collect()
    }

    /// Streaming [`Self::data_predecessors`] — the schedulers' dependence
    /// and loop-independence checks call this per node in hot loops, where
    /// the collected form's allocation dominates.
    pub fn data_predecessors_iter(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.node(node).inputs.iter().filter_map(move |&e| {
            let edge = self.edge(e);
            if edge.loop_carried {
                return None;
            }
            match edge.source {
                EdgeSource::Node(n) => Some(n),
                EdgeSource::External => None,
            }
        })
    }

    /// Nodes defining `var`, in node order. The index behind this is built
    /// lazily and kept for the graph's lifetime — trace manipulation derives
    /// register value sequences thousands of times per synthesis run, and
    /// scanning every node per query made that quadratic.
    pub fn definers_of(&self, var: VarId) -> &[NodeId] {
        let index = self.definers.get_or_init(|| {
            let mut definers = vec![Vec::new(); self.variables.len()];
            for (id, node) in self.nodes() {
                if let Some(defined) = node.defines {
                    definers[defined.index()].push(id);
                }
            }
            definers
        });
        index.get(var.index()).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Nodes reading `var` on a data input, in node order, each listed once.
    /// Lazily indexed like [`Self::definers_of`]: a design delta that moves a
    /// variable to another register finds the mux sites routing it from
    /// here instead of scanning every node.
    pub fn readers_of(&self, var: VarId) -> &[NodeId] {
        let index = self.readers.get_or_init(|| {
            let mut readers: Vec<Vec<NodeId>> = vec![Vec::new(); self.variables.len()];
            for (id, node) in self.nodes() {
                for &edge in &node.inputs {
                    let ValueRef::Var(read) = self.edge(edge).value else {
                        continue;
                    };
                    if let Some(list) = readers.get_mut(read.index()) {
                        if list.last() != Some(&id) {
                            list.push(id);
                        }
                    }
                }
            }
            readers
        });
        index.get(var.index()).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Nodes whose output feeds `node` through a loop back-edge.
    pub fn loop_carried_predecessors(&self, node: NodeId) -> Vec<NodeId> {
        self.node(node)
            .inputs
            .iter()
            .filter_map(|&e| {
                let edge = self.edge(e);
                if !edge.loop_carried {
                    return None;
                }
                match edge.source {
                    EdgeSource::Node(n) => Some(n),
                    EdgeSource::External => None,
                }
            })
            .collect()
    }

    /// Nodes that consume the output of `node` (same-iteration dependences).
    pub fn data_successors(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        for edge in &self.edges {
            if edge.loop_carried {
                continue;
            }
            if edge.source == EdgeSource::Node(node) && matches!(edge.port, Port::Data(_)) {
                out.push(edge.target);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Counts nodes by functional-unit class (used to size the initial
    /// fully-parallel architecture).
    pub fn op_class_histogram(&self) -> HashMap<OpClass, usize> {
        let mut hist = HashMap::new();
        for node in &self.nodes {
            *hist.entry(node.operation.class()).or_insert(0) += 1;
        }
        hist
    }

    /// Counts nodes by control-port polarity, as quoted for Figure 1 of the
    /// paper ("seven nodes with positive polarities, five with negative…").
    pub fn polarity_histogram(&self) -> (usize, usize, usize) {
        let mut pos = 0;
        let mut neg = 0;
        let mut none = 0;
        for node in &self.nodes {
            match node.control.polarity {
                Polarity::ActiveHigh => pos += 1,
                Polarity::ActiveLow => neg += 1,
                Polarity::None => none += 1,
            }
        }
        (pos, neg, none)
    }

    /// Checks the structural invariants of the graph.
    ///
    /// # Errors
    ///
    /// Returns the first violation found: dangling node/edge references,
    /// arity mismatches, unbound edges or malformed regions.
    pub fn validate(&self) -> Result<(), CdfgError> {
        if self.nodes.is_empty() {
            return Err(CdfgError::EmptyGraph);
        }
        for (id, node) in self.nodes() {
            for &edge in &node.inputs {
                if edge.index() >= self.edges.len() {
                    return Err(CdfgError::DanglingEdge { node: id, edge });
                }
            }
            if let Some(edge) = node.control.condition {
                if edge.index() >= self.edges.len() {
                    return Err(CdfgError::DanglingEdge { node: id, edge });
                }
            }
            let expected = node.operation.arity();
            // `Select` carries its condition on the control port, `EndLoop`
            // may aggregate several live-outs; all other arities are exact.
            let found = node.inputs.len();
            let ok = match node.operation {
                Operation::EndLoop => found >= 1,
                _ => found == expected,
            };
            if !ok {
                return Err(CdfgError::ArityMismatch {
                    node: id,
                    expected,
                    found,
                });
            }
            if let Some(var) = node.defines {
                if var.index() >= self.variables.len() {
                    return Err(CdfgError::UnknownVariable { var });
                }
            }
        }
        for (id, edge) in self.edges() {
            if edge.target.index() >= self.nodes.len() {
                return Err(CdfgError::DanglingNode {
                    edge: id,
                    node: edge.target,
                });
            }
            if let EdgeSource::Node(n) = edge.source {
                if n.index() >= self.nodes.len() {
                    return Err(CdfgError::DanglingNode { edge: id, node: n });
                }
            }
            if let ValueRef::Var(v) = edge.value {
                if v.index() >= self.variables.len() {
                    return Err(CdfgError::UnknownVariable { var: v });
                }
            }
        }
        self.validate_regions()?;
        Ok(())
    }

    fn validate_regions(&self) -> Result<(), CdfgError> {
        let mut seen = vec![false; self.nodes.len()];
        fn walk(regions: &[Region], nodes_len: usize, seen: &mut [bool]) -> Result<(), CdfgError> {
            for region in regions {
                match region {
                    Region::Block(nodes) => {
                        for &n in nodes {
                            if n.index() >= nodes_len {
                                return Err(CdfgError::MalformedRegion {
                                    detail: format!("block references missing node {n}"),
                                });
                            }
                            if seen[n.index()] {
                                return Err(CdfgError::MalformedRegion {
                                    detail: format!("node {n} appears in more than one region"),
                                });
                            }
                            seen[n.index()] = true;
                        }
                    }
                    Region::Branch {
                        then_regions,
                        else_regions,
                        selects,
                        ..
                    } => {
                        walk(then_regions, nodes_len, seen)?;
                        walk(else_regions, nodes_len, seen)?;
                        for &n in selects {
                            if n.index() >= nodes_len {
                                return Err(CdfgError::MalformedRegion {
                                    detail: format!("branch select references missing node {n}"),
                                });
                            }
                            if seen[n.index()] {
                                return Err(CdfgError::MalformedRegion {
                                    detail: format!("node {n} appears in more than one region"),
                                });
                            }
                            seen[n.index()] = true;
                        }
                    }
                    Region::Loop(info) => {
                        walk(&info.header, nodes_len, seen)?;
                        walk(&info.body, nodes_len, seen)?;
                        for &n in &info.end_nodes {
                            if n.index() >= nodes_len {
                                return Err(CdfgError::MalformedRegion {
                                    detail: format!("loop end references missing node {n}"),
                                });
                            }
                            if seen[n.index()] {
                                return Err(CdfgError::MalformedRegion {
                                    detail: format!("node {n} appears in more than one region"),
                                });
                            }
                            seen[n.index()] = true;
                        }
                    }
                }
            }
            Ok(())
        }
        walk(&self.regions, self.nodes.len(), &mut seen)?;
        if let Some(idx) = seen.iter().position(|s| !s) {
            return Err(CdfgError::MalformedRegion {
                detail: format!("node {} is not covered by any region", NodeId::new(idx)),
            });
        }
        Ok(())
    }

    // ---- construction helpers used by the builder and the HDL lowering ----

    pub(crate) fn push_node(&mut self, node: Node) -> NodeId {
        self.definers.take();
        self.readers.take();
        let id = NodeId::new(self.nodes.len());
        self.nodes.push(node);
        id
    }

    pub(crate) fn push_edge(&mut self, edge: Edge) -> EdgeId {
        self.readers.take();
        let id = EdgeId::new(self.edges.len());
        self.edges.push(edge);
        id
    }

    pub(crate) fn push_variable(&mut self, var: Variable) -> Result<VarId, CdfgError> {
        if self.var_by_name.contains_key(&var.name) {
            return Err(CdfgError::DuplicateVariable {
                name: var.name.clone(),
            });
        }
        let id = VarId::new(self.variables.len());
        self.var_by_name.insert(var.name.clone(), id);
        self.variables.push(var);
        Ok(id)
    }

    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.definers.take();
        self.readers.take();
        &mut self.nodes[id.index()]
    }

    pub(crate) fn edges_mut(&mut self) -> &mut Vec<Edge> {
        self.readers.take();
        &mut self.edges
    }

    pub(crate) fn set_regions(&mut self, regions: Vec<Region>) {
        self.regions = regions;
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::builder::CdfgBuilder;
    use crate::op::Operation;

    fn tiny() -> Cdfg {
        let mut b = CdfgBuilder::new("tiny");
        let a = b.input("a", 8);
        let c = b.input("b", 8);
        b.binary(Operation::Add, ValueRef::Var(a), ValueRef::Var(c), "sum")
            .unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn counts_and_lookup() {
        let g = tiny();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.variable_count(), 3);
        assert!(g.variable_by_name("sum").is_some());
        assert!(g.variable_by_name("missing").is_none());
        assert_eq!(g.primary_inputs().len(), 2);
    }

    #[test]
    fn validation_accepts_well_formed_graphs() {
        assert!(tiny().validate().is_ok());
    }

    #[test]
    fn value_ref_accessors() {
        assert_eq!(ValueRef::Const(4).as_const(), Some(4));
        assert_eq!(ValueRef::Const(4).as_var(), None);
        let v = VarId::new(1);
        assert_eq!(ValueRef::Var(v).as_var(), Some(v));
        assert_eq!(ValueRef::var(v), ValueRef::Var(v));
    }

    #[test]
    fn histogram_counts_classes() {
        let g = tiny();
        let hist = g.op_class_histogram();
        assert_eq!(hist.get(&OpClass::AddSub), Some(&1));
    }

    #[test]
    fn predecessors_follow_def_use_edges() {
        let mut b = CdfgBuilder::new("chain");
        let a = b.input("a", 8);
        let s1 = b
            .binary(Operation::Add, ValueRef::Var(a), ValueRef::Const(1), "t1")
            .unwrap();
        let _s2 = b
            .binary(Operation::Mul, ValueRef::Var(s1), ValueRef::Const(2), "t2")
            .unwrap();
        let g = b.finish().unwrap();
        let n0 = NodeId::new(0);
        let n1 = NodeId::new(1);
        assert_eq!(g.data_predecessors(n1), vec![n0]);
        assert_eq!(g.data_successors(n0), vec![n1]);
        assert!(g.data_predecessors(n0).is_empty());
    }

    #[test]
    fn readers_list_each_reading_node_once_in_node_order() {
        let mut b = CdfgBuilder::new("square");
        let a = b.input("a", 8);
        let sq = b
            .binary(Operation::Mul, ValueRef::Var(a), ValueRef::Var(a), "sq")
            .unwrap();
        let _sum = b
            .binary(Operation::Add, ValueRef::Var(sq), ValueRef::Var(a), "sum")
            .unwrap();
        let g = b.finish().unwrap();
        let (n0, n1) = (NodeId::new(0), NodeId::new(1));
        assert_eq!(g.readers_of(a), &[n0, n1]);
        assert_eq!(g.readers_of(sq), &[n1]);
        assert!(g.readers_of(g.variable_by_name("sum").unwrap()).is_empty());
    }

    #[test]
    fn validation_rejects_duplicate_region_membership() {
        let mut g = tiny();
        // Duplicate the single block so the only node appears twice.
        let regions = g.regions().to_vec();
        let mut doubled = regions.clone();
        doubled.extend(regions);
        g.set_regions(doubled);
        assert!(matches!(
            g.validate(),
            Err(CdfgError::MalformedRegion { .. })
        ));
    }
}
