//! Multiplexer trees and their switching activity.
//!
//! An n-to-1 multiplexer is represented as a tree of 2-to-1 multiplexers
//! (Figure 11 of the paper). Every input signal `i` carries a transition
//! activity `a_i` and a probability of propagation `p_i`; the switching
//! activity of an individual 2-to-1 mux is the probability-normalized sum of
//! the activity-probability products of the leaves beneath it (Equations
//! (2)–(6)), and the tree activity is the sum over all muxes (Equation (7)).
//! [`MuxTree::huffman`] implements the `RESTRUCTURE_MUX` heuristic of
//! Figure 12: signals are ranked by increasing `a·p` and combined
//! Huffman-style so high-activity, high-probability signals sit close to the
//! output.

/// One signal entering a multiplexer tree.
#[derive(Clone, PartialEq, Debug)]
pub struct MuxSource {
    /// Human-readable name of the signal (register or constant).
    pub label: String,
    /// Transition activity `a_i` of the signal (mean normalized Hamming
    /// distance between consecutive values).
    pub activity: f64,
    /// Probability of propagation `p_i`: how often this signal is the one
    /// selected at the tree output.
    pub probability: f64,
}

impl MuxSource {
    /// Creates a source description.
    pub fn new(label: &str, activity: f64, probability: f64) -> Self {
        Self {
            label: label.to_string(),
            activity,
            probability,
        }
    }

    /// The activity-probability product used for ordering.
    pub fn ap(&self) -> f64 {
        self.activity * self.probability
    }
}

/// Binary tree of 2-to-1 multiplexers over a set of sources.
#[derive(Clone, PartialEq, Debug)]
pub struct MuxTree {
    sources: Vec<MuxSource>,
    root: Option<Node>,
}

#[derive(Clone, PartialEq, Debug)]
enum Node {
    Leaf(usize),
    Mux(Box<Node>, Box<Node>),
}

impl Node {
    /// Sum of `a·p` and sum of `p` over the leaves below this node.
    fn sums(&self, sources: &[MuxSource]) -> (f64, f64) {
        match self {
            Node::Leaf(i) => (sources[*i].ap(), sources[*i].probability),
            Node::Mux(l, r) => {
                let (lap, lp) = l.sums(sources);
                let (rap, rp) = r.sums(sources);
                (lap + rap, lp + rp)
            }
        }
    }

    /// Total switching activity of the muxes in this subtree (Equation (7)).
    fn activity(&self, sources: &[MuxSource]) -> f64 {
        match self {
            Node::Leaf(_) => 0.0,
            Node::Mux(l, r) => {
                let (ap, p) = self.sums(sources);
                let own = if p > 0.0 { ap / p } else { 0.0 };
                own + l.activity(sources) + r.activity(sources)
            }
        }
    }

    fn depth_of(&self, index: usize, depth: usize) -> Option<usize> {
        match self {
            Node::Leaf(i) => (*i == index).then_some(depth),
            Node::Mux(l, r) => l
                .depth_of(index, depth + 1)
                .or_else(|| r.depth_of(index, depth + 1)),
        }
    }

    fn max_depth(&self) -> usize {
        match self {
            Node::Leaf(_) => 0,
            Node::Mux(l, r) => 1 + l.max_depth().max(r.max_depth()),
        }
    }

    fn mux_count(&self) -> usize {
        match self {
            Node::Leaf(_) => 0,
            Node::Mux(l, r) => 1 + l.mux_count() + r.mux_count(),
        }
    }
}

impl MuxTree {
    /// Builds a balanced tree over the sources in the given order (the
    /// default structure before restructuring).
    pub fn balanced(sources: Vec<MuxSource>) -> Self {
        let root = if sources.is_empty() {
            None
        } else {
            let mut level: Vec<Node> = (0..sources.len()).map(Node::Leaf).collect();
            while level.len() > 1 {
                let mut next = Vec::with_capacity(level.len().div_ceil(2));
                let mut iter = level.into_iter();
                while let Some(left) = iter.next() {
                    match iter.next() {
                        Some(right) => next.push(Node::Mux(Box::new(left), Box::new(right))),
                        None => next.push(left),
                    }
                }
                level = next;
            }
            level.pop()
        };
        Self { sources, root }
    }

    /// The depth of every source in the balanced tree over `n` sources, in
    /// source order: what [`Self::balanced`] followed by [`Self::depth_of`]
    /// gives, without building the tree. The depths depend only on `n`. On
    /// level `k` leaf `i` sits at node `i >> k`, and every node pairs with
    /// its neighbour under one 2-to-1 mux except the odd last node of a
    /// level, which moves up unpaired.
    pub fn balanced_depths(n: usize) -> Vec<usize> {
        let mut depths = vec![0; n];
        let mut width = n;
        let mut level = 0;
        while width > 1 {
            let unpaired = (width % 2 == 1).then_some(width - 1);
            for (leaf, depth) in depths.iter_mut().enumerate() {
                if Some(leaf >> level) != unpaired {
                    *depth += 1;
                }
            }
            width = width.div_ceil(2);
            level += 1;
        }
        depths
    }

    /// Builds the restructured tree of the `RESTRUCTURE_MUX` /
    /// `HUFFMAN_CONSTRUCT` heuristic (Figure 12): signals are ordered by
    /// increasing activity-probability product and repeatedly combined two at
    /// a time; the combined signal's `a·p` is the subtree's accumulated mux
    /// activity weighted by its total probability.
    pub fn huffman(sources: Vec<MuxSource>) -> Self {
        if sources.is_empty() {
            return Self {
                sources,
                root: None,
            };
        }
        // Work list of (node, ordering-ap, total probability).
        struct Item {
            node: Node,
            ap: f64,
            probability: f64,
        }
        let mut items: Vec<Item> = sources
            .iter()
            .enumerate()
            .map(|(i, s)| Item {
                node: Node::Leaf(i),
                ap: s.ap(),
                probability: s.probability,
            })
            .collect();
        while items.len() > 1 {
            items.sort_by(|a, b| a.ap.partial_cmp(&b.ap).expect("ap products are finite"));
            let first = items.remove(0);
            let second = items.remove(0);
            let node = Node::Mux(Box::new(first.node), Box::new(second.node));
            let probability = first.probability + second.probability;
            // Accumulated activity of every mux in the new subtree.
            let subtree_activity = node.activity(&sources);
            items.push(Item {
                node,
                ap: probability * subtree_activity,
                probability,
            });
        }
        let root = items.pop().map(|item| item.node);
        Self { sources, root }
    }

    /// The sources of the tree, in their original order.
    pub fn sources(&self) -> &[MuxSource] {
        &self.sources
    }

    /// Number of input signals.
    pub fn input_count(&self) -> usize {
        self.sources.len()
    }

    /// Number of 2-to-1 multiplexers in the tree (`n − 1`).
    pub fn mux_count(&self) -> usize {
        self.root.as_ref().map(Node::mux_count).unwrap_or(0)
    }

    /// Total switching activity of the tree (Equation (7)).
    pub fn switching_activity(&self) -> f64 {
        self.root
            .as_ref()
            .map(|r| r.activity(&self.sources))
            .unwrap_or(0.0)
    }

    /// Number of 2-to-1 mux stages the given source traverses to reach the
    /// output (its code length in the source-coding analogy).
    pub fn depth_of(&self, source_index: usize) -> Option<usize> {
        self.root.as_ref().and_then(|r| r.depth_of(source_index, 0))
    }

    /// Depth of the deepest source: the worst-case number of mux delays added
    /// to a path through this tree.
    pub fn max_depth(&self) -> usize {
        self.root.as_ref().map(Node::max_depth).unwrap_or(0)
    }

    /// Weighted average depth `Σ aᵢ·pᵢ·lᵢ`, the quantity the Huffman heuristic
    /// minimizes.
    pub fn weighted_path_length(&self) -> f64 {
        self.sources
            .iter()
            .enumerate()
            .map(|(i, s)| s.ap() * self.depth_of(i).unwrap_or(0) as f64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_sources() -> Vec<MuxSource> {
        vec![
            MuxSource::new("e1", 0.6, 0.7),
            MuxSource::new("e2", 0.1, 0.2),
            MuxSource::new("e3", 0.2, 0.05),
            MuxSource::new("e4", 0.1, 0.05),
        ]
    }

    #[test]
    fn paper_balanced_tree_activity_is_1_09() {
        let tree = MuxTree::balanced(paper_sources());
        assert!((tree.switching_activity() - 1.09).abs() < 0.01);
        assert_eq!(tree.mux_count(), 3);
        assert_eq!(tree.max_depth(), 2);
    }

    #[test]
    fn paper_restructured_tree_activity_is_0_72() {
        let tree = MuxTree::huffman(paper_sources());
        let activity = tree.switching_activity();
        assert!((activity - 0.72).abs() < 0.01, "activity was {activity}");
        // 34% reduction quoted in the paper.
        let balanced = MuxTree::balanced(paper_sources()).switching_activity();
        let reduction = 1.0 - activity / balanced;
        assert!((reduction - 0.34).abs() < 0.02, "reduction was {reduction}");
    }

    #[test]
    fn huffman_places_the_hottest_signal_closest_to_the_output() {
        let tree = MuxTree::huffman(paper_sources());
        // e1 has by far the largest a·p product, so it must sit at depth 1.
        assert_eq!(tree.depth_of(0), Some(1));
        // The two coldest signals sit deepest.
        assert_eq!(tree.depth_of(2), Some(3));
        assert_eq!(tree.depth_of(3), Some(3));
    }

    #[test]
    fn huffman_never_exceeds_balanced_weighted_path_length() {
        let cases = vec![
            paper_sources(),
            vec![
                MuxSource::new("a", 0.5, 0.25),
                MuxSource::new("b", 0.5, 0.25),
                MuxSource::new("c", 0.5, 0.25),
                MuxSource::new("d", 0.5, 0.25),
            ],
            vec![
                MuxSource::new("a", 0.9, 0.6),
                MuxSource::new("b", 0.1, 0.1),
                MuxSource::new("c", 0.2, 0.1),
                MuxSource::new("d", 0.3, 0.1),
                MuxSource::new("e", 0.4, 0.1),
            ],
        ];
        for sources in cases {
            let balanced = MuxTree::balanced(sources.clone());
            let huffman = MuxTree::huffman(sources);
            assert!(huffman.weighted_path_length() <= balanced.weighted_path_length() + 1e-9);
        }
    }

    #[test]
    fn single_source_needs_no_mux() {
        let tree = MuxTree::balanced(vec![MuxSource::new("only", 0.4, 1.0)]);
        assert_eq!(tree.mux_count(), 0);
        assert_eq!(tree.switching_activity(), 0.0);
        assert_eq!(tree.max_depth(), 0);
        assert_eq!(tree.depth_of(0), Some(0));
    }

    #[test]
    fn empty_tree_is_harmless() {
        let tree = MuxTree::huffman(vec![]);
        assert_eq!(tree.mux_count(), 0);
        assert_eq!(tree.switching_activity(), 0.0);
        assert_eq!(tree.input_count(), 0);
        assert_eq!(tree.depth_of(0), None);
    }

    #[test]
    fn two_sources_give_one_mux_with_normalized_activity() {
        let tree = MuxTree::balanced(vec![
            MuxSource::new("x", 0.8, 0.5),
            MuxSource::new("y", 0.2, 0.5),
        ]);
        assert_eq!(tree.mux_count(), 1);
        assert!((tree.switching_activity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn balanced_depths_match_the_built_tree() {
        for n in 0..=64 {
            let tree = MuxTree::balanced(vec![MuxSource::new("s", 0.5, 0.5); n]);
            let built: Vec<usize> = (0..n).map(|i| tree.depth_of(i).unwrap_or(0)).collect();
            assert_eq!(MuxTree::balanced_depths(n), built, "{n} sources");
        }
    }

    #[test]
    fn uniform_sources_make_balanced_and_huffman_equivalent() {
        let sources: Vec<MuxSource> = (0..8)
            .map(|i| MuxSource::new(&format!("s{i}"), 0.5, 0.125))
            .collect();
        let balanced = MuxTree::balanced(sources.clone()).switching_activity();
        let huffman = MuxTree::huffman(sources).switching_activity();
        assert!((balanced - huffman).abs() < 1e-9);
    }
}
