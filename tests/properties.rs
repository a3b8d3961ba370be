#![allow(clippy::unwrap_used)]

//! Property-based tests (proptest) over the core data structures and
//! invariants: mux-tree activity, switching statistics, the Vdd scaling
//! model, operation semantics and STG expectations.

use impact::cdfg::Operation;
use impact::modlib::VddScaling;
use impact::rtl::{MuxSource, MuxTree};
use impact::stg::{Guard, Stg};
use impact::trace::{hamming_distance, sequence_activity};
use proptest::prelude::*;

fn arbitrary_sources(max: usize) -> impl Strategy<Value = Vec<MuxSource>> {
    prop::collection::vec((0.0f64..1.0, 0.01f64..1.0), 2..max).prop_map(|raw| {
        let total: f64 = raw.iter().map(|(_, p)| p).sum();
        raw.into_iter()
            .enumerate()
            .map(|(i, (a, p))| MuxSource::new(&format!("s{i}"), a, p / total))
            .collect()
    })
}

proptest! {
    /// For up to three sources the paper's greedy construction coincides with
    /// optimal Huffman ordering, so its weighted path length never exceeds
    /// the balanced tree's. (For larger trees the construction is only a
    /// heuristic — "the Huffman algorithm is a greedy algorithm and produces
    /// only an approximate solution" — and IMPACT gates the move on the
    /// estimated gain instead.)
    #[test]
    fn huffman_is_optimal_for_small_trees(sources in arbitrary_sources(4)) {
        let balanced = MuxTree::balanced(sources.clone());
        let huffman = MuxTree::huffman(sources);
        prop_assert!(huffman.weighted_path_length() <= balanced.weighted_path_length() + 1e-9);
    }

    /// Both constructions keep every source reachable and use exactly n−1
    /// two-to-one multiplexers.
    #[test]
    fn mux_trees_are_structurally_sound(sources in arbitrary_sources(9)) {
        let n = sources.len();
        for tree in [MuxTree::balanced(sources.clone()), MuxTree::huffman(sources)] {
            prop_assert_eq!(tree.mux_count(), n - 1);
            for i in 0..n {
                prop_assert!(tree.depth_of(i).is_some());
                prop_assert!(tree.depth_of(i).unwrap() < n);
            }
            prop_assert!(tree.switching_activity() >= 0.0);
            prop_assert!(tree.switching_activity().is_finite());
        }
    }

    /// The root mux term of the activity equation is a lower bound on the
    /// whole tree's activity (Equation (7): the root term is order-invariant).
    #[test]
    fn tree_activity_is_at_least_the_root_term(sources in arbitrary_sources(9)) {
        let root_term: f64 = sources.iter().map(MuxSource::ap).sum::<f64>()
            / sources.iter().map(|s| s.probability).sum::<f64>();
        for tree in [MuxTree::balanced(sources.clone()), MuxTree::huffman(sources)] {
            prop_assert!(tree.switching_activity() + 1e-9 >= root_term);
        }
    }

    /// Switching activity of any value sequence is normalized to [0, 1].
    #[test]
    fn sequence_activity_is_bounded(values in prop::collection::vec(-512i64..512, 0..40), width in 1u8..32) {
        let a = sequence_activity(&values, width);
        prop_assert!((0.0..=1.0).contains(&a));
    }

    /// Hamming distance is symmetric, zero on equal values and bounded by the
    /// width.
    #[test]
    fn hamming_distance_properties(a in any::<i64>(), b in any::<i64>(), width in 1u8..=64) {
        prop_assert_eq!(hamming_distance(a, b, width), hamming_distance(b, a, width));
        prop_assert_eq!(hamming_distance(a, a, width), 0);
        prop_assert!(hamming_distance(a, b, width) <= u32::from(width));
    }

    /// Lower supplies are never faster and never more energetic.
    #[test]
    fn vdd_scaling_is_monotone(v1 in 1.2f64..5.0, v2 in 1.2f64..5.0) {
        let s = VddScaling::standard();
        let (lo, hi) = if v1 <= v2 { (v1, v2) } else { (v2, v1) };
        prop_assert!(s.delay_factor(lo) >= s.delay_factor(hi) - 1e-12);
        prop_assert!(s.energy_factor(lo) <= s.energy_factor(hi) + 1e-12);
        prop_assert!(s.energy_factor(hi) <= 1.0 + 1e-12);
    }

    /// Commutative operations really are commutative, and `Select` always
    /// returns one of its data inputs.
    #[test]
    fn operation_semantics(a in -1000i64..1000, b in -1000i64..1000, cond in any::<bool>()) {
        for op in [Operation::Add, Operation::Mul, Operation::And, Operation::Or, Operation::Xor, Operation::Eq, Operation::Ne] {
            prop_assert_eq!(op.evaluate(&[a, b]), op.evaluate(&[b, a]));
        }
        let sel = Operation::Select.evaluate(&[a, b, i64::from(cond)]);
        prop_assert!(sel == a || sel == b);
        prop_assert_eq!(sel, if cond { a } else { b });
        // Comparisons produce Booleans.
        for op in [Operation::Lt, Operation::Le, Operation::Gt, Operation::Ge, Operation::Eq, Operation::Ne] {
            let v = op.evaluate(&[a, b]);
            prop_assert!(v == 0 || v == 1);
        }
    }

    /// A linear chain of n states has ENC = n, independent of how the
    /// (normalized) probabilities are given.
    #[test]
    fn linear_stg_expectation_is_its_length(n in 1usize..12, weight in 0.1f64..5.0) {
        let mut stg = Stg::new(15.0);
        let states: Vec<_> = (0..n).map(|_| stg.add_state()).collect();
        for w in states.windows(2) {
            stg.add_transition(w[0], w[1], Guard::Always, weight);
        }
        stg.set_exit_probability(states[n - 1], 1.0);
        prop_assert!((stg.expected_cycles() - n as f64).abs() < 1e-6);
    }

    /// A self-looping state with back-edge probability p has expected visit
    /// count 1/(1−p).
    #[test]
    fn geometric_loop_expectation(p in 0.05f64..0.95) {
        let mut stg = Stg::new(15.0);
        let s = stg.add_state();
        stg.add_transition(s, s, Guard::loop_back("l", true), p);
        stg.set_exit_probability(s, 1.0 - p);
        let expected = 1.0 / (1.0 - p);
        prop_assert!((stg.expected_cycles() - expected).abs() / expected < 1e-6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random straight-line programs survive the whole frontend + simulator
    /// pipeline and compute what a reference interpreter computes.
    #[test]
    fn random_straight_line_programs_simulate_correctly(
        ops in prop::collection::vec((0usize..4, -20i64..20), 1..12),
        a in -50i64..50,
        b in -50i64..50,
    ) {
        // Build a chain: v0 = a <op> b; v1 = v0 <op> c1; ...
        let mut source = String::from("design random { input a: 8, b: 8; output y: 16;\n");
        for i in 0..ops.len() {
            source.push_str(&format!("  var v{i}: 16;\n"));
        }
        let mut reference: i64;
        let op_text = |k: usize| ["+", "-", "*", "&"][k];
        let apply = |k: usize, x: i64, y: i64| match k {
            0 => x.wrapping_add(y),
            1 => x.wrapping_sub(y),
            2 => x.wrapping_mul(y),
            _ => x & y,
        };
        let (k0, c0) = ops[0];
        source.push_str(&format!("  v0 = a {} b;\n", op_text(k0)));
        reference = apply(k0, a, b);
        let _ = c0;
        for (i, &(k, c)) in ops.iter().enumerate().skip(1) {
            source.push_str(&format!("  v{i} = v{} {} {c};\n", i - 1, op_text(k)));
            reference = apply(k, reference, c);
        }
        source.push_str(&format!("  y = v{};\n}}\n", ops.len() - 1));

        let cdfg = impact::hdl::compile(&source).expect("generated program compiles");
        let trace = impact::behsim::simulate(&cdfg, &[vec![a, b]]).expect("simulates");
        let y = cdfg.variable_by_name("y").unwrap();
        prop_assert_eq!(trace.output(0, y), Some(reference));
    }
}
