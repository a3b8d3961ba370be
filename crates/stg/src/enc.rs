//! Expected number of cycles (ENC) of a state transition graph.
//!
//! The ENC is "the expected number of cycles of the schedule" (Section 2.2):
//! the mean number of clock cycles one pass through the design spends in the
//! controller, weighted by branch probabilities and loop trip counts. On the
//! probabilistic STG it is the expected number of steps of an absorbing
//! Markov chain starting at the entry state, which this module solves exactly
//! by Gaussian elimination.

use crate::stg::Stg;

impl Stg {
    /// Expected number of cycles of one pass, solved exactly from the
    /// transition probabilities. Returns `f64::INFINITY` when some cycle has
    /// probability 1 of repeating forever (a schedule with no exit).
    pub fn expected_cycles(&self) -> f64 {
        let n = self.state_count();
        if n == 0 {
            return 0.0;
        }
        // Build E = 1 + P·E as (I − P)·E = 1 and solve with partial pivoting.
        let mut a = vec![vec![0.0f64; n + 1]; n];
        for (i, row) in a.iter_mut().enumerate() {
            row[i] = 1.0;
            row[n] = 1.0;
            let _ = i;
        }
        for t in self.transitions() {
            // Normalize against the total outgoing mass so mildly inconsistent
            // probabilities still yield a sensible expectation.
            let total: f64 = self
                .outgoing(t.from)
                .iter()
                .map(|x| x.probability)
                .sum::<f64>()
                + self.state(t.from).exit_probability;
            let p = if total > 0.0 {
                t.probability / total
            } else {
                0.0
            };
            a[t.from.index()][t.to.index()] -= p;
        }

        // Gaussian elimination with partial pivoting on the augmented matrix.
        for col in 0..n {
            let pivot = (col..n)
                .max_by(|&x, &y| {
                    a[x][col]
                        .abs()
                        .partial_cmp(&a[y][col].abs())
                        .expect("finite")
                })
                .expect("rows remain");
            if a[pivot][col].abs() < 1e-12 {
                return f64::INFINITY;
            }
            a.swap(col, pivot);
            let pivot_row = a[col][col..=n].to_vec();
            for row in 0..n {
                if row == col {
                    continue;
                }
                let factor = a[row][col] / a[col][col];
                if factor == 0.0 {
                    continue;
                }
                for (x, &p) in a[row][col..=n].iter_mut().zip(&pivot_row) {
                    *x -= factor * p;
                }
            }
        }
        let e_entry = a[self.entry().index()][n] / a[self.entry().index()][self.entry().index()];
        if e_entry.is_finite() && e_entry >= 0.0 {
            e_entry
        } else {
            f64::INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::state::ScheduledOp;
    use crate::stg::{Guard, Stg};
    use impact_cdfg::NodeId;

    #[test]
    fn linear_chain_has_enc_equal_to_length() {
        let mut stg = Stg::new(15.0);
        let states: Vec<_> = (0..4).map(|_| stg.add_state()).collect();
        for w in states.windows(2) {
            stg.add_transition(w[0], w[1], Guard::Always, 1.0);
        }
        stg.set_exit_probability(states[3], 1.0);
        assert!((stg.expected_cycles() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn branch_weights_enc_by_probability() {
        // Entry splits into a 1-cycle path (p=0.75) and a 3-cycle path (p=0.25).
        let mut stg = Stg::new(15.0);
        let s0 = stg.add_state();
        let fast = stg.add_state();
        let slow1 = stg.add_state();
        let slow2 = stg.add_state();
        let slow3 = stg.add_state();
        stg.add_transition(
            s0,
            fast,
            Guard::Branch {
                index: 0,
                taken: true,
            },
            0.75,
        );
        stg.add_transition(
            s0,
            slow1,
            Guard::Branch {
                index: 0,
                taken: false,
            },
            0.25,
        );
        stg.add_transition(slow1, slow2, Guard::Always, 1.0);
        stg.add_transition(slow2, slow3, Guard::Always, 1.0);
        stg.set_exit_probability(fast, 1.0);
        stg.set_exit_probability(slow3, 1.0);
        // ENC = 1 + 0.75·1 + 0.25·3 = 2.5
        assert!((stg.expected_cycles() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn loop_with_back_edge_probability_gives_geometric_enc() {
        let mut stg = Stg::new(15.0);
        let body = stg.add_state();
        stg.add_op(body, ScheduledOp::new(NodeId::new(0), 0.0, 10.0));
        stg.add_transition(body, body, Guard::loop_back("l", true), 0.9);
        stg.set_exit_probability(body, 0.1);
        // Expected visits of a state with self-loop probability 0.9 is 10.
        assert!((stg.expected_cycles() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn schedule_with_no_exit_has_infinite_enc() {
        let mut stg = Stg::new(15.0);
        let s = stg.add_state();
        stg.add_transition(s, s, Guard::Always, 1.0);
        assert!(stg.expected_cycles().is_infinite());
    }

    #[test]
    fn inconsistent_probabilities_are_normalized() {
        let mut stg = Stg::new(15.0);
        let s0 = stg.add_state();
        let s1 = stg.add_state();
        // Outgoing mass is 2.0; after normalization this behaves like p=1.
        stg.add_transition(s0, s1, Guard::Always, 2.0);
        stg.set_exit_probability(s1, 1.0);
        assert!((stg.expected_cycles() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stg_has_zero_enc_and_no_min() {
        let stg = Stg::new(15.0);
        assert_eq!(stg.expected_cycles(), 0.0);
    }
}
