//! Expected number of cycles (ENC) and schedule-length analyses.
//!
//! The ENC is "the expected number of cycles of the schedule" (Section 2.2):
//! the mean number of clock cycles one pass through the design spends in the
//! controller, weighted by branch probabilities and loop trip counts. On the
//! probabilistic STG it is the expected number of steps of an absorbing
//! Markov chain starting at the entry state, which this module solves exactly
//! by Gaussian elimination.

use std::collections::VecDeque;

use crate::state::StateId;
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

    /// Per-state successor lists over the positive-probability transitions,
    /// built in one pass. The schedule-length analyses below walk the graph
    /// repeatedly; scanning the flat transition list per visit would make
    /// them quadratic in the STG size.
    fn successors(&self) -> Vec<Vec<usize>> {
        let mut adjacency = vec![Vec::new(); self.state_count()];
        for t in self.transitions() {
            if t.probability > 0.0 {
                adjacency[t.from.index()].push(t.to.index());
            }
        }
        adjacency
    }

    /// Minimum schedule length: the smallest number of cycles in which a pass
    /// can complete (shortest path from the entry to any exiting state).
    /// Returns `None` when no exiting state is reachable.
    pub fn min_cycles(&self) -> Option<u32> {
        let n = self.state_count();
        if n == 0 {
            return None;
        }
        // Exit detection matches the historical definition: a state exits
        // when it has explicit exit probability or no outgoing transition at
        // all (zero-probability edges included).
        let mut has_outgoing = vec![false; n];
        for t in self.transitions() {
            has_outgoing[t.from.index()] = true;
        }
        let successors = self.successors();
        let mut dist = vec![u32::MAX; n];
        let mut queue = VecDeque::new();
        dist[self.entry().index()] = 1;
        queue.push_back(self.entry());
        let mut best: Option<u32> = None;
        while let Some(state) = queue.pop_front() {
            let d = dist[state.index()];
            let s = self.state(state);
            if s.exit_probability > 0.0 || !has_outgoing[state.index()] {
                best = Some(best.map_or(d, |b| b.min(d)));
            }
            for &next in &successors[state.index()] {
                if dist[next] == u32::MAX {
                    dist[next] = d + 1;
                    queue.push_back(StateId(next));
                }
            }
        }
        best
    }

    /// Maximum acyclic schedule length: the number of states on the longest
    /// path from the entry over positive-probability transitions, once the
    /// back edges of a depth-first search from the entry are dropped. It
    /// bounds the schedule length of a pass in which every loop exits after
    /// at most one iteration.
    ///
    /// O(states + transitions): one iterative depth-first search drops each
    /// transition into a state still on its stack and takes the longest path
    /// of what remains in postorder.
    ///
    /// The contract: on a reducible graph — every back edge targets a state
    /// that dominates its source, as when every loop is entered through its
    /// header only — no simple path from the entry can take a back edge, so
    /// this is the longest simple path from the entry. The schedules of the
    /// benchmark designs are of this kind, and a test compares them with an
    /// exhaustive search. On an irreducible graph the result is the longest
    /// path that avoids this search's back edges, which is a simple path: a
    /// lower bound of the longest one.
    pub fn max_acyclic_cycles(&self) -> u32 {
        /// Depth-first search marks.
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            Unseen,
            OnStack,
            Done,
        }
        let n = self.state_count();
        if n == 0 {
            return 0;
        }
        let successors = self.successors();
        let entry = self.entry().index();
        let mut mark = vec![Mark::Unseen; n];
        // The longest path, in states, from each finished state.
        let mut longest = vec![0u32; n];
        // Each open state with the position of its next successor to visit.
        let mut stack = vec![(entry, 0usize)];
        mark[entry] = Mark::OnStack;
        while let Some((state, next)) = stack.last_mut() {
            let state = *state;
            if let Some(&to) = successors[state].get(*next) {
                *next += 1;
                if mark[to] == Mark::Unseen {
                    mark[to] = Mark::OnStack;
                    stack.push((to, 0));
                }
                continue;
            }
            // Every successor is finished now, except the targets of back
            // edges, which are still on the stack.
            let tail = successors[state]
                .iter()
                .filter(|&&to| mark[to] == Mark::Done)
                .map(|&to| longest[to])
                .max()
                .unwrap_or(0);
            longest[state] = tail + 1;
            mark[state] = Mark::Done;
            stack.pop();
        }
        longest[entry]
    }
}

#[cfg(test)]
mod tests {
    use crate::state::ScheduledOp;
    use crate::stg::{Guard, Stg};
    use impact_cdfg::NodeId;

    #[test]
    fn linear_chain_has_enc_equal_to_length() {
        let mut stg = Stg::new("chain", 15.0);
        let states: Vec<_> = (0..4).map(|_| stg.add_state()).collect();
        for w in states.windows(2) {
            stg.add_transition(w[0], w[1], Guard::Always, 1.0);
        }
        stg.set_exit_probability(states[3], 1.0);
        assert!((stg.expected_cycles() - 4.0).abs() < 1e-9);
        assert_eq!(stg.min_cycles(), Some(4));
        assert_eq!(stg.max_acyclic_cycles(), 4);
    }

    #[test]
    fn branch_weights_enc_by_probability() {
        // Entry splits into a 1-cycle path (p=0.75) and a 3-cycle path (p=0.25).
        let mut stg = Stg::new("branch", 15.0);
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
        assert_eq!(stg.min_cycles(), Some(2));
        assert_eq!(stg.max_acyclic_cycles(), 4);
    }

    /// Branch state, two one-state sides, next branch state, 64 times: the
    /// graph has 2^64 simple paths, and its bounds take one walk each.
    #[test]
    fn a_chain_of_64_diamonds_is_bounded_in_linear_time() {
        let mut stg = Stg::new("diamonds", 15.0);
        let mut branch = stg.add_state();
        for index in 0..64 {
            let taken = stg.add_state();
            let not_taken = stg.add_state();
            let next = stg.add_state();
            stg.add_transition(branch, taken, Guard::Branch { index, taken: true }, 0.5);
            let guard = Guard::Branch {
                index,
                taken: false,
            };
            stg.add_transition(branch, not_taken, guard, 0.5);
            stg.add_transition(taken, next, Guard::Always, 1.0);
            stg.add_transition(not_taken, next, Guard::Always, 1.0);
            branch = next;
        }
        stg.set_exit_probability(branch, 1.0);
        assert_eq!(stg.state_count(), 193);
        assert_eq!(stg.max_acyclic_cycles(), 129);
        assert_eq!(stg.min_cycles(), Some(129));
        assert!(stg.validate().is_ok());
    }

    #[test]
    fn back_edges_and_zero_probability_edges_are_not_walked() {
        // entry -> header <-> body, header -> tail; body -> far with
        // probability 0 would lengthen the path if it were walked.
        let mut stg = Stg::new("while", 15.0);
        let entry = stg.add_state();
        let header = stg.add_state();
        let body = stg.add_state();
        let tail = stg.add_state();
        let far = stg.add_chain(5);
        stg.add_transition(entry, header, Guard::Always, 1.0);
        stg.add_transition(header, body, Guard::loop_back("l", true), 0.9);
        stg.add_transition(header, tail, Guard::loop_back("l", false), 0.1);
        stg.add_transition(body, header, Guard::Always, 1.0);
        stg.add_transition(body, far, Guard::Always, 0.0);
        stg.set_exit_probability(tail, 1.0);
        assert_eq!(stg.max_acyclic_cycles(), 3);
        assert_eq!(stg.min_cycles(), Some(3));
    }

    #[test]
    fn loop_with_back_edge_probability_gives_geometric_enc() {
        let mut stg = Stg::new("loop", 15.0);
        let body = stg.add_state();
        stg.add_op(body, ScheduledOp::new(NodeId::new(0), 0.0, 10.0));
        stg.add_transition(body, body, Guard::loop_back("l", true), 0.9);
        stg.set_exit_probability(body, 0.1);
        // Expected visits of a state with self-loop probability 0.9 is 10.
        assert!((stg.expected_cycles() - 10.0).abs() < 1e-6);
        assert_eq!(stg.min_cycles(), Some(1));
    }

    #[test]
    fn schedule_with_no_exit_has_infinite_enc() {
        let mut stg = Stg::new("spin", 15.0);
        let s = stg.add_state();
        stg.add_transition(s, s, Guard::Always, 1.0);
        assert!(stg.expected_cycles().is_infinite());
    }

    #[test]
    fn inconsistent_probabilities_are_normalized() {
        let mut stg = Stg::new("norm", 15.0);
        let s0 = stg.add_state();
        let s1 = stg.add_state();
        // Outgoing mass is 2.0; after normalization this behaves like p=1.
        stg.add_transition(s0, s1, Guard::Always, 2.0);
        stg.set_exit_probability(s1, 1.0);
        assert!((stg.expected_cycles() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stg_has_zero_enc_and_no_min() {
        let stg = Stg::new("empty", 15.0);
        assert_eq!(stg.expected_cycles(), 0.0);
        assert_eq!(stg.min_cycles(), None);
        assert_eq!(stg.max_acyclic_cycles(), 0);
    }
}
