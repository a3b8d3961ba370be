#![allow(clippy::unwrap_used)]

//! `Stg::max_acyclic_cycles` walks each state and transition once. On the
//! reducible graphs the composer builds it must equal the longest simple
//! path from the entry, which the exhaustive search below finds by trying
//! every path.

use impact_behsim::simulate;
use impact_sched::{uniform_problem, BaselineScheduler, Scheduler, WaveScheduler};
use impact_stg::{Guard, StateId, Stg};
use rand::{Rng, SeedableRng, StdRng};

/// The number of states on the longest simple path from the entry over
/// positive-probability transitions, by depth-first search over every
/// simple path. Exponential in the number of sequential branches.
fn longest_simple_path(stg: &Stg) -> u32 {
    fn walk(successors: &[Vec<usize>], state: usize, on_path: &mut [bool], depth: u32) -> u32 {
        let mut best = depth;
        on_path[state] = true;
        for &next in &successors[state] {
            if !on_path[next] {
                best = best.max(walk(successors, next, on_path, depth + 1));
            }
        }
        on_path[state] = false;
        best
    }
    if stg.state_count() == 0 {
        return 0;
    }
    let mut successors = vec![Vec::new(); stg.state_count()];
    for t in stg.transitions() {
        if t.probability > 0.0 {
            successors[t.from.index()].push(t.to.index());
        }
    }
    let mut on_path = vec![false; stg.state_count()];
    walk(&successors, stg.entry().index(), &mut on_path, 1)
}

#[test]
fn the_benchmark_schedules_are_bounded_like_the_exhaustive_search() {
    for bench in impact_benchmarks::all_benchmarks() {
        let cdfg = bench.compile().unwrap();
        let trace = simulate(&cdfg, &bench.input_sequences(48, 1998)).unwrap();
        let problem = uniform_problem(&cdfg, trace.profile());
        let schedulers: [&dyn Scheduler; 2] = [&WaveScheduler, &BaselineScheduler];
        for scheduler in schedulers {
            let stg = scheduler.schedule(&problem).unwrap().stg;
            let longest = stg.max_acyclic_cycles();
            assert_eq!(longest, longest_simple_path(&stg), "{}", bench.name);
            let shortest = stg.min_cycles().unwrap();
            assert!(1 <= shortest && shortest <= longest, "{}", bench.name);
        }
    }
}

#[test]
fn overlapped_back_edges_re_enter_a_leading_branch_on_both_sides() {
    // The body opens with a branch on a bare input, so no condition block
    // precedes it: the header's edges enter the two sides' first states
    // through the branch, and an overlapped iteration must too.
    let cdfg = impact_hdl::compile(
        "design overlap { input a: 8, c: 1; output y: 8; var s: 8 = 0; var i: 8 = 0;
           while (i < 4) { if (c) { s = s + a; i = i + 1; } else { s = s - a; i = i + 2; } }
           y = s; }",
    )
    .unwrap();
    let inputs: Vec<Vec<i64>> = (0..8).map(|pass| vec![3, pass % 2]).collect();
    let trace = simulate(&cdfg, &inputs).unwrap();
    let problem = uniform_problem(&cdfg, trace.profile());
    let stg = WaveScheduler.schedule(&problem).unwrap().stg;
    assert_eq!(stg.validate(), Ok(()));

    // The sides' first states, and the states that test the loop: the
    // header's tail, then the body's tails once the loop is overlapped.
    let side_entries = |from: Option<StateId>| {
        let mut entries: Vec<(bool, StateId)> = stg
            .transitions()
            .iter()
            .filter(|t| from.is_none_or(|from| t.from == from))
            .filter_map(|t| match t.guard {
                Guard::Branch { taken, .. } => Some((taken, t.to)),
                _ => None,
            })
            .collect();
        entries.sort_unstable();
        entries.dedup();
        entries
    };
    let sides = side_entries(None);
    assert_eq!(sides.len(), 2, "one first state per side: {sides:?}");
    assert!(sides[0].1 != sides[1].1, "{sides:?}");
    let mut testers: Vec<StateId> = stg
        .transitions()
        .iter()
        .filter(|t| {
            matches!(
                t.guard,
                Guard::Loop {
                    continues: false,
                    ..
                }
            )
        })
        .map(|t| t.from)
        .collect();
    testers.sort_unstable();
    testers.dedup();
    assert_eq!(testers.len(), 3, "the header's tail and both sides' tails");
    for tester in testers {
        assert_eq!(side_entries(Some(tester)), sides, "from {tester:?}");
        assert!(
            stg.transitions().iter().all(|t| t.from != tester
                || !matches!(
                    t.guard,
                    Guard::Loop {
                        continues: true,
                        ..
                    }
                )),
            "{tester:?} skips the branch"
        );
    }
    assert_eq!(stg.max_acyclic_cycles(), longest_simple_path(&stg));
}

/// Builds random structured control flow into an STG: sequences, branches
/// with an optional empty side, while loops (the back edge returns to the
/// header) and overlapped loops (the back edge returns to the body's first
/// state). Every back edge targets a state that dominates its source, so
/// the graph is reducible.
struct Generator {
    rng: StdRng,
    stg: Stg,
    /// States left to add.
    budget: usize,
}

impl Generator {
    fn probability(&mut self) -> f64 {
        // One edge in ten never fires.
        match self.rng.random_range(0..10u32) {
            0 => 0.0,
            _ => 0.5,
        }
    }

    fn state(&mut self, incoming: &[StateId]) -> StateId {
        self.budget = self.budget.saturating_sub(1);
        let state = self.stg.add_state();
        self.connect(incoming, state, Guard::Always);
        state
    }

    fn connect(&mut self, from: &[StateId], to: StateId, guard: Guard) {
        for &source in from {
            let probability = self.probability();
            self.stg
                .add_transition(source, to, guard.clone(), probability);
        }
    }

    /// Adds one region entered from `incoming`; returns the states control
    /// leaves it from.
    fn region(&mut self, incoming: Vec<StateId>, depth: u32) -> Vec<StateId> {
        let shape = if self.budget == 0 || depth > 4 {
            0
        } else {
            self.rng.random_range(0..5u32)
        };
        match shape {
            0 => vec![self.state(&incoming)],
            1 => {
                let mut exits = self.region(incoming, depth + 1);
                for _ in 0..self.rng.random_range(1..3usize) {
                    exits = self.region(exits, depth + 1);
                }
                exits
            }
            2 => {
                let mut exits = self.region(incoming.clone(), depth + 1);
                if self.rng.random_range(0..3u32) == 0 {
                    exits.extend(incoming);
                } else {
                    exits.extend(self.region(incoming, depth + 1));
                }
                exits
            }
            3 => {
                let header = self.state(&incoming);
                let body_exits = self.region(vec![header], depth + 1);
                self.connect(&body_exits, header, Guard::loop_back("l", true));
                vec![header]
            }
            _ => {
                // The body opens with a state of its own, which dominates
                // the rest of the body.
                let header = self.state(&incoming);
                let body_entry = self.state(&[header]);
                let body_exits = self.region(vec![body_entry], depth + 1);
                self.connect(&body_exits, body_entry, Guard::loop_back("l", true));
                body_exits
            }
        }
    }
}

#[test]
fn random_reducible_graphs_are_bounded_like_the_exhaustive_search() {
    let mut largest = 0;
    for seed in 0..300 {
        let mut generator = Generator {
            rng: StdRng::seed_from_u64(seed),
            stg: Stg::new("random", 15.0),
            budget: 20,
        };
        let entry = generator.state(&[]);
        for exit in generator.region(vec![entry], 0) {
            generator.stg.set_exit_probability(exit, 0.5);
        }
        let stg = generator.stg;
        assert_eq!(stg.entry(), entry);
        assert_eq!(
            stg.max_acyclic_cycles(),
            longest_simple_path(&stg),
            "seed {seed}"
        );
        largest = largest.max(stg.state_count());
    }
    assert!(largest >= 15, "the graphs reach {largest} states");
}
