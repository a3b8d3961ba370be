#![allow(clippy::unwrap_used)]

//! An overlapped loop replicates its header's operations into the body's
//! tail states, so each tail tests the loop and sends control back into
//! the body. A body that opens with a branch must be re-entered through the
//! branch, the way the header's edges enter it.

use impact_behsim::simulate;
use impact_sched::{uniform_problem, Scheduler, WaveScheduler};
use impact_stg::{Guard, StateId};

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
}
