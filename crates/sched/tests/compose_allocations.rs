#![allow(clippy::unwrap_used)]

//! An allocation budget for composing a schedule. Every block comes from a
//! recorded source, so what `compose` allocates is its own work: the STG,
//! the edge lists it routes, tail placement and the result.
//!
//! The counter is thread-local, so other tests running in parallel cannot
//! disturb it, and the count is deterministic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use impact_behsim::simulate;
use impact_cdfg::NodeId;
use impact_sched::{
    compose, uniform_problem, BlockOutcome, BlockSchedule, BlockSource, InlineBlocks, SchedError,
    SchedulingProblem,
};

/// The system allocator, counting every allocation the current thread asks
/// for (`alloc`, `alloc_zeroed` and `realloc`).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may already be gone while a thread shuts down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counter touches no heap memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Serves the blocks of an earlier composition of the same problem, in
/// traversal order.
struct Recorded<'r> {
    blocks: &'r [BlockOutcome],
    next: usize,
}

impl BlockSource for Recorded<'_> {
    fn block(
        &mut self,
        _problem: &SchedulingProblem<'_>,
        nodes: &[NodeId],
    ) -> Result<(u128, Arc<BlockSchedule>), SchedError> {
        let index = self.next;
        self.next += 1;
        let outcome = &self.blocks[index];
        assert_eq!(
            outcome.nodes, nodes,
            "the traversal requests block {index} again"
        );
        Ok((outcome.digest, Arc::clone(&outcome.schedule)))
    }
}

/// Allocations of one such `compose` per design, in `all_benchmarks` order,
/// when every state held its own `Vec` of operations, composition ended with
/// both cycle-bound walks and tail placement collected into fresh vectors.
const BEFORE: [(&str, u64); 6] = [
    ("loops", 144),
    ("gcd", 79),
    ("dealer", 195),
    ("x25_send", 156),
    ("cordic", 84),
    ("paulin", 68),
];

#[test]
fn composing_from_recorded_blocks_allocates_at_most_half_as_before() {
    let mut over = Vec::new();
    for (bench, (name, before)) in impact_benchmarks::all_benchmarks().iter().zip(BEFORE) {
        assert_eq!(bench.name, name);
        let cdfg = bench.compile().unwrap();
        let trace = simulate(&cdfg, &bench.input_sequences(48, 1998)).unwrap();
        let problem = uniform_problem(&cdfg, trace.profile());
        let inline = compose(&problem, &mut InlineBlocks).unwrap();

        let mut recorded = Recorded {
            blocks: &inline.blocks,
            next: 0,
        };
        let start = allocations();
        let composed = compose(&problem, &mut recorded).unwrap();
        let made = allocations() - start;

        assert_eq!(composed, inline, "{name}");
        println!("{name}: {made} allocations (before: {before})");
        if 2 * made > before {
            over.push(format!("{name} {made} of {before}"));
        }
    }
    assert!(
        over.is_empty(),
        "composition allocates more than half as before: {}",
        over.join(", ")
    );
}
