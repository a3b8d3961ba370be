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
    compose, uniform_problem, BlockSchedule, BlockSource, RecordingBlocks, SchedError,
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

/// Serves the blocks an earlier composition of the same problem recorded,
/// in traversal order.
struct Replay<'r> {
    blocks: &'r [(Vec<NodeId>, Arc<BlockSchedule>)],
    next: usize,
}

impl BlockSource for Replay<'_> {
    fn block(
        &mut self,
        _problem: &SchedulingProblem<'_>,
        nodes: &[NodeId],
    ) -> Result<Arc<BlockSchedule>, SchedError> {
        let index = self.next;
        self.next += 1;
        let (recorded, block) = &self.blocks[index];
        assert_eq!(
            recorded.as_slice(),
            nodes,
            "the traversal requests block {index} again"
        );
        Ok(Arc::clone(block))
    }
}

/// Allocations of one such `compose` per design, in `all_benchmarks` order:
/// the STG, the routed edge lists, tail placement and the result, nothing per
/// block. Each is under half of what the per-state-`Vec` STG with its
/// cycle-bound walks made (144, 79, 195, 156, 84 and 68); copying each
/// block's node list in `compose` exceeds every budget.
const BUDGET: [(&str, u64); 6] = [
    ("loops", 49),
    ("gcd", 21),
    ("dealer", 37),
    ("x25_send", 34),
    ("cordic", 24),
    ("paulin", 26),
];

#[test]
fn composing_from_recorded_blocks_allocates_at_most_half_as_before() {
    let mut over = Vec::new();
    for (bench, (name, budget)) in impact_benchmarks::all_benchmarks().iter().zip(BUDGET) {
        assert_eq!(bench.name, name);
        let cdfg = bench.compile().unwrap();
        let trace = simulate(&cdfg, &bench.input_sequences(48, 1998)).unwrap();
        let problem = uniform_problem(&cdfg, trace.profile());
        let mut recording = RecordingBlocks::default();
        let inline = compose(&problem, &mut recording).unwrap();

        let mut replay = Replay {
            blocks: &recording.blocks,
            next: 0,
        };
        let start = allocations();
        let composed = compose(&problem, &mut replay).unwrap();
        let made = allocations() - start;

        assert_eq!(composed, inline, "{name}");
        assert_eq!(replay.next, recording.blocks.len(), "{name}");
        println!("{name}: {made} allocations (budget: {budget})");
        if made > budget {
            over.push(format!("{name} {made} of {budget}"));
        }
    }
    assert!(
        over.is_empty(),
        "composition allocates more than its budget: {}",
        over.join(", ")
    );
}
