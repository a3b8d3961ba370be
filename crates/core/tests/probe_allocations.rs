#![allow(clippy::unwrap_used)]

//! An allocation budget for probes the cache answers. A second synthesis of
//! the same job on one session is all hits: every probe's point is cached,
//! so what the run allocates is the search's own bookkeeping. A probe then
//! must not copy the working design; it applies its move to a scratch copy,
//! looks the candidate up by its patched fingerprint and reverts the move.
//!
//! The counter is thread-local, so the test's figure is the run on this
//! thread alone (the engine ranks on the calling thread) and other tests
//! running in parallel cannot disturb it. The count is deterministic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use impact_behsim::simulate;
use impact_core::{Impact, SweepSession, SynthesisConfig};

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

/// Most allocations an all-hit run may make per probe (rank probes plus
/// full probes), its set-up and teardown included.
const BUDGET_PER_PROBE: f64 = 10.0;

#[test]
fn all_hit_probes_stay_within_the_allocation_budget() {
    let config = SynthesisConfig::power_optimized(2.0).with_effort(2, 3);
    let engine = Impact::new(config);
    let mut over = Vec::new();
    for bench in impact_benchmarks::all_benchmarks() {
        let cdfg = bench.compile().unwrap();
        let trace = simulate(&cdfg, &bench.input_sequences(8, 7)).unwrap();
        let session = SweepSession::new();
        let cold = engine
            .synthesize_with_session(&cdfg, &trace, &session)
            .unwrap();
        let misses = session.stats().misses;

        let before = allocations();
        let warm = engine
            .synthesize_with_session(&cdfg, &trace, &session)
            .unwrap();
        let made = allocations() - before;

        assert_eq!(
            session.stats().misses,
            misses,
            "{}: the second run must be all hits",
            bench.name
        );
        assert_eq!(warm.report, cold.report, "{}", bench.name);
        let explore = warm.cache_stats.explore;
        let probes = (explore.rank_probes + explore.probes)
            - (cold.cache_stats.explore.rank_probes + cold.cache_stats.explore.probes);
        assert!(probes > 0, "{}: the run probes candidates", bench.name);
        let per_probe = made as f64 / probes as f64;
        println!(
            "{}: {made} allocations over {probes} probes ({per_probe:.1} per probe)",
            bench.name
        );
        if per_probe > BUDGET_PER_PROBE {
            over.push(format!("{} {per_probe:.1}", bench.name));
        }
    }
    assert!(
        over.is_empty(),
        "allocations per all-hit probe above the budget of {BUDGET_PER_PROBE}: {}",
        over.join(", ")
    );
}
