//! Bounds the allocator traffic of a warm `verify_program`. The
//! simulator numbers the program's registers into dense slots, keeps its
//! pending writes in one heap and reads its inputs into one buffer, and
//! the sequential reference keeps a ring of iterations: what a call
//! allocates is a handful of tables per run, not anything per issued op,
//! so quadrupling the iteration count leaves the count nearly flat.
//!
//! A counting global allocator wraps the system one. Counts are kept per
//! thread, so concurrently running tests cannot perturb each other.

use clasp_core::{assign, AssignConfig};
use clasp_kernel::{emit_program, verify_program};
use clasp_loopgen::livermore;
use clasp_machine::presets;
use clasp_sched::{iterative_schedule, SchedulerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count_one() {
    // `try_with`: the slot may already be gone while a thread shuts down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: defers entirely to the system allocator; the counter is a
// const-initialized thread-local cell with no other side effects.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// Allocations made so far on the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The most allocations one warm `verify_program` call may make, at 16
/// iterations or at 64: measured 27 and 31 (224 and 896 issued ops),
/// plus headroom.
const BOUND: u64 = 48;

#[test]
fn warm_verify_allocations_do_not_grow_with_issued_ops() {
    // Livermore kernel 1 (hydro fragment) on the four-cluster GP machine
    // (4c-gp), at the first II the iterative scheduler reaches.
    let g = livermore(1);
    let m = presets::four_cluster_gp(4, 2);
    let a = assign(&g, &m, AssignConfig::default()).expect("assigns");
    let wg = &a.graph;
    let sched = (a.ii..a.ii + 16)
        .find_map(|ii| iterative_schedule(wg, &m, &a.map, ii, SchedulerConfig::default()).ok())
        .expect("schedules");
    for iterations in [16, 64] {
        let program = emit_program(wg, &a.map, &sched, iterations);
        verify_program(wg, &program, iterations).expect("verifies");
        let before = allocs();
        verify_program(wg, &program, iterations).expect("verifies");
        let made = allocs() - before;
        assert!(
            made <= BOUND,
            "{made} allocations verifying {} issued ops at {iterations} iterations (bound {BOUND})",
            program.issue_count()
        );
    }
}
