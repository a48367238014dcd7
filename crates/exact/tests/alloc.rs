//! Bounds the allocator traffic of one fixed-II exact solve and of one
//! witness lift. A warm `exact_at_ii` or `lift_witness` call builds its
//! CNF in the flat clause arena of a recycled solver: the per-clause
//! literal vectors and the per-literal watch lists of a fresh solver are
//! gone, so what remains is the encoder's variable tables, the lift's
//! checks and pins, and the decode through the validators.
//!
//! A counting global allocator wraps the system one. Counts are kept per
//! thread, so concurrently running tests cannot perturb each other.

use clasp_ddg::{Ddg, OpKind};
use clasp_exact::{exact_at_ii, lift_witness, ExactConfig};
use clasp_machine::presets;
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

/// Two multiply-accumulate chains sharing an induction variable: 12
/// nodes, ResMII 2 on the two-cluster GP machine.
fn two_macs() -> Ddg {
    let mut g = Ddg::new("two-macs");
    let i = g.add(OpKind::IntAlu);
    g.add_dep_carried(i, i, 1);
    let mut sums = Vec::new();
    for _ in 0..2 {
        let a = g.add(OpKind::Load);
        let b = g.add(OpKind::Load);
        g.add_dep(i, a);
        g.add_dep(i, b);
        let m = g.add(OpKind::FpMult);
        g.add_dep(a, m);
        g.add_dep(b, m);
        let acc = g.add(OpKind::FpAdd);
        g.add_dep(m, acc);
        g.add_dep_carried(acc, acc, 1);
        sums.push(acc);
    }
    let s = g.add(OpKind::FpAdd);
    g.add_dep(sums[0], s);
    g.add_dep(sums[1], s);
    let st = g.add(OpKind::Store);
    g.add_dep(s, st);
    let br = g.add(OpKind::Branch);
    g.add_dep(i, br);
    g
}

#[test]
fn a_warm_fixed_ii_solve_stays_near_its_floor() {
    let g = two_macs();
    assert_eq!(g.node_count(), 12);
    let m = presets::two_cluster_gp(2, 1);
    let ii = m.mii(&g);
    assert_eq!(ii, 2);
    let cold = exact_at_ii(&g, &m, ii, ExactConfig::default()).expect("feasible at MII");
    let before = allocs();
    let warm = exact_at_ii(&g, &m, ii, ExactConfig::default()).expect("feasible at MII");
    let delta = allocs() - before;
    assert_eq!(
        warm.1, cold.1,
        "a warm solve decodes the cold solve's schedule"
    );
    // Measured: 678 allocations warm. With a heap object per clause and
    // fresh watch lists per literal the same call made 55,299.
    assert!(
        delta <= 1_400,
        "warm exact_at_ii allocated {delta} times; expected about 700"
    );
}

/// The witness is the exact solve's own schedule at MII, so the lift
/// checks every pin before it encodes and the completion answers it.
#[test]
fn a_warm_lift_stays_near_its_floor() {
    let g = two_macs();
    let m = presets::two_cluster_gp(2, 1);
    let cfg = ExactConfig::default();
    let (a, s) = exact_at_ii(&g, &m, m.mii(&g), cfg).expect("feasible at MII");
    assert_eq!(lift_witness(&g, &m, &a, &s, cfg), Ok(()));
    let before = allocs();
    let warm = lift_witness(&g, &m, &a, &s, cfg);
    let delta = allocs() - before;
    assert_eq!(warm, Ok(()));
    // Measured: 734 allocations warm, the same headroom as above.
    assert!(
        delta <= 1_500,
        "warm lift_witness allocated {delta} times; expected about 730"
    );
}
