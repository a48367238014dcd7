//! Verifies the assigner layer's allocation claims: a warmed [`Assigner`]
//! serves repeated `assign_min` calls with only a constant handful of
//! allocations (the graph-name refill inside materialization); the recency
//! queries the forced-placement path relies on (`most_recent_on`,
//! `assigned_on_into`) are allocation-free on warmed buffers; and trying a
//! placement that routes a multi-hop copy chain — then measuring it and
//! rolling it back — never touches the allocator once the state is warm.
//!
//! A counting global allocator wraps the system one. Counts are kept per
//! thread, so concurrently running tests cannot perturb each other.

use clasp_core::{AssignConfig, AssignState, Assigner};
use clasp_ddg::{Ddg, OpKind};
use clasp_machine::{presets, ClusterId};
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

#[test]
fn warmed_assigner_and_recency_queries_stay_off_the_allocator() {
    // Independent unnamed ops: assignment spreads them with no copies, so
    // every per-attempt buffer the workspace carries is exercised.
    let mut g = Ddg::new("wide");
    for _ in 0..16 {
        g.add(OpKind::IntAlu);
    }
    let machine = presets::four_cluster_gp(4, 2);

    let mut assigner = Assigner::new(&g, &machine, AssignConfig::default()).expect("valid graph");
    // Warm: one cold assignment sizes every buffer; recycling returns the
    // materialization buffers for the next call.
    for min_ii in [1, 1, 3] {
        let asg = assigner.assign_min(min_ii).expect("assigns");
        assigner.recycle(asg);
    }
    let before = allocs();
    let asg = assigner.assign_min(1).expect("warmed call assigns");
    let delta = allocs() - before;
    assert_eq!(asg.ii, 1);
    assert!(
        delta <= 4,
        "warmed assign_min allocated {delta} times; expected only the \
         constant materialization refill (graph name)"
    );
    assigner.recycle(asg);

    // Escalated re-entry (the Fig. 5 retry shape) stays warmed too.
    let before = allocs();
    let asg = assigner.assign_min(4).expect("warmed escalation assigns");
    let delta = allocs() - before;
    assert_eq!(asg.ii, 4);
    assert!(
        delta <= 4,
        "warmed escalated assign_min allocated {delta} times"
    );

    // Recency queries on a working state: zero allocations once the
    // scratch buffer exists.
    let mut st = AssignState::new(&g, &machine, 4);
    for n in g.node_ids() {
        st.try_assign(n, ClusterId(n.0 % 4)).expect("fits at II 4");
    }
    let mut buf = Vec::with_capacity(g.node_count());
    st.assigned_on_into(ClusterId(0), &mut buf); // warm the sort scratch
    let before = allocs();
    st.assigned_on_into(ClusterId(0), &mut buf);
    let newest = st.most_recent_on(ClusterId(0));
    assert_eq!(allocs() - before, 0, "recency queries allocated");
    assert_eq!(newest, buf.first().copied());
}

#[test]
fn tentative_copy_chain_placements_stay_off_the_allocator() {
    // One producer fanning out to three consumers on a 3x3 mesh:
    //   C0 - C1 - C2
    //   |    |    |
    //   C3 - C4 - C5
    //   |    |    |
    //   C6 - C7 - C8
    // With the producer on C0, a consumer on C8 needs a four-hop copy
    // chain (C0 -> C1 -> C2 -> C5 -> C8); a consumer on C4 then taps the
    // chain at C1. The third consumer stays unassigned and is reached by
    // two edges, so `unassigned_value_succs` has a duplicate to skip.
    let mut g = Ddg::new("fan");
    let p = g.add(OpKind::Load);
    let far = g.add(OpKind::IntAlu);
    let mid = g.add(OpKind::IntAlu);
    let open = g.add(OpKind::IntAlu);
    g.add_dep(p, far);
    g.add_dep(p, mid);
    g.add_dep(p, open);
    g.add_dep_carried(p, open, 1);
    let machine = presets::mesh(3, 3);

    let mut st = AssignState::new(&g, &machine, 4);
    st.try_assign(p, ClusterId(0)).expect("producer fits");
    st.commit();

    // The assigner's tentative shape: place, measure, undo.
    let probe = |st: &mut AssignState<'_>| {
        let mark = st.mark();
        let chain = st.try_assign(far, ClusterId(8)).expect("chain fits");
        let tap = st.try_assign(mid, ClusterId(4)).expect("tap fits");
        let pcr = st.pcr(ClusterId(0));
        let bound = st.upper_bound(p);
        let succs = st.unassigned_value_succs(p);
        st.unassign(far);
        st.rollback_to(mark);
        (chain, tap, pcr, bound, succs)
    };
    // Warm: the first round sizes the journals and fills the route rows.
    let cold = probe(&mut st);
    let before = allocs();
    let warm = probe(&mut st);
    let delta = allocs() - before;
    assert_eq!(
        delta, 0,
        "tentative chain placement allocated {delta} times"
    );
    assert_eq!(warm, cold, "rollback restores the state exactly");
    // Four hops to C8, one more from C1 to C4; 8 - 5 copies remain in
    // the point-to-point bound; one distinct consumer is unassigned.
    assert_eq!(warm, (4, 1, 1, 3, 1));
    assert_eq!(st.cpm.live_count(), 0);
}
