//! Verifies the incremental-escalation allocation claims at the MRT
//! layer: once warmed, both tables run their whole escalation-facing
//! surface — `reset`, placement probes, eviction, removal, counted
//! reserve/release of ops and broadcast copies — without touching the
//! allocator.
//!
//! A counting global allocator wraps the system one; this file contains a
//! single test so no concurrent test can perturb the counter.

use clasp_ddg::{NodeId, OpKind};
use clasp_machine::{presets, ClusterId};
use clasp_mrt::{CopyMeta, CountMrt, PlaceOutcome, SlotRequest, TimeMrt};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: defers entirely to the system allocator; the counter is a
// relaxed atomic with no other side effects.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn warmed_mrt_reset_and_probe_paths_do_not_allocate() {
    let machine = presets::four_cluster_gp(4, 2);
    const MAX_II: u32 = 8;
    const NODES: u32 = 24;

    // --- TimeMrt: the scheduler-side table -------------------------------
    let mut mrt = TimeMrt::new(&machine, 1);
    let fu = |c: u32| SlotRequest::Fu {
        cluster: ClusterId(c),
        kind: OpKind::IntAlu,
    };
    let meta = CopyMeta {
        src: ClusterId(0),
        targets: vec![ClusterId(1)],
        link: None,
    };
    let copy = SlotRequest::Copy(&meta);
    let mut evicted = Vec::with_capacity(NODES as usize);
    let sweep = |mrt: &mut TimeMrt, evicted: &mut Vec<NodeId>| {
        for ii in 1..=MAX_II {
            mrt.reset(ii);
            for n in 0..NODES {
                let row = n % ii;
                match mrt.try_place(NodeId(n), row, &fu(n % 4)) {
                    PlaceOutcome::Placed => {}
                    _ => {
                        evicted.clear();
                        mrt.place_evicting_into(NodeId(n), row, &fu(n % 4), evicted);
                    }
                }
            }
            let _ = mrt.try_place(NodeId(NODES), 0, &copy);
            mrt.remove(NodeId(NODES), 0);
            mrt.remove(NodeId(0), 0);
        }
    };
    sweep(&mut mrt, &mut evicted); // warm every buffer at every II
    let before = allocs();
    sweep(&mut mrt, &mut evicted);
    assert_eq!(
        allocs() - before,
        0,
        "warmed TimeMrt sweep touched the allocator"
    );

    // --- CountMrt: the assigner-side table -------------------------------
    let mut cnt = CountMrt::new(&machine, 1);
    let sweep = |cnt: &mut CountMrt| {
        for ii in 1..=MAX_II {
            cnt.reset(ii);
            // 4 clusters x 4 GP units x ii rows; n % 4 deals evenly.
            for n in 0..(16 * ii).min(NODES) {
                cnt.reserve_op(ClusterId(n % 4), OpKind::IntAlu)
                    .expect("within capacity");
            }
            // What a rolled back tentative does: release an op slot and
            // retake it, and grow, shrink and free a broadcast copy.
            let (c0, c1, c2) = (ClusterId(0), ClusterId(1), ClusterId(2));
            cnt.release_op(c0, OpKind::IntAlu);
            cnt.reserve_op(c0, OpKind::IntAlu)
                .expect("a freed slot fits");
            cnt.reserve_copy(c0, &[c1], None).expect("a port is free");
            cnt.add_copy_target(c2).expect("a port is free");
            cnt.remove_copy_target(c1);
            cnt.release_copy(c0, &[c2], None);
        }
    };
    sweep(&mut cnt);
    let before = allocs();
    sweep(&mut cnt);
    assert_eq!(
        allocs() - before,
        0,
        "warmed CountMrt sweep touched the allocator"
    );
}
