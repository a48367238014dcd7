//! Pins two hot paths with a counting allocator.
//!
//! - The streaming cache-key claim from `src/cached.rs`: a warm
//!   compile-cache lookup — key three canonical texts straight into the
//!   hasher, hit the memory tier, clone the `Arc` — touches the
//!   allocator zero times.
//! - A warm daemon hit (`CompileService::respond` of a repeated request)
//!   stays under a small fixed number of allocations: the request
//!   parse's two texts and the reply. Re-parsing the loop or machine
//!   text, or re-encoding the artifact, on a hit costs dozens more.
//!
//! A counting global allocator wraps the system one. It counts per
//! thread, so tests running concurrently cannot perturb each other.

use clasp::{CompileCache, CompileRequest, CompileService, ServiceRequest};
use clasp_ddg::{Ddg, OpKind};
use clasp_machine::presets;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

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

/// Allocations made by the calling thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn warm_loop() -> Ddg {
    let mut g = Ddg::new("warm");
    let a = g.add(OpKind::Load);
    let b = g.add(OpKind::FpMult);
    let c = g.add(OpKind::FpAdd);
    g.add_dep(a, b);
    g.add_dep(b, c);
    g.add_dep_carried(c, c, 1);
    g
}

#[test]
fn warm_cache_lookups_do_not_allocate() {
    let g = warm_loop();
    let machine = presets::four_cluster_gp(4, 2);
    let req = CompileRequest::default();

    let cache = CompileCache::new();
    // Warm: the first call computes and installs, the second exercises
    // the hit path once so any lazy one-time setup has happened.
    assert!(cache.compile(&g, &machine, &req).is_ok());
    assert!(cache.compile(&g, &machine, &req).is_ok());

    let before = allocs();
    for _ in 0..100 {
        let hit = cache.compile(&g, &machine, &req);
        std::hint::black_box(&hit);
    }
    assert_eq!(
        allocs() - before,
        0,
        "warm lookups must stream the key and share the Arc"
    );

    let stats = cache.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, 101);
}

/// Allocations one warm `respond` may make: the request's loop and
/// machine texts, and the reply (measured: 3).
const WIRE_HIT_ALLOCS: u64 = 4;

#[test]
fn warm_wire_hits_stay_under_an_allocation_bound() {
    let g = warm_loop();
    let machine = presets::four_cluster_gp(4, 2);
    let wire = ServiceRequest::new(
        clasp_text::write_loop(&g),
        clasp_text::write_machine(&machine),
    )
    .render();

    let service = CompileService::in_memory();
    let reference = service.respond(&wire);
    assert_eq!(service.respond(&wire), reference);

    let before = allocs();
    for _ in 0..100 {
        let reply = service.respond(&wire);
        std::hint::black_box(&reply);
    }
    let per_hit = (allocs() - before) as f64 / 100.0;
    assert!(
        per_hit <= WIRE_HIT_ALLOCS as f64,
        "a warm wire hit made {per_hit} allocations (bound {WIRE_HIT_ALLOCS}): \
         it must not parse the texts or re-encode the payload"
    );

    let stats = service.stats();
    assert_eq!((stats.hits, stats.misses), (101, 1));
}
