//! Pins three hot-path claims with a counting allocator.
//!
//! - The streaming cache-key claim from `src/service.rs`:
//!   `CompileService::key` hashes three canonical texts straight into
//!   the hasher and touches the allocator zero times.
//! - A warm daemon hit (`CompileService::respond` of a repeated request)
//!   stays under a small fixed number of allocations: the request
//!   parse's two texts and the reply. Re-parsing the loop or machine
//!   text, or re-encoding the artifact, on a hit costs dozens more.
//! - The artifact tier holds what its memory budget charges: after a
//!   run of in-process compiles whose results are all dropped, the
//!   bytes still live are within a small factor of the tier's
//!   `resident_bytes`.
//!
//! A counting global allocator wraps the system one. It counts
//! allocations and live bytes per thread, so tests running concurrently
//! cannot perturb each other.

use clasp::obs::Obs;
use clasp::{CompileRequest, CompileService, ServiceConfig, ServiceRequest};
use clasp_ddg::{Ddg, OpKind};
use clasp_loopgen::{generate_corpus, CorpusConfig};
use clasp_machine::presets;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Count `allocs` allocations and `grown` more live bytes (negative
/// when freeing).
fn count(allocs: u64, grown: i64) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + allocs));
    let _ = LIVE.try_with(|n| n.set(n.get() + grown));
}

struct Counting;

// SAFETY: defers entirely to the system allocator; the counters are
// const-initialized thread-local cells with no other side effects.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// Allocations made by the calling thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes the calling thread has allocated and not yet freed.
fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
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

    let service = CompileService::in_memory();
    let quiet = Obs::disabled();
    // Warm: the first call computes and installs, the second exercises
    // the hit path once so any lazy one-time setup has happened.
    assert!(service.compile_artifact(&g, &machine, &req, &quiet).is_ok());
    assert!(service.compile_artifact(&g, &machine, &req, &quiet).is_ok());

    // A hit decodes the stored payload, which allocates; the key every
    // lookup hashes first must not.
    let before = allocs();
    for _ in 0..100 {
        let key = CompileService::key(&g, &machine, &req);
        std::hint::black_box(&key);
    }
    assert_eq!(allocs() - before, 0, "keys must stream the canonical texts");

    for _ in 0..100 {
        let hit = service.compile_artifact(&g, &machine, &req, &quiet);
        assert!(hit.is_ok());
    }

    let stats = service.stats();
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

/// Live bytes a tier may hold per byte it charges. The tier's map and
/// each entry's key and cell add to the payloads it charges (measured:
/// 1.09x); keeping each entry's decoded artifact held 57x.
const HELD_PER_CHARGED: i64 = 2;

#[test]
fn the_artifact_tier_holds_what_it_charges() {
    let corpus = generate_corpus(CorpusConfig {
        loops: 40,
        scc_loops: 10,
        seed: 0x1998_C1A5,
    });
    let machine = presets::four_cluster_gp(4, 2);
    let req = CompileRequest::default();
    let quiet = Obs::disabled();

    let before = live_bytes();
    let service = CompileService::new(ServiceConfig {
        threads: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    for g in &corpus {
        drop(service.compile_artifact(g, &machine, &req, &quiet));
    }
    let held = live_bytes() - before;
    let stats = service.stats();
    let charged = stats.resident_bytes as i64;
    assert_eq!(stats.misses, 40);
    assert!(
        held <= HELD_PER_CHARGED * charged,
        "the service holds {held} bytes but its tier charges {charged}"
    );
}
