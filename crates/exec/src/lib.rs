//! # clasp-exec — deterministic parallel sweeps and a compile cache
//!
//! Every throughput consumer of the pipeline — the experiments harness,
//! `clasp-cli fuzz`, `clasp-cli batch` — runs the same
//! shape of work: a large list of independent (loop, machine) cases whose
//! per-case cost varies by orders of magnitude. The hand-rolled chunked
//! `parallel_map` this crate replaces had two bugs baked into its shape:
//!
//! - **stragglers**: static chunking pinned each contiguous slice to one
//!   thread, so a chunk of slow compiles serialized the sweep while other
//!   workers sat idle;
//! - **panic amnesia**: `join().expect("worker panicked")` aborted the
//!   whole sweep, discarding every finished result and every clue about
//!   *which* case panicked.
//!
//! [`sweep`] fixes both: workers pull the next item from a shared atomic
//! cursor (self-balancing — no chunk boundaries to straggle on), every
//! item runs under panic capture, and results land in their input slot so
//! the output order is the input order, bit-identical for any thread
//! count. See the module docs of [`executor`] for the full determinism
//! contract.
//!
//! [`ContentCache`] is the second half: a content-addressed memo table
//! keyed by an FNV-1a hash of canonical input texts, with deterministic
//! hit/miss counters (exactly one miss per distinct key, no matter how
//! many threads race to it). Grid sweeps that revisit the same
//! loop × machine pair compile it once. The [`tier`] module layers a
//! persistent [`DiskTier`] below it (memory-over-disk via
//! [`TieredCache`]) so warm answers survive a process restart, and the
//! cache itself can be byte-budget bounded for long-running daemons.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod executor;
pub mod tier;

pub use cache::{CacheKey, CacheStats, ContentCache, KeyBuilder, KeySink};
pub use executor::{
    resolve_threads, sweep, sweep_observed, sweep_with, sweep_with_observed, try_sweep,
    try_sweep_observed, SweepPanic,
};
pub use tier::{CacheTier, DiskTier, TierGrade, TierLoad, TierStats, TieredCache, TieredStats};
