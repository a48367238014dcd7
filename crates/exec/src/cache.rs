//! A content-addressed memo table for compiled artifacts.
//!
//! # Key derivation
//!
//! A cache key is the 128-bit FNV-1a hash of the *canonical texts* of
//! the inputs — for the compile cache, the `.clasp` rendering of the
//! loop, the `.machine` rendering of the target, and a stable rendering
//! of the pipeline configuration — combined so part boundaries can never
//! alias (`("ab", "c") != ("a", "bc")`). Hashing the canonical text
//! rather than an in-memory address means two independently constructed
//! but identical inputs share one entry: the cache is addressed by
//! content, not identity.
//!
//! Two constructions exist. [`CacheKey::of`] length-prefixes each part's
//! bytes — fine when the parts are already `&str`s. [`KeyBuilder`]
//! instead hashes each part to its own 128-bit digest and folds the
//! fixed-width digests into an outer hash, which permits *streaming* a
//! part through [`fmt::Write`] without knowing its length up front (and
//! therefore without allocating an intermediate `String`). The two
//! constructions yield different key values for the same content; a
//! cache must pick one and stick with it, which is why persisted tiers
//! carry a format tag (see [`tier`](crate::tier)).
//!
//! FNV-1a is deliberate: `std`'s `DefaultHasher` randomizes per process,
//! which would make hit patterns (and any logged key) unstable across
//! runs. FNV's 128-bit variant is deterministic forever and collisions
//! at sweep scale (thousands of entries) are vanishingly unlikely; a
//! collision's worst case is returning the colliding entry's artifact,
//! which downstream equality gates (bit-identical II / kernel asserts)
//! would surface immediately.
//!
//! # Deterministic counters
//!
//! Each distinct key counts **exactly one miss** — the thread that
//! installs the entry — and every other lookup of that key counts a hit,
//! even when many threads race to a cold key: latecomers block on the
//! entry's [`OnceLock`] rather than recomputing. Total hits and misses
//! for a fixed workload are therefore independent of thread count and
//! interleaving, which is what lets `results/strata-kernels.txt` and the
//! CI determinism gate record them as stable numbers.
//!
//! # Bounding
//!
//! A cache is unbounded by default — sweeps are finite and the batch
//! flows want every entry resident. A long-running daemon cannot
//! tolerate that, so [`ContentCache::with_budget`] accepts a byte budget and
//! evicts with a **keyed-order second-chance** sweep: entries are kept
//! in key order (a `BTreeMap`), every hit sets a referenced bit, and
//! when the recorded weights exceed the budget a clock hand walks keys
//! in ascending (wrapping) order, clearing referenced bits and evicting
//! the first unreferenced, fully-installed entry. The policy depends
//! only on the sequence of operations — never on wall-clock time — so a
//! single-threaded workload replays to the identical resident set.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013B;

/// A 128-bit content hash identifying one cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(u128);

impl CacheKey {
    /// Hash `parts` into a key: FNV-1a over each part's bytes, with each
    /// part preceded by its length so boundaries never alias.
    pub fn of(parts: &[&str]) -> CacheKey {
        let mut h = FNV128_OFFSET;
        for part in parts {
            for b in (part.len() as u64).to_le_bytes() {
                h = (h ^ u128::from(b)).wrapping_mul(FNV128_PRIME);
            }
            for &b in part.as_bytes() {
                h = (h ^ u128::from(b)).wrapping_mul(FNV128_PRIME);
            }
        }
        CacheKey(h)
    }

    /// The key's raw 128-bit value (used by the disk tier to derive
    /// shard paths without going through the hex rendering).
    pub fn value(&self) -> u128 {
        self.0
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// An FNV-1a accumulator for one key part, fed through [`fmt::Write`] so
/// canonical texts can be rendered straight into the hash with zero
/// intermediate allocation. Obtain one via [`KeyBuilder::stream`].
#[derive(Debug)]
pub struct KeySink {
    h: u128,
}

impl KeySink {
    fn new() -> KeySink {
        KeySink { h: FNV128_OFFSET }
    }

    /// Fold raw bytes into the part's digest.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let mut h = self.h;
        for &b in bytes {
            h = (h ^ u128::from(b)).wrapping_mul(FNV128_PRIME);
        }
        self.h = h;
    }
}

impl fmt::Write for KeySink {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

/// Streaming construction of a [`CacheKey`] from a sequence of parts.
///
/// Each part is hashed to its own 128-bit digest, and the fixed-width
/// (16-byte) digests are folded into an outer FNV-1a hash; because every
/// sub-digest has the same width, part boundaries cannot alias even
/// though no part length is known up front. Parts can be added as whole
/// strings ([`KeyBuilder::text`]) or rendered incrementally through a
/// [`KeySink`] ([`KeyBuilder::stream`]) — the two are equivalent for
/// equal content.
#[derive(Debug, Default)]
pub struct KeyBuilder {
    h: u128,
    started: bool,
}

impl KeyBuilder {
    /// A builder with no parts.
    pub fn new() -> KeyBuilder {
        KeyBuilder {
            h: FNV128_OFFSET,
            started: true,
        }
    }

    fn fold(&mut self, digest: u128) {
        if !self.started {
            self.h = FNV128_OFFSET;
            self.started = true;
        }
        let mut h = self.h;
        for b in digest.to_le_bytes() {
            h = (h ^ u128::from(b)).wrapping_mul(FNV128_PRIME);
        }
        self.h = h;
    }

    /// Add one part given as a whole string.
    pub fn text(&mut self, s: &str) {
        self.stream(|w| w.write_bytes(s.as_bytes()));
    }

    /// Add one part by rendering it into a [`KeySink`]. `KeySink`
    /// implements [`fmt::Write`], so `write!(sink, ...)` works and
    /// never fails.
    pub fn stream(&mut self, f: impl FnOnce(&mut KeySink)) {
        let mut sink = KeySink::new();
        f(&mut sink);
        self.fold(sink.h);
    }

    /// The key for the parts added so far.
    pub fn finish(&self) -> CacheKey {
        CacheKey(if self.started { self.h } else { FNV128_OFFSET })
    }
}

/// Hit/miss/entry counters of a [`ContentCache`], as sampled by
/// [`ContentCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from an existing entry.
    pub hits: u64,
    /// Lookups that computed and installed a new entry.
    pub misses: u64,
    /// Distinct keys currently resident (equals `misses` minus
    /// `evictions` for a quiescent cache).
    pub entries: u64,
    /// Entries removed by the byte-budget policy (always 0 for an
    /// unbounded cache).
    pub evictions: u64,
    /// Recorded bytes currently resident (0 unless the caller supplies
    /// weights via [`ContentCache::get_or_compute_weighed`]).
    pub resident_bytes: u64,
}

impl CacheStats {
    /// Hit fraction in percent (0 when the cache was never consulted).
    pub fn hit_percent(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        100.0 * self.hits as f64 / total as f64
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits, {} misses ({:.1}% hit rate, {} entries",
            self.hits,
            self.misses,
            self.hit_percent(),
            self.entries
        )?;
        if self.evictions > 0 {
            write!(f, ", {} evicted", self.evictions)?;
        }
        write!(f, ")")
    }
}

struct Entry<V> {
    cell: Arc<OnceLock<Arc<V>>>,
    /// Second-chance bit: set on every hit, cleared when the clock hand
    /// passes over the entry.
    referenced: bool,
    /// Caller-recorded weight in bytes; 0 until the value is installed
    /// (in-flight entries are never evicted).
    weight: usize,
    installed: bool,
}

struct State<V> {
    map: BTreeMap<CacheKey, Entry<V>>,
    /// Next key the eviction clock hand will consider (wraps at the
    /// keyed end of the map).
    hand: Option<CacheKey>,
    resident_bytes: usize,
    evictions: u64,
}

/// A thread-safe content-addressed memo table from [`CacheKey`] to
/// `Arc<V>`. Unbounded by default ([`ContentCache::new`]); a daemon
/// composes it with a byte budget ([`ContentCache::with_budget`]) so the
/// keyed-order second-chance policy described in the module docs keeps
/// residency under control.
pub struct ContentCache<V> {
    state: Mutex<State<V>>,
    budget: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V> fmt::Debug for ContentCache<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ContentCache")
            .field("budget", &self.budget)
            .field("stats", &self.stats())
            .finish()
    }
}

// Manual impl: `V` need not be `Default` for an empty cache to exist.
impl<V> Default for ContentCache<V> {
    fn default() -> Self {
        ContentCache::new()
    }
}

impl<V> ContentCache<V> {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        ContentCache::with_budget(None)
    }

    /// An empty cache that, given a budget (`None` = unbounded), evicts
    /// once the recorded weights exceed it. Weights are supplied by the
    /// caller through [`ContentCache::get_or_compute_weighed`]; lookups
    /// through [`ContentCache::get_or_compute`] record weight 0 and are
    /// effectively pinned.
    pub fn with_budget(budget: Option<usize>) -> Self {
        ContentCache {
            state: Mutex::new(State {
                map: BTreeMap::new(),
                hand: None,
                resident_bytes: 0,
                evictions: 0,
            }),
            budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The installed value for `key`, counted as a hit, or `None` when
    /// the key is absent or still in flight — counted as nothing, so a
    /// caller that falls back to [`ContentCache::get_or_compute_weighed`]
    /// still counts exactly one miss per key.
    pub fn get(&self, key: CacheKey) -> Option<Arc<V>> {
        let value = {
            let mut state = self.state.lock().expect("cache map lock");
            let entry = state.map.get_mut(&key)?;
            let value = Arc::clone(entry.cell.get()?);
            entry.referenced = true;
            value
        };
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(value)
    }

    /// Return the entry for `key`, computing and installing it with
    /// `compute` on the first lookup. Concurrent lookups of a cold key
    /// block on the installer rather than recomputing, so `compute` runs
    /// exactly once per key and the hit/miss counters are deterministic.
    pub fn get_or_compute(&self, key: CacheKey, compute: impl FnOnce() -> V) -> Arc<V> {
        self.get_or_compute_weighed(key, || (compute(), 0)).0
    }

    /// [`ContentCache::get_or_compute`] with the computed value's weight
    /// in bytes, which the byte-budget policy charges against the
    /// budget. Returns `(value, missed, evicted)`: whether *this* lookup
    /// was the key's one counted miss, and how many entries its
    /// installation pushed out — the hooks for folding per-lookup
    /// counts into an observability sink with the same determinism
    /// contract as [`ContentCache::stats`].
    pub fn get_or_compute_weighed(
        &self,
        key: CacheKey,
        compute: impl FnOnce() -> (V, usize),
    ) -> (Arc<V>, bool, u64) {
        let (cell, installer) = {
            let mut state = self.state.lock().expect("cache map lock");
            match state.map.get_mut(&key) {
                Some(entry) => {
                    entry.referenced = true;
                    (Arc::clone(&entry.cell), false)
                }
                None => {
                    let cell = Arc::new(OnceLock::new());
                    state.map.insert(
                        key,
                        Entry {
                            cell: Arc::clone(&cell),
                            referenced: false,
                            weight: 0,
                            installed: false,
                        },
                    );
                    (cell, true)
                }
            }
        };
        if installer {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        // Whichever caller's closure actually initializes the cell (the
        // installer, or — if the installer panicked — a recovering
        // latecomer) records the weight and settles the budget.
        let mut my_weight: Option<usize> = None;
        let value = Arc::clone(cell.get_or_init(|| {
            let (v, weight) = compute();
            my_weight = Some(weight);
            Arc::new(v)
        }));
        let mut evicted = 0;
        if let Some(weight) = my_weight {
            let mut state = self.state.lock().expect("cache map lock");
            if let Some(entry) = state.map.get_mut(&key) {
                // Guard against a racing re-install after an eviction:
                // only account the cell we initialized.
                if Arc::ptr_eq(&entry.cell, &cell) {
                    entry.weight = weight;
                    entry.installed = true;
                    state.resident_bytes += weight;
                    if let Some(budget) = self.budget {
                        evicted = evict_to_budget(&mut state, budget);
                    }
                }
            }
        }
        (value, installer, evicted)
    }

    /// Sample the counters.
    pub fn stats(&self) -> CacheStats {
        let state = self.state.lock().expect("cache map lock");
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: state.map.len() as u64,
            evictions: state.evictions,
            resident_bytes: state.resident_bytes as u64,
        }
    }
}

/// One keyed-order second-chance sweep: evict installed, unreferenced
/// entries (clearing referenced bits as the hand passes) until the
/// recorded weights fit the budget or nothing evictable remains.
/// Returns the number of entries evicted.
fn evict_to_budget<V>(state: &mut State<V>, budget: usize) -> u64 {
    let mut evicted = 0;
    while state.resident_bytes > budget {
        // Two full passes suffice: the first clears every referenced
        // bit, the second must find a victim unless every entry is
        // still in flight.
        let mut fuel = 2 * state.map.len() + 2;
        let mut victim = None;
        let mut hand = state.hand;
        while fuel > 0 {
            fuel -= 1;
            let next = match hand {
                Some(h) => state.map.range(h..).next().map(|(k, _)| *k),
                None => state.map.keys().next().copied(),
            };
            let key = match next {
                Some(k) => k,
                None => {
                    // Ran off the keyed end: wrap.
                    hand = None;
                    continue;
                }
            };
            let entry = state.map.get_mut(&key).expect("keyed entry");
            let after = CacheKey(key.0.wrapping_add(1));
            if !entry.installed {
                hand = Some(after);
                continue;
            }
            if entry.referenced {
                entry.referenced = false;
                hand = Some(after);
                continue;
            }
            victim = Some(key);
            hand = Some(after);
            break;
        }
        state.hand = hand;
        match victim {
            Some(key) => {
                let entry = state.map.remove(&key).expect("victim entry");
                state.resident_bytes = state.resident_bytes.saturating_sub(entry.weight);
                state.evictions += 1;
                evicted += 1;
            }
            // Every entry is in flight (or the map is empty): nothing
            // can be evicted right now.
            None => break,
        }
    }
    evicted
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn keys_are_content_addressed() {
        assert_eq!(CacheKey::of(&["a", "b"]), CacheKey::of(&["a", "b"]));
        assert_ne!(CacheKey::of(&["ab", "c"]), CacheKey::of(&["a", "bc"]));
        assert_ne!(CacheKey::of(&["a"]), CacheKey::of(&["a", ""]));
        // Identical content from different owners hashes identically.
        let x = String::from("loop dot");
        let y = String::from("loop dot");
        assert_eq!(CacheKey::of(&[&x]), CacheKey::of(&[&y]));
    }

    #[test]
    fn key_rendering_is_stable() {
        // Pinned value: a changed hash function would silently invalidate
        // any recorded key, so lock it down.
        assert_eq!(
            CacheKey::of(&["clasp"]).to_string(),
            CacheKey::of(&["clasp"]).to_string()
        );
        assert_eq!(CacheKey::of(&[]).to_string().len(), 32);
    }

    #[test]
    fn builder_parts_do_not_alias() {
        let key = |parts: &[&str]| {
            let mut b = KeyBuilder::new();
            for p in parts {
                b.text(p);
            }
            b.finish()
        };
        assert_eq!(key(&["a", "b"]), key(&["a", "b"]));
        assert_ne!(key(&["ab", "c"]), key(&["a", "bc"]));
        assert_ne!(key(&["a"]), key(&["a", ""]));
        assert_ne!(key(&[]), key(&[""]));
    }

    #[test]
    fn builder_streaming_equals_whole_text() {
        use std::fmt::Write as _;
        let mut whole = KeyBuilder::new();
        whole.text("loop dot\nop n0 alu");
        whole.text("machine #");
        let mut streamed = KeyBuilder::new();
        streamed.stream(|w| {
            w.write_bytes(b"loop ");
            write!(w, "dot").unwrap();
            write!(w, "\nop n{} alu", 0).unwrap();
        });
        streamed.stream(|w| write!(w, "machine #").unwrap());
        assert_eq!(whole.finish(), streamed.finish());
    }

    #[test]
    fn second_lookup_hits_and_reuses_the_value() {
        let cache: ContentCache<u64> = ContentCache::new();
        let key = CacheKey::of(&["k"]);
        let calls = AtomicUsize::new(0);
        let a = cache.get_or_compute(key, || {
            calls.fetch_add(1, Ordering::Relaxed);
            7
        });
        let b = cache.get_or_compute(key, || {
            calls.fetch_add(1, Ordering::Relaxed);
            999
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(*a, 7);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                entries: 1,
                evictions: 0,
                resident_bytes: 0,
            }
        );
    }

    #[test]
    fn get_hits_installed_entries_and_counts_nothing_on_a_miss() {
        let cache: ContentCache<u64> = ContentCache::new();
        let key = CacheKey::of(&["k"]);
        assert!(cache.get(key).is_none());
        let installed = cache.get_or_compute(key, || 7);
        let got = cache.get(key).expect("installed entry");
        assert!(Arc::ptr_eq(&installed, &got));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn counters_are_deterministic_under_contention() {
        // 8 threads x 100 lookups over 10 keys: exactly 10 misses (one
        // per distinct key), everything else hits — regardless of how the
        // race to each cold key interleaves.
        let cache: ContentCache<usize> = ContentCache::new();
        let computed = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..100 {
                        let key = CacheKey::of(&[&(i % 10).to_string()]);
                        let v = cache.get_or_compute(key, || {
                            computed.fetch_add(1, Ordering::Relaxed);
                            i % 10
                        });
                        assert_eq!(*v, i % 10);
                    }
                });
            }
        });
        assert_eq!(computed.load(Ordering::Relaxed), 10);
        let stats = cache.stats();
        assert_eq!(stats.misses, 10);
        assert_eq!(stats.hits, 8 * 100 - 10);
        assert_eq!(stats.entries, 10);
    }

    #[test]
    fn stats_display_reads_well() {
        let cache: ContentCache<u8> = ContentCache::new();
        cache.get_or_compute(CacheKey::of(&["a"]), || 1);
        cache.get_or_compute(CacheKey::of(&["a"]), || 1);
        cache.get_or_compute(CacheKey::of(&["b"]), || 2);
        let s = cache.stats().to_string();
        assert!(s.contains("1 hits"), "{s}");
        assert!(s.contains("2 misses"), "{s}");
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache: ContentCache<u64> = ContentCache::new();
        for i in 0..100u64 {
            cache.get_or_compute_weighed(CacheKey::of(&[&i.to_string()]), || (i, 1 << 20));
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 100);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.resident_bytes, 100 << 20);
    }

    #[test]
    fn budget_evicts_in_keyed_order() {
        // Budget of 3 unit-weight entries: installing a 4th evicts the
        // keyed-smallest unreferenced entry.
        let cache: ContentCache<u64> = ContentCache::with_budget(Some(3));
        let keys: Vec<CacheKey> = (0..4u64).map(|i| CacheKey::of(&[&i.to_string()])).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        for (i, &k) in keys.iter().enumerate() {
            cache.get_or_compute_weighed(k, || (i as u64, 1));
        }
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.resident_bytes, 3);
        // The evicted key recomputes (a fresh miss), the survivors hit.
        // Weight 0 here so the probe itself can't trigger a cascade.
        let recomputed = AtomicUsize::new(0);
        for &k in &keys {
            cache.get_or_compute_weighed(k, || {
                recomputed.fetch_add(1, Ordering::Relaxed);
                (0, 0)
            });
        }
        assert_eq!(recomputed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn second_chance_spares_referenced_entries() {
        let cache: ContentCache<u64> = ContentCache::with_budget(Some(2));
        let a = CacheKey::of(&["a"]);
        let b = CacheKey::of(&["b"]);
        cache.get_or_compute_weighed(a, || (1, 1));
        cache.get_or_compute_weighed(b, || (2, 1));
        // Touch both: their referenced bits are set, so the next
        // eviction pass clears bits on the first pass and evicts the
        // keyed-first entry on the second.
        cache.get_or_compute_weighed(a, || (0, 1));
        cache.get_or_compute_weighed(b, || (0, 1));
        let c = CacheKey::of(&["c"]);
        let (_, _, evicted) = cache.get_or_compute_weighed(c, || (3, 1));
        assert_eq!(evicted, 1);
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
    }

    #[test]
    fn eviction_replays_identically() {
        // The policy is a pure function of the operation sequence: two
        // caches fed the same single-threaded workload end with the
        // same resident set.
        let run = || {
            let cache: ContentCache<u64> = ContentCache::with_budget(Some(4));
            let op_keys: Vec<CacheKey> = (0..12u64)
                .map(|i| CacheKey::of(&[&(i % 7).to_string()]))
                .collect();
            for &k in &op_keys {
                cache.get_or_compute_weighed(k, || (0, 1));
            }
            let mut resident = Vec::new();
            for i in 0..7u64 {
                let key = CacheKey::of(&[&i.to_string()]);
                let (_, missed, _) = cache.get_or_compute_weighed(key, || (0, 0));
                if !missed {
                    resident.push(i);
                }
            }
            (cache.stats().evictions, resident)
        };
        assert_eq!(run(), run());
    }
}
