//! Content-addressed compile cache: memoized [`compile_full`](crate::compile_full)
//! over an in-memory tier with an optional persistent disk tier.
//!
//! One tier holds two disjoint key spaces.
//!
//! **In-process keys** ([`CompileCache::key`]) are a 128-bit FNV-1a
//! hash-of-hashes over three canonical texts — [`clasp_text::write_loop`]
//! of the graph, the machine description with its display name
//! normalized out, and the `Debug` rendering of the [`CompileRequest`].
//! All three are *streamed* into the hasher ([`clasp_exec::KeyBuilder`]):
//! a warm lookup allocates nothing, which `tests/alloc_free.rs` pins. Two
//! requests collide exactly when nothing the pipeline can observe
//! differs:
//!
//! - the loop text round-trips everything the pipeline reads (ops,
//!   kinds, dependences, distances), so two graphs with the same text
//!   compile identically — display labels are canonicalized by the
//!   rendering and may be served from whichever caller compiled first;
//! - the machine name is presentation only (no stage reads it), so
//!   `4c-gp-4b-2p`'s unified equivalent and an identically shaped
//!   `unified` preset share one entry;
//! - `CompileRequest` is `Copy + Debug` with no interior state, so its
//!   `Debug` text is a faithful rendering of every knob.
//!
//! These entries hold the decoded artifact, shared behind an `Arc`.
//!
//! **Wire keys** ([`CompileCache::wire_key`]) hash a tag part, then the
//! daemon request *as received*: its loop text, its machine text and the
//! parsed `CompileRequest`. A warm wire lookup therefore parses nothing
//! and renders nothing, and its reply is a pure function of the request
//! (a machine named `bar` is never answered with a cached `foo`). These
//! entries hold only the canonical [`crate::codec`] payload a reply is
//! rendered from, so the memory byte budget — which charges every entry
//! its payload length — bounds what a daemon really holds. The tag part
//! keeps a wire key from ever equalling an in-process key, even for a
//! request whose texts are exactly the canonical ones.
//!
//! Results (including failures) are memoized, and hit/miss counters are
//! deterministic even under thread contention — see [`clasp_exec::cache`]
//! for the contention contract. With a disk tier attached (see
//! [`CompileCache::with_limits`]), every computed result is persisted
//! through the [`crate::codec`] canonical serialization and later
//! processes are served from disk (a *promotion*, which decodes the
//! payload once — wire entries to validate it), with the outcome ticked
//! into [`Counter::CacheDiskHits`], [`Counter::CacheDiskErrors`],
//! [`Counter::CachePromotions`] and [`Counter::CacheEvictions`].

use crate::codec;
use crate::driver::{compile_full_observed, CompileRequest, CompiledArtifact};
use crate::pipeline::PipelineError;
use clasp_ddg::Ddg;
use clasp_exec::{
    CacheKey, CacheStats, ContentCache, DiskTier, KeyBuilder, TierGrade, TieredCache, TieredStats,
};
use clasp_machine::MachineSpec;
use clasp_obs::{Counter, Obs, Span};
use std::borrow::Cow;
use std::sync::Arc;

/// A memoized result: the artifact or the pipeline's refusal.
pub type CachedCompile = Arc<Result<CompiledArtifact, PipelineError>>;

/// First part of every wire key (see the module docs).
const WIRE_KEY_TAG: &str = "clasp-serve request";

/// One memory-tier entry: the decoded artifact for an in-process key,
/// the canonical payload for a wire key.
pub(crate) enum Entry {
    Artifact(CachedCompile),
    Payload(Box<str>),
}

impl Entry {
    /// The canonical payload: stored for a wire entry, encoded for an
    /// artifact (the tier's byte weight and disk store on a miss).
    pub(crate) fn payload(&self, iterations: i64) -> Cow<'_, str> {
        match self {
            Entry::Payload(payload) => Cow::Borrowed(payload),
            Entry::Artifact(result) => Cow::Owned(codec::encode(result, iterations)),
        }
    }
}

/// A shared, thread-safe memo table for [`compile_full`] keyed by
/// compile content (canonical loop text, canonical machine text,
/// request rendering) or by a daemon request as received. See the
/// module docs for both key spaces.
///
/// [`compile_full`]: crate::compile_full
pub struct CompileCache {
    cache: TieredCache<Entry>,
}

impl Default for CompileCache {
    fn default() -> Self {
        CompileCache::new()
    }
}

impl CompileCache {
    /// An empty, memory-only, unbounded cache.
    pub fn new() -> Self {
        CompileCache {
            cache: TieredCache::memory_only(ContentCache::new()),
        }
    }

    /// A cache with an optional memory byte budget (encoded-payload
    /// bytes; `None` = unbounded) and an optional persistent disk tier.
    pub fn with_limits(memory_budget: Option<usize>, disk: Option<Arc<DiskTier>>) -> Self {
        let memory = ContentCache::with_budget(memory_budget);
        CompileCache {
            cache: match disk {
                Some(d) => TieredCache::over(memory, d),
                None => TieredCache::memory_only(memory),
            },
        }
    }

    /// Open (or create) a persistent tier rooted at `dir`, tagged with
    /// the [`crate::ARTIFACT_FORMAT`] version so stale payloads from an
    /// older codec read as misses, never as corruption.
    pub fn open_disk_tier(dir: &std::path::Path) -> std::io::Result<Arc<DiskTier>> {
        Ok(Arc::new(DiskTier::open(dir, codec::ARTIFACT_FORMAT)?))
    }

    /// Whether a persistent tier is attached.
    pub fn has_disk(&self) -> bool {
        self.cache.has_disk()
    }

    /// The content key for one compile. Streams every canonical text
    /// straight into the hasher — no intermediate strings.
    pub fn key(g: &Ddg, machine: &MachineSpec, req: &CompileRequest) -> CacheKey {
        let mut kb = KeyBuilder::new();
        kb.stream(|s| {
            let _ = clasp_text::write_loop_into(g, s);
        });
        // The display name is presentation only: normalize it out so
        // identically shaped machines share an entry.
        kb.stream(|s| {
            let _ = clasp_text::write_machine_named_into(machine, "#", s);
        });
        kb.stream(|s| {
            use std::fmt::Write as _;
            let _ = write!(s, "{req:?}");
        });
        kb.finish()
    }

    /// The wire key for one daemon request: a tag part, then the loop
    /// and machine texts as received and the parsed request knobs. No
    /// text is parsed or rendered, so a warm wire lookup costs this hash
    /// and the memory lookup.
    pub(crate) fn wire_key(loop_text: &str, machine_text: &str, req: &CompileRequest) -> CacheKey {
        let mut kb = KeyBuilder::new();
        kb.text(WIRE_KEY_TAG);
        kb.text(loop_text);
        kb.text(machine_text);
        kb.stream(|s| {
            use std::fmt::Write as _;
            let _ = write!(s, "{req:?}");
        });
        kb.finish()
    }

    /// Compile through the cache: the first request for a key runs
    /// [`compile_full`](crate::compile_full) (a miss), every later
    /// request shares its result (a hit). Concurrent requests for the
    /// same key block on the one in-flight compile rather than
    /// recomputing.
    pub fn compile(&self, g: &Ddg, machine: &MachineSpec, req: &CompileRequest) -> CachedCompile {
        self.compile_observed(g, machine, req, &Obs::disabled())
    }

    /// [`CompileCache::compile`] recording into an observability sink: a
    /// `cache.lookup` span per lookup (with the key and
    /// `hit`/`disk`/`miss` outcome — its duration is the lookup latency,
    /// which for a cold key includes the compile itself), the matching
    /// cache counters, and the compile's own spans and counters on the
    /// miss path. Because `compute` runs exactly once per key (see
    /// [`clasp_exec::cache`]), the folded pipeline counters stay
    /// deterministic across thread counts.
    pub fn compile_observed(
        &self,
        g: &Ddg,
        machine: &MachineSpec,
        req: &CompileRequest,
        obs: &Obs,
    ) -> CachedCompile {
        self.compile_admitted(g, machine, req, obs, || ())
    }

    /// [`CompileCache::compile_observed`] calling `admit` just before a
    /// miss compiles and holding what it returns (an admission permit)
    /// until the compile ends, so hits and promotions never wait on it.
    pub(crate) fn compile_admitted<P>(
        &self,
        g: &Ddg,
        machine: &MachineSpec,
        req: &CompileRequest,
        obs: &Obs,
        admit: impl FnOnce() -> P,
    ) -> CachedCompile {
        let iterations = req.iterations;
        let entry = self.lookup(
            Self::key(g, machine, req),
            obs,
            |payload| Some(Entry::Artifact(Arc::new(codec::decode(payload).ok()?))),
            |entry| entry.payload(iterations).into_owned(),
            || {
                let _permit = admit();
                Entry::Artifact(Arc::new(compile_full_observed(g, machine, req, obs)))
            },
        );
        match &*entry {
            Entry::Artifact(result) => Arc::clone(result),
            // Only a 128-bit collision with a wire key lands here; stored
            // payloads were encoded here or validated on promotion.
            Entry::Payload(payload) => {
                Arc::new(codec::decode(payload).expect("a stored payload decodes"))
            }
        }
    }

    /// The memory-tier entry for a wire key, counted and recorded as a
    /// hit; `None` on a memory miss, which counts nothing until the
    /// caller's [`CompileCache::wire_compute`].
    pub(crate) fn wire_hit(&self, key: CacheKey, obs: &Obs) -> Option<Arc<Entry>> {
        let span = obs.begin("cache.lookup");
        let entry = self.cache.get(key)?;
        record(obs, span, key, TierGrade::Memory, 0);
        Some(entry)
    }

    /// The wire lookup after a memory miss: promote the payload from
    /// disk (decoding it once to validate it) or compile `g` on
    /// `machine` under `admit`, keeping only the canonical payload.
    pub(crate) fn wire_compute<P>(
        &self,
        key: CacheKey,
        g: &Ddg,
        machine: &MachineSpec,
        req: &CompileRequest,
        obs: &Obs,
        admit: impl FnOnce() -> P,
    ) -> Arc<Entry> {
        let iterations = req.iterations;
        self.lookup(
            key,
            obs,
            |payload| {
                codec::decode(payload)
                    .is_ok()
                    .then(|| Entry::Payload(payload.into()))
            },
            |entry| entry.payload(iterations).into_owned(),
            || {
                let _permit = admit();
                let result = compile_full_observed(g, machine, req, obs);
                Entry::Payload(codec::encode(&result, iterations).into_boxed_str())
            },
        )
    }

    /// One tier lookup inside a `cache.lookup` span.
    fn lookup(
        &self,
        key: CacheKey,
        obs: &Obs,
        decode: impl FnOnce(&str) -> Option<Entry>,
        encode: impl FnOnce(&Entry) -> String,
        compute: impl FnOnce() -> Entry,
    ) -> Arc<Entry> {
        let span = obs.begin("cache.lookup");
        let (value, grade, evicted) = self.cache.get_or_compute(key, decode, encode, compute);
        record(obs, span, key, grade, evicted);
        value
    }

    /// In-memory hit/miss/entry counters so far.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats().memory
    }

    /// Counters for every tier (memory, disk, promotions).
    pub fn tiered_stats(&self) -> TieredStats {
        self.cache.stats()
    }
}

/// Close a lookup's span with its key and outcome, ticking the matching
/// cache counters.
fn record(obs: &Obs, span: Span, key: CacheKey, grade: TierGrade, evicted: u64) {
    let outcome = match grade {
        TierGrade::Memory => {
            obs.add(Counter::CacheHits, 1);
            "hit"
        }
        TierGrade::Disk => {
            obs.add(Counter::CacheDiskHits, 1);
            obs.add(Counter::CachePromotions, 1);
            "disk"
        }
        TierGrade::Computed { disk_error } => {
            obs.add(Counter::CacheMisses, 1);
            if disk_error {
                obs.add(Counter::CacheDiskErrors, 1);
            }
            "miss"
        }
    };
    if evicted > 0 {
        obs.add(Counter::CacheEvictions, evicted);
    }
    obs.end_with(span, || {
        vec![("key", key.to_string()), ("outcome", outcome.to_string())]
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use clasp_ddg::OpKind;
    use clasp_machine::presets;

    fn small_loop(name: &str) -> Ddg {
        let mut g = Ddg::new(name);
        let a = g.add(OpKind::Load);
        let b = g.add(OpKind::IntAlu);
        g.add_dep(a, b);
        g
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("clasp-cached-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn second_compile_is_a_hit_and_shares_the_artifact() {
        let cache = CompileCache::new();
        let g = small_loop("memo");
        let m = presets::two_cluster_gp(2, 1);
        let req = CompileRequest::default();
        let first = cache.compile(&g, &m, &req);
        let second = cache.compile(&g, &m, &req);
        assert!(Arc::ptr_eq(&first, &second), "hit must share the entry");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(
            first.as_ref().as_ref().unwrap().ii(),
            second.as_ref().as_ref().unwrap().ii()
        );
    }

    #[test]
    fn key_ignores_machine_name_but_not_shape() {
        let g = small_loop("k");
        let req = CompileRequest::default();
        let m = presets::two_cluster_gp(2, 1);
        let renamed = MachineSpec::new(
            "same-shape-other-name",
            m.cluster_ids().map(|c| *m.cluster(c)).collect(),
            m.interconnect().clone(),
        );
        assert_eq!(
            CompileCache::key(&g, &m, &req),
            CompileCache::key(&g, &renamed, &req)
        );
        let wider = presets::four_cluster_gp(4, 2);
        assert_ne!(
            CompileCache::key(&g, &m, &req),
            CompileCache::key(&g, &wider, &req)
        );
    }

    #[test]
    fn key_separates_loops_and_requests() {
        let m = presets::two_cluster_gp(2, 1);
        let req = CompileRequest::default();
        let a = small_loop("a");
        let b = small_loop("b");
        assert_ne!(
            CompileCache::key(&a, &m, &req),
            CompileCache::key(&b, &m, &req)
        );
        let other_req = CompileRequest {
            restage: false,
            ..CompileRequest::default()
        };
        assert_ne!(
            CompileCache::key(&a, &m, &req),
            CompileCache::key(&a, &m, &other_req)
        );
    }

    #[test]
    fn unified_equivalent_hits_an_identically_shaped_preset() {
        // The content-addressed promise: 2c-gp's unified equivalent (8
        // GP units, no interconnect) is the same machine as the
        // `unified` preset, whatever either is called.
        let g = small_loop("u");
        let req = CompileRequest::default();
        let equiv = presets::two_cluster_gp(2, 1).unified_equivalent();
        let preset = presets::unified_gp(8);
        assert_eq!(
            CompileCache::key(&g, &equiv, &req),
            CompileCache::key(&g, &preset, &req)
        );
        let cache = CompileCache::new();
        cache.compile(&g, &preset, &req);
        cache.compile(&g, &equiv, &req);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn failures_are_memoized_too() {
        // A float op on an integer-only machine fails; the second
        // request must not re-run the pipeline.
        let mut g = Ddg::new("fp");
        g.add(OpKind::FpAdd);
        let m = MachineSpec::new(
            "int-only",
            vec![clasp_machine::ClusterSpec::specialized(1, 2, 0)],
            clasp_machine::Interconnect::None,
        );
        let cache = CompileCache::new();
        let req = CompileRequest::default();
        assert!(cache.compile(&g, &m, &req).is_err());
        assert!(cache.compile(&g, &m, &req).is_err());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn disk_tier_serves_a_second_cache_instance() {
        // Two cache instances sharing one directory model a process
        // restart: the second is served by promotion, not recompute,
        // and the served artifact is bit-identical to the computed one.
        let dir = tmpdir("restart");
        let g = small_loop("persist");
        let m = presets::two_cluster_gp(2, 1);
        let req = CompileRequest::default();

        let tier = CompileCache::open_disk_tier(&dir).unwrap();
        let cold = CompileCache::with_limits(None, Some(tier));
        let first = cold.compile(&g, &m, &req);
        assert_eq!(cold.tiered_stats().disk.misses, 1);

        let tier = CompileCache::open_disk_tier(&dir).unwrap();
        let warm = CompileCache::with_limits(None, Some(tier));
        let second = warm.compile(&g, &m, &req);
        let stats = warm.tiered_stats();
        assert_eq!((stats.disk.hits, stats.promotions), (1, 1));
        assert_eq!(stats.memory.misses, 1, "memory tier still misses once");
        let a = first.as_ref().as_ref().unwrap();
        let b = second.as_ref().as_ref().unwrap();
        assert_eq!(
            codec::encode(&Ok(a.clone()), req.iterations),
            codec::encode(&Ok(b.clone()), req.iterations),
            "promoted artifact must round-trip bit-identically"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_key_matches_eager_texts() {
        // The streaming KeyBuilder must key on exactly the canonical
        // texts the eager path would produce.
        let g = small_loop("stream");
        let m = presets::four_cluster_gp(4, 2);
        let req = CompileRequest::default();
        let mut kb = KeyBuilder::new();
        kb.text(&clasp_text::write_loop(&g));
        let mut machine_text = String::new();
        clasp_text::write_machine_named_into(&m, "#", &mut machine_text).unwrap();
        kb.text(&machine_text);
        kb.text(&format!("{req:?}"));
        assert_eq!(CompileCache::key(&g, &m, &req), kb.finish());
    }
}
