//! Cache tiering: a persistent layer behind [`ContentCache`].
//!
//! The in-memory [`ContentCache`] answers warm lookups in microseconds
//! but dies with the process. [`DiskTier`] is the slower layer consulted
//! on a memory miss: it persists encoded payloads in shard-per-prefix
//! directories keyed by the same 128-bit content hash, and
//! [`TieredCache`] composes memory-over-disk with exact
//! hit/miss/promote accounting.
//!
//! # Shard layout and header
//!
//! `DiskTier` stores each entry at `<root>/<hh>/<32-hex-key>` where
//! `hh` is the first byte of the key in hex — 256 shard directories so
//! no single directory grows unboundedly. Every file starts with a
//! one-line header:
//!
//! ```text
//! clasp-cache/1 <format-tag> <payload-bytes>
//! ```
//!
//! followed by exactly `<payload-bytes>` bytes of UTF-8 payload. The
//! *format tag* is supplied by the composing layer and names the
//! payload encoding (the compile service uses the artifact codec's
//! version string); a tag mismatch is a plain **miss** — an old cache
//! directory is stale, not corrupt — while a malformed header, a length
//! mismatch (truncation), or invalid UTF-8 is a **disk error**: the
//! lookup degrades to a miss and the error counter ticks, but nothing
//! panics.
//!
//! # Atomicity
//!
//! Writes go to a tempfile in the shard directory (name salted with the
//! process id) and are renamed into place. Readers therefore only ever
//! observe absent files or complete files, and two processes sharing a
//! cache directory race benignly: the loser's rename replaces the
//! winner's identical content.

use crate::cache::{CacheKey, CacheStats, ContentCache};
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Magic prefix of every shard file header; the `/1` is the layout
/// version of the header itself, independent of the payload format tag.
const HEADER_MAGIC: &str = "clasp-cache/1";

/// Outcome of a [`DiskTier`] load.
#[derive(Debug, Clone, PartialEq, Eq)]
enum TierLoad {
    /// The tier held a complete, well-formed payload.
    Hit(String),
    /// The tier has no entry for the key (including format-tag
    /// mismatches from older cache layouts).
    Miss,
    /// The tier had an entry but could not produce it (truncated or
    /// corrupt file, I/O failure). Degrades to a miss; counted
    /// separately so `cache.disk_errors` can surface it.
    Error,
}

/// Counters of one persistent tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Loads that produced a payload.
    pub hits: u64,
    /// Loads that found nothing (or a stale format tag).
    pub misses: u64,
    /// Loads or stores that failed (corruption, I/O errors).
    pub errors: u64,
    /// Payloads written.
    pub stores: u64,
}

/// The persistent tier below memory: opaque UTF-8 payloads by content
/// key in shard-per-prefix directories under a root, atomic
/// write-then-rename, versioned header. See the module docs for the
/// layout. Safe to share across threads; malformed stored data never
/// panics, it degrades to a counted error.
pub struct DiskTier {
    root: PathBuf,
    format_tag: String,
    hits: AtomicU64,
    misses: AtomicU64,
    errors: AtomicU64,
    stores: AtomicU64,
}

impl fmt::Debug for DiskTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiskTier")
            .field("root", &self.root)
            .field("format_tag", &self.format_tag)
            .field("stats", &self.stats())
            .finish()
    }
}

impl DiskTier {
    /// Open (creating if needed) a disk tier rooted at `root`. The
    /// `format_tag` names the payload encoding; entries written under a
    /// different tag read back as misses. The tag must be a single
    /// whitespace-free token.
    pub fn open(root: impl Into<PathBuf>, format_tag: &str) -> std::io::Result<DiskTier> {
        assert!(
            !format_tag.is_empty() && !format_tag.contains(char::is_whitespace),
            "format tag must be one whitespace-free token"
        );
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(DiskTier {
            root,
            format_tag: format_tag.to_string(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            stores: AtomicU64::new(0),
        })
    }

    fn shard_dir(&self, key: CacheKey) -> PathBuf {
        self.root
            .join(format!("{:02x}", (key.value() >> 120) as u8))
    }

    fn entry_path(&self, key: CacheKey) -> PathBuf {
        self.shard_dir(key).join(key.to_string())
    }

    fn parse_entry(&self, bytes: &[u8]) -> Result<Option<String>, ()> {
        let newline = bytes.iter().position(|&b| b == b'\n').ok_or(())?;
        let header = std::str::from_utf8(&bytes[..newline]).map_err(|_| ())?;
        let mut fields = header.split(' ');
        if fields.next() != Some(HEADER_MAGIC) {
            return Err(());
        }
        let tag = fields.next().ok_or(())?;
        let len: usize = fields.next().ok_or(())?.parse().map_err(|_| ())?;
        if fields.next().is_some() {
            return Err(());
        }
        let payload = &bytes[newline + 1..];
        if payload.len() != len {
            // Truncated (or padded) relative to its own header.
            return Err(());
        }
        if tag != self.format_tag {
            // A stale format is an honest miss, but only once the entry
            // itself proved well-formed.
            return Ok(None);
        }
        let payload = std::str::from_utf8(payload).map_err(|_| ())?;
        Ok(Some(payload.to_string()))
    }

    /// Fetch the payload stored for `key`, if any.
    fn load(&self, key: CacheKey) -> TierLoad {
        let path = self.entry_path(key);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return TierLoad::Miss;
            }
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                return TierLoad::Error;
            }
        };
        match self.parse_entry(&bytes) {
            Ok(Some(payload)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                TierLoad::Hit(payload)
            }
            Ok(None) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                TierLoad::Miss
            }
            Err(()) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                TierLoad::Error
            }
        }
    }

    /// Persist `payload` for `key`. Failures are recorded in the tier's
    /// error counter, not returned: the memory tier already holds the
    /// value, so a failed store only costs a future recompute.
    fn store(&self, key: CacheKey, payload: &str) {
        let result = (|| -> std::io::Result<()> {
            let dir = self.shard_dir(key);
            fs::create_dir_all(&dir)?;
            let final_path = dir.join(key.to_string());
            // Salted with pid + a process-wide counter so two threads
            // (or two processes) storing the same key never share a
            // tempfile.
            static TMP_SALT: AtomicU64 = AtomicU64::new(0);
            let tmp_path = dir.join(format!(
                ".{key}.{}.{}.tmp",
                std::process::id(),
                TMP_SALT.fetch_add(1, Ordering::Relaxed)
            ));
            {
                let mut f = fs::File::create(&tmp_path)?;
                writeln!(f, "{HEADER_MAGIC} {} {}", self.format_tag, payload.len())?;
                f.write_all(payload.as_bytes())?;
                f.sync_all()?;
            }
            fs::rename(&tmp_path, &final_path)
        })();
        match result {
            Ok(()) => {
                self.stores.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Sample the tier's counters.
    fn stats(&self) -> TierStats {
        TierStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
        }
    }
}

/// How one [`TieredCache`] lookup was served — the hook callers use to
/// tick the matching observability counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierGrade {
    /// Served from the in-memory tier.
    Memory,
    /// Served by decoding a persisted payload, which was promoted into
    /// the memory tier.
    Disk,
    /// Computed fresh. `disk_error` reports whether the persistent tier
    /// failed (corruption/IO) on the way — distinguishing "cold" from
    /// "degraded".
    Computed {
        /// The persistent tier failed to read the entry or the
        /// payload failed to decode.
        disk_error: bool,
    },
}

/// Counters of a [`TieredCache`]: the memory tier's stats, the
/// persistent tier's stats (zero when no tier is attached), and the
/// number of disk-to-memory promotions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TieredStats {
    /// In-memory tier counters.
    pub memory: CacheStats,
    /// Persistent tier counters.
    pub disk: TierStats,
    /// Disk hits decoded and installed into the memory tier.
    pub promotions: u64,
}

/// Memory-over-disk composition: an in-memory [`ContentCache`] backed
/// by an optional [`DiskTier`]. Lookups check memory first;
/// on a memory miss the persistent tier is consulted, a decodable
/// payload is *promoted* into memory, and only then does the compute
/// run (encoding and storing its result through for the next process).
pub struct TieredCache<V> {
    memory: ContentCache<V>,
    disk: Option<DiskTier>,
    promotions: AtomicU64,
}

impl<V> fmt::Debug for TieredCache<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TieredCache")
            .field("stats", &self.stats())
            .field("has_disk", &self.disk.is_some())
            .finish()
    }
}

impl<V> TieredCache<V> {
    /// A memory-only tiered cache (no persistence).
    pub fn memory_only(memory: ContentCache<V>) -> TieredCache<V> {
        TieredCache {
            memory,
            disk: None,
            promotions: AtomicU64::new(0),
        }
    }

    /// Memory over a persistent tier.
    pub fn over(memory: ContentCache<V>, disk: DiskTier) -> TieredCache<V> {
        TieredCache {
            memory,
            disk: Some(disk),
            promotions: AtomicU64::new(0),
        }
    }

    /// A memory-tier hit for `key`, counted as one; `None` otherwise,
    /// counted as nothing and without consulting the persistent tier
    /// (see [`ContentCache::get`]). The hook for callers that must do
    /// work before they can compute a miss.
    pub fn get(&self, key: CacheKey) -> Option<Arc<V>> {
        self.memory.get(key)
    }

    /// Look up `key`, trying memory, then the persistent tier (via
    /// `decode`), then `compute` (whose result is persisted via
    /// `encode`). Returns the value, how the lookup was served, and how
    /// many memory entries this call's installation evicted.
    ///
    /// The encoded payload's byte length is charged to the memory
    /// tier's byte budget as the entry's weight, for promoted and
    /// computed entries alike.
    pub fn get_or_compute(
        &self,
        key: CacheKey,
        decode: impl FnOnce(&str) -> Option<V>,
        encode: impl FnOnce(&V) -> String,
        compute: impl FnOnce() -> V,
    ) -> (Arc<V>, TierGrade, u64) {
        let mut grade = TierGrade::Memory;
        let (value, _missed, evicted) = self.memory.get_or_compute_weighed(key, || {
            let mut disk_error = false;
            if let Some(disk) = &self.disk {
                match disk.load(key) {
                    TierLoad::Hit(payload) => match decode(&payload) {
                        Some(v) => {
                            self.promotions.fetch_add(1, Ordering::Relaxed);
                            grade = TierGrade::Disk;
                            return (v, payload.len());
                        }
                        // A payload that parses its header but not its
                        // body is corruption the header check couldn't
                        // see; degrade to a recompute.
                        None => disk_error = true,
                    },
                    TierLoad::Miss => {}
                    TierLoad::Error => disk_error = true,
                }
            }
            grade = TierGrade::Computed { disk_error };
            let v = compute();
            let payload = encode(&v);
            if let Some(disk) = &self.disk {
                disk.store(key, &payload);
            }
            (v, payload.len())
        });
        (value, grade, evicted)
    }

    /// Sample all counters.
    pub fn stats(&self) -> TieredStats {
        TieredStats {
            memory: self.memory.stats(),
            disk: self.disk.as_ref().map(|d| d.stats()).unwrap_or_default(),
            promotions: self.promotions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("clasp-tier-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disk_round_trip_and_shard_layout() {
        let root = tmpdir("roundtrip");
        let tier = DiskTier::open(&root, "t1").unwrap();
        let key = CacheKey::of(&["case"]);
        assert_eq!(tier.load(key), TierLoad::Miss);
        tier.store(key, "payload line\nsecond line");
        assert_eq!(
            tier.load(key),
            TierLoad::Hit("payload line\nsecond line".to_string())
        );
        let shard = root.join(format!("{:02x}", (key.value() >> 120) as u8));
        assert!(shard.join(key.to_string()).is_file());
        let stats = tier.stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (1, 1, 1));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn truncated_entry_degrades_to_error_not_panic() {
        let root = tmpdir("trunc");
        let tier = DiskTier::open(&root, "t1").unwrap();
        let key = CacheKey::of(&["case"]);
        tier.store(key, "0123456789");
        // Chop the file mid-payload: header says 10 bytes, file has 4.
        let path = root
            .join(format!("{:02x}", (key.value() >> 120) as u8))
            .join(key.to_string());
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 6]).unwrap();
        assert_eq!(tier.load(key), TierLoad::Error);
        assert_eq!(tier.stats().errors, 1);
        // Garbage header is an error too.
        fs::write(&path, b"not a cache file at all").unwrap();
        assert_eq!(tier.load(key), TierLoad::Error);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn format_tag_mismatch_is_a_miss() {
        let root = tmpdir("tag");
        let old = DiskTier::open(&root, "old-format").unwrap();
        let key = CacheKey::of(&["case"]);
        old.store(key, "payload");
        let new = DiskTier::open(&root, "new-format").unwrap();
        assert_eq!(new.load(key), TierLoad::Miss);
        let stats = new.stats();
        assert_eq!((stats.misses, stats.errors), (1, 0));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn tiered_promotes_from_disk_then_serves_memory() {
        let root = tmpdir("promote");
        let key = CacheKey::of(&["x"]);

        // First process: computes and persists.
        let first: TieredCache<u64> =
            TieredCache::over(ContentCache::new(), DiskTier::open(&root, "t1").unwrap());
        let (v, grade, _) = first.get_or_compute(key, |s| s.parse().ok(), |v| v.to_string(), || 42);
        assert_eq!(*v, 42);
        assert_eq!(grade, TierGrade::Computed { disk_error: false });

        // "Restart": fresh memory, same directory — disk hit, promoted.
        let second: TieredCache<u64> =
            TieredCache::over(ContentCache::new(), DiskTier::open(&root, "t1").unwrap());
        let (v, grade, _) = second.get_or_compute(
            key,
            |s| s.parse().ok(),
            |v| v.to_string(),
            || unreachable!("must be served from disk"),
        );
        assert_eq!(*v, 42);
        assert_eq!(grade, TierGrade::Disk);
        assert_eq!(second.stats().promotions, 1);

        // Third lookup in the same process: pure memory.
        let (_, grade, _) = second.get_or_compute(
            key,
            |s| s.parse().ok(),
            |v| v.to_string(),
            || unreachable!(),
        );
        assert_eq!(grade, TierGrade::Memory);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn undecodable_payload_recomputes_with_disk_error() {
        let root = tmpdir("undecodable");
        let disk = DiskTier::open(&root, "t1").unwrap();
        let key = CacheKey::of(&["x"]);
        disk.store(key, "not a number");
        let cache: TieredCache<u64> = TieredCache::over(ContentCache::new(), disk);
        let (v, grade, _) = cache.get_or_compute(key, |s| s.parse().ok(), |v| v.to_string(), || 7);
        assert_eq!(*v, 7);
        assert_eq!(grade, TierGrade::Computed { disk_error: true });
        // The recompute stored a good payload over the bad one.
        let reopened = DiskTier::open(&root, "t1").unwrap();
        assert_eq!(reopened.load(key), TierLoad::Hit("7".to_string()));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn two_writers_share_a_directory_without_corruption() {
        let root = tmpdir("shared");
        let a = DiskTier::open(&root, "t1").unwrap();
        let b = DiskTier::open(&root, "t1").unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..50u64 {
                    a.store(CacheKey::of(&[&i.to_string()]), &format!("v{i}"));
                }
            });
            s.spawn(|| {
                for i in 0..50u64 {
                    b.store(CacheKey::of(&[&i.to_string()]), &format!("v{i}"));
                }
            });
        });
        for i in 0..50u64 {
            assert_eq!(
                a.load(CacheKey::of(&[&i.to_string()])),
                TierLoad::Hit(format!("v{i}"))
            );
        }
        assert_eq!(a.stats().errors + b.stats().errors, 0);
        let _ = fs::remove_dir_all(&root);
    }
}
