//! The compile *service*: one facade every entry point (CLI, daemon,
//! experiments, benchmarks) drives instead of wiring caches and the
//! driver together by hand.
//!
//! A [`CompileService`] owns:
//!
//! - one tiered cache of full-driver results (memory over an optional
//!   persistent directory), holding the two key spaces below,
//! - one phase-2 memo table for callers that only need IIs (the
//!   experiment harness compiles thousands of loops but never emits a
//!   kernel — caching the full artifact would be pure waste),
//! - an admission gate bounding how many compiles run at once, so a
//!   daemon under fan-in degrades to queueing rather than thrashing.
//!   Every entry point looks up first and admits only a miss's
//!   compute, so a hit never queues behind a cold compile.
//!
//! **In-process keys** ([`CompileService::key`]) hash three canonical
//! texts — [`clasp_text::write_loop`] of the graph, the machine
//! description with its display name normalized out, and the `Debug`
//! rendering of the [`CompileRequest`] — streamed through a
//! [`KeyBuilder`], so keying a lookup allocates nothing
//! (`tests/alloc_free.rs`). Two requests collide exactly when nothing
//! the pipeline can observe differs: the loop text round-trips
//! everything the pipeline reads, no stage reads the machine name (so
//! `4c-gp-4b-2p`'s unified equivalent and an identically shaped
//! `unified` preset share one entry), and `CompileRequest` is `Copy +
//! Debug` with no interior state.
//!
//! **Wire keys** hash a tag part, then the daemon request *as received*:
//! its loop text, its machine text and the parsed `CompileRequest`. A
//! warm wire lookup therefore parses and renders nothing, and its reply
//! is a pure function of the request (a machine named `bar` is never
//! answered with a cached `foo`). The tag part keeps a wire key from
//! ever equalling an in-process key, even for a request whose texts are
//! exactly the canonical ones.
//!
//! **One entry kind.** Every entry, in either key space, is the
//! canonical [`crate::codec`] payload, and the memory budget charges it
//! exactly that payload's length, so the budget bounds what the service
//! holds. A miss compiles, stores the payload, and hands the caller the
//! artifact it just compiled. A hit renders a wire reply straight from
//! the stored bytes; an in-process hit decodes them, recomputing the
//! register model and the program as a disk promotion does, so its
//! report's stage timings read zero.
//!
//! Results, failures included, are memoized, and hit/miss counters are
//! deterministic under thread contention (see [`clasp_exec::cache`]).
//! With a persistent tier, every computed payload is stored through and
//! later processes are served from disk (a *promotion*, which decodes
//! the payload once to validate it), with the outcome ticked into the
//! `cache.*` counters.
//!
//! The service also defines the *wire* request/response shape shared
//! with the `clasp-serve` daemon: a [`ServiceRequest`] carries the
//! `.clasp` loop text, the `.machine` description, every
//! [`CompileRequest`] knob, and an optional trace-capture flag; a
//! [`ServiceReply`] carries the [`crate::codec`] canonical artifact
//! payload (bit-identical whether computed, served from memory, or
//! promoted from disk) plus the optional Chrome trace JSON. Both render
//! to and parse from plain text, so the TCP layer in [`crate::serve`]
//! only moves opaque frames.

use crate::codec;
use crate::driver::{
    compile_full_observed, BackendKind, CompileRequest, CompiledArtifact, RegisterModelKind,
    MAX_ITERATIONS,
};
use crate::pipeline::{compile_loop, unified_ii, PipelineConfig, PipelineError};
use clasp_core::Ordering;
use clasp_ddg::Ddg;
use clasp_exec::{
    CacheKey, CacheStats, ContentCache, DiskTier, KeyBuilder, TierGrade, TieredCache, TieredStats,
};
use clasp_machine::MachineSpec;
use clasp_obs::{Counter, Obs, Span};
use clasp_sched::{SchedulerConfig, SchedulerKind};
use std::cell::Cell;
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};

/// First line of every wire request and reply.
pub const PROTOCOL: &str = "clasp-serve/1";

/// First part of every wire key (see the module docs).
const WIRE_KEY_TAG: &str = "clasp-serve request";

/// A compile result: the artifact or the pipeline's refusal. Every
/// [`CompileService::compile_artifact`] call returns a fresh `Arc`, the
/// artifact a miss just compiled or the one a hit decoded; the tier
/// itself holds only the payload, so no two calls share an artifact.
pub type CachedCompile = Arc<Result<CompiledArtifact, PipelineError>>;

/// The service's former cache-layer name, kept while `perfbench` still
/// calls `CompileCache::key` (that is, [`CompileService::key`]).
pub type CompileCache = CompileService;

/// How to build a [`CompileService`].
#[derive(Debug, Clone, Default)]
pub struct ServiceConfig {
    /// Maximum concurrent compiles admitted (0 = one per hardware
    /// thread). Requests beyond the limit queue deterministically on
    /// the gate rather than oversubscribing the machine.
    pub threads: usize,
    /// Byte budget for the in-memory artifact tier (`None` = unbounded).
    /// Every entry holds its canonical payload and is charged exactly its
    /// length, so the budget bounds what the tier holds.
    pub memory_budget: Option<usize>,
    /// Directory for the persistent artifact tier (`None` = memory only).
    pub cache_dir: Option<PathBuf>,
}

/// A request-level failure: the wire text, the loop, or the machine
/// could not be parsed. Pipeline failures are *not* service errors —
/// they travel inside the artifact payload as typed results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceError(pub String);

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ServiceError {}

fn bad(msg: impl Into<String>) -> ServiceError {
    ServiceError(msg.into())
}

/// A counting semaphore: `acquire` blocks while `permits` is zero. The
/// queue order is whatever the platform condvar provides; determinism
/// of *results* never depends on admission order because every cached
/// quantity depends only on work done.
struct Gate {
    permits: Mutex<usize>,
    cv: Condvar,
}

impl Gate {
    fn new(width: usize) -> Gate {
        Gate {
            permits: Mutex::new(width.max(1)),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self) -> GatePermit<'_> {
        let mut permits = self.permits.lock().unwrap();
        while *permits == 0 {
            permits = self.cv.wait(permits).unwrap();
        }
        *permits -= 1;
        GatePermit { gate: self }
    }
}

struct GatePermit<'a> {
    gate: &'a Gate,
}

impl Drop for GatePermit<'_> {
    fn drop(&mut self) {
        *self.gate.permits.lock().unwrap() += 1;
        self.gate.cv.notify_one();
    }
}

/// The service facade: tiered artifact cache + phase-2 II memo table +
/// admission gate. See the module docs.
pub struct CompileService {
    /// Canonical payloads of in-process and wire keys alike (see the
    /// module docs).
    full: TieredCache<Box<str>>,
    /// Clustered and unified IIs alike; every key starts with its kind.
    phase2: ContentCache<Option<u32>>,
    gate: Gate,
}

impl fmt::Debug for CompileService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompileService")
            .field("full", &self.full)
            .finish()
    }
}

impl CompileService {
    /// Build a service from `config`, opening (or creating) the
    /// persistent tier when a directory is configured. The tier is
    /// tagged with [`crate::ARTIFACT_FORMAT`], so payloads from an older
    /// codec read as misses, never as corruption.
    ///
    /// # Errors
    ///
    /// An [`std::io::Error`] if the cache directory cannot be created.
    pub fn new(config: ServiceConfig) -> std::io::Result<CompileService> {
        let memory = ContentCache::with_budget(config.memory_budget);
        let full = match &config.cache_dir {
            Some(dir) => TieredCache::over(memory, DiskTier::open(dir, codec::ARTIFACT_FORMAT)?),
            None => TieredCache::memory_only(memory),
        };
        let width = if config.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.threads
        };
        Ok(CompileService {
            full,
            phase2: ContentCache::new(),
            gate: Gate::new(width),
        })
    }

    /// A memory-only service admitting one compile per hardware thread.
    pub fn in_memory() -> CompileService {
        CompileService::new(ServiceConfig::default()).expect("no IO without a cache dir")
    }

    /// The in-process key for one compile (see the module docs). Streams
    /// every canonical text straight into the hasher — no intermediate
    /// strings.
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

    /// Full-driver compile through the tiered cache: the first request
    /// for a key runs [`compile_full`](crate::compile_full) (a miss) and
    /// returns its result, a promotion returns the artifact it decoded
    /// from disk, every later request decodes the stored payload (a hit),
    /// and concurrent requests for a cold key wait on the one in-flight
    /// compile. Only a miss's compile is gated by admission.
    ///
    /// Records a `cache.lookup` span with the key and its
    /// `hit`/`disk`/`miss` outcome (a cold key's duration includes the
    /// compile), the matching cache counters, and the compile's own
    /// spans and counters on a miss. The compile runs once per key, so
    /// the folded counters stay deterministic across thread counts.
    pub fn compile_artifact(
        &self,
        g: &Ddg,
        machine: &MachineSpec,
        req: &CompileRequest,
        obs: &Obs,
    ) -> CachedCompile {
        let (payload, fresh) = self.lookup(Self::key(g, machine, req), g, machine, req, obs);
        // A stored payload was encoded by `lookup` or validated on promotion.
        Arc::new(
            fresh.unwrap_or_else(|| codec::decode(&payload).expect("a stored payload decodes")),
        )
    }

    /// One tier lookup inside a `cache.lookup` span: memory, then a disk
    /// payload that decodes, then a compile under admission whose
    /// encoded result is stored. Returns the stored payload, and the
    /// result when this call promoted (decoded) or compiled it.
    fn lookup(
        &self,
        key: CacheKey,
        g: &Ddg,
        machine: &MachineSpec,
        req: &CompileRequest,
        obs: &Obs,
    ) -> (
        Arc<Box<str>>,
        Option<Result<CompiledArtifact, PipelineError>>,
    ) {
        let span = obs.begin("cache.lookup");
        let fresh = Cell::new(None);
        let (payload, grade, evicted) = self.full.get_or_compute(
            key,
            |payload| {
                fresh.set(Some(codec::decode(payload).ok()?));
                Some(payload.into())
            },
            |payload| payload.to_string(),
            || {
                let _permit = self.gate.acquire();
                let result = compile_full_observed(g, machine, req, obs);
                let payload = codec::encode(&result, req.iterations).into_boxed_str();
                fresh.set(Some(result));
                payload
            },
        );
        record(obs, span, key, grade, evicted);
        (payload, fresh.into_inner())
    }

    /// Phase-1+2 II only (no emission, no artifact): the experiment
    /// harness's workload, memoized separately so a corpus sweep never
    /// pays for (or evicts) full artifacts. `None` memoizes pipeline
    /// failure.
    pub fn ii_of(&self, g: &Ddg, machine: &MachineSpec, config: PipelineConfig) -> Option<u32> {
        let key = phase2_key("ii", g, machine, &format!("{config:?}"));
        *self.phase2.get_or_compute(key, || {
            let _permit = self.gate.acquire();
            compile_loop(g, machine, config).ok().map(|c| c.ii())
        })
    }

    /// The unified-baseline II for `machine`'s equally wide unified
    /// equivalent, memoized like [`CompileService::ii_of`].
    pub fn unified_ii_of(
        &self,
        g: &Ddg,
        machine: &MachineSpec,
        sched: SchedulerConfig,
    ) -> Option<u32> {
        let key = phase2_key("unified", g, machine, &format!("{sched:?}"));
        *self.phase2.get_or_compute(key, || {
            let _permit = self.gate.acquire();
            unified_ii(g, machine, sched).ok()
        })
    }

    /// The differential-oracle pipeline routed through the service
    /// cache: a fuzz case compiled twice (e.g. while shrinking) is
    /// served from memory. Matches [`clasp_oracle::PipelineFn`].
    ///
    /// # Errors
    ///
    /// The pipeline's error, stringified (the oracle reports pipeline
    /// failures, it never matches on them).
    pub fn oracle_case(
        &self,
        g: &Ddg,
        machine: &MachineSpec,
    ) -> Result<clasp_oracle::CompiledCase, String> {
        // Driver-side verification off: the oracle performs its own
        // functional verification differentially over both register
        // models.
        let req = CompileRequest {
            verify: false,
            ..CompileRequest::default()
        };
        match self
            .compile_artifact(g, machine, &req, &Obs::disabled())
            .as_ref()
        {
            Ok(artifact) => Ok(clasp_oracle::CompiledCase {
                assignment: artifact.assignment.clone(),
                schedule: artifact.schedule.clone(),
            }),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Handle one parsed wire request end-to-end: look its texts up as
    /// received, and only on a miss parse them and compile; return the
    /// canonical artifact payload (and the trace, when captured).
    pub fn handle(&self, sreq: &ServiceRequest) -> ServiceReply {
        let (outcome, trace) = self.serve(sreq);
        match outcome {
            Ok(payload) => ServiceReply {
                outcome: Ok(payload.to_string()),
                trace,
            },
            Err(message) => ServiceReply::bad_request(message),
        }
    }

    /// Handle one raw wire request: parse, dispatch, render. Any parse
    /// failure becomes a `bad-request` reply — the connection survives.
    /// A hit renders the stored payload bytes straight into the reply.
    pub fn respond(&self, wire: &str) -> String {
        let sreq = match ServiceRequest::parse(wire) {
            Ok(sreq) => sreq,
            Err(e) => return ServiceReply::bad_request(e.0).render(),
        };
        let (outcome, trace) = self.serve(&sreq);
        match outcome {
            Ok(payload) => render_reply(Ok(&payload), trace.as_deref()),
            Err(message) => ServiceReply::bad_request(message).render(),
        }
    }

    /// The wire path behind [`CompileService::handle`] and
    /// [`CompileService::respond`]: the reply's stored payload, or a
    /// bad-request message, plus the captured trace. A memory hit costs
    /// the wire key's hash and the lookup; only a miss parses the texts,
    /// and then promotes the payload from disk or compiles under
    /// admission.
    fn serve(&self, sreq: &ServiceRequest) -> (Result<Arc<Box<str>>, String>, Option<String>) {
        let obs = if sreq.capture_trace {
            Obs::enabled()
        } else {
            Obs::disabled()
        };
        let key = wire_key(&sreq.loop_text, &sreq.machine_text, &sreq.request);
        let span = obs.begin("cache.lookup");
        // A memory miss counts nothing until the lookup below.
        let payload = match self.full.get(key) {
            Some(payload) => {
                record(&obs, span, key, TierGrade::Memory, 0);
                payload
            }
            None => {
                let g = match clasp_text::parse_loop(&sreq.loop_text) {
                    Ok(g) => g,
                    Err(e) => return (Err(format!("loop: {e}")), None),
                };
                let machine = match clasp_text::parse_machine(&sreq.machine_text) {
                    Ok(m) => m,
                    Err(e) => return (Err(format!("machine: {e}")), None),
                };
                self.lookup(key, &g, &machine, &sreq.request, &obs).0
            }
        };
        (Ok(payload), sreq.capture_trace.then(|| obs.chrome_trace()))
    }

    /// In-memory artifact-tier counters.
    pub fn stats(&self) -> CacheStats {
        self.full.stats().memory
    }

    /// Counters for every artifact tier (memory, disk, promotions).
    pub fn tiered_stats(&self) -> TieredStats {
        self.full.stats()
    }

    /// One-line counter rendering for the daemon's `stats` verb.
    pub fn stats_line(&self) -> String {
        let t = self.tiered_stats();
        format!(
            "memory {} hits {} misses {} entries; disk {} hits {} misses {} errors; {} promotions",
            t.memory.hits,
            t.memory.misses,
            t.memory.entries,
            t.disk.hits,
            t.disk.misses,
            t.disk.errors,
            t.promotions
        )
    }
}

/// The wire key for one daemon request: a tag part, then the loop and
/// machine texts as received and the parsed request knobs.
fn wire_key(loop_text: &str, machine_text: &str, req: &CompileRequest) -> CacheKey {
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

/// The phase-2 memo key: kind discriminator, loop text, nameless
/// machine text, config rendering — all streamed.
fn phase2_key(kind: &str, g: &Ddg, machine: &MachineSpec, config_text: &str) -> CacheKey {
    let mut kb = KeyBuilder::new();
    kb.text(kind);
    kb.stream(|s| {
        let _ = clasp_text::write_loop_into(g, s);
    });
    kb.stream(|s| {
        let _ = clasp_text::write_machine_named_into(machine, "#", s);
    });
    kb.text(config_text);
    kb.finish()
}

/// One compile over the wire: the two canonical texts plus every
/// request knob. Renders to / parses from the plain-text frame body the
/// daemon speaks (see the module docs for the layout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceRequest {
    /// `.clasp` loop description.
    pub loop_text: String,
    /// `.machine` machine description.
    pub machine_text: String,
    /// Driver knobs.
    pub request: CompileRequest,
    /// Capture a Chrome trace of this compile into the reply.
    pub capture_trace: bool,
}

fn flag(b: bool) -> &'static str {
    if b {
        "1"
    } else {
        "0"
    }
}

fn parse_flag(tok: &str, what: &str) -> Result<bool, ServiceError> {
    match tok {
        "1" => Ok(true),
        "0" => Ok(false),
        other => Err(bad(format!("{what}: expected 0 or 1, got `{other}`"))),
    }
}

impl ServiceRequest {
    /// A request with default knobs and no trace capture.
    pub fn new(loop_text: impl Into<String>, machine_text: impl Into<String>) -> ServiceRequest {
        ServiceRequest {
            loop_text: loop_text.into(),
            machine_text: machine_text.into(),
            request: CompileRequest::default(),
            capture_trace: false,
        }
    }

    /// Render the wire text (one frame body).
    pub fn render(&self) -> String {
        let r = &self.request;
        let a = &r.pipeline.assign;
        let mut s = String::new();
        s.push_str(PROTOCOL);
        s.push_str(" compile\n");
        s.push_str(&format!(
            "assign {} {} {} {} {} {}\n",
            flag(a.iterative),
            flag(a.heuristic),
            flag(a.pcr_prediction),
            match a.ordering {
                Ordering::SccSwing => "scc-swing",
                Ordering::SwingOnly => "swing-only",
                Ordering::BottomUp => "bottom-up",
            },
            a.budget_factor,
            a.max_ii.map_or("-".to_string(), |v| v.to_string()),
        ));
        s.push_str(&format!("sched {}\n", r.pipeline.sched.budget_factor));
        s.push_str(&format!("backend {}\n", r.backend));
        s.push_str(&format!("scheduler {}\n", r.pipeline.scheduler));
        s.push_str(&format!("model {}\n", r.register_model.token()));
        s.push_str(&format!("restage {}\n", flag(r.restage)));
        s.push_str(&format!("iterations {}\n", r.iterations));
        s.push_str(&format!("verify {}\n", flag(r.verify)));
        s.push_str(&format!("trace {}\n", flag(self.capture_trace)));
        s.push_str("-- machine\n");
        s.push_str(&self.machine_text);
        if !self.machine_text.ends_with('\n') {
            s.push('\n');
        }
        s.push_str("-- loop\n");
        s.push_str(&self.loop_text);
        s
    }

    /// Parse a wire frame body.
    ///
    /// # Errors
    ///
    /// A [`ServiceError`] naming the malformed header or section.
    pub fn parse(text: &str) -> Result<ServiceRequest, ServiceError> {
        let mut lines = text.lines();
        let head = lines.next().ok_or_else(|| bad("empty request"))?;
        let mut head_toks = head.split_ascii_whitespace();
        if head_toks.next() != Some(PROTOCOL) {
            return Err(bad(format!("not a {PROTOCOL} request: `{head}`")));
        }
        match head_toks.next() {
            Some("compile") => {}
            Some(other) => return Err(bad(format!("unknown verb `{other}`"))),
            None => return Err(bad("missing verb")),
        }

        let mut request = CompileRequest::default();
        let mut capture_trace = false;
        loop {
            let line = lines
                .next()
                .ok_or_else(|| bad("missing `-- machine` section"))?;
            if line == "-- machine" {
                break;
            }
            let mut toks = line.split_ascii_whitespace();
            let header = toks.next();
            let mut next = |what: &str| {
                toks.next()
                    .ok_or_else(|| bad(format!("{what}: missing token in `{line}`")))
            };
            match header {
                Some("assign") => {
                    let a = &mut request.pipeline.assign;
                    a.iterative = parse_flag(next("assign")?, "assign iterative")?;
                    a.heuristic = parse_flag(next("assign")?, "assign heuristic")?;
                    a.pcr_prediction = parse_flag(next("assign")?, "assign pcr")?;
                    a.ordering = match next("assign")? {
                        "scc-swing" => Ordering::SccSwing,
                        "swing-only" => Ordering::SwingOnly,
                        "bottom-up" => Ordering::BottomUp,
                        other => return Err(bad(format!("unknown ordering `{other}`"))),
                    };
                    a.budget_factor = next("assign")?
                        .parse()
                        .map_err(|_| bad("assign: bad budget factor"))?;
                    a.max_ii = match next("assign")? {
                        "-" => None,
                        v => Some(v.parse().map_err(|_| bad("assign: bad max II"))?),
                    };
                }
                Some("sched") => {
                    request.pipeline.sched.budget_factor = next("sched")?
                        .parse()
                        .map_err(|_| bad("sched: bad budget factor"))?;
                }
                Some("backend") => {
                    let token = next("backend")?;
                    request.backend = BackendKind::parse(token)
                        .ok_or_else(|| bad(format!("unknown backend `{token}`")))?;
                }
                Some("scheduler") => {
                    let token = next("scheduler")?;
                    request.pipeline.scheduler = SchedulerKind::parse(token)
                        .ok_or_else(|| bad(format!("unknown scheduler `{token}`")))?;
                }
                Some("model") => {
                    let token = next("model")?;
                    request.register_model = RegisterModelKind::parse(token)
                        .ok_or_else(|| bad(format!("unknown register model `{token}`")))?;
                }
                Some("restage") => {
                    request.restage = parse_flag(next("restage")?, "restage")?;
                }
                Some("iterations") => {
                    request.iterations = next("iterations")?
                        .parse()
                        .ok()
                        .filter(|n: &i64| (0..=MAX_ITERATIONS).contains(n))
                        .ok_or_else(|| {
                            bad(format!(
                                "iterations: not a count from 0 to {MAX_ITERATIONS}"
                            ))
                        })?;
                }
                Some("verify") => {
                    request.verify = parse_flag(next("verify")?, "verify")?;
                }
                Some("trace") => {
                    capture_trace = parse_flag(next("trace")?, "trace")?;
                }
                Some(other) => return Err(bad(format!("unknown header `{other}`"))),
                None => {} // blank line between headers is fine
            }
        }

        // Both sections are sized up front: one allocation each.
        let line_bytes = |l: &str| l.len() + 1;
        let mut machine_text = String::with_capacity(
            lines
                .clone()
                .take_while(|&l| l != "-- loop")
                .map(line_bytes)
                .sum(),
        );
        let mut saw_loop = false;
        for line in lines.by_ref() {
            if line == "-- loop" {
                saw_loop = true;
                break;
            }
            machine_text.push_str(line);
            machine_text.push('\n');
        }
        if !saw_loop {
            return Err(bad("missing `-- loop` section"));
        }
        let mut loop_text = String::with_capacity(lines.clone().map(line_bytes).sum());
        for line in lines {
            loop_text.push_str(line);
            loop_text.push('\n');
        }
        Ok(ServiceRequest {
            loop_text,
            machine_text,
            request,
            capture_trace,
        })
    }
}

/// The daemon's answer to one [`ServiceRequest`]: the canonical
/// artifact payload (which itself encodes compile success *or* the
/// typed pipeline failure) or a request-level rejection, plus the
/// optional trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceReply {
    /// `Ok(payload)` — a [`crate::codec`] artifact payload;
    /// `Err(message)` — the request itself was malformed.
    pub outcome: Result<String, String>,
    /// Chrome trace JSON when the request asked for capture.
    pub trace: Option<String>,
}

impl ServiceReply {
    /// A request-level rejection (newlines flattened to keep the status
    /// line single-line).
    pub fn bad_request(message: impl Into<String>) -> ServiceReply {
        ServiceReply {
            outcome: Err(message.into().replace('\n', "; ")),
            trace: None,
        }
    }

    /// Decode the artifact payload back into the driver's typed result.
    ///
    /// # Errors
    ///
    /// The request-level rejection as a [`ServiceError`], or a
    /// [`codec::CodecError`] rendered into one.
    pub fn decode(
        &self,
    ) -> Result<Result<crate::CompiledArtifact, crate::PipelineError>, ServiceError> {
        match &self.outcome {
            Ok(payload) => codec::decode(payload).map_err(|e| bad(format!("reply payload: {e}"))),
            Err(message) => Err(bad(message.clone())),
        }
    }

    /// Render the wire text (one frame body).
    pub fn render(&self) -> String {
        render_reply(
            self.outcome.as_deref().map_err(String::as_str),
            self.trace.as_deref(),
        )
    }

    /// Parse a wire frame body.
    ///
    /// # Errors
    ///
    /// A [`ServiceError`] naming the malformed line.
    pub fn parse(text: &str) -> Result<ServiceReply, ServiceError> {
        let mut lines = text.lines();
        let head = lines.next().ok_or_else(|| bad("empty reply"))?;
        let mut toks = head.split_ascii_whitespace();
        if toks.next() != Some(PROTOCOL) || toks.next() != Some("reply") {
            return Err(bad(format!("not a {PROTOCOL} reply: `{head}`")));
        }
        let status = toks.next().ok_or_else(|| bad("reply missing status"))?;
        let mut body = String::new();
        let mut trace: Option<String> = None;
        let mut in_trace = false;
        let mut saw_artifact = false;
        for line in lines {
            match line {
                "-- artifact" if !in_trace => {
                    saw_artifact = true;
                    continue;
                }
                "-- trace" => {
                    in_trace = true;
                    trace = Some(String::new());
                    continue;
                }
                _ => {}
            }
            let sink = if in_trace {
                trace.as_mut().expect("set on `-- trace`")
            } else {
                &mut body
            };
            sink.push_str(line);
            sink.push('\n');
        }
        match status {
            "ok" => {
                if !saw_artifact {
                    return Err(bad("ok reply without an artifact section"));
                }
                Ok(ServiceReply {
                    outcome: Ok(body),
                    trace,
                })
            }
            "bad-request" => Ok(ServiceReply {
                outcome: Err(body.trim_end().to_string()),
                trace,
            }),
            other => Err(bad(format!("unknown reply status `{other}`"))),
        }
    }
}

/// The wire text of a reply, sized up front so rendering allocates once.
fn render_reply(outcome: Result<&str, &str>, trace: Option<&str>) -> String {
    const HEAD_BYTES: usize = " reply bad-request\n-- artifact\n-- trace\n".len();
    let body = outcome.unwrap_or_else(|message| message);
    let mut s = String::with_capacity(
        PROTOCOL.len() + HEAD_BYTES + body.len() + 2 + trace.map_or(0, str::len),
    );
    s.push_str(PROTOCOL);
    let push_line = |s: &mut String, text: &str| {
        s.push_str(text);
        if !text.ends_with('\n') {
            s.push('\n');
        }
    };
    match outcome {
        Ok(payload) => {
            s.push_str(" reply ok\n-- artifact\n");
            push_line(&mut s, payload);
        }
        Err(message) => {
            s.push_str(" reply bad-request\n");
            s.push_str(message);
            s.push('\n');
        }
    }
    if let Some(trace) = trace {
        s.push_str("-- trace\n");
        push_line(&mut s, trace);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use clasp_ddg::OpKind;
    use clasp_machine::presets;

    const LOOP: &str = "loop dot\n\nop n0 load\nop n1 load\nop n2 fmul\nop n3 fadd\n\ndep n0 -> n2\ndep n1 -> n2\ndep n2 -> n3\ndep n3 -> n3 @1\n";

    fn machine_text() -> String {
        clasp_text::write_machine(&presets::two_cluster_gp(2, 1))
    }

    #[test]
    fn request_round_trips_through_the_wire() {
        let mut sreq = ServiceRequest::new(LOOP, machine_text());
        sreq.request.restage = false;
        sreq.request.iterations = 7;
        sreq.request.register_model = RegisterModelKind::Rotating;
        sreq.request.pipeline.assign.max_ii = Some(40);
        sreq.capture_trace = true;
        let back = ServiceRequest::parse(&sreq.render()).unwrap();
        assert_eq!(back, sreq);
    }

    #[test]
    fn handle_compiles_and_reply_round_trips() {
        let service = CompileService::in_memory();
        let sreq = ServiceRequest::new(LOOP, machine_text());
        let reply = service.handle(&sreq);
        let back = ServiceReply::parse(&reply.render()).unwrap();
        assert_eq!(back, reply);
        let artifact = back.decode().unwrap().unwrap();
        let g = clasp_text::parse_loop(LOOP).unwrap();
        let m = presets::two_cluster_gp(2, 1);
        let local = crate::compile_full(&g, &m, &CompileRequest::default()).unwrap();
        assert_eq!(artifact.ii(), local.ii());
    }

    #[test]
    fn replies_are_bit_identical_across_cache_temperature() {
        let service = CompileService::in_memory();
        let sreq = ServiceRequest::new(LOOP, machine_text());
        let cold = service.handle(&sreq).render();
        let warm = service.handle(&sreq).render();
        assert_eq!(cold, warm, "hit and miss must render identically");
        let stats = service.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn malformed_inputs_become_bad_request_not_panic() {
        let service = CompileService::in_memory();
        let negative_iterations = ServiceRequest::new(LOOP, machine_text())
            .render()
            .replace("\niterations 16\n", "\niterations -1\n");
        assert!(negative_iterations.contains("\niterations -1\n"));
        // Past the cap, emission alone would ask for terabytes.
        let huge_iterations = ServiceRequest::new(LOOP, machine_text())
            .render()
            .replace("\niterations 16\n", "\niterations 100000000000\n");
        assert!(huge_iterations.contains("\niterations 100000000000\n"));
        // Texts over the description limits: accepted, each would size
        // the scheduler's table or the emitted program at gigabytes.
        let huge_bus = ServiceRequest::new(
            LOOP,
            "cluster 2gp\ncluster 2gp\nbus 4294967295 ports 4294967295 4294967295\n",
        )
        .render();
        let huge_latency =
            ServiceRequest::new("op a alu\ndep a -> a @1 !4000000000\n", machine_text()).render();
        let huge_distance = ServiceRequest::new(
            "op x load\nop y store\ndep x -> y @100000000\n",
            machine_text(),
        )
        .render();
        for wire in [
            "",
            "nonsense",
            "clasp-serve/1 explode\n",
            "clasp-serve/1 compile\nassign yes\n-- machine\n-- loop\n",
            "clasp-serve/1 compile\n-- machine\nbroken !!\n-- loop\nloop x\n",
            "clasp-serve/1 compile\n-- machine\ncluster 2gp\n-- loop\nnot a loop\n",
            &negative_iterations,
            &huge_iterations,
            &huge_bus,
            &huge_latency,
            &huge_distance,
        ] {
            let reply = ServiceReply::parse(&service.respond(wire)).unwrap();
            assert!(reply.outcome.is_err(), "{wire:?} must be rejected");
        }
    }

    #[test]
    fn trace_capture_rides_the_reply() {
        let service = CompileService::in_memory();
        let mut sreq = ServiceRequest::new(LOOP, machine_text());
        sreq.capture_trace = true;
        let reply = service.handle(&sreq);
        let trace = reply.trace.as_deref().expect("trace requested");
        assert!(trace.contains("traceEvents"), "chrome trace expected");
        let back = ServiceReply::parse(&reply.render()).unwrap();
        assert_eq!(
            back.trace.as_deref().map(str::trim_end),
            Some(trace.trim_end())
        );
    }

    #[test]
    fn exact_backend_rides_the_wire_and_compiles() {
        let mut sreq = ServiceRequest::new(LOOP, machine_text());
        sreq.request.backend = BackendKind::Exact;
        let back = ServiceRequest::parse(&sreq.render()).unwrap();
        assert_eq!(back, sreq);
        let service = CompileService::in_memory();
        let exact = service.handle(&sreq).decode().unwrap().unwrap();
        let heuristic = service
            .handle(&ServiceRequest::new(LOOP, machine_text()))
            .decode()
            .unwrap()
            .unwrap();
        assert!(exact.ii() <= heuristic.ii(), "exact II is a lower bound");
        // Distinct backends must occupy distinct cache entries.
        assert_eq!(service.stats().misses, 2);
    }

    #[test]
    fn warm_lookups_never_wait_for_an_admission_permit() {
        let service = CompileService::new(ServiceConfig {
            threads: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        let g = clasp_text::parse_loop(LOOP).unwrap();
        let m = presets::two_cluster_gp(2, 1);
        let req = CompileRequest::default();
        let wire = ServiceRequest::new(LOOP, machine_text()).render();
        let quiet = Obs::disabled();
        let artifact = codec::encode(
            &service.compile_artifact(&g, &m, &req, &quiet),
            req.iterations,
        );
        let ii = service.ii_of(&g, &m, PipelineConfig::default());
        let unified = service.unified_ii_of(&g, &m, SchedulerConfig::default());
        let reply = service.respond(&wire);

        // The test holds the only permit: a lookup that still queued
        // for one would never return.
        let permit = service.gate.acquire();
        let service = &service;
        let results = std::thread::scope(|s| {
            let (tx, rx) = std::sync::mpsc::channel();
            s.spawn(move || {
                let warm = service.compile_artifact(&g, &m, &req, &quiet);
                let same = codec::encode(&warm, req.iterations) == artifact;
                let _ = tx.send(("compile_artifact", same));
                let warm = service.ii_of(&g, &m, PipelineConfig::default());
                let _ = tx.send(("ii_of", warm == ii));
                let warm = service.unified_ii_of(&g, &m, SchedulerConfig::default());
                let _ = tx.send(("unified_ii_of", warm == unified));
                let _ = tx.send(("respond", service.respond(&wire) == reply));
            });
            let results: Vec<_> = (0..4)
                .map(|_| rx.recv_timeout(std::time::Duration::from_secs(10)))
                .collect();
            drop(permit);
            results
        });
        for (i, want) in ["compile_artifact", "ii_of", "unified_ii_of", "respond"]
            .into_iter()
            .enumerate()
        {
            assert_eq!(
                results[i],
                Ok((want, true)),
                "a warm `{want}` must return the cached value without a permit"
            );
        }
    }

    #[test]
    fn phase2_caches_memoize_iis() {
        let service = CompileService::in_memory();
        let g = clasp_text::parse_loop(LOOP).unwrap();
        let m = presets::two_cluster_gp(2, 1);
        let a = service.ii_of(&g, &m, PipelineConfig::default());
        let b = service.ii_of(&g, &m, PipelineConfig::default());
        assert_eq!(a, b);
        assert!(a.is_some());
        let u1 = service.unified_ii_of(&g, &m, SchedulerConfig::default());
        let u2 = service.unified_ii_of(&g, &m, SchedulerConfig::default());
        assert_eq!(u1, u2);
        assert!(u1.is_some());
        // Full-artifact tier untouched by phase-2 queries.
        assert_eq!(service.stats().misses, 0);
    }

    fn small_loop(name: &str) -> Ddg {
        let mut g = Ddg::new(name);
        let a = g.add(OpKind::Load);
        let b = g.add(OpKind::IntAlu);
        g.add_dep(a, b);
        g
    }

    fn compile(service: &CompileService, g: &Ddg, m: &MachineSpec) -> CachedCompile {
        service.compile_artifact(g, m, &CompileRequest::default(), &Obs::disabled())
    }

    #[test]
    fn second_compile_is_a_hit_and_decodes_the_same_artifact() {
        let service = CompileService::in_memory();
        let g = small_loop("memo");
        let m = presets::two_cluster_gp(2, 1);
        let first = compile(&service, &g, &m);
        let second = compile(&service, &g, &m);
        let iterations = CompileRequest::default().iterations;
        assert_eq!(
            codec::encode(&first, iterations),
            codec::encode(&second, iterations),
            "a hit must decode to the payload the miss stored"
        );
        let stats = service.stats();
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
            CompileService::key(&g, &m, &req),
            CompileService::key(&g, &renamed, &req)
        );
        let wider = presets::four_cluster_gp(4, 2);
        assert_ne!(
            CompileService::key(&g, &m, &req),
            CompileService::key(&g, &wider, &req)
        );
    }

    #[test]
    fn key_separates_loops_and_requests() {
        let m = presets::two_cluster_gp(2, 1);
        let req = CompileRequest::default();
        let a = small_loop("a");
        let b = small_loop("b");
        assert_ne!(
            CompileService::key(&a, &m, &req),
            CompileService::key(&b, &m, &req)
        );
        let other_req = CompileRequest {
            restage: false,
            ..CompileRequest::default()
        };
        assert_ne!(
            CompileService::key(&a, &m, &req),
            CompileService::key(&a, &m, &other_req)
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
            CompileService::key(&g, &equiv, &req),
            CompileService::key(&g, &preset, &req)
        );
        let service = CompileService::in_memory();
        compile(&service, &g, &preset);
        compile(&service, &g, &equiv);
        let stats = service.stats();
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
        let service = CompileService::in_memory();
        assert!(compile(&service, &g, &m).is_err());
        assert!(compile(&service, &g, &m).is_err());
        let stats = service.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn disk_tier_serves_a_second_cache_instance() {
        // Two services sharing one directory model a process restart:
        // the second is served by promotion, not recompute, and the
        // served artifact is bit-identical to the computed one.
        let dir =
            std::env::temp_dir().join(format!("clasp-service-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || {
            CompileService::new(ServiceConfig {
                cache_dir: Some(dir.clone()),
                ..ServiceConfig::default()
            })
            .unwrap()
        };
        let g = small_loop("persist");
        let m = presets::two_cluster_gp(2, 1);
        let req = CompileRequest::default();

        let cold = open();
        let first = compile(&cold, &g, &m);
        assert_eq!(cold.tiered_stats().disk.misses, 1);

        let warm = open();
        let second = compile(&warm, &g, &m);
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
        assert_eq!(CompileService::key(&g, &m, &req), kb.finish());
    }
}
