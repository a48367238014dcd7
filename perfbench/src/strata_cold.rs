//! `strata-cold`: full-driver compiles through a fresh in-memory
//! `CompileService`, so every item is a miss that runs restage, MVE,
//! emit and verify. The loops are all five strata of the stratified
//! corpus, compiled on a bused, a multi-hop mesh and a copy-bound PE
//! grid machine.

use crate::common::{
    chunk_seed, fnv64, ratio, repeated_setup, run_passes, timed_ms, Layers, Measured, RunOptions,
    Verdicts, DEFAULT_SEED,
};
use crate::rebuild::{self, escalate, Counts, Escalated};
use crate::sampling::Quotas;
use crate::trace::{SelfTimes, Tracer, ITEM};
use clasp::codec;
use clasp::ddg::Ddg;
use clasp::kernel::{
    emit_program_with, lifetimes, max_live, register_requirement, stage_schedule,
    verify_pipelined_with, MveInfo, RegisterModel, RrfInfo,
};
use clasp::loopgen::{generate_stratum, LoopStream, Stratum};
use clasp::machine::MachineSpec;
use clasp::obs::Obs;
use clasp::oracle::{check_case, CompiledCase, Fault, OracleOptions, OracleViolation};
use clasp::sched::Schedule;
use clasp::{
    CachedCompile, CompileCache, CompileReport, CompileRequest, CompileService, CompiledArtifact,
    PipelineError, RegisterModelKind, RegisterStats, ServiceConfig, StageTimings,
};
use clasp_exec::{ContentCache, TieredCache};
use std::time::{Duration, Instant};

/// Loops drawn per synthetic stratum; the Livermore/classic anchors
/// are added whole.
pub const LOOPS_PER_STRATUM: usize = 300;

/// Bused transport, multi-hop point-to-point routing, and the worst
/// copy-bound escalation of `results/strata.csv`.
pub const PRESETS: [&str; 3] = ["4c-gp", "mesh3x3", "pe-grid2x3"];

/// Chunks of distinct loops in one run's inputs. Each chunk is compiled
/// on a fresh service; a run cycles through the chunks until its time is
/// up, so more distinct loops are timed than one chunk holds.
pub const CHUNKS: usize = 5;

/// The size profile of each synthetic stratum's first
/// [`LOOPS_PER_STRATUM`] loops at the default seed.
pub fn profiles() -> Vec<Quotas> {
    Stratum::SYNTHETIC
        .iter()
        .map(|&s| {
            let loops = generate_stratum(s, LOOPS_PER_STRATUM, DEFAULT_SEED);
            Quotas::of(loops.iter().map(|g| (0, g.node_count())))
        })
        .collect()
}

/// One chunk of the generated inputs: every loop on every preset,
/// preset-major.
pub struct Corpus {
    pub loops: Vec<Ddg>,
    pub machines: Vec<MachineSpec>,
}

impl Corpus {
    /// [`LOOPS_PER_STRATUM`] loops of each synthetic stratum drawn from
    /// `seed` to the default seed's size profile, plus the anchors. At
    /// the default seed this is exactly `generate_stratum`'s corpus.
    pub fn generate(seed: u64, profiles: &[Quotas]) -> Corpus {
        let mut loops = Vec::new();
        for (&stratum, quotas) in Stratum::SYNTHETIC.iter().zip(profiles) {
            let mut stream = LoopStream::new(stratum, seed, "corpus");
            loops.extend(quotas.fill(|| (0, stream.next_loop())));
        }
        loops.extend(generate_stratum(Stratum::Livermore, usize::MAX, seed));
        let machines = PRESETS
            .iter()
            .map(|name| clasp::strata::machine_by_name(name).expect("known preset"))
            .collect();
        Corpus { loops, machines }
    }

    /// All [`CHUNKS`] chunks of a run's inputs.
    pub fn chunks(seed: u64) -> Vec<Corpus> {
        let profiles = profiles();
        (0..CHUNKS)
            .map(|k| Corpus::generate(chunk_seed(seed, k), &profiles))
            .collect()
    }

    pub fn items(&self) -> usize {
        self.loops.len() * self.machines.len()
    }

    pub fn item(&self, i: usize) -> (&Ddg, &MachineSpec) {
        let n = self.loops.len();
        (&self.loops[i % n], &self.machines[i / n])
    }

    pub fn label(&self, i: usize) -> String {
        let (g, m) = self.item(i);
        format!("{} on {}", g.name(), m.name())
    }
}

/// What one compile produced, compared across passes and against the
/// traced rebuild.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub ii: u32,
    pub copies: usize,
    /// FNV-1a of the codec payload, which carries the graph, cluster
    /// map, schedule, II trajectory and register statistics.
    pub payload: u64,
    pub payload_len: usize,
}

impl Digest {
    pub fn of(result: &Result<CompiledArtifact, PipelineError>, iterations: i64) -> Digest {
        Digest::with_payload(result, &codec::encode(result, iterations))
    }

    fn with_payload(result: &Result<CompiledArtifact, PipelineError>, payload: &str) -> Digest {
        let (ii, copies) = match result {
            Ok(a) => (a.ii(), a.report.copies),
            Err(_) => (0, 0),
        };
        Digest {
            ii,
            copies,
            payload: fnv64(payload.as_bytes()),
            payload_len: payload.len(),
        }
    }
}

/// Independent check of one compiled artifact: every invariant of the
/// differential oracle (assignment and schedule validity, II >= MII,
/// copies off critical recurrences, link capacity, the unified-baseline
/// certificate, functional equivalence under both register models),
/// after applying `fault` to a copy of the artifact.
pub fn oracle_violations(
    g: &Ddg,
    machine: &MachineSpec,
    artifact: &CompiledArtifact,
    fault: Fault,
) -> Vec<OracleViolation> {
    let case = CompiledCase {
        assignment: artifact.assignment.clone(),
        schedule: artifact.schedule.clone(),
    };
    let pipeline = move |_: &Ddg, _: &MachineSpec| Ok(case.clone());
    let opts = OracleOptions {
        fault,
        ..OracleOptions::default()
    };
    check_case(g, machine, &pipeline, &opts)
}

/// The untraced run: time full-driver compiles until `opts.seconds`
/// have passed, then check every output. Returns the last pass's chunk
/// and its digests for the traced run.
pub fn measure(opts: &RunOptions) -> (Measured, Corpus, Vec<Digest>) {
    let mut generate_ms = 0.0;
    let (mut chunks, setup_s) = repeated_setup(
        || {
            let (c, ms) = timed_ms(|| Corpus::chunks(opts.seed));
            generate_ms = ms;
            c
        },
        drop,
    );
    let per = chunks[0].items();
    let req = CompileRequest::default();
    let quiet = Obs::disabled();
    let mut m = Measured {
        setup_s,
        corpus: format!(
            "{CHUNKS} chunks of {} loops x {} presets = {per} items (seed {:#x})",
            chunks[0].loops.len(),
            chunks[0].machines.len(),
            opts.seed
        ),
        ..Measured::default()
    };
    let mut verdicts = Verdicts::new(CHUNKS * per);
    let mut visits = [0u64; CHUNKS];
    let mut reference: Vec<Vec<Digest>> = vec![Vec::new(); CHUNKS];
    let mut oracle_runs = 0usize;
    let mut last = 0;
    let (passes, timed_s) = run_passes(opts.seconds, |pass| {
        let k = pass % CHUNKS;
        let corpus = &chunks[k];
        let service = CompileService::new(ServiceConfig {
            threads: 1,
            ..ServiceConfig::default()
        })
        .expect("a memory-only service opens no files");
        let mut results: Vec<CachedCompile> = Vec::with_capacity(per);
        let t0 = Instant::now();
        for i in 0..per {
            let (g, machine) = corpus.item(i);
            let s = Instant::now();
            let r = service.compile_artifact(g, machine, &req, &quiet);
            m.latencies_ms.push(s.elapsed().as_secs_f64() * 1e3);
            results.push(r);
        }
        let took = t0.elapsed();
        m.last_pass = Some((took.as_secs_f64(), per));
        last = k;
        visits[k] += 1;
        // Outside the timed window: digest every output. A chunk's first
        // visit is checked by the oracle; a repeat must equal it.
        let first = reference[k].is_empty();
        for (i, r) in results.iter().enumerate() {
            let digest = Digest::of(r, req.iterations);
            let id = k * per + i;
            if first {
                reference[k].push(digest);
                let (g, machine) = corpus.item(i);
                match r.as_ref() {
                    Ok(a) => {
                        oracle_runs += 1;
                        let v = oracle_violations(g, machine, a, Fault::None);
                        if !v.is_empty() {
                            let list: Vec<String> = v.iter().map(|x| x.to_string()).collect();
                            verdicts.fail(id, || format!("oracle: {}", list.join("; ")));
                        }
                    }
                    Err(e) => verdicts.fail(id, || format!("pipeline error: {e}")),
                }
            } else if digest != reference[k][i] {
                verdicts.fail(id, || format!("pass {pass} output differs from the first"));
            }
        }
        took
    });
    m.timed_s = timed_s;
    m.loopgen_ms = generate_ms;
    for (k, corpus) in chunks.iter().enumerate() {
        for (i, d) in reference[k].iter().enumerate() {
            if d.ii > 0 {
                let (g, machine) = corpus.item(i);
                let mii = machine.mii(g);
                for _ in 0..visits[k] {
                    m.ii_over_mii.add_ratio(d.ii, mii);
                }
            }
        }
    }
    m.checks.push(format!(
        "driver verify over {} iterations + oracle on {oracle_runs} artifacts; {passes} pass(es), repeats compared with the first",
        req.iterations
    ));
    let times: Vec<u64> = (0..CHUNKS * per).map(|id| visits[id / per]).collect();
    let bad = verdicts.bad_count();
    verdicts.fold_into(&mut m, &times, |id| {
        format!("chunk {}: {}", id / per, chunks[id / per].label(id % per))
    });
    m.checks.push(format!("{bad} distinct item(s) failed"));
    let reference = reference.swap_remove(last);
    (m, chunks.swap_remove(last), reference)
}

fn register_stats(g: &Ddg, sched: &Schedule) -> RegisterStats {
    RegisterStats {
        max_live: max_live(g, sched),
        requirement: register_requirement(g, sched),
        unroll: MveInfo::compute(g, sched).unroll(),
        rrf_size: RrfInfo::compute(g, sched).size(),
    }
}

/// The driver's composition rebuilt from public layer calls, each in
/// its own span: the escalation of [`escalate`], then register
/// statistics, restaging, the register model, emission and verification.
/// Adds each artifact's kernel unroll to `unroll`.
fn rebuild_full(
    g: &Ddg,
    machine: &MachineSpec,
    req: &CompileRequest,
    tracer: &Tracer,
    i: usize,
    counts: &mut Counts,
    unroll: &mut u64,
) -> Result<CompiledArtifact, PipelineError> {
    let Escalated {
        assignment,
        schedule: raw,
        trajectory,
    } = escalate(g, machine, req.pipeline, tracer, i, counts)?;
    let wg = &assignment.graph;
    let registers_raw = tracer.span("kernel.registers", i, || register_stats(wg, &raw));
    let (schedule, stage_moves, lifetime_before, lifetime_after) =
        tracer.span("kernel.restage", i, || {
            if req.restage {
                let staged = stage_schedule(wg, &raw);
                (
                    staged.schedule,
                    staged.moves,
                    staged.lifetime_before,
                    staged.lifetime_after,
                )
            } else {
                let total: i64 = lifetimes(wg, &raw).iter().map(|lt| lt.len()).sum();
                (raw, 0, total, total)
            }
        });
    let (registers_final, model) = tracer.span("kernel.registers", i, || {
        let fin = if req.restage {
            register_stats(wg, &schedule)
        } else {
            registers_raw
        };
        let model = match req.register_model {
            RegisterModelKind::Mve => RegisterModel::mve(wg, &schedule),
            RegisterModelKind::Rotating => RegisterModel::rotating(wg, &schedule),
        };
        (fin, model)
    });
    *unroll += u64::from(model.unroll());
    let program = tracer.span("kernel.emit", i, || {
        emit_program_with(wg, &assignment.map, &schedule, req.iterations, &model)
    });
    let verified_iterations = if req.verify {
        tracer
            .span("kernel.verify", i, || {
                verify_pipelined_with(wg, &assignment.map, &schedule, req.iterations, &model)
            })
            .map_err(PipelineError::Verify)?;
        Some(req.iterations)
    } else {
        None
    };
    let report = CompileReport {
        loop_name: g.name().to_string(),
        machine_name: machine.name().to_string(),
        scheduler: req.pipeline.scheduler,
        register_model: req.register_model,
        trajectory,
        ii: schedule.ii(),
        copies: assignment.copy_count(),
        registers_raw,
        registers_final,
        stage_moves,
        lifetime_before,
        lifetime_after,
        unroll: model.unroll(),
        verified_iterations,
        timings: StageTimings::default(),
    };
    Ok(CompiledArtifact {
        assignment,
        schedule,
        register_model: model,
        program,
        report,
    })
}

/// Span names of this workload beyond the escalation's, each reported
/// by some layer metric.
const SPANS: [&str; 8] = [
    "cache.key",
    "cache.lookup",
    "codec.encode",
    "driver.compile",
    "kernel.registers",
    "kernel.restage",
    "kernel.emit",
    "kernel.verify",
];

/// The traced run: rebuild every item from layer calls against a fresh
/// memory tier, check each against the untraced digest, and fold the
/// spans into the per-layer metrics. Returns the layers and the traced
/// items' wall time.
pub fn traced(
    corpus: &Corpus,
    reference: &[Digest],
    tracer: &Tracer,
) -> Result<(Layers, Duration, usize), String> {
    let req = CompileRequest::default();
    let tiered: TieredCache<Result<CompiledArtifact, PipelineError>> =
        TieredCache::memory_only(ContentCache::new());
    let mut counts = Counts::default();
    let (mut unroll, mut payload_bytes) = (0u64, 0u64);
    let n = corpus.items();
    let t0 = Instant::now();
    for (i, expected) in reference.iter().enumerate() {
        let (g, machine) = corpus.item(i);
        let mut payload = None;
        let value = tracer.span(ITEM, i, || {
            let key = tracer.span("cache.key", i, || CompileCache::key(g, machine, &req));
            tracer.span("cache.lookup", i, || {
                tiered
                    .get_or_compute(
                        key,
                        |_| None,
                        |r| {
                            tracer.span("codec.encode", i, || {
                                let p = codec::encode(r, req.iterations);
                                payload = Some(Digest::with_payload(r, &p));
                                p
                            })
                        },
                        || {
                            tracer.span("driver.compile", i, || {
                                rebuild_full(g, machine, &req, tracer, i, &mut counts, &mut unroll)
                            })
                        },
                    )
                    .0
            })
        });
        let digest = payload.unwrap_or_else(|| Digest::of(&value, req.iterations));
        payload_bytes += digest.payload_len as u64;
        if digest != *expected {
            return Err(format!(
                "traced rebuild of {} differs from the untraced compile: {digest:?} vs {expected:?}",
                corpus.label(i)
            ));
        }
    }
    let wall = t0.elapsed();
    let t = SelfTimes::fold(&tracer.spans())?;
    let known = [&SPANS[..], &rebuild::SPANS[..]].concat();
    if let Some(name) = t.unreported(&known).next() {
        return Err(format!("span `{name}` has no layer metric"));
    }
    let per = |v: u64| v as f64 / n as f64;
    let stats = tiered.stats().memory;
    let mut l = Layers::new();
    counts.insert_layers(&mut l, &t, n, &["driver.compile"]);
    l.insert("kernel.restage_ms", t.per_item_ms(&["kernel.restage"]));
    l.insert("kernel.registers_ms", t.per_item_ms(&["kernel.registers"]));
    l.insert("kernel.emit_ms", t.per_item_ms(&["kernel.emit"]));
    l.insert("kernel.verify_ms", t.per_item_ms(&["kernel.verify"]));
    l.insert("kernel.unroll_mean", per(unroll));
    l.insert("cache.key_us", t.per_item_us(&["cache.key"]));
    l.insert("cache.lookup_us", t.per_item_us(&["cache.lookup"]));
    l.insert(
        "cache.hit_frac",
        ratio(stats.hits, stats.hits + stats.misses),
    );
    l.insert("cache.payload_kb", per(payload_bytes) / 1024.0);
    l.insert("codec.encode_us", t.per_item_us(&["codec.encode"]));
    Ok((l, wall, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_per_seed_and_distinct_across_seeds() {
        let fp =
            |c: &Corpus| -> Vec<u64> { c.loops.iter().map(clasp::loopgen::fingerprint).collect() };
        let p = profiles();
        let a = Corpus::generate(1, &p);
        let b = Corpus::generate(1, &p);
        let c = Corpus::generate(2, &p);
        assert_eq!(fp(&a), fp(&b));
        assert_ne!(fp(&a), fp(&c));
        assert_eq!(a.loops.len(), 4 * LOOPS_PER_STRATUM + 34);
        assert_eq!(a.items(), a.loops.len() * PRESETS.len());
        // The default seed's first chunk is the stratified corpus itself.
        let d = Corpus::generate(DEFAULT_SEED, &p);
        let natural: Vec<Ddg> = Stratum::ALL
            .iter()
            .flat_map(|&s| generate_stratum(s, LOOPS_PER_STRATUM, DEFAULT_SEED))
            .collect();
        assert_eq!(
            fp(&d),
            natural
                .iter()
                .map(clasp::loopgen::fingerprint)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn the_oracle_check_fires_on_a_corrupted_schedule() {
        let corpus = Corpus::generate(3, &profiles());
        let (g, machine) = corpus.item(0);
        let service = CompileService::in_memory();
        let r = service.compile_artifact(g, machine, &CompileRequest::default(), &Obs::disabled());
        let artifact = r.as_ref().as_ref().expect("compiles");
        assert!(oracle_violations(g, machine, artifact, Fault::None).is_empty());
        assert!(!oracle_violations(g, machine, artifact, Fault::SkewSchedule).is_empty());
    }

    #[test]
    fn traced_rebuild_reproduces_the_driver() {
        let mut corpus = Corpus::generate(5, &profiles());
        corpus.loops.truncate(6);
        let req = CompileRequest::default();
        let reference: Vec<Digest> = (0..corpus.items())
            .map(|i| {
                let (g, m) = corpus.item(i);
                Digest::of(&clasp::compile_full(g, m, &req), req.iterations)
            })
            .collect();
        let tracer = Tracer::new();
        let (layers, _, items) = traced(&corpus, &reference, &tracer).unwrap();
        assert_eq!(items, corpus.items());
        assert!(layers["core.calls"] >= 1.0);
        assert_eq!(layers["cache.hit_frac"], 0.0);
        // A wrong reference is refused rather than reported.
        let mut wrong = reference.clone();
        wrong[2].ii += 1;
        assert!(traced(&corpus, &wrong, &Tracer::new()).is_err());
    }
}
