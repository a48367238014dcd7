//! `figures-sweep`: the paper's Figs. 12-19 as the experiments harness
//! runs them — for each of the 26 series, `CompileService::ii_of` on
//! every loop of the 1,327-loop paper corpus, plus `unified_ii_of` for
//! each figure's baseline, on a fresh service per pass.

use crate::common::{
    chunk_seed, committed_rows, histogram_mismatch, histogram_rows, ratio, repeated_setup,
    run_passes, timed_ms, Layers, Measured, RunOptions, Verdicts, DEFAULT_SEED,
};
use crate::rebuild::{self, escalate, Counts};
use crate::sampling::Quotas;
use crate::trace::{SelfTimes, Tracer, ITEM};
use clasp::core::Variant;
use clasp::ddg::Ddg;
use clasp::loopgen::rng::Rng;
use clasp::loopgen::{generate_loop, CorpusConfig};
use clasp::machine::{presets, MachineSpec};
use clasp::sched::{max_ii_bound, unified_map, SchedContext, SchedulerConfig};
use clasp::{CompileService, PipelineConfig, ServiceConfig};
use clasp_exec::{CacheKey, ContentCache, KeyBuilder};
use std::time::{Duration, Instant};

/// One series: a label, a target machine, a pipeline configuration.
pub struct Series {
    pub label: String,
    pub machine: MachineSpec,
    pub config: PipelineConfig,
}

/// One figure: its committed reference file and its series, which
/// share one unified baseline.
pub struct Figure {
    pub id: &'static str,
    pub committed: &'static str,
    pub series: Vec<Series>,
    pub unified: MachineSpec,
    pub sched: SchedulerConfig,
}

fn full() -> PipelineConfig {
    PipelineConfig::from(Variant::HeuristicIterative)
}

fn variants(machine: MachineSpec) -> Vec<Series> {
    Variant::ALL
        .iter()
        .map(|&v| Series {
            label: v.label().to_string(),
            machine: machine.clone(),
            config: PipelineConfig::from(v),
        })
        .collect()
}

fn sweep(
    values: [u32; 3],
    label: impl Fn(u32) -> String,
    machine: impl Fn(u32) -> MachineSpec,
) -> Vec<Series> {
    values
        .iter()
        .map(|&v| Series {
            label: label(v),
            machine: machine(v),
            config: full(),
        })
        .collect()
}

/// The 26 series of Figs. 12-19, as `clasp-experiments` defines them.
pub fn figures() -> Vec<Figure> {
    let figs: [(&'static str, &'static str, Vec<Series>); 8] = [
        (
            "fig12",
            include_str!("../../results/fig12.csv"),
            variants(presets::two_cluster_gp(2, 1)),
        ),
        (
            "fig13",
            include_str!("../../results/fig13.csv"),
            variants(presets::four_cluster_gp(4, 2)),
        ),
        (
            "fig14",
            include_str!("../../results/fig14.csv"),
            sweep(
                [1, 2, 4],
                |b| format!("{b} bus(es)"),
                |b| presets::two_cluster_gp(b, 1),
            ),
        ),
        (
            "fig15",
            include_str!("../../results/fig15.csv"),
            sweep(
                [1, 2, 4],
                |p| format!("{p} port(s)"),
                |p| presets::two_cluster_gp(2, p),
            ),
        ),
        (
            "fig16",
            include_str!("../../results/fig16.csv"),
            sweep(
                [2, 4, 8],
                |b| format!("{b} buses"),
                |b| presets::four_cluster_gp(b, 2),
            ),
        ),
        (
            "fig17",
            include_str!("../../results/fig17.csv"),
            sweep(
                [1, 2, 4],
                |p| format!("{p} port(s)"),
                |p| presets::four_cluster_gp(4, p),
            ),
        ),
        (
            "fig18",
            include_str!("../../results/fig18.csv"),
            sweep(
                [1, 2, 4],
                |b| format!("{b} bus(es)"),
                |b| presets::two_cluster_fs(b, 1),
            ),
        ),
        (
            "fig19",
            include_str!("../../results/fig19.csv"),
            sweep(
                [2, 4, 8],
                |b| format!("{b} buses"),
                |b| presets::four_cluster_fs(b, 2),
            ),
        ),
    ];
    figs.into_iter()
        .map(|(id, committed, series)| Figure {
            id,
            committed,
            unified: series[0].machine.unified_equivalent(),
            sched: series[0].config.sched,
            series,
        })
        .collect()
}

/// One service call: a figure's unified baseline or one series' II.
#[derive(Debug, Clone, Copy)]
pub enum Call {
    Unified { fig: usize },
    Series { fig: usize, series: usize },
}

/// Corpora in one run's inputs; a run cycles through them, one pass
/// per corpus on a fresh service, until its time is up.
pub const CHUNKS: usize = 8;

/// The paper corpus generator as a stream: the loop and recurrence
/// pattern of `generate_corpus`, continued past its last loop. Each
/// loop is tagged 1 when it carries recurrences.
fn paper_stream(seed: u64) -> impl FnMut() -> (u8, Ddg) {
    let config = CorpusConfig::default();
    let mut rng = Rng::seed_from_u64(seed);
    let mut i = 0usize;
    move || {
        let with_scc =
            (i * config.scc_loops) / config.loops != ((i + 1) * config.scc_loops) / config.loops;
        let g = generate_loop(&mut rng, i, with_scc);
        i += 1;
        (u8::from(with_scc), g)
    }
}

/// The size profile of the paper corpus at the default seed.
pub fn profile() -> Quotas {
    let mut next = paper_stream(DEFAULT_SEED);
    Quotas::of((0..CorpusConfig::default().loops).map(|_| {
        let (class, g) = next();
        (class, g.node_count())
    }))
}

/// One corpus of the inputs and the fixed call order of one pass.
pub struct Corpus {
    pub loops: Vec<Ddg>,
    pub figures: Vec<Figure>,
    /// Per figure: the unified baseline, then each series, loop-major
    /// within each.
    pub calls: Vec<Call>,
}

impl Corpus {
    /// A 1,327-loop corpus drawn from `seed` to the default seed's size
    /// profile. At the default seed this is exactly the paper corpus the
    /// committed figures were made from.
    pub fn generate(seed: u64, profile: &Quotas) -> Corpus {
        let loops = profile.fill(paper_stream(seed));
        let figures = figures();
        let mut calls = Vec::new();
        for (f, fig) in figures.iter().enumerate() {
            calls.push(Call::Unified { fig: f });
            for s in 0..fig.series.len() {
                calls.push(Call::Series { fig: f, series: s });
            }
        }
        Corpus {
            loops,
            figures,
            calls,
        }
    }

    /// All [`CHUNKS`] corpora of a run's inputs.
    pub fn chunks(seed: u64) -> Vec<Corpus> {
        let profile = profile();
        (0..CHUNKS)
            .map(|k| Corpus::generate(chunk_seed(seed, k), &profile))
            .collect()
    }

    pub fn items(&self) -> usize {
        self.calls.len() * self.loops.len()
    }

    /// Item `i`: call `i / loops`, loop `i % loops`.
    pub fn item(&self, i: usize) -> (Call, &Ddg) {
        let n = self.loops.len();
        (self.calls[i / n], &self.loops[i % n])
    }

    pub fn label(&self, i: usize) -> String {
        let (call, g) = self.item(i);
        match call {
            Call::Unified { fig } => format!(
                "{} unified baseline, loop {}",
                self.figures[fig].id,
                g.name()
            ),
            Call::Series { fig, series } => format!(
                "{} `{}`, loop {}",
                self.figures[fig].id,
                self.figures[fig].series[series].label,
                g.name()
            ),
        }
    }

    /// The untraced entry point for item `i`.
    fn run(&self, service: &CompileService, i: usize) -> Option<u32> {
        let (call, g) = self.item(i);
        match call {
            Call::Unified { fig } => {
                let f = &self.figures[fig];
                service.unified_ii_of(g, &f.unified, f.sched)
            }
            Call::Series { fig, series } => {
                let s = &self.figures[fig].series[series];
                service.ii_of(g, &s.machine, s.config)
            }
        }
    }
}

/// Output check of one pass's results: each II against its machine's
/// lower bound and, when `committed` (the default seed's first corpus),
/// every series' deviation histogram against the committed CSV. Returns
/// the verdicts and the number of series compared with a committed
/// file.
pub fn check(corpus: &Corpus, results: &[Option<u32>], committed: bool) -> (Verdicts, usize) {
    let n = corpus.loops.len();
    let mut verdicts = Verdicts::new(results.len());
    let mut compared = 0;
    let mut base = 0;
    for (f, fig) in corpus.figures.iter().enumerate() {
        debug_assert!(matches!(corpus.calls[base / n], Call::Unified { fig } if fig == f));
        let unified = &results[base..base + n];
        for (l, u) in unified.iter().enumerate() {
            let mii = fig.unified.mii(&corpus.loops[l]);
            match u {
                None => verdicts.fail(base + l, || "unified baseline failed".to_string()),
                Some(u) if *u < mii => {
                    verdicts.fail(base + l, || format!("unified II {u} below MII {mii}"))
                }
                Some(_) => {}
            }
        }
        for (s, series) in fig.series.iter().enumerate() {
            let start = base + (1 + s) * n;
            let iis = &results[start..start + n];
            for (l, ii) in iis.iter().enumerate() {
                let mii = series.machine.mii(&corpus.loops[l]);
                match ii {
                    None => verdicts.fail(start + l, || "compile failed".to_string()),
                    Some(ii) if *ii < mii => {
                        verdicts.fail(start + l, || format!("II {ii} below MII {mii}"))
                    }
                    Some(_) => {}
                }
            }
            if committed {
                compared += 1;
                let deviations = iis.iter().zip(unified).map(|(c, u)| match (c, u) {
                    (Some(c), Some(u)) => Some(i64::from(*c) - i64::from(*u)),
                    _ => None,
                });
                let rows = histogram_rows(&series.label, deviations, n);
                let committed = committed_rows(fig.committed, &series.label);
                if let Some(why) = histogram_mismatch(&rows, &committed) {
                    for l in 0..n {
                        verdicts.fail(start + l, || {
                            format!("{} series `{}`: {why}", fig.id, series.label)
                        });
                    }
                }
            }
        }
        base += (1 + fig.series.len()) * n;
    }
    (verdicts, compared)
}

/// The untraced run: time every service call of Figs. 12-19 on a fresh
/// service per pass, then check the outputs. Returns the last pass's
/// corpus and its results for the traced run.
pub fn measure(opts: &RunOptions) -> (Measured, Corpus, Vec<Option<u32>>) {
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
    let mut m = Measured {
        setup_s,
        corpus: format!(
            "{CHUNKS} corpora of {} loops x {} calls (8 baselines + 26 series) = {per} items (seed {:#x})",
            chunks[0].loops.len(),
            chunks[0].calls.len(),
            opts.seed
        ),
        ..Measured::default()
    };
    let mut visits = [0u64; CHUNKS];
    let mut reference: Vec<Vec<Option<u32>>> = vec![Vec::new(); CHUNKS];
    let mut diverged: Vec<(usize, usize)> = Vec::new();
    let mut last = 0;
    let (passes, timed_s) = run_passes(opts.seconds, |pass| {
        let k = pass % CHUNKS;
        let corpus = &chunks[k];
        let service = CompileService::new(ServiceConfig {
            threads: 1,
            ..ServiceConfig::default()
        })
        .expect("a memory-only service opens no files");
        let mut results = Vec::with_capacity(per);
        let t0 = Instant::now();
        for i in 0..per {
            let s = Instant::now();
            let r = corpus.run(&service, i);
            m.latencies_ms.push(s.elapsed().as_secs_f64() * 1e3);
            results.push(r);
        }
        let took = t0.elapsed();
        m.last_pass = Some((took.as_secs_f64(), per));
        last = k;
        visits[k] += 1;
        if reference[k].is_empty() {
            reference[k] = results;
        } else {
            diverged.extend(
                (0..per)
                    .filter(|&i| results[i] != reference[k][i])
                    .map(|i| (k * per + i, pass)),
            );
        }
        took
    });
    m.timed_s = timed_s;
    m.loopgen_ms = generate_ms;
    let mut verdicts = Verdicts::new(CHUNKS * per);
    let mut compared = 0;
    for (k, corpus) in chunks.iter().enumerate() {
        if visits[k] == 0 {
            continue;
        }
        let (v, c) = check(corpus, &reference[k], k == 0 && opts.seed == DEFAULT_SEED);
        compared += c;
        verdicts.absorb(v, k * per);
        for (i, r) in reference[k].iter().enumerate() {
            if let (Call::Series { fig, series }, Some(ii)) = (corpus.item(i).0, r) {
                let g = corpus.item(i).1;
                let mii = corpus.figures[fig].series[series].machine.mii(g);
                for _ in 0..visits[k] {
                    m.ii_over_mii.add_ratio(*ii, mii);
                }
            }
        }
    }
    for (id, pass) in diverged {
        verdicts.fail(id, || format!("pass {pass} result differs from the first"));
    }
    m.checks.push(if compared > 0 {
        format!(
            "{compared} series histograms of the first corpus compared with results/fig12-19.csv"
        )
    } else {
        "reference files apply only to the default seed's first corpus; bound checks only"
            .to_string()
    });
    m.checks.push(format!(
        "every II >= its machine's MII; {passes} pass(es), repeats compared with the first"
    ));
    let times: Vec<u64> = (0..CHUNKS * per).map(|id| visits[id / per]).collect();
    let bad = verdicts.bad_count();
    verdicts.fold_into(&mut m, &times, |id| {
        format!("corpus {}: {}", id / per, chunks[id / per].label(id % per))
    });
    m.checks.push(format!("{bad} distinct item(s) failed"));
    let reference = reference.swap_remove(last);
    (m, chunks.swap_remove(last), reference)
}

/// The service's phase-2 memo key, derived the same way from public
/// pieces: kind, loop text, nameless machine text, config rendering.
fn memo_key(kind: &str, g: &Ddg, machine: &MachineSpec, config_text: &str) -> CacheKey {
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

/// `unified_ii` rebuilt: the unified map, a scheduling context, and the
/// range search — all inside one `sched.unified` span.
fn rebuild_unified(g: &Ddg, machine: &MachineSpec, sched: SchedulerConfig) -> Option<u32> {
    let unified = machine.unified_equivalent();
    let raw_mii = unified.mii(g);
    if raw_mii == u32::MAX {
        return None;
    }
    let start = raw_mii.max(1);
    let cap = max_ii_bound(g, start);
    let map = unified_map(g, &unified);
    let mut ctx = SchedContext::new(g, &unified, &map).ok()?;
    ctx.schedule_in_range(start, cap, sched)
        .ok()
        .map(|s| s.ii())
}

/// Span names of this workload beyond the escalation's.
const SPANS: [&str; 4] = [
    "service.memo",
    "service.key",
    "driver.compile",
    "sched.unified",
];

/// The traced run: every call rebuilt behind a replica of the service's
/// two memo tables, checked against the untraced result.
pub fn traced(
    corpus: &Corpus,
    reference: &[Option<u32>],
    tracer: &Tracer,
) -> Result<(Layers, Duration, usize), String> {
    let phase2: ContentCache<Option<u32>> = ContentCache::new();
    let unified: ContentCache<Option<u32>> = ContentCache::new();
    let mut counts = Counts::default();
    let n = corpus.items();
    let t0 = Instant::now();
    for (i, expected) in reference.iter().enumerate() {
        let (call, g) = corpus.item(i);
        let value = tracer.span(ITEM, i, || match call {
            Call::Unified { fig } => {
                let f = &corpus.figures[fig];
                let key = tracer.span("service.key", i, || {
                    memo_key("unified", g, &f.unified, &format!("{:?}", f.sched))
                });
                *tracer.span("service.memo", i, || {
                    unified.get_or_compute(key, || {
                        tracer.span("sched.unified", i, || {
                            rebuild_unified(g, &f.unified, f.sched)
                        })
                    })
                })
            }
            Call::Series { fig, series } => {
                let s = &corpus.figures[fig].series[series];
                let key = tracer.span("service.key", i, || {
                    memo_key("ii", g, &s.machine, &format!("{:?}", s.config))
                });
                *tracer.span("service.memo", i, || {
                    phase2.get_or_compute(key, || {
                        tracer.span("driver.compile", i, || {
                            escalate(g, &s.machine, s.config, tracer, i, &mut counts)
                                .ok()
                                .map(|e| e.schedule.ii())
                        })
                    })
                })
            }
        });
        if value != *expected {
            return Err(format!(
                "traced rebuild of {} gave {value:?}, the service gave {expected:?}",
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
    let (p, u) = (phase2.stats(), unified.stats());
    let hits = p.hits + u.hits;
    let mut l = Layers::new();
    counts.insert_layers(&mut l, &t, n, &["driver.compile"]);
    l.insert("sched.unified_busy_ms", t.per_item_ms(&["sched.unified"]));
    l.insert(
        "service.memo_us",
        t.per_item_us(&["service.key", "service.memo"]),
    );
    l.insert(
        "service.memo_hit_frac",
        ratio(hits, hits + p.misses + u.misses),
    );
    Ok((l, wall, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_26_series_in_8_figures() {
        let figs = figures();
        assert_eq!(figs.len(), 8);
        assert_eq!(figs.iter().map(|f| f.series.len()).sum::<usize>(), 26);
        for f in &figs {
            for s in &f.series {
                assert!(
                    !committed_rows(f.committed, &s.label).is_empty(),
                    "{} has rows for `{}`",
                    f.id,
                    s.label
                );
            }
        }
    }

    #[test]
    fn corpus_is_deterministic_per_seed_and_distinct_across_seeds() {
        let fp = |v: &[Ddg]| -> Vec<u64> { v.iter().map(clasp::loopgen::fingerprint).collect() };
        let p = profile();
        let a = Corpus::generate(1, &p);
        assert_eq!(fp(&a.loops), fp(&Corpus::generate(1, &p).loops));
        assert_ne!(fp(&a.loops), fp(&Corpus::generate(2, &p).loops));
        // The default seed gives exactly the paper corpus.
        let paper = clasp::loopgen::generate_corpus(CorpusConfig::default());
        assert_eq!(fp(&Corpus::generate(DEFAULT_SEED, &p).loops), fp(&paper));
    }

    #[test]
    fn a_perturbed_histogram_fails_its_series() {
        // A 40-loop corpus at the default seed cannot match the
        // committed 1,327-loop histograms: every series is refused, and
        // the bound checks alone pass.
        let mut corpus = Corpus::generate(DEFAULT_SEED, &profile());
        corpus.loops.truncate(40);
        let service = CompileService::in_memory();
        let results: Vec<Option<u32>> = (0..corpus.items())
            .map(|i| corpus.run(&service, i))
            .collect();
        let (v, compared) = check(&corpus, &results, true);
        assert_eq!(compared, 26);
        assert_eq!(v.bad_count(), 26 * 40);
        let (v, compared) = check(&corpus, &results, false);
        assert_eq!((v.bad_count(), compared), (0, 0));
        // One count moved from deviation 0 to 1 in a committed file.
        let fig = &corpus.figures[0];
        let rows: Vec<String> = committed_rows(fig.committed, "Simple")
            .iter()
            .map(|r| r.to_string())
            .collect();
        let committed = committed_rows(fig.committed, "Simple");
        assert_eq!(histogram_mismatch(&rows, &committed), None);
        let mut perturbed = rows.clone();
        perturbed[0] = perturbed[0].replacen(",641,", ",640,", 1);
        assert!(histogram_mismatch(&perturbed, &committed).is_some());
    }

    #[test]
    fn traced_rebuild_reproduces_the_service() {
        let mut corpus = Corpus::generate(9, &profile());
        corpus.loops.truncate(5);
        let service = CompileService::in_memory();
        let reference: Vec<Option<u32>> = (0..corpus.items())
            .map(|i| corpus.run(&service, i))
            .collect();
        let (layers, _, items) = traced(&corpus, &reference, &Tracer::new()).unwrap();
        assert_eq!(items, corpus.items());
        assert!(layers["service.memo_hit_frac"] > 0.0);
        let mut wrong = reference.clone();
        wrong[7] = wrong[7].map(|ii| ii + 1);
        assert!(traced(&corpus, &wrong, &Tracer::new()).is_err());
    }
}
