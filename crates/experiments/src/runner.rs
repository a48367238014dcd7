//! Shared experiment harness: run a corpus through the pipeline on a set
//! of machine/config series and histogram the II deviation from the
//! equally wide unified machine — the metric every figure of the paper's
//! evaluation reports.

use clasp::{CompileService, PipelineConfig};
use clasp_ddg::Ddg;
use clasp_exec::{sweep, SweepPanic};
use clasp_machine::MachineSpec;
use clasp_sched::SchedulerConfig;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::OnceLock;

/// Worker-thread count for every sweep in this harness (0 = one worker
/// per hardware thread). Set once from the command line before the first
/// experiment runs.
static THREADS: OnceLock<usize> = OnceLock::new();

/// Fix the sweep thread count (`--threads`). First call wins.
pub fn set_threads(n: usize) {
    let _ = THREADS.set(n);
}

fn threads() -> usize {
    *THREADS.get().unwrap_or(&0)
}

/// The compile service every experiment shares: the phase-2 II memo
/// tables mean a (loop, machine, config) pair swept by two figures is
/// compiled once, and ablation series that differ only in label never
/// recompute shared baselines.
fn service() -> &'static CompileService {
    static SERVICE: OnceLock<CompileService> = OnceLock::new();
    SERVICE.get_or_init(CompileService::in_memory)
}

/// One experiment series (one line in a paper figure).
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// deviation (clustered II - unified II) -> loop count.
    pub hist: BTreeMap<i64, usize>,
    /// Loops where the pipeline or the baseline failed outright.
    pub fails: usize,
    /// Total loops attempted.
    pub loops: usize,
}

impl Series {
    /// Percentage of loops at exactly deviation `d`.
    pub fn pct_at(&self, d: i64) -> f64 {
        if self.loops == 0 {
            return 0.0;
        }
        100.0 * *self.hist.get(&d).unwrap_or(&0) as f64 / self.loops as f64
    }

    /// Percentage of loops with deviation `<= d`.
    pub fn pct_within(&self, d: i64) -> f64 {
        if self.loops == 0 {
            return 0.0;
        }
        let n: usize = self
            .hist
            .iter()
            .filter(|&(&k, _)| k <= d)
            .map(|(_, &v)| v)
            .sum();
        100.0 * n as f64 / self.loops as f64
    }
}

/// A series request: label, clustered machine, pipeline configuration.
pub type SeriesSpec = (String, MachineSpec, PipelineConfig);

/// Unified-baseline IIs for a corpus on one unified machine, computed in
/// parallel.
///
/// # Errors
///
/// [`SweepPanic`] naming the loop whose baseline schedule panicked.
fn unified_baseline(
    corpus: &[Ddg],
    unified: &MachineSpec,
    sched: SchedulerConfig,
) -> Result<Vec<Option<u32>>, SweepPanic> {
    sweep(
        threads(),
        corpus,
        |_, g| format!("loop {} on unified baseline {}", g.name(), unified.name()),
        |_, g| service().unified_ii_of(g, unified, sched),
    )
}

/// Exact-backend minimal IIs for a corpus on one machine, computed in
/// parallel (`None` = instance refused, budget blown, or infeasible).
///
/// # Errors
///
/// [`SweepPanic`] naming the loop whose exact solve panicked.
fn exact_baseline(corpus: &[Ddg], machine: &MachineSpec) -> Result<Vec<Option<u32>>, SweepPanic> {
    sweep(
        threads(),
        corpus,
        |_, g| format!("loop {} exact on {}", g.name(), machine.name()),
        |_, g| clasp::oracle::exact_minimal_ii(g, machine),
    )
}

/// As [`run_experiment`], but the histogram baseline is the exact SAT
/// backend's proven minimal II instead of the unified-machine II: each
/// series' deviation is `heuristic II - exact II`, the optimality gap.
/// Every spec must name the same machine (the exact bound is computed
/// once and shared). Loops where either side fails count as `fails`.
///
/// # Errors
///
/// [`SweepPanic`] as in [`run_experiment`].
///
/// # Panics
///
/// Panics if the series disagree on the machine.
pub fn run_gap_experiment(corpus: &[Ddg], specs: &[SeriesSpec]) -> Result<Vec<Series>, SweepPanic> {
    assert!(!specs.is_empty());
    let machine = &specs[0].1;
    for (_, m, _) in specs {
        assert_eq!(m, machine, "gap series must share the machine");
    }
    let baseline = exact_baseline(corpus, machine)?;

    specs
        .iter()
        .map(|(label, machine, config)| {
            let iis = sweep(
                threads(),
                corpus,
                |_, g: &Ddg| format!("loop {} on {} ({label})", g.name(), machine.name()),
                |_, g| service().ii_of(g, machine, *config),
            )?;
            let mut hist = BTreeMap::new();
            let mut fails = 0usize;
            for (ii, exact) in iis.iter().zip(&baseline) {
                match (ii, exact) {
                    (Some(c), Some(e)) => {
                        *hist.entry(i64::from(*c) - i64::from(*e)).or_insert(0) += 1;
                    }
                    _ => fails += 1,
                }
            }
            Ok(Series {
                label: label.clone(),
                hist,
                fails,
                loops: corpus.len(),
            })
        })
        .collect()
}

/// Run every series over the corpus on the deterministic executor
/// (`clasp-exec`): dynamically balanced workers, input-ordered results,
/// bit-identical for any `--threads` value. All series must share the
/// same unified equivalent (one baseline is computed and reused).
///
/// # Errors
///
/// [`SweepPanic`] when any single compile panics — the sweep finishes
/// every other case first, then reports the lowest-indexed failing case
/// with its loop and machine names. (The old chunked map aborted the
/// whole run via `join().expect("worker panicked")` with no case label.)
///
/// # Panics
///
/// Panics if the series disagree on the unified-equivalent machine shape.
pub fn run_experiment(corpus: &[Ddg], specs: &[SeriesSpec]) -> Result<Vec<Series>, SweepPanic> {
    assert!(!specs.is_empty());
    let unified = specs[0].1.unified_equivalent();
    for (_, m, _) in specs {
        assert_eq!(
            m.unified_equivalent().total_issue_width(),
            unified.total_issue_width(),
            "series must share a baseline"
        );
    }
    let baseline = unified_baseline(corpus, &unified, specs[0].2.sched)?;

    specs
        .iter()
        .map(|(label, machine, config)| {
            let deviations = sweep(
                threads(),
                corpus,
                |_, g: &Ddg| format!("loop {} on {} ({label})", g.name(), machine.name()),
                |_, g| service().ii_of(g, machine, *config),
            )?;
            let mut hist = BTreeMap::new();
            let mut fails = 0usize;
            for (dev, base) in deviations.iter().zip(&baseline) {
                match (dev, base) {
                    (Some(c), Some(u)) => {
                        *hist.entry(i64::from(*c) - i64::from(*u)).or_insert(0) += 1;
                    }
                    _ => fails += 1,
                }
            }
            Ok(Series {
                label: label.clone(),
                hist,
                fails,
                loops: corpus.len(),
            })
        })
        .collect()
}

/// Print a figure-style table: one row per series, percentage of loops at
/// each deviation bucket (0, 1, 2, 3, 4, >=5), plus the cumulative
/// within-1 column the paper quotes for the grid experiment.
pub fn print_series(title: &str, series: &[Series]) {
    println!("\n=== {title} ===");
    println!(
        "{:<28} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}   {:>7} {:>6}",
        "series", "x=0", "x=1", "x=2", "x=3", "x=4", "x>=5", "<=1", "fails"
    );
    for s in series {
        let ge5: f64 = 100.0
            * s.hist
                .iter()
                .filter(|&(&k, _)| k >= 5)
                .map(|(_, &v)| v)
                .sum::<usize>() as f64
            / s.loops.max(1) as f64;
        println!(
            "{:<28} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%   {:>6.1}% {:>6}",
            s.label,
            s.pct_at(0),
            s.pct_at(1),
            s.pct_at(2),
            s.pct_at(3),
            s.pct_at(4),
            ge5,
            s.pct_within(1),
            s.fails
        );
    }
}

/// Write the series as CSV under `results/` (deviation histogram per
/// series, percentages).
pub fn write_csv(id: &str, series: &[Series]) -> std::io::Result<()> {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir)?;
    let mut f = std::fs::File::create(dir.join(format!("{id}.csv")))?;
    writeln!(f, "series,deviation,count,percent")?;
    for s in series {
        for (&d, &n) in &s.hist {
            writeln!(
                f,
                "{},{},{},{:.3}",
                s.label,
                d,
                n,
                100.0 * n as f64 / s.loops.max(1) as f64
            )?;
        }
        if s.fails > 0 {
            writeln!(
                f,
                "{},fail,{},{:.3}",
                s.label,
                s.fails,
                100.0 * s.fails as f64 / s.loops.max(1) as f64
            )?;
        }
    }
    Ok(())
}
