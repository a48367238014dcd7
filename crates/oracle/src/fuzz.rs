//! The fuzz loop: generate cases, check them in parallel on the
//! deterministic executor, optionally shrink and write reproducers for
//! the failures.
//!
//! Cases are checked on [`clasp_exec::try_sweep`]: dynamically balanced
//! workers, results collected in stream order, so the report — failures,
//! their violations, and their ordering — is bit-identical for every
//! thread count. A panic while checking one case no longer tears the
//! whole sweep down: it is captured per case and reported as an
//! [`OracleViolation::CheckPanicked`] failure at that case's stream
//! position.

use std::path::{Path, PathBuf};

use crate::casegen::{generate_case, FuzzCase};
use crate::fault::Fault;
use crate::oracle::{
    check_case, exact_minimal_ii, OracleOptions, OracleViolation, PipelineFn, EXACT_ORACLE_NODE_CAP,
};
use crate::repro::{write_hard_case, write_repro};
use crate::shrink::{shrink_case, shrink_while};

/// Fuzz-run configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Root seed of the case stream.
    pub seed: u64,
    /// Number of (loop, machine) cases to check.
    pub cases: usize,
    /// Trip count for functional simulation.
    pub iterations: i64,
    /// Deliberate corruption (oracle self-test); [`Fault::None`] in
    /// production runs.
    pub fault: Fault,
    /// Worker threads for case checking (0 = one per hardware thread).
    /// The report is bit-identical for every value.
    pub threads: usize,
    /// Check small loops against the exact SAT backend (invariant 9: the
    /// case's schedule lifts into the exact encoding) and collect *hard
    /// instances* — cases where the heuristic's II strictly exceeds the
    /// proven minimum — into [`FuzzReport::hard`].
    pub exact: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0,
            cases: 500,
            iterations: 8,
            fault: Fault::None,
            threads: 0,
            exact: false,
        }
    }
}

/// One violating case, with everything needed to replay it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The generated case.
    pub case: FuzzCase,
    /// The violations it exhibits.
    pub violations: Vec<OracleViolation>,
}

/// A mined hard instance: the heuristic settled on a strictly larger II
/// than the exact backend proved minimal. Not a violation — a heuristic
/// is allowed to be suboptimal — but exactly the corpus that stresses
/// it.
#[derive(Debug, Clone)]
pub struct HardCase {
    /// The generated case.
    pub case: FuzzCase,
    /// The heuristic's achieved II.
    pub heuristic: u32,
    /// The exact backend's proven minimal II.
    pub exact: u32,
}

/// The outcome of a fuzz run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Cases checked.
    pub checked: usize,
    /// The failing cases, in stream order.
    pub failures: Vec<Failure>,
    /// Reproducer files written by [`run_fuzz_with_repros`] (empty when
    /// shrinking is off or nothing failed).
    pub repro_files: Vec<PathBuf>,
    /// Hard instances found by the exact cross-check
    /// ([`FuzzConfig::exact`]), in stream order.
    pub hard: Vec<HardCase>,
}

impl FuzzReport {
    /// Whether every case passed every invariant.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Check `config.cases` generated cases against the oracle, in parallel
/// on `config.threads` workers. Failures land in stream order and the
/// whole report is bit-identical for every thread count.
///
/// A panic inside one case's check is captured (the rest of the sweep
/// still runs) and surfaces as a [`Failure`] whose single violation is
/// [`OracleViolation::CheckPanicked`] carrying the panic payload.
pub fn run_fuzz(config: &FuzzConfig, pipeline: PipelineFn) -> FuzzReport {
    let opts = OracleOptions {
        iterations: config.iterations,
        fault: config.fault,
        exact: config.exact,
    };
    let indices: Vec<usize> = (0..config.cases).collect();
    let results = clasp_exec::try_sweep(
        config.threads,
        &indices,
        || (),
        |(), _, &index| {
            let case = generate_case(config.seed, index);
            let violations = check_case(&case.graph, &case.machine, pipeline, &opts);
            let gap = if config.exact
                && violations.is_empty()
                && case.graph.node_count() <= EXACT_ORACLE_NODE_CAP
            {
                positive_gap(&case.graph, &case.machine, pipeline)
            } else {
                None
            };
            (case, violations, gap)
        },
    );
    let mut report = FuzzReport::default();
    for (index, result) in results.into_iter().enumerate() {
        report.checked += 1;
        match result {
            Ok((case, violations, gap)) => {
                if let Some((heuristic, exact)) = gap {
                    report.hard.push(HardCase {
                        case: case.clone(),
                        heuristic,
                        exact,
                    });
                }
                if !violations.is_empty() {
                    report.failures.push(Failure { case, violations });
                }
            }
            Err(payload) => {
                // Regenerate the case so the failure is replayable. (If
                // generation itself panicked we panic here too — exactly
                // what the serial loop did.)
                let case = generate_case(config.seed, index);
                report.failures.push(Failure {
                    case,
                    violations: vec![OracleViolation::CheckPanicked { payload }],
                });
            }
        }
    }
    report
}

/// `(heuristic II, exact II)` when the pipeline schedules the pair at a
/// strictly larger II than the exact backend proves minimal; `None` when
/// either side fails, the solve is refused, or there is no gap.
fn positive_gap(
    g: &clasp_ddg::Ddg,
    machine: &clasp_machine::MachineSpec,
    pipeline: PipelineFn,
) -> Option<(u32, u32)> {
    let heuristic = pipeline(g, machine).ok()?.schedule.ii();
    let exact = exact_minimal_ii(g, machine)?;
    (heuristic > exact).then_some((heuristic, exact))
}

/// Predicate-call budget per hard-case shrink: each trial costs a full
/// compile *and* a SAT solve, so the budget is much tighter than the
/// violation shrinker's.
const HARD_SHRINK_TRIALS: usize = 500;

/// Shrink each of `report.hard`'s instances while its heuristic-vs-exact
/// gap stays positive, and write the reduced pairs into `dir` (stems
/// `hard-<index>`, gap recorded in the `.clasp` header). Prior
/// `hard-*` files in `dir` are removed first. Returns the written paths.
///
/// # Errors
///
/// Any filesystem error preparing the directory or writing the files.
pub fn mine_hard_cases(
    report: &FuzzReport,
    pipeline: PipelineFn,
    dir: &Path,
) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("hard-") && (name.ends_with(".clasp") || name.ends_with(".machine")) {
            std::fs::remove_file(entry.path())?;
        }
    }
    let mut written = Vec::new();
    for hard in &report.hard {
        let (g, m, _) = shrink_while(
            &hard.case.graph,
            &hard.case.machine,
            HARD_SHRINK_TRIALS,
            |g, m| positive_gap(g, m, pipeline).is_some(),
        );
        // Re-measure on the reduced pair: shrinking preserves *positivity*
        // of the gap, not its magnitude.
        let (heuristic, exact) =
            positive_gap(&g, &m, pipeline).expect("shrink_while preserves the predicate");
        let stem = format!("hard-{:04}", hard.case.index);
        let (lp, mp) = write_hard_case(dir, &stem, &g, &m, heuristic, exact, hard.case.case_seed)?;
        written.push(lp);
        written.push(mp);
    }
    Ok(written)
}

/// Remove reproducers left by prior runs (`case-*.clasp` /
/// `case-*.machine`), leaving unrelated files alone.
fn clean_stale_repros(repro_dir: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(repro_dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("case-") && (name.ends_with(".clasp") || name.ends_with(".machine")) {
            std::fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

/// As [`run_fuzz`], then shrink each failure and write its reproducer
/// pair under `repro_dir` (stems `case-<index>`). Shrinking failures are
/// not fatal: a failure whose shrink hits the trial budget is written
/// unreduced.
///
/// The directory is created up front and reproducers from prior runs are
/// removed first, even when this run is clean — a green run after a red
/// one must not leave the red run's case files behind to be mistaken for
/// fresh failures.
///
/// # Errors
///
/// Any filesystem error while preparing the directory or writing
/// reproducers.
pub fn run_fuzz_with_repros(
    config: &FuzzConfig,
    pipeline: PipelineFn,
    repro_dir: &Path,
) -> std::io::Result<FuzzReport> {
    std::fs::create_dir_all(repro_dir)?;
    clean_stale_repros(repro_dir)?;
    let opts = OracleOptions {
        iterations: config.iterations,
        fault: config.fault,
        exact: config.exact,
    };
    let mut report = run_fuzz(config, pipeline);
    for failure in &report.failures {
        let stem = format!("case-{:04}", failure.case.index);
        let (graph, machine, violations) =
            match shrink_case(&failure.case.graph, &failure.case.machine, pipeline, &opts) {
                Some(outcome) => (outcome.graph, outcome.machine, outcome.violations),
                None => (
                    failure.case.graph.clone(),
                    failure.case.machine.clone(),
                    failure.violations.clone(),
                ),
            };
        let (lp, mp) = write_repro(
            repro_dir,
            &stem,
            &graph,
            &machine,
            &violations,
            failure.case.case_seed,
        )?;
        report.repro_files.push(lp);
        report.repro_files.push(mp);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::CompiledCase;
    use clasp_ddg::Ddg;
    use clasp_machine::MachineSpec;

    fn panicking(_: &Ddg, _: &MachineSpec) -> Result<CompiledCase, String> {
        panic!("kaboom");
    }

    fn rejecting(_: &Ddg, _: &MachineSpec) -> Result<CompiledCase, String> {
        Err("rejected".into())
    }

    #[test]
    fn check_panics_are_captured_per_case_in_stream_order() {
        let config = FuzzConfig {
            cases: 5,
            threads: 3,
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&config, &panicking);
        assert_eq!(report.checked, 5);
        assert_eq!(report.failures.len(), 5, "every case panics");
        for (i, failure) in report.failures.iter().enumerate() {
            assert_eq!(failure.case.index, i, "failures must be in stream order");
            match &failure.violations[..] {
                [OracleViolation::CheckPanicked { payload }] => {
                    assert!(payload.contains("kaboom"), "payload: {payload}");
                }
                other => panic!("expected CheckPanicked, got {other:?}"),
            }
        }
        // Bit-identical at any thread count.
        let serial = run_fuzz(
            &FuzzConfig {
                threads: 1,
                ..config
            },
            &panicking,
        );
        assert_eq!(serial.failures.len(), report.failures.len());
    }

    #[test]
    fn repro_dir_is_created_and_stale_cases_cleaned() {
        let dir = std::env::temp_dir().join("clasp-oracle-stale-repro-test");
        let _ = std::fs::remove_dir_all(&dir);

        // Red run: every case fails the pipeline, so reproducers land.
        let config = FuzzConfig {
            cases: 2,
            threads: 1,
            ..FuzzConfig::default()
        };
        let report = run_fuzz_with_repros(&config, &rejecting, &dir).unwrap();
        assert!(!report.is_clean());
        assert!(!report.repro_files.is_empty());
        std::fs::write(dir.join("NOTES.md"), "keep me").unwrap();

        // Green run: the directory must still be materialized, the prior
        // run's case files gone, and unrelated files untouched.
        let clean = FuzzConfig { cases: 0, ..config };
        let report = run_fuzz_with_repros(&clean, &rejecting, &dir).unwrap();
        assert!(report.is_clean());
        assert!(dir.is_dir(), "repro dir must exist even on a clean run");
        assert!(dir.join("NOTES.md").exists(), "unrelated files survive");
        let stale: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("case-"))
            .collect();
        assert!(stale.is_empty(), "stale reproducers left behind: {stale:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_run_writes_repros_into_a_missing_dir() {
        let dir = std::env::temp_dir().join("clasp-oracle-fresh-repro-test");
        let _ = std::fs::remove_dir_all(&dir);
        let config = FuzzConfig {
            cases: 1,
            threads: 1,
            ..FuzzConfig::default()
        };
        let report = run_fuzz_with_repros(&config, &rejecting, &dir).unwrap();
        assert_eq!(report.repro_files.len(), 2);
        for p in &report.repro_files {
            assert!(p.exists());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
