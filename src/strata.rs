//! The {preset × stratum} sweep: per-stratum clustered-vs-unified II
//! degradation over the named machine presets.
//!
//! The paper's figures report clustered II as a ratio of the unified
//! baseline averaged over one corpus; the stratified corpus
//! ([`clasp_loopgen::strata`]) splits that average by scheduling
//! pressure, and this module sweeps each stratum across a set of named
//! presets — CGRA-style meshes and tori, heterogeneous FU mixes, and the
//! classic bused machines — through the [`CompileService`] facade on the
//! deterministic executor. The aggregates are integer sums in a fixed
//! row order, so the rendered report (`results/strata.csv`) is
//! bit-identical for every thread count and cache temperature
//! (`tests/strata.rs` and CI's strata-smoke job compare it).

use crate::service::CompileService;
use crate::CompileRequest;
use clasp_ddg::Ddg;
use clasp_loopgen::{generate_stratum, Stratum};
use clasp_machine::{presets, MachineSpec};
use clasp_obs::Obs;

/// The preset set the committed `results/strata.csv` sweeps: one mesh,
/// one torus, one PE grid, one heterogeneous machgen promotion, and the
/// paper's bused four-cluster machine as the reference point.
pub const DEFAULT_SWEEP_PRESETS: [&str; 5] =
    ["mesh3x3", "torus3x3", "pe-grid2x3", "het4c-s1998", "4c-gp"];

/// A classic preset's builder from optional bus and port counts.
type PresetBuilder = fn(Option<u32>, Option<u32>) -> MachineSpec;

/// The eight classic presets in `clasp-cli machines` order, each with a
/// builder that takes the bus and port counts, `None` keeping the
/// preset's default (`grid` has no buses, `unified` neither).
pub const CLASSIC_PRESETS: [(&str, PresetBuilder); 8] = [
    ("2c-gp", |b, p| {
        presets::two_cluster_gp(b.unwrap_or(2), p.unwrap_or(1))
    }),
    ("4c-gp", |b, p| {
        presets::four_cluster_gp(b.unwrap_or(4), p.unwrap_or(2))
    }),
    ("6c-gp", |b, p| {
        presets::six_cluster_gp(b.unwrap_or(6), p.unwrap_or(3))
    }),
    ("8c-gp", |b, p| {
        presets::eight_cluster_gp(b.unwrap_or(7), p.unwrap_or(3))
    }),
    ("2c-fs", |b, p| {
        presets::two_cluster_fs(b.unwrap_or(2), p.unwrap_or(1))
    }),
    ("4c-fs", |b, p| {
        presets::four_cluster_fs(b.unwrap_or(4), p.unwrap_or(2))
    }),
    ("grid", |_, p| presets::four_cluster_grid(p.unwrap_or(2))),
    ("unified", |_, _| presets::unified_gp(8)),
];

/// Resolve a machine preset name: the [`CLASSIC_PRESETS`] at their
/// defaults first (`2c-gp`, `grid`, `unified`, ...), then the
/// parameterized families of [`presets::by_name`] (`mesh4x4`,
/// `torus3x3`, `pe-grid2x3`, `het6c-s2a`, ...).
pub fn machine_by_name(name: &str) -> Option<MachineSpec> {
    match CLASSIC_PRESETS.iter().find(|(classic, _)| *classic == name) {
        Some((_, build)) => Some(build(None, None)),
        None => presets::by_name(name),
    }
}

/// Sweep parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepConfig {
    /// Preset names to sweep (resolved via [`machine_by_name`]).
    pub presets: Vec<String>,
    /// Loops per stratum (the fixed `livermore` stratum caps at its
    /// anchor-set size).
    pub loops_per_stratum: usize,
    /// Base corpus seed; per-stratum seeds derive from it.
    pub seed: u64,
    /// Executor workers (0 = one per hardware thread). The report is
    /// bit-identical for every value.
    pub threads: usize,
}

impl Default for SweepConfig {
    /// The committed `results/strata.csv` configuration: the default
    /// preset set over a 40-loop slice of each stratum at the corpus
    /// seed.
    fn default() -> Self {
        SweepConfig {
            presets: DEFAULT_SWEEP_PRESETS
                .iter()
                .map(|s| s.to_string())
                .collect(),
            loops_per_stratum: 40,
            seed: 0x1998_C1A5,
            threads: 0,
        }
    }
}

/// One (preset, stratum) cell of the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepRow {
    /// Preset name as configured.
    pub preset: String,
    /// The stratum swept.
    pub stratum: Stratum,
    /// Loops attempted.
    pub loops: usize,
    /// Loops where both the clustered and the unified compile succeeded;
    /// only these contribute to the II sums.
    pub compiled: usize,
    /// Sum of clustered IIs over the compiled loops.
    pub clustered_ii_sum: u64,
    /// Sum of unified-baseline IIs over the same loops.
    pub unified_ii_sum: u64,
}

impl SweepRow {
    /// Mean clustered-over-unified II ratio (the paper's degradation
    /// figure), or `None` when nothing compiled.
    pub fn degradation(&self) -> Option<f64> {
        (self.unified_ii_sum > 0).then(|| self.clustered_ii_sum as f64 / self.unified_ii_sum as f64)
    }

    fn degradation_text(&self) -> String {
        self.degradation()
            .map_or_else(|| "-".into(), |d| format!("{d:.4}"))
    }
}

/// The full sweep result, in (preset-major, manifest stratum order).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// The configuration the sweep ran under.
    pub config: SweepConfig,
    /// One row per (preset, stratum).
    pub rows: Vec<SweepRow>,
}

impl SweepReport {
    /// Render `results/strata.csv`: a header comment pinning the
    /// configuration, then one row per (preset, stratum). Integer sums
    /// plus a fixed-precision ratio of those sums — nothing in a row
    /// depends on how workers interleaved.
    pub fn render_csv(&self) -> String {
        let mut out = format!(
            "# clasp strata sweep: seed 0x{:x}, {} loops per stratum\n",
            self.config.seed, self.config.loops_per_stratum
        );
        out.push_str("preset,stratum,loops,compiled,clustered_ii_sum,unified_ii_sum,degradation\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                r.preset,
                r.stratum,
                r.loops,
                r.compiled,
                r.clustered_ii_sum,
                r.unified_ii_sum,
                r.degradation_text()
            ));
        }
        out
    }
}

/// Per-loop (clustered II, unified II) pairs for one machine, swept on
/// the deterministic executor through `service`. `None` marks a loop
/// either compile refused. Bit-identical for every `threads` value and
/// cache temperature.
pub fn sweep_pair_iis(
    service: &CompileService,
    machine: &MachineSpec,
    loops: &[Ddg],
    threads: usize,
    req: &CompileRequest,
) -> Result<Vec<Option<(u32, u32)>>, String> {
    let quiet = Obs::disabled();
    let unified = machine.unified_equivalent();
    clasp_exec::sweep(
        threads,
        loops,
        |_, g: &Ddg| format!("{} on {}", g.name(), machine.name()),
        |_, g| {
            let clustered = service.compile_artifact(g, machine, req, &quiet);
            let baseline = service.compile_artifact(g, &unified, req, &quiet);
            match (clustered.as_ref(), baseline.as_ref()) {
                (Ok(c), Ok(u)) => Some((c.ii(), u.ii())),
                _ => None,
            }
        },
    )
    .map_err(|p| format!("strata sweep panicked: {p}"))
}

/// Run the whole {preset × stratum} sweep through `service`.
///
/// # Errors
///
/// An unresolvable preset name, or a worker panic.
pub fn run_sweep(config: &SweepConfig, service: &CompileService) -> Result<SweepReport, String> {
    let mut machines = Vec::with_capacity(config.presets.len());
    for name in &config.presets {
        let m = machine_by_name(name).ok_or_else(|| format!("unknown machine preset `{name}`"))?;
        machines.push((name.clone(), m));
    }
    let strata: Vec<(Stratum, Vec<Ddg>)> = Stratum::ALL
        .into_iter()
        .map(|s| {
            (
                s,
                generate_stratum(s, config.loops_per_stratum, config.seed),
            )
        })
        .collect();
    let req = CompileRequest::default();
    let mut rows = Vec::with_capacity(machines.len() * strata.len());
    for (name, machine) in &machines {
        for (stratum, loops) in &strata {
            let iis = sweep_pair_iis(service, machine, loops, config.threads, &req)?;
            let mut row = SweepRow {
                preset: name.clone(),
                stratum: *stratum,
                loops: loops.len(),
                compiled: 0,
                clustered_ii_sum: 0,
                unified_ii_sum: 0,
            };
            for (c, u) in iis.into_iter().flatten() {
                row.compiled += 1;
                row.clustered_ii_sum += u64::from(c);
                row.unified_ii_sum += u64::from(u);
            }
            rows.push(row);
        }
    }
    Ok(SweepReport {
        config: config.clone(),
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_by_name_covers_classic_and_parameterized_families() {
        for name in [
            "2c-gp", "4c-gp", "6c-gp", "8c-gp", "2c-fs", "4c-fs", "grid", "unified",
        ] {
            assert!(machine_by_name(name).is_some(), "classic `{name}`");
        }
        for name in DEFAULT_SWEEP_PRESETS {
            assert!(machine_by_name(name).is_some(), "sweep preset `{name}`");
        }
        assert_eq!(machine_by_name("mesh4x4").unwrap().name(), "mesh4x4");
        assert!(machine_by_name("nonsense").is_none());
    }

    #[test]
    fn tiny_sweep_is_thread_and_cache_invariant() {
        let config = SweepConfig {
            presets: vec!["mesh3x3".into(), "4c-gp".into()],
            loops_per_stratum: 3,
            seed: 7,
            threads: 1,
        };
        let service = CompileService::in_memory();
        let serial = run_sweep(&config, &service).unwrap();
        // Same service (warm cache), more workers: identical report.
        let parallel = run_sweep(
            &SweepConfig {
                threads: 4,
                ..config.clone()
            },
            &service,
        )
        .unwrap();
        assert_eq!(serial.rows, parallel.rows);
        assert_eq!(serial.render_csv(), parallel.render_csv());
        // Cold service: still identical (content-addressed compiles).
        let cold = run_sweep(&config, &CompileService::in_memory()).unwrap();
        assert_eq!(serial.rows, cold.rows);
        // Every row attempted every loop, and something compiled.
        assert_eq!(serial.rows.len(), 2 * Stratum::ALL.len());
        assert!(serial.rows.iter().all(|r| r.compiled > 0));
    }

    #[test]
    fn csv_shape_is_stable() {
        let report = SweepReport {
            config: SweepConfig {
                presets: vec!["mesh3x3".into()],
                loops_per_stratum: 1,
                seed: 1,
                threads: 1,
            },
            rows: vec![SweepRow {
                preset: "mesh3x3".into(),
                stratum: Stratum::Livermore,
                loops: 1,
                compiled: 1,
                clustered_ii_sum: 12,
                unified_ii_sum: 10,
            }],
        };
        let csv = report.render_csv();
        assert!(csv.starts_with("# clasp strata sweep: seed 0x1, 1 loops per stratum\n"));
        assert!(csv.contains(
            "preset,stratum,loops,compiled,clustered_ii_sum,unified_ii_sum,degradation\n"
        ));
        assert!(csv.ends_with("mesh3x3,livermore,1,1,12,10,1.2000\n"));
    }
}
