//! The {preset × stratum} degradation table: per-stratum
//! clustered-vs-unified II over named machine presets, and the preset
//! names themselves.
//!
//! The paper's figures report clustered II as a ratio of the unified
//! baseline averaged over one corpus; the stratified corpus
//! ([`clasp_loopgen::strata`]) splits that average by scheduling
//! pressure. `clasp-cli batch --stratum ... --strata-csv PATH` compiles
//! each generated loop on each preset, plus its unified baseline, keeps
//! every pair's two IIs, and sums them per (preset, stratum) with
//! [`SweepRow::sum`]. The sums are integers in a fixed row order, so the
//! rendered table (`results/strata.csv`) is bit-identical for every
//! thread count and cache temperature (`tests/cli.rs` and CI's
//! strata-smoke job compare it).
//!
//! [`CLASSIC_PRESETS`] and [`machine_by_name`] resolve the machine names
//! that `clasp-cli` and the benchmarks accept.

use clasp_loopgen::Stratum;
use clasp_machine::{presets, MachineSpec};

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
    /// Sum one (preset, stratum) cell from its loops' (clustered II,
    /// unified II) pairs, `None` where either compile failed.
    pub fn sum(
        preset: &str,
        stratum: Stratum,
        iis: impl IntoIterator<Item = Option<(u32, u32)>>,
    ) -> SweepRow {
        let mut row = SweepRow {
            preset: preset.to_string(),
            stratum,
            loops: 0,
            compiled: 0,
            clustered_ii_sum: 0,
            unified_ii_sum: 0,
        };
        for pair in iis {
            row.loops += 1;
            if let Some((c, u)) = pair {
                row.compiled += 1;
                row.clustered_ii_sum += u64::from(c);
                row.unified_ii_sum += u64::from(u);
            }
        }
        row
    }

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

/// The full sweep result, in (preset-major, stratum order).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Base corpus seed; per-stratum seeds derive from it.
    pub seed: u64,
    /// Loops generated per stratum (the fixed `livermore` stratum caps
    /// at its anchor-set size).
    pub loops_per_stratum: usize,
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
            self.seed, self.loops_per_stratum
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
    fn csv_shape_is_stable() {
        let report = SweepReport {
            seed: 1,
            loops_per_stratum: 1,
            rows: vec![SweepRow::sum(
                "mesh3x3",
                Stratum::Livermore,
                [Some((12, 10)), None],
            )],
        };
        let csv = report.render_csv();
        assert!(csv.starts_with("# clasp strata sweep: seed 0x1, 1 loops per stratum\n"));
        assert!(csv.contains(
            "preset,stratum,loops,compiled,clustered_ii_sum,unified_ii_sum,degradation\n"
        ));
        assert!(csv.ends_with("mesh3x3,livermore,2,1,12,10,1.2000\n"));
    }
}
