//! The load suite report: one [`CellSummary`] per (transport ×
//! concurrency × mix) cell, rendered as the line-parseable
//! `BENCH_load.json` that the repo commits as its latency baseline.
//!
//! Every cell is written on its own JSON line so the committed-baseline
//! reader ([`committed_cell_field`]) can stay a line scanner — no JSON
//! parser in the gate path. `clasp-cli load --gate` reads the baseline
//! before the run, so `--json` may overwrite the same file.

use crate::resources::Watermark;
use crate::runner::CellReport;

/// One finished cell, named `{transport}/c{clients}/{mix}` (e.g.
/// `tcp/c4/mixed`).
#[derive(Debug, Clone)]
pub struct CellSummary {
    /// Cell name, the JSON key.
    pub name: String,
    /// Requests per class in the replayed schedule.
    pub class_counts: [usize; 4],
    /// Measured result.
    pub report: CellReport,
}

impl CellSummary {
    /// One human-readable line for terminal output.
    pub fn human_line(&self) -> String {
        let h = &self.report.overall;
        format!(
            "{:<18} p50 {:>9}  p99 {:>9}  p99.9 {:>9}  {:>8.1} req/s  errors {}",
            self.name,
            fmt_ns(h.percentile(0.50)),
            fmt_ns(h.percentile(0.99)),
            fmt_ns(h.percentile(0.999)),
            self.report.throughput_rps(),
            self.report.errors,
        )
    }
}

/// The whole suite: every cell plus run-wide metadata and resource
/// watermarks.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// Base seed the request schedules derive from.
    pub seed: u64,
    /// Requests replayed per cell.
    pub requests_per_cell: usize,
    /// `"closed"` or `"open@<rate>"`.
    pub mode: String,
    /// Machine preset label.
    pub machine: String,
    /// Finished cells, in run order.
    pub cells: Vec<CellSummary>,
    /// fd/RSS watermarks over the whole suite.
    pub watermark: Watermark,
}

impl SuiteReport {
    /// Total load errors across every cell.
    pub fn total_errors(&self) -> u64 {
        self.cells.iter().map(|c| c.report.errors).sum()
    }

    /// Render the committed `BENCH_load.json` text (one cell per line).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"bench\": \"clasp-load\", \"seed\": {}, \"requests_per_cell\": {}, \"mode\": \"{}\", \"machine\": \"{}\",\n",
            self.seed, self.requests_per_cell, self.mode, self.machine
        ));
        out.push_str("  \"cells\": {\n");
        for (i, cell) in self.cells.iter().enumerate() {
            let h = &cell.report.overall;
            out.push_str(&format!(
                "    \"{}\": {{\"requests\": {}, \"errors\": {}, \"pipeline_failures\": {}, \
                 \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \
                 \"mean_ns\": {}, \"max_ns\": {}, \"throughput_rps\": {:.1}}}{}\n",
                cell.name,
                cell.report.requests,
                cell.report.errors,
                cell.report.pipeline_failures,
                h.percentile(0.50),
                h.percentile(0.90),
                h.percentile(0.99),
                h.percentile(0.999),
                h.mean_ns(),
                h.max_ns(),
                cell.report.throughput_rps(),
                if i + 1 < self.cells.len() { "," } else { "" }
            ));
        }
        out.push_str("  },\n");
        let w = &self.watermark;
        out.push_str(&format!(
            "  \"resources\": {{\"fd_before\": {}, \"fd_peak\": {}, \"fd_after\": {}, \
             \"rss_before_kb\": {}, \"rss_peak_kb\": {}}}\n",
            json_opt(w.before.fds),
            json_opt(w.fd_peak),
            json_opt(w.after.fds),
            json_opt(w.before.rss_kb),
            json_opt(w.rss_peak_kb),
        ));
        out.push_str("}\n");
        out
    }
}

fn json_opt(v: Option<u64>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    }
}

/// Read one integer field of one cell from a committed
/// `BENCH_load.json` text. Line-based: finds the line holding
/// `"{cell}":` and scans it for `"{field}": <digits>`.
pub fn committed_cell_field(text: &str, cell: &str, field: &str) -> Option<u64> {
    let cell_key = format!("\"{cell}\":");
    let field_key = format!("\"{field}\":");
    let line = text.lines().find(|l| l.contains(&cell_key))?;
    let at = line.find(&field_key)? + field_key.len();
    let digits: String = line[at..]
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Noise floor for the p99 regression gate, in nanoseconds.
///
/// Hot cache-hit cells have µs-scale p99 baselines, so their top 1% is
/// dominated by whatever scheduler hiccup the OS dealt that run — a
/// single ~10 ms stall lands in the 99th percentile and makes a pure
/// ratio against a lucky (hiccup-free) committed baseline arbitrarily
/// large. Gating against `max(committed, floor)` keeps ms-scale cells
/// gated on their real baseline while giving µs-scale cells a fixed
/// absolute budget (`factor × floor`) that a genuine collapse — a lost
/// cache tier, an accidental global sync point — still blows through.
pub const GATE_FLOOR_NS: u64 = 5_000_000;

/// The gated regression ratio for one cell: current p99 over the
/// committed p99 clamped up to [`GATE_FLOOR_NS`].
pub fn gate_ratio(current_p99_ns: u64, committed_p99_ns: u64) -> f64 {
    current_p99_ns as f64 / committed_p99_ns.max(GATE_FLOOR_NS) as f64
}

/// Format nanoseconds with an adaptive unit for human output.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;
    use crate::runner::CellReport;

    fn summary(name: &str, lat: &[u64]) -> CellSummary {
        let mut overall = Histogram::new();
        for &v in lat {
            overall.record(v);
        }
        CellSummary {
            name: name.to_string(),
            class_counts: [lat.len(), 0, 0, 0],
            report: CellReport {
                requests: lat.len() as u64,
                errors: 0,
                pipeline_failures: 0,
                wall_ns: 1_000_000_000,
                overall,
                by_class: std::array::from_fn(|_| Histogram::new()),
            },
        }
    }

    fn suite() -> SuiteReport {
        SuiteReport {
            seed: 42,
            requests_per_cell: 3,
            mode: "closed".to_string(),
            machine: "4c-gp-4b-2p".to_string(),
            cells: vec![
                summary("inproc/c1/hot", &[1_000, 2_000, 4_000]),
                summary("tcp/c4/mixed", &[50_000, 60_000, 900_000]),
            ],
            watermark: Watermark::start(),
        }
    }

    #[test]
    fn rendered_json_round_trips_through_the_committed_reader() {
        let _fds = crate::resources::fd_window();
        let text = suite().render_json();
        let p99 = committed_cell_field(&text, "tcp/c4/mixed", "p99_ns").unwrap();
        // Bucketed upper bound of the exact 900_000 max, clamped to it.
        assert_eq!(p99, 900_000);
        assert_eq!(
            committed_cell_field(&text, "inproc/c1/hot", "requests"),
            Some(3)
        );
        assert_eq!(
            committed_cell_field(&text, "inproc/c1/hot", "errors"),
            Some(0)
        );
        assert_eq!(committed_cell_field(&text, "no/such/cell", "p99_ns"), None);
        assert_eq!(committed_cell_field(&text, "tcp/c4/mixed", "nope"), None);
    }

    #[test]
    fn rendered_json_is_structurally_sane() {
        let _fds = crate::resources::fd_window();
        let text = suite().render_json();
        assert!(text.starts_with("{\n"));
        assert!(text.ends_with("}\n"));
        assert_eq!(text.matches("\"p999_ns\":").count(), 2);
        assert!(text.contains("\"resources\":"));
        // Exactly one cell per line keeps the reader line-based.
        assert!(text
            .lines()
            .filter(|l| l.contains("\"p50_ns\":"))
            .all(|l| l.contains("\"throughput_rps\":")));
    }

    #[test]
    fn human_line_mentions_the_cell_and_units() {
        let _fds = crate::resources::fd_window();
        let line = suite().cells[1].human_line();
        assert!(line.contains("tcp/c4/mixed"));
        assert!(line.contains("errors 0"));
    }

    #[test]
    fn gate_ratio_clamps_tiny_baselines_to_the_floor() {
        // µs-scale committed baseline: denominator is the floor, so a
        // 10 ms hiccup reads as 2x, not 77x.
        assert!((gate_ratio(10_000_000, 129_023) - 2.0).abs() < 1e-9);
        // ms-scale committed baseline: the floor is inert.
        assert!((gate_ratio(16_000_000, 8_000_000) - 2.0).abs() < 1e-9);
        // A genuine collapse still blows through the floored gate.
        assert!(gate_ratio(400_000_000, 129_023) > 8.0);
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(1_500), "1.5us");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
