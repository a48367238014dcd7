//! `perfbench`: the CLASP benchmark.
//!
//! ```text
//! perfbench --workload <strata-cold|figures-sweep|serve-hot|exact-gap>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One run generates its inputs from the seed, sets up (seven times;
//! the median is `setup_s`), times whole passes of single-worker items
//! for at least `--seconds`, checks every output against a reference
//! independent of the timed path, and prints the metrics. The last line
//! of standard output is one JSON object: with `--trace 0` the
//! end-to-end metrics, with `--trace 1` the per-layer metrics of a
//! traced pass that rebuilds every item from public layer calls. See
//! `README.md` next to this crate for what each metric means.

mod common;
mod exact_gap;
mod figures_sweep;
mod rebuild;
mod sampling;
mod serve_hot;
mod stats;
mod strata_cold;
mod trace;

use common::{Layers, Measured, RunOptions, DEFAULT_SEED};
use std::fmt::Write as _;
use std::time::Duration;
use trace::Tracer;

const WORKLOADS: [&str; 4] = ["strata-cold", "figures-sweep", "serve-hot", "exact-gap"];

/// Per-layer metrics with their units, in report order. Every traced
/// run reports all of them; a layer a workload never calls reads 0.
const PER_LAYER: [(&str, &str); 44] = [
    ("ddg.busy_ms", "ms"),
    ("core.calls", "count"),
    ("core.busy_ms", "ms"),
    ("core.copies", "count"),
    ("sched.calls", "count"),
    ("sched.busy_ms", "ms"),
    ("sched.unified_busy_ms", "ms"),
    ("sched.placements", "count"),
    ("sched.backtracks", "count"),
    ("sched.backtrack_ratio", "ratio"),
    ("sched.transport_conflicts", "count"),
    ("pipeline.attempts_per_item", "count"),
    ("pipeline.first_try_frac", "ratio"),
    ("pipeline.wasted_ms", "ms"),
    ("kernel.restage_ms", "ms"),
    ("kernel.registers_ms", "ms"),
    ("kernel.emit_ms", "ms"),
    ("kernel.verify_ms", "ms"),
    ("kernel.unroll_mean", "count"),
    ("driver.other_ms", "ms"),
    ("cache.key_us", "us"),
    ("cache.lookup_us", "us"),
    ("cache.hit_frac", "ratio"),
    ("cache.payload_kb", "KB"),
    ("codec.encode_us", "us"),
    ("text.parse_us", "us"),
    ("service.parse_us", "us"),
    ("service.render_us", "us"),
    ("service.prewarm_ms", "ms"),
    ("service.memo_us", "us"),
    ("service.memo_hit_frac", "ratio"),
    ("serve.frame_read_us", "us"),
    ("serve.frame_write_us", "us"),
    ("serve.wire_us", "us"),
    ("serve.bytes_out", "bytes"),
    ("exact.rungs_per_item", "count"),
    ("exact.unsat_ms", "ms"),
    ("exact.sat_ms", "ms"),
    ("exact.conflicts", "count"),
    ("exact.vars_per_rung", "count"),
    ("exact.budget_outs", "count"),
    ("loopgen.generate_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.items", "count"),
];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]\n\
         default seed {DEFAULT_SEED:#x} (the committed results' corpus seed)",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

/// `--workload all`: run every workload in a process of its own, one
/// after the other, with the same options. Exits non-zero if any run
/// did.
fn run_all() -> ! {
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(&format!("own path: {e}")));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut failed = Vec::new();
    for workload in WORKLOADS {
        let mut child_args = args.clone();
        let at = child_args
            .iter()
            .position(|a| a == "all")
            .expect("called for --workload all");
        child_args[at] = workload.to_string();
        let status = std::process::Command::new(&exe)
            .args(&child_args)
            .status()
            .unwrap_or_else(|e| fail(&format!("cannot run {workload}: {e}")));
        if !status.success() {
            failed.push(workload);
        }
    }
    if !failed.is_empty() {
        fail(&format!("failed: {}", failed.join(", ")));
    }
    std::process::exit(0);
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> (String, RunOptions) {
    let mut workload = None;
    let mut opts = RunOptions {
        seed: DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" if value == "all" || WORKLOADS.contains(&value.as_str()) => {
                workload = Some(value)
            }
            "--seed" => opts.seed = parse_seed(&value).unwrap_or_else(|| usage()),
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    (workload.unwrap_or_else(|| usage()), opts)
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(1);
}

/// The traced pass of one workload: per-layer metrics, the traced
/// items' wall time and their count.
type Traced = Result<(Layers, Duration, usize), String>;

fn run(workload: &str, opts: &RunOptions, tracer: &Tracer) -> (Measured, Option<Traced>) {
    let trace = opts.trace;
    match workload {
        "strata-cold" => {
            let (m, corpus, reference) = strata_cold::measure(opts);
            let t = trace.then(|| strata_cold::traced(&corpus, &reference, tracer));
            (m, t)
        }
        "figures-sweep" => {
            let (m, corpus, reference) = figures_sweep::measure(opts);
            let t = trace.then(|| figures_sweep::traced(&corpus, &reference, tracer));
            (m, t)
        }
        "serve-hot" => {
            let (m, pool, rig) = serve_hot::measure(opts);
            let t = trace.then(|| serve_hot::traced(opts, &pool, &rig, tracer));
            rig.stop();
            (m, t)
        }
        "exact-gap" => {
            let (m, corpus, reference) = exact_gap::measure(opts);
            let t = trace.then(|| exact_gap::traced(&corpus, &reference, tracer));
            (m, t)
        }
        _ => usage(),
    }
}

fn json_number(v: f64) -> String {
    if !v.is_finite() {
        fail(&format!("metric value {v} is not a finite number"));
    }
    format!("{v}")
}

fn main() {
    let (workload, opts) = parse_args();
    if workload == "all" {
        run_all();
    }
    // The traced serve run stays on two CPUs: on one, the reply's
    // wake-up lets the client preempt the handler inside its spans, and
    // the client's work would be charged to the handler's layers.
    if workload == "serve-hot" && !opts.trace {
        if let Some(code) = serve_hot::pin_to_one_cpu() {
            std::process::exit(code);
        }
    }
    let tracer = Tracer::new();
    let (m, traced) = run(&workload, &opts, &tracer);

    println!("perfbench {workload}: {}", m.corpus);
    for line in &m.checks {
        println!("check: {line}");
    }
    const SHOWN: usize = 20;
    for f in m.failures.iter().take(SHOWN) {
        println!("FAILED {}: {}", f.item, f.reason);
    }
    if m.failures.len() > SHOWN {
        println!(
            "FAILED ... and {} more distinct items",
            m.failures.len() - SHOWN
        );
    }

    let attempted = m.attempted();
    let (p50, p99) = stats::p50_p99(&m.latencies_ms).unwrap_or_else(|n| {
        fail(&format!(
            "only {n} timed items; item_p99_ms needs at least {}",
            stats::MIN_P99_SAMPLES
        ))
    });
    let beyond = stats::count_above(&m.latencies_ms, p99);
    let ok_frac = 1.0 - m.failed as f64 / attempted as f64;
    let ii_over_mii = m
        .ii_over_mii
        .value()
        .unwrap_or_else(|| fail("no successful result to take II over MII from"));
    let rss = stats::peak_rss_mb().unwrap_or_else(|| fail("cannot read VmHWM"));
    let end_to_end = [
        (
            "setup_s",
            m.setup_s,
            "s",
            format!("median of {} set-ups", common::SETUP_REPS),
        ),
        (
            "items_per_s",
            attempted as f64 / m.timed_s,
            "1/s",
            format!("{attempted} items in {:.3} s", m.timed_s),
        ),
        ("item_p50_ms", p50, "ms", format!("{attempted} samples")),
        (
            "item_p99_ms",
            p99,
            "ms",
            format!("{attempted} samples, {beyond} beyond"),
        ),
        (
            "ok_frac",
            ok_frac,
            "ratio",
            format!(
                "fail_frac {} = {} of {attempted} failed",
                1.0 - ok_frac,
                m.failed
            ),
        ),
        (
            "ii_over_mii",
            ii_over_mii,
            "ratio",
            "geometric mean over results".to_string(),
        ),
        ("peak_rss_mb", rss, "MB", "VmHWM".to_string()),
    ];
    for (name, v, unit, note) in &end_to_end {
        println!("{name} = {v} {unit} ({note})");
    }

    let metrics: Vec<(&str, f64, &str)> = match traced {
        None => end_to_end.iter().map(|(n, v, u, _)| (*n, *v, *u)).collect(),
        Some(Err(e)) => fail(&format!("traced run refused: {e}")),
        Some(Ok((mut layers, wall, items))) => {
            let traced_per_item = wall.as_secs_f64() / items as f64;
            let untraced_per_item = m.untraced_per_item();
            layers.insert(
                "trace.overhead_frac",
                traced_per_item / untraced_per_item - 1.0,
            );
            layers.insert("trace.items", items as f64);
            layers.insert("loopgen.generate_ms", m.loopgen_ms);
            if let Some(name) = layers
                .keys()
                .find(|k| !PER_LAYER.iter().any(|(n, _)| n == *k))
            {
                fail(&format!(
                    "layer metric `{name}` is not in the per-layer list"
                ));
            }
            trace::write_chrome_trace(&workload, &tracer);
            let metrics: Vec<(&str, f64, &str)> = PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
                .collect();
            for (name, v, unit) in &metrics {
                println!("layer {name} = {v} {unit}");
            }
            metrics
        }
    };

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{",
        m.failed == 0,
        m.failed
    );
    for (k, (name, v, unit)) in metrics.iter().enumerate() {
        let sep = if k == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*v)
        );
    }
    json.push_str("}}");
    println!("{json}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_parse_in_decimal_and_hex() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("0x1998C1A5"), Some(DEFAULT_SEED));
        assert_eq!(parse_seed("x"), None);
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let entry =
            |name: &str, unit: &str| format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        for (name, unit) in PER_LAYER {
            assert!(json.contains(&entry(name, unit)), "per-layer {name}");
        }
        for name in [
            "setup_s",
            "items_per_s",
            "item_p50_ms",
            "item_p99_ms",
            "ok_frac",
            "ii_over_mii",
            "peak_rss_mb",
        ] {
            assert!(json.contains(&format!("{{\"name\": \"{name}\"")), "{name}");
        }
        for w in WORKLOADS {
            assert!(
                json.contains(&format!("{{\"name\": \"{w}\", \"why\"")),
                "{w}"
            );
        }
        assert_eq!(json.matches("\"better\"").count(), PER_LAYER.len() + 7);
    }

    #[test]
    fn per_layer_names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }
}
