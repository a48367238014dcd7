//! What every workload shares: the run options, the timed loop, the
//! repeated set-up, the output-check ledger and the per-layer table.

use crate::stats::GeoMean;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The corpus seed the committed `results/*.csv` files were made from.
/// Reference-file checks of seeded corpora run only at this seed.
pub const DEFAULT_SEED: u64 = 0x1998_C1A5;

/// Seed of chunk `k` of a run's inputs: the run seed itself for the
/// first chunk (so the default seed's first chunk is the committed
/// corpus), a derived seed for the others.
pub fn chunk_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        seed
    } else {
        clasp::loopgen::rng::fold_seed(seed, &format!("perfbench-chunk-{k}"))
    }
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// Command-line options of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One wrong or failed output, named by the distinct item it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    pub item: String,
    pub reason: String,
}

/// The untraced part of a run: what the end-to-end metrics come from.
#[derive(Debug, Default)]
pub struct Measured {
    /// Median set-up time over [`SETUP_REPS`] set-ups, in s.
    pub setup_s: f64,
    /// Wall time of the timed phase, in s.
    pub timed_s: f64,
    /// Per-item latency of every timed item, in ms.
    pub latencies_ms: Vec<f64>,
    /// Timed items whose output was wrong or failed.
    pub failed: usize,
    /// Distinct failing items, with the reason.
    pub failures: Vec<Failure>,
    /// Achieved II over the target's MII.
    pub ii_over_mii: GeoMean,
    /// One line per output check: what was checked and its verdict.
    pub checks: Vec<String>,
    /// Corpus size, for the report.
    pub corpus: String,
    /// Input generation time of the kept set-up, in ms.
    pub loopgen_ms: f64,
    /// Wall time in s and items of the last pass, whose items a traced
    /// run repeats; `None` when the traced run repeats a sample of the
    /// whole timed phase.
    pub last_pass: Option<(f64, usize)>,
}

impl Measured {
    pub fn attempted(&self) -> usize {
        self.latencies_ms.len()
    }

    /// Untraced wall time per item of what a traced run repeats, in s.
    pub fn untraced_per_item(&self) -> f64 {
        let (secs, items) = self.last_pass.unwrap_or((self.timed_s, self.attempted()));
        secs / items as f64
    }
}

/// Per-distinct-item verdicts folded into a [`Measured`]: each timed
/// instance of a bad item counts as failed.
#[derive(Debug)]
pub struct Verdicts {
    bad: Vec<Option<String>>,
}

impl Verdicts {
    pub fn new(items: usize) -> Verdicts {
        Verdicts {
            bad: vec![None; items],
        }
    }

    /// Mark item `i` wrong; the first reason is kept.
    pub fn fail(&mut self, i: usize, reason: impl FnOnce() -> String) {
        if self.bad[i].is_none() {
            self.bad[i] = Some(reason());
        }
    }

    /// Take over `other`'s verdicts, its item `i` becoming `offset + i`.
    pub fn absorb(&mut self, other: Verdicts, offset: usize) {
        for (i, reason) in other.bad.into_iter().enumerate() {
            if let Some(reason) = reason {
                self.fail(offset + i, || reason);
            }
        }
    }

    #[cfg(test)]
    pub fn is_bad(&self, i: usize) -> bool {
        self.bad[i].is_some()
    }

    pub fn bad_count(&self) -> usize {
        self.bad.iter().filter(|b| b.is_some()).count()
    }

    /// Fold into `m`: `times[i]` is how often item `i` was timed.
    pub fn fold_into(self, m: &mut Measured, times: &[u64], label: impl Fn(usize) -> String) {
        for (i, reason) in self.bad.into_iter().enumerate() {
            if let Some(reason) = reason {
                m.failed += times[i] as usize;
                m.failures.push(Failure {
                    item: label(i),
                    reason,
                });
            }
        }
    }
}

/// Run `setup` [`SETUP_REPS`] times and keep the last result; every
/// earlier one goes to `teardown`. Returns the result and the median
/// set-up time in s.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = kept.take() {
            teardown(old);
        }
        let t0 = Instant::now();
        kept = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    let median = crate::stats::median(&times).expect("at least one set-up");
    (kept.expect("at least one set-up"), median)
}

/// Time `f` and return its value with the elapsed time in ms.
pub fn timed_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64() * 1e3)
}

/// Pass-based timed phase: run whole passes until `seconds` of timed
/// wall clock have accumulated (at least one). `pass` returns the
/// pass's timed wall time; work it does outside its timed window (output
/// digests, checks) is not counted.
pub fn run_passes(seconds: f64, mut pass: impl FnMut(usize) -> Duration) -> (usize, f64) {
    let mut total = Duration::ZERO;
    let mut passes = 0;
    while passes == 0 || total.as_secs_f64() < seconds {
        total += pass(passes);
        passes += 1;
    }
    (passes, total.as_secs_f64())
}

/// Per-layer metric values of a traced run, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// 64-bit FNV-1a of a byte string: the digest outputs are compared by.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64: the request-draw stream of the serve workload.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by rejection so every index is
    /// equally likely.
    pub fn below(&mut self, n: usize) -> usize {
        let n = n as u64;
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let v = self.next_u64();
            if v < zone {
                return (v % n) as usize;
            }
        }
    }
}

/// Histogram rows in the `results/*.csv` layout of the experiments
/// harness: `series,deviation,count,percent`, deviations ascending,
/// then a `fail` row when any loop failed.
pub fn histogram_rows(
    label: &str,
    deviations: impl IntoIterator<Item = Option<i64>>,
    loops: usize,
) -> Vec<String> {
    let mut hist: BTreeMap<i64, usize> = BTreeMap::new();
    let mut fails = 0usize;
    for d in deviations {
        match d {
            Some(d) => *hist.entry(d).or_insert(0) += 1,
            None => fails += 1,
        }
    }
    let pct = |n: usize| 100.0 * n as f64 / loops.max(1) as f64;
    let mut rows: Vec<String> = hist
        .iter()
        .map(|(d, &n)| format!("{label},{d},{n},{:.3}", pct(n)))
        .collect();
    if fails > 0 {
        rows.push(format!("{label},fail,{fails},{:.3}", pct(fails)));
    }
    rows
}

/// The rows of one series in a committed results CSV, in file order.
pub fn committed_rows<'a>(csv: &'a str, label: &str) -> Vec<&'a str> {
    csv.lines()
        .skip(1)
        .filter(|line| line.rsplitn(4, ',').nth(3) == Some(label))
        .collect()
}

/// Compare a series' rows with the committed file; `None` when equal.
pub fn histogram_mismatch(rendered: &[String], committed: &[&str]) -> Option<String> {
    if rendered.len() == committed.len() && rendered.iter().zip(committed).all(|(a, b)| a == b) {
        return None;
    }
    Some(format!(
        "histogram [{}] differs from committed [{}]",
        rendered.join("; "),
        committed.join("; ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_rows_match_the_experiments_layout() {
        let rows = histogram_rows("Simple", [Some(0), Some(1), Some(0), None], 4);
        assert_eq!(
            rows,
            vec![
                "Simple,0,2,50.000",
                "Simple,1,1,25.000",
                "Simple,fail,1,25.000"
            ]
        );
        let csv = "series,deviation,count,percent\nSimple,0,2,50.000\nSimple Iterative,0,4,100.000\nSimple,1,1,25.000\nSimple,fail,1,25.000\n";
        let committed = committed_rows(csv, "Simple");
        assert_eq!(histogram_mismatch(&rows, &committed), None);
        assert_eq!(committed_rows(csv, "Simple Iterative").len(), 1);
    }

    #[test]
    fn draws_are_uniform_enough_and_seeded() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let xs: Vec<usize> = (0..1000).map(|_| a.below(10)).collect();
        let ys: Vec<usize> = (0..1000).map(|_| b.below(10)).collect();
        assert_eq!(xs, ys);
        for k in 0..10 {
            let n = xs.iter().filter(|&&x| x == k).count();
            assert!((50..150).contains(&n), "bucket {k}: {n}");
        }
        let mut c = SplitMix64::new(8);
        assert_ne!(xs, (0..1000).map(|_| c.below(10)).collect::<Vec<_>>());
    }

    #[test]
    fn set_up_keeps_the_last_result_and_tears_down_the_rest() {
        let mut made = 0;
        let mut torn = Vec::new();
        let (kept, median) = repeated_setup(
            || {
                made += 1;
                made
            },
            |old| torn.push(old),
        );
        assert_eq!(kept, SETUP_REPS);
        assert_eq!(torn, (1..SETUP_REPS).collect::<Vec<_>>());
        assert!(median >= 0.0);
    }
}
