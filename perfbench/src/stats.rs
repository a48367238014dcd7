//! Summary statistics for one run: percentiles, geometric means and the
//! process's peak memory.

/// Fewest latency samples from which `item_p99_ms` is reported: with
/// 1,000 samples at least ten lie beyond the 99th percentile.
pub const MIN_P99_SAMPLES: usize = 1_000;

/// The `q`-quantile (`0.0..=1.0`) of `sorted` by linear interpolation
/// between closest ranks (`statistics.quantiles(..., method="inclusive")`).
/// `None` for an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Median and 99th percentile of per-item latencies, in the samples'
/// unit. Refuses (returns `Err` with the count) when fewer than
/// [`MIN_P99_SAMPLES`] samples would leave under ten beyond the p99.
pub fn p50_p99(samples: &[f64]) -> Result<(f64, f64), usize> {
    if samples.len() < MIN_P99_SAMPLES {
        return Err(samples.len());
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p50 = quantile(&sorted, 0.50).expect("non-empty");
    let p99 = quantile(&sorted, 0.99).expect("non-empty");
    Ok((p50, p99))
}

/// Samples strictly above `threshold`.
pub fn count_above(samples: &[f64], threshold: f64) -> usize {
    samples.iter().filter(|&&v| v > threshold).count()
}

/// Median of a small sample (set-up repetitions). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// Running geometric mean of positive ratios.
#[derive(Debug, Default, Clone, Copy)]
pub struct GeoMean {
    log_sum: f64,
    n: u64,
}

impl GeoMean {
    /// Fold one ratio `num / den`; non-positive inputs are skipped.
    pub fn add_ratio(&mut self, num: u32, den: u32) {
        if num > 0 && den > 0 {
            self.log_sum += (f64::from(num) / f64::from(den)).ln();
            self.n += 1;
        }
    }

    /// The geometric mean, or `None` before the first ratio.
    pub fn value(&self) -> Option<f64> {
        (self.n > 0).then(|| (self.log_sum / self.n as f64).exp())
    }
}

/// Peak resident set size (`VmHWM`) of this process in MB, from
/// `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_on_known_vectors() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(3.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(5.0));
        assert_eq!(quantile(&v, 0.25), Some(2.0));
        let even = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&even, 0.5), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn p99_of_a_ramp_interpolates_between_ranks() {
        // 0, 1, ..., 1999: p50 at rank 999.5, p99 at rank 1979.01.
        let v: Vec<f64> = (0..2000).map(f64::from).rev().collect();
        let (p50, p99) = p50_p99(&v).unwrap();
        assert!((p50 - 999.5).abs() < 1e-9);
        assert!((p99 - 1979.01).abs() < 1e-9);
        assert!(count_above(&v, p99) >= 10);
    }

    #[test]
    fn p99_is_refused_below_a_thousand_samples() {
        let v = vec![1.0; MIN_P99_SAMPLES - 1];
        assert_eq!(p50_p99(&v), Err(MIN_P99_SAMPLES - 1));
        let v = vec![1.0; MIN_P99_SAMPLES];
        assert_eq!(p50_p99(&v), Ok((1.0, 1.0)));
    }

    #[test]
    fn geometric_mean_of_ratios() {
        let mut g = GeoMean::default();
        assert_eq!(g.value(), None);
        g.add_ratio(2, 1);
        g.add_ratio(1, 2);
        g.add_ratio(4, 4);
        assert!((g.value().unwrap() - 1.0).abs() < 1e-12);
        g.add_ratio(0, 3);
        assert!((g.value().unwrap() - 1.0).abs() < 1e-12);
    }
}
