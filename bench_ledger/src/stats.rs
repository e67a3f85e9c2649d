//! Order statistics for the harness: medians, quartiles and the
//! percentile rule of the choosing-metrics guide.

/// Five-number summary plus the sample count of one timing series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Distance between the quartiles as a share of the median — the
    /// spread the builder contract and `--calibrate` both use.
    pub fn iqr_ratio(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quantile `p` of an ascending series by the rule of Python's
/// `statistics.quantiles` (exclusive method): position `p·(n+1)`,
/// linear interpolation, clamped to the ends.
fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = p * (n as f64 + 1.0);
    let lo = (pos.floor() as usize).clamp(1, n - 1);
    let frac = (pos - lo as f64).clamp(0.0, 1.0);
    sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Summary of a non-empty series.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of an empty series");
    let v = sorted(values);
    Summary {
        n: v.len(),
        min: v[0],
        q1: quantile_sorted(&v, 0.25),
        median: quantile_sorted(&v, 0.5),
        q3: quantile_sorted(&v, 0.75),
        max: v[v.len() - 1],
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Percentile `pct` (0–100) of a non-empty series.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    quantile_sorted(&sorted(values), pct / 100.0)
}

/// The highest reportable percentile of `n` samples: the largest of
/// 50/90/95/99 that leaves at least ten samples beyond it (p90 needs
/// 100 samples, p95 200, p99 1000). Below 100 samples only the median
/// is reportable.
pub fn top_percentile(n: usize) -> f64 {
    // (percentile, samples needed for ten to lie beyond it)
    [(99.0, 1000), (95.0, 200), (90.0, 100)]
        .into_iter()
        .find(|&(_, needed)| n >= needed)
        .map_or(50.0, |(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_follow_the_python_exclusive_rule() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        assert!((s.iqr_ratio() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(summarize(&[7.0]).median, 7.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(top_percentile(5), 50.0);
        assert_eq!(top_percentile(99), 50.0);
        assert_eq!(top_percentile(100), 90.0);
        assert_eq!(top_percentile(199), 90.0);
        assert_eq!(top_percentile(200), 95.0);
        assert_eq!(top_percentile(999), 95.0);
        assert_eq!(top_percentile(1000), 99.0);
    }
}
