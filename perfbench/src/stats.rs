//! Order statistics over timing samples.

/// Nearest-rank percentile of an ascending slice, `q` in `[0, 1]`
/// (0 for an empty slice).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Mean (0 for no values).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median, 99th percentile and sample count of one timing distribution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Dist {
    /// Samples.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
}

impl Dist {
    /// Summarizes `values`.
    pub fn of(values: &[f64]) -> Dist {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Dist {
            n: v.len(),
            p50: percentile(&v, 0.5),
            p99: percentile(&v, 0.99),
        }
    }
}

/// `part / whole`, 0 when `whole` is 0.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let d = Dist::of(&[5.0, 1.0, 3.0]);
        assert_eq!((d.n, d.p50, d.p99), (3, 3.0, 5.0));
    }
}
