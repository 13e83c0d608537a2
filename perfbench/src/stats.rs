//! Percentiles with the benchmark's reporting rule: a tail percentile is
//! reported only when at least [`MIN_TAIL`] samples lie beyond it.

/// Samples that must lie above a reported tail percentile.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank quantile of an ascending slice (`NaN` when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The `q` tail percentile, refused unless [`MIN_TAIL`] samples lie above
/// its rank.
pub fn tail(sorted: &[f64], q: f64) -> Result<f64, String> {
    let n = sorted.len();
    let above = n - rank(n.max(1), q).min(n);
    if n == 0 || above < MIN_TAIL {
        return Err(format!(
            "p{} needs {MIN_TAIL} samples above it; {n} samples leave {above}",
            q * 100.0
        ));
    }
    Ok(quantile(sorted, q))
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_is_refused_with_fewer_than_ten_samples_above_it() {
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(tail(&v, 0.99).is_err(), "999 samples leave 9 above p99");
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), Ok(989.0));
        assert!(tail(&[], 0.99).is_err());
        assert!(tail(&[1.0; 100], 0.5).is_ok());
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }
}
