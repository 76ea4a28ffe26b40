//! Order statistics for latency samples.
//!
//! A percentile is only reported when the sample leaves at least
//! [`MIN_BEYOND`] observations above it; a failed request is kept in the
//! sample as `+inf`, so it counts as missing every latency limit.

/// Observations a reported percentile must leave above it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`q` in `(0, 1]`) of an unsorted sample.
/// `None` for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = nearest_rank(sorted.len(), q)?;
    sorted.get(rank - 1).copied()
}

/// Median (nearest-rank 50th percentile).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// 1-based nearest rank of the `q`-percentile in a sample of `n`.
fn nearest_rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = (q * n as f64).ceil() as usize;
    Some(rank.clamp(1, n))
}

/// Observations strictly above the `q`-percentile's rank.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    nearest_rank(n, q).map_or(0, |r| n - r)
}

/// The `q`-percentile of `values`, or an error naming the shortfall when
/// the sample leaves fewer than [`MIN_BEYOND`] observations beyond it.
pub fn supported_percentile(values: &[f64], q: f64) -> Result<f64, String> {
    let beyond = samples_beyond(values.len(), q);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "{} samples leave {beyond} beyond p{}, need {MIN_BEYOND}",
            values.len(),
            q * 100.0
        ));
    }
    percentile(values, q).ok_or_else(|| "empty sample".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), Some(50.0));
        assert_eq!(percentile(&v, 0.95), Some(95.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn ten_beyond_rule() {
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(0, 0.95), 0);
        let ok: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(supported_percentile(&ok, 0.95), Ok(189.0));
        let short: Vec<f64> = (0..199).map(f64::from).collect();
        assert!(supported_percentile(&short, 0.95).is_err());
        assert!(supported_percentile(&ok, 0.99).is_err());
    }

    #[test]
    fn failures_count_as_missing() {
        let mut v: Vec<f64> = vec![1.0; 190];
        v.extend(std::iter::repeat_n(f64::INFINITY, 10));
        assert_eq!(percentile(&v, 0.95), Some(1.0));
        v.push(f64::INFINITY);
        assert_eq!(percentile(&v, 0.95), Some(f64::INFINITY));
    }
}
