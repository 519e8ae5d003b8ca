//! Order statistics used by every reported figure.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread this benchmark prints is
//! the spread a reader recomputes from the raw values.

/// Returns a sorted copy of `values` (NaN-free input assumed).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The three cut points `[q1, q2, q3]` of `statistics.quantiles(values,
/// n=4)` with the exclusive method; `None` below two values (Python
/// raises there too).
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Inter-quartile distance as a share of the median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med)
}

/// A tail latency reported under the "at least ten samples beyond it"
/// rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported, in `(0, 1)`: the requested
    /// one, or lower when the sample is too small to leave ten values
    /// beyond it.
    pub quantile: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples strictly above the reported rank.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// Minimum samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile, capped at `target`, with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it. `None` when there are not
/// more than that many samples at all.
pub fn tail(values: &[f64], target: f64) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_MIN_BEYOND {
        return None;
    }
    let v = sorted(values);
    // Nearest rank (1-based) of the requested percentile, lowered
    // until TAIL_MIN_BEYOND samples remain above it.
    let wanted = ((target * n as f64).ceil() as usize).clamp(1, n);
    let rank = wanted.min(n - TAIL_MIN_BEYOND);
    Some(Tail {
        quantile: rank as f64 / n as f64,
        value: v[rank - 1],
        beyond: n - rank,
        samples: n,
    })
}

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([7, 1, 3, 9, 4], n=4) == [2.0, 4.0, 8.0]
        assert_eq!(quartiles(&[7.0, 1.0, 3.0, 9.0, 4.0]), Some([2.0, 4.0, 8.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let share = iqr_share(&v).unwrap();
        assert!((share - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 2000 samples: p99 is rank 1980, leaving 20 beyond.
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&v, 0.99).unwrap();
        assert_eq!((t.value, t.beyond, t.samples), (1980.0, 20, 2000));
        assert!((t.quantile - 0.99).abs() < 1e-12);
        // 500 samples: p99 would leave only 5 beyond, so the reported
        // percentile drops to rank 490 (p98).
        let v: Vec<f64> = (1..=500).map(f64::from).collect();
        let t = tail(&v, 0.99).unwrap();
        assert_eq!((t.value, t.beyond), (490.0, 10));
        assert!((t.quantile - 0.98).abs() < 1e-12);
        // Exactly 1000 samples: p99 leaves exactly ten beyond.
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&v, 0.99).unwrap();
        assert_eq!((t.value, t.beyond), (990.0, 10));
        assert_eq!(tail(&[1.0; 10], 0.99), None);
    }

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}
