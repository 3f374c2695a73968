//! Order statistics over measured samples.

/// Sorts a copy of `samples` ascending (NaN-free input).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for even counts); `None` when
/// there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The nearest-rank `p`-quantile (`0 < p < 1`), or `None` when fewer
/// than ten samples lie beyond it — a tail percentile resting on fewer
/// samples says more about one outlier than about the tail.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let v = sorted(samples);
    let rank = (p * v.len() as f64).ceil() as usize;
    (rank >= 1 && v.len() - rank >= 10).then(|| v[rank - 1])
}

/// The highest of p99, p90, p75 that [`tail_percentile`] supports,
/// with its label.
pub fn highest_tail(samples: &[f64]) -> Option<(&'static str, f64)> {
    [("p99", 0.99), ("p90", 0.90), ("p75", 0.75)]
        .into_iter()
        .find_map(|(label, p)| tail_percentile(samples, p).map(|v| (label, v)))
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method), so spreads printed here match that reference.
/// A single sample is all three.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(samples);
    let len = v.len();
    match len {
        0 => None,
        1 => Some((v[0], v[0], v[0])),
        _ => {
            let m = len + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some((q(1), q(2), q(3)))
        }
    }
}

/// Arithmetic mean; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 0.90), Some(90.0));
        assert_eq!(tail_percentile(&hundred, 0.99), None);
        let ninety_nine = &hundred[..99];
        assert_eq!(tail_percentile(ninety_nine, 0.90), None);
        assert_eq!(tail_percentile(&hundred[..40], 0.75), Some(30.0));
        assert_eq!(tail_percentile(&hundred[..39], 0.75), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
        assert_eq!(highest_tail(&hundred), Some(("p90", 90.0)));
        assert_eq!(highest_tail(&hundred[..12]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
