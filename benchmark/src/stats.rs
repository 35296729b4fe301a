//! Order statistics for latency samples and the control normalisation.

/// A measured value and the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub value: f64,
    pub samples: u64,
}

/// The values of one run, by metric name.
#[derive(Debug, Default)]
pub struct Values(std::collections::HashMap<&'static str, Sample>);

impl Values {
    pub fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        self.0.insert(
            name,
            Sample {
                value,
                samples: samples as u64,
            },
        );
    }

    /// Record the median of `samples` (0 when there are none: a layer the
    /// workload's plan does not use).
    pub fn put_median(&mut self, name: &'static str, samples: &[f64]) {
        self.put(name, median(samples).unwrap_or(0.0), samples.len());
    }

    pub fn get(&self, name: &str) -> Option<Sample> {
        self.0.get(name).copied()
    }
}

/// Median of `samples` (mean of the two middle values for an even count).
/// Returns `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Fewest samples a run must hold for its 95th percentile to be reported:
/// a percentile is only quoted when at least ten samples lie beyond it.
pub const MIN_SAMPLES_FOR_P95: usize = 200;

/// Number of samples strictly beyond the nearest-rank `q`-quantile of `n`
/// samples.
#[cfg(test)]
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - nearest_rank(n, q)
}

fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank `q`-quantile (`0 < q <= 1`); `None` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(sorted.len(), q) - 1])
}

/// The 95th percentile, refused (`None`) when fewer than ten samples would
/// lie beyond it — a tail figure resting on a handful of samples is noise.
pub fn p95(samples: &[f64]) -> Option<f64> {
    if samples.len() < MIN_SAMPLES_FOR_P95 {
        return None;
    }
    quantile(samples, 0.95)
}

/// Host correction: scale a time measured while the control kernel read
/// `control_ms` to a host on which it reads `reference_ms`. Host-wide
/// slowdowns move the time and the control alike and cancel; a change to
/// the program moves only the time. With `reference_ms = 1` this is the
/// plain ratio to the control (`query_p50_rel`).
pub fn host_corrected(time: f64, control_ms: f64, reference_ms: f64) -> f64 {
    time * reference_ms / control_ms
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, which is what the driver
/// judges this benchmark's steadiness with. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Run-to-run spread: the interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some((1.5, 4.5)));
        assert_eq!(
            quartiles(&[10.0, 20.0]),
            Some((7.5, 22.5)),
            "extrapolates like Python does"
        );
        assert_eq!(quartiles(&[1.0]), None);
        assert!(
            (spread(&ten).unwrap() - 1.0).abs() < 1e-12,
            "(8.25 - 2.75) / 5.5"
        );
    }

    #[test]
    fn median_and_quantiles_use_nearest_rank() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.95), Some(95.0));
        assert_eq!(quantile(&hundred, 1.0), Some(100.0));
        assert_eq!(quantile(&[7.0], 0.5), Some(7.0));
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(199, 0.95), 9);
        let short: Vec<f64> = (0..199).map(f64::from).collect();
        assert_eq!(p95(&short), None, "199 samples leave only 9 beyond p95");
        let enough: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(p95(&enough), Some(190.0));
    }

    #[test]
    fn control_normalisation_cancels_a_common_slowdown() {
        let control = median(&[8.0, 8.2, 7.8]).unwrap();
        let rel = host_corrected(16.0, control, 1.0);
        assert!((rel - 2.0).abs() < 1e-12);
        // The same run on a host 12 % slower across the board.
        let slowed = host_corrected(16.0 * 1.12, control * 1.12, 1.0);
        assert!((slowed - rel).abs() < 1e-9);
        // Scaled to the 10 ms reference it reads in milliseconds again.
        assert!((host_corrected(16.0, 8.0, 10.0) - 20.0).abs() < 1e-12);
        assert!((host_corrected(16.0 * 1.12, 8.0 * 1.12, 10.0) - 20.0).abs() < 1e-9);
        assert!(
            (host_corrected(16.0, 10.0, 10.0) - 16.0).abs() < 1e-12,
            "a reference host is left alone"
        );
    }
}
