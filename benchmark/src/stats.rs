//! Order statistics over timing samples.

/// The median of an ascending, non-empty slice (mean of the two middle
/// values for an even count).
fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The value at percentile `p` (0–100, nearest rank) of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let sorted = sorted(samples);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of an ascending slice that still has at least ten
/// samples beyond it, with its value — the tail a sample of this size
/// supports.  `None` below twenty samples, where only the median means
/// anything.
fn supported_tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n < 20 {
        return None;
    }
    Some((100.0 * (n - 10) as f64 / n as f64, sorted[n - 11]))
}

/// What the ledger reports for one timing: count, extremes, median and the
/// supported tail.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub median: f64,
    pub max: f64,
    /// `(percentile, value)`, see [`supported_tail`].
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let sorted = sorted(samples);
        Summary {
            n: sorted.len(),
            min: sorted[0],
            median: median(&sorted),
            max: sorted[sorted.len() - 1],
            tail: supported_tail(&sorted),
        }
    }
}

/// # Panics
/// Panics on no samples or a NaN: both mean a probe is broken.
fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "statistics of no samples");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN timing sample"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).median, 2.0);
        assert_eq!(Summary::of(&[4.0, 1.0, 3.0, 2.0]).median, 2.5);
        assert_eq!(Summary::of(&[7.0]).median, 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[5.0], 95.0), 5.0);
    }

    #[test]
    fn supported_tail_keeps_ten_samples_beyond_it() {
        assert_eq!(supported_tail(&[1.0; 19]), None);
        // 20 samples: the 10th value is the p50 and ten lie beyond it.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(supported_tail(&v), Some((50.0, 10.0)));
        // 1000 samples support exactly p99.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_tail(&v), Some((99.0, 990.0)));
        let beyond = v.iter().filter(|&&x| x > 990.0).count();
        assert_eq!(beyond, 10);
    }

    #[test]
    fn summary_reports_count_extremes_and_median() {
        let s = Summary::of(&[2.0, 9.0, 4.0]);
        assert_eq!(
            (s.n, s.min, s.median, s.max, s.tail),
            (3, 2.0, 4.0, 9.0, None)
        );
    }
}
