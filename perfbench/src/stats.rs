//! The benchmark's own statistics: nearest-rank percentiles, the
//! "enough samples beyond the percentile" rule, quartiles, and the
//! attempted/failed accounting behind `failed_ratio`.

/// Minimum number of samples that must lie strictly above a reported
/// percentile for it to describe a tail rather than a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample such that at least `p`% of all samples are ≤ it (rank
/// `ceil(p/100 · n)`, 1-based). `None` on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of percentile `p` among `n` samples,
/// clamped to `1..=n`.
pub fn rank(n: usize, p: f64) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// How many of `n` samples lie beyond (ranked above) the nearest-rank
/// percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Whether `n` samples support reporting percentile `p`: at least
/// [`MIN_BEYOND`] samples must rank above it (p90 needs n ≥ 100).
pub fn supports(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_BEYOND
}

/// The smallest sample count that supports percentile `p`.
pub fn min_samples_for(p: f64) -> usize {
    (1..)
        .find(|&n| supports(n, p))
        .expect("some n supports any p < 100")
}

/// Median of an ascending-sorted slice (mean of the middle pair for even
/// lengths). `0.0` on an empty slice.
pub fn median(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank quartiles `[q1, q2, q3]` of an ascending-sorted slice.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    [25.0, 50.0, 75.0].map(|p| percentile(sorted, p).unwrap_or(0.0))
}

/// Sort a sample vector ascending (total order; NaN-free inputs).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// Completion rate in each of `windows` equal slices of `[0, span)`
/// seconds, from event times in seconds (events at or past `span` land in
/// the last slice).
pub fn window_rates(times: &[f64], span: f64, windows: usize) -> Vec<f64> {
    let width = span / windows as f64;
    let mut counts = vec![0usize; windows];
    for &t in times {
        counts[((t / width) as usize).min(windows - 1)] += 1;
    }
    counts.into_iter().map(|c| c as f64 / width).collect()
}

/// Why one request counts as failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// The connection broke or the response could not be framed.
    Transport,
    /// 429 — the server refused admission.
    Overloaded,
    /// Any other status than the one the request must get.
    Status(u16),
    /// The right status, but the answer differs from in-process execution.
    Mismatch,
}

/// Attempted/failed accounting over every request a run sends.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub transport: u64,
    pub overloaded: u64,
    pub bad_status: u64,
    pub mismatched: u64,
}

impl Tally {
    /// Record one request's verdict (`None` = answered correctly).
    pub fn record(&mut self, verdict: Option<Failure>) {
        self.attempted += 1;
        match verdict {
            None => {}
            Some(Failure::Transport) => self.transport += 1,
            Some(Failure::Overloaded) => self.overloaded += 1,
            Some(Failure::Status(_)) => self.bad_status += 1,
            Some(Failure::Mismatch) => self.mismatched += 1,
        }
    }

    /// Classify a received status against the one the request must get.
    /// 429 is a failure even though the server answered on purpose.
    pub fn classify_status(status: u16, expected: u16) -> Option<Failure> {
        match status {
            s if s == expected => None,
            429 => Some(Failure::Overloaded),
            s => Some(Failure::Status(s)),
        }
    }

    pub fn failed(&self) -> u64 {
        self.transport + self.overloaded + self.bad_status + self.mismatched
    }

    /// failed / attempted; `0.0` when nothing was attempted.
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_selects_the_expected_sample() {
        let v = one_to(100);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(
            percentile(&v, 0.0),
            Some(1.0),
            "rank clamps to the first sample"
        );
        let v = one_to(10);
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0), "ceil, not round");
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_is_an_observed_sample_not_an_interpolation() {
        let v = [1.0, 2.0, 10.0, 11.0];
        assert_eq!(percentile(&v, 50.0), Some(2.0));
        assert_eq!(percentile(&v, 75.0), Some(10.0));
    }

    #[test]
    fn p90_needs_a_hundred_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(0, 90.0), 0);
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert_eq!(min_samples_for(90.0), 100);
        assert_eq!(min_samples_for(99.0), 1000);
        assert_eq!(min_samples_for(50.0), 20);
    }

    #[test]
    fn median_and_quartiles() {
        assert_eq!(median(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quartiles(&one_to(8)), [2.0, 4.0, 6.0]);
        assert_eq!(sorted(vec![3.0, 1.0, 2.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn window_rates_split_the_span_evenly() {
        let times = [0.1, 0.2, 1.5, 2.5, 2.9, 3.0, 7.0];
        assert_eq!(window_rates(&times, 3.0, 3), vec![2.0, 1.0, 4.0]);
        assert_eq!(window_rates(&[], 2.0, 2), vec![0.0, 0.0]);
        let rates = sorted(window_rates(&times, 3.0, 3));
        assert_eq!(median(&rates), 2.0);
    }

    #[test]
    fn failed_ratio_counts_every_kind_of_failure() {
        let mut t = Tally::default();
        for _ in 0..6 {
            t.record(None);
        }
        t.record(Some(Failure::Transport));
        t.record(Tally::classify_status(429, 200));
        t.record(Tally::classify_status(500, 200));
        t.record(Some(Failure::Mismatch));
        assert_eq!(t.attempted, 10);
        assert_eq!(
            (t.transport, t.overloaded, t.bad_status, t.mismatched),
            (1, 1, 1, 1)
        );
        assert_eq!(t.failed(), 4);
        assert!((t.failed_ratio() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn overload_is_a_failure_and_expected_statuses_are_not() {
        assert_eq!(Tally::classify_status(200, 200), None);
        assert_eq!(Tally::classify_status(201, 201), None);
        assert_eq!(Tally::classify_status(429, 200), Some(Failure::Overloaded));
        assert_eq!(Tally::classify_status(200, 201), Some(Failure::Status(200)));
        let mut t = Tally::default();
        t.record(Tally::classify_status(429, 201));
        assert_eq!(t.failed_ratio(), 1.0);
        assert_eq!(Tally::default().failed_ratio(), 0.0);
    }
}
