//! Percentiles from raw per-op samples.
//!
//! Every timing is kept as one nanosecond sample per op and a sample
//! set is sorted when it is summarised, so a percentile is an observed
//! value, not a bucket edge.
//! A tail percentile is reported only when at least [`MIN_BEYOND`]
//! samples lie beyond it; with fewer samples the highest percentile of
//! [`LADDER`] that has them stands in, and the report names it.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first. A tail never goes above
/// p99, so a metric named `p99` means p99 whenever the run holds at
/// least 1000 samples.
pub const LADDER: [f64; 4] = [99.0, 95.0, 90.0, 50.0];

/// Median and tail of one sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median, in microseconds.
    pub p50_us: f64,
    /// Which percentile `tail_us` is.
    pub tail_pct: f64,
    /// The tail percentile, in microseconds.
    pub tail_us: f64,
}

impl Summary {
    /// Summarises nanosecond samples; `None` when there are none.
    #[must_use]
    pub fn of(mut samples: Vec<u64>) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let tail_pct = tail_pct(samples.len());
        Some(Summary {
            n: samples.len(),
            p50_us: percentile(&samples, 50.0) as f64 / 1e3,
            tail_pct,
            tail_us: percentile(&samples, tail_pct) as f64 / 1e3,
        })
    }

    /// `(median, tail)` in microseconds, zeros when `summary` is `None`.
    #[must_use]
    pub fn pair(summary: Option<Summary>) -> (f64, f64) {
        summary.map_or((0.0, 0.0), |s| (s.p50_us, s.tail_us))
    }

    /// One human-readable line for the run's detail report.
    #[must_use]
    pub fn describe(&self) -> String {
        format!(
            "n={} p50={:.1}us p{}={:.1}us",
            self.n, self.p50_us, self.tail_pct, self.tail_us
        )
    }
}

/// The 1-based nearest rank of percentile `pct` among `n` samples.
fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of sorted samples.
///
/// # Panics
///
/// If `sorted` is empty.
#[must_use]
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    sorted[rank(sorted.len(), pct) - 1]
}

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`]
/// of `n` samples beyond it; the median when none has.
#[must_use]
pub fn tail_pct(n: usize) -> f64 {
    LADDER
        .iter()
        .copied()
        .find(|&p| n >= 1 && n - rank(n, p) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// The median of plain values (mean of the middle two for even
/// counts); `0.0` for none.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of plain values (`0 <= q <= 1`), interpolating
/// linearly between the two nearest order statistics; `0.0` for none.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The quartile of per-window values on the side of better results:
/// the upper quartile of a rate, the lower quartile of a latency.
///
/// A shared host only ever slows a window down, so the windows a
/// neighbour disturbed gather on the slow side. This quartile moves
/// less with them than the median does, and still moves with every
/// change that slows down or speeds up most windows.
#[must_use]
pub fn fast_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    quantile(values, if higher_is_better { 0.75 } else { 0.25 })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1..=n microseconds, shuffled so sorting is exercised.
    fn samples(n: u64) -> Vec<u64> {
        let mut v: Vec<u64> = (1..=n).map(|i| i * 1_000).collect();
        v.reverse();
        v.swap(0, (n / 2) as usize);
        v
    }

    #[test]
    fn percentiles_are_observed_values() {
        let s = Summary::of(samples(1000)).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50_us, 500.0);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail_us, 990.0, "990 samples at or below, 10 beyond");
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 999 samples has only 9 beyond it: fall back to p95.
        assert_eq!(tail_pct(1000), 99.0);
        assert_eq!(tail_pct(999), 95.0);
        let s = Summary::of(samples(999)).unwrap();
        assert_eq!((s.tail_pct, s.tail_us), (95.0, 950.0));
        // p95 needs 200, p90 needs 100; below that only the median.
        assert_eq!(tail_pct(200), 95.0);
        assert_eq!(tail_pct(199), 90.0);
        assert_eq!(tail_pct(100), 90.0);
        assert_eq!(tail_pct(99), 50.0);
        assert_eq!(tail_pct(1), 50.0);
        // Never above p99, however many samples.
        assert_eq!(tail_pct(10_000_000), 99.0);
    }

    #[test]
    fn beyond_count_holds_on_a_fixed_set() {
        let v: Vec<u64> = [5, 1, 9, 3, 7, 2, 8, 6, 4, 10, 12, 11, 15, 14, 13]
            .into_iter()
            .cycle()
            .take(300)
            .collect();
        let mut sorted = v.clone();
        sorted.sort_unstable();
        let s = Summary::of(v).unwrap();
        let tail_ns = (s.tail_us * 1e3).round() as u64;
        let beyond = sorted.len() - rank(sorted.len(), s.tail_pct);
        assert!(beyond >= MIN_BEYOND);
        assert_eq!(s.tail_pct, 95.0);
        assert_eq!(tail_ns, 15);
        assert_eq!(s.p50_us * 1e3, 8.0);
    }

    #[test]
    fn empty_and_median() {
        assert_eq!(Summary::of(Vec::new()), None);
        assert_eq!(Summary::pair(None), (0.0, 0.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), median(&v));
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(fast_quartile(&v, true), 4.0);
        assert_eq!(fast_quartile(&v, false), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.75), 1.75);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
        assert_eq!(quantile(&[], 0.25), 0.0);
    }
}
