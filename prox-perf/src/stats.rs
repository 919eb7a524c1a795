//! Medians, tail percentiles, quartile spreads and latency histograms.
//!
//! Every timing the benchmark reports goes through one rule: a percentile
//! is reported only when at least [`MIN_BEYOND`] samples lie beyond it, so
//! an 11-sample run can report its median but never a fake p99.

use std::cell::Cell;

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried by [`Summary::of`], highest first, in tenths of
/// a percent.
const TAIL_LADDER: [u32; 4] = [999, 990, 950, 900];

/// 1-based nearest-rank position of the `q_milli`/1000 quantile among
/// `count` samples.
fn rank(count: usize, q_milli: u32) -> usize {
    (count * q_milli as usize).div_ceil(1000).max(1)
}

/// True when `count` samples leave at least [`MIN_BEYOND`] beyond the
/// `q_milli`/1000 quantile.
fn supports(count: usize, q_milli: u32) -> bool {
    count > 0 && count - rank(count, q_milli) >= MIN_BEYOND
}

/// Arithmetic mean of `values` (0 for none).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank `q_milli`/1000 quantile of `values`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], q_milli: u32) -> Option<f64> {
    if !supports(values.len(), q_milli) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), q_milli) - 1])
}

/// A timing reported the way the benchmark reports every timing.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Their median.
    pub median: f64,
    /// The highest ladder percentile (in tenths of a percent) with at
    /// least [`MIN_BEYOND`] samples beyond it, and its value.
    pub tail: Option<(u32, f64)>,
}

impl Summary {
    /// Summarizes `values`.
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            count: values.len(),
            median: median(values),
            tail: TAIL_LADDER
                .iter()
                .find_map(|&q| percentile(values, q).map(|v| (q, v))),
        }
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the default "exclusive" method), so spreads printed here match the
/// ones any external check computes from the same values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return [x; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median: the run-to-run spread of a metric.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Linear sub-buckets per power of two in [`LogHist`].
const SUB: u64 = 16;
/// Bucket count covering every `u64`.
const BUCKETS: usize = (SUB + (64 - 4) * SUB) as usize;

/// A log2 histogram of nanosecond durations with 16 linear sub-buckets per
/// octave (≤ 6.25 % bucket width). Fine-grained layers record millions of
/// calls per run; this keeps their percentiles at a fixed memory cost.
pub struct LogHist {
    counts: Box<[Cell<u64>]>,
    total: Cell<u64>,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            counts: (0..BUCKETS).map(|_| Cell::new(0)).collect(),
            total: Cell::new(0),
        }
    }
}

impl LogHist {
    fn index(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let octave = 63 - u64::from(ns.leading_zeros());
        let sub = (ns >> (octave - 4)) - SUB;
        (SUB + (octave - 4) * SUB + sub) as usize
    }

    /// `[lo, hi)` of bucket `i`.
    fn range(i: usize) -> (f64, f64) {
        let i = i as u64;
        if i < SUB {
            return (i as f64, (i + 1) as f64);
        }
        let octave = (i - SUB) / SUB + 4;
        let sub = (i - SUB) % SUB;
        let width = (1u64 << (octave - 4)) as f64;
        let lo = (SUB + sub) as f64 * width;
        (lo, lo + width)
    }

    /// Records one duration.
    #[inline]
    pub fn record(&self, ns: u64) {
        let c = &self.counts[Self::index(ns)];
        c.set(c.get() + 1);
        self.total.set(self.total.get() + 1);
    }

    /// The `q_milli`/1000 quantile, interpolated inside its bucket by rank,
    /// or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it (the
    /// median is always reported for a non-empty histogram).
    pub fn quantile(&self, q_milli: u32) -> Option<f64> {
        let total = self.total.get() as usize;
        if total == 0 || (q_milli != 500 && !supports(total, q_milli)) {
            return None;
        }
        let r = rank(total, q_milli) as u64;
        let mut before = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            let c = c.get();
            if before + c >= r {
                let (lo, hi) = Self::range(i);
                let frac = ((r - before) as f64 - 0.5) / c as f64;
                return Some(lo + (hi - lo) * frac);
            }
            before += c;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_runs_report_a_median_but_no_tail() {
        let runs: Vec<f64> = (1..=11).map(f64::from).collect();
        let s = Summary::of(&runs);
        assert_eq!(s.count, 11);
        assert_eq!(s.median, 6.0);
        assert_eq!(s.tail, None, "11 samples cannot support any tail");
        assert_eq!(percentile(&runs, 990), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn large_runs_report_the_highest_supported_tail() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&thousand);
        assert_eq!(s.median, 500.5);
        assert_eq!(s.tail, Some((990, 990.0)), "exactly ten samples beyond p99");
        // One sample fewer: p99 loses its tenth witness, p95 is next.
        let s = Summary::of(&thousand[..999]);
        assert_eq!(s.tail, Some((950, 950.0)));
        let ten_k: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(Summary::of(&ten_k).tail, Some((999, 9990.0)));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 9], n=4) == [1.5, 4.0, 8.5]
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 2.0, 9.0]), [1.5, 4.0, 8.5]);
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_cover_their_samples() {
        for ns in [0u64, 1, 15, 16, 17, 31, 32, 1000, 123_456, u64::MAX / 3] {
            let (lo, hi) = LogHist::range(LogHist::index(ns));
            assert!(
                lo <= ns as f64 && (ns as f64) < hi,
                "{ns} not in [{lo}, {hi})"
            );
        }
        assert!(LogHist::index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn histogram_quantiles_track_exact_ones() {
        let h = LogHist::default();
        let samples: Vec<f64> = (0..5000u64).map(|i| (100 + i * 7) as f64).collect();
        for &s in &samples {
            h.record(s as u64);
        }
        assert_eq!(h.total.get(), 5000);
        for q in [500, 990] {
            let exact = percentile(&samples, q).unwrap();
            let approx = h.quantile(q).unwrap();
            assert!(
                (approx - exact).abs() / exact < 0.07,
                "q{q}: {approx} vs {exact}"
            );
        }
        assert_eq!(h.quantile(999), None, "5000 samples leave 5 beyond p99.9");
        assert_eq!(LogHist::default().quantile(500), None);
    }
}
