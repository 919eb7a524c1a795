//! A static metrics registry: named counters and log2-bucketed
//! histograms.
//!
//! Names come from the closed [`MetricName`] vocabulary, so registration
//! is free and the registry is an ordered map keyed by the rendered name
//! (deterministic render order). Like trace sinks, the registry takes
//! `&self` with interior mutability and never crosses a thread boundary.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::names::MetricName;

/// Bucket count for log2 histograms: bucket 0 holds the value 0 and
/// bucket `b >= 1` holds values in `[2^(b-1), 2^b)`; `u64::MAX` lands in
/// bucket 64.
pub const HISTO_BUCKETS: usize = 65;

enum Metric {
    Counter(u64),
    Histo(Box<[u64; HISTO_BUCKETS]>),
}

fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Largest value that lands in bucket `b` (the inclusive upper bound a
/// quantile estimate reports).
fn bucket_upper_bound(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// Quantile estimate over log2 buckets: the upper bound of the bucket
/// holding the `q`-th sample (`q` in `[0, 1]`). `None` on an empty
/// histogram. Bucketing makes this an over-estimate by at most 2x — fine
/// for the order-of-magnitude reads metrics dumps are for.
fn histo_quantile(h: &[u64; HISTO_BUCKETS], q: f64) -> Option<u64> {
    let total: u64 = h.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
    let mut cum = 0u64;
    for (b, count) in h.iter().enumerate() {
        cum += count;
        if cum >= rank {
            return Some(bucket_upper_bound(b));
        }
    }
    Some(u64::MAX)
}

/// Quantizes a bound-interval width (distances live in `[0, 1]` after
/// metric normalization) to integer nano-units for histogramming.
pub fn quantize_width(w: f64) -> u64 {
    (w.clamp(0.0, 1.0) * 1e9) as u64
}

/// An ordered registry of counters and log2 histograms.
#[derive(Default)]
pub struct Metrics {
    inner: RefCell<BTreeMap<&'static str, Metric>>,
}

impl Metrics {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to counter `name`, creating it at zero first. Names come
    /// from the closed vocabulary:
    ///
    /// ```
    /// # use prox_obs::{MetricName, Metrics};
    /// let m = Metrics::new();
    /// m.inc(MetricName::OracleCalls, 1);
    /// ```
    ///
    /// so a free-form (or typo'd) name does not compile:
    ///
    /// ```compile_fail
    /// # use prox_obs::{MetricName, Metrics};
    /// let m = Metrics::new();
    /// m.inc("oracle.callz", 1);
    /// ```
    pub fn inc(&self, name: MetricName, by: u64) {
        let mut m = self.inner.borrow_mut();
        match m.entry(name.as_str()).or_insert(Metric::Counter(0)) {
            Metric::Counter(c) => *c += by,
            // Name already registered as a histogram: drop the sample
            // rather than panic inside instrumentation.
            Metric::Histo(_) => {}
        }
    }

    /// Records `value` into histogram `name`, creating it empty first.
    pub fn observe(&self, name: MetricName, value: u64) {
        let mut m = self.inner.borrow_mut();
        match m
            .entry(name.as_str())
            .or_insert_with(|| Metric::Histo(Box::new([0; HISTO_BUCKETS])))
        {
            Metric::Histo(h) => h[bucket_of(value)] += 1,
            Metric::Counter(_) => {}
        }
    }

    /// Current value of counter `name` (0 if absent).
    pub fn counter(&self, name: MetricName) -> u64 {
        match self.inner.borrow().get(name.as_str()) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Bucket contents of histogram `name`, if registered.
    pub fn histogram(&self, name: MetricName) -> Option<[u64; HISTO_BUCKETS]> {
        match self.inner.borrow().get(name.as_str()) {
            Some(Metric::Histo(h)) => Some(**h),
            _ => None,
        }
    }

    /// Total samples recorded into histogram `name` (0 if absent).
    pub fn histogram_count(&self, name: MetricName) -> u64 {
        self.histogram(name).map(|h| h.iter().sum()).unwrap_or(0)
    }

    /// Quantile estimate for histogram `name`: the upper bound of the
    /// log2 bucket holding the `q`-th sample. `None` if the histogram is
    /// absent or empty.
    pub fn histogram_quantile(&self, name: MetricName, q: f64) -> Option<u64> {
        match self.inner.borrow().get(name.as_str()) {
            Some(Metric::Histo(h)) => histo_quantile(h, q),
            _ => None,
        }
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().is_empty()
    }

    /// Renders the registry as an aligned text table. Histograms print
    /// their sample count, p50/p99 bucket-bound estimates, then every
    /// non-empty `2^k` bucket.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let m = self.inner.borrow();
        let width = m.keys().map(|k| k.len()).max().unwrap_or(6).max(6);
        let mut out = String::new();
        let _ = writeln!(out, "{:width$}  value", "metric");
        for (name, metric) in m.iter() {
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{name:width$}  {c}");
                }
                Metric::Histo(h) => {
                    let total: u64 = h.iter().sum();
                    let _ = write!(out, "{name:width$}  n={total}");
                    if let (Some(p50), Some(p99)) =
                        (histo_quantile(h, 0.50), histo_quantile(h, 0.99))
                    {
                        let _ = write!(out, " p50<={p50} p99<={p99}");
                    }
                    for (b, count) in h.iter().enumerate().filter(|(_, c)| **c > 0) {
                        if b == 0 {
                            let _ = write!(out, " [0]={count}");
                        } else {
                            let _ = write!(out, " [2^{}]={count}", b - 1);
                        }
                    }
                    out.push('\n');
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use MetricName::{
        CascadeDegraded, OracleBackoffNs, OracleCalls, OracleFaults, OracleRetryDepth, ProbeWidth,
        SplubFullFallback,
    };

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn counters_and_histograms_register_lazily() {
        let m = Metrics::new();
        assert!(m.is_empty());
        m.inc(OracleCalls, 2);
        m.inc(OracleCalls, 3);
        m.observe(OracleRetryDepth, 0);
        m.observe(OracleRetryDepth, 4);
        assert_eq!(m.counter(OracleCalls), 5);
        assert_eq!(m.counter(OracleFaults), 0);
        let h = m.histogram(OracleRetryDepth).unwrap();
        assert_eq!(h[0], 1);
        assert_eq!(h[3], 1);
        assert_eq!(m.histogram_count(OracleRetryDepth), 2);
        assert!(m.histogram(OracleCalls).is_none());
    }

    #[test]
    fn width_quantization_clamps() {
        assert_eq!(quantize_width(0.0), 0);
        assert_eq!(quantize_width(-1.0), 0);
        assert_eq!(quantize_width(1.0), 1_000_000_000);
        assert_eq!(quantize_width(2.0), 1_000_000_000);
        assert_eq!(quantize_width(0.5), 500_000_000);
    }

    #[test]
    fn render_is_deterministic_and_ordered() {
        let m = Metrics::new();
        m.inc(SplubFullFallback, 1);
        m.inc(CascadeDegraded, 2);
        m.observe(ProbeWidth, 3);
        let r = m.render();
        let a = r.find("cascade.degraded").unwrap();
        let mh = r.find("probe.width").unwrap();
        let z = r.find("splub_full_fallback").unwrap();
        assert!(a < mh && mh < z, "BTreeMap order: {r}");
        assert!(
            r.contains("n=1 p50<=3 p99<=3 [2^1]=1"),
            "histogram render: {r}"
        );
    }

    #[test]
    fn quantiles_report_bucket_upper_bounds() {
        let m = Metrics::new();
        assert_eq!(m.histogram_quantile(ProbeWidth, 0.5), None);
        for _ in 0..99 {
            m.observe(OracleBackoffNs, 1); // bucket 1, upper bound 1
        }
        m.observe(OracleBackoffNs, 1000); // bucket 10, upper bound 1023
        assert_eq!(m.histogram_quantile(OracleBackoffNs, 0.50), Some(1));
        assert_eq!(m.histogram_quantile(OracleBackoffNs, 0.99), Some(1));
        assert_eq!(m.histogram_quantile(OracleBackoffNs, 1.0), Some(1023));
        assert_eq!(
            m.histogram_quantile(OracleBackoffNs, 0.0),
            Some(1),
            "clamped to first sample"
        );

        let z = Metrics::new();
        z.observe(ProbeWidth, 0);
        assert_eq!(z.histogram_quantile(ProbeWidth, 0.5), Some(0));
        let big = Metrics::new();
        big.observe(OracleRetryDepth, u64::MAX);
        assert_eq!(
            big.histogram_quantile(OracleRetryDepth, 0.5),
            Some(u64::MAX)
        );
    }
}
