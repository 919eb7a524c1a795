//! Ground-truth metrics.
//!
//! A [`Metric`] is the *truth* about pairwise distances. Algorithms never
//! touch it directly — they go through an [`crate::Oracle`], which wraps a
//! metric and meters access. Keeping the two separate makes the accounting
//! in the paper's experiments airtight: every distance an algorithm learns
//! is a counted oracle call.

#![expect(clippy::disallowed_methods, reason = "the Metric trait's own code")]

use crate::{ObjectId, Pair, PairMap};

/// A distance function over `n` atomic objects satisfying the metric axioms
/// (identity, symmetry, triangle inequality).
///
/// Distances are expected to be normalized into `[0, max_distance()]`;
/// all bound schemes initialize unknown upper bounds to `max_distance()`
/// exactly as the paper initializes them to `1`.
pub trait Metric {
    /// Number of objects in the space; valid ids are `0..len()`.
    fn len(&self) -> usize;

    /// True when the space is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ground-truth distance between two objects.
    ///
    /// Implementations must be symmetric and return `0.0` iff `a == b`.
    fn distance(&self, a: ObjectId, b: ObjectId) -> f64;

    /// An a-priori upper bound on any pairwise distance (the paper assumes
    /// distances normalized to `[0, 1]`).
    fn max_distance(&self) -> f64 {
        1.0
    }
}

impl<M: Metric + ?Sized> Metric for &M {
    fn len(&self) -> usize {
        (**self).len()
    }
    fn distance(&self, a: ObjectId, b: ObjectId) -> f64 {
        (**self).distance(a, b)
    }
    fn max_distance(&self) -> f64 {
        (**self).max_distance()
    }
}

impl<M: Metric + ?Sized> Metric for Box<M> {
    fn len(&self) -> usize {
        (**self).len()
    }
    fn distance(&self, a: ObjectId, b: ObjectId) -> f64 {
        (**self).distance(a, b)
    }
    fn max_distance(&self) -> f64 {
        (**self).max_distance()
    }
}

/// A metric defined by a closure plus a size. Convenient in tests and for
/// wrapping expensive ad-hoc oracles (edit distance, API shims).
pub struct FnMetric<F> {
    n: usize,
    max_distance: f64,
    f: F,
}

impl<F: Fn(ObjectId, ObjectId) -> f64> FnMetric<F> {
    /// Wraps `f` as a metric over `n` objects with distances in
    /// `[0, max_distance]`.
    pub fn new(n: usize, max_distance: f64, f: F) -> Self {
        FnMetric { n, max_distance, f }
    }
}

impl<F: Fn(ObjectId, ObjectId) -> f64> Metric for FnMetric<F> {
    fn len(&self) -> usize {
        self.n
    }
    fn distance(&self, a: ObjectId, b: ObjectId) -> f64 {
        if a == b {
            0.0
        } else {
            (self.f)(a, b)
        }
    }
    fn max_distance(&self) -> f64 {
        self.max_distance
    }
}

/// A metric materialized as a dense upper-triangular matrix.
///
/// This is how the ground truth for road-network datasets is stored after
/// the all-pairs precomputation (the paper likewise ships precomputed
/// pairwise distances for SF POI / UrbanGB).
#[derive(Clone, Debug)]
pub struct MatrixMetric {
    dists: PairMap<f64>,
    max_distance: f64,
}

impl MatrixMetric {
    /// Builds a matrix metric from per-pair distances.
    ///
    /// `max_distance` is the normalization cap reported by
    /// [`Metric::max_distance`]; it must dominate every entry.
    pub fn new(dists: PairMap<f64>, max_distance: f64) -> Self {
        debug_assert!(
            dists.iter().all(|(_, d)| (0.0..=max_distance).contains(&d)),
            "distances must lie in [0, max_distance]"
        );
        MatrixMetric {
            dists,
            max_distance,
        }
    }

    /// Materializes any metric into a matrix (calls `metric.distance` for
    /// every pair — use only for moderate `n`).
    pub fn from_metric<M: Metric>(metric: &M) -> Self {
        let n = metric.len();
        let mut dists = PairMap::new(n, 0.0);
        for p in Pair::all(n) {
            dists.set(p, metric.distance(p.lo(), p.hi()));
        }
        MatrixMetric {
            dists,
            max_distance: metric.max_distance(),
        }
    }
}

impl Metric for MatrixMetric {
    fn len(&self) -> usize {
        self.dists.n()
    }
    fn distance(&self, a: ObjectId, b: ObjectId) -> f64 {
        if a == b {
            0.0
        } else {
            self.dists.get(Pair::new(a, b))
        }
    }
    fn max_distance(&self) -> f64 {
        self.max_distance
    }
}

/// Validation report produced by [`MetricCheck::check`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricViolations {
    /// Pairs where `distance(a, b) != distance(b, a)`.
    pub asymmetric: Vec<(ObjectId, ObjectId)>,
    /// Objects where `distance(a, a) != 0`.
    pub nonzero_self: Vec<ObjectId>,
    /// Triples `(a, b, c)` where `d(a,b) > d(a,c) + d(c,b)` beyond tolerance.
    pub triangle: Vec<(ObjectId, ObjectId, ObjectId)>,
    /// Pairs whose distance exceeds `max_distance()` or is negative/NaN.
    pub out_of_range: Vec<(ObjectId, ObjectId)>,
}

impl MetricViolations {
    /// True when no axiom is violated.
    pub fn is_clean(&self) -> bool {
        self.asymmetric.is_empty()
            && self.nonzero_self.is_empty()
            && self.triangle.is_empty()
            && self.out_of_range.is_empty()
    }
}

/// Exhaustive metric-axiom checker (O(n^3)); used by dataset generators'
/// tests to certify that every synthetic workload really is a metric, since
/// all pruning guarantees rest on the triangle inequality.
pub struct MetricCheck {
    /// Absolute slack allowed on the triangle inequality to absorb float
    /// rounding in generators.
    pub tolerance: f64,
}

impl Default for MetricCheck {
    fn default() -> Self {
        MetricCheck { tolerance: 1e-9 }
    }
}

impl MetricCheck {
    /// Checks every axiom on every pair/triple of `metric`.
    pub fn check<M: Metric>(&self, metric: &M) -> MetricViolations {
        let n = metric.len();
        let mut v = MetricViolations::default();
        for a in 0..n as ObjectId {
            if metric.distance(a, a) != 0.0 {
                v.nonzero_self.push(a);
            }
        }
        let maxd = metric.max_distance();
        for p in Pair::all(n) {
            let (a, b) = p.ends();
            let d = metric.distance(a, b);
            let dr = metric.distance(b, a);
            if d != dr {
                v.asymmetric.push((a, b));
            }
            if !(0.0..=maxd + self.tolerance).contains(&d) || d.is_nan() {
                v.out_of_range.push((a, b));
            }
        }
        for a in 0..n as ObjectId {
            for b in (a + 1)..n as ObjectId {
                let dab = metric.distance(a, b);
                for c in 0..n as ObjectId {
                    if c == a || c == b {
                        continue;
                    }
                    if dab > metric.distance(a, c) + metric.distance(c, b) + self.tolerance {
                        v.triangle.push((a, b, c));
                    }
                }
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_metric(n: usize) -> FnMetric<impl Fn(ObjectId, ObjectId) -> f64> {
        // Points 0..n on a line, scaled into [0,1]: trivially a metric.
        let scale = 1.0 / (n as f64 - 1.0);
        FnMetric::new(n, 1.0, move |a, b| {
            (f64::from(a) - f64::from(b)).abs() * scale
        })
    }

    #[test]
    fn fn_metric_zero_on_diagonal() {
        let m = line_metric(5);
        for a in 0..5 {
            assert_eq!(m.distance(a, a), 0.0);
        }
    }

    #[test]
    fn line_metric_passes_check() {
        let m = line_metric(9);
        assert!(MetricCheck::default().check(&m).is_clean());
    }

    #[test]
    fn check_flags_triangle_violation() {
        // d(0,1)=1 but d(0,2)+d(2,1)=0.2: blatant violation.
        let m = FnMetric::new(3, 1.0, |a, b| match Pair::new(a, b).ends() {
            (0, 1) => 1.0,
            _ => 0.1,
        });
        let v = MetricCheck::default().check(&m);
        assert!(!v.triangle.is_empty());
        assert!(!v.is_clean());
    }

    #[test]
    fn check_flags_asymmetry() {
        let m = FnMetric::new(2, 1.0, |a, _b| if a == 0 { 0.3 } else { 0.4 });
        let v = MetricCheck::default().check(&m);
        assert_eq!(v.asymmetric, vec![(0, 1)]);
    }

    #[test]
    fn matrix_metric_matches_source() {
        let src = line_metric(8);
        let mat = MatrixMetric::from_metric(&src);
        assert_eq!(mat.len(), 8);
        for p in Pair::all(8) {
            let (a, b) = p.ends();
            assert_eq!(mat.distance(a, b), src.distance(a, b));
            assert_eq!(mat.distance(b, a), src.distance(a, b));
        }
        assert!(MetricCheck::default().check(&mat).is_clean());
    }
}
