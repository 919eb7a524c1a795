//! Clustered planar points under L1 distance — the SF POI stand-in.

use prox_core::{Metric, ObjectId, TinyRng};

use crate::Dataset;

/// Points-of-interest clustered like a city: a Gaussian mixture in the unit
/// square, measured with **L1 (taxicab) distance** — the classic proxy for
/// grid-street driving distance, and a genuine metric.
///
/// Distances are normalized by the L1 diameter of the square (2.0) so every
/// value lies in `[0, 1]`.
#[derive(Clone, Debug)]
pub struct ClusteredPlane {
    /// Number of Gaussian clusters the points are drawn from.
    pub clusters: usize,
    /// Standard deviation of each cluster.
    pub spread: f64,
}

impl Default for ClusteredPlane {
    fn default() -> Self {
        ClusteredPlane {
            clusters: 12,
            spread: 0.05,
        }
    }
}

/// The materialized metric: owned points, distance evaluated on demand.
#[derive(Clone, Debug)]
pub struct PlaneMetric {
    points: Vec<(f64, f64)>,
}

impl PlaneMetric {
    /// The generated coordinates (for plotting / examples).
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }
}

impl Metric for PlaneMetric {
    fn len(&self) -> usize {
        self.points.len()
    }
    fn distance(&self, a: ObjectId, b: ObjectId) -> f64 {
        let (ax, ay) = self.points[a as usize];
        let (bx, by) = self.points[b as usize];
        ((ax - bx).abs() + (ay - by).abs()) / 2.0
    }
}

/// User-supplied planar points under Euclidean distance, normalized by the
/// unit-square diagonal (`√2`) so coordinates in `[0, 1]²` give distances
/// in `[0, 1]`. The L2 counterpart of [`PlaneMetric`]'s L1 — useful when an
/// application already has coordinates and only the *oracle-call metering*
/// of this workspace is wanted.
#[derive(Clone, Debug)]
pub struct EuclideanPoints {
    points: Vec<(f64, f64)>,
}

impl EuclideanPoints {
    /// Wraps the given coordinates.
    pub fn new(points: Vec<(f64, f64)>) -> Self {
        EuclideanPoints { points }
    }

    /// The wrapped coordinates.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }
}

impl Metric for EuclideanPoints {
    fn len(&self) -> usize {
        self.points.len()
    }
    fn distance(&self, a: ObjectId, b: ObjectId) -> f64 {
        let (ax, ay) = self.points[a as usize];
        let (bx, by) = self.points[b as usize];
        (((ax - bx).powi(2) + (ay - by).powi(2)).sqrt() / std::f64::consts::SQRT_2).min(1.0)
    }
}

impl ClusteredPlane {
    /// Generates the point set for `n` objects.
    pub fn generate(&self, n: usize, seed: u64) -> PlaneMetric {
        let mut rng = TinyRng::new(seed ^ 0x5f3_7a11);
        let centers: Vec<(f64, f64)> = (0..self.clusters.max(1))
            .map(|_| (rng.f64_range(0.1, 0.9), rng.f64_range(0.1, 0.9)))
            .collect();
        // Normal draws around a seeded-random center, clamped to the unit
        // square.
        let points = (0..n)
            .map(|_| {
                let (cx, cy) = centers[rng.below(centers.len())];
                let x = (cx + self.spread * rng.normal()).clamp(0.0, 1.0);
                let y = (cy + self.spread * rng.normal()).clamp(0.0, 1.0);
                (x, y)
            })
            .collect();
        PlaneMetric { points }
    }
}

impl Dataset for ClusteredPlane {
    fn name(&self) -> &'static str {
        "sf"
    }
    fn metric(&self, n: usize, seed: u64) -> Box<dyn Metric + Send + Sync> {
        Box::new(self.generate(n, seed))
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "un-metered ground truth")]
mod tests {
    use super::*;
    use prox_core::metric::MetricCheck;
    use prox_core::Pair;

    #[test]
    fn distances_in_unit_interval() {
        let m = ClusteredPlane::default().generate(50, 1);
        for p in Pair::all(50) {
            let d = m.distance(p.lo(), p.hi());
            assert!((0.0..=1.0).contains(&d));
        }
    }

    #[test]
    fn l1_is_a_metric() {
        let m = ClusteredPlane::default().generate(20, 2);
        assert!(MetricCheck::default().check(&m).is_clean());
    }

    #[test]
    fn clustering_produces_structure() {
        // With tight clusters, many pairs must be much closer than the
        // average — the property pruning exploits.
        let m = ClusteredPlane {
            clusters: 4,
            spread: 0.01,
        }
        .generate(100, 3);
        let mut close = 0;
        let mut total = 0;
        for p in Pair::all(100) {
            total += 1;
            if m.distance(p.lo(), p.hi()) < 0.05 {
                close += 1;
            }
        }
        assert!(
            close * 5 > total,
            "expected >20% of pairs inside clusters, got {close}/{total}"
        );
    }
}
