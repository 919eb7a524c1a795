//! Point sets under Hausdorff distance — the image-comparison application.
//!
//! The paper's §1.1 motivates the framework with "image comparisons under
//! Hausdorff distance" [22]: each object is a set of feature points, and
//! one distance call is an `O(s²)` max-min sweep — a genuinely expensive
//! oracle. The Hausdorff distance is a metric on compact sets, so all
//! triangle-inequality machinery applies unchanged.

use prox_core::{Metric, ObjectId, TinyRng};

use crate::Dataset;

/// Objects are 2-D point clouds generated as jittered copies of a few base
/// "shapes" (mimicking images of the same scene class), measured with the
/// symmetric Hausdorff distance and normalized by the unit-square diameter.
#[derive(Clone, Debug)]
pub struct PointSets {
    /// Points per cloud.
    pub set_size: usize,
    /// Number of base shapes the clouds derive from.
    pub families: usize,
    /// Per-point jitter applied to each copy.
    pub jitter: f64,
}

impl Default for PointSets {
    fn default() -> Self {
        PointSets {
            set_size: 24,
            families: 6,
            jitter: 0.03,
        }
    }
}

/// The materialized metric: owned clouds, Hausdorff distance on demand.
#[derive(Clone, Debug)]
pub struct HausdorffMetric {
    sets: Vec<Vec<(f64, f64)>>,
}

impl HausdorffMetric {
    /// The generated clouds.
    pub fn sets(&self) -> &[Vec<(f64, f64)>] {
        &self.sets
    }
}

/// Directed Hausdorff: `max over a in A of min over b in B of |a - b|`.
fn directed(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
    let mut worst = 0.0f64;
    for &(ax, ay) in a {
        let mut best = f64::INFINITY;
        for &(bx, by) in b {
            let d2 = (ax - bx) * (ax - bx) + (ay - by) * (ay - by);
            if d2 < best {
                best = d2;
            }
        }
        if best > worst {
            worst = best;
        }
    }
    worst.sqrt()
}

/// Symmetric Hausdorff distance between two clouds.
pub fn hausdorff(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
    directed(a, b).max(directed(b, a))
}

impl Metric for HausdorffMetric {
    fn len(&self) -> usize {
        self.sets.len()
    }
    fn distance(&self, a: ObjectId, b: ObjectId) -> f64 {
        if a == b {
            return 0.0;
        }
        (hausdorff(&self.sets[a as usize], &self.sets[b as usize]) / std::f64::consts::SQRT_2)
            .min(1.0)
    }
}

impl PointSets {
    /// Generates `n` clouds.
    pub fn generate(&self, n: usize, seed: u64) -> HausdorffMetric {
        let mut rng = TinyRng::new(seed ^ 0x4A05_D0FF);
        let s = self.set_size.max(2);
        let shapes: Vec<Vec<(f64, f64)>> = (0..self.families.max(1))
            .map(|_| {
                (0..s)
                    .map(|_| (rng.f64_range(0.1, 0.9), rng.f64_range(0.1, 0.9)))
                    .collect()
            })
            .collect();
        let sets = (0..n)
            .map(|_| {
                let base = &shapes[rng.below(shapes.len())];
                base.iter()
                    .map(|&(x, y)| {
                        (
                            (x + rng.f64_range(-self.jitter, self.jitter)).clamp(0.0, 1.0),
                            (y + rng.f64_range(-self.jitter, self.jitter)).clamp(0.0, 1.0),
                        )
                    })
                    .collect()
            })
            .collect();
        HausdorffMetric { sets }
    }
}

impl Dataset for PointSets {
    fn name(&self) -> &'static str {
        "images"
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

    #[test]
    fn hausdorff_basics() {
        let a = vec![(0.0, 0.0), (1.0, 0.0)];
        let b = vec![(0.0, 0.0)];
        // Farthest point of a from b is (1,0) at distance 1; b ⊂ hull(a).
        assert!((hausdorff(&a, &b) - 1.0).abs() < 1e-12);
        assert_eq!(hausdorff(&a, &a), 0.0);
        // Symmetry.
        assert_eq!(hausdorff(&a, &b), hausdorff(&b, &a));
    }

    #[test]
    fn hausdorff_translation() {
        let a = vec![(0.0, 0.0), (0.5, 0.5)];
        let b: Vec<(f64, f64)> = a.iter().map(|&(x, y)| (x + 0.2, y)).collect();
        assert!((hausdorff(&a, &b) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn is_a_metric() {
        let m = PointSets {
            set_size: 8,
            families: 3,
            jitter: 0.05,
        }
        .generate(14, 5);
        assert!(MetricCheck::default().check(&m).is_clean());
    }

    #[test]
    fn family_structure_shows() {
        let m = PointSets::default().generate(30, 2);
        // Same-family pairs (low jitter) are much closer than the diameter.
        let mut close = 0;
        for p in prox_core::Pair::all(30) {
            if m.distance(p.lo(), p.hi()) < 0.1 {
                close += 1;
            }
        }
        assert!(close > 10, "jittered copies should cluster, got {close}");
    }
}
