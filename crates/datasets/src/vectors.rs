//! High-dimensional vectors under Euclidean distance — the Flickr1M stand-in.

use prox_core::{Metric, ObjectId, TinyRng};

use crate::Dataset;

/// Feature vectors drawn from a Gaussian mixture (images cluster by visual
/// theme), measured with Euclidean distance and normalized by the diameter
/// of the bounding box so values stay in `[0, 1]`.
///
/// Real image descriptors occupy a low-dimensional *manifold* inside their
/// raw coordinate space; full-rank Gaussian noise instead concentrates all
/// pairwise distances and makes triangle pruning useless (the curse of
/// dimensionality — see the `photo_clustering` example). The generator
/// therefore spreads each cluster along only [`RandomVectors::intrinsic`]
/// random directions: the ambient dimensionality stays at `dim` (the
/// distance function touches all coordinates) while the distance structure
/// matches descriptor-like data.
#[derive(Clone, Debug)]
pub struct RandomVectors {
    /// Ambient dimensionality (the paper's Flickr1M uses 256).
    pub dim: usize,
    /// Number of mixture components.
    pub clusters: usize,
    /// Component standard deviation along each intrinsic direction.
    pub spread: f64,
    /// Intrinsic dimensionality of each cluster's spread (`<= dim`).
    pub intrinsic: usize,
}

impl Default for RandomVectors {
    fn default() -> Self {
        RandomVectors {
            dim: 256,
            clusters: 16,
            spread: 0.08,
            intrinsic: 8,
        }
    }
}

/// The materialized metric: a flat row-major matrix of coordinates.
#[derive(Clone, Debug)]
pub struct VectorMetric {
    dim: usize,
    data: Vec<f64>,
    inv_diameter: f64,
}

impl VectorMetric {
    /// Row view of object `i`.
    pub fn vector(&self, i: ObjectId) -> &[f64] {
        let d = self.dim;
        &self.data[i as usize * d..(i as usize + 1) * d]
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

impl Metric for VectorMetric {
    fn len(&self) -> usize {
        self.data.len() / self.dim
    }
    fn distance(&self, a: ObjectId, b: ObjectId) -> f64 {
        let va = self.vector(a);
        let vb = self.vector(b);
        let sq: f64 = va
            .iter()
            .zip(vb.iter())
            .map(|(x, y)| (x - y) * (x - y))
            .sum();
        (sq.sqrt() * self.inv_diameter).min(1.0)
    }
}

impl RandomVectors {
    /// Generates `n` vectors.
    pub fn generate(&self, n: usize, seed: u64) -> VectorMetric {
        let mut rng = TinyRng::new(seed ^ 0xF11C_4A2B);
        let dim = self.dim.max(1);
        let clusters = self.clusters.max(1);
        let centers: Vec<Vec<f64>> = (0..clusters)
            .map(|_| (0..dim).map(|_| rng.f64_range(0.2, 0.8)).collect())
            .collect();
        let intrinsic = self.intrinsic.clamp(1, dim);
        // Per-cluster basis of `intrinsic` random unit directions.
        let bases: Vec<Vec<Vec<f64>>> = (0..clusters)
            .map(|_| {
                (0..intrinsic)
                    .map(|_| {
                        let mut rng2 = TinyRng::new(rng.next_u64());
                        let v: Vec<f64> = (0..dim).map(|_| rng2.normal()).collect();
                        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
                        v.into_iter().map(|x| x / norm).collect()
                    })
                    .collect()
            })
            .collect();
        let mut data = Vec::with_capacity(n * dim);
        let mut point = vec![0.0f64; dim];
        for _ in 0..n {
            let which = rng.below(clusters);
            let c = &centers[which];
            point.copy_from_slice(c);
            for dir in &bases[which] {
                let coef = self.spread * rng.normal();
                for (x, &dv) in point.iter_mut().zip(dir.iter()) {
                    *x += coef * dv;
                }
            }
            for &x in &point {
                data.push(x.clamp(0.0, 1.0));
            }
        }
        VectorMetric {
            dim,
            data,
            // Diameter of [0,1]^dim is sqrt(dim).
            inv_diameter: 1.0 / (dim as f64).sqrt(),
        }
    }
}

impl Dataset for RandomVectors {
    fn name(&self) -> &'static str {
        "flickr"
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
    fn euclidean_is_a_metric() {
        let m = RandomVectors {
            dim: 16,
            clusters: 3,
            spread: 0.1,
            intrinsic: 4,
        }
        .generate(18, 5);
        assert!(MetricCheck::default().check(&m).is_clean());
    }

    #[test]
    fn normalized_range() {
        let m = RandomVectors::default().generate(30, 7);
        for p in Pair::all(30) {
            let d = m.distance(p.lo(), p.hi());
            assert!((0.0..=1.0).contains(&d), "{p:?}: {d}");
            assert!(d > 0.0, "distinct draws should not coincide");
        }
    }

    #[test]
    fn vector_accessor_shapes() {
        let m = RandomVectors {
            dim: 8,
            clusters: 2,
            spread: 0.05,
            intrinsic: 2,
        }
        .generate(5, 1);
        assert_eq!(m.len(), 5);
        assert_eq!(m.dim(), 8);
        assert_eq!(m.vector(4).len(), 8);
    }
}
