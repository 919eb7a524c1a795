//! Synthetic metric-space workloads.
//!
//! The paper evaluates on three real datasets whose raw distances come from
//! third-party oracles (Google Maps driving distance for SF POI / UrbanGB,
//! 256-d Euclidean for Flickr1M). Those sources are unavailable offline, so
//! this crate generates *faithful stand-ins* — each one a certified metric
//! (checked by `MetricCheck` in tests), seeded and reproducible:
//!
//! | Paper dataset | Stand-in | Character preserved |
//! |---|---|---|
//! | SF POI (Google Maps) | [`ClusteredPlane`] — Gaussian POI clusters under L1 ("taxicab") distance | clustered geography, non-Euclidean driving-style metric |
//! | UrbanGB (Google Maps) | [`RoadNetwork`] — shortest paths over a random road graph | true network metric: distances concentrate, triangles are tight |
//! | Flickr1M (256-d) | [`RandomVectors`] — Gaussian-mixture vectors, Euclidean | high-dimensional concentration |
//! | (motivating apps) | [`StringSet`] — Levenshtein distance over mutated strings | genuinely expensive oracle |
//! | (motivating apps) | [`PointSets`] — Hausdorff distance over jittered point clouds | the paper's image-comparison setting; `O(s²)` per call |
//!
//! All metrics are normalized into `[0, 1]`, matching the paper's setup
//! where every distance lies in the unit interval.
//!
//! Degenerate configurations (zero jitter / zero mutation rate, or unlucky
//! draws) can emit *exact duplicates* — then the space is a pseudometric
//! (`d(a, b) = 0` for distinct `a, b`). Every algorithm and index in the
//! workspace tolerates zero distances between distinct ids; the generators'
//! default parameters make duplicates improbable but not impossible.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::print_stdout, clippy::print_stderr)]

pub mod plane;
pub mod pointsets;
pub mod roadnet;
pub mod strings;
pub mod testgen;
pub mod vectors;

pub use plane::{ClusteredPlane, EuclideanPoints};
pub use pointsets::{hausdorff, HausdorffMetric, PointSets};
pub use roadnet::{RoadGraph, RoadNetwork};
pub use strings::StringSet;
pub use vectors::RandomVectors;

use prox_core::Metric;

/// A reproducible workload generator: `n` objects, a seed, a metric.
pub trait Dataset {
    /// Short identifier used in experiment output ("sf", "urbangb", …).
    fn name(&self) -> &'static str;

    /// Builds the ground-truth metric for `n` objects.
    fn metric(&self, n: usize, seed: u64) -> Box<dyn Metric + Send + Sync>;
}

/// The three paper datasets by name, for experiment harnesses.
pub fn by_name(name: &str) -> Option<Box<dyn Dataset>> {
    match name {
        "sf" => Some(Box::new(ClusteredPlane::default())),
        "urbangb" => Some(Box::new(RoadNetwork::default())),
        "flickr" => Some(Box::new(RandomVectors::default())),
        "strings" => Some(Box::new(StringSet::default())),
        "images" => Some(Box::new(PointSets::default())),
        _ => None,
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "un-metered ground truth")]
mod tests {
    use super::*;

    #[test]
    fn registry_resolves_all_datasets() {
        for name in ["sf", "urbangb", "flickr", "strings", "images"] {
            let ds = by_name(name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(ds.name(), name);
            let m = ds.metric(12, 7);
            assert_eq!(m.len(), 12);
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn all_datasets_are_metrics() {
        use prox_core::metric::MetricCheck;
        for name in ["sf", "urbangb", "flickr", "strings", "images"] {
            let m = by_name(name).unwrap().metric(16, 3);
            let v = MetricCheck { tolerance: 1e-9 }.check(&m);
            assert!(v.is_clean(), "{name} violates metric axioms: {v:?}");
        }
    }

    #[test]
    fn datasets_are_seed_deterministic() {
        for name in ["sf", "urbangb", "flickr", "strings", "images"] {
            let ds = by_name(name).unwrap();
            let m1 = ds.metric(10, 99);
            let m2 = ds.metric(10, 99);
            let m3 = ds.metric(10, 100);
            let mut any_diff = false;
            for p in prox_core::Pair::all(10) {
                let (a, b) = p.ends();
                assert_eq!(
                    m1.distance(a, b),
                    m2.distance(a, b),
                    "{name} not deterministic"
                );
                any_diff |= (m1.distance(a, b) - m3.distance(a, b)).abs() > 1e-12;
            }
            assert!(any_diff, "{name}: different seeds should differ");
        }
    }
}
