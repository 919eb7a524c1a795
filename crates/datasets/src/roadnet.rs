//! Road-network shortest-path metric — the UrbanGB stand-in.

use prox_core::{MatrixMetric, Metric, ObjectId, Pair, PairMap, TinyRng};
use prox_graph::{Adjacency, Dijkstra};

use crate::Dataset;

/// A sparse undirected road graph in CSR form.
#[derive(Clone, Debug)]
pub struct RoadGraph {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<f64>,
    coords: Vec<(f64, f64)>,
}

impl RoadGraph {
    /// Generates a jittered `side × side` grid with 4-neighbour streets and
    /// a sprinkle of diagonal "shortcut" roads. Edge weights are Euclidean
    /// lengths scaled by a per-edge congestion factor in `[1, 1.5]` — the
    /// shortest-path closure over any positive weights is a metric.
    pub fn generate(side: usize, seed: u64) -> RoadGraph {
        let mut rng = TinyRng::new(seed ^ 0x60D_64A9);
        let n = side * side;
        let cell = 1.0 / side as f64;
        let coords: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let (gx, gy) = (i % side, i / side);
                (
                    (gx as f64 + 0.5 + rng.f64_range(-0.3, 0.3)) * cell,
                    (gy as f64 + 0.5 + rng.f64_range(-0.3, 0.3)) * cell,
                )
            })
            .collect();

        let mut adj: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        let connect = |adj: &mut Vec<Vec<(u32, f64)>>, a: usize, b: usize, f: f64| {
            let (ax, ay) = coords[a];
            let (bx, by) = coords[b];
            let w = (((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()) * f;
            adj[a].push((b as u32, w));
            adj[b].push((a as u32, w));
        };
        for gy in 0..side {
            for gx in 0..side {
                let i = gy * side + gx;
                if gx + 1 < side {
                    let f = rng.f64_range(1.0, 1.5);
                    connect(&mut adj, i, i + 1, f);
                }
                if gy + 1 < side {
                    let f = rng.f64_range(1.0, 1.5);
                    connect(&mut adj, i, i + side, f);
                }
            }
        }
        // Shortcut roads (ring roads / motorways): ~5% of nodes get a
        // diagonal to a node a few cells away.
        for _ in 0..(n / 20).max(1) {
            let a = rng.below(n);
            let dx = rng.range(1, 3.min(side - 1) + 1);
            let dy = rng.range(1, 3.min(side - 1) + 1);
            let gx = (a % side + dx) % side;
            let gy = (a / side + dy) % side;
            let b = gy * side + gx;
            if a != b {
                let f = rng.f64_range(1.0, 1.2);
                connect(&mut adj, a, b, f);
            }
        }

        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::new();
        let mut weights = Vec::new();
        offsets.push(0u32);
        for list in &adj {
            for &(t, w) in list {
                targets.push(t);
                weights.push(w);
            }
            offsets.push(targets.len() as u32);
        }
        RoadGraph {
            offsets,
            targets,
            weights,
            coords,
        }
    }

    /// Node coordinates.
    pub fn coords(&self) -> &[(f64, f64)] {
        &self.coords
    }

    /// Number of (directed) adjacency entries.
    pub fn arcs(&self) -> usize {
        self.targets.len()
    }
}

impl Adjacency for RoadGraph {
    fn n(&self) -> usize {
        self.coords.len()
    }
    fn for_each_neighbor(&self, v: ObjectId, f: &mut dyn FnMut(ObjectId, f64)) {
        let (s, e) = (
            self.offsets[v as usize] as usize,
            self.offsets[v as usize + 1] as usize,
        );
        for i in s..e {
            f(self.targets[i], self.weights[i]);
        }
    }
}

/// The UrbanGB stand-in: POIs sampled on a road graph, ground-truth
/// distances = shortest paths, precomputed per POI and normalized to
/// `[0, 1]`.
///
/// The paper's setup is identical in spirit: ground-truth pairwise driving
/// distances are materialized once, and the per-call *cost* of the Google
/// Maps oracle is modelled separately (`Oracle::with_cost`).
#[derive(Clone, Debug)]
pub struct RoadNetwork {
    /// Road-graph nodes per POI (graph has `density × n` nodes, min 64).
    pub density: usize,
}

impl Default for RoadNetwork {
    fn default() -> Self {
        RoadNetwork { density: 3 }
    }
}

impl RoadNetwork {
    /// Builds the ground-truth metric for `n` POIs.
    pub fn generate(&self, n: usize, seed: u64) -> MatrixMetric {
        let nodes = (self.density * n).max(64);
        let side = (nodes as f64).sqrt().ceil() as usize;
        let graph = RoadGraph::generate(side, seed);
        let total = graph.n();

        let mut rng = TinyRng::new(seed ^ 0x9_01AF);
        // Sample n distinct POI nodes.
        let mut perm: Vec<u32> = (0..total as u32).collect();
        for i in 0..n {
            let j = rng.range(i, total);
            perm.swap(i, j);
        }
        let pois = &perm[..n];

        // One Dijkstra per POI over the road graph.
        let mut dists = PairMap::new(n, 0.0f64);
        let mut dij = Dijkstra::new(total);
        let mut max_d = 0.0f64;
        for (i, &src) in pois.iter().enumerate() {
            let d = dij.run(&graph, src);
            for (j, &dst) in pois.iter().enumerate().skip(i + 1) {
                let v = d.get(dst);
                assert!(v.is_finite(), "road graph must be connected");
                dists.set(Pair::new(i as u32, j as u32), v);
                max_d = max_d.max(v);
            }
        }
        // Normalize into [0, 1]; scaling preserves the metric axioms.
        if max_d > 0.0 {
            let inv = 1.0 / max_d;
            let mut scaled = PairMap::new(n, 0.0f64);
            for (p, v) in dists.iter() {
                scaled.set(p, v * inv);
            }
            dists = scaled;
        }
        MatrixMetric::new(dists, 1.0)
    }
}

impl Dataset for RoadNetwork {
    fn name(&self) -> &'static str {
        "urbangb"
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
    fn road_graph_is_connected_grid() {
        let g = RoadGraph::generate(6, 1);
        assert_eq!(g.n(), 36);
        let mut dij = Dijkstra::new(36);
        let d = dij.run(&g, 0);
        assert!(
            (0..36).all(|v| d.get(v).is_finite()),
            "grid must be connected"
        );
    }

    #[test]
    fn metric_axioms_hold() {
        let m = RoadNetwork::default().generate(15, 4);
        assert!(MetricCheck::default().check(&m).is_clean());
    }

    #[test]
    fn normalized_to_unit() {
        let m = RoadNetwork::default().generate(25, 9);
        let mut max_d = 0.0f64;
        for p in Pair::all(25) {
            max_d = max_d.max(m.distance(p.lo(), p.hi()));
        }
        assert!((max_d - 1.0).abs() < 1e-12, "diameter normalizes to 1");
    }

    #[test]
    fn network_distance_exceeds_crow_flies() {
        // Shortest-path distance over congested streets is at least the
        // straight-line distance between the POIs (same coordinate space,
        // congestion factors >= 1).
        let g = RoadGraph::generate(8, 5);
        let mut dij = Dijkstra::new(g.n());
        let d = dij.run(&g, 0);
        let (x0, y0) = g.coords()[0];
        for (v, &(x, y)) in g.coords().iter().enumerate().skip(1) {
            let euclid = ((x - x0).powi(2) + (y - y0).powi(2)).sqrt();
            let dv = d.get(v as u32);
            assert!(
                dv >= euclid - 1e-9,
                "node {v}: network {dv} < euclid {euclid}"
            );
        }
    }
}
