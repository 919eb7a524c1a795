//! Road-network shortest-path metric — the UrbanGB stand-in.

use prox_core::{invariant, MatrixMetric, Metric, ObjectId, Pair, PairMap, TinyRng};
use prox_graph::Adjacency;

use crate::Dataset;

/// A sparse undirected road graph in CSR form.
#[derive(Clone, Debug)]
pub struct RoadGraph {
    offsets: Vec<u32>,
    arcs: Vec<(u32, f64)>,
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
        // diagonal 1–3 cells right and down, wrapping around the grid's
        // edges. A node near the right or bottom edge thus reaches across
        // the whole map, which is why the longest arc at side 68 is ≈1.16.
        // Unwrapping would move every urbangb matrix and the golden calls.
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
        let mut arcs = Vec::new();
        offsets.push(0u32);
        for list in &adj {
            arcs.extend_from_slice(list);
            offsets.push(arcs.len() as u32);
        }
        RoadGraph {
            offsets,
            arcs,
            coords,
        }
    }

    /// Node coordinates.
    pub fn coords(&self) -> &[(f64, f64)] {
        &self.coords
    }

    /// Number of (directed) adjacency entries.
    pub fn arcs(&self) -> usize {
        self.arcs.len()
    }
}

impl Adjacency for RoadGraph {
    fn n(&self) -> usize {
        self.coords.len()
    }
    fn neighbors(&self, v: ObjectId) -> &[(ObjectId, f64)] {
        &self.arcs[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }
}

/// Exact single-source shortest paths over a [`RoadGraph`] with a bucket
/// queue (Dial, CACM 1969, "Algorithm 360") in place of a binary heap.
///
/// Buckets are `Δ` = half the lightest arc wide; bucket `k` holds labels in
/// `[kΔ, (k+1)Δ)`. A node relaxed from bucket `k` gains at least `2Δ`, so
/// it lands in bucket `k + 2` or later; float rounding of the sum and of
/// the bucket index is far below one bucket, so it never lands in `k`.
/// Nothing swept in bucket `k` can therefore lower another label in `k`,
/// and every swept label is final. A final label is the minimum, over the
/// node's neighbours, of the left-folded float sums along their final
/// labels, whatever order the nodes settled in, so the labels equal
/// `prox_graph::Dijkstra::run`'s bit for bit (DESIGN.md §3).
struct BucketSweep {
    /// Bucket width `Δ`.
    width: f64,
    /// One dense label row, reset per source: every sweep settles every
    /// node, so epoch stamps would buy nothing.
    dist: Vec<f64>,
    /// Bucket `k` lives at `k % len`. A relaxation from bucket `k` lands
    /// at most `1 + ⌊max_arc / Δ⌋` buckets ahead, plus one for rounding,
    /// so `⌊max_arc / Δ⌋ + 3` buckets never wrap onto the one being swept.
    ring: Vec<Vec<u32>>,
}

impl BucketSweep {
    fn new(graph: &RoadGraph) -> Self {
        let (lightest, heaviest) = graph
            .arcs
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), &(_, w)| {
                (lo.min(w), hi.max(w))
            });
        invariant!(
            lightest > 0.0 && lightest.is_finite(),
            "bucket sweep needs a positive lightest arc, got {lightest}"
        );
        let width = lightest / 2.0;
        BucketSweep {
            width,
            dist: vec![f64::INFINITY; graph.n()],
            ring: vec![Vec::new(); (heaviest / width) as usize + 3],
        }
    }

    #[inline]
    fn bucket(&self, d: f64) -> usize {
        (d / self.width) as usize
    }

    /// Labels of every node from `src` (`INFINITY` if unreachable).
    fn run(&mut self, graph: &RoadGraph, src: ObjectId) -> &[f64] {
        self.dist.fill(f64::INFINITY);
        self.dist[src as usize] = 0.0;
        self.ring[0].push(src);
        let len = self.ring.len();
        let mut queued = 1usize;
        let mut k = 0usize;
        while queued > 0 {
            let mut bucket = std::mem::take(&mut self.ring[k % len]);
            queued -= bucket.len();
            for &v in &bucket {
                let d = self.dist[v as usize];
                if self.bucket(d) != k {
                    continue; // stale: the label has since moved to an earlier bucket
                }
                for &(u, w) in graph.neighbors(v) {
                    let nd = d + w;
                    if nd < self.dist[u as usize] {
                        self.dist[u as usize] = nd;
                        let b = self.bucket(nd);
                        // Landing on the bucket being swept would lose the
                        // entry and never drain the ring.
                        invariant!(
                            b > k && b - k < len,
                            "relaxation from bucket {k} landed in bucket {b} of {len}"
                        );
                        self.ring[b % len].push(u);
                        queued += 1;
                    }
                }
            }
            bucket.clear();
            self.ring[k % len] = bucket;
            k += 1;
        }
        &self.dist
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

        // One exact bucket sweep per POI over the road graph.
        let mut dists = PairMap::new(n, 0.0f64);
        let mut sweep = BucketSweep::new(&graph);
        let mut max_d = 0.0f64;
        for (i, &src) in pois.iter().enumerate() {
            let d = sweep.run(&graph, src);
            for (j, &dst) in pois.iter().enumerate().skip(i + 1) {
                let v = d[dst as usize];
                assert!(v.is_finite(), "road graph must be connected");
                dists.set(Pair::new(i as u32, j as u32), v);
                max_d = max_d.max(v);
            }
        }
        // Normalize into [0, 1] in place; scaling preserves the metric
        // axioms.
        if max_d > 0.0 {
            let inv = 1.0 / max_d;
            for p in Pair::all(n) {
                dists.set(p, dists.get(p) * inv);
            }
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
#[expect(
    clippy::disallowed_methods,
    reason = "un-metered ground truth; L13: the heap Dijkstra is the bucket sweep's reference"
)]
mod tests {
    use super::*;
    use prox_core::metric::MetricCheck;
    use prox_graph::Dijkstra;

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

    /// The bucket sweep against the heap `Dijkstra` it replaced, bit for
    /// bit: whole label rows from every 7th source, on graphs from side 6
    /// up to side 68 (the benchmark's n = 1500 graph).
    #[test]
    fn bucket_sweep_matches_dijkstra_bitwise() {
        for (side, seed) in [(6, 1), (8, 5), (13, 9), (31, 4), (47, 77), (68, 20210620)] {
            let g = RoadGraph::generate(side, seed);
            let mut sweep = BucketSweep::new(&g);
            let mut dij = Dijkstra::new(g.n());
            for src in (0..g.n() as ObjectId).step_by(7) {
                let heap = dij.run(&g, src);
                for (v, &d) in sweep.run(&g, src).iter().enumerate() {
                    assert_eq!(
                        d.to_bits(),
                        heap.get(v as ObjectId).to_bits(),
                        "side {side} seed {seed} src {src} node {v}: {d} vs {}",
                        heap.get(v as ObjectId)
                    );
                }
            }
        }
    }

    #[test]
    fn metric_axioms_hold() {
        let m = RoadNetwork::default().generate(15, 4);
        assert!(MetricCheck::default().check(&m).is_clean());
    }

    /// The whole matrix, bit for bit: a CRC-32 over every entry's
    /// little-endian bits in [`Pair::all`] order.
    fn matrix_crc(m: &MatrixMetric) -> u32 {
        let bytes: Vec<u8> = Pair::all(m.len())
            .flat_map(|p| m.distance(p.lo(), p.hi()).to_bits().to_le_bytes())
            .collect();
        prox_core::crc32(&bytes)
    }

    /// The n = 64 CRC was taken while normalization still scaled into a
    /// second matrix, and both were taken while every POI still ran a
    /// heap `Dijkstra`, so neither in-place scaling nor the bucket sweep
    /// may move a bit. n = 1500 is the benchmark's own ground truth.
    #[test]
    fn generated_matrix_is_pinned() {
        for (n, crc) in [(64, "4813e58c"), (1500, "1c6d5f0f")] {
            let m = RoadNetwork::default().generate(n, 20210620);
            assert_eq!(m.max_distance(), 1.0);
            assert_eq!(
                format!("{:08x}", matrix_crc(&m)),
                crc,
                "the urbangb ground truth moved at n = {n}"
            );
        }
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
