//! GNAT — Geometric Near-neighbor Access Tree (Brin, VLDB 1995).
//!
//! The multi-way Voronoi-style index the paper's related work cites
//! alongside the M-tree. Each node picks `degree` split points, assigns
//! every object to its nearest split point, and stores the **range table**
//! `[min, max]` of distances from each split point to each sibling group.
//! Search prunes a whole group whenever the query's distance to *some*
//! split point is incompatible with that group's stored range — triangle
//! reasoning on precomputed data, no extra oracle calls.

use prox_core::invariant::InvariantExt;
use prox_core::{Metric, ObjectId, Oracle};

/// Float-boundary slack, as in the other indexes.
const PRUNE_EPS: f64 = 1e-9;

#[derive(Clone, Debug)]
struct Node {
    /// Split points of this node.
    splits: Vec<ObjectId>,
    /// `ranges[i][j]` = (min, max) distance from `splits[i]` to any object
    /// stored under `splits[j]`'s group (including the split point itself).
    ranges: Vec<Vec<(f64, f64)>>,
    /// One child per split point: either a subtree or a leaf bucket.
    children: Vec<Child>,
}

#[derive(Clone, Debug)]
enum Child {
    Bucket(Vec<ObjectId>),
    Tree(usize),
}

/// A GNAT with configurable node degree and leaf bucket size.
#[derive(Clone, Debug)]
pub struct Gnat {
    nodes: Vec<Node>,
    root: Option<usize>,
    n: usize,
    construction_calls: u64,
}

impl Gnat {
    /// Builds the tree over all objects of `oracle`.
    ///
    /// Split points are chosen greedily (first object + farthest-first,
    /// like the LAESA landmark rule) for reproducibility.
    pub fn build<M: Metric>(oracle: &Oracle<M>, degree: usize, bucket: usize) -> Self {
        assert!(degree >= 2, "GNAT degree must be at least 2");
        let n = oracle.n();
        let start = oracle.calls();
        let mut gnat = Gnat {
            nodes: Vec::new(),
            root: None,
            n,
            construction_calls: 0,
        };
        let all: Vec<ObjectId> = (0..n as ObjectId).collect();
        gnat.root = Some(gnat.build_node(oracle, all, degree, bucket.max(1)));
        gnat.construction_calls = oracle.calls() - start;
        gnat
    }

    fn dist<M: Metric>(oracle: &Oracle<M>, a: ObjectId, b: ObjectId) -> f64 {
        if a == b {
            0.0
        } else {
            oracle.call(a, b)
        }
    }

    fn build_node<M: Metric>(
        &mut self,
        oracle: &Oracle<M>,
        objects: Vec<ObjectId>,
        degree: usize,
        bucket: usize,
    ) -> usize {
        // Farthest-first split points.
        let k = degree.min(objects.len());
        let mut splits = vec![objects[0]];
        let mut min_d: Vec<f64> = objects
            .iter()
            .map(|&o| Self::dist(oracle, objects[0], o))
            .collect();
        while splits.len() < k {
            let (far, _) = objects
                .iter()
                .enumerate()
                .filter(|(_, o)| !splits.contains(o))
                .max_by(|a, b| min_d[a.0].total_cmp(&min_d[b.0]))
                .expect_invariant("k <= len");
            let sp = objects[far];
            splits.push(sp);
            for (i, &o) in objects.iter().enumerate() {
                let d = Self::dist(oracle, sp, o);
                if d < min_d[i] {
                    min_d[i] = d;
                }
            }
        }

        // Assign objects to their nearest split point; fill range tables.
        let mut groups: Vec<Vec<ObjectId>> = vec![Vec::new(); splits.len()];
        let mut ranges = vec![vec![(f64::INFINITY, 0.0f64); splits.len()]; splits.len()];
        for &o in &objects {
            let dists: Vec<f64> = splits.iter().map(|&s| Self::dist(oracle, s, o)).collect();
            // A split point always belongs to its *own* group — under
            // duplicate objects the nearest-split rule could send it to an
            // earlier split at distance 0, and the range table of its own
            // group would then fail to cover it (an unsound prune).
            let g = match splits.iter().position(|&sp| sp == o) {
                Some(own) => own,
                None => {
                    dists
                        .iter()
                        .enumerate()
                        .min_by(|a, b| a.1.total_cmp(b.1).then_with(|| a.0.cmp(&b.0)))
                        .expect_invariant("non-empty splits")
                        .0
                }
            };
            if !splits.contains(&o) {
                groups[g].push(o);
            }
            for (i, &d) in dists.iter().enumerate() {
                let r = &mut ranges[i][g];
                r.0 = r.0.min(d);
                r.1 = r.1.max(d);
            }
        }

        let node_idx = self.nodes.len();
        self.nodes.push(Node {
            splits: splits.clone(),
            ranges,
            children: Vec::new(),
        });
        let children: Vec<Child> = groups
            .into_iter()
            .map(|g| {
                if g.len() <= bucket {
                    Child::Bucket(g)
                } else {
                    Child::Tree(self.build_node(oracle, g, degree, bucket))
                }
            })
            .collect();
        self.nodes[node_idx].children = children;
        node_idx
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Oracle calls consumed by construction.
    pub fn construction_calls(&self) -> u64 {
        self.construction_calls
    }

    /// All objects within the closed ball `dist(q, ·) <= radius`
    /// (excluding `q`), ascending by id.
    pub fn range<M: Metric>(&self, oracle: &Oracle<M>, q: ObjectId, radius: f64) -> Vec<ObjectId> {
        let mut out = Vec::new();
        if let Some(root) = self.root {
            self.range_node(oracle, root, q, radius, &mut out);
        }
        out.sort_unstable();
        out
    }

    fn range_node<M: Metric>(
        &self,
        oracle: &Oracle<M>,
        idx: usize,
        q: ObjectId,
        radius: f64,
        out: &mut Vec<ObjectId>,
    ) {
        let node = &self.nodes[idx];
        let k = node.splits.len();
        let mut alive = vec![true; k];
        let mut d_split = vec![f64::NAN; k];

        // Evaluate split points one at a time; each measured distance both
        // tests the split point itself and prunes sibling groups via the
        // range table (the GNAT trick).
        for i in 0..k {
            if !alive[i] {
                continue;
            }
            let d = Self::dist(oracle, q, node.splits[i]);
            d_split[i] = d;
            if node.splits[i] != q && d <= radius {
                out.push(node.splits[i]);
            }
            for (j, a) in alive.iter_mut().enumerate() {
                if !*a {
                    continue;
                }
                let (lo, hi) = node.ranges[i][j];
                // Any object x in group j has d(split_i, x) in [lo, hi], so
                // d(q, x) >= d - hi and d(q, x) >= lo - d.
                if d - hi > radius + PRUNE_EPS || lo - d > radius + PRUNE_EPS {
                    *a = false;
                }
            }
        }
        for (j, a) in alive.iter().enumerate() {
            if !*a {
                continue;
            }
            match &node.children[j] {
                Child::Bucket(items) => {
                    for &o in items {
                        if o != q && Self::dist(oracle, q, o) <= radius {
                            out.push(o);
                        }
                    }
                }
                Child::Tree(t) => self.range_node(oracle, *t, q, radius, out),
            }
        }
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "un-metered ground truth")]
mod tests {
    use super::*;
    use prox_core::FnMetric;

    fn line_oracle(n: usize) -> Oracle<FnMetric<impl Fn(ObjectId, ObjectId) -> f64>> {
        let scale = 1.0 / (n as f64 - 1.0);
        Oracle::new(FnMetric::new(n, 1.0, move |a, b| {
            (f64::from(a) - f64::from(b)).abs() * scale
        }))
    }

    #[test]
    fn range_matches_brute_force() {
        let oracle = line_oracle(80);
        let g = Gnat::build(&oracle, 4, 6);
        let gt = oracle.ground_truth();
        for (q, radius) in [(0u32, 0.2), (40, 0.1), (79, 0.04), (25, 0.0)] {
            let got = g.range(&oracle, q, radius);
            let want: Vec<u32> = (0..80u32)
                .filter(|&v| v != q && prox_core::Metric::distance(gt, q, v) <= radius)
                .collect();
            assert_eq!(got, want, "q {q} r {radius}");
        }
    }

    #[test]
    fn range_table_prunes_groups() {
        let n = 400;
        let oracle = line_oracle(n);
        let g = Gnat::build(&oracle, 8, 8);
        let before = oracle.calls();
        g.range(&oracle, 200, 0.01);
        let calls = oracle.calls() - before;
        assert!(
            calls < n as u64 / 3,
            "range tables should prune most groups: {calls} calls"
        );
    }

    #[test]
    fn small_inputs() {
        let oracle = line_oracle(3);
        let g = Gnat::build(&oracle, 4, 2);
        assert_eq!(g.len(), 3);
        assert_eq!(g.range(&oracle, 0, 1.0), vec![1, 2]);
    }
}
