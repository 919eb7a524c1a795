//! Vantage Point Tree (Yianilos 1993).

use prox_core::invariant::InvariantExt;
use prox_core::{Metric, ObjectId, Oracle};

/// Slack on branch-pruning comparisons: a candidate at *exactly* the k-th
/// distance can sit 1 ulp across the boundary after float arithmetic, and
/// the `(distance, id)` tie rule requires it to be reachable. Visiting an
/// extra node never affects correctness, only cost.
const PRUNE_EPS: f64 = 1e-9;

/// One tree node: a vantage point, the median distance `mu` to the points
/// it covers, and inside/outside children.
#[derive(Clone, Debug)]
struct Node {
    vantage: ObjectId,
    mu: f64,
    /// Points with `dist(vantage, ·) <= mu`.
    inside: Option<Box<Node>>,
    /// Points with `dist(vantage, ·) > mu`.
    outside: Option<Box<Node>>,
}

/// An exact metric-space index: `O(n log n)` oracle calls to build, then
/// branch-and-bound kNN / range queries that call the oracle once per
/// visited node.
///
/// Queries are *by object id* (the query object participates in the same
/// oracle), mirroring how the paper's kNN experiments query within the
/// dataset.
#[derive(Clone, Debug)]
pub struct VpTree {
    root: Option<Box<Node>>,
    n: usize,
    construction_calls: u64,
}

impl VpTree {
    /// Builds the tree over all objects of `oracle`, consuming
    /// construction oracle calls. Vantage points are chosen
    /// deterministically (first element of each partition), so builds are
    /// reproducible.
    pub fn build<M: Metric>(oracle: &Oracle<M>) -> Self {
        let n = oracle.n();
        let start = oracle.calls();
        let mut ids: Vec<ObjectId> = (0..n as ObjectId).collect();
        let root = Self::build_node(oracle, &mut ids);
        VpTree {
            root,
            n,
            construction_calls: oracle.calls() - start,
        }
    }

    fn build_node<M: Metric>(oracle: &Oracle<M>, ids: &mut [ObjectId]) -> Option<Box<Node>> {
        let (&vantage, rest) = ids.split_first()?;
        if rest.is_empty() {
            return Some(Box::new(Node {
                vantage,
                mu: 0.0,
                inside: None,
                outside: None,
            }));
        }
        // Distance of every remaining point to the vantage (oracle calls).
        let mut with_d: Vec<(ObjectId, f64)> =
            rest.iter().map(|&x| (x, oracle.call(vantage, x))).collect();
        with_d.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        let mid = (with_d.len() - 1) / 2;
        let mu = with_d[mid].1;
        let (ins, outs) = with_d.split_at(mid + 1);
        let mut inside_ids: Vec<ObjectId> = ins.iter().map(|&(x, _)| x).collect();
        let mut outside_ids: Vec<ObjectId> = outs.iter().map(|&(x, _)| x).collect();
        Some(Box::new(Node {
            vantage,
            mu,
            inside: Self::build_node(oracle, &mut inside_ids),
            outside: Self::build_node(oracle, &mut outside_ids),
        }))
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

    /// Exact k nearest neighbours of object `q` (excluding `q` itself),
    /// sorted by `(distance, id)` — the same tie rule as
    /// `prox_algos::knn_query`, so results are comparable one-to-one.
    pub fn knn<M: Metric>(
        &self,
        oracle: &Oracle<M>,
        q: ObjectId,
        k: usize,
    ) -> Vec<(ObjectId, f64)> {
        let k = k.min(self.n.saturating_sub(1));
        if k == 0 {
            return Vec::new();
        }
        // Max-heap of current best (worst on top) as a sorted Vec (k tiny).
        let mut best: Vec<(f64, ObjectId)> = Vec::with_capacity(k + 1);
        let mut tau = f64::INFINITY;
        self.search_knn(self.root.as_deref(), oracle, q, k, &mut best, &mut tau);
        best.into_iter().map(|(d, id)| (id, d)).collect()
    }

    fn search_knn<M: Metric>(
        &self,
        node: Option<&Node>,
        oracle: &Oracle<M>,
        q: ObjectId,
        k: usize,
        best: &mut Vec<(f64, ObjectId)>,
        tau: &mut f64,
    ) {
        let Some(node) = node else { return };
        let d = if node.vantage == q {
            0.0
        } else {
            oracle.call(q, node.vantage)
        };
        if node.vantage != q {
            let cand = (d, node.vantage);
            let pos = best.partition_point(|x| (x.0, x.1) < cand);
            best.insert(pos, cand);
            if best.len() > k {
                best.pop();
            }
            if best.len() == k {
                *tau = best.last().expect_invariant("k >= 1").0;
            }
        }
        // Visit the side containing q first, prune the other by tau.
        let (first, second) = if d <= node.mu {
            (node.inside.as_deref(), node.outside.as_deref())
        } else {
            (node.outside.as_deref(), node.inside.as_deref())
        };
        self.search_knn(first, oracle, q, k, best, tau);
        let boundary_gap = (d - node.mu).abs();
        if boundary_gap <= *tau + PRUNE_EPS {
            self.search_knn(second, oracle, q, k, best, tau);
        }
    }

    /// All objects within the closed ball `dist(q, ·) <= radius`
    /// (excluding `q`), ascending by id.
    pub fn range<M: Metric>(&self, oracle: &Oracle<M>, q: ObjectId, radius: f64) -> Vec<ObjectId> {
        let mut out = Vec::new();
        self.search_range(self.root.as_deref(), oracle, q, radius, &mut out);
        out.sort_unstable();
        out
    }

    fn search_range<M: Metric>(
        &self,
        node: Option<&Node>,
        oracle: &Oracle<M>,
        q: ObjectId,
        radius: f64,
        out: &mut Vec<ObjectId>,
    ) {
        let Some(node) = node else { return };
        let d = if node.vantage == q {
            0.0
        } else {
            oracle.call(q, node.vantage)
        };
        if node.vantage != q && d <= radius {
            out.push(node.vantage);
        }
        if d - radius <= node.mu + PRUNE_EPS {
            self.search_range(node.inside.as_deref(), oracle, q, radius, out);
        }
        if d + radius >= node.mu - PRUNE_EPS {
            self.search_range(node.outside.as_deref(), oracle, q, radius, out);
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
    fn knn_exact_on_a_line() {
        let oracle = line_oracle(30);
        let tree = VpTree::build(&oracle);
        assert!(tree.construction_calls() > 0);
        let nb = tree.knn(&oracle, 10, 4);
        let ids: Vec<ObjectId> = nb.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![9, 11, 8, 12], "(distance, id) order");
    }

    #[test]
    fn knn_matches_brute_force() {
        let oracle = line_oracle(25);
        let tree = VpTree::build(&oracle);
        let gt = oracle.ground_truth();
        for q in 0..25u32 {
            let nb = tree.knn(&oracle, q, 3);
            // Brute force with the same (d, id) tie rule.
            let mut all: Vec<(f64, u32)> = (0..25u32)
                .filter(|&v| v != q)
                .map(|v| (prox_core::Metric::distance(gt, q, v), v))
                .collect();
            all.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            let want: Vec<u32> = all[..3].iter().map(|&(_, v)| v).collect();
            let got: Vec<u32> = nb.iter().map(|&(id, _)| id).collect();
            assert_eq!(got, want, "query {q}");
        }
    }

    #[test]
    fn range_matches_brute_force() {
        let oracle = line_oracle(20);
        let tree = VpTree::build(&oracle);
        let gt = oracle.ground_truth();
        for (q, radius) in [(0u32, 0.2), (10, 0.15), (19, 0.5)] {
            let got = tree.range(&oracle, q, radius);
            let want: Vec<u32> = (0..20u32)
                .filter(|&v| v != q && prox_core::Metric::distance(gt, q, v) <= radius)
                .collect();
            assert_eq!(got, want, "q {q} r {radius}");
        }
    }

    #[test]
    fn query_prunes_subtrees() {
        // A kNN query on a balanced VP-tree must touch far fewer nodes than n.
        let n = 200;
        let oracle = line_oracle(n);
        let tree = VpTree::build(&oracle);
        let before = oracle.calls();
        tree.knn(&oracle, 100, 2);
        let query_calls = oracle.calls() - before;
        assert!(
            query_calls < n as u64 / 2,
            "branch-and-bound should prune: {query_calls} calls for n={n}"
        );
    }

    #[test]
    fn single_object_tree() {
        let oracle = line_oracle(2);
        let tree = VpTree::build(&oracle);
        assert_eq!(tree.knn(&oracle, 0, 5), vec![(1, 1.0)]);
    }
}
