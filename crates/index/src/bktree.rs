//! Burkhard–Keller tree (1973) over quantized distances.

use std::collections::BTreeMap;

use prox_core::invariant::InvariantExt;
use prox_core::{Metric, ObjectId, Oracle};

/// A BK-tree: children of a node are keyed by the (quantized) distance of
/// their subtree root to the node.
///
/// BK-trees classically require an **integer-valued** metric (edit
/// distance). Distances in this workspace are normalized into `[0, 1]`, so
/// the tree quantizes with a configurable `quantum`: the child key of a
/// distance `d` is `floor(d / quantum)`. Range search then widens its
/// window by one quantum on each side, which keeps results **exact** (no
/// in-bucket neighbour can be missed) at the cost of a few extra visits —
/// the standard trick for continuous metrics.
#[derive(Clone, Debug)]
pub struct BkTree {
    root: Option<Box<Node>>,
    quantum: f64,
    n: usize,
    construction_calls: u64,
}

#[derive(Clone, Debug)]
struct Node {
    id: ObjectId,
    children: BTreeMap<i64, Box<Node>>,
}

impl BkTree {
    /// Builds the tree by inserting objects in id order; every insertion
    /// walks root-to-leaf with one oracle call per visited node.
    pub fn build<M: Metric>(oracle: &Oracle<M>, quantum: f64) -> Self {
        assert!(quantum > 0.0, "quantum must be positive");
        let n = oracle.n();
        let start = oracle.calls();
        let mut root: Option<Box<Node>> = None;
        for id in 0..n as ObjectId {
            match root.as_mut() {
                None => {
                    root = Some(Box::new(Node {
                        id,
                        children: BTreeMap::new(),
                    }))
                }
                Some(node) => Self::insert(oracle, node, id, quantum),
            }
        }
        BkTree {
            root,
            quantum,
            n,
            construction_calls: oracle.calls() - start,
        }
    }

    fn insert<M: Metric>(oracle: &Oracle<M>, mut node: &mut Box<Node>, id: ObjectId, quantum: f64) {
        loop {
            let d = oracle.call(node.id, id);
            let key = (d / quantum).floor() as i64;
            // NLL-friendly: check membership, then recurse or insert.
            if let std::collections::btree_map::Entry::Vacant(e) = node.children.entry(key) {
                e.insert(Box::new(Node {
                    id,
                    children: BTreeMap::new(),
                }));
                return;
            } else {
                node = node.children.get_mut(&key).expect_invariant("just checked");
            }
        }
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
    /// (excluding `q`), ascending by id. Exact despite quantization: the
    /// child window is widened by one quantum on each side.
    pub fn range<M: Metric>(&self, oracle: &Oracle<M>, q: ObjectId, radius: f64) -> Vec<ObjectId> {
        let mut out = Vec::new();
        if let Some(root) = self.root.as_deref() {
            self.search(root, oracle, q, radius, &mut out);
        }
        out.sort_unstable();
        out
    }

    fn search<M: Metric>(
        &self,
        node: &Node,
        oracle: &Oracle<M>,
        q: ObjectId,
        radius: f64,
        out: &mut Vec<ObjectId>,
    ) {
        let d = if node.id == q {
            0.0
        } else {
            oracle.call(q, node.id)
        };
        if node.id != q && d <= radius {
            out.push(node.id);
        }
        // Triangle inequality: a child at key `c` holds points whose
        // distance to `node` is in [c·quantum, (c+1)·quantum); such a point
        // can be within `radius` of q only if the intervals
        // [d - radius, d + radius] and the bucket overlap.
        let lo = ((d - radius) / self.quantum).floor() as i64 - 1;
        let hi = ((d + radius) / self.quantum).floor() as i64 + 1;
        for (_, child) in node.children.range(lo..=hi) {
            self.search(child, oracle, q, radius, out);
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
        let oracle = line_oracle(40);
        let tree = BkTree::build(&oracle, 0.05);
        let gt = oracle.ground_truth();
        for (q, radius) in [(0u32, 0.3), (20, 0.11), (39, 0.02)] {
            let got = tree.range(&oracle, q, radius);
            let want: Vec<u32> = (0..40u32)
                .filter(|&v| v != q && prox_core::Metric::distance(gt, q, v) <= radius)
                .collect();
            assert_eq!(got, want, "q {q} r {radius}");
        }
    }

    #[test]
    fn construction_is_n_log_n_ish() {
        let oracle = line_oracle(128);
        let tree = BkTree::build(&oracle, 0.05);
        // Each insertion costs depth-many calls; for 1/0.05 = 20 buckets the
        // fan-out is high and depth low: far less than n per insert.
        assert!(tree.construction_calls() < 128 * 30);
        assert!(tree.construction_calls() >= 127, "at least one per object");
    }

    #[test]
    fn range_prunes_visits() {
        let n = 200;
        let oracle = line_oracle(n);
        let tree = BkTree::build(&oracle, 0.02);
        let before = oracle.calls();
        tree.range(&oracle, 100, 0.03);
        let query_calls = oracle.calls() - before;
        assert!(
            query_calls < n as u64 / 2,
            "bucket windowing should prune: {query_calls} calls"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_quantum_rejected() {
        let oracle = line_oracle(4);
        let _ = BkTree::build(&oracle, 0.0);
    }
}
