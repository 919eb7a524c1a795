//! M-tree (Ciaccia, Patella, Zezula — VLDB 1997).
//!
//! The balanced, paged metric index the paper's related work (§6.1) cites
//! as the Voronoi-inspired design: objects live in leaves; internal entries
//! carry a routing object and a covering radius; every entry stores its
//! distance to the parent routing object, enabling the M-tree's signature
//! pruning step — many candidate entries are discarded using *already
//! computed* distances, before any new oracle call.

use prox_core::invariant::InvariantExt;
use prox_core::{Metric, ObjectId, Oracle};

/// Slack for float-boundary pruning (same rationale as the VP-tree's).
const PRUNE_EPS: f64 = 1e-9;

#[derive(Clone, Debug)]
struct Entry {
    /// Routing object (internal) or stored object (leaf).
    oid: ObjectId,
    /// Covering radius: max distance from `oid` to anything in the subtree
    /// (0 for leaf entries).
    radius: f64,
    /// Distance from `oid` to the parent node's routing object
    /// (meaningless at the root, stored as 0).
    dist_to_parent: f64,
    /// Child node index (internal entries only).
    child: Option<usize>,
}

#[derive(Clone, Debug)]
struct Node {
    entries: Vec<Entry>,
    is_leaf: bool,
}

/// A dynamically built M-tree with configurable node capacity.
///
/// Construction inserts objects in id order, splitting overflowing nodes
/// with the `m_LB` promotion policy (first entry + farthest from it) and
/// generalized-hyperplane partitioning. All distances evaluated during
/// construction and search are counted oracle calls.
#[derive(Clone, Debug)]
pub struct MTree {
    nodes: Vec<Node>,
    root: usize,
    n: usize,
    capacity: usize,
    construction_calls: u64,
}

impl MTree {
    /// Builds the tree over all objects of `oracle` with the given node
    /// capacity (≥ 2).
    pub fn build<M: Metric>(oracle: &Oracle<M>, capacity: usize) -> Self {
        assert!(capacity >= 2, "node capacity must be at least 2");
        let n = oracle.n();
        let start = oracle.calls();
        let mut tree = MTree {
            nodes: vec![Node {
                entries: Vec::new(),
                is_leaf: true,
            }],
            root: 0,
            n,
            capacity,
            construction_calls: 0,
        };
        for o in 0..n as ObjectId {
            tree.insert(oracle, o);
        }
        tree.construction_calls = oracle.calls() - start;
        tree
    }

    fn dist<M: Metric>(oracle: &Oracle<M>, a: ObjectId, b: ObjectId) -> f64 {
        if a == b {
            0.0
        } else {
            oracle.call(a, b)
        }
    }

    fn insert<M: Metric>(&mut self, oracle: &Oracle<M>, o: ObjectId) {
        if let Some((e1, e2)) = self.insert_into(oracle, self.root, o, ObjectId::MAX) {
            // Root split: grow the tree by one level.
            let new_root = Node {
                entries: vec![e1, e2],
                is_leaf: false,
            };
            self.nodes.push(new_root);
            self.root = self.nodes.len() - 1;
        }
    }

    /// Inserts `o` under node `idx`; returns the two replacement entries
    /// when the node split. `parent_oid` is the routing object one level up
    /// (`ObjectId::MAX` at the root — dist_to_parent is then unused).
    fn insert_into<M: Metric>(
        &mut self,
        oracle: &Oracle<M>,
        idx: usize,
        o: ObjectId,
        parent_oid: ObjectId,
    ) -> Option<(Entry, Entry)> {
        if self.nodes[idx].is_leaf {
            let dp = if parent_oid == ObjectId::MAX {
                0.0
            } else {
                Self::dist(oracle, o, parent_oid)
            };
            self.nodes[idx].entries.push(Entry {
                oid: o,
                radius: 0.0,
                dist_to_parent: dp,
                child: None,
            });
            if self.nodes[idx].entries.len() > self.capacity {
                return Some(self.split(oracle, idx, parent_oid));
            }
            return None;
        }

        // Choose the subtree: min distance among entries that need no
        // radius enlargement, else min enlargement.
        let dists: Vec<f64> = self.nodes[idx]
            .entries
            .iter()
            .map(|e| Self::dist(oracle, o, e.oid))
            .collect();
        let mut best: Option<usize> = None;
        // Two-level key: no-enlargement entries always beat enlargement
        // entries, independent of the metric's normalization.
        let mut best_key = (true, f64::INFINITY);
        for (i, (&d, e)) in dists.iter().zip(&self.nodes[idx].entries).enumerate() {
            let key = if d <= e.radius {
                (false, d) // no enlargement: prefer the closest
            } else {
                (true, d - e.radius) // rank by required enlargement
            };
            if !key.0 & best_key.0 || (key.0 == best_key.0 && key.1 < best_key.1) {
                best_key = key;
                best = Some(i);
            }
        }
        let i = best.expect_invariant("internal node has entries");
        let d = dists[i];
        let (routing, child) = {
            let e = &mut self.nodes[idx].entries[i];
            if d > e.radius {
                e.radius = d;
            }
            (
                e.oid,
                e.child.expect_invariant("internal entry has a child"),
            )
        };

        if let Some((e1, e2)) = self.insert_into(oracle, child, o, routing) {
            // Replace entry i with the two split halves. Their
            // dist_to_parent must refer to *this* node's routing object,
            // re-derived below (split() filled it against the child level).
            self.nodes[idx].entries.swap_remove(i);
            let mut e1 = e1;
            let mut e2 = e2;
            e1.dist_to_parent = 0.0;
            e2.dist_to_parent = 0.0;
            self.nodes[idx].entries.push(e1);
            self.nodes[idx].entries.push(e2);
            if parent_oid != ObjectId::MAX {
                let len = self.nodes[idx].entries.len();
                for j in [len - 2, len - 1] {
                    let oid = self.nodes[idx].entries[j].oid;
                    self.nodes[idx].entries[j].dist_to_parent = Self::dist(oracle, oid, parent_oid);
                }
            }
            if self.nodes[idx].entries.len() > self.capacity {
                return Some(self.split(oracle, idx, parent_oid));
            }
        }
        None
    }

    /// Splits node `idx` into two; returns the two routing entries for the
    /// parent (dist_to_parent filled against `parent_oid` when known).
    fn split<M: Metric>(
        &mut self,
        oracle: &Oracle<M>,
        idx: usize,
        parent_oid: ObjectId,
    ) -> (Entry, Entry) {
        let entries = std::mem::take(&mut self.nodes[idx].entries);
        let is_leaf = self.nodes[idx].is_leaf;

        // Promotion: first entry + the farthest entry from it.
        let p1 = entries[0].oid;
        let d_from_p1: Vec<f64> = entries
            .iter()
            .map(|e| Self::dist(oracle, p1, e.oid))
            .collect();
        let far = d_from_p1
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect_invariant("non-empty split");
        let p2 = entries[far].oid;

        // Generalized hyperplane partition.
        let mut n1 = Node {
            entries: Vec::new(),
            is_leaf,
        };
        let mut n2 = Node {
            entries: Vec::new(),
            is_leaf,
        };
        let (mut r1, mut r2) = (0.0f64, 0.0f64);
        for (i, mut e) in entries.into_iter().enumerate() {
            let d1 = d_from_p1[i];
            let d2 = Self::dist(oracle, p2, e.oid);
            if d1 <= d2 {
                r1 = r1.max(d1 + e.radius);
                e.dist_to_parent = d1;
                n1.entries.push(e);
            } else {
                r2 = r2.max(d2 + e.radius);
                e.dist_to_parent = d2;
                n2.entries.push(e);
            }
        }
        self.nodes[idx] = n1;
        self.nodes.push(n2);
        let n2_idx = self.nodes.len() - 1;

        let dp = |oid: ObjectId| {
            if parent_oid == ObjectId::MAX {
                0.0
            } else {
                Self::dist(oracle, oid, parent_oid)
            }
        };
        (
            Entry {
                oid: p1,
                radius: r1,
                dist_to_parent: dp(p1),
                child: Some(idx),
            },
            Entry {
                oid: p2,
                radius: r2,
                dist_to_parent: dp(p2),
                child: Some(n2_idx),
            },
        )
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

    /// Tree height (1 = single leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut idx = self.root;
        while !self.nodes[idx].is_leaf {
            idx = self.nodes[idx].entries[0]
                .child
                .expect_invariant("internal");
            h += 1;
        }
        h
    }

    /// All objects within the closed ball `dist(q, ·) <= radius`
    /// (excluding `q`), ascending by id.
    pub fn range<M: Metric>(&self, oracle: &Oracle<M>, q: ObjectId, radius: f64) -> Vec<ObjectId> {
        let mut out = Vec::new();
        // d(q, parent routing) is unknown at the root; NAN disables the
        // parent-distance prefilter there.
        self.range_node(oracle, self.root, q, radius, f64::NAN, &mut out);
        out.sort_unstable();
        out
    }

    fn range_node<M: Metric>(
        &self,
        oracle: &Oracle<M>,
        idx: usize,
        q: ObjectId,
        radius: f64,
        d_q_parent: f64,
        out: &mut Vec<ObjectId>,
    ) {
        let node = &self.nodes[idx];
        for e in &node.entries {
            // M-tree prefilter: |d(q, parent) − d(e, parent)| > r + rad(e)
            // proves the subtree is out of reach without computing d(q, e).
            if !d_q_parent.is_nan()
                && (d_q_parent - e.dist_to_parent).abs() > radius + e.radius + PRUNE_EPS
            {
                continue;
            }
            let d = Self::dist(oracle, q, e.oid);
            if node.is_leaf {
                if e.oid != q && d <= radius + PRUNE_EPS && d <= radius {
                    out.push(e.oid);
                }
            } else if d <= radius + e.radius + PRUNE_EPS {
                self.range_node(
                    oracle,
                    e.child.expect_invariant("internal"),
                    q,
                    radius,
                    d,
                    out,
                );
            }
        }
    }

    /// Exact k nearest neighbours of `q` (excluding `q`), by
    /// `(distance, id)` order — comparable one-to-one with
    /// `prox_algos::knn_query` and `VpTree::knn`.
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
        let mut best: Vec<(f64, ObjectId)> = Vec::with_capacity(k + 1);
        let mut tau = f64::INFINITY;
        self.knn_node(oracle, self.root, q, k, f64::NAN, &mut best, &mut tau);
        best.into_iter().map(|(d, id)| (id, d)).collect()
    }

    #[allow(clippy::too_many_arguments)]
    fn knn_node<M: Metric>(
        &self,
        oracle: &Oracle<M>,
        idx: usize,
        q: ObjectId,
        k: usize,
        d_q_parent: f64,
        best: &mut Vec<(f64, ObjectId)>,
        tau: &mut f64,
    ) {
        // Order child visits by optimistic distance so tau tightens early.
        let node = &self.nodes[idx];
        let mut candidates: Vec<(f64, usize)> = Vec::with_capacity(node.entries.len());
        for (i, e) in node.entries.iter().enumerate() {
            if !d_q_parent.is_nan()
                && (d_q_parent - e.dist_to_parent).abs() > *tau + e.radius + PRUNE_EPS
            {
                continue; // prefiltered with zero oracle calls
            }
            let d = Self::dist(oracle, q, e.oid);
            if node.is_leaf {
                if e.oid != q {
                    let cand = (d, e.oid);
                    let pos = best.partition_point(|x| *x < cand);
                    best.insert(pos, cand);
                    if best.len() > k {
                        best.pop();
                    }
                    if best.len() == k {
                        *tau = best.last().expect_invariant("k >= 1").0;
                    }
                }
            } else {
                candidates.push((d, i));
            }
        }
        if node.is_leaf {
            return;
        }
        candidates.sort_unstable_by(|a, b| {
            let ka = (a.0 - node.entries[a.1].radius).max(0.0);
            let kb = (b.0 - node.entries[b.1].radius).max(0.0);
            ka.total_cmp(&kb)
        });
        for (d, i) in candidates {
            let e = &self.nodes[idx].entries[i];
            if (d - e.radius).max(0.0) > *tau + PRUNE_EPS {
                continue;
            }
            self.knn_node(
                oracle,
                e.child.expect_invariant("internal"),
                q,
                k,
                d,
                best,
                tau,
            );
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
    fn builds_balanced_ish() {
        let oracle = line_oracle(200);
        let tree = MTree::build(&oracle, 8);
        assert_eq!(tree.len(), 200);
        assert!(tree.height() >= 2, "200 objects at cap 8 must split");
        assert!(tree.construction_calls() > 0);
    }

    #[test]
    fn range_matches_brute_force() {
        let oracle = line_oracle(60);
        let tree = MTree::build(&oracle, 6);
        let gt = oracle.ground_truth();
        for (q, radius) in [(0u32, 0.15), (30, 0.08), (59, 0.3), (15, 0.0)] {
            let got = tree.range(&oracle, q, radius);
            let want: Vec<u32> = (0..60u32)
                .filter(|&v| v != q && prox_core::Metric::distance(gt, q, v) <= radius)
                .collect();
            assert_eq!(got, want, "q {q} r {radius}");
        }
    }

    #[test]
    fn knn_matches_brute_force() {
        let oracle = line_oracle(50);
        let tree = MTree::build(&oracle, 5);
        let gt = oracle.ground_truth();
        for q in (0..50u32).step_by(7) {
            let got: Vec<u32> = tree
                .knn(&oracle, q, 4)
                .into_iter()
                .map(|(v, _)| v)
                .collect();
            let mut all: Vec<(f64, u32)> = (0..50u32)
                .filter(|&v| v != q)
                .map(|v| (prox_core::Metric::distance(gt, q, v), v))
                .collect();
            all.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            let want: Vec<u32> = all[..4].iter().map(|&(_, v)| v).collect();
            assert_eq!(got, want, "query {q}");
        }
    }

    #[test]
    fn knn_on_planar_clusters() {
        // Non-trivial geometry: two circles.
        let n = 64usize;
        let metric = FnMetric::new(n, 1.0, move |a, b| {
            let pt = |i: u32| {
                let half = n as u32 / 2;
                let (cx, cy) = if i < half { (0.25, 0.25) } else { (0.75, 0.75) };
                let t = 2.0 * std::f64::consts::PI * f64::from(i % half) / f64::from(half);
                (cx + 0.1 * t.cos(), cy + 0.1 * t.sin())
            };
            let (ax, ay) = pt(a);
            let (bx, by) = pt(b);
            (((ax - bx).powi(2) + (ay - by).powi(2)).sqrt() / std::f64::consts::SQRT_2).min(1.0)
        });
        let oracle = Oracle::new(&metric);
        let tree = MTree::build(&oracle, 6);
        for q in (0..n as u32).step_by(9) {
            let got: Vec<u32> = tree
                .knn(&oracle, q, 3)
                .into_iter()
                .map(|(v, _)| v)
                .collect();
            let mut all: Vec<(f64, u32)> = (0..n as u32)
                .filter(|&v| v != q)
                .map(|v| (prox_core::Metric::distance(&metric, q, v), v))
                .collect();
            all.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            let want: Vec<u32> = all[..3].iter().map(|&(_, v)| v).collect();
            assert_eq!(got, want, "query {q}");
        }
    }

    #[test]
    fn parent_distance_prefilter_saves_calls() {
        let n = 300;
        let oracle = line_oracle(n);
        let tree = MTree::build(&oracle, 10);
        let before = oracle.calls();
        tree.range(&oracle, 150, 0.02);
        let calls = oracle.calls() - before;
        assert!(
            calls < n as u64 / 2,
            "prefilter + radius pruning should skip most entries: {calls}"
        );
    }
}
