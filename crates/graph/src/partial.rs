//! The partial known-distance graph (§3.1 of the paper).

use prox_core::invariant::invariant_violated;
use prox_core::{ObjectId, Pair};

/// The graph of distances resolved so far.
///
/// Adjacency lists are kept **sorted by neighbour id**. The paper stores
/// them in balanced BSTs to make the Tri Scheme's list intersection fast;
/// a sorted `Vec` provides the same `O(deg)` ordered traversal and
/// `O(log deg)` membership test with much better cache behaviour (a
/// `BTreeMap` variant lost on every benched size and was removed; the
/// `tri_adjacency` bench keeps the winner's numbers pinned). Insertion is
/// `O(deg)` due to the shift, which is far below the oracle cost this
/// workspace optimizes.
#[derive(Clone, Debug, Default)]
pub struct PartialGraph {
    adj: Vec<Vec<(ObjectId, f64)>>,
    edges: Vec<(Pair, f64)>,
    /// Bumped once per new edge; `node_stamp[v]` records the generation of
    /// the last insertion incident on `v`. Together they let stamp-gated
    /// consumers (the resolver's bound cache) decide whether bounds derived
    /// from a node's adjacency are still current.
    generation: u64,
    node_stamp: Vec<u64>,
}

impl PartialGraph {
    /// An empty partial graph over `n` objects.
    pub fn new(n: usize) -> Self {
        PartialGraph {
            adj: vec![Vec::new(); n],
            edges: Vec::new(),
            generation: 0,
            node_stamp: vec![0; n],
        }
    }

    /// Monotone counter of structural changes (one per new edge).
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Generation of the last insertion incident on `v` (`0` if none).
    #[inline]
    pub fn node_stamp(&self, v: ObjectId) -> u64 {
        self.node_stamp[v as usize]
    }

    /// Upper bound on the last generation at which information derived from
    /// the adjacency lists of `p`'s endpoints may have changed.
    #[inline]
    pub fn pair_stamp(&self, p: Pair) -> u64 {
        self.node_stamp[p.lo() as usize].max(self.node_stamp[p.hi() as usize])
    }

    /// Number of objects (nodes).
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Number of known edges.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Degree of `v` in the known graph.
    pub fn degree(&self, v: ObjectId) -> usize {
        self.adj[v as usize].len()
    }

    /// The known distance for `p`, if resolved.
    #[inline]
    pub fn get(&self, p: Pair) -> Option<f64> {
        let list = &self.adj[p.lo() as usize];
        list.binary_search_by_key(&p.hi(), |&(id, _)| id)
            .ok()
            .map(|i| list[i].1)
    }

    /// True when the distance for `p` has been resolved.
    pub fn contains(&self, p: Pair) -> bool {
        self.get(p).is_some()
    }

    /// Records a resolved distance (the paper's UPDATE problem for the raw
    /// graph structure). Returns `true` if the edge was new.
    ///
    /// Re-inserting an existing edge with the same value is a no-op;
    /// re-inserting with a *different* value is a logic error (the oracle is
    /// deterministic) and panics in debug builds.
    pub fn insert(&mut self, p: Pair, d: f64) -> bool {
        debug_assert!(d >= 0.0 && d.is_finite(), "distance must be finite, >= 0");
        let (a, b) = p.ends();
        match self.adj[a as usize].binary_search_by_key(&b, |&(id, _)| id) {
            Ok(i) => {
                debug_assert_eq!(
                    self.adj[a as usize][i].1, d,
                    "edge {p:?} re-inserted with a different distance"
                );
                false
            }
            Err(i) => {
                // Adjacency lists start at a useful capacity: degrees in
                // this workspace's workloads are almost never 1–2, and the
                // default 1→2→4 growth triples the early reallocations on
                // the Tri hot path.
                Self::reserve_adj(&mut self.adj[a as usize]);
                self.adj[a as usize].insert(i, (b, d));
                Self::reserve_adj(&mut self.adj[b as usize]);
                let j = match self.adj[b as usize].binary_search_by_key(&a, |&(id, _)| id) {
                    Err(j) => j,
                    Ok(_) => invariant_violated("edge present in only one adjacency list"),
                };
                self.adj[b as usize].insert(j, (a, d));
                self.edges.push((p, d));
                self.generation += 1;
                self.node_stamp[a as usize] = self.generation;
                self.node_stamp[b as usize] = self.generation;
                true
            }
        }
    }

    /// Removes a previously recorded edge, returning its distance. Exists
    /// for the untrusted-oracle audit path: a recorded value proven
    /// inconsistent with the triangle inequality must be *retracted* before
    /// a trusted replacement is inserted, since every bound derived through
    /// the poisoned edge is suspect. Bumps the generation and stamps both
    /// endpoints so stamp-gated consumers (bound caches) refuse anything
    /// derived before the retraction.
    pub fn remove(&mut self, p: Pair) -> Option<f64> {
        let (a, b) = p.ends();
        let i = self.adj[a as usize]
            .binary_search_by_key(&b, |&(id, _)| id)
            .ok()?;
        let (_, d) = self.adj[a as usize].remove(i);
        if let Ok(j) = self.adj[b as usize].binary_search_by_key(&a, |&(id, _)| id) {
            self.adj[b as usize].remove(j);
        }
        if let Some(k) = self.edges.iter().position(|&(e, _)| e == p) {
            self.edges.remove(k);
        }
        self.generation += 1;
        self.node_stamp[a as usize] = self.generation;
        self.node_stamp[b as usize] = self.generation;
        Some(d)
    }

    fn reserve_adj(list: &mut Vec<(ObjectId, f64)>) {
        if list.capacity() == list.len() {
            list.reserve(list.len().max(8));
        }
    }

    /// Sorted `(neighbour, distance)` list of `v`.
    #[inline]
    pub fn neighbors(&self, v: ObjectId) -> &[(ObjectId, f64)] {
        &self.adj[v as usize]
    }

    /// All known edges, in insertion order.
    pub fn edges(&self) -> &[(Pair, f64)] {
        &self.edges
    }

    /// Calls `f(c, d_ac, d_bc)` for every object `c` adjacent to **both**
    /// `a` and `b` — i.e. every triangle incident on the unknown edge
    /// `(a, b)` whose other two sides are known, in ascending `c` order.
    /// This is the sorted-list merge of Tri Scheme (Algorithm 2),
    /// `O(deg a + deg b)`. Tri takes it for snapshot queries and for pairs
    /// its anchor row cannot answer; a pair touching the anchor walks only
    /// [`PartialGraph::neighbors`] of the other endpoint, in the same order.
    #[inline]
    pub fn for_each_common_neighbor<F: FnMut(ObjectId, f64, f64)>(
        &self,
        a: ObjectId,
        b: ObjectId,
        mut f: F,
    ) {
        let la = &self.adj[a as usize];
        let lb = &self.adj[b as usize];
        let (mut i, mut j) = (0, 0);
        while i < la.len() && j < lb.len() {
            let (ca, da) = la[i];
            let (cb, db) = lb[j];
            match ca.cmp(&cb) {
                std::cmp::Ordering::Equal => {
                    f(ca, da, db);
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(a: ObjectId, b: ObjectId) -> Pair {
        Pair::new(a, b)
    }

    #[test]
    fn insert_and_get() {
        let mut g = PartialGraph::new(5);
        assert!(g.insert(p(0, 1), 0.5));
        assert!(g.insert(p(1, 2), 0.25));
        assert!(!g.insert(p(0, 1), 0.5), "duplicate insert returns false");
        assert_eq!(g.get(p(0, 1)), Some(0.5));
        assert_eq!(g.get(p(1, 0)), Some(0.5), "symmetric lookup");
        assert_eq!(g.get(p(0, 2)), None);
        assert_eq!(g.m(), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn adjacency_stays_sorted() {
        let mut g = PartialGraph::new(6);
        for b in [5, 2, 4, 1, 3] {
            g.insert(p(0, b), f64::from(b) / 10.0);
        }
        let ids: Vec<ObjectId> = g.neighbors(0).iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn common_neighbors_merge() {
        let mut g = PartialGraph::new(7);
        // a=0 knows {1,2,3,5}; b=6 knows {2,3,4}: common = {2,3}.
        for b in [1, 2, 3, 5] {
            g.insert(p(0, b), 0.125 * f64::from(b));
        }
        for b in [2, 3, 4] {
            g.insert(p(6, b), 0.25 * f64::from(b));
        }
        let mut seen = Vec::new();
        g.for_each_common_neighbor(0, 6, |c, da, db| seen.push((c, da, db)));
        assert_eq!(seen, vec![(2, 0.25, 0.5), (3, 0.375, 0.75)]);
    }

    #[test]
    fn common_neighbors_empty_cases() {
        let mut g = PartialGraph::new(4);
        g.insert(p(0, 1), 0.3);
        let mut count = 0;
        g.for_each_common_neighbor(2, 3, |_, _, _| count += 1);
        assert_eq!(count, 0, "isolated endpoints share nothing");
        g.for_each_common_neighbor(0, 1, |_, _, _| count += 1);
        assert_eq!(count, 0, "adjacent endpoints without a triangle");
    }

    #[test]
    fn generation_and_stamps_track_insertions() {
        let mut g = PartialGraph::new(5);
        assert_eq!(g.generation(), 0);
        assert_eq!(g.pair_stamp(p(0, 1)), 0);
        g.insert(p(0, 1), 0.5);
        assert_eq!(g.generation(), 1);
        assert_eq!(g.node_stamp(0), 1);
        assert_eq!(g.node_stamp(1), 1);
        assert_eq!(g.node_stamp(2), 0);
        g.insert(p(1, 2), 0.25);
        assert_eq!(g.generation(), 2);
        assert_eq!(g.node_stamp(1), 2, "stamp follows the latest insertion");
        assert_eq!(g.pair_stamp(p(0, 2)), 2, "max of endpoint stamps");
        assert_eq!(g.pair_stamp(p(0, 3)), 1);
        assert_eq!(g.pair_stamp(p(3, 4)), 0, "untouched pair stays at 0");
        // Duplicate insert changes nothing.
        g.insert(p(0, 1), 0.5);
        assert_eq!(g.generation(), 2);
    }

    #[test]
    fn remove_retracts_edge_and_bumps_generation() {
        let mut g = PartialGraph::new(5);
        g.insert(p(0, 1), 0.5);
        g.insert(p(1, 2), 0.25);
        g.insert(p(0, 2), 0.4);
        let gen = g.generation();
        assert_eq!(g.remove(p(0, 1)), Some(0.5));
        assert_eq!(g.get(p(0, 1)), None);
        assert_eq!(g.get(p(1, 0)), None, "symmetric removal");
        assert_eq!(g.m(), 2);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 1);
        assert_eq!(g.generation(), gen + 1);
        assert_eq!(g.node_stamp(0), gen + 1);
        assert_eq!(g.node_stamp(1), gen + 1);
        // Triangles through the retracted edge are gone.
        let mut count = 0;
        g.for_each_common_neighbor(1, 2, |_, _, _| count += 1);
        assert_eq!(count, 0);
        // Re-insert with a different (repaired) value is legal now.
        assert!(g.insert(p(0, 1), 0.45));
        assert_eq!(g.get(p(0, 1)), Some(0.45));
        // Removing an unknown edge is a no-op that reports None.
        assert_eq!(g.remove(p(3, 4)), None);
        assert_eq!(g.generation(), gen + 2, "failed removal does not stamp");
    }

    #[test]
    fn edges_in_insertion_order() {
        let mut g = PartialGraph::new(4);
        g.insert(p(2, 3), 0.9);
        g.insert(p(0, 1), 0.1);
        let pairs: Vec<Pair> = g.edges().iter().map(|&(e, _)| e).collect();
        assert_eq!(pairs, vec![p(2, 3), p(0, 1)]);
    }
}
