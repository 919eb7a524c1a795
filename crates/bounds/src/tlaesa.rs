//! TLAESA as a pair-bound scheme (baseline; Micó, Oncina, Carrasco 1996).

use std::collections::BTreeMap;

use prox_core::invariant::{expect_ok, InvariantExt};
use prox_core::{Metric, ObjectId, Oracle, OracleError, Pair};

use crate::laesa::pivot_list_bounds;
use crate::{try_select_maxmin_pivots, BoundScheme};

/// Landmark rows **plus** a recursively-built pivot tree.
///
/// TLAESA augments LAESA's base prototypes with a search tree: starting from
/// a root representative, each node is split around two representatives (the
/// node's own plus the member farthest from it) and members are assigned to
/// the nearer one. Every distance evaluated during construction is a real
/// oracle call — the paper notes that "the construction of [the tree] incurs
/// additional distance computations" (§5.4.1) — and all of them are retained
/// as per-object pivot lists.
///
/// Adapted to the pair-bounds interface: for a pair `(a, b)`, any pivot
/// whose distance to *both* endpoints is known contributes
/// `|d(p,a) − d(p,b)|` / `d(p,a) + d(p,b)`. The usable pivots are the base
/// prototypes (known to everyone) plus the tree representatives shared by
/// the two objects' root-to-leaf paths. This gives TLAESA slightly tighter
/// bounds than LAESA at a higher bootstrap cost — matching the ordering the
/// paper observes (LAESA ≤ TLAESA ≤ Tri in calls saved).
///
/// Like LAESA, the scheme is *static*: `record` only memoizes.
#[derive(Clone, Debug)]
pub struct Tlaesa {
    n: usize,
    max_distance: f64,
    /// Per-object sorted `(pivot_object, distance)` lists: base prototypes
    /// plus every tree representative the object was compared against.
    lists: Vec<Vec<(ObjectId, f64)>>,
    resolved: BTreeMap<u64, f64>,
    construction_calls: u64,
}

impl Tlaesa {
    /// Builds the scheme: `k` max-min base prototypes plus the pivot tree.
    /// All oracle calls made here are counted on `oracle` (the scheme's
    /// bootstrap cost); [`Tlaesa::construction_calls`] reports the total.
    pub fn build<M: Metric>(oracle: &Oracle<M>, k: usize, leaf_size: usize, seed: u64) -> Self {
        expect_ok(
            Self::try_build(oracle, k, leaf_size, seed),
            "Tlaesa::build on the infallible path",
        )
    }

    /// Fallible twin of [`Tlaesa::build`]: a fault or budget error from the
    /// oracle aborts construction cleanly instead of panicking.
    pub fn try_build<M: Metric>(
        oracle: &Oracle<M>,
        k: usize,
        leaf_size: usize,
        seed: u64,
    ) -> Result<Self, OracleError> {
        let n = oracle.n();
        let start_calls = oracle.calls();
        let bootstrap = try_select_maxmin_pivots(oracle, k, seed)?;

        fn note(
            resolved: &mut BTreeMap<u64, f64>,
            lists: &mut [Vec<(ObjectId, f64)>],
            a: ObjectId,
            b: ObjectId,
            d: f64,
        ) {
            resolved.insert(Pair::new(a, b).key(), d);
            for (x, p) in [(b, a), (a, b)] {
                let list = &mut lists[x as usize];
                if let Err(i) = list.binary_search_by_key(&p, |&(id, _)| id) {
                    list.insert(i, (p, d));
                }
            }
        }

        let mut lists: Vec<Vec<(ObjectId, f64)>> = vec![Vec::new(); n];
        let mut resolved: BTreeMap<u64, f64> = BTreeMap::new();
        for (t, &pv) in bootstrap.pivots.iter().enumerate() {
            for x in 0..n as ObjectId {
                if x != pv {
                    note(
                        &mut resolved,
                        &mut lists,
                        pv,
                        x,
                        bootstrap.rows[t][x as usize],
                    );
                }
            }
        }

        // Pivot tree. Root representative: the first base prototype, whose
        // distances to everything are already known (no extra calls at the
        // root level).
        let root_rep = bootstrap.pivots[0];
        let members: Vec<ObjectId> = (0..n as ObjectId).filter(|&x| x != root_rep).collect();
        let root_dists: Vec<f64> = members
            .iter()
            .map(|&x| bootstrap.rows[0][x as usize])
            .collect();
        let leaf_size = leaf_size.max(2);

        // Iterative DFS over (representative, members, dist-to-rep) frames.
        let mut stack = vec![(root_rep, members, root_dists)];
        while let Some((rep, members, dists)) = stack.pop() {
            // integer, not a float decision; lint: allow(L3)
            if members.len() <= leaf_size {
                continue;
            }
            // Second representative: farthest member from `rep`.
            let far_idx = dists
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .expect_invariant("non-empty node");
            let rep2 = members[far_idx];
            // Distances from rep2 to every member (oracle calls unless the
            // pair is already known from the prototype rows or an ancestor).
            let mut left: (Vec<ObjectId>, Vec<f64>) = (Vec::new(), Vec::new());
            let mut right: (Vec<ObjectId>, Vec<f64>) = (Vec::new(), Vec::new());
            for (i, &x) in members.iter().enumerate() {
                if x == rep2 {
                    continue;
                }
                let pair = Pair::new(rep2, x);
                let d2 = match resolved.get(&pair.key()) {
                    Some(&d) => d,
                    None => {
                        let d = oracle.try_call_pair(pair)?;
                        note(&mut resolved, &mut lists, rep2, x, d);
                        d
                    }
                };
                // any partition is a valid tree; lint: allow(L3)
                if dists[i] <= d2 {
                    left.0.push(x);
                    left.1.push(dists[i]);
                } else {
                    right.0.push(x);
                    right.1.push(d2);
                }
            }
            // Degenerate split (all members on one side) would recurse
            // forever; stop splitting that branch instead.
            if !left.0.is_empty() && !right.0.is_empty() {
                stack.push((rep, left.0, left.1));
                stack.push((rep2, right.0, right.1));
            }
        }

        Ok(Tlaesa {
            n,
            max_distance: oracle.max_distance(),
            lists,
            resolved,
            construction_calls: oracle.calls() - start_calls,
        })
    }

    /// Oracle calls spent building prototypes + tree (the bootstrap cost).
    pub fn construction_calls(&self) -> u64 {
        self.construction_calls
    }

    /// Every exact distance the scheme holds (prototype rows, tree
    /// construction, and later recordings). Lets experiments hand the same
    /// knowledge to other schemes for fair bound comparisons.
    pub fn resolved_edges(&self) -> impl Iterator<Item = (Pair, f64)> + '_ {
        self.resolved
            .iter()
            .map(|(&key, &d)| (Pair::from_key(key), d))
    }

    /// Average per-object pivot-list length (diagnostics).
    pub fn mean_list_len(&self) -> f64 {
        let total: usize = self.lists.iter().map(Vec::len).sum();
        total as f64 / self.n as f64
    }
}

impl BoundScheme for Tlaesa {
    fn n(&self) -> usize {
        self.n
    }

    fn max_distance(&self) -> f64 {
        self.max_distance
    }

    fn known(&self, p: Pair) -> Option<f64> {
        self.resolved.get(&p.key()).copied()
    }

    fn bounds(&mut self, p: Pair) -> (f64, f64) {
        if let Some(d) = self.known(p) {
            return (d, d);
        }
        pivot_list_bounds(
            &self.lists[p.lo() as usize],
            &self.lists[p.hi() as usize],
            self.max_distance,
        )
    }

    fn record(&mut self, p: Pair, d: f64) {
        self.resolved.insert(p.key(), d);
    }

    fn m(&self) -> usize {
        self.resolved.len()
    }

    fn name(&self) -> &'static str {
        "TLAESA"
    }

    fn for_each_known(&self, f: &mut dyn FnMut(Pair, f64)) {
        for (p, d) in self.resolved_edges() {
            f(p, d);
        }
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "un-metered ground truth")]
mod tests {
    use super::*;
    use crate::select_maxmin_pivots;
    use prox_core::FnMetric;

    fn line_oracle(n: usize) -> Oracle<FnMetric<impl Fn(ObjectId, ObjectId) -> f64>> {
        let scale = 1.0 / (n as f64 - 1.0);
        Oracle::new(FnMetric::new(n, 1.0, move |a, b| {
            (f64::from(a) - f64::from(b)).abs() * scale
        }))
    }

    #[test]
    fn construction_counts_calls() {
        let oracle = line_oracle(60);
        let t = Tlaesa::build(&oracle, 4, 8, 5);
        assert_eq!(t.construction_calls(), oracle.calls());
        // Tree construction must cost more than bare LAESA landmarks.
        let oracle2 = line_oracle(60);
        select_maxmin_pivots(&oracle2, 4, 5);
        assert!(
            oracle.calls() > oracle2.calls(),
            "TLAESA ({}) should out-spend LAESA ({}) at bootstrap",
            oracle.calls(),
            oracle2.calls()
        );
    }

    #[test]
    fn bounds_sound_on_line() {
        let oracle = line_oracle(50);
        let mut t = Tlaesa::build(&oracle, 3, 4, 2);
        for p in Pair::all(50) {
            let (lb, ub) = t.bounds(p);
            let d = oracle.ground_truth().distance(p.lo(), p.hi());
            assert!(lb <= d + 1e-12, "{p:?}: lb {lb} > {d}");
            assert!(ub >= d - 1e-12, "{p:?}: ub {ub} < {d}");
        }
    }

    #[test]
    fn tighter_or_equal_to_laesa_same_prototypes() {
        let oracle = line_oracle(80);
        let mut tl = Tlaesa::build(&oracle, 4, 8, 77);
        let oracle2 = line_oracle(80);
        let b = select_maxmin_pivots(&oracle2, 4, 77);
        let mut la = crate::Laesa::new(1.0, &b);
        for p in Pair::all(80).step_by(7) {
            let (tlb, tub) = tl.bounds(p);
            let (llb, lub) = la.bounds(p);
            assert!(tlb >= llb - 1e-12, "{p:?}: TLAESA lb {tlb} < LAESA {llb}");
            assert!(tub <= lub + 1e-12, "{p:?}: TLAESA ub {tub} > LAESA {lub}");
        }
    }

    #[test]
    fn record_memoizes() {
        let oracle = line_oracle(20);
        let mut t = Tlaesa::build(&oracle, 2, 4, 1);
        let q = Pair::new(7, 9);
        t.record(q, 0.123);
        assert_eq!(t.bounds(q), (0.123, 0.123));
        assert_eq!(t.known(q), Some(0.123));
    }

    #[test]
    fn lists_are_sorted() {
        let oracle = line_oracle(40);
        let t = Tlaesa::build(&oracle, 3, 4, 8);
        for list in &t.lists {
            let ids: Vec<ObjectId> = list.iter().map(|&(id, _)| id).collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(ids, sorted);
        }
    }
}
