//! k-nearest-neighbour graph construction (KNNrp-style candidate sweep).
//!
//! Construction is sequential by definition: every resolved distance is
//! recorded in the scheme and serves later queries, so the state a query
//! sees depends on every query before it. [`knn_graph`] therefore runs
//! [`knn_query`] for each object in id order, on one thread, whatever
//! `prox_exec::global_threads` says.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use prox_bounds::DistanceResolver;
use prox_core::invariant::{expect_ok, InvariantExt};
use prox_core::{ObjectId, OracleError, Pair};
use prox_obs::SpanGuard;

/// The kNN graph: for each object, its `k` nearest neighbours sorted by
/// `(distance, id)` ascending.
pub type KnnGraph = Vec<Vec<(ObjectId, f64)>>;

/// Max-heap entry over `(distance, id)` so the *worst* current neighbour is
/// at the top. The lexicographic order makes the kNN set unique even under
/// distance ties, which is what lets plugged and vanilla runs agree exactly.
#[derive(Copy, Clone, PartialEq)]
struct Neighbor {
    d: f64,
    id: ObjectId,
}

impl Eq for Neighbor {}

impl Ord for Neighbor {
    fn cmp(&self, other: &Self) -> Ordering {
        self.d
            .total_cmp(&other.d)
            .then_with(|| self.id.cmp(&other.id))
    }
}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Candidate order: ascending `(key, id)`, a total order (ids are unique).
#[inline]
fn cand_cmp(a: &(f64, bool, ObjectId), b: &(f64, bool, ObjectId)) -> Ordering {
    a.0.total_cmp(&b.0).then_with(|| a.2.cmp(&b.2))
}

/// Finds the `k` nearest neighbours of `u` (by `(distance, id)` order).
///
/// Candidates are swept in ascending order of their *current lower bound*
/// (exact distances first, from knowledge the scheme already holds — the
/// symmetric reuse KNNrp gets from shared distance computations). Once the
/// heap holds `k` entries, a candidate is admitted only if it can beat the
/// current k-th neighbour; the bound check
/// [`DistanceResolver::distance_if_leq`] discards most candidates without an
/// oracle call, and the sweep stops outright when the next stale bound
/// already exceeds the k-th distance.
pub fn knn_query<R: DistanceResolver + ?Sized>(
    resolver: &mut R,
    u: ObjectId,
    k: usize,
) -> Vec<(ObjectId, f64)> {
    expect_ok(
        try_knn_query(resolver, u, k),
        "knn_query on the infallible path",
    )
}

/// Fallible [`knn_query`]: surfaces oracle faults instead of panicking.
pub fn try_knn_query<R: DistanceResolver + ?Sized>(
    resolver: &mut R,
    u: ObjectId,
    k: usize,
) -> Result<Vec<(ObjectId, f64)>, OracleError> {
    let n = resolver.n();
    assert!((u as usize) < n);
    let k = k.min(n - 1);
    if k == 0 {
        return Ok(Vec::new());
    }

    // Gather candidates keyed by the best current information.
    let mut cands: Vec<(f64, bool, ObjectId)> = Vec::with_capacity(n - 1);
    {
        let _init = SpanGuard::enter(resolver.trace_sink(), "init");
        for v in 0..n as ObjectId {
            if v == u {
                continue;
            }
            let p = Pair::new(u, v);
            match resolver.known(p) {
                Some(d) => cands.push((d, true, v)),
                None => cands.push((resolver.lower_bound_hint(p), false, v)),
            }
        }
        cands.sort_unstable_by(cand_cmp);
    }

    let _span = SpanGuard::enter(resolver.trace_sink(), "query");
    let mut heap: BinaryHeap<Neighbor> = BinaryHeap::with_capacity(k + 1);
    for &(key, known, v) in &cands {
        let worst = heap.peek().copied();
        if heap.len() == k {
            let w = worst.expect_invariant("heap full");
            // `key` is a lower bound (or exact): if it already exceeds the
            // k-th distance, no later candidate can qualify either.
            if key > w.d {
                break;
            }
        }
        let p = Pair::new(u, v);
        if heap.len() < k {
            let d = resolver.resolve_fallible(p)?;
            heap.push(Neighbor { d, id: v });
            continue;
        }
        let w = worst.expect_invariant("heap full");
        let d = if known {
            Some(key)
        } else {
            resolver.distance_if_leq_fallible(p, w.d)?
        };
        if let Some(d) = d {
            let cand = Neighbor { d, id: v };
            if cand < w {
                heap.pop();
                heap.push(cand);
            }
        }
    }

    let mut out: Vec<(ObjectId, f64)> = heap.into_iter().map(|nb| (nb.id, nb.d)).collect();
    out.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    Ok(out)
}

/// Builds the full kNN graph by running [`knn_query`] for every object.
///
/// Every distance resolved for one node is recorded in the scheme and serves
/// later nodes for free (both as exact knowledge and as bound fuel), which
/// is where the savings compound as construction proceeds.
pub fn knn_graph<R: DistanceResolver + ?Sized>(resolver: &mut R, k: usize) -> KnnGraph {
    expect_ok(
        try_knn_graph(resolver, k),
        "knn_graph on the infallible path",
    )
}

/// Fallible [`knn_graph`]: a fault aborts after the last finished source,
/// leaving the resolver consistent (every finished source is final,
/// nothing past the fault is recorded).
pub fn try_knn_graph<R: DistanceResolver + ?Sized>(
    resolver: &mut R,
    k: usize,
) -> Result<KnnGraph, OracleError> {
    let _span = SpanGuard::enter(resolver.trace_sink(), "build");
    (0..resolver.n() as ObjectId)
        .map(|u| try_knn_query(resolver, u, k))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prox_bounds::{BoundResolver, TriScheme};
    use prox_core::{FnMetric, Oracle};

    fn line_oracle(n: usize) -> Oracle<FnMetric<impl Fn(ObjectId, ObjectId) -> f64>> {
        let scale = 1.0 / (n as f64 - 1.0);
        Oracle::new(FnMetric::new(n, 1.0, move |a, b| {
            (f64::from(a) - f64::from(b)).abs() * scale
        }))
    }

    #[test]
    fn line_neighbors_are_adjacent_points() {
        let oracle = line_oracle(10);
        let mut r = BoundResolver::vanilla(&oracle);
        let nb = knn_query(&mut r, 5, 2);
        let ids: Vec<ObjectId> = nb.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![4, 6], "ties broken by id: 4 before 6");
    }

    #[test]
    fn boundary_object() {
        let oracle = line_oracle(10);
        let mut r = BoundResolver::vanilla(&oracle);
        let nb = knn_query(&mut r, 0, 3);
        let ids: Vec<ObjectId> = nb.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn k_larger_than_n() {
        let oracle = line_oracle(4);
        let mut r = BoundResolver::vanilla(&oracle);
        let nb = knn_query(&mut r, 1, 10);
        assert_eq!(nb.len(), 3, "clamped to n-1");
    }

    #[test]
    fn k_zero() {
        let oracle = line_oracle(4);
        let mut r = BoundResolver::vanilla(&oracle);
        assert!(knn_query(&mut r, 1, 0).is_empty());
    }

    #[test]
    fn vanilla_graph_costs_all_pairs() {
        let n = 12;
        let oracle = line_oracle(n);
        let mut r = BoundResolver::vanilla(&oracle);
        let g = knn_graph(&mut r, 3);
        assert_eq!(g.len(), n);
        assert_eq!(oracle.calls(), Pair::count(n), "symmetric memoization");
    }

    #[test]
    fn plugged_graph_matches_vanilla() {
        let n = 30;
        let k = 4;
        let o1 = line_oracle(n);
        let mut vanilla = BoundResolver::vanilla(&o1);
        let want = knn_graph(&mut vanilla, k);

        let o2 = line_oracle(n);
        let mut plugged = BoundResolver::new(&o2, TriScheme::new(n, 1.0));
        let got = knn_graph(&mut plugged, k);

        for (u, (w, g)) in want.iter().zip(got.iter()).enumerate() {
            let wi: Vec<ObjectId> = w.iter().map(|&(id, _)| id).collect();
            let gi: Vec<ObjectId> = g.iter().map(|&(id, _)| id).collect();
            assert_eq!(wi, gi, "node {u}");
        }
        assert!(o2.calls() < o1.calls(), "{} !< {}", o2.calls(), o1.calls());
    }

    #[test]
    fn neighbors_sorted_ascending() {
        let oracle = line_oracle(20);
        let mut r = BoundResolver::vanilla(&oracle);
        for u in 0..20 {
            let nb = knn_query(&mut r, u, 5);
            for w in nb.windows(2) {
                assert!(
                    w[0].1 < w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0),
                    "(distance, id) ascending"
                );
            }
        }
    }
}
