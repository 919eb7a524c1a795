//! Prim's MST with re-authored, *symbolic* distance comparisons.

use prox_bounds::DistanceResolver;
use prox_core::invariant::{expect_ok, InvariantExt};
use prox_core::{ObjectId, OracleError, Pair};
use prox_obs::{SpanGuard, SpanName};

use crate::Mst;

/// Prim's algorithm over the complete distance graph.
///
/// The classical dense Prim maintains, for every non-tree vertex `v`, its
/// cheapest connecting edge. This implementation keeps that candidate edge
/// **symbolic** — the pair `(parent[v], v)`, *not* its resolved weight — so
/// both places the algorithm compares distances become four-index IF
/// statements in the paper's canonical form (§2.1):
///
/// * **relaxation** — `if dist(u, v) < dist(parent[v], v)` re-points the
///   candidate without needing either value;
/// * **extract-min** — a comparison tournament
///   `if dist(parent[v], v) < dist(parent[best], best)` selects the next
///   tree vertex.
///
/// Both run through [`DistanceResolver::less`]: bounds (or DFT's linear
/// feasibility) decide most of them for free, and only inconclusive ones
/// resolve the two distances. Comparing two *unknown* edges is exactly
/// where DFT outprunes per-edge bound schemes — the joint triangle system
/// can refute an ordering even when the two bound intervals overlap
/// (Figure 4 of the paper).
///
/// With a vanilla resolver every pair is resolved exactly once — `C(n,2)`
/// calls, the paper's `Without Plug` column. Ties are broken toward the
/// vertex scanned first (ascending id), identically under every resolver,
/// so the tree is unique given the metric.
pub fn prim_mst<R: DistanceResolver + ?Sized>(resolver: &mut R) -> Mst {
    expect_ok(try_prim_mst(resolver), "prim_mst on the infallible path")
}

/// Fallible [`prim_mst`]: surfaces oracle faults instead of panicking.
pub fn try_prim_mst<R: DistanceResolver + ?Sized>(resolver: &mut R) -> Result<Mst, OracleError> {
    // Semantic span; the guard closes it even on a fault. Extract-min and
    // relaxation get nested child spans so profiles attribute calls to the
    // stage that paid them.
    let trace = resolver.trace_sink();
    let _span = SpanGuard::enter(trace.clone(), SpanName::Build);
    let n = resolver.n();
    assert!(n >= 1, "empty space has no MST");
    let mut in_tree = vec![false; n];
    // Candidate edge for v is (parent[v], v); starts at the root.
    let mut parent: Vec<ObjectId> = vec![0; n];
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    let mut total = 0.0;

    in_tree[0] = true;

    for _ in 1..n {
        // Extract-min: tournament over the symbolic candidate edges.
        let next = {
            let _scan = SpanGuard::enter(trace.clone(), SpanName::Scan);
            let mut best: Option<ObjectId> = None;
            for v in 1..n as ObjectId {
                if in_tree[v as usize] {
                    continue;
                }
                match best {
                    None => best = Some(v),
                    Some(b) => {
                        let ev = Pair::new(parent[v as usize], v);
                        let eb = Pair::new(parent[b as usize], b);
                        // if dist(parent[v], v) < dist(parent[best], best)
                        if resolver.less_fallible(ev, eb)? {
                            best = Some(v);
                        }
                    }
                }
            }
            best.expect_invariant("n - 1 vertices remain outside the tree")
        };
        let w = resolver.resolve_fallible(Pair::new(parent[next as usize], next))?;
        in_tree[next as usize] = true;
        edges.push((Pair::new(parent[next as usize], next), w));
        total += w;

        // Relaxation: can `next` offer a cheaper connection?
        let _refine = SpanGuard::enter(trace.clone(), SpanName::Refine);
        for v in 1..n as ObjectId {
            if in_tree[v as usize] {
                continue;
            }
            let cand = Pair::new(next, v);
            let cur = Pair::new(parent[v as usize], v);
            // if dist(next, v) < dist(parent[v], v)
            if resolver.less_fallible(cand, cur)? {
                parent[v as usize] = next;
            }
        }
    }

    Ok(Mst {
        edges,
        total_weight: total,
    })
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
    fn line_mst_is_the_chain() {
        let oracle = line_oracle(8);
        let mut r = BoundResolver::vanilla(&oracle);
        let mst = prim_mst(&mut r);
        assert_eq!(mst.edges.len(), 7);
        assert!((mst.total_weight - 1.0).abs() < 1e-12, "7 hops of 1/7");
        // Every edge of the chain is unit length.
        for &(p, w) in &mst.edges {
            assert_eq!(p.hi() - p.lo(), 1, "chain edges only: {p:?}");
            assert!((w - 1.0 / 7.0).abs() < 1e-12);
        }
    }

    #[test]
    fn vanilla_pays_all_pairs() {
        let n = 12;
        let oracle = line_oracle(n);
        let mut r = BoundResolver::vanilla(&oracle);
        prim_mst(&mut r);
        assert_eq!(oracle.calls(), Pair::count(n), "Without Plug = C(n,2)");
    }

    /// Two far-apart 2-D clusters (points on small circles): as Prim walks
    /// around a cluster it moves *away* from many candidates, so the IF
    /// condition is often false and boundable away. (Collinear 1-D data
    /// scanned end-to-end is the adversarial opposite.)
    fn clusters_oracle(n: usize) -> Oracle<FnMetric<impl Fn(ObjectId, ObjectId) -> f64>> {
        Oracle::new(FnMetric::new(n, 1.0, move |a, b| {
            let half = n as u32 / 2;
            let pt = |i: u32| {
                let (cx, cy) = if i < half { (0.2, 0.2) } else { (0.8, 0.8) };
                let t = 2.0 * std::f64::consts::PI * f64::from(i % half) / f64::from(half);
                (cx + 0.05 * t.cos(), cy + 0.05 * t.sin())
            };
            let (ax, ay) = pt(a);
            let (bx, by) = pt(b);
            (((ax - bx).powi(2) + (ay - by).powi(2)).sqrt() / std::f64::consts::SQRT_2).min(1.0)
        }))
    }

    #[test]
    fn tri_scheme_saves_calls_same_tree() {
        let n = 40;
        let o1 = clusters_oracle(n);
        let mut vanilla = BoundResolver::vanilla(&o1);
        let want = prim_mst(&mut vanilla);

        let o2 = clusters_oracle(n);
        let mut plugged = BoundResolver::new(&o2, TriScheme::new(n, 1.0));
        let got = prim_mst(&mut plugged);

        assert_eq!(got.edge_keys(), want.edge_keys(), "identical MST");
        assert!((got.total_weight - want.total_weight).abs() < 1e-12);
        assert!(
            o2.calls() < o1.calls(),
            "plugged ({}) must save vs vanilla ({})",
            o2.calls(),
            o1.calls()
        );
    }

    #[test]
    fn single_vertex() {
        let oracle = line_oracle(2);
        let mut r = BoundResolver::vanilla(&oracle);
        let mst = prim_mst(&mut r);
        assert_eq!(mst.edges.len(), 1);
    }

    #[test]
    fn tree_spans_every_vertex() {
        let oracle = clusters_oracle(30);
        let mut r = BoundResolver::vanilla(&oracle);
        let mst = prim_mst(&mut r);
        let mut uf = prox_graph::UnionFind::new(30);
        for &(p, _) in &mst.edges {
            assert!(uf.union(p.lo(), p.hi()), "no cycles");
        }
        assert_eq!(uf.components(), 1, "spanning");
    }
}
