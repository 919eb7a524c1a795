//! SPLUB — Shortest-Path based Lower and Upper Bounds (§4.1, Algorithm 1):
//! every query answers with the exact tightest sandwich (DESIGN.md §13).

use std::collections::BTreeMap;

use prox_core::invariant::InvariantExt;
use prox_core::{ObjectId, Pair};
use prox_graph::{Dijkstra, DistMap, PartialGraph};

use crate::BoundScheme;

/// `(source, generation, edge count)` of the shortest-path tree a Dijkstra
/// scratch currently holds. The generation/edge-count pair is what makes
/// *incremental repair* safe: when the graph has only grown since the tree
/// was settled (no retraction in between), the appended suffix
/// `edges()[m..]` is exactly the set of new edges, and a decrease-only
/// Ramalingam–Reps repair from their endpoints reproduces the from-scratch
/// tree bitwise (see `Dijkstra::repair`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct TreeTag {
    src: ObjectId,
    gen: u64,
    m: usize,
}

/// The paper's exact, sparsity-sensitive bound algorithm.
///
/// For an unknown edge `(a, b)`:
///
/// * `TUB(a, b)` — the tightest upper bound — is the shortest-path distance
///   between `a` and `b` through known edges (Definition 1).
/// * `TLB(a, b)` — the tightest lower bound — is, over every known edge
///   `(k, l)` with weight `w`, the best "wrap" residue
///   `w − sp(a, k) − sp(b, l)` (and the symmetric assignment), maximized
///   (Definition 2 / Equation 3).
///
/// Both come out of **two** Dijkstra runs (one per endpoint) plus one pass
/// over the known edges in descending weight, which stops at the first edge
/// no heavier than the running `TLB`: `O(m log n)` per query (each
/// Dijkstra lowers a label at most once per arc, and each lowering sifts
/// an indexed 4-ary queue; the paper's `O(m + n log n)` assumes a
/// Fibonacci heap), and one binary-search insertion into that order
/// (`O(m)` with the shift) per update.
/// Lemma 4.1 proves these bounds are the tightest derivable from the
/// triangle inequality on paths, i.e. identical to what the `O(n²)`-update
/// ADM baseline maintains — a property the cross-scheme test-suite checks on
/// random instances.
///
/// # The query path
///
/// Every query takes one exact path; only repeats are cheaper:
///
/// 1. **Per-generation memo** — the exact `(lb, ub)` for a pair is a pure
///    function of the graph state, so a repeat query at an unchanged
///    generation is a map lookup. The resolver's own memo serves most
///    repeats first; this one catches the pairs whose resolver slot was
///    taken by another pair (above n = 362, DESIGN.md §8).
/// 2. **Exact tier** — two SSSP trees (incrementally repaired across pure
///    growth) plus the wrap fold over the known edges in weight order.
pub struct Splub {
    graph: PartialGraph,
    /// The known edges in descending weight (ties in recording order), kept
    /// in step with `graph` by `record` and `retract` for [`wrap_bounds`]'
    /// early exit.
    by_weight: Vec<(Pair, f64)>,
    max_distance: f64,
    dij_a: Dijkstra,
    dij_b: Dijkstra,
    tag_a: Option<TreeTag>,
    tag_b: Option<TreeTag>,
    /// Generation right after the most recent successful retraction; trees
    /// settled before it must not be repaired incrementally (the retracted
    /// edge may have carried their labels).
    last_retract_gen: u64,
    /// Exact `(lb, ub)` per pair key, valid only at `memo_gen`.
    memo: BTreeMap<u64, (f64, f64)>,
    memo_gen: u64,
}

impl Splub {
    /// An empty SPLUB scheme over `n` objects with distances in
    /// `[0, max_distance]`.
    pub fn new(n: usize, max_distance: f64) -> Self {
        Splub {
            graph: PartialGraph::new(n),
            by_weight: Vec::new(),
            max_distance,
            dij_a: Dijkstra::new(n),
            dij_b: Dijkstra::new(n),
            tag_a: None,
            tag_b: None,
            last_retract_gen: 0,
            memo: BTreeMap::new(),
            memo_gen: 0,
        }
    }

    /// Read access to the underlying known-edge graph.
    pub fn graph(&self) -> &PartialGraph {
        &self.graph
    }

    /// Settles the shortest-path tree for `src` into `dij`, preferring an
    /// incremental decrease-only repair of the tree already held when only
    /// insertions happened since it was settled.
    #[expect(
        clippy::disallowed_methods,
        reason = "L13: the exact tier; SPLUB's certified bounds are full shortest-path trees"
    )]
    fn ensure_tree(
        dij: &mut Dijkstra,
        tag: &mut Option<TreeTag>,
        graph: &PartialGraph,
        src: ObjectId,
        last_retract_gen: u64,
    ) {
        let gen = graph.generation();
        let m = graph.m();
        match *tag {
            Some(t) if t.src == src && t.gen == gen => {}
            Some(t) if t.src == src && t.gen < gen && last_retract_gen <= t.gen => {
                // Pure growth since the tree settled: every generation bump
                // was an insertion, so the appended edge-list suffix is the
                // exact delta.
                debug_assert_eq!(gen - t.gen, (m - t.m) as u64);
                let new = graph.edges()[t.m..]
                    .iter()
                    .map(|&(p, w)| (p.lo(), p.hi(), w));
                let _ = dij.repair(graph, new);
                *tag = Some(TreeTag { src, gen, m });
            }
            _ => {
                let _ = dij.run(graph, src);
                *tag = Some(TreeTag { src, gen, m });
            }
        }
    }
}

/// TUB/TLB from two settled shortest-path trees (Equations 2 and 3).
///
/// `by_weight` holds the known edges in descending weight. Shortest-path
/// labels are never negative and IEEE subtraction rounds monotonically, so
/// a residue `w − (sp_a(k) + sp_b(l))` never exceeds `w`: once an edge has
/// `w <= lb`, neither it nor any lighter edge can raise `lb`, and the pass
/// stops. `max` over the edges it did scan equals the full pass's, bit for
/// bit, because `max` over the same values does not depend on their order.
fn wrap_bounds(
    by_weight: &[(Pair, f64)],
    max_distance: f64,
    b: ObjectId,
    sp_a: DistMap<'_>,
    sp_b: DistMap<'_>,
) -> (f64, f64) {
    // TUB: shortest path a -> b (Equation 2), capped by the a-priori max.
    let ub = max_distance.min(sp_a.get(b));

    // TLB: wrap both shortest-path trees onto every known edge heavier
    // than the running bound (Equation 3). Unreachable endpoints
    // contribute -inf and drop out.
    let mut lb = 0.0f64;
    for &(e, w) in by_weight {
        if w <= lb {
            break;
        }
        let (k, l) = (e.lo(), e.hi());
        let via = w - (sp_a.get(k) + sp_b.get(l));
        let via_sym = w - (sp_a.get(l) + sp_b.get(k));
        let best = via.max(via_sym);
        if best > lb {
            lb = best;
        }
    }
    if lb > ub {
        lb = ub; // float-noise guard; mathematically lb <= ub
    }
    (lb, ub)
}

impl BoundScheme for Splub {
    fn n(&self) -> usize {
        self.graph.n()
    }

    fn max_distance(&self) -> f64 {
        self.max_distance
    }

    fn known(&self, p: Pair) -> Option<f64> {
        self.graph.get(p)
    }

    fn bounds(&mut self, p: Pair) -> (f64, f64) {
        if let Some(d) = self.graph.get(p) {
            return (d, d);
        }
        let gen = self.graph.generation();
        if self.memo_gen != gen {
            self.memo.clear();
            self.memo_gen = gen;
        }
        if let Some(&(lb, ub)) = self.memo.get(&p.key()) {
            return (lb, ub);
        }
        let (a, b) = p.ends();
        Self::ensure_tree(
            &mut self.dij_a,
            &mut self.tag_a,
            &self.graph,
            a,
            self.last_retract_gen,
        );
        Self::ensure_tree(
            &mut self.dij_b,
            &mut self.tag_b,
            &self.graph,
            b,
            self.last_retract_gen,
        );
        let (lb, ub) = wrap_bounds(
            &self.by_weight,
            self.max_distance,
            b,
            self.dij_a.view(),
            self.dij_b.view(),
        );
        self.memo.insert(p.key(), (lb, ub));
        (lb, ub)
    }

    fn record(&mut self, p: Pair, d: f64) {
        if self.graph.insert(p, d) {
            let at = self.by_weight.partition_point(|&(_, w)| w >= d);
            self.by_weight.insert(at, (p, d));
        }
    }

    fn retract(&mut self, p: Pair) -> bool {
        // Removal bumps the graph generation, so the generation tags on both
        // cached Dijkstra trees (and the memo) miss; marking the retraction
        // generation also bars incremental repair across it.
        let Some(d) = self.graph.remove(p) else {
            return false;
        };
        let first = self.by_weight.partition_point(|&(_, w)| w > d);
        let at = self.by_weight[first..]
            .iter()
            .position(|&(e, _)| e == p)
            .expect_invariant("a known edge sits in SPLUB's weight order");
        self.by_weight.remove(first + at);
        self.last_retract_gen = self.graph.generation();
        true
    }

    fn m(&self) -> usize {
        self.graph.m()
    }

    fn name(&self) -> &'static str {
        "SPLUB"
    }

    fn for_each_known(&self, f: &mut dyn FnMut(Pair, f64)) {
        for &(p, d) in self.graph.edges() {
            f(p, d);
        }
    }

    fn generation(&self) -> u64 {
        self.graph.generation()
    }

    // SPLUB bounds depend on the whole graph (any new edge can shorten a
    // path or improve a wrap), so the conservative default pair stamp — the
    // current generation — is also the sharp one; no override.

    fn bounds_cacheable(&self) -> bool {
        true
    }

    /// Read by no resolver: threshold probes decide from the exact
    /// sandwich like every other probe. Kept `true` only because the
    /// benchmark's forwarding wrapper pins it (see
    /// [`crate::GoalBounds`]).
    fn goal_aware(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{GoalBounds, QueryGoal};
    use prox_core::TinyRng;

    fn p(a: u32, b: u32) -> Pair {
        Pair::new(a, b)
    }

    #[test]
    fn single_triangle_matches_tri_scheme() {
        // Same fixture as the paper's Example 2.1 discussion.
        let mut s = Splub::new(7, 1.0);
        s.record(p(1, 3), 0.8);
        s.record(p(3, 4), 0.1);
        let (lb, ub) = s.bounds(p(1, 4));
        assert!((lb - 0.7).abs() < 1e-12);
        assert!((ub - 0.9).abs() < 1e-12);
    }

    #[test]
    fn longer_paths_tighten_ub() {
        // Chain 0 -0.2- 1 -0.2- 2 -0.2- 3: ub(0,3) = 0.6 (no triangle exists,
        // so Tri Scheme would say 1.0 — SPLUB sees the full path).
        let mut s = Splub::new(4, 1.0);
        s.record(p(0, 1), 0.2);
        s.record(p(1, 2), 0.2);
        s.record(p(2, 3), 0.2);
        let (lb, ub) = s.bounds(p(0, 3));
        assert!((ub - 0.6).abs() < 1e-12, "ub {ub}");
        assert_eq!(lb, 0.0);
    }

    #[test]
    fn wrap_lower_bound_through_path() {
        // Long edge (2,3)=0.9; sp(0,2)=0.1 via direct, sp(1,3)=0.1.
        // lb(0,1) >= 0.9 - 0.1 - 0.1 = 0.7. Tri Scheme sees no triangle on
        // (0,1) and would return 0 — the paper's motivating gap.
        let mut s = Splub::new(4, 1.0);
        s.record(p(0, 2), 0.1);
        s.record(p(2, 3), 0.9);
        s.record(p(1, 3), 0.1);
        let (lb, ub) = s.bounds(p(0, 1));
        assert!((lb - 0.7).abs() < 1e-12, "lb {lb}");
        assert!((ub - 1.0).abs() < 1e-12, "path ub = 1.1 capped, got {ub}");
    }

    #[test]
    fn disconnected_endpoints_trivial_bounds() {
        let mut s = Splub::new(5, 1.0);
        s.record(p(0, 1), 0.4);
        assert_eq!(s.bounds(p(3, 4)), (0.0, 1.0));
    }

    #[test]
    fn known_edge_is_exact() {
        let mut s = Splub::new(3, 1.0);
        s.record(p(0, 2), 0.6);
        assert_eq!(s.bounds(p(0, 2)), (0.6, 0.6));
        assert_eq!(s.m(), 1);
    }

    #[test]
    fn retract_invalidates_cached_shortest_paths() {
        // Chain 0 -0.2- 1 -0.2- 2 -0.2- 3 gives ub(0,3)=0.6; the same query
        // again after retracting the middle edge must not reuse the stale
        // Dijkstra trees (they are keyed by graph generation).
        let mut s = Splub::new(4, 1.0);
        s.record(p(0, 1), 0.2);
        s.record(p(1, 2), 0.2);
        s.record(p(2, 3), 0.2);
        assert!((s.bounds(p(0, 3)).1 - 0.6).abs() < 1e-12);
        assert!(s.retract(p(1, 2)));
        assert_eq!(s.known(p(1, 2)), None);
        assert_eq!(s.bounds(p(0, 3)), (0.0, 1.0), "path broken, trees rebuilt");
        // Repair with a different value; the new path is used.
        s.record(p(1, 2), 0.1);
        assert!((s.bounds(p(0, 3)).1 - 0.5).abs() < 1e-12);
        assert!(!s.retract(p(0, 3)), "never-recorded pair refuses");
    }

    #[test]
    fn lb_never_negative() {
        let mut s = Splub::new(3, 1.0);
        s.record(p(0, 1), 0.1);
        s.record(p(1, 2), 0.5);
        // Wrap residues are negative here; lb must clamp at 0.
        let (lb, _) = s.bounds(p(0, 2));
        assert!(lb >= 0.0);
        assert!((lb - 0.4).abs() < 1e-12, "|0.5-0.1| via wrap, got {lb}");
    }

    // ---- incremental-maintenance tests ----------------------------------

    /// Random points in the unit square, scaled so distances fit `[0, 1]`
    /// (I1 needs genuinely metric weights).
    fn coords(n: usize, seed: u64) -> Vec<(f64, f64)> {
        let mut rng = TinyRng::new(seed);
        (0..n).map(|_| (rng.unit_f64(), rng.unit_f64())).collect()
    }

    fn euclid(c: &[(f64, f64)], q: Pair) -> f64 {
        let (ax, ay) = c[q.lo() as usize];
        let (bx, by) = c[q.hi() as usize];
        (((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()) / std::f64::consts::SQRT_2
    }

    /// A deterministic metric record schedule: `m` distinct pairs with
    /// Euclidean distances.
    fn schedule(n: usize, m: usize, seed: u64) -> Vec<(Pair, f64)> {
        let c = coords(n, seed);
        let mut rng = TinyRng::new(seed ^ 0xABCD);
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        while out.len() < m {
            let a = rng.below(n) as u32;
            let b = rng.below(n) as u32;
            if a != b && seen.insert(Pair::new(a, b)) {
                out.push((Pair::new(a, b), euclid(&c, Pair::new(a, b))));
            }
        }
        out
    }

    #[test]
    fn incremental_trees_match_fresh_scheme_bitwise() {
        // Interleave records and queries; an instance that repairs its
        // trees incrementally must stay bitwise identical to a fresh
        // instance rebuilt from scratch at every step.
        for seed in 0..6u64 {
            let n = 24;
            let sched = schedule(n, 60, 0x1AC + seed);
            let mut inc = Splub::new(n, 1.0);
            let mut rng = TinyRng::new(seed ^ 0xF00);
            for (i, &(e, w)) in sched.iter().enumerate() {
                inc.record(e, w);
                for _ in 0..3 {
                    let a = rng.below(n) as u32;
                    let b = rng.below(n) as u32;
                    if a == b {
                        continue;
                    }
                    let q = Pair::new(a, b);
                    let (li, ui) = inc.bounds(q);
                    let mut fresh = Splub::new(n, 1.0);
                    for &(e2, w2) in &sched[..=i] {
                        fresh.record(e2, w2);
                    }
                    let (lf, uf) = fresh.bounds(q);
                    assert_eq!(li.to_bits(), lf.to_bits(), "seed {seed} step {i} {q:?}");
                    assert_eq!(ui.to_bits(), uf.to_bits(), "seed {seed} step {i} {q:?}");
                }
            }
        }
    }

    /// The wrap pass as it was before the weight order: every known edge,
    /// in recording order, no early exit. The reference for the fuzz below.
    fn full_wrap(
        graph: &PartialGraph,
        max_distance: f64,
        b: ObjectId,
        sp_a: DistMap<'_>,
        sp_b: DistMap<'_>,
    ) -> (f64, f64) {
        let ub = max_distance.min(sp_a.get(b));
        let mut lb = 0.0f64;
        for &(e, w) in graph.edges() {
            let (k, l) = (e.lo(), e.hi());
            let via = w - (sp_a.get(k) + sp_b.get(l));
            let via_sym = w - (sp_a.get(l) + sp_b.get(k));
            let best = via.max(via_sym);
            if best > lb {
                lb = best;
            }
        }
        (if lb > ub { ub } else { lb }, ub)
    }

    /// Seeded fuzz over interleaved `record`/`retract`/query schedules:
    /// every exact answer, which stops the wrap pass early, must equal
    /// bitwise the full pass over freshly settled trees. Weights include
    /// `0.0`, `−0.0` and repeated values, so ties in the weight order and
    /// zero-weight stops are common.
    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "L13: fresh full trees are the reference the exact tier is checked against"
    )]
    fn early_exit_wrap_matches_the_full_pass_bitwise() {
        use prox_datasets::testgen::property;

        let (mut stopped_early, mut retracts) = (0usize, 0usize);
        property(0x5B1B_0A7E, 48, |rng| {
            let n = rng.range(6, 40);
            let mut s = Splub::new(n, 1.0);
            let (mut fa, mut fb) = (Dijkstra::new(n), Dijkstra::new(n));
            let pair = |rng: &mut TinyRng| {
                let a = rng.below(n) as ObjectId;
                Pair::new(a, ((a as usize + 1 + rng.below(n - 1)) % n) as ObjectId)
            };
            for step in 0..300 {
                match rng.below(6) {
                    0..=2 => {
                        let e = pair(rng);
                        let w = match rng.below(4) {
                            0 => [0.0, -0.0, 0.25, 0.5][rng.below(4)],
                            _ => rng.unit_f64(),
                        };
                        if s.known(e).is_none() {
                            s.record(e, w);
                        }
                    }
                    3 if s.m() > 0 => {
                        let e = s.graph().edges()[rng.below(s.m())].0;
                        assert!(s.retract(e));
                        retracts += 1;
                    }
                    _ => {}
                }
                let q = pair(rng);
                if s.known(q).is_some() {
                    continue;
                }
                let (lb, ub) = s.bounds(q);
                let (a, b) = q.ends();
                let _ = fa.run(s.graph(), a);
                let _ = fb.run(s.graph(), b);
                let (want_lb, want_ub) = full_wrap(s.graph(), 1.0, b, fa.view(), fb.view());
                assert_eq!(
                    (lb.to_bits(), ub.to_bits()),
                    (want_lb.to_bits(), want_ub.to_bits()),
                    "n {n} step {step} {q:?}: early exit {lb} vs full pass {want_lb}"
                );
                stopped_early += usize::from(s.by_weight.last().is_some_and(|&(_, w)| w <= lb));
            }
        });
        assert!(
            stopped_early > 2000,
            "early exit barely taken: {stopped_early}"
        );
        assert!(retracts > 1000, "few retractions: {retracts}");
    }

    #[test]
    fn memo_serves_repeats_and_invalidates_on_record() {
        let mut s = Splub::new(4, 1.0);
        s.record(p(0, 1), 0.2);
        s.record(p(1, 2), 0.2);
        let first = s.bounds(p(0, 2));
        assert_eq!(s.bounds(p(0, 2)), first, "repeat query is memo-served");
        // A record changes the graph; the memo must not serve stale bounds.
        s.record(p(2, 3), 0.2);
        s.record(p(0, 3), 0.1);
        let (_, ub) = s.bounds(p(0, 2));
        assert!((ub - 0.3).abs() < 1e-12, "0-3-2 path 0.3, got {ub}");
    }

    #[test]
    fn goal_without_threshold_is_exact() {
        let mut s = Splub::new(4, 1.0);
        s.record(p(0, 1), 0.2);
        s.record(p(1, 2), 0.3);
        let (lb, ub) = s.bounds(p(0, 2));
        assert_eq!(
            s.bounds_for_goal(p(0, 2), QueryGoal::exact()),
            GoalBounds::Exact { lb, ub }
        );
    }
}
