//! Tri Scheme — triangle-induced bounds (§4.2 of the paper, Algorithm 2).

use prox_core::{ObjectId, Pair, SpecBounds};
use prox_graph::PartialGraph;

use crate::BoundScheme;

/// The paper's practical plug-in: bound an unknown edge `(a, b)` using only
/// the *triangles* incident on it — objects `c` with both `d(a, c)` and
/// `d(b, c)` known:
///
/// ```text
/// LB = max over c of |d(a, c) − d(b, c)|
/// UB = min over c of  d(a, c) + d(b, c)       (capped at max_distance)
/// ```
///
/// The paper answers a query with one merge of the two sorted adjacency
/// lists (`O(deg a + deg b)`, expected `O(m / n)` under a uniform query
/// model — Theorem 4.2). Algorithms mostly ask pair groups that share an
/// endpoint (Prim's relaxation row, PAM's swap delta), so the live path
/// keeps an *anchor row*: `adj(anchor)` scattered into a dense array, which
/// answers any pair touching the anchor with one `O(1)` lookup per
/// neighbour of the other endpoint. A query that misses the anchor but
/// shares an endpoint with the previous query re-anchors there; any other
/// query takes the merge. `record`/`retract` patch the row in place, and
/// both paths visit the common neighbours in the same order with the same
/// operations, so the row's answer is bitwise the merge's. An update is one
/// sorted insertion per endpoint. The bounds are looser than
/// [`crate::Splub`]'s tightest bounds but empirically close, and the CPU
/// cost is lower by orders of magnitude — the trade the paper's evaluation
/// recommends for large workloads.
#[derive(Clone, Debug)]
pub struct TriScheme {
    graph: PartialGraph,
    max_distance: f64,
    /// `row[c] = d(anchor, c)` for every known neighbour `c` of `anchor`,
    /// NaN elsewhere. Empty until the first re-anchor, so a scheme that is
    /// only fed and asked `known` never pays for it.
    row: Vec<f64>,
    anchor: Option<ObjectId>,
    /// The previous `bounds` query: a miss that shares an endpoint with it
    /// re-anchors.
    prev: Option<Pair>,
}

impl TriScheme {
    /// An empty Tri Scheme over `n` objects with distances in
    /// `[0, max_distance]`.
    pub fn new(n: usize, max_distance: f64) -> Self {
        TriScheme {
            graph: PartialGraph::new(n),
            max_distance,
            row: Vec::new(),
            anchor: None,
            prev: None,
        }
    }

    /// Read access to the underlying known-edge graph.
    pub fn graph(&self) -> &PartialGraph {
        &self.graph
    }

    /// The merge, shared verbatim by the read-only view
    /// (`SpecBounds::spec_bounds`) and by live queries the anchor row cannot
    /// answer.
    fn bounds_ro(&self, p: Pair) -> (f64, f64) {
        if let Some(d) = self.graph.get(p) {
            return (d, d);
        }
        let (a, b) = p.ends();
        let (mut lb, mut ub) = (0.0, self.max_distance);
        self.graph.for_each_common_neighbor(a, b, |_, da, db| {
            tighten(&mut lb, &mut ub, da, db);
        });
        clamp(lb, ub)
    }

    /// The bounds of `p`, which touches the anchor, from the anchor row: one
    /// lookup per neighbour of the other endpoint. Neighbours the anchor
    /// does not know read NaN, which [`tighten`] ignores, so the loop has no
    /// branch and folds exactly the common neighbours, in ascending order,
    /// with `d_lo` and `d_hi` in the merge's operand order.
    fn bounds_from_row(&self, anchor: ObjectId, p: Pair) -> (f64, f64) {
        let other = p.other(anchor);
        let known = self.row[other as usize];
        if !known.is_nan() {
            return (known, known);
        }
        let (mut lb, mut ub) = (0.0, self.max_distance);
        let adj = self.graph.neighbors(other);
        if anchor == p.lo() {
            for &(c, d_hi) in adj {
                tighten(&mut lb, &mut ub, self.row[c as usize], d_hi);
            }
        } else {
            for &(c, d_lo) in adj {
                tighten(&mut lb, &mut ub, d_lo, self.row[c as usize]);
            }
        }
        clamp(lb, ub)
    }

    /// Moves the anchor to `v`: clears the old anchor's neighbours back to
    /// NaN, then scatters `adj(v)`. Allocates the row on first use.
    fn reanchor(&mut self, v: ObjectId) {
        if self.row.is_empty() {
            self.row = vec![f64::NAN; self.graph.n()];
        }
        if let Some(old) = self.anchor {
            for &(c, _) in self.graph.neighbors(old) {
                self.row[c as usize] = f64::NAN;
            }
        }
        for &(c, d) in self.graph.neighbors(v) {
            self.row[c as usize] = d;
        }
        self.anchor = Some(v);
    }

    /// Writes `value` into the row slot of `p` if `p` touches the anchor.
    fn patch_row(&mut self, p: Pair, value: f64) {
        if let Some(anchor) = self.anchor {
            if anchor == p.lo() || anchor == p.hi() {
                self.row[p.other(anchor) as usize] = value;
            }
        }
    }
}

/// One triangle `(d_lo, d_hi)` folded into the running sandwich. A NaN side
/// leaves both bounds unchanged: `f64::max`/`f64::min` return the other
/// operand.
#[inline(always)]
fn tighten(lb: &mut f64, ub: &mut f64, d_lo: f64, d_hi: f64) {
    *lb = lb.max((d_lo - d_hi).abs());
    *ub = ub.min(d_lo + d_hi);
}

/// Floating-point noise can cross the bounds when |d(a,c) − d(b,c)| and
/// d(a,c') + d(b,c') are nearly equal; keep the invariant lb ≤ ub.
#[inline(always)]
fn clamp(lb: f64, ub: f64) -> (f64, f64) {
    (if lb > ub { ub } else { lb }, ub)
}

impl BoundScheme for TriScheme {
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
        let (a, b) = p.ends();
        let prev = self.prev.replace(p);
        let anchor = match self.anchor {
            Some(x) if x == a || x == b => x,
            _ => match prev {
                Some(q) if q.lo() == a || q.hi() == a => a,
                Some(q) if q.lo() == b || q.hi() == b => b,
                _ => return self.bounds_ro(p),
            },
        };
        if self.anchor != Some(anchor) {
            self.reanchor(anchor);
        }
        self.bounds_from_row(anchor, p)
    }

    fn record(&mut self, p: Pair, d: f64) {
        if self.graph.insert(p, d) {
            self.patch_row(p, d);
        }
    }

    fn retract(&mut self, p: Pair) -> bool {
        // Tri bounds are recomputed from adjacency on every query, so
        // removing the edge (which stamps both endpoints) and its row slot
        // fully repairs the derivable state — no closure to unwind.
        let removed = self.graph.remove(p).is_some();
        if removed {
            self.patch_row(p, f64::NAN);
        }
        removed
    }

    fn m(&self) -> usize {
        self.graph.m()
    }

    fn name(&self) -> &'static str {
        "Tri"
    }

    fn for_each_known(&self, f: &mut dyn FnMut(Pair, f64)) {
        for &(p, d) in self.graph.edges() {
            f(p, d);
        }
    }

    fn generation(&self) -> u64 {
        self.graph.generation()
    }

    fn pair_stamp(&self, p: Pair) -> u64 {
        // Tri bounds for (a, b) are a function of adj(a) and adj(b) alone,
        // so the freshest incident insertion bounds the last change.
        self.graph.pair_stamp(p)
    }

    fn spec(&self) -> Option<&dyn SpecBounds> {
        Some(self)
    }

    fn bounds_cacheable(&self) -> bool {
        true
    }
}

impl SpecBounds for TriScheme {
    fn spec_bounds(&self, p: Pair) -> (f64, f64) {
        self.bounds_ro(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(a: u32, b: u32) -> Pair {
        Pair::new(a, b)
    }

    /// The single-triangle bound from the paper's Example 2.1:
    /// `d(1,3) = 0.8`, `d(3,4) = 0.1` ⇒ `0.7 ≤ d(1,4) ≤ 0.9`.
    #[test]
    fn paper_example_single_triangle() {
        let mut s = TriScheme::new(7, 1.0);
        s.record(p(1, 3), 0.8);
        s.record(p(3, 4), 0.1);
        let (lb, ub) = s.bounds(p(1, 4));
        assert!((lb - 0.7).abs() < 1e-12);
        assert!((ub - 0.9).abs() < 1e-12, "ub {ub}");
    }

    #[test]
    fn no_triangle_gives_trivial_bounds() {
        let mut s = TriScheme::new(5, 1.0);
        s.record(p(0, 1), 0.5);
        // (2,3) shares no neighbour with anything.
        assert_eq!(s.bounds(p(2, 3)), (0.0, 1.0));
        // (0,2): 0 knows 1 but 2 knows nothing.
        assert_eq!(s.bounds(p(0, 2)), (0.0, 1.0));
    }

    #[test]
    fn multiple_triangles_take_best() {
        let mut s = TriScheme::new(4, 1.0);
        // Common neighbours of (0,1): 2 and 3.
        s.record(p(0, 2), 0.9);
        s.record(p(1, 2), 0.2); // lb 0.7, ub 1.0(capped 1.1)
        s.record(p(0, 3), 0.4);
        s.record(p(1, 3), 0.35); // lb 0.05, ub 0.75
        let (lb, ub) = s.bounds(p(0, 1));
        assert!((lb - 0.7).abs() < 1e-12, "max of lower bounds, got {lb}");
        assert!((ub - 0.75).abs() < 1e-12, "min of upper bounds, got {ub}");
    }

    #[test]
    fn known_edge_collapses_bounds() {
        let mut s = TriScheme::new(3, 1.0);
        s.record(p(0, 1), 0.33);
        assert_eq!(s.bounds(p(0, 1)), (0.33, 0.33));
        assert_eq!(s.known(p(1, 0)), Some(0.33));
        assert_eq!(s.m(), 1);
    }

    #[test]
    fn retract_reopens_bounds_derived_through_the_edge() {
        let mut s = TriScheme::new(7, 1.0);
        s.record(p(1, 3), 0.8);
        s.record(p(3, 4), 0.1);
        assert_ne!(s.bounds(p(1, 4)), (0.0, 1.0), "triangle bound active");
        assert!(s.retract(p(1, 3)));
        assert_eq!(s.known(p(1, 3)), None);
        assert_eq!(s.bounds(p(1, 4)), (0.0, 1.0), "triangle gone");
        assert!(!s.retract(p(1, 3)), "second retract refuses");
        // Repaired value re-records cleanly.
        s.record(p(1, 3), 0.75);
        let (lb, ub) = s.bounds(p(1, 4));
        assert!((lb - 0.65).abs() < 1e-12 && (ub - 0.85).abs() < 1e-12);
    }

    #[test]
    fn ub_capped_at_max_distance() {
        let mut s = TriScheme::new(3, 1.0);
        s.record(p(0, 2), 0.8);
        s.record(p(1, 2), 0.7);
        let (lb, ub) = s.bounds(p(0, 1));
        assert!((lb - 0.1).abs() < 1e-12, "lb {lb}");
        assert_eq!(ub, 1.0, "1.5 capped to max_distance");
    }

    #[test]
    fn feeding_and_known_never_allocate_the_row() {
        // A scheme that is only preloaded and resolved through must never
        // pay for the n-slot row.
        let mut s = TriScheme::new(64, 1.0);
        for q in Pair::all(64).step_by(5) {
            s.record(q, 0.5);
            assert_eq!(s.known(q), Some(0.5));
        }
        assert!(s.retract(p(0, 6)));
        assert_eq!(s.known(p(0, 6)), None);
        assert!(s.row.is_empty(), "record/retract/known allocated the row");
        // A lone query takes the merge; the next one sharing an endpoint
        // anchors the row.
        let _ = s.bounds(p(0, 2));
        assert!(s.row.is_empty());
        let _ = s.bounds(p(2, 9));
        assert_eq!((s.anchor, s.row.len()), (Some(2), 64));
    }

    /// Asserts the live (anchor row or merge), merge and snapshot paths agree
    /// bitwise on `q`. Returns whether the live answer came from the row.
    fn assert_paths_agree(s: &mut TriScheme, q: Pair, ctx: &str) -> bool {
        let live = s.bounds(q);
        let from_row = s.anchor.is_some_and(|x| x == q.lo() || x == q.hi());
        let bits = |(lb, ub): (f64, f64)| (lb.to_bits(), ub.to_bits());
        assert_eq!(
            bits(live),
            bits(s.bounds_ro(q)),
            "{ctx}: {q:?} row vs merge"
        );
        let spec = s.spec_bounds(q);
        assert_eq!(bits(live), bits(spec), "{ctx}: {q:?} live vs snapshot");
        from_row
    }

    /// Seeded fuzz: schedules mixing `record`, `retract` (half of them on
    /// edges incident to the anchor) and queries drawn as anchored rows,
    /// chains, and random pairs. Every answer must be bitwise the merge's and
    /// the snapshot's, on the scheme and on a clone taken mid-schedule.
    #[test]
    fn anchor_row_matches_the_merge_bitwise() {
        use prox_datasets::testgen::{property, random_points};

        let (mut row_answers, mut anchor_records, mut anchor_retracts) = (0, 0, 0);
        property(0x7121_A9C0, 32, |rng| {
            let n = rng.range(6, 48);
            let pts = random_points(rng, n);
            let dist = |q: Pair| {
                let (a, b) = (pts[q.lo() as usize], pts[q.hi() as usize]);
                (a.0 - b.0).hypot(a.1 - b.1) / std::f64::consts::SQRT_2
            };
            let pick = |rng: &mut prox_core::TinyRng, a: ObjectId| {
                let b = (a as usize + 1 + rng.below(n - 1)) % n;
                Pair::new(a, b as ObjectId)
            };
            let mut live = TriScheme::new(n, 1.0);
            let mut twin: Option<TriScheme> = None;
            let mut prev = Pair::new(0, 1);
            for step in 0..300 {
                let anchor = live.anchor.unwrap_or(prev.lo());
                match rng.below(6) {
                    0 => {
                        let on_anchor = rng.below(2) == 0;
                        let from = if on_anchor {
                            anchor
                        } else {
                            rng.below(n) as ObjectId
                        };
                        let e = pick(rng, from);
                        if on_anchor && live.anchor.is_some() && live.known(e).is_none() {
                            anchor_records += 1;
                        }
                        for s in std::iter::once(&mut live).chain(twin.as_mut()) {
                            s.record(e, dist(e));
                        }
                    }
                    1 => {
                        let incident = live.graph.neighbors(anchor);
                        let e = if rng.below(2) == 0 && !incident.is_empty() {
                            anchor_retracts += usize::from(live.anchor == Some(anchor));
                            Pair::new(anchor, incident[rng.below(incident.len())].0)
                        } else if live.m() > 0 {
                            live.graph.edges()[rng.below(live.m())].0
                        } else {
                            continue;
                        };
                        for s in std::iter::once(&mut live).chain(twin.as_mut()) {
                            assert!(s.retract(e));
                        }
                    }
                    _ => {}
                }
                let from = match rng.below(3) {
                    0 => anchor,
                    1 => prev.hi(),
                    _ => rng.below(n) as ObjectId,
                };
                let q = pick(rng, from);
                let ctx = format!("n {n} step {step}");
                row_answers += usize::from(assert_paths_agree(&mut live, q, &ctx));
                if let Some(t) = twin.as_mut() {
                    assert_paths_agree(t, q, &format!("{ctx} (clone)"));
                }
                if step == 150 {
                    twin = Some(live.clone());
                }
                prev = q;
            }
        });
        assert!(row_answers > 1000, "row path barely ran: {row_answers}");
        assert!(anchor_records > 100, "few anchor records: {anchor_records}");
        assert!(
            anchor_retracts > 100,
            "few anchor retracts: {anchor_retracts}"
        );
    }
}
