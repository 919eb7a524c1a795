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
/// neighbour of the other endpoint. The anchor moves only when two queries
/// in a row miss it and share an endpoint; it moves to that endpoint. A
/// lone miss takes the merge, so Prim's relaxation — `(next, v)` on the
/// anchor, then the off-anchor probe `(parent[v], v)` — keeps its row.
/// `record`/`retract` patch the row in place, and both paths fold the same
/// triangles with the same operations, so the row's answer is bitwise the
/// merge's. An update is one sorted insertion per endpoint. The bounds are
/// looser than [`crate::Splub`]'s tightest bounds but empirically close, and
/// the CPU cost is lower by orders of magnitude — the trade the paper's
/// evaluation recommends for large workloads.
///
/// An anchor's pairs are mostly asked once per visit: Prim relaxes each
/// tree vertex's row once and never anchors it again. While the anchor is
/// on its first visit, [`BoundScheme::pair_stamp`] reads `u64::MAX` for the
/// pairs touching it, so the resolver's memo neither looks them up nor
/// stores them; a row the scheme returns to (PAM's swap columns) is
/// memoized from its second visit on.
#[derive(Clone, Debug)]
pub struct TriScheme {
    graph: PartialGraph,
    max_distance: f64,
    /// `row[c] = d(anchor, c)` for every known neighbour `c` of `anchor`,
    /// NaN elsewhere. Empty until the first re-anchor, so a scheme that is
    /// only fed and asked `known` never pays for it.
    row: Vec<f64>,
    anchor: Option<ObjectId>,
    /// `seen[v]`: `v` has been the anchor. Allocated with the row.
    seen: Vec<bool>,
    /// True while the anchor is on its first visit.
    first_visit: bool,
    /// The previous `bounds` query if it missed the anchor, else `None`: a
    /// miss that shares an endpoint with it re-anchors.
    last_miss: Option<Pair>,
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
            seen: Vec::new(),
            first_visit: false,
            last_miss: None,
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
    /// branch and folds exactly the common neighbours.
    ///
    /// The fold runs in [`LANES`] independent `(lb, ub)` accumulators, so
    /// one compare need not wait for the previous one, and combines them at
    /// the end with the same compares. A maximum or minimum taken by compares
    /// is exact and order-free on the non-NaN values the lanes hold, and
    /// `|x − y|` and `x + y` do not depend on operand order, so the answer is
    /// the merge's, bit for bit (the one order-dependent case, the sign of a
    /// zero `ub`, is normalised by [`clamp`]).
    fn bounds_from_row(&self, anchor: ObjectId, p: Pair) -> (f64, f64) {
        let other = p.other(anchor);
        let known = self.row[other as usize];
        if !known.is_nan() {
            return (known, known);
        }
        let (mut lb, mut ub) = ([0.0; LANES], [self.max_distance; LANES]);
        let chunks = self.graph.neighbors(other).chunks_exact(LANES);
        let tail = chunks.remainder();
        for chunk in chunks {
            for (i, &(c, d)) in chunk.iter().enumerate() {
                tighten(&mut lb[i], &mut ub[i], self.row[c as usize], d);
            }
        }
        for (i, &(c, d)) in tail.iter().enumerate() {
            tighten(&mut lb[i], &mut ub[i], self.row[c as usize], d);
        }
        let (mut lo, mut hi) = (0.0, self.max_distance);
        for i in 0..LANES {
            tighten_to(&mut lo, &mut hi, lb[i], ub[i]);
        }
        clamp(lo, hi)
    }

    /// Moves the anchor to `v`: clears the old anchor's neighbours back to
    /// NaN, then scatters `adj(v)`, and notes whether `v` was ever the
    /// anchor before. Allocates the row on first use.
    fn reanchor(&mut self, v: ObjectId) {
        if self.row.is_empty() {
            self.row = vec![f64::NAN; self.graph.n()];
            self.seen = vec![false; self.graph.n()];
        }
        self.first_visit = !std::mem::replace(&mut self.seen[v as usize], true);
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

    /// The row slot of `p` (its other endpoint) if `p` touches the anchor.
    #[inline]
    fn row_slot(&self, p: Pair) -> Option<usize> {
        let x = self.anchor?;
        (x == p.lo() || x == p.hi()).then(|| p.other(x) as usize)
    }

    /// Writes `value` into the row slot of `p` if `p` touches the anchor.
    fn patch_row(&mut self, p: Pair, value: f64) {
        if let Some(i) = self.row_slot(p) {
            self.row[i] = value;
        }
    }
}

/// Independent accumulators in [`TriScheme::bounds_from_row`]'s fold.
const LANES: usize = 4;

/// One triangle `(d_lo, d_hi)` folded into the running sandwich.
#[inline(always)]
fn tighten(lb: &mut f64, ub: &mut f64, d_lo: f64, d_hi: f64) {
    tighten_to(lb, ub, (d_lo - d_hi).abs(), d_lo + d_hi);
}

/// Raises `lb` to `l` and lowers `ub` to `u` where they are tighter, by
/// plain compares: a NaN candidate (a NaN side of a triangle) fails both and
/// leaves the bounds unchanged, as `f64::max`/`f64::min` would, without
/// their NaN handling. On non-NaN values the compares keep the same maximum
/// and minimum. Two candidates that compare equal but differ in bits are
/// zeros of opposite sign: `l = |x − y|` is never `−0.0`, and which zero
/// `ub` keeps is normalised by [`clamp`].
#[inline(always)]
fn tighten_to(lb: &mut f64, ub: &mut f64, l: f64, u: f64) {
    *lb = if l > *lb { l } else { *lb };
    *ub = if u < *ub { u } else { *ub };
}

/// Floating-point noise can cross the bounds when |d(a,c) − d(b,c)| and
/// d(a,c') + d(b,c') are nearly equal; keep the invariant lb ≤ ub. A zero
/// `ub` reads `+0.0`: two recorded `−0.0` sides sum to `−0.0`, and which
/// zero the fold keeps depends on its order (`x + 0.0` is `x` for every
/// other value).
#[inline(always)]
fn clamp(lb: f64, ub: f64) -> (f64, f64) {
    let ub = ub + 0.0;
    (if lb > ub { ub } else { lb }, ub)
}

impl BoundScheme for TriScheme {
    fn n(&self) -> usize {
        self.graph.n()
    }

    fn max_distance(&self) -> f64 {
        self.max_distance
    }

    #[inline]
    fn known(&self, p: Pair) -> Option<f64> {
        self.graph.get(p)
    }

    fn bounds(&mut self, p: Pair) -> (f64, f64) {
        let (a, b) = p.ends();
        let anchor = match self.anchor {
            Some(x) if x == a || x == b => x,
            _ => match self.last_miss.replace(p) {
                Some(q) if q.lo() == a || q.hi() == a => a,
                Some(q) if q.lo() == b || q.hi() == b => b,
                _ => return self.bounds_ro(p),
            },
        };
        if self.anchor != Some(anchor) {
            self.reanchor(anchor);
        }
        self.last_miss = None;
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

    #[inline]
    fn generation(&self) -> u64 {
        self.graph.generation()
    }

    #[inline]
    fn pair_stamp(&self, p: Pair) -> u64 {
        // A pair on a first-visit anchor is answered by the row and, for
        // most workloads, never asked again: not worth a memo slot.
        if self.first_visit && self.row_slot(p).is_some() {
            return u64::MAX;
        }
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
        assert!(
            s.seen.is_empty(),
            "record/retract/known allocated the seen bits"
        );
        // A lone query takes the merge; the next one sharing an endpoint
        // anchors the row.
        let _ = s.bounds(p(0, 2));
        assert!(s.row.is_empty());
        let _ = s.bounds(p(2, 9));
        assert_eq!((s.anchor, s.row.len()), (Some(2), 64));
    }

    /// Asserts `pair_stamp` is `u64::MAX` on exactly the pairs touching
    /// `first_visit` and the graph's stamp on every other pair.
    fn assert_stamps(s: &TriScheme, first_visit: Option<ObjectId>, ctx: &str) {
        for q in Pair::all(s.n()) {
            let on = first_visit.is_some_and(|x| x == q.lo() || x == q.hi());
            let want = if on { u64::MAX } else { s.graph.pair_stamp(q) };
            assert_eq!(s.pair_stamp(q), want, "{ctx}: {q:?}");
        }
    }

    #[test]
    fn pair_stamp_is_max_exactly_on_a_first_visit_anchor() {
        let mut s = TriScheme::new(12, 1.0);
        for q in Pair::all(12).step_by(3) {
            s.record(q, 0.5);
        }
        assert_stamps(&s, None, "no anchor yet");
        let _ = s.bounds(p(2, 0));
        assert_stamps(&s, None, "a lone miss anchors nothing");
        let _ = s.bounds(p(2, 5));
        assert_stamps(&s, Some(2), "first visit of 2");
        s.record(p(2, 7), 0.25);
        s.record(p(3, 8), 0.25);
        assert_stamps(&s, Some(2), "records keep the visit");
        let _ = s.bounds(p(4, 8));
        let _ = s.bounds(p(4, 9));
        assert_stamps(&s, Some(4), "2 left; first visit of 4");
        let _ = s.bounds(p(2, 10));
        let _ = s.bounds(p(2, 11));
        assert_stamps(&s, None, "back on 2");
        s.record(p(2, 4), 0.5);
        assert_stamps(&s, None, "a record on the revisited anchor");
        let _ = s.bounds(p(4, 1));
        let _ = s.bounds(p(4, 3));
        assert_stamps(&s, None, "back on 4");
        let _ = s.bounds(p(6, 1));
        let _ = s.bounds(p(6, 3));
        assert_stamps(&s, Some(6), "first visit of 6");
        let twin = s.clone();
        assert_stamps(&twin, Some(6), "a clone keeps the visit");
    }

    /// Asserts the live (anchor row or merge), merge and snapshot paths agree
    /// bitwise on `q`. Returns whether the live answer came from the row.
    fn assert_paths_agree(s: &mut TriScheme, q: Pair, ctx: &str) -> bool {
        let live = s.bounds(q);
        let from_row = s.row_slot(q).is_some();
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

    /// Asserts `known` is bitwise the graph's entry on every pair, and so is
    /// the anchor row's slot (NaN reading as unknown) on every pair touching
    /// the anchor, on the scheme and on its clone (if taken yet). Tallies
    /// the row slots checked and, of those, the known ones.
    fn assert_known_agrees(
        schemes: [Option<&TriScheme>; 2],
        pairs: &[Pair],
        ctx: &str,
        tally: &mut [usize; 2],
    ) {
        let bits = |d: Option<f64>| d.map(f64::to_bits);
        for (s, who) in schemes.into_iter().zip(["", " (clone)"]) {
            let Some(s) = s else { continue };
            for &q in pairs {
                let known = s.graph().get(q);
                assert_eq!(bits(s.known(q)), bits(known), "{ctx}{who}: known {q:?}");
                if let Some(i) = s.row_slot(q) {
                    let slot = Some(s.row[i]).filter(|d| !d.is_nan());
                    assert_eq!(bits(slot), bits(known), "{ctx}{who}: row slot {q:?}");
                    tally[0] += 1;
                    tally[1] += usize::from(known.is_some());
                }
            }
        }
    }

    /// Seeded fuzz: schedules mixing `record`, `retract` (half of them on
    /// edges incident to the anchor) and queries drawn as anchored rows,
    /// chains, and random pairs. Every answer must be bitwise the merge's and
    /// the snapshot's, and `known` and the anchor row's slot must be bitwise
    /// the graph's on the updated edge, the queried pair and a pair touching
    /// the anchor, on the scheme and on a clone taken mid-schedule.
    /// Instances have `6..max_n` objects; `dist(points, pair)` gives each
    /// recorded distance.
    fn fuzz_anchor_row(seed: u64, max_n: usize, dist: impl Fn(&[(f64, f64)], Pair) -> f64) {
        use prox_datasets::testgen::{property, random_points};

        let (mut row_answers, mut anchor_records, mut anchor_retracts) = (0, 0, 0);
        let mut row_slots = [0; 2];
        property(seed, 32, |rng| {
            let n = rng.range(6, max_n);
            let pts = random_points(rng, n);
            let dist = |q: Pair| dist(&pts, q);
            let pick = |rng: &mut prox_core::TinyRng, a: ObjectId| {
                let b = (a as usize + 1 + rng.below(n - 1)) % n;
                Pair::new(a, b as ObjectId)
            };
            let mut live = TriScheme::new(n, 1.0);
            let mut twin: Option<TriScheme> = None;
            let mut prev = Pair::new(0, 1);
            for step in 0..300 {
                let ctx = format!("n {n} step {step}");
                let anchor = live.anchor.unwrap_or(prev.lo());
                let updated = match rng.below(6) {
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
                        Some(e)
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
                        Some(e)
                    }
                    _ => None,
                };
                let schemes = [Some(&live), twin.as_ref()];
                assert_known_agrees(schemes, updated.as_slice(), &ctx, &mut row_slots);
                let from = match rng.below(3) {
                    0 => anchor,
                    1 => prev.hi(),
                    _ => rng.below(n) as ObjectId,
                };
                let q = pick(rng, from);
                row_answers += usize::from(assert_paths_agree(&mut live, q, &ctx));
                if let Some(t) = twin.as_mut() {
                    assert_paths_agree(t, q, &format!("{ctx} (clone)"));
                }
                let touching = pick(rng, live.anchor.unwrap_or(q.lo()));
                assert_known_agrees(
                    [Some(&live), twin.as_ref()],
                    &[q, touching],
                    &ctx,
                    &mut row_slots,
                );
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
        assert!(
            row_slots[0] > 1000 && row_slots[1] > 100,
            "few row slots checked: {row_slots:?} (slots, known)"
        );
    }

    /// Prim's relaxation shape: each `(a, v)` on the anchor is followed by
    /// the off-anchor probe `(p_v, v)`, and every few pairs one of the two
    /// is recorded. Each lone miss takes the merge, so the anchor stays at
    /// `a` for the whole row, and every answer is bitwise the merge's.
    #[test]
    fn lone_off_anchor_misses_keep_the_anchor() {
        let n = 96;
        let pts = prox_datasets::testgen::random_points(&mut prox_core::TinyRng::new(0x7121), n);
        let mut s = TriScheme::new(n, 1.0);
        for q in Pair::all(n).step_by(5) {
            s.record(q, euclid(&pts, q));
        }
        let a: ObjectId = 7;
        // Two queries on `a` in a row anchor the row there.
        let _ = s.bounds(p(a, 0));
        let _ = s.bounds(p(a, 1));
        assert_eq!(s.anchor, Some(a));
        let bits = |(lb, ub): (f64, f64)| (lb.to_bits(), ub.to_bits());
        let mut recorded = 0;
        for v in (2..n as ObjectId).filter(|&v| v != a) {
            // A parent other than `a` and `v`.
            let parent = if v > 50 { v - 40 } else { v + 40 };
            for (i, q) in [p(a, v), p(parent, v)].into_iter().enumerate() {
                let live = s.bounds(q);
                assert_eq!(s.anchor, Some(a), "{q:?} moved the anchor");
                assert_eq!(bits(live), bits(s.bounds_ro(q)), "{q:?} live vs merge");
                if v % 4 == i as ObjectId && s.known(q).is_none() {
                    s.record(q, euclid(&pts, q));
                    recorded += 1;
                }
            }
        }
        assert!(recorded > 20, "few records: {recorded}");
    }

    fn euclid(pts: &[(f64, f64)], q: Pair) -> f64 {
        let (a, b) = (pts[q.lo() as usize], pts[q.hi() as usize]);
        (a.0 - b.0).hypot(a.1 - b.1) / std::f64::consts::SQRT_2
    }

    #[test]
    fn anchor_row_matches_the_merge_bitwise() {
        fuzz_anchor_row(0x7121_A9C0, 48, euclid);
    }

    /// The lane fold against the sequential merge where their answers could
    /// part: zero and `−0.0` sides (a `−0.0 + −0.0` triangle makes a zero
    /// `ub` whose sign the fold keeps by order) and many equal distances, on
    /// instances small enough to be dense in triangles.
    #[test]
    fn anchor_row_matches_the_merge_on_zero_and_tied_distances() {
        fuzz_anchor_row(0x7121_2E60, 12, |pts, q| {
            match (q.lo() * 7 + q.hi() * 13) % 6 {
                0 | 1 => 0.0,
                2 | 3 => -0.0,
                4 => 0.5,
                _ => euclid(pts, q),
            }
        });
    }
}
