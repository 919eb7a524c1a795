//! Average-linkage (UPGMA) hierarchical clustering — and the limits of
//! call-saving on **sum** aggregates.
//!
//! Average linkage merges, at every step, the two clusters with the
//! smallest **mean** member distance:
//!
//! ```text
//! D(A, B) = (1 / |A||B|) * sum over a in A, b in B of dist(a, b)
//! ```
//!
//! # The aggregate taxonomy
//!
//! The three classical linkages aggregate member distances differently,
//! and the aggregate shape decides how much the resolver framework can
//! save:
//!
//! * **min** ([`crate::single_linkage`]) and **max**
//!   ([`crate::complete_linkage`]) are *selective*: one member pins the
//!   aggregate and dominated members never need resolving.
//! * **sum/mean** is *exhaustive*: the mean is strictly monotone in every
//!   term, so an exact mean needs every member distance.
//!
//! That has a sharp consequence. Every object pair `(x, y)` contributes to
//! exactly one merge height — the merge where `x`'s and `y`'s clusters
//! first join. So the full dendrogram's heights are a function of **all**
//! `C(n,2)` distances, and *no* resolver can produce the exact dendrogram
//! with fewer than all of them: leave one unresolved and its merge height
//! moves with it. [`average_linkage`] therefore saves nothing by
//! construction (the tests pin this), which is itself a reproduction-grade
//! finding: re-authoring IF statements helps algorithms whose *decisions*
//! consume distances, not algorithms whose *output* is a sufficient
//! statistic of all of them.
//!
//! One refinement: "unresolved" means *undetermined*. ADM's fixpoint
//! sweeps can collapse a bound interval to a point, and a pair whose
//! distance is determined by the triangle system needs no oracle call —
//! on the L1 plane (where the bound arithmetic is float-exact) ADM
//! genuinely undercuts `C(n,2)` here. Generic metrics don't collapse, so
//! the theorem stands for Tri/SPLUB and the exception is ADM-specific.
//!
//! The savings come back the moment the heights leave the output.
//! [`average_linkage_cut`] returns only the `k`-cluster partition (the
//! dendrogram cut), and then the `k(k−1)/2` cluster pairs that never merge
//! — the widest, most expensive sums — are *excluded by bounds* instead of
//! resolved:
//!
//! * every cluster pair carries a **sum lower bound** `Σ lb`; the argmin
//!   certificate excludes a pair when its mean lower bound already exceeds
//!   the best exact mean;
//! * pairs the interval cannot exclude get one
//!   [`DistanceResolver::try_sum_less_value`] probe before falling back to
//!   resolution. For bound resolvers the probe re-checks the (refreshed)
//!   interval sum; for the DFT resolver it is a **joint feasibility
//!   test**, which is strictly stronger on sums — the terms are coupled
//!   through shared triangles (see `lp_vs_bounds` and DESIGN.md §4.5).
//!
//! # Exactness discipline
//!
//! A merge height is always the **canonical mean**: the running sum of
//! resolver-known member distances accumulated in normalized member-list
//! order (lower slot outer), divided once. Member lists depend only on the
//! merge history, so as long as every decision matches, the plugged run
//! and the vanilla run accumulate identical floats in identical order and
//! the outputs are bit-identical. Sums of cached sums are *never* used for
//! heights (float addition is not associative); after each merge the
//! affected bands are recomputed fresh from current knowledge, which costs
//! no oracle calls.

use prox_bounds::resolver::DECISION_EPS;
use prox_bounds::DistanceResolver;
use prox_core::invariant::{expect_ok, InvariantExt};
use prox_core::{ObjectId, OracleError, Pair};

use crate::linkage::{Dendrogram, Merge};

/// Sum-interval state of one cluster pair. Only the lower end matters:
/// the argmin certificate excludes by mean lower bound, and upper bounds
/// on sums never decide anything (the best pair is refined exactly).
#[derive(Copy, Clone, Debug)]
struct SumBand {
    /// Lower bound on the member-distance **sum**.
    slo: f64,
    /// Canonical mean once every member distance is resolver-known.
    mean: Option<f64>,
}

struct State {
    /// Members of each cluster slot (`None` = merged away).
    members: Vec<Option<Vec<ObjectId>>>,
    /// Dendrogram cluster id of each active slot.
    cluster_id: Vec<u32>,
    /// Triangular pair state indexed by slot ids (`slot_lo < slot_hi`).
    bands: Vec<SumBand>,
    n0: usize,
}

impl State {
    fn idx(&self, a: usize, b: usize) -> usize {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        lo * self.n0 - lo * (lo + 1) / 2 + (hi - lo - 1)
    }
    fn band(&self, a: usize, b: usize) -> SumBand {
        self.bands[self.idx(a, b)]
    }
    fn set_band(&mut self, a: usize, b: usize, band: SumBand) {
        let i = self.idx(a, b);
        self.bands[i] = band;
    }
    /// Number of member pairs between two active slots.
    fn pair_count(&self, a: usize, b: usize) -> f64 {
        let ma = self.members[a].as_ref().expect_invariant("active cluster");
        let mb = self.members[b].as_ref().expect_invariant("active cluster");
        (ma.len() * mb.len()) as f64
    }
    /// Member pairs in canonical iteration order: outer loop over the
    /// lower slot's members. Slot order must be normalized because float
    /// accumulation is order-sensitive and several call sites pass the
    /// slots in either order (the post-merge refresh iterates `(a, c)`
    /// with `c` possibly below `a`).
    fn member_pairs(&self, a: usize, b: usize) -> Vec<Pair> {
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        let ma = self.members[a].as_ref().expect_invariant("active cluster");
        let mb = self.members[b].as_ref().expect_invariant("active cluster");
        let mut out = Vec::with_capacity(ma.len() * mb.len());
        for &x in ma {
            for &y in mb {
                out.push(Pair::new(x, y));
            }
        }
        out
    }
}

/// Recomputes a cluster pair's sum band from the scheme's *current*
/// bounds — no oracle calls. When every member distance is known the band
/// collapses to the canonical mean: knowns accumulate in normalized
/// member-list order, so the float result is identical across resolvers
/// that made the same merges.
fn recompute_band<R: DistanceResolver + ?Sized>(
    resolver: &mut R,
    state: &State,
    a: usize,
    b: usize,
) -> SumBand {
    // Normalize the slot order: the accumulation below is float-order
    // sensitive, and the height invariant needs every writer of a band to
    // produce bit-identical sums for identical member lists.
    let (a, b) = if a < b { (a, b) } else { (b, a) };
    let (ma, mb) = (
        state.members[a].as_ref().expect_invariant("active cluster"),
        state.members[b].as_ref().expect_invariant("active cluster"),
    );
    let mut slo = 0.0f64;
    let mut all_known = true;
    for &x in ma {
        for &y in mb {
            let p = Pair::new(x, y);
            if let Some(d) = resolver.known(p) {
                slo += d;
            } else {
                slo += resolver.lower_bound_hint(p);
                all_known = false;
            }
        }
    }
    // When all members are known, `slo` is the canonical sum (same values,
    // same accumulation order as the vanilla run).
    let mean = all_known.then(|| slo / (ma.len() * mb.len()) as f64);
    SumBand { slo, mean }
}

/// Refines a cluster pair until its average-linkage distance is exact:
/// unlike the max aggregate, the mean needs every member, so all unknown
/// member distances resolve (in canonical order).
fn refine<R: DistanceResolver + ?Sized>(
    resolver: &mut R,
    state: &mut State,
    a: usize,
    b: usize,
) -> Result<f64, OracleError> {
    if let Some(m) = state.band(a, b).mean {
        return Ok(m);
    }
    for p in state.member_pairs(a, b) {
        if resolver.known(p).is_none() {
            resolver.resolve_fallible(p)?;
        }
    }
    let band = recompute_band(resolver, state, a, b);
    let m = band.mean.expect_invariant("all members resolved");
    state.set_band(a, b, band);
    Ok(m)
}

/// The agglomeration engine: merges until `stop_at` clusters remain and
/// returns the merges plus the final cluster state.
fn agglomerate<R: DistanceResolver + ?Sized>(
    resolver: &mut R,
    stop_at: usize,
) -> Result<(Vec<Merge>, State), OracleError> {
    let n = resolver.n();
    let stop_at = stop_at.clamp(1, n.max(1));
    let mut state = State {
        members: (0..n as ObjectId).map(|o| Some(vec![o])).collect(),
        cluster_id: (0..n as u32).collect(),
        bands: Vec::new(),
        n0: n,
    };
    state.bands = Pair::all(n)
        .map(|p| match resolver.known(p) {
            Some(d) => SumBand {
                slo: d,
                mean: Some(d),
            },
            None => SumBand {
                slo: resolver.lower_bound_hint(p),
                mean: None,
            },
        })
        .collect();

    let mut active: Vec<usize> = (0..n).collect();
    let steps = n.saturating_sub(stop_at);
    let mut merges = Vec::with_capacity(steps);

    for step in 0..steps {
        // Lazy argmin over active cluster pairs, mirroring
        // `complete_linkage`: hold the best *exact* mean seen so far (by
        // `(mean, scan order)`); a contender is first refreshed from
        // current knowledge (free), then probed as a sum aggregate (free
        // for bound resolvers, one LP feasibility test for DFT), and only
        // resolved when both fail to exclude it.
        let (a, b, height) = loop {
            let mut best: Option<(usize, usize, f64)> = None;
            for (ai, &x) in active.iter().enumerate() {
                for &y in active.iter().skip(ai + 1) {
                    if let Some(m) = state.band(x, y).mean {
                        if best.is_none_or(|(_, _, bd)| m < bd) {
                            best = Some((x, y, m));
                        }
                    }
                }
            }
            // Nothing exact yet: refine the pair with the smallest mean
            // lower bound (ties to scan order) and try again.
            let Some((bx, by, bd)) = best else {
                let mut pick: Option<(usize, usize, f64)> = None;
                for (ai, &x) in active.iter().enumerate() {
                    for &y in active.iter().skip(ai + 1) {
                        let mlo = state.band(x, y).slo / state.pair_count(x, y);
                        if pick.is_none_or(|(_, _, pl)| mlo < pl) {
                            pick = Some((x, y, mlo));
                        }
                    }
                }
                let (x, y, _) = pick.expect_invariant("two active clusters remain");
                refine(resolver, &mut state, x, y)?;
                continue;
            };
            // Certificate: every other pair must be excluded by a mean
            // lower bound strictly above `bd` (with the framework's
            // rounding margin — excluding a true tie would break
            // cross-resolver output equality), or be exact.
            let mut disturbed = false;
            'scan: for (ai, &x) in active.iter().enumerate() {
                for &y in active.iter().skip(ai + 1) {
                    if (x, y) == (bx, by) {
                        continue;
                    }
                    let band = state.band(x, y);
                    if band.mean.is_some() {
                        continue;
                    }
                    let cnt = state.pair_count(x, y);
                    if band.slo / cnt > bd + DECISION_EPS {
                        continue;
                    }
                    // Refresh from current knowledge (no oracle calls).
                    let fresh = recompute_band(resolver, &state, x, y);
                    state.set_band(x, y, fresh);
                    if fresh.mean.is_some() {
                        disturbed = true; // re-enter best-exact selection
                        break 'scan;
                    }
                    if fresh.slo / cnt > bd + DECISION_EPS {
                        continue;
                    }
                    // Joint aggregate probe: can the whole member sum
                    // certainly not undercut `bd * cnt`? `Some(false)`
                    // certifies `Σ ≥ bd·cnt + cnt·ε`, i.e. mean > bd.
                    let terms = state.member_pairs(x, y);
                    let threshold = bd * cnt + cnt * DECISION_EPS;
                    if resolver.try_sum_less_value(&terms, threshold) == Some(false) {
                        continue;
                    }
                    // Still a contender (or a potential tie): resolve.
                    refine(resolver, &mut state, x, y)?;
                    disturbed = true;
                    break 'scan;
                }
            }
            if !disturbed {
                break (bx, by, bd);
            }
        };

        // Merge members (slot `a` absorbs slot `b`), then refresh every
        // affected band from current knowledge — heights must come from a
        // fresh canonical accumulation, never from adding cached sums.
        let mut merged = state.members[a].take().expect_invariant("active");
        merged.extend(state.members[b].take().expect_invariant("active"));
        state.members[a] = Some(merged);
        active.retain(|&c| c != b);
        for &c in &active {
            if c == a {
                continue;
            }
            let band = recompute_band(resolver, &state, a, c);
            state.set_band(a, c, band);
        }

        let (ca, cb) = (state.cluster_id[a], state.cluster_id[b]);
        state.cluster_id[a] = (n + step) as u32;
        merges.push(Merge {
            a: ca.min(cb),
            b: ca.max(cb),
            height,
        });
    }

    Ok((merges, state))
}

/// Builds the full average-linkage (UPGMA) dendrogram (`n − 1` merges,
/// heights non-decreasing) through the resolver. Cluster-id conventions
/// match [`crate::single_linkage`]: leaves are `0..n`, merge `i` creates
/// `n + i`.
///
/// **This necessarily resolves all `C(n,2)` distances**, whatever the
/// resolver — see the module docs: every pair contributes to exactly one
/// merge height and the mean is strictly monotone in each term. Use
/// [`average_linkage_cut`] when only the partition is needed; that is
/// where bounds actually save calls.
pub fn average_linkage<R: DistanceResolver + ?Sized>(resolver: &mut R) -> Dendrogram {
    expect_ok(
        try_average_linkage(resolver),
        "average_linkage on the infallible path",
    )
}

/// Fallible [`average_linkage`]: surfaces oracle faults instead of
/// panicking.
pub fn try_average_linkage<R: DistanceResolver + ?Sized>(
    resolver: &mut R,
) -> Result<Dendrogram, OracleError> {
    let n = resolver.n();
    let (merges, _) = agglomerate(resolver, 1)?;
    Ok(Dendrogram::from_merges(n, merges))
}

/// Agglomerates until `k` clusters remain and returns the partition as
/// dense labels in object-id order — exactly what [`Dendrogram::cut`]
/// would produce from the full run, but without paying for the heights of
/// merges that never happen: the final `k(k−1)/2` cluster-pair sums (the
/// widest ones) are excluded by bounds instead of resolved.
pub fn average_linkage_cut<R: DistanceResolver + ?Sized>(resolver: &mut R, k: usize) -> Vec<u32> {
    expect_ok(
        try_average_linkage_cut(resolver, k),
        "average_linkage_cut on the infallible path",
    )
}

/// Fallible [`average_linkage_cut`].
pub fn try_average_linkage_cut<R: DistanceResolver + ?Sized>(
    resolver: &mut R,
    k: usize,
) -> Result<Vec<u32>, OracleError> {
    let n = resolver.n();
    let (_, state) = agglomerate(resolver, k)?;
    // Dense labels by first-seen object id, matching `Dendrogram::cut`.
    let mut slot_of = vec![usize::MAX; n];
    for (s, slot) in state.members.iter().enumerate() {
        if let Some(ms) = slot {
            for &m in ms {
                slot_of[m as usize] = s;
            }
        }
    }
    let mut label_of_slot = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut labels = Vec::with_capacity(n);
    for &s in &slot_of {
        if label_of_slot[s] == u32::MAX {
            label_of_slot[s] = next;
            next += 1;
        }
        labels.push(label_of_slot[s]);
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prox_bounds::{BoundResolver, Splub, TriScheme};
    use prox_core::{FnMetric, Oracle};

    fn blobs() -> Oracle<FnMetric<impl Fn(ObjectId, ObjectId) -> f64>> {
        // Blob A: {0,1,2} near 0.1; blob B: {3,4,5} near 0.9.
        let xs: [f64; 6] = [0.10, 0.12, 0.14, 0.86, 0.88, 0.90];
        Oracle::new(FnMetric::new(6, 1.0, move |a, b| {
            (xs[a as usize] - xs[b as usize]).abs()
        }))
    }

    /// Two well-separated 2-D rings of `n/2` points each.
    fn rings_metric(n: usize) -> FnMetric<impl Fn(ObjectId, ObjectId) -> f64> {
        FnMetric::new(n, 1.0, move |a, b| {
            let half = n as u32 / 2;
            let pt = |i: u32| {
                let (cx, cy) = if i < half { (0.2, 0.2) } else { (0.8, 0.8) };
                let t = 2.0 * std::f64::consts::PI * f64::from(i % half) / f64::from(half);
                (cx + 0.05 * t.cos(), cy + 0.05 * t.sin())
            };
            let (ax, ay) = pt(a);
            let (bx, by) = pt(b);
            (((ax - bx).powi(2) + (ay - by).powi(2)).sqrt() / std::f64::consts::SQRT_2).min(1.0)
        })
    }

    #[test]
    fn merges_blobs_last_at_mean_cross_distance() {
        let oracle = blobs();
        let mut r = BoundResolver::vanilla(&oracle);
        let d = average_linkage(&mut r);
        assert_eq!(d.merges.len(), 5);
        // The final bridge is the mean of the 9 cross distances = 0.76 —
        // between single linkage's nearest gap (0.72) and complete
        // linkage's diameter (0.80).
        let last = d.merges.last().expect("merges");
        assert!((last.height - 0.76).abs() < 1e-9, "got {}", last.height);
        // Heights are non-decreasing (UPGMA is monotone).
        for w in d.merges.windows(2) {
            assert!(w[0].height <= w[1].height + 1e-15);
        }
        // Cutting at 2 recovers the blobs.
        let labels = d.cut(2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[5]);
        assert_ne!(labels[0], labels[3]);
    }

    #[test]
    fn sits_between_single_and_complete_on_chains() {
        let xs: [f64; 5] = [0.0, 0.1, 0.2, 0.3, 0.4];
        let oracle = Oracle::new(FnMetric::new(5, 1.0, move |a, b| {
            (xs[a as usize] - xs[b as usize]).abs()
        }));
        let mut r1 = BoundResolver::vanilla(&oracle);
        let average = average_linkage(&mut r1);
        let mut r2 = BoundResolver::vanilla(&oracle);
        let single = crate::single_linkage(&mut r2);
        let mut r3 = BoundResolver::vanilla(&oracle);
        let complete = crate::complete_linkage(&mut r3);
        let a_top = average.merges.last().expect("merges").height;
        let s_top = single.merges.last().expect("merges").height;
        let c_top = complete.merges.last().expect("merges").height;
        assert!(s_top < a_top, "average above the nearest gap");
        assert!(a_top < c_top, "average below the diameter");
    }

    /// The no-savings theorem, empirically: exact heights are a function
    /// of all pairwise distances, so every resolver pays `C(n,2)` — and
    /// all of them still produce the identical dendrogram.
    #[test]
    fn full_dendrogram_resolves_all_pairs_whatever_the_resolver() {
        let n = 24usize;
        let metric = rings_metric(n);
        let o1 = Oracle::new(&metric);
        let mut vanilla = BoundResolver::vanilla(&o1);
        let want = average_linkage(&mut vanilla);
        assert_eq!(o1.calls(), Pair::count(n), "vanilla resolves all pairs");

        let o2 = Oracle::new(&metric);
        let mut plugged = BoundResolver::new(&o2, TriScheme::new(n, 1.0));
        let got = average_linkage(&mut plugged);
        assert_eq!(got, want, "identical dendrogram");
        assert_eq!(
            o2.calls(),
            Pair::count(n),
            "sum aggregates admit no savings when heights are output"
        );

        let o3 = Oracle::new(&metric);
        let mut splub = BoundResolver::new(&o3, Splub::new(n, 1.0));
        let got3 = average_linkage(&mut splub);
        assert_eq!(got3, want);
        assert_eq!(o3.calls(), Pair::count(n));
    }

    /// Topology-only output restores the savings: the cross-ring sums are
    /// excluded by bounds and never resolve.
    #[test]
    fn cut_matches_vanilla_and_saves_calls() {
        let n = 24usize;
        let metric = rings_metric(n);
        // Ground truth: the full vanilla dendrogram's 2-cut.
        let o1 = Oracle::new(&metric);
        let mut vanilla = BoundResolver::vanilla(&o1);
        let want = average_linkage(&mut vanilla).cut(2);

        // Vanilla cut agrees.
        let o2 = Oracle::new(&metric);
        let mut vanilla2 = BoundResolver::vanilla(&o2);
        assert_eq!(average_linkage_cut(&mut vanilla2, 2), want);

        // Tri-plugged cut: identical partition, strictly fewer calls —
        // the cross-ring distances are never resolved.
        let o3 = Oracle::new(&metric);
        let mut plugged = BoundResolver::new(&o3, TriScheme::new(n, 1.0));
        assert_eq!(average_linkage_cut(&mut plugged, 2), want);
        assert!(
            o3.calls() < Pair::count(n),
            "plugged cut {} !< all pairs {}",
            o3.calls(),
            Pair::count(n)
        );
        assert!(
            o3.calls() < o2.calls(),
            "bounds beat vanilla: {} !< {}",
            o3.calls(),
            o2.calls()
        );
    }

    #[test]
    fn cut_edge_cases() {
        let oracle = blobs();
        let mut r = BoundResolver::vanilla(&oracle);
        // k = n: all singletons, labels in id order.
        assert_eq!(average_linkage_cut(&mut r, 6), vec![0, 1, 2, 3, 4, 5]);
        // k = 1: everything together.
        let mut r = BoundResolver::vanilla(&oracle);
        assert!(average_linkage_cut(&mut r, 1).iter().all(|&l| l == 0));
        // k beyond n clamps to singletons.
        let mut r = BoundResolver::vanilla(&oracle);
        assert_eq!(average_linkage_cut(&mut r, 99).len(), 6);
    }

    /// Pin against a from-first-principles textbook UPGMA: full distance
    /// matrix, naive agglomeration with the same (height, cluster-id) tie
    /// rule and the same canonical member-order summation.
    #[test]
    fn matches_textbook_reference() {
        let n = 18usize;
        let metric = FnMetric::new(n, 1.0, move |a, b| {
            let x = |i: u32| (f64::from(i) * 0.618_033_988_75).fract();
            (x(a) - x(b)).abs()
        });

        // Ground-truth matrix for the textbook reference run.
        #[expect(clippy::disallowed_methods, reason = "un-metered ground truth")]
        let dist: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| prox_core::Metric::distance(&metric, i as u32, j as u32))
                    .collect()
            })
            .collect();
        let mut members: Vec<Option<Vec<usize>>> = (0..n).map(|i| Some(vec![i])).collect();
        let mut ids: Vec<u32> = (0..n as u32).collect();
        let mut want: Vec<(u32, u32, f64)> = Vec::new();
        for step in 0..n - 1 {
            let mut best: Option<(usize, usize, f64)> = None;
            for (a, slot_a) in members.iter().enumerate() {
                let Some(ma) = slot_a else { continue };
                for (b, slot_b) in members.iter().enumerate().skip(a + 1) {
                    let Some(mb) = slot_b else { continue };
                    let mut s = 0.0f64;
                    for &x in ma {
                        for &y in mb {
                            s += dist[x][y];
                        }
                    }
                    let m = s / (ma.len() * mb.len()) as f64;
                    if best.is_none_or(|(_, _, bd)| m < bd) {
                        best = Some((a, b, m));
                    }
                }
            }
            let (a, b, m) = best.expect("pairs remain");
            let mut merged = members[a].take().expect("active");
            merged.extend(members[b].take().expect("active"));
            members[a] = Some(merged);
            want.push((ids[a].min(ids[b]), ids[a].max(ids[b]), m));
            ids[a] = (n + step) as u32;
        }

        let oracle = Oracle::new(&metric);
        let mut r = BoundResolver::vanilla(&oracle);
        let got = average_linkage(&mut r);
        for (m, &(wa, wb, wd)) in got.merges.iter().zip(&want) {
            assert_eq!((m.a, m.b), (wa, wb), "merge operands");
            assert!(
                (m.height - wd).abs() < 1e-12,
                "height {} vs {}",
                m.height,
                wd
            );
        }
    }

    #[test]
    fn two_objects() {
        let metric = FnMetric::new(2, 1.0, |_, _| 0.3);
        let o = Oracle::new(metric);
        let mut r = BoundResolver::vanilla(&o);
        let d = average_linkage(&mut r);
        assert_eq!(d.merges.len(), 1);
        assert!((d.merges[0].height - 0.3).abs() < 1e-12);
    }
}
