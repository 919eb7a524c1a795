//! Complete-linkage hierarchical clustering with interval pruning.
//!
//! Complete linkage merges, at every step, the two clusters with the
//! smallest **maximum** member distance:
//!
//! ```text
//! D(A, B) = max over a in A, b in B of dist(a, b)
//! ```
//!
//! The classical algorithm resolves all `C(n,2)` distances up front and
//! then runs Lance–Williams updates. Re-authored for the resolver
//! framework, every cluster pair instead carries an **interval**
//! `[max of member LBs, max of member UBs]`:
//!
//! * the argmin tournament compares intervals first — `U(x) < L(y)`
//!   decides `D(x) < D(y)` with zero oracle calls;
//! * only the pairs that stay contenders are *refined*: their member
//!   distances resolve in descending upper-bound order, stopping as soon
//!   as a resolved value dominates every remaining member's UB — the exact
//!   maximum is then known without resolving the rest;
//! * Lance–Williams stays free: `I(A∪B, C) = [max(L_AC, L_BC),
//!   max(U_AC, U_BC)]`, exact whenever both inputs are exact.
//!
//! This is a *max-aggregate* IF shape — a different beast from the
//! pairwise and sum forms in the rest of the crate, and the paper's
//! generality claim (§7: "substitute expensive distance comparison within
//! these algorithms") is exactly what it exercises. Outputs are identical
//! to the vanilla run: interval decisions are sound (with the framework's
//! rounding margin), fallbacks are exact, and ties keep the earliest pair
//! in the active-slot scan order — an ordering that depends only on the
//! merge history, never on distance values.

use prox_bounds::resolver::DECISION_EPS;
use prox_bounds::DistanceResolver;
use prox_core::invariant::{expect_ok, InvariantExt};
use prox_core::{ObjectId, OracleError, Pair};

use crate::linkage::{Dendrogram, Merge};

/// Interval state of one cluster pair.
#[derive(Copy, Clone, Debug)]
struct Band {
    lo: f64,
    hi: f64,
    /// Exact `D` once every contributing member distance is pinned.
    exact: Option<f64>,
}

struct State {
    /// Members of each cluster slot (`None` = merged away).
    members: Vec<Option<Vec<ObjectId>>>,
    /// Dendrogram cluster id of each active slot.
    cluster_id: Vec<u32>,
    /// Triangular pair state indexed by slot ids (`slot_lo < slot_hi`).
    bands: Vec<Band>,
    n0: usize,
}

impl State {
    fn idx(&self, a: usize, b: usize) -> usize {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        lo * self.n0 - lo * (lo + 1) / 2 + (hi - lo - 1)
    }
    fn band(&self, a: usize, b: usize) -> Band {
        self.bands[self.idx(a, b)]
    }
    fn set_band(&mut self, a: usize, b: usize, band: Band) {
        let i = self.idx(a, b);
        self.bands[i] = band;
    }
}

/// Recomputes a cluster pair's band from the scheme's *current* bounds —
/// no oracle calls. The band can collapse to exact without any resolution
/// when some known member distance dominates every unknown member's UB.
fn recompute_band<R: DistanceResolver + ?Sized>(
    resolver: &mut R,
    state: &State,
    a: usize,
    b: usize,
) -> Band {
    let (ma, mb) = (
        state.members[a].as_ref().expect_invariant("active cluster"),
        state.members[b].as_ref().expect_invariant("active cluster"),
    );
    let mut lo = 0.0f64;
    let mut hi = 0.0f64;
    let mut max_known = 0.0f64;
    let mut max_unknown_ub = 0.0f64;
    let mut any_unknown = false;
    for &x in ma {
        for &y in mb {
            let p = Pair::new(x, y);
            // Only resolver-certified exact values may pin the maximum:
            // a derived lb==ub collapse can sit an ulp off the oracle's
            // float and heights must be bit-identical across resolvers.
            if let Some(d) = resolver.known(p) {
                lo = lo.max(d);
                hi = hi.max(d);
                max_known = max_known.max(d);
            } else {
                let (l, u) = resolver.bounds_hint(p);
                lo = lo.max(l);
                hi = hi.max(u);
                any_unknown = true;
                max_unknown_ub = max_unknown_ub.max(u);
            }
        }
    }
    // The margin keeps the gate conservative under ulp-noisy derived UBs:
    // when in doubt, stay non-exact and let `refine` resolve with the
    // oracle, so heights stay bit-identical across resolvers.
    let exact = if !any_unknown || max_known >= max_unknown_ub + DECISION_EPS {
        Some(max_known)
    } else {
        None
    };
    Band { lo, hi, exact }
}

/// Refines a cluster pair until its complete-linkage distance is exact.
///
/// Member distances resolve in descending UB order; once the running
/// maximum of resolved values reaches every remaining UB, the maximum is
/// determined and the rest never resolve.
fn refine<R: DistanceResolver + ?Sized>(
    resolver: &mut R,
    state: &mut State,
    a: usize,
    b: usize,
) -> Result<f64, OracleError> {
    let band = state.band(a, b);
    if let Some(d) = band.exact {
        return Ok(d);
    }
    let (ma, mb) = (
        state.members[a].as_ref().expect_invariant("active cluster"),
        state.members[b].as_ref().expect_invariant("active cluster"),
    );
    let mut entries: Vec<(f64, Pair)> = Vec::with_capacity(ma.len() * mb.len());
    for &x in ma {
        for &y in mb {
            let p = Pair::new(x, y);
            let (_, ub) = resolver.bounds_hint(p);
            entries.push((ub, p));
        }
    }
    // Descending UB; deterministic tie order by pair key.
    entries.sort_unstable_by(|p, q| q.0.total_cmp(&p.0).then_with(|| p.1.key().cmp(&q.1.key())));
    let mut max_d = 0.0f64;
    for (i, &(_, p)) in entries.iter().enumerate() {
        // Everything not yet visited has UB <= the next entry's UB; once
        // the resolved maximum dominates it (by the framework's rounding
        // margin, to tolerate ulp-noisy derived UBs), the maximum is
        // pinned without resolving the rest.
        if i > 0 && max_d >= entries[i].0 + DECISION_EPS {
            break;
        }
        let d = resolver.resolve_fallible(p)?;
        if d > max_d {
            max_d = d;
        }
    }
    state.set_band(
        a,
        b,
        Band {
            lo: max_d,
            hi: max_d,
            exact: Some(max_d),
        },
    );
    Ok(max_d)
}

/// Builds the complete-linkage dendrogram (`n − 1` merges, heights
/// non-decreasing) through the resolver. Cluster-id conventions match
/// [`crate::single_linkage`]: leaves are `0..n`, merge `i` creates `n + i`.
pub fn complete_linkage<R: DistanceResolver + ?Sized>(resolver: &mut R) -> Dendrogram {
    expect_ok(
        try_complete_linkage(resolver),
        "complete_linkage on the infallible path",
    )
}

/// Fallible [`complete_linkage`]: surfaces oracle faults instead of
/// panicking.
pub fn try_complete_linkage<R: DistanceResolver + ?Sized>(
    resolver: &mut R,
) -> Result<Dendrogram, OracleError> {
    let n = resolver.n();
    let max_d = resolver.max_distance();
    let mut state = State {
        members: (0..n as ObjectId).map(|o| Some(vec![o])).collect(),
        cluster_id: (0..n as u32).collect(),
        bands: Vec::new(),
        n0: n,
    };
    state.bands = Pair::all(n)
        .map(|p| match resolver.known(p) {
            Some(d) => Band {
                lo: d,
                hi: d,
                exact: Some(d),
            },
            None => {
                let (lo, hi) = resolver.bounds_hint(p);
                Band {
                    lo,
                    hi: hi.min(max_d),
                    exact: None,
                }
            }
        })
        .collect();

    let mut active: Vec<usize> = (0..n).collect();
    let mut merges = Vec::with_capacity(n.saturating_sub(1));

    for step in 0..n.saturating_sub(1) {
        // Lazy argmin over active cluster pairs.
        //
        // Invariant-driven loop: hold the best *exact* pair seen so far
        // (by `(D, scan order)`); any non-exact pair whose lower bound can
        // still reach that value gets its band *recomputed* from current
        // scheme knowledge first (free), and only refined (resolved) when
        // the refreshed bound still cannot exclude it. Early refinements
        // feed the scheme, which excludes most later pairs for free.
        let (a, b, height) = loop {
            // Best exact pair so far, by (value, scan order).
            let mut best: Option<(usize, usize, f64)> = None;
            for (ai, &x) in active.iter().enumerate() {
                for &y in active.iter().skip(ai + 1) {
                    if let Some(d) = state.band(x, y).exact {
                        if best.is_none_or(|(_, _, bd)| d < bd) {
                            best = Some((x, y, d));
                        }
                    }
                }
            }
            // Nothing exact yet: refine the pair with the smallest lower
            // bound (ties to scan order) and try again.
            let Some((bx, by, bd)) = best else {
                let mut pick: Option<(usize, usize, f64)> = None;
                for (ai, &x) in active.iter().enumerate() {
                    for &y in active.iter().skip(ai + 1) {
                        let band = state.band(x, y);
                        if pick.is_none_or(|(_, _, pl)| band.lo < pl) {
                            pick = Some((x, y, band.lo));
                        }
                    }
                }
                let (x, y, _) = pick.expect_invariant("two active clusters remain");
                refine(resolver, &mut state, x, y)?;
                continue;
            };
            // Certificate: every other pair must be excluded by a lower
            // bound strictly above bd, or be exact (and then not smaller —
            // the best-exact scan above already preferred it if it were).
            let mut disturbed = false;
            'scan: for (ai, &x) in active.iter().enumerate() {
                for &y in active.iter().skip(ai + 1) {
                    if (x, y) == (bx, by) {
                        continue;
                    }
                    let band = state.band(x, y);
                    // The same rounding margin as the resolver's decisions:
                    // derived bounds may sit an ulp high, and excluding a
                    // true tie would break cross-resolver output equality.
                    if band.exact.is_some() || band.lo > bd + DECISION_EPS {
                        continue;
                    }
                    // Refresh from current knowledge (no oracle calls).
                    let fresh = recompute_band(resolver, &state, x, y);
                    state.set_band(x, y, fresh);
                    if fresh.exact.is_some() {
                        disturbed = true; // re-enter best-exact selection
                        break 'scan;
                    }
                    if fresh.lo <= bd + DECISION_EPS {
                        // Still a contender (or a potential tie): resolve.
                        refine(resolver, &mut state, x, y)?;
                        disturbed = true;
                        break 'scan;
                    }
                }
            }
            if !disturbed {
                break (bx, by, bd);
            }
        };

        // Lance–Williams on intervals: merged cluster occupies slot `a`.
        for &c in &active {
            if c == a || c == b {
                continue;
            }
            let ia = state.band(a, c);
            let ib = state.band(b, c);
            let exact = match (ia.exact, ib.exact) {
                (Some(x), Some(y)) => Some(x.max(y)),
                _ => None,
            };
            state.set_band(
                a,
                c,
                Band {
                    lo: ia.lo.max(ib.lo),
                    hi: ia.hi.max(ib.hi),
                    exact,
                },
            );
        }
        let mut merged = state.members[a].take().expect_invariant("active");
        merged.extend(state.members[b].take().expect_invariant("active"));
        state.members[a] = Some(merged);
        active.retain(|&c| c != b);

        let (ca, cb) = (state.cluster_id[a], state.cluster_id[b]);
        state.cluster_id[a] = (n + step) as u32;
        merges.push(Merge {
            a: ca.min(cb),
            b: ca.max(cb),
            height,
        });
    }

    Ok(Dendrogram::from_merges(n, merges))
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

    #[test]
    fn merges_blobs_last_at_diameter() {
        let oracle = blobs();
        let mut r = BoundResolver::vanilla(&oracle);
        let d = complete_linkage(&mut r);
        assert_eq!(d.merges.len(), 5);
        // Complete linkage: the final bridge is the *diameter* 0.9 - 0.1.
        let last = d.merges.last().expect("merges");
        assert!((last.height - 0.80).abs() < 1e-12, "got {}", last.height);
        // Heights are non-decreasing (complete linkage is monotone).
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
    fn differs_from_single_linkage_on_chains() {
        // A chain: single linkage merges it bottom-up into one cluster at
        // small heights; complete linkage must pay the chain's diameter.
        let xs: [f64; 5] = [0.0, 0.1, 0.2, 0.3, 0.4];
        let oracle = Oracle::new(FnMetric::new(5, 1.0, move |a, b| {
            (xs[a as usize] - xs[b as usize]).abs()
        }));
        let mut r1 = BoundResolver::vanilla(&oracle);
        let complete = complete_linkage(&mut r1);
        let mut r2 = BoundResolver::vanilla(&oracle);
        let single = crate::single_linkage(&mut r2);
        let c_top = complete.merges.last().expect("merges").height;
        let s_top = single.merges.last().expect("merges").height;
        assert!((s_top - 0.1).abs() < 1e-12, "single: nearest gap");
        assert!((c_top - 0.4).abs() < 1e-12, "complete: full diameter");
    }

    #[test]
    fn plugged_matches_vanilla_with_savings() {
        // Two 2-D rings: plenty of boundable cross-cluster comparisons.
        let n = 24usize;
        let metric = FnMetric::new(n, 1.0, move |a, b| {
            let half = n as u32 / 2;
            let pt = |i: u32| {
                let (cx, cy) = if i < half { (0.2, 0.2) } else { (0.8, 0.8) };
                let t = 2.0 * std::f64::consts::PI * f64::from(i % half) / f64::from(half);
                (cx + 0.05 * t.cos(), cy + 0.05 * t.sin())
            };
            let (ax, ay) = pt(a);
            let (bx, by) = pt(b);
            (((ax - bx).powi(2) + (ay - by).powi(2)).sqrt() / std::f64::consts::SQRT_2).min(1.0)
        });
        let o1 = Oracle::new(&metric);
        let mut vanilla = BoundResolver::vanilla(&o1);
        let want = complete_linkage(&mut vanilla);
        assert_eq!(o1.calls(), Pair::count(n), "vanilla resolves all pairs");

        let o2 = Oracle::new(&metric);
        let mut plugged = BoundResolver::new(&o2, TriScheme::new(n, 1.0));
        let got = complete_linkage(&mut plugged);
        assert_eq!(got, want, "identical dendrogram");
        assert!(
            o2.calls() < o1.calls(),
            "plugged {} !< vanilla {}",
            o2.calls(),
            o1.calls()
        );

        // SPLUB's tighter bounds must give the identical dendrogram too.
        // (Its call count may differ in either direction: bounds steer the
        // refinement *order*, and a different exploration path can resolve
        // a different subset — only the output is invariant.)
        let o3 = Oracle::new(&metric);
        let mut splub = BoundResolver::new(&o3, Splub::new(n, 1.0));
        let got3 = complete_linkage(&mut splub);
        assert_eq!(got3, want);
        assert!(o3.calls() < o1.calls(), "SPLUB still saves vs vanilla");
    }

    /// Pin against a from-first-principles textbook implementation: full
    /// distance matrix, naive O(n^3) agglomeration with the same
    /// (height, cluster-id) tie rule.
    #[test]
    fn matches_textbook_reference() {
        let n = 18usize;
        let metric = FnMetric::new(n, 1.0, move |a, b| {
            // Deterministic scattered points on a line with uneven gaps.
            let x = |i: u32| (f64::from(i) * 0.618_033_988_75).fract();
            (x(a) - x(b)).abs()
        });

        // Textbook run against the un-metered ground truth.
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
                    let mut d = 0.0f64;
                    for &x in ma {
                        for &y in mb {
                            d = d.max(dist[x][y]);
                        }
                    }
                    if best.is_none_or(|(_, _, bd)| d < bd) {
                        best = Some((a, b, d));
                    }
                }
            }
            let (a, b, d) = best.expect("pairs remain");
            let mut merged = members[a].take().expect("active");
            merged.extend(members[b].take().expect("active"));
            members[a] = Some(merged);
            want.push((ids[a].min(ids[b]), ids[a].max(ids[b]), d));
            ids[a] = (n + step) as u32;
        }

        // Framework run (vanilla resolver).
        let oracle = Oracle::new(&metric);
        let mut r = BoundResolver::vanilla(&oracle);
        let got = complete_linkage(&mut r);
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
        let d = complete_linkage(&mut r);
        assert_eq!(d.merges.len(), 1);
        assert!((d.merges[0].height - 0.3).abs() < 1e-12);
    }
}
