//! Complete-linkage hierarchical clustering with bound pruning.
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
//! framework ([`crate::linkage`]'s agglomerative driver), every cluster
//! pair instead carries a **lower bound** `max of member LBs`, and member
//! upper bounds decide when the maximum is pinned:
//!
//! * the argmin certificate excludes a pair whose lower bound exceeds the
//!   best exact distance with zero oracle calls;
//! * only the pairs that stay contenders are *refined*: their member
//!   distances resolve in descending upper-bound order, stopping as soon
//!   as a resolved value dominates every remaining member's UB — the exact
//!   maximum is then known without resolving the rest;
//! * Lance–Williams stays free: `L(A∪B, C) = max(L_AC, L_BC)`, exact
//!   whenever both inputs are exact.
//!
//! This is a *max-aggregate* IF shape — a different beast from the
//! pairwise and sum forms in the rest of the crate, and the paper's
//! generality claim (§7: "substitute expensive distance comparison within
//! these algorithms") is exactly what it exercises. Outputs are identical
//! to the vanilla run: bound decisions are sound (with the framework's
//! rounding margin), fallbacks are exact, and ties keep the earliest pair
//! in the active-slot scan order.

use prox_bounds::resolver::DECISION_EPS;
use prox_bounds::DistanceResolver;
use prox_core::invariant::expect_ok;
use prox_core::{ObjectId, OracleError, Pair};

use crate::linkage::{agglomerate, Aggregate, Band, Dendrogram};

/// The max aggregate.
struct Max;

impl<R: DistanceResolver + ?Sized> Aggregate<R> for Max {
    /// The band can collapse to exact without any resolution when some
    /// known member distance dominates every unknown member's UB.
    fn recompute(r: &mut R, ma: &[ObjectId], mb: &[ObjectId]) -> Band {
        let mut lo = 0.0f64;
        let mut max_known = 0.0f64;
        let mut max_unknown_ub = 0.0f64;
        let mut any_unknown = false;
        for &x in ma {
            for &y in mb {
                let p = Pair::new(x, y);
                // Only resolver-certified exact values may pin the maximum:
                // a derived lb==ub collapse can sit an ulp off the oracle's
                // float and heights must be bit-identical across resolvers.
                if let Some(d) = r.known(p) {
                    lo = lo.max(d);
                    max_known = max_known.max(d);
                } else {
                    let (l, u) = r.bounds_hint(p);
                    lo = lo.max(l);
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
        Band { lo, exact }
    }

    /// Member distances resolve in descending UB order; once the running
    /// maximum of resolved values reaches every remaining UB, the maximum
    /// is determined and the rest never resolve.
    fn refine(r: &mut R, ma: &[ObjectId], mb: &[ObjectId]) -> Result<Band, OracleError> {
        let mut entries: Vec<(f64, Pair)> = Vec::with_capacity(ma.len() * mb.len());
        for &x in ma {
            for &y in mb {
                let p = Pair::new(x, y);
                let (_, ub) = r.bounds_hint(p);
                entries.push((ub, p));
            }
        }
        // Descending UB; deterministic tie order by pair key.
        entries
            .sort_unstable_by(|p, q| q.0.total_cmp(&p.0).then_with(|| p.1.key().cmp(&q.1.key())));
        let mut max_d = 0.0f64;
        for (i, &(_, p)) in entries.iter().enumerate() {
            // Everything not yet visited has UB <= the next entry's UB; once
            // the resolved maximum dominates it (by the framework's rounding
            // margin, to tolerate ulp-noisy derived UBs), the maximum is
            // pinned without resolving the rest.
            if i > 0 && max_d >= entries[i].0 + DECISION_EPS {
                break;
            }
            let d = r.resolve_fallible(p)?;
            if d > max_d {
                max_d = d;
            }
        }
        Ok(Band {
            lo: max_d,
            exact: Some(max_d),
        })
    }

    /// Lance–Williams on bands: no resolver call.
    fn merged(_r: &mut R, ac: Band, bc: Band, _ma: &[ObjectId], _mb: &[ObjectId]) -> Band {
        let exact = match (ac.exact, bc.exact) {
            (Some(x), Some(y)) => Some(x.max(y)),
            _ => None,
        };
        Band {
            lo: ac.lo.max(bc.lo),
            exact,
        }
    }
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
    let merges = agglomerate::<Max, R>(resolver, 1)?;
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
