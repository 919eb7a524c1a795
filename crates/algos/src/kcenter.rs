//! Greedy k-center (Gonzalez farthest-first) — facility allocation, one of
//! the paper's §7 extension targets.

use prox_bounds::DistanceResolver;
use prox_core::invariant::expect_ok;
use prox_core::{ObjectId, OracleError, Pair};

/// A k-center solution.
#[derive(Clone, Debug, PartialEq)]
pub struct KCenter {
    /// Chosen centers, in selection order (first is the seed).
    pub centers: Vec<ObjectId>,
    /// For each object, the index (into `centers`) of its nearest center.
    pub assignment: Vec<u32>,
    /// The covering radius: max over objects of the distance to its center.
    pub radius: f64,
}

/// Gonzalez's farthest-first traversal, a 2-approximation for metric
/// k-center, re-authored for the resolver framework.
///
/// The algorithm maintains `mind[v]` — the exact distance from `v` to its
/// nearest chosen center. When a center `c` joins, the update
/// `if dist(c, v) < mind[v]` is the same prunable IF as Prim's relaxation:
/// a candidate whose lower bound cannot undercut `mind[v]` costs nothing.
/// The farthest-point selection then reads exact `mind` values only.
///
/// Vanilla cost: `k·n − O(k²)` oracle calls. Ties in the farthest-point
/// argmax break toward the smaller id, identically under every resolver.
pub fn k_center<R: DistanceResolver + ?Sized>(
    resolver: &mut R,
    k: usize,
    seed_center: ObjectId,
) -> KCenter {
    expect_ok(
        try_k_center(resolver, k, seed_center),
        "k_center on the infallible path",
    )
}

/// Fallible [`k_center`]: surfaces oracle faults instead of panicking.
pub fn try_k_center<R: DistanceResolver + ?Sized>(
    resolver: &mut R,
    k: usize,
    seed_center: ObjectId,
) -> Result<KCenter, OracleError> {
    let n = resolver.n();
    assert!(n >= 1);
    assert!((seed_center as usize) < n);
    let k = k.clamp(1, n);

    let mut centers = Vec::with_capacity(k);
    let mut assignment = vec![0u32; n];
    let mut mind = vec![f64::INFINITY; n];
    // Explicit center flags: a *duplicate* of a center has mind == 0 too,
    // so the zero distance cannot double as the "is a center" marker.
    let mut is_center = vec![false; n];
    mind[seed_center as usize] = 0.0;
    is_center[seed_center as usize] = true;
    centers.push(seed_center);

    let relax = |resolver: &mut R,
                 c: ObjectId,
                 slot: u32,
                 mind: &mut [f64],
                 assignment: &mut [u32],
                 is_center: &[bool]|
     -> Result<(), OracleError> {
        for v in 0..mind.len() as ObjectId {
            if v == c || is_center[v as usize] {
                continue;
            }
            let cur = mind[v as usize];
            let p = Pair::new(c, v);
            if cur.is_infinite() {
                mind[v as usize] = resolver.resolve_fallible(p)?;
                assignment[v as usize] = slot;
            } else if let Some(d) = resolver.distance_if_less_fallible(p, cur)? {
                mind[v as usize] = d;
                assignment[v as usize] = slot;
            }
        }
        Ok(())
    };
    relax(
        resolver,
        seed_center,
        0,
        &mut mind,
        &mut assignment,
        &is_center,
    )?;

    for slot in 1..k {
        // Farthest-first: argmax of the exact nearest-center distances
        // over non-centers (ties toward the smaller id).
        let mut far = ObjectId::MAX;
        let mut far_d = f64::NEG_INFINITY;
        for v in 0..n as ObjectId {
            if !is_center[v as usize] && mind[v as usize] > far_d {
                far_d = mind[v as usize];
                far = v;
            }
        }
        let c = far;
        centers.push(c);
        mind[c as usize] = 0.0;
        is_center[c as usize] = true;
        assignment[c as usize] = slot as u32;
        relax(
            resolver,
            c,
            slot as u32,
            &mut mind,
            &mut assignment,
            &is_center,
        )?;
    }

    let radius = mind.iter().copied().fold(0.0f64, f64::max);
    Ok(KCenter {
        centers,
        assignment,
        radius,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prox_bounds::{BoundResolver, TriScheme};
    use prox_core::{FnMetric, Oracle};

    /// Three tight blobs at 0.1, 0.5, 0.9 on a line.
    fn blobs(n_per: usize) -> Oracle<FnMetric<impl Fn(ObjectId, ObjectId) -> f64>> {
        let n = 3 * n_per;
        Oracle::new(FnMetric::new(n, 1.0, move |a, b| {
            let x = |i: u32| {
                let blob = i as usize / n_per;
                0.1 + 0.4 * blob as f64 + 0.005 * f64::from(i % n_per as u32)
            };
            (x(a) - x(b)).abs()
        }))
    }

    #[test]
    fn covers_three_blobs_with_three_centers() {
        let oracle = blobs(6);
        let mut r = BoundResolver::vanilla(&oracle);
        let sol = k_center(&mut r, 3, 0);
        assert_eq!(sol.centers.len(), 3);
        let blobs_hit: std::collections::BTreeSet<usize> =
            sol.centers.iter().map(|&c| c as usize / 6).collect();
        assert_eq!(blobs_hit.len(), 3, "one center per blob: {:?}", sol.centers);
        assert!(sol.radius < 0.05, "within-blob radius, got {}", sol.radius);
    }

    #[test]
    fn radius_shrinks_with_more_centers() {
        let oracle = blobs(5);
        let mut radii = Vec::new();
        for k in 1..=5 {
            let mut r = BoundResolver::vanilla(&oracle);
            radii.push(k_center(&mut r, k, 0).radius);
        }
        for w in radii.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "radius must be non-increasing");
        }
    }

    #[test]
    fn plugged_matches_vanilla() {
        let o1 = blobs(8);
        let mut v = BoundResolver::vanilla(&o1);
        let want = k_center(&mut v, 4, 2);

        let o2 = blobs(8);
        let mut p = BoundResolver::new(&o2, TriScheme::new(24, 1.0));
        let got = k_center(&mut p, 4, 2);

        assert_eq!(got, want);
        assert!(o2.calls() <= o1.calls());
    }

    #[test]
    fn duplicate_points_never_duplicate_centers() {
        // Objects 0..3 are all at x = 0.1 (exact duplicates); 4..7 spread
        // out. Centers must stay distinct even though duplicates reach
        // mind = 0 without being centers.
        let xs: [f64; 8] = [0.1, 0.1, 0.1, 0.1, 0.4, 0.6, 0.8, 0.9];
        let oracle = Oracle::new(FnMetric::new(8, 1.0, move |a, b| {
            (xs[a as usize] - xs[b as usize]).abs()
        }));
        let mut r = BoundResolver::vanilla(&oracle);
        let sol = k_center(&mut r, 5, 0);
        let mut unique = sol.centers.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 5, "distinct centers: {:?}", sol.centers);
    }

    #[test]
    fn assignment_points_to_nearest_center() {
        let oracle = blobs(4);
        let mut r = BoundResolver::vanilla(&oracle);
        let sol = k_center(&mut r, 3, 1);
        let gt = oracle.ground_truth();
        for v in 0..12u32 {
            let assigned = sol.centers[sol.assignment[v as usize] as usize];
            #[expect(clippy::disallowed_methods, reason = "un-metered ground truth")]
            let da = if assigned == v {
                0.0
            } else {
                prox_core::Metric::distance(gt, v, assigned)
            };
            for &c in &sol.centers {
                #[expect(clippy::disallowed_methods, reason = "un-metered ground truth")]
                let dc = if c == v {
                    0.0
                } else {
                    prox_core::Metric::distance(gt, v, c)
                };
                assert!(da <= dc + 1e-12, "object {v}: {assigned} vs {c}");
            }
        }
    }
}
