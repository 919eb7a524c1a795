//! PAM (Partitioning Around Medoids, Kaufman & Rousseeuw).
//!
//! The SWAP scan is sequential at every thread count: a swap's bound checks
//! may resolve a distance that every later candidate then reuses, so the
//! canonical `(slot, object)` scan order is part of what makes outputs and
//! oracle calls repeatable.

use prox_bounds::DistanceResolver;
use prox_core::invariant::expect_ok;
use prox_core::{ObjectId, OracleError};
use prox_obs::SpanGuard;

use crate::medoid::{try_assign, try_swap_delta};
use crate::{Clustering, TinyRng};

/// PAM configuration.
#[derive(Copy, Clone, Debug)]
pub struct PamParams {
    /// Number of medoids (the paper's `l`, default 10 in §5.5.2).
    pub l: usize,
    /// Safety cap on SWAP iterations.
    pub max_swaps: usize,
    /// Seed for the initial medoid draw.
    pub seed: u64,
}

impl Default for PamParams {
    fn default() -> Self {
        PamParams {
            l: 10,
            max_swaps: 200,
            seed: 1,
        }
    }
}

/// PAM with seeded random initialization and the classical SWAP phase.
///
/// Each SWAP round evaluates every `(medoid, non-medoid)` exchange exactly
/// — `l·(n−l)` candidate swaps, each a sum of per-object contributions whose
/// distance comparisons run through the resolver — and applies the best
/// strictly-improving one. The original BUILD initialization requires all
/// `C(n,2)` distances before SWAP even starts, which would wipe out any
/// oracle savings; a seeded random draw (shared by vanilla and plugged runs,
/// so outputs still match exactly) is used instead.
pub fn pam<R: DistanceResolver + ?Sized>(resolver: &mut R, params: PamParams) -> Clustering {
    expect_ok(try_pam(resolver, params), "pam on the infallible path")
}

/// Fallible [`pam()`]: surfaces oracle faults instead of panicking.
pub fn try_pam<R: DistanceResolver + ?Sized>(
    resolver: &mut R,
    params: PamParams,
) -> Result<Clustering, OracleError> {
    // Semantic span; the guard closes it even on a fault abort.
    let trace = resolver.trace_sink();
    let _span = SpanGuard::enter(trace.clone(), "build");

    let n = resolver.n();
    let l = params.l.clamp(1, n);
    let mut rng = TinyRng::new(params.seed);
    let mut medoids: Vec<ObjectId> = rng.distinct(l, n);
    let (mut near, mut cost) = {
        let _init = SpanGuard::enter(trace.clone(), "init");
        try_assign(resolver, &medoids)?
    };

    for _ in 0..params.max_swaps {
        let mut best_delta = -1e-12;
        let mut best: Option<(usize, ObjectId)> = None;
        for i in 0..l {
            for h in 0..n as ObjectId {
                if medoids.contains(&h) {
                    continue;
                }
                let delta = {
                    let _swap = SpanGuard::enter(trace.clone(), "swap");
                    try_swap_delta(resolver, &medoids, &near, i, h)?
                };
                if delta < best_delta {
                    best_delta = delta;
                    best = Some((i, h));
                }
            }
        }

        match best {
            Some((i, h)) => {
                medoids[i] = h;
                let _refine = SpanGuard::enter(trace.clone(), "refine");
                let (na, c) = try_assign(resolver, &medoids)?;
                near = na;
                cost = c;
            }
            None => break,
        }
    }

    Ok(Clustering {
        medoids: medoids.clone(),
        assignment: near.iter().map(|r| r.n1).collect(),
        cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prox_bounds::{BoundResolver, TriScheme};
    use prox_core::{FnMetric, Metric, Oracle, Pair};

    /// Two tight blobs on a line: optimal 2-medoid solution is obvious.
    fn blobs_oracle() -> Oracle<FnMetric<impl Fn(ObjectId, ObjectId) -> f64>> {
        let xs: Vec<f64> = (0..6)
            .map(|i| 0.1 + 0.01 * f64::from(i))
            .chain((0..6).map(|i| 0.8 + 0.01 * f64::from(i)))
            .collect();
        Oracle::new(FnMetric::new(12, 1.0, move |a, b| {
            (xs[a as usize] - xs[b as usize]).abs()
        }))
    }

    #[test]
    fn separates_two_blobs() {
        let oracle = blobs_oracle();
        let mut r = BoundResolver::vanilla(&oracle);
        let c = pam(
            &mut r,
            PamParams {
                l: 2,
                max_swaps: 50,
                seed: 3,
            },
        );
        assert_eq!(c.medoids.len(), 2);
        let (a, b) = (c.medoids[0], c.medoids[1]);
        assert!(
            (a < 6) != (b < 6),
            "one medoid per blob, got {a} and {b} (cost {})",
            c.cost
        );
        // All members of a blob share their medoid's cluster.
        for j in 0..6 {
            assert_eq!(c.assignment[j], c.assignment[0]);
            assert_eq!(c.assignment[j + 6], c.assignment[6]);
        }
    }

    #[test]
    fn plugged_matches_vanilla_exactly() {
        let o1 = blobs_oracle();
        let mut vanilla = BoundResolver::vanilla(&o1);
        let want = pam(
            &mut vanilla,
            PamParams {
                l: 3,
                max_swaps: 50,
                seed: 9,
            },
        );

        let o2 = blobs_oracle();
        let mut plugged = BoundResolver::new(&o2, TriScheme::new(12, 1.0));
        let got = pam(
            &mut plugged,
            PamParams {
                l: 3,
                max_swaps: 50,
                seed: 9,
            },
        );

        assert_eq!(got.medoids, want.medoids);
        assert_eq!(got.assignment, want.assignment);
        assert!((got.cost - want.cost).abs() < 1e-12);
        assert!(
            o2.calls() <= o1.calls(),
            "plugged must not pay more: {} vs {}",
            o2.calls(),
            o1.calls()
        );
    }

    #[test]
    fn cost_is_sum_of_nearest_distances() {
        let oracle = blobs_oracle();
        let mut r = BoundResolver::vanilla(&oracle);
        let c = pam(&mut r, PamParams::default());
        let gt = oracle.ground_truth();
        let mut want = 0.0;
        for j in 0..12u32 {
            let m = c.medoids[c.assignment[j as usize] as usize];
            if m != j {
                #[expect(clippy::disallowed_methods, reason = "un-metered ground truth")]
                {
                    want += gt.distance(j, m);
                }
            }
        }
        assert!((c.cost - want).abs() < 1e-12);
    }

    #[test]
    fn l_one_and_l_equals_n() {
        let oracle = blobs_oracle();
        let mut r = BoundResolver::vanilla(&oracle);
        let c1 = pam(
            &mut r,
            PamParams {
                l: 1,
                max_swaps: 20,
                seed: 4,
            },
        );
        assert_eq!(c1.medoids.len(), 1);
        let mut r2 = BoundResolver::vanilla(&oracle);
        let call = pam(
            &mut r2,
            PamParams {
                l: 12,
                max_swaps: 5,
                seed: 4,
            },
        );
        assert_eq!(call.medoids.len(), 12);
        assert_eq!(call.cost, 0.0, "every object is its own medoid");
        let _ = Pair::count(12);
    }
}
