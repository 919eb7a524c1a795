//! Travelling-salesman heuristics — the paper's §7 extension target with
//! genuinely *aggregate* IF statements.
//!
//! 2-opt's accept test compares **sums** of two distances:
//!
//! ```text
//! if dist(a, c) + dist(b, d) < dist(a, b) + dist(c, d) { reverse segment }
//! ```
//!
//! Per-edge bound schemes decide it by interval sums
//! ([`DistanceResolver::try_less_sum2`]); the DFT resolver runs a joint
//! feasibility test, which is strictly stronger on sums — the demonstration
//! of the paper's claim that the LP formulation generalizes to "distance
//! aggregates" (§1.2).

use prox_bounds::DistanceResolver;
use prox_core::invariant::{expect_ok, InvariantExt};
use prox_core::{ObjectId, OracleError, Pair};

/// A closed tour and its exact length.
#[derive(Clone, Debug, PartialEq)]
pub struct Tour {
    /// Visit order; implicitly returns from the last city to the first.
    pub order: Vec<ObjectId>,
    /// Exact total length (every tour edge resolved).
    pub length: f64,
}

/// Nearest-neighbour construction from `start`, then deterministic first-
/// improvement 2-opt until no exchange helps (or `max_rounds` full sweeps).
pub fn tsp_2opt<R: DistanceResolver + ?Sized>(
    resolver: &mut R,
    start: ObjectId,
    max_rounds: usize,
) -> Tour {
    expect_ok(
        try_tsp_2opt(resolver, start, max_rounds),
        "tsp_2opt on the infallible path",
    )
}

/// Fallible [`tsp_2opt`]: surfaces oracle faults instead of panicking.
pub fn try_tsp_2opt<R: DistanceResolver + ?Sized>(
    resolver: &mut R,
    start: ObjectId,
    max_rounds: usize,
) -> Result<Tour, OracleError> {
    let n = resolver.n();
    assert!(n >= 2, "a tour needs at least two cities");
    assert!((start as usize) < n);

    // --- nearest-neighbour construction -------------------------------
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    order.push(start);
    visited[start as usize] = true;
    let mut current = start;
    for _ in 1..n {
        // argmin over unvisited of dist(current, v), pruned by the running
        // best exactly as in Prim's relaxation.
        let mut best: Option<(ObjectId, f64)> = None;
        for v in 0..n as ObjectId {
            if visited[v as usize] {
                continue;
            }
            let p = Pair::new(current, v);
            match best {
                None => best = Some((v, resolver.resolve_fallible(p)?)),
                Some((_, bd)) => {
                    if let Some(d) = resolver.distance_if_less_fallible(p, bd)? {
                        best = Some((v, d));
                    }
                }
            }
        }
        let (next, _) = best.expect_invariant("unvisited city remains");
        visited[next as usize] = true;
        order.push(next);
        current = next;
    }

    // --- 2-opt improvement ---------------------------------------------
    // Exchange edges (order[i], order[i+1]) and (order[j], order[j+1]) for
    // (order[i], order[j]) and (order[i+1], order[j+1]), reversing the
    // segment between them.
    for _ in 0..max_rounds {
        let mut improved = false;
        for i in 0..n - 1 {
            for j in (i + 2)..n {
                if i == 0 && j == n - 1 {
                    continue; // same edge pair in a closed tour
                }
                let a = order[i];
                let b = order[i + 1];
                let c = order[j];
                let d = order[(j + 1) % n];
                let new_pair = (Pair::new(a, c), Pair::new(b, d));
                let old_pair = (Pair::new(a, b), Pair::new(c, d));
                if resolver.less_sum2_fallible(new_pair, old_pair)? {
                    order[i + 1..=j].reverse();
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }

    // Resolve the final tour edges for the exact length.
    let mut length = 0.0;
    for i in 0..n {
        let p = Pair::new(order[i], order[(i + 1) % n]);
        length += resolver.resolve_fallible(p)?;
    }
    Ok(Tour { order, length })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prox_bounds::{BoundResolver, TriScheme};
    use prox_core::{FnMetric, Oracle};

    /// Points on a circle: the optimal tour is the perimeter walk.
    fn circle_oracle(n: usize) -> Oracle<FnMetric<impl Fn(ObjectId, ObjectId) -> f64>> {
        Oracle::new(FnMetric::new(n, 1.0, move |a, b| {
            let t = |i: u32| 2.0 * std::f64::consts::PI * f64::from(i) / n as f64;
            let (ax, ay) = (t(a).cos(), t(a).sin());
            let (bx, by) = (t(b).cos(), t(b).sin());
            (((ax - bx).powi(2) + (ay - by).powi(2)).sqrt() / 2.0).min(1.0)
        }))
    }

    fn perimeter(n: usize) -> f64 {
        let oracle = circle_oracle(n);
        let gt = oracle.ground_truth();
        let mut len = 0.0;
        for i in 0..n as u32 {
            #[expect(clippy::disallowed_methods, reason = "un-metered ground truth")]
            {
                len += prox_core::Metric::distance(gt, i, (i + 1) % n as u32);
            }
        }
        len
    }

    #[test]
    fn two_opt_finds_the_circle_tour() {
        let n = 12;
        let oracle = circle_oracle(n);
        let mut r = BoundResolver::vanilla(&oracle);
        let tour = tsp_2opt(&mut r, 0, 50);
        assert_eq!(tour.order.len(), n);
        // 2-opt from a NN start recovers the optimal perimeter on a circle.
        assert!(
            (tour.length - perimeter(n)).abs() < 1e-9,
            "length {} vs perimeter {}",
            tour.length,
            perimeter(n)
        );
    }

    #[test]
    fn tour_visits_every_city_once() {
        let oracle = circle_oracle(9);
        let mut r = BoundResolver::vanilla(&oracle);
        let tour = tsp_2opt(&mut r, 3, 20);
        let mut sorted = tour.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn plugged_matches_vanilla() {
        let n = 16;
        let o1 = circle_oracle(n);
        let mut v = BoundResolver::vanilla(&o1);
        let want = tsp_2opt(&mut v, 0, 30);

        let o2 = circle_oracle(n);
        let mut p = BoundResolver::new(&o2, TriScheme::new(n, 1.0));
        let got = tsp_2opt(&mut p, 0, 30);

        assert_eq!(got.order, want.order, "identical tour");
        assert!((got.length - want.length).abs() < 1e-12);
        assert!(
            o2.calls() <= o1.calls(),
            "{} !<= {}",
            o2.calls(),
            o1.calls()
        );
    }

    #[test]
    fn two_cities() {
        let oracle = circle_oracle(2);
        let mut r = BoundResolver::vanilla(&oracle);
        let tour = tsp_2opt(&mut r, 0, 5);
        assert_eq!(tour.order.len(), 2);
    }
}
