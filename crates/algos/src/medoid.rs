//! Shared machinery for medoid clustering (PAM and CLARANS).
//!
//! Both algorithms revolve around the same two distance-heavy primitives,
//! and both are re-authored here with bound checks:
//!
//! * [`try_assign`] — nearest + second-nearest medoid per object. A medoid
//!   candidate whose lower bound cannot beat the current second-nearest is
//!   skipped without an oracle call.
//! * [`try_swap_delta`] — the exact cost change of replacing medoid slot `i`
//!   with object `h` (the `C_jih` sum of Kaufman & Rousseeuw). For each
//!   object, the swap only matters if `dist(j, h)` undercuts a known
//!   threshold — precisely the IF statement the paper's framework targets.
//!
//! Every arithmetic path yields the same floating-point value the vanilla
//! computation would produce (same summation order, exact operands), which
//! is what makes plugged and vanilla runs take identical swap decisions.

use prox_bounds::DistanceResolver;
use prox_core::{ObjectId, OracleError, Pair};

/// Per-object nearest/second-nearest medoid record.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Near {
    /// Whether the object is itself a medoid: the medoid set's mask, built
    /// once per set by [`try_assign`] so a scan over objects need not
    /// search the `l` medoid slots for each one.
    pub medoid: bool,
    /// Slot index of the nearest medoid (`u32::MAX` unset).
    pub n1: u32,
    /// Exact distance to it.
    pub d1: f64,
    /// Slot index of the second-nearest medoid.
    pub n2: u32,
    /// Exact distance to it.
    pub d2: f64,
}

/// Computes nearest/second-nearest medoids for every object, plus the total
/// deviation (the clustering cost). Medoids have `d1 = 0` (themselves).
pub(crate) fn try_assign<R: DistanceResolver + ?Sized>(
    resolver: &mut R,
    medoids: &[ObjectId],
) -> Result<(Vec<Near>, f64), OracleError> {
    debug_assert!(
        medoids
            .iter()
            .all(|m| medoids.iter().filter(|&x| x == m).count() == 1),
        "medoid slots must hold distinct objects"
    );
    let n = resolver.n();
    let mut near = vec![
        Near {
            medoid: false,
            n1: u32::MAX,
            d1: f64::INFINITY,
            n2: u32::MAX,
            d2: f64::INFINITY,
        };
        n
    ];
    // Medoids first: their nearest is themselves.
    for (t, &m) in medoids.iter().enumerate() {
        near[m as usize] = Near {
            medoid: true,
            n1: t as u32,
            d1: 0.0,
            n2: u32::MAX,
            d2: f64::INFINITY,
        };
    }
    let mut cost = 0.0;
    for j in 0..n as ObjectId {
        let rec = &mut near[j as usize];
        if rec.medoid {
            continue;
        }
        for (t, &m) in medoids.iter().enumerate() {
            // if dist(j, m) < d2 it matters; otherwise it can't even be the
            // second-nearest — the paper's re-authored comparison.
            if let Some(d) = resolver.distance_if_less_fallible(Pair::new(j, m), rec.d2)? {
                if d < rec.d1 {
                    rec.n2 = rec.n1;
                    rec.d2 = rec.d1;
                    rec.n1 = t as u32;
                    rec.d1 = d;
                } else {
                    rec.n2 = t as u32;
                    rec.d2 = d;
                }
            }
        }
        cost += rec.d1;
    }
    Ok((near, cost))
}

/// Exact cost delta of the swap "remove medoid slot `i`, promote `h`".
///
/// `h` must not currently be a medoid; `near` is [`try_assign`]'s record
/// for `medoids`.
pub(crate) fn try_swap_delta<R: DistanceResolver + ?Sized>(
    resolver: &mut R,
    medoids: &[ObjectId],
    near: &[Near],
    i: usize,
    h: ObjectId,
) -> Result<f64, OracleError> {
    debug_assert!(!medoids.contains(&h), "h must be a non-medoid");
    let n = resolver.n();
    let removed = medoids[i];
    let mut delta = 0.0;

    for j in 0..n as ObjectId {
        if j == h {
            // h becomes a medoid: its contribution drops to zero.
            delta -= near[j as usize].d1;
            continue;
        }
        if j == removed {
            // The removed medoid becomes a regular object; its new nearest
            // is the best of h and the surviving medoids.
            let mut best = f64::INFINITY;
            if let Some(d) = resolver.distance_if_less_fallible(Pair::new(j, h), best)? {
                best = d;
            }
            for (t, &m) in medoids.iter().enumerate() {
                if t == i {
                    continue;
                }
                if let Some(d) = resolver.distance_if_less_fallible(Pair::new(j, m), best)? {
                    best = d;
                }
            }
            delta += best;
            continue;
        }
        let rec = near[j as usize];
        if rec.medoid {
            continue; // other medoids stay medoids: contribution 0
        }
        if rec.n1 == i as u32 {
            // j loses its nearest; new contribution = min(d(j,h), d2).
            match resolver.distance_if_less_fallible(Pair::new(j, h), rec.d2)? {
                Some(d) => delta += d - rec.d1,
                None => delta += rec.d2 - rec.d1,
            }
        } else {
            // j keeps its nearest unless h is closer.
            if let Some(d) = resolver.distance_if_less_fallible(Pair::new(j, h), rec.d1)? {
                delta += d - rec.d1;
            }
        }
    }
    Ok(delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prox_bounds::BoundResolver;
    use prox_core::{FnMetric, Oracle};

    fn assign(r: &mut dyn DistanceResolver, medoids: &[ObjectId]) -> (Vec<Near>, f64) {
        try_assign(r, medoids).expect("clean oracle")
    }

    fn swap_delta(
        r: &mut dyn DistanceResolver,
        medoids: &[ObjectId],
        near: &[Near],
        i: usize,
        h: ObjectId,
    ) -> f64 {
        try_swap_delta(r, medoids, near, i, h).expect("clean oracle")
    }

    fn line_oracle(n: usize) -> Oracle<FnMetric<impl Fn(ObjectId, ObjectId) -> f64>> {
        let scale = 1.0 / (n as f64 - 1.0);
        Oracle::new(FnMetric::new(n, 1.0, move |a, b| {
            (f64::from(a) - f64::from(b)).abs() * scale
        }))
    }

    #[test]
    fn assign_nearest_on_a_line() {
        // 11 points 0..=10 scaled by 1/10; medoids at 2 and 8.
        let oracle = line_oracle(11);
        let mut r = BoundResolver::vanilla(&oracle);
        let medoids = vec![2, 8];
        let (near, cost) = assign(&mut r, &medoids);
        assert_eq!(near[0].n1, 0, "0 is nearest to medoid 2");
        assert_eq!(near[10].n1, 1);
        assert_eq!(near[5].n1, 0, "tie at 5: slot order keeps the first");
        assert_eq!(near[2].d1, 0.0, "medoid distance to itself");
        // cost = (2+1+1+2+3)/10 for slot0 side + (2+1+1+2)/10 for slot1.
        let want = (2.0 + 1.0 + 0.0 + 1.0 + 2.0 + 3.0 + 2.0 + 1.0 + 0.0 + 1.0 + 2.0) / 10.0;
        assert!((cost - want).abs() < 1e-12, "cost {cost} want {want}");
    }

    #[test]
    fn swap_delta_matches_recomputation() {
        let oracle = line_oracle(13);
        let mut r = BoundResolver::vanilla(&oracle);
        let mut medoids = vec![1, 6, 11];
        let (near, cost_before) = assign(&mut r, &medoids);
        // Try swapping slot 0 (object 1) for object 3.
        let delta = swap_delta(&mut r, &medoids, &near, 0, 3);
        medoids[0] = 3;
        let (_, cost_after) = assign(&mut r, &medoids);
        assert!(
            (cost_before + delta - cost_after).abs() < 1e-12,
            "delta {delta} inconsistent: {cost_before} -> {cost_after}"
        );
    }

    #[test]
    fn swap_delta_for_removed_medoid_reassignment() {
        // Single medoid: removing it forces it to attach to the new one.
        let oracle = line_oracle(5);
        let mut r = BoundResolver::vanilla(&oracle);
        let medoids = vec![0];
        let (near, cost0) = assign(&mut r, &medoids);
        let delta = swap_delta(&mut r, &medoids, &near, 0, 4);
        let (_, cost1) = assign(&mut r, &[4]);
        assert!((cost0 + delta - cost1).abs() < 1e-12);
    }
}
