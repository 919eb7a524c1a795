//! PAM (Partitioning Around Medoids, Kaufman & Rousseeuw).

use prox_bounds::DistanceResolver;
use prox_core::invariant::{expect_ok, InvariantExt};
use prox_core::{ObjectId, OracleError};
use prox_exec::ExecPool;

use prox_obs::{emit_to, SpanGuard, TraceEvent};

use crate::medoid::{swap_delta, try_assign, try_swap_delta};
use crate::speculate::{commit_delta, SpecDelta, SpecProbe};
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
    pam_pool(resolver, params, &ExecPool::global())
}

/// Fallible [`pam()`]: surfaces oracle faults instead of panicking.
pub fn try_pam<R: DistanceResolver + ?Sized>(
    resolver: &mut R,
    params: PamParams,
) -> Result<Clustering, OracleError> {
    try_pam_pool(resolver, params, &ExecPool::global())
}

/// [`pam()`] with an explicit pool: each SWAP scan speculates batches of
/// candidate swaps in parallel against a frozen snapshot of the scheme and
/// commits them in the canonical `(slot, object)` order.
///
/// A speculative `swap_delta` is reused only when (a) the probe never
/// needed an unknown distance (it is *poisoned* otherwise) and (b) the live
/// generation still equals the snapshot generation — i.e. nothing has been
/// resolved since the snapshot, so the live scan would have seen the exact
/// same state and taken the exact same branches. Both conditions together
/// make outputs *and* oracle-call counts identical to the sequential scan
/// at any thread count: the first candidate that does resolve bumps the
/// generation, and the rest of the batch simply falls back to the live
/// path. Workloads whose scans keep resolving (little reuse) disable
/// speculation for the remainder of the run after a deterministic warm-up.
pub fn pam_pool<R: DistanceResolver + ?Sized>(
    resolver: &mut R,
    params: PamParams,
    pool: &ExecPool,
) -> Clustering {
    expect_ok(
        try_pam_pool(resolver, params, pool),
        "pam on the infallible path",
    )
}

/// Fallible [`pam_pool`]. Only the sequential commit path touches the
/// oracle (workers probe a frozen snapshot and cannot fault), so an error
/// aborts cleanly in canonical candidate order.
pub fn try_pam_pool<R: DistanceResolver + ?Sized>(
    resolver: &mut R,
    params: PamParams,
    pool: &ExecPool,
) -> Result<Clustering, OracleError> {
    // Semantic span; the guard closes it even on a fault abort.
    // Observation handles are resolved once, up front.
    let trace = resolver.trace_sink();
    let traced = trace.is_some();
    let metered = resolver.obs_metrics().is_some();
    let _span = SpanGuard::enter(trace.clone(), "build");

    let n = resolver.n();
    let l = params.l.clamp(1, n);
    let mut rng = TinyRng::new(params.seed);
    let mut medoids: Vec<ObjectId> = rng.distinct(l, n);
    let (mut near, mut cost) = {
        let _init = SpanGuard::enter(trace.clone(), "init");
        try_assign(resolver, &medoids)?
    };

    let batch = pool.threads().saturating_mul(8).max(8);
    let mut spec_enabled = pool.threads() > 1 && resolver.spec().is_some();
    let mut spec_total = 0usize;
    let mut spec_reused = 0usize;

    for _ in 0..params.max_swaps {
        let mut best_delta = -1e-12;
        let mut best: Option<(usize, ObjectId)> = None;

        // Canonical candidate order — the order the sequential scan takes.
        let mut cands: Vec<(usize, ObjectId)> = Vec::with_capacity(l * (n - l));
        for i in 0..l {
            for h in 0..n as ObjectId {
                if !medoids.contains(&h) {
                    cands.push((i, h));
                }
            }
        }

        let mut idx = 0;
        while idx < cands.len() {
            if !spec_enabled {
                let (i, h) = cands[idx];
                let delta = {
                    let _swap = SpanGuard::enter(trace.clone(), "swap");
                    try_swap_delta(resolver, &medoids, &near, i, h)?
                };
                if delta < best_delta {
                    best_delta = delta;
                    best = Some((i, h));
                }
                idx += 1;
                continue;
            }

            let end = (idx + batch).min(cands.len());
            let gen0 = resolver.generation();
            emit_to(
                trace.as_ref(),
                TraceEvent::Speculate {
                    generation: gen0,
                    items: (end - idx) as u32,
                },
            );
            let speculated: Vec<Option<(f64, SpecDelta)>> = {
                let spec = resolver
                    .spec()
                    .expect_invariant("spec() checked at enable; nothing revokes it");
                let (meds, nr, cs) = (&medoids, &near, &cands);
                pool.map_indexed(end - idx, |j| {
                    let (i, h) = cs[idx + j];
                    let mut probe = SpecProbe::observed(spec, traced, metered);
                    // The "swap" span is buffered with the probe's events,
                    // so a committed delta replays it exactly where the
                    // sequential path would have opened it.
                    let delta = probe.span("swap", |p| swap_delta(p, meds, nr, i, h));
                    (!probe.poisoned()).then(|| (delta, probe.into_delta()))
                })
            };
            let mut batch_reused = 0u32;
            for (j, sr) in speculated.into_iter().enumerate() {
                let (i, h) = cands[idx + j];
                spec_total += 1;
                let delta = match sr {
                    // Complete speculation + untouched generation: the live
                    // scan would see the snapshot state verbatim, take the
                    // same branches, and leave the state unchanged (nothing
                    // resolves), so the value, stat, and trace deltas stand
                    // as-is. Discarded deltas are dropped whole — their
                    // buffered events never reach the sink.
                    Some((delta, sd)) if resolver.generation() == gen0 => {
                        spec_reused += 1;
                        batch_reused += 1;
                        commit_delta(resolver, &sd);
                        delta
                    }
                    _ => {
                        let _swap = SpanGuard::enter(trace.clone(), "swap");
                        try_swap_delta(resolver, &medoids, &near, i, h)?
                    }
                };
                if delta < best_delta {
                    best_delta = delta;
                    best = Some((i, h));
                }
            }
            emit_to(
                trace.as_ref(),
                TraceEvent::Commit {
                    generation: gen0,
                    reused: batch_reused,
                },
            );
            idx = end;
            // Deterministic adaptive cutoff: once enough evidence shows the
            // scan keeps resolving (so speculation keeps getting discarded),
            // stop paying for it. Pure function of the candidate stream —
            // never of timing — and it only skips speculation, so outputs
            // are unaffected.
            if spec_total >= 4 * batch && spec_reused * 4 < spec_total {
                spec_enabled = false;
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
    fn pool_matches_sequential_exactly() {
        let params = PamParams {
            l: 3,
            max_swaps: 50,
            seed: 9,
        };
        let o_seq = blobs_oracle();
        let mut seq = BoundResolver::new(&o_seq, TriScheme::new(12, 1.0));
        let want = pam_pool(&mut seq, params, &ExecPool::sequential());

        for threads in [2, 8] {
            let o_par = blobs_oracle();
            let mut par = BoundResolver::new(&o_par, TriScheme::new(12, 1.0));
            let got = pam_pool(&mut par, params, &ExecPool::new(threads));
            assert_eq!(got.medoids, want.medoids, "threads={threads}");
            assert_eq!(got.assignment, want.assignment, "threads={threads}");
            assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "threads={threads}");
            assert_eq!(
                o_seq.calls(),
                o_par.calls(),
                "oracle-call determinism, threads={threads}"
            );
            assert_eq!(seq.prune_stats(), par.prune_stats(), "threads={threads}");
        }
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
