//! Landmark selection and bootstrap (LAESA preprocessing, §4.2 of the paper).

use prox_core::invariant::{expect_ok, InvariantExt};
use prox_core::{Metric, ObjectId, Oracle, OracleError, Pair};

use crate::BoundScheme;

/// The product of a landmark bootstrap: `k` pivots and, for each, its full
/// row of distances to every object.
///
/// Bootstrapping costs `k·n − k·(k+1)/2` oracle calls (pivot-to-pivot
/// distances are reused between rows); the paper's tables report this as the
/// `Bootstrap` column. Any [`BoundScheme`] can absorb the resolved edges via
/// [`Bootstrap::apply_to`] — that is how "Tri Scheme with bootstrap" is
/// assembled.
#[derive(Clone, Debug)]
pub struct Bootstrap {
    n: usize,
    /// Selected pivot ids, in selection order.
    pub pivots: Vec<ObjectId>,
    /// `rows[t][x]` = exact distance from pivot `t` to object `x`.
    pub rows: Vec<Box<[f64]>>,
}

impl Bootstrap {
    /// Number of objects the bootstrap covers.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of pivots.
    pub fn k(&self) -> usize {
        self.pivots.len()
    }

    /// Iterates every resolved `(pair, distance)` the bootstrap produced,
    /// deduplicated (pivot-to-pivot edges appear once).
    pub fn edges(&self) -> impl Iterator<Item = (Pair, f64)> + '_ {
        self.pivots.iter().enumerate().flat_map(move |(t, &p)| {
            (0..self.n as ObjectId).filter_map(move |x| {
                if x == p {
                    return None;
                }
                // Skip pairs already emitted by an earlier pivot's row.
                if self.pivots[..t].contains(&x) {
                    return None;
                }
                Some((Pair::new(p, x), self.rows[t][x as usize]))
            })
        })
    }

    /// Records every bootstrap edge into `scheme`.
    pub fn apply_to<S: BoundScheme>(&self, scheme: &mut S) {
        for (p, d) in self.edges() {
            scheme.record(p, d);
        }
    }
}

/// Selects `k` landmarks by the classic max-min (farthest-first) rule used
/// by LAESA: the first pivot is seeded-random; each next pivot is the object
/// farthest from all pivots chosen so far. Every distance learned on the way
/// is an oracle call and is retained in the returned [`Bootstrap`].
pub fn select_maxmin_pivots<M: Metric>(oracle: &Oracle<M>, k: usize, seed: u64) -> Bootstrap {
    expect_ok(
        try_select_maxmin_pivots(oracle, k, seed),
        "select_maxmin_pivots on the infallible path",
    )
}

/// Fallible twin of [`select_maxmin_pivots`]: a fault or budget error from
/// the oracle aborts the bootstrap cleanly instead of panicking.
#[expect(
    clippy::disallowed_methods,
    reason = "L9: the pivot bootstrap builds the bound tables before any resolver exists"
)]
pub fn try_select_maxmin_pivots<M: Metric>(
    oracle: &Oracle<M>,
    k: usize,
    seed: u64,
) -> Result<Bootstrap, OracleError> {
    let n = oracle.n();
    assert!(n >= 2, "need at least two objects"); // integer, not a float decision; lint: allow(L3)
    let k = k.clamp(1, n);

    // TinyRng::new xors its seed with the splitmix increment; pre-xor it
    // back out so the draw matches the original raw-splitmix sequence and
    // published experiment numbers stay bit-stable.
    let mut rng = prox_core::TinyRng::new(seed ^ 0x5DEE_CE66_D1CE_CAFE ^ 0x9E37_79B9_7F4A_7C15);
    let first = rng.below(n) as ObjectId;

    let mut pivots: Vec<ObjectId> = Vec::with_capacity(k);
    let mut rows: Vec<Box<[f64]>> = Vec::with_capacity(k);
    // min over selected pivots of d(pivot, x)
    let mut min_dist = vec![f64::INFINITY; n];

    let mut current = first;
    for t in 0..k {
        let mut row = vec![0.0f64; n].into_boxed_slice();
        for x in 0..n as ObjectId {
            if x == current {
                continue;
            }
            // Pivot-to-pivot distances are already in earlier rows.
            if let Some(s) = pivots.iter().position(|&p| p == x) {
                row[x as usize] = rows[s][current as usize];
            } else {
                row[x as usize] = oracle.try_call(current, x)?;
            }
        }
        pivots.push(current);
        for x in 0..n {
            min_dist[x] = min_dist[x].min(row[x]);
        }
        rows.push(row);
        if t + 1 == k {
            break;
        }
        // Farthest-first: argmax of min distance to the chosen pivots.
        min_dist[current as usize] = f64::NEG_INFINITY;
        let mut best = None;
        let mut best_d = f64::NEG_INFINITY;
        for (x, &d) in min_dist.iter().enumerate() {
            // order-only selection, any tie-break exact; lint: allow(L3)
            if !pivots.contains(&(x as ObjectId)) && d > best_d {
                best_d = d;
                best = Some(x as ObjectId);
            }
        }
        current = best.expect_invariant("k <= n guarantees a next pivot");
    }

    Ok(Bootstrap { n, pivots, rows })
}

/// Alias with the paper's terminology: bootstrap a scheme with LAESA-style
/// landmarks, `k = log(n)` unless stated otherwise (§5.1.2).
pub fn laesa_bootstrap<M: Metric>(oracle: &Oracle<M>, k: usize, seed: u64) -> Bootstrap {
    select_maxmin_pivots(oracle, k, seed)
}

/// Fallible twin of [`laesa_bootstrap`].
pub fn try_laesa_bootstrap<M: Metric>(
    oracle: &Oracle<M>,
    k: usize,
    seed: u64,
) -> Result<Bootstrap, OracleError> {
    try_select_maxmin_pivots(oracle, k, seed)
}

/// The paper's default number of landmarks, `⌈log2 n⌉` (§5.1.2 and the
/// table headers use `k = log(n)`).
pub fn default_landmarks(n: usize) -> usize {
    (n.max(2) as f64).log2().ceil() as usize
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "un-metered ground truth")]
mod tests {
    use super::*;
    use prox_core::FnMetric;

    fn line_oracle(n: usize) -> Oracle<FnMetric<impl Fn(ObjectId, ObjectId) -> f64>> {
        let scale = 1.0 / (n as f64 - 1.0);
        Oracle::new(FnMetric::new(n, 1.0, move |a, b| {
            (f64::from(a) - f64::from(b)).abs() * scale
        }))
    }

    #[test]
    fn bootstrap_call_budget() {
        let n = 50;
        let k = 6;
        let oracle = line_oracle(n);
        let b = select_maxmin_pivots(&oracle, k, 42);
        assert_eq!(b.k(), k);
        let expected = (k as u64) * (n as u64 - 1) - (k as u64 * (k as u64 - 1) / 2);
        assert_eq!(oracle.calls(), expected, "k·(n−1) − C(k,2) calls");
    }

    #[test]
    fn rows_hold_exact_distances() {
        let oracle = line_oracle(20);
        let b = select_maxmin_pivots(&oracle, 4, 7);
        for (t, &p) in b.pivots.iter().enumerate() {
            for x in 0..20u32 {
                let want = oracle.ground_truth().distance(p, x);
                assert!((b.rows[t][x as usize] - want).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn maxmin_spreads_on_a_line() {
        // On a line, farthest-first must pick (near) the two extremes early.
        let oracle = line_oracle(101);
        let b = select_maxmin_pivots(&oracle, 3, 1);
        let mut ids = b.pivots.clone();
        ids.sort_unstable();
        // Second pivot is an extreme (0 or 100); third is the other extreme
        // or the midpoint region. At minimum the spread must cover > half.
        let spread = f64::from(ids[ids.len() - 1] - ids[0]);
        assert!(spread >= 50.0, "pivots {ids:?} too clustered");
    }

    #[test]
    fn edges_are_unique_and_complete() {
        let oracle = line_oracle(12);
        let b = select_maxmin_pivots(&oracle, 3, 9);
        let edges: Vec<(Pair, f64)> = b.edges().collect();
        let mut keys: Vec<u64> = edges.iter().map(|(p, _)| p.key()).collect();
        keys.sort_unstable();
        let before = keys.len();
        keys.dedup();
        assert_eq!(keys.len(), before, "no duplicate pairs");
        // k·n − k·(k+1)/2 distinct pairs (here: 3·12 − 6 = 30).
        assert_eq!(edges.len(), 30);
    }

    #[test]
    fn apply_to_feeds_a_scheme() {
        let oracle = line_oracle(10);
        let b = select_maxmin_pivots(&oracle, 2, 3);
        let mut scheme = crate::TriScheme::new(10, 1.0);
        b.apply_to(&mut scheme);
        assert_eq!(scheme.m(), b.edges().count());
    }

    #[test]
    fn deterministic_under_seed() {
        let o1 = line_oracle(30);
        let o2 = line_oracle(30);
        let b1 = select_maxmin_pivots(&o1, 5, 99);
        let b2 = select_maxmin_pivots(&o2, 5, 99);
        assert_eq!(b1.pivots, b2.pivots);
    }

    #[test]
    fn default_landmarks_log2() {
        assert_eq!(default_landmarks(64), 6);
        assert_eq!(default_landmarks(2016), 11);
        assert_eq!(default_landmarks(2), 1);
    }
}
