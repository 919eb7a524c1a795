//! LAESA as a pair-bound scheme (baseline; Micó, Oncina, Vidal 1994).

use std::collections::BTreeMap;

use prox_core::Pair;

use crate::{Bootstrap, BoundScheme};

/// Landmark-row bounds.
///
/// LAESA precomputes the distances from `k` pivots to every object; for an
/// unknown pair `(a, b)` the pivot rows give
///
/// ```text
/// LB = max over pivots p of |d(p, a) − d(p, b)|
/// UB = min over pivots p of  d(p, a) + d(p, b)
/// ```
///
/// Queries are `O(k)`; updates only memoize the resolved value — the pivot
/// bounds themselves are **static**, which is the scheme's weakness relative
/// to Tri/SPLUB: distances resolved during the run never tighten future
/// bounds (§4.2 "Bootstrapping", §5.4.1 "Limitation of LAESA and TLAESA").
#[derive(Clone, Debug)]
pub struct Laesa {
    n: usize,
    max_distance: f64,
    rows: Vec<Box<[f64]>>,
    /// Maps an object to its pivot index, if it is one.
    pivot_index: BTreeMap<u32, usize>,
    resolved: BTreeMap<u64, f64>,
}

impl Laesa {
    /// Builds the scheme from a completed [`Bootstrap`]. The bootstrap's
    /// pivot-row edges are pre-seeded into the resolved cache, so pairs
    /// involving a pivot are served exactly.
    pub fn new(max_distance: f64, bootstrap: &Bootstrap) -> Self {
        let mut resolved = BTreeMap::new();
        for (p, d) in bootstrap.edges() {
            resolved.insert(p.key(), d);
        }
        let pivot_index = bootstrap
            .pivots
            .iter()
            .enumerate()
            .map(|(t, &p)| (p, t))
            .collect();
        Laesa {
            n: bootstrap.n(),
            max_distance,
            rows: bootstrap.rows.clone(),
            pivot_index,
            resolved,
        }
    }

    /// Number of pivots.
    pub fn k(&self) -> usize {
        self.rows.len()
    }

    /// Ids of the landmark objects.
    pub fn pivot_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.pivot_index.keys().copied()
    }

    /// Every exact distance the scheme holds (pivot rows + recordings),
    /// e.g. for persisting a resolved-distance cache across runs.
    pub fn resolved_edges(&self) -> impl Iterator<Item = (Pair, f64)> + '_ {
        self.resolved
            .iter()
            .map(|(&key, &d)| (Pair::from_key(key), d))
    }
}

impl BoundScheme for Laesa {
    fn n(&self) -> usize {
        self.n
    }

    fn max_distance(&self) -> f64 {
        self.max_distance
    }

    fn known(&self, p: Pair) -> Option<f64> {
        self.resolved.get(&p.key()).copied()
    }

    fn bounds(&mut self, p: Pair) -> (f64, f64) {
        if let Some(d) = self.known(p) {
            return (d, d);
        }
        let (a, b) = (p.lo() as usize, p.hi() as usize);
        let mut lb = 0.0f64;
        let mut ub = self.max_distance;
        for row in &self.rows {
            let (da, db) = (row[a], row[b]);
            lb = lb.max((da - db).abs());
            ub = ub.min(da + db);
        }
        if lb > ub {
            lb = ub;
        }
        (lb, ub)
    }

    fn record(&mut self, p: Pair, d: f64) {
        self.resolved.insert(p.key(), d);
    }

    fn m(&self) -> usize {
        self.resolved.len()
    }

    fn name(&self) -> &'static str {
        "LAESA"
    }

    fn for_each_known(&self, f: &mut dyn FnMut(Pair, f64)) {
        for (p, d) in self.resolved_edges() {
            f(p, d);
        }
    }
}

// Used by `Tlaesa` too.
pub(crate) fn pivot_list_bounds(
    list_a: &[(u32, f64)],
    list_b: &[(u32, f64)],
    max_distance: f64,
) -> (f64, f64) {
    let mut lb = 0.0f64;
    let mut ub = max_distance;
    let (mut i, mut j) = (0, 0);
    while i < list_a.len() && j < list_b.len() {
        let (pa, da) = list_a[i];
        let (pb, db) = list_b[j];
        match pa.cmp(&pb) {
            std::cmp::Ordering::Equal => {
                lb = lb.max((da - db).abs());
                ub = ub.min(da + db);
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    if lb > ub {
        lb = ub;
    }
    (lb, ub)
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "un-metered ground truth")]
mod tests {
    use super::*;
    use crate::select_maxmin_pivots;
    use prox_core::{FnMetric, Metric, ObjectId, Oracle};

    fn line_oracle(n: usize) -> Oracle<FnMetric<impl Fn(ObjectId, ObjectId) -> f64>> {
        let scale = 1.0 / (n as f64 - 1.0);
        Oracle::new(FnMetric::new(n, 1.0, move |a, b| {
            (f64::from(a) - f64::from(b)).abs() * scale
        }))
    }

    fn scheme(n: usize, k: usize) -> (Laesa, Oracle<impl Metric>) {
        let oracle = line_oracle(n);
        let b = select_maxmin_pivots(&oracle, k, 11);
        (Laesa::new(1.0, &b), oracle)
    }

    #[test]
    fn bounds_are_sound_on_a_line() {
        let (mut s, oracle) = scheme(40, 4);
        for p in Pair::all(40) {
            let (lb, ub) = s.bounds(p);
            let d = oracle.ground_truth().distance(p.lo(), p.hi());
            assert!(lb <= d + 1e-12, "{p:?}: lb {lb} > d {d}");
            assert!(ub >= d - 1e-12, "{p:?}: ub {ub} < d {d}");
        }
    }

    #[test]
    fn pivot_pairs_are_exact() {
        let (mut s, oracle) = scheme(30, 3);
        let pivots: Vec<u32> = s.pivot_ids().collect();
        for &pv in &pivots {
            let other = if pv == 0 { 1 } else { 0 };
            let p = Pair::new(pv, other);
            let d = oracle.ground_truth().distance(pv, other);
            let (lb, ub) = s.bounds(p);
            assert!((lb - d).abs() < 1e-12 && (ub - d).abs() < 1e-12);
        }
    }

    #[test]
    fn line_pivots_give_tight_lb() {
        // On a line with extreme pivots, |d(p,a) − d(p,b)| equals the true
        // distance: LAESA's LB is exact for 1-D data.
        let (mut s, oracle) = scheme(64, 2);
        for p in [Pair::new(10, 50), Pair::new(3, 4), Pair::new(0, 63)] {
            let d = oracle.ground_truth().distance(p.lo(), p.hi());
            let (lb, _) = s.bounds(p);
            assert!((lb - d).abs() < 1e-9, "{p:?}: lb {lb} vs d {d}");
        }
    }

    #[test]
    fn record_memoizes_but_does_not_tighten_others() {
        let (mut s, _) = scheme(30, 2);
        let q = Pair::new(5, 6);
        let before = s.bounds(q);
        // Resolving an unrelated pair must not move (5,6)'s bounds: LAESA is
        // static — this is exactly its documented limitation.
        s.record(Pair::new(20, 21), 0.016);
        assert_eq!(s.bounds(q), before);
        // But the pair itself is served exactly once recorded.
        s.record(q, 0.0161);
        assert_eq!(s.bounds(q), (0.0161, 0.0161));
    }

    #[test]
    fn pivot_list_bounds_merges_sorted_lists() {
        let a = [(1u32, 0.5), (4, 0.2), (9, 0.7)];
        let b = [(2u32, 0.9), (4, 0.9), (9, 0.1)];
        // Common pivots 4 and 9: lb = max(0.7, 0.6) = 0.7, ub = min(1.1, 0.8).
        let (lb, ub) = pivot_list_bounds(&a, &b, 1.0);
        assert!((lb - 0.7).abs() < 1e-12);
        assert!((ub - 0.8).abs() < 1e-12);
    }
}
