//! The Direct Feasibility Test resolver (§2.2 of the paper).

use std::collections::BTreeMap;

use prox_bounds::{BoundScheme, DistanceResolver, Splub, DECISION_EPS};
use prox_core::invariant::InvariantExt;
use prox_core::{Metric, Oracle, Pair, PruneStats};

use crate::{Feasibility, FeasibilityProblem};

/// How known distances enter the linear system.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum Encoding {
    /// Known distances are substituted into the triangle rows as constants;
    /// variables exist only for unknown edges. Strictly smaller LPs with
    /// identical verdicts — the default.
    #[default]
    Substituted,
    /// The paper's literal encoding: one variable per edge (known or not),
    /// equality rows pinning the known ones, `2·C(n,2)` range rows. Kept for
    /// the `dft_encoding` ablation bench.
    Literal,
}

/// A [`DistanceResolver`] that decides comparisons by LP feasibility.
///
/// For `if dist(x) < dist(y)`, DFT builds the triangle-inequality system
/// over the unknown distances and asks whether the **reversed** constraint
/// `dist(y) ≤ dist(x)` leaves any feasible region. No region ⇒ the IF
/// condition is certainly true and both oracle calls are saved; otherwise
/// the *direct* constraint is tested to certify "certainly false"; if both
/// regions are non-empty the comparison falls through to the oracle.
///
/// Verdicts are strictly at least as strong as any per-edge bound scheme's
/// (a bound-decided comparison is a special case of an infeasible system),
/// which is the paper's Contribution 1. The price is LP solves inside the
/// innermost loop: DFT is only practical for graphs with a few hundred
/// edges (§5.3), and the experiments here cap it accordingly.
///
/// As an engineering optimization, every query is first screened with exact
/// SPLUB bounds: whenever the bounds alone decide the comparison, the LP
/// verdict is a foregone conclusion (the bound proof *is* an infeasibility
/// certificate), so the solver is skipped. This changes no verdict and no
/// call count — it only trims CPU time; the `lp_solves` counter therefore
/// reports how often DFT's extra power was actually exercised.
pub struct DftResolver<'o, M: Metric> {
    oracle: &'o Oracle<M>,
    n: usize,
    max_distance: f64,
    known: BTreeMap<u64, f64>,
    encoding: Encoding,
    stats: PruneStats,
    lp_solves: u64,
    lp_unknown: u64,
    /// Base system cached between resolutions (invalidated by `resolve`).
    cache: Option<BaseSystem>,
    /// Exact-bound prescreen (see the type docs): decides the easy cases
    /// without touching the simplex.
    screen: Splub,
}

struct BaseSystem {
    sys: FeasibilityProblem,
    var_of: Vec<Option<usize>>,
    const_of: Vec<f64>,
}

impl<'o, M: Metric> DftResolver<'o, M> {
    /// A DFT resolver with the default (substituted) encoding.
    pub fn new(oracle: &'o Oracle<M>) -> Self {
        DftResolver::with_encoding(oracle, Encoding::Substituted)
    }

    /// A DFT resolver with an explicit encoding.
    pub fn with_encoding(oracle: &'o Oracle<M>, encoding: Encoding) -> Self {
        DftResolver {
            oracle,
            n: oracle.n(),
            max_distance: oracle.max_distance(),
            known: BTreeMap::new(),
            encoding,
            stats: PruneStats::default(),
            lp_solves: 0,
            lp_unknown: 0,
            cache: None,
            screen: Splub::new(oracle.n(), oracle.max_distance()),
        }
    }

    /// Total LP feasibility solves performed (the CPU-cost measure of §5.3).
    pub fn lp_solves(&self) -> u64 {
        self.lp_solves
    }

    /// Solves that hit the iteration cap (should be rare; such comparisons
    /// fall through to the oracle).
    pub fn lp_inconclusive(&self) -> u64 {
        self.lp_unknown
    }

    fn known_d(&self, p: Pair) -> Option<f64> {
        self.known.get(&p.key()).copied()
    }

    /// Tries to decide `Σ dist(p_i) < v` — an **aggregate** comparison.
    ///
    /// This is where linear feasibility is *strictly* stronger than any
    /// per-edge bound scheme: interval arithmetic bounds the sum by the sum
    /// of the interval endpoints, but the triangle system couples the
    /// terms. With `d(a,c) = 0.9` known, the unknowns `d(a,b)` and
    /// `d(b,c)` each lie in `[0, 1]`, yet their *sum* can never drop below
    /// `0.9` — DFT certifies it, bounds cannot. (For pairwise comparisons
    /// the feasible region is convex, so whenever both orderings are
    /// interval-consistent the tie hyperplane is feasible too and LP adds
    /// nothing over tightest path bounds; aggregates have no such
    /// collapse.) Proximity algorithms that compare distance *sums* —
    /// facility-location objectives, clustering costs — plug in here.
    pub fn try_sum_less_value(&mut self, pairs: &[Pair], v: f64) -> Option<bool> {
        // Fold known terms into the threshold first.
        let mut rest: Vec<(Pair, f64)> = Vec::with_capacity(pairs.len());
        let mut threshold = v;
        for &p in pairs {
            match self.known_d(p) {
                Some(d) => threshold -= d,
                None => rest.push((p, 1.0)),
            }
        }
        if rest.is_empty() {
            // All terms known exactly: compare as the oracle would. lint: allow(L3)
            return Some(0.0 < threshold);
        }
        // Σ rest ≥ threshold infeasible ⇒ sum < v.
        let ge: Vec<(Pair, f64)> = rest.iter().map(|&(p, _)| (p, -1.0)).collect();
        if self.feasible_with(&ge, -threshold) == Feasibility::Infeasible {
            return Some(true);
        }
        // Σ rest ≤ threshold infeasible ⇒ sum > v ⇒ not less.
        if self.feasible_with(&rest, threshold) == Feasibility::Infeasible {
            return Some(false);
        }
        None
    }

    /// The exact LP-implied interval for one unknown distance: the min and
    /// max of `x_p` over the whole triangle polytope, via phase-II
    /// optimization ([`crate::variable_range`]).
    ///
    /// For a single edge this interval provably coincides with the tightest
    /// path bounds (SPLUB's) — the `lp_vs_bounds` suite checks it on random
    /// instances — so the method exists for verification and diagnostics,
    /// not as a faster bound source. Returns the exact `(d, d)` for known
    /// pairs and `None` if the optimizer gave up.
    pub fn lp_bounds(&mut self, p: Pair) -> Option<(f64, f64)> {
        if let Some(d) = self.known_d(p) {
            return Some((d, d));
        }
        if self.cache.is_none() {
            self.cache = Some(self.build_base_system());
        }
        let base = self.cache.as_ref().expect_invariant("just built");
        let n = self.n;
        let (a, b) = (p.lo() as usize, p.hi() as usize);
        let idx = a * n - a * (a + 1) / 2 + (b - a - 1);
        let var = base.var_of[idx].expect_invariant("unknown pairs have a variable");
        crate::variable_range(&base.sys, var, self.max_distance)
    }

    /// Builds the base system: ranges + every triangle inequality, honoring
    /// the configured encoding. Returns the system and the variable index of
    /// each edge (`None` when the edge is a substituted constant).
    fn build_base_system(&self) -> BaseSystem {
        let n = self.n;
        let total_pairs = Pair::count(n) as usize;
        let mut var_of: Vec<Option<usize>> = vec![None; total_pairs];
        let mut const_of: Vec<f64> = vec![0.0; total_pairs];

        // Pair -> dense triangular index (same layout as PairMap).
        let tri_index = |a: usize, b: usize| -> usize {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            lo * n - lo * (lo + 1) / 2 + (hi - lo - 1)
        };

        let mut n_vars = 0usize;
        for p in Pair::all(n) {
            let idx = tri_index(p.lo() as usize, p.hi() as usize);
            match (self.known_d(p), self.encoding) {
                (Some(d), Encoding::Substituted) => const_of[idx] = d,
                (Some(_), Encoding::Literal) | (None, _) => {
                    var_of[idx] = Some(n_vars);
                    n_vars += 1;
                }
            }
        }

        let mut sys = FeasibilityProblem::new(n_vars);

        // Range rows (and equality pins under the literal encoding).
        for p in Pair::all(n) {
            let idx = tri_index(p.lo() as usize, p.hi() as usize);
            if let Some(v) = var_of[idx] {
                sys.add_le(&[(v, 1.0)], self.max_distance);
                if self.encoding == Encoding::Literal {
                    if let Some(d) = self.known_d(p) {
                        sys.add_eq(&[(v, 1.0)], d);
                    }
                }
            }
        }

        // Triangle rows: for every triple, each edge in turn as "long" edge.
        for i in 0..n {
            for j in (i + 1)..n {
                let ij = tri_index(i, j);
                for k in (j + 1)..n {
                    let ik = tri_index(i, k);
                    let jk = tri_index(j, k);
                    let sides = [ij, ik, jk];
                    if sides.iter().all(|&s| var_of[s].is_none()) {
                        continue; // fully known; consistent by metric axioms
                    }
                    for long in 0..3 {
                        // x_long − x_other1 − x_other2 ≤ 0.
                        let mut terms: Vec<(usize, f64)> = Vec::with_capacity(3);
                        let mut rhs = 0.0;
                        for (s, &side) in sides.iter().enumerate() {
                            let coeff = if s == long { 1.0 } else { -1.0 };
                            match var_of[side] {
                                Some(v) => terms.push((v, coeff)),
                                None => rhs -= coeff * const_of[side],
                            }
                        }
                        if terms.is_empty() {
                            continue;
                        }
                        sys.add_le(&terms, rhs);
                    }
                }
            }
        }

        BaseSystem {
            sys,
            var_of,
            const_of,
        }
    }

    /// Feasibility of the base system plus one extra row
    /// `Σ coeff·dist(pair) ≤ rhs` (known pairs fold into the rhs).
    fn feasible_with(&mut self, extra: &[(Pair, f64)], rhs: f64) -> Feasibility {
        let n = self.n;
        if self.cache.is_none() {
            self.cache = Some(self.build_base_system());
        }
        let base = self.cache.as_ref().expect_invariant("just built");
        let tri_index = |a: usize, b: usize| -> usize {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            lo * n - lo * (lo + 1) / 2 + (hi - lo - 1)
        };
        let mut terms: Vec<(usize, f64)> = Vec::new();
        let mut adj_rhs = rhs;
        for &(p, c) in extra {
            let idx = tri_index(p.lo() as usize, p.hi() as usize);
            match base.var_of[idx] {
                Some(v) => terms.push((v, c)),
                None => adj_rhs -= c * base.const_of[idx],
            }
        }
        let mut sys = base.sys.clone();
        sys.add_le(&terms, adj_rhs);
        self.lp_solves += 1;
        let verdict = sys.feasible();
        if verdict == Feasibility::Unknown {
            self.lp_unknown += 1;
        }
        verdict
    }
}

impl<'o, M: Metric> DistanceResolver for DftResolver<'o, M> {
    fn n(&self) -> usize {
        self.n
    }

    // The DFT resolver decides comparisons through the LP feasibility
    // test, not interval probes, so it emits no `BoundProbe` events of
    // its own; forwarding the oracle's handles still gets every oracle
    // attempt traced/metered and lets phase guards find the sink.
    fn trace_sink(&self) -> Option<std::rc::Rc<dyn prox_obs::TraceSink>> {
        self.oracle.trace()
    }

    fn obs_metrics(&self) -> Option<std::rc::Rc<prox_obs::Metrics>> {
        self.oracle.metrics()
    }

    fn max_distance(&self) -> f64 {
        self.max_distance
    }

    fn known(&self, p: Pair) -> Option<f64> {
        self.known_d(p)
    }

    fn resolve(&mut self, p: Pair) -> f64 {
        if let Some(d) = self.known_d(p) {
            self.stats.served_known += 1;
            return d;
        }
        let d = self.oracle.call_pair(p);
        self.known.insert(p.key(), d);
        self.cache = None; // knowledge changed; rebuild lazily
        self.screen.record(p, d);
        self.stats.resolved += 1;
        d
    }

    fn resolve_fallible(&mut self, p: Pair) -> Result<f64, prox_core::OracleError> {
        if let Some(d) = self.known_d(p) {
            self.stats.served_known += 1;
            return Ok(d);
        }
        // As in `resolve`, but a faulted attempt leaves the knowledge set,
        // the LP cache, and the stats untouched.
        let d = self.oracle.try_call_pair(p)?;
        self.known.insert(p.key(), d);
        self.cache = None; // knowledge changed; rebuild lazily
        self.screen.record(p, d);
        self.stats.resolved += 1;
        Ok(d)
    }

    fn try_less(&mut self, x: Pair, y: Pair) -> Option<bool> {
        if x == y {
            return Some(false);
        }
        if let (Some(dx), Some(dy)) = (self.known_d(x), self.known_d(y)) {
            // Both distances known exactly. lint: allow(L3)
            return Some(dx < dy);
        }
        // Exact-bound prescreen: a decided comparison needs no LP. The
        // margin matches `BoundResolver`; near-ties fall through to the LP.
        let (lx, ux) = self.screen.bounds(x);
        let (ly, uy) = self.screen.bounds(y);
        if ux < ly - DECISION_EPS {
            return Some(true);
        }
        if lx >= uy + DECISION_EPS {
            return Some(false);
        }
        // Certainly true iff the reversed constraint d(y) ≤ d(x), i.e.
        // d(y) − d(x) ≤ 0, leaves no feasible region.
        if self.feasible_with(&[(y, 1.0), (x, -1.0)], 0.0) == Feasibility::Infeasible {
            return Some(true);
        }
        // Certainly false iff d(x) ≤ d(y) leaves no feasible region.
        if self.feasible_with(&[(x, 1.0), (y, -1.0)], 0.0) == Feasibility::Infeasible {
            return Some(false);
        }
        None
    }

    fn try_less_value(&mut self, x: Pair, v: f64) -> Option<bool> {
        if let Some(d) = self.known_d(x) {
            // Distance known exactly. lint: allow(L3)
            return Some(d < v);
        }
        let (lb, ub) = self.screen.bounds(x);
        if ub < v - DECISION_EPS {
            return Some(true);
        }
        if lb >= v + DECISION_EPS {
            return Some(false);
        }
        // d(x) ≥ v infeasible ⇒ d(x) < v.
        if self.feasible_with(&[(x, -1.0)], -v) == Feasibility::Infeasible {
            return Some(true);
        }
        // d(x) ≤ v infeasible ⇒ d(x) > v ⇒ not less.
        if self.feasible_with(&[(x, 1.0)], v) == Feasibility::Infeasible {
            return Some(false);
        }
        None
    }

    fn try_leq_value(&mut self, x: Pair, v: f64) -> Option<bool> {
        if let Some(d) = self.known_d(x) {
            // Distance known exactly. lint: allow(L3)
            return Some(d <= v);
        }
        let (lb, ub) = self.screen.bounds(x);
        if ub <= v - DECISION_EPS {
            return Some(true);
        }
        if lb > v + DECISION_EPS {
            return Some(false);
        }
        // With weak LP inequalities, infeasibility of d(x) ≤ v certifies
        // d(x) > v, and infeasibility of d(x) ≥ v certifies d(x) < v ≤ v.
        if self.feasible_with(&[(x, 1.0)], v) == Feasibility::Infeasible {
            return Some(false);
        }
        if self.feasible_with(&[(x, -1.0)], -v) == Feasibility::Infeasible {
            return Some(true);
        }
        None
    }

    fn try_less_sum2(&mut self, x: (Pair, Pair), y: (Pair, Pair)) -> Option<bool> {
        // Interval prescreen first (sound, cheap).
        let (lx0, ux0) = self.screen.bounds(x.0);
        let (lx1, ux1) = self.screen.bounds(x.1);
        let (ly0, uy0) = self.screen.bounds(y.0);
        let (ly1, uy1) = self.screen.bounds(y.1);
        if ux0 + ux1 < ly0 + ly1 - DECISION_EPS {
            return Some(true);
        }
        if lx0 + lx1 >= uy0 + uy1 + DECISION_EPS {
            return Some(false);
        }
        // Joint feasibility on the 4-term difference — this is where the LP
        // is strictly stronger than interval sums.
        let rev = [(y.0, 1.0), (y.1, 1.0), (x.0, -1.0), (x.1, -1.0)];
        if self.feasible_with(&rev, 0.0) == Feasibility::Infeasible {
            return Some(true);
        }
        let fwd = [(x.0, 1.0), (x.1, 1.0), (y.0, -1.0), (y.1, -1.0)];
        if self.feasible_with(&fwd, 0.0) == Feasibility::Infeasible {
            return Some(false);
        }
        None
    }

    fn try_sum_less_value(&mut self, terms: &[Pair], v: f64) -> Option<bool> {
        // Delegates to the inherent joint-LP version (inherent methods win
        // name resolution over trait methods, so this is not recursion).
        DftResolver::try_sum_less_value(self, terms, v)
    }

    fn lower_bound_hint(&mut self, x: Pair) -> f64 {
        self.screen.bounds(x).0
    }

    fn bounds_hint(&mut self, x: Pair) -> (f64, f64) {
        if let Some(d) = self.known_d(x) {
            return (d, d);
        }
        // The exact prescreen bounds are sound and cheap; a per-hint LP
        // solve would be pointless (it could not be tighter — see
        // `lp_bounds` and DESIGN.md §4.5).
        self.screen.bounds(x)
    }

    fn preload(&mut self, p: Pair, d: f64) {
        self.known.insert(p.key(), d);
        self.screen.record(p, d);
        self.cache = None;
    }

    fn export_known(&self, out: &mut Vec<(Pair, f64)>) {
        for (&key, &d) in &self.known {
            out.push((Pair::from_key(key), d));
        }
    }

    fn prune_stats(&self) -> PruneStats {
        self.stats
    }

    fn prune_stats_mut(&mut self) -> &mut PruneStats {
        &mut self.stats
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "un-metered ground truth")]
mod tests {
    use super::*;
    use prox_core::{FnMetric, ObjectId};

    fn line_oracle(n: usize) -> Oracle<FnMetric<impl Fn(ObjectId, ObjectId) -> f64>> {
        let scale = 1.0 / (n as f64 - 1.0);
        Oracle::new(FnMetric::new(n, 1.0, move |a, b| {
            (f64::from(a) - f64::from(b)).abs() * scale
        }))
    }

    #[test]
    fn paper_running_example_bounds() {
        // Objects {0..6}; resolve d(1,3)=0.8, d(3,4)=0.1 ⇒ d(1,4) ∈ [0.7,0.9].
        let metric = FnMetric::new(7, 1.0, |a, b| match Pair::new(a, b).ends() {
            (1, 3) => 0.8,
            (3, 4) => 0.1,
            (1, 4) => 0.75,
            _ => 0.5,
        });
        let oracle = Oracle::new(metric);
        let mut dft = DftResolver::new(&oracle);
        dft.resolve(Pair::new(1, 3));
        dft.resolve(Pair::new(3, 4));
        let q = Pair::new(1, 4);
        assert_eq!(dft.try_less_value(q, 0.65), Some(false), "lb is 0.7");
        assert_eq!(dft.try_less_value(q, 0.95), Some(true), "ub is 0.9");
        assert_eq!(dft.try_less_value(q, 0.8), None, "inside the band");
    }

    #[test]
    fn decides_comparison_without_calls() {
        let oracle = line_oracle(11);
        let mut dft = DftResolver::new(&oracle);
        dft.resolve(Pair::new(0, 1)); // 0.1
        dft.resolve(Pair::new(1, 2)); // 0.1  => d(0,2) <= 0.2
        dft.resolve(Pair::new(0, 5)); // 0.5
        dft.resolve(Pair::new(5, 6)); // 0.1  => d(0,6) >= 0.4
        let calls = oracle.calls();
        assert_eq!(dft.try_less(Pair::new(0, 2), Pair::new(0, 6)), Some(true));
        assert_eq!(
            dft.try_less(Pair::new(0, 6), Pair::new(0, 2)),
            Some(false),
            "reversed comparison certainly false"
        );
        assert_eq!(oracle.calls(), calls, "decided without the oracle");
    }

    #[test]
    fn literal_encoding_same_verdicts() {
        let oracle = line_oracle(9);
        let mut sub = DftResolver::new(&oracle);
        let oracle2 = line_oracle(9);
        let mut lit = DftResolver::with_encoding(&oracle2, Encoding::Literal);
        for p in [Pair::new(0, 4), Pair::new(4, 5), Pair::new(0, 8)] {
            sub.resolve(p);
            lit.resolve(p);
        }
        for (x, y) in [
            (Pair::new(0, 5), Pair::new(0, 8)),
            (Pair::new(4, 8), Pair::new(0, 4)),
            (Pair::new(1, 2), Pair::new(0, 8)),
        ] {
            assert_eq!(sub.try_less(x, y), lit.try_less(x, y), "{x:?} vs {y:?}");
        }
    }

    #[test]
    fn never_contradicts_ground_truth() {
        let oracle = line_oracle(8);
        let mut dft = DftResolver::new(&oracle);
        // Resolve a scattering of edges.
        for p in [
            Pair::new(0, 3),
            Pair::new(3, 7),
            Pair::new(2, 5),
            Pair::new(1, 6),
        ] {
            dft.resolve(p);
        }
        let gt = oracle.ground_truth();
        for x in Pair::all(8).step_by(3) {
            for y in Pair::all(8).step_by(2) {
                if x == y {
                    continue;
                }
                if let Some(ans) = dft.try_less(x, y) {
                    let truth = gt.distance(x.lo(), x.hi()) < gt.distance(y.lo(), y.hi());
                    assert_eq!(ans, truth, "{x:?} < {y:?}");
                }
            }
        }
        assert!(dft.lp_solves() > 0);
        assert_eq!(dft.lp_inconclusive(), 0);
    }

    #[test]
    fn resolve_memoizes() {
        let oracle = line_oracle(5);
        let mut dft = DftResolver::new(&oracle);
        let p = Pair::new(0, 4);
        assert_eq!(dft.resolve(p), 1.0);
        assert_eq!(dft.resolve(p), 1.0);
        assert_eq!(oracle.calls(), 1);
    }

    #[test]
    fn aggregate_sum_beats_interval_arithmetic() {
        // d(0,2) = 0.9 known; d(0,1), d(1,2) unknown, each in [0, 1] — no
        // per-edge bound scheme can say anything about either. Their SUM is
        // forced to >= 0.9 by the triangle inequality; only the LP sees it.
        let metric = FnMetric::new(3, 1.0, |a, b| match Pair::new(a, b).ends() {
            (0, 2) => 0.9,
            _ => 0.5,
        });
        let oracle = Oracle::new(metric);
        let mut dft = DftResolver::new(&oracle);
        dft.resolve(Pair::new(0, 2));
        let terms = [Pair::new(0, 1), Pair::new(1, 2)];
        assert_eq!(
            dft.try_sum_less_value(&terms, 0.5),
            Some(false),
            "sum >= 0.9 certified"
        );
        assert_eq!(
            dft.try_sum_less_value(&terms, 0.85),
            Some(false),
            "still below the 0.9 floor"
        );
        assert_eq!(dft.try_sum_less_value(&terms, 1.5), None, "attainable");
        assert_eq!(
            dft.try_sum_less_value(&terms, 2.5),
            Some(true),
            "above the 2.0 ceiling"
        );
        // Per-edge bounds give [0,1] each: interval arithmetic says the sum
        // is in [0,2] and cannot rule out 0.5.
        use prox_bounds::{BoundScheme, TriScheme};
        let mut tri = TriScheme::new(3, 1.0);
        tri.record(Pair::new(0, 2), 0.9);
        let (l1, _) = tri.bounds(Pair::new(0, 1));
        let (l2, _) = tri.bounds(Pair::new(1, 2));
        assert_eq!(l1 + l2, 0.0, "interval lower bound on the sum is 0");
    }

    #[test]
    fn aggregate_sum_all_known() {
        let oracle = line_oracle(5);
        let mut dft = DftResolver::new(&oracle);
        dft.resolve(Pair::new(0, 1));
        dft.resolve(Pair::new(1, 2));
        let terms = [Pair::new(0, 1), Pair::new(1, 2)];
        assert_eq!(dft.try_sum_less_value(&terms, 0.6), Some(true));
        assert_eq!(dft.try_sum_less_value(&terms, 0.4), Some(false));
    }
}
