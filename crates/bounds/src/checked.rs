//! `CheckedResolver` — the paranoid cross-checking layer (feature
//! `paranoid`).
//!
//! Wraps any [`DistanceResolver`] together with a ground-truth closure and
//! audits, on every operation, the three invariants the whole framework
//! rests on (`docs/INVARIANTS.md`):
//!
//! 1. **Sandwich**: every emitted bound satisfies
//!    `LB − ε ≤ dist(p) ≤ UB + ε`.
//! 2. **Monotone tightening**: for a given pair, lower bounds never loosen
//!    downward and upper bounds never loosen upward over the run.
//! 3. **Decision soundness**: every `Some(_)` verdict from a `try_*` method
//!    agrees with the exact comparison, except within the documented
//!    [`DECISION_EPS`] tie window; `resolve`/`known`/`preload`/
//!    `export_known` values must equal the truth *exactly*.
//!
//! The wrapper changes no verdict and no resolved value, so a plugged run
//! under `CheckedResolver` is byte-identical to the same run without it —
//! it only panics (through [`prox_core::invariant`]) when the wrapped
//! resolver breaks a guarantee. It pays one truth evaluation per audit, so
//! it is strictly a test/debug tool; the `paranoid` feature keeps it out of
//! normal builds.

use std::cell::Cell;
use std::collections::BTreeMap;

use prox_core::invariant;
use prox_core::{Pair, PruneStats};

use crate::{DistanceResolver, DECISION_EPS};

/// A [`DistanceResolver`] that audits another against the exact truth.
///
/// `truth` must return the exact oracle distance without being metered —
/// typically `|p| oracle.ground_truth().distance(p.lo(), p.hi())`.
pub struct CheckedResolver<R, F> {
    inner: R,
    truth: F,
    /// Tightest `(lb, ub)` observed per pair, for the monotonicity audit.
    tightest: BTreeMap<u64, (f64, f64)>,
    checks: Cell<u64>,
}

impl<R: DistanceResolver, F: Fn(Pair) -> f64> CheckedResolver<R, F> {
    /// Wraps `inner`, auditing every operation against `truth`.
    pub fn new(inner: R, truth: F) -> Self {
        CheckedResolver {
            inner,
            truth,
            tightest: BTreeMap::new(),
            checks: Cell::new(0),
        }
    }

    /// Number of audits performed so far.
    pub fn checks(&self) -> u64 {
        self.checks.get()
    }

    /// Unwraps the audited resolver.
    pub fn into_inner(self) -> R {
        self.inner
    }

    fn count(&self) {
        self.checks.set(self.checks.get() + 1);
    }

    /// Audits the sandwich and monotone-tightening invariants for bounds
    /// emitted for `p`.
    fn audit_bounds(&mut self, p: Pair, lb: f64, ub: f64, ctx: &str) {
        self.count();
        let d = (self.truth)(p);
        invariant!(
            lb - DECISION_EPS <= d && d <= ub + DECISION_EPS,
            "{ctx}: bounds [{lb}, {ub}] for {p:?} do not sandwich true {d}"
        );
        let entry = self.tightest.entry(p.key()).or_insert((lb, ub));
        invariant!(
            lb >= entry.0 - DECISION_EPS && ub <= entry.1 + DECISION_EPS,
            "{ctx}: bounds [{lb}, {ub}] for {p:?} loosened past [{}, {}]",
            entry.0,
            entry.1
        );
        entry.0 = entry.0.max(lb);
        entry.1 = entry.1.min(ub);
    }

    /// Audits a `Some(claim)` verdict for `lhs < rhs` (or `lhs <= rhs` when
    /// `strict` is false): disagreement with the exact comparison is only
    /// tolerated inside the `tol` tie window.
    fn audit_verdict(&self, claim: bool, lhs: f64, rhs: f64, strict: bool, tol: f64, ctx: &str) {
        self.count();
        let actual = if strict { lhs < rhs } else { lhs <= rhs };
        if claim != actual {
            invariant!(
                (lhs - rhs).abs() <= tol,
                "{ctx}: claimed {claim} but exact comparison of {lhs} vs {rhs} says {actual}"
            );
        }
    }

    /// Audits a value the resolver presents as the exact distance.
    fn audit_exact(&self, p: Pair, d: f64, ctx: &str) {
        self.count();
        let t = (self.truth)(p);
        invariant!(
            d == t,
            "{ctx}: presented {d} as the exact distance of {p:?}, truth is {t}"
        );
    }

    fn sum(&self, x: (Pair, Pair)) -> f64 {
        (self.truth)(x.0) + (self.truth)(x.1)
    }
}

impl<R: DistanceResolver, F: Fn(Pair) -> f64> DistanceResolver for CheckedResolver<R, F> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn max_distance(&self) -> f64 {
        self.inner.max_distance()
    }

    fn known(&self, p: Pair) -> Option<f64> {
        let k = self.inner.known(p);
        if let Some(d) = k {
            self.audit_exact(p, d, "known");
        }
        k
    }

    fn resolve(&mut self, p: Pair) -> f64 {
        let d = self.inner.resolve(p);
        self.audit_exact(p, d, "resolve");
        d
    }

    fn resolve_fallible(&mut self, p: Pair) -> Result<f64, prox_core::OracleError> {
        // Errors pass through unaudited (there is no value to check);
        // successful resolutions are held to the exact-truth standard.
        let d = self.inner.resolve_fallible(p)?;
        self.audit_exact(p, d, "resolve_fallible");
        Ok(d)
    }

    fn try_less(&mut self, x: Pair, y: Pair) -> Option<bool> {
        let v = self.inner.try_less(x, y);
        if let Some(b) = v {
            let (dx, dy) = ((self.truth)(x), (self.truth)(y));
            self.audit_verdict(b, dx, dy, true, 2.0 * DECISION_EPS, "try_less");
        }
        v
    }

    fn try_less_value(&mut self, x: Pair, v: f64) -> Option<bool> {
        let r = self.inner.try_less_value(x, v);
        if let Some(b) = r {
            self.audit_verdict(
                b,
                (self.truth)(x),
                v,
                true,
                2.0 * DECISION_EPS,
                "try_less_value",
            );
        }
        r
    }

    fn try_leq_value(&mut self, x: Pair, v: f64) -> Option<bool> {
        let r = self.inner.try_leq_value(x, v);
        if let Some(b) = r {
            self.audit_verdict(
                b,
                (self.truth)(x),
                v,
                false,
                2.0 * DECISION_EPS,
                "try_leq_value",
            );
        }
        r
    }

    fn try_less_sum2(&mut self, x: (Pair, Pair), y: (Pair, Pair)) -> Option<bool> {
        let r = self.inner.try_less_sum2(x, y);
        if let Some(b) = r {
            let (sx, sy) = (self.sum(x), self.sum(y));
            self.audit_verdict(b, sx, sy, true, 4.0 * DECISION_EPS, "try_less_sum2");
        }
        r
    }

    fn try_sum_less_value(&mut self, terms: &[Pair], v: f64) -> Option<bool> {
        let r = self.inner.try_sum_less_value(terms, v);
        if let Some(b) = r {
            let s: f64 = terms.iter().map(|&t| (self.truth)(t)).sum();
            let tol = DECISION_EPS * 2.0 * terms.len().max(1) as f64;
            self.audit_verdict(b, s, v, true, tol, "try_sum_less_value");
        }
        r
    }

    fn lower_bound_hint(&mut self, x: Pair) -> f64 {
        let lb = self.inner.lower_bound_hint(x);
        let ub = self.inner.max_distance();
        self.audit_bounds(x, lb, ub, "lower_bound_hint");
        lb
    }

    fn bounds_hint(&mut self, x: Pair) -> (f64, f64) {
        let (lb, ub) = self.inner.bounds_hint(x);
        self.audit_bounds(x, lb, ub, "bounds_hint");
        (lb, ub)
    }

    fn preload(&mut self, p: Pair, d: f64) {
        self.audit_exact(p, d, "preload");
        self.inner.preload(p, d);
    }

    fn preload_weak(&mut self, p: Pair, d: f64) {
        self.audit_exact(p, d, "preload_weak");
        self.inner.preload_weak(p, d);
    }

    fn provenance(&self) -> prox_obs::ProvenanceLedger {
        self.inner.provenance()
    }

    fn export_known(&self, out: &mut Vec<(Pair, f64)>) {
        let from = out.len();
        self.inner.export_known(out);
        for &(p, d) in &out[from..] {
            self.audit_exact(p, d, "export_known");
        }
    }

    fn corruption_stats(&self) -> crate::CorruptionStats {
        self.inner.corruption_stats()
    }

    fn weak_stats(&self) -> crate::WeakStats {
        self.inner.weak_stats()
    }

    fn degradation(&self) -> Option<prox_core::Degradation> {
        self.inner.degradation()
    }

    fn prune_stats(&self) -> PruneStats {
        self.inner.prune_stats()
    }

    fn prune_stats_mut(&mut self) -> &mut PruneStats {
        self.inner.prune_stats_mut()
    }

    fn generation(&self) -> u64 {
        self.inner.generation()
    }

    fn pair_stamp(&self, x: Pair) -> u64 {
        self.inner.pair_stamp(x)
    }

    // Observation handles forward untouched: the audit layer emits no
    // events of its own (its oracle calls go through the `truth` closure,
    // not the metered path), so a paranoid run traces identically to an
    // unchecked one.
    fn trace_sink(&self) -> Option<std::rc::Rc<dyn prox_obs::TraceSink>> {
        self.inner.trace_sink()
    }

    fn obs_metrics(&self) -> Option<std::rc::Rc<prox_obs::Metrics>> {
        self.inner.obs_metrics()
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "un-metered ground truth")]
mod tests {
    use super::*;
    use crate::{BoundResolver, TriScheme};
    use prox_core::{MatrixMetric, Metric, Oracle, PairMap};

    /// Four points on a line at 0, 0.1, 0.35, 0.9 (distances scaled to 1).
    fn line_metric() -> MatrixMetric {
        let xs: [f64; 4] = [0.0, 0.1, 0.35, 0.9];
        let mut d = PairMap::new(xs.len(), 0.0);
        for p in Pair::all(xs.len()) {
            d.set(p, (xs[p.hi() as usize] - xs[p.lo() as usize]).abs());
        }
        MatrixMetric::new(d, 1.0)
    }

    #[test]
    fn audits_a_sound_resolver_silently() {
        let metric = line_metric();
        let oracle = Oracle::new(&metric);
        let inner = BoundResolver::new(&oracle, TriScheme::new(4, 1.0));
        let truth = |p: Pair| oracle.ground_truth().distance(p.lo(), p.hi());
        let mut r = CheckedResolver::new(inner, truth);

        let d = r.resolve(Pair::new(0, 1));
        assert_eq!(d, 0.1);
        assert_eq!(r.known(Pair::new(0, 1)), Some(0.1));
        let _ = r.try_less(Pair::new(0, 1), Pair::new(0, 3));
        let _ = r.try_less_value(Pair::new(0, 1), 0.5);
        let _ = r.bounds_hint(Pair::new(1, 3));
        let _ = r.less(Pair::new(0, 1), Pair::new(2, 3));
        assert!(r.checks() >= 5, "audits ran: {}", r.checks());
    }

    /// A resolver that fabricates everything, for the should_panic tests.
    struct Liar {
        stats: PruneStats,
        loose_then_tight: bool,
        calls: u32,
    }

    impl Liar {
        fn new() -> Self {
            Liar {
                stats: PruneStats::default(),
                loose_then_tight: false,
                calls: 0,
            }
        }
    }

    impl DistanceResolver for Liar {
        fn n(&self) -> usize {
            4
        }
        fn max_distance(&self) -> f64 {
            1.0
        }
        fn known(&self, _p: Pair) -> Option<f64> {
            None
        }
        fn resolve(&mut self, _p: Pair) -> f64 {
            0.123 // wrong for every pair of the line metric
        }
        fn try_less(&mut self, _x: Pair, _y: Pair) -> Option<bool> {
            Some(false) // claims d(0,1) >= d(0,3): a lie on the line metric
        }
        fn try_less_value(&mut self, _x: Pair, _v: f64) -> Option<bool> {
            None
        }
        fn try_leq_value(&mut self, _x: Pair, _v: f64) -> Option<bool> {
            None
        }
        fn try_less_sum2(&mut self, _x: (Pair, Pair), _y: (Pair, Pair)) -> Option<bool> {
            None
        }
        fn lower_bound_hint(&mut self, _x: Pair) -> f64 {
            0.0
        }
        fn bounds_hint(&mut self, _x: Pair) -> (f64, f64) {
            if self.loose_then_tight {
                // First call tight, second call looser: a monotonicity bug.
                self.calls += 1;
                if self.calls == 1 {
                    (0.3, 0.4)
                } else {
                    (0.0, 1.0)
                }
            } else {
                (0.9, 1.0) // excludes the true d(0,1) = 0.1: a sandwich bug
            }
        }
        fn preload(&mut self, _p: Pair, _d: f64) {}
        fn export_known(&self, _out: &mut Vec<(Pair, f64)>) {}
        fn prune_stats(&self) -> PruneStats {
            self.stats
        }
        fn prune_stats_mut(&mut self) -> &mut PruneStats {
            &mut self.stats
        }
    }

    fn checked_liar(liar: Liar) -> CheckedResolver<Liar, impl Fn(Pair) -> f64> {
        let metric = line_metric();
        CheckedResolver::new(liar, move |p| metric.distance(p.lo(), p.hi()))
    }

    #[test]
    #[should_panic(expected = "do not sandwich")]
    fn catches_bounds_that_exclude_the_truth() {
        let mut r = checked_liar(Liar::new());
        let _ = r.bounds_hint(Pair::new(0, 1));
    }

    #[test]
    #[should_panic(expected = "loosened past")]
    fn catches_bounds_that_loosen() {
        let mut liar = Liar::new();
        liar.loose_then_tight = true;
        let mut r = checked_liar(liar);
        let p = Pair::new(0, 2); // true 0.35, inside both reported intervals
        let _ = r.bounds_hint(p);
        let _ = r.bounds_hint(p);
    }

    #[test]
    #[should_panic(expected = "try_less: claimed false")]
    fn catches_lying_verdicts() {
        let mut r = checked_liar(Liar::new());
        let _ = r.try_less(Pair::new(0, 1), Pair::new(0, 3));
    }

    #[test]
    #[should_panic(expected = "resolve: presented")]
    fn catches_wrong_resolved_values() {
        let mut r = checked_liar(Liar::new());
        let _ = r.resolve(Pair::new(0, 3));
    }

    #[test]
    #[should_panic(expected = "resolve_fallible: presented")]
    fn audits_the_fallible_path_too() {
        let mut r = checked_liar(Liar::new());
        let _ = r.resolve_fallible(Pair::new(0, 3));
    }
}
