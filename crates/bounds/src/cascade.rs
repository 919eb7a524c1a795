//! The weak → bounds → strong resolution cascade and graceful degradation.
//!
//! [`CascadeResolver`] wraps any [`DistanceResolver`] and adds a cheap
//! noisy tier in front of it, in strict cost order:
//!
//! 1. **known / bounds** — the inner resolver's certified state answers
//!    comparisons for free exactly as before (the cascade forwards every
//!    `try_*` verdict untouched; the weak tier never decides a
//!    comparison).
//! 2. **weak** — a fresh *resolution* first asks the
//!    [`prox_core::WeakOracle`] for a first-to-`k` bit-exact quorum
//!    (attempts `0, 1, 2, …`, capped at [`VOTE_CAP`], mirroring the I9
//!    replica vote). Because clean weak probes return the ground truth
//!    bit-for-bit and errors are keyed by `(pair, attempt)`, a quorum
//!    value *is* the truth up to the colliding-lie residual documented
//!    for I9. The quorum value is then sandwich-checked against the
//!    certified `[TLB, TUB]` interval — the same untrusted-value
//!    treatment the corruption auditor applies: a quorum that escapes
//!    its sandwich is a *proven* weak lie, the pair is quarantined from
//!    the weak tier, and the resolution escalates.
//! 3. **strong** — the inner resolver's usual (audited, retried,
//!    budgeted) resolution path.
//!
//! Every weak-served resolution is recorded into the inner scheme via
//! `preload` and billed to `PruneStats::resolved`, so with a healthy
//! strong tier the cascade's outputs, prune counters and exported
//! distances are byte-identical to a strong-only run while
//! `strong_calls + weak_resolutions == strong_only_calls` (invariant
//! I10).
//!
//! ## Graceful degradation
//!
//! With [`CascadeResolver::with_degrade`] enabled, a `BudgetExhausted` or
//! `Permanent` failure from the strong tier no longer aborts the run: the
//! cascade emits [`TraceEvent::Degraded`], remembers the exhaustion
//! point, and serves every later fresh resolution from the weak tier and
//! the certified bounds alone, classifying each decision:
//!
//! - **certified** — a weak quorum passed its sandwich (still exact up to
//!   the colliding-lie residual);
//! - **weak-only** — no quorum, but the first weak answer sat inside its
//!   sandwich and was served as-is;
//! - **unresolved** — nothing trustworthy; the certified interval
//!   midpoint was served.
//!
//! Degraded values are memoized per pair (never recorded into the inner
//! scheme — they are uncertified and must not contaminate bounds or the
//! persisted cache) so repeated resolutions stay self-consistent, and the
//! whole degraded tail is a pure function of the weak seed and the
//! exhaustion point. Retryable faults (`Transient`/`Timeout`) still
//! surface as errors — degradation is for the two terminal losses only.
//!
//! ## Threading
//!
//! Plugged algorithm runs are sequential at every thread count, so weak
//! votes and their `weak_probe` trace events happen in one canonical order
//! and the semantic stream is thread-invariant (I8 composes with I10).

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use prox_core::invariant;
use prox_core::invariant::expect_ok;
use prox_core::weak::{Degradation, DegradationReport, DegradeReason, WeakOracle};
use prox_core::{Metric, OracleError, Pair, PruneStats};
use prox_obs::{
    MetricName, Metrics, ProvenanceLedger, ResolutionSource, TraceEvent, TraceSink, WeakOutcome,
};

use crate::audit::{CorruptionStats, VOTE_CAP};
use crate::resolver::DECISION_EPS;
use crate::DistanceResolver;

/// Weak-tier accounting, shaped like [`CorruptionStats`]: a plain counter
/// bundle surfaced through [`DistanceResolver::weak_stats`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct WeakStats {
    /// Weak-oracle probes issued (cheap calls; never billed to the
    /// strong oracle).
    pub probes: u64,
    /// Probes whose returned bits differed from the truth (injected
    /// errors).
    pub errors_injected: u64,
    /// Fresh resolutions served by weak quorum + sandwich — each one a
    /// strong call saved.
    pub resolutions: u64,
    /// Quorum values that violated their certified sandwich (proven
    /// weak lies; the pair is quarantined).
    pub lies_detected: u64,
    /// Votes that hit the attempt cap without a quorum and escalated to
    /// the strong tier.
    pub no_quorum: u64,
}

/// How one weak vote over a fresh pair ended (internal).
enum WeakVote {
    /// `k` attempts agreed bit-exactly on `value`.
    Quorum { value: f64, attempts: u32 },
    /// The cap ran out first; `first` is attempt 0's answer (the
    /// degraded-mode fallback candidate).
    NoQuorum { first: f64, attempts: u32 },
}

/// The weak → bounds → strong cascade; see the module docs.
///
/// The weak oracle must wrap the *same* ground truth as the strong tier:
/// the error model is the seeded schedule, not a divergent metric. A
/// weak tier wrapping a different metric behaves like a permanently
/// lying oracle — lies that escape their sandwich are still caught and
/// quarantined, but in-sandwich divergence would break I10.
pub struct CascadeResolver<R, M> {
    inner: R,
    weak: WeakOracle<M>,
    /// Quorum size for the weak vote (≥ 2; a single weak answer is never
    /// trustworthy, and the sandwich alone cannot certify bit-exactness).
    vote_k: u32,
    /// Whether terminal strong-tier losses degrade instead of erroring.
    degrade: bool,
    /// `Some` once the strong tier is lost.
    degraded: Option<Degradation>,
    /// Pairs whose weak quorum was proven a lie; the weak tier is never
    /// consulted for them again.
    quarantined: BTreeSet<u64>,
    /// Degraded-mode served values (bit-stable memo, keyed by pair key).
    /// Never recorded into the inner scheme: these are uncertified.
    fallback: BTreeMap<u64, u64>,
    /// Repeat serves out of `fallback` — provenance-billed as degraded
    /// midpoints alongside the fresh serves counted in the report.
    fallback_hits: u64,
    resolutions: u64,
    lies: u64,
    no_quorum: u64,
    trace: Option<Rc<dyn TraceSink>>,
    metrics: Option<Rc<Metrics>>,
}

impl<R: DistanceResolver, M: Metric> CascadeResolver<R, M> {
    /// Wraps `inner` with a weak tier. The weak oracle's space must match
    /// the resolver's.
    pub fn new(inner: R, weak: WeakOracle<M>) -> Self {
        invariant!(
            weak.len() == inner.n(),
            "weak oracle covers {} objects but the resolver covers {}",
            weak.len(),
            inner.n()
        );
        let trace = inner.trace_sink();
        let metrics = inner.obs_metrics();
        CascadeResolver {
            inner,
            weak,
            vote_k: 2,
            degrade: false,
            degraded: None,
            quarantined: BTreeSet::new(),
            fallback: BTreeMap::new(),
            fallback_hits: 0,
            resolutions: 0,
            lies: 0,
            no_quorum: 0,
            trace,
            metrics,
        }
    }

    /// Sets the weak quorum size (≥ 2).
    pub fn with_vote_k(mut self, k: u32) -> Self {
        invariant!(k >= 2, "weak vote quorum must be at least 2, got {k}");
        self.vote_k = k;
        self
    }

    /// Enables graceful degradation: terminal strong-tier losses
    /// (`BudgetExhausted`/`Permanent`) switch the cascade to
    /// weak+bounds-only service instead of surfacing the error.
    pub fn with_degrade(mut self, on: bool) -> Self {
        self.degrade = on;
        self
    }

    /// The inner resolver.
    pub fn inner(&self) -> &R {
        &self.inner
    }

    /// The weak oracle.
    pub fn weak(&self) -> &WeakOracle<M> {
        &self.weak
    }

    /// Unwraps the cascade, dropping weak-tier state.
    pub fn into_inner(self) -> R {
        self.inner
    }

    /// First-to-`k` bit-exact weak vote over `p` (attempts `0..VOTE_CAP`).
    ///
    /// Saturated answers — exactly `0` or exactly `max_distance` — never
    /// count toward a quorum: the error model clamps lies into
    /// `[0, max]`, which concentrates them onto the interval endpoints,
    /// so endpoint collisions between two independent lies are *common*
    /// rather than astronomically rare. A pair whose weak answers
    /// saturate simply escalates to the strong tier (a true distance of
    /// exactly `max_distance` forfeits its weak saving but stays exact).
    fn weak_vote(&self, p: Pair) -> WeakVote {
        let max = self.weak.max_distance();
        let mut counts: Vec<(u64, u32)> = Vec::new();
        let mut first = 0.0f64;
        for attempt in 0..VOTE_CAP {
            #[expect(
                clippy::disallowed_methods,
                reason = "L14: the audit itself; the answer counts only on a quorum and the bound sandwich"
            )]
            let v = self.weak.probe(p, attempt);
            if attempt == 0 {
                first = v;
            }
            if v == 0.0 || v == max {
                continue;
            }
            let bits = v.to_bits();
            let count = match counts.iter_mut().find(|(b, _)| *b == bits) {
                Some((_, c)) => {
                    *c += 1;
                    *c
                }
                None => {
                    counts.push((bits, 1));
                    1
                }
            };
            if count >= self.vote_k {
                return WeakVote::Quorum {
                    value: v,
                    attempts: attempt + 1,
                };
            }
        }
        WeakVote::NoQuorum {
            first,
            attempts: VOTE_CAP,
        }
    }

    /// Whether `value` sits inside the certified sandwich `[lb, ub]`
    /// (with the standard decision margin).
    fn in_sandwich(value: f64, lb: f64, ub: f64) -> bool {
        value >= lb - DECISION_EPS && value <= ub + DECISION_EPS
    }

    #[cold]
    fn note_weak(&self, p: Pair, attempts: u32, outcome: WeakOutcome) {
        if let Some(t) = &self.trace {
            t.emit(TraceEvent::WeakProbe {
                lo: p.lo(),
                hi: p.hi(),
                attempts,
                outcome,
            });
        }
        if let Some(m) = &self.metrics {
            m.inc(
                match outcome {
                    WeakOutcome::Resolved => MetricName::CascadeWeakResolved,
                    WeakOutcome::Lie => MetricName::CascadeWeakLies,
                    WeakOutcome::NoQuorum => MetricName::CascadeWeakNoQuorum,
                },
                1,
            );
        }
    }

    /// Flips the cascade into degraded mode after a terminal strong-tier
    /// loss.
    #[cold]
    fn enter_degraded(&mut self, e: &OracleError) {
        let (reason, calls) = match e {
            OracleError::BudgetExhausted { calls } => (DegradeReason::BudgetExhausted, *calls),
            _ => (DegradeReason::Permanent, 0),
        };
        self.degraded = Some(Degradation {
            reason,
            report: DegradationReport {
                strong_calls_at_loss: calls,
                ..DegradationReport::default()
            },
        });
        if let Some(t) = &self.trace {
            t.emit(TraceEvent::Degraded {
                strong_calls: calls,
                reason: reason.name(),
            });
        }
        if let Some(m) = &self.metrics {
            m.inc(MetricName::CascadeDegraded, 1);
        }
    }

    /// Serves a fresh pair after the strong tier is lost. `vote` is the
    /// weak vote already taken for this resolution (`None` when the pair
    /// is quarantined from the weak tier).
    fn degraded_value(&mut self, p: Pair, vote: Option<WeakVote>) -> f64 {
        let (lb, ub) = self.inner.bounds_hint(p);
        let report = match self.degraded.as_mut() {
            Some(d) => &mut d.report,
            // Unreachable: callers only get here with `degraded` set.
            None => return 0.5 * (lb + ub),
        };
        let value = match vote {
            Some(WeakVote::NoQuorum { first, .. }) if Self::in_sandwich(first, lb, ub) => {
                report.weak_only += 1;
                first
            }
            _ => {
                report.unresolved += 1;
                0.5 * (lb + ub)
            }
        };
        self.fallback.insert(p.key(), value.to_bits());
        value
    }
}

impl<R: DistanceResolver, M: Metric> DistanceResolver for CascadeResolver<R, M> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn max_distance(&self) -> f64 {
        self.inner.max_distance()
    }

    fn known(&self, p: Pair) -> Option<f64> {
        // Only certified knowledge counts; degraded-mode fallback values
        // are deliberately invisible here.
        self.inner.known(p)
    }

    fn resolve(&mut self, p: Pair) -> f64 {
        expect_ok(self.resolve_fallible(p), "cascade resolve")
    }

    fn resolve_fallible(&mut self, p: Pair) -> Result<f64, OracleError> {
        if let Some(&bits) = self.fallback.get(&p.key()) {
            self.fallback_hits += 1;
            return Ok(f64::from_bits(bits));
        }
        if self.inner.known(p).is_some() {
            return self.inner.resolve_fallible(p);
        }

        // Fresh pair: weak tier first (unless quarantined).
        let vote = if self.quarantined.contains(&p.key()) {
            None
        } else {
            Some(self.weak_vote(p))
        };
        if let Some(WeakVote::Quorum { value, attempts }) = vote {
            let (lb, ub) = self.inner.bounds_hint(p);
            if Self::in_sandwich(value, lb, ub) {
                self.note_weak(p, attempts, WeakOutcome::Resolved);
                self.resolutions += 1;
                // Record exactly as a strong resolution would have: the
                // quorum value is the truth bit-for-bit, so scheme state,
                // prune counters and exports stay byte-identical (I10).
                // `preload_weak` bills `resolved` like a strong call but
                // lets provenance-aware inners attribute the resolution to
                // the weak-quorum ledger row.
                self.inner.preload_weak(p, value);
                if let Some(d) = self.degraded.as_mut() {
                    d.report.certified += 1;
                }
                return Ok(value);
            }
            // Proven lie: the quorum escaped its certified sandwich.
            self.note_weak(p, attempts, WeakOutcome::Lie);
            self.lies += 1;
            self.quarantined.insert(p.key());
        } else if let Some(WeakVote::NoQuorum { attempts, .. }) = vote {
            self.note_weak(p, attempts, WeakOutcome::NoQuorum);
            self.no_quorum += 1;
        }

        // Escalate to the strong tier while it is still alive.
        let lied = matches!(vote, Some(WeakVote::Quorum { .. }));
        if self.degraded.is_none() {
            match self.inner.resolve_fallible(p) {
                Ok(d) => return Ok(d),
                Err(e) if self.degrade && !e.is_retryable() => self.enter_degraded(&e),
                Err(e) => return Err(e),
            }
        }

        // Strong tier is gone: serve the best uncertified answer. A vote
        // that was a proven lie is treated like a quarantined pair.
        let vote = if lied { None } else { vote };
        Ok(self.degraded_value(p, vote))
    }

    fn try_less(&mut self, x: Pair, y: Pair) -> Option<bool> {
        self.inner.try_less(x, y)
    }

    fn try_less_value(&mut self, x: Pair, v: f64) -> Option<bool> {
        self.inner.try_less_value(x, v)
    }

    fn try_leq_value(&mut self, x: Pair, v: f64) -> Option<bool> {
        self.inner.try_leq_value(x, v)
    }

    fn try_less_sum2(&mut self, x: (Pair, Pair), y: (Pair, Pair)) -> Option<bool> {
        self.inner.try_less_sum2(x, y)
    }

    fn try_sum_less_value(&mut self, terms: &[Pair], v: f64) -> Option<bool> {
        // Forward explicitly: inner resolvers (e.g. DFT) may override the
        // provided default, and the cascade must not mask that.
        self.inner.try_sum_less_value(terms, v)
    }

    fn lower_bound_hint(&mut self, x: Pair) -> f64 {
        self.inner.lower_bound_hint(x)
    }

    fn bounds_hint(&mut self, x: Pair) -> (f64, f64) {
        self.inner.bounds_hint(x)
    }

    fn preload(&mut self, p: Pair, d: f64) {
        self.inner.preload(p, d);
    }

    fn preload_weak(&mut self, p: Pair, d: f64) {
        self.inner.preload_weak(p, d);
    }

    fn provenance(&self) -> ProvenanceLedger {
        let mut l = self.inner.provenance();
        let fresh = self
            .degraded
            .as_ref()
            .map(|d| d.report.weak_only + d.report.unresolved)
            .unwrap_or(0);
        l.add(
            ResolutionSource::DegradedMidpoint,
            fresh + self.fallback_hits,
        );
        l
    }

    fn export_known(&self, out: &mut Vec<(Pair, f64)>) {
        self.inner.export_known(out);
    }

    fn corruption_stats(&self) -> CorruptionStats {
        self.inner.corruption_stats()
    }

    fn weak_stats(&self) -> WeakStats {
        WeakStats {
            probes: self.weak.probes(),
            errors_injected: self.weak.errors_injected(),
            resolutions: self.resolutions,
            lies_detected: self.lies,
            no_quorum: self.no_quorum,
        }
    }

    fn degradation(&self) -> Option<Degradation> {
        self.degraded
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

    fn trace_sink(&self) -> Option<Rc<dyn TraceSink>> {
        self.inner.trace_sink()
    }

    fn obs_metrics(&self) -> Option<Rc<Metrics>> {
        self.inner.obs_metrics()
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "un-metered ground truth")]
mod tests {
    use super::*;
    use crate::{BoundResolver, TriScheme};
    use prox_core::{CallBudget, FnMetric, ObjectId, Oracle};

    fn line_metric(n: usize) -> FnMetric<impl Fn(ObjectId, ObjectId) -> f64> {
        FnMetric::new(n, 1.0, |a, b| (f64::from(a) - f64::from(b)).abs() / 16.0)
    }

    fn resolve_all<R: DistanceResolver>(r: &mut R, n: usize) -> Vec<(Pair, u64)> {
        Pair::all(n).map(|p| (p, r.resolve(p).to_bits())).collect()
    }

    #[test]
    fn healthy_cascade_is_byte_identical_and_saves_strong_calls() {
        let n = 12;
        let metric = line_metric(n);

        let strong_only = Oracle::new(&metric);
        let mut base = BoundResolver::new(&strong_only, TriScheme::new(n, 1.0));
        let baseline = resolve_all(&mut base, n);
        let baseline_stats = base.prune_stats();
        let strong_only_calls = strong_only.calls();

        for rate in [0.0, 0.05, 0.3] {
            let oracle = Oracle::new(&metric);
            let weak = WeakOracle::new(&metric, rate, 42);
            let mut cascade =
                CascadeResolver::new(BoundResolver::new(&oracle, TriScheme::new(n, 1.0)), weak);
            let outputs = resolve_all(&mut cascade, n);
            assert_eq!(outputs, baseline, "rate {rate}");
            assert_eq!(cascade.prune_stats(), baseline_stats, "rate {rate}");
            let ws = cascade.weak_stats();
            // Billing identity: every weak resolution is a strong call
            // saved, nothing double-billed.
            assert_eq!(
                oracle.calls() + ws.resolutions,
                strong_only_calls,
                "rate {rate}"
            );
            assert!(oracle.calls() <= strong_only_calls);
            assert_eq!(ws.lies_detected, 0, "rate {rate}");
            assert!(cascade.degradation().is_none());
            // Exports match too.
            let (mut a, mut b) = (Vec::new(), Vec::new());
            cascade.export_known(&mut a);
            base.export_known(&mut b);
            assert_eq!(a.len(), b.len());
        }
    }

    #[test]
    fn weak_lies_escaping_the_sandwich_are_quarantined() {
        // A weak tier wrapping a *different* metric is a permanent liar:
        // it reaches quorum instantly on values the certified sandwich
        // can disprove. d(0,1) = d(0,2) = 0.2 preloaded, so tri bounds
        // give (1,2) ⊆ [0, 0.4]; the weak tier claims 0.95.
        let metric = FnMetric::new(3, 1.0, |a, b| {
            if a == b {
                0.0
            } else if a.min(b) == 0 {
                0.2
            } else {
                0.3
            }
        });
        let liar = FnMetric::new(3, 1.0, |a, b| if a == b { 0.0 } else { 0.95 });
        let oracle = Oracle::new(&metric);
        let mut cascade = CascadeResolver::new(
            BoundResolver::new(&oracle, TriScheme::new(3, 1.0)),
            WeakOracle::new(&liar, 0.0, 7),
        );
        cascade.preload(Pair::new(0, 1), 0.2);
        cascade.preload(Pair::new(0, 2), 0.2);

        let p = Pair::new(1, 2);
        let d = cascade.resolve(p);
        assert_eq!(d.to_bits(), 0.3f64.to_bits());
        let ws = cascade.weak_stats();
        assert_eq!(ws.lies_detected, 1);
        assert_eq!(ws.resolutions, 0);
        assert_eq!(oracle.calls(), 1);
    }

    #[test]
    fn no_quorum_escalates_to_strong() {
        // rate 1.0: every attempt lies, and distinct attempts draw
        // distinct lies, so no quorum ever forms.
        let n = 8;
        let metric = line_metric(n);
        let oracle = Oracle::new(&metric);
        let mut cascade = CascadeResolver::new(
            BoundResolver::new(&oracle, TriScheme::new(n, 1.0)),
            WeakOracle::new(&metric, 1.0, 3),
        );
        let p = Pair::new(0, 7);
        let truth = metric.distance(0, 7);
        assert_eq!(cascade.resolve(p).to_bits(), truth.to_bits());
        let ws = cascade.weak_stats();
        assert_eq!(ws.no_quorum, 1);
        assert_eq!(ws.lies_detected, 0);
        assert_eq!(ws.resolutions, 0);
        assert_eq!(oracle.calls(), 1);
    }

    #[test]
    fn budget_exhaustion_degrades_instead_of_aborting() {
        let n = 10;
        let metric = line_metric(n);
        let run = |budget: u64| {
            let oracle = Oracle::new(&metric).with_budget(CallBudget::calls(budget));
            // rate 1.0 forces every fresh pair to the strong tier, so the
            // budget trips mid-run deterministically.
            let weak = WeakOracle::new(&metric, 1.0, 99);
            let mut cascade =
                CascadeResolver::new(BoundResolver::new(&oracle, TriScheme::new(n, 1.0)), weak)
                    .with_degrade(true);
            let outputs = resolve_all(&mut cascade, n);
            (outputs, cascade.degradation(), cascade.weak_stats())
        };
        let (outputs, degradation, _) = run(5);
        let d = degradation.expect("budget must have tripped");
        assert_eq!(d.reason, DegradeReason::BudgetExhausted);
        assert_eq!(d.report.strong_calls_at_loss, 5);
        assert!(d.report.decisions() > 0);
        assert_eq!(
            d.report.decisions(),
            Pair::count(n) - 5,
            "every post-loss fresh pair is classified"
        );
        // Deterministic given the seed and the exhaustion point.
        let (outputs2, degradation2, _) = run(5);
        assert_eq!(outputs, outputs2);
        assert_eq!(degradation, degradation2);
        // Repeated resolutions of a degraded pair are memo-stable.
        let oracle = Oracle::new(&metric).with_budget(CallBudget::calls(0));
        let mut cascade = CascadeResolver::new(
            BoundResolver::new(&oracle, TriScheme::new(n, 1.0)),
            WeakOracle::new(&metric, 1.0, 99),
        )
        .with_degrade(true);
        let p = Pair::new(2, 9);
        let a = cascade.resolve(p);
        let b = cascade.resolve(p);
        assert_eq!(a.to_bits(), b.to_bits());
        // Uncertified values never leak into exports or `known`.
        assert!(cascade.known(p).is_none());
        let mut out = Vec::new();
        cascade.export_known(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn degrade_off_still_surfaces_the_error() {
        let n = 6;
        let metric = line_metric(n);
        let oracle = Oracle::new(&metric).with_budget(CallBudget::calls(0));
        let mut cascade = CascadeResolver::new(
            BoundResolver::new(&oracle, TriScheme::new(n, 1.0)),
            WeakOracle::new(&metric, 1.0, 1),
        );
        let err = cascade.resolve_fallible(Pair::new(0, 1)).unwrap_err();
        assert!(matches!(err, OracleError::BudgetExhausted { .. }));
        assert!(cascade.degradation().is_none());
    }

    #[test]
    fn degraded_mode_still_certifies_weak_quorums() {
        // Budget 0 and a *perfect* weak tier: every pair resolves by
        // quorum and is classified certified; outputs equal the truth.
        let n = 9;
        let metric = line_metric(n);
        let oracle = Oracle::new(&metric).with_budget(CallBudget::calls(0));
        let mut cascade = CascadeResolver::new(
            BoundResolver::new(&oracle, TriScheme::new(n, 1.0)),
            WeakOracle::new(&metric, 0.0, 5),
        )
        .with_degrade(true);
        // Trip the degradation with one doomed pair… no: quorum serves it
        // without a strong call, so the budget never trips and the run
        // stays healthy. That is the point: a perfect weak tier makes a
        // zero-budget run indistinguishable from a healthy one.
        let outputs = resolve_all(&mut cascade, n);
        for (p, bits) in outputs {
            assert_eq!(bits, metric.distance(p.lo(), p.hi()).to_bits());
        }
        assert!(cascade.degradation().is_none());
        assert_eq!(oracle.calls(), 0);
        assert_eq!(cascade.weak_stats().resolutions, Pair::count(n));
    }
}
