//! The metered distance oracle.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use prox_obs::{emit_to, CallOutcome, MetricName, Metrics, TraceEvent, TraceSink};

use crate::fault::{
    CallBudget, CorruptionInjector, FaultInjector, FaultKind, FaultStats, OracleError, RetryPolicy,
    ValueFaultKind,
};
use crate::invariant::expect_ok;
use crate::{Metric, ObjectId, OracleStats, Pair};

/// The sole gateway between an algorithm and the ground-truth metric.
///
/// Every [`Oracle::call`] increments the call counter and accrues the
/// configured *virtual cost*. The experiments in the paper sweep the oracle
/// cost from 10⁻⁵ s up to 2.5 s per call; charging that cost virtually (a
/// counter, not a sleep) reproduces the completion-time figures without
/// burning wall clock, and `EXPERIMENTS.md` reports the two components
/// (measured CPU time + virtual oracle time) separately, exactly as the
/// paper separates "CPU overhead" from oracle time.
///
/// # Faults, retries, budgets
///
/// A real oracle (web API, billed service) is fallible. [`Oracle::try_call`]
/// is the fallible resolution path: with a [`FaultInjector`] configured it
/// replays a deterministic per-`(pair, attempt)` fault schedule, retries
/// according to the [`RetryPolicy`] (charging exponential backoff as
/// virtual time — no sleeps), and enforces the [`CallBudget`] before every
/// attempt. With no injector and no budget, `try_call` is a single
/// always-taken branch away from the historical infallible fast path.
/// Every attempt — faulted or not — is billed to the call counter; the
/// *unique-pair* spend is tracked by resolvers (`PruneStats::resolved`).
///
/// Interior mutability (`Cell`) keeps `call` usable through `&Oracle`, so an
/// oracle can be shared by a resolver and a bootstrap routine without
/// plumbing `&mut` everywhere.
pub struct Oracle<M> {
    metric: M,
    calls: Cell<u64>,
    cost_per_call: Duration,
    faults: Option<FaultInjector>,
    corrupt: Option<CorruptionInjector>,
    retry: RetryPolicy,
    budget: CallBudget,
    faults_injected: Cell<u64>,
    corruptions_injected: Cell<u64>,
    retries: Cell<u64>,
    backoff: Cell<Duration>,
    /// Optional structured-event sink (prox-obs). When `None` — the
    /// default — `call`/`try_call` keep the historical two-branch fast
    /// path; resolvers clone this handle once at construction.
    trace: Option<Rc<dyn TraceSink>>,
    /// Optional metrics registry, attached and cloned the same way.
    metrics: Option<Rc<Metrics>>,
}

impl<M: Metric> Oracle<M> {
    /// Wraps `metric` with a zero-cost (but still counted) oracle.
    pub fn new(metric: M) -> Self {
        Oracle::with_cost(metric, Duration::ZERO)
    }

    /// Wraps `metric`, charging `cost_per_call` of virtual time per call.
    pub fn with_cost(metric: M, cost_per_call: Duration) -> Self {
        Oracle {
            metric,
            calls: Cell::new(0),
            cost_per_call,
            faults: None,
            corrupt: None,
            retry: RetryPolicy::none(),
            budget: CallBudget::unlimited(),
            faults_injected: Cell::new(0),
            corruptions_injected: Cell::new(0),
            retries: Cell::new(0),
            backoff: Cell::new(Duration::ZERO),
            trace: None,
            metrics: None,
        }
    }

    /// Attaches a deterministic fault schedule.
    pub fn with_faults(mut self, faults: FaultInjector) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Attaches a deterministic *value-corruption* schedule: corrupted
    /// calls succeed but return a wrong distance. Pair with an audited
    /// resolver (see `prox-bounds`) to detect and repair the lies.
    pub fn with_corruption(mut self, corrupt: CorruptionInjector) -> Self {
        self.corrupt = Some(corrupt);
        self
    }

    /// Sets the retry policy applied when an injected fault is retryable.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets hard call-count / virtual-deadline guards.
    pub fn with_budget(mut self, budget: CallBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches a trace sink. Every subsequent attempt (billed or
    /// budget-denied) emits an [`TraceEvent::OracleCall`]; retries and
    /// exhausted calls emit [`TraceEvent::Retry`] / [`TraceEvent::Fault`].
    pub fn with_trace(mut self, trace: Rc<dyn TraceSink>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Attaches a metrics registry (`oracle.calls`, `oracle.faults`,
    /// `oracle.retry_depth`, ...).
    pub fn with_metrics(mut self, metrics: Rc<Metrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The attached trace sink, if any. Resolvers clone this once at
    /// construction so their hot paths test a pre-resolved `Option`.
    pub fn trace(&self) -> Option<Rc<dyn TraceSink>> {
        self.trace.clone()
    }

    /// The attached metrics registry, if any.
    pub fn metrics(&self) -> Option<Rc<Metrics>> {
        self.metrics.clone()
    }

    /// Number of objects in the underlying space.
    pub fn n(&self) -> usize {
        self.metric.len()
    }

    /// Upper bound on any distance (the `1` the paper initializes UBs to).
    pub fn max_distance(&self) -> f64 {
        self.metric.max_distance()
    }

    /// Performs one expensive distance resolution.
    ///
    /// # Panics
    ///
    /// Panics (through the audited [`crate::invariant`] route) if `a == b`
    /// — self-distances are known to be zero a priori and calling the
    /// oracle for one is always an algorithmic bug — or if a configured
    /// fault schedule or budget makes the call fail; fault-aware callers
    /// must use [`Oracle::try_call`].
    #[expect(
        clippy::disallowed_methods,
        reason = "L9: the oracle's infallible form wraps its fallible twin"
    )]
    pub fn call(&self, a: ObjectId, b: ObjectId) -> f64 {
        crate::invariant!(a != b, "oracle called for a self-distance (object {a})");
        expect_ok(self.try_call(a, b), "infallible oracle path hit a fault")
    }

    /// [`Oracle::call`] keyed by a canonical [`Pair`].
    #[expect(
        clippy::disallowed_methods,
        reason = "L9: the oracle's pair form delegates to its id form"
    )]
    pub fn call_pair(&self, p: Pair) -> f64 {
        self.call(p.lo(), p.hi())
    }

    /// Fallible distance resolution: the fault-aware twin of
    /// [`Oracle::call`].
    ///
    /// With no fault schedule and no budget this is the same counted
    /// metric lookup as `call`. Otherwise each attempt is budget-checked,
    /// billed, and run against the deterministic fault schedule; retryable
    /// faults are retried up to [`RetryPolicy::max_retries`] times with
    /// backoff charged as virtual time, and the final failure (if any) is
    /// reported as an [`OracleError`] instead of a panic.
    #[expect(clippy::disallowed_methods, reason = "the oracle is the meter")]
    pub fn try_call(&self, a: ObjectId, b: ObjectId) -> Result<f64, OracleError> {
        if a == b {
            return Err(OracleError::Permanent {
                reason: "oracle called for a self-distance",
            });
        }
        if self.observers_off() {
            self.calls.set(self.calls.get() + 1);
            return Ok(self.metric.distance(a, b));
        }
        self.try_call_slow(Pair::new(a, b), 0)
    }

    /// True when nothing — fault or corruption schedule, budget, trace,
    /// metrics — needs to observe individual attempts, so the historical
    /// one-line fast path is exact.
    #[inline]
    fn observers_off(&self) -> bool {
        self.faults.is_none()
            && self.corrupt.is_none()
            && self.budget.is_unlimited()
            && self.trace.is_none()
            && self.metrics.is_none()
    }

    /// [`Oracle::try_call`] keyed by a canonical [`Pair`].
    #[expect(
        clippy::disallowed_methods,
        reason = "L9: the oracle's pair form delegates to its id form"
    )]
    pub fn try_call_pair(&self, p: Pair) -> Result<f64, OracleError> {
        self.try_call(p.lo(), p.hi())
    }

    /// Resolves `p` as replica number `replica` of a k-of-n vote.
    ///
    /// Replica 0 is the ordinary [`Oracle::try_call_pair`]; higher
    /// replicas are *independent re-queries* of the same pair — they are
    /// billed like any call, share the pair's fail-stop retry schedule,
    /// but draw an independent corruption decision (a lying crowdworker
    /// answers each posting of the question separately). Auditing
    /// resolvers use this for majority voting after a detected
    /// inconsistency.
    #[expect(clippy::disallowed_methods, reason = "the oracle is the meter")]
    pub fn try_call_replica(&self, p: Pair, replica: u32) -> Result<f64, OracleError> {
        if self.observers_off() {
            self.calls.set(self.calls.get() + 1);
            return Ok(self.metric.distance(p.lo(), p.hi()));
        }
        self.try_call_slow(p, replica)
    }

    /// Applies a drawn value corruption to the true distance. The result
    /// always stays a plausible distance (finite, in `[0, max]`), which
    /// is what makes value faults dangerous: only consistency auditing
    /// can spot them.
    #[expect(clippy::disallowed_methods, reason = "the oracle is the meter")]
    fn corrupt_value(&self, p: Pair, kind: ValueFaultKind, truth: f64) -> f64 {
        let max = self.metric.max_distance();
        match kind {
            ValueFaultKind::Scale { magnitude } => {
                (truth * (0.25 + 1.5 * magnitude)).clamp(0.0, max)
            }
            ValueFaultKind::Offset { magnitude } => {
                (truth + (magnitude - 0.5) * max).clamp(0.0, max)
            }
            ValueFaultKind::PairSwap { pick } => {
                let n = self.metric.len() as u64;
                if n < 3 {
                    // No third object to mix up; degrade to an offset.
                    let magnitude = crate::fault::unit(pick);
                    return (truth + (magnitude - 0.5) * max).clamp(0.0, max);
                }
                let (lo, hi) = (p.lo(), p.hi());
                let mut c = (pick % n) as u32;
                while c == lo || c == hi {
                    c = (c + 1) % n as u32;
                }
                self.metric.distance(lo, c)
            }
        }
    }

    /// The retry loop behind `try_call` when faults, budgets, or
    /// observers are live.
    #[expect(clippy::disallowed_methods, reason = "the oracle is the meter")]
    fn try_call_slow(&self, p: Pair, replica: u32) -> Result<f64, OracleError> {
        let (lo, hi) = (p.lo(), p.hi());
        let attempt_ns = self.cost_per_call.as_nanos() as u64;
        let mut attempt = 0u32;
        loop {
            let denied = self
                .budget
                .max_calls
                .is_some_and(|max| self.calls.get() >= max)
                || self
                    .budget
                    .deadline
                    .is_some_and(|deadline| self.virtual_time() >= deadline);
            if denied {
                // Denied before billing: traced with the `Budget` outcome
                // so a report can exclude it from the billed-call total.
                emit_to(
                    self.trace.as_ref(),
                    TraceEvent::OracleCall {
                        lo,
                        hi,
                        attempt,
                        outcome: CallOutcome::Budget,
                        virtual_ns: 0,
                    },
                );
                if let Some(m) = &self.metrics {
                    m.inc(MetricName::OracleBudgetDenied, 1);
                }
                return Err(OracleError::BudgetExhausted {
                    calls: self.calls.get(),
                });
            }
            // Every attempt is billed, faulted or not: the provider
            // charges for the request either way.
            self.calls.set(self.calls.get() + 1);
            if let Some(m) = &self.metrics {
                m.inc(MetricName::OracleCalls, 1);
            }
            match self.faults.as_ref().and_then(|f| f.fault_at(p, attempt)) {
                None => {
                    emit_to(
                        self.trace.as_ref(),
                        TraceEvent::OracleCall {
                            lo,
                            hi,
                            attempt,
                            outcome: CallOutcome::Ok,
                            virtual_ns: attempt_ns,
                        },
                    );
                    if let Some(m) = &self.metrics {
                        m.observe(MetricName::OracleRetryDepth, u64::from(attempt));
                    }
                    let truth = self.metric.distance(lo, hi);
                    // Value corruption applies to the *successful* attempt
                    // and is keyed by replica, not attempt: retrying a
                    // faulted request re-asks the same replica.
                    if let Some(kind) = self
                        .corrupt
                        .as_ref()
                        .and_then(|c| c.corruption_at(p, replica))
                    {
                        let corrupted = self.corrupt_value(p, kind, truth);
                        // Only a draw that actually changes the bits counts
                        // as (and behaves like) an injected corruption.
                        if corrupted.to_bits() != truth.to_bits() {
                            self.corruptions_injected
                                .set(self.corruptions_injected.get() + 1);
                            return Ok(corrupted);
                        }
                    }
                    return Ok(truth);
                }
                Some(kind) => {
                    self.faults_injected.set(self.faults_injected.get() + 1);
                    emit_to(
                        self.trace.as_ref(),
                        TraceEvent::OracleCall {
                            lo,
                            hi,
                            attempt,
                            outcome: match kind {
                                FaultKind::Transient => CallOutcome::Transient,
                                FaultKind::Timeout => CallOutcome::Timeout,
                            },
                            virtual_ns: attempt_ns,
                        },
                    );
                    if let Some(m) = &self.metrics {
                        m.inc(MetricName::OracleFaults, 1);
                    }
                    if attempt >= self.retry.max_retries {
                        emit_to(
                            self.trace.as_ref(),
                            TraceEvent::Fault {
                                lo,
                                hi,
                                attempts: attempt + 1,
                                timeout: matches!(kind, FaultKind::Timeout),
                            },
                        );
                        return Err(match kind {
                            FaultKind::Transient => OracleError::Transient {
                                pair: p,
                                attempts: attempt + 1,
                            },
                            FaultKind::Timeout => OracleError::Timeout {
                                pair: p,
                                attempts: attempt + 1,
                            },
                        });
                    }
                    let seed = self.faults.as_ref().map_or(0, FaultInjector::seed);
                    let wait = self.retry.backoff(seed, p, attempt);
                    self.backoff.set(self.backoff.get().saturating_add(wait));
                    self.retries.set(self.retries.get() + 1);
                    let backoff_ns = wait.as_nanos() as u64;
                    emit_to(
                        self.trace.as_ref(),
                        TraceEvent::Retry {
                            lo,
                            hi,
                            attempt,
                            backoff_ns,
                        },
                    );
                    if let Some(m) = &self.metrics {
                        m.inc(MetricName::OracleRetries, 1);
                        m.observe(MetricName::OracleBackoffNs, backoff_ns);
                    }
                    attempt += 1;
                }
            }
        }
    }

    /// Total calls made so far.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Virtual cost charged per call.
    pub fn cost_per_call(&self) -> Duration {
        self.cost_per_call
    }

    /// The configured spending guards.
    pub fn budget(&self) -> CallBudget {
        self.budget
    }

    /// Total virtual time spent in the oracle: `calls × cost_per_call`
    /// plus any retry backoff (computed in `f64`, so call counts beyond
    /// `u32::MAX` keep scaling instead of silently capping).
    pub fn virtual_time(&self) -> Duration {
        Duration::try_from_secs_f64(self.cost_per_call.as_secs_f64() * self.calls.get() as f64)
            .unwrap_or(Duration::MAX)
            .saturating_add(self.backoff.get())
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> OracleStats {
        OracleStats {
            calls: self.calls(),
            virtual_time: self.virtual_time(),
        }
    }

    /// Snapshot of the fault-path counters.
    pub fn fault_stats(&self) -> FaultStats {
        FaultStats {
            faults_injected: self.faults_injected.get(),
            retries: self.retries.get(),
            backoff_time: self.backoff.get(),
            corruptions_injected: self.corruptions_injected.get(),
        }
    }

    /// Value corruptions injected so far (bits-changed draws only).
    pub fn corruptions_injected(&self) -> u64 {
        self.corruptions_injected.get()
    }

    /// Resets the call and fault counters (e.g. to separate a bootstrap
    /// phase from the algorithm proper, as the tables' `Bootstrap` column
    /// does).
    pub fn reset(&self) {
        self.calls.set(0);
        self.faults_injected.set(0);
        self.corruptions_injected.set(0);
        self.retries.set(0);
        self.backoff.set(Duration::ZERO);
    }

    /// Consumes the oracle, returning the wrapped metric.
    pub fn into_inner(self) -> M {
        self.metric
    }

    /// Borrows the wrapped metric. Intended for *verification only* (tests
    /// comparing outputs against ground truth); production algorithms must
    /// go through [`Oracle::call`].
    pub fn ground_truth(&self) -> &M {
        &self.metric
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "L1, L9: the tests pin the meter against un-metered ground truth"
)]
mod tests {
    use super::*;
    use crate::FnMetric;

    fn unit_metric(n: usize) -> FnMetric<impl Fn(ObjectId, ObjectId) -> f64> {
        FnMetric::new(n, 1.0, |_, _| 0.5)
    }

    #[test]
    fn counts_every_call() {
        let o = Oracle::new(unit_metric(10));
        assert_eq!(o.calls(), 0);
        o.call(0, 1);
        o.call(2, 3);
        o.call_pair(Pair::new(4, 5));
        assert_eq!(o.calls(), 3);
        o.reset();
        assert_eq!(o.calls(), 0);
    }

    #[test]
    #[should_panic(expected = "self-distance")]
    fn rejects_self_distance() {
        let o = Oracle::new(unit_metric(4));
        o.call(2, 2);
    }

    #[test]
    fn fallible_path_reports_self_distance_as_permanent() {
        let o = Oracle::new(unit_metric(4));
        assert_eq!(
            o.try_call(2, 2),
            Err(OracleError::Permanent {
                reason: "oracle called for a self-distance",
            })
        );
        assert_eq!(o.calls(), 0, "a rejected request is not billed");
    }

    #[test]
    fn virtual_time_accrues() {
        let o = Oracle::with_cost(unit_metric(4), Duration::from_millis(10));
        for _ in 0..7 {
            o.call(0, 1);
        }
        assert_eq!(o.virtual_time(), Duration::from_millis(70));
        assert_eq!(o.stats().calls, 7);
    }

    #[test]
    fn returns_metric_distances() {
        let m = FnMetric::new(3, 1.0, |a, b| f64::from(a + b) / 10.0);
        let o = Oracle::new(m);
        assert_eq!(o.call(1, 2), 0.3);
        assert_eq!(o.call(2, 1), 0.3);
    }

    #[test]
    fn try_call_matches_call_without_faults() {
        let m = FnMetric::new(3, 1.0, |a, b| f64::from(a + b) / 10.0);
        let o = Oracle::new(m);
        assert_eq!(o.try_call(1, 2), Ok(0.3));
        assert_eq!(o.calls(), 1);
        assert_eq!(o.fault_stats(), FaultStats::default());
    }

    #[test]
    fn retries_recover_from_transient_faults() {
        let o = Oracle::new(unit_metric(64))
            .with_faults(FaultInjector::new(0.5, 7))
            .with_retry(RetryPolicy::standard(40));
        for a in 0..20u32 {
            let d = o.try_call(a, a + 1).expect("40 retries at rate 0.5");
            assert_eq!(d, 0.5);
        }
        let fs = o.fault_stats();
        assert!(fs.faults_injected > 0, "rate 0.5 must fault somewhere");
        assert_eq!(
            fs.retries, fs.faults_injected,
            "every fault was retried (none exhausted the policy)"
        );
        assert!(fs.backoff_time > Duration::ZERO);
        assert_eq!(o.calls(), 20 + fs.faults_injected, "attempts are billed");
    }

    #[test]
    fn fault_without_retries_surfaces_the_error() {
        let o = Oracle::new(unit_metric(64)).with_faults(FaultInjector::new(1.0, 9));
        let err = o.try_call(0, 1).expect_err("rate 1.0, no retries");
        assert!(err.is_retryable());
        assert_eq!(o.calls(), 1, "the failed attempt is still billed");
    }

    #[test]
    fn call_budget_trips_before_billing() {
        let o = Oracle::new(unit_metric(64)).with_budget(CallBudget::calls(3));
        assert!(o.try_call(0, 1).is_ok());
        assert!(o.try_call(1, 2).is_ok());
        assert!(o.try_call(2, 3).is_ok());
        assert_eq!(
            o.try_call(3, 4),
            Err(OracleError::BudgetExhausted { calls: 3 })
        );
        assert_eq!(o.calls(), 3, "the rejected attempt was not billed");
    }

    #[test]
    fn deadline_guards_the_virtual_clock() {
        let o = Oracle::with_cost(unit_metric(64), Duration::from_millis(10))
            .with_budget(CallBudget::deadline(Duration::from_millis(25)));
        assert!(o.try_call(0, 1).is_ok());
        assert!(o.try_call(1, 2).is_ok());
        assert!(o.try_call(2, 3).is_ok(), "virtual clock at 20 ms < 25 ms");
        assert_eq!(
            o.try_call(3, 4),
            Err(OracleError::BudgetExhausted { calls: 3 })
        );
    }

    #[test]
    fn fault_schedule_is_reproducible() {
        let run = || {
            let o = Oracle::new(unit_metric(64))
                .with_faults(FaultInjector::new(0.3, 11))
                .with_retry(RetryPolicy::standard(20));
            for a in 0..30u32 {
                o.try_call(a, a + 1).expect("retries suffice");
            }
            (o.calls(), o.fault_stats(), o.virtual_time())
        };
        assert_eq!(run(), run(), "same seed, same schedule, same accounting");
    }

    #[test]
    fn trace_bills_exactly_the_call_counter() {
        use prox_obs::JsonlSink;
        let sink = Rc::new(JsonlSink::in_memory());
        let o = Oracle::new(unit_metric(64))
            .with_faults(FaultInjector::new(0.4, 3))
            .with_retry(RetryPolicy::standard(40))
            .with_trace(Rc::<JsonlSink>::clone(&sink));
        for a in 0..15u32 {
            o.try_call(a, a + 1).expect("retries suffice");
        }
        let s = prox_obs::summarize(&sink.contents().expect("mem sink")).expect("valid");
        assert_eq!(
            s.billed_calls,
            o.calls(),
            "trace reconciles with OracleStats"
        );
        assert_eq!(s.faults_injected, o.fault_stats().faults_injected);
        assert_eq!(s.retries, o.fault_stats().retries);
        assert_eq!(
            s.backoff_ns as u128,
            o.fault_stats().backoff_time.as_nanos(),
            "backoff is virtual and fully traced"
        );
    }

    #[test]
    fn trace_alone_does_not_change_accounting() {
        use prox_obs::NullSink;
        let plain = Oracle::new(unit_metric(8));
        let traced = Oracle::new(unit_metric(8)).with_trace(Rc::new(NullSink::new()));
        for o in [&plain, &traced] {
            assert_eq!(o.call(0, 1), 0.5);
            assert_eq!(o.try_call(1, 2), Ok(0.5));
        }
        assert_eq!(plain.calls(), traced.calls());
        assert_eq!(plain.virtual_time(), traced.virtual_time());
        assert_eq!(traced.trace().expect("attached").emitted(), 2);
    }

    #[test]
    fn budget_denial_is_traced_unbilled() {
        use prox_obs::JsonlSink;
        let sink = Rc::new(JsonlSink::in_memory());
        let o = Oracle::new(unit_metric(8))
            .with_budget(CallBudget::calls(1))
            .with_trace(Rc::<JsonlSink>::clone(&sink));
        assert!(o.try_call(0, 1).is_ok());
        assert!(o.try_call(1, 2).is_err());
        let s = prox_obs::summarize(&sink.contents().expect("mem sink")).expect("valid");
        assert_eq!(s.billed_calls, 1);
        assert_eq!(s.budget_denied, 1);
        assert_eq!(o.calls(), 1);
    }

    #[test]
    fn metrics_registry_mirrors_counters() {
        use prox_obs::Metrics;
        let m = Rc::new(Metrics::new());
        let o = Oracle::new(unit_metric(64))
            .with_faults(FaultInjector::new(0.5, 7))
            .with_retry(RetryPolicy::standard(40))
            .with_metrics(Rc::clone(&m));
        for a in 0..10u32 {
            o.try_call(a, a + 1).expect("retries suffice");
        }
        assert_eq!(m.counter(MetricName::OracleCalls), o.calls());
        assert_eq!(
            m.counter(MetricName::OracleFaults),
            o.fault_stats().faults_injected
        );
        assert_eq!(
            m.counter(MetricName::OracleRetries),
            o.fault_stats().retries
        );
        assert_eq!(
            m.histogram_count(MetricName::OracleRetryDepth),
            10,
            "one depth sample per successful logical call"
        );
    }

    #[test]
    fn corruption_changes_values_and_counts_exactly() {
        let clean_metric = || FnMetric::new(64, 1.0, |a, b| f64::from(a.min(b) + 1) / 64.0);
        let clean = Oracle::new(clean_metric());
        let lying = Oracle::new(clean_metric()).with_corruption(CorruptionInjector::new(0.3, 17));
        let mut changed = 0u64;
        for a in 0..40u32 {
            let p = Pair::new(a, a + 1);
            let truth = clean.call_pair(p);
            let answer = lying.call_pair(p);
            assert!(answer.is_finite() && (0.0..=1.0).contains(&answer));
            if answer.to_bits() != truth.to_bits() {
                changed += 1;
            }
        }
        assert!(changed > 0, "rate 0.3 must corrupt somewhere");
        assert_eq!(
            lying.fault_stats().corruptions_injected,
            changed,
            "every counted corruption changed the returned bits, and vice versa"
        );
        assert_eq!(
            lying.calls(),
            40,
            "corrupt calls are billed once like clean ones"
        );
    }

    #[test]
    fn corruption_rate_zero_is_value_exact() {
        let m = |n| FnMetric::new(n, 1.0, |a, b| f64::from(a + b) / 100.0);
        let clean = Oracle::new(m(16));
        let rate0 = Oracle::new(m(16)).with_corruption(CorruptionInjector::new(0.0, 17));
        for a in 0..15u32 {
            let p = Pair::new(a, a + 1);
            assert_eq!(clean.call_pair(p).to_bits(), rate0.call_pair(p).to_bits());
        }
        assert_eq!(rate0.fault_stats().corruptions_injected, 0);
    }

    #[test]
    fn replicas_are_independent_corruption_draws() {
        let m = FnMetric::new(64, 1.0, |a, b| f64::from(a + b) / 128.0);
        let o = Oracle::new(m).with_corruption(CorruptionInjector::new(0.5, 9));
        let truth = o.ground_truth().distance(3, 4);
        let p = Pair::new(3, 4);
        // Same replica: bitwise-identical answer every time.
        let r2a = o.try_call_replica(p, 2).expect("no fail-stop faults");
        let r2b = o.try_call_replica(p, 2).expect("no fail-stop faults");
        assert_eq!(r2a.to_bits(), r2b.to_bits());
        // Across replicas, some pair must disagree at rate 0.5.
        let differs = (0..50u32).any(|a| {
            let p = Pair::new(a, a + 1);
            let v0 = o.try_call_replica(p, 0).expect("clean");
            let v1 = o.try_call_replica(p, 1).expect("clean");
            v0.to_bits() != v1.to_bits()
        });
        assert!(differs, "independent replicas should disagree somewhere");
        // And the majority of replicas of any pair must be the truth at
        // rate 0.5... not guaranteed pairwise; just check replica draws
        // can also agree with the truth.
        let any_truth = (0..8u32)
            .any(|r| o.try_call_replica(p, r).expect("clean").to_bits() == truth.to_bits());
        assert!(any_truth, "some replica tells the truth");
    }

    #[test]
    fn corruption_is_deterministic_across_runs() {
        let run = || {
            let m = FnMetric::new(64, 1.0, |a, b| f64::from(a.max(b)) / 64.0);
            let o = Oracle::new(m).with_corruption(CorruptionInjector::new(0.2, 23));
            let mut acc = Vec::new();
            for a in 0..30u32 {
                acc.push(o.call(a, a + 1).to_bits());
            }
            (acc, o.fault_stats().corruptions_injected)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reset_clears_fault_counters() {
        let o = Oracle::new(unit_metric(64))
            .with_faults(FaultInjector::new(0.9, 5))
            .with_retry(RetryPolicy::standard(30));
        for a in 0..5u32 {
            o.try_call(a, a + 1).expect("retries suffice");
        }
        o.reset();
        assert_eq!(o.calls(), 0);
        assert_eq!(o.fault_stats(), FaultStats::default());
        assert_eq!(o.virtual_time(), Duration::ZERO);
    }
}
