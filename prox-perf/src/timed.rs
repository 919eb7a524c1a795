//! Timing wrappers around the program's public layer traits.
//!
//! [`TimedMetric`], [`TimedScheme`] and [`TimedResolver`] sit between two
//! layers and time every call that crosses. Each forwards **every** trait
//! method to the wrapped value, defaulted ones included: a method left to
//! its default body would run that body against the wrapper instead of the
//! wrapped type's override (SPLUB's `bounds_for_goal`, Tri's `pair_stamp`,
//! the resolver's fallible twins), silently changing which code paths run
//! and so what is being measured. The pinning test in `algo.rs` checks that
//! wrapped runs keep outputs, oracle calls and provenance rows identical.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use prox_bounds::{BoundScheme, CorruptionStats, DistanceResolver, GoalBounds, WeakStats};
use prox_core::{
    Degradation, Metric, ObjectId, OracleError, Pair, PruneStats, QueryGoal, SpecBounds,
};
use prox_obs::{Metrics, ProvenanceLedger, TraceSink};

use crate::stats::LogHist;

/// Calls, busy time and a latency histogram for one layer boundary.
#[derive(Default)]
pub struct Layer {
    calls: Cell<u64>,
    busy_ns: Cell<u64>,
    hist: LogHist,
}

impl Layer {
    #[inline]
    fn add(&self, elapsed: Duration) {
        let ns = elapsed.as_nanos() as u64;
        self.calls.set(self.calls.get() + 1);
        self.busy_ns.set(self.busy_ns.get() + ns);
        self.hist.record(ns);
    }

    /// Calls that crossed the boundary.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Total time spent below the boundary, in seconds.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns.get() as f64 * 1e-9
    }

    /// Per-call latency histogram.
    pub fn hist(&self) -> &LogHist {
        &self.hist
    }
}

/// Times `$call` into `$layer`.
macro_rules! timed {
    ($layer:expr, $call:expr) => {{
        let start = Instant::now();
        let out = $call;
        $layer.add(start.elapsed());
        out
    }};
}

/// A [`Metric`] that counts and times `distance` calls. Counters are
/// atomic so the serve workload can share one across its worker threads.
pub struct TimedMetric<M> {
    inner: M,
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

impl<M: Metric> TimedMetric<M> {
    /// Wraps `inner`.
    pub fn new(inner: M) -> Self {
        TimedMetric {
            inner,
            calls: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }

    /// `distance` calls so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Time spent in `distance`, in seconds.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

impl<M: Metric> Metric for TimedMetric<M> {
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
    fn distance(&self, a: ObjectId, b: ObjectId) -> f64 {
        let start = Instant::now();
        let d = self.inner.distance(a, b);
        let ns = start.elapsed().as_nanos() as u64;
        // Plain statistics that publish no other data.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        d
    }
    fn max_distance(&self) -> f64 {
        self.inner.max_distance()
    }
}

/// A [`BoundScheme`] that times the BOUNDS problem (`bounds`,
/// `lower_bound`, `upper_bound`, `bounds_for_goal`) as queries and the
/// UPDATE problem (`record`, `retract`) as updates. Constant-time getters
/// are forwarded untimed.
pub struct TimedScheme<S> {
    inner: S,
    /// Bound queries.
    pub query: Layer,
    /// Knowledge updates.
    pub update: Layer,
}

impl<S: BoundScheme> TimedScheme<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        TimedScheme {
            inner,
            query: Layer::default(),
            update: Layer::default(),
        }
    }
}

impl<S: BoundScheme> BoundScheme for TimedScheme<S> {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn max_distance(&self) -> f64 {
        self.inner.max_distance()
    }
    fn known(&self, p: Pair) -> Option<f64> {
        self.inner.known(p)
    }
    fn bounds(&mut self, p: Pair) -> (f64, f64) {
        timed!(self.query, self.inner.bounds(p))
    }
    fn lower_bound(&mut self, p: Pair) -> f64 {
        timed!(self.query, self.inner.lower_bound(p))
    }
    fn upper_bound(&mut self, p: Pair) -> f64 {
        timed!(self.query, self.inner.upper_bound(p))
    }
    fn record(&mut self, p: Pair, d: f64) {
        timed!(self.update, self.inner.record(p, d))
    }
    fn retract(&mut self, p: Pair) -> bool {
        timed!(self.update, self.inner.retract(p))
    }
    fn m(&self) -> usize {
        self.inner.m()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn for_each_known(&self, f: &mut dyn FnMut(Pair, f64)) {
        self.inner.for_each_known(f)
    }
    fn generation(&self) -> u64 {
        self.inner.generation()
    }
    fn pair_stamp(&self, p: Pair) -> u64 {
        self.inner.pair_stamp(p)
    }
    fn spec(&self) -> Option<&dyn SpecBounds> {
        self.inner.spec()
    }
    fn bounds_cacheable(&self) -> bool {
        self.inner.bounds_cacheable()
    }
    fn goal_aware(&self) -> bool {
        self.inner.goal_aware()
    }
    fn bounds_for_goal(&mut self, p: Pair, goal: QueryGoal) -> GoalBounds {
        timed!(self.query, self.inner.bounds_for_goal(p, goal))
    }
}

/// A [`DistanceResolver`] that times every call an algorithm makes into
/// the resolver. Only outermost calls are seen: the wrapped resolver's
/// combinators call its own `try_*`/`resolve`, never the wrapper's, so
/// nothing is counted twice. Reporting getters are forwarded untimed.
pub struct TimedResolver<R> {
    inner: R,
    /// Calls from the algorithm into the resolver.
    pub layer: Layer,
}

impl<R: DistanceResolver> TimedResolver<R> {
    /// Wraps `inner`.
    pub fn new(inner: R) -> Self {
        TimedResolver {
            inner,
            layer: Layer::default(),
        }
    }

    /// The wrapped resolver.
    pub fn inner(&self) -> &R {
        &self.inner
    }
}

impl<R: DistanceResolver> DistanceResolver for TimedResolver<R> {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn max_distance(&self) -> f64 {
        self.inner.max_distance()
    }
    fn known(&self, p: Pair) -> Option<f64> {
        timed!(self.layer, self.inner.known(p))
    }
    fn resolve(&mut self, p: Pair) -> f64 {
        timed!(self.layer, self.inner.resolve(p))
    }
    fn resolve_fallible(&mut self, p: Pair) -> Result<f64, OracleError> {
        timed!(self.layer, self.inner.resolve_fallible(p))
    }
    fn try_less(&mut self, x: Pair, y: Pair) -> Option<bool> {
        timed!(self.layer, self.inner.try_less(x, y))
    }
    fn try_less_value(&mut self, x: Pair, v: f64) -> Option<bool> {
        timed!(self.layer, self.inner.try_less_value(x, v))
    }
    fn try_leq_value(&mut self, x: Pair, v: f64) -> Option<bool> {
        timed!(self.layer, self.inner.try_leq_value(x, v))
    }
    fn try_less_sum2(&mut self, x: (Pair, Pair), y: (Pair, Pair)) -> Option<bool> {
        timed!(self.layer, self.inner.try_less_sum2(x, y))
    }
    fn try_sum_less_value(&mut self, terms: &[Pair], v: f64) -> Option<bool> {
        timed!(self.layer, self.inner.try_sum_less_value(terms, v))
    }
    fn lower_bound_hint(&mut self, x: Pair) -> f64 {
        timed!(self.layer, self.inner.lower_bound_hint(x))
    }
    fn bounds_hint(&mut self, x: Pair) -> (f64, f64) {
        timed!(self.layer, self.inner.bounds_hint(x))
    }
    fn preload(&mut self, p: Pair, d: f64) {
        timed!(self.layer, self.inner.preload(p, d))
    }
    fn preload_weak(&mut self, p: Pair, d: f64) {
        timed!(self.layer, self.inner.preload_weak(p, d))
    }
    fn provenance(&self) -> ProvenanceLedger {
        self.inner.provenance()
    }
    fn export_known(&self, out: &mut Vec<(Pair, f64)>) {
        self.inner.export_known(out)
    }
    fn corruption_stats(&self) -> CorruptionStats {
        self.inner.corruption_stats()
    }
    fn weak_stats(&self) -> WeakStats {
        self.inner.weak_stats()
    }
    fn degradation(&self) -> Option<Degradation> {
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
    fn spec(&self) -> Option<&dyn SpecBounds> {
        self.inner.spec()
    }
    fn trace_sink(&self) -> Option<Rc<dyn TraceSink>> {
        self.inner.trace_sink()
    }
    fn obs_metrics(&self) -> Option<Rc<Metrics>> {
        self.inner.obs_metrics()
    }
    fn less(&mut self, x: Pair, y: Pair) -> bool {
        timed!(self.layer, self.inner.less(x, y))
    }
    fn distance_if_less(&mut self, x: Pair, v: f64) -> Option<f64> {
        timed!(self.layer, self.inner.distance_if_less(x, v))
    }
    fn less_sum2(&mut self, x: (Pair, Pair), y: (Pair, Pair)) -> bool {
        timed!(self.layer, self.inner.less_sum2(x, y))
    }
    fn distance_if_leq(&mut self, x: Pair, v: f64) -> Option<f64> {
        timed!(self.layer, self.inner.distance_if_leq(x, v))
    }
    fn less_fallible(&mut self, x: Pair, y: Pair) -> Result<bool, OracleError> {
        timed!(self.layer, self.inner.less_fallible(x, y))
    }
    fn distance_if_less_fallible(&mut self, x: Pair, v: f64) -> Result<Option<f64>, OracleError> {
        timed!(self.layer, self.inner.distance_if_less_fallible(x, v))
    }
    fn less_sum2_fallible(
        &mut self,
        x: (Pair, Pair),
        y: (Pair, Pair),
    ) -> Result<bool, OracleError> {
        timed!(self.layer, self.inner.less_sum2_fallible(x, y))
    }
    fn distance_if_leq_fallible(&mut self, x: Pair, v: f64) -> Result<Option<f64>, OracleError> {
        timed!(self.layer, self.inner.distance_if_leq_fallible(x, v))
    }
}
