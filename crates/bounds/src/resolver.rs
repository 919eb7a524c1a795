//! The resolver framework: re-authored IF statements (§3 of the paper).

use std::rc::Rc;

use prox_core::invariant;
use prox_core::invariant::{expect_ok, expect_some};
use prox_core::{
    Degradation, Metric, Oracle, OracleError, Pair, PruneStats, QueryGoal, SpecBounds,
};
use prox_obs::{
    quantize_width, CorruptionAction, MetricName, Metrics, ProbeKind, ProbeVerdict,
    ProvenanceLedger, TraceEvent, TraceSink,
};

use crate::audit::{AuditPolicy, AuditState, CorruptionStats, VOTE_CAP};
use crate::cascade::WeakStats;
use crate::memo::BoundMemo;
use crate::scheme::GoalBounds;
use crate::{BoundScheme, NoScheme};

/// Rounding margin applied to every bound-based decision.
///
/// Derived bounds are floating-point sums/differences of metric values, and
/// float metrics themselves can violate the triangle inequality in the last
/// ulp (e.g. a Euclidean distance vs. the rounded sum along a collinear
/// triple). Deciding a comparison only when the bounds clear this margin
/// keeps plugged runs byte-identical to vanilla runs even under such
/// ulp-level noise; near-ties simply fall through and are compared exactly.
/// Distances are normalized to `[0, 1]`, so an absolute margin suffices.
pub const DECISION_EPS: f64 = 1e-12;

/// Guard band for cascade-tier (goal-aware) decisions — see DESIGN.md §13.
///
/// The cascade's bidirectional tier estimates bounds from *split* float
/// sums (`df(u) + db(u)`) that can round a few ulps past the exact tier's
/// left-folded path sums. It may therefore claim a comparison against `v`
/// decided only when its estimate clears `v` by this margin: since `CASCADE_EPS` minus the worst-case rounding slack still
/// exceeds [`DECISION_EPS`], a cascade-decisive verdict is always the
/// verdict the exact sandwich would give (for both `<` and `≤` probes).
/// Near-threshold queries fall through to the exact tier, so the margin
/// costs tightness, never correctness.
pub const CASCADE_EPS: f64 = 1e-9;

/// Decides `d < v` (or `d ≤ v` when `leq`) from a sandwich `lb ≤ d ≤ ub`:
/// `Some(verdict)` when the bounds clear `v` by [`DECISION_EPS`], `None`
/// when they straddle it. A collapsed sandwich (`lb == ub`, an exactly
/// known or pinched-exact value) carries no derivation noise and compares
/// as the oracle itself would.
fn try_decide_value(lb: f64, ub: f64, v: f64, leq: bool) -> Option<bool> {
    if lb == ub {
        // Exact value: no margin. lint: allow(L3)
        return Some(if leq { lb <= v } else { lb < v });
    }
    let (below, above) = if leq {
        (ub <= v - DECISION_EPS, lb > v + DECISION_EPS)
    } else {
        (ub < v - DECISION_EPS, lb >= v + DECISION_EPS)
    };
    if below {
        Some(true)
    } else if above {
        Some(false)
    } else {
        None
    }
}

/// The provenance row a threshold probe's decision is attributed to.
#[derive(Copy, Clone, PartialEq, Eq)]
enum ValueTier {
    /// The cascade is off: counted in the `direct` row by subtraction.
    Direct,
    /// The cascade's bounded bidirectional search certified the verdict.
    Bidi,
    /// The cascade fell back to the exact sandwich (memo or full tier).
    Full,
}

/// What a proximity algorithm is written against.
///
/// The paper's recipe for adapting an existing algorithm is mechanical:
/// every `if dist(a,b) < dist(c,d)` becomes a [`DistanceResolver::less`]
/// call, every `if dist(a,b) < threshold` becomes
/// [`DistanceResolver::distance_if_less`], and every plain distance fetch
/// becomes [`DistanceResolver::resolve`]. The resolver first tries to decide
/// the comparison from bounds (`try_*`), and only falls back to oracle
/// resolution when the bounds are inconclusive. Because the fallback always
/// yields exact distances, **the plugged algorithm's output is identical to
/// the vanilla algorithm's** — only the number of oracle calls changes.
pub trait DistanceResolver {
    /// Number of objects.
    fn n(&self) -> usize;

    /// The a-priori distance cap.
    fn max_distance(&self) -> f64;

    /// Exact distance if already known (never calls the oracle).
    #[must_use]
    fn known(&self, p: Pair) -> Option<f64>;

    /// Exact distance, calling the oracle if necessary.
    fn resolve(&mut self, p: Pair) -> f64;

    /// Fallible twin of [`DistanceResolver::resolve`], for fault-aware
    /// callers: resolution failures (`prox_core::OracleError`) surface as
    /// values instead of panics, and a failed attempt records *nothing* —
    /// the resolver's knowledge and stats advance only on success.
    ///
    /// The default forwards to `resolve`, which is correct for resolvers
    /// that never touch a fallible oracle (test doubles); oracle-backed
    /// resolvers override it.
    fn resolve_fallible(&mut self, p: Pair) -> Result<f64, OracleError> {
        Ok(self.resolve(p))
    }

    /// Tries to decide `dist(x) < dist(y)` without the oracle.
    #[must_use = "a discarded verdict wastes the bound derivation"]
    fn try_less(&mut self, x: Pair, y: Pair) -> Option<bool>;

    /// Tries to decide `dist(x) < v` without the oracle.
    #[must_use = "a discarded verdict wastes the bound derivation"]
    fn try_less_value(&mut self, x: Pair, v: f64) -> Option<bool>;

    /// Tries to decide `dist(x) <= v` without the oracle (`Some(false)` only
    /// when the lower bound strictly exceeds `v`). Algorithms that must
    /// inspect *ties* exactly — e.g. kNN breaking equal distances by id —
    /// use this instead of [`DistanceResolver::try_less_value`].
    #[must_use = "a discarded verdict wastes the bound derivation"]
    fn try_leq_value(&mut self, x: Pair, v: f64) -> Option<bool>;

    /// Tries to decide the **aggregate** comparison
    /// `dist(x.0) + dist(x.1) < dist(y.0) + dist(y.1)` without the oracle.
    ///
    /// This is the 2-opt / edge-exchange IF statement (`d(a,b) + d(c,d)` vs
    /// `d(a,c) + d(b,d)`). Bound resolvers decide it by interval sums; the
    /// DFT resolver runs a joint feasibility test, which is strictly
    /// stronger on sums (the terms are coupled through shared triangles).
    #[must_use = "a discarded verdict wastes the bound derivation"]
    fn try_less_sum2(&mut self, x: (Pair, Pair), y: (Pair, Pair)) -> Option<bool>;

    /// Tries to decide `Σ dist(t) < v` over an arbitrary list of terms
    /// without the oracle — the N-ary generalization of
    /// [`DistanceResolver::try_less_sum2`], consumed by sum-aggregate
    /// algorithms (average-linkage cluster distances, facility-location
    /// objectives).
    ///
    /// The default sums per-term interval bounds, with the usual rounding
    /// margin scaled by the term count. The DFT resolver overrides it with
    /// a joint feasibility test over the whole triangle polytope, which is
    /// strictly stronger: with `d(a,c) = 0.9` known, the unknowns `d(a,b)`
    /// and `d(b,c)` each lie in `[0, 1]` — interval arithmetic bounds the
    /// sum by `0` while the LP certifies `Σ ≥ 0.9`.
    #[must_use = "a discarded verdict wastes the bound derivation"]
    fn try_sum_less_value(&mut self, terms: &[Pair], v: f64) -> Option<bool> {
        let mut lo = 0.0f64;
        let mut hi = 0.0f64;
        for &t in terms {
            let (l, u) = self.bounds_hint(t);
            lo += l;
            hi += u;
        }
        let margin = DECISION_EPS * terms.len().max(1) as f64;
        if hi < v - margin {
            Some(true)
        } else if lo >= v + margin {
            Some(false)
        } else {
            None
        }
    }

    /// Current lower bound for `x` (`0` when the resolver has no scheme).
    /// Used by algorithms that *order* candidates by optimistic distance
    /// (lazy Kruskal, kNN sweeps); correctness never depends on tightness.
    fn lower_bound_hint(&mut self, x: Pair) -> f64;

    /// Current `(lower, upper)` bounds for `x` — `(d, d)` when known,
    /// `(0, max_distance)` when the resolver derives nothing. Algorithms
    /// that maintain *interval* state over aggregates (complete-linkage's
    /// cluster distances) consume both ends; correctness never depends on
    /// tightness, only on soundness.
    fn bounds_hint(&mut self, x: Pair) -> (f64, f64);

    /// Injects externally-known distances (a persisted cache from an
    /// earlier run — see `prox_core::persist`) without touching the oracle.
    fn preload(&mut self, p: Pair, d: f64);

    /// Installs a value adopted from a weak-replica quorum (see
    /// `crate::cascade`). Semantically a resolution — the caller observed
    /// the value through the resolver, so `resolved` is billed — but
    /// provenance-aware resolvers attribute it to the `weak_quorum` ledger
    /// row instead of `strong_call`. The default keeps the historical
    /// accounting for resolvers with no ledger.
    fn preload_weak(&mut self, p: Pair, d: f64) {
        self.preload(p, d);
        self.prune_stats_mut().resolved += 1;
    }

    /// Provenance ledger: how every resolution this resolver served was
    /// sourced (strong call, weak quorum, memo, checkpoint preload,
    /// bound-decisive tier). The default — an empty ledger — is correct
    /// for resolvers that do not track provenance; ledger-aware callers
    /// treat it as "no claim", not "zero resolutions".
    fn provenance(&self) -> ProvenanceLedger {
        ProvenanceLedger::default()
    }

    /// Appends every pair whose exact distance this resolver can certify —
    /// the payload to persist for the next run.
    fn export_known(&self, out: &mut Vec<(Pair, f64)>);

    /// Corruption-audit counters. Non-zero only for resolvers that carry
    /// the untrusted-oracle audit layer (see `crate::audit`); the default
    /// — all zero — is correct for resolvers that trust their oracle.
    fn corruption_stats(&self) -> CorruptionStats {
        CorruptionStats::default()
    }

    /// Weak-tier counters. Non-zero only for resolvers that carry the
    /// weak/strong cascade layer (see `crate::cascade`); the default —
    /// all zero — is correct for resolvers with no weak tier.
    fn weak_stats(&self) -> WeakStats {
        WeakStats::default()
    }

    /// Degradation report: `Some` once a cascade resolver has lost its
    /// strong tier and switched to weak+bounds-only service (see
    /// `crate::cascade`). `None` — the default — means fully healthy:
    /// every resolution served was certified.
    fn degradation(&self) -> Option<Degradation> {
        None
    }

    /// Pruning counters.
    fn prune_stats(&self) -> PruneStats;

    /// Mutable access to the counters (used by the provided methods).
    fn prune_stats_mut(&mut self) -> &mut PruneStats;

    /// Monotone generation counter of the resolver's bound state (`0` when
    /// the resolver does not track one).
    ///
    /// No workspace code calls this, [`DistanceResolver::pair_stamp`] or
    /// [`DistanceResolver::spec`]. The three stay because the benchmark's
    /// `TimedResolver` forwards them; they go with it (ROADMAP item 8).
    fn generation(&self) -> u64 {
        0
    }

    /// Upper bound on the last generation at which bound-derived answers
    /// for `x` may have changed. The default, `u64::MAX` ("always stale"),
    /// is the safe answer for resolvers that cannot track freshness. No
    /// workspace code calls it (see [`DistanceResolver::generation`]).
    fn pair_stamp(&self, x: Pair) -> u64 {
        let _ = x;
        u64::MAX
    }

    /// A read-only view of the resolver's bound state. Always `None`: no
    /// workspace resolver overrides it and no workspace code calls it (see
    /// [`DistanceResolver::generation`]).
    fn spec(&self) -> Option<&dyn SpecBounds> {
        None
    }

    /// The trace sink this resolver emits [`TraceEvent::BoundProbe`]
    /// events into, if any. Wrapper resolvers forward to the inner
    /// resolver so algorithms can open spans through any layering; `None`
    /// (the default) means untraced.
    fn trace_sink(&self) -> Option<Rc<dyn TraceSink>> {
        None
    }

    /// The metrics registry this resolver observes into, if any.
    fn obs_metrics(&self) -> Option<Rc<Metrics>> {
        None
    }

    /// Decides `dist(x) < dist(y)`, resolving both distances only when the
    /// bounds are inconclusive. This is the re-authored
    /// `if dist(o_i,o_j) ≥ dist(o_k,o_l)` statement from §3.
    fn less(&mut self, x: Pair, y: Pair) -> bool {
        match self.try_less(x, y) {
            Some(b) => {
                self.prune_stats_mut().decided_by_bounds += 1;
                b
            }
            None => {
                self.prune_stats_mut().fell_through += 1;
                self.resolve(x) < self.resolve(y)
            }
        }
    }

    /// Returns `Some(dist(x))` iff `dist(x) < v`, resolving only when the
    /// bounds cannot rule the candidate out. This is the dominant idiom in
    /// Prim / PAM / kNN: "is this candidate closer than my current best —
    /// and if so, how close exactly?"
    fn distance_if_less(&mut self, x: Pair, v: f64) -> Option<f64> {
        match self.try_less_value(x, v) {
            Some(false) => {
                // Bounds proved dist(x) >= v: candidate discarded for free.
                self.prune_stats_mut().decided_by_bounds += 1;
                None
            }
            Some(true) => {
                // The comparison is decided but the caller needs the value.
                self.prune_stats_mut().decided_by_bounds += 1;
                Some(self.resolve(x))
            }
            None => {
                self.prune_stats_mut().fell_through += 1;
                let d = self.resolve(x);
                (d < v).then_some(d)
            }
        }
    }

    /// Decides the 2-opt aggregate comparison, resolving all four distances
    /// when the try is inconclusive.
    fn less_sum2(&mut self, x: (Pair, Pair), y: (Pair, Pair)) -> bool {
        match self.try_less_sum2(x, y) {
            Some(b) => {
                self.prune_stats_mut().decided_by_bounds += 1;
                b
            }
            None => {
                self.prune_stats_mut().fell_through += 1;
                self.resolve(x.0) + self.resolve(x.1) < self.resolve(y.0) + self.resolve(y.1)
            }
        }
    }

    /// Returns `Some(dist(x))` iff `dist(x) <= v` — the tie-inclusive
    /// sibling of [`DistanceResolver::distance_if_less`].
    fn distance_if_leq(&mut self, x: Pair, v: f64) -> Option<f64> {
        match self.try_leq_value(x, v) {
            Some(false) => {
                self.prune_stats_mut().decided_by_bounds += 1;
                None
            }
            Some(true) => {
                self.prune_stats_mut().decided_by_bounds += 1;
                Some(self.resolve(x))
            }
            None => {
                self.prune_stats_mut().fell_through += 1;
                let d = self.resolve(x);
                (d <= v).then_some(d)
            }
        }
    }

    // ----- Fallible combinators ------------------------------------------
    //
    // Fault-aware twins of the re-authored IF statements above. Each one
    // performs *exactly* the same bound probes and stats accounting as its
    // infallible sibling — a run that never faults takes identical
    // decisions with identical `PruneStats` — and propagates the first
    // oracle failure instead of panicking.

    /// Fallible [`DistanceResolver::less`].
    fn less_fallible(&mut self, x: Pair, y: Pair) -> Result<bool, OracleError> {
        match self.try_less(x, y) {
            Some(b) => {
                self.prune_stats_mut().decided_by_bounds += 1;
                Ok(b)
            }
            None => {
                self.prune_stats_mut().fell_through += 1;
                Ok(self.resolve_fallible(x)? < self.resolve_fallible(y)?)
            }
        }
    }

    /// Fallible [`DistanceResolver::distance_if_less`].
    fn distance_if_less_fallible(&mut self, x: Pair, v: f64) -> Result<Option<f64>, OracleError> {
        match self.try_less_value(x, v) {
            Some(false) => {
                self.prune_stats_mut().decided_by_bounds += 1;
                Ok(None)
            }
            Some(true) => {
                self.prune_stats_mut().decided_by_bounds += 1;
                Ok(Some(self.resolve_fallible(x)?))
            }
            None => {
                self.prune_stats_mut().fell_through += 1;
                let d = self.resolve_fallible(x)?;
                Ok((d < v).then_some(d))
            }
        }
    }

    /// Fallible [`DistanceResolver::less_sum2`].
    fn less_sum2_fallible(
        &mut self,
        x: (Pair, Pair),
        y: (Pair, Pair),
    ) -> Result<bool, OracleError> {
        match self.try_less_sum2(x, y) {
            Some(b) => {
                self.prune_stats_mut().decided_by_bounds += 1;
                Ok(b)
            }
            None => {
                self.prune_stats_mut().fell_through += 1;
                let lhs = self.resolve_fallible(x.0)? + self.resolve_fallible(x.1)?;
                let rhs = self.resolve_fallible(y.0)? + self.resolve_fallible(y.1)?;
                Ok(lhs < rhs)
            }
        }
    }

    /// Fallible [`DistanceResolver::distance_if_leq`].
    fn distance_if_leq_fallible(&mut self, x: Pair, v: f64) -> Result<Option<f64>, OracleError> {
        match self.try_leq_value(x, v) {
            Some(false) => {
                self.prune_stats_mut().decided_by_bounds += 1;
                Ok(None)
            }
            Some(true) => {
                self.prune_stats_mut().decided_by_bounds += 1;
                Ok(Some(self.resolve_fallible(x)?))
            }
            None => {
                self.prune_stats_mut().fell_through += 1;
                let d = self.resolve_fallible(x)?;
                Ok((d <= v).then_some(d))
            }
        }
    }
}

/// A [`BoundScheme`] wired to an [`Oracle`].
pub struct BoundResolver<'o, M: Metric, S: BoundScheme> {
    oracle: &'o Oracle<M>,
    scheme: S,
    stats: PruneStats,
    /// Generation-stamped `(lb, ub, generation + 1)` memo, used when the
    /// scheme opts in via [`BoundScheme::bounds_cacheable`]. A hit is
    /// served only while `scheme.pair_stamp(p) <= generation`, i.e. while
    /// the cached value is bitwise what the scheme would recompute — a
    /// repeated probe then costs one indexed load instead of a Tri merge
    /// or two Dijkstras. The table is direct-mapped by pair rank with at
    /// most 2^16 slots (1.5 MB, see `crate::memo`), allocated zeroed on the
    /// first insert, so a resolver that never probes bounds never
    /// allocates it. Up to n = 362 every pair owns its slot; above that a
    /// pair whose slot holds another pair's tag misses and is recomputed.
    /// A miss therefore costs time, never a different answer or a
    /// different provenance row (DESIGN.md §8). Hits and misses are
    /// deliberately *not* counted in [`PruneStats`]: the memo must not
    /// change any observable accounting.
    ///
    /// A pair whose `pair_stamp` reads `u64::MAX` (a Tri anchor's
    /// first-visit row) is neither looked up nor stored: its probe would
    /// pay for a slot read that cannot hit and a write nothing reads.
    bcache: Option<BoundMemo>,
    cache_on: bool,
    /// Observation handles, cloned from the oracle once at construction
    /// ("checked once per resolver construction"): the disabled hot path
    /// tests a pre-resolved `Option` discriminant and nothing else.
    trace: Option<Rc<dyn TraceSink>>,
    metrics: Option<Rc<Metrics>>,
    /// Untrusted-oracle defence (`None` = the oracle is trusted and every
    /// fresh value is accepted as-is). See `crate::audit`.
    audit: Option<AuditState>,
    /// Resolutions installed via [`DistanceResolver::preload_weak`]:
    /// billed in `stats.resolved` but attributed to the `weak_quorum`
    /// provenance row, never `strong_call`.
    weak_preloads: u64,
    /// Goal-aware cascade decisions by tier, for provenance attribution.
    /// Every other bound decision lands in the `direct` tier by
    /// subtraction (`decided_by_bounds − Σ tiers`).
    dec_bidi: u64,
    dec_full: u64,
}

impl<'o, M: Metric, S: BoundScheme> BoundResolver<'o, M, S> {
    /// Wires `scheme` to `oracle`. The scheme may already hold knowledge
    /// (e.g. LAESA rows or a Tri Scheme pre-loaded by a bootstrap).
    pub fn new(oracle: &'o Oracle<M>, scheme: S) -> Self {
        assert_eq!(
            oracle.n(),
            scheme.n(),
            "oracle and scheme must cover the same objects"
        );
        let cache_on = scheme.bounds_cacheable();
        BoundResolver {
            trace: oracle.trace(),
            metrics: oracle.metrics(),
            oracle,
            scheme,
            stats: PruneStats::default(),
            bcache: None,
            cache_on,
            audit: None,
            weak_preloads: 0,
            dec_bidi: 0,
            dec_full: 0,
        }
    }

    /// Enables the untrusted-oracle audit layer: sandwich-checking every
    /// accepted value (and, with `policy.vote_k >= 2`, vote-confirming
    /// every fresh resolution). See `crate::audit` for the trust model.
    pub fn with_audit(mut self, policy: AuditPolicy) -> Self {
        self.audit = Some(AuditState::new(policy));
        self
    }

    fn audit_mut(&mut self) -> &mut AuditState {
        expect_some(self.audit.as_mut(), "audited path without audit state")
    }

    /// Emits one [`TraceEvent::Corruption`]. For vote losers `lb == ub ==`
    /// the winning value; for sandwich violations they are the violated
    /// certified interval.
    #[cold]
    fn note_corruption(&self, p: Pair, action: CorruptionAction, value: f64, lb: f64, ub: f64) {
        if let Some(t) = &self.trace {
            t.emit(TraceEvent::Corruption {
                lo: p.lo(),
                hi: p.hi(),
                action,
                value,
                lb,
                ub,
            });
        }
    }

    /// First-to-`k` bit-exact vote over fresh replicas of `p`. The agreed
    /// value is returned; every disagreeing replica is counted and traced
    /// as a detection (the deterministic corruption schedule changes the
    /// bits whenever it fires, so a corrupted replica cannot reach quorum
    /// against clean ones). The per-pair quarantine cursor advances past
    /// all queried replicas, and calls beyond the first accumulate into
    /// `CorruptionStats::requeries`.
    fn voted_value(&mut self, p: Pair, k: u32) -> Result<f64, OracleError> {
        let start = self.audit_mut().cursor(p);
        let mut tallies: Vec<(u64, u32)> = Vec::new();
        let mut queried: Vec<f64> = Vec::new();
        let mut r = start;
        let winner = loop {
            invariant!(
                r - start < VOTE_CAP,
                "no {k} replicas of pair ({}, {}) agree within {VOTE_CAP} queries; \
                 the oracle is unusable",
                p.lo(),
                p.hi()
            );
            let v = self.oracle.try_call_replica(p, r)?;
            r += 1;
            queried.push(v);
            let bits = v.to_bits();
            let count = match tallies.iter_mut().find(|(b, _)| *b == bits) {
                Some((_, c)) => {
                    *c += 1;
                    *c
                }
                None => {
                    tallies.push((bits, 1));
                    1
                }
            };
            if count >= k {
                break v;
            }
        };
        let a = self.audit_mut();
        a.advance(p, r);
        a.stats.requeries += u64::from(r - start - 1);
        for v in queried {
            if v.to_bits() != winner.to_bits() {
                self.audit_mut().stats.detected += 1;
                self.note_corruption(p, CorruptionAction::Detected, v, winner, winner);
            }
        }
        Ok(winner)
    }

    /// Audited fresh resolution (`p` not yet known to the scheme).
    /// Voting mode accepts only quorum values; detection mode accepts the
    /// first answer iff it fits the certified `[TLB, TUB]` sandwich and
    /// escalates — trusted re-vote, then at worst a full re-verification
    /// sweep — when it does not.
    fn resolve_audited(&mut self, p: Pair) -> Result<f64, OracleError> {
        let policy = self.audit_mut().policy;
        if policy.always_votes() {
            let d = self.voted_value(p, policy.vote_k)?;
            self.scheme.record(p, d);
            self.stats.resolved += 1;
            return Ok(d);
        }
        // Detection mode. The sandwich is certified by previously accepted
        // values via the triangle inequality: a fresh value outside it is a
        // *proven* lie (no metric satisfies both), the violated bound being
        // the witness.
        let (lb, ub) = self.cached_bounds(p);
        let r0 = self.audit_mut().cursor(p);
        let v = self.oracle.try_call_replica(p, r0)?;
        self.audit_mut().advance(p, r0 + 1);
        if v >= lb - DECISION_EPS && v <= ub + DECISION_EPS {
            self.scheme.record(p, v);
            self.stats.resolved += 1;
            return Ok(v);
        }
        self.audit_mut().stats.detected += 1;
        self.note_corruption(p, CorruptionAction::Detected, v, lb, ub);
        // Quarantine + trusted re-query: the cursor already points past the
        // lying replica, and 2-of-n agreement screens the replacement. The
        // vote's first call is overhead too, hence the extra requery tick.
        let trusted = self.voted_value(p, 2)?;
        self.audit_mut().stats.requeries += 1;
        let fits = trusted >= lb - DECISION_EPS && trusted <= ub + DECISION_EPS;
        let (lb, ub) = if fits {
            (lb, ub)
        } else {
            // The trusted value also violates the sandwich, so the sandwich
            // itself descends from a lie accepted earlier. Re-verify every
            // recorded edge, retract the poisoned ones, recompute.
            self.repair_poisoned_state()?;
            let (lb2, ub2) = self.scheme.bounds(p);
            invariant!(
                trusted >= lb2 - DECISION_EPS && trusted <= ub2 + DECISION_EPS,
                "trusted value {trusted} for ({}, {}) still violates repaired bounds \
                 [{lb2}, {ub2}]",
                p.lo(),
                p.hi()
            );
            (lb2, ub2)
        };
        self.audit_mut().stats.repaired += 1;
        self.note_corruption(p, CorruptionAction::Repaired, trusted, lb, ub);
        self.scheme.record(p, trusted);
        self.stats.resolved += 1;
        Ok(trusted)
    }

    /// Full-sweep repair: every recorded edge re-verified by trusted vote,
    /// poisoned ones retracted ([`BoundScheme::retract`]) and replaced.
    /// Call-quadratic by design — it runs only after a proven inconsistency
    /// that the local quarantine could not explain, i.e. after detection
    /// mode let a lie into the scheme.
    fn repair_poisoned_state(&mut self) -> Result<(), OracleError> {
        // Every memoized sandwich may descend from the poisoned edge.
        self.bcache = None;
        let k = self.audit_mut().policy.vote_k.max(2);
        let mut known = Vec::new();
        self.scheme.for_each_known(&mut |q, d| known.push((q, d)));
        for (q, d) in known {
            let truth = self.voted_value(q, k)?;
            self.audit_mut().stats.requeries += 1;
            if truth.to_bits() == d.to_bits() {
                continue;
            }
            let withdrawn = self.scheme.retract(q);
            invariant!(
                withdrawn,
                "scheme {} cannot retract a poisoned value; run with --vote K:N (K >= 2) \
                 so lies never enter it",
                self.scheme.name()
            );
            self.scheme.record(q, truth);
            let a = self.audit_mut();
            a.stats.retracted += 1;
            a.stats.repaired += 1;
            self.note_corruption(q, CorruptionAction::Retracted, d, truth, truth);
        }
        Ok(())
    }

    /// True when a probe needs to be observed (traced or metered).
    #[inline]
    fn observing(&self) -> bool {
        self.trace.is_some() || self.metrics.is_some()
    }

    /// Emits one [`TraceEvent::BoundProbe`] and its width sample. One
    /// event per `try_*` invocation, keyed by the probe's primary pair.
    #[cold]
    fn note_probe(&self, x: Pair, lb: f64, ub: f64, kind: ProbeKind, verdict: ProbeVerdict) {
        if let Some(t) = &self.trace {
            t.emit(TraceEvent::BoundProbe {
                lo: x.lo(),
                hi: x.hi(),
                lb,
                ub,
                verdict,
                kind,
                scheme: self.scheme.name(),
            });
        }
        if let Some(m) = &self.metrics {
            m.observe(MetricName::ProbeWidth, quantize_width(ub - lb));
        }
    }

    /// `scheme.bounds(x)`, memoized per pair while still current (see the
    /// `bcache` field). Exact equality with the uncached computation is an
    /// invariant: the cached value was produced by the scheme itself, and
    /// the stamp check proves the scheme would still produce it.
    fn cached_bounds(&mut self, x: Pair) -> (f64, f64) {
        if let Some(hit) = self.memo_get(x) {
            return hit;
        }
        let (lb, ub) = self.scheme.bounds(x);
        self.memo_put(x, lb, ub);
        (lb, ub)
    }

    /// The memoized sandwich for `x`, if its slot holds `x` and is still
    /// current (slots store `generation + 1`). `None` whenever the table
    /// was never allocated (always, for schemes that do not opt in), and
    /// without reading the slot when `x`'s stamp is `u64::MAX`.
    #[inline]
    fn memo_get(&self, x: Pair) -> Option<(f64, f64)> {
        let memo = self.bcache.as_ref()?;
        let now = self.scheme.pair_stamp(x);
        if now == u64::MAX {
            return None;
        }
        let (lb, ub, stamp) = memo.get(x)?;
        (now < stamp).then_some((lb, ub))
    }

    /// Memoizes the exact sandwich for `x` at the current generation,
    /// allocating the table on first use. A no-op for schemes that do not
    /// opt in and for a pair whose stamp reads `u64::MAX` — read after
    /// `bounds`, which may have moved the anchor that decides it.
    #[inline]
    fn memo_put(&mut self, x: Pair, lb: f64, ub: f64) {
        if !self.cache_on || self.scheme.pair_stamp(x) == u64::MAX {
            return;
        }
        let stamp = self.scheme.generation() + 1;
        let n = self.scheme.n();
        self.bcache
            .get_or_insert_with(|| BoundMemo::new(n))
            .put(x, lb, ub, stamp);
    }

    /// True when threshold probes may route through the scheme's goal-aware
    /// cascade ([`BoundScheme::bounds_for_goal`]). Traced runs bypass it:
    /// cascade tiers report *relaxed* (still sound, same-verdict) sandwich
    /// payloads, and committed traces pin the exact tier's `BoundProbe`
    /// events byte-for-byte (I8). The cascade only ever changes where a
    /// certified verdict comes from, never what it is.
    #[inline]
    fn cascade_on(&self) -> bool {
        self.trace.is_none() && self.scheme.goal_aware()
    }

    /// The sandwich a threshold probe against `v` decides from, and the
    /// row its decision is attributed to. With the cascade off this is the
    /// memoized exact sandwich. With it on, a fresh memo entry *is* the
    /// exact sandwich and outranks every cascade tier, keeping memo
    /// accounting identical to the exact path; otherwise the scheme's
    /// goal-aware query answers, and only an exact answer is memoized.
    fn value_bounds(&mut self, x: Pair, v: f64) -> (f64, f64, ValueTier) {
        if !self.cascade_on() {
            let (lb, ub) = self.cached_bounds(x);
            return (lb, ub, ValueTier::Direct);
        }
        let (lb, ub, tier) = match self.memo_get(x) {
            Some((lb, ub)) => (lb, ub, ValueTier::Full),
            None => match self.scheme.bounds_for_goal(x, QueryGoal::threshold(v)) {
                GoalBounds::Exact { lb, ub } => {
                    self.memo_put(x, lb, ub);
                    (lb, ub, ValueTier::Full)
                }
                GoalBounds::Decisive { lb, ub } => (lb, ub, ValueTier::Bidi),
            },
        };
        if let Some(m) = &self.metrics {
            m.inc(
                match tier {
                    ValueTier::Bidi => MetricName::SplubBidiEarlyExit,
                    _ => MetricName::SplubFullFallback,
                },
                1,
            );
        }
        (lb, ub, tier)
    }

    /// The threshold probe behind `try_less_value` (`d < v`) and
    /// `try_leq_value` (`d ≤ v`, when `leq`). Cascade and exact sources
    /// give the identical verdict: exact sandwiches run the same decision
    /// function, and decisive ones are certified by the scheme to agree
    /// (checked here in debug builds against a fresh exact sandwich).
    fn try_value(&mut self, x: Pair, v: f64, leq: bool) -> Option<bool> {
        let (lb, ub, tier) = self.value_bounds(x, v);
        let out = try_decide_value(lb, ub, v, leq);
        #[cfg(debug_assertions)]
        if tier == ValueTier::Bidi {
            debug_assert!(out.is_some(), "Decisive cascade result failed to decide");
            let (le, ue) = self.scheme.bounds(x);
            debug_assert_eq!(
                out,
                try_decide_value(le, ue, v, leq),
                "cascade verdict diverged from the exact tier for {x:?} at v={v}"
            );
        }
        if out.is_some() {
            match tier {
                ValueTier::Direct => {}
                ValueTier::Bidi => self.dec_bidi += 1,
                ValueTier::Full => self.dec_full += 1,
            }
        }
        if self.observing() {
            let kind = if leq {
                ProbeKind::LeqValue
            } else {
                ProbeKind::LessValue
            };
            let verdict = if lb == ub {
                ProbeVerdict::Known
            } else {
                ProbeVerdict::decided(out)
            };
            self.note_probe(x, lb, ub, kind, verdict);
        }
        out
    }

    /// Read access to the scheme.
    pub fn scheme(&self) -> &S {
        &self.scheme
    }

    /// The wired oracle.
    pub fn oracle(&self) -> &'o Oracle<M> {
        self.oracle
    }
}

impl<'o, M: Metric> BoundResolver<'o, M, NoScheme> {
    /// The vanilla resolver: memoizes resolved pairs but derives nothing —
    /// every fresh comparison pays the oracle. Plugging this into an
    /// algorithm reproduces the paper's `Without Plug` call counts.
    pub fn vanilla(oracle: &'o Oracle<M>) -> Self {
        let scheme = NoScheme::new(oracle.n(), oracle.max_distance());
        BoundResolver::new(oracle, scheme)
    }
}

/// Shorthand for the unplugged configuration.
pub type VanillaResolver<'o, M> = BoundResolver<'o, M, NoScheme>;

impl<'o, M: Metric, S: BoundScheme> DistanceResolver for BoundResolver<'o, M, S> {
    fn n(&self) -> usize {
        self.scheme.n()
    }

    fn max_distance(&self) -> f64 {
        self.scheme.max_distance()
    }

    fn known(&self, p: Pair) -> Option<f64> {
        self.scheme.known(p)
    }

    fn resolve(&mut self, p: Pair) -> f64 {
        if let Some(d) = self.scheme.known(p) {
            self.stats.served_known += 1;
            return d;
        }
        if self.audit.is_some() {
            return expect_ok(
                self.resolve_audited(p),
                "infallible audited path hit a fault",
            );
        }
        let d = self.oracle.call_pair(p);
        self.scheme.record(p, d);
        self.stats.resolved += 1;
        d
    }

    fn resolve_fallible(&mut self, p: Pair) -> Result<f64, OracleError> {
        if let Some(d) = self.scheme.known(p) {
            self.stats.served_known += 1;
            return Ok(d);
        }
        if self.audit.is_some() {
            return self.resolve_audited(p);
        }
        // Record and count only on success: a faulted attempt must leave
        // the resolver exactly as it was, so a resumed run re-pays nothing
        // and observes nothing.
        let d = self.oracle.try_call_pair(p)?;
        self.scheme.record(p, d);
        self.stats.resolved += 1;
        Ok(d)
    }

    fn try_less(&mut self, x: Pair, y: Pair) -> Option<bool> {
        let (lx, ux) = self.cached_bounds(x);
        let (ly, uy) = self.cached_bounds(y);
        let out = if ux < ly - DECISION_EPS {
            Some(true) // dist(x) <= ub(x) < lb(y) <= dist(y)
        } else if lx >= uy + DECISION_EPS {
            Some(false) // dist(x) >= lb(x) >= ub(y) >= dist(y)
        } else {
            None
        };
        if self.observing() {
            self.note_probe(x, lx, ux, ProbeKind::Less, ProbeVerdict::decided(out));
        }
        out
    }

    fn try_less_value(&mut self, x: Pair, v: f64) -> Option<bool> {
        self.try_value(x, v, false)
    }

    fn try_leq_value(&mut self, x: Pair, v: f64) -> Option<bool> {
        self.try_value(x, v, true)
    }

    fn try_less_sum2(&mut self, x: (Pair, Pair), y: (Pair, Pair)) -> Option<bool> {
        let (lx0, ux0) = self.cached_bounds(x.0);
        let (lx1, ux1) = self.cached_bounds(x.1);
        let (ly0, uy0) = self.cached_bounds(y.0);
        let (ly1, uy1) = self.cached_bounds(y.1);
        // A small safety margin absorbs the rounding of summed bounds; the
        // near-tie cases fall through and are compared exactly.
        let out = if ux0 + ux1 < ly0 + ly1 - DECISION_EPS {
            Some(true)
        } else if lx0 + lx1 >= uy0 + uy1 + DECISION_EPS {
            Some(false)
        } else {
            None
        };
        if self.observing() {
            // The event is keyed by the lead pair of the left sum and
            // carries the summed interval of that side.
            let verdict = ProbeVerdict::decided(out);
            self.note_probe(x.0, lx0 + lx1, ux0 + ux1, ProbeKind::Sum2, verdict);
        }
        out
    }

    fn lower_bound_hint(&mut self, x: Pair) -> f64 {
        self.cached_bounds(x).0
    }

    fn bounds_hint(&mut self, x: Pair) -> (f64, f64) {
        self.cached_bounds(x)
    }

    fn preload(&mut self, p: Pair, d: f64) {
        self.scheme.record(p, d);
        self.stats.preloaded += 1;
    }

    fn preload_weak(&mut self, p: Pair, d: f64) {
        self.scheme.record(p, d);
        // Billed as a resolution (the caller observed a fresh value through
        // the resolver) but attributed to the weak-quorum provenance row.
        self.stats.resolved += 1;
        self.weak_preloads += 1;
    }

    fn provenance(&self) -> ProvenanceLedger {
        use prox_obs::ResolutionSource as Src;
        let mut l = ProvenanceLedger::default();
        l.memo = self.stats.served_known;
        l.weak_quorum = self.weak_preloads;
        l.strong_call = self.stats.resolved.saturating_sub(self.weak_preloads);
        l.checkpoint_preload = self.stats.preloaded;
        let scheme = self.scheme.name();
        for (tier, count) in [("bidi", self.dec_bidi), ("full", self.dec_full)] {
            if count > 0 {
                l.add(Src::BoundDecisive { scheme, tier }, count);
            }
        }
        let cascade = self.dec_bidi + self.dec_full;
        let direct = self.stats.decided_by_bounds.saturating_sub(cascade);
        if direct > 0 {
            l.add(
                Src::BoundDecisive {
                    scheme,
                    tier: "direct",
                },
                direct,
            );
        }
        l
    }

    fn export_known(&self, out: &mut Vec<(Pair, f64)>) {
        self.scheme.for_each_known(&mut |p, d| out.push((p, d)));
    }

    fn corruption_stats(&self) -> CorruptionStats {
        self.audit.as_ref().map(|a| a.stats).unwrap_or_default()
    }

    fn prune_stats(&self) -> PruneStats {
        self.stats
    }

    fn prune_stats_mut(&mut self) -> &mut PruneStats {
        &mut self.stats
    }

    fn generation(&self) -> u64 {
        self.scheme.generation()
    }

    fn pair_stamp(&self, x: Pair) -> u64 {
        self.scheme.pair_stamp(x)
    }

    fn trace_sink(&self) -> Option<Rc<dyn TraceSink>> {
        self.trace.clone()
    }

    fn obs_metrics(&self) -> Option<Rc<Metrics>> {
        self.metrics.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TriScheme;
    use prox_core::{FnMetric, ObjectId};

    fn line_oracle(n: usize) -> Oracle<FnMetric<impl Fn(ObjectId, ObjectId) -> f64>> {
        let scale = 1.0 / (n as f64 - 1.0);
        Oracle::new(FnMetric::new(n, 1.0, move |a, b| {
            (f64::from(a) - f64::from(b)).abs() * scale
        }))
    }

    #[test]
    fn resolve_memoizes() {
        let oracle = line_oracle(10);
        let mut r = BoundResolver::new(&oracle, TriScheme::new(10, 1.0));
        let p = Pair::new(0, 9);
        assert_eq!(r.resolve(p), 1.0);
        assert_eq!(r.resolve(p), 1.0);
        assert_eq!(oracle.calls(), 1, "second resolve served from knowledge");
        assert_eq!(r.prune_stats().served_known, 1);
        assert_eq!(r.prune_stats().resolved, 1);
    }

    #[test]
    fn bounds_decide_comparisons_without_calls() {
        let oracle = line_oracle(11); // unit spacing 0.1
        let mut r = BoundResolver::new(&oracle, TriScheme::new(11, 1.0));
        // Teach the scheme two triangles.
        r.resolve(Pair::new(0, 5)); // 0.5
        r.resolve(Pair::new(5, 6)); // 0.1  -> d(0,6) in [0.4, 0.6]
        r.resolve(Pair::new(0, 1)); // 0.1
        r.resolve(Pair::new(1, 2)); // 0.1  -> d(0,2) in [0.0, 0.2]
        let calls = oracle.calls();
        // d(0,2)=0.2 < d(0,6)=0.6 and ub(0,2)=0.2 < lb(0,6)=0.4: decided.
        assert_eq!(r.try_less(Pair::new(0, 2), Pair::new(0, 6)), Some(true));
        assert!(r.less(Pair::new(0, 2), Pair::new(0, 6)));
        assert_eq!(oracle.calls(), calls, "decided by bounds, no oracle");
        assert_eq!(r.prune_stats().decided_by_bounds, 1);
    }

    #[test]
    fn inconclusive_falls_through() {
        let oracle = line_oracle(11);
        let mut r = BoundResolver::new(&oracle, TriScheme::new(11, 1.0));
        assert_eq!(r.try_less(Pair::new(0, 2), Pair::new(0, 6)), None);
        assert!(r.less(Pair::new(0, 2), Pair::new(0, 6)));
        assert_eq!(oracle.calls(), 2, "both sides resolved");
        assert_eq!(r.prune_stats().fell_through, 1);
    }

    #[test]
    fn distance_if_less_prunes() {
        let oracle = line_oracle(11);
        let mut r = BoundResolver::new(&oracle, TriScheme::new(11, 1.0));
        r.resolve(Pair::new(0, 5)); // 0.5
        r.resolve(Pair::new(5, 10)); // 0.5 -> d(0,10) in [0, 1.0]; lb via |.5-.5|=0
        r.resolve(Pair::new(5, 6)); // 0.1 -> d(0,6) in [0.4, 0.6]
        let calls = oracle.calls();
        // Threshold 0.3 < lb(0,6)=0.4: pruned without resolution.
        assert_eq!(r.distance_if_less(Pair::new(0, 6), 0.3), None);
        assert_eq!(oracle.calls(), calls);
        // Threshold 0.7 > ub(0,6)=0.6: surely less, value resolved.
        let d = r.distance_if_less(Pair::new(0, 6), 0.7).unwrap();
        assert!((d - 0.6).abs() < 1e-12, "got {d}");
        assert_eq!(oracle.calls(), calls + 1);
        // Inconclusive: resolves and tests (d(0,1)=0.1 < 0.2).
        assert_eq!(r.distance_if_less(Pair::new(0, 1), 0.2), Some(0.1));
    }

    #[test]
    fn distance_if_less_exact_boundary() {
        // dist == v must report "not less" (strict comparison).
        let oracle = line_oracle(11);
        let mut r = BoundResolver::vanilla(&oracle);
        assert_eq!(r.distance_if_less(Pair::new(0, 5), 0.5), None);
        assert_eq!(oracle.calls(), 1, "vanilla resolves to find out");
    }

    #[test]
    fn vanilla_never_decides() {
        let oracle = line_oracle(8);
        let mut r = BoundResolver::vanilla(&oracle);
        assert_eq!(r.try_less(Pair::new(0, 1), Pair::new(0, 7)), None);
        assert_eq!(r.try_less_value(Pair::new(0, 1), 0.5), None);
        assert!(r.less(Pair::new(0, 1), Pair::new(0, 7)));
        assert_eq!(oracle.calls(), 2);
        // But known values do decide (memoization).
        assert_eq!(r.try_less(Pair::new(0, 1), Pair::new(0, 7)), Some(true));
    }

    #[test]
    fn known_pair_one_sided_test() {
        let oracle = line_oracle(11);
        let mut r = BoundResolver::new(&oracle, TriScheme::new(11, 1.0));
        r.resolve(Pair::new(0, 2)); // 0.2 exact
        r.resolve(Pair::new(0, 5)); // 0.5
        r.resolve(Pair::new(5, 6)); // -> d(0,6) in [0.4, 0.6]
        let calls = oracle.calls();
        // known 0.2 < lb 0.4: decided.
        assert_eq!(r.try_less(Pair::new(0, 2), Pair::new(0, 6)), Some(true));
        // reversed: lb(0,6)=0.4 >= ub(0,2)=0.2 -> Some(false).
        assert_eq!(r.try_less(Pair::new(0, 6), Pair::new(0, 2)), Some(false));
        assert_eq!(oracle.calls(), calls);
    }

    #[test]
    fn sum_probe_interval_default() {
        // The provided `try_sum_less_value` sums per-term interval bounds.
        let oracle = line_oracle(11);
        let mut r = BoundResolver::new(&oracle, TriScheme::new(11, 1.0));
        r.resolve(Pair::new(0, 2)); // 0.2
        r.resolve(Pair::new(0, 5)); // 0.5
        r.resolve(Pair::new(5, 6)); // -> d(0,6) in [0.4, 0.6]
        r.resolve(Pair::new(5, 8)); // -> d(0,8) in [0.2, 0.8] via 0/5/8
        let calls = oracle.calls();
        let terms = [Pair::new(0, 6), Pair::new(0, 8)];
        // Interval sum: [0.6, 1.4].
        assert_eq!(r.try_sum_less_value(&terms, 1.5), Some(true));
        assert_eq!(r.try_sum_less_value(&terms, 0.55), Some(false));
        assert_eq!(r.try_sum_less_value(&terms, 1.0), None, "straddles");
        // Known terms contribute exact point intervals.
        assert_eq!(
            r.try_sum_less_value(&[Pair::new(0, 2), Pair::new(0, 5)], 0.71),
            Some(true)
        );
        // Empty sum is zero.
        assert_eq!(r.try_sum_less_value(&[], 0.1), Some(true));
        assert_eq!(r.try_sum_less_value(&[], -0.1), Some(false));
        assert_eq!(oracle.calls(), calls, "probes never call the oracle");

        // Vanilla (no scheme): unknown terms span [0, max], nothing decides
        // except trivial thresholds.
        let oracle = line_oracle(11);
        let mut v = BoundResolver::vanilla(&oracle);
        assert_eq!(v.try_sum_less_value(&terms, 1.0), None);
        assert_eq!(v.try_sum_less_value(&terms, 2.5), Some(true));
        assert_eq!(oracle.calls(), 0);
    }

    #[test]
    fn fallible_path_matches_infallible_accounting() {
        let run = |fallible: bool| {
            let oracle = line_oracle(11);
            let mut r = BoundResolver::new(&oracle, TriScheme::new(11, 1.0));
            let d = if fallible {
                r.resolve_fallible(Pair::new(0, 5)).expect("no faults")
            } else {
                r.resolve(Pair::new(0, 5))
            };
            let lt = if fallible {
                r.less_fallible(Pair::new(0, 2), Pair::new(0, 6))
                    .expect("no faults")
            } else {
                r.less(Pair::new(0, 2), Pair::new(0, 6))
            };
            (d, lt, oracle.calls(), r.prune_stats())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn probes_are_traced_one_event_per_try() {
        use prox_obs::{summarize, JsonlSink};
        let sink = Rc::new(JsonlSink::in_memory());
        let make = || {
            let scale = 1.0 / 10.0;
            FnMetric::new(11, 1.0, move |a: ObjectId, b: ObjectId| {
                (f64::from(a) - f64::from(b)).abs() * scale
            })
        };
        let oracle = Oracle::new(make()).with_trace(Rc::<JsonlSink>::clone(&sink));
        let mut r = BoundResolver::new(&oracle, TriScheme::new(11, 1.0));
        r.resolve(Pair::new(0, 5)); // 0.5
        r.resolve(Pair::new(5, 6)); // -> d(0,6) in [0.4, 0.6]
        r.resolve(Pair::new(0, 2)); // 0.2 exact
        assert!(r.less(Pair::new(0, 2), Pair::new(0, 6))); // decided
        assert_eq!(r.distance_if_less(Pair::new(0, 6), 0.3), None); // decided
        assert_eq!(r.distance_if_leq(Pair::new(0, 2), 0.2), Some(0.2)); // known
        assert!(r.less(Pair::new(0, 7), Pair::new(0, 8))); // falls through

        let s = summarize(&sink.contents().expect("mem sink")).expect("valid trace");
        let stats = r.prune_stats();
        assert_eq!(
            s.probes,
            stats.comparisons(),
            "one BoundProbe per comparison attempt"
        );
        assert_eq!(s.billed_calls, oracle.calls(), "calls reconcile too");
        let tri = s.prune.iter().find(|p| p.scheme == "Tri").expect("Tri row");
        assert_eq!(
            tri.known + tri.lb + tri.ub,
            stats.decided_by_bounds,
            "decided verdicts reconcile with PruneStats"
        );
        assert_eq!(tri.open, stats.fell_through);
    }

    #[test]
    fn untraced_resolver_reports_no_sink() {
        let oracle = line_oracle(4);
        let r = BoundResolver::vanilla(&oracle);
        assert!(r.trace_sink().is_none());
        assert!(r.obs_metrics().is_none());
    }

    #[test]
    fn voting_restores_exactness_under_corruption() {
        use prox_core::CorruptionInjector;
        let n = 24;
        let scale = 1.0 / (n as f64 - 1.0);
        let truth = move |p: Pair| (f64::from(p.lo()) - f64::from(p.hi())).abs() * scale;
        let pairs: Vec<Pair> = Pair::all(n).step_by(7).collect();

        // Clean baseline.
        let clean = line_oracle(n);
        let mut cr = BoundResolver::new(&clean, TriScheme::new(n, 1.0));
        for &p in &pairs {
            assert_eq!(cr.resolve(p), truth(p));
        }
        let clean_billed = clean.calls();

        // Corrupted oracle + 3-vote audit: byte-identical results, honest
        // billing, and exact detection accounting.
        let oracle = line_oracle(n).with_corruption(CorruptionInjector::new(0.3, 42));
        let mut r =
            BoundResolver::new(&oracle, TriScheme::new(n, 1.0)).with_audit(AuditPolicy::vote(3, 3));
        for &p in &pairs {
            assert_eq!(r.resolve(p).to_bits(), truth(p).to_bits(), "{p:?}");
        }
        let stats = r.corruption_stats();
        assert!(
            oracle.corruptions_injected() > 0,
            "rate 0.3 must fire on this workload"
        );
        assert_eq!(
            stats.detected,
            oracle.corruptions_injected(),
            "every injected corruption loses its vote and is detected"
        );
        assert_eq!(
            oracle.calls(),
            clean_billed + stats.requeries,
            "re-queries are billed honestly"
        );
        assert_eq!(stats.retracted, 0, "voting never lets a lie be recorded");
        // Exported knowledge is truth-exact.
        let mut known = Vec::new();
        r.export_known(&mut known);
        for (p, d) in known {
            assert_eq!(d.to_bits(), truth(p).to_bits());
        }
    }

    #[test]
    fn clean_vote_pays_exactly_k_replicas() {
        let oracle = line_oracle(11);
        let mut r = BoundResolver::new(&oracle, TriScheme::new(11, 1.0))
            .with_audit(AuditPolicy::vote(3, 3));
        assert_eq!(r.resolve(Pair::new(0, 5)), 0.5);
        assert_eq!(oracle.calls(), 3, "first-to-3 with a clean oracle");
        assert_eq!(r.corruption_stats().requeries, 2);
        assert_eq!(r.corruption_stats().detected, 0);
        // Known pairs are served without further votes.
        assert_eq!(r.resolve(Pair::new(0, 5)), 0.5);
        assert_eq!(oracle.calls(), 3);
    }

    #[test]
    fn detection_mode_catches_sandwich_violations() {
        use prox_core::CorruptionInjector;
        let truth: f64 = 6.0 * (1.0 / 10.0); // the oracle's own arithmetic for d(0,6)
        let mut caught = None;
        for seed in 0..300 {
            let oracle = line_oracle(11).with_corruption(CorruptionInjector::new(0.5, seed));
            let mut r = BoundResolver::new(&oracle, TriScheme::new(11, 1.0))
                .with_audit(AuditPolicy::detect_only());
            // Certified sandwich for (0,6): [0.4, 0.6] via the 0/5/6 triangle.
            r.preload(Pair::new(0, 5), 0.5);
            r.preload(Pair::new(5, 6), 0.1);
            let d = r.resolve(Pair::new(0, 6));
            let stats = r.corruption_stats();
            if stats.detected >= 1 && stats.retracted == 0 {
                assert_eq!(d.to_bits(), truth.to_bits(), "repaired to truth");
                assert_eq!(stats.repaired, 1, "one trusted replacement");
                assert!(stats.requeries >= 2, "quarantine re-queried by vote");
                assert_eq!(
                    oracle.calls(),
                    1 + stats.requeries,
                    "a clean run resolves (0,6) in one call"
                );
                caught = Some(seed);
                break;
            }
        }
        assert!(
            caught.is_some(),
            "no seed in 0..300 produced an out-of-sandwich replica-0 corruption"
        );
    }

    #[test]
    fn detection_mode_accepts_clean_values_for_free() {
        let oracle = line_oracle(11);
        let mut r = BoundResolver::new(&oracle, TriScheme::new(11, 1.0))
            .with_audit(AuditPolicy::detect_only());
        r.resolve(Pair::new(0, 5));
        r.resolve(Pair::new(5, 6));
        r.resolve(Pair::new(0, 6));
        assert_eq!(oracle.calls(), 3, "zero audit overhead without lies");
        assert_eq!(r.corruption_stats(), Default::default());
    }

    #[test]
    fn poisoned_state_sweep_retracts_and_repairs() {
        use prox_core::CorruptionInjector;
        // A lie accepted under a trivial sandwich poisons later sandwiches;
        // when the trusted re-query still violates them, the resolver must
        // sweep, retract the poisoned edge, and end truth-exact.
        let mut swept = None;
        for seed in 0..2000 {
            let inj = CorruptionInjector::new(0.5, seed);
            // Pre-filter: (0,5) corrupt at replica 0 (the lie that gets
            // in), (5,6) and (0,6) clean at replica 0 (so the detection
            // fires on a *true* value and the trusted vote re-confirms it).
            if inj.corruption_at(Pair::new(0, 5), 0).is_none()
                || inj.corruption_at(Pair::new(5, 6), 0).is_some()
                || inj.corruption_at(Pair::new(0, 6), 0).is_some()
            {
                continue;
            }
            let oracle = line_oracle(11).with_corruption(inj);
            let mut r = BoundResolver::new(&oracle, TriScheme::new(11, 1.0))
                .with_audit(AuditPolicy::detect_only());
            r.resolve(Pair::new(0, 5)); // lie enters: sandwich is [0, 1]
            r.resolve(Pair::new(5, 6)); // clean 0.1, no triangle yet

            // Memoize every sandwich, so the repair has poisoned entries
            // to drop (those through the lied-about (0, 5)).
            for p in Pair::all(11) {
                let _ = r.bounds_hint(p);
            }
            let d = r.resolve(Pair::new(0, 6));
            let stats = r.corruption_stats();
            if stats.retracted >= 1 {
                let scale: f64 = 1.0 / 10.0;
                assert_eq!(d.to_bits(), (6.0 * scale).to_bits());
                assert_eq!(
                    r.known(Pair::new(0, 5)),
                    Some(5.0 * scale),
                    "poisoned edge replaced by the trusted value"
                );
                assert_eq!(r.known(Pair::new(5, 6)), Some(1.0 * scale));
                assert!(stats.detected >= 1);
                assert!(stats.repaired >= 2, "sweep repair + local repair");
                // After the repair every served sandwich is what a scheme
                // built from the repaired knowledge alone derives.
                let mut known = Vec::new();
                r.export_known(&mut known);
                let mut fresh = TriScheme::new(11, 1.0);
                for &(q, dq) in &known {
                    fresh.record(q, dq);
                }
                for p in Pair::all(11) {
                    let (lb, ub) = r.bounds_hint(p);
                    let (fl, fu) = fresh.bounds(p);
                    assert_eq!(
                        (lb.to_bits(), ub.to_bits()),
                        (fl.to_bits(), fu.to_bits()),
                        "{p:?}"
                    );
                }
                swept = Some(seed);
                break;
            }
        }
        assert!(
            swept.is_some(),
            "no seed in 0..2000 exercised the poisoned-state sweep"
        );
    }

    #[test]
    fn fallible_audited_path_matches_infallible() {
        use prox_core::CorruptionInjector;
        let run = |fallible: bool| {
            let oracle = line_oracle(11).with_corruption(CorruptionInjector::new(0.4, 9));
            let mut r = BoundResolver::new(&oracle, TriScheme::new(11, 1.0))
                .with_audit(AuditPolicy::vote(2, 3));
            let mut out = Vec::new();
            for p in Pair::all(11).step_by(5) {
                let d = if fallible {
                    r.resolve_fallible(p).expect("no fail-stop faults")
                } else {
                    r.resolve(p)
                };
                out.push(d.to_bits());
            }
            (out, oracle.calls(), r.corruption_stats())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn corruption_events_reconcile_with_stats() {
        use prox_core::CorruptionInjector;
        use prox_obs::{summarize, JsonlSink};
        let sink = Rc::new(JsonlSink::in_memory());
        let scale = 1.0 / 10.0;
        let oracle = Oracle::new(FnMetric::new(11, 1.0, move |a: ObjectId, b: ObjectId| {
            (f64::from(a) - f64::from(b)).abs() * scale
        }))
        .with_corruption(CorruptionInjector::new(0.3, 42))
        .with_trace(Rc::<JsonlSink>::clone(&sink));
        let mut r = BoundResolver::new(&oracle, TriScheme::new(11, 1.0))
            .with_audit(AuditPolicy::vote(3, 3));
        for p in Pair::all(11).step_by(3) {
            r.resolve(p);
        }
        let s = summarize(&sink.contents().expect("mem sink")).expect("valid trace");
        let stats = r.corruption_stats();
        assert!(stats.detected > 0, "workload must trip the injector");
        assert_eq!(s.corruption_detected, stats.detected);
        assert_eq!(s.corruption_repaired, stats.repaired);
        assert_eq!(s.corruption_retracted, stats.retracted);
        assert_eq!(s.billed_calls, oracle.calls());
    }

    #[test]
    fn failed_resolution_records_nothing() {
        use prox_core::{CallBudget, OracleError};
        let scale = 1.0 / 10.0;
        let oracle = Oracle::new(FnMetric::new(11, 1.0, move |a: u32, b: u32| {
            (f64::from(a) - f64::from(b)).abs() * scale
        }))
        .with_budget(CallBudget::calls(1));
        let mut r = BoundResolver::new(&oracle, TriScheme::new(11, 1.0));
        assert_eq!(r.resolve_fallible(Pair::new(0, 5)), Ok(0.5));
        let err = r
            .resolve_fallible(Pair::new(0, 7))
            .expect_err("budget of 1 call");
        assert_eq!(err, OracleError::BudgetExhausted { calls: 1 });
        assert_eq!(r.prune_stats().resolved, 1, "failed attempt not counted");
        assert_eq!(r.known(Pair::new(0, 7)), None, "nothing recorded");
        // The already-resolved pair is still served for free.
        assert_eq!(r.resolve_fallible(Pair::new(0, 5)), Ok(0.5));
        assert_eq!(r.prune_stats().served_known, 1);
    }

    #[test]
    fn resolve_and_preload_never_allocate_the_memo() {
        // A resolver that only preloads a cache and resolves must never
        // pay for the memo table.
        let oracle = line_oracle(64);
        let mut r = BoundResolver::new(&oracle, TriScheme::new(64, 1.0));
        for p in Pair::all(64).step_by(5) {
            r.preload(p, oracle.call_pair(p));
        }
        for p in Pair::all(64).step_by(3) {
            let _ = r.resolve(p);
        }
        assert!(r.bcache.is_none(), "resolve/preload allocated the memo");
        // The first bound probe is what allocates it.
        let _ = r.bounds_hint(Pair::new(0, 63));
        assert!(r.bcache.is_some());
    }

    /// The table's `(reads, writes)` so far.
    fn slot_accesses<S: BoundScheme>(r: &BoundResolver<'_, impl Metric, S>) -> (u64, u64) {
        r.bcache
            .as_ref()
            .map_or((0, 0), |m| (m.reads.get(), m.writes))
    }

    #[test]
    fn one_off_anchor_rows_skip_the_memo_and_revisited_columns_hit_it() {
        let n = 40;
        let oracle = line_oracle(n);
        let mut r = BoundResolver::new(&oracle, TriScheme::new(n, 1.0));
        for p in Pair::all(n).step_by(7) {
            r.preload(p, oracle.call_pair(p));
        }
        let (a, b, c): (ObjectId, ObjectId, ObjectId) = (3, 11, 17);
        let row = |x: ObjectId| {
            (0..n as ObjectId)
                .filter(move |&z| z != x)
                .map(move |z| Pair::new(x, z))
        };
        let on_first_visit = |r: &BoundResolver<'_, _, TriScheme>, x: ObjectId| {
            r.scheme.pair_stamp(Pair::new(x, (x + 1) % n as ObjectId)) == u64::MAX
        };
        // Two probes on `a` anchor Tri there; the rest of its row is the
        // anchor's first visit and never touches the table.
        let _ = r.bounds_hint(Pair::new(a, 0));
        let _ = r.bounds_hint(Pair::new(a, 1));
        assert!(on_first_visit(&r, a));
        let before = slot_accesses(&r);
        for q in row(a) {
            let _ = r.bounds_hint(q);
        }
        assert_eq!(
            slot_accesses(&r),
            before,
            "a first-visit row touched the table"
        );
        // Leave for `b` and come back: the second visit memoizes the row.
        for anchor in [b, a] {
            let _ = r.bounds_hint(Pair::new(anchor, 0));
            let _ = r.bounds_hint(Pair::new(anchor, 1));
        }
        assert!(!on_first_visit(&r, a));
        let (_, writes) = slot_accesses(&r);
        for q in row(a) {
            let _ = r.bounds_hint(q);
        }
        assert!(
            slot_accesses(&r).1 > writes,
            "the revisited row was not stored"
        );
        // Anchored at a fresh `c`, the column of `a` is served from the
        // table: one read per pair, no write, and Tri is never asked (two
        // misses on `a` would have moved its anchor there).
        let _ = r.bounds_hint(Pair::new(c, 0));
        let _ = r.bounds_hint(Pair::new(c, 1));
        assert!(on_first_visit(&r, c));
        let (reads, writes) = slot_accesses(&r);
        let column: Vec<Pair> = row(a).filter(|q| q.other(a) != c).collect();
        for &q in &column {
            let _ = r.bounds_hint(q);
        }
        assert_eq!(
            slot_accesses(&r),
            (reads + column.len() as u64, writes),
            "the revisited column missed the table"
        );
        assert!(on_first_visit(&r, c), "Tri was asked for the column");
    }

    /// How the probes of one fuzz run found their pair's memo slot.
    #[derive(Default)]
    struct SlotCounts {
        /// Filled with this pair's sandwich, but no longer current.
        stale: u32,
        /// Filled with this pair's sandwich and still current.
        current: u32,
        /// Filled with another pair's sandwich.
        evicted: u32,
        /// Not looked up: the pair's stamp read `u64::MAX`.
        bypassed: u32,
        /// Current, on an anchored row whose anchor was visited before.
        revisited: u32,
    }

    impl SlotCounts {
        /// Tallies how `r`'s memo would meet a probe of `p`; `on_row` marks
        /// a probe on an anchored row.
        fn note<S: BoundScheme>(
            &mut self,
            r: &BoundResolver<'_, impl Metric, S>,
            p: Pair,
            on_row: bool,
        ) {
            let Some(m) = &r.bcache else { return };
            let now = r.scheme.pair_stamp(p);
            if now == u64::MAX {
                self.bypassed += 1;
                return;
            }
            match m.get(p) {
                Some((_, _, stamp)) if now < stamp => {
                    self.current += 1;
                    self.revisited += u32::from(on_row);
                }
                Some(_) => self.stale += 1,
                None if m.holds_other(p) => self.evicted += 1,
                None => {}
            }
        }
    }

    /// Seeded fuzz over one scheme at `n` objects: `record`s interleaved
    /// with every probe kind, over a pool of pairs, and anchored rows — runs
    /// of probes sharing one of three anchors, so each anchor is left and
    /// revisited. Below 2^16 pairs the pool is every pair; above it the
    /// pool is 24 pairs and their partners 2^16 ranks up, so the probes
    /// keep evicting each other. At every step the resolver's (possibly
    /// memoized) sandwich must be bitwise the one a freshly built scheme
    /// derives from the same knowledge. Returns how the probes found their
    /// slots, so callers can assert every path ran.
    fn fuzz_memo_matches_fresh<S: BoundScheme>(
        make: impl Fn(usize) -> S,
        n: usize,
        seed: u64,
    ) -> SlotCounts {
        use crate::memo::MAX_SLOTS;
        use prox_core::TinyRng;
        let mut rng = TinyRng::new(seed);
        let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.unit_f64(), rng.unit_f64())).collect();
        let oracle = Oracle::new(FnMetric::new(n, 1.0, move |a: ObjectId, b: ObjectId| {
            let (pa, pb) = (pts[a as usize], pts[b as usize]);
            (pa.0 - pb.0).hypot(pa.1 - pb.1) / 2f64.sqrt()
        }));
        let all: Vec<Pair> = Pair::all(n).collect();
        let pool: Vec<Pair> = if all.len() <= MAX_SLOTS {
            all
        } else {
            (0..24)
                .flat_map(|_| {
                    let r = rng.below(all.len() - MAX_SLOTS);
                    [all[r], all[r + MAX_SLOTS]]
                })
                .collect()
        };
        let anchors: [ObjectId; 3] = [1, 5, 9];
        let mut r = BoundResolver::new(&oracle, make(n));
        let mut records: Vec<(Pair, f64)> = Vec::new();
        let mut counts = SlotCounts::default();
        let pick = |rng: &mut TinyRng| pool[rng.below(pool.len())];
        for _ in 0..600 {
            let row: Vec<Pair> = if rng.below(4) == 0 {
                let a = anchors[rng.below(anchors.len())];
                (0..8)
                    .map(|_| {
                        let b = (a as usize + 1 + rng.below(n - 1)) % n;
                        Pair::new(a, b as ObjectId)
                    })
                    .collect()
            } else {
                vec![pick(&mut rng)]
            };
            let on_row = row.len() > 1;
            for &p in &row {
                counts.note(&r, p, on_row);
                let v = rng.unit_f64() * 0.6;
                match rng.below(6) {
                    0 => {
                        if r.known(p).is_none() {
                            records.push((p, r.resolve(p)));
                        }
                    }
                    1 => {
                        let _ = r.try_less_value(p, v);
                    }
                    2 => {
                        let _ = r.try_leq_value(p, v);
                    }
                    3 => {
                        let _ = r.try_less(p, pick(&mut rng));
                    }
                    _ => {
                        let _ = r.bounds_hint(p);
                    }
                }
            }
            let mut fresh = make(n);
            for &(q, d) in &records {
                fresh.record(q, d);
            }
            for q in row.into_iter().chain([pick(&mut rng)]) {
                let (lb, ub) = r.bounds_hint(q);
                let (fl, fu) = fresh.bounds(q);
                assert_eq!(
                    (lb.to_bits(), ub.to_bits()),
                    (fl.to_bits(), fu.to_bits()),
                    "{} n {n} seed {seed}: memoized {q:?} diverged from a fresh scheme",
                    fresh.name()
                );
            }
        }
        counts
    }

    #[test]
    fn memo_matches_fresh_scheme_under_interleaved_records() {
        for seed in 0..4 {
            let tri = fuzz_memo_matches_fresh(|n| TriScheme::new(n, 1.0), 32, seed);
            let splub = fuzz_memo_matches_fresh(|n| crate::Splub::new(n, 1.0), 32, seed);
            for c in [&tri, &splub] {
                assert!(c.stale > 0, "seed {seed}: no probe met a stale slot");
                assert!(c.current > 0, "seed {seed}: no probe met a current slot");
                assert!(c.revisited > 0, "seed {seed}: no revisited row hit");
                assert_eq!(c.evicted, 0, "seed {seed}: n = 32 owns every slot");
            }
            assert!(tri.bypassed > 0, "seed {seed}: no first-visit row bypassed");
        }
    }

    #[test]
    fn memo_matches_fresh_scheme_at_a_wrapping_table_size() {
        // C(400, 2) = 79,800 > 2^16: pairs share slots.
        for seed in 0..2 {
            let tri = fuzz_memo_matches_fresh(|n| TriScheme::new(n, 1.0), 400, seed);
            let splub = fuzz_memo_matches_fresh(|n| crate::Splub::new(n, 1.0), 400, seed);
            for c in [&tri, &splub] {
                assert!(c.stale > 0, "seed {seed}: no probe met a stale slot");
                assert!(c.current > 0, "seed {seed}: no probe met a current slot");
                assert!(c.revisited > 0, "seed {seed}: no revisited row hit");
                assert!(c.evicted > 0, "seed {seed}: no probe met an evicted slot");
            }
            assert!(tri.bypassed > 0, "seed {seed}: no first-visit row bypassed");
        }
    }
}
