//! Client sessions: admission control, group resolution, quarantine.
//!
//! A session is the server-side state for one client: its private
//! certified memo (resolutions not yet visible in the store), its
//! cumulative accounting, and its health. The actual resolution work
//! for one group runs in [`run_group_view`] — a **pure function** of the
//! round-start store view, the session's memo, and the query. That
//! purity is the whole determinism argument: the server runs a round's
//! cells (one per session) in a loop, and any order or concurrency
//! would give the same outcome, so responses and call counts are
//! byte-identical from run to run (I12/I5).
//!
//! A group reads the view's runs and the memo in place, by binary
//! search: it copies none of them into a scheme. Only the weak cascade
//! asks for Tri bounds inside a group (its sandwich audit and degraded
//! midpoints), so the Tri adjacency is built on the first bound query,
//! and a group that only resolves never builds it.
//!
//! Admission is decided *before* any oracle work and never blocks the
//! store: the group's strong-call cost is bounded above by the number
//! of its pairs missing from view + memo (each missing pair costs
//! at most one strong call on the value path), so a group whose bound
//! exceeds the per-client admission budget is rejected immediately
//! with a deterministic retry hint.

use std::time::Duration;

use prox_bounds::{BoundResolver, BoundScheme, CascadeResolver, DistanceResolver, TriScheme};
use prox_core::{
    CallBudget, FaultInjector, Metric, Oracle, OracleError, Pair, RetryPolicy, WeakOracle,
};
use prox_obs::ProvenanceLedger;

use crate::group::{GroupResponse, PairGroupQuery};
use crate::store::{lookup, lookup_runs, merge_runs};

/// Per-session serving knobs.
#[derive(Copy, Clone, Debug, Default)]
pub struct SessionConfig {
    /// Admission budget: max strong calls one group may cost this
    /// client (`0` = unlimited, admission always passes). Also
    /// installed as a hard [`CallBudget`] on the group's oracle, so a
    /// retry storm cannot bill past it either.
    pub admit: u64,
    /// Weak-tier cascade `(error rate, seed)`; the per-session weak
    /// seed is `seed ^ session_id` so sessions err independently.
    pub weak: Option<(f64, u64)>,
    /// Degrade instead of failing when the strong tier is lost
    /// mid-group (requires `weak`).
    pub degrade: bool,
    /// Deterministic transient-fault injection `(rate, seed)` on every
    /// session oracle.
    pub faults: Option<(f64, u64)>,
    /// Retry depth when faults are injected.
    pub retry: u32,
    /// Virtual cost charged per strong call (drives the deadline).
    pub call_cost: Duration,
    /// Virtual deadline per group — with `call_cost` set this is the
    /// chaos suite's deterministic mid-batch kill switch.
    pub deadline: Option<Duration>,
}

/// Deterministic backpressure: when to come back after a rejection.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RetryHint {
    /// Retry once the store holds at least this many entries — the
    /// point at which enough of this group's missing pairs *could*
    /// have been certified by other sessions to fit the budget. A
    /// hint, not a guarantee: other sessions may certify unrelated
    /// pairs.
    pub store_entries_at_least: u64,
}

/// What one group execution produced.
#[derive(Debug)]
pub enum GroupOutcome {
    /// Admission refused the group; nothing was resolved or billed.
    Rejected {
        /// Pairs missing from view + memo (the cost upper bound).
        missing: u64,
        /// The admission budget it exceeded.
        admit: u64,
        /// When to retry.
        retry: RetryHint,
    },
    /// The group was served.
    Served(Box<ServedGroup>),
    /// The strong tier was lost mid-group with degradation off. The
    /// group's work is discarded (nothing certified is lost — it was
    /// never committed) and the server treats the session as crashed.
    Failed {
        /// The terminal oracle error.
        error: OracleError,
    },
}

/// A served group: the client-visible response plus what the server
/// needs for the commit step and the books.
#[derive(Debug)]
pub struct ServedGroup {
    /// The client-visible answer.
    pub response: GroupResponse,
    /// Certified entries new to view + memo — the commit batch.
    pub fresh: Vec<(Pair, f64)>,
    /// The session resolver's provenance rows for this group.
    pub ledger: ProvenanceLedger,
    /// True when the session finished the group degraded.
    pub degraded: bool,
    /// True when the resolver's audit saw poisoned state — the server
    /// must quarantine the session instead of committing.
    pub quarantine: bool,
}

/// A session's cumulative accounting, rendered in the serve summary
/// and cross-checked by the report suite.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Groups admitted (and fully served).
    pub admitted: u64,
    /// Groups bounced by admission control.
    pub rejected: u64,
    /// Groups that finished degraded.
    pub degraded: u64,
    /// Strong-oracle calls billed to this session.
    pub strong_calls: u64,
    /// Group pairs served straight from the shared store.
    pub store_hits: u64,
    /// Successful commits.
    pub commits: u64,
    /// Commits bounced by epoch fencing.
    pub fenced: u64,
}

/// Server-side state for one client session.
#[derive(Clone, Debug)]
pub struct ClientSession {
    /// Session id (also the index into the server's session table).
    pub id: u32,
    /// Certified entries this session resolved that are not yet in the
    /// store (commit pending or fenced), ascending by pair key.
    pub memo: Vec<(Pair, f64)>,
    /// Cumulative accounting.
    pub stats: SessionStats,
    /// Set once the session is quarantined; a quarantined session
    /// serves nothing until the server re-syncs it.
    pub quarantined: bool,
}

impl ClientSession {
    /// A fresh session.
    pub fn new(id: u32) -> Self {
        ClientSession {
            id,
            memo: Vec::new(),
            stats: SessionStats::default(),
            quarantined: false,
        }
    }
}

/// The certified distances one group can read, without copying the
/// round view: the view's runs and the session memo are borrowed in
/// place (each ascending by pair key, without duplicates, the runs
/// disjoint) and looked up by binary search, runs first; the group's
/// own records sit in a short list beside them.
///
/// Bound queries are rare here: only the weak cascade's sandwich audit
/// and its degraded midpoints ask for bounds. The first one builds a
/// [`TriScheme`] from view ∪ memo ∪ own records, once, and every
/// later query and record goes to it as well, so its answers are the
/// ones a scheme preloaded with the same distances would give.
///
/// Not `bounds_cacheable`: a group asks for the bounds of each missing
/// pair about once, so the resolver's memo table (up to 1.5 MB) would
/// cost more than it saves.
struct HeldScheme<'a> {
    n: usize,
    max_distance: f64,
    runs: &'a [&'a [(Pair, f64)]],
    memo: &'a [(Pair, f64)],
    /// Distances recorded by this group, ascending by pair key — the
    /// commit batch.
    own: Vec<(Pair, f64)>,
    tri: Option<TriScheme>,
}

#[cfg(test)]
thread_local! {
    /// Lazy Tri builds on this thread (read by the lazy-build test).
    static TRI_BUILDS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

impl<'a> HeldScheme<'a> {
    fn new(
        metric: &(dyn Metric + Send + Sync),
        runs: &'a [&'a [(Pair, f64)]],
        memo: &'a [(Pair, f64)],
    ) -> Self {
        debug_assert!(runs.iter().all(|r| r.windows(2).all(|w| w[0].0 < w[1].0)));
        debug_assert!(memo.windows(2).all(|w| w[0].0 < w[1].0));
        HeldScheme {
            n: metric.len(),
            max_distance: metric.max_distance(),
            runs,
            memo,
            own: Vec::new(),
            tri: None,
        }
    }

    /// The value of `p` in the view or the memo.
    fn held(&self, p: Pair) -> Option<f64> {
        lookup_runs(self.runs, p).or_else(|| lookup(self.memo, p))
    }

    /// Entries in the view.
    fn view_len(&self) -> usize {
        self.runs.iter().map(|r| r.len()).sum()
    }

    /// The memo entries the view does not hold.
    fn memo_only(&self) -> impl Iterator<Item = &(Pair, f64)> {
        self.memo
            .iter()
            .filter(|e| lookup_runs(self.runs, e.0).is_none())
    }

    /// `|view ∪ memo|`: what the ledger reports as preloaded.
    fn held_count(&self) -> usize {
        self.view_len() + self.memo_only().count()
    }

    /// The Tri scheme over everything known, built on first use.
    fn tri(&mut self) -> &mut TriScheme {
        let tri = match self.tri.take() {
            Some(tri) => tri,
            None => {
                #[cfg(test)]
                TRI_BUILDS.with(|c| c.set(c.get() + 1));
                let mut tri = TriScheme::new(self.n, self.max_distance);
                self.for_each_known(&mut |p, d| tri.record(p, d));
                tri
            }
        };
        self.tri.insert(tri)
    }
}

impl BoundScheme for HeldScheme<'_> {
    fn n(&self) -> usize {
        self.n
    }

    fn max_distance(&self) -> f64 {
        self.max_distance
    }

    fn known(&self, p: Pair) -> Option<f64> {
        self.held(p).or_else(|| lookup(&self.own, p))
    }

    fn bounds(&mut self, p: Pair) -> (f64, f64) {
        self.tri().bounds(p)
    }

    fn record(&mut self, p: Pair, d: f64) {
        let i = self.own.partition_point(|e| e.0 < p);
        if self.held(p).is_some() || self.own.get(i).is_some_and(|e| e.0 == p) {
            return;
        }
        self.own.insert(i, (p, d));
        if let Some(tri) = self.tri.as_mut() {
            tri.record(p, d);
        }
    }

    fn m(&self) -> usize {
        self.held_count() + self.own.len()
    }

    fn name(&self) -> &'static str {
        // Ledger rows and trace events name the bounds' scheme.
        "Tri"
    }

    /// The view's runs merged into key order (so a lazily built Tri
    /// records exactly the order a flat snapshot would give it), then
    /// the memo-only entries, then the group's own records.
    fn for_each_known(&self, f: &mut dyn FnMut(Pair, f64)) {
        for &(p, d) in merge_runs(self.runs)
            .iter()
            .chain(self.memo_only())
            .chain(&self.own)
        {
            f(p, d);
        }
    }
}

/// Resolves one group for one session against a flat snapshot: a
/// one-run [`run_group_view`]. `snapshot` is ascending by pair key
/// without duplicates, as [`crate::StoreSnapshot`] keeps it.
pub fn run_group(
    metric: &(dyn Metric + Send + Sync),
    snapshot: &[(Pair, f64)],
    memo: &[(Pair, f64)],
    query: &PairGroupQuery,
    id: u32,
    config: &SessionConfig,
) -> GroupOutcome {
    run_group_view(metric, &[snapshot], memo, query, id, config)
}

/// Resolves one group for one session: admission, then canonical-order
/// resolution against the view's runs and the memo read in place, then
/// the degradation bookkeeping. `view` holds disjoint runs, each
/// ascending by pair key without duplicates, as [`crate::StoreView::runs`]
/// gives them; `memo` is ascending by pair key without duplicates, as
/// [`ClientSession::memo`] keeps it. Pure in `(metric, view, memo,
/// query, id, config)`, and the same for any split of the held entries
/// into runs — see module docs.
pub fn run_group_view(
    metric: &(dyn Metric + Send + Sync),
    view: &[&[(Pair, f64)]],
    memo: &[(Pair, f64)],
    query: &PairGroupQuery,
    id: u32,
    config: &SessionConfig,
) -> GroupOutcome {
    let pairs = query.pairs();
    let scheme = HeldScheme::new(metric, view, memo);
    // Each pair missing from view + memo costs at most one strong
    // call (the admission bound); the rest are the group's store hits.
    let missing: Vec<Pair> = pairs
        .iter()
        .copied()
        .filter(|&p| scheme.held(p).is_none())
        .collect();
    let cost = missing.len() as u64;
    if config.admit > 0 && cost > config.admit {
        return GroupOutcome::Rejected {
            missing: cost,
            admit: config.admit,
            retry: RetryHint {
                store_entries_at_least: scheme.view_len() as u64 + (cost - config.admit),
            },
        };
    }

    let mut budget = if config.admit > 0 {
        CallBudget::calls(config.admit)
    } else {
        CallBudget::unlimited()
    };
    if let Some(d) = config.deadline {
        budget = budget.with_deadline(d);
    }
    let mut oracle = Oracle::with_cost(metric, config.call_cost).with_budget(budget);
    if let Some((rate, seed)) = config.faults {
        oracle = oracle
            .with_faults(FaultInjector::new(rate, seed))
            .with_retry(RetryPolicy::standard(config.retry.max(1)));
    }
    let resolver = BoundResolver::new(&oracle, scheme);
    match config.weak {
        Some((rate, seed)) => {
            let weak = WeakOracle::new(metric, rate, seed ^ u64::from(id));
            let cascade = CascadeResolver::new(resolver, weak).with_degrade(config.degrade);
            resolve_all(cascade, &oracle, &pairs, &missing, |c| c.inner().scheme())
        }
        None => resolve_all(resolver, &oracle, &pairs, &missing, |r| r.scheme()),
    }
}

/// The shared tail of [`run_group_view`] for both resolver shapes: `missing`
/// lists the group pairs not held, and `scheme` reaches the resolver's
/// [`HeldScheme`].
fn resolve_all<'a, R: DistanceResolver>(
    mut resolver: R,
    oracle: &Oracle<&(dyn Metric + Send + Sync)>,
    pairs: &[Pair],
    missing: &[Pair],
    scheme: impl Fn(&R) -> &HeldScheme<'a>,
) -> GroupOutcome {
    let mut resolved = Vec::with_capacity(pairs.len());
    for &p in pairs {
        match resolver.resolve_fallible(p) {
            Ok(d) => resolved.push((p, d)),
            Err(error) => return GroupOutcome::Failed { error },
        }
    }
    let held = scheme(&resolver);
    // Missing pairs the group did not certify were answered degraded;
    // everything it certified is the commit batch.
    let degraded = missing
        .iter()
        .copied()
        .filter(|&p| lookup(&held.own, p).is_none())
        .collect();
    let fresh = held.own.clone();
    let mut ledger = resolver.provenance();
    // The view and memo were read in place rather than preloaded,
    // so the resolver counted no preloads; they are the group's
    // checkpoint preloads all the same.
    ledger.checkpoint_preload = held.held_count() as u64;
    GroupOutcome::Served(Box::new(ServedGroup {
        response: GroupResponse {
            resolved,
            degraded,
            strong_calls: oracle.calls(),
            store_hits: (pairs.len() - missing.len()) as u64,
        },
        fresh,
        ledger,
        degraded: resolver.degradation().is_some(),
        quarantine: resolver.corruption_stats().detected > 0,
    }))
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "un-metered ground truth")]
mod tests {
    use super::*;
    use prox_datasets::{ClusteredPlane, Dataset};
    use std::collections::BTreeSet;

    fn served(outcome: GroupOutcome) -> ServedGroup {
        match outcome {
            GroupOutcome::Served(s) => *s,
            other => panic!("expected Served, got {other:?}"),
        }
    }

    #[test]
    fn admission_rejects_with_a_deterministic_hint() {
        let metric = ClusteredPlane::default().metric(16, 7);
        let query = PairGroupQuery::explicit(Pair::all(6).collect());
        let config = SessionConfig {
            admit: 4,
            ..SessionConfig::default()
        };
        // 15 missing pairs against a budget of 4.
        match run_group(&*metric, &[], &[], &query, 0, &config) {
            GroupOutcome::Rejected {
                missing,
                admit,
                retry,
            } => {
                assert_eq!((missing, admit), (15, 4));
                assert_eq!(retry.store_entries_at_least, 11);
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_hits_are_free_and_fresh_is_disjoint() {
        let metric = ClusteredPlane::default().metric(16, 7);
        let query = PairGroupQuery::explicit(Pair::all(5).collect());
        let config = SessionConfig::default();
        let first = served(run_group(&*metric, &[], &[], &query, 0, &config));
        assert_eq!(first.response.strong_calls, 10);
        assert_eq!(first.response.store_hits, 0);
        assert_eq!(first.fresh.len(), 10);
        assert!(first.response.degraded.is_empty());

        // Same group with the first run's answers as the snapshot:
        // everything is a store hit, nothing is billed or fresh.
        let snap = first.fresh.clone();
        let second = served(run_group(&*metric, &snap, &[], &query, 1, &config));
        assert_eq!(second.response.strong_calls, 0);
        assert_eq!(second.response.store_hits, 10);
        assert!(second.fresh.is_empty());
        assert_eq!(second.response.resolved, first.response.resolved);
        assert_eq!(second.ledger.checkpoint_preload, 10);
        assert_eq!(second.ledger.strong_call, 0);
    }

    #[test]
    fn virtual_deadline_kill_without_degrade_fails_the_group() {
        let metric = ClusteredPlane::default().metric(32, 7);
        let query = PairGroupQuery::explicit(Pair::all(20).collect());
        let config = SessionConfig {
            call_cost: Duration::from_millis(1),
            deadline: Some(Duration::from_millis(5)),
            ..SessionConfig::default()
        };
        match run_group(&*metric, &[], &[], &query, 0, &config) {
            GroupOutcome::Failed { error } => {
                assert!(
                    matches!(error, OracleError::BudgetExhausted { calls: 5 }),
                    "{error:?}"
                );
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn deadline_exhaustion_degrades_when_configured() {
        let metric = ClusteredPlane::default().metric(16, 7);
        let query = PairGroupQuery::explicit(Pair::all(8).collect());
        let config = SessionConfig {
            weak: Some((1.0, 99)),
            degrade: true,
            call_cost: Duration::from_millis(1),
            deadline: Some(Duration::from_millis(5)),
            ..SessionConfig::default()
        };
        let g = served(run_group(&*metric, &[], &[], &query, 0, &config));
        assert!(g.degraded);
        assert_eq!(g.response.resolved.len(), 28);
        // Degraded pairs are answered but never certified/committed.
        assert!(!g.response.degraded.is_empty());
        let fresh_keys: BTreeSet<u64> = g.fresh.iter().map(|(p, _)| p.key()).collect();
        assert!(g
            .response
            .degraded
            .iter()
            .all(|p| !fresh_keys.contains(&p.key())));
        assert_eq!(
            g.fresh.len() + g.response.degraded.len(),
            28,
            "every pair is either certified-fresh or degraded"
        );
    }

    #[test]
    fn weak_sandwich_uses_the_metric_cap() {
        // Distances up to 7.7 under a cap of 10: an honest weak quorum
        // fits every sandwich, so nothing escalates to the strong tier.
        // Bounds capped at 1 would call the first quorum a lie.
        let metric = prox_core::FnMetric::new(8, 10.0, |a: u32, b: u32| {
            1.1 * (f64::from(a) - f64::from(b)).abs()
        });
        let query = PairGroupQuery::explicit(Pair::all(8).collect());
        let config = SessionConfig {
            weak: Some((0.0, 5)),
            ..SessionConfig::default()
        };
        let g = served(run_group(&metric, &[], &[], &query, 0, &config));
        assert_eq!(g.response.strong_calls, 0);
        assert_eq!((g.ledger.strong_call, g.ledger.weak_quorum), (0, 28));
        assert!(g.response.degraded.is_empty() && !g.degraded);
        assert_eq!(g.fresh.len(), 28);
    }

    #[test]
    fn only_a_bound_query_builds_the_tri_adjacency() {
        let builds = || TRI_BUILDS.with(std::cell::Cell::get);
        let metric = ClusteredPlane::default().metric(24, 7);
        let query = PairGroupQuery::explicit(Pair::all(10).collect());
        // A quarter of the group is missing from the snapshot.
        let snapshot: Vec<(Pair, f64)> = Pair::all(10)
            .enumerate()
            .filter(|(i, _)| i % 4 != 0)
            .map(|(_, p)| (p, metric.distance(p.lo(), p.hi())))
            .collect();
        let before = builds();
        let plain = served(run_group(
            &*metric,
            &snapshot,
            &[],
            &query,
            0,
            &SessionConfig::default(),
        ));
        assert_eq!(plain.fresh.len(), 12);
        assert_eq!(builds(), before, "a resolve-only group built Tri");

        let weak = SessionConfig {
            weak: Some((0.0, 3)),
            ..SessionConfig::default()
        };
        let g = served(run_group(&*metric, &snapshot, &[], &query, 0, &weak));
        assert_eq!(g.response.resolved, plain.response.resolved);
        assert_eq!(g.ledger.weak_quorum, 12);
        assert_eq!(builds(), before + 1, "the weak group builds Tri once");

        // Fully held: the cascade never reaches a bound query.
        let held = served(run_group(
            &*metric,
            &plain.fresh,
            &snapshot,
            &query,
            0,
            &weak,
        ));
        assert_eq!(held.ledger.checkpoint_preload, 45);
        assert_eq!(builds(), before + 1);
    }
}
