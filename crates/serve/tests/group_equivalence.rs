//! `run_group` reads the round snapshot and the session memo in place.
//! This suite pins it, field by field and bit by bit, to a reference
//! built the straightforward way: a fresh `TriScheme` preloaded with
//! snapshot ∪ memo, the group resolved through it, and the commit batch
//! taken from `export_known` minus what was held.
//!
//! The sweep crosses every selector shape (with and without skip sets),
//! three store states (empty; a memo overlapping the snapshot; a group
//! held entirely by snapshot + memo) and the session configurations the
//! server runs: default, admission accept and reject, faults with retry,
//! a deadline kill, the weak cascade, and weak + degrade + deadline
//! (with a weak tier that never and one that sometimes reaches quorum).

#![expect(clippy::disallowed_methods, reason = "un-metered ground truth")]

use std::time::Duration;

use prox_bounds::{BoundResolver, CascadeResolver, DistanceResolver, TriScheme};
use prox_core::{CallBudget, FaultInjector, Metric, Oracle, Pair, RetryPolicy, WeakOracle};
use prox_datasets::{ClusteredPlane, Dataset};
use prox_serve::{
    run_group, GroupOutcome, GroupResponse, PairGroupQuery, PairSelector, RetryHint, ServedGroup,
    SessionConfig,
};

const N: usize = 24;

/// `run_group` as a scheme preload: snapshot ∪ memo merged and
/// deduplicated, every entry preloaded into a fresh Tri scheme, and the
/// commit batch derived from the resolver's exported known set.
fn reference(
    metric: &(dyn Metric + Send + Sync),
    snapshot: &[(Pair, f64)],
    memo: &[(Pair, f64)],
    query: &PairGroupQuery,
    id: u32,
    config: &SessionConfig,
) -> GroupOutcome {
    let pairs = query.pairs();
    let mut held: Vec<(Pair, f64)> = snapshot.iter().chain(memo).copied().collect();
    held.sort_by_key(|e| e.0);
    held.dedup_by_key(|e| e.0);
    let is_held = |p: Pair| held.binary_search_by_key(&p, |e| e.0).is_ok();
    let missing = pairs.iter().filter(|&&p| !is_held(p)).count() as u64;
    if config.admit > 0 && missing > config.admit {
        return GroupOutcome::Rejected {
            missing,
            admit: config.admit,
            retry: RetryHint {
                store_entries_at_least: snapshot.len() as u64 + (missing - config.admit),
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
    let resolver = BoundResolver::new(&oracle, TriScheme::new(metric.len(), metric.max_distance()));
    let store_hits = pairs.len() as u64 - missing;
    match config.weak {
        Some((rate, seed)) => {
            let weak = WeakOracle::new(metric, rate, seed ^ u64::from(id));
            let cascade = CascadeResolver::new(resolver, weak).with_degrade(config.degrade);
            reference_tail(cascade, &oracle, &held, &pairs, store_hits)
        }
        None => reference_tail(resolver, &oracle, &held, &pairs, store_hits),
    }
}

fn reference_tail<R: DistanceResolver>(
    mut resolver: R,
    oracle: &Oracle<&(dyn Metric + Send + Sync)>,
    held: &[(Pair, f64)],
    pairs: &[Pair],
    store_hits: u64,
) -> GroupOutcome {
    for &(p, d) in held {
        resolver.preload(p, d);
    }
    let mut resolved = Vec::new();
    for &p in pairs {
        match resolver.resolve_fallible(p) {
            Ok(d) => resolved.push((p, d)),
            Err(error) => return GroupOutcome::Failed { error },
        }
    }
    let mut certified = Vec::new();
    resolver.export_known(&mut certified);
    certified.sort_by_key(|e| e.0);
    let is_certified = |p: Pair| certified.binary_search_by_key(&p, |e| e.0).is_ok();
    let is_held = |p: Pair| held.binary_search_by_key(&p, |e| e.0).is_ok();
    GroupOutcome::Served(Box::new(ServedGroup {
        response: GroupResponse {
            resolved,
            degraded: pairs
                .iter()
                .copied()
                .filter(|&p| !is_certified(p))
                .collect(),
            strong_calls: oracle.calls(),
            store_hits,
        },
        fresh: certified.into_iter().filter(|e| !is_held(e.0)).collect(),
        ledger: resolver.provenance(),
        degraded: resolver.degradation().is_some(),
        quarantine: resolver.corruption_stats().detected > 0,
    }))
}

fn bits(entries: &[(Pair, f64)]) -> Vec<(Pair, u64)> {
    entries.iter().map(|&(p, d)| (p, d.to_bits())).collect()
}

/// Which outcome variant `o` is, for the sweep's coverage check.
fn kind(o: &GroupOutcome) -> &'static str {
    match o {
        GroupOutcome::Rejected { .. } => "rejected",
        GroupOutcome::Failed { .. } => "failed",
        GroupOutcome::Served(s) if s.degraded => "degraded",
        GroupOutcome::Served(_) => "served",
    }
}

fn assert_same(got: &GroupOutcome, want: &GroupOutcome, ctx: &str) {
    match (got, want) {
        (
            GroupOutcome::Rejected {
                missing,
                admit,
                retry,
            },
            GroupOutcome::Rejected {
                missing: m,
                admit: a,
                retry: r,
            },
        ) => assert_eq!((missing, admit, retry), (m, a, r), "{ctx}: rejection"),
        (GroupOutcome::Failed { error }, GroupOutcome::Failed { error: e }) => {
            assert_eq!(error, e, "{ctx}: failure");
        }
        (GroupOutcome::Served(g), GroupOutcome::Served(w)) => {
            let (gr, wr) = (&g.response, &w.response);
            assert_eq!(bits(&gr.resolved), bits(&wr.resolved), "{ctx}: resolved");
            assert_eq!(gr.degraded, wr.degraded, "{ctx}: degraded pairs");
            assert_eq!(gr.strong_calls, wr.strong_calls, "{ctx}: strong calls");
            assert_eq!(gr.store_hits, wr.store_hits, "{ctx}: store hits");
            assert_eq!(bits(&g.fresh), bits(&w.fresh), "{ctx}: fresh");
            assert_eq!(g.ledger, w.ledger, "{ctx}: ledger");
            assert_eq!(g.degraded, w.degraded, "{ctx}: degraded flag");
            assert_eq!(g.quarantine, w.quarantine, "{ctx}: quarantine");
        }
        _ => panic!("{ctx}: outcome {got:?} != reference {want:?}"),
    }
}

#[test]
fn run_group_matches_a_preloaded_tri_reference() {
    let metric = ClusteredPlane::default().metric(N, 7);
    let truth = |p: Pair| (p, metric.distance(p.lo(), p.hi()));
    let every = |m: usize, r: usize| -> Vec<(Pair, f64)> {
        Pair::all(N)
            .enumerate()
            .filter(|(i, _)| i % m == r)
            .map(|(_, p)| truth(p))
            .collect()
    };

    let queries = [
        PairGroupQuery::explicit(Pair::all(N).step_by(7).collect()),
        PairGroupQuery::explicit(Pair::all(9).collect()).with_skip([
            Pair::new(0, 1),
            Pair::new(2, 5),
            Pair::new(7, 8),
        ]),
        PairGroupQuery {
            selector: PairSelector::Block(vec![3, 17, 5, 11, 20, 8, 14, 2]),
            skip: Default::default(),
        },
        PairGroupQuery {
            selector: PairSelector::Block(vec![0, 6, 12, 18, 23, 9, 4]),
            skip: [Pair::new(0, 6), Pair::new(9, 23)].into(),
        },
        PairGroupQuery {
            selector: PairSelector::Cross(vec![1, 4, 10], vec![4, 15, 19, 22, 7]),
            skip: Default::default(),
        },
        PairGroupQuery {
            selector: PairSelector::Cross(vec![2, 13, 21, 16], vec![5, 9, 13, 0]),
            skip: [Pair::new(2, 5), Pair::new(13, 16)].into(),
        },
    ];
    // (name, snapshot, memo): every third pair stored with every fifth
    // pending in the memo (they overlap on every fifteenth); and every
    // pair held, split between snapshot and memo.
    let states = [
        ("empty", Vec::new(), Vec::new()),
        ("overlap", every(3, 0), every(5, 0)),
        ("held", every(2, 0), every(2, 1)),
    ];
    let cost = Duration::from_millis(1);
    let configs = [
        ("default", SessionConfig::default()),
        (
            "admit-accept",
            SessionConfig {
                admit: 200,
                ..SessionConfig::default()
            },
        ),
        (
            "admit-reject",
            SessionConfig {
                admit: 4,
                ..SessionConfig::default()
            },
        ),
        (
            "faults-retry",
            SessionConfig {
                faults: Some((0.3, 11)),
                retry: 2,
                ..SessionConfig::default()
            },
        ),
        (
            "deadline-kill",
            SessionConfig {
                call_cost: cost,
                deadline: Some(cost * 5),
                ..SessionConfig::default()
            },
        ),
        (
            "weak",
            SessionConfig {
                weak: Some((0.2, 9)),
                ..SessionConfig::default()
            },
        ),
        (
            "weak-degrade-deadline",
            SessionConfig {
                weak: Some((1.0, 99)),
                degrade: true,
                call_cost: cost,
                deadline: Some(cost * 3),
                ..SessionConfig::default()
            },
        ),
        // About a third of the weak votes reach a quorum, so certified
        // records keep landing in the Tri scheme after its lazy build,
        // and the degraded midpoints read them.
        (
            "weak-mixed-degrade-deadline",
            SessionConfig {
                weak: Some((0.995, 41)),
                degrade: true,
                call_cost: cost,
                deadline: Some(cost * 3),
                ..SessionConfig::default()
            },
        ),
    ];

    let mut kinds = std::collections::BTreeSet::new();
    for (qi, query) in queries.iter().enumerate() {
        for (state, snapshot, memo) in &states {
            for (name, config) in &configs {
                for id in [0, 3] {
                    let ctx = format!("query {qi}, {state}, {name}, session {id}");
                    let got = run_group(&*metric, snapshot, memo, query, id, config);
                    let want = reference(&*metric, snapshot, memo, query, id, config);
                    assert_same(&got, &want, &ctx);
                    kinds.insert(kind(&got));
                }
            }
        }
    }
    assert_eq!(
        kinds.into_iter().collect::<Vec<_>>(),
        ["degraded", "failed", "rejected", "served"],
        "the sweep must reach every outcome"
    );
}
