//! The fault-tolerance invariants (docs/INVARIANTS.md I6 + I7).
//!
//! **I6 — fault-equivalence.** A run whose oracle injects deterministic
//! transient faults, all absorbed by retries, is indistinguishable from a
//! clean run in everything that matters: algorithm outputs, prune stats,
//! and the set of unique pairs resolved. Only the billed attempt count
//! grows, by exactly the number of injected faults. This holds under the
//! paranoid `CheckedResolver` audit too.
//!
//! **I7 — resume-equivalence.** A budget-killed run's exported knowledge,
//! fed back as a preload, lets the re-run converge to the identical output
//! while re-paying the oracle for exactly the pairs the killed run never
//! resolved — zero already-resolved pairs are re-paid.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::time::Duration;

use prox_algos::{
    knn_graph, pam, prim_mst, try_k_center, try_knn_graph, try_prim_mst, try_single_linkage,
    try_tsp_2opt, PamParams,
};
use prox_bounds::{BoundResolver, CheckedResolver, DistanceResolver, Splub, TriScheme};
use prox_core::{
    CallBudget, FaultInjector, FaultStats, FnMetric, Metric, ObjectId, Oracle, OracleError, Pair,
    PruneStats, RetryPolicy, TinyRng,
};
use prox_datasets::testgen::{property, random_points};
use prox_datasets::EuclideanPoints;

/// Retries generous enough to absorb every injected fault at rate 0.2:
/// the injector's per-(pair, attempt) schedule makes long fault streaks
/// exponentially unlikely, and eight retries push them past test scale.
fn absorbing_retry() -> RetryPolicy {
    RetryPolicy::standard(8)
}

fn points(rng: &mut TinyRng) -> Vec<(f64, f64)> {
    let n = rng.range(8, 24);
    random_points(rng, n)
}

/// Output + unique-work fingerprint of one run: algorithm result, prune
/// stats, and the resolver's full certified-distance set (sorted).
type Fingerprint<T> = (T, PruneStats, Vec<(Pair, u64)>);

fn fingerprint<T>(out: T, r: &dyn DistanceResolver) -> Fingerprint<T> {
    let mut known = Vec::new();
    r.export_known(&mut known);
    let mut keyed: Vec<(Pair, u64)> = known.iter().map(|&(p, d)| (p, d.to_bits())).collect();
    keyed.sort_unstable();
    (out, r.prune_stats(), keyed)
}

/// Runs `body` against a Tri-plugged resolver over `metric`, first with a
/// clean oracle and then with faults + retries; asserts the I6 contract.
fn assert_fault_equivalent<T: PartialEq + std::fmt::Debug>(
    metric: &EuclideanPoints,
    n: usize,
    label: &str,
    mut body: impl FnMut(&mut dyn DistanceResolver) -> Result<T, OracleError>,
) {
    let clean_oracle = Oracle::new(metric);
    let mut clean_r = BoundResolver::new(&clean_oracle, TriScheme::new(n, 1.0));
    let clean_out = body(&mut clean_r).expect("clean oracle cannot fault");
    let clean = fingerprint(clean_out, &clean_r);
    assert_eq!(clean_oracle.fault_stats(), FaultStats::default());

    let faulty_oracle = Oracle::new(metric)
        .with_faults(FaultInjector::new(0.2, 0xFA17))
        .with_retry(absorbing_retry());
    let mut faulty_r = BoundResolver::new(&faulty_oracle, TriScheme::new(n, 1.0));
    let faulty_out = body(&mut faulty_r).expect("retries must absorb every fault");
    let faulty = fingerprint(faulty_out, &faulty_r);

    assert_eq!(faulty, clean, "{label}: I6 outputs/stats/unique pairs");
    let stats = faulty_oracle.fault_stats();
    assert!(stats.faults_injected > 0, "{label}: rate 0.2 must fire");
    assert_eq!(
        faulty_oracle.calls(),
        clean_oracle.calls() + stats.faults_injected,
        "{label}: billed = clean + injected, nothing more"
    );
    assert!(
        faulty_oracle.virtual_time() >= stats.backoff_time,
        "{label}: backoff is charged to virtual time"
    );
}

#[test]
fn sequential_cores_are_fault_equivalent() {
    property(0x5EED_0601, 10, |rng| {
        let pts = points(rng);
        let n = pts.len();
        let metric = EuclideanPoints::new(pts);
        let k = 3.min(n - 1);
        let l = 3.min(n);

        assert_fault_equivalent(&metric, n, "prim", |r| {
            try_prim_mst(r).map(|m| m.edge_keys())
        });
        assert_fault_equivalent(&metric, n, "knng", |r| try_knn_graph(r, k));
        assert_fault_equivalent(&metric, n, "kcenter", |r| {
            try_k_center(r, l, 0).map(|s| (s.centers, s.assignment, s.radius.to_bits()))
        });
        assert_fault_equivalent(&metric, n, "tsp", |r| {
            try_tsp_2opt(r, 0, 30).map(|t| (t.order, t.length.to_bits()))
        });
        assert_fault_equivalent(&metric, n, "linkage", |r| {
            try_single_linkage(r).map(|d| d.merges)
        });
    });
}

#[test]
fn splub_knng_and_pam_are_fault_equivalent() {
    // The Tri cores above cover single algorithms; this chains kNN graph
    // and PAM on one SPLUB resolver, so PAM starts from the knowledge the
    // faulty kNN pass recorded.
    property(0x5EED_0602, 8, |rng| {
        let pts = points(rng);
        let n = pts.len();
        let metric = EuclideanPoints::new(pts);
        let k = 3.min(n - 1);
        let params = PamParams {
            l: 2.min(n),
            max_swaps: 40,
            seed: 11,
        };
        let run = |oracle: &Oracle<&EuclideanPoints>| {
            let mut r = BoundResolver::new(oracle, Splub::new(n, 1.0));
            let g = knn_graph(&mut r, k);
            let c = pam(&mut r, params);
            fingerprint((g, c.medoids, c.assignment, c.cost.to_bits()), &r)
        };

        let clean_oracle = Oracle::new(&metric);
        let clean = run(&clean_oracle);
        let faulty_oracle = Oracle::new(&metric)
            .with_faults(FaultInjector::new(0.15, 0xFA18))
            .with_retry(absorbing_retry());
        assert_eq!(run(&faulty_oracle), clean, "I6 outputs/stats/unique pairs");
        let stats = faulty_oracle.fault_stats();
        assert!(stats.faults_injected > 0, "rate 0.15 must fire");
        assert_eq!(
            faulty_oracle.calls(),
            clean_oracle.calls() + stats.faults_injected
        );
    });
}

#[test]
fn fault_equivalence_holds_under_paranoid_audit() {
    property(0x5EED_0603, 6, |rng| {
        let pts = points(rng);
        let n = pts.len();
        let metric = EuclideanPoints::new(pts);
        let k = 3.min(n - 1);
        #[expect(clippy::disallowed_methods, reason = "un-metered ground truth")]
        let truth = |p: Pair| metric.distance(p.lo(), p.hi());

        let clean_oracle = Oracle::new(&metric);
        let mut clean_r = CheckedResolver::new(
            BoundResolver::new(&clean_oracle, TriScheme::new(n, 1.0)),
            truth,
        );
        let clean_out = try_knn_graph(&mut clean_r, k).expect("clean oracle cannot fault");
        let clean_calls = clean_oracle.calls();

        let oracle = Oracle::new(&metric)
            .with_faults(FaultInjector::new(0.2, 0xFA19))
            .with_retry(absorbing_retry());
        let mut r =
            CheckedResolver::new(BoundResolver::new(&oracle, TriScheme::new(n, 1.0)), truth);
        let got = knn_graph(&mut r, k);
        assert_eq!(got, clean_out, "audited faulty run");
        assert!(r.checks() > 0, "run performed no audits");
        let stats = oracle.fault_stats();
        assert!(stats.faults_injected > 0, "rate 0.2 must fire");
        assert_eq!(oracle.calls(), clean_calls + stats.faults_injected);
    });
}

#[test]
fn env_configured_fault_matrix_cell() {
    // CI fault-matrix entry point: `PROX_FAULT_RATE` ∈ {0, 0.01, 0.1, …}
    // picks the cell (default 0.05); the assertion is always I6 — the
    // faulty run matches the clean run, and bills clean + injected.
    let rate: f64 = std::env::var("PROX_FAULT_RATE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.05);

    let pts = random_points(&mut TinyRng::new(31), 40);
    let n = pts.len();
    let metric = EuclideanPoints::new(pts);
    let k = 5;

    let clean_oracle = Oracle::new(&metric);
    let mut clean_r = BoundResolver::new(&clean_oracle, TriScheme::new(n, 1.0));
    let clean_g = knn_graph(&mut clean_r, k);
    let clean = fingerprint(clean_g, &clean_r);

    let faulty_oracle = Oracle::new(&metric)
        .with_faults(FaultInjector::new(rate, 0xC1))
        .with_retry(absorbing_retry());
    let mut faulty_r = BoundResolver::new(&faulty_oracle, TriScheme::new(n, 1.0));
    let faulty_g = knn_graph(&mut faulty_r, k);
    let faulty = fingerprint(faulty_g, &faulty_r);

    assert_eq!(faulty, clean, "I6 cell rate={rate}");
    let stats = faulty_oracle.fault_stats();
    assert_eq!(
        faulty_oracle.calls(),
        clean_oracle.calls() + stats.faults_injected,
        "billing cell rate={rate}"
    );
    if rate == 0.0 {
        assert_eq!(stats, FaultStats::default(), "rate 0 must inject nothing");
    }
}

/// A metric that records every pair it is asked about, for proving which
/// pairs a run actually paid for.
fn recording_metric(
    pts: Vec<(f64, f64)>,
    log: &RefCell<Vec<Pair>>,
) -> FnMetric<impl Fn(ObjectId, ObjectId) -> f64 + '_> {
    let inner = EuclideanPoints::new(pts);
    let n = inner.len();
    let max = inner.max_distance();
    FnMetric::new(n, max, move |a, b| {
        log.borrow_mut().push(Pair::new(a, b));
        #[expect(clippy::disallowed_methods, reason = "this is the metric")]
        inner.distance(a, b)
    })
}

#[test]
fn budget_killed_run_resumes_with_exactly_the_missing_calls() {
    property(0x5EED_0604, 10, |rng| {
        let pts = points(rng);
        let n = pts.len();

        // Ground truth: the clean, unlimited run.
        let clean_log = RefCell::new(Vec::new());
        let clean_oracle = Oracle::new(recording_metric(pts.clone(), &clean_log));
        let mut clean_r = BoundResolver::new(&clean_oracle, TriScheme::new(n, 1.0));
        let clean_mst = prim_mst(&mut clean_r);
        let clean_pairs: BTreeSet<Pair> = clean_log.borrow().iter().copied().collect();
        let budget = clean_oracle.calls() / 2;
        if budget == 0 {
            return; // instance too small to split; nothing to prove
        }

        // Phase 1: the same run dies at half budget; export what it knows.
        let kill_log = RefCell::new(Vec::new());
        let kill_oracle = Oracle::new(recording_metric(pts.clone(), &kill_log))
            .with_budget(CallBudget::calls(budget));
        let mut kill_r = BoundResolver::new(&kill_oracle, TriScheme::new(n, 1.0));
        match try_prim_mst(&mut kill_r) {
            Err(OracleError::BudgetExhausted { calls }) => assert_eq!(calls, budget),
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        let mut checkpoint = Vec::new();
        kill_r.export_known(&mut checkpoint);
        let paid: BTreeSet<Pair> = kill_log.borrow().iter().copied().collect();

        // Phase 2: resume from the exported knowledge.
        let resume_log = RefCell::new(Vec::new());
        let resume_oracle = Oracle::new(recording_metric(pts, &resume_log));
        let mut resume_r = BoundResolver::new(&resume_oracle, TriScheme::new(n, 1.0));
        for &(p, d) in &checkpoint {
            resume_r.preload(p, d);
        }
        let resumed_mst = try_prim_mst(&mut resume_r).expect("clean resume cannot fault");
        let resumed: BTreeSet<Pair> = resume_log.borrow().iter().copied().collect();

        // I7: identical output, zero re-paid pairs, and killed + resumed
        // covers exactly the clean run's unique-pair set.
        assert_eq!(resumed_mst.edge_keys(), clean_mst.edge_keys());
        assert!(
            resumed.is_disjoint(&paid),
            "resume re-paid already-resolved pairs: {:?}",
            resumed.intersection(&paid).collect::<Vec<_>>()
        );
        let union: BTreeSet<Pair> = resumed.union(&paid).copied().collect();
        assert_eq!(union, clean_pairs, "killed + resumed = clean, exactly");
        assert_eq!(
            resume_oracle.calls() as usize,
            clean_pairs.len() - paid.len(),
            "resume pays only the missing calls"
        );
    });
}

#[test]
fn deadline_budget_kills_via_virtual_time_not_wall_clock() {
    // Backoff is virtual, so a deadline budget trips deterministically:
    // same seed, same fault schedule, same number of billed calls at the
    // point of death — no real sleeping involved.
    let pts = random_points(&mut TinyRng::new(9), 16);
    let n = pts.len();
    let metric = EuclideanPoints::new(pts);

    let run = || {
        let oracle = Oracle::new(&metric)
            .with_faults(FaultInjector::new(0.3, 0xFA20))
            .with_retry(RetryPolicy::standard(8))
            .with_budget(CallBudget::unlimited().with_deadline(Duration::from_secs(2)));
        let mut r = BoundResolver::new(&oracle, TriScheme::new(n, 1.0));
        let out = try_prim_mst(&mut r).map(|m| m.edge_keys());
        (out, oracle.calls(), oracle.virtual_time())
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "virtual-time deadline must be deterministic");
    match &first.0 {
        Err(OracleError::BudgetExhausted { .. }) => {
            assert!(
                first.2 >= Duration::from_secs(2),
                "died by virtual deadline"
            )
        }
        Ok(_) => assert!(first.2 < Duration::from_secs(2) + Duration::from_secs(10)),
        Err(other) => panic!("unexpected error {other:?}"),
    }
}
