//! Provenance-ledger exactness across thread counts (invariant I11).
//!
//! Every resolved pair's value has exactly one source — a billed strong
//! call, a weak-tier quorum, the memo, a checkpoint preload — and every
//! decided comparison has a scheme/tier attribution. I11 pins the
//! aggregated [`prox_obs::ProvenanceLedger`] against the independent
//! billing counters (`Oracle::calls`, `PruneStats`, `weak_stats()`),
//! exactly, with and without the paranoid `CheckedResolver` audit layer in
//! between, and identically whatever the process-wide thread count
//! (`--threads`) says. The ledger is accounting only: maintaining it must
//! never change a trace, so the same workloads' traces must also show zero
//! *semantic* divergence across thread counts (the property `prox-cli
//! diff` checks offline).

use std::rc::Rc;

use prox_algos::{try_knn_graph, try_pam, try_prim_mst, PamParams};
use prox_bounds::{
    BoundResolver, CascadeResolver, CheckedResolver, DistanceResolver, Splub, TriScheme,
};
use prox_core::{FnMetric, Metric, ObjectId, Oracle, Pair, PruneStats, WeakOracle};
use prox_datasets::{ClusteredPlane, Dataset};
use prox_obs::{semantic_diff, JsonlSink, ProvenanceLedger, TraceSink};

const N: usize = 24;
/// Objects in the SPLUB traced-vs-untraced runs.
const SPLUB_N: usize = 60;

fn ring_metric() -> FnMetric<impl Fn(ObjectId, ObjectId) -> f64> {
    let scale = 1.0 / (N as f64);
    FnMetric::new(N, 1.0, move |a, b| {
        let d = (f64::from(a) - f64::from(b)).abs();
        d.min(N as f64 - d) * 2.0 * scale
    })
}

/// Runs `algo` and returns its output `Debug`-rendered, which round-trips
/// every `f64` bit for bit.
fn run_algo(algo: &str, resolver: &mut dyn DistanceResolver) -> String {
    match algo {
        "knng" => format!("{:?}", try_knn_graph(resolver, 4).expect("clean oracle")),
        "prim" => format!("{:?}", try_prim_mst(resolver).expect("clean oracle")),
        "pam" => {
            let params = PamParams {
                l: 3,
                max_swaps: 20,
                seed: 5,
            };
            format!("{:?}", try_pam(resolver, params).expect("clean oracle"))
        }
        other => panic!("unknown workload {other}"),
    }
}

/// One traced run: the committed trace, the ledger, and the independent
/// billing counters it must reconcile against.
struct Observed {
    trace: String,
    ledger: ProvenanceLedger,
    calls: u64,
    stats: PruneStats,
    weak_resolutions: u64,
}

/// Runs `algo` traced with the process-wide thread count set to
/// `threads`, optionally under the paranoid audit wrapper and/or the
/// weak/strong cascade, and collects everything I11 relates. Every bound
/// decision lands on the `direct` tier, which is what makes the
/// attribution thread-invariant.
fn observe(algo: &str, threads: usize, paranoid: bool, weak: bool) -> Observed {
    prox_exec::set_global_threads(threads);
    let metric = ring_metric();
    let sink = Rc::new(JsonlSink::in_memory());
    let oracle =
        Oracle::new(&metric).with_trace(Rc::<JsonlSink>::clone(&sink) as Rc<dyn TraceSink>);
    let inner = BoundResolver::new(&oracle, TriScheme::new(N, 1.0));
    #[expect(clippy::disallowed_methods, reason = "un-metered ground truth")]
    let truth = |p: Pair| metric.distance(p.lo(), p.hi());
    macro_rules! finish {
        ($resolver:expr) => {{
            let mut resolver = $resolver;
            run_algo(algo, &mut resolver);
            Observed {
                ledger: resolver.provenance(),
                stats: resolver.prune_stats(),
                weak_resolutions: resolver.weak_stats().resolutions,
                calls: oracle.calls(),
                trace: {
                    drop(resolver);
                    sink.contents().expect("in-memory sink")
                },
            }
        }};
    }
    match (paranoid, weak) {
        (false, false) => finish!(inner),
        (true, false) => finish!(CheckedResolver::new(inner, truth)),
        (false, true) => finish!(CascadeResolver::new(
            inner,
            WeakOracle::new(&metric, 0.0, 7)
        )),
        (true, true) => finish!(CheckedResolver::new(
            CascadeResolver::new(inner, WeakOracle::new(&metric, 0.0, 7)),
            truth
        )),
    }
}

/// The I11 row-sum identities for one observed run.
fn assert_i11(o: &Observed, ctx: &str) {
    let l = &o.ledger;
    assert_eq!(l.memo, o.stats.served_known, "{ctx}: memo != served_known");
    assert_eq!(
        l.strong_call + l.weak_quorum,
        o.stats.resolved,
        "{ctx}: strong+weak != resolved"
    );
    assert_eq!(
        l.weak_quorum, o.weak_resolutions,
        "{ctx}: weak_quorum != weak_stats().resolutions"
    );
    assert_eq!(
        l.strong_call, o.calls,
        "{ctx}: strong_call != billed oracle calls"
    );
    assert_eq!(
        l.checkpoint_preload, o.stats.preloaded,
        "{ctx}: checkpoint_preload != preloaded"
    );
    assert_eq!(
        l.decisive_total(),
        o.stats.decided_by_bounds,
        "{ctx}: decision rows != decided_by_bounds"
    );
    // Every decision must be attributed to the `direct` tier of the one
    // active scheme.
    for (scheme, tier, _) in l.decisive_rows() {
        assert_eq!(scheme, "Tri", "{ctx}: unexpected scheme row");
        assert_eq!(tier, "direct", "{ctx}: traced run must be all-direct");
    }
}

#[test]
fn ledger_reconciles_with_billing_at_every_thread_count() {
    for algo in ["knng", "prim", "pam"] {
        let want = observe(algo, 1, false, false);
        assert!(want.ledger.strong_call > 0, "{algo}: no strong calls?");
        assert!(
            want.ledger.decisive_total() > 0,
            "{algo}: bounds decided nothing?"
        );
        assert_i11(&want, &format!("{algo}/t1"));
        for threads in [2, 8] {
            let got = observe(algo, threads, false, false);
            assert_i11(&got, &format!("{algo}/t{threads}"));
            assert_eq!(
                want.ledger, got.ledger,
                "{algo}: ledger differs at threads={threads}"
            );
        }
    }
}

#[test]
fn paranoid_audit_layer_preserves_the_ledger() {
    for algo in ["knng", "prim", "pam"] {
        let plain = observe(algo, 1, false, false);
        let audited = observe(algo, 1, true, false);
        assert_i11(&audited, &format!("{algo}/paranoid"));
        assert_eq!(
            plain.ledger, audited.ledger,
            "{algo}: the audit wrapper changed the ledger"
        );
    }
}

#[test]
fn weak_quorums_are_attributed_not_billed() {
    // Error-free weak tier: most fresh pairs quorum weakly and the ledger
    // splits them from the billed strong calls exactly (strong_call ==
    // billed calls is part of `assert_i11`). A few strong calls remain by
    // design — saturated weak votes (pairs at max_distance) escalate —
    // which is exactly why the attribution matters: the ledger, not the raw
    // call counter, says how much the weak tier actually carried.
    for algo in ["knng", "prim", "pam"] {
        let o = observe(algo, 1, false, true);
        assert_i11(&o, &format!("{algo}/weak"));
        assert!(
            o.ledger.weak_quorum > 0,
            "{algo}: weak tier resolved nothing"
        );
        assert!(
            o.ledger.weak_quorum > o.ledger.strong_call,
            "{algo}: weak tier should carry most resolutions at rate 0"
        );
    }
}

#[test]
fn paranoid_weak_cascade_still_reconciles() {
    let o = observe("prim", 1, true, true);
    assert_i11(&o, "prim/paranoid+weak");
    assert!(o.ledger.weak_quorum > 0);
}

#[test]
fn preloads_are_attributed_to_checkpoint_preload() {
    let metric = ring_metric();
    let oracle = Oracle::new(&metric);
    let mut r = BoundResolver::new(&oracle, TriScheme::new(N, 1.0));
    #[expect(clippy::disallowed_methods, reason = "un-metered ground truth")]
    let d = |p: Pair| metric.distance(p.lo(), p.hi());
    for p in [Pair::new(0, 1), Pair::new(2, 5), Pair::new(3, 9)] {
        r.preload(p, d(p));
    }
    try_prim_mst(&mut r).expect("clean oracle");
    let l = r.provenance();
    assert_eq!(l.checkpoint_preload, 3);
    assert_eq!(r.prune_stats().preloaded, 3);
    // Injection is free: only genuinely fresh pairs bill the oracle.
    assert_eq!(l.strong_call, oracle.calls());
    assert_eq!(l.memo, r.prune_stats().served_known);
}

#[test]
fn traces_show_zero_semantic_divergence_across_thread_counts() {
    // The property `prox-cli diff` gates in CI, pinned in-process: same
    // config at different thread counts must agree on every semantic
    // event, ledger rows included.
    for algo in ["knng", "prim", "pam"] {
        let a = observe(algo, 1, false, false);
        for threads in [2, 8] {
            let b = observe(algo, threads, false, false);
            let d = semantic_diff(&a.trace, &b.trace);
            assert!(
                d.identical(),
                "{algo}: semantic divergence at threads={threads}:\n{}",
                d.render()
            );
        }
    }
}

/// One SPLUB run of `algo` on `SPLUB_N` clustered-plane points drawn
/// from `seed`: its output, billed calls, prune counters and ledger.
fn splub_run(algo: &str, seed: u64, traced: bool) -> (String, u64, PruneStats, ProvenanceLedger) {
    let metric = ClusteredPlane::default().metric(SPLUB_N, seed);
    let mut oracle = Oracle::new(&*metric);
    if traced {
        oracle = oracle.with_trace(Rc::new(JsonlSink::in_memory()) as Rc<dyn TraceSink>);
    }
    let mut r = BoundResolver::new(&oracle, Splub::new(SPLUB_N, 1.0));
    let out = run_algo(algo, &mut r);
    (out, oracle.calls(), r.prune_stats(), r.provenance())
}

/// SPLUB has one query path: a run decides every comparison the same way
/// whether or not a trace sink is attached, so what a trace checks is
/// what an untraced run does. kNN's and PAM's threshold probes are the
/// ones that could take another path.
#[test]
fn splub_untraced_runs_equal_traced_ones() {
    for algo in ["knng", "pam"] {
        for seed in [3, 11] {
            let ctx = format!("{algo}/splub seed {seed}");
            let untraced = splub_run(algo, seed, false);
            let traced = splub_run(algo, seed, true);
            assert_eq!(untraced.0, traced.0, "{ctx}: outputs differ");
            assert_eq!(untraced.1, traced.1, "{ctx}: oracle calls differ");
            assert_eq!(untraced.2, traced.2, "{ctx}: PruneStats differ");
            assert_eq!(untraced.3.rows(), traced.3.rows(), "{ctx}: ledgers differ");
            let (stats, ledger) = (untraced.2, untraced.3);
            assert!(stats.decided_by_bounds > 0, "{ctx}: nothing decided");
            assert_eq!(
                ledger.decisive_rows().collect::<Vec<_>>(),
                [("SPLUB", "direct", stats.decided_by_bounds)],
                "{ctx}: every decision must be a direct SPLUB row"
            );
        }
    }
}
