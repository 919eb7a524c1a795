//! The untrusted-oracle invariant I9 (docs/INVARIANTS.md).
//!
//! **I9 — corruption-exactness.** Under deterministic value corruption
//! with auditing enabled, final algorithm outputs (MST, kNN graph, PAM)
//! are *byte-identical* to the clean run, whatever `--threads` says and
//! under the paranoid `CheckedResolver`; `CorruptionStats.detected`
//! equals the number of injected-and-observable corruptions exactly (at
//! vote ≥ 2 every lone lie loses the vote; only a bit-exact colliding-lie
//! quorum could win, which these deterministic workloads never produce —
//! see INVARIANTS.md I9); and billed calls equal the clean cost plus the
//! audit's re-queries, nothing more — cross-checked against the
//! structured trace report.

use std::rc::Rc;

use prox_algos::{knn_graph, pam, prim_mst, PamParams};
use prox_bounds::{
    AuditPolicy, BoundResolver, CheckedResolver, CorruptionStats, DistanceResolver, Splub,
    TriScheme,
};
use prox_core::{CorruptionInjector, Metric, Oracle, Pair, PruneStats, TinyRng};
use prox_datasets::testgen::{property, random_points};
use prox_datasets::EuclideanPoints;
use prox_obs::{summarize, JsonlSink, TraceSink};

const THREADS: [usize; 3] = [1, 2, 8];
const RATE: f64 = 0.05;

fn points(rng: &mut TinyRng) -> Vec<(f64, f64)> {
    let n = rng.range(10, 26);
    random_points(rng, n)
}

/// Output + unique-work fingerprint: result, prune stats, and the full
/// certified-distance set with bit-exact values.
type Fingerprint<T> = (T, PruneStats, Vec<(Pair, u64)>);

fn fingerprint<T>(out: T, r: &dyn DistanceResolver) -> Fingerprint<T> {
    let mut known = Vec::new();
    r.export_known(&mut known);
    let mut keyed: Vec<(Pair, u64)> = known.iter().map(|&(p, d)| (p, d.to_bits())).collect();
    keyed.sort_unstable();
    (out, r.prune_stats(), keyed)
}

/// MST edge keys + weight bits, kNN rows with distance bits, PAM
/// medoids/assignment/cost bits — everything three algorithm cores emit.
type AllOutputs = (Vec<u64>, u64, Vec<Vec<(u32, u64)>>, Vec<u32>, Vec<u32>, u64);

/// Prim + kNN graph + PAM over one resolver, fingerprinted bit-exactly.
fn run_all(r: &mut dyn DistanceResolver, k: usize, params: PamParams) -> Fingerprint<AllOutputs> {
    let mst = prim_mst(r);
    let g: Vec<Vec<(u32, u64)>> = knn_graph(r, k)
        .into_iter()
        .map(|row| row.into_iter().map(|(j, d)| (j, d.to_bits())).collect())
        .collect();
    let c = pam(r, params);
    fingerprint(
        (
            mst.edge_keys(),
            mst.total_weight.to_bits(),
            g,
            c.medoids,
            c.assignment,
            c.cost.to_bits(),
        ),
        r,
    )
}

#[test]
fn corrupted_vote_runs_are_byte_identical_to_clean_at_every_thread_count() {
    let mut total_injected = 0u64;
    property(0x5EED_0901, 8, |rng| {
        let pts = points(rng);
        let n = pts.len();
        let metric = EuclideanPoints::new(pts);
        let k = 3.min(n - 1);
        let params = PamParams {
            l: 2.min(n),
            max_swaps: 40,
            seed: 11,
        };

        let clean_oracle = Oracle::new(&metric);
        let mut clean_r = BoundResolver::new(&clean_oracle, Splub::new(n, 1.0));
        let clean = run_all(&mut clean_r, k, params);
        let clean_calls = clean_oracle.calls();

        // `--threads` sets this process-wide knob; plugged runs ignore it.
        for threads in THREADS {
            prox_exec::set_global_threads(threads);
            let oracle =
                Oracle::new(&metric).with_corruption(CorruptionInjector::new(RATE, 0xC0DE));
            let mut r =
                BoundResolver::new(&oracle, Splub::new(n, 1.0)).with_audit(AuditPolicy::vote(3, 3));
            let got = run_all(&mut r, k, params);
            assert_eq!(got, clean, "I9 outputs/stats/pairs, threads={threads}");

            let stats = r.corruption_stats();
            assert_eq!(
                stats.detected,
                oracle.corruptions_injected(),
                "vote >= 2 observes every injection, threads={threads}"
            );
            assert_eq!(
                oracle.calls(),
                clean_calls + stats.requeries,
                "billed = clean + re-queries exactly, threads={threads}"
            );
            assert_eq!(stats.retracted, 0, "voting never records a lie");
            total_injected += oracle.corruptions_injected();
        }
    });
    assert!(
        total_injected > 0,
        "rate 0.05 must fire across the property"
    );
}

#[test]
fn corruption_exactness_holds_under_paranoid_audit() {
    property(0x5EED_0902, 6, |rng| {
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
        let clean_out = knn_graph(&mut clean_r, k);
        let clean_calls = clean_oracle.calls();

        let oracle = Oracle::new(&metric).with_corruption(CorruptionInjector::new(RATE, 0xC0DF));
        let mut r = CheckedResolver::new(
            BoundResolver::new(&oracle, TriScheme::new(n, 1.0)).with_audit(AuditPolicy::vote(3, 3)),
            truth,
        );
        let got = knn_graph(&mut r, k);
        assert_eq!(got, clean_out, "paranoid audited run");
        assert!(r.checks() > 0, "run performed no paranoid checks");

        let stats = r.corruption_stats();
        assert_eq!(stats.detected, oracle.corruptions_injected());
        assert_eq!(oracle.calls(), clean_calls + stats.requeries);
    });
}

#[test]
fn billed_requeries_reconcile_with_the_trace_report() {
    let pts = random_points(&mut TinyRng::new(17), 32);
    let n = pts.len();
    let metric = EuclideanPoints::new(pts);

    let clean_oracle = Oracle::new(&metric);
    let mut clean_r = BoundResolver::new(&clean_oracle, TriScheme::new(n, 1.0));
    let clean_mst = prim_mst(&mut clean_r);
    let clean_calls = clean_oracle.calls();

    let sink = Rc::new(JsonlSink::in_memory());
    let oracle = Oracle::new(&metric)
        .with_corruption(CorruptionInjector::new(0.1, 0xC0E0))
        .with_trace(Rc::clone(&sink) as Rc<dyn TraceSink>);
    let mut r =
        BoundResolver::new(&oracle, TriScheme::new(n, 1.0)).with_audit(AuditPolicy::vote(3, 3));
    let mst = prim_mst(&mut r);

    assert_eq!(mst.edge_keys(), clean_mst.edge_keys());
    assert_eq!(mst.total_weight.to_bits(), clean_mst.total_weight.to_bits());
    assert!(oracle.corruptions_injected() > 0, "rate 0.1 must fire");

    let stats = r.corruption_stats();
    assert_eq!(oracle.calls(), clean_calls + stats.requeries);

    // The structured trace is the external witness: its billed-call total
    // and corruption counters must agree with the oracle's and auditor's
    // own accounting, exactly.
    let text = sink.contents().expect("in-memory sink retains its text");
    let report = summarize(&text).expect("trace parses");
    assert_eq!(report.billed_calls, oracle.calls());
    assert_eq!(report.corruption_detected, stats.detected);
    assert_eq!(report.corruption_repaired, stats.repaired);
    assert_eq!(report.corruption_retracted, stats.retracted);
}

#[test]
fn env_configured_corruption_matrix_cell() {
    // CI corruption-matrix entry point: `PROX_CORRUPT_RATE` ∈ {0, 0.01, …}
    // and `PROX_VOTE` ∈ {1, 3} pick the cell (defaults 0.05 and 3). At
    // vote ≥ 2 the assertion is full I9; at vote 1 (detection mode) the
    // audit only proves sandwich violations, so the cell checks the
    // billing identity and that a zero rate changes nothing at all.
    let rate: f64 = std::env::var("PROX_CORRUPT_RATE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.05);
    let vote: u32 = std::env::var("PROX_VOTE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);

    let pts = random_points(&mut TinyRng::new(31), 40);
    let n = pts.len();
    let metric = EuclideanPoints::new(pts);
    let k = 5;

    let clean_oracle = Oracle::new(&metric);
    let mut clean_r = BoundResolver::new(&clean_oracle, TriScheme::new(n, 1.0));
    let clean_g = knn_graph(&mut clean_r, k);
    let clean = fingerprint(clean_g, &clean_r);
    let clean_calls = clean_oracle.calls();

    let oracle = Oracle::new(&metric).with_corruption(CorruptionInjector::new(rate, 0xC1));
    let mut r = BoundResolver::new(&oracle, TriScheme::new(n, 1.0))
        .with_audit(AuditPolicy::vote(vote, vote));
    let g = knn_graph(&mut r, k);
    let got = fingerprint(g, &r);

    let stats = r.corruption_stats();
    assert_eq!(
        oracle.calls(),
        clean_calls + stats.requeries,
        "billing cell rate={rate} vote={vote}"
    );
    if vote >= 2 {
        assert_eq!(got, clean, "I9 cell rate={rate} vote={vote}");
        assert_eq!(stats.detected, oracle.corruptions_injected());
    } else {
        assert!(
            stats.detected <= oracle.corruptions_injected(),
            "detection mode proves a subset of the injections"
        );
    }
    if rate == 0.0 {
        assert_eq!(got, clean, "rate 0 must change nothing");
        assert_eq!(oracle.corruptions_injected(), 0);
        assert_eq!(stats, CorruptionStats::default());
    }
}
