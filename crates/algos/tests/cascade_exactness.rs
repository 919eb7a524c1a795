//! The dual-oracle cascade invariant I10 (docs/INVARIANTS.md).
//!
//! **I10 — cascade-exactness.** With the strong oracle healthy, running
//! the algorithms through a `CascadeResolver` (weak → bounds → strong)
//! produces outputs, prune stats and certified-distance sets
//! *byte-identical* to the strong-only run, whatever `--threads` says and
//! under the paranoid `CheckedResolver`; strong calls never
//! exceed the strong-only bill, and the savings are attributed to the
//! weak tier exactly: `strong_calls + weak_resolutions ==
//! strong_only_calls`. When the strong tier is lost mid-run (budget
//! exhaustion), a degrade-enabled cascade finishes without aborting, its
//! output is deterministic given the weak seed and the exhaustion point,
//! and its `Degraded` summary cross-checks against the structured trace
//! report.

use std::rc::Rc;

use prox_algos::{knn_graph, pam, prim_mst, run_degraded, try_prim_mst, PamParams};
use prox_bounds::{
    BoundResolver, CascadeResolver, CheckedResolver, DistanceResolver, Splub, TriScheme,
};
use prox_core::{CallBudget, DegradeReason, Metric, Oracle, Pair, PruneStats, TinyRng, WeakOracle};
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
fn healthy_cascade_runs_are_byte_identical_to_strong_only_at_every_thread_count() {
    let mut total_savings = 0u64;
    property(0x5EED_0A01, 8, |rng| {
        let pts = points(rng);
        let n = pts.len();
        let metric = EuclideanPoints::new(pts);
        let k = 3.min(n - 1);
        let params = PamParams {
            l: 2.min(n),
            max_swaps: 40,
            seed: 11,
        };

        let strong_only = Oracle::new(&metric);
        let mut strong_r = BoundResolver::new(&strong_only, Splub::new(n, 1.0));
        let baseline = run_all(&mut strong_r, k, params);
        let strong_only_calls = strong_only.calls();

        // `--threads` sets this process-wide knob; plugged runs ignore it.
        for threads in THREADS {
            prox_exec::set_global_threads(threads);
            let oracle = Oracle::new(&metric);
            let mut r = CascadeResolver::new(
                BoundResolver::new(&oracle, Splub::new(n, 1.0)),
                WeakOracle::new(&metric, RATE, 0xAB1E),
            );
            let got = run_all(&mut r, k, params);
            assert_eq!(got, baseline, "I10 outputs/stats/pairs, threads={threads}");

            let ws = r.weak_stats();
            assert!(
                oracle.calls() <= strong_only_calls,
                "strong calls must never exceed the strong-only bill, threads={threads}"
            );
            assert_eq!(
                oracle.calls() + ws.resolutions,
                strong_only_calls,
                "I10 billing identity, threads={threads}"
            );
            assert_eq!(
                ws.lies_detected, 0,
                "an honest weak tier never lies through a quorum"
            );
            assert!(r.degradation().is_none(), "healthy run must not degrade");
            total_savings += ws.resolutions;
        }
    });
    assert!(
        total_savings > 0,
        "the weak tier must save strong calls across the property"
    );
}

#[test]
fn cascade_exactness_holds_under_paranoid_checked_resolver() {
    property(0x5EED_0A02, 6, |rng| {
        let pts = points(rng);
        let n = pts.len();
        let metric = EuclideanPoints::new(pts);
        let k = 3.min(n - 1);
        #[expect(clippy::disallowed_methods, reason = "un-metered ground truth")]
        let truth = |p: Pair| metric.distance(p.lo(), p.hi());

        let strong_only = Oracle::new(&metric);
        let mut strong_r = CheckedResolver::new(
            BoundResolver::new(&strong_only, TriScheme::new(n, 1.0)),
            truth,
        );
        let baseline = knn_graph(&mut strong_r, k);
        let strong_only_calls = strong_only.calls();

        let oracle = Oracle::new(&metric);
        let mut r = CheckedResolver::new(
            CascadeResolver::new(
                BoundResolver::new(&oracle, TriScheme::new(n, 1.0)),
                WeakOracle::new(&metric, RATE, 0xAB1F),
            ),
            truth,
        );
        let got = knn_graph(&mut r, k);
        assert_eq!(got, baseline, "paranoid cascade run");
        assert!(r.checks() > 0, "run performed no paranoid checks");

        let ws = r.weak_stats();
        assert_eq!(oracle.calls() + ws.resolutions, strong_only_calls);
    });
}

#[test]
fn budget_exhaustion_degrades_and_cross_checks_against_the_trace_report() {
    let pts = random_points(&mut TinyRng::new(23), 32);
    let n = pts.len();
    let metric = EuclideanPoints::new(pts);

    // Strong-only baseline; the budget must trip mid-run, well under it.
    let strong_only = Oracle::new(&metric);
    let mut strong_r = BoundResolver::new(&strong_only, TriScheme::new(n, 1.0));
    let baseline = prim_mst(&mut strong_r);
    let budget = 5u64;
    assert!(strong_only.calls() > budget, "workload too small");

    let degraded_run = || {
        let sink = Rc::new(JsonlSink::in_memory());
        let oracle = Oracle::new(&metric)
            .with_budget(CallBudget::calls(budget))
            .with_trace(Rc::clone(&sink) as Rc<dyn TraceSink>);
        // A weak tier that always lies: no quorum ever forms (a truth
        // quorum at any rate < 1 would serve nearly every pair and the
        // budget would never trip), so every fresh pair escalates and
        // post-loss decisions split between weak-only and unresolved.
        let mut r = CascadeResolver::new(
            BoundResolver::new(&oracle, TriScheme::new(n, 1.0)),
            WeakOracle::new(&metric, 1.0, 0xD06E),
        )
        .with_degrade(true);
        let out = run_degraded(&mut r, try_prim_mst).expect("degrades instead of aborting");
        (out, r.weak_stats(), oracle.calls(), sink)
    };

    let (out, ws, strong_calls, sink) = degraded_run();
    assert!(out.is_degraded(), "the budget must have tripped");
    let d = out.degradation.expect("degradation report");
    assert_eq!(d.reason, DegradeReason::BudgetExhausted);
    assert_eq!(d.report.strong_calls_at_loss, budget);
    assert!(
        d.report.decisions() > 0,
        "post-loss pairs must be classified"
    );
    assert_eq!(
        out.value.edges.len(),
        baseline.edges.len(),
        "the degraded run still spans every object"
    );
    assert!(strong_calls <= budget);

    // The structured trace is the external witness: the degradation event
    // and the weak-tier vote counters must agree with the resolver's own
    // accounting, exactly.
    let text = sink.contents().expect("in-memory sink retains its text");
    let report = summarize(&text).expect("trace parses");
    assert_eq!(report.degraded_events, 1);
    assert_eq!(report.degraded_strong_calls, d.report.strong_calls_at_loss);
    assert_eq!(report.degraded_reason, d.reason.name());
    assert_eq!(report.weak_resolved, ws.resolutions);
    assert_eq!(report.weak_lies, ws.lies_detected);
    assert_eq!(report.weak_no_quorum, ws.no_quorum);
    assert_eq!(
        report.weak_votes,
        ws.resolutions + ws.lies_detected + ws.no_quorum
    );

    // Deterministic given the seed and the exhaustion point: a second
    // identical run reproduces the output and the report bit-for-bit.
    let (out2, ws2, strong_calls2, _) = degraded_run();
    assert_eq!(out2.degradation, out.degradation);
    assert_eq!(out2.value.edge_keys(), out.value.edge_keys());
    assert_eq!(
        out2.value.total_weight.to_bits(),
        out.value.total_weight.to_bits()
    );
    assert_eq!(ws2, ws);
    assert_eq!(strong_calls2, strong_calls);
}

#[test]
fn env_configured_weak_matrix_cell() {
    // CI weak-matrix entry point: `PROX_WEAK_RATE` ∈ {0, 0.05, 0.2} picks
    // the cell (default 0.05). The assertion is full I10: byte-identical outputs plus the billing
    // identity; at rate 0 the weak tier is perfect, so almost the entire
    // strong bill moves to the weak tier.
    let rate: f64 = std::env::var("PROX_WEAK_RATE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.05);

    let pts = random_points(&mut TinyRng::new(41), 40);
    let n = pts.len();
    let metric = EuclideanPoints::new(pts);
    let k = 5;

    let strong_only = Oracle::new(&metric);
    let mut strong_r = BoundResolver::new(&strong_only, TriScheme::new(n, 1.0));
    let baseline_g = knn_graph(&mut strong_r, k);
    let baseline = fingerprint(baseline_g, &strong_r);
    let strong_only_calls = strong_only.calls();

    let oracle = Oracle::new(&metric);
    let mut r = CascadeResolver::new(
        BoundResolver::new(&oracle, TriScheme::new(n, 1.0)),
        WeakOracle::new(&metric, rate, 0xCE11),
    );
    let g = knn_graph(&mut r, k);
    let got = fingerprint(g, &r);
    assert_eq!(got, baseline, "I10 cell rate={rate}");

    let ws = r.weak_stats();
    assert!(oracle.calls() <= strong_only_calls);
    assert_eq!(
        oracle.calls() + ws.resolutions,
        strong_only_calls,
        "billing cell rate={rate}"
    );
    assert!(r.degradation().is_none());
    if rate == 0.0 {
        assert_eq!(ws.errors_injected, 0);
        assert!(
            ws.resolutions > 0,
            "a perfect weak tier must carry resolutions"
        );
    }
}
