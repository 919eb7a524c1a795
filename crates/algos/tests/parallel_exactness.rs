//! Determinism of the speculate/commit parallel paths (`prox-exec`).
//!
//! The contract under test: `knn_graph_pool` and `pam_pool` produce outputs
//! **and oracle-call counts and prune stats** bit-identical to their
//! sequential counterparts at any thread count — parallelism may only
//! change wall-clock, never what gets computed. Checked on random
//! Euclidean instances for both snapshot-capable schemes (Tri, SPLUB), and
//! with the paranoid `CheckedResolver` auditing every bound and verdict
//! while the committer reuses speculative work.

use prox_algos::{knn_graph, knn_graph_pool, pam, pam_pool, KnnGraph, PamParams};
use prox_bounds::{BoundResolver, CheckedResolver, DistanceResolver, Splub, TriScheme};
use prox_core::{FaultInjector, Metric, ObjectId, Oracle, Pair, PruneStats, RetryPolicy, TinyRng};
use prox_datasets::testgen::{property, random_points};
use prox_datasets::EuclideanPoints;
use prox_exec::ExecPool;

const THREADS: [usize; 3] = [1, 2, 8];

fn points(rng: &mut TinyRng) -> Vec<(f64, f64)> {
    let n = rng.range(8, 24);
    random_points(rng, n)
}

/// Runs `body` once per snapshot-capable scheme (Tri, SPLUB) and returns
/// `(outputs, oracle calls, prune stats)` per scheme.
fn per_scheme<T>(
    metric: &EuclideanPoints,
    n: usize,
    mut body: impl FnMut(&mut dyn DistanceResolver) -> T,
) -> Vec<(T, u64, PruneStats)> {
    let mut out = Vec::new();
    let o_t = Oracle::new(metric);
    let mut tri = BoundResolver::new(&o_t, TriScheme::new(n, 1.0));
    let r = body(&mut tri);
    out.push((r, o_t.calls(), tri.prune_stats()));

    let o_s = Oracle::new(metric);
    let mut splub = BoundResolver::new(&o_s, Splub::new(n, 1.0));
    let r = body(&mut splub);
    out.push((r, o_s.calls(), splub.prune_stats()));
    out
}

#[test]
fn knn_graph_identical_across_thread_counts() {
    property(0x5EED_0401, 12, |rng| {
        let pts = points(rng);
        let n = pts.len();
        let metric = EuclideanPoints::new(pts);
        let k = 4.min(n - 1);

        let want = per_scheme(&metric, n, |r| {
            (0..n as ObjectId)
                .map(|u| prox_algos::knn_query(r, u, k))
                .collect::<KnnGraph>()
        });
        for threads in THREADS {
            let pool = ExecPool::new(threads);
            let got = per_scheme(&metric, n, |r| knn_graph_pool(r, k, &pool));
            assert_eq!(got, want, "threads={threads}");
        }
    });
}

#[test]
fn pam_identical_across_thread_counts() {
    property(0x5EED_0402, 12, |rng| {
        let pts = points(rng);
        let n = pts.len();
        let metric = EuclideanPoints::new(pts);
        let params = PamParams {
            l: 3.min(n),
            max_swaps: 40,
            seed: 11,
        };

        let want = per_scheme(&metric, n, |r| pam_pool(r, params, &ExecPool::sequential()));
        for threads in THREADS {
            let pool = ExecPool::new(threads);
            let got = per_scheme(&metric, n, |r| pam_pool(r, params, &pool));
            assert_eq!(got, want, "threads={threads}");
        }
    });
}

#[test]
fn parallel_paths_match_vanilla_outputs() {
    // The other half of the equivalence: the parallel plugged runs still
    // produce the exact vanilla outputs (not merely self-consistent ones).
    property(0x5EED_0403, 8, |rng| {
        let pts = points(rng);
        let n = pts.len();
        let metric = EuclideanPoints::new(pts);
        let k = 3.min(n - 1);
        let params = PamParams {
            l: 2.min(n),
            max_swaps: 40,
            seed: 7,
        };

        let o_v = Oracle::new(&metric);
        let mut v = BoundResolver::vanilla(&o_v);
        let knn_want = knn_graph(&mut v, k);
        let o_v2 = Oracle::new(&metric);
        let mut v2 = BoundResolver::vanilla(&o_v2);
        let pam_want = pam(&mut v2, params);

        let pool = ExecPool::new(4);
        for (got, _, _) in per_scheme(&metric, n, |r| knn_graph_pool(r, k, &pool)) {
            assert_eq!(got, knn_want, "parallel plugged kNN != vanilla");
        }
        for (got, _, _) in per_scheme(&metric, n, |r| pam_pool(r, params, &pool)) {
            assert_eq!(got, pam_want, "parallel plugged PAM != vanilla");
        }
    });
}

#[test]
fn fault_schedule_is_a_pure_function_of_seed_pair_attempt() {
    // The injector consults no mutable state, so the fault decision for
    // any (pair, attempt) is the same no matter when — or on how many
    // threads — it is asked. Enumerating the schedule twice must give the
    // identical sequence, and a different seed must give a different one.
    let inj = FaultInjector::new(0.2, 0xD00D);
    let schedule = |inj: &FaultInjector| {
        let mut seq = Vec::new();
        for a in 0..20u32 {
            for b in (a + 1)..20u32 {
                for attempt in 0..4u32 {
                    seq.push(inj.fault_at(Pair::new(a, b), attempt).is_some());
                }
            }
        }
        seq
    };
    let first = schedule(&inj);
    assert_eq!(first, schedule(&inj), "same seed, same schedule");
    assert!(first.iter().any(|&f| f), "rate 0.2 must fire somewhere");
    assert_ne!(
        first,
        schedule(&FaultInjector::new(0.2, 0xD00E)),
        "different seed, different schedule"
    );
}

#[test]
fn fault_accounting_identical_across_thread_counts_and_reruns() {
    // Same seed ⇒ identical injected-fault count, retry count, and virtual
    // time — across repeated runs and across thread counts. Faults only
    // ever surface on the sequential committer (workers speculate on the
    // infallible path), so the fault schedule replays exactly.
    property(0x5EED_0405, 8, |rng| {
        let pts = points(rng);
        let n = pts.len();
        let metric = EuclideanPoints::new(pts);
        let k = 3.min(n - 1);

        let run = |threads: usize| {
            let oracle = Oracle::new(&metric)
                .with_faults(FaultInjector::new(0.15, 0xFEED))
                .with_retry(RetryPolicy::standard(8));
            let pool = ExecPool::new(threads);
            let mut r = BoundResolver::new(&oracle, TriScheme::new(n, 1.0));
            let g = knn_graph_pool(&mut r, k, &pool);
            (
                g,
                oracle.calls(),
                oracle.fault_stats(),
                oracle.virtual_time(),
            )
        };

        let want = run(1);
        for threads in THREADS {
            assert_eq!(run(threads), want, "threads={threads}");
            assert_eq!(run(threads), want, "rerun, threads={threads}");
        }
    });
}

#[test]
fn parallel_commit_is_sound_under_audit() {
    // CheckedResolver audits every bound sandwich and verdict against the
    // exact oracle while the committer reuses speculative work; outputs and
    // call counts must still match the unaudited sequential runs. (The
    // audit count itself may differ across thread counts — reused verdicts
    // skip probes — which is why it is not asserted here.)
    property(0x5EED_0404, 8, |rng| {
        let pts = points(rng);
        let n = pts.len();
        let metric = EuclideanPoints::new(pts);
        let k = 3.min(n - 1);
        let params = PamParams {
            l: 2.min(n),
            max_swaps: 40,
            seed: 5,
        };
        #[expect(clippy::disallowed_methods, reason = "un-metered ground truth")]
        let truth = |p: Pair| metric.distance(p.lo(), p.hi());

        let want = per_scheme(&metric, n, |r| {
            let g = knn_graph_pool(r, k, &ExecPool::sequential());
            let c = pam_pool(r, params, &ExecPool::sequential());
            (g, c)
        });

        for threads in THREADS {
            let pool = ExecPool::new(threads);

            let o_t = Oracle::new(&metric);
            let mut tri =
                CheckedResolver::new(BoundResolver::new(&o_t, TriScheme::new(n, 1.0)), truth);
            let got = (
                knn_graph_pool(&mut tri, k, &pool),
                pam_pool(&mut tri, params, &pool),
            );
            assert!(tri.checks() > 0, "Tri run performed no audits");
            assert_eq!(got, want[0].0, "Tri under audit, threads={threads}");
            assert_eq!(o_t.calls(), want[0].1, "Tri calls, threads={threads}");

            let o_s = Oracle::new(&metric);
            let mut splub =
                CheckedResolver::new(BoundResolver::new(&o_s, Splub::new(n, 1.0)), truth);
            let got = (
                knn_graph_pool(&mut splub, k, &pool),
                pam_pool(&mut splub, params, &pool),
            );
            assert!(splub.checks() > 0, "SPLUB run performed no audits");
            assert_eq!(got, want[1].0, "SPLUB under audit, threads={threads}");
            assert_eq!(o_s.calls(), want[1].1, "SPLUB calls, threads={threads}");
        }
    });
}
