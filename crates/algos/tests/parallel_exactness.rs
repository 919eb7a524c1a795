//! Thread invariance of plugged runs (invariant I5).
//!
//! Plugged algorithm runs are sequential at every thread count: the
//! process-wide thread count that `--threads` sets
//! ([`prox_exec::set_global_threads`]) only parallelises independent
//! cells (`repro`) and serve sessions. The contract under test: `knn_graph`
//! and `pam` produce outputs **and oracle-call counts and prune stats**
//! bit-identical at threads {1, 2, 8}, for Tri and SPLUB on random
//! Euclidean instances. The tests of one binary run concurrently and share
//! the process-wide knob, so a run may see another test's setting; since
//! no plugged algorithm reads it, every interleaving must agree.

use prox_algos::{knn_graph, pam, KnnGraph, PamParams};
use prox_bounds::{BoundResolver, DistanceResolver, Splub, TriScheme};
use prox_core::{FaultInjector, ObjectId, Oracle, Pair, PruneStats, RetryPolicy, TinyRng};
use prox_datasets::testgen::{property, random_points};
use prox_datasets::EuclideanPoints;
use prox_exec::set_global_threads;

const THREADS: [usize; 3] = [1, 2, 8];

fn points(rng: &mut TinyRng) -> Vec<(f64, f64)> {
    let n = rng.range(8, 24);
    random_points(rng, n)
}

/// Runs `body` once per scheme (Tri, SPLUB) and returns `(outputs, oracle
/// calls, prune stats)` per scheme.
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
            set_global_threads(threads);
            let got = per_scheme(&metric, n, |r| knn_graph(r, k));
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

        set_global_threads(1);
        let want = per_scheme(&metric, n, |r| pam(r, params));
        for threads in THREADS {
            set_global_threads(threads);
            let got = per_scheme(&metric, n, |r| pam(r, params));
            assert_eq!(got, want, "threads={threads}");
        }
    });
}

#[test]
fn parallel_paths_match_vanilla_outputs() {
    // The other half of the equivalence: plugged runs with several threads
    // requested still produce the exact vanilla outputs (not merely
    // self-consistent ones).
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

        set_global_threads(4);
        for (got, _, _) in per_scheme(&metric, n, |r| knn_graph(r, k)) {
            assert_eq!(got, knn_want, "plugged kNN at 4 threads != vanilla");
        }
        for (got, _, _) in per_scheme(&metric, n, |r| pam(r, params)) {
            assert_eq!(got, pam_want, "plugged PAM at 4 threads != vanilla");
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
    // time — across repeated runs and across thread counts.
    property(0x5EED_0405, 8, |rng| {
        let pts = points(rng);
        let n = pts.len();
        let metric = EuclideanPoints::new(pts);
        let k = 3.min(n - 1);

        let run = |threads: usize| {
            set_global_threads(threads);
            let oracle = Oracle::new(&metric)
                .with_faults(FaultInjector::new(0.15, 0xFEED))
                .with_retry(RetryPolicy::standard(8));
            let mut r = BoundResolver::new(&oracle, TriScheme::new(n, 1.0));
            let g = knn_graph(&mut r, k);
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
