//! Trace exactness across thread counts (invariant I8).
//!
//! The committed JSONL trace of a run must be a pure function of the
//! workload and its seeds — byte-identical whatever the process-wide
//! thread count (`--threads`) says, and (modulo the injected retry/fault
//! lines themselves) identical whether or not a deterministic fault
//! schedule is active. These tests pin that for kNN-graph construction,
//! Prim's MST, and PAM.

use std::rc::Rc;

use prox_algos::{try_knn_graph, try_pam, try_prim_mst, PamParams};
use prox_bounds::{BoundResolver, TriScheme};
use prox_core::{FaultInjector, FnMetric, ObjectId, Oracle, RetryPolicy};
use prox_obs::{normalize, JsonlSink, TraceSink};

const N: usize = 24;

fn ring_metric() -> FnMetric<impl Fn(ObjectId, ObjectId) -> f64> {
    // A ring keeps distances varied (no single dominant pair) so the
    // sweeps exercise decided-lb, decided-ub, and fell-through branches.
    let scale = 1.0 / (N as f64);
    FnMetric::new(N, 1.0, move |a, b| {
        let d = (f64::from(a) - f64::from(b)).abs();
        d.min(N as f64 - d) * 2.0 * scale
    })
}

/// Runs one workload with the process-wide thread count set to `threads`
/// and returns its committed JSONL trace.
fn trace_of(algo: &str, threads: usize, fault_rate: f64) -> String {
    prox_exec::set_global_threads(threads);
    let sink = Rc::new(JsonlSink::in_memory());
    let mut oracle =
        Oracle::new(ring_metric()).with_trace(Rc::<JsonlSink>::clone(&sink) as Rc<dyn TraceSink>);
    if fault_rate > 0.0 {
        // "Full retry": enough attempts that the 10% schedule always
        // succeeds eventually, so the run completes like the clean one.
        oracle = oracle
            .with_faults(FaultInjector::new(fault_rate, 42))
            .with_retry(RetryPolicy::standard(16));
    }
    let mut resolver = BoundResolver::new(&oracle, TriScheme::new(N, 1.0));
    match algo {
        "knng" => {
            try_knn_graph(&mut resolver, 4).expect("full retry absorbs faults");
        }
        "prim" => {
            try_prim_mst(&mut resolver).expect("full retry absorbs faults");
        }
        "pam" => {
            let params = PamParams {
                l: 3,
                max_swaps: 20,
                seed: 5,
            };
            try_pam(&mut resolver, params).expect("full retry absorbs faults");
        }
        other => panic!("unknown workload {other}"),
    }
    drop(resolver);
    assert_eq!(sink.io_errors(), 0);
    sink.contents().expect("in-memory sink")
}

#[test]
fn traces_are_byte_identical_across_thread_counts() {
    for algo in ["knng", "prim", "pam"] {
        let want = trace_of(algo, 1, 0.0);
        assert!(!want.is_empty(), "{algo}: trace must not be empty");
        assert!(
            want.contains("\"ev\":\"phase_enter\""),
            "{algo}: phase markers present"
        );
        assert!(
            want.contains("\"ev\":\"bound_probe\""),
            "{algo}: probes present"
        );
        for threads in [2, 8] {
            let got = trace_of(algo, threads, 0.0);
            assert_eq!(want, got, "{algo}: trace differs at threads={threads}");
        }
    }
}

#[test]
fn faulted_traces_are_byte_identical_across_thread_counts() {
    for algo in ["knng", "prim", "pam"] {
        let want = trace_of(algo, 1, 0.1);
        assert!(
            want.contains("\"ev\":\"retry\""),
            "{algo}: a 10% schedule over this workload must retry at least once"
        );
        for threads in [2, 8] {
            let got = trace_of(algo, threads, 0.1);
            assert_eq!(
                want, got,
                "{algo}: faulted trace differs at threads={threads}"
            );
        }
    }
}

#[test]
fn faults_only_insert_retry_lines() {
    // Normalizing a faulted trace (dropping retry and failed-attempt lines,
    // renumbering, as `prox-cli diff` does) must reproduce the clean trace
    // exactly: the fault layer may insert attempts, never change what the
    // algorithm decided.
    for algo in ["knng", "prim", "pam"] {
        let clean = trace_of(algo, 1, 0.0);
        let faulted = trace_of(algo, 1, 0.1);
        // Normalization must leave the clean side as it is: no retry line,
        // and every oracle call a first-attempt success.
        assert!(
            !clean.contains("\"ev\":\"retry\""),
            "{algo}: clean trace retries"
        );
        for l in clean
            .lines()
            .filter(|l| l.contains("\"ev\":\"oracle_call\""))
        {
            assert!(
                l.contains("\"attempt\":0,") && l.contains("\"outcome\":\"ok\""),
                "{algo}: clean oracle call is not a first-attempt success: {l}"
            );
        }
        assert_eq!(
            normalize(&faulted),
            normalize(&clean),
            "{algo}: faulted trace must be the clean trace plus retry lines"
        );
    }
}
