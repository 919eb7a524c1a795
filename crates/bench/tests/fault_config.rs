//! The process-global [`OracleConfig`] and the I6 fault-equivalence
//! invariant at the harness level: a faulty-but-retried run produces the
//! same algorithm output as a clean run, and its billed call count is
//! exactly `clean + faults_injected`.
//!
//! Lives in its own integration-test binary because `set_oracle_config`
//! is process-wide: sharing a binary with unrelated concurrent tests
//! would race on the global. A local lock serializes the tests here.

use std::sync::Mutex;

use prox_algos::{prim_mst, try_prim_mst};
use prox_bench::{
    clear_oracle_config, oracle_config, run_plugged, set_oracle_config, OracleConfig, Plug,
};
use prox_core::{CallBudget, FaultInjector, OracleError, RetryPolicy};
use prox_datasets::{ClusteredPlane, Dataset};

static CONFIG_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn faulty_run_matches_clean_run_and_bills_the_faults() {
    let _g = CONFIG_LOCK.lock().expect("config lock");
    let metric = ClusteredPlane::default().metric(60, 9);

    clear_oracle_config();
    let (clean_mst, clean) = run_plugged(Plug::TriBoot, &*metric, 6, 3, |r| prim_mst(r));
    assert_eq!(clean.fault_stats.faults_injected, 0);

    set_oracle_config(OracleConfig {
        faults: Some(FaultInjector::new(0.1, 77)),
        retry: RetryPolicy::standard(4),
        budget: CallBudget::unlimited(),
        corrupt: None,
        vote: None,
        weak: None,
        degrade: false,
    });
    let (faulty_mst, faulty) = run_plugged(Plug::TriBoot, &*metric, 6, 3, |r| {
        try_prim_mst(r).expect("retries absorb every injected fault")
    });
    clear_oracle_config();

    assert_eq!(
        faulty_mst.edge_keys(),
        clean_mst.edge_keys(),
        "I6: fault-retried output must equal the clean output"
    );
    assert!(faulty.fault_stats.faults_injected > 0, "rate 0.1 must fire");
    assert_eq!(
        faulty.fault_stats.retries,
        faulty.fault_stats.faults_injected
    );
    assert_eq!(
        faulty.total_calls(),
        clean.total_calls() + faulty.fault_stats.faults_injected,
        "every injected fault is billed exactly once on top of the clean cost"
    );
    assert!(
        faulty.fault_stats.backoff_time > std::time::Duration::ZERO,
        "retries charge virtual backoff time"
    );
}

#[test]
fn budget_exhaustion_surfaces_as_an_error_not_a_panic() {
    let _g = CONFIG_LOCK.lock().expect("config lock");
    let metric = ClusteredPlane::default().metric(60, 9);
    set_oracle_config(OracleConfig {
        faults: None,
        retry: RetryPolicy::none(),
        budget: CallBudget::calls(50),
        corrupt: None,
        vote: None,
        weak: None,
        degrade: false,
    });
    let (outcome, result) = run_plugged(Plug::Vanilla, &*metric, 0, 3, |r| try_prim_mst(r));
    clear_oracle_config();

    match outcome {
        Err(OracleError::BudgetExhausted { calls }) => assert_eq!(calls, 50),
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    assert_eq!(result.total_calls(), 50, "billing stops at the budget");
}

#[test]
fn config_install_and_clear_round_trip() {
    let _g = CONFIG_LOCK.lock().expect("config lock");
    clear_oracle_config();
    assert!(oracle_config().is_none());
    set_oracle_config(OracleConfig::default());
    assert!(oracle_config().is_some());
    clear_oracle_config();
    assert!(oracle_config().is_none());
}
