//! Shared plumbing: build a resolver for any plug-in, run an algorithm,
//! collect the accounting.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use prox_bounds::{
    try_laesa_bootstrap, Adm, AdmUpdate, AuditPolicy, BoundResolver, CascadeResolver,
    CorruptionStats, DistanceResolver, Laesa, Splub, Tlaesa, TriScheme, WeakStats,
};
use prox_core::{
    CallBudget, CorruptionInjector, Degradation, FaultInjector, FaultStats, Metric, Oracle,
    OracleError, RetryPolicy, WeakOracle,
};
use prox_lp::DftResolver;
use prox_obs::{Metrics, ProvenanceLedger, SpanGuard, SpanName, TraceEvent, TraceSink};

/// The plug-in configurations the experiments compare.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Plug {
    /// No scheme: the paper's `Without Plug` column.
    Vanilla,
    /// Tri Scheme with no bootstrap (`TS-NB`).
    TriNb,
    /// Tri Scheme bootstrapped with LAESA landmarks (`Tri Scheme`).
    TriBoot,
    /// SPLUB (exact bounds, no bootstrap).
    Splub,
    /// ADM baseline (exact bounds, dense matrices, fixpoint updates).
    Adm,
    /// ADM with the historical single-pass update discipline.
    AdmSinglePass,
    /// LAESA landmark baseline.
    Laesa,
    /// TLAESA landmark + pivot-tree baseline.
    Tlaesa,
    /// Direct Feasibility Test (LP).
    Dft,
}

impl Plug {
    /// Short label used in table headers.
    pub fn label(self) -> &'static str {
        match self {
            Plug::Vanilla => "vanilla",
            Plug::TriNb => "TS-NB",
            Plug::TriBoot => "Tri",
            Plug::Splub => "SPLUB",
            Plug::Adm => "ADM",
            Plug::AdmSinglePass => "ADM-1pass",
            Plug::Laesa => "LAESA",
            Plug::Tlaesa => "TLAESA",
            Plug::Dft => "DFT",
        }
    }
}

/// Fault-tolerance configuration applied to every oracle the runner
/// builds. Set it once (e.g. from `--faults` / `--retry` / `--budget`
/// CLI flags) and every subsequent [`run_plugged_cached`] call constructs
/// its oracle with these knobs; the default injects nothing and limits
/// nothing, which preserves the oracle's zero-overhead fast path.
#[derive(Copy, Clone, Debug, Default)]
pub struct OracleConfig {
    /// Deterministic fault injection (None = clean oracle).
    pub faults: Option<FaultInjector>,
    /// Retry/backoff policy for injected faults.
    pub retry: RetryPolicy,
    /// Hard call/deadline guards.
    pub budget: CallBudget,
    /// Deterministic value corruption (None = truthful oracle). See
    /// `prox_core::CorruptionInjector` and the audit layer in
    /// `prox_bounds::audit`.
    pub corrupt: Option<CorruptionInjector>,
    /// Consistency audit `(k, n)` vote attached to every resolver the
    /// runner builds (`None` = trust the oracle; `(1, 1)` = sandwich
    /// detection only; `k >= 2` = vote-confirm every fresh resolution).
    pub vote: Option<(u32, u32)>,
    /// Weak-tier cascade `(error rate, seed)`: every resolver the runner
    /// builds is wrapped in a `CascadeResolver` over a
    /// `prox_core::WeakOracle` with these knobs (`None` = strong-only).
    pub weak: Option<(f64, u64)>,
    /// Graceful degradation: with the cascade on, terminal strong-tier
    /// losses (budget exhaustion, permanent faults) no longer abort the
    /// algorithm — it finishes on weak+bounds and reports a
    /// `Degradation`. Meaningless without `weak`.
    pub degrade: bool,
}

impl OracleConfig {
    /// True when this configuration requires resolver-level auditing
    /// (corruption injected or a vote requested).
    pub fn wants_audit(&self) -> bool {
        self.corrupt.is_some() || self.vote.is_some()
    }

    /// The audit policy this configuration implies, if any: an explicit
    /// `--vote`, or detection-only when corruption is injected without one.
    pub fn audit_policy(&self) -> Option<AuditPolicy> {
        match (self.vote, self.corrupt) {
            (Some((k, n)), _) => Some(AuditPolicy::vote(k, n)),
            (None, Some(_)) => Some(AuditPolicy::detect_only()),
            (None, None) => None,
        }
    }
}

static ORACLE_CONFIG: Mutex<Option<OracleConfig>> = Mutex::new(None);

/// Process-wide trace directory: when set, every oracle the runner builds
/// (without explicit [`RunObservers`]) writes its own numbered JSONL trace
/// file here. `Rc` sinks cannot cross threads, so the *path* is global and
/// each run constructs its own sink. The counter lives with the path so
/// switching directories restarts numbering at `run-0000`.
static TRACE_DIR: Mutex<Option<(std::path::PathBuf, u64)>> = Mutex::new(None);

/// Routes every subsequent runner-built oracle's trace to a numbered file
/// under `dir` (`None` turns tracing back off). Used by the repro harness
/// to emit per-figure traces: each figure gets its own directory.
pub fn set_trace_dir(dir: Option<std::path::PathBuf>) {
    *TRACE_DIR.lock().expect("trace dir lock") = dir.map(|d| (d, 0));
}

/// The next numbered sink under the installed trace directory, if any.
/// Creation failures are reported and disable nothing else — a broken
/// trace target must not kill the run it observes.
fn next_trace_sink() -> Option<Rc<dyn TraceSink>> {
    let mut guard = TRACE_DIR.lock().expect("trace dir lock");
    let (dir, seq) = guard.as_mut()?;
    let path = dir.join(format!("run-{seq:04}.jsonl"));
    *seq += 1;
    match prox_obs::JsonlSink::create(&path) {
        Ok(sink) => Some(Rc::new(sink)),
        Err(e) => {
            eprintln!("[trace] create {}: {e}", path.display());
            None
        }
    }
}

/// Installs the fault/retry/budget configuration used by every oracle the
/// runner builds from now on (process-wide).
pub fn set_oracle_config(config: OracleConfig) {
    *ORACLE_CONFIG.lock().expect("oracle config lock") = Some(config);
}

/// Removes any installed [`OracleConfig`]; subsequent runs get clean,
/// unlimited oracles again.
pub fn clear_oracle_config() {
    *ORACLE_CONFIG.lock().expect("oracle config lock") = None;
}

/// The currently installed [`OracleConfig`], if any.
pub fn oracle_config() -> Option<OracleConfig> {
    *ORACLE_CONFIG.lock().expect("oracle config lock")
}

/// Accounting from a single plugged run.
#[derive(Copy, Clone, Debug, Default)]
pub struct RunResult {
    /// Oracle calls consumed before the algorithm started (landmarks/tree).
    pub bootstrap_calls: u64,
    /// Oracle calls consumed by the algorithm itself.
    pub algo_calls: u64,
    /// Wall-clock time of the algorithm (excluding bootstrap).
    pub wall: Duration,
    /// Wall-clock time of the bootstrap.
    pub bootstrap_wall: Duration,
    /// Fault-path accounting (all zero for a clean oracle).
    pub fault_stats: FaultStats,
    /// Corruption-audit accounting (all zero without `--corrupt`/`--vote`).
    pub corruption: CorruptionStats,
    /// Weak-tier accounting (all zero without `--weak`).
    pub weak: WeakStats,
    /// `Some` when the strong tier was lost and the run finished degraded
    /// (`--weak` + `--degrade` only).
    pub degraded: Option<Degradation>,
}

impl RunResult {
    /// Bootstrap + algorithm calls.
    pub fn total_calls(&self) -> u64 {
        self.bootstrap_calls + self.algo_calls
    }

    /// End-to-end completion time under a virtual per-call oracle cost:
    /// measured CPU + `total_calls × cost` (the §5.6 model).
    pub fn completion_time(&self, cost_per_call: Duration) -> Duration {
        let oracle_time =
            Duration::try_from_secs_f64(cost_per_call.as_secs_f64() * self.total_calls() as f64)
                .unwrap_or(Duration::MAX);
        (self.wall + self.bootstrap_wall).saturating_add(oracle_time)
    }
}

/// Runs `algo` under the given plug and landmark budget; returns the
/// algorithm's output plus the accounting.
pub fn run_plugged<T>(
    plug: Plug,
    metric: &(dyn Metric + Send + Sync),
    landmarks: usize,
    seed: u64,
    algo: impl FnOnce(&mut dyn DistanceResolver) -> T,
) -> (T, RunResult) {
    let (out, result, _) = run_plugged_cached(plug, metric, landmarks, seed, &[], false, algo);
    (out, result)
}

/// What a cached run returns: the algorithm's output, the accounting, and
/// (when `export` is set) the resolver's certified-distance set.
pub type CachedRun<T> = (T, RunResult, Vec<(prox_core::Pair, f64)>);

/// [`run_plugged`] with a persisted-knowledge workflow: `preload` is
/// injected into the resolver before the algorithm starts (no oracle
/// calls), and when `export` is set the resolver's full certified-distance
/// set is returned for saving (see `prox_core::persist`).
pub fn run_plugged_cached<T>(
    plug: Plug,
    metric: &(dyn Metric + Send + Sync),
    landmarks: usize,
    seed: u64,
    preload: &[(prox_core::Pair, f64)],
    export: bool,
    algo: impl FnOnce(&mut dyn DistanceResolver) -> T,
) -> CachedRun<T> {
    try_run_plugged_cached(plug, metric, landmarks, seed, preload, export, algo)
        .expect("bootstrap hit a fault on the infallible path")
}

/// Fallible twin of [`run_plugged_cached`]: a fault or budget error during
/// the *bootstrap* (landmark selection, pivot tree) surfaces as `Err`
/// instead of a panic. Faults during the algorithm itself belong to the
/// closure — have it return a `Result` and `?` through the fallible
/// resolver combinators.
pub fn try_run_plugged_cached<T>(
    plug: Plug,
    metric: &(dyn Metric + Send + Sync),
    landmarks: usize,
    seed: u64,
    preload: &[(prox_core::Pair, f64)],
    export: bool,
    algo: impl FnOnce(&mut dyn DistanceResolver) -> T,
) -> Result<CachedRun<T>, OracleError> {
    try_run_plugged_observed(
        plug,
        metric,
        landmarks,
        seed,
        preload,
        export,
        RunObservers::default(),
        algo,
    )
}

/// Observation handles attached to the oracle a runner builds: a trace
/// sink and/or a metrics registry (both optional; the default observes
/// nothing and keeps the oracle's fast path). `Rc` handles cannot ride
/// the process-wide [`OracleConfig`] (it lives behind a `Mutex`), so
/// observed runs take them as an explicit argument instead.
#[derive(Clone, Default)]
pub struct RunObservers {
    /// Structured-event sink for the run's trace.
    pub trace: Option<Rc<dyn TraceSink>>,
    /// Metrics registry (`oracle.calls`, `probe.width`, ...).
    pub metrics: Option<Rc<Metrics>>,
    /// Provenance ledger: when present, the resolver's per-source
    /// resolution accounting is merged into it after the algorithm
    /// finishes (one `merge` per run, so a shared handle accumulates
    /// across runs).
    pub ledger: Option<Rc<RefCell<ProvenanceLedger>>>,
}

/// [`try_run_plugged_cached`] with observation: the oracle is built with
/// the given trace sink / metrics registry attached, and everything up to
/// the algorithm closure (landmark bootstrap, pivot-tree build, cache
/// preload) runs inside a `"bootstrap"` phase so reports can split the
/// call trajectory by phase.
#[allow(clippy::too_many_arguments)] // mirrors the cached entry plus observers
pub fn try_run_plugged_observed<T>(
    plug: Plug,
    metric: &(dyn Metric + Send + Sync),
    landmarks: usize,
    seed: u64,
    preload: &[(prox_core::Pair, f64)],
    export: bool,
    observers: RunObservers,
    algo: impl FnOnce(&mut dyn DistanceResolver) -> T,
) -> Result<CachedRun<T>, OracleError> {
    let n = metric.len();
    let cfg = oracle_config();
    let audit_policy = cfg.as_ref().and_then(OracleConfig::audit_policy);
    if audit_policy.is_some() {
        // Bootstrapped / landmark plugs call the oracle outside the
        // audited resolver (LAESA rows, pivot trees), and the DFT resolver
        // bypasses `BoundResolver` entirely — none of them can be defended
        // against a lying oracle, so refuse instead of silently producing
        // unaudited results.
        let auditable = matches!(
            plug,
            Plug::Vanilla | Plug::TriNb | Plug::Splub | Plug::Adm | Plug::AdmSinglePass
        );
        if !auditable {
            return Err(OracleError::Permanent {
                reason: "corruption auditing requires a bootstrap-free bound plug \
                         (vanilla, tri-nb, splub, or adm)",
            });
        }
    }
    let mut oracle = Oracle::new(metric);
    if let Some(cfg) = cfg {
        oracle = oracle.with_retry(cfg.retry).with_budget(cfg.budget);
        if let Some(f) = cfg.faults {
            oracle = oracle.with_faults(f);
        }
        if let Some(c) = cfg.corrupt {
            oracle = oracle.with_corruption(c);
        }
    }
    let mut observers = observers;
    if observers.trace.is_none() {
        observers.trace = next_trace_sink();
    }
    if let Some(t) = observers.trace.clone() {
        oracle = oracle.with_trace(t);
    }
    if let Some(m) = observers.metrics.clone() {
        oracle = oracle.with_metrics(m);
    }
    let oracle = oracle;
    let mut result = RunResult::default();
    let boot_phase = SpanGuard::enter(observers.trace.clone(), SpanName::Bootstrap);

    macro_rules! finish_inner {
        ($resolver:expr) => {{
            let mut resolver = $resolver;
            for &(p, d) in preload {
                resolver.preload(p, d);
            }
            result.bootstrap_calls = oracle.calls();
            drop(boot_phase);
            let t = Instant::now();
            let out = algo(&mut resolver);
            result.wall = t.elapsed();
            result.algo_calls = oracle.calls() - result.bootstrap_calls;
            result.fault_stats = oracle.fault_stats();
            result.corruption = resolver.corruption_stats();
            result.weak = resolver.weak_stats();
            result.degraded = resolver.degradation();
            let ledger = resolver.provenance();
            if let Some(t) = observers.trace.as_ref() {
                for (kind, scheme, tier, count) in ledger.rows() {
                    t.emit(TraceEvent::Provenance {
                        kind,
                        scheme,
                        tier,
                        count,
                    });
                }
            }
            if let Some(l) = observers.ledger.as_ref() {
                l.borrow_mut().merge(&ledger);
            }
            let mut exported = Vec::new();
            if export {
                resolver.export_known(&mut exported);
            }
            Ok((out, result, exported))
        }};
    }

    // Wraps the plug's resolver in the weak/strong cascade when `--weak`
    // is configured. A macro (not a function) because the two arms have
    // different resolver types; exactly one arm expands per call site at
    // runtime, so moving `algo`/`boot_phase` into both is fine.
    let weak_cfg = cfg.as_ref().and_then(|c| c.weak);
    let degrade = cfg.as_ref().is_some_and(|c| c.degrade);
    macro_rules! finish {
        ($resolver:expr) => {{
            match weak_cfg {
                Some((rate, wseed)) => finish_inner!(CascadeResolver::new(
                    $resolver,
                    WeakOracle::new(metric, rate, wseed)
                )
                .with_degrade(degrade)),
                None => finish_inner!($resolver),
            }
        }};
    }

    // Attaches the configured audit policy to a `BoundResolver`; a no-op
    // expression wrapper when auditing is off.
    macro_rules! audited {
        ($r:expr) => {{
            match audit_policy {
                Some(p) => $r.with_audit(p),
                None => $r,
            }
        }};
    }

    let boot_t = Instant::now();
    match plug {
        Plug::Vanilla => {
            result.bootstrap_wall = boot_t.elapsed();
            finish!(audited!(BoundResolver::vanilla(&oracle)))
        }
        Plug::TriNb => {
            result.bootstrap_wall = boot_t.elapsed();
            finish!(audited!(BoundResolver::new(
                &oracle,
                TriScheme::new(n, 1.0)
            )))
        }
        Plug::TriBoot => {
            let boot = try_laesa_bootstrap(&oracle, landmarks, seed)?;
            let mut scheme = TriScheme::new(n, 1.0);
            boot.apply_to(&mut scheme);
            result.bootstrap_wall = boot_t.elapsed();
            finish!(BoundResolver::new(&oracle, scheme))
        }
        Plug::Splub => {
            result.bootstrap_wall = boot_t.elapsed();
            finish!(audited!(BoundResolver::new(&oracle, Splub::new(n, 1.0))))
        }
        Plug::Adm => {
            result.bootstrap_wall = boot_t.elapsed();
            finish!(audited!(BoundResolver::new(&oracle, Adm::new(n, 1.0))))
        }
        Plug::AdmSinglePass => {
            result.bootstrap_wall = boot_t.elapsed();
            finish!(audited!(BoundResolver::new(
                &oracle,
                Adm::with_update(n, 1.0, AdmUpdate::SinglePass)
            )))
        }
        Plug::Laesa => {
            let boot = try_laesa_bootstrap(&oracle, landmarks, seed)?;
            let scheme = Laesa::new(1.0, &boot);
            result.bootstrap_wall = boot_t.elapsed();
            finish!(BoundResolver::new(&oracle, scheme))
        }
        Plug::Tlaesa => {
            let scheme = Tlaesa::try_build(&oracle, landmarks, 16, seed)?;
            result.bootstrap_wall = boot_t.elapsed();
            finish!(BoundResolver::new(&oracle, scheme))
        }
        Plug::Dft => {
            result.bootstrap_wall = boot_t.elapsed();
            finish!(DftResolver::new(&oracle))
        }
    }
}

/// `⌈log2 n⌉`, the paper's default landmark budget.
pub fn log_landmarks(n: usize) -> usize {
    (n.max(2) as f64).log2().ceil() as usize
}

/// Runs `count` independent experiment cells on the global thread pool and
/// returns their results in index order.
///
/// Each cell owns its oracle, scheme, and resolver, so per-cell accounting
/// (oracle calls, prune stats, outputs) is identical to running the cells
/// in a plain loop — concurrency only changes wall-clock. Cells must not
/// share mutable state; everything they need goes in by index.
pub fn parallel_cells<T: Send, F: Fn(usize) -> T + Sync>(count: usize, cell: F) -> Vec<T> {
    prox_exec::ExecPool::global().map_indexed(count, cell)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prox_algos::prim_mst;
    use prox_datasets::{ClusteredPlane, Dataset};

    #[test]
    fn accounting_splits_bootstrap_from_algo() {
        let metric = ClusteredPlane::default().metric(40, 3);
        let (_, vanilla) = run_plugged(Plug::Vanilla, &*metric, 0, 3, |r| prim_mst(r));
        assert_eq!(vanilla.bootstrap_calls, 0);
        assert_eq!(vanilla.algo_calls, prox_core::Pair::count(40));

        let (_, boot) = run_plugged(Plug::TriBoot, &*metric, 5, 3, |r| prim_mst(r));
        assert!(boot.bootstrap_calls > 0);
        assert!(boot.total_calls() < vanilla.total_calls());
    }

    #[test]
    fn completion_time_adds_virtual_cost() {
        let r = RunResult {
            bootstrap_calls: 10,
            algo_calls: 90,
            wall: Duration::from_millis(5),
            bootstrap_wall: Duration::from_millis(1),
            ..RunResult::default()
        };
        let t = r.completion_time(Duration::from_millis(10));
        assert_eq!(t, Duration::from_millis(5 + 1 + 1000));
    }

    #[test]
    fn parallel_cells_ordered_and_deterministic() {
        let metric = ClusteredPlane::default().metric(30, 3);
        let plugs = [Plug::Vanilla, Plug::TriNb, Plug::Splub, Plug::Laesa];
        let cell = |i: usize| {
            run_plugged(plugs[i], &*metric, 4, 3, |r| prim_mst(r))
                .1
                .total_calls()
        };
        let seq: Vec<u64> = (0..plugs.len()).map(cell).collect();
        // Concurrent cells, global pool widened for the duration.
        prox_exec::set_global_threads(4);
        let par = parallel_cells(plugs.len(), cell);
        prox_exec::set_global_threads(1);
        assert_eq!(seq, par, "cells must come back in order with equal counts");
    }

    #[test]
    fn all_plugs_run_prim() {
        let metric = ClusteredPlane::default().metric(12, 9);
        let mut weights = Vec::new();
        for plug in [
            Plug::Vanilla,
            Plug::TriNb,
            Plug::TriBoot,
            Plug::Splub,
            Plug::Adm,
            Plug::Laesa,
            Plug::Tlaesa,
            Plug::Dft,
        ] {
            let (mst, _) = run_plugged(plug, &*metric, 3, 1, |r| prim_mst(r));
            weights.push(mst.total_weight);
        }
        for w in &weights[1..] {
            assert!((w - weights[0]).abs() < 1e-12, "all plugs same MST weight");
        }
    }
}
