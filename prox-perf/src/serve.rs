//! The serve workload: client sessions in a closed loop over one shared
//! store. Untraced passes run `BoundServer::run`, the serving loop the
//! workspace ships. The traced pass drives the same rounds through the
//! store's public API (`SharedStore::snapshot`, `run_group`,
//! `SharedStore::commit`) so it can time each step, and is checked
//! against a `BoundServer::run` pass like every other pass.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use prox_core::{Metric, Pair};
use prox_exec::ExecPool;
use prox_serve::wal::segment_path;
use prox_serve::{
    default_script, run_group, BoundServer, GroupOutcome, GroupResponse, PairGroupQuery,
    ServeConfig, SessionConfig, SharedStore, WalConfig,
};

use crate::spans::Spans;
use crate::stats::{mean, median, percentile};
use crate::timed::TimedMetric;
use crate::{peak_rss_mb, repeat_setup, DynMetric, Layers, Outcome, Readings, CALL_COST_S};

/// Client sessions. Session `i` serves script lines `i, i + SESSIONS, …`
/// and submits its next group only after the previous round returned.
pub const SESSIONS: u32 = 2;

/// Pool threads the sessions' groups run on: one per session.
pub const THREADS: usize = 2;

/// The serve workload's shape.
#[derive(Copy, Clone, Debug)]
pub struct ServeWorkload {
    /// Workload name (`--workload`).
    pub name: &'static str,
    /// Objects in the `sf` plane.
    pub n: usize,
    /// Groups in the client script (`default_script`).
    pub groups: usize,
}

/// One group as the client saw it: session, script line, response.
type Served = (u32, usize, GroupResponse);

/// What one pass over the script produced.
struct Pass {
    responses: Vec<Served>,
    export: Vec<(Pair, f64)>,
    attempted: u64,
    /// Groups rejected, failed, quarantined, degraded or not committed.
    failed: u64,
    calls: u64,
    wall_s: f64,
}

/// Layer samples of one traced pass.
#[derive(Default)]
struct PassLayers {
    /// Per-group latency: each round's duration, charged to every group
    /// the round served.
    group_ms: Vec<f64>,
    snapshot_ns: Vec<f64>,
    snapshot_entries: Vec<f64>,
    run_group_ns: Vec<f64>,
    commit_ns: Vec<f64>,
    commits: u64,
    wal_bytes: u64,
    preload: u64,
    memo: u64,
    store_hits: u64,
    pairs: u64,
    cell_ns: f64,
    parallel_ns: f64,
}

/// Bytes the WAL wrote, computed from segment file sizes after each
/// commit: every append rewrites the active segment whole, so a commit
/// wrote each segment that grew or appeared since the last look.
#[derive(Default)]
struct WalCursor {
    index: u64,
    size: u64,
}

impl WalCursor {
    fn advance(&mut self, dir: &Path) -> u64 {
        let mut written = 0;
        let mut idx = self.index;
        while let Ok(meta) = std::fs::metadata(segment_path(dir, idx)) {
            if idx != self.index || meta.len() != self.size {
                written += meta.len();
            }
            (self.index, self.size) = (idx, meta.len());
            idx += 1;
        }
        written
    }
}

impl ServeWorkload {
    fn manifest(&self, seed: u64) -> Vec<(String, String)> {
        vec![
            ("dataset".to_string(), "sf".to_string()),
            ("n".to_string(), self.n.to_string()),
            ("seed".to_string(), seed.to_string()),
        ]
    }

    fn open(&self, dir: &Path, seed: u64) -> io::Result<SharedStore> {
        Ok(SharedStore::open(dir, &self.manifest(seed), WalConfig::default())?.0)
    }

    /// One `BoundServer::run` over `script` on a fresh store in `dir`,
    /// timed from the first round to the last.
    fn serve(
        &self,
        metric: &DynMetric,
        script: &[PairGroupQuery],
        dir: &Path,
        seed: u64,
    ) -> io::Result<Pass> {
        let store = self.open(dir, seed)?;
        let config = ServeConfig {
            sessions: SESSIONS,
            ..ServeConfig::default()
        };
        let server = BoundServer::new(metric, &store, config);
        let start = Instant::now();
        let outcome = server.run(script, None);
        let wall_s = start.elapsed().as_secs_f64();
        let unserved = (script.len() - outcome.responses.len()) as u64;
        let troubled: u64 = outcome
            .stats
            .iter()
            .map(|s| s.rejected + s.degraded + s.fenced)
            .sum();
        Ok(Pass {
            calls: outcome
                .responses
                .iter()
                .map(|r| r.response.strong_calls)
                .sum(),
            responses: outcome
                .responses
                .into_iter()
                .map(|r| (r.session, r.line, r.response))
                .collect(),
            export: store.export(),
            attempted: script.len() as u64,
            failed: unserved + troubled + u64::from(outcome.crashed),
            wall_s,
        })
    }

    /// One pass over `script` on a fresh store in `dir`, driven round by
    /// round as `BoundServer::run` drives its healthy path, with spans and
    /// layer samples recorded at every step.
    fn traced_pass(
        &self,
        metric: &(dyn Metric + Send + Sync),
        script: &[PairGroupQuery],
        dir: &Path,
        seed: u64,
        spans: &mut Spans,
        layers: &mut PassLayers,
    ) -> io::Result<Pass> {
        let store = self.open(dir, seed)?;
        let sessions = SESSIONS as usize;
        let config = SessionConfig::default();
        let pool = ExecPool::global();
        let epoch = spans.epoch();
        let now = || epoch.elapsed().as_nanos() as u64;
        let pass_span = spans.open("pass", None);
        let mut wal = WalCursor::default();
        let mut next: Vec<usize> = (0..sessions).collect();
        let mut out = Pass {
            responses: Vec::with_capacity(script.len()),
            export: Vec::new(),
            attempted: 0,
            failed: 0,
            calls: 0,
            wall_s: 0.0,
        };
        let start = Instant::now();
        loop {
            let cells: Vec<(u32, usize)> = (0..sessions)
                .filter(|&i| next[i] < script.len())
                .map(|i| (i as u32, next[i]))
                .collect();
            if cells.is_empty() {
                break;
            }
            let round = spans.open("round", Some(pass_span));
            let t0 = now();
            let snapshot = store.snapshot();
            let t1 = now();
            let outcomes = pool.map_indexed(cells.len(), |k| {
                let (id, line) = cells[k];
                let c0 = now();
                let outcome = run_group(metric, &snapshot.entries, &[], &script[line], id, &config);
                (outcome, c0, now())
            });
            layers.parallel_ns += (now() - t1) as f64;
            spans.push("snapshot", t0, t1, Some(round));
            layers.snapshot_ns.push((t1 - t0) as f64);
            layers.snapshot_entries.push(snapshot.entries.len() as f64);
            for &(_, c0, c1) in &outcomes {
                spans.push("cell", c0, c1, Some(round));
                layers.run_group_ns.push((c1 - c0) as f64);
                layers.cell_ns += (c1 - c0) as f64;
            }
            for (&(id, line), (outcome, ..)) in cells.iter().zip(outcomes) {
                next[id as usize] += sessions;
                out.attempted += 1;
                let served = match outcome {
                    GroupOutcome::Served(s) if !s.quarantine && !s.degraded => *s,
                    _ => {
                        out.failed += 1;
                        continue;
                    }
                };
                layers.preload += served.ledger.checkpoint_preload;
                layers.memo += served.ledger.memo;
                layers.store_hits += served.response.store_hits;
                layers.pairs += served.response.resolved.len() as u64;
                let mut batch = served.fresh;
                batch.sort_by_key(|(p, _)| p.key());
                if !batch.is_empty() {
                    let c0 = now();
                    let committed = store.commit(snapshot.token, &batch).is_ok();
                    let c1 = now();
                    out.failed += u64::from(!committed);
                    spans.push("commit", c0, c1, Some(round));
                    layers.commit_ns.push((c1 - c0) as f64);
                    layers.commits += u64::from(committed);
                    layers.wal_bytes += wal.advance(dir);
                }
                out.calls += served.response.strong_calls;
                out.responses.push((id, line, served.response));
            }
            let ms = spans.close(round) * 1e3;
            layers.group_ms.extend(std::iter::repeat_n(ms, cells.len()));
        }
        out.wall_s = start.elapsed().as_secs_f64();
        spans.close(pass_span);
        out.export = store.export();
        Ok(out)
    }
}

/// Groups of `pass` that miss: failed on the server, a value that is not
/// bit-equal to `metric.distance`, or a response that differs from the
/// reference's; a store export that differs counts once more.
fn judge(pass: &Pass, reference: &Pass, metric: &DynMetric) -> u64 {
    let wrong_value = |r: &GroupResponse| {
        !r.degraded.is_empty()
            || r.resolved
                .iter()
                .any(|&(p, d)| d.to_bits() != metric.distance(p.lo(), p.hi()).to_bits())
    };
    let mut failed = pass.failed;
    for (i, served) in pass.responses.iter().enumerate() {
        let differs = reference.responses.get(i) != Some(served);
        failed += u64::from(differs || wrong_value(&served.2));
    }
    let bits = |e: &[(Pair, f64)]| {
        e.iter()
            .map(|(p, d)| (p.key(), d.to_bits()))
            .collect::<Vec<_>>()
    };
    failed + u64::from(bits(&pass.export) != bits(&reference.export))
}

/// Sets up, measures and checks the serve workload. Store directories
/// live under `scratch` and are removed after each pass.
pub fn run(
    w: &ServeWorkload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: &mut Spans,
    scratch: &Path,
) -> io::Result<Outcome> {
    prox_exec::set_global_threads(THREADS);
    let dir =
        |tag: &str| -> PathBuf { scratch.join(format!("serve-{}-{tag}", std::process::id())) };
    let fresh = |d: &Path| match std::fs::remove_dir_all(d) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    };
    let mut setup_err = None;
    let (metric, setup_s, build_s) = repeat_setup(|| {
        let d = dir("setup");
        let start = Instant::now();
        let metric = prox_datasets::by_name("sf")
            .expect("sf is a known dataset")
            .metric(w.n, seed);
        let build = start.elapsed().as_secs_f64();
        let opened = w.open(&d, seed);
        let setup = start.elapsed().as_secs_f64();
        if let Err(e) = opened.and_then(|store| {
            drop(store);
            fresh(&d)
        }) {
            setup_err = Some(e);
        }
        (metric, setup, build)
    });
    if let Some(e) = setup_err {
        return Err(e);
    }
    let script = default_script(w.n, w.groups, seed);

    // An untimed warm-up pass: the responses and store contents every
    // later pass must reproduce.
    let d = dir("reference");
    fresh(&d)?;
    let reference = w.serve(&*metric, &script, &d, seed)?;
    fresh(&d)?;
    let mut failed = judge(&reference, &reference, &*metric);
    let mut attempted = reference.attempted;

    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<(Pass, PassLayers, u64, f64)> = Vec::new();
    let start = Instant::now();
    let mut typical = reference.wall_s;
    loop {
        if plain.len() >= 2 && start.elapsed().as_secs_f64() + typical > seconds {
            break;
        }
        let d = dir(&format!("pass{}", plain.len()));
        fresh(&d)?;
        let mut p = w.serve(&*metric, &script, &d, seed)?;
        fresh(&d)?;
        typical = p.wall_s;
        attempted += p.attempted;
        failed += judge(&p, &reference, &*metric);
        (p.responses, p.export) = (Vec::new(), Vec::new());
        plain.push(p);
        if trace {
            let timed = TimedMetric::new(&*metric);
            let mut layers = PassLayers::default();
            let mut p = w.traced_pass(&timed, &script, &d, seed, spans, &mut layers)?;
            fresh(&d)?;
            typical += p.wall_s;
            attempted += p.attempted;
            failed += judge(&p, &reference, &*metric) + u64::from(timed.calls() != p.calls);
            (p.responses, p.export) = (Vec::new(), Vec::new());
            traced.push((p, layers, timed.calls(), timed.busy_s()));
        }
    }
    let peak = peak_rss_mb();

    let mut r = Readings::default();
    let walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
    let calls = reference.calls as f64;
    if trace {
        let rates: Vec<f64> = plain
            .iter()
            .map(|p| p.attempted as f64 / p.wall_s)
            .collect();
        r.set("serve.groups_per_s", median(&rates), rates.len());
        // Round-level samples are pooled over the traced passes.
        let pct = |v: &[f64], q| percentile(v, q).unwrap_or(0.0);
        let pooled = |f: fn(&PassLayers) -> &Vec<f64>| -> Vec<f64> {
            traced
                .iter()
                .flat_map(|(_, l, ..)| f(l).iter().copied())
                .collect()
        };
        let (ms, snapshot, cells, commits) = (
            pooled(|l| &l.group_ms),
            pooled(|l| &l.snapshot_ns),
            pooled(|l| &l.run_group_ns),
            pooled(|l| &l.commit_ns),
        );
        for (name, value, n) in [
            ("serve.group_ms_p50", median(&ms), ms.len()),
            ("serve.group_ms_p99", pct(&ms, 990), ms.len()),
            ("serve.snapshot_ns_p50", median(&snapshot), snapshot.len()),
            ("serve.run_group_ns_p50", median(&cells), cells.len()),
            ("serve.run_group_ns_p99", pct(&cells, 990), cells.len()),
            ("serve.commit_ns_p50", median(&commits), commits.len()),
            ("serve.commit_ns_p99", pct(&commits, 990), commits.len()),
        ] {
            r.set(name, value, n);
        }
        let layers: Vec<Layers> = traced
            .iter()
            .map(|(_, l, metric_calls, metric_s)| {
                vec![
                    ("core.oracle.calls", *metric_calls as f64),
                    ("core.oracle.metric_s", *metric_s),
                    ("bounds.resolver.memo_hits", l.memo as f64),
                    ("serve.snapshot_entries_mean", mean(&l.snapshot_entries)),
                    ("serve.preload_entries", l.preload as f64),
                    ("serve.commits", l.commits as f64),
                    ("serve.wal_bytes_written", l.wal_bytes as f64),
                    (
                        "serve.store_hit_frac",
                        l.store_hits as f64 / l.pairs.max(1) as f64,
                    ),
                    (
                        "exec.cell_busy_frac",
                        l.cell_ns / (THREADS as f64 * l.parallel_ns),
                    ),
                ]
            })
            .collect();
        r.median_of(&layers);
        r.set("datasets.build_s", median(&build_s), build_s.len());
        let traced_walls: Vec<f64> = traced.iter().map(|(p, ..)| p.wall_s).collect();
        r.set(
            "bench.trace_overhead_frac",
            median(&traced_walls) / median(&walls) - 1.0,
            traced_walls.len(),
        );
    } else {
        r.set("setup_s", median(&setup_s), setup_s.len());
        r.timing("run_s", &walls);
        let completion: Vec<f64> = walls.iter().map(|s| s + calls * CALL_COST_S).collect();
        r.timing("completion_s", &completion);
        r.set("oracle_calls", calls, plain.len() + 1);
        r.set("peak_rss_mb", peak, 1);
    }
    Ok(Outcome {
        attempted,
        failed,
        readings: r,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: ServeWorkload = ServeWorkload {
        name: "serve-small",
        n: 60,
        groups: 40,
    };

    fn scratch(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("prox-perf-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn traced_pass_matches_bound_server() {
        let _pool = crate::test_pool(THREADS);
        let metric = prox_datasets::by_name("sf").unwrap().metric(SMALL.n, 9);
        let script = default_script(SMALL.n, SMALL.groups, 9);
        let root = scratch("serve-pin");
        let reference = SMALL
            .serve(&*metric, &script, &root.join("ref"), 9)
            .unwrap();
        assert_eq!(reference.failed, 0);
        assert_eq!(judge(&reference, &reference, &*metric), 0);
        let timed = TimedMetric::new(&*metric);
        let mut spans = Spans::new();
        let mut layers = PassLayers::default();
        let traced = SMALL
            .traced_pass(
                &timed,
                &script,
                &root.join("timed"),
                9,
                &mut spans,
                &mut layers,
            )
            .unwrap();
        assert_eq!(judge(&traced, &reference, &*metric), 0);
        assert_eq!(traced.responses, reference.responses);
        assert_eq!(timed.calls(), reference.calls);
        assert_eq!(layers.commits as usize, layers.commit_ns.len());
        assert!(layers.wal_bytes > 0 && layers.preload > 0);
        assert_eq!(layers.run_group_ns.len(), SMALL.groups);
        assert_eq!(layers.group_ms.len(), SMALL.groups);
        assert!(layers.cell_ns <= THREADS as f64 * layers.parallel_ns);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_wrong_reference_fails_loudly() {
        let _pool = crate::test_pool(THREADS);
        let metric = prox_datasets::by_name("sf").unwrap().metric(SMALL.n, 4);
        let script = default_script(SMALL.n, SMALL.groups, 4);
        let root = scratch("serve-wrong");
        let mut reference = SMALL
            .serve(&*metric, &script, &root.join("ref"), 4)
            .unwrap();
        let pass = SMALL.serve(&*metric, &script, &root.join("p"), 4).unwrap();
        assert_eq!(judge(&pass, &reference, &*metric), 0);
        reference.export[0].1 += 1e-9;
        assert_eq!(judge(&pass, &reference, &*metric), 1, "export mismatch");
        reference.responses[3].2.resolved[0].1 = 0.25;
        assert_eq!(judge(&pass, &reference, &*metric), 2, "response mismatch");
        let _ = std::fs::remove_dir_all(&root);
    }
}
