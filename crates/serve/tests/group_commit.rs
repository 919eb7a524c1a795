//! `BoundServer::run` commits each round's batches as one group. This
//! suite pins it to a reference that drives the same rounds through the
//! public API one batch at a time — `run_group_view` for every active
//! session against the round view, then one `SharedStore::commit` per
//! served batch, as prox-perf's traced pass drives its rounds — and
//! emits the trace events a batch-at-a-time server emits.
//!
//! Both must agree on responses, stats, dropped lines, the crash flag,
//! the provenance ledger, the generation, the store export and the
//! trace bytes, over healthy rounds at 1, 2 and 4 sessions, admission
//! pressure, degradation, a failed cell, a kill at every commit count,
//! and a metric that answers a repeated call differently, so that
//! batches of one round conflict and the quarantine fence refuses the
//! batches staged after it.

#![expect(clippy::disallowed_methods, reason = "un-metered ground truth")]

use std::collections::VecDeque;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use prox_core::{Metric, ObjectId, Pair};
use prox_datasets::{ClusteredPlane, Dataset};
use prox_obs::{emit_to, JsonlSink, ProvenanceLedger, TraceEvent, TraceSink};
use prox_serve::{
    default_script, run_group_view, BoundServer, ClientSession, CommitError, GroupOutcome,
    PairGroupQuery, ServeConfig, ServeOutcome, ServedResponse, SessionConfig, SessionStats,
    SharedStore, WalConfig,
};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prox-serve-group-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Everything a run is compared on.
#[derive(Debug, PartialEq)]
struct Run {
    responses: Vec<ServedResponse>,
    stats: Vec<SessionStats>,
    dropped_lines: Vec<usize>,
    crashed: bool,
    ledger: ProvenanceLedger,
    generation: u64,
    export: Vec<(Pair, u64)>,
    trace: String,
}

/// The serve loop one batch at a time: every active session's cell
/// against the round view, then the outcomes applied in session order,
/// each served batch committed on its own as soon as it is applied.
fn reference(
    metric: &(dyn Metric + Send + Sync),
    store: &SharedStore,
    config: ServeConfig,
    script: &[PairGroupQuery],
    sink: Option<&Rc<dyn TraceSink>>,
) -> ServeOutcome {
    let n = config.sessions.max(1) as usize;
    let mut sessions: Vec<ClientSession> = (0..n).map(|i| ClientSession::new(i as u32)).collect();
    let mut queues: Vec<VecDeque<(usize, &PairGroupQuery)>> = vec![VecDeque::new(); n];
    for (line, query) in script.iter().enumerate() {
        queues[line % n].push_back((line, query));
    }
    let mut out = ServeOutcome::default();
    let mut commits = 0u64;
    let crashed = 'rounds: loop {
        let view = store.view();
        let runs = view.runs();
        let cells: Vec<(usize, usize, GroupOutcome)> = (0..n)
            .filter(|&i| !sessions[i].quarantined)
            .filter_map(|i| {
                let &(line, query) = queues[i].front()?;
                let memo = &sessions[i].memo;
                let outcome = run_group_view(metric, &runs, memo, query, i as u32, &config.session);
                Some((i, line, outcome))
            })
            .collect();
        if cells.is_empty() {
            break false;
        }
        let mut any_served = false;
        let mut rejected = Vec::new();
        for (i, line, outcome) in cells {
            let id = i as u32;
            let served = match outcome {
                GroupOutcome::Rejected {
                    missing,
                    admit,
                    retry,
                } => {
                    sessions[i].stats.rejected += 1;
                    let retry_at = retry.store_entries_at_least;
                    emit_to(
                        sink,
                        TraceEvent::SessionReject {
                            session: id,
                            missing,
                            admit,
                            retry_at,
                        },
                    );
                    rejected.push(i);
                    continue;
                }
                GroupOutcome::Failed { .. } => break 'rounds true,
                GroupOutcome::Served(served) => *served,
            };
            any_served = true;
            queues[i].pop_front();
            let stats = &mut sessions[i].stats;
            stats.admitted += 1;
            stats.strong_calls += served.response.strong_calls;
            stats.store_hits += served.response.store_hits;
            let missing = (served.fresh.len() + served.response.degraded.len()) as u32;
            let pairs = served.response.resolved.len() as u32;
            emit_to(
                sink,
                TraceEvent::SessionAdmit {
                    session: id,
                    pairs,
                    missing,
                },
            );
            if served.degraded {
                stats.degraded += 1;
                let pairs = served.response.degraded.len() as u32;
                emit_to(sink, TraceEvent::SessionDegrade { session: id, pairs });
            }
            out.ledger.merge(&served.ledger);
            out.responses.push(ServedResponse {
                session: id,
                line,
                response: served.response,
            });
            if served.quarantine {
                sessions[i].quarantined = true;
                sessions[i].memo.clear();
                store.advance_epoch();
                emit_to(sink, TraceEvent::SessionQuarantine { session: id });
                continue;
            }
            let mut batch = std::mem::take(&mut sessions[i].memo);
            batch.extend(served.fresh);
            batch.sort_by_key(|(p, _)| p.key());
            if batch.is_empty() {
                continue;
            }
            match store.commit(view.token, &batch) {
                Ok(receipt) => {
                    sessions[i].stats.commits += 1;
                    commits += 1;
                    emit_to(
                        sink,
                        TraceEvent::StoreCommit {
                            session: id,
                            fresh: receipt.fresh,
                            duplicates: receipt.duplicates,
                            generation: receipt.generation,
                        },
                    );
                    if config.kill_after_commits.is_some_and(|k| commits >= k) {
                        break 'rounds true;
                    }
                }
                Err(CommitError::Fenced {
                    token_epoch,
                    store_epoch,
                }) => {
                    sessions[i].stats.fenced += 1;
                    sessions[i].memo = batch;
                    emit_to(
                        sink,
                        TraceEvent::CommitFenced {
                            session: id,
                            token_epoch,
                            store_epoch,
                        },
                    );
                }
                Err(CommitError::Conflict { .. }) => {
                    sessions[i].quarantined = true;
                    sessions[i].memo.clear();
                    store.advance_epoch();
                    emit_to(sink, TraceEvent::SessionQuarantine { session: id });
                }
                Err(CommitError::Io(e)) => panic!("reference commit: {e}"),
            }
        }
        if !any_served {
            for i in rejected {
                if let Some((line, _)) = queues[i].pop_front() {
                    out.dropped_lines.push(line);
                }
            }
        }
    };
    out.stats = sessions.iter().map(|s| s.stats).collect();
    out.crashed = crashed;
    out
}

/// One traced run of `script` on a fresh store, through `BoundServer::run`
/// or through [`reference`].
fn run(
    tag: &str,
    metric: &(dyn Metric + Send + Sync),
    config: ServeConfig,
    script: &[PairGroupQuery],
    grouped: bool,
) -> Run {
    let dir = tmpdir(tag);
    let manifest = vec![("n".to_string(), metric.len().to_string())];
    let (store, _) = SharedStore::open(
        &dir,
        &manifest,
        WalConfig {
            segment_entries: 32,
        },
    )
    .unwrap();
    let jsonl = Rc::new(JsonlSink::in_memory());
    let sink: Rc<dyn TraceSink> = jsonl.clone();
    let out = if grouped {
        BoundServer::new(metric, &store, config).run(script, Some(&sink))
    } else {
        reference(metric, &store, config, script, Some(&sink))
    };
    let run = Run {
        responses: out.responses,
        stats: out.stats,
        dropped_lines: out.dropped_lines,
        crashed: out.crashed,
        ledger: out.ledger,
        generation: store.generation(),
        export: store
            .export()
            .iter()
            .map(|&(p, d)| (p, d.to_bits()))
            .collect(),
        trace: jsonl.contents().expect("in-memory sink"),
    };
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    run
}

/// Runs both loops on fresh stores and requires them to agree; returns
/// the grouped run.
fn agree(
    tag: &str,
    metric: &dyn Fn() -> Box<dyn Metric + Send + Sync>,
    config: ServeConfig,
    script: &[PairGroupQuery],
) -> Run {
    let one_by_one = run(&format!("{tag}-ref"), &*metric(), config, script, false);
    let grouped = run(tag, &*metric(), config, script, true);
    assert_eq!(grouped, one_by_one, "{tag}: group commit diverged");
    grouped
}

fn sessions(n: u32, session: SessionConfig) -> ServeConfig {
    ServeConfig {
        sessions: n,
        session,
        kill_after_commits: None,
    }
}

fn plane(n: usize, seed: u64) -> impl Fn() -> Box<dyn Metric + Send + Sync> {
    move || ClusteredPlane::default().metric(n, seed)
}

#[test]
fn healthy_rounds_match_one_commit_per_batch() {
    let script = default_script(24, 12, 3);
    for n in [1, 2, 4] {
        let run = agree(
            &format!("healthy-s{n}"),
            &plane(24, 7),
            sessions(n, SessionConfig::default()),
            &script,
        );
        assert!(!run.crashed && run.trace.contains("store_commit"));
    }
}

#[test]
fn admission_degradation_and_failure_match_one_commit_per_batch() {
    let all: Vec<Pair> = Pair::all(12).collect();
    let pressure = vec![
        PairGroupQuery::explicit(all.clone()),
        PairGroupQuery::explicit(all[..33].to_vec()),
        PairGroupQuery::explicit(all[33..].to_vec()),
        PairGroupQuery::explicit(Pair::all(8).collect()),
    ];
    let admit = SessionConfig {
        admit: 40,
        ..SessionConfig::default()
    };
    let run = agree("admit", &plane(16, 7), sessions(2, admit), &pressure);
    assert!(run.stats.iter().any(|s| s.rejected > 0));

    let deadline = SessionConfig {
        weak: Some((1.0, 99)),
        call_cost: Duration::from_millis(1),
        deadline: Some(Duration::from_millis(5)),
        ..SessionConfig::default()
    };
    let degrade = SessionConfig {
        degrade: true,
        ..deadline
    };
    let script = default_script(16, 6, 5);
    for n in [1, 2] {
        let run = agree(
            &format!("degrade-s{n}"),
            &plane(16, 7),
            sessions(n, degrade),
            &script,
        );
        assert!(run.stats.iter().any(|s| s.degraded > 0));
        let run = agree(
            &format!("failed-s{n}"),
            &plane(16, 7),
            sessions(n, deadline),
            &script,
        );
        assert!(
            run.crashed,
            "a lost strong tier without degradation crashes"
        );
    }
    // Session 0's small group fits the deadline and is staged; session
    // 1's large group then fails in the same round. The staged batch is
    // committed before the crash, as a batch-at-a-time loop commits it.
    let all: Vec<Pair> = Pair::all(16).collect();
    let mixed = vec![
        PairGroupQuery::explicit(all[..3].to_vec()),
        PairGroupQuery::explicit(all[3..30].to_vec()),
    ];
    let run = agree(
        "failed-mid-round",
        &plane(16, 7),
        sessions(2, deadline),
        &mixed,
    );
    assert!(run.crashed && run.stats[0].commits == 1, "{:?}", run.stats);
}

#[test]
fn a_kill_at_every_commit_count_matches_one_commit_per_batch() {
    let script = default_script(24, 8, 11);
    for n in [2, 4] {
        let clean = agree(
            &format!("kill-clean-s{n}"),
            &plane(24, 7),
            sessions(n, SessionConfig::default()),
            &script,
        );
        let total: u64 = clean.stats.iter().map(|s| s.commits).sum();
        for kill in 1..=total {
            let config = ServeConfig {
                kill_after_commits: Some(kill),
                ..sessions(n, SessionConfig::default())
            };
            let run = agree(
                &format!("kill-s{n}-k{kill}"),
                &plane(24, 7),
                config,
                &script,
            );
            assert!(run.crashed);
        }
    }
}

/// A metric that answers each distinct call a hair differently from the
/// one before: two sessions that pay for the same pair in one round
/// certify values that disagree bit for bit.
struct Drifting {
    inner: Box<dyn Metric + Send + Sync>,
    calls: AtomicU64,
}

impl Metric for Drifting {
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn distance(&self, a: ObjectId, b: ObjectId) -> f64 {
        let k = self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.distance(a, b) * (1.0 + 1e-12 * (k % 3) as f64)
    }
    fn max_distance(&self) -> f64 {
        self.inner.max_distance() * 1.01
    }
}

#[test]
fn conflicts_inside_a_round_fence_the_rest_of_its_group() {
    // Every session asks for overlapping blocks, so a round's batches
    // certify some pairs twice with drifting values: the later batch
    // conflicts inside the group, its session is quarantined, and the
    // fence refuses every batch staged after it until the next round.
    let all: Vec<Pair> = Pair::all(10).collect();
    let script: Vec<PairGroupQuery> = (0..12)
        .map(|g| PairGroupQuery::explicit(all[g * 2..g * 2 + 12].to_vec()))
        .collect();
    let drifting = || -> Box<dyn Metric + Send + Sync> {
        Box::new(Drifting {
            inner: ClusteredPlane::default().metric(10, 7),
            calls: AtomicU64::new(0),
        })
    };
    for n in [2, 3, 4] {
        let run = agree(
            &format!("drift-s{n}"),
            &drifting,
            sessions(n, SessionConfig::default()),
            &script,
        );
        assert!(run.trace.contains("session_quarantine"), "{n} sessions");
        if n > 2 {
            assert!(run.trace.contains("commit_fenced"), "{n} sessions");
        }
    }
}
