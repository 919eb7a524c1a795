//! The serving round loop: many client sessions, one shared store.
//!
//! [`BoundServer::run`] drives a script of group queries to completion
//! in *rounds*. Each round takes **one** store view (the store's shared
//! runs, no copy), runs every active session's next group as an
//! independent [`run_group_view`] cell on the global [`ExecPool`], then
//! applies the outcomes sequentially in session-id order. Cells are
//! pure functions of the round-start view and the session's private
//! memo, and the apply step is single-threaded, so the whole serve —
//! responses, call counts, store contents, trace — is byte-identical at
//! any `--threads N` (I12/I5).
//!
//! Crash semantics (the chaos suite's kill switches):
//!
//! * `kill_after_commits: Some(k)` stops the server immediately after
//!   the `k`-th durable commit, mid-round — everything uncommitted
//!   (later sessions' fresh work, pending memos) is lost, exactly as a
//!   `kill -9` between WAL appends would lose it.
//! * A [`GroupOutcome::Failed`] cell (virtual-deadline exhaustion with
//!   degradation off) also crashes the server: a session that lost its
//!   strong tier mid-group has nothing certified to hand over.
//!
//! Either way the WAL already holds every acknowledged commit, so a
//! restart recovers the store byte-identically and re-pays nothing.

use std::collections::VecDeque;
use std::rc::Rc;

use prox_core::Metric;
use prox_exec::ExecPool;
use prox_obs::{emit_to, ProvenanceLedger, TraceEvent, TraceSink};

use crate::group::{GroupResponse, PairGroupQuery};
use crate::session::{run_group_view, ClientSession, GroupOutcome, SessionConfig, SessionStats};
use crate::store::{CommitError, SharedStore};

/// Server-wide serving knobs.
#[derive(Copy, Clone, Debug)]
pub struct ServeConfig {
    /// Concurrent client sessions (min 1). Script lines are assigned
    /// round-robin: session `i` takes lines `i, i + sessions, …`.
    pub sessions: u32,
    /// Per-session resolution knobs (admission, cascade, faults).
    pub session: SessionConfig,
    /// Chaos switch: crash the server right after this many successful
    /// commits, losing all uncommitted work.
    pub kill_after_commits: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            sessions: 1,
            session: SessionConfig::default(),
            kill_after_commits: None,
        }
    }
}

/// One served group in the order the server applied it.
#[derive(Clone, Debug, PartialEq)]
pub struct ServedResponse {
    /// Session that served the group.
    pub session: u32,
    /// 0-based script line the group came from.
    pub line: usize,
    /// The client-visible answer.
    pub response: GroupResponse,
}

/// Everything one serve run produced.
#[derive(Debug, Default)]
pub struct ServeOutcome {
    /// Served responses in apply order (deterministic).
    pub responses: Vec<ServedResponse>,
    /// Per-session accounting, indexed by session id.
    pub stats: Vec<SessionStats>,
    /// True when a kill switch or a failed cell stopped the server
    /// before the script completed.
    pub crashed: bool,
    /// Store generation when the server stopped.
    pub generation: u64,
    /// Certified entries in the store when the server stopped.
    pub store_entries: usize,
    /// Merged provenance rows across every served group.
    pub ledger: ProvenanceLedger,
    /// Script lines dropped by the no-progress rule (every active
    /// session rejected and nothing was served, so retrying cannot
    /// help). Empty in healthy runs.
    pub dropped_lines: Vec<usize>,
}

/// The serving layer around one [`SharedStore`]. See module docs.
pub struct BoundServer<'a> {
    metric: &'a (dyn Metric + Send + Sync),
    store: &'a SharedStore,
    config: ServeConfig,
}

impl<'a> BoundServer<'a> {
    /// A server over `store` resolving with `metric`.
    pub fn new(
        metric: &'a (dyn Metric + Send + Sync),
        store: &'a SharedStore,
        config: ServeConfig,
    ) -> Self {
        BoundServer {
            metric,
            store,
            config,
        }
    }

    /// Serves `script` to completion (or crash). Trace events land on
    /// `sink` from the apply step only, so the stream is deterministic.
    pub fn run(&self, script: &[PairGroupQuery], sink: Option<&Rc<dyn TraceSink>>) -> ServeOutcome {
        let n_sessions = self.config.sessions.max(1) as usize;
        let mut sessions: Vec<ClientSession> = (0..n_sessions)
            .map(|i| ClientSession::new(i as u32))
            .collect();
        let mut queues: Vec<VecDeque<(usize, &PairGroupQuery)>> =
            (0..n_sessions).map(|_| VecDeque::new()).collect();
        for (line, query) in script.iter().enumerate() {
            queues[line % n_sessions].push_back((line, query));
        }

        let mut out = ServeOutcome::default();
        let mut commits_done = 0u64;
        'rounds: loop {
            let view = self.store.view();
            // One cell per active session: its id, script line, query,
            // and a copy of its memo (the cell must not borrow the
            // session table the apply step mutates).
            let mut cells = Vec::new();
            for (i, sess) in sessions.iter().enumerate() {
                if sess.quarantined {
                    continue;
                }
                if let Some(&(line, query)) = queues[i].front() {
                    cells.push((i, line, query, sess.memo.clone()));
                }
            }
            if cells.is_empty() {
                break;
            }

            let session_config = self.config.session;
            let metric = self.metric;
            let runs = &view.runs();
            let cell_refs = &cells;
            let outcomes = ExecPool::global().map_indexed(cells.len(), |k| {
                let (id, _line, query, memo) = &cell_refs[k];
                run_group_view(metric, runs, memo, query, *id as u32, &session_config)
            });

            let mut any_served = false;
            let mut rejected_cells = Vec::new();
            for (k, outcome) in outcomes.into_iter().enumerate() {
                let (i, line, ..) = cells[k];
                let id = i as u32;
                match outcome {
                    GroupOutcome::Rejected {
                        missing,
                        admit,
                        retry,
                    } => {
                        sessions[i].stats.rejected += 1;
                        emit_to(
                            sink,
                            TraceEvent::SessionReject {
                                session: id,
                                missing,
                                admit,
                                retry_at: retry.store_entries_at_least,
                            },
                        );
                        rejected_cells.push(i);
                    }
                    GroupOutcome::Failed { error: _ } => {
                        // The session died mid-group; nothing it held was
                        // certified, so the server crashes with the store
                        // exactly as durable as its last acknowledged
                        // commit.
                        out.crashed = true;
                        break 'rounds;
                    }
                    GroupOutcome::Served(served) => {
                        any_served = true;
                        let served = *served;
                        queues[i].pop_front();
                        let stats = &mut sessions[i].stats;
                        stats.admitted += 1;
                        stats.strong_calls += served.response.strong_calls;
                        stats.store_hits += served.response.store_hits;
                        emit_to(
                            sink,
                            TraceEvent::SessionAdmit {
                                session: id,
                                pairs: served.response.resolved.len() as u32,
                                missing: (served.fresh.len() + served.response.degraded.len())
                                    as u32,
                            },
                        );
                        if served.degraded {
                            stats.degraded += 1;
                            emit_to(
                                sink,
                                TraceEvent::SessionDegrade {
                                    session: id,
                                    pairs: served.response.degraded.len() as u32,
                                },
                            );
                        }
                        out.ledger.merge(&served.ledger);
                        out.responses.push(ServedResponse {
                            session: id,
                            line,
                            response: served.response,
                        });
                        if served.quarantine {
                            // Poisoned state detected: fence every
                            // outstanding token (including this round's
                            // later commits) and drop the session's
                            // uncommitted knowledge.
                            sessions[i].quarantined = true;
                            sessions[i].memo.clear();
                            self.store.advance_epoch();
                            emit_to(sink, TraceEvent::SessionQuarantine { session: id });
                            continue;
                        }
                        let mut batch = std::mem::take(&mut sessions[i].memo);
                        batch.extend(served.fresh);
                        batch.sort_by_key(|(p, _)| p.key());
                        if batch.is_empty() {
                            continue;
                        }
                        match self.store.commit(view.token, &batch) {
                            Ok(receipt) => {
                                sessions[i].stats.commits += 1;
                                commits_done += 1;
                                emit_to(
                                    sink,
                                    TraceEvent::StoreCommit {
                                        session: id,
                                        fresh: receipt.fresh,
                                        duplicates: receipt.duplicates,
                                        generation: receipt.generation,
                                    },
                                );
                                if self
                                    .config
                                    .kill_after_commits
                                    .is_some_and(|k| commits_done >= k)
                                {
                                    out.crashed = true;
                                    break 'rounds;
                                }
                            }
                            Err(CommitError::Fenced {
                                token_epoch,
                                store_epoch,
                            }) => {
                                // The epoch moved under us (a quarantine
                                // fence). The response already went out;
                                // keep the batch as memo and re-commit
                                // against a fresh token next round.
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
                                // This session certified a value that
                                // disagrees bit-for-bit with the store:
                                // poisoned knowledge. Quarantine it.
                                sessions[i].quarantined = true;
                                sessions[i].memo.clear();
                                self.store.advance_epoch();
                                emit_to(sink, TraceEvent::SessionQuarantine { session: id });
                            }
                            Err(CommitError::Io(_)) => {
                                // The WAL is unwritable; the server cannot
                                // promise durability, so it crashes.
                                out.crashed = true;
                                break 'rounds;
                            }
                        }
                    }
                }
            }

            // Progress rule: a round where every active session was
            // rejected and nothing was served cannot improve by retrying
            // (the store will not grow), so the offending groups are
            // dropped permanently instead of looping forever.
            if !any_served {
                for i in rejected_cells {
                    if let Some((line, _)) = queues[i].pop_front() {
                        out.dropped_lines.push(line);
                    }
                }
            }
        }

        out.stats = sessions.iter().map(|s| s.stats).collect();
        out.generation = self.store.generation();
        out.store_entries = self.store.len();
        out
    }
}

/// Emits the `wal_recover` trace event for a store-open recovery (the
/// store itself is below the trace layer, so the opener reports it).
pub fn emit_recovery(sink: Option<&Rc<dyn TraceSink>>, recovery: &crate::wal::WalRecovery) {
    emit_to(
        sink,
        TraceEvent::WalRecover {
            segments: recovery.segments,
            entries: recovery.entries,
            dropped_lines: recovery.dropped_lines,
            salvaged: recovery.salvaged,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::default_script;
    use crate::store::SharedStore;
    use crate::wal::WalConfig;
    use prox_core::Pair;
    use prox_datasets::{ClusteredPlane, Dataset};
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("prox-serve-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn manifest() -> Vec<(String, String)> {
        vec![("n".to_string(), "24".to_string())]
    }

    #[test]
    fn serve_completes_a_script_and_commits_everything_certified() {
        let dir = tmpdir("basic");
        let metric = ClusteredPlane::default().metric(24, 7);
        let (store, _) = SharedStore::open(&dir, &manifest(), WalConfig::default()).unwrap();
        let script = default_script(24, 6, 3);
        let server = BoundServer::new(
            &*metric,
            &store,
            ServeConfig {
                sessions: 2,
                ..ServeConfig::default()
            },
        );
        let out = server.run(&script, None);
        assert!(!out.crashed);
        assert_eq!(out.responses.len(), 6);
        assert!(out.dropped_lines.is_empty());
        // Every certified resolution is durable: the store holds the
        // union of all fresh entries and the WAL logged each exactly once.
        assert_eq!(store.len(), store.wal_entries_logged() as usize);
        assert!(!store.is_empty());
        // Sessions split the script round-robin.
        assert_eq!(out.stats.len(), 2);
        assert_eq!(out.stats[0].admitted + out.stats[1].admitted, 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_is_byte_identical_across_thread_counts() {
        let metric = ClusteredPlane::default().metric(24, 7);
        let script = default_script(24, 8, 11);
        let mut runs = Vec::new();
        for threads in [1usize, 2, 8] {
            let dir = tmpdir(&format!("threads-{threads}"));
            prox_exec::set_global_threads(threads);
            let (store, _) = SharedStore::open(&dir, &manifest(), WalConfig::default()).unwrap();
            let server = BoundServer::new(
                &*metric,
                &store,
                ServeConfig {
                    sessions: 4,
                    ..ServeConfig::default()
                },
            );
            let out = server.run(&script, None);
            runs.push((out.responses, out.stats, store.export()));
            let _ = std::fs::remove_dir_all(&dir);
        }
        prox_exec::set_global_threads(1);
        assert_eq!(runs[0], runs[1], "threads 1 vs 2 diverged");
        assert_eq!(runs[0], runs[2], "threads 1 vs 8 diverged");
    }

    #[test]
    fn second_client_pays_strictly_fewer_strong_calls() {
        // The cross-query reuse demonstration: client A populates the
        // store; client B runs the same mix against the shared store and
        // pays strictly less.
        let dir = tmpdir("reuse");
        let metric = ClusteredPlane::default().metric(24, 7);
        let script = default_script(24, 6, 3);
        let (store, _) = SharedStore::open(&dir, &manifest(), WalConfig::default()).unwrap();
        let server = BoundServer::new(&*metric, &store, ServeConfig::default());
        let a = server.run(&script, None);
        let b = server.run(&script, None);
        let calls = |o: &ServeOutcome| o.stats.iter().map(|s| s.strong_calls).sum::<u64>();
        assert!(calls(&a) > 0);
        assert_eq!(calls(&b), 0, "the whole mix is served from the store");
        // Same answers, zero re-payment.
        assert_eq!(a.responses.len(), b.responses.len());
        for (ra, rb) in a.responses.iter().zip(&b.responses) {
            assert_eq!(ra.response.resolved, rb.response.resolved);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_after_commits_loses_only_uncommitted_work() {
        let metric = ClusteredPlane::default().metric(24, 7);
        let script = default_script(24, 6, 3);

        let clean_dir = tmpdir("kill-clean");
        let (clean_store, _) =
            SharedStore::open(&clean_dir, &manifest(), WalConfig::default()).unwrap();
        BoundServer::new(&*metric, &clean_store, ServeConfig::default()).run(&script, None);
        let clean = clean_store.export();

        let dir = tmpdir("kill");
        let (store, _) = SharedStore::open(&dir, &manifest(), WalConfig::default()).unwrap();
        let server = BoundServer::new(
            &*metric,
            &store,
            ServeConfig {
                kill_after_commits: Some(2),
                ..ServeConfig::default()
            },
        );
        let out = server.run(&script, None);
        assert!(out.crashed);
        let at_crash = store.export();
        assert!(at_crash.len() < clean.len());
        drop(store);

        // Restart on the same directory: recovery replays the WAL, and
        // finishing the script lands on the byte-identical clean store.
        let (store, rec) = SharedStore::open(&dir, &manifest(), WalConfig::default()).unwrap();
        assert_eq!(rec.entries, at_crash.len() as u64);
        assert_eq!(store.export(), at_crash);
        let resumed = BoundServer::new(&*metric, &store, ServeConfig::default()).run(&script, None);
        assert!(!resumed.crashed);
        assert_eq!(store.export(), clean, "recovered store diverged (I12)");

        let _ = std::fs::remove_dir_all(&clean_dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn impossible_admission_drops_groups_instead_of_looping() {
        let metric = ClusteredPlane::default().metric(24, 7);
        let dir = tmpdir("noprogress");
        let (store, _) = SharedStore::open(&dir, &manifest(), WalConfig::default()).unwrap();
        // Every group needs 28 fresh pairs but admission allows 5: with a
        // single session nothing can ever be served.
        let script = vec![PairGroupQuery::explicit(Pair::all(8).collect())];
        let config = ServeConfig {
            session: SessionConfig {
                admit: 5,
                ..SessionConfig::default()
            },
            ..ServeConfig::default()
        };
        let out = BoundServer::new(&*metric, &store, config).run(&script, None);
        assert!(!out.crashed);
        assert!(out.responses.is_empty());
        assert_eq!(out.dropped_lines, vec![0]);
        assert_eq!(out.stats[0].rejected, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
