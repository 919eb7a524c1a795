//! The serving round loop: many client sessions, one shared store.
//!
//! [`BoundServer::run`] drives a script of group queries to completion
//! in *rounds*. Each round takes **one** store view (the store's shared
//! runs, no copy), runs every active session's next group as a
//! [`run_group_view`] cell in a plain loop, then applies the outcomes in
//! session-id order. The round's cells are a few microseconds each, so
//! they run on the calling thread: a thread pool would cost more to
//! start than the cells take. Cells are pure functions of the
//! round-start view and the session's private memo, so the whole serve —
//! responses, call counts, store contents, trace — is deterministic
//! (I12/I5).
//!
//! Group commit: the apply step stages each served session's batch,
//! and the round commits its staged batches as **one**
//! [`SharedStore::commit_group`] — one WAL append and one `fdatasync`
//! for the round instead of one per session. Every batch still gets its
//! own receipt and generation, bit-equal to committing it alone, and the
//! trace events a round produces are held back and emitted after the
//! commit in the order a batch-at-a-time loop emits them. The group is
//! committed early at two points, so that nothing observable moves:
//!
//! * before any quarantine's `advance_epoch`, so the fence refuses
//!   exactly the batches staged after it;
//! * as soon as the staged batches would reach `kill_after_commits`, so
//!   a kill still lands right after its `k`-th commit.
//!
//! Crash semantics (the chaos suite's kill switches):
//!
//! * `kill_after_commits: Some(k)` stops the server immediately after
//!   the `k`-th durable commit, mid-round — everything uncommitted
//!   (later sessions' fresh work, pending memos) is lost, exactly as a
//!   `kill -9` after that commit's WAL append would lose it. A torn
//!   append loses at most the in-flight group, none of which was
//!   acknowledged.
//! * A [`GroupOutcome::Failed`] cell (virtual-deadline exhaustion with
//!   degradation off) commits what the round staged before it, then
//!   crashes the server: a session that lost its strong tier mid-group
//!   has nothing certified to hand over.
//!
//! Either way the WAL already holds every acknowledged commit, so a
//! restart recovers the store byte-identically and re-pays nothing.

use std::collections::VecDeque;
use std::rc::Rc;

use prox_core::{Metric, Pair};
use prox_obs::{emit_to, ProvenanceLedger, TraceEvent, TraceSink};

use crate::group::{GroupResponse, PairGroupQuery};
use crate::session::{run_group_view, ClientSession, GroupOutcome, SessionConfig, SessionStats};
use crate::store::{CommitError, EpochToken, GroupCommit, SharedStore};

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
            let runs = view.runs();
            // One cell per active session, run in session order against
            // the round-start view and the session's memo.
            let outcomes: Vec<(usize, usize, GroupOutcome)> = sessions
                .iter()
                .enumerate()
                .filter(|(_, sess)| !sess.quarantined)
                .filter_map(|(i, sess)| {
                    let &(line, query) = queues[i].front()?;
                    let outcome = run_group_view(
                        self.metric,
                        &runs,
                        &sess.memo,
                        query,
                        i as u32,
                        &self.config.session,
                    );
                    Some((i, line, outcome))
                })
                .collect();
            if outcomes.is_empty() {
                break;
            }

            let mut group = Group::new(view.token, sink.is_some());
            let mut any_served = false;
            let mut rejected_cells = Vec::new();
            for (i, line, outcome) in outcomes {
                let id = i as u32;
                match outcome {
                    GroupOutcome::Rejected {
                        missing,
                        admit,
                        retry,
                    } => {
                        sessions[i].stats.rejected += 1;
                        group.note(TraceEvent::SessionReject {
                            session: id,
                            missing,
                            admit,
                            retry_at: retry.store_entries_at_least,
                        });
                        rejected_cells.push(i);
                    }
                    GroupOutcome::Failed { error: _ } => {
                        // The session died mid-group; nothing it held was
                        // certified. The batches staged before it commit,
                        // as they would have one at a time, and the server
                        // crashes with the store exactly as durable as its
                        // last acknowledged commit.
                        self.flush(&mut group, &mut sessions, &mut commits_done, sink);
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
                        group.note(TraceEvent::SessionAdmit {
                            session: id,
                            pairs: served.response.resolved.len() as u32,
                            missing: (served.fresh.len() + served.response.degraded.len()) as u32,
                        });
                        if served.degraded {
                            stats.degraded += 1;
                            group.note(TraceEvent::SessionDegrade {
                                session: id,
                                pairs: served.response.degraded.len() as u32,
                            });
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
                            // later commits, not the ones staged before
                            // it) and drop the session's uncommitted
                            // knowledge.
                            if self.flush(&mut group, &mut sessions, &mut commits_done, sink) {
                                out.crashed = true;
                                break 'rounds;
                            }
                            sessions[i].quarantined = true;
                            sessions[i].memo.clear();
                            self.store.advance_epoch();
                            group.note(TraceEvent::SessionQuarantine { session: id });
                            continue;
                        }
                        let mut batch = std::mem::take(&mut sessions[i].memo);
                        batch.extend(served.fresh);
                        batch.sort_by_key(|(p, _)| p.key());
                        if batch.is_empty() {
                            continue;
                        }
                        group.stage(i, batch);
                        // Commit before the batch that would fire the
                        // kill switch is followed by any other work, so a
                        // kill lands exactly where it lands one commit at
                        // a time.
                        let kill_due = self
                            .config
                            .kill_after_commits
                            .is_some_and(|k| commits_done + group.staged() as u64 >= k);
                        if kill_due
                            && self.flush(&mut group, &mut sessions, &mut commits_done, sink)
                        {
                            out.crashed = true;
                            break 'rounds;
                        }
                    }
                }
            }
            if self.flush(&mut group, &mut sessions, &mut commits_done, sink) {
                out.crashed = true;
                break 'rounds;
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

    /// Commits the batches `group` staged as one [`SharedStore::commit_group`],
    /// settles each session's outcome exactly as committing its batch alone
    /// would, then emits the trace events held back so far in apply order.
    /// Returns true when the server must crash: the WAL refused a write, or
    /// the kill switch fired.
    fn flush(
        &self,
        group: &mut Group,
        sessions: &mut [ClientSession],
        commits_done: &mut u64,
        sink: Option<&Rc<dyn TraceSink>>,
    ) -> bool {
        let mut staged = std::mem::take(&mut group.batches);
        // One commit event (or none) per staged batch, in stage order.
        let mut settled: Vec<Option<TraceEvent>> = Vec::with_capacity(staged.len());
        let mut crashed = false;
        let mut next = 0;
        while next < staged.len() && !crashed {
            let batches: Vec<&[(Pair, f64)]> = staged[next..].iter().map(|(_, b)| &b[..]).collect();
            let GroupCommit { receipts, refused } = self.store.commit_group(group.token, &batches);
            for receipt in receipts {
                let (i, _) = staged[next];
                next += 1;
                sessions[i].stats.commits += 1;
                *commits_done += 1;
                settled.push(Some(TraceEvent::StoreCommit {
                    session: i as u32,
                    fresh: receipt.fresh,
                    duplicates: receipt.duplicates,
                    generation: receipt.generation,
                }));
                if self
                    .config
                    .kill_after_commits
                    .is_some_and(|k| *commits_done >= k)
                {
                    crashed = true;
                    break;
                }
            }
            let Some(error) = refused.filter(|_| !crashed) else {
                continue;
            };
            let (i, batch) = std::mem::take(&mut staged[next]);
            next += 1;
            let id = i as u32;
            settled.push(match error {
                CommitError::Fenced {
                    token_epoch,
                    store_epoch,
                } => {
                    // The epoch moved under us (a quarantine fence). The
                    // response already went out; keep the batch as memo
                    // and re-commit against a fresh token next round.
                    sessions[i].stats.fenced += 1;
                    sessions[i].memo = batch;
                    Some(TraceEvent::CommitFenced {
                        session: id,
                        token_epoch,
                        store_epoch,
                    })
                }
                CommitError::Conflict { .. } => {
                    // This session certified a value that disagrees
                    // bit-for-bit with the store: poisoned knowledge.
                    // Quarantine it; the fence refuses the rest of the
                    // round's batches.
                    sessions[i].quarantined = true;
                    sessions[i].memo.clear();
                    self.store.advance_epoch();
                    Some(TraceEvent::SessionQuarantine { session: id })
                }
                CommitError::Io(_) => {
                    // The WAL is unwritable; the server cannot promise
                    // durability, so it crashes with nothing of the
                    // group acknowledged.
                    crashed = true;
                    None
                }
            });
        }
        let mut settled = settled.into_iter();
        for event in std::mem::take(&mut group.events) {
            if let Some(event) = event.or_else(|| settled.next().flatten()) {
                emit_to(sink, event);
            }
        }
        crashed
    }
}

/// One round's commit group: the batches its apply step staged, in
/// session order, and the trace events held back until they commit.
struct Group {
    token: EpochToken,
    /// Staged batches with their session index, each ascending by key.
    batches: Vec<(usize, Vec<(Pair, f64)>)>,
    /// Held-back trace events in apply order; `None` marks where a
    /// staged batch's commit event goes. Empty when nothing traces.
    events: Vec<Option<TraceEvent>>,
    tracing: bool,
}

impl Group {
    fn new(token: EpochToken, tracing: bool) -> Self {
        Group {
            token,
            batches: Vec::new(),
            events: Vec::new(),
            tracing,
        }
    }

    /// Holds `event` back until the next flush.
    fn note(&mut self, event: TraceEvent) {
        if self.tracing {
            self.events.push(Some(event));
        }
    }

    /// Stages session `i`'s sorted batch for the next flush.
    fn stage(&mut self, i: usize, batch: Vec<(Pair, f64)>) {
        self.batches.push((i, batch));
        if self.tracing {
            self.events.push(None);
        }
    }

    /// Batches staged since the last flush.
    fn staged(&self) -> usize {
        self.batches.len()
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
    fn serve_is_byte_identical_across_session_counts() {
        // The session count moves who pays for a pair and how a round's
        // batches overlap, never a value: every line's answer and the
        // final store are the same bits at 1, 2 and 4 sessions, and a
        // rerun repeats a run exactly.
        let metric = ClusteredPlane::default().metric(24, 7);
        let script = default_script(24, 8, 11);
        let mut per_sessions = Vec::new();
        for sessions in [1u32, 2, 4] {
            let mut reruns = Vec::new();
            for rerun in 0..2 {
                let dir = tmpdir(&format!("sessions-{sessions}-{rerun}"));
                let (store, _) =
                    SharedStore::open(&dir, &manifest(), WalConfig::default()).unwrap();
                let config = ServeConfig {
                    sessions,
                    ..ServeConfig::default()
                };
                let out = BoundServer::new(&*metric, &store, config).run(&script, None);
                assert!(!out.crashed);
                reruns.push((out.responses, out.stats, store.export()));
                let _ = std::fs::remove_dir_all(&dir);
            }
            assert_eq!(reruns[0], reruns[1], "{sessions} sessions: rerun diverged");
            let (mut responses, _, export) = reruns.swap_remove(0);
            responses.sort_by_key(|r| r.line);
            let answers: Vec<Vec<(Pair, u64)>> = responses
                .iter()
                .map(|r| {
                    let resolved = &r.response.resolved;
                    resolved.iter().map(|&(p, d)| (p, d.to_bits())).collect()
                })
                .collect();
            let export: Vec<(Pair, u64)> = export.iter().map(|&(p, d)| (p, d.to_bits())).collect();
            per_sessions.push((answers, export));
        }
        assert_eq!(per_sessions[0], per_sessions[1], "1 vs 2 sessions diverged");
        assert_eq!(per_sessions[0], per_sessions[2], "1 vs 4 sessions diverged");
    }

    #[test]
    fn a_healthy_round_commits_with_one_wal_append() {
        // Four sessions, eight disjoint groups: two rounds of four fresh
        // batches each. Every batch gets its own commit and generation,
        // but each round reaches the WAL as one synced write.
        let metric = ClusteredPlane::default().metric(24, 7);
        let dir = tmpdir("one-append");
        let cfg = WalConfig {
            segment_entries: 1 << 12,
        };
        let (store, _) = SharedStore::open(&dir, &manifest(), cfg).unwrap();
        let all: Vec<Pair> = Pair::all(24).collect();
        let script: Vec<PairGroupQuery> = all
            .chunks(5)
            .take(8)
            .map(|c| PairGroupQuery::explicit(c.to_vec()))
            .collect();
        let config = ServeConfig {
            sessions: 4,
            ..ServeConfig::default()
        };
        let out = BoundServer::new(&*metric, &store, config).run(&script, None);
        assert!(!out.crashed);
        assert_eq!(out.stats.iter().map(|s| s.commits).sum::<u64>(), 8);
        assert_eq!(out.generation, 8);
        assert_eq!(store.len(), 40);
        assert_eq!(store.wal_writes(), 2, "one WAL append per round");
        let _ = std::fs::remove_dir_all(&dir);
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
