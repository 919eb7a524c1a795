//! Chaos suite pinning invariant **I12**: kill the server at any point
//! — a deterministic mid-run kill or a `kill -9`-style torn WAL tail —
//! restart on the same directory, and the recovered store is
//! byte-identical to an uninterrupted run with **zero** acknowledged
//! pairs re-paid.
//!
//! Two kill families are swept exhaustively:
//!
//! * torn writes — the tail WAL segment is truncated at *every* line
//!   boundary, including inside the manifest header and the first CRC
//!   block, and each salvage is reconciled exactly against the
//!   provenance ledger's `checkpoint_preload` / `strong_call` rows; a
//!   tail built from several appended commits is also cut at every
//!   byte, and must salvage exactly a prefix of those commits;
//! * process kills — `kill_after_commits` fires after every commit
//!   count, at exec-pool thread counts {1, 2, 8}, with a recording
//!   metric proving the restart never re-pays a committed pair.
//!
//! The suite also runs under `--features paranoid` (the bound machinery
//! swaps in its `CheckedResolver` audits) — `cargo test -p prox-serve
//! --features paranoid`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Mutex;
use std::time::Duration;

use prox_core::{Metric, ObjectId, Pair};
use prox_datasets::{ClusteredPlane, Dataset};
use prox_obs::{summarize, JsonlSink, TraceSink};
use prox_serve::wal::segment_path;
use prox_serve::{
    default_script, emit_recovery, run_group, BoundServer, GroupOutcome, PairGroupQuery,
    ServeConfig, ServedGroup, SessionConfig, SessionStats, SharedStore, WalConfig,
};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prox-serve-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Bit-exact image of an export: value equality is not enough for I12.
fn bits(entries: &[(Pair, f64)]) -> Vec<(u64, u64)> {
    entries
        .iter()
        .map(|&(p, d)| (p.key(), d.to_bits()))
        .collect()
}

fn served(outcome: GroupOutcome) -> ServedGroup {
    match outcome {
        GroupOutcome::Served(s) => *s,
        other => panic!("expected Served, got {other:?}"),
    }
}

/// A metric that records every distinct pair it is asked to ground-truth
/// — the "what did this run actually pay for" witness.
struct RecordingMetric {
    inner: Box<dyn Metric + Send + Sync>,
    paid: Mutex<BTreeSet<u64>>,
}

impl RecordingMetric {
    fn new(inner: Box<dyn Metric + Send + Sync>) -> Self {
        RecordingMetric {
            inner,
            paid: Mutex::new(BTreeSet::new()),
        }
    }

    fn paid(&self) -> BTreeSet<u64> {
        self.paid.lock().expect("paid lock").clone()
    }
}

impl Metric for RecordingMetric {
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn distance(&self, a: ObjectId, b: ObjectId) -> f64 {
        if a != b {
            self.paid
                .lock()
                .expect("paid lock")
                .insert(Pair::new(a, b).key());
        }
        self.inner.distance(a, b)
    }
    fn max_distance(&self) -> f64 {
        self.inner.max_distance()
    }
}

/// Builds a clean store over `Pair::all(m)`, then replays recovery with
/// the tail WAL segment truncated at every line boundary (cut 0 = an
/// empty file). Every cut must open, salvage a bit-exact subset, and
/// reconcile exactly: the healing group's ledger shows `recovered`
/// preloads and `lost` strong calls, and committing its fresh batch
/// restores the clean store byte-identically. Returns the distinct
/// salvage sizes seen across the sweep.
fn torn_cut_sweep(tag: &str, segment_entries: usize, m: usize) -> BTreeSet<usize> {
    let metric = ClusteredPlane::default().metric(m, 7);
    let manifest = vec![
        ("dataset".to_string(), "chaos".to_string()),
        ("m".to_string(), m.to_string()),
    ];
    let cfg = WalConfig { segment_entries };
    let query = PairGroupQuery::explicit(Pair::all(m).collect());

    let clean_dir = tmpdir(&format!("torn-{tag}-clean"));
    let clean = {
        let (store, _) = SharedStore::open(&clean_dir, &manifest, cfg).unwrap();
        let g = served(run_group(
            &*metric,
            &[],
            &[],
            &query,
            0,
            &SessionConfig::default(),
        ));
        store.commit(store.token(), &g.fresh).unwrap();
        store.export()
    };
    let clean_bits: BTreeMap<u64, u64> =
        clean.iter().map(|&(p, d)| (p.key(), d.to_bits())).collect();
    assert!(
        clean.len() % segment_entries != 0,
        "scenario needs a partially filled tail segment"
    );
    let tail_idx = (clean.len() / segment_entries) as u64;
    let text = std::fs::read_to_string(segment_path(&clean_dir, tail_idx)).unwrap();

    // One cut per line boundary: 0 (empty file), then just past each
    // newline — the positions a line-buffered torn write can land on.
    let mut cuts = vec![0usize];
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' && i + 1 < text.len() {
            cuts.push(i + 1);
        }
    }

    let mut salvage_sizes = BTreeSet::new();
    for &cut in &cuts {
        let dir = tmpdir(&format!("torn-{tag}-cut{cut}"));
        std::fs::create_dir_all(&dir).unwrap();
        for idx in 0..=tail_idx {
            std::fs::copy(segment_path(&clean_dir, idx), segment_path(&dir, idx)).unwrap();
        }
        std::fs::write(segment_path(&dir, tail_idx), &text[..cut]).unwrap();

        let (store, rec) = SharedStore::open(&dir, &manifest, cfg)
            .unwrap_or_else(|e| panic!("cut {cut}: recovery refused: {e}"));
        assert!(rec.salvaged, "cut {cut}: tear not reported");
        let recovered = store.export();
        for &(p, d) in &recovered {
            assert_eq!(
                clean_bits.get(&p.key()),
                Some(&d.to_bits()),
                "cut {cut}: salvage invented or corrupted an entry"
            );
        }
        assert!(
            recovered.len() >= tail_idx as usize * segment_entries,
            "cut {cut}: a sealed segment's entries were lost"
        );
        salvage_sizes.insert(recovered.len());
        heal(&*metric, &query, &store, &clean, cut);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&clean_dir);
    salvage_sizes
}

/// Reconciles a torn-cut recovery against the provenance ledger — the
/// healing group preloads exactly the survivors and strong-calls
/// exactly the destroyed entries, never one that survived — then
/// commits its fresh batch, which must restore `clean` byte-identically.
fn heal(
    metric: &(dyn Metric + Send + Sync),
    query: &PairGroupQuery,
    store: &SharedStore,
    clean: &[(Pair, f64)],
    cut: usize,
) {
    let recovered = store.export();
    let clean_bits: BTreeMap<u64, u64> =
        clean.iter().map(|&(p, d)| (p.key(), d.to_bits())).collect();
    let lost = clean.len() - recovered.len();
    let g = served(run_group(
        metric,
        &recovered,
        &[],
        query,
        0,
        &SessionConfig::default(),
    ));
    assert_eq!(
        g.ledger.checkpoint_preload,
        recovered.len() as u64,
        "cut {cut}"
    );
    assert_eq!(g.ledger.strong_call, lost as u64, "cut {cut}");
    assert_eq!(g.response.store_hits, recovered.len() as u64, "cut {cut}");
    assert_eq!(g.response.strong_calls, lost as u64, "cut {cut}");
    assert_eq!(g.fresh.len(), lost, "cut {cut}");
    let recovered_keys: BTreeSet<u64> = recovered.iter().map(|(p, _)| p.key()).collect();
    for &(p, d) in &g.fresh {
        assert!(
            !recovered_keys.contains(&p.key()),
            "cut {cut}: re-paid a surviving pair"
        );
        assert_eq!(clean_bits.get(&p.key()), Some(&d.to_bits()), "cut {cut}");
    }
    store.commit(store.token(), &g.fresh).unwrap();
    assert_eq!(
        bits(&store.export()),
        bits(clean),
        "cut {cut}: healed store diverged (I12)"
    );
}

#[test]
fn torn_tail_of_a_multi_segment_store_heals_at_every_cut() {
    // 45 entries over 16-entry segments: two sealed segments plus a
    // 13-entry tail. The tail is shorter than one CRC block, so every
    // tear loses the whole tail — and never a sealed entry.
    let sizes = torn_cut_sweep("multi", 16, 10);
    assert_eq!(
        sizes,
        BTreeSet::from([32]),
        "sealed prefix always survives intact"
    );
}

#[test]
fn torn_tail_inside_and_past_the_first_crc_block_heals_at_every_cut() {
    // 91 entries in one unsealed segment: cuts inside the first CRC
    // block salvage nothing, cuts past its marker salvage exactly the
    // 64-line block.
    let sizes = torn_cut_sweep("block", 256, 14);
    assert_eq!(sizes, BTreeSet::from([0, 64]));
}

#[test]
fn torn_appended_tail_salvages_whole_acknowledged_batches_at_every_byte() {
    // Five commits of varying size into one segment: the first publishes
    // it whole, the other four append, each ending in its own trailer.
    let m = 8;
    let commits = [5usize, 11, 1, 8, 3];
    let metric = ClusteredPlane::default().metric(m, 7);
    let manifest = vec![
        ("dataset".to_string(), "chaos".to_string()),
        ("m".to_string(), m.to_string()),
    ];
    let cfg = WalConfig::default();
    let query = PairGroupQuery::explicit(Pair::all(m).collect());

    let clean_dir = tmpdir("appended-clean");
    let mut acked = vec![Vec::new()];
    {
        let (store, _) = SharedStore::open(&clean_dir, &manifest, cfg).unwrap();
        let g = served(run_group(
            &*metric,
            &[],
            &[],
            &query,
            0,
            &SessionConfig::default(),
        ));
        assert_eq!(g.fresh.len(), commits.iter().sum::<usize>());
        let mut rest = &g.fresh[..];
        for &size in &commits {
            let (batch, tail) = rest.split_at(size);
            store.commit(store.token(), batch).unwrap();
            acked.push(store.export());
            rest = tail;
        }
    }
    let clean = acked[commits.len()].clone();
    let text = std::fs::read_to_string(segment_path(&clean_dir, 0)).unwrap();
    // Where each batch's trailer becomes readable: just past its hex
    // digits, before the newline.
    let trailers: Vec<usize> = text
        .match_indices("#! crc32=")
        .map(|(at, _)| at + text[at..].find('\n').unwrap())
        .collect();
    assert_eq!(trailers.len(), commits.len(), "one trailer per commit");

    let mut clean_cuts = 0;
    for cut in 0..text.len() {
        let dir = tmpdir(&format!("appended-cut{cut}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(segment_path(&dir, 0), &text[..cut]).unwrap();

        let (store, rec) = SharedStore::open(&dir, &manifest, cfg)
            .unwrap_or_else(|e| panic!("cut {cut}: recovery refused: {e}"));
        let intact = trailers.iter().filter(|&&t| t <= cut).count();
        assert_eq!(
            bits(&store.export()),
            bits(&acked[intact]),
            "cut {cut}: salvage is not the first {intact} acknowledged commits"
        );
        // A cut right after a trailer (or its newline) is a clean,
        // earlier store; any other cut is a tear.
        let at_trailer = trailers.iter().any(|&t| cut == t || cut == t + 1);
        assert_eq!(rec.salvaged, !at_trailer, "cut {cut}");
        clean_cuts += usize::from(at_trailer);
        heal(&*metric, &query, &store, &clean, cut);
        let _ = std::fs::remove_dir_all(&dir);
    }
    // Both clean cuts after each intermediate trailer, plus the final
    // trailer with its newline torn off.
    assert_eq!(clean_cuts, 2 * commits.len() - 1);
    let _ = std::fs::remove_dir_all(&clean_dir);
}

#[test]
fn kill_at_every_commit_point_restarts_byte_identical_with_zero_repay() {
    let script = default_script(24, 6, 3);
    let manifest = vec![("n".to_string(), "24".to_string())];
    let config = |kill| ServeConfig {
        sessions: 2,
        kill_after_commits: kill,
        ..ServeConfig::default()
    };

    // Uninterrupted reference run.
    let clean_dir = tmpdir("kill-clean");
    let (clean, total_commits) = {
        let metric = ClusteredPlane::default().metric(24, 7);
        let (store, _) = SharedStore::open(&clean_dir, &manifest, WalConfig::default()).unwrap();
        let out = BoundServer::new(&*metric, &store, config(None)).run(&script, None);
        assert!(!out.crashed);
        (
            store.export(),
            out.stats.iter().map(|s| s.commits).sum::<u64>(),
        )
    };
    let _ = std::fs::remove_dir_all(&clean_dir);
    assert!(total_commits >= 3, "script too small to sweep kill points");

    let mut per_thread = Vec::new();
    for threads in [1usize, 2, 8] {
        prox_exec::set_global_threads(threads);
        let mut resumed_runs = Vec::new();
        for kill in 1..=total_commits {
            let dir = tmpdir(&format!("kill-t{threads}-k{kill}"));
            let metric = ClusteredPlane::default().metric(24, 7);
            let (store, _) = SharedStore::open(&dir, &manifest, WalConfig::default()).unwrap();
            let out = BoundServer::new(&*metric, &store, config(Some(kill))).run(&script, None);
            assert!(
                out.crashed,
                "kill {kill}: server should have died mid-script"
            );
            // Everything acknowledged before the kill is durable.
            let at_crash: BTreeSet<u64> = store.export().iter().map(|(p, _)| p.key()).collect();
            drop(store);

            // Restart on the same directory with a recording metric: the
            // resumed run must never ground-truth a pair the crashed run
            // already committed.
            let recording = RecordingMetric::new(ClusteredPlane::default().metric(24, 7));
            let (store, rec) = SharedStore::open(&dir, &manifest, WalConfig::default()).unwrap();
            assert_eq!(
                rec.entries as usize,
                at_crash.len(),
                "kill {kill}: WAL lost a commit"
            );
            let resumed = BoundServer::new(&recording, &store, config(None)).run(&script, None);
            assert!(!resumed.crashed);
            assert_eq!(
                bits(&store.export()),
                bits(&clean),
                "kill {kill} threads {threads}: recovered store diverged (I12)"
            );
            assert!(
                recording.paid().is_disjoint(&at_crash),
                "kill {kill} threads {threads}: restart re-paid an acknowledged pair"
            );
            resumed_runs.push((kill, resumed.responses, resumed.stats, store.export()));
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
        }
        per_thread.push(resumed_runs);
    }
    prox_exec::set_global_threads(1);
    assert_eq!(per_thread[0], per_thread[1], "threads 1 vs 2 diverged");
    assert_eq!(per_thread[0], per_thread[2], "threads 1 vs 8 diverged");
}

/// The CI `serve-chaos` matrix cell: `PROX_SERVE_KILL` (commits before
/// the chaos kill) × `PROX_SERVE_SESSIONS` drive one kill/restart
/// cycle; unset they default to a meaningful local run. When
/// `PROX_SERVE_REPORT` names a file, the recovered-store report is
/// written there for the CI artifact upload.
#[test]
fn env_configured_kill_matrix_cell_recovers() {
    let env_u64 = |key: &str, default: u64| {
        std::env::var(key)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let kill = env_u64("PROX_SERVE_KILL", 2).max(1);
    let sessions = env_u64("PROX_SERVE_SESSIONS", 1).clamp(1, 64) as u32;

    let metric = ClusteredPlane::default().metric(24, 11);
    let script = default_script(24, 8, 5);
    let manifest = vec![("n".to_string(), "24".to_string())];
    let config = |kill| ServeConfig {
        sessions,
        kill_after_commits: kill,
        ..ServeConfig::default()
    };

    let clean_dir = tmpdir(&format!("cell-clean-k{kill}-s{sessions}"));
    let clean = {
        let (store, _) = SharedStore::open(&clean_dir, &manifest, WalConfig::default()).unwrap();
        let out = BoundServer::new(&*metric, &store, config(None)).run(&script, None);
        assert!(!out.crashed);
        store.export()
    };
    let _ = std::fs::remove_dir_all(&clean_dir);

    let dir = tmpdir(&format!("cell-k{kill}-s{sessions}"));
    let (store, _) = SharedStore::open(&dir, &manifest, WalConfig::default()).unwrap();
    let out = BoundServer::new(&*metric, &store, config(Some(kill))).run(&script, None);
    let at_crash = store.export().len();
    drop(store);

    let (store, rec) = SharedStore::open(&dir, &manifest, WalConfig::default()).unwrap();
    assert_eq!(rec.entries as usize, at_crash);
    let resumed = BoundServer::new(&*metric, &store, config(None)).run(&script, None);
    assert!(!resumed.crashed);
    assert_eq!(bits(&store.export()), bits(&clean), "cell diverged (I12)");

    if let Ok(path) = std::env::var("PROX_SERVE_REPORT") {
        let report = format!(
            "serve-chaos cell: kill_after_commits={kill} sessions={sessions}\n\
             crashed={} entries_at_crash={at_crash} recovered_entries={}\n\
             final_entries={} final_generation={} byte_identical=true\n",
            out.crashed,
            rec.entries,
            store.len(),
            store.generation(),
        );
        std::fs::write(&path, report).expect("write chaos cell report");
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_summary_cross_checks_serve_outcome_stats() {
    let sink = Rc::new(JsonlSink::in_memory());
    let dyn_sink: Rc<dyn TraceSink> = sink.clone();

    // Run A: admission pressure. Session 0's big group is rejected while
    // session 1 grows the store, then the retry is admitted.
    let metric = ClusteredPlane::default().metric(16, 7);
    let manifest = vec![("n".to_string(), "16".to_string())];
    let all: Vec<Pair> = Pair::all(12).collect();
    let script = vec![
        PairGroupQuery::explicit(all.clone()),
        PairGroupQuery::explicit(all[..33].to_vec()),
        PairGroupQuery::explicit(all[33..].to_vec()),
    ];
    let dir_a = tmpdir("report-a");
    let (store_a, _) = SharedStore::open(&dir_a, &manifest, WalConfig::default()).unwrap();
    let cfg_a = ServeConfig {
        sessions: 2,
        session: SessionConfig {
            admit: 40,
            ..SessionConfig::default()
        },
        ..ServeConfig::default()
    };
    let out_a = BoundServer::new(&*metric, &store_a, cfg_a).run(&script, Some(&dyn_sink));
    assert!(!out_a.crashed);

    // Run B: every group degrades on the virtual deadline.
    let dir_b = tmpdir("report-b");
    let (store_b, _) = SharedStore::open(&dir_b, &manifest, WalConfig::default()).unwrap();
    let cfg_b = ServeConfig {
        session: SessionConfig {
            weak: Some((1.0, 99)),
            degrade: true,
            call_cost: Duration::from_millis(1),
            deadline: Some(Duration::from_millis(5)),
            ..SessionConfig::default()
        },
        ..ServeConfig::default()
    };
    let script_b = default_script(16, 3, 5);
    let out_b = BoundServer::new(&*metric, &store_b, cfg_b).run(&script_b, Some(&dyn_sink));
    assert!(!out_b.crashed);
    drop(store_b);

    // Reopen run B's store so the stream carries a wal_recover event.
    let (_store_b, rec) = SharedStore::open(&dir_b, &manifest, WalConfig::default()).unwrap();
    emit_recovery(Some(&dyn_sink), &rec);

    // The summarized trace must agree with the outcomes' own books.
    let text = sink.contents().expect("in-memory sink");
    let summary = summarize(&text).unwrap_or_else(|e| panic!("summarize: {e}"));
    let sum = |f: fn(&SessionStats) -> u64| {
        out_a
            .stats
            .iter()
            .chain(out_b.stats.iter())
            .map(f)
            .sum::<u64>()
    };
    assert!(
        summary.serve_rejected >= 1,
        "scenario A produced no rejection"
    );
    assert!(
        summary.serve_degraded >= 1,
        "scenario B produced no degradation"
    );
    assert_eq!(summary.serve_admitted, sum(|s| s.admitted));
    assert_eq!(summary.serve_rejected, sum(|s| s.rejected));
    assert_eq!(summary.serve_degraded, sum(|s| s.degraded));
    assert_eq!(summary.store_commits, sum(|s| s.commits));
    assert_eq!(summary.commits_fenced, sum(|s| s.fenced));
    assert_eq!(summary.wal_recoveries, 1);
    assert_eq!(summary.wal_recovered_entries, rec.entries);

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}
