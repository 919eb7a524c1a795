//! The shared generation-stamped known-distance store.
//!
//! One [`SharedStore`] outlives every client session: certified
//! distances committed by any session are visible to all later
//! views, so the *n*-th client's query mix is radically cheaper
//! than the first's (ROADMAP item 1). The store is fed **exclusively**
//! through [`SharedStore::commit_group`] — the WAL-logged, epoch-fenced
//! choke point that visibility pins, whose one-batch case is
//! [`SharedStore::commit`]: the store's state is private to
//! this module and its WAL is private to the crate — and read through
//! immutable [`StoreView`]s, so readers never contend with an
//! in-flight commit.
//!
//! Layout: the certified set is a handful of immutable, key-sorted
//! *runs* behind `Arc`s, mirroring the WAL's segments. A commit merges
//! its fresh entries into a small sorted *tail*; once the tail holds a
//! WAL segment's worth of entries ([`WalConfig::segment_entries`]) it
//! is sealed into a run. Runs merge size-tiered: a new run absorbs the
//! run before it while that one is at most twice its size, so each
//! sealed run is more than twice the next and there are
//! `O(log(len / segment_entries))` of them. Commit refuses conflicting
//! values, so the runs are disjoint: a lookup binary-searches each run
//! in turn and the order does not matter. Recovery sorts what the WAL
//! replayed into one run.
//!
//! Views: [`SharedStore::view`] clones the runs' `Arc`s — `O(#runs)`,
//! not a copy of the entries — and a later commit never touches a run a
//! view holds: it replaces the tail and at most the newest runs. The
//! serve round loop reads through a view. [`SharedStore::snapshot`]
//! still merges the runs into one flat key-ordered `Vec`, for callers
//! that want one slice.
//!
//! Fencing: a commit must present the [`EpochToken`] issued with its
//! view. [`SharedStore::advance_epoch`] invalidates every
//! outstanding token, which is how a poisoned or half-dead session is
//! quarantined — whatever it resolved against the old epoch can never
//! reach the store; it must re-sync from a fresh view first.
//!
//! Durability: fresh entries hit the write-ahead log *before* they
//! become visible to readers. A group commit checks its batches in
//! order, logs the fresh entries of every accepted one as one WAL
//! append, then absorbs them batch by batch, so receipts and
//! generations are those of committing each batch alone. A crash
//! between the WAL write and the in-memory apply loses nothing
//! (recovery replays the WAL); a crash before the WAL write loses only
//! the unacknowledged group.

use std::io;
use std::path::Path;
use std::sync::{Arc, RwLock};

use prox_core::invariant::InvariantExt;
use prox_core::Pair;

use crate::wal::{WalConfig, WalRecovery, WriteAheadLog};

/// One immutable run of certified entries, ascending by pair key.
type Run = Arc<[(Pair, f64)]>;

/// Proof of which store epoch a session's view belongs to. Issued
/// with every view and snapshot; checked at commit.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct EpochToken {
    epoch: u64,
}

impl EpochToken {
    /// The epoch this token was issued under.
    pub fn epoch(self) -> u64 {
        self.epoch
    }
}

/// An immutable view of the store at one generation that shares the
/// store's runs: the runs themselves, the generation stamp, and the
/// epoch token a commit against this view must present.
#[derive(Clone, Debug)]
pub struct StoreView {
    /// Oldest first; disjoint, each ascending by pair key, none empty.
    runs: Vec<Run>,
    /// Store generation the view was taken at.
    pub generation: u64,
    /// Token to present at commit time.
    pub token: EpochToken,
}

impl StoreView {
    /// The runs as slices, oldest first: disjoint, each ascending by
    /// pair key — the shape [`crate::run_group_view`] reads.
    pub fn runs(&self) -> Vec<&[(Pair, f64)]> {
        self.runs.iter().map(|r| &r[..]).collect()
    }
}

/// An immutable copy of the store at one generation: the certified
/// entries (sorted by pair key), the generation stamp, and the epoch
/// token a commit against this snapshot must present.
#[derive(Clone, Debug)]
pub struct StoreSnapshot {
    /// Certified `(pair, distance)` entries, ascending by `Pair::key`.
    pub entries: Vec<(Pair, f64)>,
    /// Store generation the snapshot was taken at.
    pub generation: u64,
    /// Token to present at commit time.
    pub token: EpochToken,
}

/// The value of `p` in a key-sorted entry list.
pub(crate) fn lookup(entries: &[(Pair, f64)], p: Pair) -> Option<f64> {
    let key = p.key();
    entries
        .binary_search_by_key(&key, |e| e.0.key())
        .ok()
        .map(|i| entries[i].1)
}

/// The value of `p` in any of `runs` (disjoint and key-sorted, so the
/// first hit is the only one).
pub(crate) fn lookup_runs(runs: &[&[(Pair, f64)]], p: Pair) -> Option<f64> {
    runs.iter().find_map(|run| lookup(run, p))
}

/// Two disjoint key-sorted runs merged into one. Each entry of the
/// shorter run gallops to its place in the longer one, and the stretch
/// of the longer run it skipped is copied whole, so a small run merges
/// into a large one at about the cost of a copy.
fn merge_two(a: &[(Pair, f64)], b: &[(Pair, f64)]) -> Vec<(Pair, f64)> {
    let (short, mut long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(a.len() + b.len());
    for &e in short {
        let mut reach = 1;
        while reach < long.len() && long[reach].0 < e.0 {
            reach *= 2;
        }
        let skip = long[..reach.min(long.len())].partition_point(|x| x.0 < e.0);
        out.extend_from_slice(&long[..skip]);
        out.push(e);
        long = &long[skip..];
    }
    out.extend_from_slice(long);
    out
}

/// Disjoint key-sorted runs merged into one key-sorted list, newest
/// (smallest) first so each merge stays skewed.
pub(crate) fn merge_runs(runs: &[&[(Pair, f64)]]) -> Vec<(Pair, f64)> {
    runs.iter()
        .rev()
        .fold(Vec::new(), |merged, run| merge_two(run, &merged))
}

/// Why a commit was refused. Refusal is always total: nothing was
/// logged and nothing became visible.
#[derive(Debug)]
pub enum CommitError {
    /// The session's epoch token is stale — the store was fenced since
    /// the snapshot was taken. Re-snapshot and retry.
    Fenced {
        /// Epoch the stale token was issued under.
        token_epoch: u64,
        /// The store's current epoch.
        store_epoch: u64,
    },
    /// An entry disagrees bit-for-bit with a value the store already
    /// certified — the session is serving poisoned knowledge and must
    /// be quarantined, not merged.
    Conflict {
        /// The offending pair.
        pair: Pair,
    },
    /// The write-ahead log could not be written; the store is unchanged.
    Io(io::Error),
}

impl std::fmt::Display for CommitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommitError::Fenced {
                token_epoch,
                store_epoch,
            } => write!(
                f,
                "commit fenced: token epoch {token_epoch} behind store epoch {store_epoch}"
            ),
            CommitError::Conflict { pair } => write!(
                f,
                "commit conflict: pair ({}, {}) disagrees with the certified value",
                pair.lo(),
                pair.hi()
            ),
            CommitError::Io(e) => write!(f, "commit WAL write failed: {e}"),
        }
    }
}

/// What a successful commit did.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CommitReceipt {
    /// Entries that were new to the store (logged + applied).
    pub fresh: u64,
    /// Entries the store already had (silently skipped).
    pub duplicates: u64,
    /// Store generation after the commit.
    pub generation: u64,
}

/// What a [`SharedStore::commit_group`] did: a receipt for each batch it
/// accepted, in group order, and why the batch after them was refused.
/// Batches past a refused one were not tried.
#[derive(Debug, Default)]
pub struct GroupCommit {
    /// One receipt per accepted batch, equal to what committing the
    /// batches one by one would have returned.
    pub receipts: Vec<CommitReceipt>,
    /// The refusal of batch `receipts.len()`, if the group stopped there.
    pub refused: Option<CommitError>,
}

/// The mutable heart of the store, private to this module: its only
/// writers are [`SharedStore::commit_group`] and the recovery (`open`) and
/// fencing (`advance_epoch`) funnels.
struct StoreInner {
    /// Sealed runs, oldest first: disjoint, each more than twice the
    /// size of the next.
    runs: Vec<Run>,
    /// The newest entries, key-sorted and disjoint from `runs`; sealed
    /// into a run once it holds `seal_at` entries.
    tail: Run,
    /// Tail size that seals it: the WAL's segment size.
    seal_at: usize,
    /// Bumped once per commit that added at least one fresh entry.
    generation: u64,
    /// Bumped by [`SharedStore::advance_epoch`]; stale tokens bounce.
    epoch: u64,
    /// The durable log; entries land here before the runs.
    wal: WriteAheadLog,
}

impl StoreInner {
    /// Applies `fresh` (already WAL-logged, already deduplicated) to
    /// the visible runs and stamps a new generation. Only the tail and
    /// the runs a seal merges are replaced; every other run stays the
    /// `Arc` earlier views hold.
    fn absorb(&mut self, fresh: &[(Pair, f64)]) {
        if fresh.is_empty() {
            return;
        }
        let mut fresh = fresh.to_vec();
        fresh.sort_unstable_by_key(|e| e.0);
        self.generation += 1;
        let tail = merge_two(&self.tail, &fresh);
        if tail.len() < self.seal_at {
            self.tail = tail.into();
            return;
        }
        self.tail = Arc::new([]);
        let mut run: Run = tail.into();
        while let Some(prev) = self.runs.last() {
            if prev.len() > 2 * run.len() {
                break;
            }
            run = merge_two(prev, &run).into();
            self.runs.pop();
        }
        self.runs.push(run);
    }

    /// Checks one batch against the store, against `staged` (the fresh
    /// entries of earlier batches in its group, key-sorted) and against
    /// itself, pushing its fresh entries onto `fresh` in batch order.
    /// Returns how many entries were duplicates, or the conflict that
    /// refuses the batch.
    fn validate(
        &self,
        entries: &[(Pair, f64)],
        staged: &[(Pair, f64)],
        fresh: &mut Vec<(Pair, f64)>,
    ) -> Result<u64, CommitError> {
        // Where each pair first occurs in the batch: a later entry for it
        // duplicates that one or conflicts with it.
        let mut firsts: Vec<(Pair, usize)> =
            entries.iter().enumerate().map(|(i, e)| (e.0, i)).collect();
        firsts.sort_unstable();
        firsts.dedup_by_key(|e| e.0);
        let mut duplicates = 0u64;
        for (i, &(p, d)) in entries.iter().enumerate() {
            let first = firsts
                .binary_search_by_key(&p, |e| e.0)
                .map_or(i, |at| firsts[at].1);
            let existing = self
                .runs
                .iter()
                .chain([&self.tail])
                .find_map(|run| lookup(run, p))
                .or_else(|| lookup(staged, p))
                .or_else(|| (first < i).then(|| entries[first].1));
            match existing {
                Some(have) if have.to_bits() == d.to_bits() => duplicates += 1,
                Some(_) => return Err(CommitError::Conflict { pair: p }),
                None => fresh.push((p, d)),
            }
        }
        Ok(duplicates)
    }

    /// Invalidates every outstanding epoch token.
    fn fence(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }
}

/// A crash-safe shared store of certified distances. See module docs.
pub struct SharedStore {
    inner: RwLock<StoreInner>,
}

impl SharedStore {
    /// Opens the store backed by the WAL in `dir`, replaying any
    /// segments found there into one run. `manifest` binds the
    /// directory to one problem instance (dataset/n/seed); a recovered
    /// segment with a different manifest is refused.
    ///
    /// Opening writes nothing: a missing `dir` is an empty store, and
    /// the first commit that logs an entry creates it. So a directory
    /// that cannot be created surfaces as [`CommitError::Io`] at that
    /// first commit, with nothing acknowledged; any other error reading
    /// `dir` (say, a path under a regular file) still fails here.
    pub fn open(
        dir: &Path,
        manifest: &[(String, String)],
        config: WalConfig,
    ) -> io::Result<(Self, WalRecovery)> {
        let (wal, mut known, recovery) = WriteAheadLog::recover(dir, manifest, config)?;
        known.sort_unstable_by_key(|e| e.0);
        let generation = u64::from(!known.is_empty());
        let store = SharedStore {
            inner: RwLock::new(StoreInner {
                runs: if known.is_empty() {
                    Vec::new()
                } else {
                    vec![known.into()]
                },
                tail: Arc::new([]),
                seal_at: config.segment_entries.max(1),
                generation,
                epoch: 0,
                wal,
            }),
        };
        Ok((store, recovery))
    }

    /// The current certified set as shared runs, with the epoch token a
    /// later commit must present: `O(#runs)`, no entry is copied.
    pub fn view(&self) -> StoreView {
        let inner = self.read();
        let mut runs = inner.runs.clone();
        if !inner.tail.is_empty() {
            runs.push(Arc::clone(&inner.tail));
        }
        StoreView {
            runs,
            generation: inner.generation,
            token: EpochToken { epoch: inner.epoch },
        }
    }

    /// A flat copy of the current certified set, ascending by pair key,
    /// with the epoch token a later commit must present: the runs of
    /// [`SharedStore::view`] merged into one `Vec`.
    pub fn snapshot(&self) -> StoreSnapshot {
        let view = self.view();
        StoreSnapshot {
            entries: merge_runs(&view.runs()),
            generation: view.generation,
            token: view.token,
        }
    }

    /// The token a commit must present right now (without the cost of a
    /// full snapshot).
    pub fn token(&self) -> EpochToken {
        EpochToken {
            epoch: self.read().epoch,
        }
    }

    /// **The** write path for one batch: durably logs the fresh subset of
    /// `entries` to the WAL, then makes it visible and stamps a new
    /// generation. Refuses totally on a stale epoch token (fenced
    /// session), a bit-level disagreement with an already-certified value
    /// (poisoned session), or a WAL write failure. The one-batch case of
    /// [`SharedStore::commit_group`].
    ///
    /// The store's log is a private field, so no caller can log around
    /// this method. The `wal` module's items are public, for
    /// `prox-cli --checkpoint DIR`'s own log:
    ///
    /// ```
    /// use prox_serve::wal::{segment_path, WalConfig, WriteAheadLog};
    /// use prox_serve::SharedStore;
    /// ```
    ///
    /// but the crate root does not re-export the log type:
    ///
    /// ```compile_fail
    /// use prox_serve::WriteAheadLog;
    /// ```
    pub fn commit(
        &self,
        token: EpochToken,
        entries: &[(Pair, f64)],
    ) -> Result<CommitReceipt, CommitError> {
        let GroupCommit {
            mut receipts,
            refused,
        } = self.commit_group(token, &[entries]);
        match refused {
            Some(e) => Err(e),
            None => Ok(receipts
                .pop()
                .expect_invariant("an accepted batch has a receipt")),
        }
    }

    /// Group commit: `batches` in order, each checked as [`SharedStore::commit`]
    /// checks one batch — against the store and against the batches before
    /// it in the group — up to the first refused one. The fresh entries of
    /// every accepted batch are then logged as **one** WAL append (one
    /// write, one trailer, one `fdatasync`, unless a segment boundary
    /// splits it), and absorbed batch by batch, so each receipt and
    /// generation equals what committing the batches one after another
    /// would have given.
    ///
    /// A failed append refuses the whole group: nothing is logged or
    /// visible, no receipt is returned, and the refusal is batch 0's.
    pub fn commit_group(&self, token: EpochToken, batches: &[&[(Pair, f64)]]) -> GroupCommit {
        let mut inner = self.write();
        if token.epoch != inner.epoch {
            let refused = (!batches.is_empty()).then(|| CommitError::Fenced {
                token_epoch: token.epoch,
                store_epoch: inner.epoch,
            });
            return GroupCommit {
                receipts: Vec::new(),
                refused,
            };
        }
        let mut refused = None;
        // Every accepted batch's fresh entries in group order, where each
        // batch's entries end, and its duplicates.
        let mut logged: Vec<(Pair, f64)> = Vec::new();
        let mut accepted: Vec<(usize, u64)> = Vec::with_capacity(batches.len());
        // The fresh entries of the accepted batches, key-sorted: what a
        // later batch of the group sees as already certified.
        let mut staged: Vec<(Pair, f64)> = Vec::new();
        for (b, entries) in batches.iter().enumerate() {
            let start = logged.len();
            match inner.validate(entries, &staged, &mut logged) {
                Ok(duplicates) => accepted.push((logged.len(), duplicates)),
                Err(e) => {
                    logged.truncate(start);
                    refused = Some(e);
                    break;
                }
            }
            if b + 1 < batches.len() && logged.len() > start {
                let mut fresh = logged[start..].to_vec();
                fresh.sort_unstable_by_key(|e| e.0);
                staged = merge_two(&staged, &fresh);
            }
        }
        if let Err(e) = inner.wal.append(&logged) {
            return GroupCommit {
                receipts: Vec::new(),
                refused: Some(CommitError::Io(e)),
            };
        }
        let mut start = 0;
        let receipts = accepted
            .into_iter()
            .map(|(end, duplicates)| {
                inner.absorb(&logged[start..end]);
                let fresh = (end - start) as u64;
                start = end;
                CommitReceipt {
                    fresh,
                    duplicates,
                    generation: inner.generation,
                }
            })
            .collect();
        GroupCommit { receipts, refused }
    }

    /// Quarantine fence: invalidates every outstanding epoch token.
    /// Sessions holding old tokens get [`CommitError::Fenced`] and must
    /// re-sync from a fresh view. Returns the new epoch.
    pub fn advance_epoch(&self) -> u64 {
        self.write().fence()
    }

    /// Number of certified entries.
    pub fn len(&self) -> usize {
        let inner = self.read();
        inner.runs.iter().map(|r| r.len()).sum::<usize>() + inner.tail.len()
    }

    /// True when no entry is certified yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current generation stamp.
    pub fn generation(&self) -> u64 {
        self.read().generation
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.read().epoch
    }

    /// Entries the WAL has durably logged over its whole life.
    pub fn wal_entries_logged(&self) -> u64 {
        self.read().wal.entries_logged()
    }

    /// Synced WAL writes since the store opened: one per group commit
    /// that logged anything, plus one per segment boundary it crossed.
    #[cfg(test)]
    pub(crate) fn wal_writes(&self) -> u64 {
        self.read().wal.writes()
    }

    /// The full certified set, ascending by pair key — the
    /// byte-identity artifact I12 compares across crash/recovery runs.
    pub fn export(&self) -> Vec<(Pair, f64)> {
        self.snapshot().entries
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, StoreInner> {
        self.inner.read().expect_invariant("store lock poisoned")
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, StoreInner> {
        self.inner.write().expect_invariant("store lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("prox-serve-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn manifest() -> Vec<(String, String)> {
        vec![("n".to_string(), "8".to_string())]
    }

    #[test]
    fn commit_then_snapshot_round_trips_and_stamps_generations() {
        let dir = tmpdir("commit");
        let (store, rec) = SharedStore::open(&dir, &manifest(), WalConfig::default()).unwrap();
        assert_eq!(rec, WalRecovery::default());
        assert_eq!(store.generation(), 0);

        let t = store.token();
        let batch = [(Pair::new(0, 1), 1.5), (Pair::new(2, 3), 2.5)];
        let r = store.commit(t, &batch).unwrap();
        assert_eq!((r.fresh, r.duplicates, r.generation), (2, 0, 1));

        // Duplicates with identical bits are skipped, not re-logged.
        let r = store
            .commit(
                store.token(),
                &[(Pair::new(0, 1), 1.5), (Pair::new(0, 2), 3.0)],
            )
            .unwrap();
        assert_eq!((r.fresh, r.duplicates, r.generation), (1, 1, 2));
        assert_eq!(store.len(), 3);
        assert_eq!(store.wal_entries_logged(), 3);

        let snap = store.snapshot();
        assert_eq!(snap.entries.len(), 3);
        assert!(snap.entries.windows(2).all(|w| w[0].0.key() < w[1].0.key()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_epoch_token_is_fenced() {
        let dir = tmpdir("fence");
        let (store, _) = SharedStore::open(&dir, &manifest(), WalConfig::default()).unwrap();
        let stale = store.token();
        assert_eq!(store.advance_epoch(), 1);
        let err = store.commit(stale, &[(Pair::new(0, 1), 1.0)]).unwrap_err();
        match err {
            CommitError::Fenced {
                token_epoch,
                store_epoch,
            } => assert_eq!((token_epoch, store_epoch), (0, 1)),
            other => panic!("expected Fenced, got {other:?}"),
        }
        // Nothing was logged or applied.
        assert_eq!(store.len(), 0);
        assert_eq!(store.wal_entries_logged(), 0);
        // A fresh token works again.
        store
            .commit(store.token(), &[(Pair::new(0, 1), 1.0)])
            .unwrap();
        assert_eq!(store.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn conflicting_value_rejects_the_whole_commit() {
        let dir = tmpdir("conflict");
        let (store, _) = SharedStore::open(&dir, &manifest(), WalConfig::default()).unwrap();
        store
            .commit(store.token(), &[(Pair::new(0, 1), 1.0)])
            .unwrap();
        let err = store
            .commit(
                store.token(),
                &[(Pair::new(4, 5), 9.0), (Pair::new(0, 1), 1.0 + 1e-9)],
            )
            .unwrap_err();
        assert!(matches!(err, CommitError::Conflict { .. }), "{err:?}");
        // Total refusal: the fresh (4,5) entry did not slip through.
        assert_eq!(store.len(), 1);
        assert_eq!(store.wal_entries_logged(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn refused_wal_write_leaves_nothing_behind() {
        let dir = tmpdir("refused");
        let cfg = WalConfig { segment_entries: 4 };
        let (store, _) = SharedStore::open(&dir, &manifest(), cfg).unwrap();
        let full: Vec<(Pair, f64)> = (0..4)
            .map(|i| (Pair::new(0, i + 1), 1.0 + f64::from(i)))
            .collect();
        store.commit(store.token(), &full).unwrap();
        // Segment 0 is sealed, so the next batch publishes segment 1
        // through its temp file; a directory in the way makes that fail.
        let blocker = dir.join("wal-00001.ckpt.tmp");
        std::fs::create_dir(&blocker).unwrap();
        let err = store
            .commit(store.token(), &[(Pair::new(5, 6), 2.0)])
            .unwrap_err();
        assert!(matches!(err, CommitError::Io(_)), "{err:?}");
        assert_eq!(store.len(), 4);
        assert_eq!(store.wal_entries_logged(), 4);

        std::fs::remove_dir(&blocker).unwrap();
        store
            .commit(store.token(), &[(Pair::new(6, 7), 3.0)])
            .unwrap();
        assert_eq!(store.wal_entries_logged(), 5);
        let exported = store.export();
        drop(store);
        let (store, rec) = SharedStore::open(&dir, &manifest(), cfg).unwrap();
        assert_eq!(store.export(), exported, "the refused batch stayed refused");
        assert_eq!(rec.entries, store.wal_entries_logged());
        assert_eq!(rec.entries, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn refused_group_append_leaves_nothing_behind() {
        let dir = tmpdir("refused-group");
        let cfg = WalConfig { segment_entries: 4 };
        let (store, _) = SharedStore::open(&dir, &manifest(), cfg).unwrap();
        let full: Vec<(Pair, f64)> = (0..4)
            .map(|i| (Pair::new(0, i + 1), 1.0 + f64::from(i)))
            .collect();
        store.commit(store.token(), &full).unwrap();
        // The group's append publishes segment 1, which the blocker
        // refuses: no batch of the group may be logged or acknowledged.
        let blocker = dir.join("wal-00001.ckpt.tmp");
        std::fs::create_dir(&blocker).unwrap();
        let a = [(Pair::new(5, 6), 2.0)];
        let b = [(Pair::new(5, 6), 2.0), (Pair::new(6, 7), 3.0)];
        let group = store.commit_group(store.token(), &[&a, &b]);
        assert!(group.receipts.is_empty(), "{:?}", group.receipts);
        assert!(matches!(group.refused, Some(CommitError::Io(_))));
        assert_eq!(store.len(), 4);
        assert_eq!(store.generation(), 1);
        assert_eq!(store.wal_entries_logged(), 4);

        std::fs::remove_dir(&blocker).unwrap();
        let group = store.commit_group(store.token(), &[&a, &b]);
        assert!(group.refused.is_none());
        assert_eq!(group.receipts.len(), 2);
        assert_eq!((store.len(), store.generation()), (6, 3));
        let exported = store.export();
        drop(store);
        let (store, rec) = SharedStore::open(&dir, &manifest(), cfg).unwrap();
        assert_eq!(store.export(), exported, "the refused group stayed refused");
        assert_eq!(rec.entries, 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_refused_append_across_a_segment_boundary_logs_nothing() {
        // Two fresh entries sit in segment 0. The group's fresh entries
        // fill it (sealing it) and go on into segment 1, or through a
        // full segment 1 into segment 2, whose publication the blocker
        // refuses: every part already written must be undone as well.
        for (blocked, fresh) in [(1u32, 4u32), (2, 8)] {
            let dir = tmpdir(&format!("refused-split-{blocked}"));
            let cfg = WalConfig { segment_entries: 4 };
            let (store, _) = SharedStore::open(&dir, &manifest(), cfg).unwrap();
            let first = [(Pair::new(0, 1), 1.0), (Pair::new(0, 2), 2.0)];
            store.commit(store.token(), &first).unwrap();
            let blocker = dir.join(format!("wal-0000{blocked}.ckpt.tmp"));
            std::fs::create_dir(&blocker).unwrap();
            let a: Vec<(Pair, f64)> = (3..3 + fresh - 1)
                .map(|i| (Pair::new(0, i), f64::from(i)))
                .collect();
            let b = [(Pair::new(1, 2), 9.0)];
            let group = store.commit_group(store.token(), &[&a, &b]);
            assert!(group.receipts.is_empty());
            assert!(matches!(group.refused, Some(CommitError::Io(_))));
            assert_eq!((store.len(), store.wal_entries_logged()), (2, 2));
            drop(store);
            std::fs::remove_dir(&blocker).unwrap();
            let (store, rec) = SharedStore::open(&dir, &manifest(), cfg).unwrap();
            assert_eq!(
                rec.entries, 2,
                "segment {blocked}: the refused group stayed logged"
            );
            assert_eq!(store.export(), first);

            let group = store.commit_group(store.token(), &[&a, &b]);
            assert!(group.refused.is_none());
            let exported = store.export();
            drop(store);
            let (store, rec) = SharedStore::open(&dir, &manifest(), cfg).unwrap();
            assert_eq!(
                (rec.entries, store.export()),
                (u64::from(fresh) + 2, exported)
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_group_commit_equals_its_batches_committed_one_by_one() {
        use prox_core::TinyRng;

        // Twin stores see the same batches: `grouped` as one
        // `commit_group` per round, `single` one `commit` at a time up to
        // the first refusal. Small segments make groups cross segment
        // boundaries; a small universe makes batches repeat pairs inside
        // themselves and across a round.
        let cfg = WalConfig { segment_entries: 8 };
        let (gdir, sdir) = (tmpdir("group-g"), tmpdir("group-s"));
        let (grouped, _) = SharedStore::open(&gdir, &manifest(), cfg).unwrap();
        let (single, _) = SharedStore::open(&sdir, &manifest(), cfg).unwrap();
        let universe: Vec<Pair> = Pair::all(24).collect();
        let value = |p: Pair| p.key() as f64 * 0.5;
        let mut rng = TinyRng::new(0x6a0c);
        let mut seen = [0u32; 5];
        for round in 0..240 {
            let mut batches: Vec<Vec<(Pair, f64)>> = (0..rng.range(1, 5))
                .map(|_| {
                    (0..rng.range(0, 9))
                        .map(|_| universe[rng.below(universe.len())])
                        .map(|p| (p, value(p)))
                        .collect()
                })
                .collect();
            if rng.below(8) == 0 {
                // A conflict in a random batch: against the store, or
                // against a pair an earlier batch of the round holds.
                let at = rng.below(batches.len());
                let p = match batches[..at].iter().flatten().next() {
                    Some(&(p, _)) if rng.below(2) == 0 => p,
                    _ => universe[rng.below(universe.len())],
                };
                let mut p_value = value(p) + 1.0;
                if rng.below(4) == 0 {
                    p_value = value(p);
                }
                batches[at].push((p, p_value));
            }
            let stale = rng.below(10) == 0;
            let (gtoken, stoken) = (grouped.token(), single.token());
            if stale {
                grouped.advance_epoch();
                single.advance_epoch();
            }
            let ctx = format!("round {round}");
            let refs: Vec<&[(Pair, f64)]> = batches.iter().map(|b| &b[..]).collect();
            let (logged, writes) = (grouped.wal_entries_logged(), grouped.wal_writes());
            let group = grouped.commit_group(gtoken, &refs);

            let mut receipts = Vec::new();
            let mut refused = None;
            for batch in &refs {
                match single.commit(stoken, batch) {
                    Ok(r) => receipts.push(r),
                    Err(e) => {
                        refused = Some(e);
                        break;
                    }
                }
            }
            assert_eq!(group.receipts, receipts, "{ctx}");
            match (&group.refused, &refused) {
                (None, None) => seen[0] += 1,
                (Some(CommitError::Fenced { .. }), Some(CommitError::Fenced { .. })) => {
                    assert_eq!(format!("{:?}", group.refused), format!("{refused:?}"));
                    seen[1] += 1;
                }
                (
                    Some(CommitError::Conflict { pair: a }),
                    Some(CommitError::Conflict { pair: b }),
                ) => {
                    assert_eq!(a, b, "{ctx}");
                    seen[2] += u32::from(receipts.is_empty());
                    seen[3] += u32::from(!receipts.is_empty());
                }
                other => panic!("{ctx}: refusals differ: {other:?}"),
            }
            assert_eq!(grouped.export(), single.export(), "{ctx}");
            assert_eq!(grouped.generation(), single.generation(), "{ctx}");
            assert_eq!(
                grouped.wal_entries_logged(),
                single.wal_entries_logged(),
                "{ctx}"
            );

            // One synced write per segment the group's entries reach.
            let seg = cfg.segment_entries as u64;
            let fresh = grouped.wal_entries_logged() - logged;
            let room = seg - logged % seg;
            let chunks = match fresh {
                0 => 0,
                f if f <= room => 1,
                f => 1 + (f - room).div_ceil(seg),
            };
            assert_eq!(grouped.wal_writes() - writes, chunks, "{ctx}");
            seen[4] += u32::from(receipts.len() > 1 && chunks == 1);
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "accepted, fenced, conflict first, conflict mid-round, one-append groups: {seen:?}"
        );
        assert!(grouped.wal_writes() < single.wal_writes());
        let exported = grouped.export();
        assert!(
            exported.len() > 200,
            "the rounds must fill several segments"
        );
        drop((grouped, single));
        let (grouped, grec) = SharedStore::open(&gdir, &manifest(), cfg).unwrap();
        let (single, srec) = SharedStore::open(&sdir, &manifest(), cfg).unwrap();
        assert_eq!(grec, srec);
        assert_eq!(grouped.export(), exported);
        assert_eq!(single.export(), exported);
        let _ = std::fs::remove_dir_all(&gdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    #[test]
    fn reopen_recovers_exactly_what_was_committed() {
        let dir = tmpdir("reopen");
        let exported;
        {
            let (store, _) = SharedStore::open(&dir, &manifest(), WalConfig::default()).unwrap();
            store
                .commit(
                    store.token(),
                    &[(Pair::new(0, 1), 1.25), (Pair::new(1, 2), 0.5)],
                )
                .unwrap();
            store
                .commit(store.token(), &[(Pair::new(0, 7), 4.0)])
                .unwrap();
            exported = store.export();
        }
        let (store, rec) = SharedStore::open(&dir, &manifest(), WalConfig::default()).unwrap();
        assert_eq!(rec.entries, 3);
        assert!(!rec.salvaged);
        assert_eq!(store.export(), exported);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `⌈log₂(len / seal)⌉ + 2` with `len` floored at `seal`: the most
    /// runs (tail included) a view of `len` entries may hold.
    fn run_bound(len: usize, seal: usize) -> usize {
        let mut k = 0;
        while seal << k < len {
            k += 1;
        }
        k + 2
    }

    #[test]
    fn runs_match_a_map_model_under_random_commits() {
        use prox_core::TinyRng;
        use std::collections::BTreeMap;

        let dir = tmpdir("model");
        let cfg = WalConfig { segment_entries: 4 };
        let (store, _) = SharedStore::open(&dir, &manifest(), cfg).unwrap();
        let universe: Vec<Pair> = Pair::all(30).collect();
        let value = |p: Pair| p.key() as f64 * 0.25;
        let mut rng = TinyRng::new(0x5eed);
        let mut model: BTreeMap<Pair, f64> = BTreeMap::new();
        let mut generation = 0u64;
        let mut stale = None;
        let mut refused = [0u32; 2];
        for step in 0..300 {
            let mut batch: Vec<(Pair, f64)> = (0..rng.range(1, 13))
                .map(|_| {
                    let p = universe[rng.below(universe.len())];
                    (p, value(p))
                })
                .collect();
            let conflict = rng.below(10) == 0;
            if conflict {
                // Half the time against the store, half within the batch.
                let p = match model.keys().nth(rng.below(model.len().max(1))) {
                    Some(&p) if rng.below(2) == 0 => p,
                    _ => batch[0].0,
                };
                batch.push((p, value(p) + 1.0));
            }
            let fenced = rng.below(8) == 0;
            let token = match stale.take() {
                Some(t) if fenced => t,
                _ => store.token(),
            };
            if rng.below(8) == 0 {
                stale = Some(store.token());
                store.advance_epoch();
            }
            let ctx = format!("step {step}");
            let outcome = store.commit(token, &batch);
            if token.epoch() != store.epoch() {
                assert!(matches!(outcome, Err(CommitError::Fenced { .. })), "{ctx}");
                refused[0] += 1;
            } else if conflict {
                assert!(
                    matches!(outcome, Err(CommitError::Conflict { .. })),
                    "{ctx}"
                );
                refused[1] += 1;
            } else {
                let receipt = outcome.unwrap();
                let before = model.len() as u64;
                for &(p, d) in &batch {
                    model.insert(p, d);
                }
                let fresh = model.len() as u64 - before;
                generation += u64::from(fresh > 0);
                assert_eq!(
                    (receipt.fresh, receipt.duplicates, receipt.generation),
                    (fresh, batch.len() as u64 - fresh, generation),
                    "{ctx}"
                );
            }

            let want: Vec<(Pair, f64)> = model.iter().map(|(&p, &d)| (p, d)).collect();
            assert_eq!(store.export(), want, "{ctx}");
            assert_eq!(store.len(), model.len(), "{ctx}");
            assert_eq!(store.generation(), generation, "{ctx}");
            let view = store.view();
            assert_eq!(view.generation, generation, "{ctx}");
            let runs = view.runs();
            for &p in &universe {
                assert_eq!(lookup_runs(&runs, p), model.get(&p).copied(), "{ctx}");
            }
            assert!(
                runs.len() <= run_bound(model.len(), 4),
                "{ctx}: {} runs for {} entries",
                runs.len(),
                model.len()
            );
        }
        assert!(
            model.len() > 100,
            "the sequence must build a real run shape"
        );
        assert!(
            refused.iter().all(|&n| n > 0),
            "fenced, conflicts: {refused:?}"
        );
        drop(store);
        let (store, _) = SharedStore::open(&dir, &manifest(), cfg).unwrap();
        let want: Vec<(Pair, f64)> = model.into_iter().collect();
        assert_eq!(store.export(), want, "recovery rebuilds the same set");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_commit_shares_every_run_but_the_newest_with_earlier_views() {
        let dir = tmpdir("share");
        let (store, _) =
            SharedStore::open(&dir, &manifest(), WalConfig { segment_entries: 8 }).unwrap();
        let mut before = store.view();
        let mut most_runs = 0;
        for c in 0..64u32 {
            let batch: Vec<(Pair, f64)> = (0..5)
                .map(|i| (Pair::new(c, 100 + i), f64::from(c * 5 + i)))
                .collect();
            store.commit(store.token(), &batch).unwrap();
            let after = store.view();
            let kept = after.runs.len() - 1;
            assert!(kept <= before.runs.len(), "commit {c}");
            for (i, run) in after.runs[..kept].iter().enumerate() {
                assert!(
                    Arc::ptr_eq(run, &before.runs[i]),
                    "commit {c}: run {i} copied"
                );
            }
            most_runs = most_runs.max(after.runs.len());
            before = after;
        }
        assert!(most_runs >= 4, "only {most_runs} runs: the pin is vacuous");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn opening_a_missing_directory_writes_nothing() {
        let root = tmpdir("lazy");
        let dir = root.join("store");
        let (store, rec) = SharedStore::open(&dir, &manifest(), WalConfig::default()).unwrap();
        assert_eq!(rec, WalRecovery::default());
        assert!(store.view().runs().is_empty() && store.snapshot().entries.is_empty());
        // A commit with nothing fresh logs nothing either.
        store.commit(store.token(), &[]).unwrap();
        assert!(!root.exists(), "open created {}", root.display());
    }

    #[test]
    fn first_commit_creates_the_directory_and_a_reopen_recovers_it() {
        let root = tmpdir("create");
        let dir = root.join("nested").join("store");
        let (store, _) = SharedStore::open(&dir, &manifest(), WalConfig::default()).unwrap();
        store
            .commit(store.token(), &[(Pair::new(0, 1), 1.5)])
            .unwrap();
        assert!(crate::wal::segment_path(&dir, 0).is_file());
        let exported = store.export();
        drop(store);
        let (store, rec) = SharedStore::open(&dir, &manifest(), WalConfig::default()).unwrap();
        assert_eq!(rec.entries, 1);
        assert_eq!(store.export(), exported);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_path_under_a_regular_file_still_fails_open() {
        let file = tmpdir("file");
        std::fs::write(&file, b"not a directory").unwrap();
        assert!(SharedStore::open(&file.join("store"), &manifest(), WalConfig::default()).is_err());
        assert!(SharedStore::open(&file, &manifest(), WalConfig::default()).is_err());
        let _ = std::fs::remove_file(&file);
    }
}
