//! The shared generation-stamped known-distance store.
//!
//! One [`SharedStore`] outlives every client session: certified
//! distances committed by any session are visible to all later
//! snapshots, so the *n*-th client's query mix is radically cheaper
//! than the first's (ROADMAP item 1). The store is fed **exclusively**
//! through [`SharedStore::commit`] — the WAL-logged, epoch-fenced
//! choke point that lint **L16** pins statically — and read through
//! cheap immutable [`StoreSnapshot`]s, so readers never contend with an
//! in-flight commit.
//!
//! Fencing: a commit must present the [`EpochToken`] issued with its
//! snapshot. [`SharedStore::advance_epoch`] invalidates every
//! outstanding token, which is how a poisoned or half-dead session is
//! quarantined — whatever it resolved against the old epoch can never
//! reach the store; it must re-sync from a fresh snapshot first.
//!
//! Durability: fresh entries hit the [`WriteAheadLog`] *before* they
//! become visible to readers. A crash between the WAL write and the
//! in-memory apply loses nothing (recovery replays the WAL); a crash
//! before the WAL write loses only the unacknowledged batch.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::RwLock;

use prox_core::invariant::InvariantExt;
use prox_core::Pair;

use crate::wal::{WalConfig, WalRecovery, WriteAheadLog};

/// Proof of which store epoch a session's snapshot belongs to. Issued
/// with every snapshot; checked at commit.
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

/// An immutable view of the store at one generation: the certified
/// entries (sorted by pair key), the generation stamp, and the epoch
/// token a commit against this view must present.
#[derive(Clone, Debug)]
pub struct StoreSnapshot {
    /// Certified `(pair, distance)` entries, ascending by `Pair::key`.
    pub entries: Vec<(Pair, f64)>,
    /// Store generation the snapshot was taken at.
    pub generation: u64,
    /// Token to present at commit time.
    pub token: EpochToken,
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

/// The mutable heart of the store. Every mutator on this type is an
/// **L16 sink**: the only sanctioned chains to them run through
/// [`SharedStore::commit`] (and the audited recovery/fencing funnels).
struct StoreInner {
    /// Certified distances keyed by `Pair::key` (deterministic order).
    known: BTreeMap<u64, f64>,
    /// Bumped once per commit that added at least one fresh entry.
    generation: u64,
    /// Bumped by [`SharedStore::advance_epoch`]; stale tokens bounce.
    epoch: u64,
    /// The durable log; entries land here before `known`.
    wal: WriteAheadLog,
}

impl StoreInner {
    /// Applies `fresh` (already WAL-logged, already deduplicated) to
    /// the visible map and stamps a new generation.
    fn absorb(&mut self, fresh: &[(Pair, f64)]) {
        for &(p, d) in fresh {
            self.known.insert(p.key(), d);
        }
        if !fresh.is_empty() {
            self.generation += 1;
        }
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
    /// Opens (or creates) the store backed by the WAL in `dir`,
    /// replaying any segments found there. `manifest` binds the
    /// directory to one problem instance (dataset/n/seed); a recovered
    /// segment with a different manifest is refused.
    pub fn open(
        dir: &Path,
        manifest: &[(String, String)],
        config: WalConfig,
    ) -> io::Result<(Self, WalRecovery)> {
        let (wal, known, recovery) = WriteAheadLog::recover(dir, manifest, config)?;
        let mut map = BTreeMap::new();
        for (p, d) in known {
            map.insert(p.key(), d);
        }
        let generation = u64::from(!map.is_empty());
        let store = SharedStore {
            inner: RwLock::new(StoreInner {
                known: map,
                generation,
                epoch: 0,
                wal,
            }),
        };
        Ok((store, recovery))
    }

    /// An immutable view of the current certified set, with the epoch
    /// token a later commit must present.
    pub fn snapshot(&self) -> StoreSnapshot {
        let inner = self.read();
        StoreSnapshot {
            entries: inner
                .known
                .iter()
                .map(|(&k, &d)| (Pair::from_key(k), d))
                .collect(),
            generation: inner.generation,
            token: EpochToken { epoch: inner.epoch },
        }
    }

    /// The token a commit must present right now (without the cost of a
    /// full snapshot).
    pub fn token(&self) -> EpochToken {
        EpochToken {
            epoch: self.read().epoch,
        }
    }

    /// **The** write path (lint L16): durably logs the fresh subset of
    /// `entries` to the WAL, then makes it visible and stamps a new
    /// generation. Refuses totally on a stale epoch token (fenced
    /// session), a bit-level disagreement with an already-certified
    /// value (poisoned session), or a WAL write failure.
    pub fn commit(
        &self,
        token: EpochToken,
        entries: &[(Pair, f64)],
    ) -> Result<CommitReceipt, CommitError> {
        let mut inner = self.write();
        if token.epoch != inner.epoch {
            return Err(CommitError::Fenced {
                token_epoch: token.epoch,
                store_epoch: inner.epoch,
            });
        }
        let mut fresh: Vec<(Pair, f64)> = Vec::new();
        let mut seen_batch = BTreeMap::new();
        let mut duplicates = 0u64;
        for &(p, d) in entries {
            let existing = inner
                .known
                .get(&p.key())
                .copied()
                .or_else(|| seen_batch.get(&p.key()).copied());
            match existing {
                Some(have) if have.to_bits() == d.to_bits() => duplicates += 1,
                Some(_) => return Err(CommitError::Conflict { pair: p }),
                None => {
                    seen_batch.insert(p.key(), d);
                    fresh.push((p, d));
                }
            }
        }
        if let Err(e) = inner.wal.append(&fresh) {
            return Err(CommitError::Io(e));
        }
        inner.absorb(&fresh);
        Ok(CommitReceipt {
            fresh: fresh.len() as u64,
            duplicates,
            generation: inner.generation,
        })
    }

    /// Quarantine fence: invalidates every outstanding epoch token.
    /// Sessions holding old tokens get [`CommitError::Fenced`] and must
    /// re-sync from a fresh snapshot. Returns the new epoch.
    pub fn advance_epoch(&self) -> u64 {
        self.write().fence()
    }

    /// Number of certified entries.
    pub fn len(&self) -> usize {
        self.read().known.len()
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
}
