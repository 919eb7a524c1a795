//! Segment-rotating write-ahead log on the checkpoint-v2 format.
//!
//! The one durability channel for certified distances: the shared
//! store's, and a single `prox-cli --checkpoint DIR` run's. The store
//! appends every committed group of batches of fresh certified distances
//! here *before* it becomes visible to readers, so a crash at any instant
//! loses at most the in-flight group — never a batch a client was told
//! succeeded. A serve round commits its sessions' batches as one group
//! ([`crate::SharedStore::commit_group`]), so the log pays one append
//! and one `fdatasync` per round, not one per session.
//!
//! Layout: `DIR/wal-NNNNN.ckpt`, each a self-contained v2 checkpoint
//! (CRC32 rolling block markers + `#! crc32=` trailers). A segment's
//! first append is published whole with the temp + fsync + rename
//! discipline of [`prox_core::write_checkpoint_file`]; so is the first
//! append after `WriteAheadLog::recover` or after a failed append,
//! which also drops any torn bytes the tail held. Every later append
//! writes its data lines followed by a fresh `#! crc32=<hex>` trailer
//! over every earlier byte of the file in one write, then one
//! `fdatasync`. Once a segment reaches [`WalConfig::segment_entries`]
//! entries it is sealed and a new segment starts, so an append that
//! crosses a segment boundary is split there; if a later part of a split
//! append fails, the parts already written are undone, so a refused
//! append logs nothing. Every acknowledged
//! append ends in a verifying trailer, so a sealed segment loads
//! strictly, and a `kill -9` mid-append leaves a tail whose longest
//! verified prefix ends at the last acknowledged append: the lenient
//! tail read loses exactly the in-flight group, which is correct — none
//! of it was acknowledged. The `#!` lines are comments, so a segment
//! stays a plain [`prox_core::load_known`] cache.
//!
//! Recovery (`WriteAheadLog::recover`) reads segments in index order:
//! sealed segments strictly (damage there is a hard error — they were
//! fully fsynced long ago), the final segment leniently, salvaging the
//! longest CRC-verified prefix. A tear so deep that *nothing* in the
//! tail verifies — it consumed the version line, the manifest, or the
//! whole first CRC block — is still not fatal: the tail segment is
//! treated as wholly destroyed (every surviving line dropped, matching
//! the loader's refuse-rather-than-invent contract) and its index is
//! reused as the fresh active segment, while every sealed segment's
//! entries survive untouched. The salvage accounting feeds invariant
//! **I12**: a recovered store re-pays exactly the entries the tear
//! destroyed, never one that survived. Recovery itself writes nothing:
//! a missing directory is an empty log, and the first segment
//! publication creates it and syncs its parent.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use prox_core::{
    load_checkpoint_lenient, read_checkpoint_file, write_checkpoint_file, CheckpointRecovery,
    Crc32, Pair,
};

/// Manifest key carrying the segment index inside each WAL file.
const SEGMENT_KEY: &str = "wal_segment";

/// Knobs for the log's rotation policy.
#[derive(Copy, Clone, Debug)]
pub struct WalConfig {
    /// Entries per segment before the active segment is sealed.
    pub segment_entries: usize,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_entries: 256,
        }
    }
}

/// What WAL recovery (run by [`crate::SharedStore::open`]) found on disk.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WalRecovery {
    /// Segments read (sealed + active).
    pub segments: u64,
    /// Entries recovered across all segments, after deduplication.
    pub entries: u64,
    /// Unverifiable data lines dropped from the torn tail segment.
    pub dropped_lines: u64,
    /// True when the tail segment needed lenient salvage (it was torn).
    pub salvaged: bool,
}

/// Everything [`WriteAheadLog::recover`] hands back: the opened log,
/// the deduplicated recovered entries, and the recovery stats.
pub type RecoveredLog = (WriteAheadLog, Vec<(Pair, f64)>, WalRecovery);

/// A crash-safe, append-only log of `(pair, distance)` entries. The
/// shared store owns one (and logs only through
/// [`crate::SharedStore::commit_group`]); `prox-cli --checkpoint DIR`
/// opens another for a single run's resolutions.
#[derive(Debug)]
pub struct WriteAheadLog {
    dir: PathBuf,
    manifest: Vec<(String, String)>,
    config: WalConfig,
    /// Index of the active (unsealed) segment.
    active_index: u64,
    /// Entries in the active segment: exactly the acknowledged ones,
    /// which a whole publication writes out.
    active: Vec<(Pair, f64)>,
    /// Append handle on the active segment, present only once this log
    /// has published the segment whole; `None` makes the next batch
    /// publish it whole again.
    open: Option<OpenSegment>,
    /// False until `dir` is known to exist: recovery found it, or a
    /// publication created it.
    dir_exists: bool,
    /// Entries appended over the log's whole life (recovered + new).
    entries_logged: u64,
    /// Synced writes (appends and whole publications) since recovery.
    #[cfg(test)]
    writes: u64,
}

impl WriteAheadLog {
    /// Opens the log in `dir`, replaying any existing segments (see
    /// module docs for the strict/lenient split). Recovery writes
    /// nothing: a missing `dir` is an empty log, and the first
    /// publication creates it. `manifest` is stamped into every segment
    /// and checked against recovered segments so a store directory can
    /// never silently serve a different problem's distances.
    pub fn recover(
        dir: &Path,
        manifest: &[(String, String)],
        config: WalConfig,
    ) -> io::Result<RecoveredLog> {
        let (mut indices, dir_exists) = match segment_indices(dir) {
            Ok(indices) => (indices, true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => (Vec::new(), false),
            Err(e) => return Err(e),
        };
        indices.sort_unstable();
        let mut recovery = WalRecovery::default();
        let mut known: Vec<(Pair, f64)> = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        let mut active: Vec<(Pair, f64)> = Vec::new();
        let mut active_index = 0u64;
        for (i, &idx) in indices.iter().enumerate() {
            let path = segment_path(dir, idx);
            let last = i + 1 == indices.len();
            let ckpt = if last {
                match read_tail(&path)? {
                    TailRead::Salvaged(rec) => {
                        recovery.dropped_lines += rec.dropped_lines as u64;
                        recovery.salvaged |= rec.recovered;
                        rec.checkpoint
                    }
                    TailRead::Destroyed { dropped_lines } => {
                        // Nothing in the tail verifies: the tear consumed
                        // the header or the whole first CRC block. The
                        // segment is wholly lost; restart it empty under
                        // the same index (the next append atomically
                        // replaces the torn file). Sealed segments were
                        // already absorbed, so I12 re-pays exactly the
                        // destroyed entries.
                        recovery.dropped_lines += dropped_lines;
                        recovery.salvaged = true;
                        recovery.segments += 1;
                        active_index = idx;
                        active = Vec::new();
                        continue;
                    }
                }
            } else {
                read_checkpoint_file(&path)?
            };
            check_manifest(&path, idx, &ckpt, manifest)?;
            recovery.segments += 1;
            let mut segment_entries = Vec::new();
            for &(p, d) in &ckpt.known {
                if seen.insert(p.key()) {
                    known.push((p, d));
                    segment_entries.push((p, d));
                }
            }
            if last {
                active_index = idx;
                active = segment_entries;
            }
        }
        if !indices.is_empty() && active.len() >= config.segment_entries {
            // The tail segment recovered full: seal it and start fresh.
            active_index += 1;
            active = Vec::new();
        }
        recovery.entries = known.len() as u64;
        let wal = WriteAheadLog {
            dir: dir.to_path_buf(),
            manifest: manifest.to_vec(),
            config,
            active_index,
            active,
            // Never append after a recovered tail: it may end in torn
            // bytes, so the first batch republishes the segment whole.
            open: None,
            dir_exists,
            entries_logged: recovery.entries,
            #[cfg(test)]
            writes: 0,
        };
        Ok((wal, known, recovery))
    }

    /// Durably appends `entries` (already deduplicated by the caller) to
    /// the active segment in one synced write, sealing it when full and
    /// splitting the write at a segment boundary. Entries are
    /// acknowledged only once all of them and their trailers are synced.
    /// On any error the log forgets the whole append — a part already
    /// written before a segment boundary is undone too — and its next
    /// append republishes the segment whole from the acknowledged entries
    /// alone.
    pub fn append(&mut self, entries: &[(Pair, f64)]) -> io::Result<()> {
        let (first_index, kept, logged) =
            (self.active_index, self.active.len(), self.entries_logged);
        // The first segment's entries from before this append, kept once
        // the append seals it with more to write.
        let mut sealed: Option<Vec<(Pair, f64)>> = None;
        let mut rest = entries;
        while !rest.is_empty() {
            let room = self
                .config
                .segment_entries
                .saturating_sub(self.active.len());
            let take = rest.len().min(room.max(1));
            let (batch, tail) = rest.split_at(take);
            let acknowledged = self.active.len();
            self.active.extend_from_slice(batch);
            if let Err(e) = self.write_batch(batch) {
                self.active.truncate(acknowledged);
                self.open = None;
                if let Some(before) = sealed {
                    self.undo(first_index, before, logged);
                }
                return Err(e);
            }
            self.entries_logged += batch.len() as u64;
            if self.active.len() >= self.config.segment_entries {
                if sealed.is_none() && !tail.is_empty() {
                    sealed = Some(self.active[..kept].to_vec());
                }
                self.active_index += 1;
                self.active.clear();
                self.open = None;
            }
            rest = tail;
        }
        Ok(())
    }

    /// Entries appended over the log's whole life (recovered + new).
    pub fn entries_logged(&self) -> u64 {
        self.entries_logged
    }

    /// Synced writes (appends and whole publications) since recovery.
    #[cfg(test)]
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Makes `batch` (already pushed onto `active`) durable: appended
    /// through the open handle when there is one, else by publishing
    /// the whole active segment.
    fn write_batch(&mut self, batch: &[(Pair, f64)]) -> io::Result<()> {
        #[cfg(test)]
        {
            self.writes += 1;
        }
        if let Some(seg) = &mut self.open {
            return seg.append(batch);
        }
        self.publish()
    }

    /// Writes the whole active segment with the temp + fsync + rename
    /// discipline, then opens an append handle on it.
    fn publish(&mut self) -> io::Result<()> {
        if !self.dir_exists {
            create_dir_durably(&self.dir)?;
            self.dir_exists = true;
        }
        let mut manifest = self.manifest.clone();
        manifest.push((SEGMENT_KEY.to_string(), self.active_index.to_string()));
        let path = segment_path(&self.dir, self.active_index);
        write_checkpoint_file(&path, &manifest, self.active.iter().copied())?;
        // The batch is durable now. The handle only speeds up later
        // batches: without one they keep publishing the segment whole.
        self.open = OpenSegment::open(&path).ok();
        Ok(())
    }

    /// Undoes an append that sealed segment `index` and then failed in a
    /// later segment, so that a refused append logs nothing: every
    /// segment it published after `index` is removed, and `index` is
    /// republished with the `before` entries it held (or removed when it
    /// held none). Best effort: a crash midway can leave some of the
    /// refused entries durable, never an acknowledged one lost.
    fn undo(&mut self, index: u64, before: Vec<(Pair, f64)>, logged: u64) {
        for idx in index + 1..=self.active_index {
            let _ = std::fs::remove_file(segment_path(&self.dir, idx));
        }
        self.active_index = index;
        self.active = before;
        self.entries_logged = logged;
        self.open = None;
        let _ = if self.active.is_empty() {
            std::fs::remove_file(segment_path(&self.dir, index))
        } else {
            self.publish()
        };
    }
}

/// An append handle on a published active segment, with the CRC-32 of
/// every byte the file holds.
#[derive(Debug)]
struct OpenSegment {
    file: File,
    digest: Crc32,
    len: u64,
}

impl OpenSegment {
    fn open(path: &Path) -> io::Result<Self> {
        let mut file = OpenOptions::new().read(true).append(true).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut digest = Crc32::new();
        digest.update(&bytes);
        Ok(OpenSegment {
            file,
            digest,
            len: bytes.len() as u64,
        })
    }

    /// Writes `batch`'s data lines and a `#! crc32=` trailer over every
    /// earlier byte in one write, then syncs the data.
    fn append(&mut self, batch: &[(Pair, f64)]) -> io::Result<()> {
        let mut buf = Vec::with_capacity(48 * (batch.len() + 1));
        for &(p, d) in batch {
            // The data-line format of `prox_core::save_checkpoint`.
            writeln!(buf, "{},{},{:.17e}", p.lo(), p.hi(), d)?;
        }
        let mut digest = self.digest;
        digest.update(&buf);
        writeln!(buf, "#! crc32={:08x}", digest.value())?;
        let synced = self
            .file
            .write_all(&buf)
            .and_then(|()| self.file.sync_data());
        if let Err(e) = synced {
            // Best effort, so a clean shutdown cannot replay a refused
            // batch; the log republishes the segment on its next append
            // either way.
            let _ = self.file.set_len(self.len);
            return Err(e);
        }
        self.digest.update(&buf);
        self.len += buf.len() as u64;
        Ok(())
    }
}

/// What a lenient read of the tail segment found.
enum TailRead {
    /// A CRC-verified prefix (possibly the whole file) was recovered.
    Salvaged(CheckpointRecovery),
    /// Nothing in the file verifies; every surviving non-empty line is
    /// dropped and the segment restarts empty.
    Destroyed {
        /// Non-empty lines the destroyed tail still held.
        dropped_lines: u64,
    },
}

/// Reads the tail (active) segment leniently. Unlike sealed segments, a
/// tail where *nothing* verifies is not an error — a `kill -9` can tear
/// the file anywhere, including inside the version line or the first
/// CRC block, and losing the unacknowledged tail batch is exactly the
/// WAL contract. Only real I/O failures propagate. The version-line
/// check also keeps a torn header from falling back to the unverified
/// v1 parse path: every segment this log writes is v2, so a tail that
/// no longer says so is torn, not trustworthy.
fn read_tail(path: &Path) -> io::Result<TailRead> {
    let text = std::fs::read_to_string(path)?;
    let destroyed = |t: &str| TailRead::Destroyed {
        dropped_lines: t.lines().filter(|l| !l.trim().is_empty()).count() as u64,
    };
    if text.lines().next().map(str::trim) != Some("#! ckpt_version=2") {
        return Ok(destroyed(&text));
    }
    match load_checkpoint_lenient(text.as_bytes()) {
        Ok(rec) => Ok(TailRead::Salvaged(rec)),
        Err(e) if e.kind() == io::ErrorKind::InvalidData => Ok(destroyed(&text)),
        Err(e) => Err(e),
    }
}

/// Creates `dir` (and any missing ancestors), then syncs the parent of
/// each directory it created, so the new entries survive a crash before
/// the first segment they hold is acknowledged.
fn create_dir_durably(dir: &Path) -> io::Result<()> {
    let created: Vec<&Path> = dir
        .ancestors()
        .take_while(|d| !d.as_os_str().is_empty() && !d.exists())
        .collect();
    std::fs::create_dir_all(dir)?;
    #[cfg(unix)]
    for d in created {
        let parent = match d.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        File::open(parent)?.sync_all()?;
    }
    Ok(())
}

/// `DIR/wal-NNNNN.ckpt` for segment `idx`.
pub fn segment_path(dir: &Path, idx: u64) -> PathBuf {
    dir.join(format!("wal-{idx:05}.ckpt"))
}

/// The segment indices present in `dir`, unsorted.
fn segment_indices(dir: &Path) -> io::Result<Vec<u64>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(idx) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".ckpt"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push(idx);
        }
    }
    Ok(out)
}

/// Refuses a recovered segment whose manifest disagrees with the
/// store's: a WAL directory is bound to one problem instance.
fn check_manifest(
    path: &Path,
    expect_idx: u64,
    ckpt: &prox_core::Checkpoint,
    manifest: &[(String, String)],
) -> io::Result<()> {
    for (k, v) in manifest {
        match ckpt.manifest_value(k) {
            Some(got) if got == v => {}
            got => {
                let has = match got {
                    Some(g) => format!("segment has {g}"),
                    None => format!("segment has no {k} entry"),
                };
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{}: manifest mismatch for {k}: expected {v}, {has}",
                        path.display()
                    ),
                ));
            }
        }
    }
    if ckpt
        .manifest_value(SEGMENT_KEY)
        .and_then(|s| s.parse().ok())
        != Some(expect_idx)
    {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{}: segment index in manifest disagrees with the file name",
                path.display()
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("prox-serve-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmpdir");
        dir
    }

    fn pairs(n: u32) -> Vec<(Pair, f64)> {
        (0..n)
            .map(|i| (Pair::new(i, i + 1), i as f64 * 0.5))
            .collect()
    }

    fn manifest() -> Vec<(String, String)> {
        vec![("dataset".to_string(), "unit".to_string())]
    }

    #[test]
    fn append_recover_roundtrip_across_segments() {
        let dir = tmpdir("roundtrip");
        let cfg = WalConfig { segment_entries: 4 };
        let entries = pairs(10);
        {
            let (mut wal, known, rec) = WriteAheadLog::recover(&dir, &manifest(), cfg).unwrap();
            assert!(known.is_empty());
            assert_eq!(rec, WalRecovery::default());
            wal.append(&entries[..3]).unwrap();
            wal.append(&entries[3..]).unwrap();
            assert_eq!(wal.entries_logged(), 10);
            // Ten entries at four per segment: 0 and 1 sealed, 2 active.
            for k in 0..3 {
                assert!(segment_path(&dir, k).is_file(), "segment {k}");
            }
            assert!(!segment_path(&dir, 3).is_file());
        }
        let (wal, known, rec) = WriteAheadLog::recover(&dir, &manifest(), cfg).unwrap();
        assert_eq!(known, entries);
        assert_eq!(rec.segments, 3);
        assert_eq!(rec.entries, 10);
        assert_eq!(rec.dropped_lines, 0);
        assert!(!rec.salvaged);
        assert_eq!(wal.entries_logged(), 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_rejects_foreign_manifest() {
        let dir = tmpdir("foreign");
        let cfg = WalConfig::default();
        {
            let (mut wal, _, _) = WriteAheadLog::recover(&dir, &manifest(), cfg).unwrap();
            wal.append(&pairs(3)).unwrap();
        }
        let other = vec![("dataset".to_string(), "different".to_string())];
        let err = WriteAheadLog::recover(&dir, &other, cfg).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("manifest mismatch for dataset: expected different, segment has unit"),
            "{msg}"
        );
        let missing = vec![("metric".to_string(), "l2".to_string())];
        let err = WriteAheadLog::recover(&dir, &missing, cfg).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("manifest mismatch for metric: expected l2, segment has no metric entry"),
            "{msg}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_salvages_verified_prefix_only() {
        let dir = tmpdir("torn");
        let cfg = WalConfig {
            segment_entries: 256,
        };
        // 70 entries: one CRC block (64 lines) is marker-verified, the
        // remaining 6 only by the trailer — which the tear destroys.
        let entries = pairs(70);
        {
            let (mut wal, _, _) = WriteAheadLog::recover(&dir, &manifest(), cfg).unwrap();
            wal.append(&entries).unwrap();
        }
        let path = segment_path(&dir, 0);
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.len() - 40;
        std::fs::write(&path, &text[..cut]).unwrap();

        let (_, known, rec) = WriteAheadLog::recover(&dir, &manifest(), cfg).unwrap();
        assert!(rec.salvaged);
        assert_eq!(known.len(), 64, "exactly the marker-verified block");
        assert_eq!(known, entries[..64]);
        assert!(rec.dropped_lines > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tail_destroyed_inside_first_crc_block_loses_only_that_segment() {
        let dir = tmpdir("headtear");
        let cfg = WalConfig { segment_entries: 4 };
        let entries = pairs(9);
        {
            let (mut wal, _, _) = WriteAheadLog::recover(&dir, &manifest(), cfg).unwrap();
            wal.append(&entries).unwrap();
        }
        // Tear the active segment (wal-00002, one entry) down to a few
        // header bytes: nothing in it verifies any more.
        let path = segment_path(&dir, 2);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..6]).unwrap();

        let (mut wal, known, rec) = WriteAheadLog::recover(&dir, &manifest(), cfg).unwrap();
        assert!(rec.salvaged);
        assert!(rec.dropped_lines > 0);
        assert_eq!(rec.segments, 3);
        assert_eq!(known, entries[..8], "sealed segments survive untouched");
        // The destroyed index is reused: a fresh append atomically
        // replaces the torn file and a clean recovery follows.
        wal.append(&entries[8..]).unwrap();
        let (_, known, rec) = WriteAheadLog::recover(&dir, &manifest(), cfg).unwrap();
        assert!(!rec.salvaged);
        assert_eq!(known, entries);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tail_torn_to_zero_bytes_recovers_the_sealed_prefix() {
        let dir = tmpdir("zerotail");
        let cfg = WalConfig { segment_entries: 4 };
        let entries = pairs(6);
        {
            let (mut wal, _, _) = WriteAheadLog::recover(&dir, &manifest(), cfg).unwrap();
            wal.append(&entries).unwrap();
        }
        std::fs::write(segment_path(&dir, 1), b"").unwrap();
        let (_, known, rec) = WriteAheadLog::recover(&dir, &manifest(), cfg).unwrap();
        assert!(rec.salvaged);
        assert_eq!(rec.dropped_lines, 0, "an empty file holds no lines to drop");
        assert_eq!(known, entries[..4]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_sealed_segment_is_a_hard_error() {
        let dir = tmpdir("sealed");
        let cfg = WalConfig { segment_entries: 4 };
        {
            let (mut wal, _, _) = WriteAheadLog::recover(&dir, &manifest(), cfg).unwrap();
            wal.append(&pairs(9)).unwrap();
        }
        // Flip a byte in the first (sealed) segment's data region.
        let path = segment_path(&dir, 0);
        let mut bytes = std::fs::read(&path).unwrap();
        let flip = bytes.len() / 2;
        bytes[flip] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        WriteAheadLog::recover(&dir, &manifest(), cfg)
            .expect_err("sealed segments are read strictly");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_after_a_torn_recovery_republishes_the_tail_whole() {
        let dir = tmpdir("reappend");
        let cfg = WalConfig::default();
        let entries = pairs(30);
        {
            let (mut wal, _, _) = WriteAheadLog::recover(&dir, &manifest(), cfg).unwrap();
            for batch in [&entries[..10], &entries[10..20], &entries[20..25]] {
                wal.append(batch).unwrap();
            }
        }
        let path = segment_path(&dir, 0);
        let text = std::fs::read_to_string(&path).unwrap();
        let trailer_ends: Vec<usize> = text
            .match_indices("#! crc32=")
            .map(|(at, _)| at + text[at..].find('\n').unwrap() + 1)
            .collect();
        assert_eq!(trailer_ends.len(), 3, "one trailer per batch");
        assert_eq!(trailer_ends[2], text.len());
        // Tear mid-line inside the last appended batch.
        let cut = trailer_ends[1] + 40;
        std::fs::write(&path, &text[..cut]).unwrap();

        let (mut wal, known, rec) = WriteAheadLog::recover(&dir, &manifest(), cfg).unwrap();
        assert!(rec.salvaged);
        assert_eq!(known, entries[..20], "exactly the acknowledged batches");
        wal.append(&entries[25..]).unwrap();

        let mut expect = entries[..20].to_vec();
        expect.extend_from_slice(&entries[25..]);
        let (_, known, rec) = WriteAheadLog::recover(&dir, &manifest(), cfg).unwrap();
        assert!(!rec.salvaged, "the torn bytes are gone");
        assert_eq!(known, expect);
        assert_eq!(read_checkpoint_file(&path).unwrap().known, expect);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovered_full_tail_is_sealed_not_rewritten() {
        let dir = tmpdir("fulltail");
        let cfg = WalConfig { segment_entries: 4 };
        {
            let (mut wal, _, _) = WriteAheadLog::recover(&dir, &manifest(), cfg).unwrap();
            wal.append(&pairs(4)).unwrap();
        }
        let (mut wal, known, _) = WriteAheadLog::recover(&dir, &manifest(), cfg).unwrap();
        assert_eq!(known.len(), 4);
        let extra = [(Pair::new(40, 41), 9.0)];
        wal.append(&extra).unwrap();
        let (_, known, rec) = WriteAheadLog::recover(&dir, &manifest(), cfg).unwrap();
        assert_eq!(known.len(), 5);
        assert_eq!(rec.segments, 2, "sealed wal-00000, active wal-00001");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
