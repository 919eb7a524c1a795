//! The checkpoint-v2 file format: the segment format of the
//! write-ahead log (`prox_serve::wal`) that makes resolved distances
//! durable.
//!
//! A budget-killed or crashed run must never re-pay for distances it
//! already resolved. This module layers a *manifest* on top of the
//! [`crate::persist`] line format: a checkpoint file is a normal
//! resolved-distance cache (readable by [`crate::load_known`]) whose
//! `#! key=value` comment lines record what problem it belongs to
//! (`dataset`, `n`, `seed`, …) so a reader can refuse a mismatched file
//! instead of silently poisoning its bound scheme.
//!
//! # Integrity (format v2)
//!
//! Since a checkpoint is the only durable state a resume *trusts*, v2
//! files are self-verifying: the first line is `#! ckpt_version=2`, a
//! rolling `#! crc32_upto=<hex>` marker (CRC-32 of every file byte
//! before the marker line) lands after each block of
//! [`CRC_BLOCK_LINES`] data lines, and the file ends with a
//! `#! crc32=<hex>` trailer over everything before it. Strict loading
//! ([`load_checkpoint`]) rejects any v2 file whose trailer fails;
//! lenient loading ([`load_checkpoint_lenient`]) recovers the longest
//! prefix ending at a verifying marker — so a torn write or a
//! bit-flipped tail costs at most one block of resolved pairs, never
//! the whole file. The marker lines are `#` comments, so v2 files stay
//! plain caches to [`crate::load_known`], and v1 files (no version
//! line) still load exactly as before.
//!
//! Files are written atomically *and durably*: the bytes land in a
//! sibling temp file which is fsynced before the same-directory rename,
//! and the directory entry is fsynced after it — a crash at any point
//! leaves either the previous checkpoint or the complete new one.

use std::fs;
use std::io::{self, BufRead, Write};
use std::path::{Path, PathBuf};

use crate::crc::Crc32;
use crate::{load_known, Pair};

/// Data lines per rolling CRC marker in a v2 checkpoint: the most a
/// torn tail can cost a lenient recovery.
pub const CRC_BLOCK_LINES: usize = 64;

/// Manifest keys the format itself owns; user manifests may not shadow
/// them and parsed manifests never contain them.
const RESERVED_KEYS: [&str; 3] = ["ckpt_version", "crc32", "crc32_upto"];

/// A parsed checkpoint: the manifest plus the resolved-distance set.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// `key=value` manifest entries, in file order.
    pub manifest: Vec<(String, String)>,
    /// The resolved distances, exactly as [`crate::load_known`] returns
    /// them.
    pub known: Vec<(Pair, f64)>,
}

impl Checkpoint {
    /// The first manifest value stored under `key`, if any.
    pub fn manifest_value(&self, key: &str) -> Option<&str> {
        self.manifest
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Writes a v2 checkpoint: the version line, manifest comment lines,
/// then the standard resolved-distance cache format with rolling CRC
/// markers and a whole-file CRC trailer. Returns the number of edges
/// written.
///
/// Manifest keys and values must not contain newlines or `=` in the
/// key, and may not shadow the format's reserved keys (`ckpt_version`,
/// `crc32`, `crc32_upto`); offending entries are rejected with
/// `InvalidInput`.
pub fn save_checkpoint<W: Write>(
    mut w: W,
    manifest: &[(String, String)],
    edges: impl IntoIterator<Item = (Pair, f64)>,
) -> io::Result<usize> {
    for (k, v) in manifest {
        let clean = !k.is_empty()
            && !k.contains('=')
            && !k.contains('\n')
            && !v.contains('\n')
            && k.trim() == k
            && !RESERVED_KEYS.contains(&k.as_str());
        if !clean {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("bad manifest entry {k:?}={v:?}"),
            ));
        }
    }
    // The CRC markers digest every preceding file byte, so the whole
    // file is staged in memory; checkpoints are line-oriented and small
    // (tens of bytes per resolved pair).
    let mut buf: Vec<u8> = Vec::new();
    let mut digest = Crc32::new();
    let mut absorbed = 0usize;
    writeln!(buf, "#! ckpt_version=2")?;
    for (k, v) in manifest {
        writeln!(buf, "#! {k}={v}")?;
    }
    writeln!(buf, "# prox resolved-distance cache v1")?;
    let mut count = 0usize;
    for (p, d) in edges {
        // 17 significant digits round-trip any f64 exactly (the same
        // rule as `persist::save_known`).
        writeln!(buf, "{},{},{:.17e}", p.lo(), p.hi(), d)?;
        count += 1;
        if count.is_multiple_of(CRC_BLOCK_LINES) {
            digest.update(&buf[absorbed..]);
            absorbed = buf.len();
            writeln!(buf, "#! crc32_upto={:08x}", digest.value())?;
        }
    }
    digest.update(&buf[absorbed..]);
    writeln!(buf, "#! crc32={:08x}", digest.value())?;
    w.write_all(&buf)?;
    Ok(count)
}

/// `#! key=value` manifest entries of `text`, reserved keys excluded.
fn parse_manifest(text: &str) -> Vec<(String, String)> {
    let mut manifest = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.trim().strip_prefix("#!") {
            if let Some((k, v)) = rest.split_once('=') {
                let k = k.trim();
                if !RESERVED_KEYS.contains(&k) {
                    manifest.push((k.to_string(), v.trim().to_string()));
                }
            }
        }
    }
    manifest
}

/// The declared `ckpt_version` of `text`, if any (v1 files have none).
fn declared_version(text: &str) -> io::Result<Option<u32>> {
    for line in text.lines() {
        if let Some(rest) = line.trim().strip_prefix("#!") {
            if let Some((k, v)) = rest.split_once('=') {
                if k.trim() == "ckpt_version" {
                    return match v.trim().parse::<u32>() {
                        Ok(2) => Ok(Some(2)),
                        _ => Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unsupported checkpoint version {:?}", v.trim()),
                        )),
                    };
                }
            }
        }
    }
    Ok(None)
}

/// What lenient checkpoint recovery salvaged.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointRecovery {
    /// The checkpoint reconstructed from the verified (or, for v1
    /// files, parseable) portion of the file.
    pub checkpoint: Checkpoint,
    /// Non-empty lines dropped after the trusted prefix (v2) or data
    /// lines skipped as malformed (v1).
    pub dropped_lines: usize,
    /// Whether anything had to be dropped — `false` means the file
    /// verified (or parsed) end to end.
    pub recovered: bool,
}

/// The byte length of the longest prefix of `text` that a CRC marker
/// verifies, plus the offset just past that marker line and whether it
/// was the whole-file trailer.
fn verified_prefix(text: &str) -> Option<(usize, usize, bool)> {
    let mut digest = Crc32::new();
    let mut offset = 0usize;
    let mut best: Option<(usize, usize, bool)> = None;
    for seg in text.split_inclusive('\n') {
        let t = seg.trim();
        let marker = t
            .strip_prefix("#! crc32_upto=")
            .map(|h| (h, false))
            .or_else(|| t.strip_prefix("#! crc32=").map(|h| (h, true)));
        if let Some((hex, is_trailer)) = marker {
            if u32::from_str_radix(hex.trim(), 16).ok() == Some(digest.value()) {
                best = Some((offset, offset + seg.len(), is_trailer));
            }
        }
        digest.update(seg.as_bytes());
        offset += seg.len();
    }
    best
}

fn load_checkpoint_text_lenient(text: &str) -> io::Result<CheckpointRecovery> {
    if declared_version(text)?.is_none() {
        // v1: no integrity metadata to verify; salvage what parses.
        let report = crate::persist::load_known_lenient(text.as_bytes())?;
        let recovered = report.skipped > 0;
        return Ok(CheckpointRecovery {
            checkpoint: Checkpoint {
                manifest: parse_manifest(text),
                known: report.loaded,
            },
            dropped_lines: report.skipped,
            recovered,
        });
    }
    let Some((trusted, after_marker, is_trailer)) = verified_prefix(text) else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "checkpoint has no CRC-verifiable prefix; refusing to trust any of it",
        ));
    };
    let prefix = &text[..trusted];
    let tail = &text[after_marker..];
    let dropped_lines = tail.lines().filter(|l| !l.trim().is_empty()).count();
    let recovered = !(is_trailer && dropped_lines == 0);
    // The verified prefix is bit-exact what the writer produced, so the
    // strict parser must accept it.
    let known = load_known(prefix.as_bytes())?;
    Ok(CheckpointRecovery {
        checkpoint: Checkpoint {
            manifest: parse_manifest(prefix),
            known,
        },
        dropped_lines,
        recovered,
    })
}

/// Reads a checkpoint written by [`save_checkpoint`], verifying v2
/// integrity metadata strictly: a v2 file whose CRC trailer is missing,
/// torn, or mismatched is rejected with `InvalidData` (use
/// [`load_checkpoint_lenient`] to salvage the verified prefix).
///
/// Plain v1 caches load too (empty manifest): the manifest lines are
/// `#` comments, so the two formats are one format.
pub fn load_checkpoint<R: BufRead>(mut r: R) -> io::Result<Checkpoint> {
    let mut text = String::new();
    r.read_to_string(&mut text)?;
    if declared_version(&text)?.is_none() {
        let known = load_known(text.as_bytes())?;
        return Ok(Checkpoint {
            manifest: parse_manifest(&text),
            known,
        });
    }
    let rec = load_checkpoint_text_lenient(&text)?;
    if rec.recovered {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "checkpoint failed CRC verification ({} trailing line(s) unverified); \
                 a lenient load can salvage the verified prefix",
                rec.dropped_lines
            ),
        ));
    }
    Ok(rec.checkpoint)
}

/// Lenient twin of [`load_checkpoint`]: recovers the longest
/// CRC-verified prefix of a v2 file (or the parseable lines of a v1
/// file) instead of failing on a torn or bit-flipped tail. Errors only
/// on I/O failure or when *nothing* verifies.
pub fn load_checkpoint_lenient<R: BufRead>(mut r: R) -> io::Result<CheckpointRecovery> {
    let mut text = String::new();
    r.read_to_string(&mut text)?;
    load_checkpoint_text_lenient(&text)
}

/// Atomically and durably writes a checkpoint file: the bytes land in a
/// sibling `<path>.tmp` (same directory, so the rename can never cross
/// devices), are fsynced to disk, renamed over `path`, and the parent
/// directory entry is fsynced — a crash between any two steps leaves
/// either the old complete file or the new complete file.
pub fn write_checkpoint_file(
    path: &Path,
    manifest: &[(String, String)],
    edges: impl IntoIterator<Item = (Pair, f64)>,
) -> io::Result<usize> {
    let mut bytes = Vec::new();
    let count = save_checkpoint(&mut bytes, manifest, edges)?;
    let tmp = PathBuf::from(format!("{}.tmp", path.display()));
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        // Data must be on disk *before* the rename publishes the name;
        // otherwise a crash can expose a complete-looking, empty file.
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    #[cfg(unix)]
    {
        // Persist the directory entry too, so the rename itself
        // survives a crash. Failure here is not fatal: the data is
        // durable and the old name at worst reappears.
        let dir = match path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(count)
}

/// Reads a checkpoint file written by [`write_checkpoint_file`],
/// verifying integrity strictly (see [`load_checkpoint`]).
pub fn read_checkpoint_file(path: &Path) -> io::Result<Checkpoint> {
    load_checkpoint(io::BufReader::new(fs::File::open(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::save_known;

    fn sample_edges() -> Vec<(Pair, f64)> {
        vec![(Pair::new(0, 1), 0.5), (Pair::new(2, 7), 1.0 / 3.0)]
    }

    fn sample_manifest() -> Vec<(String, String)> {
        vec![
            ("algo".into(), "knng".into()),
            ("n".into(), "200".into()),
            ("seed".into(), "42".into()),
        ]
    }

    #[test]
    fn roundtrips_manifest_and_edges() {
        let mut buf = Vec::new();
        let n = save_checkpoint(&mut buf, &sample_manifest(), sample_edges()).expect("write");
        assert_eq!(n, 2);
        let ck = load_checkpoint(&buf[..]).expect("read");
        assert_eq!(ck.manifest, sample_manifest());
        assert_eq!(ck.known, sample_edges());
        assert_eq!(ck.manifest_value("seed"), Some("42"));
        assert_eq!(ck.manifest_value("missing"), None);
    }

    #[test]
    fn checkpoints_are_plain_caches_to_load_known() {
        let mut buf = Vec::new();
        save_checkpoint(&mut buf, &sample_manifest(), sample_edges()).expect("write");
        let back = load_known(&buf[..]).expect("cache-compatible");
        assert_eq!(back, sample_edges());
    }

    #[test]
    fn plain_caches_load_with_empty_manifest() {
        let mut buf = Vec::new();
        save_known(&mut buf, sample_edges()).expect("write");
        let ck = load_checkpoint(&buf[..]).expect("read");
        assert!(ck.manifest.is_empty());
        assert_eq!(ck.known, sample_edges());
    }

    #[test]
    fn rejects_unserializable_manifest_entries() {
        for (k, v) in [("a=b", "x"), ("", "x"), ("k", "two\nlines"), (" pad", "x")] {
            let m = vec![(k.to_string(), v.to_string())];
            let err = save_checkpoint(Vec::new(), &m, sample_edges())
                .expect_err("bad manifest entry must be rejected");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        }
    }

    #[test]
    fn file_roundtrip_is_atomic_over_previous_content() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("prox-ckpt-test-{}.csv", std::process::id()));
        write_checkpoint_file(&path, &sample_manifest(), sample_edges()).expect("write");
        // Overwrite with a second snapshot; the temp file must be gone.
        write_checkpoint_file(&path, &sample_manifest(), sample_edges()).expect("rewrite");
        assert!(!PathBuf::from(format!("{}.tmp", path.display())).exists());
        let ck = read_checkpoint_file(&path).expect("read");
        assert_eq!(ck.known, sample_edges());
        fs::remove_file(&path).expect("cleanup");
    }

    /// Enough edges to cross several CRC block boundaries.
    fn many_edges(count: u32) -> Vec<(Pair, f64)> {
        (0..count)
            .map(|i| (Pair::new(i, i + 1), f64::from(i) / f64::from(count)))
            .collect()
    }

    #[test]
    fn v2_version_line_and_trailer_are_present() {
        let mut buf = Vec::new();
        save_checkpoint(&mut buf, &sample_manifest(), sample_edges()).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        assert!(text.starts_with("#! ckpt_version=2\n"));
        let last = text.lines().last().expect("non-empty");
        assert!(last.starts_with("#! crc32="), "trailer line, got {last:?}");
    }

    #[test]
    fn rolling_markers_appear_every_block() {
        let mut buf = Vec::new();
        save_checkpoint(&mut buf, &[], many_edges(200)).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        let markers = text
            .lines()
            .filter(|l| l.starts_with("#! crc32_upto="))
            .count();
        assert_eq!(markers, 200 / CRC_BLOCK_LINES, "200 edges, blocks of 64");
    }

    #[test]
    fn rejects_reserved_manifest_keys() {
        for k in RESERVED_KEYS {
            let m = vec![(k.to_string(), "1".to_string())];
            let err = save_checkpoint(Vec::new(), &m, sample_edges())
                .expect_err("reserved key must be rejected");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        }
    }

    #[test]
    fn parsed_manifest_excludes_reserved_keys() {
        let mut buf = Vec::new();
        save_checkpoint(&mut buf, &sample_manifest(), sample_edges()).expect("write");
        let ck = load_checkpoint(&buf[..]).expect("read");
        assert_eq!(ck.manifest, sample_manifest(), "no ckpt_version/crc32 leak");
    }

    #[test]
    fn strict_load_rejects_any_bit_flip() {
        let mut buf = Vec::new();
        save_checkpoint(&mut buf, &sample_manifest(), many_edges(100)).expect("write");
        // Sanity: the pristine file loads.
        assert!(load_checkpoint(&buf[..]).is_ok());
        // Flip one bit at a sample of positions across the whole file.
        for at in (0..buf.len()).step_by(97) {
            let mut flipped = buf.clone();
            flipped[at] ^= 0x10;
            assert!(
                load_checkpoint(&flipped[..]).is_err(),
                "bit flip at byte {at} went undetected"
            );
        }
    }

    #[test]
    fn lenient_load_recovers_prefix_after_tail_flip() {
        let mut buf = Vec::new();
        save_checkpoint(&mut buf, &sample_manifest(), many_edges(200)).expect("write");
        // Corrupt a byte in the last quarter of the file.
        let at = buf.len() - buf.len() / 8;
        buf[at] ^= 0x01;
        let rec = load_checkpoint_lenient(&buf[..]).expect("recoverable");
        assert!(rec.recovered);
        assert!(rec.dropped_lines > 0);
        // At least the blocks before the flip survived, and everything
        // recovered is bit-exact truth.
        assert!(rec.checkpoint.known.len() >= CRC_BLOCK_LINES);
        let truth = many_edges(200);
        assert_eq!(
            rec.checkpoint.known[..],
            truth[..rec.checkpoint.known.len()],
            "recovered prefix is exact"
        );
        assert_eq!(rec.checkpoint.manifest, sample_manifest());
    }

    #[test]
    fn lenient_load_recovers_torn_write() {
        let mut buf = Vec::new();
        save_checkpoint(&mut buf, &sample_manifest(), many_edges(200)).expect("write");
        // A torn write: the file simply stops mid-line.
        buf.truncate(buf.len() * 3 / 5);
        let rec = load_checkpoint_lenient(&buf[..]).expect("recoverable");
        assert!(rec.recovered);
        assert!(rec.checkpoint.known.len() >= CRC_BLOCK_LINES);
        let truth = many_edges(200);
        assert_eq!(
            rec.checkpoint.known[..],
            truth[..rec.checkpoint.known.len()]
        );
    }

    #[test]
    fn appended_batches_with_their_own_trailers_load_strictly() {
        // An append-only writer extends a checkpoint with data lines and a
        // fresh `#! crc32=` trailer over every earlier byte.
        let mut buf = Vec::new();
        save_checkpoint(&mut buf, &sample_manifest(), sample_edges()).expect("write");
        let appended: Vec<(Pair, f64)> = (10..20u32)
            .map(|i| (Pair::new(i, i + 1), f64::from(i) / 3.0))
            .collect();
        for batch in appended.chunks(4) {
            for &(p, d) in batch {
                writeln!(buf, "{},{},{:.17e}", p.lo(), p.hi(), d).expect("write");
            }
            writeln!(buf, "#! crc32={:08x}", crate::crc::crc32(&buf)).expect("write");
        }
        let trailers = std::str::from_utf8(&buf)
            .expect("utf8")
            .matches("#! crc32=");
        assert_eq!(trailers.count(), 4, "one trailer per batch");

        let mut all = sample_edges();
        all.extend_from_slice(&appended);
        let ck = load_checkpoint(&buf[..]).expect("last trailer at EOF verifies");
        assert_eq!(ck.manifest, sample_manifest());
        assert_eq!(ck.known, all);
        assert_eq!(load_known(&buf[..]).expect("still a plain cache"), all);

        // A torn last trailer leaves its batch unverified: strict loading
        // refuses, lenient loading stops at the previous trailer.
        buf.truncate(buf.len() - 3);
        assert!(load_checkpoint(&buf[..]).is_err());
        let rec = load_checkpoint_lenient(&buf[..]).expect("earlier trailer verifies");
        assert!(rec.recovered);
        assert_eq!(rec.checkpoint.known, all[..all.len() - 2]);
    }

    #[test]
    fn lenient_load_refuses_unverifiable_v2_file() {
        let mut buf = Vec::new();
        save_checkpoint(&mut buf, &[], sample_edges()).expect("write");
        // Corrupt the very first data-bearing region so no marker
        // (there is only the trailer for 2 edges) can verify.
        buf[20] ^= 0x10;
        let err = load_checkpoint_lenient(&buf[..]).expect_err("nothing verifies");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("no CRC-verifiable prefix"));
    }

    #[test]
    fn lenient_load_handles_v1_files() {
        // Clean v1 cache: loads fully, not marked recovered.
        let mut clean = Vec::new();
        save_known(&mut clean, sample_edges()).expect("write");
        let rec = load_checkpoint_lenient(&clean[..]).expect("v1 ok");
        assert!(!rec.recovered);
        assert_eq!(rec.checkpoint.known, sample_edges());
        // Damaged v1 cache: parseable lines survive, damage is counted.
        let torn = "#! algo=prim\n0,1,0.5\n2,3,garbage\n";
        let rec = load_checkpoint_lenient(torn.as_bytes()).expect("v1 salvage");
        assert!(rec.recovered);
        assert_eq!(rec.dropped_lines, 1);
        assert_eq!(rec.checkpoint.known, vec![(Pair::new(0, 1), 0.5)]);
        assert_eq!(rec.checkpoint.manifest_value("algo"), Some("prim"));
    }

    #[test]
    fn unsupported_version_is_an_error() {
        let text = "#! ckpt_version=3\n0,1,0.5\n";
        assert!(load_checkpoint(text.as_bytes()).is_err());
        assert!(load_checkpoint_lenient(text.as_bytes()).is_err());
    }

    #[test]
    fn full_verification_roundtrips_through_files() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("prox-ckpt-v2-{}.csv", std::process::id()));
        write_checkpoint_file(&path, &sample_manifest(), many_edges(100)).expect("write");
        let strict = read_checkpoint_file(&path).expect("verifies");
        let lenient =
            load_checkpoint_lenient(&fs::read(&path).expect("read")[..]).expect("verifies");
        assert!(!lenient.recovered);
        assert_eq!(lenient.dropped_lines, 0);
        assert_eq!(strict, lenient.checkpoint);
        assert_eq!(strict.known, many_edges(100));
        fs::remove_file(&path).expect("cleanup");
    }
}
