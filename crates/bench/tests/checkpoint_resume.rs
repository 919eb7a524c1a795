//! Invariant I7 at the CLI: `prox-cli --checkpoint DIR` keeps a
//! write-ahead log of every resolved distance, and a rerun on the same
//! DIR resumes from it. A budget-killed run plus its resume pays exactly
//! the clean run's calls and prints the clean run's result; a torn tail
//! segment costs exactly the pairs it dropped; and after a clean run the
//! log holds the run's whole certified set, bit for bit.

use std::path::{Path, PathBuf};
use std::process::Command;

use prox_core::{load_known, Pair};
use prox_serve::wal::{segment_path, WalConfig, WriteAheadLog};

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_prox-cli"))
        .args(args)
        .output()
        .expect("spawn prox-cli");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prox-cli-ckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// `(bootstrap, algorithm)` from the `oracle calls : T (bootstrap B,
/// algorithm A)` line.
fn calls(stdout: &str) -> (u64, u64) {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("oracle calls"))
        .unwrap_or_else(|| panic!("no oracle-calls line in {stdout}"));
    let num = |key: &str| -> u64 {
        let at = line.find(key).expect(key) + key.len();
        line[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .expect("count")
    };
    (num("bootstrap "), num("algorithm "))
}

/// The log in `dir`, recovered the way a rerun recovers it, as sorted
/// `(pair key, value bits)`.
fn logged(dir: &Path, n: usize) -> Vec<(u64, u64)> {
    let n = n.to_string();
    let manifest = [("dataset", "sf"), ("n", n.as_str()), ("seed", "42")]
        .map(|(k, v)| (k.to_string(), v.to_string()));
    let (_, known, _) =
        WriteAheadLog::recover(dir, &manifest, WalConfig::default()).expect("recover");
    bits(&known)
}

fn bits(known: &[(Pair, f64)]) -> Vec<(u64, u64)> {
    let mut b: Vec<_> = known.iter().map(|&(p, d)| (p.key(), d.to_bits())).collect();
    b.sort_unstable();
    b
}

fn newest_segment(dir: &Path) -> PathBuf {
    (0..)
        .map(|i| segment_path(dir, i))
        .take_while(|p| p.is_file())
        .last()
        .expect("at least one segment")
}

#[test]
fn budget_killed_run_resumes_on_the_same_dir_at_the_clean_bill() {
    let dir = tmpdir("kill");
    let wal = dir.join("run.wal");
    let wal = wal.to_str().expect("utf8 path");
    let base = ["prim", "--dataset", "sf", "--n", "60", "--plug", "tri-nb"];

    let (ok, clean, stderr) = run(&base);
    assert!(ok, "clean run failed: {stderr}");
    let (clean_boot, clean_algo) = calls(&clean);
    assert_eq!(clean_boot, 0, "tri-nb has no bootstrap");
    let budget = clean_algo / 2;

    let mut killed = base.to_vec();
    let budget_arg = budget.to_string();
    killed.extend(["--budget", &budget_arg, "--checkpoint", wal]);
    let (ok, _, stderr) = run(&killed);
    assert!(!ok, "the budget must kill the run");
    assert!(
        stderr.contains(&format!("rerun with `--checkpoint {wal}`")),
        "stderr: {stderr}"
    );
    assert_eq!(
        logged(Path::new(wal), 60).len() as u64,
        budget,
        "every paid pair is logged"
    );

    let mut resumed = base.to_vec();
    resumed.extend(["--checkpoint", wal]);
    let (ok, out, stderr) = run(&resumed);
    assert!(ok, "resume failed: {stderr}");
    assert_eq!(out.lines().next(), clean.lines().next(), "same result line");
    assert_eq!(
        budget + calls(&out).1,
        clean_algo,
        "killed + resumed algorithm calls = clean calls"
    );

    // The log is bound to its instance: another n is refused by name,
    // with both values printed plain.
    let (ok, _, stderr) = run(&["prim", "--dataset", "sf", "--n", "61", "--checkpoint", wal]);
    assert!(!ok, "a log of another instance must be refused");
    assert!(
        stderr.contains("manifest mismatch for n: expected 61, segment has 60"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("Some("), "stderr: {stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_tail_cut_mid_batch_re_pays_exactly_the_dropped_pairs() {
    let dir = tmpdir("torn");
    let wal = dir.join("run.wal");
    let wal_str = wal.to_str().expect("utf8 path");
    let every = format!("{wal_str}:16");
    let base = ["prim", "--dataset", "sf", "--n", "60", "--plug", "tri-nb"];
    let mut with_log = base.to_vec();
    with_log.extend(["--checkpoint", &every]);

    let (ok, clean, stderr) = run(&with_log);
    assert!(ok, "logged run failed: {stderr}");
    let whole = logged(&wal, 60);
    assert_eq!(whole.len() as u64, calls(&clean).1);

    // Cut the newest segment inside its last appended batch: past the
    // last trailer but one, short of the end.
    let tail = newest_segment(&wal);
    let text = std::fs::read_to_string(&tail).expect("read tail");
    let trailers: Vec<usize> = text
        .match_indices("#! crc32=")
        .map(|(at, _)| at + text[at..].find('\n').expect("newline") + 1)
        .collect();
    let from = match trailers.len() {
        0 | 1 => 0,
        k => trailers[k - 2],
    };
    std::fs::write(&tail, &text[..(from + text.len()) / 2]).expect("tear");
    let kept = logged(&wal, 60);
    let dropped = whole.len() - kept.len();
    assert!(dropped > 0, "the cut must drop pairs");
    assert!(kept.iter().all(|e| whole.binary_search(e).is_ok()));

    let (ok, out, stderr) = run(&with_log);
    assert!(ok, "rerun failed: {stderr}");
    assert!(
        stderr.contains("salvaged the torn tail"),
        "stderr: {stderr}"
    );
    assert_eq!(out.lines().next(), clean.lines().next(), "same result line");
    assert_eq!(
        calls(&out).1,
        dropped as u64,
        "re-pays exactly the dropped pairs"
    );
    assert_eq!(logged(&wal, 60), whole, "the rerun heals the log");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_clean_run_logs_its_whole_certified_set() {
    let dir = tmpdir("export");
    let wal = dir.join("run.wal");
    let cache = dir.join("dists.csv");
    let (wal_str, cache_str) = (
        wal.to_str().expect("utf8 path"),
        cache.to_str().expect("utf8 path"),
    );
    // Tri with landmarks: the bootstrap's pairs reach the log at wrap.
    let args = [
        "prim",
        "--dataset",
        "sf",
        "--n",
        "60",
        "--plug",
        "tri",
        "--checkpoint",
        wal_str,
        "--cache",
        cache_str,
    ];
    let (ok, out, stderr) = run(&args);
    assert!(ok, "run failed: {stderr}");
    let (boot, algo) = calls(&out);
    assert!(boot > 0);
    let exported = load_known(std::io::BufReader::new(
        std::fs::File::open(&cache).expect("cache written"),
    ))
    .expect("cache parses");
    let exported = bits(&exported);
    assert_eq!(exported.len() as u64, boot + algo);
    assert_eq!(
        logged(&wal, 60),
        exported,
        "log = export_known, bit for bit"
    );

    // A vote of K >= 2 never retracts, so an audited run may log too.
    let audited = dir.join("audited.wal");
    let (ok, out, stderr) = run(&[
        "prim",
        "--dataset",
        "sf",
        "--n",
        "60",
        "--plug",
        "tri-nb",
        "--corrupt",
        "0.05",
        "--vote",
        "3",
        "--checkpoint",
        audited.to_str().expect("utf8 path"),
    ]);
    assert!(ok, "audited run failed: {stderr}");
    assert_eq!(out.lines().next(), run(&args[..7]).1.lines().next());

    std::fs::remove_dir_all(&dir).ok();
}

/// The CLI's segments hold sixteen EVERY-entry appends each, so most
/// appends take the active segment's append path instead of publishing a
/// whole new segment.
#[test]
fn a_clean_run_seals_a_segment_per_sixteen_appends() {
    let dir = tmpdir("segments");
    let wal = dir.join("run.wal");
    let wal_str = wal.to_str().expect("utf8 path");
    let (ok, _, stderr) = run(&[
        "prim",
        "--dataset",
        "sf",
        "--n",
        "300",
        "--plug",
        "tri",
        "--checkpoint",
        wal_str,
    ]);
    assert!(ok, "run failed: {stderr}");
    let logged = logged(&wal, 300).len();
    let segments = (0..)
        .take_while(|&i| segment_path(&wal, i).is_file())
        .count();
    assert!(logged > 16 * 256, "the run must fill a segment: {logged}");
    assert!(
        segments <= logged.div_ceil(16 * 256),
        "{segments} segments for {logged} logged entries"
    );

    std::fs::remove_dir_all(&dir).ok();
}
