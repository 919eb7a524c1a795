//! End-to-end `prox-cli` flag validation: malformed, zero, or NaN values
//! for the oracle knobs must be rejected with a specific message *and*
//! the usage hint — never silently fall through to a default parse.
//! Also exercises the audited-run and `--lenient-load` happy paths.
//! `--checkpoint` resume runs live in `checkpoint_resume.rs`.

use std::process::Command;

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

/// Every rejected flag must explain itself and then show the usage
/// block, so the user learns the expected shape without a second try.
fn assert_rejected(args: &[&str], expected_msg: &str) {
    let (ok, _, stderr) = run(args);
    assert!(!ok, "{args:?} must fail, stderr: {stderr}");
    assert!(
        stderr.contains(expected_msg),
        "{args:?}: stderr {stderr:?} missing {expected_msg:?}"
    );
    assert!(
        stderr.contains("usage: prox-cli"),
        "{args:?}: rejection must include the usage hint, got {stderr:?}"
    );
}

#[test]
fn faults_flag_rejects_zero_nan_and_garbage() {
    assert_rejected(
        &["prim", "--faults", "0"],
        "--faults rate must be a probability in (0, 1]",
    );
    assert_rejected(
        &["prim", "--faults", "NaN"],
        "--faults rate must be a probability in (0, 1]",
    );
    assert_rejected(
        &["prim", "--faults", "1.5"],
        "--faults rate must be a probability in (0, 1]",
    );
    assert_rejected(
        &["prim", "--faults", "0.5:x"],
        "--faults expects RATE[:SEED]",
    );
    assert_rejected(
        &["prim", "--faults", "lots"],
        "--faults expects RATE[:SEED]",
    );
}

#[test]
fn retry_and_budget_flags_reject_zero_and_garbage() {
    assert_rejected(&["prim", "--retry", "0"], "--retry 0 retries nothing");
    assert_rejected(&["prim", "--retry", "x"], "--retry expects N[:BASE_MS]");
    assert_rejected(&["prim", "--budget", "0"], "--budget 0 forbids");
    assert_rejected(
        &["prim", "--budget", "many"],
        "--budget expects a call count",
    );
}

#[test]
fn corrupt_flag_rejects_out_of_range_nan_and_garbage() {
    assert_rejected(
        &["prim", "--corrupt", "-0.1"],
        "--corrupt rate must be a probability in [0, 1]",
    );
    assert_rejected(
        &["prim", "--corrupt", "1.5"],
        "--corrupt rate must be a probability in [0, 1]",
    );
    assert_rejected(
        &["prim", "--corrupt", "NaN"],
        "--corrupt rate must be a probability in [0, 1]",
    );
    assert_rejected(
        &["prim", "--corrupt", "0.5:"],
        "--corrupt expects RATE[:SEED]",
    );
}

#[test]
fn vote_flag_rejects_zero_and_inverted_pools() {
    assert_rejected(&["prim", "--vote", "0"], "--vote needs N >= K >= 1");
    assert_rejected(&["prim", "--vote", "3:2"], "--vote needs N >= K >= 1");
    assert_rejected(&["prim", "--vote", "5:4"], "--vote needs N >= K >= 1");
    assert_rejected(&["prim", "--vote", "two"], "--vote expects K[:N]");
}

#[test]
fn weak_flag_rejects_out_of_range_nan_and_garbage() {
    assert_rejected(
        &["prim", "--weak", "-0.1"],
        "--weak rate must be a probability in [0, 1]",
    );
    assert_rejected(
        &["prim", "--weak", "1.5"],
        "--weak rate must be a probability in [0, 1]",
    );
    assert_rejected(
        &["prim", "--weak", "NaN"],
        "--weak rate must be a probability in [0, 1]",
    );
    assert_rejected(&["prim", "--weak", "0.1:x"], "--weak expects RATE[:SEED]");
    assert_rejected(&["prim", "--weak", "some"], "--weak expects RATE[:SEED]");
}

#[test]
fn checkpoint_flag_rejects_zero_cadence_garbage_and_a_retracting_audit() {
    assert_rejected(
        &["prim", "--checkpoint", "run.wal:0"],
        "--checkpoint DIR:0 appends nothing",
    );
    assert_rejected(
        &["prim", "--checkpoint", "run.wal:x"],
        "--checkpoint expects DIR[:EVERY]",
    );
    assert_rejected(
        &["prim", "--checkpoint", env!("CARGO_BIN_EXE_prox-cli")],
        "--checkpoint expects a directory path",
    );
    // Detection mode can retract a recorded value; the log cannot.
    for vote in [None, Some("1"), Some("1:3")] {
        let mut args = vec!["prim", "--checkpoint", "run.wal", "--corrupt", "0.05"];
        args.extend(vote.map(|v| ["--vote", v]).into_iter().flatten());
        assert_rejected(
            &args,
            "--checkpoint with --corrupt requires --vote K (K >= 2)",
        );
    }
}

#[test]
fn degrade_flag_requires_a_weak_tier() {
    assert_rejected(&["prim", "--degrade"], "--degrade requires --weak");
}

#[test]
fn weak_run_reports_tier_accounting_and_stays_exact() {
    let base = &["prim", "--dataset", "sf", "--n", "40", "--plug", "tri"];
    let (ok, clean_stdout, stderr) = run(base);
    assert!(ok, "clean run failed: {stderr}");
    let clean_mst = clean_stdout
        .lines()
        .find(|l| l.contains("MST weight"))
        .expect("clean MST line")
        .to_string();

    let mut weak = base.to_vec();
    weak.extend(["--weak", "0.1:7"]);
    let (ok, stdout, stderr) = run(&weak);
    assert!(ok, "weak run must succeed, stderr: {stderr}");
    assert!(
        stdout.contains(&clean_mst),
        "I10: weak-cascade output must match the clean run, got {stdout}"
    );
    assert!(
        stdout.contains("weak tier    :") && stdout.contains("resolutions"),
        "weak runs must print the tier accounting, got {stdout}"
    );
}

#[test]
fn audited_run_reports_corruption_accounting() {
    let (ok, stdout, stderr) = run(&[
        "prim",
        "--dataset",
        "sf",
        "--n",
        "40",
        "--plug",
        "tri-nb",
        "--corrupt",
        "0.05:20210620",
        "--vote",
        "3",
    ]);
    assert!(ok, "audited run must succeed, stderr: {stderr}");
    assert!(stdout.contains("MST weight"), "stdout: {stdout}");
    assert!(
        stdout.contains("audit        :") && stdout.contains("re-queries billed"),
        "audited runs must print the corruption accounting, got {stdout}"
    );
}

#[test]
fn single_run_commands_take_no_threads_flag() {
    // Plugged runs and serve rounds run on one thread, so only `repro`
    // accepts `--threads`.
    for cmd in [&["knng"][..], &["trace", "pam"], &["profile", "knng"]] {
        let mut args = cmd.to_vec();
        args.extend_from_slice(&["--threads", "2"]);
        assert_rejected(&args, "unknown flag \"--threads\"");
    }
    assert_rejected(
        &["serve", "--store", "ignored-store", "--threads", "2"],
        "unknown serve flag \"--threads\"",
    );
}

#[test]
fn serve_requires_a_store_directory() {
    assert_rejected(&["serve"], "serve requires --store DIR");
    // A plain file is not a store directory.
    let file = std::env::temp_dir().join(format!("prox-cli-storefile-{}", std::process::id()));
    std::fs::write(&file, "not a directory").expect("write file");
    let file_str = file.to_str().expect("utf8 path");
    assert_rejected(
        &["serve", "--store", file_str],
        "--store expects a directory path",
    );
    std::fs::remove_file(&file).ok();
}

#[test]
fn serve_flags_reject_zero_and_garbage() {
    let base = &["serve", "--store", "ignored-store"];
    fn with<'a>(base: &[&'a str], extra: &[&'a str]) -> Vec<&'a str> {
        let mut v = base.to_vec();
        v.extend_from_slice(extra);
        v
    }
    assert_rejected(
        &with(base, &["--sessions", "0"]),
        "--sessions expects a positive session count",
    );
    assert_rejected(
        &with(base, &["--sessions", "many"]),
        "--sessions expects a positive session count",
    );
    assert_rejected(
        &with(base, &["--admit", "lots"]),
        "--admit expects a call count",
    );
    assert_rejected(&with(base, &["--admit", "0"]), "--admit 0 admits nothing");
    assert_rejected(
        &with(base, &["--groups", "0"]),
        "--groups expects a positive group count",
    );
    assert_rejected(
        &with(base, &["--kill-after-commits", "0"]),
        "--kill-after-commits expects a positive commit count",
    );
    assert_rejected(
        &with(base, &["--weak", "1.5"]),
        "--weak rate must be a probability in [0, 1]",
    );
    assert_rejected(&with(base, &["--degrade"]), "--degrade requires --weak");
}

#[test]
fn serve_rejects_an_unreadable_or_malformed_client_script() {
    assert_rejected(
        &[
            "serve",
            "--store",
            "ignored-store",
            "--client-script",
            "/definitely/not/here.script",
        ],
        "--client-script /definitely/not/here.script",
    );

    // A readable script with a bad token is rejected with its line number.
    let dir = std::env::temp_dir().join(format!("prox-cli-badscript-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let script = dir.join("bad.script");
    std::fs::write(&script, "0-1\nbogus\n").expect("write script");
    let script_str = script.to_str().expect("utf8 path");
    assert_rejected(
        &[
            "serve",
            "--store",
            "ignored-store",
            "--client-script",
            script_str,
        ],
        "line 2",
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The "strong calls : N (...)" line of a serve summary.
fn strong_calls(stdout: &str) -> u64 {
    stdout
        .lines()
        .find(|l| l.starts_with("strong calls"))
        .and_then(|l| l.split(':').nth(1))
        .and_then(|t| t.trim().split(' ').next())
        .and_then(|t| t.parse().ok())
        .unwrap_or_else(|| panic!("no strong-calls line in {stdout:?}"))
}

#[test]
fn serve_reuses_the_shared_store_across_clients() {
    let dir = std::env::temp_dir().join(format!("prox-cli-serve-reuse-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.join("store");
    let store_str = store.to_str().expect("utf8 path");
    let base = &[
        "serve",
        "--store",
        store_str,
        "--dataset",
        "sf",
        "--n",
        "64",
        "--groups",
        "5",
        "--seed",
        "9",
    ];

    // Client A starts cold and pays the full bill.
    let (ok, a_out, stderr) = run(base);
    assert!(ok, "first serve failed: {stderr}");
    assert!(
        stderr.contains("starting cold"),
        "first run must start cold, got {stderr}"
    );
    let a = strong_calls(&a_out);
    assert!(a > 0, "cold client must pay strong calls, got {a_out}");

    // Client B replays the WAL and pays strictly less (here: nothing) —
    // the cross-query reuse the serving layer exists for.
    let (ok, b_out, stderr) = run(base);
    assert!(ok, "second serve failed: {stderr}");
    assert!(
        stderr.contains("recovered"),
        "second run must recover the WAL, got {stderr}"
    );
    let b = strong_calls(&b_out);
    assert!(
        b < a,
        "second client must pay strictly fewer strong calls ({b} vs {a})"
    );

    // A store recorded for one problem instance refuses another.
    let (ok, _, stderr) = run(&[
        "serve",
        "--store",
        store_str,
        "--dataset",
        "sf",
        "--n",
        "32",
        "--groups",
        "5",
        "--seed",
        "9",
    ]);
    assert!(!ok, "foreign manifest must be refused");
    assert!(stderr.contains("[store] open"), "stderr: {stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_trace_reports_admission_in_its_own_section() {
    let dir = std::env::temp_dir().join(format!("prox-cli-serve-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let store = dir.join("store");
    let trace = dir.join("serve.jsonl");
    let (ok, stdout, stderr) = run(&[
        "serve",
        "--store",
        store.to_str().expect("utf8 path"),
        "--dataset",
        "sf",
        "--n",
        "48",
        "--groups",
        "4",
        "--sessions",
        "2",
        "--trace",
        trace.to_str().expect("utf8 path"),
    ]);
    assert!(ok, "traced serve failed: {stderr}");
    assert!(stdout.contains("admission    : 4 admitted"), "{stdout}");

    // `prox-cli report` renders the serve events in their own section,
    // and its admitted count matches the runner's summary exactly.
    let (ok, report, stderr) = run(&["report", trace.to_str().expect("utf8 path")]);
    assert!(ok, "report failed: {stderr}");
    assert!(
        report.contains("serving / admission:"),
        "report must have a serving section, got {report}"
    );
    assert!(
        report.contains("4 groups admitted"),
        "report admitted count must match the runner summary, got {report}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lenient_load_salvages_a_damaged_cache() {
    let dir = std::env::temp_dir().join(format!("prox-cli-lenient-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let cache = dir.join("dists.csv");
    let cache_str = cache.to_str().expect("utf8 path");

    // Build a genuine cache first, then damage one line of it.
    let base = &[
        "prim",
        "--dataset",
        "sf",
        "--n",
        "30",
        "--plug",
        "tri-nb",
        "--cache",
        cache_str,
    ];
    let (ok, _, stderr) = run(base);
    assert!(ok, "cache-building run failed: {stderr}");
    let mut text = std::fs::read_to_string(&cache).expect("read cache");
    text.push_str("7,7,oops\n");
    std::fs::write(&cache, text).expect("rewrite cache");

    // Strict load refuses the file and points at the escape hatch.
    let (ok, _, stderr) = run(base);
    assert!(!ok, "strict load must refuse a damaged cache");
    assert!(
        stderr.contains("use --lenient-load to salvage"),
        "stderr: {stderr}"
    );

    // Lenient load drops the damaged line, keeps the rest, and the run
    // completes.
    let mut lenient = base.to_vec();
    lenient.push("--lenient-load");
    let (ok, stdout, stderr) = run(&lenient);
    assert!(ok, "lenient run failed: {stderr}");
    assert!(stdout.contains("MST weight"), "stdout: {stdout}");
    assert!(
        stderr.contains("1 line(s) dropped"),
        "lenient load must report the dropped line, got {stderr}"
    );

    std::fs::remove_dir_all(&dir).ok();
}
