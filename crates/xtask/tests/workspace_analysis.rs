//! Pins the repo lints against the *real* workspace: the lexical rules
//! (L3, L6, L12, escape accounting) converge with zero violations and zero
//! stale escapes, and the clippy half of the rules (L1, L4, L5, L7, L9,
//! L10, L11, L13, L14) is configured where each rule's scope says, so a
//! config edit cannot narrow it.

use std::collections::BTreeSet;

use xtask::rules;
use xtask::{load_workspace_sources, workspace_root};

/// The workspace lint (lexical L3, L6 and L12, escape accounting) is clean
/// end to end.
#[test]
fn workspace_lint_is_clean() {
    let files = load_workspace_sources(&workspace_root());
    assert!(
        files.len() >= 50,
        "workspace snapshot looks truncated: {} files",
        files.len()
    );
    let lint = rules::lint_workspace(&files);
    let rendered: Vec<String> = lint.violations.iter().map(|v| v.render()).collect();
    assert!(rendered.is_empty(), "lint violations: {rendered:#?}");
    let stale: Vec<String> = lint.stale_escapes.iter().map(|v| v.render()).collect();
    assert!(stale.is_empty(), "stale lint escapes: {stale:#?}");
    assert!(lint.files_linted >= 50, "too few files linted");
}

// The clippy half of the rules: `cargo clippy -- -D warnings` checks the
// code; these tests pin the config to each rule's scope (docs/INVARIANTS.md).

const L1_L5: [&str; 4] = [
    "disallowed-methods prox_core::metric::Metric::distance",
    "disallowed-methods std::thread::spawn",
    "disallowed-methods std::thread::scope",
    "disallowed-types std::thread::Builder",
];
const L9: [&str; 5] = [
    "disallowed-methods prox_core::oracle::Oracle::call",
    "disallowed-methods prox_core::oracle::Oracle::call_pair",
    "disallowed-methods prox_core::oracle::Oracle::try_call",
    "disallowed-methods prox_core::oracle::Oracle::try_call_pair",
    "disallowed-methods prox_core::oracle::Oracle::try_call_replica",
];
const L13_L14: [&str; 3] = [
    "disallowed-methods prox_graph::dijkstra::Dijkstra::run",
    "disallowed-methods prox_core::weak::WeakOracle::probe",
    "disallowed-methods prox_core::weak::WeakOracle::error_at",
];
const L10_L11: [&str; 4] = [
    "disallowed-types std::collections::HashMap",
    "disallowed-types std::collections::HashSet",
    "disallowed-methods std::time::Instant::now",
    "disallowed-types std::time::SystemTime",
];

/// Every package dir with the clippy.toml clippy uses for it: its own,
/// else the root's (clippy takes the nearest file and never merges).
fn clippy_tomls() -> Vec<(String, String)> {
    let root = workspace_root();
    let mut dirs = vec![".".to_string()];
    for e in std::fs::read_dir(root.join("crates"))
        .expect("crates/")
        .flatten()
    {
        dirs.push(format!("crates/{}", e.file_name().to_string_lossy()));
    }
    assert!(dirs.len() >= 12, "package list looks truncated: {dirs:?}");
    dirs.into_iter()
        .map(|d| {
            let toml = std::fs::read_to_string(root.join(&d).join("clippy.toml"))
                .or_else(|_| std::fs::read_to_string(root.join("clippy.toml")))
                .expect("a clippy.toml applies to every package");
            (d, toml)
        })
        .collect()
}

/// The `"<list> <path>"` entries of a clippy.toml's `disallowed-*` lists.
fn disallowed(toml: &str) -> BTreeSet<String> {
    let (mut list, mut out) = ("", BTreeSet::new());
    for line in toml.lines() {
        if let Some((key, _)) = line.split_once(" = [") {
            list = key;
        }
        if let Some((_, rest)) = line.split_once("path = \"") {
            out.insert(format!(
                "{list} {}",
                &rest[..rest.find('"').expect("quoted")]
            ));
        }
    }
    out
}

/// L1, L5, L9, L13 and L14 cover every package, L10 and L11 all but
/// `crates/bench`: bench's file is the root lists minus L10/L11, and every
/// other package (`crates/algos` included) reads the root file. Audited
/// uses carry `#[expect]`s instead.
#[test]
fn clippy_config_pins_l1_l5_l9_l10_l11_l13_l14_scopes() {
    let tomls = clippy_tomls();
    let root_list = disallowed(&tomls.iter().find(|(d, _)| d == ".").expect("root").1);
    for (dir, toml) in &tomls {
        let mut want = root_list.clone();
        if dir == "crates/bench" {
            want.retain(|e| !L10_L11.contains(&e.as_str()));
        }
        assert_eq!(disallowed(toml), want, "{dir}");
    }
    let want_root = L1_L5
        .iter()
        .chain(&L9)
        .chain(&L10_L11)
        .chain(&L13_L14)
        .map(|e| e.to_string());
    assert_eq!(root_list, want_root.collect(), "root clippy.toml");
}

/// L4 and L7 are denied at every library crate root, which leaves bins,
/// benches, examples and integration tests exempt, and not at all in
/// `prox-bench` or `xtask`; clippy.toml exempts `#[cfg(test)]` code.
#[test]
fn clippy_config_pins_l4_l7_to_library_roots() {
    let lints = [
        "unwrap_used",
        "expect_used",
        "panic",
        "unreachable",
        "print_stdout",
        "print_stderr",
    ];
    for (dir, toml) in clippy_tomls() {
        let lib = std::fs::read_to_string(workspace_root().join(&dir).join("src/lib.rs"))
            .expect("every package has a library target");
        let exempt = dir == "crates/bench" || dir == "crates/xtask";
        for lint in lints {
            let denied = lib.lines().any(|l| {
                l.strip_prefix("#![deny(").is_some_and(|a| {
                    a.split([',', ' ', ')'])
                        .any(|t| t == format!("clippy::{lint}"))
                })
            });
            assert_eq!(denied, !exempt, "{dir}: clippy::{lint}");
        }
        for key in ["unwrap", "expect", "panic", "print"] {
            let line = format!("allow-{key}-in-tests = true");
            assert!(exempt || toml.contains(&line), "{dir}: {line}");
        }
    }
}
