//! Pins the L9 acceptance property against the *real* workspace: the
//! expensive `Oracle::call` / `call_pair` sinks are reachable from the
//! public `crates/algos` APIs — so the property is not vacuous — but only
//! through `DistanceResolver` choke nodes (or the audited allowlist), and
//! the full lint converges with zero violations and zero stale escapes.
//! It also pins where the clippy half of the rules (L1, L2, L4, L5, L7,
//! L10, L11) is configured, so a config edit cannot narrow their scope.

use std::collections::BTreeSet;

use xtask::graph::{ItemGraph, Vis};
use xtask::rules::{self, L9_ALLOWLIST};
use xtask::{load_workspace_sources, workspace_root};

fn real_graph() -> (Vec<(String, String)>, ItemGraph) {
    let files = load_workspace_sources(&workspace_root());
    assert!(
        files.len() >= 50,
        "workspace snapshot looks truncated: {} files",
        files.len()
    );
    let g = ItemGraph::build(&files);
    (files, g)
}

/// The raw graph (no choke filtering) connects the public algorithm entry
/// points to the oracle sinks: the L9 result below is about *how* they
/// reach the oracle, not an artifact of a disconnected graph.
#[test]
fn algos_public_apis_reach_the_oracle_in_the_raw_graph() {
    let (_, g) = real_graph();
    let sinks: BTreeSet<usize> = g
        .items
        .iter()
        .filter(|it| {
            it.krate == "core"
                && it.container.as_deref() == Some("Oracle")
                && matches!(it.name.as_str(), "call" | "call_pair")
        })
        .map(|it| it.id)
        .collect();
    assert!(!sinks.is_empty(), "Oracle::call / call_pair not found");

    for api in ["prim_mst", "kruskal_mst"] {
        let item = g
            .items
            .iter()
            .find(|it| it.krate == "algos" && it.name == api && !it.is_test)
            .unwrap_or_else(|| panic!("{api} missing from the item graph"));
        assert_eq!(item.vis, Vis::Pub, "{api} should be public");
        assert!(
            g.reaches(item.id, &sinks),
            "{api} no longer reaches the oracle — resolution regressed?"
        );
    }
}

/// The L9 property itself: no public algos/bounds item can reach a sink
/// around the `DistanceResolver` choke points, and every allowlist entry
/// names a live item.
#[test]
fn oracle_is_reachable_only_through_resolver_chokes() {
    let (_, g) = real_graph();
    let exposure = rules::oracle_exposure(&g, L9_ALLOWLIST);
    assert_eq!(exposure.sinks.len(), 5, "expected the 5 Oracle sink fns");
    assert!(
        exposure.chokes.len() >= 10,
        "suspiciously few DistanceResolver methods: {}",
        exposure.chokes.len()
    );
    assert_eq!(
        exposure.stale_allow,
        Vec::<String>::new(),
        "stale L9 allowlist entries"
    );
    let leaks: Vec<&String> = exposure
        .exposed
        .iter()
        .filter(|(id, _)| {
            let it = &g.items[*id];
            it.vis == Vis::Pub && matches!(it.krate.as_str(), "algos" | "bounds")
        })
        .map(|(_, chain)| chain)
        .collect();
    assert!(leaks.is_empty(), "exposed public APIs: {leaks:#?}");
}

/// The workspace lint (lexical L3/L6, L8 and L15 vocabulary, graph L9 and
/// L12–L16, escape accounting) is clean end to end.
#[test]
fn workspace_lint_is_clean() {
    let (files, _) = real_graph();
    let lint = rules::lint_workspace(&files);
    let rendered: Vec<String> = lint.violations.iter().map(|v| v.render()).collect();
    assert!(rendered.is_empty(), "lint violations: {rendered:#?}");
    let stale: Vec<String> = lint.stale_escapes.iter().map(|v| v.render()).collect();
    assert!(stale.is_empty(), "stale lint escapes: {stale:#?}");
    assert!(lint.files_linted >= 50, "too few files linted");
    assert!(lint.items >= 500, "item graph too small: {}", lint.items);
    assert!(lint.edges >= 1000, "edge set too small: {}", lint.edges);
}

/// The JSON dump round-trips the load-bearing facts a consumer would key
/// on: the sink and choke nodes are present by name.
#[test]
fn json_dump_names_sinks_and_chokes() {
    let (_, g) = real_graph();
    let json = g.to_json();
    assert!(json.contains("\"container\": \"Oracle\""));
    assert!(json.contains("\"trait\": \"DistanceResolver\""));
    assert!(json.contains("\"name\": \"prim_mst\""));
    assert!(json.starts_with('{') && json.ends_with("}\n"));
}

// The clippy half of the rules: `cargo clippy -- -D warnings` checks the
// code; these tests pin the config to each rule's scope (docs/INVARIANTS.md).

const L1_L5: [&str; 4] = [
    "disallowed-methods prox_core::metric::Metric::distance",
    "disallowed-methods std::thread::spawn",
    "disallowed-methods std::thread::scope",
    "disallowed-types std::thread::Builder",
];
const L2: [&str; 2] = [
    "disallowed-methods prox_core::oracle::Oracle::call",
    "disallowed-methods prox_core::oracle::Oracle::call_pair",
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

/// L1 and L5 cover every package, L2 only `crates/algos`, L10 and L11 all
/// but `crates/bench`: algos' file is the root lists plus L2, bench's the
/// root lists minus L10/L11. Audited uses carry `#[expect]`s instead.
#[test]
fn clippy_config_pins_l1_l2_l5_l10_l11_scopes() {
    let tomls = clippy_tomls();
    let root_list = disallowed(&tomls.iter().find(|(d, _)| d == ".").expect("root").1);
    for (dir, toml) in &tomls {
        let mut want = root_list.clone();
        match dir.as_str() {
            "crates/algos" => want.extend(L2.map(String::from)),
            "crates/bench" => want.retain(|e| !L10_L11.contains(&e.as_str())),
            _ => {}
        }
        assert_eq!(disallowed(toml), want, "{dir}");
    }
    let want_root = L1_L5.iter().chain(&L10_L11).map(|e| e.to_string());
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
