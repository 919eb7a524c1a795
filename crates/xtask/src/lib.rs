//! Workspace static analysis for the prox repo.
//!
//! Three layers, each building on the one below:
//!
//! 1. [`lexer`] — byte-level scanning: masks comments and literals so every
//!    later pass works on *code* text only, and tokenizes masked source.
//! 2. [`graph`] — a token-tree parser that extracts items (`fn` / `impl` /
//!    `mod` / `trait`, with `cfg(test)` and crate attribution) and
//!    best-effort name-resolved call edges into a whole-workspace
//!    [`graph::ItemGraph`].
//! 3. [`rules`] — the lint rules: L3, L6, L8 and L15 are lexical (per line
//!    of masked code), L9 and L12–L16 are graph rules over the item graph
//!    (the other numbers are clippy lints, see `docs/INVARIANTS.md`).
//!    [`analyze`] drives
//!    the graph construction and renders the JSON / DOT dumps and the
//!    choke-point report behind `cargo xtask analyze`.
//!
//! [`bench_gate`] sits alongside the analyses: the CI bench-smoke job's
//! latency-ratio gate over the committed `BENCH_schemes.json`.
//!
//! The crate is a library so the integration tests (and any future tooling)
//! can run the same analyses `cargo xtask` runs, against fixtures or against
//! the real workspace.

pub mod analyze;
pub mod bench_gate;
#[cfg(test)]
mod clippy_fixture;
pub mod graph;
pub mod lexer;
pub mod rules;

use std::path::{Path, PathBuf};

/// The workspace root, two levels up from this crate's manifest.
pub fn workspace_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .unwrap_or(manifest)
        .to_path_buf()
}

/// Recursively collects `.rs` files under `dir` (skipping `target/`).
pub fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Reads every workspace source file as `(workspace-relative path, text)`
/// pairs, sorted by path so all downstream analyses are order-stable.
pub fn load_workspace_sources(root: &Path) -> Vec<(String, String)> {
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files);
    collect_rs_files(&root.join("src"), &mut files);
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let Ok(text) = std::fs::read_to_string(&path) else {
            eprintln!("warning: unreadable file {}", path.display());
            continue;
        };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        out.push((rel, text));
    }
    out
}
