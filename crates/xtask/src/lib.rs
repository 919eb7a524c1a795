//! Workspace static analysis for the prox repo: the lint rules clippy
//! cannot express, and the bench gate.
//!
//! * [`lexer`] — byte-level scanning: masks comments and literals so every
//!   rule works on *code* text only, and finds `#[cfg(test)]` ranges.
//! * [`rules`] — the lexical rules, one file at a time: L3 and L6 per line
//!   of masked code, L12 over a file's `fn` declarations and their
//!   `impl`/`trait` targets, plus the `lint: allow(..)` escapes and the
//!   stale-escape gate. The other rule numbers are clippy lints or are
//!   held by types and visibility; see `docs/INVARIANTS.md`.
//! * [`bench_gate`] — the CI bench-smoke job's latency-ratio gate over the
//!   committed `BENCH_schemes.json`.
//!
//! The crate is a library so the integration tests (and any future tooling)
//! can run the same analyses `cargo xtask` runs, against fixtures or against
//! the real workspace.

pub mod bench_gate;
#[cfg(test)]
mod clippy_fixture;
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
