//! `cargo xtask` — repo-specific checks that `rustc`/`clippy` cannot express.
//!
//! ```text
//! cargo xtask lint                      # enforce L3, L6, L9, L12
//!                                       # + stale-escape gate
//! cargo xtask lint --allow-unused-allows  # grace mode: stale escapes warn only
//! cargo xtask analyze                   # choke-point report on stdout
//! cargo xtask analyze --json [PATH] --dot [PATH]   # plus graph dumps
//! cargo xtask bench-gate [PATH]         # the six latency-ratio gates on the
//!                                       # bench JSON (default BENCH_schemes.json)
//! ```
//!
//! The rules and their rationale live in `docs/INVARIANTS.md`; the
//! implementations (with fixture tests) are in [`xtask::rules`], the item
//! graph in [`xtask::graph`].

use std::process::ExitCode;
use std::time::Instant;

use xtask::{analyze, bench_gate, load_workspace_sources, rules, workspace_root};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(args.iter().any(|a| a == "--allow-unused-allows")),
        Some("analyze") => run_analyze(&args[1..]),
        Some("bench-gate") => run_bench_gate(&args[1..]),
        _ => {
            eprintln!("usage: cargo xtask lint [--allow-unused-allows]");
            eprintln!("       cargo xtask analyze [--json [PATH]] [--dot [PATH]]");
            eprintln!("       cargo xtask bench-gate [PATH]");
            ExitCode::from(2)
        }
    }
}

#[expect(clippy::disallowed_methods, reason = "times its own pass")]
fn run_lint(allow_unused_allows: bool) -> ExitCode {
    let t0 = Instant::now();
    let files = load_workspace_sources(&workspace_root());
    let lint = rules::lint_workspace(&files);

    for v in &lint.violations {
        println!("{}\n", v.render());
    }
    let mut failures = lint.violations.len();
    for v in &lint.stale_escapes {
        if allow_unused_allows {
            println!(
                "warning[stale-allow]: {}\n  --> {}:{}\n",
                v.msg, v.file, v.line
            );
        } else {
            println!("{}\n", v.render());
            failures += 1;
        }
    }

    let ms = t0.elapsed().as_millis();
    if failures == 0 {
        println!(
            "xtask lint: {} files linted, {} items / {} edges in the graph, \
             no violations ({ms} ms)",
            lint.files_linted, lint.items, lint.edges
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "xtask lint: {failures} finding(s) across {} files linted ({ms} ms)",
            lint.files_linted
        );
        ExitCode::FAILURE
    }
}

fn run_bench_gate(args: &[String]) -> ExitCode {
    let path = args
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_schemes.json".to_string());
    let json = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match bench_gate::parse_rows(&json).and_then(|rows| bench_gate::check(&rows)) {
        Ok(verdict) => {
            println!("xtask bench-gate: OK — {verdict}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error[bench-gate]: {e} (in {path})");
            ExitCode::FAILURE
        }
    }
}

#[expect(clippy::disallowed_methods, reason = "times its own pass")]
fn run_analyze(args: &[String]) -> ExitCode {
    // `--json` / `--dot` take an optional path; bare flags use defaults.
    let path_for = |flag: &str, default: &str| -> Option<String> {
        let i = args.iter().position(|a| a == flag)?;
        match args.get(i + 1) {
            Some(next) if !next.starts_with("--") => Some(next.clone()),
            _ => Some(default.to_string()),
        }
    };
    let json = path_for("--json", "item-graph.json");
    let dot = path_for("--dot", "item-graph.dot");

    let t0 = Instant::now();
    let files = load_workspace_sources(&workspace_root());
    let analysis = analyze::analyze(&files);
    print!("{}", analysis.choke_report());

    for (path, payload) in [
        (&json, analysis.graph.to_json()),
        (&dot, analysis.graph.to_dot()),
    ] {
        let Some(path) = path else { continue };
        if let Err(e) = std::fs::write(path, payload) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    println!("xtask analyze: done in {} ms", t0.elapsed().as_millis());
    if analysis.exposure.stale_allow.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: stale L9_ALLOWLIST entries (see report)");
        ExitCode::FAILURE
    }
}
