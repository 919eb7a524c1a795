//! `cargo xtask` — repo-specific checks that `rustc`/`clippy` cannot express.
//!
//! ```text
//! cargo xtask lint                      # enforce L3, L6, L12
//!                                       # + stale-escape gate
//! cargo xtask lint --allow-unused-allows  # grace mode: stale escapes warn only
//! cargo xtask bench-gate [PATH]         # the six latency-ratio gates on the
//!                                       # bench JSON (default BENCH_schemes.json)
//! ```
//!
//! The rules and their rationale live in `docs/INVARIANTS.md`; the
//! implementations (with fixture tests) are in [`xtask::rules`].

use std::process::ExitCode;
use std::time::Instant;

use xtask::{bench_gate, load_workspace_sources, rules, workspace_root};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(args.iter().any(|a| a == "--allow-unused-allows")),
        Some("bench-gate") => run_bench_gate(&args[1..]),
        _ => {
            eprintln!("usage: cargo xtask lint [--allow-unused-allows]");
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
            "xtask lint: {} files linted, no violations ({ms} ms)",
            lint.files_linted
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
