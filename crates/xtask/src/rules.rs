//! The lint rules enforcing the oracle-call and determinism disciplines
//! that clippy cannot express. L1, L2, L4, L5, L7, L10 and L11 are
//! type-resolved clippy lints configured in the `clippy.toml` files (see
//! `docs/INVARIANTS.md`); their numbers are not reused here. Their tests
//! at the end of this file run clippy itself over fixture files.
//!
//! Rules come in two flavours:
//!
//! * **Lexical** (L3, L6, L8, L15) — per line of the masked code
//!   produced by [`crate::lexer::scan`] (L8 and L15 are cross-file
//!   vocabulary checks).
//! * **Graph** (L9, L12, L13, L14, L16) — over the whole-workspace
//!   [`crate::graph::ItemGraph`], so they can see call *chains* that no
//!   single line reveals.
//!
//! Every rule skips `#[cfg(test)]` blocks (test code is exempt) and honours
//! an escape hatch: a comment containing `lint: allow(L3)` (etc.) on the
//! flagged line or the line directly above suppresses that rule there.
//! Escapes are for *audited* sites — each one should say why it is sound —
//! and an escape that suppresses nothing is itself reported (rule
//! `stale-allow`, see [`lint_workspace`]) so dead annotations cannot
//! accumulate. L9 additionally carries [`L9_ALLOWLIST`], the audited list
//! of items that may sit on an oracle path outside the resolver choke
//! point, and L13 carries [`L13_ALLOWLIST`], the audited list of
//! `crates/bounds` items that may invoke the unbounded `Dijkstra::run`,
//! and L16 carries [`L16_ALLOWLIST`], the audited `crates/serve` funnels
//! that may touch the shared store's mutators outside the commit path.
//!
//! | rule | scope | it forbids |
//! |------|-------|------------|
//! | L3 | `try_*` bodies in `crates/bounds` + `crates/lp` | raw float comparisons with no `DECISION_EPS`/eps margin |
//! | L6 | library crates | discarding a fallible oracle result via `.ok()` / `let _ =` (an `OracleError` must propagate or be handled, never vanish) |
//! | L8 | `crates/obs` | emitting a `TraceEvent` name the report summarizer never mentions (an event class `prox-cli report` would silently drop) — see [`lint_event_coverage`] |
//! | L9 | public APIs of `crates/algos` + `crates/bounds` (graph) | reaching `Oracle::call`/`call_pair` (or their `try_` forms) through any call chain that does not pass a `DistanceResolver` method — see [`oracle_exposure`] |
//! | L12 | library crates (graph) | an infallible `X` that re-implements its fallible twin `try_X` instead of delegating to it (the copies drift apart) |
//! | L13 | `crates/bounds` (graph) | reaching the unbounded `Dijkstra::run` from bound-query paths — the query cascade must use the bounded twin `run_bidirectional_bounded`; the exact tier funnels through the audited [`L13_ALLOWLIST`] — see [`l13_violations`] |
//! | L14 | `crates/algos` (graph) | reaching `WeakOracle::probe`/`error_at` through any call chain that does not pass a `CascadeResolver` method — weak answers are untrusted until the cascade's quorum + sandwich audit, so algorithms must never consume them raw — see [`l14_violations`] |
//! | L15 | library crates | a metrics or span name literal (`inc`/`observe`/`counter`/`histogram*`, `SpanGuard::enter`/`PhaseGuard::enter`/`span`) missing from the central `prox_obs::names` registry — a typo'd counter silently splits one series into two — see [`lint_name_registry`] |
//! | L16 | whole workspace (graph) | reaching the shared bound store's mutators (`StoreInner` methods, `WriteAheadLog::append`) through any call chain that does not pass the WAL-logged `SharedStore::commit` — a side-door write breaks the crash-recovery byte-identity of I12; recovery/fencing funnels live in the audited [`L16_ALLOWLIST`] — see [`l16_violations`] |

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::{Item, ItemGraph, Vis};
use crate::lexer::{line_starts, match_brace, scan, test_line_ranges};

/// One finding, addressable as `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id (`"L3"`, `"L6"`, `"L8"`, `"L9"`, `"L12"`–`"L16"`), or
    /// `"stale-allow"` for a dead escape.
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// One-line explanation of the rule that fired.
    pub msg: String,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

impl Violation {
    /// `error[L3]: … \n  --> file:line` rendering for the console.
    pub fn render(&self) -> String {
        format!(
            "error[{}]: {}\n  --> {}:{}\n      {}",
            self.rule, self.msg, self.file, self.line, self.excerpt
        )
    }
}

/// An escape-hatch annotation: `lint: allow(<rule>)` found in a comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Escape {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line of the comment. It suppresses matching violations on
    /// this line and the next.
    pub line: usize,
    /// The rule name inside the parentheses, e.g. `"L3"`.
    pub rule: String,
    /// The source line carrying the escape, trimmed.
    pub excerpt: String,
}

/// Collects every `lint: allow(...)` escape in a file's comments,
/// excluding `#[cfg(test)]` ranges (where no rule fires, so any escape is
/// inert by construction).
pub fn collect_escapes(rel: &str, src: &str) -> Vec<Escape> {
    let scanned = scan(src);
    let test_ranges = test_line_ranges(&scanned.masked);
    let src_lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();
    for (idx, comment) in scanned.comments.lines().enumerate() {
        let line = idx + 1;
        if test_ranges.iter().any(|&(lo, hi)| lo <= line && line <= hi) {
            continue;
        }
        let mut rest = comment;
        while let Some(p) = rest.find("lint: allow(") {
            let tail = &rest[p + "lint: allow(".len()..];
            let Some(close) = tail.find(')') else { break };
            out.push(Escape {
                file: rel.to_string(),
                line,
                rule: tail[..close].to_string(),
                excerpt: src_lines.get(line - 1).unwrap_or(&"").trim().to_string(),
            });
            rest = &tail[close + 1..];
        }
    }
    out
}

/// Filters `raw` findings through `escapes`. Returns the surviving
/// violations plus the indices (into `escapes`) that suppressed something.
fn apply_escapes(raw: Vec<Violation>, escapes: &[Escape]) -> (Vec<Violation>, BTreeSet<usize>) {
    let mut used = BTreeSet::new();
    let kept = raw
        .into_iter()
        .filter(|v| {
            let mut suppressed = false;
            for (k, e) in escapes.iter().enumerate() {
                if e.file == v.file
                    && e.rule == v.rule
                    && (e.line == v.line || e.line + 1 == v.line)
                {
                    used.insert(k);
                    suppressed = true;
                }
            }
            !suppressed
        })
        .collect();
    (kept, used)
}

/// Lints one file (lexical rules only). `rel` is the workspace-relative
/// path (forward slashes); it decides which rules apply. Returns findings
/// sorted by line, with `lint: allow(...)` escapes already honoured.
pub fn lint_source(rel: &str, src: &str) -> Vec<Violation> {
    let escapes = collect_escapes(rel, src);
    apply_escapes(lexical_raw(rel, src), &escapes).0
}

/// The lexical rules (L3, L6) on one file, *before* escape filtering.
fn lexical_raw(rel: &str, src: &str) -> Vec<Violation> {
    let [l3, l6] = rules_for(rel);
    if !l3 && !l6 {
        return Vec::new();
    }
    let scanned = scan(src);
    let masked_lines: Vec<&str> = scanned.masked.lines().collect();
    let src_lines: Vec<&str> = src.lines().collect();
    let test_ranges = test_line_ranges(&scanned.masked);
    let in_test = |line: usize| test_ranges.iter().any(|&(lo, hi)| lo <= line && line <= hi);

    let mut out = Vec::new();
    let mut push = |rule: &'static str, line: usize, msg: String| {
        out.push(Violation {
            rule,
            file: rel.to_string(),
            line,
            msg,
            excerpt: src_lines.get(line - 1).unwrap_or(&"").trim().to_string(),
        });
    };

    let try_body_lines = if l3 {
        try_fn_body_lines(&scanned.masked)
    } else {
        Vec::new()
    };

    for (idx, code) in masked_lines.iter().enumerate() {
        let line = idx + 1;
        if in_test(line) {
            continue;
        }
        if l3
            && try_body_lines
                .iter()
                .any(|&(lo, hi)| lo <= line && line <= hi)
            && has_raw_comparison(code)
            && !mentions_epsilon(code)
        {
            push(
                "L3",
                line,
                "raw float comparison inside a `try_*` decision body; compare \
                 through a `DECISION_EPS`-aware margin (or annotate the audited \
                 exact case with `lint: allow(L3)`)"
                    .to_string(),
            );
        }
        if l6 && discards_fallible_result(code) {
            push(
                "L6",
                line,
                "fallible oracle result discarded via `.ok()`/`let _ =`; an \
                 `OracleError` must propagate with `?` or be matched — \
                 swallowing it desynchronises budgets and fault accounting"
                    .to_string(),
            );
        }
    }
    out
}

/// L8 — the trace-audit lint. Every event name `TraceEvent::name()` can
/// emit (the `ev` field of the JSONL encoding) must appear *quoted* in
/// the report summarizer, or `prox-cli report` silently drops that event
/// class — exactly the failure mode the corruption audit exists to
/// prevent. Cross-file by nature, so it runs once per workspace, not per
/// file: pass the sources of `crates/obs/src/event.rs` and
/// `crates/obs/src/report.rs`.
pub fn lint_event_coverage(event_src: &str, report_src: &str) -> Vec<Violation> {
    let src_lines: Vec<&str> = event_src.lines().collect();
    let mut out = Vec::new();
    for (line, name) in trace_event_names(event_src) {
        let quoted = format!("\"{name}\"");
        if !report_src.contains(&quoted) {
            out.push(Violation {
                rule: "L8",
                file: "crates/obs/src/event.rs".to_string(),
                line,
                msg: format!(
                    "trace event {name:?} is emitted but never mentioned in \
                     crates/obs/src/report.rs; `prox-cli report` would silently \
                     drop the whole event class"
                ),
                excerpt: src_lines.get(line - 1).unwrap_or(&"").trim().to_string(),
            });
        }
    }
    out
}

/// Call-site prefixes whose string-literal arguments are metrics-registry
/// names (counters and histograms, read *and* write sides).
const L15_METRIC_SITES: &[&str] = &[
    ".inc(",
    ".observe(",
    ".counter(",
    ".histogram(",
    ".histogram_count(",
    ".histogram_quantile(",
];

/// Call-site prefixes whose first string-literal argument is a span
/// (phase) name.
const L15_SPAN_SITES: &[&str] = &["SpanGuard::enter(", "PhaseGuard::enter("];

/// L15 — the observability-vocabulary lint. Every string literal passed to
/// a metrics call (`inc`/`observe`/`counter`/`histogram*`) or a span entry
/// (`SpanGuard::enter`/`PhaseGuard::enter`) anywhere in
/// the workspace must appear in the central registry
/// `crates/obs/src/names.rs` (`METRIC_NAMES` / `SPAN_NAMES`). A typo'd
/// counter name silently splits one logical series into two and a rogue
/// span name escapes every dashboard's vocabulary — L15 makes both a lint
/// failure instead. Dynamic names (no literal at the call site) are out of
/// scope. Cross-file like L8: runs once per workspace.
pub fn lint_name_registry(files: &[(String, String)]) -> Vec<Violation> {
    let names_src = files
        .iter()
        .find(|(r, _)| r == "crates/obs/src/names.rs")
        .map(|(_, s)| s.as_str());
    let Some(names_src) = names_src else {
        return Vec::new();
    };
    let metric_names = registry_table(names_src, "METRIC_NAMES");
    let span_names = registry_table(names_src, "SPAN_NAMES");
    let mut out = Vec::new();
    for (rel, src) in files {
        if !linted_path(rel) {
            continue;
        }
        l15_file(rel, src, &metric_names, &span_names, &mut out);
    }
    out
}

/// The string literals of one `&[&str]` table in `names.rs`, located by its
/// identifier (the registry file is ours, so a plain quote scan suffices).
fn registry_table(src: &str, table: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let Some(start) = src.find(table) else {
        return out;
    };
    let rest = &src[start..];
    let Some(end) = rest.find("];") else {
        return out;
    };
    let body = &rest.as_bytes()[..end];
    let mut i = 0usize;
    while i < body.len() {
        if body[i] == b'"' {
            if let Some(j) = rest[..end][i + 1..].find('"') {
                out.insert(rest[i + 1..i + 1 + j].to_string());
                i = i + 1 + j + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Scans one file for L15 violations (see [`lint_name_registry`]).
fn l15_file(
    rel: &str,
    src: &str,
    metric_names: &BTreeSet<String>,
    span_names: &BTreeSet<String>,
    out: &mut Vec<Violation>,
) {
    let scanned = scan(src);
    let masked = scanned.masked.as_str();
    let mb = masked.as_bytes();
    let test_ranges = test_line_ranges(masked);
    let starts = line_starts(masked);
    let src_lines: Vec<&str> = src.lines().collect();
    let in_test = |line: usize| test_ranges.iter().any(|&(lo, hi)| lo <= line && line <= hi);

    // One pass per site kind: for each pattern occurrence in *code*, walk
    // the paren-balanced call extent (paren counting is sound on the
    // masked shadow — literal contents are blanked) and check the string
    // literals inside it against the registry. Span sites check only the
    // first literal (later args may be closures carrying unrelated
    // strings); metric sites check every literal (names can sit in match
    // arms, as in the cascade's weak-outcome counter).
    for (sites, names, registry, what) in [
        (L15_METRIC_SITES, metric_names, "METRIC_NAMES", "metric"),
        (L15_SPAN_SITES, span_names, "SPAN_NAMES", "span"),
    ] {
        for pat in sites {
            let mut from = 0usize;
            while let Some(off) = masked[from..].find(pat) {
                let open = from + off + pat.len() - 1;
                from = open + 1;
                let line = crate::lexer::line_of(&starts, open);
                if in_test(line) {
                    continue;
                }
                // Call extent: from the opening paren to its match.
                let mut depth = 0usize;
                let mut close = None;
                for (k, &c) in mb.iter().enumerate().skip(open) {
                    match c {
                        b'(' => depth += 1,
                        b')' => {
                            depth -= 1;
                            if depth == 0 {
                                close = Some(k);
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                let Some(close) = close else { continue };
                // Literals inside the extent: delimiters survive masking,
                // contents read from the raw source.
                let mut i = open;
                while i < close {
                    if mb[i] == b'"' {
                        let Some(j) = masked[i + 1..close].find('"') else {
                            break;
                        };
                        let name = &src[i + 1..i + 1 + j];
                        let lit_line = crate::lexer::line_of(&starts, i);
                        if !names.contains(name) {
                            out.push(Violation {
                                rule: "L15",
                                file: rel.to_string(),
                                line: lit_line,
                                msg: format!(
                                    "{what} name {name:?} is not in the central \
                                     registry (crates/obs/src/names.rs {registry}); \
                                     add it there or fix the typo"
                                ),
                                excerpt: src_lines
                                    .get(lit_line - 1)
                                    .unwrap_or(&"")
                                    .trim()
                                    .to_string(),
                            });
                        }
                        i = i + 1 + j + 1;
                        if what == "span" {
                            break;
                        }
                        continue;
                    }
                    i += 1;
                }
            }
        }
    }
}

/// The `(line, name)` pairs from `TraceEvent::name()`'s match arms:
/// lines of the shape `TraceEvent::Variant { .. } => "name",`. Variant
/// paths in other enums' `name()` impls (outcomes, verdicts, actions)
/// are keys *inside* an event, not event classes, and are not collected.
fn trace_event_names(event_src: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (idx, line) in event_src.lines().enumerate() {
        let t = line.trim();
        if !t.starts_with("TraceEvent::") {
            continue;
        }
        let Some(arrow) = t.find("=> \"") else {
            continue;
        };
        let rest = &t[arrow + 4..];
        let Some(close) = rest.find('"') else {
            continue;
        };
        out.push((idx + 1, rest[..close].to_string()));
    }
    out
}

/// True when `rel` is a lintable source path at all (library/tool sources;
/// not tests, benches, or `xtask` itself). Shared by the lexical and the
/// graph rules.
pub fn linted_path(rel: &str) -> bool {
    rel.ends_with(".rs")
        && (rel.starts_with("crates/") || rel.starts_with("src/"))
        && rel.contains("/src/")
        && !rel.starts_with("crates/xtask/")
}

/// Which of `[L3, L6]` apply to this path.
fn rules_for(rel: &str) -> [bool; 2] {
    // Only non-test library/tool sources are linted at all.
    if !linted_path(rel) {
        return [false; 2];
    }
    let in_crate = |c: &str| rel.starts_with(&format!("crates/{c}/"));
    let l3 = in_crate("bounds") || in_crate("lp");
    // L6: library crates only. `prox-bench` is a harness (bins + benches)
    // and may deliberately drop errors (e.g. best-effort checkpoint
    // writes); library code never may.
    let l6 = !in_crate("bench") && !rel.contains("/src/bin/");
    [l3, l6]
}

/// Producer calls whose `Result` carries an `OracleError`.
const FALLIBLE_PRODUCERS: [&str; 4] = [".try_call(", ".try_call_pair(", "_fallible(", ".try_run("];

/// True when a line both produces a fallible oracle result and visibly
/// throws it away (`.ok()`, `let _ =`, or `.unwrap_or*` defaulting).
fn discards_fallible_result(code: &str) -> bool {
    if !FALLIBLE_PRODUCERS.iter().any(|p| code.contains(p)) {
        return false;
    }
    let discards_binding =
        code.trim_start().starts_with("let _ =") || code.trim_start().starts_with("let _: ");
    discards_binding || code.contains(".ok()") || code.contains(".unwrap_or")
}

/// 1-based inclusive line ranges of `fn try_*` bodies in masked source.
fn try_fn_body_lines(masked: &str) -> Vec<(usize, usize)> {
    let starts = line_starts(masked);
    let bytes = masked.as_bytes();
    let mut ranges = Vec::new();
    let mut from = 0usize;
    while let Some(off) = masked[from..].find("fn try_") {
        let at = from + off;
        from = at + "fn try_".len();
        // A signature cannot contain `{`, so the body starts at the first
        // brace after the `fn` keyword; `;` first means a trait method decl.
        let mut j = from;
        let mut open = None;
        while j < bytes.len() {
            match bytes[j] {
                b'{' => {
                    open = Some(j);
                    break;
                }
                b';' => break,
                _ => j += 1,
            }
        }
        let Some(open) = open else { continue };
        if let Some(close) = match_brace(bytes, open) {
            let lo = crate::lexer::line_of(&starts, open);
            let hi = crate::lexer::line_of(&starts, close);
            ranges.push((lo, hi));
            from = close + 1;
        }
    }
    ranges
}

/// Detects a spaced `<`, `<=`, `>`, or `>=` comparison operator, excluding
/// shifts (`<<`/`>>`) and arrows (`->`/`=>`). Relies on `rustfmt` spacing:
/// binary operators are space-separated, generics never are.
fn has_raw_comparison(code: &str) -> bool {
    let b = code.as_bytes();
    for i in 1..b.len() {
        let c = b[i];
        if c != b'<' && c != b'>' {
            continue;
        }
        if b[i - 1] != b' ' {
            continue; // generics, shifts, arrows: no leading space
        }
        let next = b.get(i + 1).copied();
        match next {
            Some(b' ') => return true,                                // `a < b`
            Some(b'=') if b.get(i + 2) == Some(&b' ') => return true, // `a <= b`
            _ => {}
        }
    }
    false
}

/// True when the line already carries an epsilon-aware margin.
fn mentions_epsilon(code: &str) -> bool {
    ["DECISION_EPS", "EPS", "eps", "epsilon", "margin"]
        .iter()
        .any(|t| code.contains(t))
}

// --------------------------------------------------------------------------
// Graph rules: L9 (oracle reachability) and L12 (fallible-twin drift).
// --------------------------------------------------------------------------

/// The audited L9 allowlist: items that may sit on an `Oracle::call*` path
/// without being `DistanceResolver` methods. Every entry needs a reason.
///
/// * `bounds::bootstrap::try_select_maxmin_pivots` — pivot bootstrap; it
///   *creates* the bound tables the resolver later consults, so by
///   definition it runs before any resolver exists. Its oracle spend is
///   counted and budgeted like any other (I1 accounting is in `Oracle`
///   itself), and everything above it (`select_maxmin_pivots`,
///   `laesa_bootstrap`, `Tlaesa::try_build`, …) funnels through this one
///   audited fn.
/// * `bounds::tlaesa::Tlaesa::try_build` — the TLAESA tree constructor;
///   like the pivot bootstrap it pre-pays distances to *build* the bound
///   structure the resolver will consult, so it runs before any resolver
///   can exist. Its calls go through `try_call_pair` and are budgeted and
///   fault-checked like every other oracle call.
///
/// The corruption audit (`BoundResolver::voted_value` /
/// `resolve_audited`) also queries the oracle directly — deliberately, a
/// vote must not trust cached bounds — but needs no entry: both fns are
/// private and only reachable through the `DistanceResolver` methods, so
/// they never surface as public exposure.
pub const L9_ALLOWLIST: &[&str] = &[
    "bounds::bootstrap::try_select_maxmin_pivots",
    "bounds::tlaesa::Tlaesa::try_build",
];

/// The audited L13 allowlist: `crates/bounds` items that may invoke the
/// **unbounded** `Dijkstra::run` (the full single-source sweep). Everything
/// else in the crate's query paths must use the bounded twin
/// (`run_bidirectional_bounded`) so the cascade's early exits cannot
/// silently regress into full sweeps. Every entry needs a reason; the one
/// audited funnel is the exact tier.
///
/// * `bounds::splub::Splub::ensure_tree` — the exact tier. SPLUB's certified
///   bounds *are* full shortest-path trees; this fn is the single funnel that
///   builds (or incrementally repairs) them, and its output is what the
///   cascade's decisive answers are checked against. By design it is the one
///   place a full sweep is allowed to originate.
pub const L13_ALLOWLIST: &[&str] = &["bounds::splub::Splub::ensure_tree"];

/// The L9 analysis result: where the expensive calls live, where the choke
/// points are, and which items can reach a sink *around* them.
pub struct OracleExposure {
    /// `Oracle::call` / `call_pair` / `try_call*` item ids.
    pub sinks: Vec<usize>,
    /// `DistanceResolver` methods (trait decl + every impl).
    pub chokes: Vec<usize>,
    /// Allowlisted item ids that actually exist in the graph.
    pub allowed: Vec<usize>,
    /// Allowlist entries matching no item — stale, must be pruned.
    pub stale_allow: Vec<String>,
    /// Every non-test, non-choke, non-allowlisted item that can reach a
    /// sink through a chain with no choke/allowlisted intermediary, with
    /// the offending chain rendered as `a -> b -> sink`.
    pub exposed: Vec<(usize, String)>,
}

fn is_oracle_sink(it: &Item) -> bool {
    it.krate == "core"
        && it.container.as_deref() == Some("Oracle")
        && matches!(
            it.name.as_str(),
            "call" | "call_pair" | "try_call" | "try_call_pair" | "try_call_replica"
        )
}

fn is_choke(it: &Item) -> bool {
    it.trait_of.as_deref() == Some("DistanceResolver")
        || it.container.as_deref() == Some("DistanceResolver")
}

/// Computes the L9 exposure set: a reverse BFS from the oracle sinks that
/// does **not** continue through choke or allowlisted nodes, so a caller is
/// "exposed" exactly when some call chain reaches the oracle with no
/// resolver in between.
pub fn oracle_exposure(g: &ItemGraph, allowlist: &[&str]) -> OracleExposure {
    let n = g.items.len();
    let paths: Vec<String> = g.items.iter().map(Item::path).collect();
    let sink: Vec<bool> = g.items.iter().map(is_oracle_sink).collect();
    let choke: Vec<bool> = g.items.iter().map(is_choke).collect();
    let allowed: Vec<bool> = paths
        .iter()
        .map(|p| allowlist.contains(&p.as_str()))
        .collect();
    let stale_allow: Vec<String> = allowlist
        .iter()
        .filter(|e| !paths.iter().any(|p| p == *e))
        .map(|e| e.to_string())
        .collect();

    let mut visited = vec![false; n];
    let mut next: Vec<Option<usize>> = vec![None; n];
    let mut stack: Vec<usize> = (0..n).filter(|&v| sink[v] && !g.items[v].is_test).collect();
    for &s in &stack {
        visited[s] = true;
    }
    while let Some(v) = stack.pop() {
        // A sink propagates to its callers; any other node propagates only
        // if it is not itself a choke point or allowlisted.
        if !sink[v] && (choke[v] || allowed[v]) {
            continue;
        }
        for &e in &g.inc[v] {
            let u = g.edges[e].from;
            if !visited[u] && !g.items[u].is_test {
                visited[u] = true;
                next[u] = Some(v);
                stack.push(u);
            }
        }
    }

    let chain = |mut v: usize| {
        let mut s = paths[v].clone();
        while let Some(nx) = next[v] {
            s.push_str(" -> ");
            s.push_str(&paths[nx]);
            v = nx;
        }
        s
    };
    OracleExposure {
        sinks: (0..n).filter(|&v| sink[v] && !g.items[v].is_test).collect(),
        chokes: (0..n)
            .filter(|&v| choke[v] && !g.items[v].is_test)
            .collect(),
        allowed: (0..n)
            .filter(|&v| allowed[v] && !g.items[v].is_test)
            .collect(),
        stale_allow,
        exposed: (0..n)
            .filter(|&v| visited[v] && !sink[v] && !choke[v] && !allowed[v])
            .map(|v| (v, chain(v)))
            .collect(),
    }
}

/// L9 — public APIs of `crates/algos`/`crates/bounds` must not be exposed.
fn l9_violations(g: &ItemGraph, allowlist: &[&str]) -> Vec<Violation> {
    let exposure = oracle_exposure(g, allowlist);
    let mut out = Vec::new();
    for (v, chain) in &exposure.exposed {
        let it = &g.items[*v];
        if it.vis != Vis::Pub || !matches!(it.krate.as_str(), "algos" | "bounds") {
            continue;
        }
        out.push(Violation {
            rule: "L9",
            file: it.file.clone(),
            line: it.line,
            msg: format!(
                "public `{}` reaches the oracle without passing a \
                 `DistanceResolver` method: {chain}; route the call through \
                 the resolver or add an audited `L9_ALLOWLIST` entry",
                it.path()
            ),
            excerpt: it.path(),
        });
    }
    for e in &exposure.stale_allow {
        out.push(Violation {
            rule: "L9",
            file: "crates/xtask/src/rules.rs".to_string(),
            line: 1,
            msg: format!(
                "stale `L9_ALLOWLIST` entry `{e}` matches no workspace item; \
                 remove it or fix the path"
            ),
            excerpt: e.clone(),
        });
    }
    out
}

/// L12 — for every same-scope pair (`X`, `try_X`), `X` must delegate to
/// `try_X`: either a direct call edge, or a chain through another twin pair
/// (`X -> Y` with `try_X -> try_Y` and `Y` delegating) as in
/// `kruskal_mst -> kruskal_mst_with -> try_kruskal_mst_with`.
fn l12_violations(g: &ItemGraph) -> Vec<Violation> {
    // Same-scope twin index over non-test items: scope key -> item id.
    let key = |it: &Item, name: &str| {
        format!(
            "{}|{}|{}|{}",
            it.krate,
            it.module.join("::"),
            it.container.as_deref().unwrap_or(""),
            name
        )
    };
    let mut by_key: BTreeMap<String, usize> = BTreeMap::new();
    for it in &g.items {
        if !it.is_test {
            by_key.entry(key(it, &it.name)).or_insert(it.id);
        }
    }
    // twin_of[x] = the `try_x` item in x's scope, when both exist.
    let mut twin_of: BTreeMap<usize, usize> = BTreeMap::new();
    for it in &g.items {
        if it.is_test || it.name.starts_with("try_") {
            continue;
        }
        if let Some(&t) = by_key.get(&key(it, &format!("try_{}", it.name))) {
            twin_of.insert(it.id, t);
        }
    }

    fn delegates(
        g: &ItemGraph,
        x: usize,
        t: usize,
        twin_of: &BTreeMap<usize, usize>,
        memo: &mut BTreeMap<(usize, usize), bool>,
    ) -> bool {
        if let Some(&r) = memo.get(&(x, t)) {
            return r;
        }
        memo.insert((x, t), false); // cycle guard
        let mut r = g.out[x].iter().any(|&e| g.edges[e].to == t);
        if !r {
            for &ex in &g.out[x] {
                let y = g.edges[ex].to;
                let Some(&ty) = twin_of.get(&y) else { continue };
                if g.out[t].iter().any(|&et| g.edges[et].to == ty)
                    && delegates(g, y, ty, twin_of, memo)
                {
                    r = true;
                    break;
                }
            }
        }
        memo.insert((x, t), r);
        r
    }

    let mut memo = BTreeMap::new();
    let mut out = Vec::new();
    for (&x, &t) in &twin_of {
        let it = &g.items[x];
        if !linted_path(&it.file)
            || it.krate == "bench"
            || it.file.contains("/src/bin/")
            || delegates(g, x, t, &twin_of, &mut memo)
        {
            continue;
        }
        out.push(Violation {
            rule: "L12",
            file: it.file.clone(),
            line: it.line,
            msg: format!(
                "`{}` has a fallible twin `try_{}` in the same scope but does \
                 not delegate to it; wrap the `try_` form (e.g. via \
                 `expect_ok`) so the two copies cannot drift",
                it.path(),
                it.name
            ),
            excerpt: it.path(),
        });
    }
    out
}

/// L13 — `crates/bounds` query paths must not reach the **unbounded**
/// `Dijkstra::run`. A reverse BFS from that sink (mirroring
/// [`oracle_exposure`]) flags every non-test `crates/bounds` item that can
/// reach it through a chain with no allowlisted intermediary. The bounded
/// twin (`run_bidirectional_bounded`) is not a sink: the cascade is free
/// to use it anywhere. The exact tier's audited full-run funnels
/// live in [`L13_ALLOWLIST`]; propagation stops there, so callers *of* an
/// allowlisted funnel (e.g. `Splub::bounds`) are clean.
pub fn l13_violations(g: &ItemGraph, allowlist: &[&str]) -> Vec<Violation> {
    let n = g.items.len();
    let paths: Vec<String> = g.items.iter().map(Item::path).collect();
    let sink: Vec<bool> = g
        .items
        .iter()
        .map(|it| {
            it.krate == "graph" && it.container.as_deref() == Some("Dijkstra") && it.name == "run"
        })
        .collect();
    let allowed: Vec<bool> = paths
        .iter()
        .map(|p| allowlist.contains(&p.as_str()))
        .collect();

    let mut visited = vec![false; n];
    let mut next: Vec<Option<usize>> = vec![None; n];
    let mut stack: Vec<usize> = (0..n).filter(|&v| sink[v] && !g.items[v].is_test).collect();
    for &s in &stack {
        visited[s] = true;
    }
    while let Some(v) = stack.pop() {
        // The sink propagates to its callers; any other node propagates only
        // if it is not itself an audited full-run funnel.
        if !sink[v] && allowed[v] {
            continue;
        }
        for &e in &g.inc[v] {
            let u = g.edges[e].from;
            if !visited[u] && !g.items[u].is_test {
                visited[u] = true;
                next[u] = Some(v);
                stack.push(u);
            }
        }
    }

    let chain = |mut v: usize| {
        let mut s = paths[v].clone();
        while let Some(nx) = next[v] {
            s.push_str(" -> ");
            s.push_str(&paths[nx]);
            v = nx;
        }
        s
    };
    let mut out = Vec::new();
    for v in 0..n {
        if !visited[v] || sink[v] || allowed[v] || g.items[v].krate != "bounds" {
            continue;
        }
        let it = &g.items[v];
        out.push(Violation {
            rule: "L13",
            file: it.file.clone(),
            line: it.line,
            msg: format!(
                "`{}` reaches the unbounded `Dijkstra::run` from a \
                 `crates/bounds` query path: {}; use the bounded twin \
                 (`run_bidirectional_bounded`) or add an audited \
                 `L13_ALLOWLIST` entry",
                it.path(),
                chain(v)
            ),
            excerpt: it.path(),
        });
    }
    for e in allowlist.iter().filter(|e| !paths.iter().any(|p| p == *e)) {
        out.push(Violation {
            rule: "L13",
            file: "crates/xtask/src/rules.rs".to_string(),
            line: 1,
            msg: format!(
                "stale `L13_ALLOWLIST` entry `{e}` matches no workspace item; \
                 remove it or fix the path"
            ),
            excerpt: e.to_string(),
        });
    }
    out
}

/// L14 — `crates/algos` must not consume the weak oracle raw. A weak
/// answer is untrusted until the cascade's first-to-k quorum and certified
/// bound-sandwich audit have vetted it; the only sanctioned route is
/// therefore a `CascadeResolver` method. A reverse BFS from the weak
/// sinks (`WeakOracle::probe`/`error_at`, mirroring [`l13_violations`])
/// flags every non-test `crates/algos` item that can reach one through a
/// chain with no `CascadeResolver` intermediary.
pub fn l14_violations(g: &ItemGraph) -> Vec<Violation> {
    let n = g.items.len();
    let paths: Vec<String> = g.items.iter().map(Item::path).collect();
    let sink: Vec<bool> = g
        .items
        .iter()
        .map(|it| {
            it.krate == "core"
                && it.container.as_deref() == Some("WeakOracle")
                && matches!(it.name.as_str(), "probe" | "error_at")
        })
        .collect();
    let choke: Vec<bool> = g
        .items
        .iter()
        .map(|it| it.container.as_deref() == Some("CascadeResolver"))
        .collect();

    let mut visited = vec![false; n];
    let mut next: Vec<Option<usize>> = vec![None; n];
    let mut stack: Vec<usize> = (0..n).filter(|&v| sink[v] && !g.items[v].is_test).collect();
    for &s in &stack {
        visited[s] = true;
    }
    while let Some(v) = stack.pop() {
        // The sinks propagate to their callers; any other node propagates
        // only if it is not itself a cascade method (the audit chokepoint).
        if !sink[v] && choke[v] {
            continue;
        }
        for &e in &g.inc[v] {
            let u = g.edges[e].from;
            if !visited[u] && !g.items[u].is_test {
                visited[u] = true;
                next[u] = Some(v);
                stack.push(u);
            }
        }
    }

    let chain = |mut v: usize| {
        let mut s = paths[v].clone();
        while let Some(nx) = next[v] {
            s.push_str(" -> ");
            s.push_str(&paths[nx]);
            v = nx;
        }
        s
    };
    let mut out = Vec::new();
    for v in 0..n {
        if !visited[v] || sink[v] || choke[v] || g.items[v].krate != "algos" {
            continue;
        }
        let it = &g.items[v];
        out.push(Violation {
            rule: "L14",
            file: it.file.clone(),
            line: it.line,
            msg: format!(
                "`{}` reaches the weak oracle without passing a \
                 `CascadeResolver` method: {}; weak answers are untrusted \
                 until the cascade's quorum + sandwich audit — route the \
                 probe through `CascadeResolver`",
                it.path(),
                chain(v)
            ),
            excerpt: it.path(),
        });
    }
    out
}

/// The audited L16 allowlist: `crates/serve` funnels that may reach the
/// shared store's mutators without passing `SharedStore::commit`.
///
/// * `SharedStore::open` — recovery replay: it builds the store's
///   immutable runs from WAL segments it just CRC-verified; nothing new is
///   logged, so the durable and visible states cannot diverge.
/// * `SharedStore::advance_epoch` — the quarantine fence: it mutates only
///   the epoch counter, never the certified map or the WAL.
pub const L16_ALLOWLIST: &[&str] = &[
    "serve::store::SharedStore::open",
    "serve::store::SharedStore::advance_epoch",
];

/// L16 — the shared bound store is fed **only** through the WAL-logged
/// commit API. The crash-safety argument (I12) hinges on every visible
/// mutation being durably logged first; a side door that inserts into the
/// store's map (or appends to its WAL) without going through
/// `SharedStore::commit` silently breaks recovery byte-identity. A reverse
/// BFS from the mutator sinks (`StoreInner`'s methods and
/// `WriteAheadLog::append`, mirroring [`l13_violations`]) flags every
/// non-test item — in *any* crate — that can reach one through a chain
/// that passes neither `SharedStore::commit` nor an audited
/// [`L16_ALLOWLIST`] funnel.
pub fn l16_violations(g: &ItemGraph, allowlist: &[&str]) -> Vec<Violation> {
    let n = g.items.len();
    let paths: Vec<String> = g.items.iter().map(Item::path).collect();
    let sink: Vec<bool> = g
        .items
        .iter()
        .map(|it| {
            it.krate == "serve"
                && (it.container.as_deref() == Some("StoreInner")
                    || (it.container.as_deref() == Some("WriteAheadLog") && it.name == "append"))
        })
        .collect();
    let choke: Vec<bool> = g
        .items
        .iter()
        .map(|it| {
            it.krate == "serve"
                && it.container.as_deref() == Some("SharedStore")
                && it.name == "commit"
        })
        .collect();
    let allowed: Vec<bool> = paths
        .iter()
        .map(|p| allowlist.contains(&p.as_str()))
        .collect();

    let mut visited = vec![false; n];
    let mut next: Vec<Option<usize>> = vec![None; n];
    let mut stack: Vec<usize> = (0..n).filter(|&v| sink[v] && !g.items[v].is_test).collect();
    for &s in &stack {
        visited[s] = true;
    }
    while let Some(v) = stack.pop() {
        // Sinks propagate to their callers; any other node propagates only
        // if it is neither the commit chokepoint nor an audited funnel.
        if !sink[v] && (choke[v] || allowed[v]) {
            continue;
        }
        for &e in &g.inc[v] {
            let u = g.edges[e].from;
            if !visited[u] && !g.items[u].is_test {
                visited[u] = true;
                next[u] = Some(v);
                stack.push(u);
            }
        }
    }

    let chain = |mut v: usize| {
        let mut s = paths[v].clone();
        while let Some(nx) = next[v] {
            s.push_str(" -> ");
            s.push_str(&paths[nx]);
            v = nx;
        }
        s
    };
    let mut out = Vec::new();
    for v in 0..n {
        if !visited[v] || sink[v] || choke[v] || allowed[v] {
            continue;
        }
        let it = &g.items[v];
        out.push(Violation {
            rule: "L16",
            file: it.file.clone(),
            line: it.line,
            msg: format!(
                "`{}` mutates the shared bound store without passing the \
                 WAL-logged `SharedStore::commit`: {}; route the write \
                 through `commit` or add an audited `L16_ALLOWLIST` entry",
                it.path(),
                chain(v)
            ),
            excerpt: it.path(),
        });
    }
    for e in allowlist.iter().filter(|e| !paths.iter().any(|p| p == *e)) {
        out.push(Violation {
            rule: "L16",
            file: "crates/xtask/src/rules.rs".to_string(),
            line: 1,
            msg: format!(
                "stale `L16_ALLOWLIST` entry `{e}` matches no workspace item; \
                 remove it or fix the path"
            ),
            excerpt: e.to_string(),
        });
    }
    out
}

/// The graph rules (L9 + L12 + L13 + L14 + L16), *before* escape filtering.
pub fn lint_graph(
    g: &ItemGraph,
    l9_allowlist: &[&str],
    l13_allowlist: &[&str],
    l16_allowlist: &[&str],
) -> Vec<Violation> {
    let mut out = l9_violations(g, l9_allowlist);
    out.extend(l12_violations(g));
    out.extend(l13_violations(g, l13_allowlist));
    out.extend(l14_violations(g));
    out.extend(l16_violations(g, l16_allowlist));
    out
}

// --------------------------------------------------------------------------
// Whole-workspace driver.
// --------------------------------------------------------------------------

/// The result of linting a whole workspace snapshot.
pub struct WorkspaceLint {
    /// Rule violations surviving escape filtering, in file order.
    pub violations: Vec<Violation>,
    /// `lint: allow(...)` escapes that suppressed nothing (rule
    /// `stale-allow`) — gated by `--allow-unused-allows` in the CLI.
    pub stale_escapes: Vec<Violation>,
    /// How many source files were linted.
    pub files_linted: usize,
    /// Item-graph size, for the summary line.
    pub items: usize,
    pub edges: usize,
}

/// Lints a workspace snapshot (`(workspace-relative path, source)` pairs):
/// lexical rules per file, L8 across `crates/obs`, L15 across the whole
/// workspace, and the graph rules over the item graph, with escape
/// filtering and stale-escape detection.
pub fn lint_workspace(files: &[(String, String)]) -> WorkspaceLint {
    lint_workspace_with(files, L9_ALLOWLIST, L13_ALLOWLIST, L16_ALLOWLIST)
}

/// [`lint_workspace`] with explicit L9/L13/L16 allowlists (tests use
/// fixtures).
pub fn lint_workspace_with(
    files: &[(String, String)],
    l9_allowlist: &[&str],
    l13_allowlist: &[&str],
    l16_allowlist: &[&str],
) -> WorkspaceLint {
    let mut raw = Vec::new();
    let mut escapes = Vec::new();
    let mut files_linted = 0usize;
    for (rel, src) in files {
        if linted_path(rel) {
            files_linted += 1;
            raw.extend(lexical_raw(rel, src));
            escapes.extend(collect_escapes(rel, src));
        }
    }
    let find = |p: &str| files.iter().find(|(r, _)| r == p).map(|(_, s)| s.as_str());
    if let (Some(ev), Some(rep)) = (
        find("crates/obs/src/event.rs"),
        find("crates/obs/src/report.rs"),
    ) {
        raw.extend(lint_event_coverage(ev, rep));
    }
    raw.extend(lint_name_registry(files));
    let g = ItemGraph::build(files);
    raw.extend(lint_graph(&g, l9_allowlist, l13_allowlist, l16_allowlist));

    let (violations, used) = apply_escapes(raw, &escapes);
    let stale_escapes = escapes
        .iter()
        .enumerate()
        .filter(|(k, _)| !used.contains(k))
        .map(|(_, e)| Violation {
            rule: "stale-allow",
            file: e.file.clone(),
            line: e.line,
            msg: format!(
                "`lint: allow({})` suppresses nothing here; the escape is \
                 stale — remove it (or fix the rule name)",
                e.rule
            ),
            excerpt: e.excerpt.clone(),
        })
        .collect();
    WorkspaceLint {
        violations,
        stale_escapes,
        files_linted,
        items: g.items.len(),
        edges: g.edges.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(vs: &[Violation], rule: &str) -> Vec<usize> {
        vs.iter()
            .filter(|v| v.rule == rule)
            .map(|v| v.line)
            .collect()
    }

    // ---------------------------------------------------------------- L3

    #[test]
    fn l3_flags_raw_comparison_in_try_body() {
        let src = "fn try_less(&self) -> Option<bool> {\n    if lb < ub {\n        return None;\n    }\n    None\n}\n";
        let vs = lint_source("crates/bounds/src/x.rs", src);
        assert_eq!(lines(&vs, "L3"), vec![2]);
    }

    #[test]
    fn l3_accepts_eps_margins_and_ignores_non_try_fns() {
        let with_eps = "fn try_less(&self) -> Option<bool> {\n    if ub + DECISION_EPS < lb {\n        return Some(true);\n    }\n    None\n}\n";
        assert!(lint_source("crates/lp/src/x.rs", with_eps).is_empty());
        let outside =
            "fn bounds(&self) -> (f64, f64) {\n    if a < b { (a, b) } else { (b, a) }\n}\n";
        assert!(lint_source("crates/bounds/src/x.rs", outside).is_empty());
    }

    #[test]
    fn l3_ignores_shifts_generics_and_arrows() {
        let src = "fn try_less(&self) -> Option<bool> {\n    let cap: Vec<u64> = vec![1 << 20];\n    let f = |x: u64| -> u64 { x };\n    match x { _ => f(cap[0]) };\n    None\n}\n";
        assert!(lint_source("crates/bounds/src/x.rs", src).is_empty());
    }

    #[test]
    fn l3_respects_allow_annotation_same_line() {
        let src = "fn try_less(&self) -> Option<bool> {\n    Some(lb < ub) // exact by construction; lint: allow(L3)\n}\n";
        assert!(lint_source("crates/bounds/src/x.rs", src).is_empty());
    }

    // ---------------------------------------------------------------- L6

    #[test]
    fn l6_flags_discarded_fallible_results() {
        let src = "fn f(r: &mut dyn DistanceResolver) {\n    let d = r.resolve_fallible(p).ok();\n    let _ = o.try_call(a, b);\n    let v = o.try_call_pair(p).unwrap_or(1.0);\n}\n";
        let vs = lint_source("crates/bounds/src/x.rs", src);
        assert_eq!(lines(&vs, "L6"), vec![2, 3, 4]);
    }

    #[test]
    fn l6_accepts_propagation_and_handling() {
        let src = "fn f() -> Result<f64, OracleError> {\n    let d = r.resolve_fallible(p)?;\n    match o.try_call(a, b) {\n        Ok(v) => Ok(v + d),\n        Err(e) => Err(e),\n    }\n}\n";
        assert!(lint_source("crates/algos/src/x.rs", src).is_empty());
    }

    #[test]
    fn l6_exempts_harness_tests_and_allow_annotation() {
        let src = "fn f() { let _ = o.try_call(a, b); }\n";
        assert!(lint_source("crates/bench/src/runner.rs", src).is_empty());
        assert!(lint_source("crates/algos/tests/t.rs", src).is_empty());
        let allowed = "fn f() {\n    // probe only, error handled upstream; lint: allow(L6)\n    let _ = o.try_call(a, b);\n}\n";
        assert!(lint_source("crates/core/src/x.rs", allowed).is_empty());
    }

    #[test]
    fn l6_ignores_infallible_ok_usage() {
        // `.ok()` on something that is not a fallible oracle producer.
        let src = "fn f() { let d = text.parse::<f64>().ok(); }\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
    }

    // ---------------------------------------------------------------- L8

    const EVENT_FIXTURE: &str = "impl TraceEvent {\n    pub fn name(self) -> &'static str {\n        match self {\n            TraceEvent::OracleCall { .. } => \"oracle_call\",\n            TraceEvent::Corruption { .. } => \"corruption\",\n        }\n    }\n}\n";

    #[test]
    fn l8_flags_event_names_missing_from_the_report() {
        let report = "fn summarize(ev: &str) { match ev { \"oracle_call\" => {} _ => {} } }\n";
        let vs = lint_event_coverage(EVENT_FIXTURE, report);
        assert_eq!(lines(&vs, "L8"), vec![5]);
        assert!(vs[0].msg.contains("\"corruption\""));
        assert!(vs[0].render().contains("crates/obs/src/event.rs:5"));
    }

    #[test]
    fn l8_passes_when_every_event_name_is_quoted_in_the_report() {
        let report = "match ev { \"oracle_call\" => {} \"corruption\" => {} _ => {} }\n";
        assert!(lint_event_coverage(EVENT_FIXTURE, report).is_empty());
    }

    #[test]
    fn l8_ignores_field_name_enums_and_non_arm_lines() {
        // Variant names of inner enums (CallOutcome etc.) are field
        // values, not event classes; they must not be collected.
        let with_inner = "impl CallOutcome {\n    fn name(self) -> &'static str {\n        match self {\n            CallOutcome::Ok => \"ok\",\n        }\n    }\n}\n";
        assert!(lint_event_coverage(with_inner, "").is_empty());
        let names = trace_event_names(EVENT_FIXTURE);
        assert_eq!(
            names,
            vec![
                (4, "oracle_call".to_string()),
                (5, "corruption".to_string())
            ]
        );
    }

    // ---------------------------------------------------------------- L15

    const NAMES_FIXTURE: &str = "pub const METRIC_NAMES: &[&str] = &[\n    \"oracle.calls\",\n    \"probe.width\",\n];\n\npub const SPAN_NAMES: &[&str] = &[\n    \"build\",\n    \"scan\",\n];\n";

    fn l15_files(src: &str) -> Vec<(String, String)> {
        vec![
            (
                "crates/obs/src/names.rs".to_string(),
                NAMES_FIXTURE.to_string(),
            ),
            ("crates/bounds/src/x.rs".to_string(), src.to_string()),
        ]
    }

    #[test]
    fn l15_flags_unregistered_metric_and_span_names() {
        let src = "fn f(m: &Metrics, t: Option<Rc<dyn TraceSink>>) {\n    m.inc(\"oracle.callz\", 1);\n    m.observe(\"probe.width\", 3);\n    let _g = SpanGuard::enter(t, \"scam\");\n}\n";
        let vs = lint_name_registry(&l15_files(src));
        assert_eq!(lines(&vs, "L15"), vec![2, 4]);
        assert!(vs[0].msg.contains("\"oracle.callz\""));
        assert!(vs[0].msg.contains("METRIC_NAMES"));
        assert!(vs[1].msg.contains("\"scam\""));
        assert!(vs[1].msg.contains("SPAN_NAMES"));
    }

    #[test]
    fn l15_checks_every_literal_in_a_metric_call_extent() {
        // Names can sit in match arms spanning lines (the cascade's
        // weak-outcome counter); every literal in the extent is checked.
        let src = "fn f(m: &Metrics, o: O) {\n    m.inc(\n        match o {\n            O::A => \"oracle.calls\",\n            O::B => \"cascade.weak_liez\",\n        },\n        1,\n    );\n}\n";
        let vs = lint_name_registry(&l15_files(src));
        assert_eq!(lines(&vs, "L15"), vec![5]);
    }

    #[test]
    fn l15_span_sites_check_only_the_first_literal() {
        // Later arguments may carry unrelated strings.
        let src = "fn f(t: Option<Rc<dyn TraceSink>>) {\n    \
                   let _g = SpanGuard::enter(t, pick(\"scan\", \"not a span name\"));\n}\n";
        assert!(lint_name_registry(&l15_files(src)).is_empty());
    }

    #[test]
    fn l15_skips_tests_dynamic_names_and_unlinted_paths() {
        let in_test =
            "#[cfg(test)]\nmod tests {\n    fn f(m: &Metrics) { m.inc(\"nope\", 1); }\n}\n";
        assert!(lint_name_registry(&l15_files(in_test)).is_empty());
        let dynamic = "fn f(m: &Metrics, name: &str) { m.inc(name, 1); }\n";
        assert!(lint_name_registry(&l15_files(dynamic)).is_empty());
        let files = vec![
            (
                "crates/obs/src/names.rs".to_string(),
                NAMES_FIXTURE.to_string(),
            ),
            (
                "crates/bounds/tests/t.rs".to_string(),
                "fn f(m: &Metrics) { m.inc(\"nope\", 1); }\n".to_string(),
            ),
        ];
        assert!(lint_name_registry(&files).is_empty());
    }

    #[test]
    fn l15_respects_allow_annotation_via_workspace_filtering() {
        let src = "fn f(m: &Metrics) {\n    // experimental counter, not yet in the registry; lint: allow(L15)\n    m.inc(\"experimental.counter\", 1);\n}\n";
        let lint = lint_workspace_with(&l15_files(src), &[], &[], &[]);
        assert!(
            !lint.violations.iter().any(|v| v.rule == "L15"),
            "{:?}",
            lint.violations
        );
    }

    #[test]
    fn l15_registry_table_parses_the_real_registry() {
        let names_src = include_str!("../../obs/src/names.rs");
        let metrics = registry_table(names_src, "METRIC_NAMES");
        let spans = registry_table(names_src, "SPAN_NAMES");
        assert!(metrics.contains("oracle.calls"));
        assert!(metrics.contains("probe.width"));
        assert!(metrics.contains("splub_full_fallback"));
        assert!(spans.contains("bootstrap"));
        assert!(spans.contains("swap"));
        assert!(metrics.len() >= 13, "{metrics:?}");
        assert!(spans.len() >= 7, "{spans:?}");
    }

    #[test]
    fn l8_holds_on_the_real_sources() {
        // The actual emitter/summarizer pair must stay in sync; this is
        // the same check `cargo xtask lint` runs on the workspace.
        let event_src = include_str!("../../obs/src/event.rs");
        let report_src = include_str!("../../obs/src/report.rs");
        let vs = lint_event_coverage(event_src, report_src);
        assert!(vs.is_empty(), "{:?}", vs);
        assert!(
            trace_event_names(event_src).len() >= 10,
            "the extractor must see every TraceEvent variant"
        );
    }

    // ----------------------------------------------------------- plumbing

    #[test]
    fn non_source_paths_are_skipped() {
        let src = "fn try_f() {\n    let _ = o.try_call(a, b);\n    if a < b {}\n}\n";
        assert_eq!(lint_source("crates/bounds/src/x.rs", src).len(), 2);
        assert!(lint_source("crates/algos/tests/exact.rs", src).is_empty());
        assert!(lint_source("crates/bench/benches/schemes.rs", src).is_empty());
        assert!(lint_source("crates/xtask/src/rules.rs", src).is_empty());
        assert!(lint_source("README.md", src).is_empty());
    }

    // ------------------------------------------------- graph rules: L9

    fn fixture(files: &[(&str, &str)]) -> Vec<(String, String)> {
        files
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect()
    }

    /// Oracle + resolver skeleton shared by the graph-rule tests.
    const ORACLE_SRC: &str = "pub struct Oracle;\nimpl Oracle {\n    pub fn call(&self) { expect_ok(self.try_call()) }\n    pub fn try_call(&self) {}\n    pub fn call_pair(&self) { expect_ok(self.try_call_pair()) }\n    pub fn try_call_pair(&self) {}\n}\npub fn expect_ok(x: u32) -> u32 { x }\n";
    const RESOLVER_SRC: &str = "pub trait DistanceResolver {\n    fn try_less(&mut self, o: &Oracle) { o.try_call() }\n    fn less(&mut self, o: &Oracle) { expect_ok(self.try_less(o)) }\n}\n";

    #[test]
    fn l9_flags_a_public_leak_with_its_chain() {
        let files = fixture(&[
            ("crates/core/src/oracle.rs", ORACLE_SRC),
            ("crates/bounds/src/resolver.rs", RESOLVER_SRC),
            (
                "crates/algos/src/leak.rs",
                "pub fn leaky(o: &Oracle) { probe(o); }\nfn probe(o: &Oracle) { o.call(); }\n",
            ),
        ]);
        let g = ItemGraph::build(&files);
        let vs = lint_graph(&g, &[], &[], &[]);
        let l9: Vec<&Violation> = vs.iter().filter(|v| v.rule == "L9").collect();
        assert_eq!(l9.len(), 1, "{vs:?}");
        assert_eq!(l9[0].file, "crates/algos/src/leak.rs");
        assert_eq!(l9[0].line, 1);
        assert!(l9[0]
            .msg
            .contains("algos::leak::leaky -> algos::leak::probe -> core::oracle::Oracle::call"));
    }

    #[test]
    fn l9_accepts_resolver_guarded_paths() {
        let files = fixture(&[
            ("crates/core/src/oracle.rs", ORACLE_SRC),
            ("crates/bounds/src/resolver.rs", RESOLVER_SRC),
            (
                "crates/algos/src/clean.rs",
                "pub fn clean(r: &mut dyn DistanceResolver, o: &Oracle) { r.less(o); }\n",
            ),
        ]);
        let g = ItemGraph::build(&files);
        assert!(lint_graph(&g, &[], &[], &[]).iter().all(|v| v.rule != "L9"));
    }

    #[test]
    fn l9_allowlist_sanctions_audited_paths_and_flags_stale_entries() {
        let files = fixture(&[
            ("crates/core/src/oracle.rs", ORACLE_SRC),
            ("crates/bounds/src/resolver.rs", RESOLVER_SRC),
            (
                "crates/bounds/src/bootstrap.rs",
                "pub fn bootstrap(o: &Oracle) { try_pick(o); }\npub fn try_pick(o: &Oracle) { o.try_call(); }\n",
            ),
        ]);
        let g = ItemGraph::build(&files);
        // Unallowed: both bootstrap fns are exposed.
        assert_eq!(
            lint_graph(&g, &[], &[], &[])
                .iter()
                .filter(|v| v.rule == "L9")
                .count(),
            2
        );
        // Allowlisting the audited choke fn sanctions everything above it.
        let vs = lint_graph(&g, &["bounds::bootstrap::try_pick"], &[], &[]);
        assert!(vs.iter().all(|v| v.rule != "L9"), "{vs:?}");
        // A stale entry is itself a violation.
        let vs = lint_graph(
            &g,
            &["bounds::bootstrap::try_pick", "bounds::gone::nope"],
            &[],
            &[],
        );
        assert!(vs.iter().any(|v| v.rule == "L9" && v.msg.contains("stale")));
    }

    #[test]
    fn l9_comment_escape_suppresses_via_lint_workspace() {
        let files = fixture(&[
            ("crates/core/src/oracle.rs", ORACLE_SRC),
            ("crates/bounds/src/resolver.rs", RESOLVER_SRC),
            (
                "crates/algos/src/leak.rs",
                "// audited one-off probe; lint: allow(L9)\npub fn leaky(o: &Oracle) { o.call(); }\n",
            ),
        ]);
        let lint = lint_workspace_with(&files, &[], &[], &[]);
        assert!(
            lint.violations.iter().all(|v| v.rule != "L9"),
            "{:?}",
            lint.violations
        );
        assert!(lint.stale_escapes.is_empty());
    }

    // ------------------------------------------------ graph rules: L13

    /// Dijkstra skeleton shared by the L13 tests: the unbounded sink plus
    /// its bounded twin.
    const DIJKSTRA_SRC: &str = "pub struct Dijkstra;\nimpl Dijkstra {\n    pub fn run(&mut self) {}\n    pub fn run_bidirectional_bounded(&mut self) {}\n}\n";

    #[test]
    fn l13_flags_unbounded_run_from_bounds_with_chain() {
        let files = fixture(&[
            ("crates/graph/src/dijkstra.rs", DIJKSTRA_SRC),
            (
                "crates/bounds/src/splub.rs",
                "pub fn bounds(d: &mut Dijkstra) { full(d); }\nfn full(d: &mut Dijkstra) { d.run(); }\n",
            ),
        ]);
        let g = ItemGraph::build(&files);
        let vs = lint_graph(&g, &[], &[], &[]);
        let l13: Vec<&Violation> = vs.iter().filter(|v| v.rule == "L13").collect();
        // Both the private full-run site and the public query path above it.
        assert_eq!(l13.len(), 2, "{vs:?}");
        assert!(l13.iter().all(|v| v.file == "crates/bounds/src/splub.rs"));
        assert!(l13.iter().any(|v| v.msg.contains(
            "bounds::splub::bounds -> bounds::splub::full -> graph::dijkstra::Dijkstra::run"
        )));
    }

    #[test]
    fn l13_accepts_bounded_twins_and_non_bounds_callers() {
        let files = fixture(&[
            ("crates/graph/src/dijkstra.rs", DIJKSTRA_SRC),
            (
                "crates/bounds/src/splub.rs",
                "pub fn cascade(d: &mut Dijkstra) { d.run_bidirectional_bounded(); }\n",
            ),
            (
                "crates/datasets/src/roadnet.rs",
                "pub fn ground_truth(d: &mut Dijkstra) { d.run(); }\n",
            ),
        ]);
        let g = ItemGraph::build(&files);
        let vs = lint_graph(&g, &[], &[], &[]);
        assert!(vs.iter().all(|v| v.rule != "L13"), "{vs:?}");
    }

    #[test]
    fn l13_allowlist_sanctions_the_funnel_and_flags_stale_entries() {
        let files = fixture(&[
            ("crates/graph/src/dijkstra.rs", DIJKSTRA_SRC),
            (
                "crates/bounds/src/splub.rs",
                "pub fn bounds(d: &mut Dijkstra) { ensure_tree(d); }\nfn ensure_tree(d: &mut Dijkstra) { d.run(); }\n",
            ),
        ]);
        let g = ItemGraph::build(&files);
        // Allowlisting the audited funnel sanctions everything above it.
        let vs = lint_graph(&g, &[], &["bounds::splub::ensure_tree"], &[]);
        assert!(vs.iter().all(|v| v.rule != "L13"), "{vs:?}");
        // A stale entry is itself a violation.
        let vs = lint_graph(
            &g,
            &[],
            &["bounds::splub::ensure_tree", "bounds::gone::nope"],
            &[],
        );
        assert!(vs
            .iter()
            .any(|v| v.rule == "L13" && v.msg.contains("stale")));
    }

    #[test]
    fn l13_real_allowlist_matches_the_workspace() {
        // Smoke the shipped const against the real tree: every entry must
        // resolve, and the workspace must be clean under it.
        let files = crate::load_workspace_sources(&crate::workspace_root());
        let g = ItemGraph::build(&files);
        let vs = l13_violations(&g, L13_ALLOWLIST);
        assert!(vs.is_empty(), "{vs:?}");
    }

    // ------------------------------------------------ graph rules: L14

    /// Weak-oracle + cascade skeleton shared by the L14 tests.
    const WEAK_SRC: &str = "pub struct WeakOracle;\nimpl WeakOracle {\n    pub fn probe(&self) {}\n    pub fn error_at(&self) {}\n}\n";
    const CASCADE_SRC: &str = "pub struct CascadeResolver;\nimpl CascadeResolver {\n    pub fn resolve(&mut self, w: &WeakOracle) { self.weak_vote(w) }\n    fn weak_vote(&mut self, w: &WeakOracle) { w.probe(); }\n}\n";

    #[test]
    fn l14_flags_an_algo_probing_the_weak_oracle_raw() {
        let files = fixture(&[
            ("crates/core/src/weak.rs", WEAK_SRC),
            ("crates/bounds/src/cascade.rs", CASCADE_SRC),
            (
                "crates/algos/src/shortcut.rs",
                "pub fn shortcut(w: &WeakOracle) { guess(w); }\nfn guess(w: &WeakOracle) { w.probe(); }\n",
            ),
        ]);
        let g = ItemGraph::build(&files);
        let vs = lint_graph(&g, &[], &[], &[]);
        let l14: Vec<&Violation> = vs.iter().filter(|v| v.rule == "L14").collect();
        // Both the private probe site and the public path above it.
        assert_eq!(l14.len(), 2, "{vs:?}");
        assert!(l14.iter().all(|v| v.file == "crates/algos/src/shortcut.rs"));
        assert!(l14.iter().any(|v| v.msg.contains(
            "algos::shortcut::shortcut -> algos::shortcut::guess -> core::weak::WeakOracle::probe"
        )));
    }

    #[test]
    fn l14_accepts_the_cascade_route_and_non_algos_probes() {
        let files = fixture(&[
            ("crates/core/src/weak.rs", WEAK_SRC),
            ("crates/bounds/src/cascade.rs", CASCADE_SRC),
            (
                "crates/algos/src/clean.rs",
                "pub fn clean(r: &mut CascadeResolver, w: &WeakOracle) { r.resolve(w); }\n",
            ),
        ]);
        let g = ItemGraph::build(&files);
        let vs = lint_graph(&g, &[], &[], &[]);
        assert!(vs.iter().all(|v| v.rule != "L14"), "{vs:?}");
    }

    #[test]
    fn l14_holds_on_the_real_workspace() {
        let files = crate::load_workspace_sources(&crate::workspace_root());
        let g = ItemGraph::build(&files);
        let vs = l14_violations(&g);
        assert!(vs.is_empty(), "{vs:?}");
        // The rule must not be vacuous: the real graph contains both the
        // weak sinks and the cascade chokepoint it funnels through.
        assert!(
            g.items.iter().any(|it| it.krate == "core"
                && it.container.as_deref() == Some("WeakOracle")
                && it.name == "probe"),
            "WeakOracle::probe must exist in the item graph"
        );
        assert!(
            g.items
                .iter()
                .any(|it| it.container.as_deref() == Some("CascadeResolver")),
            "CascadeResolver methods must exist in the item graph"
        );
    }

    // ------------------------------------------------ graph rules: L16

    /// Store skeleton shared by the L16 tests: the mutator sinks, the
    /// commit chokepoint, and the audited fencing funnel.
    const STORE_SRC: &str = "pub struct StoreInner;\nimpl StoreInner {\n    pub fn absorb(&mut self) { self.wal_append() }\n    pub fn fence(&mut self) {}\n    fn wal_append(&mut self) {}\n}\npub struct SharedStore;\nimpl SharedStore {\n    pub fn commit(&self, i: &mut StoreInner) { i.absorb(); }\n    pub fn advance_epoch(&self, i: &mut StoreInner) { i.fence(); }\n}\n";

    #[test]
    fn l16_flags_a_side_door_store_write_with_its_chain() {
        let files = fixture(&[
            ("crates/serve/src/store.rs", STORE_SRC),
            (
                "crates/algos/src/sidedoor.rs",
                "pub fn inject(i: &mut StoreInner) { poke(i); }\nfn poke(i: &mut StoreInner) { i.absorb(); }\n",
            ),
        ]);
        let g = ItemGraph::build(&files);
        let vs = lint_graph(&g, &[], &[], &["serve::store::SharedStore::advance_epoch"]);
        let l16: Vec<&Violation> = vs.iter().filter(|v| v.rule == "L16").collect();
        // Both the private poke site and the public path above it.
        assert_eq!(l16.len(), 2, "{vs:?}");
        assert!(l16.iter().all(|v| v.file == "crates/algos/src/sidedoor.rs"));
        assert!(l16.iter().any(|v| v.msg.contains(
            "algos::sidedoor::inject -> algos::sidedoor::poke -> serve::store::StoreInner::absorb"
        )));
    }

    #[test]
    fn l16_accepts_the_commit_choke_and_audited_funnels() {
        let files = fixture(&[
            ("crates/serve/src/store.rs", STORE_SRC),
            (
                "crates/serve/src/server.rs",
                "pub fn run(s: &SharedStore, i: &mut StoreInner) { s.commit(i); s.advance_epoch(i); }\n",
            ),
        ]);
        let g = ItemGraph::build(&files);
        let vs = lint_graph(&g, &[], &[], &["serve::store::SharedStore::advance_epoch"]);
        assert!(vs.iter().all(|v| v.rule != "L16"), "{vs:?}");
    }

    #[test]
    fn l16_without_the_funnel_flags_the_fence_and_stale_entries() {
        let files = fixture(&[
            ("crates/serve/src/store.rs", STORE_SRC),
            (
                "crates/serve/src/server.rs",
                "pub fn run(s: &SharedStore, i: &mut StoreInner) { s.advance_epoch(i); }\n",
            ),
        ]);
        let g = ItemGraph::build(&files);
        // With no allowlist, the fencing funnel and its caller are flagged.
        let vs = lint_graph(&g, &[], &[], &[]);
        assert!(
            vs.iter()
                .any(|v| v.rule == "L16" && v.excerpt == "serve::store::SharedStore::advance_epoch"),
            "{vs:?}"
        );
        // A stale entry is itself a violation.
        let vs = lint_graph(&g, &[], &[], &["serve::gone::nope"]);
        assert!(vs
            .iter()
            .any(|v| v.rule == "L16" && v.msg.contains("stale")));
    }

    #[test]
    fn l16_real_allowlist_matches_the_workspace() {
        let files = crate::load_workspace_sources(&crate::workspace_root());
        let g = ItemGraph::build(&files);
        let vs = l16_violations(&g, L16_ALLOWLIST);
        assert!(vs.is_empty(), "{vs:?}");
        // The rule must not be vacuous: the real graph contains the store
        // mutator sinks and the commit chokepoint they funnel through.
        assert!(
            g.items.iter().any(|it| it.krate == "serve"
                && it.container.as_deref() == Some("StoreInner")
                && it.name == "absorb"),
            "StoreInner::absorb must exist in the item graph"
        );
        assert!(
            g.items.iter().any(|it| it.krate == "serve"
                && it.container.as_deref() == Some("SharedStore")
                && it.name == "commit"),
            "SharedStore::commit must exist in the item graph"
        );
    }

    // ------------------------------------------------ graph rules: L12

    #[test]
    fn l12_flags_a_non_delegating_twin() {
        let files = fixture(&[(
            "crates/algos/src/prim.rs",
            "pub fn prim() { body(); }\npub fn try_prim() { body(); }\nfn body() {}\n",
        )]);
        let g = ItemGraph::build(&files);
        let vs = lint_graph(&g, &[], &[], &[]);
        let l12: Vec<&Violation> = vs.iter().filter(|v| v.rule == "L12").collect();
        assert_eq!(l12.len(), 1, "{vs:?}");
        assert_eq!(l12[0].line, 1);
        assert!(l12[0].msg.contains("algos::prim::prim"));
    }

    #[test]
    fn l12_accepts_direct_and_chained_delegation() {
        let direct = fixture(&[(
            "crates/algos/src/a.rs",
            "pub fn mst() { expect_ok(try_mst()) }\npub fn try_mst() {}\nfn expect_ok(x: u32) -> u32 { x }\n",
        )]);
        let g = ItemGraph::build(&direct);
        assert!(lint_graph(&g, &[], &[], &[])
            .iter()
            .all(|v| v.rule != "L12"));
        // kruskal-style: mst -> mst_with, try_mst -> try_mst_with, and the
        // `_with` pair delegates — so `mst` counts as delegating too.
        let chained = fixture(&[(
            "crates/algos/src/b.rs",
            "pub fn mst() { mst_with() }\npub fn mst_with() { expect_ok(try_mst_with()) }\npub fn try_mst() { try_mst_with() }\npub fn try_mst_with() {}\nfn expect_ok(x: u32) -> u32 { x }\n",
        )]);
        let g = ItemGraph::build(&chained);
        let vs = lint_graph(&g, &[], &[], &[]);
        assert!(vs.iter().all(|v| v.rule != "L12"), "{vs:?}");
    }

    #[test]
    fn l12_exempts_tests_bench_and_comment_escape() {
        let in_bench = fixture(&[(
            "crates/bench/src/runner.rs",
            "pub fn run() { body(); }\npub fn try_run() { body(); }\nfn body() {}\n",
        )]);
        let g = ItemGraph::build(&in_bench);
        assert!(lint_graph(&g, &[], &[], &[])
            .iter()
            .all(|v| v.rule != "L12"));
        let escaped = fixture(&[(
            "crates/algos/src/a.rs",
            "// different semantics, not a wrapper; lint: allow(L12)\npub fn go() { body(); }\npub fn try_go() { body(); }\nfn body() {}\n",
        )]);
        let lint = lint_workspace_with(&escaped, &[], &[], &[]);
        assert!(lint.violations.iter().all(|v| v.rule != "L12"));
        assert!(lint.stale_escapes.is_empty());
    }

    // ------------------------------------------------ stale allowlists

    #[test]
    fn stale_allowlist_entries_survive_to_workspace_violations() {
        // `cargo xtask lint` exits nonzero iff `lint_workspace` reports a
        // violation, so a stale L9/L13 allowlist entry must surface there —
        // not only in the raw `lint_graph` output — and must not be
        // swallowed by escape filtering.
        let files = fixture(&[
            ("crates/core/src/oracle.rs", ORACLE_SRC),
            ("crates/bounds/src/resolver.rs", RESOLVER_SRC),
        ]);
        let lint = lint_workspace_with(
            &files,
            &["bounds::gone::nine"],
            &["bounds::gone::thirteen"],
            &[],
        );
        for (rule, entry) in [
            ("L9", "bounds::gone::nine"),
            ("L13", "bounds::gone::thirteen"),
        ] {
            assert!(
                lint.violations
                    .iter()
                    .any(|v| v.rule == rule && v.msg.contains("stale") && v.msg.contains(entry)),
                "stale {rule} entry must fail the workspace lint: {:?}",
                lint.violations
            );
        }
    }

    // ------------------------------------------------------ stale escapes

    #[test]
    fn stale_escape_is_reported_and_used_escape_is_not() {
        let files = fixture(&[(
            "crates/core/src/x.rs",
            "fn f() {\n    // lint: allow(L6)\n    let _ = o.try_call(a, b);\n    // lint: allow(L3)\n    let y = 1;\n}\n",
        )]);
        let lint = lint_workspace_with(&files, &[], &[], &[]);
        assert!(lint.violations.iter().all(|v| v.rule != "L6"));
        assert_eq!(lint.stale_escapes.len(), 1, "{:?}", lint.stale_escapes);
        assert_eq!(lint.stale_escapes[0].rule, "stale-allow");
        assert_eq!(lint.stale_escapes[0].line, 4);
        assert!(lint.stale_escapes[0].msg.contains("allow(L3)"));
    }

    #[test]
    fn escapes_inside_cfg_test_are_inert_not_stale() {
        let files = fixture(&[(
            "crates/core/src/x.rs",
            "#[cfg(test)]\nmod tests {\n    // lint: allow(L6)\n    fn f() { let _ = o.try_call(a, b); }\n}\n",
        )]);
        let lint = lint_workspace_with(&files, &[], &[], &[]);
        assert!(lint.violations.is_empty());
        assert!(lint.stale_escapes.is_empty());
    }

    // ------------------------------------- clippy: L1 L2 L4 L5 L7 L10 L11
    //
    // These rules are clippy lints configured by the workspace's
    // `clippy.toml` files and crate-root `#![deny]`s. The tests run the real
    // `cargo clippy` over fixture files (see `crate::clippy_fixture`);
    // `lib/` reads the root config, `algos/` and `bench/` their own.

    /// `(lint, line)` of every diagnostic in fixture file `rel`, deduped.
    fn clippy(rel: &str) -> Vec<(String, usize)> {
        let found: BTreeSet<(String, usize)> = clippy_diags(rel)
            .into_iter()
            .map(|d| (d.lint, d.line))
            .collect();
        found.into_iter().collect()
    }

    fn clippy_diags(rel: &str) -> Vec<crate::clippy_fixture::Diag> {
        static RUN: std::sync::OnceLock<Vec<crate::clippy_fixture::Diag>> =
            std::sync::OnceLock::new();
        let all = RUN.get_or_init(|| crate::clippy_fixture::run(CLIPPY_FIXTURE));
        all.iter().filter(|d| d.file == rel).cloned().collect()
    }

    fn at(lint: &str, lines: &[usize]) -> Vec<(String, usize)> {
        lines
            .iter()
            .map(|&l| (format!("clippy::{lint}"), l))
            .collect()
    }

    const CLIPPY_FIXTURE: &[(&str, &str)] = &[
        ("lib/src/l1_flag.rs", L1_FLAG),
        ("lib/src/l1_clean.rs", L1_CLEAN),
        ("lib/src/l1_allow.rs", L1_ALLOW),
        ("algos/src/knng.rs", L2_ORACLE),
        ("lib/src/l2_elsewhere.rs", L2_ORACLE),
        ("lib/src/l4_flag.rs", L4_FLAG),
        ("lib/src/l4_exempt.rs", L4_EXEMPT),
        ("lib/src/l4_doc.rs", L4_DOC),
        ("algos/src/l5_flag.rs", L5_FLAG),
        ("lib/src/l5_exec.rs", L5_EXEC),
        ("algos/src/l5_exempt.rs", L5_EXEMPT),
        ("lib/src/l7_flag.rs", L7_FLAG),
        ("lib/src/l7_exempt.rs", L7_EXEMPT),
        ("lib/src/l7_ignore.rs", L7_IGNORE),
        ("lib/src/l10_flag.rs", L10_FLAG),
        ("lib/src/l10_exempt.rs", L10_EXEMPT),
        ("lib/src/l11_flag.rs", L11_FLAG),
        ("lib/src/l11_exempt.rs", L11_EXEMPT),
        ("lib/src/bin/tool.rs", BIN_PRINTS),
        ("lib/tests/t.rs", INTEGRATION_TEST),
        ("bench/src/runner.rs", BENCH_RUNNER),
        ("bench/src/table.rs", BENCH_TABLE),
        ("bench/src/bin/repro.rs", BENCH_BIN),
    ];

    // ---------------------------------------------------------------- L1

    const L1_FLAG: &str = r#"pub fn f<M: prox_core::metric::Metric>(m: &M) -> f64 {
    m.distance(0, 1)
}
"#;

    const L1_CLEAN: &str = r#"use prox_core::metric::Metric;

pub struct Line;

impl Metric for Line {
    fn len(&self) -> usize {
        2
    }
    fn distance(&self, a: u32, b: u32) -> f64 {
        f64::from(a.abs_diff(b))
    }
}

pub struct Ruler;

impl Ruler {
    pub fn distance(&self, a: u32, b: u32) -> u32 {
        a.abs_diff(b)
    }
}

pub fn f(r: &Ruler) -> (u32, &'static str) {
    (r.distance(0, 1), "m.distance(a, b)")
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "un-metered ground truth")]
mod tests {
    use prox_core::metric::Metric;

    #[test]
    fn t() {
        assert!(super::Line.distance(0, 1) > 0.5);
    }
}
"#;

    const L1_ALLOW: &str = r#"#[expect(clippy::disallowed_methods, reason = "audited ground truth")]
pub fn f<M: prox_core::metric::Metric>(m: &M) -> f64 {
    m.distance(0, 1)
}
"#;

    #[test]
    fn l1_flags_direct_distance_call_with_file_and_line() {
        let ds = clippy_diags("lib/src/l1_flag.rs");
        assert_eq!(clippy("lib/src/l1_flag.rs"), at("disallowed_methods", &[2]));
        assert_eq!(ds[0].file, "lib/src/l1_flag.rs");
        assert!(ds[0]
            .rendered
            .contains("prox_core::metric::Metric::distance"));
        assert!(ds[0].rendered.contains("L1:"), "{}", ds[0].rendered);
    }

    /// Type-resolved: implementing `Metric`, a same-named inherent method
    /// and the text in a string are not calls of `Metric::distance`. Test
    /// code is linted too; a test module opts out with one module-level
    /// `#[expect]`, which must be fulfilled.
    #[test]
    fn l1_ignores_test_code_strings_and_allowed_crates() {
        assert_eq!(clippy("lib/src/l1_clean.rs"), vec![]);
    }

    #[test]
    fn l1_respects_allow_annotation() {
        assert_eq!(clippy("lib/src/l1_allow.rs"), vec![]);
    }

    // ---------------------------------------------------------------- L2

    const L2_ORACLE: &str = r#"pub fn f<M: prox_core::metric::Metric>(o: &prox_core::oracle::Oracle<M>, p: prox_core::Pair) -> f64 {
    let d = o.call_pair(p);
    let e = o.call(0, 1);
    d + e
}
"#;

    #[test]
    fn l2_flags_oracle_calls_in_algos_only() {
        assert_eq!(
            clippy("algos/src/knng.rs"),
            at("disallowed_methods", &[2, 3])
        );
        let ds = clippy_diags("algos/src/knng.rs");
        assert!(ds.iter().all(|d| d.rendered.contains("L2:")), "{ds:?}");
        // The same text is fine outside algos: schemes are fed by the oracle.
        assert_eq!(clippy("lib/src/l2_elsewhere.rs"), vec![]);
    }

    // ---------------------------------------------------------------- L4

    const L4_FLAG: &str = r#"pub fn f(x: Option<u32>, y: Result<u32, u32>, z: Result<u32, u32>) -> u32 {
    let a = x.unwrap();
    let b = y.expect("msg");
    let c = z.unwrap_err();
    if a == b {
        panic!("boom");
    }
    if b == c {
        unreachable!("never");
    }
    a + b + c
}
"#;

    const L4_EXEMPT: &str = r#"fn fallback() -> u32 {
    1
}

pub fn graceful(x: Option<u32>) -> u32 {
    x.unwrap_or(0) + x.unwrap_or_else(fallback)
}

#[expect(clippy::panic, reason = "the audited panic choke point")]
pub fn invariant_violated(what: &str) -> ! {
    panic!("invariant violated: {what}")
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        assert_eq!("1".parse::<u32>().ok().unwrap(), 1);
        assert_eq!("2".parse::<u32>().expect("a number"), 2);
    }
}
"#;

    const L4_DOC: &str = r#"/// This function will panic!(never) at runtime; `x.unwrap()` is prose.
pub fn f() -> &'static str {
    "panic!(\"not real\")"
}
"#;

    #[test]
    fn l4_flags_unwrap_expect_panic_with_lines() {
        let mut want = at("unwrap_used", &[2, 4]);
        want.extend(at("expect_used", &[3]));
        want.extend(at("panic", &[6]));
        want.extend(at("unreachable", &[9]));
        want.sort();
        assert_eq!(clippy("lib/src/l4_flag.rs"), want);
    }

    #[test]
    fn l4_exempts_tests_benches_chokepoint_and_unwrap_or() {
        assert_eq!(clippy("lib/src/l4_exempt.rs"), vec![]);
        assert_eq!(clippy("lib/tests/t.rs"), vec![]);
        assert_eq!(clippy("bench/src/runner.rs"), vec![]);
    }

    #[test]
    fn l4_panic_in_doc_comment_is_fine() {
        assert_eq!(clippy("lib/src/l4_doc.rs"), vec![]);
    }

    // ---------------------------------------------------------------- L5

    const L5_FLAG: &str = r#"pub fn f() -> bool {
    std::thread::scope(|s| s.spawn(|| {}).join().is_ok())
        && std::thread::spawn(|| {}).join().is_ok()
        && std::thread::Builder::new().spawn(|| {}).is_ok()
}
"#;

    const L5_EXEC: &str = r#"#[expect(clippy::disallowed_methods, reason = "prox-exec owns all threading")]
pub fn run() -> bool {
    std::thread::scope(|s| s.spawn(|| {}).join().is_ok())
}
"#;

    const L5_EXEMPT: &str = r#"pub fn unwinding() -> bool {
    std::thread::panicking()
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "test-only worker")]
mod tests {
    #[test]
    fn t() {
        assert!(std::thread::spawn(|| 1).join().is_ok());
    }
}
"#;

    #[test]
    fn l5_flags_threading_outside_exec() {
        let mut want = at("disallowed_methods", &[2, 3]);
        want.extend(at("disallowed_types", &[4]));
        assert_eq!(clippy("algos/src/l5_flag.rs"), want);
        let ds = clippy_diags("algos/src/l5_flag.rs");
        assert!(ds.iter().all(|d| d.rendered.contains("L5:")), "{ds:?}");
        // prox-exec's spawn site carries a site-level `#[expect]`.
        assert_eq!(clippy("lib/src/l5_exec.rs"), vec![]);
    }

    /// `std::thread::panicking()` is not threading and needs no escape; a
    /// test module that spawns opts out with a module-level `#[expect]`.
    #[test]
    fn l5_exempts_tests_and_allow_annotation() {
        assert_eq!(clippy("algos/src/l5_exempt.rs"), vec![]);
    }

    // ---------------------------------------------------------------- L7

    const L7_FLAG: &str = r#"pub fn f(x: u32) {
    println!("x = {x}");
    eprintln!("warn");
    eprint!("partial");
}
"#;

    const L7_EXEMPT: &str = r#"#[expect(clippy::print_stderr, reason = "panic replay note, no sink reachable")]
pub fn replay() {
    eprintln!("replay");
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        println!("dbg");
    }
}
"#;

    const L7_IGNORE: &str = r#"/// Example: `println!("{d}")` is forbidden here.
pub fn f() -> &'static str {
    "println!(not real)"
}
"#;

    const BIN_PRINTS: &str = r#"fn main() {
    println!("hello");
    eprintln!("done");
}
"#;

    const INTEGRATION_TEST: &str = r#"fn helper(x: Option<u32>) -> u32 {
    x.expect("present")
}

#[test]
fn t() {
    let x = "1".parse::<u32>().ok();
    println!("{}", helper(x) + x.unwrap());
}
"#;

    #[test]
    fn l7_flags_println_and_eprintln_in_library_code() {
        let mut want = at("print_stdout", &[2]);
        want.extend(at("print_stderr", &[3, 4]));
        want.sort();
        assert_eq!(clippy("lib/src/l7_flag.rs"), want);
    }

    #[test]
    fn l7_exempts_bins_bench_tests_and_allow_annotation() {
        assert_eq!(clippy("bench/src/table.rs"), vec![]);
        assert_eq!(clippy("bench/src/bin/repro.rs"), vec![]);
        assert_eq!(clippy("lib/src/bin/tool.rs"), vec![]);
        assert_eq!(clippy("lib/tests/t.rs"), vec![]);
        assert_eq!(clippy("lib/src/l7_exempt.rs"), vec![]);
    }

    #[test]
    fn l7_ignores_strings_and_doc_comments() {
        assert_eq!(clippy("lib/src/l7_ignore.rs"), vec![]);
    }

    // --------------------------------------------------------------- L10

    const L10_FLAG: &str = r#"use std::collections::HashMap;
pub fn f() -> usize {
    let m: HashMap<u64, f64> = HashMap::new();
    let s = std::collections::HashSet::<u64>::new();
    m.len() + s.len()
}
"#;

    const L10_EXEMPT: &str = r#"#[expect(clippy::disallowed_types, reason = "key lookup only, never iterated")]
pub fn lookup(k: u32) -> Option<u32> {
    let m: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    m.get(&k).copied()
}

#[cfg(test)]
#[expect(clippy::disallowed_types, reason = "test-only scratch set")]
mod tests {
    use std::collections::HashSet;

    #[test]
    fn t() {
        assert!(HashSet::<u32>::new().is_empty());
    }
}
"#;

    const BENCH_RUNNER: &str = r#"use std::collections::HashMap;
use std::time::{Instant, SystemTime};

pub fn f(x: Option<u32>) -> (u32, usize, bool) {
    let t = Instant::now();
    let m: HashMap<u32, u32> = HashMap::new();
    let s = SystemTime::now();
    (x.unwrap(), m.len(), t.elapsed() < s.elapsed().unwrap_or_default())
}
"#;

    const BENCH_TABLE: &str = r#"pub fn f() {
    println!("hello");
}
"#;

    const BENCH_BIN: &str = r#"fn main() {
    let m: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    println!("{}", m.len());
}
"#;

    #[test]
    fn l10_flags_hash_containers_in_library_code() {
        assert_eq!(
            clippy("lib/src/l10_flag.rs"),
            at("disallowed_types", &[1, 3, 4])
        );
        let ds = clippy_diags("lib/src/l10_flag.rs");
        assert!(ds.iter().all(|d| d.rendered.contains("L10:")), "{ds:?}");
    }

    /// Bench and its bins read a `clippy.toml` without L10. Elsewhere a
    /// test module opts out with a module-level `#[expect]`, like any
    /// audited site.
    #[test]
    fn l10_exempts_bench_bins_tests_and_allow_annotation() {
        assert_eq!(clippy("bench/src/runner.rs"), vec![]);
        assert_eq!(clippy("bench/src/bin/repro.rs"), vec![]);
        assert_eq!(clippy("lib/src/l10_exempt.rs"), vec![]);
    }

    // --------------------------------------------------------------- L11

    const L11_FLAG: &str = r#"pub fn f() -> bool {
    let t = std::time::Instant::now();
    let s = std::time::SystemTime::now();
    t.elapsed() < s.elapsed().unwrap_or_default()
}
"#;

    const L11_EXEMPT: &str = r#"#[expect(clippy::disallowed_methods, reason = "coarse jitter seed, not scheduling")]
pub fn seed() -> std::time::Instant {
    std::time::Instant::now()
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "test-only timing")]
mod tests {
    #[test]
    fn t() {
        assert!(std::time::Instant::now().elapsed().as_secs() < 60);
    }
}
"#;

    #[test]
    fn l11_flags_wall_clock_outside_bench() {
        let mut want = at("disallowed_methods", &[2]);
        want.extend(at("disallowed_types", &[3]));
        assert_eq!(clippy("lib/src/l11_flag.rs"), want);
        let ds = clippy_diags("lib/src/l11_flag.rs");
        assert!(ds.iter().all(|d| d.rendered.contains("L11:")), "{ds:?}");
        assert_eq!(clippy("bench/src/runner.rs"), vec![]);
    }

    /// A test module opts out of L11 with a module-level `#[expect]`, an
    /// audited site with a site-level one; both must be fulfilled.
    #[test]
    fn l11_respects_tests_and_allow_annotation() {
        assert_eq!(clippy("lib/src/l11_exempt.rs"), vec![]);
    }
}
