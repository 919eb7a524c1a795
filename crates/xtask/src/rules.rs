//! The lint rules enforcing the oracle-call and determinism disciplines
//! that clippy cannot express. L1, L2, L4, L5, L7, L10, L11, L13 and L14
//! are type-resolved clippy lints configured in the `clippy.toml` files
//! (see `docs/INVARIANTS.md`); their numbers are not reused here. Their
//! tests at the end of this file run clippy itself over fixture files.
//!
//! Rules come in two flavours:
//!
//! * **Lexical** (L3, L6) — per line of the masked code produced by
//!   [`crate::lexer::scan`].
//! * **Graph** (L9, L12) — over the whole-workspace
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
//! point.
//!
//! L8, L15 and L16 are held by the compiler, not here: the observability
//! vocabularies are closed enums (`prox_obs::{EventKind, MetricName,
//! SpanName}`, with the report's event match kept exhaustive) and the
//! write-ahead log is private to `crates/serve` (see `docs/INVARIANTS.md`).
//!
//! | rule | scope | it forbids |
//! |------|-------|------------|
//! | L3 | `try_*` bodies in `crates/bounds` + `crates/lp` | raw float comparisons with no `DECISION_EPS`/eps margin |
//! | L6 | library crates | discarding a fallible oracle result via `.ok()` / `let _ =` (an `OracleError` must propagate or be handled, never vanish) |
//! | L9 | public APIs of `crates/algos` + `crates/bounds` (graph) | reaching `Oracle::call`/`call_pair` (or their `try_` forms) through any call chain that does not pass a `DistanceResolver` method — see [`oracle_exposure`] |
//! | L12 | library crates (graph) | an infallible `X` that re-implements its fallible twin `try_X` instead of delegating to it (the copies drift apart) |

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::{Item, ItemGraph, Vis};
use crate::lexer::{line_starts, match_brace, scan, test_line_ranges};

/// One finding, addressable as `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id (`"L3"`, `"L6"`, `"L9"`, `"L12"`), or
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

/// The graph rules (L9 + L12), *before* escape filtering.
pub fn lint_graph(g: &ItemGraph, l9_allowlist: &[&str]) -> Vec<Violation> {
    let mut out = l9_violations(g, l9_allowlist);
    out.extend(l12_violations(g));
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
/// lexical rules per file and the graph rules over the item graph, with
/// escape filtering and stale-escape detection.
pub fn lint_workspace(files: &[(String, String)]) -> WorkspaceLint {
    lint_workspace_with(files, L9_ALLOWLIST)
}

/// [`lint_workspace`] with an explicit L9 allowlist (tests use fixtures).
pub fn lint_workspace_with(files: &[(String, String)], l9_allowlist: &[&str]) -> WorkspaceLint {
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
    let g = ItemGraph::build(files);
    raw.extend(lint_graph(&g, l9_allowlist));

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
        let vs = lint_graph(&g, &[]);
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
        assert!(lint_graph(&g, &[]).iter().all(|v| v.rule != "L9"));
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
            lint_graph(&g, &[])
                .iter()
                .filter(|v| v.rule == "L9")
                .count(),
            2
        );
        // Allowlisting the audited choke fn sanctions everything above it.
        let vs = lint_graph(&g, &["bounds::bootstrap::try_pick"]);
        assert!(vs.iter().all(|v| v.rule != "L9"), "{vs:?}");
        // A stale entry is itself a violation.
        let vs = lint_graph(&g, &["bounds::bootstrap::try_pick", "bounds::gone::nope"]);
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
        let lint = lint_workspace_with(&files, &[]);
        assert!(
            lint.violations.iter().all(|v| v.rule != "L9"),
            "{:?}",
            lint.violations
        );
        assert!(lint.stale_escapes.is_empty());
    }

    #[test]
    fn l12_flags_a_non_delegating_twin() {
        let files = fixture(&[(
            "crates/algos/src/prim.rs",
            "pub fn prim() { body(); }\npub fn try_prim() { body(); }\nfn body() {}\n",
        )]);
        let g = ItemGraph::build(&files);
        let vs = lint_graph(&g, &[]);
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
        assert!(lint_graph(&g, &[]).iter().all(|v| v.rule != "L12"));
        // kruskal-style: mst -> mst_with, try_mst -> try_mst_with, and the
        // `_with` pair delegates — so `mst` counts as delegating too.
        let chained = fixture(&[(
            "crates/algos/src/b.rs",
            "pub fn mst() { mst_with() }\npub fn mst_with() { expect_ok(try_mst_with()) }\npub fn try_mst() { try_mst_with() }\npub fn try_mst_with() {}\nfn expect_ok(x: u32) -> u32 { x }\n",
        )]);
        let g = ItemGraph::build(&chained);
        let vs = lint_graph(&g, &[]);
        assert!(vs.iter().all(|v| v.rule != "L12"), "{vs:?}");
    }

    #[test]
    fn l12_exempts_tests_bench_and_comment_escape() {
        let in_bench = fixture(&[(
            "crates/bench/src/runner.rs",
            "pub fn run() { body(); }\npub fn try_run() { body(); }\nfn body() {}\n",
        )]);
        let g = ItemGraph::build(&in_bench);
        assert!(lint_graph(&g, &[]).iter().all(|v| v.rule != "L12"));
        let escaped = fixture(&[(
            "crates/algos/src/a.rs",
            "// different semantics, not a wrapper; lint: allow(L12)\npub fn go() { body(); }\npub fn try_go() { body(); }\nfn body() {}\n",
        )]);
        let lint = lint_workspace_with(&escaped, &[]);
        assert!(lint.violations.iter().all(|v| v.rule != "L12"));
        assert!(lint.stale_escapes.is_empty());
    }

    // ------------------------------------------------ stale allowlists

    #[test]
    fn stale_allowlist_entries_survive_to_workspace_violations() {
        // `cargo xtask lint` exits nonzero iff `lint_workspace` reports a
        // violation, so a stale L9 allowlist entry must surface there —
        // not only in the raw `lint_graph` output — and must not be
        // swallowed by escape filtering.
        let files = fixture(&[
            ("crates/core/src/oracle.rs", ORACLE_SRC),
            ("crates/bounds/src/resolver.rs", RESOLVER_SRC),
        ]);
        let lint = lint_workspace_with(&files, &["bounds::gone::nine"]);
        assert!(
            lint.violations.iter().any(|v| v.rule == "L9"
                && v.msg.contains("stale")
                && v.msg.contains("bounds::gone::nine")),
            "stale L9 entry must fail the workspace lint: {:?}",
            lint.violations
        );
    }

    // ------------------------------------------------------ stale escapes

    #[test]
    fn stale_escape_is_reported_and_used_escape_is_not() {
        let files = fixture(&[(
            "crates/core/src/x.rs",
            "fn f() {\n    // lint: allow(L6)\n    let _ = o.try_call(a, b);\n    // lint: allow(L3)\n    let y = 1;\n}\n",
        )]);
        let lint = lint_workspace_with(&files, &[]);
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
        let lint = lint_workspace_with(&files, &[]);
        assert!(lint.violations.is_empty());
        assert!(lint.stale_escapes.is_empty());
    }

    // ----------------------------- clippy: L1 L2 L4 L5 L7 L10 L11 L13 L14
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
        ("lib/src/l13_flag.rs", L13_FLAG),
        ("lib/src/l13_chain.rs", L13_CHAIN),
        ("lib/src/l13_allow.rs", L13_ALLOW),
        ("lib/src/l14_flag.rs", L14_FLAG),
        ("algos/src/l14_flag.rs", L14_FLAG),
        ("lib/src/l14_allow.rs", L14_ALLOW),
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

    // --------------------------------------------------------------- L13

    const L13_FLAG: &str = r#"use prox_graph::{Dijkstra, PartialGraph};

pub fn full(d: &mut Dijkstra, g: &PartialGraph) -> f64 {
    d.run(g, 0).get(1)
}

#[expect(clippy::disallowed_methods, reason = "L13: the exact tier")]
pub fn exact(d: &mut Dijkstra, g: &PartialGraph) -> f64 {
    d.run(g, 0).get(1)
}
"#;

    const L13_CHAIN: &str = r#"use prox_graph::{Dijkstra, PartialGraph};

pub fn bounds(d: &mut Dijkstra, g: &PartialGraph) -> f64 {
    full(d, g)
}

fn full(d: &mut Dijkstra, g: &PartialGraph) -> f64 {
    d.run(g, 0).get(1)
}
"#;

    const L13_ALLOW: &str = r#"use prox_graph::{Dijkstra, PartialGraph};

pub fn bounds(d: &mut Dijkstra, g: &PartialGraph) -> f64 {
    ensure_tree(d, g)
}

#[expect(clippy::disallowed_methods, reason = "L13: the exact tier")]
fn ensure_tree(d: &mut Dijkstra, g: &PartialGraph) -> f64 {
    d.run(g, 0).get(1)
}

#[expect(clippy::disallowed_methods, reason = "L13: no full sweep left here")]
pub fn stale(d: &mut Dijkstra, g: &PartialGraph) -> f64 {
    d.repair(g, [(0, 1, 0.5)]).get(1)
}
"#;

    /// Type-resolved and crate-wide: the direct call is flagged wherever it
    /// sits, unless an audited `#[expect]` (SPLUB's exact tier) covers it.
    #[test]
    fn l13_flags_a_full_dijkstra_run_and_accepts_an_audited_expect() {
        assert_eq!(
            clippy("lib/src/l13_flag.rs"),
            at("disallowed_methods", &[4])
        );
        let ds = clippy_diags("lib/src/l13_flag.rs");
        assert!(ds[0]
            .rendered
            .contains("prox_graph::dijkstra::Dijkstra::run"));
        assert!(ds[0].rendered.contains("L13:"), "{}", ds[0].rendered);
    }

    /// A full run behind a private helper is flagged once, at its call
    /// site: every chain from a public query path down to the sweep passes
    /// that site, so the path above it needs no finding of its own.
    #[test]
    fn l13_flags_unbounded_run_from_bounds_with_chain() {
        assert_eq!(
            clippy("lib/src/l13_chain.rs"),
            at("disallowed_methods", &[8])
        );
        let ds = clippy_diags("lib/src/l13_chain.rs");
        assert!(ds[0].rendered.contains("L13:"), "{}", ds[0].rendered);
    }

    /// L13's allowlist is its set of audited `#[expect]` sites. One on the
    /// exact-tier funnel sanctions the sweep and every path above it; one
    /// that no longer fires is itself reported, so a stale entry cannot
    /// linger.
    #[test]
    fn l13_allowlist_sanctions_the_funnel_and_flags_stale_entries() {
        assert_eq!(
            clippy("lib/src/l13_allow.rs"),
            vec![("unfulfilled_lint_expectations".to_string(), 12)]
        );
    }

    /// `(file, first line of the audited item)` of every real workspace
    /// `#[expect(clippy::disallowed_methods)]` whose reason names `rule`.
    /// xtask is skipped: its `#[expect]`s are fixture text.
    fn audited_sites(rule: &str) -> Vec<(String, String)> {
        let tag = format!("{rule}:");
        let mut sites = Vec::new();
        for (file, text) in crate::load_workspace_sources(&crate::workspace_root()) {
            if file.starts_with("crates/xtask/") {
                continue;
            }
            let mut rest = text.as_str();
            while let Some(at) = rest.find("#[expect(") {
                rest = &rest[at..];
                let Some(end) = rest.find(")]") else { break };
                let attr = &rest[..end];
                rest = &rest[end + 2..];
                if attr.contains("clippy::disallowed_methods") && attr.contains(&tag) {
                    let item = rest.lines().map(str::trim).find(|l| !l.is_empty());
                    sites.push((file.clone(), item.unwrap_or_default().to_string()));
                }
            }
        }
        sites
    }

    fn sites(want: &[(&str, &str)]) -> Vec<(String, String)> {
        want.iter()
            .map(|(f, i)| (f.to_string(), i.to_string()))
            .collect()
    }

    /// The real workspace's L13 allowlist: the exact tier is its one
    /// library site, the rest are a bench cell and test references. A new
    /// full sweep needs an entry here as well as its `#[expect]`; a stale
    /// `#[expect]` fails `cargo clippy -D warnings`.
    #[test]
    fn l13_real_allowlist_matches_the_workspace() {
        assert_eq!(
            audited_sites("L13"),
            sites(&[
                (
                    "crates/bench/benches/schemes.rs",
                    "fn bench_dijkstra_reset(b: &mut Bench) {"
                ),
                ("crates/bounds/src/splub.rs", "fn ensure_tree("),
                (
                    "crates/bounds/src/splub.rs",
                    "fn early_exit_wrap_matches_the_full_pass_bitwise() {"
                ),
                ("crates/datasets/src/roadnet.rs", "mod tests {"),
                ("crates/graph/src/dijkstra.rs", "mod tests {"),
            ])
        );
    }

    // --------------------------------------------------------------- L14

    const L14_FLAG: &str = r#"use prox_core::{Metric, Pair, WeakOracle};

pub fn shortcut<M: Metric>(w: &WeakOracle<M>, p: Pair) -> f64 {
    let guess = w.probe(p, 0);
    if w.error_at(p, 0).is_some() {
        0.0
    } else {
        guess
    }
}
"#;

    const L14_ALLOW: &str = r#"use prox_core::{Metric, Pair, WeakOracle};

pub fn weak_vote<M: Metric>(w: &WeakOracle<M>, p: Pair) -> Option<f64> {
    #[expect(clippy::disallowed_methods, reason = "L14: the quorum audit")]
    let (a, b) = (w.probe(p, 0), w.probe(p, 1));
    (a.to_bits() == b.to_bits()).then_some(a)
}
"#;

    #[test]
    fn l14_flags_an_algo_probing_the_weak_oracle_raw() {
        assert_eq!(
            clippy("algos/src/l14_flag.rs"),
            at("disallowed_methods", &[4, 5])
        );
        let ds = clippy_diags("algos/src/l14_flag.rs");
        assert!(ds.iter().all(|d| d.rendered.contains("L14:")), "{ds:?}");
    }

    /// The ban is not scoped to algorithms: every crate reaches the weak
    /// tier only through an audited site.
    #[test]
    fn l14_flags_raw_probes_in_every_crate_and_respects_allow_annotation() {
        assert_eq!(
            clippy("lib/src/l14_flag.rs"),
            at("disallowed_methods", &[4, 5])
        );
        assert_eq!(clippy("lib/src/l14_allow.rs"), vec![]);
    }

    /// The real workspace reaches the weak tier only through the cascade's
    /// quorum audit; the other audited sites are the probe's own error
    /// schedule and its reference tests.
    #[test]
    fn l14_holds_on_the_real_workspace() {
        assert_eq!(
            audited_sites("L14"),
            sites(&[
                (
                    "crates/bounds/src/cascade.rs",
                    "let v = self.weak.probe(p, attempt);"
                ),
                (
                    "crates/core/src/weak.rs",
                    "let Some(kind) = self.error_at(p, attempt) else {"
                ),
                ("crates/core/src/weak.rs", "mod tests {"),
            ])
        );
    }
}
