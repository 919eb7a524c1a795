//! The lint rules enforcing the oracle-call and determinism disciplines
//! that clippy cannot express. L1, L4, L5, L7, L9, L10, L11, L13 and L14
//! are type-resolved clippy lints configured in the `clippy.toml` files
//! (see `docs/INVARIANTS.md`); their numbers are not reused here. Their
//! tests at the end of this file run clippy itself over fixture files.
//!
//! The rules here are lexical, one file at a time, over the masked code
//! produced by [`crate::lexer::scan`]: L3 and L6 per line, L12 over the
//! file's `fn` declarations and their `impl`/`trait` targets.
//!
//! Every rule skips `#[cfg(test)]` blocks (test code is exempt) and honours
//! an escape hatch: a comment containing `lint: allow(L3)` (etc.) on the
//! flagged line or the line directly above suppresses that rule there.
//! Escapes are for *audited* sites — each one should say why it is sound —
//! and an escape that suppresses nothing is itself reported (rule
//! `stale-allow`, see [`lint_workspace`]) so dead annotations cannot
//! accumulate.
//!
//! L8, L15 and L16 are held by the compiler, not here: the observability
//! vocabularies are closed enums (`prox_obs::{EventKind, MetricName,
//! SpanName}`, with the report's event match kept exhaustive) and the
//! shared store's write-ahead log is private to `store.rs` (see
//! `docs/INVARIANTS.md`).
//!
//! | rule | scope | it forbids |
//! |------|-------|------------|
//! | L3 | `try_*` bodies in `crates/bounds` + `crates/lp` | raw float comparisons with no `DECISION_EPS`/eps margin |
//! | L6 | library crates | discarding a fallible oracle result via `.ok()` / `let _ =` (an `OracleError` must propagate or be handled, never vanish) |
//! | L12 | library crates | an infallible `X` that re-implements its fallible twin `try_X` (same file, same `impl`/`trait` target) instead of delegating to it (the copies drift apart) — see [`l12_twins`] |

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{line_of, line_starts, match_brace, scan, test_line_ranges};

/// One finding, addressable as `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id (`"L3"`, `"L6"`, `"L12"`), or
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

/// The rules (L3, L6, L12) on one file, *before* escape filtering.
fn lexical_raw(rel: &str, src: &str) -> Vec<Violation> {
    let [l3, library] = rules_for(rel);
    if !l3 && !library {
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

    let try_body_lines: Vec<(usize, usize)> = if l3 {
        let starts = line_starts(&scanned.masked);
        fn_decls(&scanned.masked)
            .into_iter()
            .filter(|d| d.name.starts_with("try_"))
            .filter_map(|d| d.body)
            .map(|(open, close)| (line_of(&starts, open), line_of(&starts, close)))
            .collect()
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
        if library && discards_fallible_result(code) {
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
    if library {
        for t in l12_twins(&scanned.masked) {
            if !t.delegates {
                push(
                    "L12",
                    t.line,
                    format!(
                        "`{}` has a fallible twin `try_{}` in the same scope but \
                         does not delegate to it; wrap the `try_` form (e.g. via \
                         `expect_ok`) so the two copies cannot drift",
                        t.path(),
                        t.name
                    ),
                );
            }
        }
    }
    out.sort_by_key(|v| v.line);
    out
}

/// True when `rel` is a lintable source path at all (library/tool sources;
/// not tests, benches, or `xtask` itself).
pub fn linted_path(rel: &str) -> bool {
    rel.ends_with(".rs")
        && (rel.starts_with("crates/") || rel.starts_with("src/"))
        && rel.contains("/src/")
        && !rel.starts_with("crates/xtask/")
}

/// Which of `[L3, library rules (L6, L12)]` apply to this path.
fn rules_for(rel: &str) -> [bool; 2] {
    // Only non-test library/tool sources are linted at all.
    if !linted_path(rel) {
        return [false; 2];
    }
    let in_crate = |c: &str| rel.starts_with(&format!("crates/{c}/"));
    let l3 = in_crate("bounds") || in_crate("lp");
    // L6 and L12: library crates only. `prox-bench` is a harness (bins +
    // benches) and may deliberately drop errors (e.g. best-effort
    // checkpoint writes); library code never may.
    let library = !in_crate("bench") && !rel.contains("/src/bin/");
    [l3, library]
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
// L12: fallible-twin drift, per file.
// --------------------------------------------------------------------------

/// One L12 pair: a `fn X` and a `fn try_X` declared in the same file under
/// the same `impl`/`trait` target, or both free.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Twin {
    /// Self type of the enclosing `impl`, or the enclosing trait's name;
    /// empty for free fns.
    target: String,
    /// `X`, the infallible name.
    name: String,
    /// 1-based line of `fn X`.
    line: usize,
    /// Whether `X` delegates to `try_X`, directly or through another twin.
    delegates: bool,
}

impl Twin {
    /// `Target::X`, or `X` for a free fn.
    fn path(&self) -> String {
        if self.target.is_empty() {
            self.name.clone()
        } else {
            format!("{}::{}", self.target, self.name)
        }
    }
}

/// One non-test `fn` declaration in masked source.
struct FnDecl {
    target: String,
    name: String,
    line: usize,
    /// Byte range of the body braces; `None` for a bodiless trait method.
    body: Option<(usize, usize)>,
}

fn is_ident_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Byte offsets of `word` in `text` that stand as a whole identifier.
fn word_at(text: &str, word: &str) -> Vec<usize> {
    let b = text.as_bytes();
    text.match_indices(word)
        .map(|(at, _)| at)
        .filter(|&at| {
            let end = at + word.len();
            (at == 0 || !is_ident_byte(b[at - 1])) && (end == b.len() || !is_ident_byte(b[end]))
        })
        .collect()
}

/// The `impl`/`trait` blocks of masked source as `(open, close, target)`
/// byte ranges. Only item-position headers count: the keyword starts its
/// line after visibility/`unsafe` modifiers, so `-> impl Trait` does not.
fn target_blocks(masked: &str) -> Vec<(usize, usize, String)> {
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    for kw in ["impl", "trait"] {
        for at in word_at(masked, kw) {
            let line_start = masked[..at].rfind('\n').map_or(0, |p| p + 1);
            let item_position = masked[line_start..at]
                .split_whitespace()
                .all(|t| t == "pub" || t.starts_with("pub(") || t == "unsafe");
            if !item_position {
                continue;
            }
            let header_end = at + masked[at..].find(['{', ';']).unwrap_or(masked.len() - at);
            if bytes.get(header_end) != Some(&b'{') {
                continue;
            }
            let Some(close) = match_brace(bytes, header_end) else {
                continue;
            };
            let header = &masked[at + kw.len()..header_end];
            let target = if kw == "trait" {
                first_path_segment(header)
            } else {
                impl_target(header)
            };
            out.push((header_end, close, target));
        }
    }
    out
}

/// The self type's name in an `impl` header (the text after `impl`):
/// `<M: Metric> Trait for Type<'_, M> where …` → `Type`.
fn impl_target(header: &str) -> String {
    // Drop everything inside `<…>` (an `->` arrow closes nothing).
    let (mut outer, mut depth, mut prev) = (String::new(), 0usize, ' ');
    for c in header.chars() {
        match c {
            '<' => depth += 1,
            '>' if prev != '-' => depth = depth.saturating_sub(1),
            _ if depth == 0 => outer.push(c),
            _ => {}
        }
        prev = c;
    }
    let words: Vec<&str> = outer
        .split_whitespace()
        .take_while(|&w| w != "where")
        .collect();
    let self_ty = words.rsplit(|&w| w == "for").next().unwrap_or_default();
    first_path_segment(&self_ty.join(" "))
}

/// The last segment of the first path in `s`, skipping `&`, lifetimes and
/// `dyn`/`mut`: `&'a mut prox::Foo<T>` → `Foo`.
fn first_path_segment(s: &str) -> String {
    let mut segment = "";
    for tok in s.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':' || c == '\''))
    {
        if tok.is_empty() || tok.starts_with('\'') || tok == "dyn" || tok == "mut" {
            continue;
        }
        segment = tok.rsplit("::").next().unwrap_or(tok);
        break;
    }
    segment.to_string()
}

/// Every `fn` declared in masked source outside `#[cfg(test)]` ranges, with
/// its innermost enclosing `impl`/`trait` target.
fn fn_decls(masked: &str) -> Vec<FnDecl> {
    let bytes = masked.as_bytes();
    let starts = line_starts(masked);
    let tests = test_line_ranges(masked);
    let blocks = target_blocks(masked);
    let mut out = Vec::new();
    for at in word_at(masked, "fn") {
        let line = line_of(&starts, at);
        if tests.iter().any(|&(lo, hi)| lo <= line && line <= hi) {
            continue;
        }
        let after = masked[at + 2..].trim_start();
        let name_len = after.bytes().take_while(|&c| is_ident_byte(c)).count();
        if name_len == 0 {
            continue; // `fn(…)` pointer type
        }
        let name = &after[..name_len];
        let name_at = masked.len() - after.len();
        // The body is the first `{` outside parens/brackets; a `;` there
        // first ends a bodiless declaration.
        let (mut depth, mut body) = (0i32, None);
        for (k, &c) in bytes.iter().enumerate().skip(name_at) {
            match c {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth -= 1,
                b';' if depth == 0 => break,
                b'{' if depth == 0 => {
                    body = match_brace(bytes, k).map(|close| (k, close));
                    break;
                }
                _ => {}
            }
        }
        let target = blocks
            .iter()
            .filter(|&&(open, close, _)| open < at && at < close)
            .max_by_key(|&&(open, _, _)| open)
            .map_or(String::new(), |(_, _, t)| t.clone());
        out.push(FnDecl {
            target,
            name: name.to_string(),
            line,
            body,
        });
    }
    out
}

/// True when `body` calls `callee` by name: `callee(` or `callee::<`.
fn calls(body: &str, callee: &str) -> bool {
    word_at(body, callee).into_iter().any(|at| {
        let tail = &body[at + callee.len()..];
        tail.starts_with('(') || tail.starts_with("::<")
    })
}

/// The L12 pairs in one file's masked source, with whether each `X`
/// delegates. `X` must call `try_X(`; otherwise it must call a twin `Y`
/// that itself delegates while `try_X` calls `try_Y(`, as in `kruskal_mst →
/// kruskal_mst_with → try_kruskal_mst_with`.
fn l12_twins(masked: &str) -> Vec<Twin> {
    let decls = fn_decls(masked);
    // The first declaration of each (target, name) pairs with the first of
    // its `try_` twin.
    let mut first: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for (k, d) in decls.iter().enumerate() {
        first.entry((&d.target, &d.name)).or_insert(k);
    }
    let twin: Vec<Option<usize>> = decls
        .iter()
        .enumerate()
        .map(|(k, d)| {
            let try_name = format!("try_{}", d.name);
            let t = *first.get(&(d.target.as_str(), try_name.as_str()))?;
            let is_first = first[&(d.target.as_str(), d.name.as_str())] == k;
            (is_first && d.body.is_some()).then_some(t)
        })
        .collect();
    let bodies: Vec<&str> = decls
        .iter()
        .map(|d| d.body.map_or("", |(open, close)| &masked[open..=close]))
        .collect();

    fn delegates(
        x: usize,
        decls: &[FnDecl],
        twin: &[Option<usize>],
        bodies: &[&str],
        on_path: &mut BTreeSet<usize>,
    ) -> bool {
        let Some(t) = twin[x] else { return false };
        if calls(bodies[x], &decls[t].name) {
            return true;
        }
        if !on_path.insert(x) {
            return false; // cycle guard
        }
        let found = (0..decls.len()).any(|y| {
            y != x
                && decls[y].target == decls[x].target
                && twin[y].is_some_and(|ty| {
                    calls(bodies[x], &decls[y].name)
                        && calls(bodies[t], &decls[ty].name)
                        && delegates(y, decls, twin, bodies, on_path)
                })
        });
        on_path.remove(&x);
        found
    }

    (0..decls.len())
        .filter(|&k| twin[k].is_some())
        .map(|k| Twin {
            target: decls[k].target.clone(),
            name: decls[k].name.clone(),
            line: decls[k].line,
            delegates: delegates(k, &decls, &twin, &bodies, &mut BTreeSet::new()),
        })
        .collect()
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
}

/// Lints a workspace snapshot (`(workspace-relative path, source)` pairs)
/// file by file, with escape filtering and stale-escape detection.
pub fn lint_workspace(files: &[(String, String)]) -> WorkspaceLint {
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

    // --------------------------------------------------------------- L12

    fn fixture(files: &[(&str, &str)]) -> Vec<(String, String)> {
        files
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn l12_flags_a_non_delegating_twin() {
        let src = "pub fn prim() { body(); }\npub fn try_prim() { body(); }\nfn body() {}\n";
        let vs = lint_source("crates/algos/src/prim.rs", src);
        assert_eq!(lines(&vs, "L12"), vec![1], "{vs:?}");
        assert!(vs[0].msg.contains("`prim` has a fallible twin `try_prim`"));
        // Methods pair within their `impl` target, and the message names it.
        let src = "impl<M: Metric> Knn<'_, M> {\n    pub fn run(&self) {}\n    pub fn try_run(&self) {}\n}\n";
        let vs = lint_source("crates/algos/src/knn.rs", src);
        assert_eq!(lines(&vs, "L12"), vec![2], "{vs:?}");
        assert!(vs[0].msg.contains("`Knn::run`"), "{}", vs[0].msg);
    }

    #[test]
    fn l12_accepts_direct_and_chained_delegation() {
        let direct = "pub fn mst() { expect_ok(try_mst()) }\npub fn try_mst() {}\nfn expect_ok(x: u32) -> u32 { x }\n";
        assert!(lint_source("crates/algos/src/a.rs", direct).is_empty());
        // kruskal-style: mst -> mst_with, try_mst -> try_mst_with, and the
        // `_with` pair delegates — so `mst` counts as delegating too.
        let chained = "pub fn mst() { mst_with() }\npub fn mst_with() { expect_ok(try_mst_with()) }\npub fn try_mst() { try_mst_with() }\npub fn try_mst_with() {}\nfn expect_ok(x: u32) -> u32 { x }\n";
        let vs = lint_source("crates/algos/src/b.rs", chained);
        assert!(vs.is_empty(), "{vs:?}");
        // A method delegating through `self.` and a turbofish.
        let method = "impl Oracle {\n    pub fn call(&self) -> f64 {\n        expect_ok(self.try_call::<f64>())\n    }\n    pub fn try_call<T>(&self) -> T {}\n}\n";
        assert!(lint_source("crates/core/src/o.rs", method).is_empty());
    }

    /// Twins pair only under the same `impl`/`trait` target: a free `go`
    /// and a method `try_go`, or methods of two types, are not twins.
    #[test]
    fn l12_pairs_twins_by_impl_or_trait_target() {
        let src = "pub fn go() {}\nimpl A {\n    fn try_go(&self) {}\n    fn stop(&self) {}\n}\nimpl Trait for B<u32> {\n    fn try_stop(&self) {}\n}\npub trait T {\n    fn less(&self);\n    fn try_less(&self);\n}\n";
        assert_eq!(l12_twins(&scan(src).masked), vec![]);
        let src = "impl A {\n    fn go(&self) {}\n}\nimpl<T: Fn() -> u32> Trait for A where T: Copy {\n    fn try_go(&self) {}\n}\n";
        let twins = l12_twins(&scan(src).masked);
        assert_eq!(twins.len(), 1, "{twins:?}");
        assert_eq!(
            (twins[0].path(), twins[0].line, twins[0].delegates),
            ("A::go".to_string(), 2, false)
        );
    }

    #[test]
    fn l12_exempts_tests_bench_and_comment_escape() {
        let twin = "pub fn run() { body(); }\npub fn try_run() { body(); }\nfn body() {}\n";
        assert!(lint_source("crates/bench/src/runner.rs", twin).is_empty());
        assert!(lint_source("crates/algos/src/bin/tool.rs", twin).is_empty());
        let in_test = format!("#[cfg(test)]\nmod tests {{\n{twin}}}\n");
        assert!(lint_source("crates/algos/src/a.rs", &in_test).is_empty());
        let escaped = fixture(&[(
            "crates/algos/src/a.rs",
            "// different semantics, not a wrapper; lint: allow(L12)\npub fn go() { body(); }\npub fn try_go() { body(); }\nfn body() {}\n",
        )]);
        let lint = lint_workspace(&escaped);
        assert!(lint.violations.is_empty(), "{:?}", lint.violations);
        assert!(lint.stale_escapes.is_empty());
    }

    const L12_TWINS: &[(&str, &str)] = &[
        ("crates/algos/src/average_linkage.rs", "average_linkage"),
        ("crates/algos/src/average_linkage.rs", "average_linkage_cut"),
        ("crates/algos/src/clarans.rs", "clarans"),
        ("crates/algos/src/complete_linkage.rs", "complete_linkage"),
        ("crates/algos/src/kcenter.rs", "k_center"),
        ("crates/algos/src/knng.rs", "knn_query"),
        ("crates/algos/src/knng.rs", "knn_graph"),
        ("crates/algos/src/kruskal.rs", "kruskal_mst"),
        ("crates/algos/src/kruskal.rs", "kruskal_mst_with"),
        ("crates/algos/src/linkage.rs", "single_linkage"),
        ("crates/algos/src/pam.rs", "pam"),
        ("crates/algos/src/prim.rs", "prim_mst"),
        ("crates/algos/src/range.rs", "range_members"),
        ("crates/algos/src/range.rs", "range_query"),
        ("crates/algos/src/tsp.rs", "tsp_2opt"),
        ("crates/bounds/src/bootstrap.rs", "select_maxmin_pivots"),
        ("crates/bounds/src/bootstrap.rs", "laesa_bootstrap"),
        ("crates/bounds/src/resolver.rs", "DistanceResolver::less"),
        (
            "crates/bounds/src/resolver.rs",
            "DistanceResolver::less_sum2",
        ),
        ("crates/bounds/src/tlaesa.rs", "Tlaesa::build"),
        ("crates/core/src/oracle.rs", "Oracle::call"),
        ("crates/core/src/oracle.rs", "Oracle::call_pair"),
    ];

    /// The twin pairs L12 finds in the real workspace, all delegating. The
    /// list is pinned so the rule cannot pass by finding nothing; a new
    /// pair needs an entry here.
    #[test]
    fn l12_real_twins_match_the_workspace() {
        let mut found = Vec::new();
        for (file, text) in crate::load_workspace_sources(&crate::workspace_root()) {
            if rules_for(&file)[1] {
                for t in l12_twins(&scan(&text).masked) {
                    assert!(t.delegates, "{file}: `{}` does not delegate", t.path());
                    found.push((file.clone(), t.path()));
                }
            }
        }
        assert_eq!(found, sites(L12_TWINS));
    }

    // ------------------------------------------------------ stale escapes

    #[test]
    fn stale_escape_is_reported_and_used_escape_is_not() {
        let files = fixture(&[(
            "crates/core/src/x.rs",
            "fn f() {\n    // lint: allow(L6)\n    let _ = o.try_call(a, b);\n    // lint: allow(L3)\n    let y = 1;\n}\n",
        )]);
        let lint = lint_workspace(&files);
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
        let lint = lint_workspace(&files);
        assert!(lint.violations.is_empty());
        assert!(lint.stale_escapes.is_empty());
    }

    // ----------------------------- clippy: L1 L4 L5 L7 L9 L10 L11 L13 L14
    //
    // These rules are clippy lints configured by the workspace's
    // `clippy.toml` files and crate-root `#![deny]`s. The tests run the real
    // `cargo clippy` over fixture files (see `crate::clippy_fixture`);
    // `lib/` and `algos/` read the root config, `bench/` its own.

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
        ("algos/src/l9_flag.rs", L9_FLAG),
        ("lib/src/l9_flag.rs", L9_FLAG),
        ("algos/src/l9_guarded.rs", L9_GUARDED),
        ("algos/src/l9_chain.rs", L9_CHAIN),
        ("lib/src/l9_allow.rs", L9_ALLOW),
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

    // ---------------------------------------------------------------- L9

    const L9_FLAG: &str = r#"use prox_core::{Metric, Oracle, OracleError, Pair};

pub fn shortcut<M: Metric>(o: &Oracle<M>, p: Pair) -> Result<f64, OracleError> {
    o.try_call_pair(p)
}

pub fn raw<M: Metric>(o: &Oracle<M>, p: Pair) -> f64 {
    o.call_pair(p) + o.call(0, 1)
}
"#;

    const L9_GUARDED: &str = r#"use prox_core::{Metric, Oracle, Pair};

pub trait Resolver {
    fn resolve(&mut self, p: Pair) -> f64;
}

pub struct Ruler;

impl Ruler {
    pub fn call(&self, a: u32, b: u32) -> u32 {
        a.abs_diff(b)
    }
}

pub fn guarded<M: Metric>(r: &mut dyn Resolver, o: &Oracle<M>, x: &Ruler) -> (f64, u64, u32) {
    (r.resolve(Pair::new(0, 1)), o.calls(), x.call(0, 1))
}
"#;

    const L9_CHAIN: &str = r#"use prox_core::{Metric, Oracle};

pub fn leaky<M: Metric>(o: &Oracle<M>) -> f64 {
    probe(o)
}

fn probe<M: Metric>(o: &Oracle<M>) -> f64 {
    o.call(0, 1)
}
"#;

    const L9_ALLOW: &str = r#"use prox_core::{Metric, Oracle, OracleError};

pub fn bootstrap<M: Metric>(o: &Oracle<M>) -> Result<f64, OracleError> {
    try_pivot_row(o)
}

#[expect(clippy::disallowed_methods, reason = "L9: builds the bound tables")]
fn try_pivot_row<M: Metric>(o: &Oracle<M>) -> Result<f64, OracleError> {
    o.try_call(0, 1)
}

#[expect(clippy::disallowed_methods, reason = "L9: no oracle call left here")]
pub fn stale<M: Metric>(o: &Oracle<M>) -> usize {
    o.n()
}
"#;

    /// Type-resolved and crate-wide: a direct oracle call is flagged in
    /// `crates/algos` and in every other crate alike (the algorithms-only
    /// ban once numbered L2 is part of L9), with its `L9:` reason.
    #[test]
    fn l9_flags_a_direct_oracle_call_with_its_reason() {
        for file in ["algos/src/l9_flag.rs", "lib/src/l9_flag.rs"] {
            assert_eq!(clippy(file), at("disallowed_methods", &[4, 8]), "{file}");
            let ds = clippy_diags(file);
            assert!(ds.iter().all(|d| d.rendered.contains("L9:")), "{ds:?}");
            assert!(ds[0]
                .rendered
                .contains("prox_core::oracle::Oracle::try_call_pair"));
        }
    }

    /// Only the five oracle call methods are banned: an algorithm speaking
    /// a resolver, the oracle's bookkeeping accessors and a same-named
    /// method of another type are clean.
    #[test]
    fn l9_accepts_resolver_guarded_paths() {
        assert_eq!(clippy("algos/src/l9_guarded.rs"), vec![]);
    }

    /// A call behind a private helper is flagged once, at its call site:
    /// every chain from a public API down to the oracle passes that site,
    /// so the path above it needs no finding of its own.
    #[test]
    fn l9_flags_a_public_leak_with_its_chain() {
        assert_eq!(
            clippy("algos/src/l9_chain.rs"),
            at("disallowed_methods", &[8])
        );
    }

    /// L9's allowlist is its set of audited `#[expect]` sites. One on the
    /// funnel sanctions the call and every path above it; one that no
    /// longer fires is itself reported, so a stale entry cannot linger.
    #[test]
    fn l9_allowlist_sanctions_audited_paths_and_flags_stale_entries() {
        assert_eq!(
            clippy("lib/src/l9_allow.rs"),
            vec![("unfulfilled_lint_expectations".to_string(), 12)]
        );
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

    const L9_SITES: &[(&str, &str)] = &[
        ("crates/bench/benches/schemes.rs", "fn feed(scheme: &mut dyn BoundScheme, metric: &(dyn prox_core::Metric + Send + Sync), n: usize) {"),
        ("crates/bench/benches/schemes.rs", "fn bench_updates(b: &mut Bench) {"),
        ("crates/bench/benches/schemes.rs", "fn bench_tri_access(b: &mut Bench) {"),
        ("crates/bench/benches/schemes.rs", "fn bench_splub_cold(b: &mut Bench) {"),
        ("crates/bench/benches/schemes.rs", "fn bench_tri_adjacency(b: &mut Bench) {"),
        ("crates/bench/benches/schemes.rs", "fn bench_oracle_fault_layer(b: &mut Bench) {"),
        ("crates/bench/benches/schemes.rs", "fn bench_oracle_trace_layer(b: &mut Bench) {"),
        ("crates/bench/benches/schemes.rs", "fn bench_oracle_trust_layer(b: &mut Bench) {"),
        ("crates/bench/benches/schemes.rs", "fn bench_store_layer(b: &mut Bench) {"),
        ("crates/bench/benches/schemes.rs", "fn bench_store_rounds(b: &mut Bench) {"),
        ("crates/bench/src/experiments/fig3.rs", "fn quality_setup(n: usize, extra_edges: usize) -> QualityBench {"),
        ("crates/bench/src/experiments/fig3.rs", "pub fn fig3b(scale: Scale) {"),
        ("crates/bench/src/experiments/fig3.rs", "pub fn fig3c(scale: Scale) {"),
        ("crates/bench/src/experiments/fig5.rs", "pub fn fig5a(scale: Scale) {"),
        ("crates/bounds/src/bootstrap.rs", "pub fn try_select_maxmin_pivots<M: Metric>("),
        ("crates/bounds/src/resolver.rs", "fn voted_value(&mut self, p: Pair, k: u32) -> Result<f64, OracleError> {"),
        ("crates/bounds/src/resolver.rs", "fn resolve_audited(&mut self, p: Pair) -> Result<f64, OracleError> {"),
        ("crates/bounds/src/resolver.rs", "fn resolve(&mut self, p: Pair) -> f64 {"),
        ("crates/bounds/src/resolver.rs", "fn resolve_fallible(&mut self, p: Pair) -> Result<f64, OracleError> {"),
        ("crates/bounds/src/resolver.rs", "fn resolve_and_preload_never_allocate_the_memo() {"),
        ("crates/bounds/src/resolver.rs", "fn one_off_anchor_rows_skip_the_memo_and_revisited_columns_hit_it() {"),
        ("crates/bounds/src/tlaesa.rs", "pub fn try_build<M: Metric>("),
        ("crates/core/src/oracle.rs", "pub fn call(&self, a: ObjectId, b: ObjectId) -> f64 {"),
        ("crates/core/src/oracle.rs", "pub fn call_pair(&self, p: Pair) -> f64 {"),
        ("crates/core/src/oracle.rs", "pub fn try_call_pair(&self, p: Pair) -> Result<f64, OracleError> {"),
        ("crates/core/src/oracle.rs", "mod tests {"),
        ("crates/index/src/bktree.rs", "fn insert<M: Metric>(oracle: &Oracle<M>, mut node: &mut Box<Node>, id: ObjectId, quantum: f64) {"),
        ("crates/index/src/bktree.rs", "fn search<M: Metric>("),
        ("crates/index/src/gnat.rs", "fn dist<M: Metric>(oracle: &Oracle<M>, a: ObjectId, b: ObjectId) -> f64 {"),
        ("crates/index/src/mtree.rs", "fn dist<M: Metric>(oracle: &Oracle<M>, a: ObjectId, b: ObjectId) -> f64 {"),
        ("crates/index/src/vptree.rs", "fn build_node<M: Metric>(oracle: &Oracle<M>, ids: &mut [ObjectId]) -> Option<Box<Node>> {"),
        ("crates/index/src/vptree.rs", "fn search_knn<M: Metric>("),
        ("crates/index/src/vptree.rs", "fn search_range<M: Metric>("),
        ("crates/lp/src/dft.rs", "fn resolve(&mut self, p: Pair) -> f64 {"),
        ("crates/lp/src/dft.rs", "fn resolve_fallible(&mut self, p: Pair) -> Result<f64, prox_core::OracleError> {"),
    ];

    /// The real workspace's L9 allowlist: every direct oracle call outside
    /// a resolver. The oracle's own delegations and tests, the resolvers'
    /// paid and voted resolutions, the two bound-table builders that run
    /// before any resolver exists, the §6.1 metric indexes (baselines
    /// metered by the oracle, not plugged algorithms) and the bench cells
    /// that feed schemes exact distances. A new direct call needs an entry
    /// here as well as its `#[expect]`.
    #[test]
    fn l9_real_allowlist_matches_the_workspace() {
        assert_eq!(audited_sites("L9"), sites(L9_SITES));
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
