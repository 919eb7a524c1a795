//! The workspace item graph: items and best-effort call edges.
//!
//! [`ItemGraph::build`] parses every source file (token-tree level — no
//! full AST, no rustc) into:
//!
//! * **Items** — every `fn`, attributed to its crate, module path, and
//!   containing `impl`/`trait` block, with visibility and `#[cfg(test)]`
//!   status. `impl Trait for Type` methods carry both the self type and the
//!   trait name, which is what the L9 choke-point analysis keys on.
//! * **Edges** — call sites inside `fn` bodies (`foo(…)`, `x.method(…)`,
//!   `Path::assoc(…)`), name-resolved against the item index.
//!
//! ## Name-resolution limits (the soundness posture)
//!
//! Resolution is by *name*, scoped by qualifier / module / crate — there is
//! no type inference. An unqualified or method call resolves to **every**
//! plausible item of that name, so the edge set **over-approximates** the
//! true call graph. That direction is deliberate: the graph rules (L9
//! oracle-reachability) forbid *paths*, so an over-approximated graph can
//! produce false positives (silenced by the audited allowlist) but cannot
//! miss a real leak through any workspace-visible call chain. What the
//! graph cannot see: calls through function pointers / closures passed as
//! values, macro-generated code, trait objects dispatched under a
//! different method name, and receiver calls whose name collides with a
//! std container method ([`STD_METHOD_NAMES`] — those would otherwise wire
//! every map `.insert(…)` to `MTree::insert`). None of those can smuggle
//! an oracle call today — `Oracle::call*` are inherent methods invoked by
//! name — and clippy's type-resolved L2 (`disallowed-methods` in
//! `crates/algos/clippy.toml`) remains as a second, independent layer.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{scan, test_line_ranges, tokens, Tok, TokKind};

/// Item visibility, as written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vis {
    /// Plain `pub` — part of the crate's public API.
    Pub,
    /// `pub(crate)` / `pub(super)` / `pub(in …)`.
    Restricted,
    /// No visibility keyword.
    Private,
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct Item {
    pub id: usize,
    /// Crate directory name (`algos`, `bounds`, …; the root facade is
    /// `prox`).
    pub krate: String,
    /// Module path within the crate (file-derived plus inline `mod`s).
    pub module: Vec<String>,
    /// Self type when the fn lives in an `impl` block, or the trait name
    /// when it is a trait declaration's (default) method.
    pub container: Option<String>,
    /// Trait name for `impl Trait for Type` methods and trait-decl methods.
    pub trait_of: Option<String>,
    pub name: String,
    pub vis: Vis,
    /// Whether the first parameter is a `self` receiver — only such items
    /// are candidates for `.name(…)` method-call resolution.
    pub has_self: bool,
    /// Under `#[cfg(test)]`, or in a `tests/` / `benches/` / `examples/`
    /// file.
    pub is_test: bool,
    pub file: String,
    pub line: usize,
}

impl Item {
    /// `crate::module::Container::name` — the display / allowlist key.
    pub fn path(&self) -> String {
        let mut s = self.krate.clone();
        for m in &self.module {
            s.push_str("::");
            s.push_str(m);
        }
        if let Some(c) = &self.container {
            s.push_str("::");
            s.push_str(c);
        }
        s.push_str("::");
        s.push_str(&self.name);
        s
    }
}

/// One resolved call edge (caller item → callee item).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    pub from: usize,
    pub to: usize,
    /// 1-based line of the call site.
    pub line: usize,
}

/// The whole-workspace item graph.
pub struct ItemGraph {
    pub items: Vec<Item>,
    pub edges: Vec<Edge>,
    /// Forward adjacency: `out[i]` = indices into `edges` leaving item `i`.
    pub out: Vec<Vec<usize>>,
    /// Reverse adjacency: `inc[i]` = indices into `edges` entering item `i`.
    pub inc: Vec<Vec<usize>>,
}

/// An unresolved call site recorded during parsing.
#[derive(Debug, Clone)]
struct CallRef {
    name: String,
    /// `q` in `q::name(…)`; `Self` is rewritten to the current container.
    qualifier: Option<String>,
    /// True for `.name(…)` receiver calls.
    method: bool,
    line: usize,
}

/// Parser context for one lexical scope.
#[derive(Clone)]
struct Ctx {
    module: Vec<String>,
    container: Option<String>,
    trait_of: Option<String>,
    in_test: bool,
}

struct Parser<'a> {
    toks: &'a [Tok],
    file: String,
    krate: String,
    items: Vec<Item>,
    calls: Vec<(usize, CallRef)>,
    /// 1-based inclusive line ranges of `#[cfg(test)]` items (belt and
    /// braces next to attribute tracking: covers attributed `use` items
    /// and keeps parity with the lexical rules).
    test_ranges: Vec<(usize, usize)>,
}

/// Method names shared with std containers/iterators/options: `.name(…)`
/// receiver calls with these names do NOT produce edges (the receiver is
/// almost always a std type). A *qualified* call (`MTree::insert`) still
/// resolves normally, so workspace methods with these names stay reachable
/// by name when the type is spelled out.
const STD_METHOD_NAMES: &[&str] = &[
    "insert",
    "get",
    "get_mut",
    "remove",
    "push",
    "pop",
    "contains",
    "contains_key",
    "entry",
    "extend",
    "append",
    "clear",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "keys",
    "values",
    "drain",
    "retain",
    "next",
    "last",
    "first",
    "take",
    "replace",
    "sort",
    "sort_by",
    "split_off",
    "find",
    "map",
    "filter",
    "fold",
    "any",
    "all",
    "count",
    "min",
    "max",
    "abs",
    "clone",
    "get_or_insert",
];

const KEYWORDS_NEVER_CALLS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "in", "as", "move", "ref", "mut", "let",
    "pub", "use", "crate", "super", "self", "where", "unsafe", "dyn", "impl", "fn", "else",
    "break", "continue", "await",
];

impl<'a> Parser<'a> {
    fn in_test_lines(&self, line: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(lo, hi)| lo <= line && line <= hi)
    }

    /// Index of the token matching `open` (`(`/`[`/`{`), or `end`.
    fn match_delim(&self, open: usize, end: usize) -> usize {
        let (o, c) = match self.toks[open].text.as_str() {
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            "{" => ("{", "}"),
            _ => return open,
        };
        let mut depth = 0usize;
        let mut i = open;
        while i < end {
            let t = &self.toks[i];
            if t.kind == TokKind::Punct {
                if t.text == o {
                    depth += 1;
                } else if t.text == c {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
            }
            i += 1;
        }
        end
    }

    /// Parses the token range `[i, end)` as item-position code.
    /// `current_fn` is the innermost enclosing fn (calls attribute there).
    fn walk(&mut self, mut i: usize, end: usize, ctx: &Ctx, current_fn: Option<usize>) {
        let mut pending_test = false;
        let mut pending_vis = Vis::Private;
        while i < end {
            let t = &self.toks[i];
            match (t.kind, t.text.as_str()) {
                // Attribute: skip, noting #[cfg(test)].
                (TokKind::Punct, "#") => {
                    if i + 1 < end && self.toks[i + 1].text == "[" {
                        let close = self.match_delim(i + 1, end);
                        let has = |s: &str| {
                            self.toks[i + 2..close]
                                .iter()
                                .any(|t| t.kind == TokKind::Ident && t.text == s)
                        };
                        if has("cfg") && has("test") {
                            pending_test = true;
                        }
                        i = close + 1;
                    } else {
                        i += 1;
                    }
                }
                (TokKind::Ident, "pub") => {
                    pending_vis = Vis::Pub;
                    if i + 1 < end && self.toks[i + 1].text == "(" {
                        pending_vis = Vis::Restricted;
                        i = self.match_delim(i + 1, end) + 1;
                    } else {
                        i += 1;
                    }
                }
                (TokKind::Ident, "mod") => {
                    let name = self.ident_at(i + 1, end);
                    let (body, after) = self.find_body(i + 1, end);
                    if let (Some(name), Some((open, close))) = (name, body) {
                        let mut sub = ctx.clone();
                        sub.module.push(name);
                        sub.in_test |= pending_test;
                        self.walk(open + 1, close, &sub, None);
                    }
                    i = after;
                    (pending_test, pending_vis) = (false, Vis::Private);
                }
                (TokKind::Ident, "trait") => {
                    let name = self.ident_at(i + 1, end);
                    let (body, after) = self.find_body(i + 1, end);
                    if let (Some(name), Some((open, close))) = (name, body) {
                        let mut sub = ctx.clone();
                        sub.container = Some(name.clone());
                        sub.trait_of = Some(name);
                        sub.in_test |= pending_test;
                        self.walk(open + 1, close, &sub, None);
                    }
                    i = after;
                    (pending_test, pending_vis) = (false, Vis::Private);
                }
                (TokKind::Ident, "impl") => {
                    let (body, after) = self.find_body(i + 1, end);
                    if let Some((open, close)) = body {
                        let (trait_of, self_ty) = self.impl_header(i + 1, open);
                        let mut sub = ctx.clone();
                        sub.container = self_ty;
                        sub.trait_of = trait_of;
                        sub.in_test |= pending_test;
                        self.walk(open + 1, close, &sub, None);
                    }
                    i = after;
                    (pending_test, pending_vis) = (false, Vis::Private);
                }
                (TokKind::Ident, "fn") => {
                    let name = self.ident_at(i + 1, end);
                    let (body, after) = self.find_body(i + 1, end);
                    if let Some(name) = name {
                        let line = self.toks[i].line;
                        let id = self.items.len();
                        let has_self = self.first_param_is_self(i + 2, end);
                        self.items.push(Item {
                            id,
                            krate: self.krate.clone(),
                            module: ctx.module.clone(),
                            container: ctx.container.clone(),
                            trait_of: ctx.trait_of.clone(),
                            name,
                            vis: pending_vis,
                            has_self,
                            is_test: ctx.in_test || pending_test || self.in_test_lines(line),
                            file: self.file.clone(),
                            line,
                        });
                        if let Some((open, close)) = body {
                            // Body only: the signature's `Fn(..)` bounds and
                            // `-> impl Trait` types must not read as calls.
                            self.walk(open + 1, close, ctx, Some(id));
                        }
                    }
                    i = after;
                    (pending_test, pending_vis) = (false, Vis::Private);
                }
                // Items whose bodies never contain calls we care about:
                // skip to their end so field/variant types stay inert.
                (TokKind::Ident, "struct" | "enum" | "union" | "static" | "const" | "type")
                    if current_fn.is_none() =>
                {
                    let (_, after) = self.find_body(i + 1, end);
                    i = after;
                    (pending_test, pending_vis) = (false, Vis::Private);
                }
                (TokKind::Ident, "use" | "extern") if current_fn.is_none() => {
                    while i < end && self.toks[i].text != ";" {
                        i += 1;
                    }
                    i += 1;
                    (pending_test, pending_vis) = (false, Vis::Private);
                }
                (TokKind::Ident, name) if current_fn.is_some() => {
                    // Call-site detection inside a fn body.
                    if i + 1 < end
                        && self.toks[i + 1].text == "("
                        && !KEYWORDS_NEVER_CALLS.contains(&name)
                    {
                        let prev = i.checked_sub(1).map(|p| self.toks[p].text.as_str());
                        let method = prev == Some(".");
                        let qualifier = if prev == Some("::") {
                            i.checked_sub(2)
                                .map(|q| &self.toks[q])
                                .filter(|t| t.kind == TokKind::Ident)
                                .map(|t| t.text.clone())
                                .map(|q| {
                                    if q == "Self" {
                                        ctx.container.clone().unwrap_or(q)
                                    } else {
                                        q
                                    }
                                })
                        } else {
                            None
                        };
                        // `fn name(` is a nested decl, handled above; a bare
                        // name preceded by `fn` cannot reach here.
                        self.calls.push((
                            current_fn.unwrap_or_default(),
                            CallRef {
                                name: name.to_string(),
                                qualifier,
                                method,
                                line: t.line,
                            },
                        ));
                    }
                    i += 1;
                }
                _ => i += 1,
            }
        }
    }

    fn ident_at(&self, i: usize, end: usize) -> Option<String> {
        (i < end && self.toks[i].kind == TokKind::Ident).then(|| self.toks[i].text.clone())
    }

    /// From just past a fn's name: skips an optional generics list, then
    /// checks whether the first parameter (tokens up to the first `,` at
    /// paren depth 1) contains a `self` receiver.
    fn first_param_is_self(&self, mut i: usize, end: usize) -> bool {
        if i < end && self.toks[i].text == "<" {
            i = self.skip_angles(i, end);
        }
        if i >= end || self.toks[i].text != "(" {
            return false;
        }
        let close = self.match_delim(i, end);
        let mut j = i + 1;
        let mut depth = 0usize;
        while j < close {
            match self.toks[j].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth = depth.saturating_sub(1),
                "," if depth == 0 => return false,
                "self" if depth == 0 => return true,
                _ => {}
            }
            j += 1;
        }
        false
    }

    /// From an item keyword's successor, finds the item body `{…}` (token
    /// indices of `{` and `}`) or `None` if a `;` ends the item first.
    /// Returns `(body, index-after-item)`.
    fn find_body(&self, mut i: usize, end: usize) -> (Option<(usize, usize)>, usize) {
        while i < end {
            match self.toks[i].text.as_str() {
                "{" => {
                    let close = self.match_delim(i, end);
                    return (Some((i, close)), close + 1);
                }
                ";" => return (None, i + 1),
                // Parens and brackets in signatures may contain `;` (array
                // types) — skip them wholesale.
                "(" | "[" => i = self.match_delim(i, end) + 1,
                _ => i += 1,
            }
        }
        (None, end)
    }

    /// Extracts `(trait, self_type)` from the tokens of an `impl` header
    /// (`impl<G> Trait<A> for Type<G>` / `impl<G> Type<G>`), i.e. the
    /// range between the `impl` keyword and the body `{`.
    fn impl_header(&self, start: usize, body_open: usize) -> (Option<String>, Option<String>) {
        let mut i = start;
        // Skip the generics introducer `<…>` if present.
        if i < body_open && self.toks[i].text == "<" {
            i = self.skip_angles(i, body_open);
        }
        let (first, mut j) = self.path_head(i, body_open);
        // A `for` at this level splits trait from self type.
        while j < body_open && self.toks[j].text != "for" && self.toks[j].text != "where" {
            j += 1;
        }
        if j < body_open && self.toks[j].text == "for" {
            let (second, _) = self.path_head(j + 1, body_open);
            (first, second)
        } else {
            (None, first)
        }
    }

    /// Reads a type path at `i`, returning its *significant* ident (the
    /// last path segment before generic args — `prox_core::Metric` →
    /// `Metric`, `BoundResolver<'o, M, S>` → `BoundResolver`) and the
    /// index just past the path.
    fn path_head(&self, mut i: usize, end: usize) -> (Option<String>, usize) {
        let mut last = None;
        // Leading `&`/`dyn`/`mut` are irrelevant to naming.
        while i < end && matches!(self.toks[i].text.as_str(), "&" | "dyn" | "mut" | "'") {
            i += 1;
        }
        while i < end {
            let t = &self.toks[i];
            if t.kind == TokKind::Ident && t.text != "for" && t.text != "where" {
                last = Some(t.text.clone());
                i += 1;
                if i < end && self.toks[i].text == "::" {
                    i += 1;
                    continue;
                }
                if i < end && self.toks[i].text == "<" {
                    i = self.skip_angles(i, end);
                }
                break;
            }
            break;
        }
        (last, i)
    }

    /// Skips a balanced `<…>` starting at `i` (which holds `<`). `->`
    /// cannot appear here unmerged because the tokenizer emits `-` and `>`
    /// separately — a `>` preceded by `-` is not counted as a close.
    fn skip_angles(&self, i: usize, end: usize) -> usize {
        let mut depth = 0usize;
        let mut j = i;
        while j < end {
            match self.toks[j].text.as_str() {
                "<" => depth += 1,
                ">" => {
                    if j > 0 && self.toks[j - 1].text == "-" {
                        // `->` arrow, not a closing angle.
                    } else {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            return j + 1;
                        }
                    }
                }
                _ => {}
            }
            j += 1;
        }
        end
    }
}

/// Crate attribution for a workspace-relative path.
fn krate_of(rel: &str) -> String {
    if let Some(rest) = rel.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or("unknown").to_string()
    } else {
        "prox".to_string()
    }
}

/// File-derived module path: path components under `src/` minus the file
/// stem conventions (`lib.rs`/`main.rs`/`mod.rs` name their parent).
fn module_of(rel: &str) -> Vec<String> {
    let after_src = rel
        .split_once("/src/")
        .map(|(_, tail)| tail)
        .or_else(|| rel.split_once("src/").map(|(_, tail)| tail))
        .unwrap_or(rel);
    let mut parts: Vec<String> = after_src.split('/').map(str::to_string).collect();
    if let Some(last) = parts.last_mut() {
        *last = last.trim_end_matches(".rs").to_string();
        if last == "lib" || last == "main" || last == "mod" {
            parts.pop();
        }
    }
    parts
}

/// True for files that are test/bench/example targets in their entirety.
fn file_is_test(rel: &str) -> bool {
    rel.contains("/tests/") || rel.contains("/benches/") || rel.contains("/examples/")
}

impl ItemGraph {
    /// Parses `files` (`(workspace-relative path, source)` pairs) and
    /// resolves call edges. Order-deterministic for a fixed input order.
    pub fn build(files: &[(String, String)]) -> ItemGraph {
        let mut items: Vec<Item> = Vec::new();
        let mut raw_calls: Vec<(usize, CallRef)> = Vec::new();
        for (rel, src) in files {
            if !rel.ends_with(".rs") {
                continue;
            }
            let scanned = scan(src);
            let toks = tokens(&scanned.masked);
            let mut p = Parser {
                toks: &toks,
                file: rel.clone(),
                krate: krate_of(rel),
                items: Vec::new(),
                calls: Vec::new(),
                test_ranges: test_line_ranges(&scanned.masked),
            };
            let ctx = Ctx {
                module: module_of(rel),
                container: None,
                trait_of: None,
                in_test: file_is_test(rel),
            };
            let end = toks.len();
            p.walk(0, end, &ctx, None);
            let base = items.len();
            for mut it in p.items {
                it.id += base;
                items.push(it);
            }
            for (fid, c) in p.calls {
                raw_calls.push((fid + base, c));
            }
        }

        // Name index over non-test items: live code cannot call cfg(test)
        // items, and excluding them keeps edges from tests pointed at the
        // real definitions.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for it in &items {
            if !it.is_test {
                by_name.entry(&it.name).or_default().push(it.id);
            }
        }

        let mut edge_set: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut edges: Vec<Edge> = Vec::new();
        for (from, call) in &raw_calls {
            let Some(cands) = by_name.get(call.name.as_str()) else {
                continue; // std / external / tuple ctor — no workspace item
            };
            let caller = &items[*from];
            let chosen: Vec<usize> = if let Some(q) = &call.qualifier {
                // A qualified call resolves only within the named scope. No
                // match means the qualifier is an external type (`HashMap`,
                // `Vec`, …) whose method merely shares a workspace name —
                // linking those would wire `HashMap::new()` to every
                // workspace `new`.
                cands
                    .iter()
                    .copied()
                    .filter(|&id| {
                        let it = &items[id];
                        it.container.as_deref() == Some(q)
                            || it.trait_of.as_deref() == Some(q)
                            || it.module.last().map(String::as_str) == Some(q)
                            || it.krate == *q
                            || format!("prox_{}", it.krate) == *q
                    })
                    .collect()
            } else if call.method {
                // Receiver type is unknown, so `.name(…)` resolves to every
                // workspace method of that name — except names that std
                // containers/iterators also use, where the receiver is
                // almost always a std type and the fan-out would wire e.g.
                // every map `.insert(…)` to `MTree::insert`.
                if STD_METHOD_NAMES.contains(&call.name.as_str()) {
                    Vec::new()
                } else {
                    // Only items with a `self` receiver can be invoked with
                    // method syntax; an associated fn of the same name
                    // (`MTree::dist(oracle, …)`) is not a candidate.
                    cands
                        .iter()
                        .copied()
                        .filter(|&id| items[id].container.is_some() && items[id].has_self)
                        .collect()
                }
            } else {
                // Free call: nearest scope wins — same module+crate, then
                // same crate, then anything.
                let same_mod: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&id| {
                        items[id].krate == caller.krate && items[id].module == caller.module
                    })
                    .collect();
                if !same_mod.is_empty() {
                    same_mod
                } else {
                    let same_crate: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&id| items[id].krate == caller.krate)
                        .collect();
                    if !same_crate.is_empty() {
                        same_crate
                    } else {
                        cands.clone()
                    }
                }
            };
            for to in chosen {
                if to != *from && edge_set.insert((*from, to)) {
                    edges.push(Edge {
                        from: *from,
                        to,
                        line: call.line,
                    });
                }
            }
        }

        let mut out = vec![Vec::new(); items.len()];
        let mut inc = vec![Vec::new(); items.len()];
        for (k, e) in edges.iter().enumerate() {
            out[e.from].push(k);
            inc[e.to].push(k);
        }
        ItemGraph {
            items,
            edges,
            out,
            inc,
        }
    }

    /// All items matching `(container, name)`; `container = None` matches
    /// free functions only.
    pub fn find(&self, container: Option<&str>, name: &str) -> Vec<&Item> {
        self.items
            .iter()
            .filter(|it| it.name == name && it.container.as_deref() == container)
            .collect()
    }

    /// Plain reachability over non-test items: can `from` reach any of
    /// `sinks` through any call chain at all?
    pub fn reaches(&self, from: usize, sinks: &BTreeSet<usize>) -> bool {
        let mut seen = vec![false; self.items.len()];
        let mut stack = vec![from];
        seen[from] = true;
        while let Some(v) = stack.pop() {
            if sinks.contains(&v) {
                return true;
            }
            for &e in &self.out[v] {
                let w = self.edges[e].to;
                if !seen[w] && !self.items[w].is_test {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
        false
    }

    /// JSON dump of the graph (dependency-free, stable field order).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(64 * self.items.len());
        s.push_str("{\n  \"items\": [\n");
        for (k, it) in self.items.iter().enumerate() {
            s.push_str("    {");
            s.push_str(&format!("\"id\": {}", it.id));
            s.push_str(&format!(", \"crate\": {}", json_str(&it.krate)));
            s.push_str(&format!(
                ", \"module\": {}",
                json_str(&it.module.join("::"))
            ));
            match &it.container {
                Some(c) => s.push_str(&format!(", \"container\": {}", json_str(c))),
                None => s.push_str(", \"container\": null"),
            }
            match &it.trait_of {
                Some(t) => s.push_str(&format!(", \"trait\": {}", json_str(t))),
                None => s.push_str(", \"trait\": null"),
            }
            s.push_str(&format!(", \"name\": {}", json_str(&it.name)));
            let vis = match it.vis {
                Vis::Pub => "pub",
                Vis::Restricted => "pub(restricted)",
                Vis::Private => "private",
            };
            s.push_str(&format!(", \"vis\": {}", json_str(vis)));
            s.push_str(&format!(", \"test\": {}", it.is_test));
            s.push_str(&format!(", \"file\": {}", json_str(&it.file)));
            s.push_str(&format!(", \"line\": {}", it.line));
            s.push('}');
            if k + 1 < self.items.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ],\n  \"edges\": [\n");
        for (k, e) in self.edges.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"from\": {}, \"to\": {}, \"line\": {}}}",
                e.from, e.to, e.line
            ));
            if k + 1 < self.edges.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// GraphViz DOT dump, clustered by crate. `DistanceResolver` methods
    /// (the L9 choke points) and `Oracle::call*` (the sinks) are colored.
    pub fn to_dot(&self) -> String {
        let mut s = String::new();
        s.push_str("digraph item_graph {\n  rankdir=LR;\n  node [shape=box, fontsize=9];\n");
        let mut by_crate: BTreeMap<&str, Vec<&Item>> = BTreeMap::new();
        for it in &self.items {
            if it.is_test {
                continue;
            }
            by_crate.entry(&it.krate).or_default().push(it);
        }
        for (krate, its) in &by_crate {
            s.push_str(&format!(
                "  subgraph \"cluster_{krate}\" {{\n    label=\"{krate}\";\n"
            ));
            for it in its {
                let label = match &it.container {
                    Some(c) => format!("{}::{}", c, it.name),
                    None => it.name.clone(),
                };
                let color = if it.container.as_deref() == Some("Oracle")
                    && it.name.starts_with("call")
                    || it.name.starts_with("try_call")
                {
                    ", style=filled, fillcolor=salmon"
                } else if it.trait_of.as_deref() == Some("DistanceResolver") {
                    ", style=filled, fillcolor=lightblue"
                } else {
                    ""
                };
                s.push_str(&format!(
                    "    n{} [label=\"{}\"{color}];\n",
                    it.id,
                    label.replace('"', "'")
                ));
            }
            s.push_str("  }\n");
        }
        for e in &self.edges {
            if self.items[e.from].is_test || self.items[e.to].is_test {
                continue;
            }
            s.push_str(&format!("  n{} -> n{};\n", e.from, e.to));
        }
        s.push_str("}\n");
        s
    }
}

/// Minimal JSON string escaping (paths and identifiers only).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(files: &[(&str, &str)]) -> ItemGraph {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect();
        ItemGraph::build(&owned)
    }

    #[test]
    fn extracts_items_with_attribution() {
        let g = graph_of(&[(
            "crates/algos/src/knng.rs",
            "pub fn knn_graph() {}\n\
             fn helper() {}\n\
             pub(crate) fn scoped() {}\n\
             mod inner { pub fn nested() {} }\n\
             #[cfg(test)]\nmod tests { fn t() {} }\n",
        )]);
        let knn = &g.find(None, "knn_graph")[0];
        assert_eq!(knn.krate, "algos");
        assert_eq!(knn.module, vec!["knng".to_string()]);
        assert_eq!(knn.vis, Vis::Pub);
        assert!(!knn.is_test);
        assert_eq!(knn.path(), "algos::knng::knn_graph");
        assert_eq!(g.find(None, "helper")[0].vis, Vis::Private);
        assert_eq!(g.find(None, "scoped")[0].vis, Vis::Restricted);
        assert_eq!(
            g.find(None, "nested")[0].module,
            vec!["knng".to_string(), "inner".to_string()]
        );
        assert!(g.find(None, "t")[0].is_test);
    }

    #[test]
    fn attributes_impl_and_trait_methods() {
        let g = graph_of(&[(
            "crates/bounds/src/resolver.rs",
            "pub trait DistanceResolver {\n\
                 fn resolve(&mut self) -> f64;\n\
                 fn less(&mut self) -> bool { self.resolve() < 1.0 }\n\
             }\n\
             pub struct BoundResolver<'o, M, S> { x: u32 }\n\
             impl<'o, M: Metric, S: Scheme> BoundResolver<'o, M, S> {\n\
                 pub fn new() -> Self { Self { x: 0 } }\n\
             }\n\
             impl<'o, M: Metric, S: Scheme> DistanceResolver for BoundResolver<'o, M, S> {\n\
                 fn resolve(&mut self) -> f64 { 0.0 }\n\
             }\n",
        )]);
        let less = &g.find(Some("DistanceResolver"), "less")[0];
        assert_eq!(less.trait_of.as_deref(), Some("DistanceResolver"));
        let new = &g.find(Some("BoundResolver"), "new")[0];
        assert_eq!(new.trait_of, None);
        let imp = g.find(Some("BoundResolver"), "resolve");
        assert_eq!(imp.len(), 1);
        assert_eq!(imp[0].trait_of.as_deref(), Some("DistanceResolver"));
    }

    #[test]
    fn resolves_free_method_and_path_calls() {
        let g = graph_of(&[
            (
                "crates/algos/src/prim.rs",
                "pub fn prim() { helper(); r.resolve(x); Oracle::call_pair(o, p); }\n\
                 fn helper() {}\n",
            ),
            (
                "crates/core/src/oracle.rs",
                "pub struct Oracle;\nimpl Oracle {\n    pub fn call_pair(&self) {}\n}\n",
            ),
            (
                "crates/bounds/src/resolver.rs",
                "pub trait DistanceResolver { fn resolve(&mut self) {} }\n",
            ),
        ]);
        let prim = g.find(None, "prim")[0].id;
        let targets: BTreeSet<String> = g.out[prim]
            .iter()
            .map(|&e| g.items[g.edges[e].to].path())
            .collect();
        assert!(targets.contains("algos::prim::helper"), "{targets:?}");
        assert!(
            targets.contains("bounds::resolver::DistanceResolver::resolve"),
            "{targets:?}"
        );
        assert!(
            targets.contains("core::oracle::Oracle::call_pair"),
            "{targets:?}"
        );
    }

    #[test]
    fn signature_types_and_macros_are_not_calls() {
        let g = graph_of(&[(
            "crates/core/src/x.rs",
            "pub fn apply<F: Fn(u32) -> u32>(f: F) -> u32 {\n\
                 invariant!(true, \"ok\");\n\
                 vec![1]\n        .len() as u32\n\
             }\n\
             pub fn target(x: u32) -> u32 { x }\n",
        )]);
        let apply = g.find(None, "apply")[0].id;
        assert!(
            g.out[apply].is_empty(),
            "Fn-bounds, macros and std calls resolve to nothing: {:?}",
            g.out[apply]
                .iter()
                .map(|&e| g.items[g.edges[e].to].path())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn nested_fn_owns_its_calls() {
        let g = graph_of(&[(
            "crates/bounds/src/tlaesa.rs",
            "pub fn build() {\n\
                 fn note() { record(); }\n\
                 note();\n\
             }\n\
             pub fn record() {}\n",
        )]);
        let build = g.find(None, "build")[0].id;
        let note = g.find(None, "note")[0].id;
        let record = g.find(None, "record")[0].id;
        let edge = |a: usize, b: usize| g.edges.iter().any(|e| e.from == a && e.to == b);
        assert!(edge(build, note));
        assert!(edge(note, record));
        assert!(!edge(build, record), "outer fn does not own inner's calls");
    }

    #[test]
    fn reaches_walks_chains_and_skips_test_items() {
        let g = graph_of(&[(
            "crates/algos/src/a.rs",
            "pub fn top() { mid(); }\nfn mid() { bottom(); }\nfn bottom() {}\n\
             #[cfg(test)]\nmod tests { fn t() { bottom(); } }\n",
        )]);
        let top = g.find(None, "top")[0].id;
        let bottom = g.find(None, "bottom")[0].id;
        let sinks: BTreeSet<usize> = [bottom].into();
        assert!(g.reaches(top, &sinks));
        assert!(!g.reaches(bottom, &[top].into()));
    }

    #[test]
    fn json_and_dot_render() {
        let g = graph_of(&[(
            "crates/core/src/a.rs",
            "pub fn f() { g(); }\npub fn g() {}\n",
        )]);
        let js = g.to_json();
        assert!(js.contains("\"items\""));
        assert!(js.contains("\"name\": \"f\""));
        assert!(js.contains("\"edges\""));
        let dot = g.to_dot();
        assert!(dot.contains("digraph item_graph"));
        assert!(dot.contains("cluster_core"));
        assert!(dot.contains("->"));
    }

    #[test]
    fn self_qualifier_resolves_to_container() {
        let g = graph_of(&[(
            "crates/core/src/oracle.rs",
            "pub struct Oracle;\nimpl Oracle {\n\
                 pub fn call(&self) { Self::slow(self); }\n\
                 fn slow(&self) {}\n\
             }\n",
        )]);
        let call = g.find(Some("Oracle"), "call")[0].id;
        let slow = g.find(Some("Oracle"), "slow")[0].id;
        assert!(g.edges.iter().any(|e| e.from == call && e.to == slow));
    }
}
