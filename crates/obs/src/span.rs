//! Span profiler: the nestable upgrade of the flat phase markers.
//!
//! [`SpanGuard`] is the RAII span marker algorithms hold while a logical
//! stage runs. Spans nest freely (`build` > `query` > `refine`), emit the
//! `phase_enter`/`phase_exit` trace events every trace consumer reads, are
//! named from the closed [`SpanName`] vocabulary, and cost nothing when
//! detached: entering with `None` is a single discriminant test, pinned by
//! the `oracle_span_layer/*` bench cells and their bench-gate bound.
//!
//! [`SpanTree`] is the offline side: it replays a JSONL trace into a tree
//! of spans with per-span attribution — billed calls, virtual-ns, bound
//! probes and their decided share, weak-tier votes — positioned on the
//! trace's logical clock (`seq` window). Attribution is *self* (while the
//! span was innermost); the `total_*` accessors roll children up. The
//! collapsed-stack export ([`SpanTree::fold`]) feeds any flamegraph
//! renderer.

use std::fmt::Write as _;
use std::rc::Rc;

use crate::event::{EventKind, TraceEvent};
use crate::names::SpanName;
use crate::report::{field, u64_field};
use crate::sink::TraceSink;

/// RAII span marker: emits [`TraceEvent::PhaseEnter`] on construction and
/// the matching [`TraceEvent::PhaseExit`] on drop, so early returns
/// (including fault aborts via `?`) still close the span. Nest guards to
/// nest spans; the detached form (`sink = None`) does no work at all.
pub struct SpanGuard {
    sink: Option<Rc<dyn TraceSink>>,
    name: &'static str,
}

impl SpanGuard {
    /// Opens a span named `name` on `sink` (detached when `None`). Names
    /// come from the closed vocabulary:
    ///
    /// ```
    /// # use prox_obs::{SpanGuard, SpanName};
    /// let _span = SpanGuard::enter(None, SpanName::Scan);
    /// ```
    ///
    /// so a free-form (or typo'd) name does not compile:
    ///
    /// ```compile_fail
    /// # use prox_obs::{SpanGuard, SpanName};
    /// let _span = SpanGuard::enter(None, "scam");
    /// ```
    #[inline]
    pub fn enter(sink: Option<Rc<dyn TraceSink>>, name: SpanName) -> Self {
        let name = name.as_str();
        if let Some(s) = &sink {
            s.emit(TraceEvent::PhaseEnter { name });
        }
        SpanGuard { sink, name }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(s) = &self.sink {
            s.emit(TraceEvent::PhaseExit { name: self.name });
        }
    }
}

/// One span in the replayed tree. Counters are *self* attribution: events
/// observed while this span was the innermost open span. Re-entering the
/// same name under the same parent accumulates into one node.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SpanNode {
    pub name: String,
    /// Times the span was entered.
    pub enters: u64,
    /// Billed oracle attempts while innermost.
    pub calls: u64,
    /// Virtual nanoseconds accrued by those attempts.
    pub virtual_ns: u64,
    /// Bound probes while innermost.
    pub probes: u64,
    /// Probes settled by bounds (`known`/`lb`/`ub` verdicts).
    pub decided: u64,
    /// Weak-tier votes while innermost.
    pub weak_votes: u64,
    /// Logical-clock window: first and last `seq` observed inside.
    pub first_seq: u64,
    pub last_seq: u64,
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Billed calls including every descendant.
    pub fn total_calls(&self) -> u64 {
        self.calls + self.children.iter().map(SpanNode::total_calls).sum::<u64>()
    }

    /// Virtual nanoseconds including every descendant.
    pub fn total_virtual_ns(&self) -> u64 {
        self.virtual_ns
            + self
                .children
                .iter()
                .map(SpanNode::total_virtual_ns)
                .sum::<u64>()
    }

    /// Bound probes including every descendant.
    pub fn total_probes(&self) -> u64 {
        self.probes
            + self
                .children
                .iter()
                .map(SpanNode::total_probes)
                .sum::<u64>()
    }
}

/// The whole replayed span tree. The synthetic root `(run)` owns events
/// that occurred outside any open span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanTree {
    pub root: SpanNode,
}

/// Flat arena node used while parsing (children materialize afterwards).
#[derive(Default)]
struct Flat {
    name: String,
    order: Vec<usize>,
    node: SpanNode,
}

impl SpanTree {
    /// Replays a JSONL trace into a span tree. Errors mirror
    /// [`crate::report::summarize`]: malformed lines and mismatched exits
    /// are reported with their line number; spans left open at end of
    /// trace are fine (an aborted run is still profilable).
    pub fn from_trace(text: &str) -> Result<SpanTree, String> {
        let mut arena: Vec<Flat> = vec![Flat {
            name: "(run)".to_string(),
            node: SpanNode {
                name: "(run)".to_string(),
                ..SpanNode::default()
            },
            ..Flat::default()
        }];
        let mut stack: Vec<usize> = vec![0];
        for (idx, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let lineno = idx + 1;
            let ev =
                field(line, "ev").ok_or_else(|| format!("line {lineno}: missing field \"ev\""))?;
            let seq = u64_field(line, "seq", lineno).unwrap_or(lineno as u64 - 1);
            // The root index never pops (phase_exit refuses at depth 1),
            // so the stack is never empty; 0 is the root either way.
            let top = stack.last().copied().unwrap_or(0);
            {
                let n = &mut arena[top].node;
                if n.enters == 0 && n.first_seq == 0 && n.last_seq == 0 {
                    n.first_seq = seq;
                }
                n.last_seq = seq;
            }
            match EventKind::parse(ev) {
                Some(EventKind::PhaseEnter) => {
                    let name = field(line, "name")
                        .ok_or_else(|| format!("line {lineno}: missing field \"name\""))?;
                    let child = arena[top]
                        .order
                        .iter()
                        .copied()
                        .find(|&c| arena[c].name == name);
                    let child = match child {
                        Some(c) => c,
                        None => {
                            arena.push(Flat {
                                name: name.to_string(),
                                order: Vec::new(),
                                node: SpanNode {
                                    name: name.to_string(),
                                    first_seq: seq,
                                    last_seq: seq,
                                    ..SpanNode::default()
                                },
                            });
                            let c = arena.len() - 1;
                            arena[top].order.push(c);
                            c
                        }
                    };
                    arena[child].node.enters += 1;
                    arena[child].node.last_seq = seq;
                    stack.push(child);
                }
                Some(EventKind::PhaseExit) => {
                    let name = field(line, "name")
                        .ok_or_else(|| format!("line {lineno}: missing field \"name\""))?;
                    if stack.len() == 1 {
                        return Err(format!(
                            "line {lineno}: phase_exit {name:?} with no open span"
                        ));
                    }
                    if arena[top].name != name {
                        return Err(format!(
                            "line {lineno}: phase_exit {name:?} does not match open span {:?}",
                            arena[top].name
                        ));
                    }
                    stack.pop();
                }
                Some(EventKind::OracleCall) => {
                    let outcome = field(line, "outcome")
                        .ok_or_else(|| format!("line {lineno}: missing field \"outcome\""))?;
                    if outcome != "budget" {
                        let n = &mut arena[top].node;
                        n.calls += 1;
                        n.virtual_ns += u64_field(line, "virtual_ns", lineno)?;
                    }
                }
                Some(EventKind::BoundProbe) => {
                    let verdict = field(line, "verdict")
                        .ok_or_else(|| format!("line {lineno}: missing field \"verdict\""))?;
                    let n = &mut arena[top].node;
                    n.probes += 1;
                    if verdict != "open" {
                        n.decided += 1;
                    }
                }
                Some(EventKind::WeakProbe) => {
                    arena[top].node.weak_votes += 1;
                }
                _ => {}
            }
        }
        // Materialize children depth-first, leaves before their parents so
        // each parent can drain fully-built subtrees.
        fn build(arena: &mut [Flat], at: usize) -> SpanNode {
            let order = std::mem::take(&mut arena[at].order);
            let mut node = std::mem::take(&mut arena[at].node);
            node.children = order.into_iter().map(|c| build(arena, c)).collect();
            node
        }
        Ok(SpanTree {
            root: build(&mut arena, 0),
        })
    }

    /// Indented per-span table with self-vs-total rollups.
    pub fn render(&self) -> String {
        let mut out = String::from("span profile\n");
        let _ = writeln!(
            out,
            "  {:<28} {:>7} {:>9} {:>9} {:>12} {:>9} {:>8} {:>6}",
            "span", "enters", "calls", "Σcalls", "virtual_ns", "probes", "decided", "weak"
        );
        fn row(out: &mut String, n: &SpanNode, depth: usize) {
            let label = format!("{}{}", "  ".repeat(depth), n.name);
            let _ = writeln!(
                out,
                "  {:<28} {:>7} {:>9} {:>9} {:>12} {:>9} {:>8} {:>6}",
                label,
                n.enters,
                n.calls,
                n.total_calls(),
                n.total_virtual_ns(),
                n.total_probes(),
                n.decided,
                n.weak_votes
            );
            for c in &n.children {
                row(out, c, depth + 1);
            }
        }
        row(&mut out, &self.root, 0);
        out
    }

    /// Collapsed-stack (`a;b;c weight`) export for flamegraph renderers.
    /// The weight is each span's *self* virtual-ns; when the whole run
    /// accrued none (no billed calls), self probe counts stand in so the
    /// profile is still shaped.
    pub fn fold(&self) -> String {
        let use_ns = self.root.total_virtual_ns() > 0;
        let mut out = String::new();
        fn walk(out: &mut String, n: &SpanNode, path: &str, use_ns: bool) {
            let here = if path.is_empty() {
                n.name.clone()
            } else {
                format!("{path};{}", n.name)
            };
            let weight = if use_ns { n.virtual_ns } else { n.probes };
            if weight > 0 {
                let _ = writeln!(out, "{here} {weight}");
            }
            for c in &n.children {
                walk(out, c, &here, use_ns);
            }
        }
        walk(&mut out, &self.root, "", use_ns);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::JsonlSink;

    const NESTED: &str = "\
{\"seq\":0,\"ev\":\"phase_enter\",\"name\":\"build\"}
{\"seq\":1,\"ev\":\"oracle_call\",\"lo\":0,\"hi\":1,\"attempt\":0,\"outcome\":\"ok\",\"virtual_ns\":100}
{\"seq\":2,\"ev\":\"phase_enter\",\"name\":\"query\"}
{\"seq\":3,\"ev\":\"bound_probe\",\"lo\":0,\"hi\":2,\"lb\":0.1,\"ub\":0.3,\"verdict\":\"ub\",\"kind\":\"less\",\"scheme\":\"Tri\"}
{\"seq\":4,\"ev\":\"oracle_call\",\"lo\":0,\"hi\":2,\"attempt\":0,\"outcome\":\"ok\",\"virtual_ns\":100}
{\"seq\":5,\"ev\":\"phase_exit\",\"name\":\"query\"}
{\"seq\":6,\"ev\":\"phase_enter\",\"name\":\"query\"}
{\"seq\":7,\"ev\":\"bound_probe\",\"lo\":1,\"hi\":2,\"lb\":0.1,\"ub\":0.9,\"verdict\":\"open\",\"kind\":\"less\",\"scheme\":\"Tri\"}
{\"seq\":8,\"ev\":\"weak_probe\",\"lo\":1,\"hi\":2,\"attempts\":2,\"outcome\":\"resolved\"}
{\"seq\":9,\"ev\":\"phase_exit\",\"name\":\"query\"}
{\"seq\":10,\"ev\":\"phase_exit\",\"name\":\"build\"}
";

    #[test]
    fn tree_attributes_self_and_rolls_up() {
        let t = SpanTree::from_trace(NESTED).expect("valid");
        assert_eq!(t.root.name, "(run)");
        assert_eq!(t.root.children.len(), 1);
        let build = &t.root.children[0];
        assert_eq!(build.name, "build");
        assert_eq!(build.enters, 1);
        assert_eq!(build.calls, 1, "only the self call");
        assert_eq!(build.total_calls(), 2, "child query call rolls up");
        assert_eq!(build.total_virtual_ns(), 200);
        assert_eq!(build.children.len(), 1, "re-entered span accumulates");
        let query = &build.children[0];
        assert_eq!(query.enters, 2);
        assert_eq!(query.probes, 2);
        assert_eq!(query.decided, 1);
        assert_eq!(query.weak_votes, 1);
        assert_eq!((query.first_seq, query.last_seq), (2, 9));
        let r = t.render();
        assert!(r.contains("span profile"), "{r}");
        assert!(r.contains("build"), "{r}");
    }

    #[test]
    fn fold_emits_collapsed_stacks() {
        let t = SpanTree::from_trace(NESTED).expect("valid");
        let folded = t.fold();
        assert!(folded.contains("(run);build 100\n"), "{folded}");
        assert!(folded.contains("(run);build;query 100\n"), "{folded}");
        // Zero-weight stacks are omitted.
        assert!(!folded.contains("(run) "), "{folded}");
    }

    #[test]
    fn fold_falls_back_to_probes_without_virtual_time() {
        let text = "\
{\"seq\":0,\"ev\":\"phase_enter\",\"name\":\"build\"}
{\"seq\":1,\"ev\":\"bound_probe\",\"lo\":0,\"hi\":2,\"lb\":0.1,\"ub\":0.3,\"verdict\":\"ub\",\"kind\":\"less\",\"scheme\":\"Tri\"}
{\"seq\":2,\"ev\":\"phase_exit\",\"name\":\"build\"}
";
        let t = SpanTree::from_trace(text).expect("valid");
        assert_eq!(t.fold(), "(run);build 1\n");
    }

    #[test]
    fn mismatched_exits_are_errors_and_open_spans_are_fine() {
        let bad = "{\"seq\":0,\"ev\":\"phase_enter\",\"name\":\"a\"}\n\
                   {\"seq\":1,\"ev\":\"phase_exit\",\"name\":\"b\"}\n";
        assert!(SpanTree::from_trace(bad)
            .unwrap_err()
            .contains("does not match"));
        let naked = "{\"seq\":0,\"ev\":\"phase_exit\",\"name\":\"b\"}\n";
        assert!(SpanTree::from_trace(naked)
            .unwrap_err()
            .contains("no open span"));
        let open = "{\"seq\":0,\"ev\":\"phase_enter\",\"name\":\"a\"}\n";
        let t = SpanTree::from_trace(open).expect("aborted runs still profile");
        assert_eq!(t.root.children[0].name, "a");
    }

    #[test]
    fn guard_nests_and_detached_guard_emits_nothing() {
        let sink = Rc::new(JsonlSink::in_memory());
        {
            let _outer =
                SpanGuard::enter(Some(Rc::clone(&sink) as Rc<dyn TraceSink>), SpanName::Build);
            let _inner =
                SpanGuard::enter(Some(Rc::clone(&sink) as Rc<dyn TraceSink>), SpanName::Query);
        }
        let text = sink.contents().expect("in-memory");
        let t = SpanTree::from_trace(&text).expect("valid");
        assert_eq!(t.root.children[0].name, "build");
        assert_eq!(t.root.children[0].children[0].name, "query");

        let _detached = SpanGuard::enter(None, SpanName::Build);
        assert_eq!(sink.emitted(), 4, "detached guard emitted nothing");
    }
}
