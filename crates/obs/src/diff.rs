//! Differential trace tooling: semantic diff of two JSONL traces.
//!
//! Invariant I8 promises committed traces are a pure function of the
//! workload — byte-identical across thread counts, and identical modulo
//! injected fault lines across fault schedules. When that breaks, the raw
//! assert is an opaque "multi-MB strings differ". This module localizes
//! the break: traces are first *normalized* exactly the way
//! `trace_exactness.rs` normalizes them (strip `seq`, drop retry lines and
//! non-`ok` oracle attempts, reset surviving attempt indices, drop
//! execution-class events), then compared event-by-event to find the first
//! divergent event, its surrounding context, and a per-phase billed-call
//! delta table that says *where* the two runs went different ways.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::EventKind;
use crate::report::{event_kind, field};

/// How many normalized events of context to show around a divergence.
const CONTEXT: usize = 3;

/// Normalizes a raw JSONL trace into its semantic event stream:
///
/// 1. the leading `"seq":N` field is stripped (renumbering noise),
/// 2. `retry` lines and `oracle_call` attempts whose outcome is not `ok`
///    are dropped (the fault layer may insert attempts, never change what
///    the algorithm decided),
/// 3. surviving `oracle_call` lines get their attempt index reset to 0 (a
///    retried call succeeds at attempt `k > 0` where a clean run succeeds
///    at attempt 0.
pub fn normalize(trace: &str) -> Vec<String> {
    trace
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| match l.split_once(',') {
            Some((head, rest)) if head.starts_with("{\"seq\":") => format!("{{{rest}"),
            _ => l.to_string(),
        })
        .filter(|l| match event_kind(l) {
            Some(EventKind::Retry) => false,
            Some(EventKind::OracleCall) => field(l, "outcome") == Some("ok"),
            _ => true,
        })
        .map(|l| {
            if event_kind(&l) != Some(EventKind::OracleCall) {
                return l;
            }
            match l.split_once("\"attempt\":") {
                Some((head, tail)) => match tail.split_once(',') {
                    Some((_, rest)) => format!("{head}\"attempt\":0,{rest}"),
                    None => l,
                },
                None => l,
            }
        })
        .collect()
}

/// The first point where two normalized streams disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// 0-based index into the normalized event streams.
    pub index: usize,
    /// The event in trace A at that index (`None` = A ended early).
    pub a: Option<String>,
    /// The event in trace B at that index (`None` = B ended early).
    pub b: Option<String>,
}

/// Result of [`semantic_diff`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDiff {
    /// Normalized event counts of each trace.
    pub a_events: usize,
    pub b_events: usize,
    /// First divergent event, if any.
    pub divergence: Option<Divergence>,
    /// Context window (normalized events) preceding the divergence.
    pub context: Vec<String>,
    /// Per-phase billed-call table: `(phase, calls_a, calls_b)`, every
    /// phase seen in either trace, name-sorted.
    pub phase_calls: Vec<(String, u64, u64)>,
}

impl TraceDiff {
    /// True when the traces are semantically identical.
    pub fn identical(&self) -> bool {
        self.divergence.is_none()
    }

    /// Human-readable report, the body of `prox-cli diff`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "semantic diff: {} vs {} normalized events",
            self.a_events, self.b_events
        );
        match &self.divergence {
            None => {
                let _ = writeln!(out, "  zero semantic divergence");
            }
            Some(d) => {
                let _ = writeln!(out, "  first divergence at event {}", d.index);
                for (i, line) in self.context.iter().enumerate() {
                    let at = d.index - self.context.len() + i;
                    let _ = writeln!(out, "    [{at}]   {line}");
                }
                match &d.a {
                    Some(l) => {
                        let _ = writeln!(out, "    [{}] A {l}", d.index);
                    }
                    None => {
                        let _ = writeln!(out, "    [{}] A <trace ended>", d.index);
                    }
                }
                match &d.b {
                    Some(l) => {
                        let _ = writeln!(out, "    [{}] B {l}", d.index);
                    }
                    None => {
                        let _ = writeln!(out, "    [{}] B <trace ended>", d.index);
                    }
                }
            }
        }
        if !self.phase_calls.is_empty() {
            let _ = writeln!(out, "\nper-phase billed calls:");
            let _ = writeln!(
                out,
                "  {:<14} {:>8} {:>8} {:>8}",
                "phase", "A", "B", "delta"
            );
            for (name, a, b) in &self.phase_calls {
                let _ = writeln!(
                    out,
                    "  {:<14} {:>8} {:>8} {:>8}",
                    name,
                    a,
                    b,
                    *b as i64 - *a as i64
                );
            }
        }
        out
    }
}

/// Billed calls per innermost phase over one normalized stream. Events
/// outside any open phase land in `(none)`.
fn phase_calls(lines: &[String]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    let mut stack: Vec<&str> = Vec::new();
    for l in lines {
        match event_kind(l) {
            Some(EventKind::PhaseEnter) => {
                if let Some(name) = field(l, "name") {
                    stack.push(name);
                }
            }
            Some(EventKind::PhaseExit) => {
                stack.pop();
            }
            Some(EventKind::OracleCall) => {
                let phase = stack.last().copied().unwrap_or("(none)");
                *out.entry(phase.to_string()).or_insert(0) += 1;
            }
            _ => {}
        }
    }
    out
}

/// Semantic diff of two raw JSONL traces (see [`normalize`]).
pub fn semantic_diff(a: &str, b: &str) -> TraceDiff {
    let na = normalize(a);
    let nb = normalize(b);
    let mut divergence = None;
    let mut context = Vec::new();
    let shorter = na.len().min(nb.len());
    let longer = na.len().max(nb.len());
    for i in 0..longer {
        let la = na.get(i);
        let lb = nb.get(i);
        if la != lb {
            let from = i.saturating_sub(CONTEXT);
            context = na[from..i.min(shorter)].to_vec();
            divergence = Some(Divergence {
                index: i,
                a: la.cloned(),
                b: lb.cloned(),
            });
            break;
        }
    }
    let ca = phase_calls(&na);
    let cb = phase_calls(&nb);
    let mut names: Vec<&String> = ca.keys().chain(cb.keys()).collect();
    names.sort();
    names.dedup();
    let phase_calls = names
        .into_iter()
        .map(|n| {
            (
                n.clone(),
                ca.get(n).copied().unwrap_or(0),
                cb.get(n).copied().unwrap_or(0),
            )
        })
        .collect();
    TraceDiff {
        a_events: na.len(),
        b_events: nb.len(),
        divergence,
        context,
        phase_calls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLEAN: &str = "\
{\"seq\":0,\"ev\":\"phase_enter\",\"name\":\"build\"}
{\"seq\":1,\"ev\":\"oracle_call\",\"lo\":0,\"hi\":1,\"attempt\":0,\"outcome\":\"ok\",\"virtual_ns\":100}
{\"seq\":2,\"ev\":\"bound_probe\",\"lo\":0,\"hi\":2,\"lb\":0.1,\"ub\":0.3,\"verdict\":\"ub\",\"kind\":\"less\",\"scheme\":\"Tri\"}
{\"seq\":3,\"ev\":\"phase_exit\",\"name\":\"build\"}
";

    // The same run under faults: renumbered, one transient attempt plus
    // its retry, success at attempt 1.
    const FAULTED: &str = "\
{\"seq\":0,\"ev\":\"phase_enter\",\"name\":\"build\"}
{\"seq\":1,\"ev\":\"oracle_call\",\"lo\":0,\"hi\":1,\"attempt\":0,\"outcome\":\"transient\",\"virtual_ns\":100}
{\"seq\":2,\"ev\":\"retry\",\"lo\":0,\"hi\":1,\"attempt\":0,\"backoff_ns\":500}
{\"seq\":3,\"ev\":\"oracle_call\",\"lo\":0,\"hi\":1,\"attempt\":1,\"outcome\":\"ok\",\"virtual_ns\":100}
{\"seq\":4,\"ev\":\"bound_probe\",\"lo\":0,\"hi\":2,\"lb\":0.1,\"ub\":0.3,\"verdict\":\"ub\",\"kind\":\"less\",\"scheme\":\"Tri\"}
{\"seq\":5,\"ev\":\"phase_exit\",\"name\":\"build\"}
";

    #[test]
    fn identical_modulo_faults_reports_zero_divergence() {
        let d = semantic_diff(CLEAN, FAULTED);
        assert!(d.identical(), "{:?}", d.divergence);
        assert_eq!(d.a_events, d.b_events);
        assert!(d.render().contains("zero semantic divergence"));
        let build = d.phase_calls.iter().find(|(n, _, _)| n == "build").unwrap();
        assert_eq!((build.1, build.2), (1, 1));
    }

    #[test]
    fn divergence_is_localized_with_context() {
        let other = CLEAN.replace("\"verdict\":\"ub\"", "\"verdict\":\"open\"");
        let d = semantic_diff(CLEAN, &other);
        let div = d.divergence.as_ref().expect("must diverge");
        assert_eq!(div.index, 2);
        assert!(div.a.as_ref().unwrap().contains("\"verdict\":\"ub\""));
        assert!(div.b.as_ref().unwrap().contains("\"verdict\":\"open\""));
        assert_eq!(d.context.len(), 2, "two preceding events fit the window");
        let r = d.render();
        assert!(r.contains("first divergence at event 2"), "{r}");
        assert!(r.contains("[2] A "), "{r}");
        assert!(r.contains("[2] B "), "{r}");
    }

    #[test]
    fn truncated_trace_diverges_at_the_end() {
        let mut short = String::new();
        for l in CLEAN.lines().take(3) {
            short.push_str(l);
            short.push('\n');
        }
        let d = semantic_diff(CLEAN, &short);
        let div = d.divergence.as_ref().expect("must diverge");
        assert_eq!(div.index, 3);
        assert!(div.b.is_none());
        assert!(d.render().contains("<trace ended>"));
    }

    #[test]
    fn phase_delta_table_attributes_extra_calls() {
        let more = CLEAN.replace(
            "{\"seq\":2,",
            "{\"seq\":9,\"ev\":\"oracle_call\",\"lo\":0,\"hi\":2,\"attempt\":0,\
             \"outcome\":\"ok\",\"virtual_ns\":100}\n{\"seq\":2,",
        );
        let d = semantic_diff(CLEAN, &more);
        assert!(!d.identical());
        let build = d.phase_calls.iter().find(|(n, _, _)| n == "build").unwrap();
        assert_eq!((build.1, build.2), (1, 2));
        assert!(d.render().contains("per-phase billed calls"));
    }
}
