//! Offline trace revalidation: `prox-cli replay F`.
//!
//! A saved trace is a claim about a run. Replay re-checks the claim
//! without the run: every line must parse, the `seq` numbering must be
//! strictly monotone with no holes (a hole means the sink dropped writes),
//! phase nesting must balance, and the summary's totals must agree with an
//! independent recount of the billed attempts. Cross-section identities
//! (weak votes vs their outcomes, checkpoint progress monotonicity, the
//! provenance ledger vs the billed calls) catch a trace that parses but
//! lies.

use std::fmt::Write as _;

use crate::event::EventKind;
use crate::report::{event_kind, field, summarize, u64_field, TraceSummary};

/// Outcome of revalidating one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Events replayed.
    pub events: u64,
    /// Billed attempts recounted independently of the summary.
    pub billed_calls: u64,
    /// The parsed summary (valid even when `issues` is nonempty).
    pub summary: TraceSummary,
    /// Every validation failure found; empty means the trace is sound.
    pub issues: Vec<String>,
}

impl ReplayReport {
    /// True when the trace passed every check.
    pub fn ok(&self) -> bool {
        self.issues.is_empty()
    }

    /// Human-readable verdict, the body of `prox-cli replay`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "replay: {} events, {} billed calls",
            self.events, self.billed_calls
        );
        if self.ok() {
            let _ = writeln!(
                out,
                "  trace OK (seq monotone, phases balanced, totals agree)"
            );
        } else {
            for issue in &self.issues {
                let _ = writeln!(out, "  FAIL: {issue}");
            }
        }
        out
    }
}

/// Revalidates a saved JSONL trace (see module docs). Structural errors
/// that prevent parsing at all surface as `Err`; everything else lands in
/// [`ReplayReport::issues`].
pub fn replay(text: &str) -> Result<ReplayReport, String> {
    let summary = summarize(text)?;
    let mut issues = Vec::new();

    // Independent recount + structural sweep.
    let mut billed = 0u64;
    let mut events = 0u64;
    let mut stack: Vec<String> = Vec::new();
    let mut last_checkpoint: Option<u64> = None;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events += 1;
        let lineno = idx + 1;
        match event_kind(line) {
            Some(EventKind::OracleCall) if field(line, "outcome") != Some("budget") => {
                billed += 1;
            }
            Some(EventKind::PhaseEnter) => {
                if let Some(name) = field(line, "name") {
                    stack.push(name.to_string());
                }
            }
            Some(EventKind::PhaseExit) => {
                // Mismatches already failed summarize; only depth matters.
                stack.pop();
            }
            Some(EventKind::CheckpointWrite) => {
                let resolved = u64_field(line, "resolved", lineno)?;
                if let Some(prev) = last_checkpoint {
                    if resolved < prev {
                        issues.push(format!(
                            "line {lineno}: checkpoint progress went backwards \
                             ({prev} -> {resolved})"
                        ));
                    }
                }
                last_checkpoint = Some(resolved);
            }
            _ => {}
        }
    }

    if !stack.is_empty() {
        issues.push(format!(
            "phase nesting unbalanced: {} span(s) left open at end of trace ({})",
            stack.len(),
            stack.join(" > ")
        ));
    }
    if summary.dropped_events > 0 {
        issues.push(format!(
            "{} event(s) missing (seq gaps): the sink dropped writes",
            summary.dropped_events
        ));
    }
    if billed != summary.billed_calls {
        issues.push(format!(
            "billed-call recount {billed} disagrees with summary total {}",
            summary.billed_calls
        ));
    }
    if summary.phase_calls_total() > summary.billed_calls {
        issues.push(format!(
            "per-phase calls ({}) exceed billed calls ({})",
            summary.phase_calls_total(),
            summary.billed_calls
        ));
    }
    if summary.weak_votes != summary.weak_resolved + summary.weak_lies + summary.weak_no_quorum {
        issues.push(format!(
            "weak votes ({}) do not split into outcomes ({} + {} + {})",
            summary.weak_votes, summary.weak_resolved, summary.weak_lies, summary.weak_no_quorum
        ));
    }
    if summary.degraded_events > 1 {
        issues.push(format!(
            "{} degraded events; the strong tier can be lost at most once",
            summary.degraded_events
        ));
    }
    for row in &summary.provenance {
        match row.kind.as_str() {
            "strong_call" if row.count > summary.billed_calls => {
                issues.push(format!(
                    "provenance strong_call ({}) exceeds billed calls ({})",
                    row.count, summary.billed_calls
                ));
            }
            "weak_quorum" if row.count != summary.weak_resolved => {
                issues.push(format!(
                    "provenance weak_quorum ({}) disagrees with resolved weak votes ({})",
                    row.count, summary.weak_resolved
                ));
            }
            _ => {}
        }
    }

    Ok(ReplayReport {
        events,
        billed_calls: billed,
        summary,
        issues,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SOUND: &str = "\
{\"seq\":0,\"ev\":\"phase_enter\",\"name\":\"build\"}
{\"seq\":1,\"ev\":\"oracle_call\",\"lo\":0,\"hi\":1,\"attempt\":0,\"outcome\":\"ok\",\"virtual_ns\":100}
{\"seq\":2,\"ev\":\"checkpoint\",\"resolved\":1}
{\"seq\":3,\"ev\":\"checkpoint\",\"resolved\":2}
{\"seq\":4,\"ev\":\"phase_exit\",\"name\":\"build\"}
";

    #[test]
    fn sound_trace_replays_clean() {
        let r = replay(SOUND).expect("parses");
        assert!(r.ok(), "{:?}", r.issues);
        assert_eq!(r.events, 5);
        assert_eq!(r.billed_calls, 1);
        assert!(r.render().contains("trace OK"));
    }

    #[test]
    fn open_phase_and_seq_gap_are_flagged() {
        let open = "{\"seq\":0,\"ev\":\"phase_enter\",\"name\":\"build\"}\n";
        let r = replay(open).expect("parses");
        assert!(!r.ok());
        assert!(r.issues[0].contains("left open"), "{:?}", r.issues);

        let gapped = SOUND.replace("\"seq\":4", "\"seq\":9");
        let r = replay(&gapped).expect("parses");
        assert!(
            r.issues.iter().any(|i| i.contains("seq gaps")),
            "{:?}",
            r.issues
        );
        assert!(r.render().contains("FAIL"));
    }

    #[test]
    fn backwards_checkpoint_is_flagged() {
        let bad = SOUND
            .replace("\"seq\":2,\"ev\":\"checkpoint\",\"resolved\":1", "{X}")
            .replace("{X}", "\"seq\":2,\"ev\":\"checkpoint\",\"resolved\":3");
        let r = replay(&bad).expect("parses");
        assert!(
            r.issues.iter().any(|i| i.contains("went backwards")),
            "{:?}",
            r.issues
        );
    }

    #[test]
    fn weak_and_provenance_identities_are_checked() {
        let t = "{\"seq\":0,\"ev\":\"weak_probe\",\"lo\":0,\"hi\":1,\"attempts\":2,\
                 \"outcome\":\"resolved\"}\n\
                 {\"seq\":1,\"ev\":\"provenance\",\"kind\":\"weak_quorum\",\"scheme\":\"\",\
                 \"tier\":\"\",\"count\":1}\n";
        let r = replay(t).expect("parses");
        assert!(r.ok(), "{:?}", r.issues);

        let lying = t.replace("\"count\":1", "\"count\":5");
        let r = replay(&lying).expect("parses");
        assert!(
            r.issues.iter().any(|i| i.contains("weak_quorum")),
            "{:?}",
            r.issues
        );

        let overdrawn = "{\"seq\":0,\"ev\":\"provenance\",\"kind\":\"strong_call\",\
                         \"scheme\":\"\",\"tier\":\"\",\"count\":5}\n";
        let r = replay(overdrawn).expect("parses");
        assert!(
            r.issues.iter().any(|i| i.contains("strong_call")),
            "{:?}",
            r.issues
        );
    }

    #[test]
    fn structural_errors_surface_as_err() {
        assert!(replay("{\"seq\":0,\"ev\":\"wat\"}\n").is_err());
    }
}
