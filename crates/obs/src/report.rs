//! Offline trace analysis: parse a JSONL trace back into per-phase
//! call/comparison accounting, a prune breakdown, a fault/retry summary
//! and a call trajectory.
//!
//! The parser is a hand-rolled field extractor specialized to the flat,
//! one-object-per-line format [`crate::event::TraceEvent::write_jsonl`]
//! produces (the workspace is dependency-free, so there is no serde).
//! It is strict about what it needs and tolerant of extra fields, so
//! traces from newer writers still summarize.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::EventKind;

/// Number of sample rows in the call trajectory (deciles + endpoint).
const TRAJECTORY_POINTS: u64 = 10;

/// Extracts the raw text of field `key` from a single JSONL line.
pub(crate) fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat_len = key.len() + 3; // "key":
    let mut search = 0;
    loop {
        let at = line[search..].find('"')? + search;
        let rest = &line[at + 1..];
        if rest.starts_with(key) && rest[key.len()..].starts_with("\":") {
            let val = rest[key.len() + 2..].trim_start();
            return if let Some(stripped) = val.strip_prefix('"') {
                stripped.find('"').map(|end| &stripped[..end])
            } else {
                let end = val.find([',', '}']).unwrap_or(val.len());
                Some(val[..end].trim_end())
            };
        }
        // Skip past this quoted token (key or string value) and retry.
        let close = rest.find('"')? + at + 2;
        search = close;
        if search + pat_len > line.len() {
            return None;
        }
    }
}

/// The kind of one JSONL line (`None` when `ev` is absent or unknown).
pub(crate) fn event_kind(line: &str) -> Option<EventKind> {
    field(line, "ev").and_then(EventKind::parse)
}

pub(crate) fn u64_field(line: &str, key: &str, lineno: usize) -> Result<u64, String> {
    let raw = field(line, key).ok_or_else(|| format!("line {lineno}: missing field \"{key}\""))?;
    raw.parse::<u64>()
        .map_err(|_| format!("line {lineno}: field \"{key}\" is not an integer: {raw:?}"))
}

/// Per-phase accounting row. A phase name that is entered repeatedly
/// (e.g. `query`, once per source) accumulates into a single row.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PhaseRow {
    pub name: String,
    /// Times the phase was entered.
    pub enters: u64,
    /// Billed oracle attempts while the phase was innermost.
    pub calls: u64,
    /// Bound probes (comparison attempts) while innermost.
    pub probes: u64,
    /// Probes answered from certified distances (`lb == ub`).
    pub known: u64,
    /// Probes decided by a strict bound (lb or ub verdict).
    pub decided: u64,
    /// Probes that fell through to exact resolution.
    pub fell_through: u64,
}

/// Prune breakdown row: how one scheme's probes were settled.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PruneRow {
    pub scheme: String,
    pub known: u64,
    pub lb: u64,
    pub ub: u64,
    pub open: u64,
}

/// One provenance-ledger row replayed from a `provenance` trace event.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ProvenanceRow {
    /// Row kind (`strong_call`, `weak_quorum`, `bound_decisive`, ...).
    pub kind: String,
    /// Scheme name (`bound_decisive` rows only; empty otherwise).
    pub scheme: String,
    /// Query-path tier (`bound_decisive` rows only; empty otherwise).
    pub tier: String,
    pub count: u64,
}

/// One sample of the cumulative calls-vs-comparisons trajectory.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub struct TrajPoint {
    /// Events consumed when the sample was taken.
    pub events: u64,
    pub probes: u64,
    pub calls: u64,
}

/// Aggregated view of one trace. Produced by [`summarize`].
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TraceSummary {
    /// Total events in the trace.
    pub events: u64,
    /// Billed oracle attempts (`outcome != "budget"`). With retries off
    /// this equals `OracleStats::calls`; with faults on it still does,
    /// because every retried attempt is billed.
    pub billed_calls: u64,
    /// Attempts denied by the call budget before billing.
    pub budget_denied: u64,
    /// Virtual nanoseconds accrued by billed attempts.
    pub virtual_ns: u64,
    /// Bound probes (comparison attempts).
    pub probes: u64,
    /// Attempts that drew an injected fault (transient or timeout).
    pub faults_injected: u64,
    /// Retry events (each faulted attempt that was retried).
    pub retries: u64,
    /// Logical calls that exhausted their retry allowance.
    pub gave_up: u64,
    /// Virtual backoff accrued across retries.
    pub backoff_ns: u64,
    /// Checkpoint appends acknowledged.
    pub checkpoints: u64,
    /// Value corruptions the consistency auditor caught (sandwich
    /// violations plus vote losers).
    pub corruption_detected: u64,
    /// Detected corruptions replaced by a trusted re-query value.
    pub corruption_repaired: u64,
    /// Recorded values proven poisoned and withdrawn from the scheme.
    pub corruption_retracted: u64,
    /// Weak-tier votes over fresh pairs (`weak_probe` events).
    pub weak_votes: u64,
    /// Weak probes spent across all votes (sum of `attempts`).
    pub weak_probe_attempts: u64,
    /// Votes whose quorum passed the certified sandwich — resolutions
    /// served without a strong call.
    pub weak_resolved: u64,
    /// Votes whose quorum violated its sandwich (proven weak lies).
    pub weak_lies: u64,
    /// Votes that hit the attempt cap without a quorum and escalated.
    pub weak_no_quorum: u64,
    /// `degraded` events (0 or 1 in a well-formed trace: the strong tier
    /// is lost at most once per run).
    pub degraded_events: u64,
    /// Strong calls billed at the moment the tier was lost (last event).
    pub degraded_strong_calls: u64,
    /// Why the strong tier was lost (`"budget_exhausted"`/`"permanent"`;
    /// empty when the run stayed healthy).
    pub degraded_reason: String,
    /// Events missing from the trace, detected as gaps in the `seq`
    /// numbering. Nonzero means the sink dropped writes (see
    /// `JsonlSink::io_errors`) — the summary under-counts by this many.
    pub dropped_events: u64,
    /// Serve-layer group queries that passed admission control.
    pub serve_admitted: u64,
    /// Serve-layer group queries bounced by admission control.
    pub serve_rejected: u64,
    /// Serve-layer groups that finished degraded (`session_degrade`).
    pub serve_degraded: u64,
    /// Sessions quarantined after a poisoned-state detection.
    pub serve_quarantined: u64,
    /// Successful store commits (`store_commit` events).
    pub store_commits: u64,
    /// Fresh entries those commits made durable, summed.
    pub store_fresh: u64,
    /// Already-certified duplicates those commits skipped, summed.
    pub store_duplicates: u64,
    /// Commits refused for a stale epoch token (`commit_fenced`).
    pub commits_fenced: u64,
    /// WAL replays at store open (`wal_recover` events).
    pub wal_recoveries: u64,
    /// Entries recovered across those replays, summed.
    pub wal_recovered_entries: u64,
    /// Unverifiable tail lines dropped by lenient salvage, summed.
    pub wal_dropped_lines: u64,
    /// Replays whose tail segment was torn and salvaged.
    pub wal_salvaged: u64,
    /// Provenance-ledger rows replayed from `provenance` events, in trace
    /// order (the writer emits them in the ledger's stable order).
    pub provenance: Vec<ProvenanceRow>,
    /// Per-phase rows, in first-entered order.
    pub phases: Vec<PhaseRow>,
    /// Prune breakdown per scheme, name-sorted.
    pub prune: Vec<PruneRow>,
    /// Cumulative trajectory sampled at event-count deciles.
    pub trajectory: Vec<TrajPoint>,
}

impl TraceSummary {
    /// Sum of billed calls attributed to some phase (calls made outside
    /// any open phase are counted in `billed_calls` only).
    pub fn phase_calls_total(&self) -> u64 {
        self.phases.iter().map(|p| p.calls).sum()
    }

    /// Renders the summary as the text report `prox-cli report` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace summary: {} events", self.events);
        if self.dropped_events > 0 {
            let _ = writeln!(
                out,
                "  [warn] {} event(s) missing (seq gaps — dropped trace writes); \
                 totals below under-count",
                self.dropped_events
            );
        }
        let _ = writeln!(
            out,
            "  oracle: {} billed calls, {} virtual ns{}",
            self.billed_calls,
            self.virtual_ns,
            if self.budget_denied > 0 {
                format!(", {} budget-denied", self.budget_denied)
            } else {
                String::new()
            }
        );
        let _ = writeln!(
            out,
            "  comparisons: {} probes ({:.2} calls per comparison)",
            self.probes,
            if self.probes == 0 {
                0.0
            } else {
                self.billed_calls as f64 / self.probes as f64
            }
        );

        if !self.phases.is_empty() {
            let _ = writeln!(out, "\nper-phase (calls vs comparisons):");
            let _ = writeln!(
                out,
                "  {:<12} {:>8} {:>8} {:>8} {:>8} {:>8}",
                "phase", "enters", "calls", "probes", "decided", "fell"
            );
            for p in &self.phases {
                let _ = writeln!(
                    out,
                    "  {:<12} {:>8} {:>8} {:>8} {:>8} {:>8}",
                    p.name, p.enters, p.calls, p.probes, p.decided, p.fell_through
                );
            }
        }

        if !self.prune.is_empty() {
            let _ = writeln!(out, "\nprune breakdown (probe verdicts per scheme):");
            let _ = writeln!(
                out,
                "  {:<8} {:>8} {:>8} {:>8} {:>10}",
                "scheme", "known", "by-LB", "by-UB", "fell-thru"
            );
            for r in &self.prune {
                let _ = writeln!(
                    out,
                    "  {:<8} {:>8} {:>8} {:>8} {:>10}",
                    r.scheme, r.known, r.lb, r.ub, r.open
                );
            }
        }

        if self.faults_injected + self.retries + self.gave_up + self.checkpoints > 0 {
            let _ = writeln!(out, "\nfault/retry summary:");
            let _ = writeln!(
                out,
                "  {} faulted attempts, {} retries, {} gave up, {} backoff ns, {} checkpoints",
                self.faults_injected, self.retries, self.gave_up, self.backoff_ns, self.checkpoints
            );
        }

        if self.corruption_detected + self.corruption_repaired + self.corruption_retracted > 0 {
            let _ = writeln!(out, "\ncorruption audit:");
            let _ = writeln!(
                out,
                "  {} detected, {} repaired, {} retracted",
                self.corruption_detected, self.corruption_repaired, self.corruption_retracted
            );
        }

        if self.weak_votes > 0 {
            let _ = writeln!(out, "\nweak cascade:");
            let _ = writeln!(
                out,
                "  {} votes ({} weak probes): {} resolved, {} lies caught, {} no-quorum",
                self.weak_votes,
                self.weak_probe_attempts,
                self.weak_resolved,
                self.weak_lies,
                self.weak_no_quorum
            );
        }

        if self.degraded_events > 0 {
            let _ = writeln!(out, "\ndegraded:");
            let _ = writeln!(
                out,
                "  strong oracle lost after {} calls ({}); run finished on weak+bounds",
                self.degraded_strong_calls, self.degraded_reason
            );
        }

        let serve_activity = self.serve_admitted
            + self.serve_rejected
            + self.serve_quarantined
            + self.store_commits
            + self.commits_fenced
            + self.wal_recoveries;
        if serve_activity > 0 {
            let _ = writeln!(out, "\nserving / admission:");
            let _ = writeln!(
                out,
                "  {} groups admitted, {} rejected, {} degraded, {} sessions quarantined",
                self.serve_admitted,
                self.serve_rejected,
                self.serve_degraded,
                self.serve_quarantined
            );
            let _ = writeln!(
                out,
                "  {} commits ({} fresh, {} duplicates), {} fenced",
                self.store_commits, self.store_fresh, self.store_duplicates, self.commits_fenced
            );
            if self.wal_recoveries > 0 {
                let _ = writeln!(
                    out,
                    "  {} WAL replay(s): {} entries recovered, {} torn line(s) dropped, \
                     {} salvaged tail(s)",
                    self.wal_recoveries,
                    self.wal_recovered_entries,
                    self.wal_dropped_lines,
                    self.wal_salvaged
                );
            }
        }

        if !self.provenance.is_empty() {
            let _ = writeln!(out, "\nprovenance ledger:");
            let _ = writeln!(out, "  {:<28} {:>10}", "source", "count");
            for r in &self.provenance {
                let label = if r.scheme.is_empty() {
                    r.kind.clone()
                } else {
                    format!("{}[{}/{}]", r.kind, r.scheme, r.tier)
                };
                let _ = writeln!(out, "  {:<28} {:>10}", label, r.count);
            }
        }

        if self.trajectory.len() > 1 {
            let _ = writeln!(out, "\ncall trajectory (cumulative):");
            let _ = writeln!(out, "  {:>8} {:>10} {:>10}", "events", "probes", "calls");
            for t in &self.trajectory {
                let _ = writeln!(out, "  {:>8} {:>10} {:>10}", t.events, t.probes, t.calls);
            }
        }
        out
    }
}

/// Parses JSONL trace text into a [`TraceSummary`].
///
/// Every [`EventKind`] has its own arm, so a new event class fails to
/// compile until the report accounts for it. The two lints below forbid a
/// catch-all arm (clippy reports a wildcard covering one variant under the
/// second). A name no kind parses is an error: that input comes from a
/// file.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
pub fn summarize(text: &str) -> Result<TraceSummary, String> {
    let total_events = text.lines().filter(|l| !l.trim().is_empty()).count() as u64;
    let mut s = TraceSummary {
        events: total_events,
        ..TraceSummary::default()
    };

    let mut phase_order: Vec<String> = Vec::new();
    let mut phase_rows: BTreeMap<String, PhaseRow> = BTreeMap::new();
    let mut phase_stack: Vec<String> = Vec::new();
    let mut prune: BTreeMap<String, PruneRow> = BTreeMap::new();

    let mut seen = 0u64;
    let mut next_sample = 0u64;
    let mut trajectory = Vec::new();
    let mut sample_at = |seen: u64, probes: u64, calls: u64, next: &mut u64| {
        if seen >= *next {
            trajectory.push(TrajPoint {
                events: seen,
                probes,
                calls,
            });
            while *next <= seen {
                *next += (total_events / TRAJECTORY_POINTS).max(1);
            }
        }
    };

    let mut prev_seq: Option<u64> = None;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let lineno = idx + 1;
        // Dropped writes leave holes in the monotone seq numbering; count
        // them so reports can warn that the totals under-count.
        if let Some(raw) = field(line, "seq") {
            let seq = raw
                .parse::<u64>()
                .map_err(|_| format!("line {lineno}: field \"seq\" is not an integer: {raw:?}"))?;
            if let Some(prev) = prev_seq {
                if seq <= prev {
                    return Err(format!(
                        "line {lineno}: seq {seq} is not monotone (previous was {prev})"
                    ));
                }
                s.dropped_events += seq - prev - 1;
            }
            prev_seq = Some(seq);
        }
        let ev = field(line, "ev").ok_or_else(|| format!("line {lineno}: missing field \"ev\""))?;
        let kind =
            EventKind::parse(ev).ok_or_else(|| format!("line {lineno}: unknown event {ev:?}"))?;
        match kind {
            EventKind::OracleCall => {
                let outcome = field(line, "outcome")
                    .ok_or_else(|| format!("line {lineno}: missing field \"outcome\""))?;
                if outcome == "budget" {
                    s.budget_denied += 1;
                } else {
                    s.billed_calls += 1;
                    s.virtual_ns += u64_field(line, "virtual_ns", lineno)?;
                    if let Some(p) = phase_stack.last().and_then(|top| phase_rows.get_mut(top)) {
                        p.calls += 1;
                    }
                    if outcome != "ok" {
                        s.faults_injected += 1;
                    }
                }
            }
            EventKind::BoundProbe => {
                s.probes += 1;
                let verdict = field(line, "verdict")
                    .ok_or_else(|| format!("line {lineno}: missing field \"verdict\""))?;
                let scheme = field(line, "scheme").unwrap_or("?");
                let row = prune.entry(scheme.to_string()).or_insert_with(|| PruneRow {
                    scheme: scheme.to_string(),
                    ..PruneRow::default()
                });
                if let Some(p) = phase_stack.last().and_then(|top| phase_rows.get_mut(top)) {
                    p.probes += 1;
                }
                let phase = phase_stack.last().and_then(|top| phase_rows.get_mut(top));
                match verdict {
                    "known" => {
                        row.known += 1;
                        if let Some(p) = phase {
                            p.known += 1;
                        }
                    }
                    "lb" => {
                        row.lb += 1;
                        if let Some(p) = phase {
                            p.decided += 1;
                        }
                    }
                    "ub" => {
                        row.ub += 1;
                        if let Some(p) = phase {
                            p.decided += 1;
                        }
                    }
                    "open" => {
                        row.open += 1;
                        if let Some(p) = phase {
                            p.fell_through += 1;
                        }
                    }
                    other => {
                        return Err(format!("line {lineno}: unknown verdict {other:?}"));
                    }
                }
            }
            EventKind::Retry => {
                s.retries += 1;
                s.backoff_ns += u64_field(line, "backoff_ns", lineno)?;
            }
            EventKind::Fault => {
                s.gave_up += 1;
            }
            EventKind::CheckpointWrite => {
                s.checkpoints += 1;
            }
            EventKind::Corruption => {
                let action = field(line, "action")
                    .ok_or_else(|| format!("line {lineno}: missing field \"action\""))?;
                match action {
                    "detected" => s.corruption_detected += 1,
                    "repaired" => s.corruption_repaired += 1,
                    "retracted" => s.corruption_retracted += 1,
                    other => {
                        return Err(format!(
                            "line {lineno}: unknown corruption action {other:?}"
                        ));
                    }
                }
            }
            EventKind::WeakProbe => {
                s.weak_votes += 1;
                s.weak_probe_attempts += u64_field(line, "attempts", lineno)?;
                let outcome = field(line, "outcome")
                    .ok_or_else(|| format!("line {lineno}: missing field \"outcome\""))?;
                match outcome {
                    "resolved" => s.weak_resolved += 1,
                    "lie" => s.weak_lies += 1,
                    "no_quorum" => s.weak_no_quorum += 1,
                    other => {
                        return Err(format!("line {lineno}: unknown weak outcome {other:?}"));
                    }
                }
            }
            EventKind::Degraded => {
                s.degraded_events += 1;
                s.degraded_strong_calls = u64_field(line, "strong_calls", lineno)?;
                s.degraded_reason = field(line, "reason")
                    .ok_or_else(|| format!("line {lineno}: missing field \"reason\""))?
                    .to_string();
            }
            EventKind::PhaseEnter => {
                let name = field(line, "name")
                    .ok_or_else(|| format!("line {lineno}: missing field \"name\""))?;
                if !phase_rows.contains_key(name) {
                    phase_order.push(name.to_string());
                }
                let row = phase_rows
                    .entry(name.to_string())
                    .or_insert_with(|| PhaseRow {
                        name: name.to_string(),
                        ..PhaseRow::default()
                    });
                row.enters += 1;
                phase_stack.push(name.to_string());
            }
            EventKind::PhaseExit => {
                let name = field(line, "name")
                    .ok_or_else(|| format!("line {lineno}: missing field \"name\""))?;
                match phase_stack.pop() {
                    Some(top) if top == name => {}
                    Some(top) => {
                        return Err(format!(
                            "line {lineno}: phase_exit {name:?} does not match open phase {top:?}"
                        ));
                    }
                    None => {
                        return Err(format!(
                            "line {lineno}: phase_exit {name:?} with no open phase"
                        ));
                    }
                }
            }
            EventKind::Provenance => {
                let kind = field(line, "kind")
                    .ok_or_else(|| format!("line {lineno}: missing field \"kind\""))?;
                s.provenance.push(ProvenanceRow {
                    kind: kind.to_string(),
                    scheme: field(line, "scheme").unwrap_or("").to_string(),
                    tier: field(line, "tier").unwrap_or("").to_string(),
                    count: u64_field(line, "count", lineno)?,
                });
            }
            EventKind::SessionAdmit => {
                s.serve_admitted += 1;
            }
            EventKind::SessionReject => {
                s.serve_rejected += 1;
            }
            EventKind::SessionDegrade => {
                s.serve_degraded += 1;
            }
            EventKind::SessionQuarantine => {
                s.serve_quarantined += 1;
            }
            EventKind::StoreCommit => {
                s.store_commits += 1;
                s.store_fresh += u64_field(line, "fresh", lineno)?;
                s.store_duplicates += u64_field(line, "duplicates", lineno)?;
            }
            EventKind::CommitFenced => {
                s.commits_fenced += 1;
            }
            EventKind::WalRecover => {
                s.wal_recoveries += 1;
                s.wal_recovered_entries += u64_field(line, "entries", lineno)?;
                s.wal_dropped_lines += u64_field(line, "dropped_lines", lineno)?;
                let salvaged = field(line, "salvaged")
                    .ok_or_else(|| format!("line {lineno}: missing field \"salvaged\""))?;
                if salvaged == "true" {
                    s.wal_salvaged += 1;
                }
            }
        }
        seen += 1;
        sample_at(seen, s.probes, s.billed_calls, &mut next_sample);
    }

    if trajectory.last().map(|t| t.events) != Some(seen) && seen > 0 {
        trajectory.push(TrajPoint {
            events: seen,
            probes: s.probes,
            calls: s.billed_calls,
        });
    }
    s.trajectory = trajectory;
    s.phases = phase_order
        .into_iter()
        .filter_map(|name| phase_rows.remove(&name))
        .collect();
    s.prune = prune.into_values().collect();
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
{\"seq\":0,\"ev\":\"phase_enter\",\"name\":\"bootstrap\"}
{\"seq\":1,\"ev\":\"oracle_call\",\"lo\":0,\"hi\":1,\"attempt\":0,\"outcome\":\"ok\",\"virtual_ns\":100}
{\"seq\":2,\"ev\":\"phase_exit\",\"name\":\"bootstrap\"}
{\"seq\":3,\"ev\":\"phase_enter\",\"name\":\"build\"}
{\"seq\":4,\"ev\":\"bound_probe\",\"lo\":0,\"hi\":2,\"lb\":0.1,\"ub\":0.3,\"verdict\":\"ub\",\"kind\":\"less\",\"scheme\":\"Tri\"}
{\"seq\":5,\"ev\":\"bound_probe\",\"lo\":0,\"hi\":3,\"lb\":0.1,\"ub\":0.9,\"verdict\":\"open\",\"kind\":\"less\",\"scheme\":\"Tri\"}
{\"seq\":6,\"ev\":\"oracle_call\",\"lo\":0,\"hi\":3,\"attempt\":0,\"outcome\":\"transient\",\"virtual_ns\":100}
{\"seq\":7,\"ev\":\"retry\",\"lo\":0,\"hi\":3,\"attempt\":0,\"backoff_ns\":500}
{\"seq\":8,\"ev\":\"oracle_call\",\"lo\":0,\"hi\":3,\"attempt\":1,\"outcome\":\"ok\",\"virtual_ns\":100}
{\"seq\":9,\"ev\":\"bound_probe\",\"lo\":1,\"hi\":3,\"lb\":0.2,\"ub\":0.2,\"verdict\":\"known\",\"kind\":\"leq_value\",\"scheme\":\"SPLUB\"}
{\"seq\":10,\"ev\":\"checkpoint\",\"resolved\":2}
{\"seq\":11,\"ev\":\"phase_exit\",\"name\":\"build\"}
";

    #[test]
    fn summarize_accounts_every_dimension() {
        let s = summarize(SAMPLE).expect("valid trace");
        assert_eq!(s.events, 12);
        assert_eq!(s.billed_calls, 3);
        assert_eq!(s.virtual_ns, 300);
        assert_eq!(s.probes, 3);
        assert_eq!(s.faults_injected, 1);
        assert_eq!(s.retries, 1);
        assert_eq!(s.backoff_ns, 500);
        assert_eq!(s.gave_up, 0);
        assert_eq!(s.checkpoints, 1);

        assert_eq!(s.phases.len(), 2);
        assert_eq!(s.phases[0].name, "bootstrap");
        assert_eq!(s.phases[0].calls, 1);
        assert_eq!(s.phases[0].probes, 0);
        assert_eq!(s.phases[1].name, "build");
        assert_eq!(s.phases[1].calls, 2);
        assert_eq!(s.phases[1].probes, 3);
        assert_eq!(s.phases[1].decided, 1);
        assert_eq!(s.phases[1].known, 1);
        assert_eq!(s.phases[1].fell_through, 1);

        assert_eq!(s.prune.len(), 2);
        assert_eq!(s.prune[0].scheme, "SPLUB");
        assert_eq!(s.prune[0].known, 1);
        assert_eq!(s.prune[1].scheme, "Tri");
        assert_eq!(s.prune[1].ub, 1);
        assert_eq!(s.prune[1].open, 1);

        let last = s.trajectory.last().unwrap();
        assert_eq!(last.events, 12);
        assert_eq!(last.calls, 3);
        assert_eq!(last.probes, 3);
    }

    #[test]
    fn corruption_events_are_counted_by_action() {
        let text = "\
{\"seq\":0,\"ev\":\"corruption\",\"lo\":0,\"hi\":1,\"action\":\"detected\",\"value\":0.9,\"lb\":0.1,\"ub\":0.2}
{\"seq\":1,\"ev\":\"corruption\",\"lo\":0,\"hi\":1,\"action\":\"detected\",\"value\":0.8,\"lb\":0.1,\"ub\":0.2}
{\"seq\":2,\"ev\":\"corruption\",\"lo\":0,\"hi\":1,\"action\":\"repaired\",\"value\":0.15,\"lb\":0.1,\"ub\":0.2}
{\"seq\":3,\"ev\":\"corruption\",\"lo\":2,\"hi\":3,\"action\":\"retracted\",\"value\":0.7,\"lb\":0.3,\"ub\":0.3}
";
        let s = summarize(text).expect("valid");
        assert_eq!(s.corruption_detected, 2);
        assert_eq!(s.corruption_repaired, 1);
        assert_eq!(s.corruption_retracted, 1);
        let r = s.render();
        assert!(r.contains("corruption audit"), "{r}");
        assert!(r.contains("2 detected, 1 repaired, 1 retracted"), "{r}");
        // A clean trace renders no corruption section.
        assert!(!summarize(SAMPLE)
            .expect("valid")
            .render()
            .contains("corruption"));
        // Unknown actions are malformed, like unknown events.
        let bad = "{\"seq\":0,\"ev\":\"corruption\",\"lo\":0,\"hi\":1,\"action\":\"wat\",\
                   \"value\":0.1,\"lb\":0.1,\"ub\":0.2}\n";
        assert!(summarize(bad)
            .unwrap_err()
            .contains("unknown corruption action"));
    }

    #[test]
    fn weak_and_degraded_events_are_summarized() {
        let text = "\
{\"seq\":0,\"ev\":\"weak_probe\",\"lo\":0,\"hi\":1,\"attempts\":2,\"outcome\":\"resolved\"}
{\"seq\":1,\"ev\":\"weak_probe\",\"lo\":0,\"hi\":2,\"attempts\":3,\"outcome\":\"resolved\"}
{\"seq\":2,\"ev\":\"weak_probe\",\"lo\":1,\"hi\":2,\"attempts\":4,\"outcome\":\"lie\"}
{\"seq\":3,\"ev\":\"weak_probe\",\"lo\":1,\"hi\":3,\"attempts\":8,\"outcome\":\"no_quorum\"}
{\"seq\":4,\"ev\":\"degraded\",\"strong_calls\":12,\"reason\":\"budget_exhausted\"}
";
        let s = summarize(text).expect("valid");
        assert_eq!(s.weak_votes, 4);
        assert_eq!(s.weak_probe_attempts, 17);
        assert_eq!(s.weak_resolved, 2);
        assert_eq!(s.weak_lies, 1);
        assert_eq!(s.weak_no_quorum, 1);
        assert_eq!(s.degraded_events, 1);
        assert_eq!(s.degraded_strong_calls, 12);
        assert_eq!(s.degraded_reason, "budget_exhausted");
        let r = s.render();
        assert!(r.contains("weak cascade"), "{r}");
        assert!(
            r.contains("4 votes (17 weak probes): 2 resolved, 1 lies caught, 1 no-quorum"),
            "{r}"
        );
        assert!(r.contains("degraded:"), "{r}");
        assert!(
            r.contains("strong oracle lost after 12 calls (budget_exhausted)"),
            "{r}"
        );
        // A weak-free trace renders neither section.
        let clean = summarize(SAMPLE).expect("valid").render();
        assert!(!clean.contains("weak cascade"), "{clean}");
        assert!(!clean.contains("degraded"), "{clean}");
        // Unknown weak outcomes are malformed, like unknown events.
        let bad =
            "{\"seq\":0,\"ev\":\"weak_probe\",\"lo\":0,\"hi\":1,\"attempts\":1,\"outcome\":\"wat\"}\n";
        assert!(summarize(bad).unwrap_err().contains("unknown weak outcome"));
    }

    #[test]
    fn serve_events_get_their_own_section() {
        let text = "\
{\"seq\":0,\"ev\":\"wal_recover\",\"segments\":2,\"entries\":90,\"dropped_lines\":6,\"salvaged\":true}
{\"seq\":1,\"ev\":\"session_admit\",\"session\":0,\"pairs\":28,\"missing\":28}
{\"seq\":2,\"ev\":\"session_reject\",\"session\":1,\"missing\":15,\"admit\":4,\"retry_at\":11}
{\"seq\":3,\"ev\":\"session_admit\",\"session\":1,\"pairs\":15,\"missing\":2}
{\"seq\":4,\"ev\":\"session_degrade\",\"session\":1,\"pairs\":9}
{\"seq\":5,\"ev\":\"store_commit\",\"session\":0,\"fresh\":28,\"duplicates\":0,\"gen\":1}
{\"seq\":6,\"ev\":\"commit_fenced\",\"session\":1,\"token_epoch\":0,\"store_epoch\":1}
{\"seq\":7,\"ev\":\"session_quarantine\",\"session\":2}
{\"seq\":8,\"ev\":\"store_commit\",\"session\":1,\"fresh\":4,\"duplicates\":2,\"gen\":2}
";
        let s = summarize(text).expect("valid");
        assert_eq!(s.serve_admitted, 2);
        assert_eq!(s.serve_rejected, 1);
        assert_eq!(s.serve_degraded, 1);
        assert_eq!(s.serve_quarantined, 1);
        assert_eq!(s.store_commits, 2);
        assert_eq!(s.store_fresh, 32);
        assert_eq!(s.store_duplicates, 2);
        assert_eq!(s.commits_fenced, 1);
        assert_eq!(s.wal_recoveries, 1);
        assert_eq!(s.wal_recovered_entries, 90);
        assert_eq!(s.wal_dropped_lines, 6);
        assert_eq!(s.wal_salvaged, 1);
        let r = s.render();
        assert!(r.contains("serving / admission"), "{r}");
        assert!(
            r.contains("2 groups admitted, 1 rejected, 1 degraded, 1 sessions quarantined"),
            "{r}"
        );
        assert!(
            r.contains("2 commits (32 fresh, 2 duplicates), 1 fenced"),
            "{r}"
        );
        assert!(
            r.contains("1 WAL replay(s): 90 entries recovered, 6 torn line(s) dropped"),
            "{r}"
        );
        // A serve-free trace renders no serving section.
        assert!(!summarize(SAMPLE)
            .expect("valid")
            .render()
            .contains("serving / admission"));
    }

    #[test]
    fn budget_denied_attempts_are_not_billed() {
        let text = "{\"seq\":0,\"ev\":\"oracle_call\",\"lo\":0,\"hi\":1,\"attempt\":0,\
                    \"outcome\":\"budget\",\"virtual_ns\":0}\n";
        let s = summarize(text).expect("valid");
        assert_eq!(s.billed_calls, 0);
        assert_eq!(s.budget_denied, 1);
    }

    #[test]
    fn mismatched_phase_exit_is_an_error() {
        let text = "{\"seq\":0,\"ev\":\"phase_enter\",\"name\":\"a\"}\n\
                    {\"seq\":1,\"ev\":\"phase_exit\",\"name\":\"b\"}\n";
        let err = summarize(text).unwrap_err();
        assert!(err.contains("does not match"), "{err}");
        let text2 = "{\"seq\":0,\"ev\":\"phase_exit\",\"name\":\"b\"}\n";
        assert!(summarize(text2).unwrap_err().contains("no open phase"));
    }

    #[test]
    fn malformed_lines_are_reported_with_numbers() {
        let err = summarize("{\"seq\":0}\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let err = summarize("{\"seq\":0,\"ev\":\"oracle_call\"}\n").unwrap_err();
        assert!(err.contains("outcome"), "{err}");
        let err = summarize("{\"seq\":0,\"ev\":\"wat\"}\n").unwrap_err();
        assert!(err.contains("unknown event"), "{err}");
    }

    #[test]
    fn seq_gaps_are_counted_as_dropped_events() {
        // seq jumps 1 -> 4: two events were dropped by the sink.
        let text = "{\"seq\":0,\"ev\":\"phase_enter\",\"name\":\"build\"}\n\
                    {\"seq\":1,\"ev\":\"checkpoint\",\"resolved\":1}\n\
                    {\"seq\":4,\"ev\":\"phase_exit\",\"name\":\"build\"}\n";
        let s = summarize(text).expect("valid");
        assert_eq!(s.dropped_events, 2);
        let r = s.render();
        assert!(r.contains("[warn] 2 event(s) missing"), "{r}");
        // A gap-free trace neither counts nor warns.
        let s = summarize(SAMPLE).expect("valid");
        assert_eq!(s.dropped_events, 0);
        assert!(!s.render().contains("[warn]"));
    }

    #[test]
    fn sink_write_errors_surface_as_dropped_events() {
        use crate::{CallOutcome, JsonlSink, TraceEvent, TraceSink};
        use std::cell::RefCell;
        use std::io::Write;
        use std::rc::Rc;

        /// Captures successful writes into a shared buffer but fails a
        /// contiguous run of middle writes — a disk hiccup mid-run.
        struct Hiccup {
            buf: Rc<RefCell<Vec<u8>>>,
            seen: usize,
        }
        impl Write for Hiccup {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.seen += 1;
                if (3..6).contains(&self.seen) {
                    return Err(std::io::Error::other("disk hiccup"));
                }
                self.buf.borrow_mut().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buf = Rc::new(RefCell::new(Vec::new()));
        let sink = JsonlSink::to_writer(Box::new(Hiccup {
            buf: Rc::clone(&buf),
            seen: 0,
        }));
        for i in 0..8 {
            sink.emit(TraceEvent::OracleCall {
                lo: 0,
                hi: i + 1,
                attempt: 0,
                outcome: CallOutcome::Ok,
                virtual_ns: 10,
            });
        }
        // The sink knows it dropped writes...
        assert_eq!(sink.io_errors(), 3);
        drop(sink);

        // ...and the offline report rediscovers exactly those drops from
        // the seq gaps alone, warning the reader that totals under-count.
        let text = String::from_utf8(buf.borrow().clone()).expect("utf8 trace");
        let s = summarize(&text).expect("valid trace");
        assert_eq!(s.events, 5);
        assert_eq!(s.dropped_events, 3);
        assert!(s.render().contains("[warn] 3 event(s) missing"));
    }

    #[test]
    fn non_monotone_seq_is_an_error() {
        let text = "{\"seq\":3,\"ev\":\"checkpoint\",\"resolved\":1}\n\
                    {\"seq\":3,\"ev\":\"checkpoint\",\"resolved\":2}\n";
        let err = summarize(text).unwrap_err();
        assert!(err.contains("not monotone"), "{err}");
    }

    #[test]
    fn provenance_rows_are_replayed_and_rendered() {
        let text = "{\"seq\":0,\"ev\":\"provenance\",\"kind\":\"strong_call\",\"scheme\":\"\",\
                    \"tier\":\"\",\"count\":7}\n\
                    {\"seq\":1,\"ev\":\"provenance\",\"kind\":\"bound_decisive\",\
                    \"scheme\":\"tri\",\"tier\":\"direct\",\"count\":41}\n";
        let s = summarize(text).expect("valid");
        assert_eq!(s.provenance.len(), 2);
        assert_eq!(s.provenance[0].kind, "strong_call");
        assert_eq!(s.provenance[0].count, 7);
        assert_eq!(s.provenance[1].scheme, "tri");
        assert_eq!(s.provenance[1].tier, "direct");
        let r = s.render();
        assert!(r.contains("provenance ledger"), "{r}");
        assert!(r.contains("bound_decisive[tri/direct]"), "{r}");
        assert!(!summarize(SAMPLE).unwrap().render().contains("provenance"));
    }

    #[test]
    fn field_extractor_handles_string_values_containing_keys() {
        // A string value that *contains* another key must not confuse
        // the extractor.
        let line = "{\"ev\":\"phase_enter\",\"name\":\"ev\"}";
        assert_eq!(field(line, "ev"), Some("phase_enter"));
        assert_eq!(field(line, "name"), Some("ev"));
        assert_eq!(field(line, "missing"), None);
    }

    #[test]
    fn render_mentions_each_section() {
        let s = summarize(SAMPLE).expect("valid trace");
        let r = s.render();
        assert!(r.contains("per-phase"));
        assert!(r.contains("prune breakdown"));
        assert!(r.contains("fault/retry summary"));
        assert!(r.contains("call trajectory"));
        assert!(r.contains("bootstrap"));
        assert!(r.contains("SPLUB"));
    }
}
