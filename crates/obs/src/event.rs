//! Typed trace events and their JSONL encoding.
//!
//! Events are small `Copy` values carrying object ids as raw `u32`s (the
//! crate sits below `prox-core`, so it cannot name `Pair`). Every field is
//! *logical*: attempt counters, virtual nanoseconds, bound values — never
//! wall-clock time — so an emitted stream is a pure function of the
//! workload and seed.
//!
//! Every event describes *what was decided*: oracle attempts, bound
//! probes, faults, retries, checkpoints, phase markers. Plugged runs are
//! sequential, so the stream is identical at any `--threads N` (I8).

/// Outcome of one billed (or budget-denied) oracle attempt.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CallOutcome {
    /// The attempt returned a distance.
    Ok,
    /// A transient fault was injected; the caller may retry.
    Transient,
    /// A timeout fault was injected; the caller may retry.
    Timeout,
    /// The call budget refused the attempt *before billing*.
    Budget,
}

impl CallOutcome {
    /// Whether this attempt was billed against `OracleStats::calls`.
    /// Budget denials happen before billing and must be excluded when a
    /// report reconciles the trace against the oracle's counters.
    pub fn billed(self) -> bool {
        !matches!(self, CallOutcome::Budget)
    }

    fn name(self) -> &'static str {
        match self {
            CallOutcome::Ok => "ok",
            CallOutcome::Transient => "transient",
            CallOutcome::Timeout => "timeout",
            CallOutcome::Budget => "budget",
        }
    }
}

/// How a bound probe was settled.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ProbeVerdict {
    /// The pair's distance was already certified (`lb == ub`).
    Known,
    /// The lower bound alone decided the comparison.
    DecidedLb,
    /// The upper bound alone decided the comparison.
    DecidedUb,
    /// The bound interval straddled the threshold; the caller falls
    /// through to an exact resolution.
    Inconclusive,
}

impl ProbeVerdict {
    /// The verdict of a bound decision: `Some(true)` was settled by the
    /// upper bound, `Some(false)` by the lower bound, `None` by neither.
    pub fn decided(out: Option<bool>) -> Self {
        match out {
            Some(true) => ProbeVerdict::DecidedUb,
            Some(false) => ProbeVerdict::DecidedLb,
            None => ProbeVerdict::Inconclusive,
        }
    }

    fn name(self) -> &'static str {
        match self {
            ProbeVerdict::Known => "known",
            ProbeVerdict::DecidedLb => "lb",
            ProbeVerdict::DecidedUb => "ub",
            ProbeVerdict::Inconclusive => "open",
        }
    }
}

/// Which comparison primitive issued a bound probe.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ProbeKind {
    /// `try_less(x, y)` — pair-vs-pair.
    Less,
    /// `try_less_value(x, v)` — pair-vs-constant, strict.
    LessValue,
    /// `try_leq_value(x, v)` — pair-vs-constant, non-strict.
    LeqValue,
    /// `try_less_sum2` — sum-of-two vs sum-of-two.
    Sum2,
}

impl ProbeKind {
    fn name(self) -> &'static str {
        match self {
            ProbeKind::Less => "less",
            ProbeKind::LessValue => "less_value",
            ProbeKind::LeqValue => "leq_value",
            ProbeKind::Sum2 => "sum2",
        }
    }
}

/// What the consistency auditor did about a detected value corruption.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CorruptionAction {
    /// A value outside its certified `[TLB, TUB]` sandwich (or a vote
    /// loser) was caught before acceptance.
    Detected,
    /// A trusted replacement value was obtained by re-query voting.
    Repaired,
    /// A previously *recorded* value was proven poisoned and withdrawn
    /// from the bound scheme.
    Retracted,
}

impl CorruptionAction {
    fn name(self) -> &'static str {
        match self {
            CorruptionAction::Detected => "detected",
            CorruptionAction::Repaired => "repaired",
            CorruptionAction::Retracted => "retracted",
        }
    }
}

/// How one weak-tier vote over a fresh pair ended.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WeakOutcome {
    /// A bit-exact quorum formed and passed its certified sandwich; the
    /// pair was resolved without a strong call.
    Resolved,
    /// A quorum formed but violated its certified `[TLB, TUB]` sandwich —
    /// a proven weak lie; the pair is quarantined from the weak tier.
    Lie,
    /// The attempt cap ran out before any value gathered a quorum; the
    /// resolution escalated to the strong tier.
    NoQuorum,
}

impl WeakOutcome {
    fn name(self) -> &'static str {
        match self {
            WeakOutcome::Resolved => "resolved",
            WeakOutcome::Lie => "lie",
            WeakOutcome::NoQuorum => "no_quorum",
        }
    }
}

/// One structured trace event. Object pairs are carried as `(lo, hi)`
/// raw ids with `lo <= hi`, matching `prox_core::Pair`'s canonical form.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// One oracle attempt (billed unless `outcome == Budget`).
    OracleCall {
        lo: u32,
        hi: u32,
        /// 0-based attempt index within one logical call.
        attempt: u32,
        outcome: CallOutcome,
        /// Virtual cost accrued by this attempt, in nanoseconds.
        virtual_ns: u64,
    },
    /// One bound-based comparison attempt by a resolver.
    BoundProbe {
        lo: u32,
        hi: u32,
        lb: f64,
        ub: f64,
        verdict: ProbeVerdict,
        kind: ProbeKind,
        /// `BoundScheme::name()` of the deciding scheme.
        scheme: &'static str,
    },
    /// A logical call gave up after exhausting its retry allowance.
    Fault {
        lo: u32,
        hi: u32,
        /// Total attempts billed before giving up.
        attempts: u32,
        /// True for timeout faults, false for transient faults.
        timeout: bool,
    },
    /// A faulted attempt is about to be retried after virtual backoff.
    Retry {
        lo: u32,
        hi: u32,
        /// The attempt index that faulted (the retry is `attempt + 1`).
        attempt: u32,
        backoff_ns: u64,
    },
    /// The consistency auditor acted on a value corruption. One event
    /// per action: a detection records the rejected value against the
    /// violated (or winning-vote) interval; a repair records the trusted
    /// replacement; a retraction records the poisoned value withdrawn
    /// from the scheme.
    Corruption {
        lo: u32,
        hi: u32,
        action: CorruptionAction,
        /// The value the action is about (rejected, trusted, or
        /// withdrawn, by action).
        value: f64,
        /// Lower edge of the evidence interval (certified TLB for a
        /// sandwich violation; the vote winner for a vote loss).
        lb: f64,
        /// Upper edge of the evidence interval.
        ub: f64,
    },
    /// The weak tier voted on a fresh pair. `attempts` counts the weak
    /// probes spent on the vote.
    WeakProbe {
        lo: u32,
        hi: u32,
        /// Weak probes issued for this vote.
        attempts: u32,
        outcome: WeakOutcome,
    },
    /// The strong tier was lost mid-run (budget exhaustion or a
    /// permanent fault) and the cascade switched to weak+bounds-only
    /// service for the rest of the run.
    Degraded {
        /// Strong calls billed at the moment of loss (`0` when the
        /// failure carried no call counter).
        strong_calls: u64,
        /// `"budget_exhausted"` or `"permanent"`.
        reason: &'static str,
    },
    /// A checkpoint append was acknowledged by the log.
    CheckpointWrite {
        /// The run's resolutions when the append was acknowledged.
        resolved: u64,
    },
    /// An algorithm phase began (`bootstrap` / `build` / `query` / ...).
    PhaseEnter { name: &'static str },
    /// The matching phase ended.
    PhaseExit { name: &'static str },
    /// One provenance-ledger row, emitted at end of run so offline reports
    /// can rebuild the ledger without the resolver. Value rows (e.g.
    /// `strong_call`) carry empty `scheme`/`tier`; `bound_decisive` rows
    /// attribute the deciding scheme and its tier (always `direct`).
    Provenance {
        /// Row kind (a `ResolutionSource::kind()` label).
        kind: &'static str,
        /// Deciding scheme (`bound_decisive` rows only).
        scheme: &'static str,
        /// Query-path tier (`bound_decisive` rows only).
        tier: &'static str,
        /// Occurrences attributed to this row.
        count: u64,
    },
    /// A serve-layer session's group query passed admission control.
    SessionAdmit {
        /// Session id.
        session: u32,
        /// Pairs in the admitted group.
        pairs: u32,
        /// Pairs missing from snapshot + memo (the cost bound admission
        /// checked against the budget).
        missing: u32,
    },
    /// A serve-layer group query was bounced by admission control.
    SessionReject {
        /// Session id.
        session: u32,
        /// Pairs missing from snapshot + memo.
        missing: u64,
        /// The admission budget the group exceeded.
        admit: u64,
        /// Retry hint: store size at which the group could fit.
        retry_at: u64,
    },
    /// A serve-layer session finished a group degraded (strong tier lost
    /// mid-group; uncertified answers were served, never committed).
    SessionDegrade {
        /// Session id.
        session: u32,
        /// Uncertified pairs in the response.
        pairs: u32,
    },
    /// A serve-layer session was quarantined after its resolver's audit
    /// saw poisoned state; the store epoch was fenced.
    SessionQuarantine {
        /// Session id.
        session: u32,
    },
    /// A session's batch was durably committed to the shared store.
    StoreCommit {
        /// Session id.
        session: u32,
        /// Entries new to the store (WAL-logged then applied).
        fresh: u64,
        /// Entries the store already held (skipped).
        duplicates: u64,
        /// Store generation after the commit.
        generation: u64,
    },
    /// A commit was refused because the session's epoch token was stale.
    CommitFenced {
        /// Session id.
        session: u32,
        /// Epoch the stale token was issued under.
        token_epoch: u64,
        /// The store's epoch at refusal time.
        store_epoch: u64,
    },
    /// The shared store's write-ahead log was replayed at open.
    WalRecover {
        /// Segments found on disk.
        segments: u64,
        /// Entries recovered.
        entries: u64,
        /// Unverifiable tail lines dropped by lenient salvage.
        dropped_lines: u64,
        /// True when the tail segment was torn and salvaged.
        salvaged: bool,
    },
}

vocabulary! {
    /// The class of a [`TraceEvent`]: its variant without the payload. The
    /// name is the `ev` field of the JSONL encoding, so offline consumers
    /// (report, replay, diff, span profiler) match on kinds, not strings.
    pub enum EventKind => name {
        OracleCall => "oracle_call",
        BoundProbe => "bound_probe",
        Fault => "fault",
        Retry => "retry",
        Corruption => "corruption",
        WeakProbe => "weak_probe",
        Degraded => "degraded",
        CheckpointWrite => "checkpoint",
        PhaseEnter => "phase_enter",
        PhaseExit => "phase_exit",
        Provenance => "provenance",
        SessionAdmit => "session_admit",
        SessionReject => "session_reject",
        SessionDegrade => "session_degrade",
        SessionQuarantine => "session_quarantine",
        StoreCommit => "store_commit",
        CommitFenced => "commit_fenced",
        WalRecover => "wal_recover",
    }
}

impl EventKind {
    /// The kind whose name is `ev`, or `None` for a name no writer emits.
    pub fn parse(ev: &str) -> Option<EventKind> {
        EventKind::ALL.iter().copied().find(|k| k.name() == ev)
    }
}

impl TraceEvent {
    /// This event's class.
    pub fn kind(self) -> EventKind {
        match self {
            TraceEvent::OracleCall { .. } => EventKind::OracleCall,
            TraceEvent::BoundProbe { .. } => EventKind::BoundProbe,
            TraceEvent::Fault { .. } => EventKind::Fault,
            TraceEvent::Retry { .. } => EventKind::Retry,
            TraceEvent::Corruption { .. } => EventKind::Corruption,
            TraceEvent::WeakProbe { .. } => EventKind::WeakProbe,
            TraceEvent::Degraded { .. } => EventKind::Degraded,
            TraceEvent::CheckpointWrite { .. } => EventKind::CheckpointWrite,
            TraceEvent::PhaseEnter { .. } => EventKind::PhaseEnter,
            TraceEvent::PhaseExit { .. } => EventKind::PhaseExit,
            TraceEvent::Provenance { .. } => EventKind::Provenance,
            TraceEvent::SessionAdmit { .. } => EventKind::SessionAdmit,
            TraceEvent::SessionReject { .. } => EventKind::SessionReject,
            TraceEvent::SessionDegrade { .. } => EventKind::SessionDegrade,
            TraceEvent::SessionQuarantine { .. } => EventKind::SessionQuarantine,
            TraceEvent::StoreCommit { .. } => EventKind::StoreCommit,
            TraceEvent::CommitFenced { .. } => EventKind::CommitFenced,
            TraceEvent::WalRecover { .. } => EventKind::WalRecover,
        }
    }

    /// Short machine name used as the `ev` field in JSONL.
    pub fn name(self) -> &'static str {
        self.kind().name()
    }

    /// Appends the one-line JSONL encoding of this event (with its
    /// assigned sequence number) to `out`, including the trailing
    /// newline. Floats are rendered with Rust's shortest-roundtrip
    /// `Display`, which is deterministic across platforms.
    pub fn write_jsonl(self, seq: u64, out: &mut String) {
        use std::fmt::Write;
        let ev = self.name();
        // Infallible: writing to a String cannot fail.
        let _ = write!(out, "{{\"seq\":{seq},\"ev\":\"{ev}\"");
        match self {
            TraceEvent::OracleCall {
                lo,
                hi,
                attempt,
                outcome,
                virtual_ns,
            } => {
                let _ = write!(
                    out,
                    ",\"lo\":{lo},\"hi\":{hi},\"attempt\":{attempt},\"outcome\":\"{}\",\"virtual_ns\":{virtual_ns}",
                    outcome.name()
                );
            }
            TraceEvent::BoundProbe {
                lo,
                hi,
                lb,
                ub,
                verdict,
                kind,
                scheme,
            } => {
                let _ = write!(
                    out,
                    ",\"lo\":{lo},\"hi\":{hi},\"lb\":{lb},\"ub\":{ub},\"verdict\":\"{}\",\"kind\":\"{}\",\"scheme\":\"{scheme}\"",
                    verdict.name(),
                    kind.name()
                );
            }
            TraceEvent::Fault {
                lo,
                hi,
                attempts,
                timeout,
            } => {
                let _ = write!(
                    out,
                    ",\"lo\":{lo},\"hi\":{hi},\"attempts\":{attempts},\"timeout\":{timeout}"
                );
            }
            TraceEvent::Retry {
                lo,
                hi,
                attempt,
                backoff_ns,
            } => {
                let _ = write!(
                    out,
                    ",\"lo\":{lo},\"hi\":{hi},\"attempt\":{attempt},\"backoff_ns\":{backoff_ns}"
                );
            }
            TraceEvent::Corruption {
                lo,
                hi,
                action,
                value,
                lb,
                ub,
            } => {
                let _ = write!(
                    out,
                    ",\"lo\":{lo},\"hi\":{hi},\"action\":\"{}\",\"value\":{value},\"lb\":{lb},\"ub\":{ub}",
                    action.name()
                );
            }
            TraceEvent::WeakProbe {
                lo,
                hi,
                attempts,
                outcome,
            } => {
                let _ = write!(
                    out,
                    ",\"lo\":{lo},\"hi\":{hi},\"attempts\":{attempts},\"outcome\":\"{}\"",
                    outcome.name()
                );
            }
            TraceEvent::Degraded {
                strong_calls,
                reason,
            } => {
                let _ = write!(
                    out,
                    ",\"strong_calls\":{strong_calls},\"reason\":\"{reason}\""
                );
            }
            TraceEvent::CheckpointWrite { resolved } => {
                let _ = write!(out, ",\"resolved\":{resolved}");
            }
            TraceEvent::PhaseEnter { name } | TraceEvent::PhaseExit { name } => {
                let _ = write!(out, ",\"name\":\"{name}\"");
            }
            TraceEvent::Provenance {
                kind,
                scheme,
                tier,
                count,
            } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"{kind}\",\"scheme\":\"{scheme}\",\"tier\":\"{tier}\",\
                     \"count\":{count}"
                );
            }
            TraceEvent::SessionAdmit {
                session,
                pairs,
                missing,
            } => {
                let _ = write!(
                    out,
                    ",\"session\":{session},\"pairs\":{pairs},\"missing\":{missing}"
                );
            }
            TraceEvent::SessionReject {
                session,
                missing,
                admit,
                retry_at,
            } => {
                let _ = write!(
                    out,
                    ",\"session\":{session},\"missing\":{missing},\"admit\":{admit},\
                     \"retry_at\":{retry_at}"
                );
            }
            TraceEvent::SessionDegrade { session, pairs } => {
                let _ = write!(out, ",\"session\":{session},\"pairs\":{pairs}");
            }
            TraceEvent::SessionQuarantine { session } => {
                let _ = write!(out, ",\"session\":{session}");
            }
            TraceEvent::StoreCommit {
                session,
                fresh,
                duplicates,
                generation,
            } => {
                let _ = write!(
                    out,
                    ",\"session\":{session},\"fresh\":{fresh},\"duplicates\":{duplicates},\
                     \"gen\":{generation}"
                );
            }
            TraceEvent::CommitFenced {
                session,
                token_epoch,
                store_epoch,
            } => {
                let _ = write!(
                    out,
                    ",\"session\":{session},\"token_epoch\":{token_epoch},\
                     \"store_epoch\":{store_epoch}"
                );
            }
            TraceEvent::WalRecover {
                segments,
                entries,
                dropped_lines,
                salvaged,
            } => {
                let _ = write!(
                    out,
                    ",\"segments\":{segments},\"entries\":{entries},\
                     \"dropped_lines\":{dropped_lines},\"salvaged\":{salvaged}"
                );
            }
        }
        out.push_str("}\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encodes `ev` at `seq`, checking that its kind names the `ev` field
    /// and parses back from it.
    fn encode(ev: TraceEvent, seq: u64) -> String {
        let mut s = String::new();
        ev.write_jsonl(seq, &mut s);
        assert_eq!(ev.kind().name(), ev.name());
        assert_eq!(crate::report::event_kind(&s), Some(ev.kind()), "{s}");
        s
    }

    #[test]
    fn jsonl_encoding_is_stable() {
        let s = encode(
            TraceEvent::OracleCall {
                lo: 3,
                hi: 17,
                attempt: 1,
                outcome: CallOutcome::Transient,
                virtual_ns: 1_500_000,
            },
            42,
        );
        assert_eq!(
            s,
            "{\"seq\":42,\"ev\":\"oracle_call\",\"lo\":3,\"hi\":17,\"attempt\":1,\
             \"outcome\":\"transient\",\"virtual_ns\":1500000}\n"
        );

        let s = encode(
            TraceEvent::BoundProbe {
                lo: 0,
                hi: 5,
                lb: 0.25,
                ub: 0.5,
                verdict: ProbeVerdict::Inconclusive,
                kind: ProbeKind::LeqValue,
                scheme: "Tri",
            },
            7,
        );
        assert_eq!(
            s,
            "{\"seq\":7,\"ev\":\"bound_probe\",\"lo\":0,\"hi\":5,\"lb\":0.25,\"ub\":0.5,\
             \"verdict\":\"open\",\"kind\":\"leq_value\",\"scheme\":\"Tri\"}\n"
        );

        let s = encode(TraceEvent::PhaseEnter { name: "bootstrap" }, 0);
        assert_eq!(
            s,
            "{\"seq\":0,\"ev\":\"phase_enter\",\"name\":\"bootstrap\"}\n"
        );
    }

    #[test]
    fn provenance_event_encodes_and_is_semantic() {
        let ev = TraceEvent::Provenance {
            kind: "bound_decisive",
            scheme: "tri",
            tier: "direct",
            count: 41,
        };
        assert_eq!(
            encode(ev, 9),
            "{\"seq\":9,\"ev\":\"provenance\",\"kind\":\"bound_decisive\",\
             \"scheme\":\"tri\",\"tier\":\"direct\",\"count\":41}\n"
        );
    }

    #[test]
    fn corruption_event_encodes_and_is_semantic() {
        let ev = TraceEvent::Corruption {
            lo: 2,
            hi: 9,
            action: CorruptionAction::Detected,
            value: 0.75,
            lb: 0.1,
            ub: 0.3,
        };
        assert_eq!(
            encode(ev, 5),
            "{\"seq\":5,\"ev\":\"corruption\",\"lo\":2,\"hi\":9,\"action\":\"detected\",\
             \"value\":0.75,\"lb\":0.1,\"ub\":0.3}\n"
        );
        let s = encode(
            TraceEvent::Corruption {
                lo: 0,
                hi: 1,
                action: CorruptionAction::Retracted,
                value: 0.5,
                lb: 0.25,
                ub: 0.25,
            },
            0,
        );
        assert!(s.contains("\"action\":\"retracted\""));
    }

    #[test]
    fn weak_and_degraded_events_encode_and_are_semantic() {
        let ev = TraceEvent::WeakProbe {
            lo: 1,
            hi: 8,
            attempts: 3,
            outcome: WeakOutcome::Resolved,
        };
        assert_eq!(
            encode(ev, 9),
            "{\"seq\":9,\"ev\":\"weak_probe\",\"lo\":1,\"hi\":8,\"attempts\":3,\
             \"outcome\":\"resolved\"}\n"
        );
        for (outcome, tag) in [
            (WeakOutcome::Lie, "\"outcome\":\"lie\""),
            (WeakOutcome::NoQuorum, "\"outcome\":\"no_quorum\""),
        ] {
            let s = encode(
                TraceEvent::WeakProbe {
                    lo: 0,
                    hi: 1,
                    attempts: 2,
                    outcome,
                },
                0,
            );
            assert!(s.contains(tag), "{s}");
        }

        let ev = TraceEvent::Degraded {
            strong_calls: 64,
            reason: "budget_exhausted",
        };
        assert_eq!(
            encode(ev, 2),
            "{\"seq\":2,\"ev\":\"degraded\",\"strong_calls\":64,\
             \"reason\":\"budget_exhausted\"}\n"
        );
    }

    #[test]
    fn serve_events_encode_and_are_semantic() {
        let cases: [(TraceEvent, &str); 7] = [
            (
                TraceEvent::SessionAdmit {
                    session: 2,
                    pairs: 28,
                    missing: 5,
                },
                "{\"seq\":1,\"ev\":\"session_admit\",\"session\":2,\"pairs\":28,\"missing\":5}\n",
            ),
            (
                TraceEvent::SessionReject {
                    session: 0,
                    missing: 15,
                    admit: 4,
                    retry_at: 11,
                },
                "{\"seq\":1,\"ev\":\"session_reject\",\"session\":0,\"missing\":15,\
                 \"admit\":4,\"retry_at\":11}\n",
            ),
            (
                TraceEvent::SessionDegrade {
                    session: 1,
                    pairs: 9,
                },
                "{\"seq\":1,\"ev\":\"session_degrade\",\"session\":1,\"pairs\":9}\n",
            ),
            (
                TraceEvent::SessionQuarantine { session: 3 },
                "{\"seq\":1,\"ev\":\"session_quarantine\",\"session\":3}\n",
            ),
            (
                TraceEvent::StoreCommit {
                    session: 1,
                    fresh: 10,
                    duplicates: 2,
                    generation: 4,
                },
                "{\"seq\":1,\"ev\":\"store_commit\",\"session\":1,\"fresh\":10,\
                 \"duplicates\":2,\"gen\":4}\n",
            ),
            (
                TraceEvent::CommitFenced {
                    session: 2,
                    token_epoch: 0,
                    store_epoch: 1,
                },
                "{\"seq\":1,\"ev\":\"commit_fenced\",\"session\":2,\"token_epoch\":0,\
                 \"store_epoch\":1}\n",
            ),
            (
                TraceEvent::WalRecover {
                    segments: 3,
                    entries: 130,
                    dropped_lines: 6,
                    salvaged: true,
                },
                "{\"seq\":1,\"ev\":\"wal_recover\",\"segments\":3,\"entries\":130,\
                 \"dropped_lines\":6,\"salvaged\":true}\n",
            ),
        ];
        for (ev, want) in cases {
            assert_eq!(encode(ev, 1), want);
        }
    }

    #[test]
    fn event_kinds_round_trip() {
        for &k in EventKind::ALL {
            assert_eq!(EventKind::parse(k.name()), Some(k));
        }
        assert_eq!(EventKind::parse("oracle_cal"), None);
    }

    #[test]
    fn budget_outcome_is_unbilled() {
        assert!(CallOutcome::Ok.billed());
        assert!(CallOutcome::Transient.billed());
        assert!(CallOutcome::Timeout.billed());
        assert!(!CallOutcome::Budget.billed());
    }
}
