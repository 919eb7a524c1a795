//! Provenance ledger: where every resolved value came from (invariant I11).
//!
//! A resolved distance can come from six places —
//! a strong oracle call, a weak-tier quorum, a bound-scheme decision, the
//! resolver's own memo, a checkpoint/cache preload, or a degraded-mode
//! midpoint — and the paper's whole economy is knowing which. Resolvers
//! tag each resolution with a [`ResolutionSource`] and aggregate the tags
//! into a [`ProvenanceLedger`]; invariant **I11** pins the ledger's row
//! sums against the independent billing counters (`OracleStats`,
//! `PruneStats`, `weak_stats()`):
//!
//! - `memo == PruneStats::served_known`
//! - `strong_call + weak_quorum == PruneStats::resolved`
//! - `weak_quorum == WeakStats::resolutions`
//! - `checkpoint_preload == PruneStats::preloaded`
//! - `decisive_total() == PruneStats::decided_by_bounds` (every decision
//!   is attributed to its scheme's `direct` tier, traced or not)
//!
//! The ledger is pure accounting: maintaining it never changes a verdict,
//! a resolved value, or an emitted trace line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Where one resolved (or decided) pair's answer came from.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ResolutionSource {
    /// A billed strong-oracle call produced the value.
    StrongCall,
    /// A weak-tier quorum passed the sandwich check and was certified.
    WeakQuorum,
    /// A bound scheme decided the comparison without any value resolution.
    /// `scheme` is the scheme's name; `tier` names the query path that
    /// decided it. Resolvers write only `"direct"`; the field keeps the
    /// row format stable.
    BoundDecisive {
        /// Scheme that certified the decision.
        scheme: &'static str,
        /// Query-path tier (`"direct"`).
        tier: &'static str,
    },
    /// The value was already recorded; served from the scheme's memo.
    Memo,
    /// Injected from a persisted cache / checkpoint before the run.
    CheckpointPreload,
    /// Uncertified degraded-mode answer after the strong tier was lost.
    DegradedMidpoint,
}

impl ResolutionSource {
    /// Stable kind label used in reports and the JSONL dump.
    pub fn kind(&self) -> &'static str {
        match self {
            ResolutionSource::StrongCall => "strong_call",
            ResolutionSource::WeakQuorum => "weak_quorum",
            ResolutionSource::BoundDecisive { .. } => "bound_decisive",
            ResolutionSource::Memo => "memo",
            ResolutionSource::CheckpointPreload => "checkpoint_preload",
            ResolutionSource::DegradedMidpoint => "degraded_midpoint",
        }
    }
}

/// Aggregated [`ResolutionSource`] counts for one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProvenanceLedger {
    /// Billed strong-oracle resolutions.
    pub strong_call: u64,
    /// Certified weak-quorum resolutions.
    pub weak_quorum: u64,
    /// Resolutions served from already-recorded knowledge.
    pub memo: u64,
    /// Pairs injected from a persisted cache / checkpoint.
    pub checkpoint_preload: u64,
    /// Uncertified degraded-mode serves (fresh + memoized replays).
    pub degraded_midpoint: u64,
    /// Bound-decided comparisons keyed by `(scheme, tier)`.
    decisive: BTreeMap<(&'static str, &'static str), u64>,
}

impl ProvenanceLedger {
    /// Adds `n` occurrences of `source` to the ledger.
    pub fn add(&mut self, source: ResolutionSource, n: u64) {
        match source {
            ResolutionSource::StrongCall => self.strong_call += n,
            ResolutionSource::WeakQuorum => self.weak_quorum += n,
            ResolutionSource::Memo => self.memo += n,
            ResolutionSource::CheckpointPreload => self.checkpoint_preload += n,
            ResolutionSource::DegradedMidpoint => self.degraded_midpoint += n,
            ResolutionSource::BoundDecisive { scheme, tier } => {
                *self.decisive.entry((scheme, tier)).or_insert(0) += n;
            }
        }
    }

    /// Records one occurrence of `source`.
    pub fn record(&mut self, source: ResolutionSource) {
        self.add(source, 1);
    }

    /// Folds `other`'s rows onto `self`.
    pub fn merge(&mut self, other: &ProvenanceLedger) {
        self.strong_call += other.strong_call;
        self.weak_quorum += other.weak_quorum;
        self.memo += other.memo;
        self.checkpoint_preload += other.checkpoint_preload;
        self.degraded_midpoint += other.degraded_midpoint;
        for (&k, &v) in &other.decisive {
            *self.decisive.entry(k).or_insert(0) += v;
        }
    }

    /// Total value resolutions the ledger attributes (decisions excluded).
    pub fn resolutions_total(&self) -> u64 {
        self.strong_call + self.weak_quorum + self.memo + self.degraded_midpoint
    }

    /// Total bound-decided comparisons across all `(scheme, tier)` rows.
    pub fn decisive_total(&self) -> u64 {
        self.decisive.values().sum()
    }

    /// The `(scheme, tier, count)` decision rows in stable sorted order.
    pub fn decisive_rows(&self) -> impl Iterator<Item = (&'static str, &'static str, u64)> + '_ {
        self.decisive.iter().map(|(&(s, t), &c)| (s, t, c))
    }

    /// True when every row is zero.
    pub fn is_empty(&self) -> bool {
        self.resolutions_total() == 0 && self.checkpoint_preload == 0 && self.decisive.is_empty()
    }

    /// All rows as `(kind, scheme, tier, count)` in stable order; value
    /// rows carry empty scheme/tier. Zero value rows are skipped so dumps
    /// stay minimal, but decision rows keep explicit zeros out by
    /// construction (they only exist once recorded).
    pub fn rows(&self) -> Vec<(&'static str, &'static str, &'static str, u64)> {
        let mut out = Vec::new();
        for (kind, count) in [
            ("checkpoint_preload", self.checkpoint_preload),
            ("degraded_midpoint", self.degraded_midpoint),
            ("memo", self.memo),
            ("strong_call", self.strong_call),
            ("weak_quorum", self.weak_quorum),
        ] {
            if count > 0 {
                out.push((kind, "", "", count));
            }
        }
        for (scheme, tier, count) in self.decisive_rows() {
            out.push(("bound_decisive", scheme, tier, count));
        }
        out
    }

    /// One JSONL line per row — the `--ledger F` dump format.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (kind, scheme, tier, count) in self.rows() {
            if scheme.is_empty() {
                let _ = writeln!(out, "{{\"kind\":\"{kind}\",\"count\":{count}}}");
            } else {
                let _ = writeln!(
                    out,
                    "{{\"kind\":\"{kind}\",\"scheme\":\"{scheme}\",\"tier\":\"{tier}\",\
                     \"count\":{count}}}"
                );
            }
        }
        out
    }

    /// Human-readable table for CLI summaries.
    pub fn render(&self) -> String {
        let mut out = String::from("provenance ledger\n");
        if self.is_empty() {
            out.push_str("  (empty)\n");
            return out;
        }
        let mut lines: Vec<(String, u64)> = self
            .rows()
            .into_iter()
            .map(|(kind, scheme, tier, count)| match scheme {
                "" => (kind.to_string(), count),
                _ => (format!("{kind}[{scheme}/{tier}]"), count),
            })
            .collect();
        lines.push(("resolutions".to_string(), self.resolutions_total()));
        lines.push(("decisions".to_string(), self.decisive_total()));
        // Every count ends in one column: labels pad to the longest one
        // (at least 20 wide, so short blocks keep their layout).
        let width = lines
            .iter()
            .map(|(l, _)| l.len())
            .max()
            .unwrap_or(0)
            .max(20);
        for (label, count) in lines {
            let _ = writeln!(out, "  {label:<width$} {count:>10}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_sums() {
        let mut l = ProvenanceLedger::default();
        l.record(ResolutionSource::StrongCall);
        l.add(ResolutionSource::Memo, 3);
        l.record(ResolutionSource::WeakQuorum);
        l.record(ResolutionSource::DegradedMidpoint);
        l.add(ResolutionSource::CheckpointPreload, 2);
        l.add(
            ResolutionSource::BoundDecisive {
                scheme: "tri",
                tier: "direct",
            },
            5,
        );
        l.add(
            ResolutionSource::BoundDecisive {
                scheme: "splub",
                tier: "direct",
            },
            4,
        );
        assert_eq!(l.resolutions_total(), 6);
        assert_eq!(l.decisive_total(), 9);
        assert!(!l.is_empty());

        let mut m = ProvenanceLedger::default();
        m.merge(&l);
        m.merge(&l);
        assert_eq!(m.strong_call, 2);
        assert_eq!(m.decisive_total(), 18);
    }

    #[test]
    fn rows_are_stable_and_jsonl_parses_by_eye() {
        let mut l = ProvenanceLedger::default();
        l.record(ResolutionSource::StrongCall);
        l.add(
            ResolutionSource::BoundDecisive {
                scheme: "splub",
                tier: "direct",
            },
            7,
        );
        let rows = l.rows();
        assert_eq!(rows[0], ("strong_call", "", "", 1));
        assert_eq!(rows[1], ("bound_decisive", "splub", "direct", 7));
        let dump = l.to_jsonl();
        assert!(dump.contains("{\"kind\":\"strong_call\",\"count\":1}"));
        assert!(dump.contains(
            "{\"kind\":\"bound_decisive\",\"scheme\":\"splub\",\"tier\":\"direct\",\"count\":7}"
        ));
        assert!(l.render().contains("bound_decisive[splub/direct]"));
    }

    #[test]
    fn render_ends_every_count_in_one_column() {
        let mut l = ProvenanceLedger::default();
        l.add(ResolutionSource::Memo, 59_522);
        l.add(ResolutionSource::StrongCall, 65_065);
        l.add(
            ResolutionSource::BoundDecisive {
                scheme: "SPLUB",
                tier: "direct",
            },
            2_183_958,
        );
        let text = l.render();
        let rows: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(rows.len(), 5, "{text}");
        let end = rows[0].len();
        for row in &rows {
            assert_eq!(row.len(), end, "count out of column in {row:?}:\n{text}");
            assert!(row.ends_with(|c: char| c.is_ascii_digit()), "{row:?}");
        }
        // A block of short labels keeps the 20-wide layout.
        let mut short = ProvenanceLedger::default();
        short.add(ResolutionSource::Memo, 3);
        let first = short.render().lines().nth(1).map(str::len);
        assert_eq!(first, Some(2 + 20 + 1 + 10));
    }

    #[test]
    fn empty_ledger_renders_placeholder() {
        let l = ProvenanceLedger::default();
        assert!(l.is_empty());
        assert!(l.render().contains("(empty)"));
        assert!(l.to_jsonl().is_empty());
    }
}
