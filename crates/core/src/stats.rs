//! Accounting types for the paper's evaluation measures.

use std::time::Duration;

/// Snapshot of an [`crate::Oracle`]'s counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Total distance resolutions performed.
    pub calls: u64,
    /// `calls × cost_per_call` of virtual oracle time.
    pub virtual_time: Duration,
}

impl OracleStats {
    /// Percentage of calls saved relative to a baseline run, the paper's
    /// `Save (%)` measure: `100 · (baseline − ours) / baseline`.
    ///
    /// A zero-call baseline makes the ratio undefined. Two free runs are
    /// trivially "0 % saved", but reporting `0.0` when *we* paid calls a
    /// free baseline didn't would silently hide an infinite regression —
    /// that case returns `f64::NAN` so downstream tables render it as
    /// not-a-number instead of a plausible figure.
    pub fn save_percent_vs(&self, baseline: &OracleStats) -> f64 {
        if baseline.calls == 0 {
            if self.calls == 0 {
                0.0
            } else {
                f64::NAN
            }
        } else {
            100.0 * (baseline.calls as f64 - self.calls as f64) / baseline.calls as f64
        }
    }
}

/// Counters kept by resolvers about how comparisons were decided.
///
/// `Percentage Save-ups` in the paper counts oracle calls avoided; these
/// counters additionally expose *why* (bounds decided the IF statement vs.
/// fell through to the oracle), which the deeper analyses in §5.4 discuss.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Comparison queries answered from bounds alone (no oracle call).
    pub decided_by_bounds: u64,
    /// Comparison queries that fell through to oracle resolution.
    pub fell_through: u64,
    /// Distance resolutions requested while the value was already known to
    /// the scheme (served from recorded knowledge, no oracle call).
    pub served_known: u64,
    /// Actual oracle resolutions triggered through the resolver.
    pub resolved: u64,
    /// Values installed from outside the oracle path (checkpoint restore,
    /// weak-quorum adoption) via `preload`. Not a comparison and not an
    /// oracle call — tracked so provenance ledgers can bill externally
    /// sourced knowledge to its own row.
    pub preloaded: u64,
}

impl PruneStats {
    /// Total comparison queries received.
    pub fn comparisons(&self) -> u64 {
        self.decided_by_bounds + self.fell_through
    }

    /// Fraction of comparisons decided without the oracle, in `[0, 1]`.
    pub fn decision_rate(&self) -> f64 {
        let total = self.comparisons();
        if total == 0 {
            0.0
        } else {
            self.decided_by_bounds as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn save_percent_matches_paper_formula() {
        let ours = OracleStats {
            calls: 800_985,
            virtual_time: Duration::ZERO,
        };
        let laesa = OracleStats {
            calls: 2_198_589,
            virtual_time: Duration::ZERO,
        };
        // Table 2, last row: 63.57 % saved vs LAESA.
        let save = ours.save_percent_vs(&laesa);
        assert!((save - 63.57).abs() < 0.01, "got {save}");
    }

    #[test]
    fn save_percent_zero_baseline() {
        let s = OracleStats::default();
        assert_eq!(s.save_percent_vs(&OracleStats::default()), 0.0);
    }

    #[test]
    fn save_percent_zero_baseline_with_spend_is_nan() {
        let ours = OracleStats {
            calls: 7,
            virtual_time: Duration::ZERO,
        };
        assert!(
            ours.save_percent_vs(&OracleStats::default()).is_nan(),
            "paying calls against a free baseline has no defined save ratio"
        );
        // The plain branch is unaffected: spending more than the baseline
        // reports a negative save, not NaN.
        let baseline = OracleStats {
            calls: 5,
            virtual_time: Duration::ZERO,
        };
        assert_eq!(ours.save_percent_vs(&baseline), -40.0);
    }

    #[test]
    fn decision_rate() {
        let p = PruneStats {
            decided_by_bounds: 3,
            fell_through: 1,
            served_known: 0,
            resolved: 1,
            preloaded: 0,
        };
        assert_eq!(p.comparisons(), 4);
        assert_eq!(p.decision_rate(), 0.75);
        assert_eq!(PruneStats::default().decision_rate(), 0.0);
    }
}
