//! The observability vocabulary: every metrics-registry name and every
//! span (phase) name in the workspace, as closed enums.
//!
//! [`Metrics`](crate::Metrics) and [`SpanGuard::enter`](crate::SpanGuard::enter)
//! take these types, not `&str`, so a typo'd counter cannot silently split
//! one logical series into two and a rogue span name cannot escape the
//! profiler's vocabulary: either fails to compile. `as_str` is the rendered
//! name (the `prox-cli --metrics` row, the `name` field of
//! `phase_enter`/`phase_exit` events) and `ALL` enumerates the vocabulary
//! for tooling.
//!
//! Both lists are kept sorted by rendered name, the order
//! `Metrics::render` prints rows in; `registry_is_sorted_and_unique`
//! pins that.

vocabulary! {
    /// A metrics-registry name. `oracle.backoff_ns`, `oracle.retry_depth`
    /// and `probe.width` are histograms; the rest are counters.
    pub enum MetricName => as_str {
        CascadeDegraded => "cascade.degraded",
        CascadeWeakLies => "cascade.weak_lies",
        CascadeWeakNoQuorum => "cascade.weak_no_quorum",
        CascadeWeakResolved => "cascade.weak_resolved",
        OracleBackoffNs => "oracle.backoff_ns",
        OracleBudgetDenied => "oracle.budget_denied",
        OracleCalls => "oracle.calls",
        OracleFaults => "oracle.faults",
        OracleRetries => "oracle.retries",
        OracleRetryDepth => "oracle.retry_depth",
        ProbeWidth => "probe.width",
        SplubBidiEarlyExit => "splub_bidi_early_exit",
        SplubFullFallback => "splub_full_fallback",
    }
}

vocabulary! {
    /// A span (phase) name, as entered through `SpanGuard`.
    pub enum SpanName => as_str {
        Bootstrap => "bootstrap",
        Build => "build",
        Init => "init",
        Query => "query",
        Refine => "refine",
        Scan => "scan",
        Swap => "swap",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        let metrics: Vec<&str> = MetricName::ALL.iter().map(|m| m.as_str()).collect();
        let spans: Vec<&str> = SpanName::ALL.iter().map(|s| s.as_str()).collect();
        for table in [metrics, spans] {
            for w in table.windows(2) {
                assert!(w[0] < w[1], "registry out of order: {} vs {}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn lookups_work() {
        assert_eq!(MetricName::OracleCalls.as_str(), "oracle.calls");
        assert_eq!(MetricName::ProbeWidth.as_str(), "probe.width");
        assert_eq!(
            MetricName::SplubFullFallback.as_str(),
            "splub_full_fallback"
        );
        assert_eq!(SpanName::Bootstrap.as_str(), "bootstrap");
    }
}
