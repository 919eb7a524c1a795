//! Central registry of observability names (lint L15).
//!
//! Every `Metrics` counter/histogram name and every span (phase) name used
//! anywhere in the workspace must appear here. The registry exists so a
//! typo'd counter cannot silently split one logical series into two, and so
//! tooling (`prox-cli --metrics`, the span profiler, dashboards) has one
//! authoritative vocabulary to enumerate. Lint L15 (`cargo xtask lint`)
//! scans every `inc("…")` / `observe("…")` / `counter("…")` /
//! `histogram("…")` call and every `SpanGuard::enter(…, "…")` /
//! `PhaseGuard::enter(…, "…")` site and fails when the literal is missing
//! from these tables.
//!
//! Keep both lists sorted; `registry_is_sorted_and_unique` pins that.

/// Every metrics-registry counter and histogram name in the workspace.
pub const METRIC_NAMES: &[&str] = &[
    "cascade.degraded",
    "cascade.weak_lies",
    "cascade.weak_no_quorum",
    "cascade.weak_resolved",
    "oracle.backoff_ns",
    "oracle.budget_denied",
    "oracle.calls",
    "oracle.faults",
    "oracle.retries",
    "oracle.retry_depth",
    "probe.width",
    "splub_bidi_early_exit",
    "splub_full_fallback",
];

/// Every span (phase) name emitted through `SpanGuard`/`PhaseGuard`.
pub const SPAN_NAMES: &[&str] = &[
    "bootstrap",
    "build",
    "init",
    "query",
    "refine",
    "scan",
    "swap",
];

/// True when `name` is a registered metric name.
pub fn metric_registered(name: &str) -> bool {
    METRIC_NAMES.binary_search(&name).is_ok()
}

/// True when `name` is a registered span name.
pub fn span_registered(name: &str) -> bool {
    SPAN_NAMES.binary_search(&name).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        for table in [METRIC_NAMES, SPAN_NAMES] {
            for w in table.windows(2) {
                assert!(w[0] < w[1], "registry out of order: {} vs {}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn lookups_work() {
        assert!(metric_registered("probe.width"));
        assert!(!metric_registered("probe.widht"));
        assert!(span_registered("bootstrap"));
        assert!(!span_registered("boostrap"));
    }
}
