//! # prox-obs — deterministic tracing + metrics for proximity runs
//!
//! A zero-dependency structured-event layer observing every oracle
//! call, bound decision, fault/retry, checkpoint and phase transition
//! in the workspace. Design goals, in order:
//!
//! 1. **Determinism (I8).** A trace is a pure function of the workload
//!    and seed: events carry logical sequence numbers and virtual time,
//!    never wall time. Plugged runs are sequential, so the trace is
//!    byte-identical at any `--threads N`.
//! 2. **Zero cost when off.** Instrumented hot paths test one
//!    `Option` discriminant captured at resolver construction; the
//!    disabled path allocates nothing and is pinned by a
//!    `BENCH_schemes.json` microbench entry.
//! 3. **Consistency with existing counters.** Billed `OracleCall`
//!    events reconcile exactly with `OracleStats::calls`; `BoundProbe`
//!    verdicts reconcile with `PruneStats`.
//!
//! The crate sits *below* `prox-core` (events carry raw `u32` object
//! ids) so every layer — core, bounds, algos, bench — can emit through
//! the same sinks.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::print_stdout, clippy::print_stderr)]

/// Declares a closed name vocabulary: a fieldless enum, its `ALL` list in
/// declaration order, and the accessor `$name_fn` returning each variant's
/// rendered name. The variant list is the one string table, so the enum,
/// `ALL` and the names cannot drift apart.
macro_rules! vocabulary {
    (
        $(#[$attr:meta])*
        pub enum $ty:ident => $name_fn:ident {
            $($(#[$vattr:meta])* $variant:ident => $name:literal,)*
        }
    ) => {
        $(#[$attr])*
        #[derive(Copy, Clone, Debug, PartialEq, Eq)]
        pub enum $ty {
            $($(#[$vattr])* $variant,)*
        }

        impl $ty {
            /// Every variant, in declaration order.
            pub const ALL: &'static [$ty] = &[$($ty::$variant,)*];

            /// The rendered name.
            pub const fn $name_fn(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)*
                }
            }
        }
    };
}

mod diff;
mod event;
mod ledger;
mod metrics;
mod names;
mod replay;
mod report;
mod sink;
mod span;

pub use diff::{normalize, semantic_diff, Divergence, TraceDiff};
pub use event::{
    CallOutcome, CorruptionAction, EventKind, ProbeKind, ProbeVerdict, TraceEvent, WeakOutcome,
};
pub use ledger::{ProvenanceLedger, ResolutionSource};
pub use metrics::{quantize_width, Metrics, HISTO_BUCKETS};
pub use names::{MetricName, SpanName};
pub use replay::{replay, ReplayReport};
pub use report::{summarize, PhaseRow, ProvenanceRow, PruneRow, TraceSummary, TrajPoint};
pub use sink::{emit_to, JsonlSink, NullSink, RingSink, TraceSink};
pub use span::{SpanGuard, SpanNode, SpanTree};
