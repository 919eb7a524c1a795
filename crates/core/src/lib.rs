//! Core primitives shared by every crate in the `prox` workspace.
//!
//! The paper's setting is a *general metric space* whose pairwise distances
//! are served by an **expensive oracle** (a web API, an edit-distance
//! computation, an image comparison…). Everything in this crate exists to
//! model that setting precisely:
//!
//! * [`Metric`] — a ground-truth distance function over `n` atomic objects.
//! * [`Oracle`] — the *only* sanctioned way for an algorithm to learn a
//!   distance. It counts every call and can attach a configurable *virtual
//!   cost* per call, so experiments can sweep "oracle cost" from microseconds
//!   to seconds without sleeping (see `EXPERIMENTS.md`).
//! * [`Pair`] — a canonical unordered pair of object ids, used as the edge
//!   key throughout the workspace.
//! * [`OracleStats`] / [`PruneStats`] — the accounting that the paper's
//!   tables and figures are made of (distance calls, saved comparisons,
//!   CPU overhead vs. oracle time).
//! * [`fault`] / [`checkpoint`] — the robustness layer: a deterministic
//!   fault model (fail-stop *and* value-corruption) with retry/backoff
//!   and budgets for the oracle, and checksummed checkpoint/resume so an
//!   interrupted run never re-pays for a distance it already resolved —
//!   and never trusts a torn or bit-flipped checkpoint.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::print_stdout, clippy::print_stderr)]

pub mod checkpoint;
pub mod crc;
pub mod fault;
pub mod invariant;
pub mod metric;
pub mod oracle;
pub mod pair;
pub mod persist;
pub mod rng;
pub mod spec;
pub mod stats;
pub mod weak;

pub use checkpoint::{
    load_checkpoint, load_checkpoint_lenient, read_checkpoint_file, save_checkpoint,
    write_checkpoint_file, Checkpoint, CheckpointRecovery,
};
pub use crc::{crc32, Crc32};
pub use fault::{
    CallBudget, CorruptionInjector, FaultInjector, FaultKind, FaultStats, OracleError, RetryPolicy,
    ValueFaultKind,
};
pub use metric::{FnMetric, MatrixMetric, Metric, MetricCheck};
pub use oracle::Oracle;
pub use pair::{Pair, PairMap};
pub use persist::{load_known, load_known_lenient, save_known, LoadReport};
pub use rng::TinyRng;
pub use spec::{QueryGoal, SpecBounds};
pub use stats::{OracleStats, PruneStats};
pub use weak::{
    Degradation, DegradationReport, DegradeReason, Degraded, WeakErrorKind, WeakOracle,
};

/// Identifier of an object in a metric space: a dense index in `0..n`.
pub type ObjectId = u32;
