//! Metric index structures from the paper's related work (§6.1).
//!
//! The paper positions its framework against *specialized* metric indexes:
//! structures that pay an up-front construction cost in oracle calls to
//! answer nearest-neighbour and range queries cheaply afterwards. Two
//! classics are implemented here, both metered through the same
//! [`prox_core::Oracle`] so their call profiles can be compared with the
//! re-authored algorithms:
//!
//! * [`VpTree`] — Yianilos' Vantage Point Tree: binary space partitioning
//!   by distance to a vantage point; exact kNN / range search with
//!   branch-and-bound pruning.
//! * [`BkTree`] — Burkhard–Keller tree over (quantized) distances; exact
//!   range search with one oracle call per visited node.
//! * [`MTree`] — the balanced, paged metric index (Ciaccia–Patella–Zezula)
//!   with covering radii and parent-distance prefiltering.
//! * [`Gnat`] — Brin's Geometric Near-neighbor Access Tree with min/max
//!   range tables for sibling-group pruning.
//!
//! The contrast the paper draws (§6.1): these indexes accelerate *search
//! queries only* — they do not generalize to MST, clustering, or other
//! proximity problems, and their construction calls are sunk cost. The
//! resolver framework spends calls only where an algorithm's comparisons
//! need them. The `index_vs_framework` test pins the trade on a concrete
//! workload.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::print_stdout, clippy::print_stderr)]

pub mod bktree;
pub mod gnat;
pub mod mtree;
pub mod vptree;

pub use bktree::BkTree;
pub use gnat::Gnat;
pub use mtree::MTree;
pub use vptree::VpTree;
