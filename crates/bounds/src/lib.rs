//! Distance-bound schemes and the pruning resolver framework.
//!
//! This crate implements the paper's graph-theoretic machinery (§3–§4):
//! given the *partial graph* of already-resolved distances, derive lower and
//! upper bounds on unknown distances from the triangle inequality, and use
//! those bounds to decide distance comparisons **without calling the
//! oracle**.
//!
//! ## Schemes
//!
//! | Scheme | Bounds | Query | Update | Paper |
//! |---|---|---|---|---|
//! | [`TriScheme`] | triangles only (paths of length 2) | `O(deg a + deg b)` | `O(deg)` | §4.2, Algorithm 2 |
//! | [`Splub`] | **tightest** (all paths) | `O(m log n)`, exact on every query (repeats memoized) | `O(m)` (sorted insert) | §4.1, Algorithm 1 |
//! | [`Adm`] | tightest (bound matrices) | `O(1)` | `O(n²)` per resolve | baseline [Shasha–Wang 1990] |
//! | [`Laesa`] | landmark rows, static | `O(k)` | `O(1)` (cache only) | baseline [Micó–Oncina–Vidal 1994] |
//! | [`Tlaesa`] | landmark rows + pivot tree | `O(k + depth)` | `O(1)` (cache only) | baseline [Micó–Oncina–Carrasco 1996] |
//! | [`NoScheme`] | none (`[0, d_max]`) | `O(1)` | `O(1)` | the "Without Plug" column |
//!
//! All schemes absorb every resolved distance through
//! [`BoundScheme::record`] and serve exact values for known pairs, so a
//! resolver never pays for the same pair twice.
//!
//! ## The resolver
//!
//! [`BoundResolver`] wires a scheme to an [`prox_core::Oracle`] and exposes
//! the [`DistanceResolver`] interface the proximity algorithms in
//! `prox-algos` are written against: *re-authored IF statements*. Instead of
//!
//! ```text
//! if dist(a, b) >= dist(c, d) { ... }
//! ```
//!
//! an algorithm asks [`DistanceResolver::try_less`] first, and only falls
//! back to resolution when the bounds are inconclusive — precisely the
//! re-authoring the paper prescribes (§3).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::print_stdout, clippy::print_stderr)]

pub mod adm;
pub mod audit;
pub mod bootstrap;
pub mod cascade;
#[cfg(feature = "paranoid")]
pub mod checked;
pub mod laesa;
mod memo;
pub mod resolver;
pub mod scheme;
pub mod splub;
pub mod tlaesa;
pub mod tri;

pub use adm::{Adm, AdmUpdate};
pub use audit::{AuditPolicy, CorruptionStats, VOTE_CAP};
pub use bootstrap::{
    laesa_bootstrap, select_maxmin_pivots, try_laesa_bootstrap, try_select_maxmin_pivots, Bootstrap,
};
pub use cascade::{CascadeResolver, WeakStats};
#[cfg(feature = "paranoid")]
pub use checked::CheckedResolver;
pub use laesa::Laesa;
pub use resolver::{BoundResolver, DistanceResolver, VanillaResolver, DECISION_EPS};
pub use scheme::{BoundScheme, GoalBounds, NoScheme};
pub use splub::Splub;
pub use tlaesa::Tlaesa;
pub use tri::TriScheme;
