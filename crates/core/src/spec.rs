//! Query goals, and the read-only scheme view [`SpecBounds`].
//!
//! No library code calls [`SpecBounds`] or builds a [`QueryGoal`]. Both
//! are kept only because the benchmark's forwarding wrappers
//! (`prox-perf`'s `Timed*` types) forward `spec()` and `bounds_for_goal`,
//! and pin that Tri still offers the view; they go when those wrappers are
//! deleted (ROADMAP item 8).

use crate::Pair;

/// What a bound query is *for*: the comparison threshold the caller is
/// about to decide, if any.
///
/// No resolver builds one: every threshold probe decides from the exact
/// sandwich. It stays as the argument of `BoundScheme::bounds_for_goal`
/// (see the module doc).
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct QueryGoal {
    /// The value `v` the caller compares the distance against
    /// (`d < v` / `d ≤ v` probes), or `None` when the full sandwich is
    /// wanted.
    pub decisive_at: Option<f64>,
}

impl QueryGoal {
    /// No threshold: the caller wants the exact sandwich.
    #[inline]
    pub fn exact() -> Self {
        QueryGoal { decisive_at: None }
    }

    /// The caller only needs the comparison against `v` decided.
    #[inline]
    pub fn threshold(v: f64) -> Self {
        QueryGoal {
            decisive_at: Some(v),
        }
    }
}

/// A read-only, thread-shareable view of a bound scheme's state.
///
/// No workspace code calls this trait; it goes with the benchmark's
/// forwarding wrappers (ROADMAP item 8, see the module doc).
pub trait SpecBounds: Sync {
    /// `(lower, upper)` bounds for `p`, bitwise equal to the live scheme's
    /// `bounds(p)`; `(d, d)` when known. (The `spec_` prefix keeps the
    /// name from shadowing `BoundScheme::bounds` at concrete call sites.)
    fn spec_bounds(&self, p: Pair) -> (f64, f64);
}
