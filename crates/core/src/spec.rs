//! Read-only snapshot views for speculative bound evaluation.
//!
//! The speculate-in-parallel / commit-in-order protocol (see `prox-exec`
//! and DESIGN.md) lets worker threads evaluate candidate bounds against a
//! **frozen** view of a bound scheme while a sequential committer replays
//! the candidates in canonical order. [`SpecBounds`] is the contract that
//! view must satisfy:
//!
//! * it is `Sync` — workers share one `&dyn SpecBounds` across threads;
//! * `bounds` must return **bitwise** the same `(lb, ub)` the live scheme's
//!   `bounds` would have returned at the snapshot generation (same formula,
//!   same iteration order, same rounding);
//! * `pair_stamp(p)` is an upper bound on the last generation at which
//!   `bounds(p)` may have changed, so the committer can tell which
//!   speculative values are still current ("fresh") after it has resolved
//!   more distances.
//!
//! Freshness gives *bit-equality* reuse (safe even for ordering keys);
//! monotone tightening gives *verdict* reuse (a decisive stale bound stays
//! decisive, because bounds only tighten) — the two reuse rules the
//! committer applies.

use std::any::Any;

use crate::Pair;

/// What a bound query is *for*: the comparison threshold the caller is
/// about to decide, if any.
///
/// Threshold-aware schemes (SPLUB's cascade) use `decisive_at` to stop
/// early — a bounded bidirectional search can certify "the bounds decide
/// this comparison" long before the exact sandwich is computed. A goal
/// never changes *what* verdict is reached, only how much work certifying
/// it costs; callers that need the exact sandwich itself pass
/// [`QueryGoal::exact`].
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

/// Per-worker mutable scratch for [`SpecBounds::bounds`] (e.g. SPLUB's
/// Dijkstra buffers). Opaque so the trait stays object-safe; schemes that
/// need none return [`SpecScratch::none`].
pub struct SpecScratch(Option<Box<dyn Any + Send>>);

impl SpecScratch {
    /// Scratch for schemes whose bound queries are allocation-free.
    pub fn none() -> Self {
        SpecScratch(None)
    }

    /// Wraps a scheme-specific scratch value.
    pub fn with<T: Any + Send>(value: T) -> Self {
        SpecScratch(Some(Box::new(value)))
    }

    /// Downcasts to the scheme-specific scratch type.
    pub fn get_mut<T: Any + Send>(&mut self) -> Option<&mut T> {
        self.0.as_mut()?.downcast_mut::<T>()
    }
}

/// A frozen, thread-shareable view of a bound scheme's state.
///
/// # Contract
///
/// With `g = generation()` at snapshot time (the scheme is not mutated
/// while the view is borrowed, so `g` is constant):
///
/// * `known(p)` equals the live scheme's `known(p)` at generation `g`.
/// * `bounds(p, _)` equals the live scheme's `bounds(p)` at generation `g`
///   **bitwise** — the committer reuses these as sort keys, so "close
///   enough" is not enough.
/// * For every pair `p` and any later live generation `g' >= g`: if the
///   live `pair_stamp(p) <= g`, the live `bounds(p)` still equals the
///   snapshot value bitwise.
pub trait SpecBounds: Sync {
    /// Number of objects.
    ///
    /// (All methods carry a `spec_` prefix so schemes can implement this
    /// trait alongside `BoundScheme`, whose method names they would
    /// otherwise shadow at concrete call sites.)
    fn spec_n(&self) -> usize;

    /// The a-priori distance cap.
    fn spec_max_distance(&self) -> f64;

    /// The snapshot generation.
    fn spec_generation(&self) -> u64;

    /// Upper bound on the last generation at which `spec_bounds(p)` changed.
    fn spec_pair_stamp(&self, p: Pair) -> u64;

    /// Exact distance for `p` if recorded at snapshot time.
    fn spec_known(&self, p: Pair) -> Option<f64>;

    /// Fresh per-worker scratch for [`SpecBounds::spec_bounds`].
    fn new_scratch(&self) -> SpecScratch {
        SpecScratch::none()
    }

    /// Display label for trace events emitted against this snapshot.
    /// Must equal the live scheme's `BoundScheme::name()` so buffered
    /// speculative `BoundProbe` events are byte-identical to the events
    /// the live resolver would have emitted (I8).
    fn spec_label(&self) -> &'static str {
        "scheme"
    }

    /// `(lower, upper)` bounds for `p` at the snapshot; `(d, d)` when known.
    fn spec_bounds(&self, p: Pair, scratch: &mut SpecScratch) -> (f64, f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_roundtrip() {
        let mut s = SpecScratch::with(vec![1u32, 2, 3]);
        let v: &mut Vec<u32> = s.get_mut().expect("stored type");
        v.push(4);
        assert_eq!(s.get_mut::<Vec<u32>>().map(|v| v.len()), Some(4));
        assert!(s.get_mut::<String>().is_none(), "wrong type downcast");
        assert!(SpecScratch::none().get_mut::<u8>().is_none());
    }
}
