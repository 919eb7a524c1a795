//! The `BoundScheme` abstraction (the paper's BOUNDS + UPDATE problems).

use std::collections::BTreeMap;

pub use prox_core::QueryGoal;
use prox_core::{Pair, SpecBounds};

/// Result of a goal-aware bound query: the exact sandwich, as
/// [`BoundScheme::bounds`] would return it.
///
/// No resolver reads it (DESIGN.md §13). It stays, with
/// [`BoundScheme::goal_aware`] and [`BoundScheme::bounds_for_goal`], only
/// because the benchmark's forwarding wrappers forward and pin that trait
/// surface; all three go with those wrappers (ROADMAP items 1 and 8).
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum GoalBounds {
    /// The exact sandwich.
    Exact {
        /// Exact lower bound.
        lb: f64,
        /// Exact upper bound.
        ub: f64,
    },
}

/// A data structure that answers the paper's two problems:
///
/// * **Bounds problem** (Problem 1): for an unknown edge `(a, b)`, produce a
///   lower and an upper bound on `dist(a, b)` consistent with the triangle
///   inequality and everything resolved so far.
/// * **Update problem** (Problem 2): absorb a newly resolved distance so
///   later bound queries benefit from it.
///
/// # Contract
///
/// For every implementation, at all times:
///
/// * `0 ≤ lb ≤ dist(a, b) ≤ ub ≤ max_distance()` — bounds are *sound*.
/// * After `record(p, d)`, `bounds(p) == (d, d)` and `known(p) == Some(d)`.
/// * `record` is idempotent for a fixed pair/distance.
///
/// Bound queries take `&mut self` because several schemes reuse scratch
/// buffers (SPLUB's Dijkstra state); they are still logically read-only.
pub trait BoundScheme {
    /// Number of objects in the space.
    fn n(&self) -> usize;

    /// The a-priori distance cap (the paper's `1`).
    fn max_distance(&self) -> f64;

    /// Exact distance for `p` if it has been recorded.
    #[must_use]
    fn known(&self, p: Pair) -> Option<f64>;

    /// `(lower, upper)` bounds for `p`; `(d, d)` when known.
    #[must_use]
    fn bounds(&mut self, p: Pair) -> (f64, f64);

    /// Lower bound only.
    fn lower_bound(&mut self, p: Pair) -> f64 {
        self.bounds(p).0
    }

    /// Upper bound only.
    fn upper_bound(&mut self, p: Pair) -> f64 {
        self.bounds(p).1
    }

    /// Absorbs a resolved distance (the UPDATE problem).
    fn record(&mut self, p: Pair, d: f64);

    /// Withdraws a previously recorded distance, returning `true` on
    /// success. This is the inverse UPDATE needed by the untrusted-oracle
    /// audit path: when a recorded value is *proven* corrupt (it violates a
    /// certified triangle-inequality sandwich), every bound derivable
    /// through it is poisoned and the value must be removed before a
    /// trusted replacement is recorded. After `retract(p)`, `known(p)`
    /// is `None` and `generation()` has advanced, so stamp-gated caches
    /// drop anything derived from the poisoned state.
    ///
    /// The default, `false`, declares the scheme *irreversible* — schemes
    /// whose internal state cannot soundly forget a value (ADM's matrix
    /// closure, LAESA's pivot rows baked in at bootstrap) must refuse, and
    /// callers fall back to always-vote mode, which never records an
    /// unaudited value in the first place.
    fn retract(&mut self, p: Pair) -> bool {
        let _ = p;
        false
    }

    /// Number of distances recorded so far.
    #[must_use]
    fn m(&self) -> usize;

    /// Scheme name for reports ("Tri", "SPLUB", …).
    fn name(&self) -> &'static str;

    /// Visits every pair whose exact distance the scheme can certify —
    /// the payload of a resolved-distance cache (see `prox_core::persist`).
    /// Schemes may legitimately report *more* pairs than were recorded
    /// (ADM's matrices can collapse a pair's bounds by inference; an
    /// inferred exact value is still the true distance).
    fn for_each_known(&self, f: &mut dyn FnMut(Pair, f64));

    /// Monotone generation counter: advances (at least) whenever a `record`
    /// may have changed some pair's derivable bounds. The default — the
    /// number of recorded distances — is correct for every scheme, since
    /// `record` is the only mutation.
    fn generation(&self) -> u64 {
        self.m() as u64
    }

    /// Upper bound on the last generation at which `bounds(p)` may have
    /// changed. The default (the current generation: "maybe just now") is
    /// always sound; schemes with localized bounds (Tri's are a function of
    /// the endpoints' adjacency alone) override it with a sharper stamp.
    ///
    /// `u64::MAX` is the conservative end: "may change at any time". The
    /// resolver's bound memo then neither looks `p` up nor stores its
    /// sandwich, and reads the stamp again after `bounds`, which may change
    /// it. Tri returns it for the pairs on its anchor during that anchor's
    /// first visit, whose rows are mostly asked once. A stamp may read
    /// differently after any `&mut` call, so callers must not cache it.
    fn pair_stamp(&self, p: Pair) -> u64 {
        let _ = p;
        self.generation()
    }

    /// A read-only, thread-shareable view of the scheme (see
    /// `prox_core::spec`); only Tri offers one. No workspace code calls
    /// this: it stays because the benchmark's `TimedScheme` forwards it,
    /// and goes with that wrapper (ROADMAP item 8).
    fn spec(&self) -> Option<&dyn SpecBounds> {
        None
    }

    /// True when `bounds` is expensive enough that the resolver should
    /// memoize `(lb, ub)` per pair, invalidated via
    /// [`BoundScheme::pair_stamp`]. The memo is a direct-mapped table of
    /// at most 2^16 24-byte slots (1.5 MB), allocated on the first
    /// memoized query. Tri (an adjacency merge) and SPLUB (two Dijkstras)
    /// opt in. Schemes whose query is already a table read or a short scan
    /// (ADM's bound matrices, LAESA's pivot rows) leave this off: the memo
    /// would add memory and a lookup and save next to no work.
    fn bounds_cacheable(&self) -> bool {
        false
    }

    /// Read by no resolver: every threshold probe decides from the
    /// exact sandwich (DESIGN.md §13). Kept for the benchmark's forwarding
    /// wrappers, which pin SPLUB's `true` (see [`GoalBounds`]).
    fn goal_aware(&self) -> bool {
        false
    }

    /// The exact sandwich wrapped as [`GoalBounds::Exact`], whatever the
    /// goal. Called by no resolver; kept for the benchmark's forwarding
    /// wrappers (see [`GoalBounds`]).
    fn bounds_for_goal(&mut self, p: Pair, goal: QueryGoal) -> GoalBounds {
        let _ = goal;
        let (lb, ub) = self.bounds(p);
        GoalBounds::Exact { lb, ub }
    }
}

/// The null scheme: remembers exact values but derives nothing.
///
/// Plugging `NoScheme` into a resolver yields the vanilla algorithm — every
/// comparison falls through to the oracle (memoized per pair). This is the
/// `Without Plug` column of the paper's tables.
#[derive(Clone, Debug, Default)]
pub struct NoScheme {
    n: usize,
    max_distance: f64,
    resolved: BTreeMap<u64, f64>,
    retractions: u64,
}

impl NoScheme {
    /// A null scheme over `n` objects with distances in `[0, max_distance]`.
    pub fn new(n: usize, max_distance: f64) -> Self {
        NoScheme {
            n,
            max_distance,
            resolved: BTreeMap::new(),
            retractions: 0,
        }
    }
}

impl BoundScheme for NoScheme {
    fn n(&self) -> usize {
        self.n
    }
    fn max_distance(&self) -> f64 {
        self.max_distance
    }
    fn known(&self, p: Pair) -> Option<f64> {
        self.resolved.get(&p.key()).copied()
    }
    fn bounds(&mut self, p: Pair) -> (f64, f64) {
        match self.known(p) {
            Some(d) => (d, d),
            None => (0.0, self.max_distance),
        }
    }
    fn record(&mut self, p: Pair, d: f64) {
        self.resolved.insert(p.key(), d);
    }
    fn retract(&mut self, p: Pair) -> bool {
        if self.resolved.remove(&p.key()).is_some() {
            self.retractions += 1;
            true
        } else {
            false
        }
    }
    fn m(&self) -> usize {
        self.resolved.len()
    }
    fn name(&self) -> &'static str {
        "NoScheme"
    }
    fn generation(&self) -> u64 {
        // `m()` alone would *decrease* across a retraction; counting each
        // retraction twice (one removal + the slot it vacated) keeps the
        // counter monotone through retract-then-re-record cycles.
        self.resolved.len() as u64 + 2 * self.retractions
    }
    fn for_each_known(&self, f: &mut dyn FnMut(Pair, f64)) {
        for (&key, &d) in &self.resolved {
            f(Pair::from_key(key), d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noscheme_trivial_bounds() {
        let mut s = NoScheme::new(4, 1.0);
        let p = Pair::new(0, 1);
        assert_eq!(s.bounds(p), (0.0, 1.0));
        assert_eq!(s.known(p), None);
        s.record(p, 0.4);
        assert_eq!(s.bounds(p), (0.4, 0.4));
        assert_eq!(s.known(p), Some(0.4));
        assert_eq!(s.m(), 1);
        assert_eq!(s.bounds(Pair::new(2, 3)), (0.0, 1.0));
    }

    #[test]
    fn noscheme_retract_forgets_and_stays_monotone() {
        let mut s = NoScheme::new(4, 1.0);
        let p = Pair::new(0, 1);
        s.record(p, 0.4);
        let gen = s.generation();
        assert!(s.retract(p));
        assert_eq!(s.known(p), None);
        assert_eq!(s.bounds(p), (0.0, 1.0));
        assert!(s.generation() > gen, "retraction advances the generation");
        let gen = s.generation();
        s.record(p, 0.35);
        assert_eq!(s.known(p), Some(0.35));
        assert!(s.generation() > gen);
        assert!(!s.retract(Pair::new(2, 3)), "unknown pair refuses");
    }

    #[test]
    fn noscheme_respects_max_distance() {
        let mut s = NoScheme::new(3, 7.5);
        assert_eq!(s.bounds(Pair::new(0, 2)), (0.0, 7.5));
        assert_eq!(s.upper_bound(Pair::new(1, 2)), 7.5);
        assert_eq!(s.lower_bound(Pair::new(1, 2)), 0.0);
    }
}
