//! Combining two bound schemes: take the best of both worlds.

use prox_core::Pair;

use crate::scheme::{GoalBounds, QueryGoal};
use crate::BoundScheme;

/// A scheme that answers with the **tighter** of two member schemes'
/// bounds: `lb = max(lb_a, lb_b)`, `ub = min(ua, ub_b)`.
///
/// Every recorded distance goes to both members, so a
/// `Composite<Laesa, TriScheme>` pairs LAESA's strong *static* landmark
/// bounds with Tri's *growing* knowledge — the idea behind the paper's
/// "bootstrapping Tri Scheme through landmarks", expressed as a combinator
/// instead of by seeding one scheme's graph. Bounds are at least as tight
/// as either member's, at the summed query/update cost.
#[derive(Clone, Debug)]
pub struct Composite<A, B> {
    /// First member.
    pub a: A,
    /// Second member.
    pub b: B,
}

impl<A: BoundScheme, B: BoundScheme> Composite<A, B> {
    /// Combines two schemes over the same object set.
    pub fn new(a: A, b: B) -> Self {
        assert_eq!(a.n(), b.n(), "members must cover the same objects");
        assert_eq!(
            a.max_distance(),
            b.max_distance(),
            "members must share the distance cap"
        );
        Composite { a, b }
    }
}

impl<A: BoundScheme, B: BoundScheme> BoundScheme for Composite<A, B> {
    fn n(&self) -> usize {
        self.a.n()
    }

    fn max_distance(&self) -> f64 {
        self.a.max_distance()
    }

    fn known(&self, p: Pair) -> Option<f64> {
        self.a.known(p).or_else(|| self.b.known(p))
    }

    fn bounds(&mut self, p: Pair) -> (f64, f64) {
        let (la, ua) = self.a.bounds(p);
        let (lb, ub) = self.b.bounds(p);
        let l = la.max(lb);
        let u = ua.min(ub);
        // Members can disagree by float noise around an exact value.
        if l > u {
            (u, u)
        } else {
            (l, u)
        }
    }

    fn record(&mut self, p: Pair, d: f64) {
        self.a.record(p, d);
        self.b.record(p, d);
    }

    fn m(&self) -> usize {
        self.a.m().max(self.b.m())
    }

    fn name(&self) -> &'static str {
        "Composite"
    }

    fn for_each_known(&self, f: &mut dyn FnMut(Pair, f64)) {
        // Every record() reaches both members; member `a` is authoritative.
        self.a.for_each_known(f);
    }

    fn goal_aware(&self) -> bool {
        self.a.goal_aware() || self.b.goal_aware()
    }

    fn bounds_for_goal(&mut self, p: Pair, goal: QueryGoal) -> GoalBounds {
        // A member's decisive shortcut transfers to the composite: the
        // combined exact sandwich is at least as tight as that member's, so
        // a comparison the member's exact tier decides (which its Decisive
        // certifies, guard band included) the intersection decides the same
        // way — tightening can only move bounds *away* from the threshold
        // on the decided side.
        let ga = self.a.bounds_for_goal(p, goal);
        if matches!(ga, GoalBounds::Decisive { .. }) {
            return ga;
        }
        let gb = self.b.bounds_for_goal(p, goal);
        if matches!(gb, GoalBounds::Decisive { .. }) {
            return gb;
        }
        // Both exact: combine exactly as `bounds` does.
        let (la, ua) = ga.bounds();
        let (lb, ub) = gb.bounds();
        let l = la.max(lb);
        let u = ua.min(ub);
        if l > u {
            GoalBounds::Exact { lb: u, ub: u }
        } else {
            GoalBounds::Exact { lb: l, ub: u }
        }
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "un-metered ground truth")]
mod tests {
    use super::*;
    use crate::{laesa_bootstrap, Laesa, Splub, TriScheme};
    use prox_core::{FnMetric, Metric, ObjectId, Oracle};

    fn line_oracle(n: usize) -> Oracle<FnMetric<impl Fn(ObjectId, ObjectId) -> f64>> {
        let scale = 1.0 / (n as f64 - 1.0);
        Oracle::new(FnMetric::new(n, 1.0, move |a, b| {
            (f64::from(a) - f64::from(b)).abs() * scale
        }))
    }

    #[test]
    fn tighter_than_both_members() {
        let n = 40;
        let oracle = line_oracle(n);
        let boot = laesa_bootstrap(&oracle, 3, 5);

        let mut laesa_alone = Laesa::new(1.0, &boot);
        let mut tri_alone = TriScheme::new(n, 1.0);
        let mut combo = Composite::new(Laesa::new(1.0, &boot), TriScheme::new(n, 1.0));

        // Feed some run-time resolutions (Tri absorbs, LAESA memoizes).
        for e in Pair::all(n).step_by(11) {
            let d = oracle.ground_truth().distance(e.lo(), e.hi());
            laesa_alone.record(e, d);
            tri_alone.record(e, d);
            combo.record(e, d);
        }
        for q in Pair::all(n).step_by(3) {
            let (cl, cu) = combo.bounds(q);
            let (ll, lu) = laesa_alone.bounds(q);
            let (tl, tu) = tri_alone.bounds(q);
            let d = oracle.ground_truth().distance(q.lo(), q.hi());
            assert!(cl >= ll.max(tl) - 1e-12, "{q:?} lb");
            assert!(cu <= lu.min(tu) + 1e-12, "{q:?} ub");
            assert!(cl <= d + 1e-12 && d <= cu + 1e-12, "{q:?} sound");
        }
    }

    #[test]
    fn known_served_from_either_member() {
        let mut combo = Composite::new(TriScheme::new(5, 1.0), Splub::new(5, 1.0));
        combo.record(Pair::new(0, 1), 0.25);
        assert_eq!(combo.known(Pair::new(0, 1)), Some(0.25));
        assert_eq!(combo.bounds(Pair::new(0, 1)), (0.25, 0.25));
        assert_eq!(combo.m(), 1);
    }

    #[test]
    #[should_panic(expected = "same objects")]
    fn mismatched_sizes_rejected() {
        let _ = Composite::new(TriScheme::new(5, 1.0), Splub::new(6, 1.0));
    }
}
