//! Seeded random-instance generators for property-style test suites.
//!
//! The workspace's randomized suites (`consistency`, `random_exactness`,
//! `lp_vs_bounds`, the paranoid exactness suite) all draw the same kind of
//! instance: a planar point set under scaled Euclidean distance — a
//! guaranteed metric with distances in `[0, 1]` — plus a subset of edges to
//! pre-resolve. Centralizing the generators keeps the suites honest (every
//! one of them exercises the same adversarial shapes) and keeps the
//! workspace free of an external property-testing dependency: a failing
//! case is reported by its seed, and re-running the suite with that seed
//! reproduces it exactly.

use prox_core::TinyRng;

use crate::EuclideanPoints;

/// A random planar instance: points in the unit square plus a list of
/// distinct id pairs to pre-resolve (duplicates allowed, as proptest's
/// edge vectors allowed them).
#[derive(Clone, Debug)]
pub struct PlanarInstance {
    /// Points in `[0, 1]²`.
    pub points: Vec<(f64, f64)>,
    /// Pairs of distinct ids to pre-resolve.
    pub edges: Vec<(u32, u32)>,
}

impl PlanarInstance {
    /// Draws an instance with `min_n ≤ n < max_n` points and up to
    /// `edge_frac` of all `C(n, 2)` pairs pre-resolved.
    pub fn draw(rng: &mut TinyRng, min_n: usize, max_n: usize, edge_frac: f64) -> Self {
        let n = rng.range(min_n, max_n);
        let points = random_points(rng, n);
        let max_edges = ((n * (n - 1) / 2) as f64 * edge_frac).ceil() as usize;
        let n_edges = rng.below(max_edges.max(1) + 1);
        let edges = (0..n_edges)
            .map(|_| {
                let a = rng.below(n) as u32;
                let mut b = rng.below(n) as u32;
                while b == a {
                    b = rng.below(n) as u32;
                }
                (a, b)
            })
            .collect();
        PlanarInstance { points, edges }
    }

    /// The instance's metric.
    pub fn metric(&self) -> EuclideanPoints {
        EuclideanPoints::new(self.points.clone())
    }

    /// Number of points.
    pub fn n(&self) -> usize {
        self.points.len()
    }
}

/// `n` uniform points in the unit square.
pub fn random_points(rng: &mut TinyRng, n: usize) -> Vec<(f64, f64)> {
    (0..n).map(|_| (rng.unit_f64(), rng.unit_f64())).collect()
}

/// Runs `body` once per case with a deterministic per-case RNG. When a case
/// panics, the failing `(base_seed, case)` is printed to stderr before the
/// panic propagates, so the case can be replayed in isolation with
/// [`run_case`].
pub fn property(base_seed: u64, cases: u64, mut body: impl FnMut(&mut TinyRng)) {
    /// Prints the failing coordinates if dropped during a panic.
    struct ReplayNote {
        base_seed: u64,
        case: u64,
        armed: bool,
    }
    impl Drop for ReplayNote {
        #[expect(clippy::print_stderr, reason = "mid-panic note; no sink reachable")]
        fn drop(&mut self) {
            if self.armed && std::thread::panicking() {
                eprintln!(
                    "property case failed: replay with run_case(base_seed={}, case={}, ..)",
                    self.base_seed, self.case
                );
            }
        }
    }
    for case in 0..cases {
        let mut note = ReplayNote {
            base_seed,
            case,
            armed: true,
        };
        run_case(base_seed, case, &mut body);
        note.armed = false;
    }
}

/// Runs a single case of a [`property`] suite.
pub fn run_case(base_seed: u64, case: u64, body: &mut impl FnMut(&mut TinyRng)) {
    let mut rng = TinyRng::new(base_seed ^ case.wrapping_mul(0xA24B_AED4_963E_E407));
    body(&mut rng);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instances_are_well_formed() {
        let mut rng = TinyRng::new(7);
        for _ in 0..50 {
            let inst = PlanarInstance::draw(&mut rng, 4, 12, 0.5);
            assert!((4..12).contains(&inst.n()));
            for &(a, b) in &inst.edges {
                assert_ne!(a, b);
                assert!((a as usize) < inst.n() && (b as usize) < inst.n());
            }
            for &(x, y) in &inst.points {
                assert!((0.0..1.0).contains(&x) && (0.0..1.0).contains(&y));
            }
        }
    }

    #[test]
    fn property_cases_are_replayable() {
        let mut seen = Vec::new();
        property(42, 4, |rng| seen.push(rng.next_u64()));
        // Replaying case 2 alone yields the same stream.
        let mut replay = Vec::new();
        run_case(42, 2, &mut |rng: &mut TinyRng| replay.push(rng.next_u64()));
        assert_eq!(replay[0], seen[2]);
    }
}
