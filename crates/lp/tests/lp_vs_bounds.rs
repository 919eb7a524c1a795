//! Cross-validation of the simplex-backed DFT against the exact
//! path-bound machinery on randomized metric instances.
//!
//! For a *single* unknown edge, the LP relaxation of the triangle system is
//! exactly as tight as the tightest path bounds (SPLUB): probing below the
//! TLB or above the TUB must come back infeasible, probing strictly inside
//! the band must come back feasible. This pins the simplex, the system
//! builder, and SPLUB against each other — three independent
//! implementations of the same mathematics.

#![expect(clippy::disallowed_methods, reason = "un-metered ground truth")]

use prox_bounds::{BoundScheme, DistanceResolver, Splub};
use prox_core::{Metric, Oracle, Pair, TinyRng};
use prox_datasets::testgen::{property, PlanarInstance};
use prox_lp::DftResolver;

/// (4..9 points, at least one pre-resolved edge, ~third of edges resolved).
fn instance(rng: &mut TinyRng) -> PlanarInstance {
    let mut inst = PlanarInstance::draw(rng, 4, 9, 0.67);
    if inst.edges.is_empty() {
        inst.edges.push((0, 1));
    }
    inst
}

#[test]
fn dft_value_probes_match_splub_band() {
    property(0x5EED_0201, 32, |rng| {
        let inst = instance(rng);
        let n = inst.n();
        let metric = inst.metric();
        let oracle = Oracle::new(&metric);
        let mut dft = DftResolver::new(&oracle);
        let mut splub = Splub::new(n, 1.0);
        for &(a, b) in &inst.edges {
            let p = Pair::new(a, b);
            let d = metric.distance(a, b);
            dft.resolve(p);
            splub.record(p, d);
        }
        for q in Pair::all(n) {
            if dft.known(q).is_some() {
                continue;
            }
            let (lb, ub) = splub.bounds(q);
            // Probe strictly below the band: d(q) < probe must be refuted.
            if lb > 0.05 {
                let probe = lb * 0.5;
                assert_eq!(
                    dft.try_less_value(q, probe),
                    Some(false),
                    "{q:?}: probe {probe} under lb {lb}"
                );
            }
            // Probe strictly above: certainly less.
            if ub < 0.95 {
                let probe = ub + 0.5 * (1.0 - ub);
                assert_eq!(
                    dft.try_less_value(q, probe),
                    Some(true),
                    "{q:?}: probe {probe} over ub {ub}"
                );
            }
            // Probe strictly inside a non-degenerate band: undecidable.
            if ub - lb > 0.1 {
                let probe = lb + (ub - lb) * 0.5;
                assert_eq!(
                    dft.try_less_value(q, probe),
                    None,
                    "{q:?}: probe {probe} inside [{lb}, {ub}]"
                );
            }
        }
    });
}

/// The convexity theorem in practice: for a single unknown edge, the exact
/// LP interval over the triangle polytope equals SPLUB's tightest path
/// bounds. (See DESIGN.md §4.5 — this is why DFT cannot out-prune a
/// tightest-bound scheme on pairwise comparisons.)
#[test]
fn lp_interval_equals_tightest_path_bounds() {
    property(0x5EED_0202, 32, |rng| {
        let inst = instance(rng);
        let n = inst.n();
        let metric = inst.metric();
        let oracle = Oracle::new(&metric);
        let mut dft = DftResolver::new(&oracle);
        let mut splub = Splub::new(n, 1.0);
        for &(a, b) in &inst.edges {
            let p = Pair::new(a, b);
            dft.resolve(p);
            splub.record(p, metric.distance(a, b));
        }
        for q in Pair::all(n).step_by(2) {
            if dft.known(q).is_some() {
                continue;
            }
            let (sl, su) = splub.bounds(q);
            let (ll, lu) = dft.lp_bounds(q).expect("metric system is feasible");
            assert!((ll - sl).abs() < 1e-6, "{q:?}: LP min {ll} vs TLB {sl}");
            assert!((lu - su).abs() < 1e-6, "{q:?}: LP max {lu} vs TUB {su}");
        }
    });
}

#[test]
fn dft_pair_comparisons_never_contradict_truth() {
    property(0x5EED_0203, 32, |rng| {
        let inst = instance(rng);
        let n = inst.n();
        let metric = inst.metric();
        let oracle = Oracle::new(&metric);
        let mut dft = DftResolver::new(&oracle);
        for &(a, b) in &inst.edges {
            dft.resolve(Pair::new(a, b));
        }
        let all: Vec<Pair> = Pair::all(n).collect();
        for (i, &x) in all.iter().enumerate() {
            for &y in all.iter().skip(i + 1).step_by(3) {
                if let Some(ans) = dft.try_less(x, y) {
                    let truth = metric.distance(x.lo(), x.hi()) < metric.distance(y.lo(), y.hi());
                    assert_eq!(ans, truth, "{x:?} vs {y:?}");
                }
            }
        }
    });
}

#[test]
fn dft_sum_probes_sound() {
    property(0x5EED_0204, 32, |rng| {
        let inst = instance(rng);
        let n = inst.n();
        let metric = inst.metric();
        let oracle = Oracle::new(&metric);
        let mut dft = DftResolver::new(&oracle);
        for &(a, b) in &inst.edges {
            dft.resolve(Pair::new(a, b));
        }
        // Sum probes over consecutive unknown pairs must agree with truth.
        let unknown: Vec<Pair> = Pair::all(n).filter(|&p| dft.known(p).is_none()).collect();
        for w in unknown.windows(2).step_by(2) {
            let truth: f64 = w.iter().map(|p| metric.distance(p.lo(), p.hi())).sum();
            for probe in [truth * 0.5, truth * 1.5] {
                if let Some(ans) = dft.try_sum_less_value(w, probe) {
                    assert_eq!(ans, truth < probe, "sum {w:?} vs probe {probe}");
                }
            }
        }
    });
}
