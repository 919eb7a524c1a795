//! Exactness under the paranoid layer: Tri, SPLUB, and DFT resolvers run
//! wrapped in `CheckedResolver`, which audits every bound (sandwich +
//! monotone tightening) and every `try_*` verdict against the exact oracle
//! while the algorithms run. The plugged outputs must still be
//! byte-identical to the vanilla outputs — the wrapper changes nothing, it
//! only panics if a scheme ever emits an unsound bound or verdict.
//!
//! This is the property-test form of the framework's core theorem: the
//! plugged algorithm equals the vanilla algorithm *because* the bounds are
//! sound; here both the conclusion and the premise are checked on every
//! random instance.

use prox_algos::{average_linkage_cut, complete_linkage, knn_graph, pam, prim_mst, PamParams};
use prox_bounds::{BoundResolver, CheckedResolver, Splub, TriScheme};
use prox_core::{Metric, Oracle, Pair, TinyRng};
use prox_datasets::testgen::{property, random_points};
use prox_datasets::EuclideanPoints;
use prox_lp::DftResolver;

fn points(rng: &mut TinyRng) -> Vec<(f64, f64)> {
    let n = rng.range(5, 14);
    random_points(rng, n)
}

/// Runs `body` once per scheme (Tri, SPLUB, DFT), each wrapped in a
/// `CheckedResolver` auditing against the metric's ground truth, and
/// asserts the audits actually fired.
fn for_each_checked_scheme(
    metric: &EuclideanPoints,
    n: usize,
    mut body: impl FnMut(&mut dyn prox_bounds::DistanceResolver),
) {
    // The unmetered ground truth the audits compare against.
    #[expect(clippy::disallowed_methods, reason = "un-metered ground truth")]
    let truth = |p: Pair| metric.distance(p.lo(), p.hi());

    let o_t = Oracle::new(metric);
    let mut tri = CheckedResolver::new(BoundResolver::new(&o_t, TriScheme::new(n, 1.0)), truth);
    body(&mut tri);
    assert!(tri.checks() > 0, "Tri run performed no audits");

    let o_s = Oracle::new(metric);
    let mut splub = CheckedResolver::new(BoundResolver::new(&o_s, Splub::new(n, 1.0)), truth);
    body(&mut splub);
    assert!(splub.checks() > 0, "SPLUB run performed no audits");

    let o_d = Oracle::new(metric);
    let mut dft = CheckedResolver::new(DftResolver::new(&o_d), truth);
    body(&mut dft);
    assert!(dft.checks() > 0, "DFT run performed no audits");
}

#[test]
fn knn_graph_is_exact_under_audit() {
    property(0x5EED_0301, 16, |rng| {
        let pts = points(rng);
        let n = pts.len();
        let metric = EuclideanPoints::new(pts);
        let k = 3.min(n - 1);

        let o_v = Oracle::new(&metric);
        let mut v = BoundResolver::vanilla(&o_v);
        let want = knn_graph(&mut v, k);

        for_each_checked_scheme(&metric, n, |r| {
            let got = knn_graph(r, k);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want.iter()) {
                assert_eq!(g, w, "kNN rows diverged under audit");
            }
        });
    });
}

#[test]
fn prim_mst_is_exact_under_audit() {
    property(0x5EED_0302, 16, |rng| {
        let pts = points(rng);
        let n = pts.len();
        let metric = EuclideanPoints::new(pts);

        let o_v = Oracle::new(&metric);
        let mut v = BoundResolver::vanilla(&o_v);
        let want = prim_mst(&mut v);

        for_each_checked_scheme(&metric, n, |r| {
            let got = prim_mst(r);
            assert_eq!(got.edges, want.edges, "MST edge lists diverged under audit");
            assert_eq!(got.total_weight.to_bits(), want.total_weight.to_bits());
        });
    });
}

#[test]
fn pam_medoids_are_exact_under_audit() {
    property(0x5EED_0303, 16, |rng| {
        let pts = points(rng);
        let n = pts.len();
        let metric = EuclideanPoints::new(pts);
        let params = PamParams {
            l: 2.min(n),
            max_swaps: 40,
            seed: 7,
        };

        let o_v = Oracle::new(&metric);
        let mut v = BoundResolver::vanilla(&o_v);
        let want = pam(&mut v, params);

        for_each_checked_scheme(&metric, n, |r| {
            let got = pam(r, params);
            assert_eq!(got, want, "PAM clustering diverged under audit");
            assert_eq!(got.cost.to_bits(), want.cost.to_bits());
        });
    });
}

#[test]
fn complete_linkage_is_exact_under_audit() {
    property(0x5EED_0304, 16, |rng| {
        let pts = points(rng);
        let n = pts.len();
        let metric = EuclideanPoints::new(pts);

        let o_v = Oracle::new(&metric);
        let mut v = BoundResolver::vanilla(&o_v);
        let want = complete_linkage(&mut v);

        for_each_checked_scheme(&metric, n, |r| {
            let got = complete_linkage(r);
            assert_eq!(
                got, want,
                "complete-linkage dendrogram diverged under audit"
            );
        });
    });
}

#[test]
fn average_linkage_cut_is_exact_under_audit() {
    property(0x5EED_0305, 16, |rng| {
        // DFT answers each `try_sum_less_value` probe with an LP, so the
        // cut's instances stay smaller than the other cases'.
        let n = rng.range(5, 11);
        let pts = random_points(rng, n);
        let metric = EuclideanPoints::new(pts);
        let k = 3;

        let o_v = Oracle::new(&metric);
        let mut v = BoundResolver::vanilla(&o_v);
        let want = average_linkage_cut(&mut v, k);

        for_each_checked_scheme(&metric, n, |r| {
            let got = average_linkage_cut(r, k);
            assert_eq!(got, want, "average-linkage cut diverged under audit");
        });
    });
}
