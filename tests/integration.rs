//! Workspace-level integration: the public `prox` API end to end, the way a
//! downstream user would consume it.

#![expect(clippy::disallowed_methods, reason = "un-metered ground truth")]

use prox::prelude::*;

/// Full pipeline on the road-network workload: bootstrap, plug, run three
/// different proximity algorithms through one shared scheme instance's
/// worth of knowledge, verify against ground truth.
#[test]
fn end_to_end_road_network() {
    let n = 60;
    let metric = RoadNetwork::default().generate(n, 123);
    let oracle = Oracle::new(metric);

    let boot = laesa_bootstrap(&oracle, 6, 123);
    let mut scheme = TriScheme::new(n, 1.0);
    boot.apply_to(&mut scheme);
    let mut resolver = BoundResolver::new(&oracle, scheme);

    // MST.
    let mst = prim_mst(&mut resolver);
    assert_eq!(mst.edges.len(), n - 1);
    assert!(mst.total_weight > 0.0);

    // kNN graph reuses everything the MST resolved.
    let calls_before = oracle.calls();
    let g = knn_graph(&mut resolver, 3);
    assert_eq!(g.len(), n);
    assert!(g.iter().all(|nb| nb.len() == 3));
    let knng_calls = oracle.calls() - calls_before;
    assert!(
        knng_calls < prox_core::Pair::count(n),
        "knowledge reuse must save calls"
    );

    // Clustering on top of the same knowledge.
    let c = pam(
        &mut resolver,
        PamParams {
            l: 5,
            max_swaps: 20,
            seed: 9,
        },
    );
    assert_eq!(c.medoids.len(), 5);
    assert_eq!(c.assignment.len(), n);

    // Verify the MST weight against a ground-truth computation.
    let gt = oracle.ground_truth();
    let direct: f64 = mst
        .edges
        .iter()
        .map(|&(p, w)| {
            let d = gt.distance(p.lo(), p.hi());
            assert!((d - w).abs() < 1e-12, "edge weight mismatch");
            d
        })
        .sum();
    assert!((direct - mst.total_weight).abs() < 1e-9);
}

/// The prelude exposes everything the README promises.
#[test]
fn prelude_surface() {
    let metric = ClusteredPlane::default().generate(20, 5);
    let oracle = Oracle::new(metric);
    let mut vanilla: VanillaResolver<_> = BoundResolver::vanilla(&oracle);
    let mst: Mst = kruskal_mst(&mut vanilla);
    assert_eq!(mst.edges.len(), 19);

    let nb = knn_query(&mut vanilla, 0, 4);
    assert_eq!(nb.len(), 4);

    let cl: Clustering = clarans(
        &mut vanilla,
        ClaransParams {
            l: 3,
            numlocal: 1,
            maxneighbor: 20,
            seed: 2,
        },
    );
    assert_eq!(cl.medoids.len(), 3);
}

/// DFT through the public API on the README-scale string workload.
#[test]
fn dft_on_strings() {
    let n = 12;
    let metric = StringSet {
        length: 16,
        families: 3,
        mutation_rate: 0.25,
    }
    .generate(n, 77);
    let oracle = Oracle::new(metric);
    let mut dft = DftResolver::new(&oracle);
    let mst = prim_mst(&mut dft);
    assert_eq!(mst.edges.len(), n - 1);
    assert!(oracle.calls() <= prox_core::Pair::count(n));

    // Same output as vanilla.
    let metric2 = StringSet {
        length: 16,
        families: 3,
        mutation_rate: 0.25,
    }
    .generate(n, 77);
    let oracle2 = Oracle::new(metric2);
    let mut vanilla = BoundResolver::vanilla(&oracle2);
    let want = prim_mst(&mut vanilla);
    assert_eq!(mst.edge_keys(), want.edge_keys());
}

/// The virtual-cost accounting that powers the completion-time experiments.
#[test]
fn virtual_cost_model() {
    use std::time::Duration;
    let metric = ClusteredPlane::default().generate(30, 8);
    let oracle = Oracle::with_cost(metric, Duration::from_millis(100));
    let mut r = BoundResolver::new(&oracle, TriScheme::new(30, 1.0));
    prim_mst(&mut r);
    assert_eq!(
        oracle.virtual_time(),
        Duration::from_millis(100) * u32::try_from(oracle.calls()).unwrap()
    );
}
