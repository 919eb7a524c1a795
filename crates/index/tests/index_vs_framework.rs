//! The trade the paper draws in §6.1, on a concrete workload: specialized
//! indexes answer *search* queries with few calls after an up-front
//! construction bill; the resolver framework spends calls only where the
//! running algorithm's comparisons need them — and generalizes beyond
//! search.

#![expect(clippy::disallowed_methods, reason = "un-metered ground truth")]

use prox_algos::{knn_query, range_members, BoundResolver};
use prox_bounds::TriScheme;
use prox_core::{Metric, ObjectId, Oracle};
use prox_datasets::{ClusteredPlane, Dataset};
use prox_index::{BkTree, Gnat, MTree, VpTree};

const N: usize = 150;
const SEED: u64 = 20210620;

fn brute_knn(metric: &dyn Metric, q: ObjectId, k: usize) -> Vec<ObjectId> {
    let mut all: Vec<(f64, ObjectId)> = (0..metric.len() as ObjectId)
        .filter(|&v| v != q)
        .map(|v| (metric.distance(q, v), v))
        .collect();
    all.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    all[..k].iter().map(|&(_, v)| v).collect()
}

#[test]
fn vptree_and_framework_agree_on_knn() {
    let metric = ClusteredPlane::default().metric(N, SEED);

    // VP-tree route.
    let o_tree = Oracle::new(&*metric);
    let tree = VpTree::build(&o_tree);
    let construction = tree.construction_calls();

    // Framework route.
    let o_frame = Oracle::new(&*metric);
    let mut resolver = BoundResolver::new(&o_frame, TriScheme::new(N, 1.0));

    for q in (0..N as ObjectId).step_by(17) {
        let want = brute_knn(&*metric, q, 5);
        let via_tree: Vec<ObjectId> = tree
            .knn(&o_tree, q, 5)
            .into_iter()
            .map(|(v, _)| v)
            .collect();
        let via_frame: Vec<ObjectId> = knn_query(&mut resolver, q, 5)
            .into_iter()
            .map(|(v, _)| v)
            .collect();
        assert_eq!(via_tree, want, "VP-tree exactness, q={q}");
        assert_eq!(via_frame, want, "framework exactness, q={q}");
    }

    // The index paid a construction bill before the first query.
    assert!(
        construction as usize > N,
        "VP-tree construction is more than one call per object"
    );
    // Per additional query, the tree is cheap; the framework amortizes as
    // its knowledge grows. Both facts are workload truths, not assertions
    // we need to rank — just record that both stayed far below brute force.
    let brute_cost = (N - 1) * (N / 17 + 1);
    assert!((o_tree.calls() as usize) < construction as usize + brute_cost);
    assert!((o_frame.calls() as usize) < brute_cost + N * N / 2);
}

/// Every index and the resolver framework must return the identical range
/// result — four independent prunings of the same query.
#[test]
fn all_surfaces_agree_on_range_queries() {
    let metric = ClusteredPlane::default().metric(N, SEED);
    let o_vp = Oracle::new(&*metric);
    let vp = VpTree::build(&o_vp);
    let o_bk = Oracle::new(&*metric);
    let bk = BkTree::build(&o_bk, 0.05);
    let o_mt = Oracle::new(&*metric);
    let mt = MTree::build(&o_mt, 8);
    let o_gn = Oracle::new(&*metric);
    let gn = Gnat::build(&o_gn, 6, 8);
    let o_fr = Oracle::new(&*metric);
    let mut fr = BoundResolver::new(&o_fr, TriScheme::new(N, 1.0));

    for (q, radius) in [(5u32, 0.12), (60, 0.3), (149, 0.05)] {
        let want: Vec<ObjectId> = (0..N as ObjectId)
            .filter(|&v| v != q && metric.distance(q, v) <= radius)
            .collect();
        assert_eq!(vp.range(&o_vp, q, radius), want, "vptree q={q}");
        assert_eq!(bk.range(&o_bk, q, radius), want, "bktree q={q}");
        assert_eq!(mt.range(&o_mt, q, radius), want, "mtree q={q}");
        assert_eq!(gn.range(&o_gn, q, radius), want, "gnat q={q}");
        // range_members includes the center itself; strip it.
        let fr_hits: Vec<ObjectId> = range_members(&mut fr, q, radius)
            .into_iter()
            .filter(|&v| v != q)
            .collect();
        assert_eq!(fr_hits, want, "framework q={q}");
    }
}

/// M-tree and VP-tree kNN agree with the framework's kNN (same tie rule).
#[test]
fn all_surfaces_agree_on_knn() {
    let metric = ClusteredPlane::default().metric(N, SEED);
    let o_vp = Oracle::new(&*metric);
    let vp = VpTree::build(&o_vp);
    let o_mt = Oracle::new(&*metric);
    let mt = MTree::build(&o_mt, 8);
    let o_fr = Oracle::new(&*metric);
    let mut fr = BoundResolver::new(&o_fr, TriScheme::new(N, 1.0));
    for q in (0..N as ObjectId).step_by(23) {
        let want = brute_knn(&*metric, q, 6);
        let vp_ids: Vec<ObjectId> = vp.knn(&o_vp, q, 6).into_iter().map(|(v, _)| v).collect();
        let mt_ids: Vec<ObjectId> = mt.knn(&o_mt, q, 6).into_iter().map(|(v, _)| v).collect();
        let fr_ids: Vec<ObjectId> = knn_query(&mut fr, q, 6)
            .into_iter()
            .map(|(v, _)| v)
            .collect();
        assert_eq!(vp_ids, want, "vptree q={q}");
        assert_eq!(mt_ids, want, "mtree q={q}");
        assert_eq!(fr_ids, want, "framework q={q}");
    }
}

#[test]
fn bktree_range_agrees_with_ground_truth() {
    let metric = ClusteredPlane::default().metric(N, SEED);
    let oracle = Oracle::new(&*metric);
    let tree = BkTree::build(&oracle, 0.05);
    for (q, radius) in [(3u32, 0.1), (77, 0.25), (149, 0.02)] {
        let got = tree.range(&oracle, q, radius);
        let want: Vec<ObjectId> = (0..N as ObjectId)
            .filter(|&v| v != q && metric.distance(q, v) <= radius)
            .collect();
        assert_eq!(got, want, "q={q} r={radius}");
    }
}
