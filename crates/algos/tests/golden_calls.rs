//! The golden call table: the paper's currency, pinned row by row.
//!
//! `exactness.rs` proves plugged outputs equal vanilla outputs and that
//! plugs never pay more, but a change that cut a scheme's pruning tenfold
//! would still pass it. This test recomputes, for every public entry point
//! of `prox-algos` (Prim, Kruskal with the default and a non-default
//! `KruskalConfig`, the kNN graph and single kNN queries, PAM, CLARANS,
//! k-center, TSP 2-opt, single/complete/average linkage and the average
//! linkage cut, range queries and range membership):
//!
//! * under vanilla, Tri (with `⌈log2 n⌉` LAESA landmarks), SPLUB and LAESA
//!   on the `sf` dataset at n = 64 and two seeds;
//! * under the DFT resolver on `sf` at n = 8 and the same two seeds (its
//!   dense-tableau LPs grow steeply: n = 12 already takes seconds per
//!   entry point in the dev profile);
//!
//! the following columns:
//!
//! * the bootstrap and algorithm oracle calls,
//! * every `PruneStats` counter,
//! * the I11 provenance-ledger rows,
//! * a CRC-32 of the output's `Debug` rendering (which round-trips every
//!   `f64` bit for bit),
//!
//! and diffs the result against the committed `golden_calls.txt`. A change
//! that moves a row on purpose pastes the recomputed table (printed in
//! full on mismatch) over the committed file and explains the move.

use prox_algos::{
    average_linkage, average_linkage_cut, clarans, complete_linkage, k_center, knn_graph,
    knn_query, kruskal_mst, kruskal_mst_with, pam, prim_mst, range_members, range_query,
    single_linkage, tsp_2opt, ClaransParams, KruskalConfig, PamParams,
};
use prox_bounds::bootstrap::default_landmarks;
use prox_bounds::{laesa_bootstrap, BoundResolver, DistanceResolver, Laesa, Splub, TriScheme};
use prox_core::{crc32, Metric, ObjectId, Oracle};
use prox_datasets::{ClusteredPlane, Dataset};
use prox_lp::DftResolver;

const N: usize = 64;
/// The DFT plug's instance size (see the module docs).
const N_DFT: usize = 8;
const SEEDS: [u64; 2] = [1, 2];
const PLUGS: [&str; 4] = ["vanilla", "tri", "splub", "laesa"];
/// The first four entry points, in the order of the table's first 32 rows.
const ALGOS: [&str; 4] = ["prim", "kruskal", "knng", "pam"];
/// The remaining entry points, appended after those rows.
const MORE_ALGOS: [&str; 11] = [
    "kcenter",
    "tsp",
    "single-linkage",
    "complete-linkage",
    "average-linkage",
    "average-linkage-cut",
    "clarans",
    "range-query",
    "range-members",
    "knn-query",
    "kruskal-with",
];

/// Query centers for the single-query entry points: a few spread ids, all
/// served by one resolver so later queries reuse earlier knowledge.
fn centers(n: usize) -> impl Iterator<Item = ObjectId> {
    (0..n as ObjectId).step_by(n.div_ceil(4))
}

/// Runs `algo` and returns its output rendered with `Debug`.
fn run_algo(algo: &str, r: &mut dyn DistanceResolver, seed: u64) -> String {
    let n = r.n();
    match algo {
        "prim" => format!("{:?}", prim_mst(r)),
        "kruskal" => format!("{:?}", kruskal_mst(r)),
        "knng" => format!("{:?}", knn_graph(r, 4)),
        "pam" => format!(
            "{:?}",
            pam(
                r,
                PamParams {
                    l: 4,
                    max_swaps: 200,
                    seed,
                }
            )
        ),
        "kcenter" => format!("{:?}", k_center(r, 4, 0)),
        "tsp" => format!("{:?}", tsp_2opt(r, 0, 20)),
        "single-linkage" => format!("{:?}", single_linkage(r)),
        "complete-linkage" => format!("{:?}", complete_linkage(r)),
        "average-linkage" => format!("{:?}", average_linkage(r)),
        "average-linkage-cut" => format!("{:?}", average_linkage_cut(r, 4)),
        "clarans" => format!(
            "{:?}",
            clarans(
                r,
                ClaransParams {
                    l: 3,
                    numlocal: 2,
                    maxneighbor: 20,
                    seed,
                }
            )
        ),
        "range-query" => {
            let out: Vec<_> = centers(n).map(|c| range_query(r, c, 0.2)).collect();
            format!("{out:?}")
        }
        "range-members" => {
            let out: Vec<_> = centers(n).map(|c| range_members(r, c, 0.2)).collect();
            format!("{out:?}")
        }
        "knn-query" => {
            let out: Vec<_> = centers(n).map(|c| knn_query(r, c, 5)).collect();
            format!("{out:?}")
        }
        "kruskal-with" => format!(
            "{:?}",
            kruskal_mst_with(
                r,
                KruskalConfig {
                    connectivity_first: true,
                    refresh_bounds: false,
                }
            )
        ),
        other => panic!("unknown algorithm {other}"),
    }
}

/// One table row for `algo` under `plug` at `seed`.
fn row(metric: &(dyn Metric + Send + Sync), algo: &str, plug: &str, seed: u64) -> String {
    let n = metric.len();
    let oracle = Oracle::new(metric);
    let landmarks = default_landmarks(n);
    let mut r: Box<dyn DistanceResolver + '_> = match plug {
        "vanilla" => Box::new(BoundResolver::vanilla(&oracle)),
        "tri" => {
            let boot = laesa_bootstrap(&oracle, landmarks, seed);
            let mut scheme = TriScheme::new(n, 1.0);
            boot.apply_to(&mut scheme);
            Box::new(BoundResolver::new(&oracle, scheme))
        }
        "splub" => Box::new(BoundResolver::new(&oracle, Splub::new(n, 1.0))),
        "laesa" => {
            let boot = laesa_bootstrap(&oracle, landmarks, seed);
            Box::new(BoundResolver::new(&oracle, Laesa::new(1.0, &boot)))
        }
        "dft" => Box::new(DftResolver::new(&oracle)),
        other => panic!("unknown plug {other}"),
    };
    let boot_calls = oracle.calls();
    let out = run_algo(algo, &mut *r, seed);
    let algo_calls = oracle.calls() - boot_calls;
    let s = r.prune_stats();
    let ledger: Vec<String> = r
        .provenance()
        .rows()
        .into_iter()
        .map(|(kind, scheme, tier, count)| {
            if scheme.is_empty() {
                format!("{kind}={count}")
            } else {
                format!("{kind}:{scheme}/{tier}={count}")
            }
        })
        .collect();
    // DFT keeps no provenance ledger; mark its empty column.
    let ledger = if ledger.is_empty() {
        "-".to_string()
    } else {
        ledger.join(" ")
    };
    format!(
        "{algo} {plug} {seed} | boot={boot_calls} algo={algo_calls} | decided={} fell={} \
         known={} resolved={} preloaded={} | {} | out={:08x}",
        s.decided_by_bounds,
        s.fell_through,
        s.served_known,
        s.resolved,
        s.preloaded,
        ledger,
        crc32(out.as_bytes()),
    )
}

fn table() -> String {
    let mut out = String::from(
        "# algo plug seed | oracle calls | PruneStats | I11 ledger rows | output CRC-32\n",
    );
    let mut push = |metric: &(dyn Metric + Send + Sync), algo: &str, plug: &str, seed: u64| {
        out.push_str(&row(metric, algo, plug, seed));
        out.push('\n');
    };
    for algos in [&ALGOS[..], &MORE_ALGOS[..]] {
        for seed in SEEDS {
            let metric = ClusteredPlane::default().metric(N, seed);
            for &algo in algos {
                for plug in PLUGS {
                    push(&*metric, algo, plug, seed);
                }
            }
        }
    }
    for seed in SEEDS {
        let metric = ClusteredPlane::default().metric(N_DFT, seed);
        for &algo in ALGOS.iter().chain(&MORE_ALGOS) {
            push(&*metric, algo, "dft", seed);
        }
    }
    out
}

#[test]
fn golden_call_table_is_unchanged() {
    let want = include_str!("golden_calls.txt");
    let got = table();
    assert!(
        got == want,
        "the golden call table moved; recomputed table:\n{got}"
    );
}
