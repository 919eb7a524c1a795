//! The golden call table: the paper's currency, pinned row by row.
//!
//! `exactness.rs` proves plugged outputs equal vanilla outputs and that
//! plugs never pay more, but a change that cut a scheme's pruning tenfold
//! would still pass it. This test recomputes, for Prim, Kruskal, the kNN
//! graph and PAM under vanilla, Tri (with `⌈log2 n⌉` LAESA landmarks),
//! SPLUB and LAESA on the `sf` dataset at two seeds:
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

use prox_algos::{knn_graph, kruskal_mst, pam, prim_mst, PamParams};
use prox_bounds::bootstrap::default_landmarks;
use prox_bounds::{laesa_bootstrap, BoundResolver, DistanceResolver, Laesa, Splub, TriScheme};
use prox_core::{crc32, Metric, Oracle};
use prox_datasets::{ClusteredPlane, Dataset};

const N: usize = 64;
const SEEDS: [u64; 2] = [1, 2];
const PLUGS: [&str; 4] = ["vanilla", "tri", "splub", "laesa"];
const ALGOS: [&str; 4] = ["prim", "kruskal", "knng", "pam"];

/// Runs `algo` and returns its output rendered with `Debug`.
fn run_algo(algo: &str, r: &mut dyn DistanceResolver, seed: u64) -> String {
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
        other => panic!("unknown algorithm {other}"),
    }
}

/// One table row for `algo` under `plug` on `sf` at `seed`.
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
    format!(
        "{algo} {plug} {seed} | boot={boot_calls} algo={algo_calls} | decided={} fell={} \
         known={} resolved={} preloaded={} | {} | out={:08x}",
        s.decided_by_bounds,
        s.fell_through,
        s.served_known,
        s.resolved,
        s.preloaded,
        ledger.join(" "),
        crc32(out.as_bytes()),
    )
}

fn table() -> String {
    let mut out = String::from(
        "# algo plug seed | oracle calls | PruneStats | I11 ledger rows | output CRC-32\n",
    );
    for seed in SEEDS {
        let metric = ClusteredPlane::default().metric(N, seed);
        for algo in ALGOS {
            for plug in PLUGS {
                out.push_str(&row(&*metric, algo, plug, seed));
                out.push('\n');
            }
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
