//! # prox — fewer expensive distance calls for proximity problems
//!
//! `prox` is a Rust implementation of the SIGMOD 2021 paper *“A Generalized
//! Approach for Reducing Expensive Distance Calls for A Broad Class of
//! Proximity Problems”* (Augustine, Shetiya, Esfandiari, Basu Roy, Das).
//!
//! It targets proximity computations — k-nearest-neighbour graphs, minimum
//! spanning trees, medoid clustering — over **general metric spaces** where
//! every distance must be fetched from an **expensive oracle** (a maps API,
//! an edit-distance routine, an image comparison). The library swaps the
//! distance *comparisons* inside those algorithms for bound checks derived
//! from the triangle inequality, saving a large fraction of the oracle calls
//! while provably returning **exactly the same output** as the unmodified
//! algorithm.
//!
//! ## Quick start
//!
//! ```
//! use prox::prelude::*;
//!
//! // 40 points on a circle; pretend distance() is expensive.
//! let n = 40;
//! let metric = FnMetric::new(n, 1.0, move |a, b| {
//!     let t = |i: u32| 2.0 * std::f64::consts::PI * f64::from(i) / n as f64;
//!     let (ax, ay) = (t(a).cos(), t(a).sin());
//!     let (bx, by) = (t(b).cos(), t(b).sin());
//!     (((ax - bx).powi(2) + (ay - by).powi(2)).sqrt() / 2.0).min(1.0)
//! });
//! let oracle = Oracle::new(metric);
//!
//! // Plug the paper's Tri Scheme into Prim's MST algorithm.
//! let mut resolver = BoundResolver::new(&oracle, TriScheme::new(n as usize, 1.0));
//! let mst = prim_mst(&mut resolver);
//!
//! assert_eq!(mst.edges.len(), n as usize - 1);
//! assert!(oracle.calls() < Pair::count(n as usize)); // fewer than all pairs
//! ```
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `prox-core` | [`Metric`](core::Metric), [`Oracle`](core::Oracle), pairs, stats |
//! | [`graph`] | `prox-graph` | partial known-distance graph, Dijkstra, union-find |
//! | [`datasets`] | `prox-datasets` | synthetic metric workloads (road networks, vectors, strings) |
//! | [`bounds`] | `prox-bounds` | Tri Scheme, SPLUB, ADM, LAESA, TLAESA + the resolver framework |
//! | [`lp`] | `prox-lp` | simplex feasibility + the Direct Feasibility Test |
//! | [`index`] | `prox-index` | related-work metric indexes (VP-tree, BK-tree) |
//! | [`algos`] | `prox-algos` | Prim, Kruskal, kNN graph, PAM, CLARANS over any resolver |

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::print_stdout, clippy::print_stderr)]

pub use prox_algos as algos;
pub use prox_bounds as bounds;
pub use prox_core as core;
pub use prox_datasets as datasets;
pub use prox_graph as graph;
pub use prox_index as index;
pub use prox_lp as lp;

// Re-export the underlying crates under their own names too, so doc examples
// can say `prox_core::Pair` without an extra dependency line.
pub use prox_core;

/// One-stop imports for applications.
pub mod prelude {
    pub use prox_algos::{
        average_linkage, average_linkage_cut, clarans, complete_linkage, k_center, knn_graph,
        knn_query, kruskal_mst, kruskal_mst_with, pam, prim_mst, range_members, range_query,
        single_linkage, tsp_2opt, ClaransParams, Clustering, Dendrogram, KCenter, KnnGraph,
        KruskalConfig, Mst, PamParams, Tour,
    };
    pub use prox_bounds::{
        laesa_bootstrap, Adm, AdmUpdate, Bootstrap, BoundResolver, BoundScheme, DistanceResolver,
        Laesa, NoScheme, Splub, Tlaesa, TriScheme, VanillaResolver,
    };
    pub use prox_core::{FnMetric, MatrixMetric, Metric, ObjectId, Oracle, Pair};
    pub use prox_datasets::{ClusteredPlane, Dataset, RandomVectors, RoadNetwork, StringSet};
    pub use prox_lp::DftResolver;
}
