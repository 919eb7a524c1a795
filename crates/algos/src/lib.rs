//! Proximity algorithms written against the resolver framework.
//!
//! Each algorithm here is the *vanilla* classical algorithm with its
//! distance comparisons re-authored per the paper's practitioner's guide
//! (§2.1, §3): every `if dist(a,b) < threshold` goes through
//! [`DistanceResolver::distance_if_less`], every two-sided comparison
//! through [`DistanceResolver::less`]. Run them with a
//! [`prox_bounds::VanillaResolver`] and you get the textbook algorithm and
//! its full oracle bill; run them with a Tri/SPLUB/LAESA/TLAESA/DFT resolver
//! and you get **the same output** for fewer oracle calls — the equivalence
//! the `exactness` integration tests pin down.
//!
//! | Problem | Function | Vanilla oracle calls |
//! |---|---|---|
//! | Minimum spanning tree | [`prim_mst`], [`kruskal_mst`] | `C(n,2)` |
//! | k-nearest-neighbour graph | [`knn_graph`] (KNNrp-style sweep) | `C(n,2)` |
//! | single kNN query | [`knn_query`] | `n − 1` |
//! | l-medoid clustering | [`pam()`](pam()) (BUILD-lite + SWAP), [`clarans()`](clarans()) | workload-dependent |

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::print_stdout, clippy::print_stderr)]

pub mod average_linkage;
pub mod clarans;
pub mod common;
pub mod complete_linkage;
pub mod degrade;
pub mod kcenter;
pub mod knng;
pub mod kruskal;
pub mod linkage;
mod medoid;
pub mod pam;
pub mod prim;
pub mod range;
pub mod tsp;

pub use average_linkage::{
    average_linkage, average_linkage_cut, try_average_linkage, try_average_linkage_cut,
};
pub use clarans::{clarans, try_clarans, ClaransParams};
pub use common::{Clustering, Mst, TinyRng};
pub use complete_linkage::{complete_linkage, try_complete_linkage};
pub use degrade::run_degraded;
pub use kcenter::{k_center, try_k_center, KCenter};
pub use knng::{knn_graph, knn_query, try_knn_graph, try_knn_query, KnnGraph};
pub use kruskal::{
    kruskal_mst, kruskal_mst_with, try_kruskal_mst, try_kruskal_mst_with, KruskalConfig,
};
pub use linkage::{single_linkage, try_single_linkage, Dendrogram, Merge};
pub use pam::{pam, try_pam, PamParams};
pub use prim::{prim_mst, try_prim_mst};
pub use range::{range_members, range_query, try_range_members, try_range_query};
pub use tsp::{try_tsp_2opt, tsp_2opt, Tour};

// Re-export the resolver machinery so downstream users need one import.
pub use prox_bounds::{BoundResolver, DistanceResolver, VanillaResolver};
