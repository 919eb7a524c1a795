//! `cargo xtask analyze` — the item-graph dumps and the choke-point report.
//!
//! Builds the whole-workspace [`ItemGraph`], then renders:
//!
//! * a **choke-point report** (always printed): where the oracle sinks
//!   live, which `DistanceResolver` methods guard them, what the audited
//!   allowlist covers, and — for every public `crates/algos`/`crates/bounds`
//!   API — whether it reaches the oracle and whether that path is guarded;
//! * optional machine-readable dumps: `--json` (items + edges) and `--dot`
//!   (GraphViz, clustered by crate, sinks/chokes highlighted).

use crate::graph::{ItemGraph, Vis};
use crate::rules::{self, OracleExposure};

/// Everything `cargo xtask analyze` derives from one workspace snapshot.
pub struct Analysis {
    pub graph: ItemGraph,
    pub exposure: OracleExposure,
}

/// Builds the graph and the L9 exposure analysis for a workspace snapshot.
pub fn analyze(files: &[(String, String)]) -> Analysis {
    let graph = ItemGraph::build(files);
    let exposure = rules::oracle_exposure(&graph, rules::L9_ALLOWLIST);
    Analysis { graph, exposure }
}

impl Analysis {
    /// The human-readable choke-point report.
    pub fn choke_report(&self) -> String {
        let g = &self.graph;
        let e = &self.exposure;
        let mut s = String::new();
        s.push_str(&format!(
            "item graph: {} items, {} edges\n\n",
            g.items.len(),
            g.edges.len()
        ));

        s.push_str("oracle sinks (the expensive calls):\n");
        for &v in &e.sinks {
            let it = &g.items[v];
            s.push_str(&format!("  {} ({}:{})\n", it.path(), it.file, it.line));
        }

        s.push_str(&format!(
            "\nchoke points ({} DistanceResolver methods):\n",
            e.chokes.len()
        ));
        for &v in &e.chokes {
            let it = &g.items[v];
            s.push_str(&format!("  {} ({}:{})\n", it.path(), it.file, it.line));
        }

        s.push_str("\naudited allowlist (L9_ALLOWLIST):\n");
        for &v in &e.allowed {
            let it = &g.items[v];
            s.push_str(&format!("  {} ({}:{})\n", it.path(), it.file, it.line));
        }
        for stale in &e.stale_allow {
            s.push_str(&format!("  {stale}  [STALE: matches no item]\n"));
        }

        // Public algos/bounds APIs, classified by how they touch the oracle.
        let sinks: std::collections::BTreeSet<usize> = e.sinks.iter().copied().collect();
        let exposed: std::collections::BTreeSet<usize> =
            e.exposed.iter().map(|(v, _)| *v).collect();
        let mut guarded = 0usize;
        let mut untouched = 0usize;
        let mut leaks: Vec<&str> = Vec::new();
        let mut leak_lines = String::new();
        for it in &g.items {
            if it.is_test || it.vis != Vis::Pub || !matches!(it.krate.as_str(), "algos" | "bounds")
            {
                continue;
            }
            if exposed.contains(&it.id) {
                leaks.push(&it.name);
                let chain = e
                    .exposed
                    .iter()
                    .find(|(v, _)| *v == it.id)
                    .map(|(_, c)| c.as_str())
                    .unwrap_or("");
                leak_lines.push_str(&format!("  EXPOSED {} via {}\n", it.path(), chain));
            } else if g.reaches(it.id, &sinks) {
                guarded += 1;
            } else {
                untouched += 1;
            }
        }
        s.push_str(&format!(
            "\npublic algos/bounds APIs: {} reach the oracle only through a \
             resolver, {} never touch it, {} EXPOSED\n",
            guarded,
            untouched,
            leaks.len()
        ));
        s.push_str(&leak_lines);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_guarded_and_exposed_apis() {
        let files: Vec<(String, String)> = [
            (
                "crates/core/src/oracle.rs",
                "pub struct Oracle;\nimpl Oracle {\n    pub fn call(&self) { self.try_call() }\n    pub fn try_call(&self) {}\n}\n",
            ),
            (
                "crates/bounds/src/resolver.rs",
                "pub trait DistanceResolver {\n    fn less(&mut self, o: &Oracle) { o.try_call() }\n}\n",
            ),
            (
                "crates/algos/src/a.rs",
                "pub fn guarded(r: &mut dyn DistanceResolver, o: &Oracle) { r.less(o); }\npub fn pure() {}\npub fn leaky(o: &Oracle) { o.call(); }\n",
            ),
        ]
        .iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect();
        let a = analyze(&files);
        let report = a.choke_report();
        assert!(report.contains("oracle sinks"));
        assert!(report.contains("core::oracle::Oracle::call"));
        assert!(
            report.contains("1 reach the oracle only through a resolver"),
            "{report}"
        );
        assert!(report.contains("1 never touch it"), "{report}");
        assert!(report.contains("1 EXPOSED"), "{report}");
        assert!(report.contains("EXPOSED algos::a::leaky via algos::a::leaky"));
    }
}
