//! Quickstart: save expensive edit-distance calls while clustering strings.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Scenario: 300 DNA-like sequences; comparing two of them is an O(len²)
//! dynamic program (the "expensive oracle"). We build their exact minimum
//! spanning tree twice — once vanilla, once with the paper's Tri Scheme —
//! and show that the outputs are identical while the oracle bill collapses.

use prox::prelude::*;

#[expect(clippy::disallowed_methods, reason = "the demo shows wall-clock time")]
fn main() {
    let n = 300;
    let metric = StringSet::default().generate(n, 42);

    // ---- vanilla: every comparison pays the oracle -------------------
    let vanilla_oracle = Oracle::new(metric.clone());
    let mut vanilla = BoundResolver::vanilla(&vanilla_oracle);
    let t0 = std::time::Instant::now();
    let mst_vanilla = prim_mst(&mut vanilla);
    let vanilla_time = t0.elapsed();

    // ---- plugged: Tri Scheme decides comparisons from triangles ------
    let plugged_oracle = Oracle::new(metric);
    let mut plugged = BoundResolver::new(&plugged_oracle, TriScheme::new(n, 1.0));
    let t1 = std::time::Instant::now();
    let mst_plugged = prim_mst(&mut plugged);
    let plugged_time = t1.elapsed();

    assert_eq!(
        mst_vanilla.edge_keys(),
        mst_plugged.edge_keys(),
        "the framework never changes the output"
    );

    let v = vanilla_oracle.calls();
    let p = plugged_oracle.calls();
    println!(
        "exact MST over {n} strings (total weight {:.4})",
        mst_vanilla.total_weight
    );
    println!("  vanilla     : {v:>8} oracle calls   ({vanilla_time:.2?})");
    println!("  + Tri Scheme: {p:>8} oracle calls   ({plugged_time:.2?})");
    println!(
        "  saved {:.1}% of the distance computations, identical tree",
        100.0 * (v - p) as f64 / v as f64
    );

    let stats = plugged.prune_stats();
    println!(
        "  comparisons decided by bounds: {} / {} ({:.1}%)",
        stats.decided_by_bounds,
        stats.comparisons(),
        100.0 * stats.decision_rate()
    );
}
