//! Figure 3: quality of bounds and bound-maintenance time.

use std::time::Instant;

use prox_bounds::{laesa_bootstrap, Adm, BoundScheme, Laesa, Splub, Tlaesa, TriScheme};
use prox_core::{Oracle, Pair};
use prox_datasets::{ClusteredPlane, Dataset};

use crate::experiments::SEED;
use crate::runner::log_landmarks;
use crate::table::Table;
use crate::Scale;

/// Deterministic sample of `count` distinct pairs over `n` objects.
fn sample_pairs(n: usize, count: usize, seed: u64) -> Vec<Pair> {
    let mut state = seed ^ 0xFA1A_57A7;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut out = Vec::with_capacity(count);
    let mut seen = std::collections::HashSet::new();
    while out.len() < count.min(Pair::count(n) as usize) {
        let a = (next() % n as u64) as u32;
        let b = (next() % n as u64) as u32;
        if a == b {
            continue;
        }
        let p = Pair::new(a, b);
        if seen.insert(p.key()) {
            out.push(p);
        }
    }
    out
}

/// Shared setup for the bound-quality panels: every scheme absorbs the same
/// landmark bootstrap plus the same random resolved edges, then is queried
/// on the same unknown pairs.
struct QualityBench {
    adm: Adm,
    splub: Splub,
    tri: TriScheme,
    laesa: Laesa,
    tlaesa: Tlaesa,
    queries: Vec<Pair>,
}

#[expect(
    clippy::disallowed_methods,
    reason = "L9: the figure feeds every scheme the same exact distances to compare their bounds"
)]
fn quality_setup(n: usize, extra_edges: usize) -> QualityBench {
    let metric = ClusteredPlane::default().metric(n, SEED);
    let oracle = Oracle::new(&*metric);
    let k = log_landmarks(n);
    let boot = laesa_bootstrap(&oracle, k, SEED);
    let laesa = Laesa::new(1.0, &boot);
    let oracle2 = Oracle::new(&*metric);
    let tlaesa = Tlaesa::build(&oracle2, k, 16, SEED);

    let mut adm = Adm::new(n, 1.0);
    let mut splub = Splub::new(n, 1.0);
    let mut tri = TriScheme::new(n, 1.0);
    let mut laesa = laesa;
    let mut tlaesa = tlaesa;

    // Common knowledge: the bootstrap rows, TLAESA's construction edges
    // (so no scheme knows strictly more than ADM — ADM's bounds must
    // dominate for the relative-error measure to be meaningful), plus
    // `extra_edges` random edges.
    let mut recorded = std::collections::HashSet::new();
    let shared: Vec<(prox_core::Pair, f64)> = boot.edges().chain(tlaesa.resolved_edges()).collect();
    for (p, d) in shared {
        if !recorded.insert(p.key()) {
            continue;
        }
        for s in [
            &mut adm as &mut dyn BoundScheme,
            &mut splub,
            &mut tri,
            &mut laesa,
            &mut tlaesa,
        ] {
            s.record(p, d);
        }
    }
    for p in sample_pairs(n, extra_edges, SEED ^ 1) {
        if !recorded.insert(p.key()) {
            continue;
        }
        let d = oracle.call_pair(p);
        for s in [
            &mut adm as &mut dyn BoundScheme,
            &mut splub,
            &mut tri,
            &mut laesa,
            &mut tlaesa,
        ] {
            s.record(p, d);
        }
    }
    let queries = sample_pairs(n, 400, SEED ^ 2)
        .into_iter()
        .filter(|p| !recorded.contains(&p.key()))
        .collect();
    QualityBench {
        adm,
        splub,
        tri,
        laesa,
        tlaesa,
        queries,
    }
}

/// Figure 3a: mean relative error of each scheme's bounds against ADM's
/// (which are tightest). SPLUB must read 0; Tri should sit well under
/// LAESA/TLAESA, especially on the upper bound.
pub fn fig3a(scale: Scale) {
    let n = match scale {
        Scale::Small => 128,
        Scale::Full => 520,
    };
    let mut b = quality_setup(n, n * 4);
    let mut t = Table::new(
        "fig3a",
        "mean relative bound error vs ADM (0 = tightest possible)",
        &["scheme", "rel_err_LB", "rel_err_UB"],
    );
    let mut acc = vec![(0.0f64, 0.0f64); 4]; // splub, tri, laesa, tlaesa
    let mut cnt = 0u32;
    for &q in &b.queries {
        let (al, au) = b.adm.bounds(q);
        let others = [
            b.splub.bounds(q),
            b.tri.bounds(q),
            b.laesa.bounds(q),
            b.tlaesa.bounds(q),
        ];
        cnt += 1;
        for (slot, (l, u)) in others.into_iter().enumerate() {
            // LB error: how far below the tightest LB; UB error: how far
            // above the tightest UB (both normalized by the ADM value).
            let le = if al > 1e-12 { (al - l) / al } else { 0.0 };
            let ue = if au > 1e-12 { (u - au) / au } else { 0.0 };
            acc[slot].0 += le;
            acc[slot].1 += ue;
        }
    }
    for (name, (le, ue)) in ["SPLUB", "Tri", "LAESA", "TLAESA"].iter().zip(acc) {
        t.row(vec![
            name.to_string(),
            format!("{:.4}", le / f64::from(cnt.max(1))),
            format!("{:.4}", ue / f64::from(cnt.max(1))),
        ]);
    }
    t.finish();
}

/// Figure 3b: Tri's LB–UB gap collapses as the known-edge set grows.
#[expect(
    clippy::disallowed_methods,
    reason = "L9: the figure feeds Tri exact distances to measure its gap"
)]
pub fn fig3b(scale: Scale) {
    let n = match scale {
        Scale::Small => 128,
        Scale::Full => 520,
    };
    let mut t = Table::new(
        "fig3b",
        "Tri Scheme mean (UB - LB) gap vs #known edges",
        &["known_edges", "mean_gap", "mean_LB", "mean_UB"],
    );
    // Tri only — no need for the full five-scheme setup here.
    let metric = ClusteredPlane::default().metric(n, SEED);
    let oracle = Oracle::new(&*metric);
    let k = log_landmarks(n);
    let boot = laesa_bootstrap(&oracle, k, SEED);
    for mult in [1usize, 2, 4, 8, 16, 32] {
        let extra = n * mult / 2;
        let mut tri = TriScheme::new(n, 1.0);
        boot.apply_to(&mut tri);
        for p in sample_pairs(n, extra, SEED ^ 1) {
            if tri.known(p).is_none() {
                tri.record(p, oracle.call_pair(p));
            }
        }
        let queries: Vec<Pair> = sample_pairs(n, 400, SEED ^ 2)
            .into_iter()
            .filter(|&p| tri.known(p).is_none())
            .collect();
        let (mut gap, mut lbs, mut ubs) = (0.0, 0.0, 0.0);
        let mut cnt = 0u32;
        for &q in &queries {
            let (l, u) = tri.bounds(q);
            gap += u - l;
            lbs += l;
            ubs += u;
            cnt += 1;
        }
        t.row(vec![
            tri.m().to_string(),
            format!("{:.4}", gap / f64::from(cnt.max(1))),
            format!("{:.4}", lbs / f64::from(cnt.max(1))),
            format!("{:.4}", ubs / f64::from(cnt.max(1))),
        ]);
    }
    t.finish();
}

/// Figure 3c: wall time to absorb the knowledge and answer the queries —
/// ADM's dense updates vs SPLUB's per-query Dijkstras vs Tri's merges.
#[expect(
    clippy::disallowed_methods,
    reason = "L9: the figure feeds the schemes exact distances to time their updates"
)]
pub fn fig3c(scale: Scale) {
    let sizes: &[usize] = match scale {
        Scale::Small => &[64, 128, 256],
        Scale::Full => &[64, 128, 256, 520, 1024],
    };
    let mut t = Table::new(
        "fig3c",
        "record+query wall time (s): ADM vs SPLUB vs Tri",
        &[
            "n",
            "edges_recorded",
            "queries",
            "ADM_ms",
            "SPLUB_ms",
            "Tri_ms",
        ],
    );
    for &n in sizes {
        let metric = ClusteredPlane::default().metric(n, SEED);
        let oracle = Oracle::new(&*metric);
        let edges: Vec<(Pair, f64)> = sample_pairs(n, n * 4, SEED ^ 3)
            .into_iter()
            .map(|p| (p, oracle.call_pair(p)))
            .collect();
        let queries = sample_pairs(n, 2000, SEED ^ 4);

        let time_scheme = |scheme: &mut dyn BoundScheme| {
            let t0 = Instant::now();
            for &(p, d) in &edges {
                scheme.record(p, d);
            }
            for &q in &queries {
                let _ = scheme.bounds(q);
            }
            t0.elapsed()
        };
        let adm_t = time_scheme(&mut Adm::new(n, 1.0));
        let splub_t = time_scheme(&mut Splub::new(n, 1.0));
        let tri_t = time_scheme(&mut TriScheme::new(n, 1.0));
        t.row(vec![
            n.to_string(),
            edges.len().to_string(),
            queries.len().to_string(),
            format!("{:.3}", adm_t.as_secs_f64() * 1e3),
            format!("{:.3}", splub_t.as_secs_f64() * 1e3),
            format!("{:.3}", tri_t.as_secs_f64() * 1e3),
        ]);
    }
    t.finish();
}
