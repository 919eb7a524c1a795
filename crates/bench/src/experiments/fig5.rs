//! Figure 5: the limitations of LAESA and TLAESA.

use std::time::Instant;

use prox_algos::prim_mst;
use prox_bounds::{laesa_bootstrap, Adm, BoundScheme, Laesa, Tlaesa, TriScheme};
use prox_core::{Oracle, Pair};
use prox_datasets::{ClusteredPlane, Dataset};

use crate::experiments::SEED;
use crate::runner::{log_landmarks, run_plugged, Plug};
use crate::table::{secs, Table};
use crate::Scale;

/// Figure 5a: LAESA/TLAESA answer bound queries fastest, but their bounds
/// are much looser than Tri's (which absorbs new knowledge).
#[expect(
    clippy::disallowed_methods,
    reason = "L9: the figure feeds the schemes exact distances to compare their bounds"
)]
pub fn fig5a(scale: Scale) {
    let n = match scale {
        Scale::Small => 128,
        Scale::Full => 520,
    };
    let metric = ClusteredPlane::default().metric(n, SEED);
    let oracle = Oracle::new(&*metric);
    let k = log_landmarks(n);
    let boot = laesa_bootstrap(&oracle, k, SEED);
    let mut laesa = Laesa::new(1.0, &boot);
    let oracle2 = Oracle::new(&*metric);
    let mut tlaesa = Tlaesa::build(&oracle2, k, 16, SEED);
    let mut tri = TriScheme::new(n, 1.0);
    let mut adm = Adm::new(n, 1.0);
    boot.apply_to(&mut tri);
    boot.apply_to(&mut adm);

    // Extra shared knowledge so Tri/ADM have something to chew on — and
    // TLAESA's construction edges, so ADM's bounds dominate everyone's.
    let mut extra: Vec<(Pair, f64)> = Pair::all(n)
        .step_by(17)
        .map(|p| (p, oracle.call_pair(p)))
        .collect();
    extra.extend(tlaesa.resolved_edges());
    for &(p, d) in &extra {
        tri.record(p, d);
        adm.record(p, d);
        laesa.record(p, d);
        tlaesa.record(p, d);
    }

    let queries: Vec<Pair> = Pair::all(n).step_by(7).collect();
    let mut t = Table::new(
        "fig5a",
        "bound query time vs quality (vs tightest ADM bounds)",
        &["scheme", "query_time_s", "rel_err_LB", "rel_err_UB"],
    );
    let mut adm_bounds = Vec::with_capacity(queries.len());
    for &q in &queries {
        adm_bounds.push(adm.bounds(q));
    }
    let eval = |name: &str, s: &mut dyn BoundScheme, t: &mut Table| {
        let t0 = Instant::now();
        let mut acc = (0.0f64, 0.0f64);
        for (&q, &(al, au)) in queries.iter().zip(&adm_bounds) {
            let (l, u) = s.bounds(q);
            if al > 1e-12 {
                acc.0 += (al - l) / al;
            }
            if au > 1e-12 {
                acc.1 += (u - au) / au;
            }
        }
        let dt = t0.elapsed();
        let m = queries.len() as f64;
        t.row(vec![
            name.to_string(),
            secs(dt),
            format!("{:.4}", acc.0 / m),
            format!("{:.4}", acc.1 / m),
        ]);
    };
    eval("LAESA", &mut laesa, &mut t);
    eval("TLAESA", &mut tlaesa, &mut t);
    eval("Tri", &mut tri, &mut t);
    t.finish();
}

/// Figure 5b: Prim's call count for LAESA/TLAESA as the landmark budget
/// sweeps — there is no stable optimum, while Tri (bootstrapped with the
/// default log n) just works.
pub fn fig5b(scale: Scale) {
    let n = match scale {
        Scale::Small => 192,
        Scale::Full => 512,
    };
    let metric = ClusteredPlane::default().metric(n, SEED);
    let base = log_landmarks(n);
    let mut t = Table::new(
        "fig5b",
        "Prim's total calls vs #landmarks (LAESA/TLAESA); Tri as reference",
        &["landmarks", "LAESA", "TLAESA", "Tri(log n)"],
    );
    let (_, tri) = run_plugged(Plug::TriBoot, &*metric, base, SEED, |r| prim_mst(r));
    for mult in [1usize, 2, 4, 8, 12, 16] {
        let k = (base * mult / 4).max(1);
        let (_, laesa) = run_plugged(Plug::Laesa, &*metric, k, SEED, |r| prim_mst(r));
        let (_, tlaesa) = run_plugged(Plug::Tlaesa, &*metric, k, SEED, |r| prim_mst(r));
        t.row(vec![
            k.to_string(),
            laesa.total_calls().to_string(),
            tlaesa.total_calls().to_string(),
            tri.total_calls().to_string(),
        ]);
    }
    t.finish();
}
