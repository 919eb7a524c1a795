//! Cross-scheme invariants on randomized metric instances.
//!
//! These properties are the backbone of the reproduction:
//!
//! * every scheme's bounds are **sound** (`lb ≤ d ≤ ub`);
//! * SPLUB and ADM produce **identical** (tightest) bounds — the paper's
//!   headline claim in §5.2(2);
//! * Tri Scheme is never tighter than SPLUB (it explores a path subset);
//! * recording collapses a pair's bounds to the exact value.

#![expect(clippy::disallowed_methods, reason = "un-metered ground truth")]

use prox_bounds::{Adm, BoundScheme, Splub, TriScheme};
use prox_core::{FnMetric, Metric, Pair};
use prox_datasets::testgen::{property, PlanarInstance};

#[test]
fn bounds_sound_and_tightness_ordered() {
    property(0x5EED_0001, 64, |rng| {
        let inst = PlanarInstance::draw(rng, 4, 12, 1.0);
        let n = inst.n();
        let metric = inst.metric();

        let mut tri = TriScheme::new(n, 1.0);
        let mut splub = Splub::new(n, 1.0);
        let mut adm = Adm::new(n, 1.0);

        for &(a, b) in &inst.edges {
            let p = Pair::new(a, b);
            let d = metric.distance(a, b);
            tri.record(p, d);
            splub.record(p, d);
            adm.record(p, d);
        }

        for q in Pair::all(n) {
            let d = metric.distance(q.lo(), q.hi());
            let (tl, tu) = tri.bounds(q);
            let (sl, su) = splub.bounds(q);
            let (al, au) = adm.bounds(q);

            // Soundness for every scheme.
            for (name, l, u) in [("tri", tl, tu), ("splub", sl, su), ("adm", al, au)] {
                assert!(l <= d + 1e-9, "{name} {q:?}: lb {l} > d {d}");
                assert!(u >= d - 1e-9, "{name} {q:?}: ub {u} < d {d}");
                assert!(l <= u + 1e-9, "{name} {q:?}: lb {l} > ub {u}");
            }

            // SPLUB == ADM: both compute the tightest path bounds.
            assert!((sl - al).abs() < 1e-9, "{q:?}: splub lb {sl} vs adm {al}");
            assert!((su - au).abs() < 1e-9, "{q:?}: splub ub {su} vs adm {au}");

            // Tri is never tighter than SPLUB.
            assert!(
                tl <= sl + 1e-9,
                "{q:?}: tri lb {tl} tighter than splub {sl}"
            );
            assert!(
                tu >= su - 1e-9,
                "{q:?}: tri ub {tu} tighter than splub {su}"
            );
        }
    });
}

#[test]
fn record_collapses_bounds() {
    property(0x5EED_0002, 64, |rng| {
        let inst = PlanarInstance::draw(rng, 4, 12, 1.0);
        let n = inst.n();
        let metric = inst.metric();
        let mut splub = Splub::new(n, 1.0);
        let mut tri = TriScheme::new(n, 1.0);
        let mut adm = Adm::new(n, 1.0);
        for &(a, b) in &inst.edges {
            let p = Pair::new(a, b);
            let d = metric.distance(a, b);
            for s in [&mut tri as &mut dyn BoundScheme, &mut splub, &mut adm] {
                s.record(p, d);
                let (lb, ub) = s.bounds(p);
                assert!(
                    (lb - d).abs() < 1e-12 && (ub - d).abs() < 1e-12,
                    "{} {p:?} bounds did not collapse: ({lb}, {ub}) vs {d}",
                    s.name()
                );
                assert!(s.known(p).is_some());
            }
        }
    });
}

/// Interleaved update/query fuzz for SPLUB's incremental tree maintenance
/// (DESIGN.md §13): across 1k random schedules, a long-lived SPLUB that
/// repairs its shortest-path trees incrementally must stay **bitwise**
/// identical to a from-scratch SPLUB rebuilt at every step, and both must
/// agree with the ADM baseline to the cross-scheme tolerance (ADM reaches
/// the same tightest bounds through a different float-operation order, so
/// cross-*algorithm* equality is 1e-9, not bitwise — the same pin as
/// `bounds_sound_and_tightness_ordered`).
#[test]
fn interleaved_updates_incremental_equals_scratch_and_adm() {
    property(0x5EED_0013, 1000, |rng| {
        let inst = PlanarInstance::draw(rng, 4, 12, 1.0);
        let n = inst.n();
        let metric = inst.metric();

        let mut live = Splub::new(n, 1.0);
        let mut adm = Adm::new(n, 1.0);
        let mut recorded: Vec<(Pair, f64)> = Vec::new();

        for &(a, b) in &inst.edges {
            let p = Pair::new(a, b);
            let d = metric.distance(a, b);
            live.record(p, d);
            adm.record(p, d);
            recorded.push((p, d));

            for _ in 0..2 {
                let qa = rng.below(n) as u32;
                let qb = rng.below(n) as u32;
                if qa == qb {
                    continue;
                }
                let q = Pair::new(qa, qb);
                let (li, ui) = live.bounds(q);
                let mut scratch = Splub::new(n, 1.0);
                for &(e, w) in &recorded {
                    scratch.record(e, w);
                }
                let (ls, us) = scratch.bounds(q);
                assert_eq!(
                    li.to_bits(),
                    ls.to_bits(),
                    "{q:?}: incremental lb {li} != from-scratch {ls}"
                );
                assert_eq!(
                    ui.to_bits(),
                    us.to_bits(),
                    "{q:?}: incremental ub {ui} != from-scratch {us}"
                );
                let (la, ua) = adm.bounds(q);
                assert!((li - la).abs() < 1e-9, "{q:?}: splub lb {li} vs adm {la}");
                assert!((ui - ua).abs() < 1e-9, "{q:?}: splub ub {ui} vs adm {ua}");
            }
        }
    });
}

/// Retraction interleavings: retract + re-record cycles must leave an
/// incremental SPLUB bitwise identical to a from-scratch rebuild (the
/// repair path is barred across a retraction and the trees rebuilt).
#[test]
fn retract_schedules_keep_incremental_splub_bit_exact() {
    property(0x5EED_0014, 200, |rng| {
        let inst = PlanarInstance::draw(rng, 4, 10, 1.0);
        if inst.edges.is_empty() {
            return;
        }
        let n = inst.n();
        let metric = inst.metric();

        let mut live = Splub::new(n, 1.0);
        for &(a, b) in &inst.edges {
            live.record(Pair::new(a, b), metric.distance(a, b));
        }
        // A few retract / query / re-record rounds.
        for _ in 0..4 {
            let &(a, b) = &inst.edges[rng.below(inst.edges.len())];
            let victim = Pair::new(a, b);
            let had = live.known(victim).is_some();
            assert_eq!(live.retract(victim), had);
            for q in Pair::all(n).step_by(3) {
                let (li, ui) = live.bounds(q);
                let mut scratch = Splub::new(n, 1.0);
                for &(e, w) in live.graph().edges() {
                    scratch.record(e, w);
                }
                let (ls, us) = scratch.bounds(q);
                assert_eq!(li.to_bits(), ls.to_bits(), "{q:?} lb after retract");
                assert_eq!(ui.to_bits(), us.to_bits(), "{q:?} ub after retract");
            }
            live.record(victim, metric.distance(a, b));
        }
    });
}

/// Theorem 4.2 sanity: the expected Tri lookup cost for a uniformly random
/// unknown edge is `O(m/n)`. The merge in `bounds(a, b)` walks
/// `deg(a) + deg(b)` adjacency entries, so the empirical mean of that sum
/// must track `4m/n` (the theorem's bound) within a small constant.
#[test]
fn tri_expected_lookup_cost_tracks_m_over_n() {
    let n = 200;
    // Seeded pseudo-random edge generator.
    let mut state = 0xfeed_f00d_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let mut tri = TriScheme::new(n, 1.0);
    let mut ratios = Vec::new();
    for target_m in [200usize, 800, 3200] {
        while tri.m() < target_m {
            let a = next() % n as u32;
            let b = next() % n as u32;
            if a != b {
                tri.record(Pair::new(a, b), 0.5);
            }
        }
        let m = tri.m() as f64;
        // Mean deg(a) + deg(b) over sampled unknown pairs.
        let mut total = 0usize;
        let mut cnt = 0usize;
        for _ in 0..2000 {
            let a = next() % n as u32;
            let b = next() % n as u32;
            if a == b || tri.known(Pair::new(a, b)).is_some() {
                continue;
            }
            total += tri.graph().degree(a) + tri.graph().degree(b);
            cnt += 1;
        }
        let mean = total as f64 / cnt as f64;
        let bound = 4.0 * m / n as f64;
        assert!(
            mean <= bound * 1.5,
            "m={m}: mean lookup work {mean} exceeds 1.5 × (4m/n) = {}",
            bound * 1.5
        );
        ratios.push(mean / (m / n as f64));
    }
    // The normalized cost stays bounded as m grows (no super-linear blowup).
    let (first, last) = (ratios[0], ratios[ratios.len() - 1]);
    assert!(
        last < first * 2.0,
        "normalized lookup cost should stay O(1): {ratios:?}"
    );
}

/// Deterministic regression: the full closure matters. A chain plus a long
/// edge exercises multi-hop UB propagation and wrap LBs simultaneously.
#[test]
fn chain_with_long_edge_all_schemes_agree() {
    // 6 points on a line at x = 0, .1, .2, .3, .4, 1.0 (scaled by sqrt2 in
    // planar_metric — use raw coordinates instead for exactness).
    let xs: [f64; 6] = [0.0, 0.1, 0.2, 0.3, 0.4, 1.0];
    let n = xs.len();
    let metric = FnMetric::new(n, 1.0, move |a, b| (xs[a as usize] - xs[b as usize]).abs());

    let mut splub = Splub::new(n, 1.0);
    let mut adm = Adm::new(n, 1.0);
    // Resolve the chain and the long edge (0,5).
    let mut edges: Vec<Pair> = (0..n as u32 - 1).map(|i| Pair::new(i, i + 1)).collect();
    edges.push(Pair::new(0, 5));
    for &p in &edges {
        let d = metric.distance(p.lo(), p.hi());
        splub.record(p, d);
        adm.record(p, d);
    }
    for q in Pair::all(n) {
        let d = metric.distance(q.lo(), q.hi());
        let (sl, su) = splub.bounds(q);
        let (al, au) = adm.bounds(q);
        assert!((sl - al).abs() < 1e-12, "{q:?} lb {sl} vs {al}");
        assert!((su - au).abs() < 1e-12, "{q:?} ub {su} vs {au}");
        assert!(sl <= d + 1e-12 && d <= su + 1e-12);
        // On a line with a spanning chain resolved, path bounds are exact.
        assert!((sl - d).abs() < 1e-9, "{q:?}: lb {sl} should equal {d}");
        assert!((su - d).abs() < 1e-9, "{q:?}: ub {su} should equal {d}");
    }
}
