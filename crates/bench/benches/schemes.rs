//! Per-operation cost of the bound schemes (the micro view of Fig. 3c/5a).

use std::hint::black_box;

use prox_algos::prim_mst;
use prox_bench::microbench::Bench;
use prox_bounds::bootstrap::default_landmarks;
use prox_bounds::{
    laesa_bootstrap, Adm, BoundResolver, BoundScheme, DistanceResolver, Laesa, Splub, Tlaesa,
    TriScheme,
};
use prox_core::{CallBudget, FaultInjector, ObjectId, Oracle, Pair, RetryPolicy, TinyRng};
use prox_datasets::{ClusteredPlane, Dataset, RoadNetwork};
use prox_graph::{Dijkstra, PartialGraph};

const SEED: u64 = 20210620;

/// Pre-resolves 4·n random-ish edges into a scheme.
#[expect(
    clippy::disallowed_methods,
    reason = "L9: the bench feeds schemes exact distances; it measures bounds, not a plugged algorithm"
)]
fn feed(scheme: &mut dyn BoundScheme, metric: &(dyn prox_core::Metric + Send + Sync), n: usize) {
    let oracle = Oracle::new(metric);
    for p in Pair::all(n).step_by((n / 8).max(1)) {
        scheme.record(p, oracle.call_pair(p));
    }
}

fn bench_queries(b: &mut Bench) {
    for n in [128usize, 256] {
        let metric = ClusteredPlane::default().metric(n, SEED);
        let queries: Vec<Pair> = Pair::all(n).step_by(13).take(256).collect();

        // `Pair::all` order puts the queries in runs of ~n/13 that share
        // their low endpoint, so after the first query of a run Tri answers
        // from its anchor row (see `tri_access` for the three patterns).
        let mut tri = TriScheme::new(n, 1.0);
        feed(&mut tri, &*metric, n);
        b.bench("bound_query", &format!("tri/{n}"), || {
            for &q in &queries {
                black_box(tri.bounds(q));
            }
        });

        let mut splub = Splub::new(n, 1.0);
        feed(&mut splub, &*metric, n);
        b.bench("bound_query", &format!("splub/{n}"), || {
            for &q in &queries {
                black_box(splub.bounds(q));
            }
        });

        let mut adm = Adm::new(n, 1.0);
        feed(&mut adm, &*metric, n);
        b.bench("bound_query", &format!("adm_query/{n}"), || {
            for &q in &queries {
                black_box(adm.bounds(q));
            }
        });

        let oracle = Oracle::new(&*metric);
        let boot = laesa_bootstrap(&oracle, 8, SEED);
        let mut laesa = Laesa::new(1.0, &boot);
        b.bench("bound_query", &format!("laesa/{n}"), || {
            for &q in &queries {
                black_box(laesa.bounds(q));
            }
        });

        let oracle2 = Oracle::new(&*metric);
        let mut tlaesa = Tlaesa::build(&oracle2, 8, 16, SEED);
        b.bench("bound_query", &format!("tlaesa/{n}"), || {
            for &q in &queries {
                black_box(tlaesa.bounds(q));
            }
        });
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "L9: the bench feeds schemes exact distances; it measures bounds, not a plugged algorithm"
)]
fn bench_updates(b: &mut Bench) {
    b.with_sample_size(10, |b| {
        for n in [128usize, 256] {
            let metric = ClusteredPlane::default().metric(n, SEED);
            let oracle = Oracle::new(&*metric);
            let edges: Vec<(Pair, f64)> = Pair::all(n)
                .step_by(7)
                .take(200)
                .map(|p| (p, oracle.call_pair(p)))
                .collect();

            b.bench("bound_update", &format!("tri/{n}"), || {
                let mut s = TriScheme::new(n, 1.0);
                for &(p, d) in &edges {
                    s.record(p, d);
                }
                black_box(s.m());
            });
            b.bench("bound_update", &format!("splub/{n}"), || {
                let mut s = Splub::new(n, 1.0);
                for &(p, d) in &edges {
                    s.record(p, d);
                }
                black_box(s.m());
            });
            b.bench("bound_update", &format!("adm/{n}"), || {
                let mut s = Adm::new(n, 1.0);
                for &(p, d) in &edges {
                    s.record(p, d);
                }
                black_box(s.m());
            });
        }
    });
}

/// Tri's query cost by access pattern, in ns per query, at n = 256 with
/// every 7th pair known (degree ≈ 36).
///
/// * `row` — Prim's relaxation: for each of 32 anchors `u`, query `(u, v)`
///   over every `v`, recording the queried pair every 8th query, so the
///   anchor row is patched in place. Each pass runs on a fresh clone of the
///   fed scheme (the clone is inside the timing, ≈1 % of a pass).
/// * `alternate` — Prim's relaxation with its memo misses: for each of the
///   32 anchors `u`, query `(u, v)` and then the off-anchor `(p_v, v)` over
///   every `v`, recording both pairs of every 8th `v` (an undecided
///   comparison resolves both). The row's first two `v` skip `(p_v, v)`
///   (memo hits), so two queries on `u` in a row anchor it there. Each
///   later off-anchor query is a lone miss and takes the merge, so the row
///   stays at `u`. Fresh clone per pass, as in `row`.
/// * `chain` — `(a, b), (b, c), …`: every query misses the anchor, so
///   queries alternate between re-anchoring (the previous query missed too
///   and shares an endpoint) and the merge (the previous one did not miss).
/// * `random` — no query shares an endpoint with the one before it, so
///   every query is the sorted-list merge.
///
/// The bench-gate holds `chain` within 1.25× of `random`: with half the
/// queries a re-anchor plus row pass and half a merge, that bounds a
/// re-anchor plus row pass at 1.5 merges. No gate reads `row` or
/// `alternate`.
#[expect(
    clippy::disallowed_methods,
    reason = "L9: the bench feeds schemes exact distances; it measures bounds, not a plugged algorithm"
)]
fn bench_tri_access(b: &mut Bench) {
    let n = 256usize;
    let metric = ClusteredPlane::default().metric(n, SEED);
    let oracle = Oracle::new(&*metric);
    let mut fed = TriScheme::new(n, 1.0);
    for p in Pair::all(n).step_by(7) {
        fed.record(p, oracle.call_pair(p));
    }

    let rows: Vec<(Pair, Option<f64>)> = (0..n as ObjectId)
        .step_by(n / 32)
        .flat_map(|u| {
            (0..n as ObjectId)
                .filter(move |&v| v != u)
                .map(move |v| Pair::new(u, v))
        })
        .enumerate()
        .map(|(i, p)| (p, (i % 8 == 7).then(|| oracle.call_pair(p))))
        .collect();
    b.bench_per_op("bound_query", "tri_access/row", rows.len() as u64, || {
        let mut s = fed.clone();
        for &(p, d) in &rows {
            black_box(s.bounds(p));
            if let Some(d) = d {
                s.record(p, d);
            }
        }
    });

    let alternate: Vec<(Pair, Option<f64>)> = (0..n as ObjectId)
        .step_by(n / 32)
        .flat_map(|u| {
            (0..n as ObjectId)
                .filter(move |&v| v != u)
                .enumerate()
                .flat_map(move |(j, v)| {
                    let mut parent = (v as usize * 101 + 17) % n;
                    while parent == u as usize || parent == v as usize {
                        parent = (parent + 1) % n;
                    }
                    let miss = (j >= 2).then(|| Pair::new(parent as ObjectId, v));
                    std::iter::once(Pair::new(u, v))
                        .chain(miss)
                        .map(move |p| (j, p))
                })
        })
        .map(|(j, p)| (p, (j % 8 == 7).then(|| oracle.call_pair(p))))
        .collect();
    b.bench_per_op(
        "bound_query",
        "tri_access/alternate",
        alternate.len() as u64,
        || {
            let mut s = fed.clone();
            for &(p, d) in &alternate {
                black_box(s.bounds(p));
                if let Some(d) = d {
                    s.record(p, d);
                }
            }
        },
    );

    // 101 is coprime to 256, so the walk visits every object before
    // repeating and consecutive queries share exactly one endpoint.
    let walk: Vec<ObjectId> = (0..=1024).map(|i| (i * 101 % n) as ObjectId).collect();
    let chain: Vec<Pair> = walk.windows(2).map(|w| Pair::new(w[0], w[1])).collect();

    // Repeated passes wrap around, so the last query must not share an
    // endpoint with the first either.
    let mut rng = TinyRng::new(SEED);
    let mut random: Vec<Pair> = Vec::with_capacity(1024);
    while random.len() < 1024 {
        let (a, b) = (rng.below(n) as ObjectId, rng.below(n) as ObjectId);
        let shares = |q: &Pair| [q.lo(), q.hi()].iter().any(|&x| x == a || x == b);
        let wrap = if random.len() == 1023 {
            random.first()
        } else {
            None
        };
        if a != b && !random.last().is_some_and(shares) && !wrap.is_some_and(shares) {
            random.push(Pair::new(a, b));
        }
    }
    for (id, queries) in [("tri_access/chain", &chain), ("tri_access/random", &random)] {
        let mut s = fed.clone();
        b.bench_per_op("bound_query", id, queries.len() as u64, || {
            for &p in queries {
                black_box(s.bounds(p));
            }
        });
    }
}

/// SPLUB's exact tier cold, in ns per query, at n = 200 with every 16th
/// pair known (≈1,240 edges, the kNN workload's average graph): for each
/// of 8 anchors `u`, query `(u, v)` over every `v`, recording the queried
/// pair every 8th query. Each record moves the graph's generation, so no
/// query is a memo hit: the anchor's tree is repaired, the other
/// endpoint's tree is rebuilt, and the wrap pass runs. Each pass feeds a
/// fresh scheme (inside the timing, under 1 % of a pass).
#[expect(
    clippy::disallowed_methods,
    reason = "L9: the bench feeds schemes exact distances; it measures bounds, not a plugged algorithm"
)]
fn bench_splub_cold(b: &mut Bench) {
    let n = 200usize;
    let metric = ClusteredPlane::default().metric(n, SEED);
    let oracle = Oracle::new(&*metric);
    let fed: Vec<(Pair, f64)> = Pair::all(n)
        .step_by(16)
        .map(|p| (p, oracle.call_pair(p)))
        .collect();
    let rows: Vec<(Pair, Option<f64>)> = (0..n as ObjectId)
        .step_by(n / 8)
        .flat_map(|u| {
            (0..n as ObjectId)
                .filter(move |&v| v != u)
                .map(move |v| Pair::new(u, v))
        })
        .enumerate()
        .map(|(i, p)| (p, (i % 8 == 7).then(|| oracle.call_pair(p))))
        .collect();
    b.with_sample_size(10, |b| {
        b.bench_per_op("bound_query", "splub_cold/200", rows.len() as u64, || {
            let mut s = Splub::new(n, 1.0);
            for &(p, d) in &fed {
                s.record(p, d);
            }
            for &(p, d) in &rows {
                black_box(s.bounds(p));
                if let Some(d) = d {
                    s.record(p, d);
                }
            }
        });
    });
}

/// The resolver's bound memo under Prim's access pattern, in ns per bound
/// probe (two per comparison): a whole `prim_mst`, whose extract-min
/// tournaments and relaxation rows of `less` interleave with the
/// `resolve` that records each tree edge, through `BoundResolver` over
/// Tri + ⌈log2 n⌉ LAESA landmarks on `sf`. Each pass runs on a fresh
/// clone of the bootstrapped scheme and a fresh resolver, whose memo it
/// allocates.
///
/// * `dense` — n = 300: C(n, 2) ≤ 2^16, so every pair owns its memo slot.
/// * `wrapped` — n = 1500: 1.1M pairs share the 2^16 slots.
fn bench_resolver_memo(b: &mut Bench) {
    b.with_sample_size(10, |b| {
        for (id, n) in [
            ("resolver_memo/dense", 300),
            ("resolver_memo/wrapped", 1500),
        ] {
            let metric = ClusteredPlane::default().metric(n, SEED);
            let oracle = Oracle::new(&*metric);
            let boot = laesa_bootstrap(&oracle, default_landmarks(n), SEED);
            let mut fed = TriScheme::new(n, 1.0);
            boot.apply_to(&mut fed);
            let run = || {
                let mut r = BoundResolver::new(&oracle, fed.clone());
                black_box(prim_mst(&mut r));
                2 * r.prune_stats().comparisons()
            };
            let probes = run();
            b.bench_per_op("bound_query", id, probes, || {
                black_box(run());
            });
        }
    });
}

/// The UrbanGB stand-in's ground truth at prox-perf's `prim-road-tri` size:
/// `RoadNetwork::generate(1500, SEED)` builds the road graph, runs one
/// exact bucket sweep per POI and normalises the matrix. Reported in ns
/// per source sweep.
fn bench_dataset_build(b: &mut Bench) {
    let n = 1500;
    b.bench_per_op("dataset_build", "urbangb/1500", n as u64, || {
        black_box(RoadNetwork::default().generate(n, SEED));
    });
}

/// DESIGN.md ablation: the sorted-`Vec` adjacency inside Tri. (The losing
/// `BTreeMap` variant was removed once BENCH_schemes.json showed
/// `sorted_vec` strictly winning; this cell remains as the reference
/// point.)
#[expect(
    clippy::disallowed_methods,
    reason = "L9: the bench feeds schemes exact distances; it measures bounds, not a plugged algorithm"
)]
fn bench_tri_adjacency(b: &mut Bench) {
    let n = 512;
    let metric = ClusteredPlane::default().metric(n, SEED);
    let oracle = Oracle::new(&*metric);
    let edges: Vec<(Pair, f64)> = Pair::all(n)
        .step_by(23)
        .map(|p| (p, oracle.call_pair(p)))
        .collect();
    let queries: Vec<Pair> = Pair::all(n).step_by(101).collect();

    b.bench("tri_adjacency", "sorted_vec", || {
        let mut s = TriScheme::new(n, 1.0);
        for &(p, d) in &edges {
            s.record(p, d);
        }
        let mut acc = 0.0;
        for &q in &queries {
            acc += s.bounds(q).0;
        }
        black_box(acc);
    });
}

/// DESIGN.md §13 ablation: cost of resetting Dijkstra scratch between runs.
/// The scenario that motivated epoch stamping: a large object universe
/// (`n = 4096`) whose *known* subgraph is a tiny component, so the search
/// itself touches a handful of labels. `epoch` is the shipped scratch
/// (O(touched) per run); `fill` adds the O(n) `dist.fill(INFINITY)` sweep
/// the pre-epoch implementation paid before every run — the delta between
/// the cells is the retired reset cost.
#[expect(
    clippy::disallowed_methods,
    reason = "L13: measures the full sweep itself, outside any query path"
)]
fn bench_dijkstra_reset(b: &mut Bench) {
    let n = 4096usize;
    let mut g = PartialGraph::new(n);
    // A 32-node chain: the only known component.
    for v in 0..31u32 {
        g.insert(Pair::new(v, v + 1), 0.01);
    }

    let mut dij = Dijkstra::new(n);
    b.bench("dijkstra_reset", "epoch", || {
        let d = dij.run(&g, 0);
        black_box(d.get(31));
    });

    let mut dij_fill = Dijkstra::new(n);
    let mut old_style_dist = vec![f64::INFINITY; n];
    b.bench("dijkstra_reset", "fill", || {
        old_style_dist.fill(f64::INFINITY);
        black_box(old_style_dist[0]);
        let d = dij_fill.run(&g, 0);
        black_box(d.get(31));
    });
}

/// DESIGN.md §9 ablation: cost of the fault-tolerance layer on the oracle
/// hot path. `clean` is the plain oracle; `machinery_disabled` carries a
/// retry policy but no injector/budget, so it must take the same fast path
/// (the two entries should be indistinguishable); `injector_rate0` and
/// `budgeted` opt into the slow path and price the per-call schedule hash
/// and budget check.
#[expect(
    clippy::disallowed_methods,
    reason = "L9: the bench times the oracle's own layers"
)]
fn bench_oracle_fault_layer(b: &mut Bench) {
    let n = 256;
    let metric = ClusteredPlane::default().metric(n, SEED);
    let queries: Vec<Pair> = Pair::all(n).step_by(13).take(1024).collect();

    let clean = Oracle::new(&*metric);
    b.bench("oracle_fault_layer", "clean", || {
        for &q in &queries {
            black_box(clean.call_pair(q));
        }
    });

    let disabled = Oracle::new(&*metric).with_retry(RetryPolicy::standard(3));
    b.bench("oracle_fault_layer", "machinery_disabled", || {
        for &q in &queries {
            black_box(disabled.call_pair(q));
        }
    });

    let rate0 = Oracle::new(&*metric)
        .with_faults(FaultInjector::new(0.0, SEED))
        .with_retry(RetryPolicy::standard(3));
    b.bench("oracle_fault_layer", "injector_rate0", || {
        for &q in &queries {
            black_box(rate0.call_pair(q));
        }
    });

    let budgeted = Oracle::new(&*metric).with_budget(CallBudget::calls(u64::MAX));
    b.bench("oracle_fault_layer", "budgeted", || {
        for &q in &queries {
            black_box(budgeted.call_pair(q));
        }
    });
}

/// DESIGN.md §10 ablation: cost of the observation layer on the oracle hot
/// path. `disabled` is an oracle with no sink or registry attached — it
/// must be indistinguishable from `oracle_fault_layer/clean` (the zero-cost
/// disabled path); `null_sink`, `ring_sink`, and `metrics` price the
/// per-call emission into each observer.
#[expect(
    clippy::disallowed_methods,
    reason = "L9: the bench times the oracle's own layers"
)]
fn bench_oracle_trace_layer(b: &mut Bench) {
    use std::rc::Rc;

    let n = 256;
    let metric = ClusteredPlane::default().metric(n, SEED);
    let queries: Vec<Pair> = Pair::all(n).step_by(13).take(1024).collect();

    let disabled = Oracle::new(&*metric);
    b.bench("oracle_trace_layer", "disabled", || {
        for &q in &queries {
            black_box(disabled.call_pair(q));
        }
    });

    let nulled = Oracle::new(&*metric)
        .with_trace(Rc::new(prox_obs::NullSink::new()) as Rc<dyn prox_obs::TraceSink>);
    b.bench("oracle_trace_layer", "null_sink", || {
        for &q in &queries {
            black_box(nulled.call_pair(q));
        }
    });

    let ringed = Oracle::new(&*metric)
        .with_trace(Rc::new(prox_obs::RingSink::new(4096)) as Rc<dyn prox_obs::TraceSink>);
    b.bench("oracle_trace_layer", "ring_sink", || {
        for &q in &queries {
            black_box(ringed.call_pair(q));
        }
    });

    let metered = Oracle::new(&*metric).with_metrics(Rc::new(prox_obs::Metrics::new()));
    b.bench("oracle_trace_layer", "metrics", || {
        for &q in &queries {
            black_box(metered.call_pair(q));
        }
    });
}

/// DESIGN.md §11 ablation: cost of the untrusted-oracle trust layer.
/// `disabled` is a plain oracle with no injector or auditor — it must be
/// indistinguishable from `oracle_trace_layer/clean` (same zero-cost
/// detached-path discipline as §9/§10); `corrupt_rate0` prices the
/// per-call corruption schedule hash alone; `audited_vote1` adds the
/// detection-mode sandwich check on every resolution, and
/// `audited_vote3` pays full first-to-3 voting.
#[expect(
    clippy::disallowed_methods,
    reason = "L9: the bench times the oracle's own layers"
)]
fn bench_oracle_trust_layer(b: &mut Bench) {
    use prox_bounds::{AuditPolicy, BoundResolver, DistanceResolver};
    use prox_core::CorruptionInjector;

    let n = 256;
    let metric = ClusteredPlane::default().metric(n, SEED);
    let queries: Vec<Pair> = Pair::all(n).step_by(13).take(1024).collect();

    let clean = Oracle::new(&*metric);
    b.bench("oracle_trust_layer", "disabled", || {
        for &q in &queries {
            black_box(clean.call_pair(q));
        }
    });

    let rate0 = Oracle::new(&*metric).with_corruption(CorruptionInjector::new(0.0, SEED));
    b.bench("oracle_trust_layer", "corrupt_rate0", || {
        for &q in &queries {
            black_box(rate0.call_pair(q));
        }
    });

    // Audited cells build a fresh resolver per iteration: the resolver
    // memoizes resolutions, so a reused one would price cache hits, not
    // the audit. The un-audited `vanilla_baseline` cell prices that same
    // construction + resolve loop without an auditor, so the audit cost
    // is the delta against it.
    let oracle = Oracle::new(&*metric);
    b.bench("oracle_trust_layer", "vanilla_baseline", || {
        let mut r = BoundResolver::vanilla(&oracle);
        for &q in &queries {
            black_box(r.resolve(q));
        }
    });
    b.bench("oracle_trust_layer", "audited_vote1", || {
        let mut r = BoundResolver::vanilla(&oracle).with_audit(AuditPolicy::detect_only());
        for &q in &queries {
            black_box(r.resolve(q));
        }
    });
    b.bench("oracle_trust_layer", "audited_vote3", || {
        let mut r = BoundResolver::vanilla(&oracle).with_audit(AuditPolicy::vote(3, 3));
        for &q in &queries {
            black_box(r.resolve(q));
        }
    });
}

fn bench_oracle_weak_layer(b: &mut Bench) {
    use prox_bounds::{BoundResolver, CascadeResolver, DistanceResolver};
    use prox_core::WeakOracle;

    let n = 256;
    let metric = ClusteredPlane::default().metric(n, SEED);
    let queries: Vec<Pair> = Pair::all(n).step_by(13).take(1024).collect();

    // Cascade-disabled path: a bare resolver with no weak tier. The
    // bench-gate holds the wrapped `disabled` cell within 2x of this —
    // `--weak` off must stay free. Fresh resolver per iteration, as in
    // the trust-layer cells: a reused one would price cache hits.
    let oracle = Oracle::new(&*metric);
    b.bench("oracle_weak_layer", "clean", || {
        let mut r = BoundResolver::vanilla(&oracle);
        for &q in &queries {
            black_box(r.resolve(q));
        }
    });
    b.bench("oracle_weak_layer", "disabled", || {
        let mut r = BoundResolver::vanilla(&oracle);
        for &q in &queries {
            black_box(r.resolve(q));
        }
    });

    // Cascade-enabled cells: weak-tier cost per resolution. At rate 0
    // every fresh pair quorums on the first two probes; at 0.05 a few
    // pairs pay extra attempts or escalate to the strong tier.
    b.bench("oracle_weak_layer", "cascade_rate0", || {
        let mut r = CascadeResolver::new(
            BoundResolver::vanilla(&oracle),
            WeakOracle::new(&*metric, 0.0, SEED),
        );
        for &q in &queries {
            black_box(r.resolve(q));
        }
    });
    b.bench("oracle_weak_layer", "cascade_rate05", || {
        let mut r = CascadeResolver::new(
            BoundResolver::vanilla(&oracle),
            WeakOracle::new(&*metric, 0.05, SEED),
        );
        for &q in &queries {
            black_box(r.resolve(q));
        }
    });
}

fn bench_oracle_span_layer(b: &mut Bench) {
    use prox_bounds::{BoundResolver, DistanceResolver};
    use prox_obs::{NullSink, SpanGuard, SpanName, TraceSink};
    use std::rc::Rc;

    let n = 256;
    let metric = ClusteredPlane::default().metric(n, SEED);
    let queries: Vec<Pair> = Pair::all(n).step_by(13).take(1024).collect();

    // Span-free baseline: the resolve loop with no observability at all.
    // Fresh resolver per iteration, as in the trust-layer cells: a reused
    // one would price cache hits.
    let oracle = Oracle::new(&*metric);
    b.bench("oracle_span_layer", "clean", || {
        let mut r = BoundResolver::vanilla(&oracle);
        for &q in &queries {
            black_box(r.resolve(q));
        }
    });

    // Detached path: spans in the code, no sink attached. Every
    // `SpanGuard::enter` is one `Option` discriminant test; the bench-gate
    // holds this cell within 2x of `clean`.
    b.bench("oracle_span_layer", "disabled", || {
        let mut r = BoundResolver::vanilla(&oracle);
        let sink: Option<Rc<dyn TraceSink>> = None;
        for &q in &queries {
            let _span = SpanGuard::enter(sink.clone(), SpanName::Query);
            black_box(r.resolve(q));
        }
    });

    // Attached path: per-query span enter/exit events into a counting
    // sink. Not gated — this prices what tracing costs when you ask for
    // it, not a regression gate.
    b.bench("oracle_span_layer", "enabled", || {
        let mut r = BoundResolver::vanilla(&oracle);
        let sink: Option<Rc<dyn TraceSink>> = Some(Rc::new(NullSink::new()));
        for &q in &queries {
            let _span = SpanGuard::enter(sink.clone(), SpanName::Query);
            black_box(r.resolve(q));
        }
    });
}

/// DESIGN.md §16 gate: the serving layer's warm-path overhead. Both
/// cells resolve the same fully-known query mix — every pair is
/// pre-certified, so there are no strong calls and no WAL writes — and
/// the delta prices the serve bookkeeping alone (group expansion,
/// admission accounting, binary searches into the snapshot read in
/// place, the ledger). The bench-gate holds `store_layer/serve` within
/// 2x of `store_layer/direct`. `store_layer/serve_weak` drops a quarter
/// of the pairs from the snapshot and turns on a weak tier that never
/// lies, so each missing pair is served by a weak quorum audited
/// against Tri bounds: it prices the lazy Tri build. Not gated.
#[expect(
    clippy::disallowed_methods,
    reason = "L9: the bench feeds schemes exact distances; it measures bounds, not a plugged algorithm"
)]
fn bench_store_layer(b: &mut Bench) {
    use prox_bounds::{BoundResolver, DistanceResolver};
    use prox_serve::{run_group, GroupOutcome, PairGroupQuery, SessionConfig};

    let n = 128;
    let metric = ClusteredPlane::default().metric(n, SEED);
    let oracle = Oracle::new(&*metric);
    let pairs: Vec<Pair> = Pair::all(32).collect();
    let snapshot: Vec<(Pair, f64)> = pairs.iter().map(|&p| (p, oracle.call_pair(p))).collect();
    let query = PairGroupQuery::explicit(pairs.clone());

    // Direct resolution: the batch workflow `serve` replaces — expand
    // the same query, preload the cache, resolve the mix, export the
    // known set for the next run — on the same resolver shape
    // `run_group` builds.
    b.bench("store_layer", "direct", || {
        let mix = query.pairs();
        let mut r = BoundResolver::new(&oracle, TriScheme::new(n, 1.0));
        for &(p, d) in &snapshot {
            r.preload(p, d);
        }
        let mut acc = 0.0;
        for &q in &mix {
            acc += r.resolve(q);
        }
        let mut known = Vec::new();
        r.export_known(&mut known);
        black_box((acc, known.len()));
    });

    let config = SessionConfig::default();
    b.bench("store_layer", "serve", || {
        let out = run_group(&*metric, &snapshot, &[], &query, 0, &config);
        if let GroupOutcome::Served(s) = out {
            black_box(s.response.store_hits);
        }
    });

    let partial: Vec<(Pair, f64)> = snapshot
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 4 != 0)
        .map(|(_, &e)| e)
        .collect();
    let weak = SessionConfig {
        weak: Some((0.0, SEED)),
        ..SessionConfig::default()
    };
    b.bench("store_layer", "serve_weak", || {
        let out = run_group(&*metric, &partial, &[], &query, 0, &weak);
        if let GroupOutcome::Served(s) = out {
            black_box(s.fresh.len());
        }
    });

    bench_store_commit(b);
    bench_store_rounds(b);
}

/// DESIGN.md §16 durability: `store_layer/commit` prices one 24-entry
/// `SharedStore::commit` (about a serve group's batch) in ns per commit.
/// Each batch is fresh and lands in a partly filled segment: one append
/// and one `fdatasync`. With the default 256-entry segments about one
/// commit in eleven also publishes the next segment whole, the mix a
/// serve run sees. `store_layer/commit_round` commits a serve round's
/// two such batches as one `commit_group` (one append and one
/// `fdatasync` for both), in ns per batch. Not gated: both cells are
/// bound by the host's fsync.
fn bench_store_commit(b: &mut Bench) {
    use prox_serve::{SharedStore, WalConfig};

    let dir = std::env::temp_dir().join(format!("prox-bench-commit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let manifest = vec![("bench".to_string(), "store_commit".to_string())];
    let (store, _) =
        SharedStore::open(&dir, &manifest, WalConfig::default()).expect("open bench store");
    let mut next: ObjectId = 0;
    let mut fresh_batch = move || {
        let batch: Vec<(Pair, f64)> = (next..next + 24)
            .map(|i| (Pair::new(i, i + 1), f64::from(i) * 0.5))
            .collect();
        next += 24;
        batch
    };
    b.bench("store_layer", "commit", || {
        let batch = fresh_batch();
        black_box(store.commit(store.token(), &batch).expect("bench commit"));
    });
    b.bench_per_op("store_layer", "commit_round", 2, || {
        let (first, second) = (fresh_batch(), fresh_batch());
        let group = store.commit_group(store.token(), &[&first, &second]);
        assert!(group.refused.is_none(), "bench group commit refused");
        black_box(group.receipts);
    });
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// DESIGN.md §16 round view: a serve round's read side on a store of
/// 13,530 entries filled by 24-entry commits in scattered key order, so
/// the store has the run shape a serve run builds. `store_layer/view`
/// takes the round view (clones of the runs' `Arc`s) and serves one
/// fully held 12-member block (66 pairs) from it; `store_layer/snapshot`
/// does the same through the flat `snapshot()` copy. Both in ns per
/// round; the fill's commits are outside the timed region
/// (`store_layer/commit` prices those). The bench-gate holds `view`
/// within 0.25x of `snapshot`.
#[expect(
    clippy::disallowed_methods,
    reason = "L9: the bench feeds schemes exact distances; it measures bounds, not a plugged algorithm"
)]
fn bench_store_rounds(b: &mut Bench) {
    use prox_serve::{
        run_group, run_group_view, PairGroupQuery, PairSelector, SessionConfig, SharedStore,
        WalConfig,
    };

    let metric = ClusteredPlane::default().metric(2000, SEED);
    let oracle = Oracle::new(&*metric);
    let dir = std::env::temp_dir().join(format!("prox-bench-rounds-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let manifest = vec![("bench".to_string(), "store_rounds".to_string())];
    let (store, _) =
        SharedStore::open(&dir, &manifest, WalConfig::default()).expect("open bench store");
    let held: Vec<Pair> = Pair::all(165).collect();
    let scattered: Vec<(Pair, f64)> = (0..held.len())
        .map(|i| held[i * 7919 % held.len()])
        .map(|p| (p, oracle.call_pair(p)))
        .collect();
    for batch in scattered.chunks(24) {
        store
            .commit(store.token(), batch)
            .expect("bench fill commit");
    }
    let query = PairGroupQuery {
        selector: PairSelector::Block((40..52).collect()),
        skip: Default::default(),
    };
    let config = SessionConfig::default();
    b.bench("store_layer", "view", || {
        let view = store.view();
        let out = run_group_view(&*metric, &view.runs(), &[], &query, 0, &config);
        black_box((out, view.generation));
    });
    b.bench("store_layer", "snapshot", || {
        let snapshot = store.snapshot();
        let out = run_group(&*metric, &snapshot.entries, &[], &query, 0, &config);
        black_box((out, snapshot.generation));
    });
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    let mut b = Bench::named("schemes");
    bench_queries(&mut b);
    bench_updates(&mut b);
    bench_tri_adjacency(&mut b);
    bench_tri_access(&mut b);
    bench_splub_cold(&mut b);
    bench_resolver_memo(&mut b);
    bench_dataset_build(&mut b);
    bench_dijkstra_reset(&mut b);
    bench_oracle_fault_layer(&mut b);
    bench_oracle_trace_layer(&mut b);
    bench_oracle_trust_layer(&mut b);
    bench_oracle_weak_layer(&mut b);
    bench_oracle_span_layer(&mut b);
    bench_store_layer(&mut b);
    b.finish();
}
