//! The resolver's bound memo at a table size that wraps.
//!
//! Above C(n, 2) = 2^16 pairs (n > 362) the memo is a direct-mapped table
//! whose pairs share slots, so a sandwich can be evicted before its next
//! probe. An eviction must only cost a recomputation: this suite runs the
//! same work with the memo on and off (the `Wrapped` scheme below opts out
//! via `bounds_cacheable` when told to) at n = 400 on `sf` and requires
//! equal output bits, oracle calls, `PruneStats` and I11 ledger rows.
//!
//! * Prim and a short PAM with Tri (plus `⌈log2 n⌉` LAESA landmarks), run
//!   inside `CheckedResolver`, so every sandwich the memo serves at this
//!   size is also audited against the ground truth. Both runs must meet
//!   Tri's first-visit anchor rows, whose `pair_stamp` reads `u64::MAX`
//!   and which bypass the memo, so the equality covers the bypass.
//! * A SPLUB resolver-level schedule of records and threshold probes over
//!   pairs chosen to collide in the table. SPLUB is goal-aware, so this
//!   also pins the bidi/full split of its ledger rows under eviction.

use std::cell::Cell;
use std::rc::Rc;

use prox_algos::{pam, prim_mst, PamParams};
use prox_bounds::bootstrap::default_landmarks;
use prox_bounds::{
    laesa_bootstrap, BoundResolver, BoundScheme, CheckedResolver, DistanceResolver, GoalBounds,
    Splub, TriScheme,
};
use prox_core::{Metric, Oracle, Pair, PruneStats, QueryGoal, TinyRng};
use prox_datasets::{ClusteredPlane, Dataset};

/// C(400, 2) = 79,800 pairs: more than the memo's 2^16 slots.
const N: usize = 400;
const SEED: u64 = 7;
/// The memo's slot count; ranks this far apart share a slot.
const SLOTS: usize = 1 << 16;

/// A scheme that forwards everything, opts out of the resolver's memo when
/// `memo` is false (so a resolver over it asks the scheme for every
/// sandwich), and counts the `pair_stamp` answers that read `u64::MAX`.
struct Wrapped<S> {
    inner: S,
    memo: bool,
    max_stamps: Rc<Cell<u64>>,
}

impl<S> Wrapped<S> {
    fn new(inner: S, memo: bool) -> Self {
        Wrapped {
            inner,
            memo,
            max_stamps: Rc::default(),
        }
    }
}

impl<S: BoundScheme> BoundScheme for Wrapped<S> {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn max_distance(&self) -> f64 {
        self.inner.max_distance()
    }
    fn known(&self, p: Pair) -> Option<f64> {
        self.inner.known(p)
    }
    fn bounds(&mut self, p: Pair) -> (f64, f64) {
        self.inner.bounds(p)
    }
    fn record(&mut self, p: Pair, d: f64) {
        self.inner.record(p, d);
    }
    fn retract(&mut self, p: Pair) -> bool {
        self.inner.retract(p)
    }
    fn m(&self) -> usize {
        self.inner.m()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn for_each_known(&self, f: &mut dyn FnMut(Pair, f64)) {
        self.inner.for_each_known(f);
    }
    fn generation(&self) -> u64 {
        self.inner.generation()
    }
    fn pair_stamp(&self, p: Pair) -> u64 {
        let stamp = self.inner.pair_stamp(p);
        if stamp == u64::MAX {
            self.max_stamps.set(self.max_stamps.get() + 1);
        }
        stamp
    }
    fn bounds_cacheable(&self) -> bool {
        self.memo && self.inner.bounds_cacheable()
    }
    fn goal_aware(&self) -> bool {
        self.inner.goal_aware()
    }
    fn bounds_for_goal(&mut self, p: Pair, goal: QueryGoal) -> GoalBounds {
        self.inner.bounds_for_goal(p, goal)
    }
}

/// Everything a run must reproduce whether or not the memo is on.
#[derive(Debug, PartialEq)]
struct Outcome {
    out: String,
    calls: u64,
    stats: PruneStats,
    ledger: Vec<(&'static str, &'static str, &'static str, u64)>,
}

fn outcome(out: String, oracle_calls: u64, r: &dyn DistanceResolver) -> Outcome {
    Outcome {
        out,
        calls: oracle_calls,
        stats: r.prune_stats(),
        ledger: r.provenance().rows(),
    }
}

fn sf() -> Box<dyn Metric + Send + Sync> {
    ClusteredPlane::default().metric(N, SEED)
}

/// Runs `algo` over Tri + landmarks, memo on or off, inside
/// `CheckedResolver`. Returns the outcome with the output `Debug`-rendered
/// (which round-trips every `f64` bit for bit), and how many `pair_stamp`
/// answers read `u64::MAX`.
fn tri_run(metric: &(dyn Metric + Send + Sync), memo: bool, algo: &str) -> (Outcome, u64) {
    #[expect(clippy::disallowed_methods, reason = "un-metered ground truth")]
    let truth = |p: Pair| metric.distance(p.lo(), p.hi());
    let oracle = Oracle::new(metric);
    let boot = laesa_bootstrap(&oracle, default_landmarks(N), SEED);
    let mut tri = TriScheme::new(N, 1.0);
    boot.apply_to(&mut tri);
    let run = |r: &mut dyn DistanceResolver| match algo {
        "prim" => format!("{:?}", prim_mst(r)),
        "pam" => format!(
            "{:?}",
            pam(
                r,
                PamParams {
                    l: 3,
                    max_swaps: 3,
                    seed: SEED,
                }
            )
        ),
        other => panic!("unknown algorithm {other}"),
    };
    let scheme = Wrapped::new(tri, memo);
    let max_stamps = Rc::clone(&scheme.max_stamps);
    let mut r = CheckedResolver::new(BoundResolver::new(&oracle, scheme), truth);
    let out = run(&mut r);
    assert!(r.checks() > 0, "the audit never fired");
    (outcome(out, oracle.calls(), &r), max_stamps.get())
}

/// The memo-on and memo-off runs of `algo` agree, and the memo-on run met
/// first-visit anchor pairs (the memo-off resolver never asks for stamps).
fn assert_memo_unobservable(algo: &str) {
    let metric = sf();
    let (with_memo, bypassed) = tri_run(&*metric, true, algo);
    let (without, _) = tri_run(&*metric, false, algo);
    assert_eq!(with_memo, without);
    assert!(bypassed > 0, "{algo}: no pair_stamp read u64::MAX");
}

#[test]
fn prim_with_tri_is_unchanged_by_memo_eviction() {
    assert_memo_unobservable("prim");
}

#[test]
fn pam_with_tri_is_unchanged_by_memo_eviction() {
    assert_memo_unobservable("pam");
}

/// A seeded schedule of records and probes over the pairs among objects
/// `0..12` and their slot partners 2^16 ranks up, so probes keep evicting
/// each other. The small clique lets records form paths, so the cascade's
/// bidirectional tier has something to certify. Every probe's answer is
/// rendered into the outcome's output.
fn splub_schedule(r: &mut dyn DistanceResolver, seed: u64) -> String {
    let all: Vec<Pair> = Pair::all(N).collect();
    let pool: Vec<Pair> = Pair::all(12)
        .flat_map(|p| [p, all[p.rank(N) + SLOTS]])
        .collect();
    let mut rng = TinyRng::new(seed);
    let mut out = String::new();
    for _ in 0..1500 {
        let p = pool[rng.below(pool.len())];
        let v = rng.unit_f64() * 0.8;
        let step = match rng.below(8) {
            0 => format!("r{:?}", r.resolve(p)),
            1 | 2 => format!("l{:?}", r.distance_if_less(p, v)),
            3 | 4 => format!("e{:?}", r.distance_if_leq(p, v)),
            5 => format!("c{:?}", r.less(p, pool[rng.below(pool.len())])),
            _ => format!("b{:?}", r.bounds_hint(p)),
        };
        out.push_str(&step);
        out.push(' ');
    }
    out
}

#[test]
fn splub_schedule_is_unchanged_by_memo_eviction() {
    let metric = sf();
    for seed in 0..3 {
        let o_on = Oracle::new(&*metric);
        let mut on = BoundResolver::new(&o_on, Splub::new(N, 1.0));
        let out = splub_schedule(&mut on, seed);
        let with_memo = outcome(out, o_on.calls(), &on);

        let o_off = Oracle::new(&*metric);
        let mut off = BoundResolver::new(&o_off, Wrapped::new(Splub::new(N, 1.0), false));
        let out = splub_schedule(&mut off, seed);
        let without = outcome(out, o_off.calls(), &off);

        assert_eq!(with_memo, without, "seed {seed}");
        // The schedule must reach both cascade rows for the split to mean
        // anything.
        for tier in ["bidi", "full"] {
            assert!(
                with_memo.ledger.iter().any(|row| row.2 == tier),
                "seed {seed}: no {tier} row in {:?}",
                with_memo.ledger
            );
        }
    }
}
