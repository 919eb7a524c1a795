//! The three plugged-algorithm workloads: batch jobs, single threaded,
//! each run timed from oracle construction to the algorithm's output.

use std::time::Instant;

use prox_algos::{knn_graph, pam, prim_mst, PamParams};
use prox_bounds::bootstrap::default_landmarks;
use prox_bounds::{
    laesa_bootstrap, BoundResolver, BoundScheme, DistanceResolver, NoScheme, Splub, TriScheme,
};
use prox_core::{Metric, Oracle, PruneStats, TinyRng};
use prox_obs::ProvenanceLedger;

use crate::spans::Spans;
use crate::stats::{mean, median, LogHist};
use crate::timed::{TimedMetric, TimedResolver, TimedScheme};
use crate::{peak_rss_mb, repeat_setup, DynMetric, Layers, Outcome, Readings, CALL_COST_S};

/// Seed of every [`Inputs::Fixed`] dataset.
const DATASET_SEED: u64 = 20210620;

/// Which bound scheme a workload plugs in.
#[derive(Copy, Clone, Debug)]
pub enum Plug {
    /// Tri Scheme bootstrapped with ⌈log₂ n⌉ LAESA landmarks.
    TriLandmarks,
    /// SPLUB, no bootstrap.
    Splub,
}

/// Which algorithm a workload runs.
#[derive(Copy, Clone, Debug)]
pub enum Algo {
    /// Prim's MST.
    Prim,
    /// kNN graph with this `k`.
    Knn(usize),
    /// PAM with this many medoids, from PAM's default (fixed) initial draw.
    Pam(usize),
}

/// Where a workload's inputs come from. The choice keeps the work one
/// run does steady from seed to seed: Prim's oracle calls vary by ±20 %
/// across generated road networks but by about 1 % across landmark seeds
/// on one network, while a kNN graph varies little across point sets.
#[derive(Copy, Clone, Debug)]
pub enum Inputs {
    /// One dataset from a fixed seed, as the paper uses fixed real
    /// datasets; `--seed` seeds the landmark choice.
    Fixed,
    /// This many datasets generated from `--seed`, run in turn.
    PerSeed(usize),
}

/// One algorithm workload.
#[derive(Copy, Clone, Debug)]
pub struct AlgoWorkload {
    /// Workload name (`--workload`).
    pub name: &'static str,
    /// Dataset name as `prox_datasets::by_name` knows it.
    pub dataset: &'static str,
    /// Objects.
    pub n: usize,
    /// Bound scheme.
    pub plug: Plug,
    /// Algorithm.
    pub algo: Algo,
    /// Where the inputs come from.
    pub inputs: Inputs,
}

/// One input: a ground-truth metric and the seed of the plug's landmark
/// choice.
pub struct Input {
    metric: Box<DynMetric>,
    seed: u64,
}

/// What one run produced: everything the exactness checks compare.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOutput {
    /// The algorithm's output, as bits (see [`Algo::run`]).
    pub fingerprint: Vec<u64>,
    /// Oracle calls billed, bootstrap included.
    pub calls: u64,
    /// The resolver's provenance rows.
    pub ledger: ProvenanceLedger,
    /// The resolver's pruning counters.
    pub prune: PruneStats,
}

impl Algo {
    /// Runs the algorithm and returns its output as bits: equal
    /// fingerprints mean byte-identical outputs (MST edges and weight,
    /// every neighbour list, PAM medoids, assignment and cost).
    pub fn run<R: DistanceResolver>(self, r: &mut R) -> Vec<u64> {
        let mut fp = Vec::new();
        match self {
            Algo::Prim => {
                let mst = prim_mst(r);
                fp.push(mst.total_weight.to_bits());
                for (p, w) in mst.edges {
                    fp.extend([p.key(), w.to_bits()]);
                }
            }
            Algo::Knn(k) => {
                for row in knn_graph(r, k) {
                    fp.push(row.len() as u64);
                    fp.extend(row.iter().flat_map(|&(id, d)| [u64::from(id), d.to_bits()]));
                }
            }
            Algo::Pam(l) => {
                let c = pam(
                    r,
                    PamParams {
                        l,
                        ..PamParams::default()
                    },
                );
                fp.push(c.cost.to_bits());
                fp.extend(c.medoids.iter().map(|&m| u64::from(m)));
                fp.extend(c.assignment.iter().map(|&a| u64::from(a)));
            }
        }
        fp
    }
}

fn output<R: DistanceResolver, M: Metric>(
    fingerprint: Vec<u64>,
    oracle: &Oracle<M>,
    r: &R,
) -> RunOutput {
    RunOutput {
        fingerprint,
        calls: oracle.calls(),
        ledger: r.provenance(),
        prune: r.prune_stats(),
    }
}

/// One untraced run; returns the output and its wall time in seconds.
fn plain<S: BoundScheme>(
    algo: Algo,
    input: &Input,
    bootstrap: bool,
    make: impl FnOnce() -> S,
) -> (RunOutput, f64) {
    let start = Instant::now();
    let oracle = Oracle::new(&*input.metric);
    let mut scheme = make();
    if bootstrap {
        laesa_bootstrap(&oracle, default_landmarks(oracle.n()), input.seed).apply_to(&mut scheme);
    }
    let mut resolver = BoundResolver::new(&oracle, scheme);
    let fp = algo.run(&mut resolver);
    let wall = start.elapsed().as_secs_f64();
    (output(fp, &oracle, &resolver), wall)
}

/// One traced run: the same steps as [`plain`] with every layer boundary
/// wrapped. Returns the output, the wall time, the per-layer readings, and
/// whether children stayed within parents along
/// algos ⊃ resolver ⊃ {scheme, oracle}.
fn traced<S: BoundScheme>(
    algo: Algo,
    input: &Input,
    bootstrap: bool,
    make: impl FnOnce() -> S,
    spans: &mut Spans,
) -> (RunOutput, f64, Layers, bool) {
    let run = spans.open("run", None);
    let start = Instant::now();
    let metric = TimedMetric::new(&*input.metric);
    let oracle = Oracle::new(&metric);
    let boot = spans.open("bootstrap", Some(run));
    let mut scheme = TimedScheme::new(make());
    if bootstrap {
        laesa_bootstrap(&oracle, default_landmarks(oracle.n()), input.seed).apply_to(&mut scheme);
    }
    let bootstrap_s = spans.close(boot);
    let bootstrap_calls = oracle.calls() as f64;
    let boot_metric_s = metric.busy_s();
    let boot_scheme_s = scheme.query.busy_s() + scheme.update.busy_s();
    let mut resolver = TimedResolver::new(BoundResolver::new(&oracle, scheme));
    let algos = spans.open("algos", Some(run));
    let fp = algo.run(&mut resolver);
    let algos_s = spans.close(algos);
    let wall = start.elapsed().as_secs_f64();
    spans.close(run);

    let out = output(fp, &oracle, &resolver);
    let scheme = resolver.inner().scheme();
    // Time inside the resolver's children during the algorithm only: the
    // bootstrap calls the oracle and records into the scheme directly.
    let resolver_s = resolver.layer.busy_s();
    let scheme_s = scheme.query.busy_s() + scheme.update.busy_s() - boot_scheme_s;
    let metric_s = metric.busy_s() - boot_metric_s;
    let nested = scheme_s + metric_s <= resolver_s && resolver_s <= algos_s;
    let prune = out.prune;
    let tier = |t: &str| {
        out.ledger
            .decisive_rows()
            .filter(|&(s, row, _)| s == "SPLUB" && row == t)
            .map(|(_, _, c)| c)
            .sum::<u64>() as f64
    };
    let q = |h: &LogHist, q| h.quantile(q).unwrap_or(0.0);
    let layers = vec![
        ("core.oracle.calls", out.calls as f64),
        ("core.oracle.metric_s", metric.busy_s()),
        ("bounds.resolver.calls", resolver.layer.calls() as f64),
        ("bounds.resolver.self_s", resolver_s - scheme_s - metric_s),
        ("bounds.resolver.memo_hits", out.ledger.memo as f64),
        (
            "bounds.resolver.decided_frac",
            prune.decided_by_bounds as f64 / prune.comparisons().max(1) as f64,
        ),
        ("bounds.scheme.query_calls", scheme.query.calls() as f64),
        ("bounds.scheme.query_s", scheme.query.busy_s()),
        ("bounds.scheme.query_ns_p50", q(scheme.query.hist(), 500)),
        ("bounds.scheme.query_ns_p99", q(scheme.query.hist(), 990)),
        ("bounds.scheme.update_calls", scheme.update.calls() as f64),
        ("bounds.scheme.update_s", scheme.update.busy_s()),
        ("bounds.scheme.update_ns_p50", q(scheme.update.hist(), 500)),
        ("bounds.bootstrap_s", bootstrap_s),
        ("bounds.bootstrap_calls", bootstrap_calls),
        ("bounds.splub.decided_ado", tier("ado")),
        ("bounds.splub.decided_bidi", tier("bidi")),
        ("bounds.splub.decided_full", tier("full")),
        ("algos.self_s", algos_s - resolver_s),
    ];
    (out, wall, layers, nested)
}

impl AlgoWorkload {
    /// Builds every input of this workload for `seed`.
    pub fn build(&self, seed: u64) -> Vec<Input> {
        let dataset_seeds = match self.inputs {
            Inputs::Fixed => vec![DATASET_SEED],
            Inputs::PerSeed(count) => {
                let mut rng = TinyRng::new(seed);
                (0..count).map(|_| rng.next_u64()).collect()
            }
        };
        let dataset = prox_datasets::by_name(self.dataset).expect("workload names a known dataset");
        dataset_seeds
            .into_iter()
            .map(|d| Input {
                metric: dataset.metric(self.n, d),
                seed,
            })
            .collect()
    }

    /// One untraced run of the plugged configuration.
    pub fn run_plain(&self, input: &Input) -> (RunOutput, f64) {
        let (n, max) = (self.n, input.metric.max_distance());
        match self.plug {
            Plug::TriLandmarks => plain(self.algo, input, true, || TriScheme::new(n, max)),
            Plug::Splub => plain(self.algo, input, false, || Splub::new(n, max)),
        }
    }

    /// One traced run of the plugged configuration.
    pub fn run_traced(&self, input: &Input, spans: &mut Spans) -> (RunOutput, f64, Layers, bool) {
        let (n, max) = (self.n, input.metric.max_distance());
        match self.plug {
            Plug::TriLandmarks => traced(self.algo, input, true, || TriScheme::new(n, max), spans),
            Plug::Splub => traced(self.algo, input, false, || Splub::new(n, max), spans),
        }
    }

    /// The vanilla (no-scheme) run every plugged output must equal.
    pub fn run_vanilla(&self, input: &Input) -> RunOutput {
        let (n, max) = (self.n, input.metric.max_distance());
        plain(self.algo, input, false, || NoScheme::new(n, max)).0
    }
}

/// Everything one measurement collected, checked later against the
/// vanilla references.
pub struct Measured {
    /// The untimed warm-up run of input 0.
    pub warm: RunOutput,
    /// Input index and output of every timed run, untraced and traced.
    pub outputs: Vec<(usize, RunOutput)>,
    /// Untraced wall times, per input.
    pub plain_s: Vec<Vec<f64>>,
    /// Traced wall times, per input.
    pub traced_s: Vec<Vec<f64>>,
    /// Per-layer readings of each traced run.
    pub layers: Vec<Layers>,
    /// Traced runs whose layer times did not nest.
    pub unnested: u64,
}

/// Runs the warm-up, then timed runs cycling over the inputs for about
/// `seconds`, in whole cycles and at least three rounds: each round is one
/// untraced run, followed by a traced one when `trace` is set.
pub fn measure(
    w: &AlgoWorkload,
    inputs: &[Input],
    seconds: f64,
    trace: bool,
    spans: &mut Spans,
) -> Measured {
    let (warm, warm_s) = w.run_plain(&inputs[0]);
    let mut m = Measured {
        warm,
        outputs: Vec::new(),
        plain_s: vec![Vec::new(); inputs.len()],
        traced_s: vec![Vec::new(); inputs.len()],
        layers: Vec::new(),
        unnested: 0,
    };
    let start = Instant::now();
    let mut typical = warm_s;
    for round in 0.. {
        let cycle_done = round % inputs.len() == 0;
        if cycle_done && round >= 3 && start.elapsed().as_secs_f64() + typical > seconds {
            break;
        }
        let i = round % inputs.len();
        let (out, wall) = w.run_plain(&inputs[i]);
        m.outputs.push((i, out));
        m.plain_s[i].push(wall);
        typical = wall;
        if trace {
            let (out, wall, layers, nested) = w.run_traced(&inputs[i], spans);
            m.outputs.push((i, out));
            m.traced_s[i].push(wall);
            m.layers.push(layers);
            m.unnested += u64::from(!nested);
            typical += wall;
        }
    }
    m
}

/// Checks every run against its input's reference output, and every
/// repeat of an input against that input's first run (the warm-up for
/// input 0): same calls, provenance rows and pruning counters. Returns
/// `(attempted, failed)`.
pub fn judge(m: &Measured, references: &[Vec<u64>]) -> (u64, u64) {
    let mut first: Vec<Option<&RunOutput>> = vec![None; references.len()];
    first[0] = Some(&m.warm);
    let mut failed = u64::from(m.warm.fingerprint != references[0]) + m.unnested;
    for (i, out) in &m.outputs {
        let same = match first[*i] {
            None => {
                first[*i] = Some(out);
                true
            }
            Some(f) => out.calls == f.calls && out.ledger == f.ledger && out.prune == f.prune,
        };
        failed += u64::from(!same || out.fingerprint != references[*i]);
    }
    (1 + m.outputs.len() as u64, failed)
}

/// Oracle calls of each input's first run.
fn calls_per_input(m: &Measured, inputs: usize) -> Vec<f64> {
    (0..inputs)
        .map(|i| match i {
            0 => m.warm.calls as f64,
            _ => m
                .outputs
                .iter()
                .find(|(j, _)| *j == i)
                .map_or(0.0, |(_, o)| o.calls as f64),
        })
        .collect()
}

/// Sets up, measures and checks one algorithm workload.
pub fn run(w: &AlgoWorkload, seed: u64, seconds: f64, trace: bool, spans: &mut Spans) -> Outcome {
    prox_exec::set_global_threads(1);
    let (inputs, setup_s, _) = repeat_setup(|| {
        let start = Instant::now();
        let inputs = w.build(seed);
        let s = start.elapsed().as_secs_f64();
        (inputs, s, s)
    });
    let m = measure(w, &inputs, seconds, trace, spans);
    // Peak memory is read before the references run: a vanilla run holds
    // every pair and would hide the plugged runs' own peak.
    let peak = peak_rss_mb();
    let references: Vec<Vec<u64>> = inputs
        .iter()
        .map(|i| w.run_vanilla(i).fingerprint)
        .collect();
    let (attempted, failed) = judge(&m, &references);

    // Runs cover every input equally (whole cycles), so medians over all
    // runs weigh inputs equally too.
    let calls = calls_per_input(&m, inputs.len());
    let plain_s = m.plain_s.concat();
    let mut r = Readings::default();
    if trace {
        r.median_of(&m.layers);
        r.set(
            "datasets.build_s",
            median(&setup_s) / inputs.len() as f64,
            setup_s.len(),
        );
        let overhead = median(&m.traced_s.concat()) / median(&plain_s) - 1.0;
        r.set("bench.trace_overhead_frac", overhead, m.layers.len());
    } else {
        r.set("setup_s", median(&setup_s), setup_s.len());
        r.timing("run_s", &plain_s);
        let completion: Vec<f64> = (m.plain_s.iter().zip(&calls))
            .flat_map(|(times, c)| times.iter().map(move |s| s + c * CALL_COST_S))
            .collect();
        r.timing("completion_s", &completion);
        r.set("oracle_calls", mean(&calls), inputs.len());
        r.set("peak_rss_mb", peak, 1);
    }
    Outcome {
        attempted,
        failed,
        readings: r,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each workload's plug at a small size.
    fn small() -> [AlgoWorkload; 3] {
        [
            AlgoWorkload {
                n: 120,
                ..crate::PRIM
            },
            AlgoWorkload {
                n: 80,
                inputs: Inputs::PerSeed(2),
                ..crate::KNNG
            },
            AlgoWorkload {
                n: 60,
                ..crate::PAM
            },
        ]
    }

    #[test]
    fn wrapped_runs_are_identical_to_unwrapped_runs() {
        let _pool = crate::test_pool(1);
        for w in small() {
            for seed in [3, 20210620] {
                for input in &w.build(seed) {
                    let (plain, _) = w.run_plain(input);
                    let (wrapped, _, layers, nested) = w.run_traced(input, &mut Spans::new());
                    assert_eq!(
                        plain, wrapped,
                        "{} seed {seed}: wrapping changed the run",
                        w.name
                    );
                    assert!(nested, "{}: layer times must nest", w.name);
                    let get = |name| layers.iter().find(|(n, _)| *n == name).unwrap().1;
                    assert_eq!(get("core.oracle.calls"), plain.calls as f64);
                    assert!(get("bounds.scheme.query_calls") > 0.0, "{}", w.name);
                    assert_eq!(plain.fingerprint, w.run_vanilla(input).fingerprint);
                }
            }
        }
    }

    #[test]
    fn wrappers_forward_defaulted_methods() {
        let tri = TimedScheme::new(TriScheme::new(8, 1.0));
        assert!(tri.spec().is_some() && tri.bounds_cacheable() && !tri.goal_aware());
        assert_eq!(tri.name(), "Tri");
        let mut splub = TimedScheme::new(Splub::new(8, 1.0));
        assert!(splub.goal_aware() && splub.bounds_cacheable());
        assert_eq!(splub.name(), "SPLUB");
        let goal = prox_core::QueryGoal::threshold(0.5);
        let p = prox_core::Pair::new(0, 1);
        assert_eq!(
            splub.bounds_for_goal(p, goal),
            Splub::new(8, 1.0).bounds_for_goal(p, goal)
        );
        assert_eq!(splub.query.calls(), 1, "goal-aware queries are timed");
    }

    #[test]
    fn inputs_follow_the_seed() {
        let _pool = crate::test_pool(1);
        let knng = small()[1];
        let fp = |seed| -> Vec<Vec<u64>> {
            knng.build(seed)
                .iter()
                .map(|i| knng.run_vanilla(i).fingerprint)
                .collect()
        };
        assert_eq!(fp(7), fp(7), "same seed, same inputs");
        assert_ne!(fp(7), fp(8), "another seed, other inputs");
        let prim = small()[0];
        let (a, b) = (&prim.build(7)[0], &prim.build(8)[0]);
        assert_eq!(
            prim.run_vanilla(a).fingerprint,
            prim.run_vanilla(b).fingerprint
        );
        assert_ne!(
            prim.run_plain(a).0.calls,
            prim.run_plain(b).0.calls,
            "landmarks differ"
        );
    }

    #[test]
    fn a_wrong_reference_fails_loudly() {
        let _pool = crate::test_pool(1);
        let w = small()[1];
        let inputs = w.build(5);
        let m = measure(&w, &inputs, 0.0, false, &mut Spans::new());
        let mut references: Vec<Vec<u64>> = inputs
            .iter()
            .map(|i| w.run_vanilla(i).fingerprint)
            .collect();
        // Two whole cycles over the two inputs, after the warm-up.
        assert_eq!(judge(&m, &references), (5, 0));
        references[1][1] ^= 1;
        let (attempted, failed) = judge(&m, &references);
        assert_eq!(
            (attempted, failed),
            (5, 2),
            "both runs of input 1 must miss"
        );
        let outcome = Outcome {
            attempted,
            failed,
            readings: Readings::default(),
        };
        assert!(!outcome.correct());
        assert_ne!(outcome.exit_code(), 0);
    }
}
