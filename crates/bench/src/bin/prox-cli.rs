//! `prox-cli` — run any proximity algorithm × plug-in × dataset from the
//! command line, with full oracle accounting.
//!
//! ```text
//! prox-cli prim    --dataset urbangb --n 400 --plug tri
//! prox-cli knng    --dataset sf --n 300 --plug splub --k 5
//! prox-cli pam     --dataset flickr --n 200 --plug laesa --l 8
//! prox-cli tsp     --dataset sf --n 150 --plug vanilla
//! prox-cli kcenter --dataset strings --n 200 --plug tri --l 6 --cache dists.csv
//! ```
//!
//! `--cache FILE` loads previously resolved distances before the run and
//! saves the (possibly grown) set afterwards — the workflow for oracles
//! billed per call. The cache covers the algorithm phase; landmark
//! bootstraps still call the oracle (use `--plug tri-nb` with a warm cache
//! for fully call-free reruns). A cache is only valid for the same
//! `--dataset`, `--n`, and `--seed`.
//!
//! Fault tolerance (DESIGN.md §9): `--faults RATE[:SEED]` injects
//! deterministic transient faults, `--retry N[:BASE_MS]` retries them with
//! exponential backoff charged as virtual time, `--budget CALLS` caps total
//! billed oracle attempts, `--checkpoint FILE[:EVERY]` snapshots resolved
//! distances every EVERY resolutions (and once at exit, clean or not), and
//! `--resume FILE` preloads a previous run's checkpoint so only the missing
//! pairs are re-paid:
//!
//! ```text
//! prox-cli prim --dataset sf --n 300 --plug tri \
//!     --faults 0.05 --retry 3 --budget 20000 --checkpoint run.ckpt
//! prox-cli prim --dataset sf --n 300 --plug tri --resume run.ckpt
//! ```
//!
//! Untrusted oracles (DESIGN.md §11): `--corrupt RATE[:SEED]` injects
//! deterministic *value* corruptions (the oracle lies instead of
//! failing), `--vote K[:N]` audits every resolution by deterministic
//! first-to-K majority voting, and `--corrupt` without `--vote` runs in
//! detection mode — accepted values are checked against the certified
//! bound sandwich and escalated to a vote only on a proven
//! inconsistency. `--lenient-load` salvages the verified prefix of a
//! damaged `--cache`/`--resume` file instead of refusing it:
//!
//! ```text
//! prox-cli prim --dataset sf --n 300 --plug tri --corrupt 0.05 --vote 3
//! prox-cli prim --dataset sf --n 300 --plug tri --resume run.ckpt --lenient-load
//! ```
//!
//! Weak/strong cascade (DESIGN.md §14): `--weak RATE[:SEED]` puts a cheap,
//! deterministic-error weak oracle in front of the strong tier — every
//! fresh pair is first vote-resolved weakly and sandwich-checked against
//! the certified bounds, and only unresolvable pairs escalate to the
//! billed strong oracle. Outputs stay byte-identical (invariant I10);
//! only the bill moves. `--degrade` additionally lets the run *finish* on
//! weak+bounds when the strong tier is lost mid-run (budget exhaustion,
//! permanent fault) instead of aborting:
//!
//! ```text
//! prox-cli prim --dataset sf --n 300 --plug tri --weak 0.05
//! prox-cli prim --dataset sf --n 300 --plug tri --weak 0.2 --budget 500 --degrade
//! ```
//!
//! Serving layer (DESIGN.md §16): `prox-cli serve` keeps certified
//! distances alive *across* runs in a crash-safe WAL-backed store
//! shared by every client of the same problem instance. Session `i` of
//! `--sessions S` takes script lines `i, i+S, …`; `--admit CALLS` caps
//! what one group may cost a client (deterministic
//! reject-with-retry-hint, never blocking the store), and a second
//! client over the same `--store` pays strictly fewer strong calls:
//!
//! ```text
//! prox-cli serve --store runs/sf --dataset sf --n 200 --groups 8
//! prox-cli serve --store runs/sf --dataset sf --n 200 --groups 8   # ~free
//! ```

use std::cell::RefCell;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Duration;

use prox_algos::{
    try_average_linkage_cut, try_clarans, try_complete_linkage, try_k_center, try_knn_graph,
    try_kruskal_mst, try_pam, try_prim_mst, try_single_linkage, try_tsp_2opt, ClaransParams,
    DistanceResolver, PamParams,
};
use prox_bench::runner::{
    log_landmarks, set_oracle_config, try_run_plugged_observed, OracleConfig, Plug, RunObservers,
};
use prox_bench::CheckpointingResolver;
use prox_core::{
    load_known, load_known_lenient, read_checkpoint_file, read_checkpoint_file_lenient, save_known,
    write_checkpoint_file, CallBudget, CorruptionInjector, FaultInjector, Metric, OracleError,
    Pair, RetryPolicy,
};
use prox_datasets::by_name;
use prox_obs::{
    semantic_diff, summarize, JsonlSink, Metrics, ProvenanceLedger, SpanTree, TraceSink,
};
use prox_serve::{
    default_script, emit_recovery, parse_script, BoundServer, PairGroupQuery, ServeConfig,
    SessionConfig, SharedStore, WalConfig,
};

struct Args {
    algo: String,
    dataset: String,
    n: usize,
    plug: Plug,
    landmarks: Option<usize>,
    seed: u64,
    k: usize,
    l: usize,
    oracle_cost_ms: u64,
    cache: Option<String>,
    /// `--faults RATE[:SEED]` (seed defaults to `--seed`).
    faults: Option<(f64, Option<u64>)>,
    /// `--retry N[:BASE_MS]`.
    retry: Option<(u32, Option<u64>)>,
    /// `--budget CALLS`.
    budget: Option<u64>,
    /// `--corrupt RATE[:SEED]` (seed defaults to `--seed`).
    corrupt: Option<(f64, Option<u64>)>,
    /// `--vote K[:N]` (`K` alone means first-to-K with no extra pool,
    /// i.e. `K:K`).
    vote: Option<(u32, u32)>,
    /// `--weak RATE[:SEED]` (seed defaults to `--seed`).
    weak: Option<(f64, Option<u64>)>,
    /// `--degrade`: finish on weak+bounds when the strong tier is lost.
    degrade: bool,
    /// `--checkpoint FILE[:EVERY]`.
    checkpoint: Option<(String, u64)>,
    /// `--resume FILE`.
    resume: Option<String>,
    /// `--lenient-load`: salvage the verified prefix of a damaged
    /// `--cache` or `--resume` file instead of aborting.
    lenient_load: bool,
    /// `--trace FILE` (or the `trace` subcommand's `--out FILE`): write a
    /// structured JSONL event trace of the run.
    trace: Option<String>,
    /// `--metrics`: attach a metrics registry without a trace sink and
    /// dump the full registry (counters + histogram p50/p99) on stdout in
    /// stable sorted order after the run.
    metrics: bool,
    /// `prox-cli profile <algo>`: trace the run, then print the replayed
    /// span tree (self-vs-total rollups).
    profile: bool,
    /// `--out FILE.folded` in profile mode: also write collapsed stacks
    /// for flamegraph tooling.
    profile_out: Option<String>,
    /// `--ledger FILE`: dump the run's provenance ledger as JSONL.
    ledger: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: prox-cli <prim|kruskal|knng|pam|clarans|kcenter|tsp|linkage|complete-linkage|average-linkage-cut>\n\
         \x20       --dataset <sf|urbangb|flickr|strings> --n <N>\n\
         \x20       [--plug vanilla|tri|tri-nb|splub|adm|laesa|tlaesa|dft]\n\
         \x20       [--landmarks K] [--seed S] [--k 5] [--l 10]\n\
         \x20       [--oracle-cost-ms MS] [--cache FILE]\n\
         \x20       [--faults RATE[:SEED]] [--retry N[:BASE_MS]] [--budget CALLS]\n\
         \x20       [--corrupt RATE[:SEED]] [--vote K[:N]]\n\
         \x20       [--weak RATE[:SEED]] [--degrade]\n\
         \x20       [--checkpoint FILE[:EVERY]] [--resume FILE] [--lenient-load]\n\
         \x20       [--trace FILE.jsonl] [--metrics] [--ledger FILE.jsonl]\n\
         \x20  prox-cli trace <algo> [same flags] [--out FILE.jsonl]\n\
         \x20  prox-cli profile <algo> [same flags] [--out FILE.folded]\n\
         \x20  prox-cli report <FILE.jsonl>\n\
         \x20  prox-cli diff <A.jsonl> <B.jsonl>\n\
         \x20  prox-cli replay <FILE.jsonl>\n\
         \x20  prox-cli serve --store DIR [--dataset D] [--n N] [--seed S]\n\
         \x20       [--sessions N] [--admit CALLS] [--client-script FILE] [--groups G]\n\
         \x20       [--weak RATE[:SEED]] [--degrade] [--kill-after-commits K]\n\
         \x20       [--trace FILE.jsonl]"
    );
    ExitCode::FAILURE
}

/// Splits `value[:suffix]`, parsing both halves.
fn split_opt<A: std::str::FromStr, B: std::str::FromStr>(s: &str) -> Option<(A, Option<B>)> {
    match s.split_once(':') {
        Some((head, tail)) => Some((head.parse().ok()?, Some(tail.parse().ok()?))),
        None => Some((s.parse().ok()?, None)),
    }
}

fn parse() -> Option<Args> {
    let mut argv = std::env::args().skip(1);
    let mut algo = argv.next()?;
    // `prox-cli trace <algo> ...` is `<algo> ... --trace trace.jsonl`
    // with a subcommand spelling; `--out` overrides the default path.
    // `prox-cli profile <algo> ...` also traces (spans ride the trace),
    // but its `--out` names the collapsed-stack file instead.
    let mut trace = None;
    let mut profile = false;
    if algo == "trace" {
        algo = argv.next()?;
        trace = Some("trace.jsonl".to_string());
    } else if algo == "profile" {
        algo = argv.next()?;
        trace = Some("profile.trace.jsonl".to_string());
        profile = true;
    }
    let mut a = Args {
        algo,
        dataset: "sf".into(),
        n: 200,
        plug: Plug::TriBoot,
        landmarks: None,
        seed: 42,
        k: 5,
        l: 10,
        oracle_cost_ms: 0,
        cache: None,
        faults: None,
        retry: None,
        budget: None,
        corrupt: None,
        vote: None,
        weak: None,
        degrade: false,
        checkpoint: None,
        resume: None,
        lenient_load: false,
        trace,
        metrics: false,
        profile,
        profile_out: None,
        ledger: None,
    };
    while let Some(flag) = argv.next() {
        let mut val = || argv.next();
        match flag.as_str() {
            "--dataset" => a.dataset = val()?,
            "--n" => a.n = val()?.parse().ok()?,
            "--plug" => {
                a.plug = match val()?.as_str() {
                    "vanilla" => Plug::Vanilla,
                    "tri" => Plug::TriBoot,
                    "tri-nb" => Plug::TriNb,
                    "splub" => Plug::Splub,
                    "adm" => Plug::Adm,
                    "laesa" => Plug::Laesa,
                    "tlaesa" => Plug::Tlaesa,
                    "dft" => Plug::Dft,
                    other => {
                        eprintln!("unknown plug {other:?}");
                        return None;
                    }
                }
            }
            "--landmarks" => a.landmarks = Some(val()?.parse().ok()?),
            "--seed" => a.seed = val()?.parse().ok()?,
            "--k" => a.k = val()?.parse().ok()?,
            "--l" => a.l = val()?.parse().ok()?,
            "--oracle-cost-ms" => a.oracle_cost_ms = val()?.parse().ok()?,
            "--cache" => a.cache = Some(val()?),
            "--faults" => {
                let raw = val()?;
                let Some((rate, seed)) = split_opt::<f64, u64>(&raw) else {
                    eprintln!("--faults expects RATE[:SEED], got {raw:?}");
                    return None;
                };
                if !rate.is_finite() || rate <= 0.0 || rate > 1.0 {
                    eprintln!("--faults rate must be a probability in (0, 1], got {rate}");
                    return None;
                }
                a.faults = Some((rate, seed));
            }
            "--retry" => {
                let raw = val()?;
                let Some((n, base_ms)) = split_opt::<u32, u64>(&raw) else {
                    eprintln!("--retry expects N[:BASE_MS], got {raw:?}");
                    return None;
                };
                if n == 0 {
                    eprintln!("--retry 0 retries nothing; drop the flag instead");
                    return None;
                }
                a.retry = Some((n, base_ms));
            }
            "--budget" => {
                let raw = val()?;
                let Ok(calls) = raw.parse::<u64>() else {
                    eprintln!("--budget expects a call count, got {raw:?}");
                    return None;
                };
                if calls == 0 {
                    eprintln!("--budget 0 forbids every oracle call; nothing could run");
                    return None;
                }
                a.budget = Some(calls);
            }
            "--corrupt" => {
                let raw = val()?;
                let Some((rate, seed)) = split_opt::<f64, u64>(&raw) else {
                    eprintln!("--corrupt expects RATE[:SEED], got {raw:?}");
                    return None;
                };
                if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                    eprintln!("--corrupt rate must be a probability in [0, 1], got {rate}");
                    return None;
                }
                a.corrupt = Some((rate, seed));
            }
            "--vote" => {
                let raw = val()?;
                let Some((k, n)) = split_opt::<u32, u32>(&raw) else {
                    eprintln!("--vote expects K[:N], got {raw:?}");
                    return None;
                };
                let n = n.unwrap_or(k);
                if k == 0 || n < k {
                    eprintln!("--vote needs N >= K >= 1, got K={k}, N={n}");
                    return None;
                }
                a.vote = Some((k, n));
            }
            "--weak" => {
                let raw = val()?;
                let Some((rate, seed)) = split_opt::<f64, u64>(&raw) else {
                    eprintln!("--weak expects RATE[:SEED], got {raw:?}");
                    return None;
                };
                if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                    eprintln!("--weak rate must be a probability in [0, 1], got {rate}");
                    return None;
                }
                a.weak = Some((rate, seed));
            }
            "--degrade" => a.degrade = true,
            "--checkpoint" => {
                let (path, every): (String, Option<u64>) = split_opt(&val()?)?;
                a.checkpoint = Some((path, every.unwrap_or(256)));
            }
            "--resume" => a.resume = Some(val()?),
            "--lenient-load" => a.lenient_load = true,
            "--trace" => a.trace = Some(val()?),
            "--out" => {
                let v = val()?;
                if a.profile {
                    a.profile_out = Some(v);
                } else {
                    a.trace = Some(v);
                }
            }
            "--metrics" => a.metrics = true,
            "--ledger" => a.ledger = Some(val()?),
            other => {
                eprintln!("unknown flag {other:?}");
                return None;
            }
        }
    }
    if a.degrade && a.weak.is_none() {
        eprintln!("--degrade requires --weak (there is no weak tier to finish on)");
        return None;
    }
    Some(a)
}

/// `prox-cli report FILE.jsonl`: summarize a trace written by `--trace`.
fn report(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("[report] read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match summarize(&text) {
        Ok(summary) => {
            print!("{}", summary.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("[report] {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `prox-cli diff A B`: semantic divergence between two traces. Exit code
/// is the verdict (0 = semantically identical), so CI can gate on it.
fn diff(a: &str, b: &str) -> ExitCode {
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(text) => Some(text),
        Err(e) => {
            eprintln!("[diff] read {path}: {e}");
            None
        }
    };
    let (Some(ta), Some(tb)) = (read(a), read(b)) else {
        return ExitCode::FAILURE;
    };
    let d = semantic_diff(&ta, &tb);
    println!("A: {a}\nB: {b}");
    print!("{}", d.render());
    if d.identical() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `prox-cli replay F`: revalidate a saved trace offline. Exit code is
/// the verdict (0 = internally consistent).
fn replay(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("[replay] read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match prox_obs::replay(&text) {
        Ok(rep) => {
            print!("{}", rep.render());
            if rep.ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("[replay] {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `prox-cli serve`: flags for the shared-store serving loop.
struct ServeArgs {
    /// `--store DIR` (required): the crash-safe WAL directory.
    store: String,
    dataset: String,
    n: usize,
    seed: u64,
    /// `--sessions N`: concurrent client sessions (round-robin lines).
    sessions: u32,
    /// `--admit CALLS`: per-group admission budget (0 = unlimited).
    admit: u64,
    /// The parsed workload (from `--client-script FILE` or generated).
    script: Vec<PairGroupQuery>,
    /// Where the workload came from, for the summary line.
    script_source: String,
    weak: Option<(f64, Option<u64>)>,
    degrade: bool,
    /// `--kill-after-commits K`: the chaos kill switch.
    kill_after_commits: Option<u64>,
    trace: Option<String>,
}

fn parse_serve() -> Option<ServeArgs> {
    let mut argv = std::env::args().skip(2);
    let mut store: Option<String> = None;
    let mut dataset = "sf".to_string();
    let mut n = 200usize;
    let mut seed = 42u64;
    let mut sessions = 1u32;
    let mut admit = 0u64;
    let mut client_script: Option<String> = None;
    let mut groups = 8usize;
    let mut weak: Option<(f64, Option<u64>)> = None;
    let mut degrade = false;
    let mut kill_after_commits: Option<u64> = None;
    let mut trace: Option<String> = None;
    while let Some(flag) = argv.next() {
        let mut val = || argv.next();
        match flag.as_str() {
            "--store" => {
                let raw = val()?;
                if raw.is_empty() || raw.starts_with('-') || std::path::Path::new(&raw).is_file() {
                    eprintln!("--store expects a directory path, got {raw:?}");
                    return None;
                }
                store = Some(raw);
            }
            "--dataset" => dataset = val()?,
            "--n" => n = val()?.parse().ok()?,
            "--seed" => seed = val()?.parse().ok()?,
            "--sessions" => {
                let raw = val()?;
                match raw.parse::<u32>() {
                    Ok(s) if s >= 1 => sessions = s,
                    _ => {
                        eprintln!("--sessions expects a positive session count, got {raw:?}");
                        return None;
                    }
                }
            }
            "--admit" => {
                let raw = val()?;
                let Ok(calls) = raw.parse::<u64>() else {
                    eprintln!("--admit expects a call count, got {raw:?}");
                    return None;
                };
                if calls == 0 {
                    eprintln!("--admit 0 admits nothing; drop the flag for unlimited admission");
                    return None;
                }
                admit = calls;
            }
            "--client-script" => client_script = Some(val()?),
            "--groups" => {
                let raw = val()?;
                match raw.parse::<usize>() {
                    Ok(g) if g >= 1 => groups = g,
                    _ => {
                        eprintln!("--groups expects a positive group count, got {raw:?}");
                        return None;
                    }
                }
            }
            "--weak" => {
                let raw = val()?;
                let Some((rate, wseed)) = split_opt::<f64, u64>(&raw) else {
                    eprintln!("--weak expects RATE[:SEED], got {raw:?}");
                    return None;
                };
                if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                    eprintln!("--weak rate must be a probability in [0, 1], got {rate}");
                    return None;
                }
                weak = Some((rate, wseed));
            }
            "--degrade" => degrade = true,
            "--kill-after-commits" => {
                let raw = val()?;
                match raw.parse::<u64>() {
                    Ok(k) if k >= 1 => kill_after_commits = Some(k),
                    _ => {
                        eprintln!(
                            "--kill-after-commits expects a positive commit count, got {raw:?}"
                        );
                        return None;
                    }
                }
            }
            "--trace" => trace = Some(val()?),
            other => {
                eprintln!("unknown serve flag {other:?}");
                return None;
            }
        }
    }
    let Some(store) = store else {
        eprintln!("serve requires --store DIR (the WAL-backed store directory shared across runs)");
        return None;
    };
    if degrade && weak.is_none() {
        eprintln!("--degrade requires --weak (there is no weak tier to finish on)");
        return None;
    }
    if n < 2 {
        eprintln!("--n must be at least 2");
        return None;
    }
    let (script, script_source) = match &client_script {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("--client-script {path}: {e}");
                    return None;
                }
            };
            match parse_script(&text, n) {
                Ok(s) => (s, path.clone()),
                Err(e) => {
                    eprintln!("--client-script {path}: {e}");
                    return None;
                }
            }
        }
        None => (
            default_script(n, groups, seed),
            format!("default workload ({groups} groups)"),
        ),
    };
    Some(ServeArgs {
        store,
        dataset,
        n,
        seed,
        sessions,
        admit,
        script,
        script_source,
        weak,
        degrade,
        kill_after_commits,
        trace,
    })
}

/// `prox-cli serve`: open (or recover) the shared store, serve the
/// script, commit everything certified, and leave the WAL behind for
/// the next client.
fn serve(args: &ServeArgs) -> ExitCode {
    let Some(dataset) = by_name(&args.dataset) else {
        eprintln!("unknown dataset {:?}", args.dataset);
        return ExitCode::FAILURE;
    };
    let metric = dataset.metric(args.n, args.seed);

    // The manifest binds the store directory to one problem instance;
    // a WAL recorded for a different dataset/n/seed is refused at open.
    let manifest: Vec<(String, String)> = [
        ("dataset", args.dataset.clone()),
        ("n", args.n.to_string()),
        ("seed", args.seed.to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();

    let mut trace_sink: Option<Rc<JsonlSink>> = None;
    let mut sink: Option<Rc<dyn TraceSink>> = None;
    if let Some(path) = &args.trace {
        match JsonlSink::create(path) {
            Ok(s) => {
                let s = Rc::new(s);
                sink = Some(Rc::<JsonlSink>::clone(&s) as Rc<dyn TraceSink>);
                trace_sink = Some(s);
            }
            Err(e) => {
                eprintln!("[trace] create {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let (store, recovery) = match SharedStore::open(
        std::path::Path::new(&args.store),
        &manifest,
        WalConfig::default(),
    ) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("[store] open {}: {e}", args.store);
            return ExitCode::FAILURE;
        }
    };
    emit_recovery(sink.as_ref(), &recovery);
    if recovery.entries > 0 || recovery.salvaged {
        let salvage = if recovery.salvaged {
            format!(
                " (salvaged; {} damaged line(s) dropped)",
                recovery.dropped_lines
            )
        } else {
            String::new()
        };
        eprintln!(
            "[store] recovered {} certified entries from {} WAL segment(s){salvage}",
            recovery.entries, recovery.segments
        );
    } else {
        eprintln!("[store] {}: empty store; starting cold", args.store);
    }

    let config = ServeConfig {
        sessions: args.sessions,
        session: SessionConfig {
            admit: args.admit,
            weak: args
                .weak
                .map(|(rate, wseed)| (rate, wseed.unwrap_or(args.seed))),
            degrade: args.degrade,
            ..SessionConfig::default()
        },
        kill_after_commits: args.kill_after_commits,
    };
    let out = BoundServer::new(&*metric, &store, config).run(&args.script, sink.as_ref());

    if let (Some(path), Some(s)) = (&args.trace, &trace_sink) {
        s.flush();
        if s.io_errors() > 0 {
            eprintln!(
                "[trace] WARNING: {path}: {} write error(s) — events may be missing",
                s.io_errors()
            );
        } else {
            eprintln!("[trace] {} events -> {path}", s.emitted());
        }
    }

    let admitted: u64 = out.stats.iter().map(|s| s.admitted).sum();
    let rejected: u64 = out.stats.iter().map(|s| s.rejected).sum();
    let degraded: u64 = out.stats.iter().map(|s| s.degraded).sum();
    let strong: u64 = out.stats.iter().map(|s| s.strong_calls).sum();
    let hits: u64 = out.stats.iter().map(|s| s.store_hits).sum();
    let commits: u64 = out.stats.iter().map(|s| s.commits).sum();
    let fenced: u64 = out.stats.iter().map(|s| s.fenced).sum();
    println!(
        "serve        : {} of {} groups served over {} session(s), {}",
        out.responses.len(),
        args.script.len(),
        args.sessions,
        args.script_source
    );
    println!("admission    : {admitted} admitted, {rejected} rejected, {degraded} degraded");
    println!("strong calls : {strong} ({hits} store hits)");
    println!("commits      : {commits} ({fenced} fenced)");
    println!(
        "store        : {} certified entries at generation {} ({} WAL-logged)",
        out.store_entries,
        out.generation,
        store.wal_entries_logged()
    );
    if args.sessions > 1 {
        for (i, s) in out.stats.iter().enumerate() {
            println!(
                "  session {i}  : {} admitted, {} rejected, {} degraded; {} strong calls, \
                 {} store hits; {} commits, {} fenced",
                s.admitted,
                s.rejected,
                s.degraded,
                s.strong_calls,
                s.store_hits,
                s.commits,
                s.fenced
            );
        }
    }
    if !out.dropped_lines.is_empty() {
        eprintln!(
            "[serve] WARNING: dropped {} group(s) (script line(s) {:?}) — admission can never \
             pass at --admit {}; raise the budget or split the group",
            out.dropped_lines.len(),
            out.dropped_lines,
            args.admit
        );
    }
    if !out.ledger.is_empty() {
        print!("{}", out.ledger.render());
    }
    if out.crashed {
        eprintln!(
            "[serve] server crashed; the WAL holds every acknowledged commit — rerun with the \
             same --store to recover and pay only the missing calls"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
        Some("serve") => {
            return match parse_serve() {
                Some(args) => serve(&args),
                None => usage(),
            };
        }
        Some("report") => {
            return match std::env::args().nth(2) {
                Some(path) => report(&path),
                None => usage(),
            };
        }
        Some("diff") => {
            return match (std::env::args().nth(2), std::env::args().nth(3)) {
                (Some(a), Some(b)) => diff(&a, &b),
                _ => usage(),
            };
        }
        Some("replay") => {
            return match std::env::args().nth(2) {
                Some(path) => replay(&path),
                None => usage(),
            };
        }
        _ => {}
    }
    let Some(args) = parse() else {
        return usage();
    };
    const ALGOS: &[&str] = &[
        "prim",
        "kruskal",
        "knng",
        "pam",
        "clarans",
        "kcenter",
        "tsp",
        "linkage",
        "complete-linkage",
        "average-linkage-cut",
    ];
    if !ALGOS.contains(&args.algo.as_str()) {
        eprintln!("unknown algorithm {:?}", args.algo);
        return usage();
    }
    let Some(dataset) = by_name(&args.dataset) else {
        eprintln!("unknown dataset {:?}", args.dataset);
        return usage();
    };
    if args.n < 2 {
        eprintln!("--n must be at least 2");
        return ExitCode::FAILURE;
    }
    let metric = dataset.metric(args.n, args.seed);
    let landmarks = args.landmarks.unwrap_or_else(|| log_landmarks(args.n));

    // Install the fault/retry/budget/corruption knobs on every oracle the
    // runner builds (bootstrap included — landmark calls can fault too).
    let wants_oracle_config = args.faults.is_some()
        || args.retry.is_some()
        || args.budget.is_some()
        || args.corrupt.is_some()
        || args.vote.is_some()
        || args.weak.is_some();
    if wants_oracle_config {
        let retry = match args.retry {
            Some((n, base_ms)) => {
                let mut p = RetryPolicy::standard(n);
                if let Some(ms) = base_ms {
                    p.base = Duration::from_millis(ms);
                }
                p
            }
            None => RetryPolicy::none(),
        };
        set_oracle_config(OracleConfig {
            faults: args
                .faults
                .map(|(rate, seed)| FaultInjector::new(rate, seed.unwrap_or(args.seed))),
            retry,
            budget: args
                .budget
                .map_or_else(CallBudget::unlimited, CallBudget::calls),
            corrupt: args
                .corrupt
                .map(|(rate, seed)| CorruptionInjector::new(rate, seed.unwrap_or(args.seed))),
            vote: args.vote,
            weak: args
                .weak
                .map(|(rate, seed)| (rate, seed.unwrap_or(args.seed))),
            degrade: args.degrade,
        });
    }

    // Pre-load a resolved-distance cache, if any. Under `--lenient-load`
    // a partially corrupted cache still contributes its clean lines
    // (each dropped line reported with its line number) instead of
    // aborting the run.
    let mut preload: Vec<(Pair, f64)> = match &args.cache {
        Some(path) => match std::fs::File::open(path) {
            Ok(f) if args.lenient_load => match load_known_lenient(std::io::BufReader::new(f)) {
                Ok(report) => {
                    for err in &report.errors {
                        eprintln!("[cache] {path}: {err}");
                    }
                    eprintln!(
                        "[cache] loaded {} resolved distances from {path} ({} line(s) dropped)",
                        report.loaded.len(),
                        report.skipped
                    );
                    report.loaded
                }
                Err(e) => {
                    eprintln!("[cache] {path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Ok(f) => match load_known(std::io::BufReader::new(f)) {
                Ok(edges) => {
                    eprintln!(
                        "[cache] loaded {} resolved distances from {path}",
                        edges.len()
                    );
                    edges
                }
                Err(e) => {
                    eprintln!("[cache] {path}: {e} (use --lenient-load to salvage)");
                    return ExitCode::FAILURE;
                }
            },
            Err(_) => {
                eprintln!("[cache] {path} not found; starting cold");
                Vec::new()
            }
        },
        None => Vec::new(),
    };

    // A checkpoint from a budget-killed (or completed) earlier run: its
    // manifest must describe the same problem, its pairs preload for free.
    if let Some(path) = &args.resume {
        let loaded = if args.lenient_load {
            read_checkpoint_file_lenient(std::path::Path::new(path)).map(|rec| {
                if rec.recovered {
                    eprintln!(
                        "[resume] {path}: salvaged verified prefix, {} damaged line(s) dropped",
                        rec.dropped_lines
                    );
                }
                rec.checkpoint
            })
        } else {
            read_checkpoint_file(std::path::Path::new(path))
        };
        match loaded {
            Ok(ckpt) => {
                for (key, want) in [
                    ("dataset", args.dataset.as_str()),
                    ("n", &args.n.to_string()),
                    ("seed", &args.seed.to_string()),
                ] {
                    if let Some(have) = ckpt.manifest_value(key) {
                        if have != want {
                            eprintln!(
                                "[resume] {path}: checkpoint {key}={have} but this run has \
                                 {key}={want}; refusing to mix problems"
                            );
                            return ExitCode::FAILURE;
                        }
                    }
                }
                eprintln!(
                    "[resume] loaded {} resolved distances from {path}",
                    ckpt.known.len()
                );
                preload.extend(ckpt.known);
            }
            Err(e) => {
                let hint = if args.lenient_load {
                    ""
                } else {
                    " (use --lenient-load to salvage the verified prefix)"
                };
                eprintln!("[resume] {path}: {e}{hint}");
                return ExitCode::FAILURE;
            }
        }
    }

    let manifest: Vec<(String, String)> = [
        ("dataset", args.dataset.clone()),
        ("n", args.n.to_string()),
        ("seed", args.seed.to_string()),
        ("algo", args.algo.clone()),
        ("plug", args.plug.label().to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();

    // Observation handles: `--trace` attaches a JSONL sink plus a metrics
    // registry; `--metrics` attaches the registry alone (no sink). Both
    // are shared with the run via `Rc`.
    let mut observers = RunObservers::default();
    let mut trace_sink: Option<Rc<JsonlSink>> = None;
    let mut run_metrics: Option<Rc<Metrics>> = None;
    if let Some(path) = &args.trace {
        match JsonlSink::create(path) {
            Ok(sink) => {
                let sink = Rc::new(sink);
                observers.trace = Some(Rc::<JsonlSink>::clone(&sink) as Rc<dyn TraceSink>);
                trace_sink = Some(sink);
            }
            Err(e) => {
                eprintln!("[trace] create {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if args.trace.is_some() || args.metrics {
        let metrics = Rc::new(Metrics::new());
        observers.metrics = Some(Rc::clone(&metrics));
        run_metrics = Some(metrics);
    }
    let run_ledger = Rc::new(RefCell::new(ProvenanceLedger::default()));
    observers.ledger = Some(Rc::clone(&run_ledger));

    let seed = args.seed;
    let run_out = {
        let algo = args.algo.clone();
        let (k, l) = (args.k, args.l);
        let checkpoint = args.checkpoint.clone();
        let manifest_for_run = manifest.clone();
        let run = move |r: &mut dyn DistanceResolver| -> Result<String, OracleError> {
            // Periodic snapshots while the algorithm runs, so a hard kill
            // (not just a budget error) still leaves a resume file.
            let mut ckpt_resolver;
            let r: &mut dyn DistanceResolver = match &checkpoint {
                Some((path, every)) => {
                    ckpt_resolver =
                        CheckpointingResolver::new(r, path.clone(), *every, manifest_for_run);
                    &mut ckpt_resolver
                }
                None => r,
            };
            match algo.as_str() {
                "prim" => {
                    let mst = try_prim_mst(r)?;
                    Ok(format!(
                        "MST weight {:.6} ({} edges)",
                        mst.total_weight,
                        mst.edges.len()
                    ))
                }
                "kruskal" => {
                    let mst = try_kruskal_mst(r)?;
                    Ok(format!(
                        "MST weight {:.6} ({} edges)",
                        mst.total_weight,
                        mst.edges.len()
                    ))
                }
                "knng" => {
                    let g = try_knn_graph(r, k)?;
                    Ok(format!("kNN graph built (k = {k}, {} nodes)", g.len()))
                }
                "pam" => {
                    let c = try_pam(
                        r,
                        PamParams {
                            l,
                            max_swaps: 50,
                            seed,
                        },
                    )?;
                    Ok(format!("PAM cost {:.6}, medoids {:?}", c.cost, c.medoids))
                }
                "clarans" => {
                    let c = try_clarans(
                        r,
                        ClaransParams {
                            l,
                            numlocal: 2,
                            maxneighbor: 150,
                            seed,
                        },
                    )?;
                    Ok(format!(
                        "CLARANS cost {:.6}, medoids {:?}",
                        c.cost, c.medoids
                    ))
                }
                "kcenter" => {
                    let s = try_k_center(r, l, 0)?;
                    Ok(format!(
                        "k-center radius {:.6}, centers {:?}",
                        s.radius, s.centers
                    ))
                }
                "tsp" => {
                    let t = try_tsp_2opt(r, 0, 50)?;
                    Ok(format!(
                        "tour length {:.6} over {} cities",
                        t.length,
                        t.order.len()
                    ))
                }
                "linkage" => {
                    let d = try_single_linkage(r)?;
                    let top = d.merges.last().map(|m| m.height).unwrap_or(0.0);
                    Ok(format!(
                        "dendrogram: {} merges, top height {:.6}",
                        d.merges.len(),
                        top
                    ))
                }
                "complete-linkage" => {
                    let d = try_complete_linkage(r)?;
                    let top = d.merges.last().map(|m| m.height).unwrap_or(0.0);
                    Ok(format!(
                        "complete-linkage dendrogram: {} merges, top height {:.6}",
                        d.merges.len(),
                        top
                    ))
                }
                "average-linkage-cut" => {
                    // Full UPGMA dendrograms provably need all pairs (see
                    // prox_algos::average_linkage); the CLI exposes the
                    // topology-only cut where bounds actually save.
                    let labels = try_average_linkage_cut(r, l)?;
                    let k = labels.iter().copied().max().map_or(0, |m| m + 1);
                    Ok(format!(
                        "average-linkage cut: {k} clusters over {} objects",
                        labels.len()
                    ))
                }
                other => unreachable!("validated algorithm name: {other}"),
            }
        };
        try_run_plugged_observed(
            args.plug,
            &*metric,
            landmarks,
            args.seed,
            &preload,
            args.cache.is_some() || args.checkpoint.is_some(),
            observers.clone(),
            run,
        )
    };
    let (outcome, result, resolved) = match run_out {
        Ok(t) => t,
        Err(e) => {
            // The bootstrap itself faulted or ran out of budget: there is
            // no resolver knowledge to checkpoint yet.
            eprintln!("aborted during bootstrap: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Persist everything we now know *before* printing: a reader closing
    // our stdout early (`prox-cli ... | head`) delivers SIGPIPE on the next
    // println, and the cache/checkpoint must survive that. The export runs
    // even when the algorithm aborted on a fault — that is the whole point
    // of resume.
    if let Some(path) = &args.cache {
        match std::fs::File::create(path) {
            Ok(f) => match save_known(std::io::BufWriter::new(f), resolved.iter().copied()) {
                Ok(count) => eprintln!("[cache] saved {count} resolved distances to {path}"),
                Err(e) => eprintln!("[cache] write {path}: {e}"),
            },
            Err(e) => eprintln!("[cache] create {path}: {e}"),
        }
    }
    if let Some((path, _)) = &args.checkpoint {
        match write_checkpoint_file(
            std::path::Path::new(path),
            &manifest,
            resolved.iter().copied(),
        ) {
            Ok(count) => eprintln!("[checkpoint] saved {count} resolved distances to {path}"),
            Err(e) => eprintln!("[checkpoint] write {path}: {e}"),
        }
    }
    if let Some(path) = &args.ledger {
        let text = run_ledger.borrow().to_jsonl();
        match std::fs::write(path, text) {
            Ok(()) => eprintln!("[ledger] saved provenance ledger to {path}"),
            Err(e) => eprintln!("[ledger] write {path}: {e}"),
        }
    }
    if let (Some(path), Some(sink)) = (&args.trace, &trace_sink) {
        sink.flush();
        if sink.io_errors() > 0 {
            eprintln!(
                "[trace] WARNING: {path}: {} write error(s) — events may be missing \
                 (`prox-cli report` flags the seq gaps)",
                sink.io_errors()
            );
        }
        // Consistency guarantee: the billed-call total recovered from the
        // trace must equal the oracle's own accounting, exactly.
        let verified = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| summarize(&text).map_err(|e| e.to_string()));
        match verified {
            Ok(s) if s.billed_calls == result.total_calls() => eprintln!(
                "[trace] {} events -> {path}; billed calls {} match oracle accounting",
                sink.emitted(),
                s.billed_calls
            ),
            Ok(s) => eprintln!(
                "[trace] WARNING: trace bills {} calls but the oracle accounted {}",
                s.billed_calls,
                result.total_calls()
            ),
            Err(e) => eprintln!("[trace] verify {path}: {e}"),
        }
    }
    // Metrics render: `--metrics` dumps the full registry on stdout in
    // stable sorted order (counters + histogram p50/p99); a `--trace`-only
    // run keeps the render on stderr so stdout stays the run summary.
    if let Some(m) = &run_metrics {
        if !m.is_empty() {
            if args.metrics {
                print!("{}", m.render());
            } else {
                eprint!("{}", m.render());
            }
        }
    }

    let summary = match outcome {
        Ok(summary) => summary,
        Err(e) => {
            eprintln!("aborted: {e}");
            match &args.checkpoint {
                Some((path, _)) => eprintln!(
                    "progress saved; rerun with `--resume {path}` to pay only the missing calls"
                ),
                None => eprintln!("rerun with --checkpoint FILE to make runs resumable"),
            }
            return ExitCode::FAILURE;
        }
    };

    println!("{summary}");
    println!(
        "oracle calls : {} (bootstrap {}, algorithm {})",
        result.total_calls(),
        result.bootstrap_calls,
        result.algo_calls
    );
    if wants_oracle_config {
        let f = result.fault_stats;
        println!(
            "fault path   : {} faults injected, {} retries, {:.3?} virtual backoff",
            f.faults_injected, f.retries, f.backoff_time
        );
    }
    if args.corrupt.is_some() || args.vote.is_some() {
        let c = result.corruption;
        println!(
            "audit        : {} corruptions injected; {} detected, {} repaired, {} retracted, \
             {} re-queries billed",
            result.fault_stats.corruptions_injected,
            c.detected,
            c.repaired,
            c.retracted,
            c.requeries
        );
    }
    if args.weak.is_some() {
        let w = result.weak;
        println!(
            "weak tier    : {} resolutions ({} probes, {} errors injected); \
             {} lies caught, {} no-quorum escalations",
            w.resolutions, w.probes, w.errors_injected, w.lies_detected, w.no_quorum
        );
    }
    if let Some(d) = result.degraded {
        let r = d.report;
        println!(
            "degraded     : strong tier lost after {} calls ({}); finished on weak+bounds \
             ({} certified, {} weak-only, {} unresolved)",
            r.strong_calls_at_loss,
            d.reason.name(),
            r.certified,
            r.weak_only,
            r.unresolved
        );
    }
    println!(
        "cpu time     : {:.3?} (bootstrap {:.3?})",
        result.wall, result.bootstrap_wall
    );
    if args.oracle_cost_ms > 0 {
        let cost = Duration::from_millis(args.oracle_cost_ms);
        println!(
            "completion   : {:.3?} at {} ms/call",
            result.completion_time(cost),
            args.oracle_cost_ms
        );
    }
    println!(
        "without plug : {} calls (all pairs)",
        Pair::count(metric.len())
    );
    {
        // Where every resolved pair's value came from (invariant I11:
        // these rows sum to the billed-call and resolution totals).
        let l = run_ledger.borrow();
        if !l.is_empty() {
            print!("{}", l.render());
        }
    }
    if args.profile {
        let trace_path = args.trace.as_deref().expect("profile mode always traces");
        match std::fs::read_to_string(trace_path)
            .map_err(|e| e.to_string())
            .and_then(|text| SpanTree::from_trace(&text).map_err(|e| e.to_string()))
        {
            Ok(tree) => {
                print!("{}", tree.render());
                if let Some(out) = &args.profile_out {
                    match std::fs::write(out, tree.fold()) {
                        Ok(()) => eprintln!("[profile] collapsed stacks -> {out}"),
                        Err(e) => eprintln!("[profile] write {out}: {e}"),
                    }
                }
            }
            Err(e) => {
                eprintln!("[profile] {trace_path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    ExitCode::SUCCESS
}
