//! `prox-perf`: the end-to-end and per-layer benchmark of the prox
//! workspace. See `README.md` next to this package for the workloads, the
//! metrics and how to read them.
//!
//! ```text
//! prox-perf [--workload W] [--seed S] [--seconds T] [--trace [0|1]]
//!           [--repeat N] [--out FILE]
//! prox-perf compare A.json B.json [--bench BENCHMARK.json]
//! ```
//!
//! With `--workload` alone, one workload runs in this process and the last
//! line of standard output is its result object. Otherwise every selected
//! workload runs `--repeat` times (seeds `S, S+1, …`), each run in a child
//! process of its own so peak memory is per workload, and the last line is
//! the result set that `compare` reads.

mod algo;
mod compare;
mod json;
mod serve;
mod spans;
mod stats;
mod timed;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use algo::{Algo, AlgoWorkload, Inputs, Plug};
use json::{quote, Json};
use serve::ServeWorkload;
use spans::Spans;
use stats::{median, Summary};

/// The metric type every workload measures through.
pub type DynMetric = dyn prox_core::Metric + Send + Sync;

/// Per-layer readings of one traced run, by metric name.
pub type Layers = Vec<(&'static str, f64)>;

/// Virtual cost of one oracle call in `completion_s`: the paper's cheapest
/// setting (§5.6), where the CPU spent to avoid calls matters most.
pub const CALL_COST_S: f64 = 1e-5;

/// Prim's MST on a road network, Tri + landmarks: the paper's Table 2/3
/// setting, with scheme queries interleaved with `record`.
pub const PRIM: AlgoWorkload = AlgoWorkload {
    name: "prim-road-tri",
    dataset: "urbangb",
    n: 1500,
    plug: Plug::TriLandmarks,
    algo: Algo::Prim,
    inputs: Inputs::Fixed,
};

/// kNN graph on the clustered plane with SPLUB: scheme queries (cascade,
/// Dijkstra, ADO) dominate and few calls are made.
pub const KNNG: AlgoWorkload = AlgoWorkload {
    name: "knng-plane-splub",
    dataset: "sf",
    n: 200,
    plug: Plug::Splub,
    algo: Algo::Knn(10),
    inputs: Inputs::PerSeed(12),
};

/// PAM on 256-d vectors, Tri + landmarks: resolver memo and algorithm self
/// time dominate.
pub const PAM: AlgoWorkload = AlgoWorkload {
    name: "pam-vectors-tri",
    dataset: "flickr",
    n: 300,
    plug: Plug::TriLandmarks,
    algo: Algo::Pam(10),
    inputs: Inputs::Fixed,
};

/// Two client sessions on two pool threads over one shared store: writes
/// next to reads. A pass of 1000 groups already fills the store to about
/// 19k entries (a 6000-group pass bills 21.8k calls). Longer passes do not
/// steady the timing, since serve follows the host's drift over minutes
/// whatever the pass length, so a run takes the median of many short
/// passes instead.
pub const SERVE: ServeWorkload = ServeWorkload {
    name: "serve-plane-blocks",
    n: 2000,
    groups: 1000,
};

/// Every workload, in run order.
pub const WORKLOADS: [&str; 4] = [PRIM.name, KNNG.name, PAM.name, SERVE.name];

/// End-to-end metrics `(name, unit)`, reported with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("completion_s", "s"),
    ("oracle_calls", "count"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by the traced run. A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("datasets.build_s", "s"),
    ("core.oracle.calls", "count"),
    ("core.oracle.metric_s", "s"),
    ("bounds.resolver.calls", "count"),
    ("bounds.resolver.self_s", "s"),
    ("bounds.resolver.memo_hits", "count"),
    ("bounds.resolver.decided_frac", "ratio"),
    ("bounds.scheme.query_calls", "count"),
    ("bounds.scheme.query_s", "s"),
    ("bounds.scheme.query_ns_p50", "ns"),
    ("bounds.scheme.query_ns_p99", "ns"),
    ("bounds.scheme.update_calls", "count"),
    ("bounds.scheme.update_s", "s"),
    ("bounds.scheme.update_ns_p50", "ns"),
    ("bounds.bootstrap_s", "s"),
    ("bounds.bootstrap_calls", "count"),
    ("bounds.splub.decided_ado", "count"),
    ("bounds.splub.decided_bidi", "count"),
    ("bounds.splub.decided_full", "count"),
    ("algos.self_s", "s"),
    ("serve.group_ms_p50", "ms"),
    ("serve.group_ms_p99", "ms"),
    ("serve.groups_per_s", "1/s"),
    ("serve.snapshot_ns_p50", "ns"),
    ("serve.snapshot_entries_mean", "count"),
    ("serve.run_group_ns_p50", "ns"),
    ("serve.run_group_ns_p99", "ns"),
    ("serve.preload_entries", "count"),
    ("serve.commit_ns_p50", "ns"),
    ("serve.commit_ns_p99", "ns"),
    ("serve.commits", "count"),
    ("serve.wal_bytes_written", "bytes"),
    ("serve.store_hit_frac", "ratio"),
    ("exec.cell_busy_frac", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// Default `--seed` (the paper's conference date).
const DEFAULT_SEED: u64 = 20210620;
/// Default `--seconds`, matching `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 18.0;

/// One reported number.
struct Reading {
    name: &'static str,
    value: f64,
    samples: usize,
    tail: Option<(u32, f64)>,
}

/// The numbers one workload run reports, in the order they were set.
#[derive(Default)]
pub struct Readings {
    list: Vec<Reading>,
}

impl Readings {
    /// Sets `name` to `value`, measured over `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.list.retain(|r| r.name != name);
        self.list.push(Reading {
            name,
            value,
            samples,
            tail: None,
        });
    }

    /// Sets `name` to the median of `values`, keeping its tail for the report.
    pub fn timing(&mut self, name: &'static str, values: &[f64]) {
        let s = Summary::of(values);
        self.set(name, s.median, s.count);
        if let Some(last) = self.list.last_mut() {
            last.tail = s.tail;
        }
    }

    /// Sets every name in `runs` to its median across the runs.
    pub fn median_of(&mut self, runs: &[Layers]) {
        let Some(first) = runs.first() else { return };
        for &(name, _) in first {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.iter().find(|(n, _)| *n == name).map(|&(_, v)| v))
                .collect();
            self.set(name, median(&values), values.len());
        }
    }

    fn get(&self, name: &str) -> Option<&Reading> {
        self.list.iter().find(|r| r.name == name)
    }
}

/// What one workload run reports.
pub struct Outcome {
    /// Checked operations: algorithm runs, or serve groups.
    pub attempted: u64,
    /// Operations whose output missed the reference (or that failed).
    pub failed: u64,
    pub readings: Readings,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    pub fn exit_code(&self) -> u8 {
        u8::from(!self.correct())
    }

    /// The result line: every declared metric of the run's kind, in
    /// declaration order (0 where a layer is not exercised).
    fn json(&self, trace: bool) -> String {
        let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = declared
            .iter()
            .map(|&(name, unit)| {
                let value = self.readings.get(name).map_or(0.0, |r| r.value);
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(name),
                    num(value),
                    quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The human-readable report: every reading with unit and samples.
    fn report(&self, workload: &str) -> String {
        let mut out = format!(
            "== {workload}: {} of {} checked operations correct\n",
            self.attempted - self.failed.min(self.attempted),
            self.attempted
        );
        let all = END_TO_END.iter().chain(PER_LAYER.iter());
        for r in &self.readings.list {
            let unit = all
                .clone()
                .find(|(n, _)| *n == r.name)
                .map_or("", |(_, u)| u);
            let unit = if r.name == "serve.wal_bytes_written" {
                "bytes (computed)"
            } else {
                unit
            };
            let tail = r.tail.map_or(String::new(), |(q, v)| {
                format!("  p{} {:.6}", f64::from(q) / 10.0, v)
            });
            out += &format!(
                "  {:<30} {:>16.6} {:<16} n={}{tail}\n",
                r.name, r.value, unit, r.samples
            );
        }
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Repeats a set-up step at least three times and until it has taken
/// 0.3 s (at most 500 times). `step` returns what it built, its set-up
/// time and the dataset-build part of that time; the last build is kept.
pub fn repeat_setup<T>(mut step: impl FnMut() -> (T, f64, f64)) -> (T, Vec<f64>, Vec<f64>) {
    let (mut setup, mut build) = (Vec::new(), Vec::new());
    loop {
        let (value, s, b) = step();
        setup.push(s);
        build.push(b);
        if setup.len() >= 500 || (setup.len() >= 3 && setup.iter().sum::<f64>() >= 0.3) {
            return (value, setup, build);
        }
    }
}

/// This process's peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Serializes the tests that set the process-wide pool size, and sets it.
#[cfg(test)]
pub fn test_pool(threads: usize) -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let guard = LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    prox_exec::set_global_threads(threads);
    guard
}

/// Where the benchmark writes spans and serve stores: `prox-perf/` under
/// the cargo target directory.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("prox-perf")
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<u64>,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: prox-perf [--workload W] [--seed S] [--seconds T] [--trace [0|1]] \
                     [--repeat N] [--out FILE]\n       prox-perf compare A.json B.json \
                     [--bench BENCHMARK.json]";

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: None,
        out: None,
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).ok_or(format!("{} needs a value", args[i]));
        match args[i].as_str() {
            "--workload" => {
                let w = value(i)?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?} (one of {WORKLOADS:?})"));
                }
                a.workload = Some(w.clone());
            }
            "--seed" => a.seed = value(i)?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                a.seconds = value(i)?.parse().map_err(|_| "--seconds takes a number")?;
                if !(a.seconds >= 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--repeat" => {
                let n: u64 = value(i)?.parse().map_err(|_| "--repeat takes an integer")?;
                a.repeat = Some(n.max(1));
            }
            "--out" => a.out = Some(PathBuf::from(value(i)?)),
            "--trace" => {
                a.trace = true;
                match args.get(i + 1).map(String::as_str) {
                    Some("0") => a.trace = false,
                    Some("1") => {}
                    _ => {
                        i += 1;
                        continue;
                    }
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    Ok(a)
}

/// Runs one workload in this process.
fn run_one(name: &str, a: &Args) -> Result<Outcome, String> {
    let mut spans = Spans::new();
    let outcome = match name {
        n if n == SERVE.name => {
            serve::run(&SERVE, a.seed, a.seconds, a.trace, &mut spans, &out_dir())
                .map_err(|e| format!("serve store: {e}"))?
        }
        n => {
            let w = [PRIM, KNNG, PAM]
                .into_iter()
                .find(|w| w.name == n)
                .ok_or(format!("unknown workload {n:?}"))?;
            algo::run(&w, a.seed, a.seconds, a.trace, &mut spans)
        }
    };
    if a.trace {
        let path = out_dir().join(format!("{name}.spans.jsonl"));
        spans
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    }
    Ok(outcome)
}

/// Runs `name` with `seed` in a child process; returns its result line,
/// parsed and as text, and whether the child exited cleanly.
fn run_child(name: &str, seed: u64, a: &Args) -> Result<(Json, String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if a.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    let result = Json::parse(last).map_err(|e| format!("{name} seed {seed}: no result ({e})"))?;
    Ok((result, last.to_string(), output.status.success()))
}

/// Runs the selected workloads `--repeat` times, one child per run, and
/// prints (and optionally writes) the result set.
fn run_set(a: &Args) -> Result<bool, String> {
    let names: Vec<&str> = match &a.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let repeat = a.repeat.unwrap_or(1);
    let mut all_ok = true;
    let mut results: Vec<(&str, Vec<(Json, String)>)> =
        names.iter().map(|&n| (n, Vec::new())).collect();
    for i in 0..repeat {
        for (name, runs) in results.iter_mut() {
            let (result, line, ok) = run_child(name, a.seed + i, a)?;
            all_ok &= ok;
            runs.push((result, line));
        }
    }
    let declared: &[(&str, &str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
    eprintln!(
        "\n== medians over {repeat} run(s) per workload, seeds {}..{}",
        a.seed,
        a.seed + repeat - 1
    );
    for (name, runs) in &results {
        eprintln!("{name}");
        for &(metric, unit) in declared {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|(r, _)| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
                .collect();
            eprintln!(
                "  {metric:<30} {:>16.6} {unit:<6} spread {:>6.2}%",
                median(&values),
                stats::spread(&values) * 100.0
            );
        }
    }
    let body: Vec<String> = results
        .iter()
        .map(|(name, runs)| {
            let lines: Vec<&str> = runs.iter().map(|(_, line)| line.as_str()).collect();
            format!("{}: [{}]", quote(name), lines.join(", "))
        })
        .collect();
    let set = format!(
        "{{\"seed\": {}, \"repeat\": {repeat}, \"seconds\": {}, \"trace\": {}, \"workloads\": {{{}}}}}",
        a.seed,
        a.seconds,
        u8::from(a.trace),
        body.join(", ")
    );
    if let Some(path) = &a.out {
        std::fs::write(path, format!("{set}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{set}");
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let mut files = Vec::new();
        let mut bench = PathBuf::from("BENCHMARK.json");
        let mut it = args[1..].iter();
        while let Some(arg) = it.next() {
            match (arg.as_str(), it.clone().next()) {
                ("--bench", Some(path)) => {
                    bench = PathBuf::from(path);
                    it.next();
                }
                _ => files.push(PathBuf::from(arg)),
            }
        }
        let [a, b] = files.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare::run(a, b, Path::new(&bench)) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let a = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (&a.workload, a.repeat) {
        (Some(name), None) => match run_one(name, &a) {
            Ok(outcome) => {
                eprint!("{}", outcome.report(name));
                println!("{}", outcome.json(a.trace));
                ExitCode::from(outcome.exit_code())
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        _ => match run_set(&a) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_what_the_binary_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bench = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            bench
                .get(key)
                .unwrap()
                .items()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = bench
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let seconds = bench.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert_eq!(seconds, DEFAULT_SECONDS);
    }

    #[test]
    fn result_line_has_every_declared_metric() {
        let mut r = Readings::default();
        r.set("run_s", 1.5, 11);
        r.timing("setup_s", &[0.25, 0.5, 0.75]);
        let o = Outcome {
            attempted: 12,
            failed: 0,
            readings: r,
        };
        let line = Json::parse(&o.json(false)).unwrap();
        let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").unwrap();
        assert_eq!(metrics.members().len(), END_TO_END.len());
        assert_eq!(
            metrics
                .get("setup_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.5)
        );
        assert_eq!(
            metrics.get("run_s").unwrap().get("unit").unwrap().as_str(),
            Some("s")
        );
        let traced = Json::parse(&o.json(true)).unwrap();
        assert_eq!(
            traced.get("metrics").unwrap().members().len(),
            PER_LAYER.len()
        );
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse(&args("--trace")).unwrap().trace);
        assert!(parse(&args("--trace 1 --seed 4")).unwrap().trace);
        let a = parse(&args("--trace 0 --seed 4 --workload knng-plane-splub")).unwrap();
        assert!(!a.trace && a.seed == 4);
        assert!(parse(&args("--trace --seed 7")).unwrap().trace);
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--seconds -1")).is_err());
    }
}
