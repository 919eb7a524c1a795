//! `prox-perf compare A.json B.json`: per workload and end-to-end metric,
//! both medians, the change, the bound from `BENCHMARK.json`, and a
//! verdict.

use std::path::Path;

use crate::json::Json;
use crate::stats::{median, spread};

/// End-to-end metrics that are exact for a seed. They are compared seed by
/// seed, not by median: a seed on which one got worse at all is a
/// regression, whatever the bound.
const EXACT: [&str; 1] = ["oracle_calls"];

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// How one metric moved between two result sets.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the bound allows.
    Regression,
    /// One side's run-to-run spread exceeds the bound.
    Unresolved,
}

/// Judges metric values `a` (before) against `b` (after).
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    let worse = if lower_is_better { change } else { -change };
    let v = if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (change, v)
}

/// Judges an exact metric run by run: `a[i]` and `b[i]` come from the same
/// seed. Returns how many seeds got worse and the verdict.
pub fn exact_verdict(a: &[f64], b: &[f64], lower_is_better: bool) -> (usize, Verdict) {
    if a.len() != b.len() {
        return (0, Verdict::Unresolved);
    }
    let worse = a
        .iter()
        .zip(b)
        .filter(|&(x, y)| if lower_is_better { y > x } else { y < x })
        .count();
    let v = if worse > 0 {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (worse, v)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    // A result set may be a whole file or the last line of a run's output.
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    Json::parse(&text)
        .or_else(|_| Json::parse(last))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn declared(bench: &Json) -> Result<Vec<Declared>, String> {
    bench
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .items()
        .iter()
        .map(|m| {
            Ok(Declared {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without name")?
                    .into(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// Values of `metric` across the runs of one workload in a result set.
fn values(runs: &Json, metric: &str) -> Vec<f64> {
    runs.items()
        .iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Prints the comparison table; returns `Ok(true)` when no metric of any
/// workload regressed past its bound and every run was correct.
pub fn run(a: &Path, b: &Path, bench: &Path) -> Result<bool, String> {
    let metrics = declared(&load(bench)?)?;
    let (set_a, set_b) = (load(a)?, load(b)?);
    let (wa, wb) = (
        set_a.get("workloads").ok_or("A is not a result set")?,
        set_b.get("workloads").ok_or("B is not a result set")?,
    );
    // Runs pair up by seed when both sets start from the same one.
    let paired = set_a.get("seed").is_some() && set_a.get("seed") == set_b.get("seed");
    let mut clean = true;
    println!(
        "{:<20} {:<14} {:>14} {:>14} {:>9} {:>7} {:>9} {:>9}  verdict",
        "workload", "metric", "median A", "median B", "change", "bound", "spread A", "spread B"
    );
    for (name, runs_a) in wa.members() {
        let Some(runs_b) = wb.get(name) else {
            println!("{name:<20} missing from B");
            clean = false;
            continue;
        };
        for runs in [runs_a, runs_b] {
            let bad = runs
                .items()
                .iter()
                .filter(|r| r.get("correct").and_then(Json::as_bool) != Some(true))
                .count();
            if bad > 0 {
                println!("{name:<20} {bad} incorrect run(s)");
                clean = false;
            }
        }
        for m in &metrics {
            let (va, vb) = (values(runs_a, &m.name), values(runs_b, &m.name));
            if va.is_empty() || vb.is_empty() {
                println!("{name:<20} {:<14} missing", m.name);
                clean = false;
                continue;
            }
            let (change, mut v) = verdict(&va, &vb, m.lower_is_better, m.bound);
            let mut bound = format!("{:>6.1}%", m.bound * 100.0);
            let mut note = String::new();
            if EXACT.contains(&m.name.as_str()) {
                let (worse, exact) = exact_verdict(&va, &vb, m.lower_is_better);
                v = if paired { exact } else { Verdict::Unresolved };
                bound = format!("{:>7}", "exact");
                note = if paired {
                    format!(" ({worse} of {} seeds worse)", va.len())
                } else {
                    " (the sets' seeds differ)".to_string()
                };
            }
            clean &= v != Verdict::Regression;
            println!(
                "{name:<20} {:<14} {:>14.6} {:>14.6} {:>+8.2}% {bound} {:>8.2}% {:>8.2}%  {}{note}",
                m.name,
                median(&va),
                median(&vb),
                change * 100.0,
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        let slower = [1.20, 1.21, 1.19, 1.20, 1.22];
        assert_eq!(verdict(&a, &a, true, 0.1).1, Verdict::Ok);
        let (change, v) = verdict(&a, &slower, true, 0.1);
        assert!((change - 0.2).abs() < 1e-9);
        assert_eq!(v, Verdict::Regression);
        // Higher-is-better metrics regress the other way.
        assert_eq!(verdict(&slower, &a, false, 0.1).1, Verdict::Regression);
        assert_eq!(verdict(&a, &slower, false, 0.1).1, Verdict::Ok);
        let noisy = [0.5, 1.0, 1.5, 2.0, 1.0];
        assert_eq!(verdict(&a, &noisy, true, 0.1).1, Verdict::Unresolved);
    }

    #[test]
    fn exact_metrics_regress_on_any_worse_seed() {
        let calls = [1000.0, 1020.0, 980.0, 1010.0];
        assert_eq!(exact_verdict(&calls, &calls, true), (0, Verdict::Ok));
        // One seed bills one call more: within any median bound, but a
        // regression for an exact metric.
        let one_more = [1000.0, 1021.0, 980.0, 1010.0];
        assert!(verdict(&calls, &one_more, true, 0.1).1 == Verdict::Ok);
        assert_eq!(
            exact_verdict(&calls, &one_more, true),
            (1, Verdict::Regression)
        );
        let fewer = [999.0, 1020.0, 970.0, 1010.0];
        assert_eq!(exact_verdict(&calls, &fewer, true), (0, Verdict::Ok));
        assert_eq!(
            exact_verdict(&calls, &calls[..3], true).1,
            Verdict::Unresolved
        );
    }
}
