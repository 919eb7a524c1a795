//! The CI bench-smoke regression gate (`cargo xtask bench-gate`).
//!
//! The SPLUB rebuild (DESIGN.md §13) pins SPLUB's per-query latency:
//! with the per-generation memo and incremental tree repair in place, the
//! committed `bound_query/splub/256` median must sit within
//! [`MAX_RATIO`] × of the `bound_query/tri/256` median. Before the
//! rebuild the gap was ~1200×
//! (8.7 ms vs 7.3 µs per 256-query sweep); the gate fails the bench-smoke
//! job if SPLUB regresses back toward full-sweep-per-query behaviour.
//!
//! The input is the `BENCH_schemes.json` the bench harness emits: a JSON
//! array of flat objects, one per bench cell —
//!
//! ```json
//! [
//!   {"name": "bound_query/tri/256", "median_ns": 7312.4, "mean_ns": ..., "iters": 768},
//!   {"name": "bound_query/splub/256", "median_ns": 8747915.0, ...}
//! ]
//! ```
//!
//! The parser below is deliberately minimal (the workspace is
//! dependency-free): it only needs each row's `"name"` string and
//! `"median_ns"` number, and it rejects anything it cannot understand
//! rather than guessing.

/// The gate: `bound_query/splub/256` must be ≤ `MAX_RATIO` × `tri/256`.
pub const MAX_RATIO: f64 = 100.0;

/// The numerator / denominator bench cells the gate compares.
pub const SPLUB_CELL: &str = "bound_query/splub/256";
pub const TRI_CELL: &str = "bound_query/tri/256";

/// The weak-cascade zero-cost gate: with `--weak` off the runner hands
/// algorithms the bare resolver, so the `disabled` cell must stay within
/// [`WEAK_MAX_RATIO`] × of `clean` (the two loops are identical today;
/// the gate fails if cascade machinery ever leaks onto the default path).
pub const WEAK_MAX_RATIO: f64 = 2.0;
pub const WEAK_DISABLED_CELL: &str = "oracle_weak_layer/disabled";
pub const WEAK_CLEAN_CELL: &str = "oracle_weak_layer/clean";

/// The span-profiler zero-cost gate: with no trace sink attached every
/// `SpanGuard::enter` is a single `Option` discriminant test, so the
/// `disabled` cell (spans in the code, sink detached) must stay within
/// [`SPAN_MAX_RATIO`] × of `clean` (no observability at all). The gate
/// fails if span bookkeeping ever leaks onto the detached path.
pub const SPAN_MAX_RATIO: f64 = 2.0;
pub const SPAN_DISABLED_CELL: &str = "oracle_span_layer/disabled";
pub const SPAN_CLEAN_CELL: &str = "oracle_span_layer/clean";

/// The serve-layer overhead gate: a warm single-session group query served
/// from a store snapshot must stay within [`STORE_MAX_RATIO`] × of the same
/// mix resolved on a preloaded `BoundResolver` directly. The serving layer
/// adds a snapshot, admission accounting, and a commit check — but no
/// strong calls and no WAL fsyncs on the warm path — so a blow-up here
/// means bookkeeping leaked into the per-pair loop.
pub const STORE_MAX_RATIO: f64 = 2.0;
pub const STORE_SERVE_CELL: &str = "store_layer/serve";
pub const STORE_DIRECT_CELL: &str = "store_layer/direct";

/// The round-view gate: a serve round reads through a view that shares the
/// store's immutable runs, so taking it and serving one held 66-pair block
/// (`store_layer/view`) must cost at most [`STORE_VIEW_MAX_RATIO`] × the
/// same round through the flat `snapshot()` copy (`store_layer/snapshot`)
/// on a 13.5k-entry store. The gate fails if the round view ever starts
/// copying the store again.
pub const STORE_VIEW_MAX_RATIO: f64 = 0.25;
pub const STORE_VIEW_CELL: &str = "store_layer/view";
pub const STORE_SNAPSHOT_CELL: &str = "store_layer/snapshot";

/// The Tri anchor-row gate: every query of a chain `(a,b), (b,c), …` misses
/// the anchor it finds, and the anchor moves only after two misses in a row,
/// so the chain alternates a re-anchor plus row pass (`R`) with a merge
/// (`M`) and `chain` prices `(R + M) / 2`; `random` (no shared endpoints)
/// prices the plain merge. Holding `chain` within
/// [`TRI_ACCESS_MAX_RATIO`] × of `random` gives `R ≤ 1.5 M`: a wrong
/// re-anchor guess costs at most half a merge extra.
pub const TRI_ACCESS_MAX_RATIO: f64 = 1.25;
pub const TRI_CHAIN_CELL: &str = "bound_query/tri_access/chain";
pub const TRI_RANDOM_CELL: &str = "bound_query/tri_access/random";

/// One parsed bench row: the cell name and its median latency.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    pub name: String,
    pub median_ns: f64,
}

/// Parses the bench JSON into rows, or explains what is malformed.
///
/// Accepts exactly the shape the harness writes: an array of objects whose
/// fields are string or number literals (no nesting). Field order inside a
/// row is free; unknown fields are ignored.
pub fn parse_rows(json: &str) -> Result<Vec<BenchRow>, String> {
    let mut rows = Vec::new();
    let body = json.trim();
    let body = body
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or("expected a top-level JSON array")?;
    for (i, obj) in split_objects(body)?.into_iter().enumerate() {
        let mut name = None;
        let mut median = None;
        for (key, val) in split_fields(&obj)? {
            match key.as_str() {
                "name" => {
                    name = Some(
                        val.strip_prefix('"')
                            .and_then(|v| v.strip_suffix('"'))
                            .ok_or_else(|| format!("row {i}: \"name\" is not a string: {val}"))?
                            .to_string(),
                    );
                }
                "median_ns" => {
                    median =
                        Some(val.parse::<f64>().map_err(|_| {
                            format!("row {i}: \"median_ns\" is not a number: {val}")
                        })?);
                }
                _ => {}
            }
        }
        match (name, median) {
            (Some(name), Some(median_ns)) => rows.push(BenchRow { name, median_ns }),
            _ => return Err(format!("row {i}: missing \"name\" or \"median_ns\"")),
        }
    }
    Ok(rows)
}

/// Splits the inside of a JSON array into the `{...}` object bodies.
fn split_objects(body: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut start = None;
    for (i, c) in body.char_indices() {
        match c {
            '"' if !in_str => in_str = true,
            '"' if in_str => in_str = false,
            '{' if !in_str => {
                if depth == 0 {
                    start = Some(i + 1);
                }
                depth += 1;
            }
            '}' if !in_str => {
                depth = depth.checked_sub(1).ok_or("unbalanced braces")?;
                if depth == 0 {
                    let s = start.take().ok_or("unbalanced braces")?;
                    out.push(body[s..i].to_string());
                }
            }
            _ => {}
        }
    }
    if depth != 0 || in_str {
        return Err("unbalanced braces or unterminated string".to_string());
    }
    Ok(out)
}

/// Splits a flat object body into `(key, raw value)` pairs.
fn split_fields(obj: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    // Top-level commas only (values are scalars, so a comma inside a string
    // is the only hazard).
    let mut fields = Vec::new();
    let mut in_str = false;
    let mut start = 0usize;
    for (i, c) in obj.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                fields.push(&obj[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    fields.push(&obj[start..]);
    for f in fields {
        let f = f.trim();
        if f.is_empty() {
            continue;
        }
        let (k, v) = f
            .split_once(':')
            .ok_or_else(|| format!("malformed field: {f}"))?;
        let key = k
            .trim()
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .ok_or_else(|| format!("malformed key: {k}"))?;
        out.push((key.to_string(), v.trim().to_string()));
    }
    Ok(out)
}

/// Every gate: `(numerator cell, denominator cell, limit, failure)`. The
/// numerator's median must be at most `limit` × the denominator's.
const GATES: [(&str, &str, f64, &str); 6] = [
    (
        SPLUB_CELL,
        TRI_CELL,
        MAX_RATIO,
        "SPLUB query latency regressed past its gate",
    ),
    (
        WEAK_DISABLED_CELL,
        WEAK_CLEAN_CELL,
        WEAK_MAX_RATIO,
        "the cascade-disabled path is no longer free",
    ),
    (
        SPAN_DISABLED_CELL,
        SPAN_CLEAN_CELL,
        SPAN_MAX_RATIO,
        "the detached span path is no longer free",
    ),
    (
        STORE_SERVE_CELL,
        STORE_DIRECT_CELL,
        STORE_MAX_RATIO,
        "the warm serve path outgrew direct resolution",
    ),
    (
        STORE_VIEW_CELL,
        STORE_SNAPSHOT_CELL,
        STORE_VIEW_MAX_RATIO,
        "the round view no longer shares the store's runs",
    ),
    (
        TRI_CHAIN_CELL,
        TRI_RANDOM_CELL,
        TRI_ACCESS_MAX_RATIO,
        "a Tri re-anchor costs more than half a merge",
    ),
];

/// Runs the gate against parsed rows. `Ok` carries the human-readable
/// verdict line; `Err` explains the failure (missing cell or regression).
pub fn check(rows: &[BenchRow]) -> Result<String, String> {
    let verdicts = GATES
        .iter()
        .map(|&(numerator, denominator, limit, failure)| {
            ratio_gate(rows, numerator, denominator, limit, failure)
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(verdicts.join("; "))
}

/// One gate. `Ok` carries the verdict; `Err` names a missing or degenerate
/// cell, or prefixes the verdict with `failure`.
fn ratio_gate(
    rows: &[BenchRow],
    numerator: &str,
    denominator: &str,
    limit: f64,
    failure: &str,
) -> Result<String, String> {
    let median = |cell: &str| {
        rows.iter()
            .find(|r| r.name == cell)
            .map(|r| r.median_ns)
            .ok_or_else(|| format!("bench cell `{cell}` not found in the JSON"))
    };
    let (num, den) = (median(numerator)?, median(denominator)?);
    if !(num.is_finite() && den.is_finite()) || den <= 0.0 {
        return Err(format!(
            "degenerate medians: {numerator} = {num}, {denominator} = {den}"
        ));
    }
    let ratio = num / den;
    let verdict = format!(
        "{numerator} = {num} ns, {denominator} = {den} ns, ratio {ratio:.2}x (limit {limit}x)"
    );
    if ratio > limit {
        return Err(format!("{failure}: {verdict}"));
    }
    Ok(verdict)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"[
  {"name": "bound_query/tri/256", "median_ns": 7312.4, "mean_ns": 7310.2, "min_ns": 6198.0, "iters": 768},
  {"name": "bound_query/splub/256", "median_ns": 70000.0, "mean_ns": 71000.0, "min_ns": 69000.0, "iters": 64},
  {"name": "oracle_weak_layer/clean", "median_ns": 96000.0, "iters": 64},
  {"name": "oracle_weak_layer/disabled", "median_ns": 99000.0, "iters": 64},
  {"name": "oracle_span_layer/clean", "median_ns": 88000.0, "iters": 64},
  {"name": "oracle_span_layer/disabled", "median_ns": 90000.0, "iters": 64},
  {"name": "store_layer/direct", "median_ns": 40000.0, "iters": 64},
  {"name": "store_layer/serve", "median_ns": 52000.0, "iters": 64},
  {"name": "store_layer/view", "median_ns": 11000.0, "iters": 512},
  {"name": "store_layer/snapshot", "median_ns": 96000.0, "iters": 64},
  {"name": "bound_query/tri_access/chain", "median_ns": 110.0, "iters": 64},
  {"name": "bound_query/tri_access/random", "median_ns": 100.0, "iters": 64}
]"#;

    fn row(name: &str, median_ns: f64) -> BenchRow {
        BenchRow {
            name: name.to_string(),
            median_ns,
        }
    }

    /// All twelve gated cells at healthy medians; tests perturb from here.
    fn healthy() -> Vec<BenchRow> {
        vec![
            row(TRI_CELL, 7000.0),
            row(SPLUB_CELL, 70000.0),
            row(WEAK_CLEAN_CELL, 96000.0),
            row(WEAK_DISABLED_CELL, 99000.0),
            row(SPAN_CLEAN_CELL, 88000.0),
            row(SPAN_DISABLED_CELL, 90000.0),
            row(STORE_DIRECT_CELL, 40000.0),
            row(STORE_SERVE_CELL, 52000.0),
            row(TRI_CHAIN_CELL, 110.0),
            row(TRI_RANDOM_CELL, 100.0),
            row(STORE_VIEW_CELL, 12000.0),
            row(STORE_SNAPSHOT_CELL, 96000.0),
        ]
    }

    #[test]
    fn parses_rows_and_passes_within_ratio() {
        let rows = parse_rows(SAMPLE).unwrap();
        assert_eq!(rows.len(), 12);
        assert_eq!(rows[0].name, "bound_query/tri/256");
        assert_eq!(rows[0].median_ns, 7312.4);
        let verdict = check(&rows).unwrap();
        assert!(verdict.contains("ratio 9.57x (limit 100x)"), "{verdict}");
        assert!(verdict.contains("ratio 1.03x (limit 2x)"), "{verdict}");
        assert!(verdict.contains("ratio 1.10x (limit 1.25x)"), "{verdict}");
        assert!(verdict.contains("ratio 0.11x (limit 0.25x)"), "{verdict}");
    }

    #[test]
    fn fails_past_the_ratio() {
        let mut rows = healthy();
        rows[1].median_ns = 8_747_915.0;
        let err = check(&rows).unwrap_err();
        assert!(err.contains("regressed"), "{err}");
    }

    #[test]
    fn fails_when_the_disabled_weak_path_is_no_longer_free() {
        let mut rows = healthy();
        rows[3].median_ns = 96000.0 * 2.5;
        let err = check(&rows).unwrap_err();
        assert!(
            err.contains("cascade-disabled path is no longer free"),
            "{err}"
        );
    }

    #[test]
    fn fails_when_the_detached_span_path_is_no_longer_free() {
        let mut rows = healthy();
        rows[5].median_ns = 88000.0 * 2.5;
        let err = check(&rows).unwrap_err();
        assert!(
            err.contains("detached span path is no longer free"),
            "{err}"
        );
    }

    #[test]
    fn fails_when_the_warm_serve_path_outgrows_direct() {
        let mut rows = healthy();
        rows[7].median_ns = 40000.0 * 2.5;
        let err = check(&rows).unwrap_err();
        assert!(err.contains("warm serve path outgrew"), "{err}");
    }

    #[test]
    fn fails_when_a_tri_reanchor_costs_more_than_half_a_merge() {
        let mut rows = healthy();
        rows[8].median_ns = 125.0;
        assert!(check(&rows).is_ok(), "exactly at the limit passes");
        rows[8].median_ns = 126.0;
        let err = check(&rows).unwrap_err();
        assert!(err.contains("Tri re-anchor costs more"), "{err}");
        assert!(err.contains("bound_query/tri_access/chain"), "{err}");
    }

    #[test]
    fn fails_when_the_round_view_copies_the_store() {
        let mut rows = healthy();
        rows[10].median_ns = 24000.0;
        assert!(check(&rows).is_ok(), "exactly at the limit passes");
        rows[10].median_ns = 24001.0;
        let err = check(&rows).unwrap_err();
        assert!(err.contains("no longer shares the store's runs"), "{err}");
        assert!(err.contains("store_layer/view"), "{err}");
    }

    #[test]
    fn missing_cell_is_an_error() {
        let rows = parse_rows(r#"[{"name": "bound_query/tri/256", "median_ns": 1.0}]"#).unwrap();
        let err = check(&rows).unwrap_err();
        assert!(err.contains("bound_query/splub/256"), "{err}");
        let mut rows = healthy();
        rows.retain(|r| r.name != WEAK_DISABLED_CELL);
        let err = check(&rows).unwrap_err();
        assert!(err.contains("oracle_weak_layer/disabled"), "{err}");
        let mut rows = healthy();
        rows.retain(|r| r.name != SPAN_DISABLED_CELL);
        let err = check(&rows).unwrap_err();
        assert!(err.contains("oracle_span_layer/disabled"), "{err}");
        let mut rows = healthy();
        rows.retain(|r| r.name != STORE_SERVE_CELL);
        let err = check(&rows).unwrap_err();
        assert!(err.contains("store_layer/serve"), "{err}");
        let mut rows = healthy();
        rows.retain(|r| r.name != TRI_RANDOM_CELL);
        let err = check(&rows).unwrap_err();
        assert!(err.contains("bound_query/tri_access/random"), "{err}");
        let mut rows = healthy();
        rows.retain(|r| r.name != STORE_SNAPSHOT_CELL);
        let err = check(&rows).unwrap_err();
        assert!(err.contains("store_layer/snapshot"), "{err}");
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(parse_rows("{}").is_err());
        assert!(parse_rows("[{\"name\": 3, \"median_ns\": 1.0}]").is_err());
        assert!(parse_rows("[{\"name\": \"x\"}]").is_err());
        assert!(parse_rows("[{\"name\": \"x\", \"median_ns\": \"nope\"}]").is_err());
    }

    #[test]
    fn string_commas_and_field_order_are_tolerated() {
        let rows =
            parse_rows(r#"[{"median_ns": 2.0, "note": "a, b", "name": "bound_query/tri/256"}]"#)
                .unwrap();
        assert_eq!(rows[0].median_ns, 2.0);
    }
}
