//! A dependency-free micro-benchmark harness.
//!
//! The workspace builds in hermetic environments, so the benches cannot pull
//! in `criterion`. This harness covers what the paper's micro views need:
//! warmed-up, multi-sample wall-clock timing with a median/mean/min summary
//! per benchmark, a substring filter from the command line, and
//! machine-readable CSV next to the human table.
//!
//! ```text
//! cargo bench -p prox-bench --bench schemes -- tri
//! ```

use std::time::{Duration, Instant};

/// One measured benchmark.
struct Row {
    name: String,
    samples: Vec<f64>, // ns per iteration
    iters_per_sample: u64,
}

/// Collects benchmarks and prints a summary table on [`Bench::finish`].
pub struct Bench {
    filter: Option<String>,
    sample_size: usize,
    /// Minimum measured wall time per sample; iterations adapt to reach it.
    min_sample_time: Duration,
    rows: Vec<Row>,
    /// When set, [`Bench::finish`] also writes `BENCH_<name>.json` at the
    /// workspace root — the committed baseline CI diffs against.
    name: Option<String>,
}

impl Default for Bench {
    fn default() -> Self {
        Bench::new()
    }
}

impl Bench {
    /// A harness configured from the command line: any non-flag argument is
    /// a substring filter on benchmark names (criterion's convention).
    pub fn new() -> Self {
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-') && a != "--bench");
        Bench {
            filter,
            sample_size: 20,
            min_sample_time: Duration::from_millis(5),
            rows: Vec::new(),
            name: None,
        }
    }

    /// [`Bench::new`], additionally writing a machine-readable
    /// `BENCH_<name>.json` summary at the workspace root on finish.
    pub fn named(name: &str) -> Self {
        let mut b = Bench::new();
        b.name = Some(name.to_string());
        b
    }

    /// Samples per benchmark (default 20).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(3);
        self
    }

    /// Measures `f`, attributing the result to `group/id`.
    pub fn bench(&mut self, group: &str, id: &str, f: impl FnMut()) {
        self.bench_per_op(group, id, 1, f);
    }

    /// Measures `f`, which performs `ops` operations per call, and reports
    /// ns per operation rather than per call.
    pub fn bench_per_op(&mut self, group: &str, id: &str, ops: u64, mut f: impl FnMut()) {
        let name = format!("{group}/{id}");
        if let Some(pat) = &self.filter {
            if !name.contains(pat.as_str()) {
                return;
            }
        }
        // Warm up and size the per-sample iteration count so one sample
        // spans at least `min_sample_time`.
        let mut iters: u64 = 1;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            let elapsed = t.elapsed();
            if elapsed >= self.min_sample_time || iters >= 1 << 20 {
                break;
            }
            // Grow geometrically toward the budget.
            let scale = (self.min_sample_time.as_secs_f64() / elapsed.as_secs_f64().max(1e-9))
                .ceil()
                .clamp(2.0, 16.0);
            iters = iters.saturating_mul(scale as u64);
        }
        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            samples.push(t.elapsed().as_secs_f64() * 1e9 / (iters * ops.max(1)) as f64);
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        self.rows.push(Row {
            name,
            samples,
            iters_per_sample: iters,
        });
    }

    /// Prints the summary table (and CSV under `target/microbench/`) and
    /// consumes the harness.
    pub fn finish(self) {
        if self.rows.is_empty() {
            println!("no benchmarks matched the filter");
            return;
        }
        println!(
            "{:<44} {:>12} {:>12} {:>12} {:>8}",
            "benchmark", "median", "mean", "min", "iters"
        );
        let mut csv = String::from("benchmark,median_ns,mean_ns,min_ns,iters\n");
        for row in &self.rows {
            let median = row.samples[row.samples.len() / 2];
            let mean = row.samples.iter().sum::<f64>() / row.samples.len() as f64;
            let min = row.samples[0];
            println!(
                "{:<44} {:>12} {:>12} {:>12} {:>8}",
                row.name,
                fmt_ns(median),
                fmt_ns(mean),
                fmt_ns(min),
                row.iters_per_sample
            );
            csv.push_str(&format!(
                "{},{:.1},{:.1},{:.1},{}\n",
                row.name, median, mean, min, row.iters_per_sample
            ));
        }
        let dir = std::path::Path::new("target").join("microbench");
        if std::fs::create_dir_all(&dir).is_ok() {
            let _ = std::fs::write(dir.join("results.csv"), csv);
        }
        if let Some(name) = &self.name {
            let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join("..");
            let _ = std::fs::write(root.join(format!("BENCH_{name}.json")), self.to_json());
        }
    }

    /// The rows as a JSON array (names are `group/id` ASCII; quotes and
    /// backslashes are escaped just in case).
    fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, row) in self.rows.iter().enumerate() {
            let median = row.samples[row.samples.len() / 2];
            let mean = row.samples.iter().sum::<f64>() / row.samples.len() as f64;
            let min = row.samples[0];
            let name = row.name.replace('\\', "\\\\").replace('"', "\\\"");
            out.push_str(&format!(
                "  {{\"name\": \"{name}\", \"median_ns\": {median:.1}, \
                 \"mean_ns\": {mean:.1}, \"min_ns\": {min:.1}, \"iters\": {}}}{}\n",
                row.iters_per_sample,
                if i + 1 < self.rows.len() { "," } else { "" },
            ));
        }
        out.push_str("]\n");
        out
    }
}

/// Human-readable nanoseconds.
fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_reports() {
        let mut b = Bench {
            filter: None,
            sample_size: 3,
            min_sample_time: Duration::from_micros(50),
            rows: Vec::new(),
            name: None,
        };
        let mut acc = 0u64;
        b.bench("smoke", "add", || {
            acc = acc.wrapping_add(std::hint::black_box(1));
        });
        assert_eq!(b.rows.len(), 1);
        assert!(b.rows[0].samples.iter().all(|&s| s > 0.0));
        b.finish();
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut b = Bench {
            filter: Some("wanted".into()),
            sample_size: 3,
            min_sample_time: Duration::from_micros(10),
            rows: Vec::new(),
            name: None,
        };
        b.bench("other", "bench", || {});
        assert!(b.rows.is_empty());
        b.bench("wanted", "bench", || {});
        assert_eq!(b.rows.len(), 1);
    }

    #[test]
    fn json_summary_shape() {
        let mut b = Bench {
            filter: None,
            sample_size: 3,
            min_sample_time: Duration::from_micros(10),
            rows: Vec::new(),
            name: Some("test".into()),
        };
        b.bench("g", "one", || {});
        b.bench("g", "two", || {});
        let json = b.to_json();
        assert!(json.starts_with("[\n"), "{json}");
        assert!(json.trim_end().ends_with(']'), "{json}");
        assert!(json.contains("\"name\": \"g/one\""), "{json}");
        assert!(json.contains("\"median_ns\": "), "{json}");
        assert_eq!(json.matches("\"iters\": ").count(), 2, "{json}");
        assert_eq!(json.matches("},\n").count(), 1, "one comma for two rows");
    }

    #[test]
    fn formats_scales() {
        assert_eq!(fmt_ns(12.0), "12.0 ns");
        assert_eq!(fmt_ns(1_500.0), "1.50 µs");
        assert_eq!(fmt_ns(2_500_000.0), "2.50 ms");
        assert_eq!(fmt_ns(3_000_000_000.0), "3.00 s");
    }
}
