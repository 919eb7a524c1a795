//! Coarse spans (run, bootstrap, algorithm, serve round, cell, commit),
//! kept in memory and written out once when the benchmark ends.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// The span log of one benchmark process.
pub struct Spans {
    epoch: Instant,
    list: Vec<Span>,
}

impl Spans {
    /// An empty log whose timestamps count from now.
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            list: Vec::new(),
        }
    }

    /// The instant span timestamps count from (for timing on other threads).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the log's epoch.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.push(name, start_ns, start_ns, parent)
    }

    /// Closes span `id` now and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end = self.now_ns();
        let span = &mut self.list[id];
        span.end_ns = end;
        (end - span.start_ns) as f64 * 1e-9
    }

    /// Records an already finished span (e.g. one timed on a worker thread).
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.list.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
        });
        self.list.len() - 1
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.list.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
