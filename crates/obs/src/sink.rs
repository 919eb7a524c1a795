//! Trace sinks: where events go.
//!
//! A [`TraceSink`] assigns each event a monotone logical sequence number,
//! starting at 0.
//!
//! Sinks take `&self` and use interior mutability instead of requiring
//! `&mut`: emission sites sit behind shared references (resolvers hold
//! `Rc<dyn TraceSink>` clones of the oracle's sink). Sinks are *not*
//! `Sync` and never cross threads: a traced run is sequential, so only
//! one thread ever emits.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::rc::Rc;

use crate::event::TraceEvent;

/// A destination for trace events. See the module docs for the
/// sequencing contract.
pub trait TraceSink {
    /// Records an event under the next sequence number.
    fn emit(&self, ev: TraceEvent);

    /// Number of events emitted so far — equivalently, the sequence
    /// number the next event will receive.
    fn emitted(&self) -> u64;

    /// Flushes any buffered output. A no-op for in-memory sinks.
    fn flush(&self) {}
}

/// Emits `ev` into `sink` if one is attached. The disabled path is a
/// single `Option` discriminant test.
#[inline]
pub fn emit_to(sink: Option<&Rc<dyn TraceSink>>, ev: TraceEvent) {
    if let Some(s) = sink {
        s.emit(ev);
    }
}

/// Counts events, stores nothing. Exists so the enabled-path
/// overhead of the instrumentation itself can be benchmarked without
/// any storage cost.
#[derive(Default)]
pub struct NullSink {
    seq: Cell<u64>,
}

impl NullSink {
    pub fn new() -> Self {
        Self::default()
    }
}

impl TraceSink for NullSink {
    fn emit(&self, _ev: TraceEvent) {
        self.seq.set(self.seq.get() + 1);
    }
    fn emitted(&self) -> u64 {
        self.seq.get()
    }
}

/// Keeps the last `cap` events (with their sequence numbers)
/// in memory. Suited to tests and post-mortem inspection of the tail.
pub struct RingSink {
    cap: usize,
    seq: Cell<u64>,
    buf: RefCell<VecDeque<(u64, TraceEvent)>>,
}

impl RingSink {
    pub fn new(cap: usize) -> Self {
        RingSink {
            cap,
            seq: Cell::new(0),
            buf: RefCell::new(VecDeque::with_capacity(cap.min(1024))),
        }
    }

    /// The retained tail, oldest first.
    pub fn events(&self) -> Vec<(u64, TraceEvent)> {
        self.buf.borrow().iter().copied().collect()
    }
}

impl TraceSink for RingSink {
    fn emit(&self, ev: TraceEvent) {
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        let mut buf = self.buf.borrow_mut();
        if self.cap == 0 {
            return;
        }
        if buf.len() == self.cap {
            buf.pop_front();
        }
        buf.push_back((seq, ev));
    }
    fn emitted(&self) -> u64 {
        self.seq.get()
    }
}

enum JsonlWriter {
    File(BufWriter<File>),
    Mem(Vec<u8>),
    Custom(Box<dyn Write>),
}

/// Streams events as JSON Lines, either to a file or to an
/// in-memory buffer (for tests and byte-identity comparisons).
pub struct JsonlSink {
    w: RefCell<JsonlWriter>,
    seq: Cell<u64>,
    io_errors: Cell<u64>,
}

impl JsonlSink {
    /// Creates (truncating) a JSONL trace file at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let f = File::create(path)?;
        Ok(JsonlSink {
            w: RefCell::new(JsonlWriter::File(BufWriter::new(f))),
            seq: Cell::new(0),
            io_errors: Cell::new(0),
        })
    }

    /// An in-memory JSONL sink; read the stream back with
    /// [`JsonlSink::contents`].
    pub fn in_memory() -> Self {
        JsonlSink {
            w: RefCell::new(JsonlWriter::Mem(Vec::new())),
            seq: Cell::new(0),
            io_errors: Cell::new(0),
        }
    }

    /// Streams to an arbitrary writer (tests inject failing writers to
    /// exercise the error-counting path; callers can wrap sockets or
    /// pipes). Buffer externally if throughput matters.
    pub fn to_writer(w: Box<dyn Write>) -> Self {
        JsonlSink {
            w: RefCell::new(JsonlWriter::Custom(w)),
            seq: Cell::new(0),
            io_errors: Cell::new(0),
        }
    }

    /// The JSONL text accumulated so far (in-memory sinks only).
    pub fn contents(&self) -> Option<String> {
        match &*self.w.borrow() {
            JsonlWriter::Mem(buf) => Some(String::from_utf8_lossy(buf).into_owned()),
            JsonlWriter::File(_) | JsonlWriter::Custom(_) => None,
        }
    }

    /// Write errors swallowed during emission (a broken trace file must
    /// not abort the run it observes).
    pub fn io_errors(&self) -> u64 {
        self.io_errors.get()
    }
}

impl TraceSink for JsonlSink {
    fn emit(&self, ev: TraceEvent) {
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        let mut line = String::with_capacity(96);
        ev.write_jsonl(seq, &mut line);
        let wrote = match &mut *self.w.borrow_mut() {
            JsonlWriter::Mem(buf) => {
                buf.extend_from_slice(line.as_bytes());
                Ok(())
            }
            JsonlWriter::File(f) => f.write_all(line.as_bytes()),
            JsonlWriter::Custom(w) => w.write_all(line.as_bytes()),
        };
        if wrote.is_err() {
            self.io_errors.set(self.io_errors.get() + 1);
        }
    }
    fn emitted(&self) -> u64 {
        self.seq.get()
    }
    fn flush(&self) {
        let flushed = match &mut *self.w.borrow_mut() {
            JsonlWriter::Mem(_) => Ok(()),
            JsonlWriter::File(f) => f.flush(),
            JsonlWriter::Custom(w) => w.flush(),
        };
        if flushed.is_err() {
            self.io_errors.set(self.io_errors.get() + 1);
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// RAII phase marker: emits [`TraceEvent::PhaseEnter`] on construction
/// and the matching [`TraceEvent::PhaseExit`] on drop, so early returns
/// (including fault aborts via `?`) still close the phase.
pub struct PhaseGuard {
    sink: Option<Rc<dyn TraceSink>>,
    name: &'static str,
}

impl PhaseGuard {
    pub fn enter(sink: Option<Rc<dyn TraceSink>>, name: &'static str) -> Self {
        if let Some(s) = &sink {
            s.emit(TraceEvent::PhaseEnter { name });
        }
        PhaseGuard { sink, name }
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some(s) = &self.sink {
            s.emit(TraceEvent::PhaseExit { name: self.name });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CallOutcome, TraceEvent};

    fn call(lo: u32, hi: u32) -> TraceEvent {
        TraceEvent::OracleCall {
            lo,
            hi,
            attempt: 0,
            outcome: CallOutcome::Ok,
            virtual_ns: 10,
        }
    }

    /// Fails every write after the first `ok_writes`, but keeps
    /// accepting flushes, mimicking a disk that filled up mid-run.
    struct FailAfter {
        ok_writes: usize,
        seen: usize,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.seen += 1;
            if self.seen > self.ok_writes {
                Err(std::io::Error::other("disk full"))
            } else {
                Ok(buf.len())
            }
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    struct BrokenPipe;

    impl Write for BrokenPipe {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "gone"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "gone"))
        }
    }

    #[test]
    fn jsonl_sink_counts_write_errors_without_aborting() {
        let sink = JsonlSink::to_writer(Box::new(FailAfter {
            ok_writes: 2,
            seen: 0,
        }));
        for i in 0..5 {
            sink.emit(call(0, i + 1));
        }
        // Every event still gets a sequence number — a broken trace file
        // must not perturb the run it observes — but the three writes
        // past the failure point are counted.
        assert_eq!(sink.emitted(), 5);
        assert_eq!(sink.io_errors(), 3);
        sink.flush();
        assert_eq!(sink.io_errors(), 3, "flush on this writer succeeds");
    }

    #[test]
    fn jsonl_sink_counts_flush_errors() {
        let sink = JsonlSink::to_writer(Box::new(BrokenPipe));
        sink.emit(call(0, 1));
        assert_eq!(sink.io_errors(), 1);
        sink.flush();
        assert_eq!(sink.io_errors(), 2);
        assert_eq!(sink.emitted(), 1);
        // Drop flushes once more; must not panic on a dead writer.
        drop(sink);
    }

    #[test]
    fn full_writer_keeps_mem_sink_infallible() {
        let sink = JsonlSink::in_memory();
        for i in 0..100 {
            sink.emit(call(0, i + 1));
        }
        assert_eq!(sink.io_errors(), 0);
        assert_eq!(sink.contents().unwrap().lines().count(), 100);
        assert!(JsonlSink::to_writer(Box::new(Vec::new()))
            .contents()
            .is_none());
    }

    #[test]
    fn ring_sink_wraparound_is_exact_over_many_events() {
        let sink = RingSink::new(3);
        for i in 0..10u32 {
            sink.emit(call(0, i + 1));
        }
        let evs = sink.events();
        // Exactly the last `cap` events survive, oldest first, with
        // their original (global) sequence numbers intact.
        assert_eq!(evs.len(), 3);
        assert_eq!(
            evs.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![7, 8, 9]
        );
        assert_eq!(evs[0].1, call(0, 8));
        assert_eq!(evs[2].1, call(0, 10));
        assert_eq!(sink.emitted(), 10);
    }

    #[test]
    fn ring_sink_cap_zero_counts_but_stores_nothing() {
        let sink = RingSink::new(0);
        for i in 0..4u32 {
            sink.emit(call(0, i + 1));
        }
        assert!(sink.events().is_empty());
        assert_eq!(sink.emitted(), 4, "sequence numbers still advance");
    }

    #[test]
    fn ring_sink_below_capacity_keeps_everything_in_order() {
        let sink = RingSink::new(8);
        sink.emit(call(0, 1));
        sink.emit(call(0, 2));
        let evs = sink.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0], (0, call(0, 1)));
        assert_eq!(evs[1], (1, call(0, 2)));
    }

    #[test]
    fn ring_sink_keeps_the_tail() {
        let sink = RingSink::new(2);
        sink.emit(call(0, 1));
        sink.emit(call(0, 2));
        sink.emit(call(0, 3));
        let evs = sink.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].0, 1);
        assert_eq!(evs[1].0, 2);
        assert_eq!(evs[1].1, call(0, 3));
        assert_eq!(sink.emitted(), 3);
    }

    #[test]
    fn null_sink_only_counts() {
        let sink = NullSink::new();
        sink.emit(call(0, 1));
        sink.emit(call(0, 2));
        assert_eq!(sink.emitted(), 2);
    }

    #[test]
    fn phase_guard_closes_on_drop() {
        let sink: Rc<dyn TraceSink> = Rc::new(JsonlSink::in_memory());
        {
            let _g = PhaseGuard::enter(Some(Rc::clone(&sink)), "build");
            sink.emit(call(0, 1));
        }
        // Downcast via contents on the concrete type is not possible
        // through the trait object; count instead.
        assert_eq!(sink.emitted(), 3, "enter + call + exit");
    }

    #[test]
    fn jsonl_file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("prox-obs-sink-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("t.jsonl");
        {
            let sink = JsonlSink::create(&path).expect("create");
            sink.emit(call(1, 2));
            assert_eq!(sink.io_errors(), 0);
        } // Drop flushes.
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(
            text,
            "{\"seq\":0,\"ev\":\"oracle_call\",\"lo\":1,\"hi\":2,\"attempt\":0,\
             \"outcome\":\"ok\",\"virtual_ns\":10}\n"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
