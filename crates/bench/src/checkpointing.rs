//! A [`DistanceResolver`] wrapper that logs resolved distances to a WAL.
//!
//! [`CheckpointingResolver`] forwards every call to the wrapped resolver.
//! Each `resolve`/`resolve_fallible` that makes a pair known queues that
//! pair with its certified value, and every `every` queued pairs become
//! one append to a `prox_serve` [`WriteAheadLog`] — one write and one
//! `fdatasync`, never a rewrite of what the log already holds. Dropping
//! the wrapper appends the rest of the queue, so a run that ends in an
//! error (a [`prox_core::CallBudget`] kill, say) still logs every pair it
//! paid for; a hard kill loses at most the queued pairs.
//!
//! Resuming is opening the log: [`WriteAheadLog::recover`] replays the
//! directory (sealed segments strictly, the torn tail leniently), and the
//! recovered pairs preload the next run, which pays the oracle only for
//! pairs the earlier run never logged.

use std::collections::HashSet;

use prox_bounds::DistanceResolver;
use prox_core::{OracleError, Pair, PruneStats};
use prox_serve::wal::WriteAheadLog;

/// Wraps a resolver with a write-ahead log of its resolutions (see module
/// docs).
pub struct CheckpointingResolver<'a> {
    inner: &'a mut dyn DistanceResolver,
    wal: WriteAheadLog,
    every: usize,
    /// Known pairs the log does not hold yet, in resolution order.
    queue: Vec<(Pair, f64)>,
    appends: u64,
    /// Appends the log refused (reported, never fatal: a failed append
    /// must not kill the run it exists to protect).
    io_errors: u64,
}

impl<'a> CheckpointingResolver<'a> {
    /// Wraps `inner`, appending to `wal` every `every` new resolutions
    /// (`every` is clamped to at least 1). `held` names the pairs `wal`
    /// already holds: every other pair `inner` knows now (bootstrap and
    /// preloads) is appended at once, so the log ends up holding the
    /// resolver's whole certified set.
    pub fn new(
        inner: &'a mut dyn DistanceResolver,
        wal: WriteAheadLog,
        every: usize,
        held: impl IntoIterator<Item = Pair>,
    ) -> Self {
        let held: HashSet<u64> = held.into_iter().map(Pair::key).collect();
        let mut queue = Vec::new();
        inner.export_known(&mut queue);
        queue.retain(|(p, _)| !held.contains(&p.key()));
        let mut r = CheckpointingResolver {
            inner,
            wal,
            every: every.max(1),
            queue,
            appends: 0,
            io_errors: 0,
        };
        r.flush();
        r
    }

    /// Queues `p` if this call made it known, appending on the cadence. A
    /// failed append leaves its batch queued; the next attempt comes
    /// `every` pairs later.
    fn note(&mut self, p: Pair, was_known: bool) {
        if was_known {
            return;
        }
        if let Some(d) = self.inner.known(p) {
            self.queue.push((p, d));
            if self.queue.len().is_multiple_of(self.every) {
                self.flush();
            }
        }
    }

    /// Appends every queued pair to the log as one batch.
    fn flush(&mut self) {
        if self.queue.is_empty() {
            return;
        }
        match self.wal.append(&self.queue) {
            Ok(()) => {
                self.queue.clear();
                self.appends += 1;
                prox_obs::emit_to(
                    self.inner.trace_sink().as_ref(),
                    prox_obs::TraceEvent::CheckpointWrite {
                        resolved: self.inner.prune_stats().resolved,
                    },
                );
            }
            Err(e) => {
                self.io_errors += 1;
                eprintln!("[checkpoint] append {} pair(s): {e}", self.queue.len());
            }
        }
    }

    /// Appends the log acknowledged so far.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Appends the log refused with an IO error.
    pub fn io_errors(&self) -> u64 {
        self.io_errors
    }
}

impl Drop for CheckpointingResolver<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

impl DistanceResolver for CheckpointingResolver<'_> {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn max_distance(&self) -> f64 {
        self.inner.max_distance()
    }
    fn known(&self, p: Pair) -> Option<f64> {
        self.inner.known(p)
    }
    fn resolve(&mut self, p: Pair) -> f64 {
        let was_known = self.inner.known(p).is_some();
        let d = self.inner.resolve(p);
        self.note(p, was_known);
        d
    }
    fn resolve_fallible(&mut self, p: Pair) -> Result<f64, OracleError> {
        let was_known = self.inner.known(p).is_some();
        let d = self.inner.resolve_fallible(p)?;
        self.note(p, was_known);
        Ok(d)
    }
    fn try_less(&mut self, x: Pair, y: Pair) -> Option<bool> {
        self.inner.try_less(x, y)
    }
    fn try_less_value(&mut self, x: Pair, v: f64) -> Option<bool> {
        self.inner.try_less_value(x, v)
    }
    fn try_leq_value(&mut self, x: Pair, v: f64) -> Option<bool> {
        self.inner.try_leq_value(x, v)
    }
    fn try_less_sum2(&mut self, x: (Pair, Pair), y: (Pair, Pair)) -> Option<bool> {
        self.inner.try_less_sum2(x, y)
    }
    fn try_sum_less_value(&mut self, terms: &[Pair], v: f64) -> Option<bool> {
        self.inner.try_sum_less_value(terms, v)
    }
    fn lower_bound_hint(&mut self, x: Pair) -> f64 {
        self.inner.lower_bound_hint(x)
    }
    fn bounds_hint(&mut self, x: Pair) -> (f64, f64) {
        self.inner.bounds_hint(x)
    }
    fn preload(&mut self, p: Pair, d: f64) {
        self.inner.preload(p, d)
    }
    fn preload_weak(&mut self, p: Pair, d: f64) {
        self.inner.preload_weak(p, d)
    }
    fn provenance(&self) -> prox_obs::ProvenanceLedger {
        self.inner.provenance()
    }
    fn export_known(&self, out: &mut Vec<(Pair, f64)>) {
        self.inner.export_known(out)
    }
    fn prune_stats(&self) -> PruneStats {
        self.inner.prune_stats()
    }
    fn prune_stats_mut(&mut self) -> &mut PruneStats {
        self.inner.prune_stats_mut()
    }
    fn weak_stats(&self) -> prox_bounds::WeakStats {
        self.inner.weak_stats()
    }
    fn degradation(&self) -> Option<prox_core::Degradation> {
        self.inner.degradation()
    }
    fn generation(&self) -> u64 {
        self.inner.generation()
    }
    fn pair_stamp(&self, x: Pair) -> u64 {
        self.inner.pair_stamp(x)
    }
    fn trace_sink(&self) -> Option<std::rc::Rc<dyn prox_obs::TraceSink>> {
        self.inner.trace_sink()
    }
    fn obs_metrics(&self) -> Option<std::rc::Rc<prox_obs::Metrics>> {
        self.inner.obs_metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prox_algos::prim_mst;
    use prox_bounds::BoundResolver;
    use prox_core::{FnMetric, ObjectId, Oracle};
    use prox_serve::wal::WalConfig;
    use std::path::{Path, PathBuf};

    fn line_oracle(n: usize) -> Oracle<FnMetric<impl Fn(ObjectId, ObjectId) -> f64>> {
        let scale = 1.0 / (n as f64 - 1.0);
        Oracle::new(FnMetric::new(n, 1.0, move |a, b| {
            (f64::from(a) - f64::from(b)).abs() * scale
        }))
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("prox-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open(dir: &Path) -> (WriteAheadLog, Vec<(Pair, f64)>) {
        let manifest = vec![("algo".to_string(), "prim".to_string())];
        let (wal, known, _) =
            WriteAheadLog::recover(dir, &manifest, WalConfig::default()).expect("recover");
        (wal, known)
    }

    #[test]
    fn snapshots_on_cadence_and_roundtrips() {
        let dir = tmpdir("cadence");
        let oracle = line_oracle(10);
        let mut base = BoundResolver::vanilla(&oracle);
        // A bootstrap pair the log does not hold yet: appended at wrap.
        base.resolve(Pair::new(0, 9));
        let (wal, known) = open(&dir);
        assert!(known.is_empty());
        let mut r = CheckpointingResolver::new(&mut base, wal, 5, Vec::new());
        assert_eq!(r.appends(), 1, "the unlogged bootstrap pair, at wrap");
        let mst = prim_mst(&mut r);
        // Prim over a vanilla resolver resolves all 45 pairs: 44 new ones
        // make eight batches of five, and four stay queued until the drop.
        assert_eq!(oracle.calls(), 45);
        assert_eq!(r.appends(), 9, "one append per five new resolutions");
        assert_eq!(r.queue.len(), 4);
        assert_eq!(r.io_errors(), 0);
        drop(r);

        let (_, logged) = open(&dir);
        let mut exported = Vec::new();
        base.export_known(&mut exported);
        let bits = |v: &[(Pair, f64)]| {
            let mut b: Vec<_> = v.iter().map(|&(p, d)| (p.key(), d.to_bits())).collect();
            b.sort_unstable();
            b
        };
        assert_eq!(
            bits(&logged),
            bits(&exported),
            "the log holds the known set"
        );
        // Replaying the log pays zero oracle calls.
        let oracle2 = line_oracle(10);
        let mut replay = BoundResolver::vanilla(&oracle2);
        for &(p, d) in &logged {
            replay.preload(p, d);
        }
        let mst2 = prim_mst(&mut replay);
        assert_eq!(oracle2.calls(), 0, "fully warm resume re-pays nothing");
        assert_eq!(mst2.edge_keys(), mst.edge_keys());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn preloaded_knowledge_does_not_trigger_an_immediate_snapshot() {
        let dir = tmpdir("preload");
        let oracle = line_oracle(6);
        let mut base = BoundResolver::vanilla(&oracle);
        // Knowledge recovered from the log and preloaded before wrapping.
        let held = [Pair::new(0, 1), Pair::new(0, 2), Pair::new(0, 3)];
        let (mut wal, _) = open(&dir);
        let entries: Vec<(Pair, f64)> = held.iter().map(|&p| (p, base.resolve(p))).collect();
        wal.append(&entries).expect("seed the log");
        let mut r = CheckpointingResolver::new(&mut base, wal, 2, held);
        assert_eq!(r.appends(), 0, "the log already holds every preload");
        r.resolve(Pair::new(1, 2));
        assert_eq!(r.appends(), 0, "one new resolution, cadence two");
        r.resolve(Pair::new(0, 1));
        r.resolve(Pair::new(1, 2));
        assert_eq!(r.appends(), 0, "a known pair queues nothing");
        r.resolve(Pair::new(1, 3));
        assert_eq!(r.appends(), 1, "second new resolution hits the cadence");
        r.resolve(Pair::new(2, 3));
        drop(r);

        let (_, logged) = open(&dir);
        let keys: Vec<Pair> = logged.iter().map(|&(p, _)| p).collect();
        let want = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)].map(|(a, b)| Pair::new(a, b));
        assert_eq!(keys, want, "each pair once; the drop flushes the last");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_refused_append_stays_queued_and_is_retried() {
        let dir = tmpdir("refused");
        // A directory where the first segment's temp file must go makes
        // its publication fail.
        let blocker = dir.join("wal-00000.ckpt.tmp");
        std::fs::create_dir_all(&blocker).expect("blocker");
        let oracle = line_oracle(6);
        let mut base = BoundResolver::vanilla(&oracle);
        let (wal, _) = open(&dir);
        let mut r = CheckpointingResolver::new(&mut base, wal, 2, Vec::new());
        r.resolve(Pair::new(0, 1));
        r.resolve(Pair::new(0, 2));
        assert_eq!((r.appends(), r.io_errors()), (0, 1), "refused, not fatal");
        assert_eq!(r.queue.len(), 2, "the refused batch stays queued");
        std::fs::remove_dir(&blocker).expect("unblock");
        r.resolve(Pair::new(0, 3));
        assert_eq!(r.io_errors(), 1, "the retry waits for the cadence");
        r.resolve(Pair::new(0, 4));
        assert_eq!((r.appends(), r.io_errors()), (1, 1));
        assert!(r.queue.is_empty());
        drop(r);

        let (_, logged) = open(&dir);
        let keys: Vec<Pair> = logged.iter().map(|&(p, _)| p).collect();
        assert_eq!(
            keys,
            [(0, 1), (0, 2), (0, 3), (0, 4)].map(|(a, b)| Pair::new(a, b))
        );

        std::fs::remove_dir_all(&dir).ok();
    }
}
