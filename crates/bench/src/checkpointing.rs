//! A [`DistanceResolver`] wrapper that checkpoints resolved distances.
//!
//! [`CheckpointingResolver`] forwards every call to the wrapped resolver
//! and, after each successful resolution, asks its
//! [`prox_core::Checkpointer`] whether a snapshot is due (every `every`
//! newly resolved pairs). Snapshots are full [`prox_core::checkpoint`]
//! files — a `#!` manifest plus the resolver's entire certified-distance
//! set — written atomically, so a run killed at any point (including by a
//! [`prox_core::CallBudget`]) leaves a valid resume file behind.
//!
//! Resuming is the ordinary cache-preload workflow: the checkpoint file is
//! a valid `prox_core::persist` cache, so feeding it back through
//! `--resume` (or [`prox_core::load_checkpoint`]) preloads every resolved
//! pair, and the re-run pays the oracle only for pairs the killed run
//! never resolved.

use prox_bounds::DistanceResolver;
use prox_core::{Checkpointer, OracleError, Pair, PruneStats};

/// Wraps a resolver with periodic checkpointing (see module docs).
pub struct CheckpointingResolver<'a> {
    inner: &'a mut dyn DistanceResolver,
    ckpt: Checkpointer,
    manifest: Vec<(String, String)>,
    /// IO errors from snapshot writes (reported, never fatal: a failed
    /// snapshot must not kill the run it exists to protect).
    io_errors: u64,
}

impl<'a> CheckpointingResolver<'a> {
    /// Wraps `inner`, snapshotting to `path` every `every` resolutions.
    /// `manifest` key/value pairs are embedded in every snapshot.
    pub fn new(
        inner: &'a mut dyn DistanceResolver,
        path: impl Into<std::path::PathBuf>,
        every: u64,
        manifest: Vec<(String, String)>,
    ) -> Self {
        let resolved = inner.prune_stats().resolved;
        let mut ckpt = Checkpointer::new(path, every);
        // Preloaded/bootstrap knowledge present before wrapping is not new
        // progress; start the cadence from the current resolution count.
        ckpt.mark_saved(resolved);
        CheckpointingResolver {
            inner,
            ckpt,
            manifest,
            io_errors: 0,
        }
    }

    fn snapshot_if_due(&mut self) {
        let resolved = self.inner.prune_stats().resolved;
        if !self.ckpt.due(resolved) {
            return;
        }
        self.force_snapshot();
    }

    /// Writes a snapshot now, regardless of cadence. Called on the periodic
    /// schedule and once more by the CLI after the run (clean or aborted).
    pub fn force_snapshot(&mut self) {
        let resolved = self.inner.prune_stats().resolved;
        let mut edges = Vec::new();
        self.inner.export_known(&mut edges);
        match self.ckpt.save_now(resolved, &self.manifest, edges) {
            Ok(_) => {
                prox_obs::emit_to(
                    self.inner.trace_sink().as_ref(),
                    prox_obs::TraceEvent::CheckpointWrite { resolved },
                );
            }
            Err(e) => {
                self.io_errors += 1;
                eprintln!("[checkpoint] write {}: {e}", self.ckpt.path().display());
            }
        }
    }

    /// Snapshots written so far.
    pub fn saves(&self) -> u64 {
        self.ckpt.saves()
    }

    /// Snapshot writes that failed with an IO error.
    pub fn io_errors(&self) -> u64 {
        self.io_errors
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
        let d = self.inner.resolve(p);
        self.snapshot_if_due();
        d
    }
    fn resolve_fallible(&mut self, p: Pair) -> Result<f64, OracleError> {
        let d = self.inner.resolve_fallible(p)?;
        self.snapshot_if_due();
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
    use prox_core::{read_checkpoint_file, FnMetric, ObjectId, Oracle};

    fn line_oracle(n: usize) -> Oracle<FnMetric<impl Fn(ObjectId, ObjectId) -> f64>> {
        let scale = 1.0 / (n as f64 - 1.0);
        Oracle::new(FnMetric::new(n, 1.0, move |a, b| {
            (f64::from(a) - f64::from(b)).abs() * scale
        }))
    }

    #[test]
    fn snapshots_on_cadence_and_roundtrips() {
        let dir = std::env::temp_dir().join(format!("prox-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("snap.ckpt");

        let oracle = line_oracle(10);
        let mut base = BoundResolver::vanilla(&oracle);
        let manifest = vec![("algo".to_string(), "prim".to_string())];
        let mut r = CheckpointingResolver::new(&mut base, &path, 5, manifest);
        let mst = prim_mst(&mut r);
        assert!(r.saves() >= 1, "45 resolutions at cadence 5 must snapshot");
        assert_eq!(r.io_errors(), 0);
        r.force_snapshot();

        let ckpt = read_checkpoint_file(&path).expect("readable checkpoint");
        assert_eq!(ckpt.manifest_value("algo"), Some("prim"));
        assert_eq!(ckpt.known.len() as u64, oracle.calls());
        // Replaying the checkpoint pays zero oracle calls.
        let oracle2 = line_oracle(10);
        let mut replay = BoundResolver::vanilla(&oracle2);
        for &(p, d) in &ckpt.known {
            replay.preload(p, d);
        }
        let mst2 = prim_mst(&mut replay);
        assert_eq!(oracle2.calls(), 0, "fully warm resume re-pays nothing");
        assert_eq!(mst2.edge_keys(), mst.edge_keys());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn preloaded_knowledge_does_not_trigger_an_immediate_snapshot() {
        let dir = std::env::temp_dir().join(format!("prox-ckpt-test2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("snap.ckpt");

        let oracle = line_oracle(6);
        let mut base = BoundResolver::vanilla(&oracle);
        // Simulate bootstrap/preload knowledge before wrapping.
        for p in [Pair::new(0, 1), Pair::new(0, 2), Pair::new(0, 3)] {
            base.resolve(p);
        }
        let mut r = CheckpointingResolver::new(&mut base, &path, 2, Vec::new());
        assert_eq!(r.saves(), 0);
        r.resolve(Pair::new(1, 2));
        assert_eq!(r.saves(), 0, "one new resolution, cadence two");
        r.resolve(Pair::new(1, 3));
        assert_eq!(r.saves(), 1, "second new resolution hits the cadence");

        std::fs::remove_dir_all(&dir).ok();
    }
}
