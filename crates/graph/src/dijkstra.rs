//! Single-source shortest paths with reusable, epoch-stamped scratch space.
//!
//! Three kernels share one scratch structure:
//!
//! * [`Dijkstra::run`] — classic full SSSP, now `O(touched)` per call
//!   instead of paying an `O(n)` dist reset (epoch stamps);
//! * [`Dijkstra::repair`] — decrease-only incremental maintenance
//!   (Ramalingam–Reps style) of the tree left by the previous `run` after
//!   new edges were inserted;
//! * [`Dijkstra::run_bidirectional_bounded`] — a threshold-aware
//!   bidirectional search that stops the moment its meeting-point bound is
//!   decisive for the comparison at hand.

use std::collections::BinaryHeap;

use prox_core::ObjectId;

use crate::PartialGraph;

/// Anything Dijkstra can walk: a node count plus a neighbour visitor.
///
/// Implemented by [`PartialGraph`] (SPLUB's bound queries) and by the road
/// network graphs in `prox-datasets` (ground-truth generation).
pub trait Adjacency {
    /// Number of nodes; valid ids are `0..n()`.
    fn n(&self) -> usize;
    /// Calls `f(neighbour, edge_weight)` for every edge incident on `v`.
    fn for_each_neighbor(&self, v: ObjectId, f: &mut dyn FnMut(ObjectId, f64));
}

impl Adjacency for PartialGraph {
    fn n(&self) -> usize {
        PartialGraph::n(self)
    }
    fn for_each_neighbor(&self, v: ObjectId, f: &mut dyn FnMut(ObjectId, f64)) {
        for &(u, w) in self.neighbors(v) {
            f(u, w);
        }
    }
}

/// Max-heap entry ordered so the smallest tentative distance pops first.
#[derive(Copy, Clone, PartialEq)]
struct Entry {
    dist: f64,
    node: ObjectId,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse on distance for a min-heap; break ties by node id so the
        // visit order is fully deterministic.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Read-only view of the distance labels written by the most recent run.
///
/// Nodes whose stamp is not the current epoch were never touched by that
/// run and read as `f64::INFINITY` — the view is what makes the epoch
/// trick safe: stale garbage from earlier runs is unreachable through it.
#[derive(Copy, Clone)]
pub struct DistMap<'a> {
    dist: &'a [f64],
    stamp: &'a [u32],
    epoch: u32,
}

impl DistMap<'_> {
    /// Distance label of `v` (`INFINITY` if unreached by the last run).
    #[inline]
    pub fn get(&self, v: ObjectId) -> f64 {
        let i = v as usize;
        if self.stamp[i] == self.epoch {
            self.dist[i]
        } else {
            f64::INFINITY
        }
    }
}

/// Dijkstra's algorithm with owned, reusable scratch buffers.
///
/// SPLUB runs SSSP computations per bound query (`O(m + n log n)` each);
/// reusing the distance array and heap across queries keeps them
/// allocation-free after warm-up, and the epoch stamp makes the per-run
/// reset `O(1)` instead of `O(n)` (`dijkstra_reset/*` bench cells).
pub struct Dijkstra {
    dist: Vec<f64>,
    stamp: Vec<u32>,
    epoch: u32,
    heap: BinaryHeap<Entry>,
}

impl Dijkstra {
    /// Scratch sized for graphs of up to `n` nodes.
    pub fn new(n: usize) -> Self {
        Dijkstra {
            dist: vec![f64::INFINITY; n],
            // Epoch 0 is never current (the first `begin_epoch` moves to
            // 1), so an all-zero stamp array means "nothing visited".
            stamp: vec![0; n],
            epoch: 0,
            heap: BinaryHeap::with_capacity(64),
        }
    }

    /// Opens a fresh visitation epoch: every node reads as unvisited
    /// without touching the `O(n)` dist array. On the (once per 2^32
    /// runs) wraparound the stamps are cleared for real.
    fn begin_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.heap.clear();
    }

    /// The labels written by the most recent run (all-`INFINITY` before
    /// any run). Lets callers that cache trees by source re-read results
    /// without re-running.
    #[inline]
    pub fn view(&self) -> DistMap<'_> {
        DistMap {
            dist: &self.dist,
            stamp: &self.stamp,
            epoch: self.epoch,
        }
    }

    #[inline]
    fn label(dist: &[f64], stamp: &[u32], epoch: u32, v: ObjectId) -> f64 {
        if stamp[v as usize] == epoch {
            dist[v as usize]
        } else {
            f64::INFINITY
        }
    }

    /// Runs SSSP from `src` over `graph` and returns the label view;
    /// unreachable nodes read `f64::INFINITY`.
    pub fn run<G: Adjacency + ?Sized>(&mut self, graph: &G, src: ObjectId) -> DistMap<'_> {
        let n = graph.n();
        assert!(
            n <= self.dist.len(),
            "graph larger than Dijkstra scratch ({} > {})",
            n,
            self.dist.len()
        );
        self.begin_epoch();
        let Dijkstra {
            dist,
            stamp,
            epoch,
            heap,
        } = self;
        let epoch = *epoch;

        dist[src as usize] = 0.0;
        stamp[src as usize] = epoch;
        heap.push(Entry {
            dist: 0.0,
            node: src,
        });
        while let Some(Entry { dist: d, node: v }) = heap.pop() {
            if d > dist[v as usize] {
                continue; // stale entry (every heap entry's node is stamped)
            }
            graph.for_each_neighbor(v, &mut |u, w| {
                let nd = d + w;
                if nd < Self::label(dist, stamp, epoch, u) {
                    dist[u as usize] = nd;
                    stamp[u as usize] = epoch;
                    heap.push(Entry { dist: nd, node: u });
                }
            });
        }
        self.view()
    }

    /// Decrease-only repair of the tree left by the previous [`run`] after
    /// `new_edges` were *inserted* into `graph` (which must already
    /// contain them). Yields labels bitwise-identical to a fresh `run`
    /// over the grown graph: a Dijkstra label is the minimum over paths of
    /// the left-folded float sum, which is order-independent, and the
    /// drain below relaxes every path that improves through a new edge.
    ///
    /// Only valid for pure growth — edge removals require a fresh `run`
    /// (the caller tracks retractions and falls back).
    ///
    /// [`run`]: Dijkstra::run
    pub fn repair<G, I>(&mut self, graph: &G, new_edges: I) -> DistMap<'_>
    where
        G: Adjacency + ?Sized,
        I: IntoIterator<Item = (ObjectId, ObjectId, f64)>,
    {
        let Dijkstra {
            dist,
            stamp,
            epoch,
            heap,
        } = self;
        let epoch = *epoch;
        heap.clear();

        // Seed: each new edge may shortcut either endpoint from the other.
        for (a, b, w) in new_edges {
            let (da, db) = (
                Self::label(dist, stamp, epoch, a),
                Self::label(dist, stamp, epoch, b),
            );
            if da + w < db {
                let nd = da + w;
                dist[b as usize] = nd;
                stamp[b as usize] = epoch;
                heap.push(Entry { dist: nd, node: b });
            } else if db + w < da {
                let nd = db + w;
                dist[a as usize] = nd;
                stamp[a as usize] = epoch;
                heap.push(Entry { dist: nd, node: a });
            }
        }
        // Drain: propagate the decreases over the full (grown) adjacency.
        while let Some(Entry { dist: d, node: v }) = heap.pop() {
            if d > dist[v as usize] {
                continue;
            }
            graph.for_each_neighbor(v, &mut |u, w| {
                let nd = d + w;
                if nd < Self::label(dist, stamp, epoch, u) {
                    dist[u as usize] = nd;
                    stamp[u as usize] = epoch;
                    heap.push(Entry { dist: nd, node: u });
                }
            });
        }
        self.view()
    }

    /// Bidirectional Dijkstra from `a` and `b` that gives up the moment it
    /// can no longer find a connecting path shorter than `cutoff`.
    ///
    /// Returns `Some(μ)` — the weight of a *real* `a`–`b` path (so a sound
    /// upper bound on the shortest-path distance) — only when `μ < cutoff`;
    /// `None` means "no path shorter than the cutoff was certified" and the
    /// caller must fall back to an exact computation. The two searches use
    /// separate scratches (`fwd` from `a`, `bwd` from `b`) so a caller's
    /// cached full trees are never clobbered.
    ///
    /// Termination: once `top(fwd) + top(bwd) ≥ min(μ, cutoff)` no
    /// undiscovered meeting can beat what we already have (weights are
    /// non-negative), so the loop stops — usually long before either
    /// search settles the whole component.
    pub fn run_bidirectional_bounded<G: Adjacency + ?Sized>(
        fwd: &mut Dijkstra,
        bwd: &mut Dijkstra,
        graph: &G,
        a: ObjectId,
        b: ObjectId,
        cutoff: f64,
    ) -> Option<f64> {
        let n = graph.n();
        assert!(n <= fwd.dist.len() && n <= bwd.dist.len());
        fwd.begin_epoch();
        bwd.begin_epoch();
        fwd.dist[a as usize] = 0.0;
        fwd.stamp[a as usize] = fwd.epoch;
        fwd.heap.push(Entry { dist: 0.0, node: a });
        bwd.dist[b as usize] = 0.0;
        bwd.stamp[b as usize] = bwd.epoch;
        bwd.heap.push(Entry { dist: 0.0, node: b });

        let mut mu = f64::INFINITY;
        // One frontier exhausting means no better meeting exists.
        while let (Some(tf), Some(tb)) = (
            fwd.heap.peek().map(|e| e.dist),
            bwd.heap.peek().map(|e| e.dist),
        ) {
            if tf + tb >= mu.min(cutoff) {
                break;
            }
            // Expand the cheaper frontier (ties to the forward side).
            let (this, other) = if tf <= tb {
                (&mut *fwd, &mut *bwd)
            } else {
                (&mut *bwd, &mut *fwd)
            };
            let Some(Entry { dist: d, node: v }) = this.heap.pop() else {
                break;
            };
            if d > this.dist[v as usize] {
                continue; // stale
            }
            let Dijkstra {
                dist,
                stamp,
                epoch,
                heap,
            } = this;
            let epoch = *epoch;
            let other_view = other.view();
            graph.for_each_neighbor(v, &mut |u, w| {
                let nd = d + w;
                if nd < Self::label(dist, stamp, epoch, u) {
                    dist[u as usize] = nd;
                    stamp[u as usize] = epoch;
                    heap.push(Entry { dist: nd, node: u });
                    let od = other_view.get(u);
                    if od.is_finite() && nd + od < mu {
                        mu = nd + od;
                    }
                }
            });
        }
        (mu < cutoff).then_some(mu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prox_core::Pair;

    fn path_graph(n: usize) -> PartialGraph {
        // 0 -1.0- 1 -1.0- 2 ...
        let mut g = PartialGraph::new(n);
        for v in 0..n as ObjectId - 1 {
            g.insert(Pair::new(v, v + 1), 1.0);
        }
        g
    }

    fn labels(d: DistMap<'_>, n: usize) -> Vec<f64> {
        (0..n as ObjectId).map(|v| d.get(v)).collect()
    }

    #[test]
    fn line_distances() {
        let g = path_graph(6);
        let mut dj = Dijkstra::new(6);
        let d = dj.run(&g, 0);
        assert_eq!(labels(d, 6), vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn unreachable_is_infinite() {
        let mut g = PartialGraph::new(4);
        g.insert(Pair::new(0, 1), 0.5);
        let mut dj = Dijkstra::new(4);
        let d = dj.run(&g, 0);
        assert_eq!(d.get(1), 0.5);
        assert!(d.get(2).is_infinite());
        assert!(d.get(3).is_infinite());
    }

    #[test]
    fn picks_shorter_route() {
        let mut g = PartialGraph::new(4);
        g.insert(Pair::new(0, 1), 1.0);
        g.insert(Pair::new(1, 3), 1.0);
        g.insert(Pair::new(0, 2), 0.25);
        g.insert(Pair::new(2, 3), 0.25);
        let mut dj = Dijkstra::new(4);
        assert_eq!(dj.run(&g, 0).get(3), 0.5);
    }

    #[test]
    fn scratch_is_reusable() {
        let g = path_graph(5);
        let mut dj = Dijkstra::new(5);
        let first = labels(dj.run(&g, 0), 5);
        let _ = dj.run(&g, 4); // different source in between
        let again = labels(dj.run(&g, 0), 5);
        assert_eq!(first, again, "scratch reuse must not leak state");
    }

    #[test]
    fn epoch_hides_stale_labels() {
        // After running from 4 on the line, node 0 holds a stale label in
        // the raw buffer; a run from 3 on a graph where 0 is unreachable
        // must still read it as INFINITY through the view.
        let g = path_graph(5);
        let mut cut = PartialGraph::new(5);
        cut.insert(Pair::new(3, 4), 1.0);
        let mut dj = Dijkstra::new(5);
        let _ = dj.run(&g, 4);
        let d = dj.run(&cut, 3);
        assert!(d.get(0).is_infinite());
        assert!(d.get(1).is_infinite());
        assert_eq!(d.get(4), 1.0);
    }

    #[test]
    fn epoch_wraparound_resets_stamps() {
        let g = path_graph(4);
        let mut dj = Dijkstra::new(4);
        let before = labels(dj.run(&g, 0), 4);
        dj.epoch = u32::MAX; // force the next begin_epoch to wrap
        let after = labels(dj.run(&g, 0), 4);
        assert_eq!(before, after);
        assert_eq!(dj.epoch, 1, "wraparound must land on epoch 1, not 0");
        // And the epoch after the wrap still behaves.
        let again = labels(dj.run(&g, 0), 4);
        assert_eq!(before, again);
    }

    /// Deterministic pseudo-random edge set for repair/bidi comparisons.
    fn web(n: usize, m: usize, seed: u64) -> Vec<(Pair, f64)> {
        let mut rng = prox_core::TinyRng::new(seed);
        let mut edges = Vec::new();
        while edges.len() < m {
            let a = rng.below(n) as ObjectId;
            let b = rng.below(n) as ObjectId;
            if a == b {
                continue;
            }
            let p = Pair::new(a, b);
            if edges.iter().any(|&(q, _)| q == p) {
                continue;
            }
            edges.push((p, rng.f64_range(0.05, 1.0)));
        }
        edges
    }

    #[test]
    fn repair_matches_fresh_run_bitwise() {
        let n = 24;
        for seed in 0..16u64 {
            let edges = web(n, 60, 0xD11C + seed);
            for src in [0 as ObjectId, 5, 11] {
                // Build a prefix graph, run, then insert the rest and repair.
                for split in [20usize, 40, 59] {
                    let mut g = PartialGraph::new(n);
                    for &(p, w) in &edges[..split] {
                        g.insert(p, w);
                    }
                    let mut inc = Dijkstra::new(n);
                    let _ = inc.run(&g, src);
                    for &(p, w) in &edges[split..] {
                        g.insert(p, w);
                    }
                    let repaired = labels(
                        inc.repair(&g, edges[split..].iter().map(|&(p, w)| (p.lo(), p.hi(), w))),
                        n,
                    );
                    let mut fresh = Dijkstra::new(n);
                    let full = labels(fresh.run(&g, src), n);
                    // Bitwise, not approximate: both are the min over paths
                    // of the same left-folded sums.
                    for v in 0..n {
                        assert_eq!(
                            repaired[v].to_bits(),
                            full[v].to_bits(),
                            "seed {seed} src {src} split {split} node {v}: \
                             {} vs {}",
                            repaired[v],
                            full[v]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bidirectional_bound_is_sound_and_tight_enough() {
        let n = 24;
        for seed in 0..16u64 {
            let edges = web(n, 70, 0xB1D1 + seed);
            let mut g = PartialGraph::new(n);
            for &(p, w) in &edges {
                g.insert(p, w);
            }
            let mut full = Dijkstra::new(n);
            let mut fa = Dijkstra::new(n);
            let mut fb = Dijkstra::new(n);
            for q in Pair::all(n) {
                let sp = {
                    let d = full.run(&g, q.lo());
                    d.get(q.hi())
                };
                for cutoff in [0.1, 0.5, 1.0, 2.0, f64::INFINITY] {
                    let got = Dijkstra::run_bidirectional_bounded(
                        &mut fa,
                        &mut fb,
                        &g,
                        q.lo(),
                        q.hi(),
                        cutoff,
                    );
                    match got {
                        Some(mu) => {
                            assert!(mu < cutoff);
                            // μ is a real path, so it can never undercut the
                            // true shortest path by more than float noise.
                            assert!(mu >= sp - 1e-12, "seed {seed} {q:?}: μ {mu} < sp {sp}");
                            // With an open cutoff the meeting search finds
                            // the true shortest path (tight, not just sound).
                            if cutoff.is_infinite() {
                                assert!(
                                    (mu - sp).abs() < 1e-9,
                                    "seed {seed} {q:?}: μ {mu} vs sp {sp}"
                                );
                            }
                        }
                        None => {
                            // Giving up is only allowed when no path beats
                            // the cutoff (modulo the margin the caller adds).
                            assert!(
                                sp >= cutoff || (cutoff - sp) < 1e-9,
                                "seed {seed} {q:?}: sp {sp} beats cutoff {cutoff} but bidi gave up"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bidirectional_handles_disconnected_pairs() {
        let mut g = PartialGraph::new(6);
        g.insert(Pair::new(0, 1), 0.4);
        g.insert(Pair::new(2, 3), 0.3);
        let mut fa = Dijkstra::new(6);
        let mut fb = Dijkstra::new(6);
        assert_eq!(
            Dijkstra::run_bidirectional_bounded(&mut fa, &mut fb, &g, 0, 3, f64::INFINITY),
            None
        );
        assert_eq!(
            Dijkstra::run_bidirectional_bounded(&mut fa, &mut fb, &g, 0, 1, 1.0),
            Some(0.4)
        );
    }

    #[test]
    fn repair_with_no_new_edges_is_identity() {
        let g = path_graph(6);
        let mut dj = Dijkstra::new(6);
        let before = labels(dj.run(&g, 2), 6);
        let after = labels(dj.repair(&g, std::iter::empty()), 6);
        assert_eq!(before, after);
    }
}
