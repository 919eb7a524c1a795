//! Single-source shortest paths with reusable, epoch-stamped scratch space,
//! for SPLUB's bound queries (road-network ground truth is built by
//! `prox-datasets`' own bucket sweep). Three kernels share one scratch
//! structure and walk each node's arcs as one slice:
//!
//! * [`Dijkstra::run`] — classic full SSSP, now `O(touched)` per call
//!   instead of paying an `O(n)` dist reset (epoch stamps);
//! * [`Dijkstra::repair`] — decrease-only incremental maintenance
//!   (Ramalingam–Reps style) of the tree left by the previous `run` after
//!   new edges were inserted;
//! * [`Dijkstra::run_bidirectional_bounded`] — a threshold-aware
//!   bidirectional search that stops the moment its meeting-point bound is
//!   decisive for the comparison at hand.
//!
//! The heap is keyed by the integer `(label.to_bits(), node)`. Labels are
//! sums of non-negative weights from `+0.0` (and `+0.0 + −0.0 = +0.0`), so
//! none is negative, NaN or `−0.0`, and on such values the bit pattern read
//! as an unsigned integer orders exactly like `f64::total_cmp`. The heap
//! pops the sequence a float-keyed one would, at the cost of one inlined
//! integer compare (`integer_key_pops_the_total_cmp_sequence` pins it).

use std::collections::BinaryHeap;

use prox_core::ObjectId;

use crate::PartialGraph;

/// Anything Dijkstra can walk: a node count plus each node's arc slice.
///
/// Implemented by [`PartialGraph`] (SPLUB's bound queries) and by the
/// `prox-datasets` road graph, as the reference for its bucket sweep.
pub trait Adjacency {
    /// Number of nodes; valid ids are `0..n()`.
    fn n(&self) -> usize;
    /// Every edge incident on `v`, as `(neighbour, edge_weight)`.
    fn neighbors(&self, v: ObjectId) -> &[(ObjectId, f64)];
}

impl Adjacency for PartialGraph {
    fn n(&self) -> usize {
        PartialGraph::n(self)
    }
    fn neighbors(&self, v: ObjectId) -> &[(ObjectId, f64)] {
        PartialGraph::neighbors(self, v)
    }
}

/// Max-heap entry ordered so the smallest tentative distance pops first,
/// keyed by the label's bit pattern (the module docs say why that orders
/// like `f64::total_cmp`).
#[derive(Copy, Clone, PartialEq, Eq)]
struct Entry {
    key: u64,
    node: ObjectId,
}

impl Entry {
    #[inline]
    fn new(dist: f64, node: ObjectId) -> Self {
        debug_assert!(
            dist.is_sign_positive() && !dist.is_nan(),
            "Dijkstra label {dist} is negative, -0.0 or NaN"
        );
        Entry {
            key: dist.to_bits(),
            node,
        }
    }

    #[inline]
    fn dist(self) -> f64 {
        f64::from_bits(self.key)
    }
}

impl Ord for Entry {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse on distance for a min-heap; break ties by node id so the
        // visit order is fully deterministic.
        (other.key, other.node).cmp(&(self.key, self.node))
    }
}

impl PartialOrd for Entry {
    #[inline]
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
        heap.push(Entry::new(0.0, src));
        while let Some(e) = heap.pop() {
            let (d, v) = (e.dist(), e.node);
            if d > dist[v as usize] {
                continue; // stale entry (every heap entry's node is stamped)
            }
            for &(u, w) in graph.neighbors(v) {
                let nd = d + w;
                if nd < Self::label(dist, stamp, epoch, u) {
                    dist[u as usize] = nd;
                    stamp[u as usize] = epoch;
                    heap.push(Entry::new(nd, u));
                }
            }
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
                heap.push(Entry::new(nd, b));
            } else if db + w < da {
                let nd = db + w;
                dist[a as usize] = nd;
                stamp[a as usize] = epoch;
                heap.push(Entry::new(nd, a));
            }
        }
        // Drain: propagate the decreases over the full (grown) adjacency.
        while let Some(e) = heap.pop() {
            let (d, v) = (e.dist(), e.node);
            if d > dist[v as usize] {
                continue;
            }
            for &(u, w) in graph.neighbors(v) {
                let nd = d + w;
                if nd < Self::label(dist, stamp, epoch, u) {
                    dist[u as usize] = nd;
                    stamp[u as usize] = epoch;
                    heap.push(Entry::new(nd, u));
                }
            }
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
        fwd.heap.push(Entry::new(0.0, a));
        bwd.dist[b as usize] = 0.0;
        bwd.stamp[b as usize] = bwd.epoch;
        bwd.heap.push(Entry::new(0.0, b));

        let mut mu = f64::INFINITY;
        // One frontier exhausting means no better meeting exists.
        while let (Some(tf), Some(tb)) = (
            fwd.heap.peek().map(|e| e.dist()),
            bwd.heap.peek().map(|e| e.dist()),
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
            let Some(e) = this.heap.pop() else {
                break;
            };
            let (d, v) = (e.dist(), e.node);
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
            for &(u, w) in graph.neighbors(v) {
                let nd = d + w;
                if nd < Self::label(dist, stamp, epoch, u) {
                    dist[u as usize] = nd;
                    stamp[u as usize] = epoch;
                    heap.push(Entry::new(nd, u));
                    let od = other_view.get(u);
                    if od.is_finite() && nd + od < mu {
                        mu = nd + od;
                    }
                }
            }
        }
        (mu < cutoff).then_some(mu)
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "L13: the full sweep is the reference the bounded and incremental searches are checked against"
)]
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

    /// The float-keyed heap entry the integer key replaced, ordered by
    /// `total_cmp` then node id: the reference the kernels are pinned to.
    #[derive(Copy, Clone, PartialEq)]
    struct FloatEntry {
        dist: f64,
        node: ObjectId,
    }

    impl Eq for FloatEntry {}

    impl Ord for FloatEntry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other
                .dist
                .total_cmp(&self.dist)
                .then_with(|| other.node.cmp(&self.node))
        }
    }

    impl PartialOrd for FloatEntry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    /// Reference drain: `run` and `repair`'s relaxation loop over plain
    /// `INFINITY`-filled labels and the float-keyed heap.
    fn ref_drain(g: &PartialGraph, dist: &mut [f64], heap: &mut BinaryHeap<FloatEntry>) {
        while let Some(FloatEntry { dist: d, node: v }) = heap.pop() {
            if d > dist[v as usize] {
                continue;
            }
            for &(u, w) in g.neighbors(v) {
                let nd = d + w;
                if nd < dist[u as usize] {
                    dist[u as usize] = nd;
                    heap.push(FloatEntry { dist: nd, node: u });
                }
            }
        }
    }

    fn ref_run(g: &PartialGraph, src: ObjectId) -> Vec<f64> {
        let mut dist = vec![f64::INFINITY; g.n()];
        dist[src as usize] = 0.0;
        let mut heap = BinaryHeap::from([FloatEntry {
            dist: 0.0,
            node: src,
        }]);
        ref_drain(g, &mut dist, &mut heap);
        dist
    }

    fn ref_repair(g: &PartialGraph, dist: &mut [f64], new: &[(Pair, f64)]) {
        let mut heap = BinaryHeap::new();
        for &(p, w) in new {
            let (a, b) = (p.lo() as usize, p.hi() as usize);
            let (da, db) = (dist[a], dist[b]);
            if da + w < db {
                dist[b] = da + w;
                heap.push(FloatEntry {
                    dist: da + w,
                    node: p.hi(),
                });
            } else if db + w < da {
                dist[a] = db + w;
                heap.push(FloatEntry {
                    dist: db + w,
                    node: p.lo(),
                });
            }
        }
        ref_drain(g, dist, &mut heap);
    }

    fn ref_bidi(g: &PartialGraph, a: ObjectId, b: ObjectId, cutoff: f64) -> Option<f64> {
        let mut dist = [vec![f64::INFINITY; g.n()], vec![f64::INFINITY; g.n()]];
        dist[0][a as usize] = 0.0;
        dist[1][b as usize] = 0.0;
        let mut heap = [
            BinaryHeap::from([FloatEntry { dist: 0.0, node: a }]),
            BinaryHeap::from([FloatEntry { dist: 0.0, node: b }]),
        ];
        let mut mu = f64::INFINITY;
        while let (Some(tf), Some(tb)) = (
            heap[0].peek().map(|e| e.dist),
            heap[1].peek().map(|e| e.dist),
        ) {
            if tf + tb >= mu.min(cutoff) {
                break;
            }
            let side = usize::from(tf > tb);
            let Some(FloatEntry { dist: d, node: v }) = heap[side].pop() else {
                break;
            };
            if d > dist[side][v as usize] {
                continue;
            }
            for &(u, w) in g.neighbors(v) {
                let nd = d + w;
                if nd < dist[side][u as usize] {
                    dist[side][u as usize] = nd;
                    heap[side].push(FloatEntry { dist: nd, node: u });
                    let od = dist[1 - side][u as usize];
                    if od.is_finite() && nd + od < mu {
                        mu = nd + od;
                    }
                }
            }
        }
        (mu < cutoff).then_some(mu)
    }

    /// Seeded edges over nodes `0..reach` (any beyond stay unreachable),
    /// with weights drawn from a few values including `0.0` and `−0.0`, so
    /// equal labels and zero-length paths are common.
    fn tied_web(reach: usize, m: usize, seed: u64) -> Vec<(Pair, f64)> {
        const WEIGHTS: [f64; 6] = [0.0, -0.0, 0.125, 0.25, 0.25, 0.375];
        let mut rng = prox_core::TinyRng::new(seed);
        let mut edges: Vec<(Pair, f64)> = Vec::new();
        while edges.len() < m {
            let (a, b) = (rng.below(reach) as ObjectId, rng.below(reach) as ObjectId);
            if a != b && edges.iter().all(|&(q, _)| q != Pair::new(a, b)) {
                edges.push((Pair::new(a, b), WEIGHTS[rng.below(WEIGHTS.len())]));
            }
        }
        edges
    }

    #[test]
    fn integer_key_pops_the_total_cmp_sequence() {
        // Labels as Dijkstra makes them: sums of non-negative weights from
        // +0.0, with many duplicates and every node pushed several times.
        let mut rng = prox_core::TinyRng::new(0x4EA9);
        let (mut ints, mut floats) = (BinaryHeap::new(), BinaryHeap::new());
        let mut label = 0.0f64;
        for i in 0..4000u32 {
            if i % 7 == 0 {
                label = 0.0;
            }
            label += [0.0, -0.0, 0.1, 0.25, 1e-300, 3.0][rng.below(6)];
            let node = rng.below(40) as ObjectId;
            ints.push(Entry::new(label, node));
            floats.push(FloatEntry { dist: label, node });
        }
        ints.push(Entry::new(f64::INFINITY, 3));
        floats.push(FloatEntry {
            dist: f64::INFINITY,
            node: 3,
        });
        while let Some(f) = floats.pop() {
            let e = ints.pop().expect("same length");
            assert_eq!((e.dist().to_bits(), e.node), (f.dist.to_bits(), f.node));
        }
        assert!(ints.is_empty());
    }

    #[test]
    fn integer_keyed_kernels_match_the_total_cmp_reference() {
        let (n, reach) = (28, 24);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for seed in 0..24u64 {
            let edges = tied_web(reach, 64, 0x1E47 + seed);
            let (head, tail) = edges.split_at(40);
            let mut g = PartialGraph::new(n);
            for &(p, w) in head {
                g.insert(p, w);
            }
            let mut dj = Dijkstra::new(n);
            let mut grown = g.clone();
            for &(p, w) in tail {
                grown.insert(p, w);
            }
            for src in [0 as ObjectId, 7, 19, 25] {
                let mut want = ref_run(&g, src);
                let got = labels(dj.run(&g, src), n);
                assert_eq!(bits(&got), bits(&want), "seed {seed} run from {src}");
                ref_repair(&grown, &mut want, tail);
                let tail_edges = tail.iter().map(|&(p, w)| (p.lo(), p.hi(), w));
                let got = labels(dj.repair(&grown, tail_edges), n);
                assert_eq!(bits(&got), bits(&want), "seed {seed} repair from {src}");
            }
            let (mut fa, mut fb) = (Dijkstra::new(n), Dijkstra::new(n));
            for q in Pair::all(n).step_by(5) {
                for cutoff in [0.125, 0.3, 0.5, f64::INFINITY] {
                    let got = Dijkstra::run_bidirectional_bounded(
                        &mut fa,
                        &mut fb,
                        &grown,
                        q.lo(),
                        q.hi(),
                        cutoff,
                    );
                    let want = ref_bidi(&grown, q.lo(), q.hi(), cutoff);
                    assert_eq!(
                        got.map(f64::to_bits),
                        want.map(f64::to_bits),
                        "seed {seed} bidi {q:?} cutoff {cutoff}"
                    );
                }
            }
        }
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
