//! Single-source shortest paths with reusable, epoch-stamped scratch space,
//! for SPLUB's bound queries (road-network ground truth is built by
//! `prox-datasets`' own bucket sweep). Two kernels share one scratch
//! structure and walk each node's arcs as one slice:
//!
//! * [`Dijkstra::run`] — classic full SSSP, `O(touched)` per call instead
//!   of paying an `O(n)` dist reset (epoch stamps);
//! * [`Dijkstra::repair`] — decrease-only incremental maintenance
//!   (Ramalingam–Reps style) of the tree left by the previous `run` after
//!   new edges were inserted.
//!
//! Both drain an indexed 4-ary queue with decrease-key, keyed by the
//! integer `(label.to_bits(), node)`. Labels are sums of non-negative
//! weights from `+0.0` (and `+0.0 + −0.0 = +0.0`), so none is negative,
//! NaN or `−0.0`, and on such values the bit pattern read as an unsigned
//! integer orders exactly like `f64::total_cmp`. The queue pops the
//! sequence a float-keyed one would, at the cost of one inlined integer
//! compare (`integer_key_pops_the_total_cmp_sequence` pins it). A node
//! holds one slot, so it is queued at most once and popped once, and a
//! popped node's slot is cleared, which lets `repair` re-open exactly the
//! settled nodes whose label drops.

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

/// A [`Queue`] key, ordered by `(label bits, node)`: the module docs say
/// why the bits order like `f64::total_cmp`, and the node breaks ties so
/// the visit order is fully deterministic.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    bits: u64,
    node: ObjectId,
}

/// Slot of a node that is not in the [`Queue`].
const UNQUEUED: u32 = u32::MAX;

/// Indexed 4-ary min-queue with decrease-key over [`Key`]s. No two
/// entries share a node, so no two share a key, and the pop sequence does
/// not depend on the heap's shape.
///
/// Every slot reads [`UNQUEUED`] whenever the queue is empty, which is
/// between any two kernel calls: `run` and `repair` drain it, and
/// [`Queue::clear`] restores it after a panic cut a drain short.
struct Queue {
    /// Heap-ordered keys: each is no larger than its four children's.
    heap: Vec<Key>,
    /// Each node's index in `heap`, or [`UNQUEUED`].
    slot: Vec<u32>,
}

impl Queue {
    fn new(n: usize) -> Self {
        Queue {
            heap: Vec::with_capacity(64),
            slot: vec![UNQUEUED; n],
        }
    }

    fn clear(&mut self) {
        for &k in &self.heap {
            self.slot[k.node as usize] = UNQUEUED;
        }
        self.heap.clear();
    }

    /// Queues `node` at `label`, or lowers its queued label to `label`
    /// (which must be smaller than the queued one).
    #[inline(always)]
    fn set(&mut self, node: ObjectId, label: f64) {
        debug_assert!(
            label.is_sign_positive() && !label.is_nan(),
            "Dijkstra label {label} is negative, -0.0 or NaN"
        );
        let key = Key {
            bits: label.to_bits(),
            node,
        };
        let at = match self.slot[node as usize] {
            UNQUEUED => {
                self.heap.push(key);
                self.heap.len() - 1
            }
            at => at as usize,
        };
        self.sift_up(at, key);
    }

    /// Removes and returns the smallest `(label, node)`, clearing its slot.
    #[inline(always)]
    fn pop(&mut self) -> Option<(f64, ObjectId)> {
        let last = self.heap.pop()?;
        let top = match self.heap.first() {
            Some(&top) => {
                self.sift_down(last);
                top
            }
            None => last,
        };
        self.slot[top.node as usize] = UNQUEUED;
        Some((f64::from_bits(top.bits), top.node))
    }

    /// Moves the hole at `at` up until `key` fits, then fills it.
    #[inline(always)]
    fn sift_up(&mut self, mut at: usize, key: Key) {
        while at > 0 {
            let parent = (at - 1) / 4;
            let pk = self.heap[parent];
            if pk < key {
                break;
            }
            self.heap[at] = pk;
            self.slot[pk.node as usize] = at as u32;
            at = parent;
        }
        self.heap[at] = key;
        self.slot[key.node as usize] = at as u32;
    }

    /// Moves the hole at the root down until `key` fits, then fills it.
    #[inline]
    fn sift_down(&mut self, key: Key) {
        let len = self.heap.len();
        let mut at = 0;
        loop {
            let first = 4 * at + 1;
            if first >= len {
                break;
            }
            let (child, ck) = if let Some(c) = self.heap.get(first..first + 4) {
                // Two rounds of pairwise minima.
                let (a, ak) = if c[1] < c[0] { (1, c[1]) } else { (0, c[0]) };
                let (b, bk) = if c[3] < c[2] { (3, c[3]) } else { (2, c[2]) };
                if bk < ak {
                    (first + b, bk)
                } else {
                    (first + a, ak)
                }
            } else {
                let mut best = (first, self.heap[first]);
                for (i, &k) in self.heap.iter().enumerate().skip(first + 1) {
                    if k < best.1 {
                        best = (i, k);
                    }
                }
                best
            };
            if key < ck {
                break;
            }
            self.heap[at] = ck;
            self.slot[ck.node as usize] = at as u32;
            at = child;
        }
        self.heap[at] = key;
        self.slot[key.node as usize] = at as u32;
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
/// SPLUB runs SSSP computations per bound query (`O(m log n)` each: every
/// relaxation that lowers a label costs one `O(log n)` sift in the 4-ary
/// queue; the paper's `O(m + n log n)` assumes a Fibonacci heap's `O(1)`
/// decrease-key); reusing the distance array and queue across queries
/// keeps them allocation-free after warm-up, and the epoch stamp makes the
/// per-run reset `O(1)` instead of `O(n)` (`dijkstra_reset/*` bench cells).
pub struct Dijkstra {
    dist: Vec<f64>,
    stamp: Vec<u32>,
    epoch: u32,
    queue: Queue,
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
            queue: Queue::new(n),
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
        self.queue.clear();
    }

    /// Panics unless the scratch holds every node of `graph`.
    fn check_fits<G: Adjacency + ?Sized>(&self, graph: &G) {
        let n = graph.n();
        assert!(
            n <= self.dist.len(),
            "graph larger than Dijkstra scratch ({} > {})",
            n,
            self.dist.len()
        );
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

    /// Writes `label` as `v`'s label and queues `v` at it (or lowers its
    /// queued entry).
    #[inline]
    fn lower(&mut self, v: ObjectId, label: f64) {
        self.dist[v as usize] = label;
        self.stamp[v as usize] = self.epoch;
        self.queue.set(v, label);
    }

    /// Pops the queue until it is empty, relaxing each popped node's arcs
    /// over `graph`, and reports each pop to `settled` in pop order.
    #[inline]
    fn drain<G: Adjacency + ?Sized>(&mut self, graph: &G, mut settled: impl FnMut(ObjectId, f64)) {
        let Dijkstra {
            dist,
            stamp,
            epoch,
            queue,
        } = self;
        let epoch = *epoch;
        while let Some((d, v)) = queue.pop() {
            settled(v, d);
            for &(u, w) in graph.neighbors(v) {
                let nd = d + w;
                if nd < Self::label(dist, stamp, epoch, u) {
                    dist[u as usize] = nd;
                    stamp[u as usize] = epoch;
                    queue.set(u, nd);
                }
            }
        }
    }

    /// Runs SSSP from `src` over `graph` and returns the label view;
    /// unreachable nodes read `f64::INFINITY`.
    pub fn run<G: Adjacency + ?Sized>(&mut self, graph: &G, src: ObjectId) -> DistMap<'_> {
        self.run_settling(graph, src, |_, _| {});
        self.view()
    }

    /// [`run`](Dijkstra::run), reporting each pop to `settled`.
    fn run_settling<G: Adjacency + ?Sized>(
        &mut self,
        graph: &G,
        src: ObjectId,
        settled: impl FnMut(ObjectId, f64),
    ) {
        self.check_fits(graph);
        self.begin_epoch();
        self.lower(src, 0.0);
        self.drain(graph, settled);
    }

    /// Decrease-only repair of the tree left by the previous [`run`] after
    /// `new_edges` were *inserted* into `graph` (which must already
    /// contain them). Yields labels bitwise-identical to a fresh `run`
    /// over the grown graph: a Dijkstra label is the minimum over paths of
    /// the left-folded float sum, which is order-independent, and the
    /// drain below relaxes every path that improves through a new edge.
    /// Only the nodes whose label drops are queued again.
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
        self.repair_settling(graph, new_edges, |_, _| {});
        self.view()
    }

    /// [`repair`](Dijkstra::repair), reporting each pop to `settled`.
    fn repair_settling<G, I>(&mut self, graph: &G, new_edges: I, settled: impl FnMut(ObjectId, f64))
    where
        G: Adjacency + ?Sized,
        I: IntoIterator<Item = (ObjectId, ObjectId, f64)>,
    {
        self.check_fits(graph);
        self.queue.clear();
        // Seed: each new edge may shortcut either endpoint from the other.
        for (a, b, w) in new_edges {
            let label = |v| Self::label(&self.dist, &self.stamp, self.epoch, v);
            let (da, db) = (label(a), label(b));
            if da + w < db {
                self.lower(b, da + w);
            } else if db + w < da {
                self.lower(a, db + w);
            }
        }
        // Drain: propagate the decreases over the full (grown) adjacency.
        self.drain(graph, settled);
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "L13: the full sweep is the reference the incremental repair is checked against"
)]
mod tests {
    use super::*;
    use prox_core::Pair;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

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

    /// Deterministic pseudo-random edge set for repair comparisons.
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

    /// What a reference drain did: its pops that were not stale, as
    /// `(label bits, node)` in pop order, and how many stale entries it
    /// skipped (one per label that dropped after its node was queued).
    #[derive(Default)]
    struct Drained {
        pops: Vec<(u64, ObjectId)>,
        stale: usize,
    }

    /// Reference drain: `run` and `repair`'s relaxation loop over plain
    /// `INFINITY`-filled labels and the lazy float-keyed heap.
    fn ref_drain(g: &PartialGraph, dist: &mut [f64], heap: &mut BinaryHeap<FloatEntry>) -> Drained {
        let mut drained = Drained::default();
        while let Some(FloatEntry { dist: d, node: v }) = heap.pop() {
            if d > dist[v as usize] {
                drained.stale += 1;
                continue;
            }
            drained.pops.push((d.to_bits(), v));
            for &(u, w) in g.neighbors(v) {
                let nd = d + w;
                if nd < dist[u as usize] {
                    dist[u as usize] = nd;
                    heap.push(FloatEntry { dist: nd, node: u });
                }
            }
        }
        drained
    }

    fn ref_run(g: &PartialGraph, src: ObjectId) -> (Vec<f64>, Drained) {
        let mut dist = vec![f64::INFINITY; g.n()];
        dist[src as usize] = 0.0;
        let mut heap = BinaryHeap::from([FloatEntry {
            dist: 0.0,
            node: src,
        }]);
        let drained = ref_drain(g, &mut dist, &mut heap);
        (dist, drained)
    }

    fn ref_repair(g: &PartialGraph, dist: &mut [f64], new: &[(Pair, f64)]) -> Drained {
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
        ref_drain(g, dist, &mut heap)
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
        // The queue's `Key` order, through a plain min-heap, must pop what
        // the float-keyed reference pops.
        let key = |label: f64, node| {
            Reverse(Key {
                bits: label.to_bits(),
                node,
            })
        };
        let mut rng = prox_core::TinyRng::new(0x4EA9);
        let (mut ints, mut floats) = (BinaryHeap::new(), BinaryHeap::new());
        let mut label = 0.0f64;
        for i in 0..4000u32 {
            if i % 7 == 0 {
                label = 0.0;
            }
            label += [0.0, -0.0, 0.1, 0.25, 1e-300, 3.0][rng.below(6)];
            let node = rng.below(40) as ObjectId;
            ints.push(key(label, node));
            floats.push(FloatEntry { dist: label, node });
        }
        ints.push(key(f64::INFINITY, 3));
        floats.push(FloatEntry {
            dist: f64::INFINITY,
            node: 3,
        });
        while let Some(f) = floats.pop() {
            let Reverse(k) = ints.pop().expect("same length");
            assert_eq!((k.bits, k.node), (f.dist.to_bits(), f.node));
        }
        assert!(ints.is_empty());
    }

    /// Each of `n` seeded points in the unit square joined to its `k`
    /// nearest, weighted by distance, in a seeded order: like kNN's known
    /// graph, many short edges join near points, so a label drops several
    /// times before it settles.
    fn plane_web(n: usize, k: usize, seed: u64) -> Vec<(Pair, f64)> {
        let mut rng = prox_core::TinyRng::new(seed);
        let at: Vec<(f64, f64)> = (0..n).map(|_| (rng.unit_f64(), rng.unit_f64())).collect();
        let len = |a: usize, b: usize| (at[a].0 - at[b].0).hypot(at[a].1 - at[b].1);
        let mut edges: Vec<(Pair, f64)> = Vec::new();
        for a in 0..n {
            let mut near: Vec<usize> = (0..n).filter(|&b| b != a).collect();
            near.sort_by(|&x, &y| len(a, x).total_cmp(&len(a, y)));
            for &b in &near[..k] {
                let p = Pair::new(a as ObjectId, b as ObjectId);
                if edges.iter().all(|&(q, _)| q != p) {
                    edges.push((p, len(a, b)));
                }
            }
        }
        for i in (1..edges.len()).rev() {
            edges.swap(i, rng.below(i + 1));
        }
        edges
    }

    /// `edges[..split]` and all of `edges` as graphs over `n` nodes.
    fn head_and_grown(
        n: usize,
        edges: &[(Pair, f64)],
        split: usize,
    ) -> (PartialGraph, PartialGraph) {
        let mut g = PartialGraph::new(n);
        for &(p, w) in &edges[..split] {
            g.insert(p, w);
        }
        let mut grown = g.clone();
        for &(p, w) in &edges[split..] {
            grown.insert(p, w);
        }
        (g, grown)
    }

    #[test]
    fn integer_keyed_kernels_match_the_total_cmp_reference() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Tied webs (equal and `±0.0` weights, nodes 24.. unreachable) and
        // kNN-like plane webs, where labels drop many times.
        let webs = (0..24u64)
            .map(|s| (28, tied_web(24, 64, 0x1E47 + s)))
            .chain((0..12u64).map(|s| (60, plane_web(60, 5, 0x9A7E + s))));
        let (mut stale_run, mut stale_repair) = (0, 0);
        for (web, (n, edges)) in webs.enumerate() {
            let split = edges.len() * 5 / 8;
            let (g, grown) = head_and_grown(n, &edges, split);
            let tail = &edges[split..];
            let mut dj = Dijkstra::new(n);
            for src in [0 as ObjectId, 7, 19, 25] {
                let (mut want, drained) = ref_run(&g, src);
                stale_run += drained.stale;
                let got = labels(dj.run(&g, src), n);
                assert_eq!(bits(&got), bits(&want), "web {web} run from {src}");
                stale_repair += ref_repair(&grown, &mut want, tail).stale;
                let tail_edges = tail.iter().map(|&(p, w)| (p.lo(), p.hi(), w));
                let got = labels(dj.repair(&grown, tail_edges), n);
                assert_eq!(bits(&got), bits(&want), "web {web} repair from {src}");
            }
        }
        // The webs exercise decrease-key: every stale entry the lazy
        // reference skipped is a queued label that dropped.
        assert!(
            stale_run > 300 && stale_repair > 300,
            "labels dropped too rarely: {stale_run} in runs, {stale_repair} in repairs"
        );
    }

    #[test]
    fn each_reached_node_pops_once_in_key_order() {
        let n = 60;
        let webs = (0..8u64)
            .map(|s| (true, plane_web(n, 5, 0x509 + s)))
            .chain((0..8u64).map(|s| (false, tied_web(48, 110, 0x7E + s))));
        for (w, (positive, edges)) in webs.enumerate() {
            let split = edges.len() * 2 / 3;
            let (g, grown) = head_and_grown(n, &edges, split);
            let tail = &edges[split..];
            let mut dj = Dijkstra::new(n);
            for src in [0 as ObjectId, 5, 31] {
                let mut pops = Vec::new();
                dj.run_settling(&g, src, |v, d| pops.push((d.to_bits(), v)));
                let before = labels(dj.view(), n);
                let (mut want, drained) = ref_run(&g, src);
                // The lazy heap's pops that are not stale, in its order.
                assert_eq!(pops, drained.pops, "web {w} run from {src}");
                // Each reached node once, at its final label.
                let mut reached: Vec<(u64, ObjectId)> = (0..n as ObjectId)
                    .filter(|&v| before[v as usize].is_finite())
                    .map(|v| (before[v as usize].to_bits(), v))
                    .collect();
                let mut sorted = pops.clone();
                sorted.sort_unstable();
                reached.sort_unstable();
                assert_eq!(sorted, reached, "web {w} run from {src}");
                // Ascending `(label, node)`. A zero-weight arc may reach a
                // lower-numbered node at the popped label itself, so
                // webs with zero weights are only ascending in label.
                if positive {
                    assert!(
                        pops.windows(2).all(|p| p[0] < p[1]),
                        "web {w} run from {src}"
                    );
                } else {
                    assert!(
                        pops.windows(2).all(|p| p[0].0 <= p[1].0),
                        "web {w} run from {src}"
                    );
                }

                let mut pops = Vec::new();
                let tail_edges = tail.iter().map(|&(p, w)| (p.lo(), p.hi(), w));
                dj.repair_settling(&grown, tail_edges, |v, d| pops.push((d.to_bits(), v)));
                let after = labels(dj.view(), n);
                assert_eq!(
                    pops,
                    ref_repair(&grown, &mut want, tail).pops,
                    "web {w} repair from {src}"
                );
                // Exactly the nodes whose label dropped, once each.
                let mut dropped: Vec<(u64, ObjectId)> = (0..n as ObjectId)
                    .filter(|&v| after[v as usize] < before[v as usize])
                    .map(|v| (after[v as usize].to_bits(), v))
                    .collect();
                pops.sort_unstable();
                dropped.sort_unstable();
                assert_eq!(pops, dropped, "web {w} repair from {src}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "graph larger than Dijkstra scratch")]
    fn repair_refuses_a_graph_larger_than_its_scratch() {
        let mut dj = Dijkstra::new(4);
        let _ = dj.run(&path_graph(4), 0);
        let _ = dj.repair(&path_graph(6), [(3, 4, 1.0)]);
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
