//! Hierarchical clustering: the dendrogram type, single linkage, and the
//! agglomerative driver behind complete and average linkage.
//!
//! The paper's motivating applications include hierarchical clustering of
//! fMRI data and DNA sequences (its refs. 43 and 48). Single-linkage is the classic
//! oracle-hungry case — and it is exactly the minimum spanning tree in
//! disguise: processing MST edges in ascending order of weight reproduces
//! the SLINK merge sequence. All distance savings therefore come from the
//! bound-augmented [`crate::kruskal_mst`].
//!
//! Complete and average linkage have no such shortcut. Both run the
//! crate-private `agglomerate`: an argmin over cluster pairs repeated
//! until `stop_at` clusters remain. Each cluster pair carries a band — a
//! lower bound on the aggregate of its member distances and, once
//! pinned, the exact linkage distance. The two linkages differ only in
//! the aggregate (max or sum), which an `Aggregate` supplies: how a band
//! is bounded, refreshed from current knowledge, refined with the oracle,
//! probed for exclusion and carried across a merge. Ties keep the
//! earliest pair in the active-slot scan order — an ordering that depends
//! only on the merge history, never on distance values — so a plugged run
//! makes the vanilla run's merges whenever every decision is sound.

use prox_bounds::resolver::DECISION_EPS;
use prox_bounds::DistanceResolver;
use prox_core::invariant::{expect_ok, InvariantExt};
use prox_core::{ObjectId, OracleError, Pair, PairMap};
use prox_graph::UnionFind;

use crate::try_kruskal_mst;

/// One agglomeration step: two clusters merged at a linkage height.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Merge {
    /// Cluster id of the first operand (`0..n` are singletons; `n + i` is
    /// the cluster created by merge `i`).
    pub a: u32,
    /// Cluster id of the second operand.
    pub b: u32,
    /// The linkage distance at which they merge (single, complete or
    /// average, depending on the builder).
    pub height: f64,
}

/// A dendrogram over `n` objects (`n − 1` merges), built by single,
/// complete or average linkage.
#[derive(Clone, Debug, PartialEq)]
pub struct Dendrogram {
    n: usize,
    /// Merges in ascending height order.
    pub merges: Vec<Merge>,
}

impl Dendrogram {
    /// Assembles a dendrogram from `n` leaves and a merge sequence (merge
    /// `i` creates cluster id `n + i`). Used by every linkage builder.
    pub fn from_merges(n: usize, merges: Vec<Merge>) -> Self {
        debug_assert_eq!(merges.len(), n.saturating_sub(1));
        Dendrogram { n, merges }
    }

    /// Number of leaf objects.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when there are no objects.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Flat clustering obtained by stopping after `n − k` merges — i.e.
    /// cutting the dendrogram so `k` clusters remain. Returns, per object,
    /// a dense cluster label in `0..k`.
    pub fn cut(&self, k: usize) -> Vec<u32> {
        let k = k.clamp(1, self.n.max(1));
        partition(self.n, self.merges.iter().take(self.n.saturating_sub(k)))
    }
}

/// Labels the partition that `merges` (a dendrogram prefix over `n`
/// leaves) leaves behind: per object, a dense cluster label in order of
/// first appearance by object id.
pub(crate) fn partition<'m>(n: usize, merges: impl IntoIterator<Item = &'m Merge>) -> Vec<u32> {
    let mut uf = UnionFind::new(n);
    // Merge ids refer to cluster ids; map them back to any member leaf.
    let mut leaf_of: Vec<ObjectId> = (0..n as ObjectId).collect();
    for m in merges {
        let (la, lb) = (leaf_of[m.a as usize], leaf_of[m.b as usize]);
        uf.union(la, lb);
        leaf_of.push(la); // representative leaf of the new cluster
    }
    // Compact the union-find roots into dense labels.
    let mut label_of_root = std::collections::BTreeMap::new();
    let mut labels = Vec::with_capacity(n);
    for v in 0..n as ObjectId {
        let root = uf.find(v);
        let next = label_of_root.len() as u32;
        let label = *label_of_root.entry(root).or_insert(next);
        labels.push(label);
    }
    labels
}

/// Builds the single-linkage dendrogram by running the bound-augmented
/// Kruskal and replaying its ascending edges as merges.
pub fn single_linkage<R: DistanceResolver + ?Sized>(resolver: &mut R) -> Dendrogram {
    expect_ok(
        try_single_linkage(resolver),
        "single_linkage on the infallible path",
    )
}

/// Fallible [`single_linkage`]: surfaces oracle faults instead of
/// panicking. Only the underlying Kruskal run touches the oracle; the merge
/// replay is pure bookkeeping.
pub fn try_single_linkage<R: DistanceResolver + ?Sized>(
    resolver: &mut R,
) -> Result<Dendrogram, OracleError> {
    let n = resolver.n();
    let mst = try_kruskal_mst(resolver)?;
    let mut uf = UnionFind::new(n);
    // cluster id currently representing each union-find root
    let mut cluster_of: Vec<u32> = (0..n as u32).collect();
    let mut merges = Vec::with_capacity(n.saturating_sub(1));
    for (i, &(p, w)) in mst.edges.iter().enumerate() {
        let (ra, rb) = (uf.find(p.lo()), uf.find(p.hi()));
        let (ca, cb) = (cluster_of[ra as usize], cluster_of[rb as usize]);
        uf.union(ra, rb);
        let new_root = uf.find(ra);
        let new_cluster = (n + i) as u32;
        cluster_of[new_root as usize] = new_cluster;
        merges.push(Merge {
            a: ca.min(cb),
            b: ca.max(cb),
            height: w,
        });
    }
    Ok(Dendrogram { n, merges })
}

/// What [`agglomerate`] knows about one cluster pair `(A, B)`.
#[derive(Copy, Clone, Debug, Default)]
pub(crate) struct Band {
    /// Lower bound on `D(A, B)`, from the resolver's knowledge when the
    /// band was written.
    pub(crate) lo: f64,
    /// The exact linkage distance `D(A, B)`, once pinned.
    pub(crate) exact: Option<f64>,
}

/// A linkage criterion: how the member distances of a cluster pair
/// aggregate into its linkage distance, and how [`agglomerate`] bounds,
/// refreshes, refines and merges that aggregate through the resolver `R`.
/// Member lists come lower slot first, an order that depends only on the
/// merge history.
pub(crate) trait Aggregate<R: DistanceResolver + ?Sized> {
    /// The band from the resolver's current knowledge — no oracle calls.
    fn recompute(r: &mut R, ma: &[ObjectId], mb: &[ObjectId]) -> Band;

    /// Resolves member distances until `D(A, B)` is exact.
    fn refine(r: &mut R, ma: &[ObjectId], mb: &[ObjectId]) -> Result<Band, OracleError>;

    /// A last test before refining a contender whose refreshed band still
    /// reaches `best`: `true` certifies `D(A, B) > best` without resolving.
    fn excludes(_r: &mut R, _ma: &[ObjectId], _mb: &[ObjectId], _best: f64) -> bool {
        false
    }

    /// The band of `(A ∪ B, C)` right after a merge, from the old bands
    /// `ac` and `bc` or from the members of `A ∪ B` and `C`.
    fn merged(r: &mut R, ac: Band, bc: Band, ma: &[ObjectId], mb: &[ObjectId]) -> Band;
}

/// Cluster state of one [`agglomerate`] run, indexed by slot: a merge
/// keeps the lower slot and empties the higher one.
struct Clusters<'r, R: ?Sized> {
    r: &'r mut R,
    members: Vec<Vec<ObjectId>>,
    /// Dendrogram cluster id of each slot.
    ids: Vec<u32>,
    /// The band of each slot pair.
    bands: PairMap<Band>,
}

/// The member lists of slots `x` and `y`, lower slot first: float sums
/// over members depend on the order, so every band writer uses this one.
fn slots(members: &[Vec<ObjectId>], x: usize, y: usize) -> (&[ObjectId], &[ObjectId]) {
    (&members[x.min(y)], &members[x.max(y)])
}

impl<R: DistanceResolver + ?Sized> Clusters<'_, R> {
    fn band(&self, x: usize, y: usize) -> Band {
        self.bands.get(Pair::new(x as ObjectId, y as ObjectId))
    }

    fn set_band(&mut self, x: usize, y: usize, band: Band) {
        self.bands
            .set(Pair::new(x as ObjectId, y as ObjectId), band);
    }

    /// Refreshes a band from current knowledge (no oracle calls).
    fn recompute<A: Aggregate<R>>(&mut self, x: usize, y: usize) -> Band {
        let (ma, mb) = slots(&self.members, x, y);
        let band = A::recompute(self.r, ma, mb);
        self.set_band(x, y, band);
        band
    }

    fn refine<A: Aggregate<R>>(&mut self, x: usize, y: usize) -> Result<(), OracleError> {
        let (ma, mb) = slots(&self.members, x, y);
        let band = A::refine(self.r, ma, mb)?;
        self.set_band(x, y, band);
        Ok(())
    }

    /// The certificate for the best exact pair `(bx, by)` at `best`: every
    /// other active pair must be exact (and then not smaller — the
    /// best-exact scan already preferred it if it were) or excluded by a
    /// lower bound strictly above `best`. A stale band is first refreshed
    /// (free), then probed, and only then refined. Returns `false` as soon
    /// as a refresh or refinement pins a new exact pair, so the caller
    /// picks the best exact pair again.
    fn certify<A: Aggregate<R>>(
        &mut self,
        active: &[usize],
        (bx, by, best): (usize, usize, f64),
    ) -> Result<bool, OracleError> {
        // The same rounding margin as the resolver's decisions: derived
        // bounds may sit an ulp high, and excluding a true tie would break
        // cross-resolver output equality.
        let bar = best + DECISION_EPS;
        for (x, y, rank) in scan(active, self.bands.n()) {
            let band = self.bands.get_ranked(rank);
            if (x, y) == (bx, by) || band.exact.is_some() || band.lo > bar {
                continue;
            }
            let fresh = self.recompute::<A>(x, y);
            if fresh.exact.is_none() {
                let (ma, mb) = slots(&self.members, x, y);
                if fresh.lo > bar || A::excludes(self.r, ma, mb, best) {
                    continue;
                }
                // Still a contender (or a potential tie): resolve.
                self.refine::<A>(x, y)?;
            }
            return Ok(false);
        }
        Ok(true)
    }
}

/// Active slot pairs `(x, y)`, `x < y`, in scan order, each with its
/// [`Pair::rank`] among `n` slots. Active slots ascend, so a row ranks its
/// first pair and steps the rest from it.
fn scan(active: &[usize], n: usize) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
    active.iter().enumerate().flat_map(move |(i, &x)| {
        let row = &active[i + 1..];
        let (first, rank) = row.first().map_or((0, 0), |&y| {
            (y, Pair::new(x as ObjectId, y as ObjectId).rank(n))
        });
        row.iter().map(move |&y| (x, y, rank + (y - first)))
    })
}

/// The first candidate with the smallest value; ties keep the earliest.
fn argmin(cands: impl Iterator<Item = (usize, usize, f64)>) -> Option<(usize, usize, f64)> {
    cands.fold(None, |best, c| {
        if best.is_none_or(|(_, _, v)| c.2 < v) {
            Some(c)
        } else {
            best
        }
    })
}

/// Agglomerates under the aggregate `A` until `stop_at` clusters remain
/// (clamped to `1..=n`) and returns the merges in step order. Cluster ids
/// follow [`Merge`]: leaves are `0..n`, merge `i` creates `n + i`.
///
/// Each step runs a lazy argmin: hold the best *exact* pair (by value,
/// then scan order); with none yet, refine the pair with the smallest
/// lower bound; then certify the best against every other pair. Early
/// refinements feed the scheme, which excludes most later pairs for free.
pub(crate) fn agglomerate<A: Aggregate<R>, R: DistanceResolver + ?Sized>(
    resolver: &mut R,
    stop_at: usize,
) -> Result<Vec<Merge>, OracleError> {
    let n = resolver.n();
    let mut c = Clusters {
        r: resolver,
        members: (0..n as ObjectId).map(|o| vec![o]).collect(),
        ids: (0..n as u32).collect(),
        bands: PairMap::new(n, Band::default()),
    };
    for p in Pair::all(n) {
        c.recompute::<A>(p.lo() as usize, p.hi() as usize);
    }

    let mut active: Vec<usize> = (0..n).collect();
    let steps = n.saturating_sub(stop_at.clamp(1, n.max(1)));
    let mut merges = Vec::with_capacity(steps);
    for step in 0..steps {
        let (a, b, height) = loop {
            let exact = scan(&active, n)
                .filter_map(|(x, y, rank)| c.bands.get_ranked(rank).exact.map(|d| (x, y, d)));
            if let Some(best) = argmin(exact) {
                if c.certify::<A>(&active, best)? {
                    break best;
                }
            } else {
                let lows = scan(&active, n).map(|(x, y, rank)| (x, y, c.bands.get_ranked(rank).lo));
                let (x, y, _) = argmin(lows).expect_invariant("two active clusters remain");
                c.refine::<A>(x, y)?;
            }
        };

        // Slot `a` absorbs slot `b`; then the aggregate rewrites every
        // band against the merged cluster.
        let moved = std::mem::take(&mut c.members[b]);
        c.members[a].extend(moved);
        active.retain(|&s| s != b);
        for &s in active.iter().filter(|&&s| s != a) {
            let (ac, bc) = (c.band(a, s), c.band(b, s));
            let (ma, mb) = slots(&c.members, a, s);
            let band = A::merged(c.r, ac, bc, ma, mb);
            c.set_band(a, s, band);
        }

        let (ia, ib) = (c.ids[a], c.ids[b]);
        c.ids[a] = (n + step) as u32;
        merges.push(Merge {
            a: ia.min(ib),
            b: ia.max(ib),
            height,
        });
    }
    Ok(merges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prox_bounds::{BoundResolver, TriScheme};
    use prox_core::{FnMetric, Oracle};

    fn blobs() -> Oracle<FnMetric<impl Fn(ObjectId, ObjectId) -> f64>> {
        // Blob A: {0,1,2} near 0.1; blob B: {3,4,5} near 0.9.
        let xs: [f64; 6] = [0.10, 0.11, 0.12, 0.90, 0.91, 0.92];
        Oracle::new(FnMetric::new(6, 1.0, move |a, b| {
            (xs[a as usize] - xs[b as usize]).abs()
        }))
    }

    #[test]
    fn merge_heights_ascend() {
        let oracle = blobs();
        let mut r = BoundResolver::vanilla(&oracle);
        let d = single_linkage(&mut r);
        assert_eq!(d.merges.len(), 5);
        for w in d.merges.windows(2) {
            assert!(w[0].height <= w[1].height + 1e-15);
        }
        // The final merge bridges the blobs at ~0.78.
        let last = d.merges.last().expect("five merges");
        assert!((last.height - 0.78).abs() < 1e-9, "got {}", last.height);
    }

    #[test]
    fn cut_recovers_the_blobs() {
        let oracle = blobs();
        let mut r = BoundResolver::vanilla(&oracle);
        let d = single_linkage(&mut r);
        let labels = d.cut(2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_eq!(labels[4], labels[5]);
        assert_ne!(labels[0], labels[3]);
        // k = 1: everything together; k = n: all singletons.
        assert!(d.cut(1).iter().all(|&l| l == 0));
        let singles = d.cut(6);
        let mut sorted = singles.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 6);
    }

    #[test]
    fn plugged_matches_vanilla() {
        let o1 = blobs();
        let mut v = BoundResolver::vanilla(&o1);
        let want = single_linkage(&mut v);

        let o2 = blobs();
        let mut p = BoundResolver::new(&o2, TriScheme::new(6, 1.0));
        let got = single_linkage(&mut p);
        assert_eq!(got, want);
        assert!(o2.calls() <= o1.calls());
    }
}
