//! Canonical unordered pairs of object ids.

use crate::ObjectId;

/// An unordered pair of distinct object ids, stored in canonical `(lo, hi)`
/// order so that `Pair::new(a, b) == Pair::new(b, a)`.
///
/// Distances are symmetric (`dist(a, b) == dist(b, a)`), so every data
/// structure in the workspace keys on `Pair` rather than on ordered tuples.
///
/// # Panics
///
/// `Pair::new` panics if `a == b`: the distance of an object to itself is
/// zero by the identity axiom and must never reach the oracle.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Pair {
    lo: ObjectId,
    hi: ObjectId,
}

impl Pair {
    /// Creates the canonical pair for `{a, b}`.
    #[inline]
    pub fn new(a: ObjectId, b: ObjectId) -> Self {
        assert_ne!(a, b, "Pair requires two distinct objects");
        if a < b {
            Pair { lo: a, hi: b }
        } else {
            Pair { lo: b, hi: a }
        }
    }

    /// The smaller id.
    #[inline]
    pub fn lo(self) -> ObjectId {
        self.lo
    }

    /// The larger id.
    #[inline]
    pub fn hi(self) -> ObjectId {
        self.hi
    }

    /// Both endpoints as `(lo, hi)`.
    #[inline]
    pub fn ends(self) -> (ObjectId, ObjectId) {
        (self.lo, self.hi)
    }

    /// A dense `u64` key (`lo << 32 | hi`), handy for hashing or sorting.
    #[inline]
    pub fn key(self) -> u64 {
        (u64::from(self.lo) << 32) | u64::from(self.hi)
    }

    /// Inverse of [`Pair::key`].
    #[inline]
    pub fn from_key(key: u64) -> Pair {
        Pair::new((key >> 32) as ObjectId, (key & 0xFFFF_FFFF) as ObjectId)
    }

    /// Given one endpoint, returns the other.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an endpoint of this pair.
    #[inline]
    pub fn other(self, x: ObjectId) -> ObjectId {
        if x == self.lo {
            self.hi
        } else {
            assert_eq!(x, self.hi, "object {x} is not an endpoint of {self:?}");
            self.lo
        }
    }

    /// Iterates over all `n * (n - 1) / 2` pairs of `0..n` in lexicographic
    /// order. This is the edge enumeration order used by the vanilla
    /// ("Without Plug") algorithm variants, fixed so that plugged and vanilla
    /// runs visit candidates identically.
    pub fn all(n: usize) -> impl Iterator<Item = Pair> {
        let n = n as ObjectId;
        (0..n).flat_map(move |a| ((a + 1)..n).map(move |b| Pair { lo: a, hi: b }))
    }

    /// Number of unordered pairs over `n` objects.
    #[inline]
    pub fn count(n: usize) -> u64 {
        let n = n as u64;
        n * n.saturating_sub(1) / 2
    }

    /// This pair's position in [`Pair::all`]`(n)`: the dense index
    /// `0..C(n, 2)` of the upper-triangular layout every pair table uses.
    ///
    /// # Panics
    ///
    /// Panics if `hi >= n`. A real assert: an out-of-range pair would
    /// otherwise silently alias another pair's slot in release builds.
    #[inline]
    pub fn rank(self, n: usize) -> usize {
        let (lo, hi) = (self.lo as usize, self.hi as usize);
        assert!(hi < n, "pair {self:?} out of range for n = {n}");
        // Row `lo` starts after the triangle above it:
        // lo * n - lo*(lo+1)/2, then offset (hi - lo - 1).
        lo * n - lo * (lo + 1) / 2 + (hi - lo - 1)
    }
}

/// A map from [`Pair`] to `T` backed by a flat upper-triangular matrix.
///
/// Dense, cache-friendly storage for per-edge state when `n` is small enough
/// that `C(n, 2)` entries fit in memory, such as ground-truth distance
/// matrices ([`crate::MatrixMetric`]). Entries sit at [`Pair::rank`]. For
/// `n = 4000` and `T = f64` this is ~64 MB. A `fill` whose bits are all zero
/// is allocated as zeroed memory, so pages the map never writes are never
/// made resident.
#[derive(Clone, Debug)]
pub struct PairMap<T> {
    n: usize,
    data: Vec<T>,
}

impl<T: Copy> PairMap<T> {
    /// Creates a map over `n` objects with every entry set to `fill`.
    pub fn new(n: usize, fill: T) -> Self {
        let len = Pair::count(n) as usize;
        PairMap {
            n,
            data: vec![fill; len],
        }
    }

    /// Number of objects.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Reads the entry for `p`.
    #[inline]
    pub fn get(&self, p: Pair) -> T {
        self.data[p.rank(self.n)]
    }

    /// Writes the entry for `p`.
    #[inline]
    pub fn set(&mut self, p: Pair, value: T) {
        self.data[p.rank(self.n)] = value;
    }

    /// Reads the entry at `rank`, a [`Pair::rank`]. Pairs `(lo, hi)` with
    /// the same `lo` sit at consecutive ranks in `hi` order, so a caller
    /// walking one such row steps the rank instead of ranking every pair.
    #[inline]
    pub fn get_ranked(&self, rank: usize) -> T {
        self.data[rank]
    }

    /// Iterates `(pair, value)` over all entries.
    pub fn iter(&self) -> impl Iterator<Item = (Pair, T)> + '_ {
        Pair::all(self.n).map(move |p| (p, self.get(p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_is_canonical() {
        assert_eq!(Pair::new(3, 7), Pair::new(7, 3));
        assert_eq!(Pair::new(3, 7).ends(), (3, 7));
        assert_eq!(Pair::new(7, 3).lo(), 3);
        assert_eq!(Pair::new(7, 3).hi(), 7);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn pair_rejects_self_loop() {
        let _ = Pair::new(4, 4);
    }

    #[test]
    fn pair_other_endpoint() {
        let p = Pair::new(2, 9);
        assert_eq!(p.other(2), 9);
        assert_eq!(p.other(9), 2);
    }

    #[test]
    #[should_panic]
    fn pair_other_rejects_non_member() {
        Pair::new(2, 9).other(5);
    }

    #[test]
    fn key_roundtrip() {
        for p in Pair::all(17) {
            assert_eq!(Pair::from_key(p.key()), p);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pairmap_rejects_out_of_range() {
        let m = PairMap::new(4, 0u8);
        let _ = m.get(Pair::new(1, 9));
    }

    #[test]
    fn pair_key_is_unique_and_ordered() {
        let keys: Vec<u64> = Pair::all(20).map(Pair::key).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(keys, sorted, "enumeration is strictly increasing by key");
        assert_eq!(keys.len() as u64, Pair::count(20));
    }

    #[test]
    fn pair_count_small_cases() {
        assert_eq!(Pair::count(0), 0);
        assert_eq!(Pair::count(1), 0);
        assert_eq!(Pair::count(2), 1);
        assert_eq!(Pair::count(7), 21); // the paper's running example
    }

    #[test]
    fn pairmap_roundtrip_all_slots() {
        let n = 13;
        let mut m = PairMap::new(n, -1i64);
        for (i, p) in Pair::all(n).enumerate() {
            m.set(p, i as i64);
        }
        for (i, p) in Pair::all(n).enumerate() {
            assert_eq!(m.get(p), i as i64);
            assert_eq!(m.get_ranked(p.rank(n)), i as i64);
        }
        // Symmetric access hits the same slot.
        assert_eq!(m.get(Pair::new(5, 2)), m.get(Pair::new(2, 5)));
    }

    #[test]
    fn rank_is_the_enumeration_index() {
        for n in [2usize, 3, 13, 40] {
            for (i, p) in Pair::all(n).enumerate() {
                assert_eq!(p.rank(n), i, "{p:?} at n = {n}");
            }
        }
    }

    #[test]
    fn pairmap_iter_matches_enumeration() {
        let mut m = PairMap::new(6, 0u32);
        for p in Pair::all(6) {
            m.set(p, p.key() as u32);
        }
        for (p, v) in m.iter() {
            assert_eq!(v, p.key() as u32);
        }
    }
}
