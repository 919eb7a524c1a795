//! The resolver's bound memo: a direct-mapped table of exact sandwiches.
//!
//! Slot `rank(p) mod 2^16` holds the `(lb, ub)` last memoized for some
//! pair with that low rank, plus one packed word: the pair's high rank
//! bits (the *tag*) in the low `tag_bits` bits and the memo's stamp above
//! them. A lookup whose tag differs is a miss. The table has
//! `min(C(n, 2), 2^16)` slots of 24 bytes, so it never exceeds 1.5 MB; up
//! to C(n, 2) = 2^16 pairs (n ≤ 362) every pair owns its slot, the tag is
//! empty and nothing is ever evicted.

use prox_core::invariant;
use prox_core::Pair;

/// log2 of the slot count of the largest table.
const SLOT_BITS: u32 = 16;

/// Slot count of the largest table: 2^16 × 24 B = 1.5 MB.
pub(crate) const MAX_SLOTS: usize = 1 << SLOT_BITS;

/// A fixed-size, direct-mapped `(lb, ub, stamp)` table keyed by pair rank.
pub(crate) struct BoundMemo {
    n: usize,
    /// `(lb, ub, stamp << tag_bits | tag)`; an all-zero slot is empty,
    /// since stamps start at 1.
    slots: Vec<(f64, f64, u64)>,
    /// Width of the tag field: enough bits for the largest `rank >> 16`.
    tag_bits: u32,
    /// Slot reads and writes so far, for tests that pin which probes touch
    /// the table.
    #[cfg(test)]
    pub(crate) reads: std::cell::Cell<u64>,
    #[cfg(test)]
    pub(crate) writes: u64,
}

impl BoundMemo {
    /// An empty table over `n` objects, allocated zeroed.
    pub(crate) fn new(n: usize) -> Self {
        let pairs = Pair::count(n);
        let max_tag = pairs.saturating_sub(1) >> SLOT_BITS;
        BoundMemo {
            n,
            slots: vec![(0.0, 0.0, 0); pairs.min(MAX_SLOTS as u64) as usize],
            tag_bits: u64::BITS - max_tag.leading_zeros(),
            #[cfg(test)]
            reads: std::cell::Cell::new(0),
            #[cfg(test)]
            writes: 0,
        }
    }

    /// Number of slots.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.slots.len()
    }

    /// The slot `p` maps to and the tag that marks it as `p`'s.
    #[inline]
    fn locate(&self, p: Pair) -> (usize, u64) {
        let rank = p.rank(self.n);
        (rank & (MAX_SLOTS - 1), (rank >> SLOT_BITS) as u64)
    }

    /// The `(lb, ub, stamp)` memoized for `p`, or `None` when its slot is
    /// empty or holds another pair.
    #[inline]
    pub(crate) fn get(&self, p: Pair) -> Option<(f64, f64, u64)> {
        #[cfg(test)]
        self.reads.set(self.reads.get() + 1);
        let (slot, tag) = self.locate(p);
        let (lb, ub, word) = self.slots[slot];
        let tag_mask = (1u64 << self.tag_bits) - 1;
        let stamp = word >> self.tag_bits;
        (stamp != 0 && word & tag_mask == tag).then_some((lb, ub, stamp))
    }

    /// True when `p`'s slot is filled with another pair's sandwich.
    #[cfg(test)]
    pub(crate) fn holds_other(&self, p: Pair) -> bool {
        let (slot, _) = self.locate(p);
        self.slots[slot].2 != 0 && self.get(p).is_none()
    }

    /// Memoizes `(lb, ub)` for `p` under `stamp ≥ 1`, evicting whichever
    /// pair held the slot.
    #[inline]
    pub(crate) fn put(&mut self, p: Pair, lb: f64, ub: f64, stamp: u64) {
        #[cfg(test)]
        {
            self.writes += 1;
        }
        invariant!(stamp != 0, "memo stamp 0 marks an empty slot");
        let (slot, tag) = self.locate(p);
        self.slots[slot] = (lb, ub, pack(tag, stamp, self.tag_bits));
    }
}

/// Packs `stamp` above a `tag_bits`-wide `tag`. A field that does not fit
/// fails an invariant: truncating it would let a stale or foreign entry
/// pass the lookup's checks.
#[inline]
fn pack(tag: u64, stamp: u64, tag_bits: u32) -> u64 {
    invariant!(
        tag >> tag_bits == 0,
        "memo tag {tag} does not fit in {tag_bits} bits"
    );
    invariant!(
        stamp.leading_zeros() >= tag_bits,
        "memo stamp {stamp} does not fit in {} bits",
        u64::BITS - tag_bits
    );
    (stamp << tag_bits) | tag
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pair at `rank` in `Pair::all(n)`.
    fn unrank(n: usize, rank: usize) -> Pair {
        let p = Pair::all(n).nth(rank).expect("rank in range");
        assert_eq!(p.rank(n), rank);
        p
    }

    #[test]
    fn table_is_slot_for_slot_up_to_two_to_the_sixteen_pairs() {
        // C(362, 2) = 65,341 pairs: one slot each, no tag.
        let m = BoundMemo::new(362);
        assert_eq!(m.len(), Pair::count(362) as usize);
        assert_eq!(m.tag_bits, 0);
        // C(400, 2) = 79,800 pairs: capped at 2^16 slots, one tag bit.
        let m = BoundMemo::new(400);
        assert_eq!(m.len(), MAX_SLOTS);
        assert_eq!(m.tag_bits, 1);
        // 1.5 MB at any n.
        let m = BoundMemo::new(10_000);
        assert_eq!(m.len() * std::mem::size_of::<(f64, f64, u64)>(), 1_572_864);
        assert_eq!(m.tag_bits, 10);
    }

    #[test]
    fn colliding_pairs_never_serve_each_other() {
        let n = 400;
        let (p, q) = (unrank(n, 1234), unrank(n, 1234 + MAX_SLOTS));
        let mut m = BoundMemo::new(n);
        assert_eq!(m.get(p), None, "a fresh table is empty");
        m.put(p, 0.25, 0.5, 7);
        assert_eq!(m.get(p), Some((0.25, 0.5, 7)));
        assert_eq!(m.get(q), None, "q's lookup must not see p's sandwich");
        m.put(q, 0.75, 1.0, 9);
        assert_eq!(m.get(q), Some((0.75, 1.0, 9)));
        assert_eq!(m.get(p), None, "q evicted p");
    }

    #[test]
    fn packing_round_trips_at_the_field_limits() {
        let m = BoundMemo::new(10_000);
        let max_tag = (Pair::count(10_000) - 1) >> SLOT_BITS;
        assert_eq!(
            pack(max_tag, 1, m.tag_bits) & ((1 << m.tag_bits) - 1),
            max_tag
        );
        let max_stamp = u64::MAX >> m.tag_bits;
        assert_eq!(
            pack(max_tag, max_stamp, m.tag_bits) >> m.tag_bits,
            max_stamp
        );
        assert_eq!(
            pack(0, u64::MAX, 0),
            u64::MAX,
            "no tag: the stamp has every bit"
        );
    }

    #[test]
    #[should_panic(expected = "internal invariant violated: memo stamp")]
    fn stamp_overflow_fails_rather_than_aliasing() {
        // n = 400 leaves 63 stamp bits; 2^63 would drop its top bit.
        let mut m = BoundMemo::new(400);
        m.put(unrank(400, 5), 0.0, 1.0, 1 << 63);
    }

    #[test]
    #[should_panic(expected = "internal invariant violated: memo tag")]
    fn tag_overflow_fails_rather_than_aliasing() {
        let _ = pack(2, 1, 1);
    }
}
