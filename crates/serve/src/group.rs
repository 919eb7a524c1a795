//! Pair-group queries: a whole block of comparisons in one request.
//!
//! The Proxima-style serving shape (SNIPPETS.md snippet 1): instead of
//! one round trip per pair, a client submits a *selector* describing a
//! block of pairs plus a *skip set* of pairs it already holds, and the
//! server resolves the whole group in one pass — one snapshot read in
//! place, one resolver, one commit — amortising the per-query
//! bookkeeping across the block.

use std::collections::BTreeSet;

use prox_core::{ObjectId, Pair};

/// Which pairs a group query covers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PairSelector {
    /// An explicit pair list.
    Explicit(Vec<Pair>),
    /// Every pair among `members` (a clique — the "compare this block
    /// of objects" shape).
    Block(Vec<ObjectId>),
    /// Every `(l, r)` pair with `l` from `left` and `r` from `right`
    /// (the bipartite "new objects vs. catalogue" shape).
    Cross(Vec<ObjectId>, Vec<ObjectId>),
}

/// One client request: a selector plus the pairs to skip.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PairGroupQuery {
    /// The block of comparisons requested.
    pub selector: PairSelector,
    /// Pairs the client already holds; excluded from the group.
    pub skip: BTreeSet<Pair>,
}

impl PairGroupQuery {
    /// A group over an explicit pair list with nothing skipped.
    pub fn explicit(pairs: Vec<Pair>) -> Self {
        PairGroupQuery {
            selector: PairSelector::Explicit(pairs),
            skip: BTreeSet::new(),
        }
    }

    /// Adds pairs to the skip set.
    pub fn with_skip(mut self, skip: impl IntoIterator<Item = Pair>) -> Self {
        self.skip.extend(skip);
        self
    }

    /// The group's concrete pair list: selector expanded, skip set
    /// applied, deduplicated, ascending by pair key — the canonical
    /// order every session resolves a group in, which is what keeps
    /// responses byte-identical from run to run (I12/I5).
    pub fn pairs(&self) -> Vec<Pair> {
        let mut out: Vec<Pair> = match &self.selector {
            PairSelector::Explicit(ps) => ps.clone(),
            PairSelector::Block(members) => {
                let mut ps = Vec::with_capacity(members.len() * members.len() / 2);
                for (i, &a) in members.iter().enumerate() {
                    for &b in &members[i + 1..] {
                        if a != b {
                            ps.push(Pair::new(a, b));
                        }
                    }
                }
                ps
            }
            PairSelector::Cross(left, right) => {
                let mut ps = Vec::with_capacity(left.len() * right.len());
                for &l in left {
                    for &r in right {
                        if l != r {
                            ps.push(Pair::new(l, r));
                        }
                    }
                }
                ps
            }
        };
        // `Pair`'s ordering is its key ordering, so a plain sort + dedup
        // lands on the same canonical list the old set-based expansion
        // produced, minus the per-pair tree rebalancing.
        out.sort_unstable();
        out.dedup();
        if !self.skip.is_empty() {
            out.retain(|p| !self.skip.contains(p));
        }
        out
    }
}

/// The server's answer to one group query.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GroupResponse {
    /// `(pair, distance)` for every pair in the group, in the group's
    /// canonical order. Degraded (uncertified) values appear here too;
    /// `degraded` names them.
    pub resolved: Vec<(Pair, f64)>,
    /// Pairs whose value is an uncertified degraded-mode answer (the
    /// session lost its strong tier mid-group). Never committed.
    pub degraded: Vec<Pair>,
    /// Strong-oracle calls this group cost the session.
    pub strong_calls: u64,
    /// Pairs served from the shared store snapshot (zero new cost).
    pub store_hits: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_expands_to_the_clique_in_key_order() {
        let g = PairGroupQuery {
            selector: PairSelector::Block(vec![3, 1, 2]),
            skip: BTreeSet::new(),
        };
        let pairs = g.pairs();
        assert_eq!(
            pairs,
            vec![Pair::new(1, 2), Pair::new(1, 3), Pair::new(2, 3)]
        );
        assert!(pairs.windows(2).all(|w| w[0].key() < w[1].key()));
    }

    #[test]
    fn cross_skips_self_pairs_and_dedups() {
        let g = PairGroupQuery {
            selector: PairSelector::Cross(vec![0, 1], vec![1, 2]),
            skip: BTreeSet::new(),
        };
        // (0,1), (0,2), (1,2) — the (1,1) self pair vanishes and the
        // (1,2)/(2,1) duplicates collapse.
        assert_eq!(
            g.pairs(),
            vec![Pair::new(0, 1), Pair::new(0, 2), Pair::new(1, 2)]
        );
    }

    #[test]
    fn skip_set_removes_pairs() {
        let g = PairGroupQuery::explicit(vec![Pair::new(0, 1), Pair::new(2, 3), Pair::new(4, 5)])
            .with_skip([Pair::new(2, 3)]);
        assert_eq!(g.pairs(), vec![Pair::new(0, 1), Pair::new(4, 5)]);
    }
}
