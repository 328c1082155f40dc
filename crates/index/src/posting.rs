//! Impact entries and the list order.
//!
//! An impact list `L_t` holds one [`Posting`] `⟨w_{d,t}, seq⟩` per document
//! containing term `t`, where `seq` is the document's arrival sequence number
//! in the window ([`crate::WindowTerms`]) — the engine's handle on the
//! document. Postings are ordered by **decreasing** weight, ties broken by
//! increasing sequence number, i.e. by arrival. The Incremental Threshold
//! Algorithm needs three access patterns, all of which are `O(log n)` to
//! locate plus linear in the number of entries actually visited:
//!
//! * sequential descent from the top of the list (initial top-k search),
//! * resumed descent at or below a remembered weight (the query's local
//!   threshold, used by the refill step), and
//! * point insertion under document arrival.
//!
//! Expiration touches no posting: the window pops its oldest document, so a
//! posting is **live** iff `seq ≥` the window's front sequence number
//! ([`crate::WindowTerms::front_seq`]) and dead otherwise — one integer
//! compare, for count and time windows alike. Lists count their dead postings
//! and drop them in one pass once they outnumber a quarter of the live ones
//! ([`crate::SegmentedImpactList::expire`]); every read the engine makes skips
//! them ([`crate::TermLists::live_postings`]).

#![deny(clippy::disallowed_types)]

use std::cmp::Ordering;

use serde::Serialize;

use cts_text::Weight;

/// One `⟨w_{d,t}, seq⟩` impact entry of an inverted list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Posting {
    /// The impact weight `w_{d,t}`.
    pub weight: Weight,
    /// The document's arrival sequence number in the window.
    pub seq: u64,
}

impl Posting {
    /// Creates a posting.
    pub fn new(seq: u64, weight: Weight) -> Self {
        Self { weight, seq }
    }

    /// The list order: decreasing weight, then increasing sequence number.
    #[inline]
    pub fn rank(&self, other: &Posting) -> Ordering {
        other
            .weight
            .cmp(&self.weight)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// The list order through the production list, at the default segment
/// capacity, so each fixture sits in one segment (`segmented::tests` crosses
/// segment boundaries).
#[cfg(test)]
mod tests {
    use super::*;
    use crate::InvertedList;

    fn w(x: f64) -> Weight {
        Weight::new(x)
    }

    fn list(entries: &[(u64, f64)]) -> InvertedList {
        let mut l = InvertedList::new();
        for &(seq, x) in entries {
            assert!(l.insert(seq, w(x)));
        }
        l
    }

    fn seqs(it: impl Iterator<Item = Posting>) -> Vec<u64> {
        it.map(|p| p.seq).collect()
    }

    #[test]
    fn iteration_is_descending_by_weight() {
        let l = list(&[(7, 0.10), (1, 0.08), (5, 0.07), (8, 0.05), (9, 0.16)]);
        assert_eq!(seqs(l.iter()), vec![9, 7, 1, 5, 8]);
    }

    #[test]
    fn ties_break_by_arrival_sequence() {
        let l = list(&[(30, 0.5), (10, 0.5), (20, 0.5)]);
        assert_eq!(seqs(l.iter()), vec![10, 20, 30]);
    }

    #[test]
    fn insert_and_remove_roundtrip() {
        // Removal is lazy: the posting of sequence number 1 dies when the
        // front passes it and leaves the list at the next compaction.
        let mut l = list(&[(1, 0.3), (2, 0.2)]);
        assert_eq!(l.len(), 2);
        l.expire(2);
        assert_eq!((l.len(), l.dead()), (1, 0), "1 dead of 1 live compacts");
        assert_eq!(seqs(l.iter()), vec![2]);
        assert_eq!(seqs(l.iter_at_or_below(w(0.3))), vec![2]);
    }

    #[test]
    fn duplicate_insert_is_rejected() {
        let mut l = InvertedList::new();
        assert!(l.insert(1, w(0.5)));
        assert!(!l.insert(1, w(0.5)));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn iter_at_or_below_includes_equal_weights() {
        let l = list(&[(7, 0.10), (1, 0.08), (5, 0.07), (8, 0.05)]);
        assert_eq!(seqs(l.iter_at_or_below(w(0.08))), vec![1, 5, 8]);
        assert_eq!(l.iter_at_or_below(w(0.01)).count(), 0);
        assert_eq!(l.iter_at_or_below(w(1.0)).count(), 4);
    }

    #[test]
    fn empty_list_behaviour() {
        let l = InvertedList::new();
        assert!(l.is_empty());
        assert_eq!(l.iter_at_or_below(w(1.0)).count(), 0);
        assert_eq!(l.iter().count(), 0);
    }

    #[test]
    fn duplicate_weight_run_at_the_head_of_the_list() {
        // A run of equal weights at the very top: a descent cursor must treat
        // the whole run as one tie group on either side of the boundary.
        let l = list(&[(3, 0.9), (1, 0.9), (2, 0.9), (4, 0.5)]);
        assert_eq!(seqs(l.iter_at_or_below(w(0.9))), vec![1, 2, 3, 4]);
        assert_eq!(seqs(l.iter_at_or_below(w(0.89))), vec![4]);
    }

    #[test]
    fn duplicate_weight_run_at_the_tail_of_the_list() {
        let l = list(&[(1, 0.9), (7, 0.2), (5, 0.2), (6, 0.2)]);
        assert_eq!(seqs(l.iter_at_or_below(w(0.2))), vec![5, 6, 7]);
        assert_eq!(l.iter_at_or_below(w(0.19)).count(), 0);
        // Compacting away the run's oldest posting keeps order intact.
        let mut l = l;
        l.compact(6);
        assert_eq!(seqs(l.iter_at_or_below(w(0.2))), vec![6, 7]);
        assert_eq!(seqs(l.iter()), vec![6, 7], "0.9 had sequence number 1");
    }
}
