//! Impact entries and the flat sorted-`Vec` impact list.
//!
//! An impact list `L_t` holds one [`Posting`] `⟨w_{d,t}, d⟩` per valid
//! document containing term `t`, ordered by **decreasing** weight (ties broken
//! by increasing document id). The Incremental Threshold Algorithm needs
//! three access patterns, all of which are `O(log n)` to locate plus linear in
//! the number of entries actually visited:
//!
//! * sequential descent from the top of the list (initial top-k search),
//! * resumed descent strictly below a remembered weight (the query's local
//!   threshold, used by the refill step), and
//! * point insertion/removal under document arrival and expiration.
//!
//! [`FlatImpactList`] is the single sorted `Vec<Posting>` layout of PR 2:
//! every locate is one binary search (`partition_point`) and every traversal
//! is a contiguous slice scan. Its weakness, measured in `BENCH_fig3a.json`,
//! is the point update: the few head terms whose lists reach window length
//! pay a full-tail `memmove` on every arrival and expiration, which at 10k+
//! document windows dominates ITA's event cost. The production list is
//! therefore the segmented layout ([`crate::SegmentedImpactList`]), which
//! bounds the `memmove` by the segment capacity while keeping every descent a
//! contiguous scan; the flat layout is retained with its full API as
//!
//! * the reference arm of the randomized differential test
//!   (`tests/differential_impact_list.rs`), and
//! * the `impact_flat` arm of the `ablation_threshold_tree` benchmark.

use std::cmp::Ordering;

use serde::{Deserialize, Serialize};

use cts_text::Weight;

use crate::document::DocId;

/// One `⟨w_{d,t}, d⟩` impact entry of an inverted list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Posting {
    /// The impact weight `w_{d,t}`.
    pub weight: Weight,
    /// The document.
    pub doc: DocId,
}

impl Posting {
    /// Creates a posting.
    pub fn new(doc: DocId, weight: Weight) -> Self {
        Self { weight, doc }
    }

    /// The list order: decreasing weight, then increasing document id.
    #[inline]
    pub(crate) fn rank(&self, other: &Posting) -> Ordering {
        other
            .weight
            .cmp(&self.weight)
            .then_with(|| self.doc.cmp(&other.doc))
    }
}

/// An impact-ordered inverted list for a single term, backed by a single
/// sorted `Vec` (decreasing weight, ties by increasing document id).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlatImpactList {
    entries: Vec<Posting>,
}

impl FlatImpactList {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the first entry whose weight is **strictly below** `weight`
    /// (all entries before it have weight ≥ `weight`).
    #[inline]
    fn first_below(&self, weight: Weight) -> usize {
        self.entries.partition_point(|p| p.weight >= weight)
    }

    /// Index of the first entry whose weight is **at or below** `weight`
    /// (all entries before it have weight > `weight`).
    #[inline]
    fn first_at_or_below(&self, weight: Weight) -> usize {
        self.entries.partition_point(|p| p.weight > weight)
    }

    /// Inserts the posting for `doc` with weight `weight`.
    /// Returns `false` if an identical posting was already present.
    pub fn insert(&mut self, doc: DocId, weight: Weight) -> bool {
        let posting = Posting::new(doc, weight);
        match self.entries.binary_search_by(|p| p.rank(&posting)) {
            Ok(_) => false,
            Err(at) => {
                self.entries.insert(at, posting);
                true
            }
        }
    }

    /// Removes the posting for `doc` with weight `weight`.
    /// Returns `true` if the posting was present.
    pub fn remove(&mut self, doc: DocId, weight: Weight) -> bool {
        let posting = Posting::new(doc, weight);
        match self.entries.binary_search_by(|p| p.rank(&posting)) {
            Ok(at) => {
                self.entries.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    /// Number of postings in the list.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The posting with the highest weight, if any.
    pub fn first(&self) -> Option<Posting> {
        self.entries.first().copied()
    }

    /// The full list in decreasing-weight order, as a contiguous slice.
    pub fn as_slice(&self) -> &[Posting] {
        &self.entries
    }

    /// Iterates over all postings in decreasing-weight order.
    pub fn iter(&self) -> impl Iterator<Item = Posting> + '_ {
        self.entries.iter().copied()
    }

    /// Iterates over postings **strictly below** `weight` (i.e. `w_{d,t} <
    /// weight`), in decreasing-weight order. This is the "resume the search
    /// below the local threshold" access path of ITA's refill step.
    pub fn iter_below(&self, weight: Weight) -> impl Iterator<Item = Posting> + '_ {
        self.entries[self.first_below(weight)..].iter().copied()
    }

    /// Iterates over postings with weight **at or above** `weight`
    /// (`w_{d,t} ≥ weight`), in decreasing-weight order. Used by invariant
    /// checks ("every document above a local threshold is in R").
    pub fn iter_at_or_above(&self, weight: Weight) -> impl Iterator<Item = Posting> + '_ {
        self.entries[..self.first_below(weight)].iter().copied()
    }

    /// Iterates over postings with weight **at or below** `weight`
    /// (`w_{d,t} ≤ weight`), in decreasing-weight order. ITA's refill resumes
    /// its descent here: entries tied with the recorded local threshold may or
    /// may not have been visited before, so the caller skips documents that
    /// are already in its result set.
    pub fn iter_at_or_below(&self, weight: Weight) -> impl Iterator<Item = Posting> + '_ {
        self.entries[self.first_at_or_below(weight)..]
            .iter()
            .copied()
    }

    /// Iterates over postings whose weight lies in `[lower, upper)`, in
    /// decreasing-weight order. Used by ITA's roll-up to find the documents
    /// whose only support was the just-raised threshold segment.
    pub fn iter_weight_range(
        &self,
        lower_inclusive: Weight,
        upper_exclusive: Weight,
    ) -> impl Iterator<Item = Posting> + '_ {
        let start = self.first_below(upper_exclusive);
        let end = self.first_below(lower_inclusive).max(start);
        self.entries[start..end].iter().copied()
    }

    /// The posting immediately following `previous` in descending order
    /// (strictly after it), if any. Passing `None` returns the first posting.
    /// This is the sequential-descent cursor used by the threshold algorithm.
    pub fn next_after(&self, previous: Option<Posting>) -> Option<Posting> {
        match previous {
            None => self.first(),
            Some(p) => {
                let at = match self.entries.binary_search_by(|e| e.rank(&p)) {
                    Ok(at) => at + 1,
                    Err(at) => at,
                };
                self.entries.get(at).copied()
            }
        }
    }

    /// The posting immediately **above** the given weight position: the
    /// lowest-ranked posting whose weight is strictly greater than `weight`.
    /// This is the `c_t` used when rolling local thresholds *up* (the paper's
    /// "the ct values are defined by the preceding entry in Lt").
    pub fn lowest_above(&self, weight: Weight) -> Option<Posting> {
        self.entries[..self.first_at_or_below(weight)]
            .last()
            .copied()
    }

    /// Returns the weight stored for `doc`, if the document appears in this
    /// list. Linear scan; used only by tests and invariant checks.
    pub fn weight_of(&self, doc: DocId) -> Option<Weight> {
        self.iter().find(|p| p.doc == doc).map(|p| p.weight)
    }

    /// Checks the layout's single structural invariant — strict global rank
    /// order (decreasing weight, ties by increasing document id, no
    /// duplicates) — panicking with a description on violation. The flat
    /// counterpart of `SegmentedImpactList::check_invariants`, so the
    /// engine-level audits work under either list backing.
    pub fn check_invariants(&self) {
        for pair in self.entries.windows(2) {
            assert!(
                pair[0].rank(&pair[1]) == std::cmp::Ordering::Less,
                "flat impact list is not strictly ordered"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(x: f64) -> Weight {
        Weight::new(x)
    }

    fn list(entries: &[(u64, f64)]) -> FlatImpactList {
        let mut l = FlatImpactList::new();
        for &(d, x) in entries {
            assert!(l.insert(DocId(d), w(x)));
        }
        l
    }

    #[test]
    fn iteration_is_descending_by_weight() {
        let l = list(&[(7, 0.10), (1, 0.08), (5, 0.07), (8, 0.05), (9, 0.16)]);
        let docs: Vec<u64> = l.iter().map(|p| p.doc.0).collect();
        assert_eq!(docs, vec![9, 7, 1, 5, 8]);
    }

    #[test]
    fn ties_break_by_doc_id() {
        let l = list(&[(30, 0.5), (10, 0.5), (20, 0.5)]);
        let docs: Vec<u64> = l.iter().map(|p| p.doc.0).collect();
        assert_eq!(docs, vec![10, 20, 30]);
    }

    #[test]
    fn insert_and_remove_roundtrip() {
        let mut l = list(&[(1, 0.3), (2, 0.2)]);
        assert_eq!(l.len(), 2);
        assert!(l.remove(DocId(1), w(0.3)));
        assert!(!l.remove(DocId(1), w(0.3)));
        assert_eq!(l.len(), 1);
        assert!(l.weight_of(DocId(1)).is_none());
        assert_eq!(l.weight_of(DocId(2)), Some(w(0.2)));
    }

    #[test]
    fn duplicate_insert_is_rejected() {
        let mut l = FlatImpactList::new();
        assert!(l.insert(DocId(1), w(0.5)));
        assert!(!l.insert(DocId(1), w(0.5)));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn first_and_next_after_walk_the_list() {
        let l = list(&[(7, 0.10), (1, 0.08), (5, 0.07)]);
        let p0 = l.next_after(None).unwrap();
        assert_eq!(p0.doc, DocId(7));
        let p1 = l.next_after(Some(p0)).unwrap();
        assert_eq!(p1.doc, DocId(1));
        let p2 = l.next_after(Some(p1)).unwrap();
        assert_eq!(p2.doc, DocId(5));
        assert!(l.next_after(Some(p2)).is_none());
    }

    #[test]
    fn next_after_a_removed_posting_resumes_at_its_successor() {
        // The cursor posting need not still be in the list (its document may
        // have expired between descent steps): `next_after` must resume at
        // the position the posting would occupy.
        let mut l = list(&[(7, 0.10), (1, 0.08), (5, 0.07)]);
        let p1 = Posting::new(DocId(1), w(0.08));
        l.remove(DocId(1), w(0.08));
        assert_eq!(l.next_after(Some(p1)).unwrap().doc, DocId(5));
    }

    #[test]
    fn iter_below_excludes_equal_weights() {
        let l = list(&[(7, 0.10), (1, 0.08), (5, 0.07), (8, 0.05)]);
        let below: Vec<u64> = l.iter_below(w(0.08)).map(|p| p.doc.0).collect();
        assert_eq!(below, vec![5, 8]);
    }

    #[test]
    fn iter_at_or_below_includes_equal_weights() {
        let l = list(&[(7, 0.10), (1, 0.08), (5, 0.07), (8, 0.05)]);
        let below: Vec<u64> = l.iter_at_or_below(w(0.08)).map(|p| p.doc.0).collect();
        assert_eq!(below, vec![1, 5, 8]);
        assert_eq!(l.iter_at_or_below(w(0.01)).count(), 0);
        assert_eq!(l.iter_at_or_below(w(1.0)).count(), 4);
    }

    #[test]
    fn iter_weight_range_is_half_open() {
        let l = list(&[(9, 0.16), (7, 0.10), (1, 0.08), (5, 0.07), (8, 0.05)]);
        // [0.07, 0.10): postings with weight 0.08 and 0.07.
        let docs: Vec<u64> = l
            .iter_weight_range(w(0.07), w(0.10))
            .map(|p| p.doc.0)
            .collect();
        assert_eq!(docs, vec![1, 5]);
        // Empty range when the bounds coincide.
        assert_eq!(l.iter_weight_range(w(0.08), w(0.08)).count(), 0);
        // Full coverage.
        assert_eq!(l.iter_weight_range(w(0.0), w(1.0)).count(), 5);
    }

    #[test]
    fn iter_weight_range_with_inverted_bounds_is_empty() {
        let l = list(&[(9, 0.16), (7, 0.10), (1, 0.08)]);
        assert_eq!(l.iter_weight_range(w(0.16), w(0.08)).count(), 0);
    }

    #[test]
    fn iter_at_or_above_includes_equal_weights() {
        let l = list(&[(7, 0.10), (1, 0.08), (5, 0.07), (8, 0.05)]);
        let above: Vec<u64> = l.iter_at_or_above(w(0.08)).map(|p| p.doc.0).collect();
        assert_eq!(above, vec![7, 1]);
    }

    #[test]
    fn lowest_above_returns_preceding_entry() {
        // Paper Fig. 2: local threshold at d5 (0.07); the entry above used for
        // roll-up is d1 (0.08), then d7 (0.10).
        let l = list(&[(9, 0.16), (7, 0.10), (1, 0.08), (5, 0.07)]);
        assert_eq!(l.lowest_above(w(0.07)).unwrap().doc, DocId(1));
        assert_eq!(l.lowest_above(w(0.08)).unwrap().doc, DocId(7));
        assert_eq!(l.lowest_above(w(0.10)).unwrap().doc, DocId(9));
        assert!(l.lowest_above(w(0.16)).is_none());
        assert!(l.lowest_above(w(0.99)).is_none());
    }

    #[test]
    fn lowest_above_with_ties_returns_a_tied_entry_only_if_strictly_greater() {
        let l = list(&[(1, 0.5), (2, 0.5), (3, 0.3)]);
        // Strictly above 0.3 → one of the 0.5 postings (the last in order, doc 2).
        assert_eq!(l.lowest_above(w(0.3)).unwrap().weight, w(0.5));
        // Strictly above 0.5 → nothing.
        assert!(l.lowest_above(w(0.5)).is_none());
    }

    #[test]
    fn empty_list_behaviour() {
        let l = FlatImpactList::new();
        assert!(l.is_empty());
        assert!(l.first().is_none());
        assert!(l.next_after(None).is_none());
        assert_eq!(l.iter_below(w(1.0)).count(), 0);
        assert_eq!(l.iter_at_or_above(w(0.0)).count(), 0);
        assert!(l.as_slice().is_empty());
    }

    #[test]
    fn same_document_may_appear_with_updated_weight_after_reinsert() {
        let mut l = list(&[(1, 0.4)]);
        assert!(l.remove(DocId(1), w(0.4)));
        assert!(l.insert(DocId(1), w(0.6)));
        assert_eq!(l.weight_of(DocId(1)), Some(w(0.6)));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn duplicate_weight_run_at_the_head_of_the_list() {
        // A run of equal weights at the very top: range probes must treat the
        // whole run as one tie group on either side of the boundary.
        let l = list(&[(3, 0.9), (1, 0.9), (2, 0.9), (4, 0.5)]);
        let head: Vec<u64> = l.iter_at_or_above(w(0.9)).map(|p| p.doc.0).collect();
        assert_eq!(head, vec![1, 2, 3]);
        assert_eq!(l.iter_below(w(0.9)).count(), 1);
        assert!(l.lowest_above(w(0.9)).is_none());
        assert_eq!(l.lowest_above(w(0.5)).unwrap().doc, DocId(3));
    }

    #[test]
    fn duplicate_weight_run_at_the_tail_of_the_list() {
        let l = list(&[(1, 0.9), (7, 0.2), (5, 0.2), (6, 0.2)]);
        let tail: Vec<u64> = l.iter_at_or_below(w(0.2)).map(|p| p.doc.0).collect();
        assert_eq!(tail, vec![5, 6, 7]);
        assert_eq!(l.iter_below(w(0.2)).count(), 0);
        // Removing from the middle of the tail run keeps order intact.
        let mut l = l;
        assert!(l.remove(DocId(6), w(0.2)));
        let tail: Vec<u64> = l.iter_at_or_below(w(0.2)).map(|p| p.doc.0).collect();
        assert_eq!(tail, vec![5, 7]);
    }

    #[test]
    fn iter_below_on_an_all_equal_weight_list_is_empty() {
        let l = list(&[(1, 0.3), (2, 0.3), (3, 0.3)]);
        assert_eq!(l.iter_below(w(0.3)).count(), 0);
        assert_eq!(l.iter_at_or_below(w(0.3)).count(), 3);
        assert_eq!(l.iter_at_or_above(w(0.3)).count(), 3);
        assert_eq!(l.iter_weight_range(w(0.3), w(0.3)).count(), 0);
        assert!(l.lowest_above(w(0.3)).is_none());
        // Descent cursor walks the tie group by document id.
        let p = l.next_after(None).unwrap();
        assert_eq!(p.doc, DocId(1));
        assert_eq!(l.next_after(Some(p)).unwrap().doc, DocId(2));
    }

    #[test]
    fn as_slice_exposes_the_sorted_layout() {
        let l = list(&[(7, 0.10), (9, 0.16), (1, 0.08)]);
        let slice = l.as_slice();
        assert_eq!(slice.len(), 3);
        assert!(slice.windows(2).all(|p| p[0].weight >= p[1].weight));
    }
}
