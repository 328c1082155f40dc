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

use serde::Serialize;

use cts_text::Weight;

use crate::document::DocId;

/// One `⟨w_{d,t}, d⟩` impact entry of an inverted list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
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
    fn iter_at_or_above_includes_equal_weights() {
        let l = list(&[(7, 0.10), (1, 0.08), (5, 0.07), (8, 0.05)]);
        let above: Vec<u64> = l.iter_at_or_above(w(0.08)).map(|p| p.doc.0).collect();
        assert_eq!(above, vec![7, 1]);
    }

    #[test]
    fn empty_list_behaviour() {
        let l = FlatImpactList::new();
        assert!(l.is_empty());
        assert!(l.first().is_none());
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
        // A descent walks the tie group by document id.
        let docs: Vec<u64> = l.iter_at_or_below(w(0.3)).map(|p| p.doc.0).collect();
        assert_eq!(docs, vec![1, 2, 3]);
    }

    #[test]
    fn as_slice_exposes_the_sorted_layout() {
        let l = list(&[(7, 0.10), (9, 0.16), (1, 0.08)]);
        let slice = l.as_slice();
        assert_eq!(slice.len(), 3);
        assert!(slice.windows(2).all(|p| p[0].weight >= p[1].weight));
    }
}
