//! Segmented impact lists: bounded-`memmove` point updates, contiguous
//! descents.
//!
//! `BENCH_fig3a.json` showed that at 10k+ document windows, ITA's per-event
//! cost is dominated by the `Vec` `memmove` paid on every arrival/expiration
//! by the few head terms whose flat impact lists reach window length — not by
//! any of the probes or descents the algorithm actually reasons about. The
//! same observation drives FAST's split of frequent-term structures from
//! infrequent-term ones for continuous filter queries (Mahmood et al.).
//!
//! [`SegmentedImpactList`] keeps the postings in a small ordered directory of
//! fixed-capacity **segments**, each a sorted `Vec<Posting>` in the global
//! list order (decreasing weight, ties by increasing document id):
//!
//! * A point insert/remove binary-searches the directory (by each segment's
//!   last entry), then the segment, and shifts at most `segment capacity`
//!   postings — ~2 KiB at the default capacity of 128 — instead of the whole
//!   window-length list (~160 KiB for a 10k-entry head term).
//! * A segment that overflows its capacity splits in half; a segment that
//!   drains below a quarter of capacity is merged into a neighbour (and the
//!   merge re-split in half if it would itself overflow), so segment count
//!   stays `Θ(len / capacity)` and every segment except a lone survivor
//!   stays at least a quarter full.
//! * Every read path — initial threshold descent, refill resume
//!   (`iter_at_or_below`), roll-up range probe (`iter_weight_range`,
//!   `lowest_above`) and the sequential cursor (`next_after`) — is still a
//!   directory locate followed by **contiguous scans within segments**,
//!   which is the access pattern the paper's §III cost model charges for:
//!   "read a prefix of `L_t`" remains a linear read of adjacent memory, now
//!   with one extra pointer hop per `capacity` entries visited.
//!
//! The flat single-`Vec` layout is retained as
//! [`crate::posting::FlatImpactList`] (differential-test reference and
//! ablation arm); the two are driven through randomized interleaved operation
//! sequences by `tests/differential_impact_list.rs` and must agree exactly,
//! including on equal-weight tie runs that straddle segment boundaries.

use cts_text::Weight;

use crate::document::DocId;
use crate::posting::Posting;

/// Default maximum number of postings per segment.
///
/// 128 postings × 16 bytes = 2 KiB per segment: a handful of cache lines per
/// shift, small enough that the worst-case point update is cheap, large
/// enough that descents stay effectively contiguous and the directory of a
/// 10k-entry head-term list holds only ~100 entries.
pub const DEFAULT_SEGMENT_CAPACITY: usize = 128;

/// A position inside the segment directory: entry `off` of segment `seg`.
/// `seg == segments.len()` (with `off == 0`) is the end-of-list cursor.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    seg: usize,
    off: usize,
}

/// An impact-ordered inverted list for a single term, backed by an ordered
/// directory of fixed-capacity sorted segments (decreasing weight, ties by
/// increasing document id). See the module docs for the layout rationale.
#[derive(Debug, PartialEq)]
pub struct SegmentedImpactList {
    /// Non-empty segments in global list order: every entry of `segments[i]`
    /// ranks strictly before every entry of `segments[i + 1]`.
    segments: Vec<Vec<Posting>>,
    /// Total postings across all segments.
    len: usize,
    /// Maximum postings per segment (≥ 2).
    capacity: usize,
}

impl Default for SegmentedImpactList {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for SegmentedImpactList {
    fn clone(&self) -> Self {
        Self {
            segments: self.segments.clone(),
            len: self.len,
            capacity: self.capacity,
        }
    }

    /// Copies `source` into `self` reusing the directory and every segment
    /// buffer `self` already owns — a checkpoint sync re-copies a changed
    /// list every interval, and a list changes by a few postings at a time.
    fn clone_from(&mut self, source: &Self) {
        self.segments.clone_from(&source.segments);
        self.len = source.len;
        self.capacity = source.capacity;
    }
}

impl SegmentedImpactList {
    /// Creates an empty list with the default segment capacity.
    pub fn new() -> Self {
        Self::with_segment_capacity(DEFAULT_SEGMENT_CAPACITY)
    }

    /// Creates an empty list whose segments hold at most `capacity` postings.
    /// Small capacities (≥ 2) are valid and force frequent splits/merges;
    /// the differential test uses them to stress boundary handling.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 2` (a 1-entry segment cannot be split).
    pub fn with_segment_capacity(capacity: usize) -> Self {
        assert!(capacity >= 2, "segment capacity must be at least 2");
        Self {
            segments: Vec::new(),
            len: 0,
            capacity,
        }
    }

    /// The configured maximum postings per segment.
    pub fn segment_capacity(&self) -> usize {
        self.capacity
    }

    /// Number of segments currently in the directory. Exposed for tests and
    /// the layout ablation; `Θ(len / capacity)` by the merge policy.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// The directory locate for point updates: index of the first segment
    /// whose **last** entry ranks at or after `p` — the only segment that may
    /// contain `p` or its insertion position (may be `segments.len()` when
    /// `p` ranks after everything).
    #[inline]
    fn segment_for(&self, p: &Posting) -> usize {
        self.segments.partition_point(|seg| {
            // cts-lint: allow(panic-in-hot-path, structural invariant: the directory never holds an empty segment, enforced by check_invariants)
            seg.last().expect("segments are non-empty").rank(p) == std::cmp::Ordering::Less
        })
    }

    /// Cursor at the first entry whose weight is **strictly below** `weight`.
    #[inline]
    fn first_below(&self, weight: Weight) -> Cursor {
        let seg = self
            .segments
            // cts-lint: allow(panic-in-hot-path, structural invariant: the directory never holds an empty segment, enforced by check_invariants)
            .partition_point(|s| s.last().expect("segments are non-empty").weight >= weight);
        let off = match self.segments.get(seg) {
            // The segment's last entry is < weight, so `off` is in bounds.
            Some(entries) => entries.partition_point(|p| p.weight >= weight),
            None => 0,
        };
        Cursor { seg, off }
    }

    /// Cursor at the first entry whose weight is **at or below** `weight`.
    #[inline]
    fn first_at_or_below(&self, weight: Weight) -> Cursor {
        let seg = self
            .segments
            // cts-lint: allow(panic-in-hot-path, structural invariant: the directory never holds an empty segment, enforced by check_invariants)
            .partition_point(|s| s.last().expect("segments are non-empty").weight > weight);
        let off = match self.segments.get(seg) {
            Some(entries) => entries.partition_point(|p| p.weight > weight),
            None => 0,
        };
        Cursor { seg, off }
    }

    /// Iterates from `cursor` (inclusive) to the end of the list, crossing
    /// segment boundaries; each segment is scanned contiguously.
    fn iter_from(&self, cursor: Cursor) -> impl Iterator<Item = Posting> + '_ {
        self.segments[cursor.seg..]
            .iter()
            .enumerate()
            .flat_map(move |(i, seg)| {
                let start = if i == 0 { cursor.off } else { 0 };
                seg[start..].iter().copied()
            })
    }

    /// Splits segment `at` into two halves. Called when it exceeds capacity.
    fn split(&mut self, at: usize) {
        let mid = self.segments[at].len() / 2;
        let upper = self.segments[at].split_off(mid);
        self.segments.insert(at + 1, upper);
    }

    /// Restores the segment-size invariants after a removal from segment
    /// `at`: drops it if empty, otherwise merges it into an adjacent
    /// neighbour once it falls below a quarter of capacity (re-splitting the
    /// merge in half if the combination would overflow).
    fn rebalance(&mut self, at: usize) {
        if self.segments[at].is_empty() {
            self.segments.remove(at);
            return;
        }
        if self.segments.len() == 1 || self.segments[at].len() >= self.capacity.div_ceil(4) {
            return;
        }
        // Merge with the right neighbour when one exists, else the left.
        let left = if at + 1 < self.segments.len() {
            at
        } else {
            at - 1
        };
        let tail = self.segments.remove(left + 1);
        self.segments[left].extend(tail);
        if self.segments[left].len() > self.capacity {
            self.split(left);
        }
    }

    /// Inserts the posting for `doc` with weight `weight`.
    /// Returns `false` if an identical posting was already present.
    pub fn insert(&mut self, doc: DocId, weight: Weight) -> bool {
        let posting = Posting::new(doc, weight);
        if self.segments.is_empty() {
            self.segments.push(vec![posting]);
            self.len = 1;
            return true;
        }
        // A posting ranking after everything is appended to the last segment.
        let seg = self.segment_for(&posting).min(self.segments.len() - 1);
        match self.segments[seg].binary_search_by(|p| p.rank(&posting)) {
            Ok(_) => false,
            Err(at) => {
                self.segments[seg].insert(at, posting);
                self.len += 1;
                if self.segments[seg].len() > self.capacity {
                    self.split(seg);
                }
                true
            }
        }
    }

    /// Removes the posting for `doc` with weight `weight`.
    /// Returns `true` if the posting was present.
    pub fn remove(&mut self, doc: DocId, weight: Weight) -> bool {
        let posting = Posting::new(doc, weight);
        let seg = self.segment_for(&posting);
        if seg == self.segments.len() {
            return false;
        }
        match self.segments[seg].binary_search_by(|p| p.rank(&posting)) {
            Ok(at) => {
                self.segments[seg].remove(at);
                self.len -= 1;
                self.rebalance(seg);
                true
            }
            Err(_) => false,
        }
    }

    /// Number of postings in the list.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The posting with the highest weight, if any.
    pub fn first(&self) -> Option<Posting> {
        self.segments.first().and_then(|s| s.first()).copied()
    }

    /// Iterates over all postings in decreasing-weight order.
    pub fn iter(&self) -> impl Iterator<Item = Posting> + '_ {
        self.segments.iter().flat_map(|s| s.iter().copied())
    }

    /// Iterates over postings **strictly below** `weight` (i.e. `w_{d,t} <
    /// weight`), in decreasing-weight order. This is the "resume the search
    /// below the local threshold" access path of ITA's refill step.
    pub fn iter_below(&self, weight: Weight) -> impl Iterator<Item = Posting> + '_ {
        self.iter_from(self.first_below(weight))
    }

    /// Iterates over postings with weight **at or above** `weight`
    /// (`w_{d,t} ≥ weight`), in decreasing-weight order. Used by invariant
    /// checks ("every document above a local threshold is in R").
    pub fn iter_at_or_above(&self, weight: Weight) -> impl Iterator<Item = Posting> + '_ {
        let end = self.first_below(weight);
        self.segments[..end.seg]
            .iter()
            .flat_map(|s| s.iter().copied())
            .chain(
                self.segments
                    .get(end.seg)
                    .into_iter()
                    .flat_map(move |s| s[..end.off].iter().copied()),
            )
    }

    /// Iterates over postings with weight **at or below** `weight`
    /// (`w_{d,t} ≤ weight`), in decreasing-weight order. ITA's refill resumes
    /// its descent here: entries tied with the recorded local threshold may or
    /// may not have been visited before, so the caller skips documents that
    /// are already in its result set.
    pub fn iter_at_or_below(&self, weight: Weight) -> impl Iterator<Item = Posting> + '_ {
        self.iter_from(self.first_at_or_below(weight))
    }

    /// Iterates over postings whose weight lies in `[lower, upper)`, in
    /// decreasing-weight order. Used by ITA's roll-up to find the documents
    /// whose only support was the just-raised threshold segment. Inverted or
    /// empty bounds yield an empty iterator.
    pub fn iter_weight_range(
        &self,
        lower_inclusive: Weight,
        upper_exclusive: Weight,
    ) -> impl Iterator<Item = Posting> + '_ {
        // Weights are non-increasing along the list, so the half-open band is
        // a take-while from the first entry strictly below `upper`.
        self.iter_from(self.first_below(upper_exclusive))
            .take_while(move |p| p.weight >= lower_inclusive)
    }

    /// The posting immediately following `previous` in descending order
    /// (strictly after it), if any. Passing `None` returns the first posting.
    /// This is the sequential-descent cursor used by the threshold algorithm;
    /// `previous` need not still be in the list, and the successor may live
    /// in a later segment than `previous` did (e.g. after a split of its tie
    /// run).
    pub fn next_after(&self, previous: Option<Posting>) -> Option<Posting> {
        let Some(p) = previous else {
            return self.first();
        };
        let seg = self.segments.partition_point(|s| {
            // cts-lint: allow(panic-in-hot-path, structural invariant: the directory never holds an empty segment, enforced by check_invariants)
            s.last().expect("segments are non-empty").rank(&p) != std::cmp::Ordering::Greater
        });
        let entries = self.segments.get(seg)?;
        // The segment's last entry ranks after `p`, so the partition point is
        // a real entry.
        let off = entries.partition_point(|e| e.rank(&p) != std::cmp::Ordering::Greater);
        entries.get(off).copied()
    }

    /// The posting immediately **above** the given weight position: the
    /// lowest-ranked posting whose weight is strictly greater than `weight`.
    /// This is the `c_t` used when rolling local thresholds *up* (the paper's
    /// "the ct values are defined by the preceding entry in Lt").
    pub fn lowest_above(&self, weight: Weight) -> Option<Posting> {
        let cursor = self.first_at_or_below(weight);
        if cursor.off > 0 {
            Some(self.segments[cursor.seg][cursor.off - 1])
        } else if cursor.seg > 0 {
            self.segments[cursor.seg - 1].last().copied()
        } else {
            None
        }
    }

    /// Returns the weight stored for `doc`, if the document appears in this
    /// list. Linear scan; used only by tests and invariant checks.
    pub fn weight_of(&self, doc: DocId) -> Option<Weight> {
        self.iter().find(|p| p.doc == doc).map(|p| p.weight)
    }

    /// Checks every structural invariant of the layout, panicking with a
    /// description on violation: a non-empty directory of segments in strict
    /// rank order (across boundaries too), every segment within capacity and
    /// — unless it is the lone survivor — at least a quarter full, and the
    /// cached length agreeing with the contents. Used by tests (notably the
    /// randomized differential test) after every mutation and by the
    /// engine-level `check_invariants` audits (`invariant-checks` feature);
    /// not called on hot paths.
    pub fn check_invariants(&self) {
        let mut total = 0;
        for (i, seg) in self.segments.iter().enumerate() {
            assert!(!seg.is_empty(), "segment {i} is empty");
            assert!(
                seg.len() <= self.capacity,
                "segment {i} holds {} > capacity {}",
                seg.len(),
                self.capacity
            );
            // The merge policy's guarantee: everything but a lone survivor
            // stays at least a quarter full, so segment count is
            // Θ(len / capacity) and never degrades toward one-entry segments.
            if self.segments.len() > 1 {
                assert!(
                    seg.len() >= self.capacity.div_ceil(4),
                    "segment {i} holds {} < quarter of capacity {}",
                    seg.len(),
                    self.capacity
                );
            }
            total += seg.len();
            for pair in seg.windows(2) {
                assert!(
                    pair[0].rank(&pair[1]) == std::cmp::Ordering::Less,
                    "segment {i} is not strictly ordered"
                );
            }
            if let Some(next) = self.segments.get(i + 1) {
                assert!(
                    // cts-lint: allow(panic-in-hot-path, audit-only path; both segments were just asserted non-empty)
                    seg.last().unwrap().rank(next.first().unwrap()) == std::cmp::Ordering::Less,
                    "segments {i} and {} are not ordered across the boundary",
                    i + 1
                );
            }
        }
        assert_eq!(total, self.len, "cached len disagrees with contents");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(x: f64) -> Weight {
        Weight::new(x)
    }

    /// A list with capacity-4 segments, so even small fixtures cross
    /// boundaries.
    fn list(entries: &[(u64, f64)]) -> SegmentedImpactList {
        let mut l = SegmentedImpactList::with_segment_capacity(4);
        for &(d, x) in entries {
            assert!(l.insert(DocId(d), w(x)));
            l.check_invariants();
        }
        l
    }

    fn docs_of(it: impl Iterator<Item = Posting>) -> Vec<u64> {
        it.map(|p| p.doc.0).collect()
    }

    #[test]
    fn iteration_is_descending_by_weight_across_segments() {
        let l = list(&[
            (7, 0.10),
            (1, 0.08),
            (5, 0.07),
            (8, 0.05),
            (9, 0.16),
            (2, 0.12),
            (4, 0.02),
            (6, 0.11),
            (3, 0.01),
        ]);
        assert!(l.num_segments() > 1, "fixture must straddle segments");
        assert_eq!(docs_of(l.iter()), vec![9, 2, 6, 7, 1, 5, 8, 4, 3]);
        assert_eq!(l.len(), 9);
    }

    #[test]
    fn splits_keep_segments_within_capacity() {
        let mut l = SegmentedImpactList::with_segment_capacity(4);
        for i in 0..64u64 {
            assert!(l.insert(DocId(i), w(0.001 + (i % 13) as f64 * 0.01)));
            l.check_invariants();
        }
        assert_eq!(l.len(), 64);
        // Θ(len / capacity) directory: at least len/capacity segments.
        assert!(l.num_segments() >= 16, "{} segments", l.num_segments());
    }

    #[test]
    fn removals_merge_sparse_segments() {
        let mut l = SegmentedImpactList::with_segment_capacity(4);
        for i in 0..64u64 {
            l.insert(DocId(i), w(0.001 + i as f64 * 0.002));
        }
        for i in 0..63u64 {
            assert!(l.remove(DocId(i), w(0.001 + i as f64 * 0.002)));
            l.check_invariants();
        }
        assert_eq!(l.len(), 1);
        assert_eq!(l.num_segments(), 1);
        assert!(l.remove(DocId(63), w(0.001 + 63.0 * 0.002)));
        assert!(l.is_empty());
        assert_eq!(l.num_segments(), 0);
        assert!(l.first().is_none());
    }

    #[test]
    fn duplicate_insert_and_absent_remove_are_rejected() {
        let mut l = list(&[(1, 0.5), (2, 0.4), (3, 0.3), (4, 0.2), (5, 0.1)]);
        assert!(!l.insert(DocId(3), w(0.3)));
        assert!(!l.remove(DocId(3), w(0.35)));
        assert!(!l.remove(DocId(99), w(0.3)));
        // Ranking past the end of the directory must not panic or remove.
        assert!(!l.remove(DocId(u64::MAX), w(0.0)));
        assert_eq!(l.len(), 5);
    }

    #[test]
    fn tie_run_straddling_a_split_keeps_descent_and_probes_exact() {
        // Nine equal-weight postings over capacity-4 segments: the tie run is
        // guaranteed to straddle at least one segment boundary.
        let mut l = SegmentedImpactList::with_segment_capacity(4);
        for d in [5u64, 1, 9, 3, 7, 2, 8, 4, 6] {
            assert!(l.insert(DocId(d), w(0.5)));
        }
        assert!(l.num_segments() > 1);
        l.check_invariants();
        // The run iterates in document-id order regardless of boundaries.
        assert_eq!(docs_of(l.iter()), (1..=9).collect::<Vec<_>>());
        // All boundary semantics treat the run as one group.
        assert_eq!(l.iter_at_or_above(w(0.5)).count(), 9);
        assert_eq!(l.iter_at_or_below(w(0.5)).count(), 9);
        assert_eq!(l.iter_below(w(0.5)).count(), 0);
        assert_eq!(l.iter_weight_range(w(0.5), w(0.5)).count(), 0);
        assert_eq!(l.iter_weight_range(w(0.5), w(0.6)).count(), 9);
        assert!(l.lowest_above(w(0.5)).is_none());
        assert_eq!(l.lowest_above(w(0.4)).unwrap().doc, DocId(9));
        // The sequential cursor walks the whole run across boundaries.
        let mut cursor = None;
        let mut seen = Vec::new();
        while let Some(p) = l.next_after(cursor) {
            seen.push(p.doc.0);
            cursor = Some(p);
        }
        assert_eq!(seen, (1..=9).collect::<Vec<_>>());
    }

    #[test]
    fn next_after_a_removed_posting_resumes_at_its_successor() {
        let mut l = list(&[(7, 0.10), (1, 0.08), (5, 0.07), (2, 0.06), (9, 0.04)]);
        let p1 = Posting::new(DocId(1), w(0.08));
        l.remove(DocId(1), w(0.08));
        assert_eq!(l.next_after(Some(p1)).unwrap().doc, DocId(5));
        // A cursor ranking after everything yields None.
        assert!(l
            .next_after(Some(Posting::new(DocId(u64::MAX), w(0.0))))
            .is_none());
    }

    #[test]
    fn range_and_boundary_queries_cross_segments() {
        let l = list(&[
            (9, 0.16),
            (7, 0.10),
            (1, 0.08),
            (5, 0.07),
            (8, 0.05),
            (2, 0.03),
            (4, 0.02),
        ]);
        assert!(l.num_segments() > 1);
        assert_eq!(
            docs_of(l.iter_weight_range(w(0.03), w(0.10))),
            vec![1, 5, 8, 2]
        );
        assert_eq!(l.iter_weight_range(w(0.16), w(0.08)).count(), 0);
        assert_eq!(docs_of(l.iter_below(w(0.07))), vec![8, 2, 4]);
        assert_eq!(docs_of(l.iter_at_or_above(w(0.07))), vec![9, 7, 1, 5]);
        assert_eq!(l.lowest_above(w(0.07)).unwrap().doc, DocId(1));
        assert_eq!(l.lowest_above(w(0.10)).unwrap().doc, DocId(9));
        assert!(l.lowest_above(w(0.16)).is_none());
        assert_eq!(l.weight_of(DocId(8)), Some(w(0.05)));
        assert!(l.weight_of(DocId(42)).is_none());
    }

    #[test]
    fn empty_list_behaviour() {
        let l = SegmentedImpactList::new();
        assert!(l.is_empty());
        assert_eq!(l.segment_capacity(), DEFAULT_SEGMENT_CAPACITY);
        assert!(l.first().is_none());
        assert!(l.next_after(None).is_none());
        assert_eq!(l.iter_below(w(1.0)).count(), 0);
        assert_eq!(l.iter_at_or_above(w(0.0)).count(), 0);
        assert!(l.lowest_above(w(0.0)).is_none());
        l.check_invariants();
    }

    #[test]
    #[should_panic(expected = "segment capacity must be at least 2")]
    fn degenerate_capacity_is_rejected() {
        let _ = SegmentedImpactList::with_segment_capacity(1);
    }

    #[test]
    fn heavy_churn_preserves_invariants_and_order() {
        // Interleaved inserts and removes with many ties, small capacity.
        let mut l = SegmentedImpactList::with_segment_capacity(8);
        let weight_of = |i: u64| w(0.01 + (i % 5) as f64 * 0.07);
        for i in 0..500u64 {
            assert!(l.insert(DocId(i), weight_of(i)));
            if i >= 100 {
                assert!(l.remove(DocId(i - 100), weight_of(i - 100)));
            }
            l.check_invariants();
        }
        assert_eq!(l.len(), 100);
        let all: Vec<Posting> = l.iter().collect();
        assert!(all
            .windows(2)
            .all(|p| p[0].rank(&p[1]) == std::cmp::Ordering::Less));
    }
}
