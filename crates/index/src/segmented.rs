//! Segmented impact lists: bounded-`memmove` inserts, contiguous
//! descents, lazy expiry.
//!
//! Figure 3 sweeps over a flat single-`Vec` layout showed that at 10k+
//! document windows, ITA's per-event cost was dominated by the `Vec`
//! `memmove` paid on every arrival/expiration by the few head terms whose
//! flat impact lists reach window length — not by any of the probes or
//! descents the algorithm actually reasons about. The same observation
//! drives FAST's split of frequent-term structures from infrequent-term ones
//! for continuous filter queries (Mahmood et al.).
//!
//! [`SegmentedImpactList`] keeps the postings in a small ordered directory of
//! fixed-capacity **segments**, each a sorted `Vec<Posting>` in the global
//! list order (decreasing weight, ties by increasing sequence number):
//!
//! * An insert binary-searches the directory (by each segment's last entry),
//!   then the segment, and shifts at most `segment capacity` postings —
//!   ~2 KiB at the default capacity of 128 — instead of the whole
//!   window-length list (~160 KiB for a 10k-entry head term). A segment that
//!   overflows its capacity splits in half, each half allocated to
//!   `capacity + 1` postings.
//! * Expiry removes nothing: the expiring document's postings stay where they
//!   are as **dead** postings (sequence number below the window's front), and
//!   [`SegmentedImpactList::expire`] only counts them. Once the dead outnumber
//!   a quarter of the live postings, [`SegmentedImpactList::compact`] drops
//!   them all in one pass and re-packs the segments — merging every segment
//!   left below a quarter of capacity into its neighbour — so segment count
//!   stays `Θ(len / capacity)`, every segment except a lone survivor stays at
//!   least a quarter full, and a list never holds more than 25% extra
//!   postings. The pass costs the list's length once per `len / 5`
//!   expiries: a constant per expired posting, against a directory search, a
//!   segment search and a `memmove` per posting for point removal.
//! * A list has two reads: [`SegmentedImpactList::iter`] over every posting
//!   (audits and statistics) and the threshold descent's one cursor per
//!   list, opened at the query's frontier by
//!   [`SegmentedImpactList::iter_at_or_below`] at registration and refill
//!   alike — a directory locate followed by **contiguous scans within
//!   segments**, which is the access pattern the paper's §III cost model
//!   charges for: "read a prefix of `L_t`" remains a linear read of adjacent memory, now
//!   with one extra pointer hop per `capacity` entries visited. The list's
//!   reads return dead postings too; the index's one read path skips them
//!   ([`crate::InvertedIndex::live_postings`]).
//!
//! `tests/differential_impact_list.rs` drives this layout and a flat
//! sorted-`Vec` reference through randomized interleavings of inserts,
//! front advances and compactions; the two must agree exactly, including on
//! equal-weight tie runs that straddle segment boundaries.

#![deny(clippy::disallowed_types)]

use cts_text::Weight;

use crate::posting::Posting;

/// Default maximum number of postings per segment.
///
/// 128 postings × 16 bytes = 2 KiB per segment: a handful of cache lines per
/// shift, small enough that the worst-case insert is cheap, large enough
/// that descents stay effectively contiguous and the directory of a
/// 10k-entry head-term list holds only ~100 entries.
pub const DEFAULT_SEGMENT_CAPACITY: usize = 128;

/// An impact-ordered inverted list for a single term, backed by an ordered
/// directory of fixed-capacity sorted segments (decreasing weight, ties by
/// increasing sequence number), holding its live postings and the dead ones
/// not yet compacted away. See the module docs for the layout rationale.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentedImpactList {
    /// Non-empty segments in global list order: every entry of `segments[i]`
    /// ranks strictly before every entry of `segments[i + 1]`.
    segments: Vec<Vec<Posting>>,
    /// Postings across all segments, dead ones included.
    stored: usize,
    /// Postings whose document has left the window.
    dead: usize,
    /// Maximum postings per segment (≥ 2).
    capacity: usize,
}

impl Default for SegmentedImpactList {
    fn default() -> Self {
        Self::new()
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
            stored: 0,
            dead: 0,
            capacity,
        }
    }

    /// Number of segments currently in the directory. Exposed for tests;
    /// `Θ(len / capacity)` by the re-packing policy.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// The directory locate for inserts: index of the first segment whose
    /// **last** entry ranks at or after `p` — the only segment that may
    /// contain `p` or its insertion position (may be `segments.len()` when
    /// `p` ranks after everything).
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "structural invariant: the directory never holds an empty segment, enforced by check_invariants"
    )]
    fn segment_for(&self, p: &Posting) -> usize {
        self.segments.partition_point(|seg| {
            seg.last().expect("segments are non-empty").rank(p) == std::cmp::Ordering::Less
        })
    }

    /// Splits an overflowed segment in half and returns the upper half.
    /// Both halves are left with `capacity + 1` slots — room to fill up and
    /// take the insert that overflows them — so neither reallocates before
    /// its own split, and the lower half gives back the doubled allocation
    /// its overflow grew.
    fn split(segment: &mut Vec<Posting>, capacity: usize) -> Vec<Posting> {
        let mut upper = Vec::with_capacity(capacity + 1);
        upper.extend(segment.drain(segment.len() / 2..));
        segment.shrink_to(capacity + 1);
        upper
    }

    /// Inserts the posting of the document with sequence number `seq` at
    /// weight `weight`. Returns `false` if an identical posting was already
    /// present.
    pub fn insert(&mut self, seq: u64, weight: Weight) -> bool {
        let posting = Posting::new(seq, weight);
        if self.segments.is_empty() {
            // A directory of one header: most lists never hold a second
            // segment.
            self.segments = vec![vec![posting]];
            self.stored = 1;
            return true;
        }
        // A posting ranking after everything is appended to the last segment.
        let seg = self.segment_for(&posting).min(self.segments.len() - 1);
        match self.segments[seg].binary_search_by(|p| p.rank(&posting)) {
            Ok(_) => false,
            Err(at) => {
                self.segments[seg].insert(at, posting);
                self.stored += 1;
                if self.segments[seg].len() > self.capacity {
                    let upper = Self::split(&mut self.segments[seg], self.capacity);
                    self.segments.insert(seg + 1, upper);
                }
                true
            }
        }
    }

    /// Records that one of the list's live postings has died — the window's
    /// front sequence number has just passed it and is now `front` — and
    /// compacts the list once its dead postings outnumber a quarter of its
    /// live ones. A constant, not a knob: it bounds the extra postings at 25%
    /// per list.
    pub fn expire(&mut self, front: u64) {
        self.dead += 1;
        if 4 * self.dead > self.len() {
            self.compact(front);
        }
    }

    /// Drops every posting whose sequence number is below `front` in one
    /// pass and re-packs the segments: each segment filters in place, and a
    /// segment left below a quarter of capacity is merged into its
    /// predecessor (or absorbs its successor, at the front), the merge split
    /// in half if it overflows.
    pub fn compact(&mut self, front: u64) {
        let quarter = self.capacity.div_ceil(4);
        let mut kept = 0usize;
        for at in 0..self.segments.len() {
            let mut segment = std::mem::take(&mut self.segments[at]);
            segment.retain(|p| p.seq >= front);
            if segment.is_empty() {
                continue;
            }
            let Some(last) = kept.checked_sub(1) else {
                self.segments[0] = segment;
                kept = 1;
                continue;
            };
            if self.segments[last].len() >= quarter && segment.len() >= quarter {
                self.segments[kept] = segment;
                kept += 1;
                continue;
            }
            self.segments[last].append(&mut segment);
            if self.segments[last].len() > self.capacity {
                self.segments[kept] = Self::split(&mut self.segments[last], self.capacity);
                kept += 1;
            }
        }
        self.segments.truncate(kept);
        self.stored = self.segments.iter().map(Vec::len).sum();
        self.dead = 0;
    }

    /// Number of live postings in the list.
    pub fn len(&self) -> usize {
        self.stored - self.dead
    }

    /// Number of dead postings the list still holds.
    pub fn dead(&self) -> usize {
        self.dead
    }

    /// Whether the list holds no live posting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes held: every segment's capacity and the directory's.
    pub fn heap_bytes(&self) -> usize {
        let postings: usize = self.segments.iter().map(Vec::capacity).sum();
        postings * std::mem::size_of::<Posting>()
            + self.segments.capacity() * std::mem::size_of::<Vec<Posting>>()
    }

    /// Iterates over every stored posting, dead ones included, in list
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = Posting> + '_ {
        self.segments.iter().flat_map(|s| s.iter().copied())
    }

    /// Iterates over stored postings with weight **at or below** `weight`
    /// (`w_{d,t} ≤ weight`), in list order. ITA's descent opens its cursor
    /// here: entries tied with the recorded local threshold may or may not
    /// have been visited before, so the caller skips documents that are
    /// already in its result set.
    pub fn iter_at_or_below(&self, weight: Weight) -> impl Iterator<Item = Posting> + '_ {
        #[expect(
            clippy::expect_used,
            reason = "structural invariant: the directory never holds an empty segment, enforced by check_invariants"
        )]
        let first = self
            .segments
            .partition_point(|s| s.last().expect("segments are non-empty").weight > weight);
        let off = match self.segments.get(first) {
            Some(entries) => entries.partition_point(|p| p.weight > weight),
            None => 0,
        };
        // Each segment is scanned contiguously, the first from `off`.
        self.segments[first..]
            .iter()
            .enumerate()
            .flat_map(move |(i, seg)| {
                let start = if i == 0 { off } else { 0 };
                seg[start..].iter().copied()
            })
    }

    /// Checks every structural invariant of the layout against the window's
    /// front sequence number `front`, panicking with a description on
    /// violation: a non-empty directory of segments in strict rank order
    /// (across boundaries too), every segment within capacity and — unless it
    /// is the lone survivor — at least a quarter full and allocated to at
    /// most `capacity + 1` postings, the cached counts
    /// agreeing with the contents (the dead postings are exactly those below
    /// `front`), and no more than `live / 4 + 1` of them. Used by tests
    /// (notably the randomized differential test) after every mutation and by
    /// the engine-level `check_invariants` audits (`cts-reference`'s
    /// `invariant-checks` feature); not called on hot paths.
    pub fn check_invariants(&self, front: u64) {
        let mut total = 0;
        for (i, seg) in self.segments.iter().enumerate() {
            assert!(!seg.is_empty(), "segment {i} is empty");
            assert!(
                seg.len() <= self.capacity,
                "segment {i} holds {} > capacity {}",
                seg.len(),
                self.capacity
            );
            // The re-packing guarantee: everything but a lone survivor stays
            // at least a quarter full, so segment count is
            // Θ(len / capacity) and never degrades toward one-entry segments.
            // Every segment of a split list was sized by a split, so none
            // holds more slots than a full segment and one overflow.
            if self.segments.len() > 1 {
                assert!(
                    seg.len() >= self.capacity.div_ceil(4),
                    "segment {i} holds {} < quarter of capacity {}",
                    seg.len(),
                    self.capacity
                );
                assert!(
                    seg.capacity() <= self.capacity + 1,
                    "segment {i} allocates {} > capacity {} + 1",
                    seg.capacity(),
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
            #[expect(
                clippy::unwrap_used,
                reason = "audit-only path; both segments were just asserted non-empty"
            )]
            if let Some(next) = self.segments.get(i + 1) {
                assert!(
                    seg.last().unwrap().rank(next.first().unwrap()) == std::cmp::Ordering::Less,
                    "segments {i} and {} are not ordered across the boundary",
                    i + 1
                );
            }
        }
        assert_eq!(total, self.stored, "cached count disagrees with contents");
        let dead = self.iter().filter(|p| p.seq < front).count();
        assert_eq!(
            dead, self.dead,
            "dead count disagrees with the front {front}"
        );
        assert!(
            self.dead <= self.len() / 4 + 1,
            "{} dead postings beside {} live ones were not compacted",
            self.dead,
            self.len()
        );
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
        for &(seq, x) in entries {
            assert!(l.insert(seq, w(x)));
            l.check_invariants(0);
        }
        l
    }

    fn seqs_of(it: impl Iterator<Item = Posting>) -> Vec<u64> {
        it.map(|p| p.seq).collect()
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
        assert_eq!(seqs_of(l.iter()), vec![9, 2, 6, 7, 1, 5, 8, 4, 3]);
        assert_eq!(l.len(), 9);
    }

    #[test]
    fn splits_keep_segments_within_capacity() {
        let mut l = SegmentedImpactList::with_segment_capacity(4);
        for i in 0..64u64 {
            assert!(l.insert(i, w(0.001 + (i % 13) as f64 * 0.01)));
            l.check_invariants(0);
        }
        assert_eq!(l.len(), 64);
        // Θ(len / capacity) directory: at least len/capacity segments.
        assert!(l.num_segments() >= 16, "{} segments", l.num_segments());
    }

    #[test]
    fn removals_merge_sparse_segments() {
        // Expiry in arrival order, the window's: compactions re-pack the
        // thinning segments down to a lone survivor, then to nothing.
        let mut l = SegmentedImpactList::with_segment_capacity(4);
        for i in 0..64u64 {
            l.insert(i, w(0.001 + i as f64 * 0.002));
        }
        for i in 0..63u64 {
            l.expire(i + 1);
            l.check_invariants(i + 1);
        }
        assert_eq!(l.len(), 1);
        l.compact(63);
        assert_eq!(l.num_segments(), 1);
        l.expire(64);
        assert!(l.is_empty());
        assert_eq!(l.num_segments(), 0);
        assert_eq!(l.iter().count(), 0);
    }

    #[test]
    fn duplicate_insert_is_rejected_and_an_idle_compaction_changes_nothing() {
        let mut l = list(&[(1, 0.5), (2, 0.4), (3, 0.3), (4, 0.2), (5, 0.1)]);
        assert!(!l.insert(3, w(0.3)));
        let before = l.clone();
        // Every posting is at or past the front: nothing to drop.
        l.compact(1);
        assert_eq!(l, before);
        assert_eq!(l.len(), 5);
    }

    #[test]
    fn tie_run_straddling_a_split_keeps_descent_and_probes_exact() {
        // Nine equal-weight postings over capacity-4 segments: the tie run is
        // guaranteed to straddle at least one segment boundary.
        let mut l = SegmentedImpactList::with_segment_capacity(4);
        for seq in [5u64, 1, 9, 3, 7, 2, 8, 4, 6] {
            assert!(l.insert(seq, w(0.5)));
        }
        assert!(l.num_segments() > 1);
        l.check_invariants(0);
        // The run iterates in arrival order regardless of boundaries.
        assert_eq!(seqs_of(l.iter()), (1..=9).collect::<Vec<_>>());
        // The descent's boundary treats the run as one group.
        assert_eq!(l.iter_at_or_below(w(0.5)).count(), 9);
        assert_eq!(l.iter_at_or_below(w(0.49)).count(), 0);
        // A descent cursor opened at the run walks all of it across the
        // boundaries.
        assert_eq!(
            seqs_of(l.iter_at_or_below(w(0.5))),
            (1..=9).collect::<Vec<_>>()
        );
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
        assert_eq!(seqs_of(l.iter_at_or_below(w(0.06))), vec![8, 2, 4]);
        assert_eq!(seqs_of(l.iter_at_or_below(w(0.07))), vec![5, 8, 2, 4]);
        assert_eq!(l.iter_at_or_below(w(0.16)).count(), 7);
        assert_eq!(l.iter_at_or_below(w(0.01)).count(), 0);
        assert_eq!(l.iter().next(), Some(Posting::new(9, w(0.16))));
    }

    #[test]
    fn empty_list_behaviour() {
        let l = SegmentedImpactList::new();
        assert!(l.is_empty());
        assert_eq!(l.capacity, DEFAULT_SEGMENT_CAPACITY);
        assert_eq!(l.iter().count(), 0);
        assert_eq!(l.iter_at_or_below(w(1.0)).count(), 0);
        assert_eq!(l.heap_bytes(), 0);
        l.check_invariants(0);
    }

    #[test]
    #[should_panic(expected = "segment capacity must be at least 2")]
    fn degenerate_capacity_is_rejected() {
        let _ = SegmentedImpactList::with_segment_capacity(1);
    }

    #[test]
    fn heavy_churn_preserves_invariants_and_order() {
        // A 100-document window sliding over 500 arrivals with many ties,
        // small capacity: every arrival files a posting, every expiry kills
        // one, and compactions keep the dead within a quarter of the live.
        let mut l = SegmentedImpactList::with_segment_capacity(8);
        let weight_of = |i: u64| w(0.01 + (i % 5) as f64 * 0.07);
        let mut most_dead = 0;
        for i in 0..500u64 {
            assert!(l.insert(i, weight_of(i)));
            let front = i.saturating_sub(99);
            if i >= 100 {
                l.expire(front);
            }
            most_dead = most_dead.max(l.dead());
            l.check_invariants(front);
        }
        assert_eq!(l.len(), 100);
        assert_eq!(
            most_dead, 25,
            "compaction waits for 26 dead beside 100 live"
        );
        let all: Vec<Posting> = l.iter().collect();
        assert!(all
            .windows(2)
            .all(|p| p[0].rank(&p[1]) == std::cmp::Ordering::Less));
    }
}
