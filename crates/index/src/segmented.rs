//! Segmented impact lists: bounded-`memmove` inserts, contiguous
//! descents, lazy expiry, and a layout by length.
//!
//! On a flat single-`Vec` layout a 10k+ document window makes ITA's
//! per-event cost the `memmove` paid on every arrival by the few head
//! terms whose lists reach window length — not any of the probes or
//! descents the algorithm reasons about. The long tail is the other way
//! round: most lists hold a handful of postings, and what an insert pays
//! there is the pointer hops to reach them. FAST (Mahmood et al.) splits
//! frequent-term from infrequent-term structures for continuous filter
//! queries on the same observation; this list serves both ends with one
//! layout.
//!
//! [`SegmentedImpactList`] keeps its postings in fixed-capacity
//! **segments**, each a sorted `Vec<Posting>` in the global list order
//! (decreasing weight, ties by increasing sequence number):
//!
//! * The **first segment lives in the list header**. A list that never
//!   splits — almost every tail term — is that one `Vec` and nothing else,
//!   so its insert goes from the index's arena slot straight to the
//!   postings.
//! * A list that has split owns one boxed **directory**: the remaining
//!   segments, and the **fence keys** — the last posting of every segment
//!   but the last, contiguous at 16 bytes each. An insert binary-searches
//!   the fences, which touches no segment, then the one segment they name,
//!   and shifts at most `segment capacity` postings — ~2 KiB at the
//!   default capacity of 128 — instead of the whole window-length list
//!   (~160 KiB for a 10k-entry head term).
//! * A segment that overflows its capacity splits in half, each half
//!   allocated to `capacity + 1` postings, and the lower half's new last
//!   posting becomes one more fence. An insert into a segment that stays
//!   within capacity never changes a fence: it lands strictly before its
//!   segment's last posting, or after the last fence.
//! * Expiry removes nothing: the expiring document's postings stay where
//!   they are as **dead** postings (sequence number below the window's
//!   front), and [`SegmentedImpactList::expire`] only counts them. Once the
//!   dead outnumber a quarter of the live postings,
//!   [`SegmentedImpactList::compact`] drops them all in one pass and
//!   re-packs the segments — merging every segment left below a quarter of
//!   capacity into its neighbour — then rebuilds the fences, and drops the
//!   directory when one segment is left. Segment count stays
//!   `Θ(len / capacity)`, every segment except a lone survivor stays at
//!   least a quarter full, and a list never holds more than 25% extra
//!   postings. The pass costs the list's length once per `len / 5`
//!   expiries: a constant per expired posting, against a fence search, a
//!   segment search and a `memmove` per posting for point removal.
//! * A list has two reads: [`SegmentedImpactList::iter`] over every posting
//!   (audits and statistics) and the threshold descent's one cursor per
//!   list, opened at the query's frontier by
//!   [`SegmentedImpactList::iter_at_or_below`] at registration and refill
//!   alike — a fence search followed by **contiguous scans within
//!   segments**, which is the access pattern the paper's §III cost model
//!   charges for: "read a prefix of `L_t`" remains a linear read of adjacent
//!   memory, with one extra pointer hop per `capacity` entries visited. The
//!   list's reads return dead postings too; the index's one read path skips
//!   them ([`crate::TermLists::live_postings`]).
//!
//! `tests/differential_impact_list.rs` drives this layout and a flat
//! sorted-`Vec` reference through randomized interleavings of inserts,
//! front advances and compactions; the two must agree exactly, including on
//! equal-weight tie runs that straddle a fence and across the one ↔ many
//! segment boundary in both directions.

#![deny(clippy::disallowed_types)]

use std::cmp::Ordering;

use cts_text::Weight;

use crate::posting::Posting;

/// Default maximum number of postings per segment.
///
/// 128 postings × 16 bytes = 2 KiB per segment: a handful of cache lines per
/// shift, small enough that the worst-case insert is cheap, large enough
/// that descents stay effectively contiguous and a 10k-entry head-term list
/// holds only ~80 fences.
pub const DEFAULT_SEGMENT_CAPACITY: usize = 128;

/// An impact-ordered inverted list for a single term: fixed-capacity sorted
/// segments (decreasing weight, ties by increasing sequence number), the
/// first inline and the rest behind a fenced directory, holding its live
/// postings and the dead ones not yet compacted away. See the module docs
/// for the layout rationale.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentedImpactList {
    /// The first segment, in global list order; empty only when the list
    /// is, and then without a directory.
    first: Vec<Posting>,
    /// The rest of a list that has split; `None` while it has one segment
    /// or none.
    directory: Option<Box<Directory>>,
    /// Postings across all segments, dead ones included. Counts are `u32`
    /// so the header is 48 bytes — the full index keeps one per vocabulary
    /// term — which caps a list below 2³² postings (64 GiB of them).
    stored: u32,
    /// Postings whose document has left the window.
    dead: u32,
    /// Maximum postings per segment (≥ 2).
    capacity: usize,
}

/// The segments after the first, and the fence keys that locate a posting
/// among all of them.
#[derive(Debug, Clone, PartialEq)]
struct Directory {
    /// `fences[i]` is the last posting of segment `i` (segment 0 is the
    /// list's first): one per segment but the last, in list order.
    fences: Vec<Posting>,
    /// Segments `1..` — never none — non-empty and in global list order:
    /// every entry of a segment ranks strictly before every entry of the
    /// next.
    rest: Vec<Vec<Posting>>,
}

impl Directory {
    /// The locate for inserts: the first segment whose last entry ranks at
    /// or after `p` — the only one that may contain `p` or its insertion
    /// position — or the last segment when `p` ranks after every fence.
    #[inline]
    fn segment_for(&self, p: &Posting) -> usize {
        self.fences
            .partition_point(|fence| fence.rank(p) == Ordering::Less)
    }
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
            first: Vec::new(),
            directory: None,
            stored: 0,
            dead: 0,
            capacity,
        }
    }

    /// Number of segments. Exposed for tests; `Θ(len / capacity)` by the
    /// re-packing policy.
    pub fn num_segments(&self) -> usize {
        match &self.directory {
            Some(directory) => 1 + directory.rest.len(),
            None => usize::from(!self.first.is_empty()),
        }
    }

    /// The fence keys: the last posting of every segment but the last, in
    /// list order (none for a list of one segment or none). Exposed for
    /// tests, which probe the reads at a fence's weight.
    pub fn fences(&self) -> &[Posting] {
        self.directory
            .as_deref()
            .map_or(&[], |directory| &directory.fences)
    }

    /// The segments after the first: none unless the list has split.
    fn rest(&self) -> &[Vec<Posting>] {
        self.directory
            .as_deref()
            .map_or(&[], |directory| &directory.rest)
    }

    /// Files `posting` into the sorted `segment`; `false` if it is already
    /// there.
    #[inline]
    fn file(segment: &mut Vec<Posting>, posting: Posting) -> bool {
        match segment.binary_search_by(|p| p.rank(&posting)) {
            Ok(_) => false,
            Err(at) => {
                segment.insert(at, posting);
                true
            }
        }
    }

    /// Splits an overflowed segment in half and returns the lower half's new
    /// last posting — the fence between the halves — and the upper half.
    /// Both halves are left with `capacity + 1` slots — room to fill up and
    /// take the insert that overflows them — so neither reallocates before
    /// its own split, and the lower half gives back the doubled allocation
    /// its overflow grew.
    fn split(segment: &mut Vec<Posting>, capacity: usize) -> (Posting, Vec<Posting>) {
        let mid = segment.len() / 2;
        let fence = segment[mid - 1];
        let mut upper = Vec::with_capacity(capacity + 1);
        upper.extend(segment.drain(mid..));
        segment.shrink_to(capacity + 1);
        (fence, upper)
    }

    /// Inserts the posting of the document with sequence number `seq` at
    /// weight `weight`. Returns `false` if an identical posting was already
    /// present.
    pub fn insert(&mut self, seq: u64, weight: Weight) -> bool {
        let posting = Posting::new(seq, weight);
        if self.first.is_empty() {
            // One slot, not the four of a `Vec`'s first growth: most lists
            // stay short.
            self.first = vec![posting];
            self.stored = 1;
            return true;
        }
        let seg = self
            .directory
            .as_deref()
            .map_or(0, |directory| directory.segment_for(&posting));
        let segment = match (seg.checked_sub(1), self.directory.as_deref_mut()) {
            (Some(at), Some(directory)) => &mut directory.rest[at],
            _ => &mut self.first,
        };
        if !Self::file(segment, posting) {
            return false;
        }
        self.stored += 1;
        if segment.len() > self.capacity {
            // The upper half keeps the segment's fence (or its lack of one,
            // at the end); the lower half gets a new one. The first split
            // promotes the list to a directory.
            let (fence, upper) = Self::split(segment, self.capacity);
            match self.directory.as_deref_mut() {
                Some(directory) => {
                    directory.fences.insert(seg, fence);
                    directory.rest.insert(seg, upper);
                }
                None => {
                    self.directory = Some(Box::new(Directory {
                        fences: vec![fence],
                        rest: vec![upper],
                    }))
                }
            }
        }
        true
    }

    /// Records that one of the list's live postings has died — the window's
    /// front sequence number has just passed it and is now `front` — and
    /// compacts the list once its dead postings outnumber a quarter of its
    /// live ones. A constant, not a knob: it bounds the extra postings at 25%
    /// per list.
    pub fn expire(&mut self, front: u64) {
        self.dead += 1;
        if 4 * self.dead as usize > self.len() {
            self.compact(front);
        }
    }

    /// Drops every posting whose sequence number is below `front` in one
    /// pass and re-packs the segments: each segment filters in place, and a
    /// segment left below a quarter of capacity is merged into its
    /// predecessor (or absorbs its successor, at the front), the merge split
    /// in half if it overflows. The fences are then rebuilt, and a list left
    /// with one segment or none drops its directory.
    pub fn compact(&mut self, front: u64) {
        self.dead = 0;
        let Some(mut directory) = self.directory.take() else {
            self.first.retain(|p| p.seq >= front);
            if self.first.is_empty() {
                self.first = Vec::new();
            }
            self.stored = self.first.len() as u32;
            return;
        };
        let segments = &mut directory.rest;
        segments.insert(0, std::mem::take(&mut self.first));
        let quarter = self.capacity.div_ceil(4);
        let mut kept = 0usize;
        for at in 0..segments.len() {
            let mut segment = std::mem::take(&mut segments[at]);
            segment.retain(|p| p.seq >= front);
            if segment.is_empty() {
                continue;
            }
            let Some(last) = kept.checked_sub(1) else {
                segments[0] = segment;
                kept = 1;
                continue;
            };
            if segments[last].len() >= quarter && segment.len() >= quarter {
                segments[kept] = segment;
                kept += 1;
                continue;
            }
            segments[last].append(&mut segment);
            if segments[last].len() > self.capacity {
                segments[kept] = Self::split(&mut segments[last], self.capacity).1;
                kept += 1;
            }
        }
        segments.truncate(kept);
        self.stored = segments.iter().map(Vec::len).sum::<usize>() as u32;
        if segments.is_empty() {
            return;
        }
        self.first = segments.remove(0);
        if segments.is_empty() {
            // One segment is left: the list demotes to its header.
            return;
        }
        let ends = std::iter::once(&self.first).chain(&segments[..segments.len() - 1]);
        directory.fences.clear();
        directory
            .fences
            .extend(ends.filter_map(|segment| segment.last().copied()));
        self.directory = Some(directory);
    }

    /// Number of live postings in the list.
    pub fn len(&self) -> usize {
        (self.stored - self.dead) as usize
    }

    /// Number of dead postings the list still holds.
    pub fn dead(&self) -> usize {
        self.dead as usize
    }

    /// Whether the list holds no live posting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes held: every segment's capacity, and for a list that has
    /// split its directory — the box, the fences and the segment handles.
    pub fn heap_bytes(&self) -> usize {
        let segment_bytes = |segment: &Vec<Posting>| segment.capacity() * size_of::<Posting>();
        let directory = self.directory.as_deref().map_or(0, |directory| {
            size_of::<Directory>()
                + directory.fences.capacity() * size_of::<Posting>()
                + directory.rest.capacity() * size_of::<Vec<Posting>>()
                + directory.rest.iter().map(segment_bytes).sum::<usize>()
        });
        segment_bytes(&self.first) + directory
    }

    /// Iterates over every stored posting, dead ones included, in list
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = Posting> + '_ {
        std::iter::once(&self.first)
            .chain(self.rest())
            .flat_map(|segment| segment.iter().copied())
    }

    /// Iterates over stored postings with weight **at or below** `weight`
    /// (`w_{d,t} ≤ weight`), in list order. ITA's descent opens its cursor
    /// here: entries tied with the recorded local threshold may or may not
    /// have been visited before, so the caller skips documents that are
    /// already in its result set.
    pub fn iter_at_or_below(&self, weight: Weight) -> impl Iterator<Item = Posting> + '_ {
        let rest = self.rest();
        // The first segment whose last entry is at or below `weight`, or
        // the last segment, which then yields nothing.
        let seg = self.fences().partition_point(|fence| fence.weight > weight);
        let (head, tail) = match seg.checked_sub(1) {
            None => (&self.first, rest),
            Some(at) => (&rest[at], &rest[seg..]),
        };
        let off = head.partition_point(|p| p.weight > weight);
        // Each segment is scanned contiguously, the first from `off`.
        head[off..]
            .iter()
            .copied()
            .chain(tail.iter().flat_map(|segment| segment.iter().copied()))
    }

    /// Checks every structural invariant of the layout against the window's
    /// front sequence number `front`, panicking with a description on
    /// violation: segments in strict rank order (across boundaries too), an
    /// empty first segment only in an empty list, every segment within
    /// capacity and — unless it is the lone survivor — at least a quarter
    /// full and allocated to at most `capacity + 1` postings; a directory
    /// only in a list of two segments or more, holding one fence per
    /// segment but the last, each equal to its segment's last posting; the
    /// cached counts agreeing with the contents (the dead postings are
    /// exactly those below `front`), and no more than `live / 4 + 1` of
    /// them. Used by tests (notably the randomized differential test) after
    /// every mutation and by the engine-level `check_invariants` audits
    /// (`cts-reference`'s `invariant-checks` feature); not called on hot
    /// paths.
    pub fn check_invariants(&self, front: u64) {
        if let Some(directory) = &self.directory {
            assert!(
                !directory.rest.is_empty(),
                "a directory holds no segment beyond the first"
            );
            assert_eq!(
                directory.fences.len(),
                directory.rest.len(),
                "the fence count is not the segment count - 1"
            );
        }
        if self.first.is_empty() {
            assert!(
                self.directory.is_none(),
                "an empty first segment heads a directory"
            );
        }
        let segments: Vec<&Vec<Posting>> = std::iter::once(&self.first)
            .filter(|first| !first.is_empty())
            .chain(self.rest())
            .collect();
        let mut total = 0;
        for (i, seg) in segments.iter().enumerate() {
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
            if segments.len() > 1 {
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
                    pair[0].rank(&pair[1]) == Ordering::Less,
                    "segment {i} is not strictly ordered"
                );
            }
            if let Some(fence) = self.fences().get(i) {
                assert_eq!(
                    seg.last(),
                    Some(fence),
                    "fence {i} is not its segment's last posting"
                );
            }
            if let (Some(last), Some(next)) = (seg.last(), segments.get(i + 1)) {
                assert!(
                    next.first().is_some_and(|p| last.rank(p) == Ordering::Less),
                    "segments {i} and {} are not ordered across the boundary",
                    i + 1
                );
            }
        }
        assert_eq!(
            total, self.stored as usize,
            "cached count disagrees with contents"
        );
        let dead = self.iter().filter(|p| p.seq < front).count();
        assert_eq!(
            dead,
            self.dead(),
            "dead count disagrees with the front {front}"
        );
        assert!(
            self.dead() <= self.len() / 4 + 1,
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
    fn an_arena_slot_stays_within_56_bytes() {
        // The full index's arena holds one slot per vocabulary term
        // (262,144 at the paper point), split list or not.
        assert!(size_of::<Option<crate::InvertedList>>() <= 56);
        assert_eq!(size_of::<Option<crate::InvertedList>>(), 48);
    }

    #[test]
    fn heap_bytes_count_the_segments_and_the_directory() {
        assert_eq!(SegmentedImpactList::new().heap_bytes(), 0);
        // One posting: the inline segment, allocated to exactly one slot,
        // and no directory.
        let one = list(&[(1, 0.5)]);
        assert_eq!(one.num_segments(), 1);
        assert_eq!(one.heap_bytes(), 16);
        // Five postings split capacity-4 segments once: both halves hold
        // capacity + 1 = 5 slots, and the directory is its box (two
        // `Vec` handles), one fence and one segment handle.
        let split = list(&[(1, 0.5), (2, 0.4), (3, 0.3), (4, 0.2), (5, 0.1)]);
        assert_eq!(split.num_segments(), 2);
        assert_eq!(size_of::<Directory>(), 48);
        assert_eq!(split.heap_bytes(), 5 * 16 + (48 + 16 + 24 + 5 * 16));
    }

    #[test]
    fn the_first_split_promotes_and_a_one_segment_compaction_demotes() {
        let mut l = list(&[(1, 0.5), (2, 0.4), (3, 0.3), (4, 0.2)]);
        assert!(l.fences().is_empty());
        assert!(l.directory.is_none());
        assert!(l.insert(5, w(0.1)));
        l.check_invariants(0);
        assert_eq!(l.num_segments(), 2);
        assert_eq!(l.fences(), &[Posting::new(2, w(0.4))]);
        // An insert below the fence, into the first segment, leaves it be.
        assert!(l.insert(6, w(0.45)));
        l.check_invariants(0);
        assert_eq!(l.fences(), &[Posting::new(2, w(0.4))]);
        // Postings 1..=5 die: the two survivors fit one segment, and the
        // list is its header again.
        for front in 2..=6 {
            l.expire(front);
        }
        l.compact(6);
        l.check_invariants(6);
        assert_eq!(l.num_segments(), 1);
        assert!(l.fences().is_empty());
        assert!(l.directory.is_none());
        assert_eq!(seqs_of(l.iter()), vec![6]);
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
