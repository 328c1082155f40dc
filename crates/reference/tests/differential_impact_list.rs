//! Randomized differential test: [`SegmentedImpactList`] against a plain
//! sorted-`Vec` reference, [`FlatImpactList`], defined here.
//!
//! Both layouts are driven through the same randomized interleaving of the
//! operations a list sees under a sliding window — inserts of arrivals
//! (including duplicate inserts), advances of the window's front that kill
//! postings one arrival at a time (compacting where the quarter rule says
//! so), and explicit compactions — and both read paths (`iter`, which
//! audits and statistics use, and `iter_at_or_below`, which opens every
//! threshold descent), asserting **identical observable sequences**, live
//! and dead, and equal live and dead counts after every step. Weights are
//! drawn from a small discrete palette so long equal-weight tie runs are
//! common and routinely straddle segment boundaries — the exact case where
//! a segmented cursor can silently go wrong. The segmented list's
//! structural invariants (dead postings exactly those below the front, at
//! most a quarter of the live plus one, no segment of a split list
//! allocated past a full segment and one overflow) are checked after every
//! step.
//!
//! Each run also crosses the boundary between the list's two shapes in both
//! directions — a one-segment list, which is its header alone, promoted to
//! a fenced directory by its first split, and demoted back by a compaction
//! that leaves one segment — and asserts that both transitions happened,
//! and probes the reads at the weight of a fence, the last posting of a
//! segment, including fences inside a tie run that continues into the next
//! segment.
//!
//! The seeded randomness comes from [`ScriptRng`] — the
//! same deterministic generator behind the engine-level op-script suites —
//! so every run reproduces from the `u64` seed baked into each test (echoed
//! in every assertion context via the step index).

use cts_corpus::ScriptRng;
use cts_index::{Posting, SegmentedImpactList};
use cts_text::Weight;

/// The reference arm: every posting in one sorted `Vec`, in list order
/// (decreasing weight, ties by increasing sequence number). Every locate is
/// one binary search and every read a contiguous slice scan; an insert
/// shifts the whole tail, which is why the engines run the segmented layout.
/// Dead postings are counted and dropped by the same quarter rule.
#[derive(Debug, Default)]
struct FlatImpactList {
    entries: Vec<Posting>,
    dead: usize,
}

impl FlatImpactList {
    fn insert(&mut self, seq: u64, weight: Weight) -> bool {
        let posting = Posting::new(seq, weight);
        match self.entries.binary_search_by(|p| p.rank(&posting)) {
            Ok(_) => false,
            Err(at) => {
                self.entries.insert(at, posting);
                true
            }
        }
    }

    fn expire(&mut self, front: u64) {
        self.dead += 1;
        if 4 * self.dead > self.len() {
            self.compact(front);
        }
    }

    fn compact(&mut self, front: u64) {
        self.entries.retain(|p| p.seq >= front);
        self.dead = 0;
    }

    fn len(&self) -> usize {
        self.entries.len() - self.dead
    }

    fn iter(&self) -> impl Iterator<Item = Posting> + '_ {
        self.entries.iter().copied()
    }

    fn iter_at_or_below(&self, weight: Weight) -> impl Iterator<Item = Posting> + '_ {
        let at = self.entries.partition_point(|p| p.weight > weight);
        self.entries[at..].iter().copied()
    }
}

/// The discrete weight palette. Few distinct values → dense tie runs.
fn palette(slot: usize) -> Weight {
    Weight::new(0.05 + (slot % 7) as f64 * 0.13)
}

fn seqs(postings: impl Iterator<Item = Posting>) -> Vec<(u64, u64)> {
    postings
        .map(|p| (p.seq, p.weight.get().to_bits()))
        .collect()
}

/// Compares both read paths of the two lists at probe weight `w`, over all
/// stored postings and over the live ones (at or past `front`) alone.
fn assert_reads_agree(seg: &SegmentedImpactList, flat: &FlatImpactList, w: Weight, front: u64) {
    assert_eq!(seg.len(), flat.len(), "live count");
    assert_eq!(seg.dead(), flat.dead, "dead count");
    assert_eq!(seg.is_empty(), flat.len() == 0);
    let live = |p: &Posting| p.seq >= front;
    assert_eq!(seqs(seg.iter()), seqs(flat.iter()), "iter at {w}");
    assert_eq!(
        seqs(seg.iter().filter(live)),
        seqs(flat.iter().filter(live)),
        "live iter at {w}"
    );
    assert_eq!(
        seqs(seg.iter_at_or_below(w).filter(live)),
        seqs(flat.iter_at_or_below(w).filter(live)),
        "live iter_at_or_below {w}"
    );
    assert_eq!(
        seqs(seg.iter_at_or_below(w)),
        seqs(flat.iter_at_or_below(w)),
        "iter_at_or_below {w}"
    );
}

/// Probes both reads at the weight of a fence of `seg` — the one `step`
/// picks, and the first whose tie run continues past it into the next
/// segment — and returns whether a probed fence sits inside such a run.
fn probe_fences(seg: &SegmentedImpactList, flat: &FlatImpactList, step: usize, front: u64) -> bool {
    let fences = seg.fences();
    if fences.is_empty() {
        return false;
    }
    let straddles = |fence: &Posting| {
        let at = flat.entries.partition_point(|p| p.rank(fence).is_lt());
        flat.entries
            .get(at + 1)
            .is_some_and(|next| next.weight == fence.weight)
    };
    let picked = fences[step % fences.len()];
    assert_reads_agree(seg, flat, picked.weight, front);
    match fences.iter().find(|fence| straddles(fence)) {
        Some(fence) => {
            assert_reads_agree(seg, flat, fence.weight, front);
            true
        }
        None => false,
    }
}

/// One full differential run at the given segment capacity. A `breathing`
/// run also caps the window, alternately at `3 × capacity` arrivals and at
/// `capacity / 2` for `3 × capacity` steps each, so the list grows past one
/// segment and shrinks back into one again and again.
fn differential_run(capacity: usize, seed: u64, steps: usize, breathing: bool) {
    let mut rng = ScriptRng::new(seed);
    let mut seg = SegmentedImpactList::with_segment_capacity(capacity);
    let mut flat = FlatImpactList::default();
    // The stored (seq, weight) postings in arrival order, so advancing the
    // front knows which arrivals had a posting here and duplicate inserts
    // hit live ones.
    let mut filed: Vec<(u64, Weight)> = Vec::new();
    // The window: sequence numbers `front..next_seq` have arrived and not
    // expired. Arrivals without this list's term skip a number.
    let (mut front, mut next_seq) = (0u64, 0u64);
    let mut compactions = 0;
    // Crossings of the one ↔ many segment boundary, and probes at a fence
    // inside a tie run.
    let (mut promotions, mut demotions, mut straddled) = (0, 0, 0);

    for step in 0..steps {
        let segments_before = seg.num_segments();
        let op = rng.below(10);
        // Arrivals the window's front passes this step.
        let mut advance = 0u64;
        match op {
            // 0..6: an arrival with this list's term files a fresh posting
            // (tie-heavy palette); sometimes arrivals without it went first.
            0..=5 => {
                next_seq += rng.below(3) as u64;
                let seq = next_seq;
                next_seq += 1;
                let w = palette(rng.below(7));
                assert_eq!(seg.insert(seq, w), flat.insert(seq, w), "insert {seq}");
                filed.push((seq, w));
            }
            // 6: duplicate insert of a live posting (must be rejected by both).
            6 => {
                let live = filed.partition_point(|(seq, _)| *seq < front);
                if live < filed.len() {
                    let (seq, w) = filed[live + rng.below(filed.len() - live)];
                    assert!(!seg.insert(seq, w), "duplicate insert must be rejected");
                    assert!(!flat.insert(seq, w));
                }
            }
            // 7..8: advance the front by up to 4 arrivals, one expiry at a
            // time, as the window pops its oldest document.
            7 | 8 => advance = rng.range(1, 5) as u64,
            // 9: an explicit compaction at the current front.
            _ => {
                seg.compact(front);
                flat.compact(front);
                filed.retain(|(seq, _)| *seq >= front);
            }
        }
        if breathing {
            let cap = if (step / (3 * capacity)).is_multiple_of(2) {
                3 * capacity
            } else {
                capacity / 2
            };
            advance = advance.max((next_seq - front).saturating_sub(cap as u64));
        }
        for _ in 0..advance.min(next_seq - front) {
            let expiring = front;
            front += 1;
            if filed.iter().any(|(seq, _)| *seq == expiring) {
                let dead_before = seg.dead();
                seg.expire(front);
                flat.expire(front);
                compactions += usize::from(seg.dead() <= dead_before);
            }
        }
        seg.check_invariants(front);
        let segments_after = seg.num_segments();
        promotions += usize::from(segments_before == 1 && segments_after > 1);
        demotions += usize::from(segments_before > 1 && segments_after == 1);

        // Probe at palette values (tie boundaries), their midpoints, and the
        // extremes.
        let probes = [
            palette(step % 7),
            Weight::new(palette(step % 7).get() + 0.065),
            Weight::ZERO,
            Weight::new(1.0),
        ];
        for w in probes {
            assert_reads_agree(&seg, &flat, w, front);
        }
        straddled += usize::from(probe_fences(&seg, &flat, step, front));
    }
    assert!(compactions > 0, "the quarter rule never compacted");

    // Drain completely: the front passes every arrival, and the last
    // expiry compacts the list down to the empty list.
    while front < next_seq {
        let expiring = front;
        front += 1;
        let segments_before = seg.num_segments();
        if filed.iter().any(|(seq, _)| *seq == expiring) {
            seg.expire(front);
            flat.expire(front);
        }
        seg.check_invariants(front);
        demotions += usize::from(segments_before > 1 && seg.num_segments() == 1);
        assert_reads_agree(&seg, &flat, palette(0), front);
        straddled += usize::from(probe_fences(&seg, &flat, expiring as usize, front));
    }
    eprintln!(
        "capacity {capacity}: {promotions} promotions, {demotions} demotions, \
         {straddled} probes at a fence inside a tie run"
    );
    let crossings = if breathing { 2 } else { 1 };
    assert!(
        promotions >= crossings,
        "{promotions} first splits promoted a one-segment list"
    );
    assert!(
        demotions >= crossings,
        "{demotions} compactions left a split list one segment"
    );
    assert!(straddled > 0, "no probe hit a fence inside a tie run");
    assert!(seg.is_empty());
    assert_eq!(seg.num_segments(), 0);
    assert!(flat.entries.is_empty());
}

#[test]
fn tiny_segments_split_and_merge_constantly() {
    // Capacity 2 and 3: every few inserts split, every compaction merges.
    differential_run(2, 0xD1FF_0001, 600, false);
    differential_run(3, 0xD1FF_0002, 600, false);
}

#[test]
fn small_segments_with_tie_runs_straddling_boundaries() {
    // Capacity 4..8 with a 7-value palette: tie runs are much longer than a
    // segment, so every boundary case is exercised.
    for capacity in 4..=8 {
        differential_run(capacity, 0xD1FF_0003 + capacity as u64, 800, false);
    }
}

#[test]
fn production_capacity_agrees_on_a_long_run() {
    differential_run(
        cts_index::segmented::DEFAULT_SEGMENT_CAPACITY,
        0xD1FF_0005,
        1_500,
        false,
    );
}

#[test]
fn lists_cross_the_one_segment_boundary_both_ways_again_and_again() {
    // A window that breathes across one segment's worth of postings: each
    // run promotes and demotes its list at least twice.
    for capacity in (2..=8).chain([cts_index::segmented::DEFAULT_SEGMENT_CAPACITY]) {
        differential_run(
            capacity,
            0xD1FF_0010 + capacity as u64,
            12 * capacity + 200,
            true,
        );
    }
}
