//! Randomized differential test: [`SegmentedImpactList`] against the plain
//! sorted-`Vec` reference [`FlatImpactList`].
//!
//! Both layouts are driven through the same randomized interleaving of point
//! updates (insert/remove, including duplicate inserts and misses) and every
//! descent/range read the ITA engine performs (`iter`, `iter_below`,
//! `iter_at_or_below`, `iter_at_or_above`, `next_after` walks, `first`,
//! `weight_of`), asserting **identical
//! observable sequences** after every step. Weights are drawn from a small
//! discrete palette so long equal-weight tie runs are common and routinely
//! straddle segment boundaries — the exact case where a segmented cursor can
//! silently go wrong. The segmented list's structural invariants are checked
//! after every mutation.
//!
//! The seeded randomness comes from [`cts_core::testkit::ScriptRng`] — the
//! same deterministic generator behind the engine-level op-script suites —
//! so every run reproduces from the `u64` seed baked into each test (echoed
//! in every assertion context via the step index).

use cts_core::testkit::ScriptRng;
use cts_index::{DocId, FlatImpactList, Posting, SegmentedImpactList};
use cts_text::Weight;

/// The discrete weight palette. Few distinct values → dense tie runs.
fn palette(slot: usize) -> Weight {
    Weight::new(0.05 + (slot % 7) as f64 * 0.13)
}

fn docs(postings: impl Iterator<Item = Posting>) -> Vec<(u64, u64)> {
    postings
        .map(|p| (p.doc.0, p.weight.get().to_bits()))
        .collect()
}

/// Compares every read path of the two lists at probe weight `w`.
fn assert_reads_agree(seg: &SegmentedImpactList, flat: &FlatImpactList, w: Weight) {
    assert_eq!(seg.len(), flat.len());
    assert_eq!(seg.is_empty(), flat.is_empty());
    assert_eq!(seg.first(), flat.first());
    assert_eq!(docs(seg.iter()), docs(flat.iter()), "iter at {w}");
    assert_eq!(
        docs(seg.iter_below(w)),
        docs(flat.iter_below(w)),
        "iter_below {w}"
    );
    assert_eq!(
        docs(seg.iter_at_or_below(w)),
        docs(flat.iter_at_or_below(w)),
        "iter_at_or_below {w}"
    );
    assert_eq!(
        docs(seg.iter_at_or_above(w)),
        docs(flat.iter_at_or_above(w)),
        "iter_at_or_above {w}"
    );
}

/// Walks both lists to exhaustion through the sequential-descent cursor.
fn assert_cursor_walks_agree(seg: &SegmentedImpactList, flat: &FlatImpactList) {
    let mut cursor = None;
    loop {
        let a = seg.next_after(cursor);
        let b = flat.next_after(cursor);
        assert_eq!(a, b, "next_after diverged at {cursor:?}");
        match a {
            Some(p) => cursor = Some(p),
            None => break,
        }
    }
}

/// One full differential run at the given segment capacity.
fn differential_run(capacity: usize, seed: u64, steps: usize) {
    let mut rng = ScriptRng::new(seed);
    let mut seg = SegmentedImpactList::with_segment_capacity(capacity);
    let mut flat = FlatImpactList::new();
    // The live (doc, weight) population, so removals usually hit.
    let mut live: Vec<(DocId, Weight)> = Vec::new();
    let mut next_doc = 0u64;

    for step in 0..steps {
        let op = rng.below(10);
        match op {
            // 0..6: insert a fresh posting (tie-heavy palette).
            0..=5 => {
                let doc = DocId(next_doc);
                next_doc += 1;
                let w = palette(rng.below(7));
                assert_eq!(seg.insert(doc, w), flat.insert(doc, w), "insert {doc}");
                live.push((doc, w));
            }
            // 6: duplicate insert of a live posting (must be rejected by both).
            6 if !live.is_empty() => {
                let (doc, w) = live[rng.below(live.len())];
                assert_eq!(seg.insert(doc, w), flat.insert(doc, w));
                assert!(!seg.insert(doc, w), "duplicate insert must be rejected");
            }
            // 7..8: remove a live posting.
            7 | 8 if !live.is_empty() => {
                let at = rng.below(live.len());
                let (doc, w) = live.swap_remove(at);
                assert_eq!(seg.remove(doc, w), flat.remove(doc, w), "remove {doc}");
                assert!(flat.weight_of(doc).is_none());
            }
            // 9: remove miss — absent doc or wrong weight for a live doc.
            _ => {
                let (doc, w) = if live.is_empty() || rng.chance(0.5) {
                    (DocId(next_doc + 1_000_000), palette(rng.below(7)))
                } else {
                    let (doc, w) = live[rng.below(live.len())];
                    (doc, Weight::new(w.get() + 0.001))
                };
                assert_eq!(seg.remove(doc, w), flat.remove(doc, w));
            }
        }
        seg.check_invariants();

        // Probe at palette values (tie boundaries), their midpoints, and the
        // extremes.
        let probes = [
            palette(step % 7),
            Weight::new(palette(step % 7).get() + 0.065),
            Weight::ZERO,
            Weight::new(1.0),
        ];
        for w in probes {
            assert_reads_agree(&seg, &flat, w);
        }
        if step % 16 == 0 {
            assert_cursor_walks_agree(&seg, &flat);
            if let Some(&(doc, _)) = live.first() {
                assert_eq!(seg.weight_of(doc), flat.weight_of(doc));
            }
        }
    }

    // Drain completely: merges all the way down to the empty directory.
    while let Some((doc, w)) = live.pop() {
        assert!(seg.remove(doc, w));
        assert!(flat.remove(doc, w));
        seg.check_invariants();
    }
    assert!(seg.is_empty());
    assert_eq!(seg.num_segments(), 0);
    assert!(flat.is_empty());
}

#[test]
fn tiny_segments_split_and_merge_constantly() {
    // Capacity 2 and 3: every few inserts split, every few removes merge.
    differential_run(2, 0xD1FF_0001, 600);
    differential_run(3, 0xD1FF_0002, 600);
}

#[test]
fn small_segments_with_tie_runs_straddling_boundaries() {
    // Capacity 4..8 with a 7-value palette: tie runs are much longer than a
    // segment, so every boundary case is exercised.
    differential_run(4, 0xD1FF_0003, 800);
    differential_run(8, 0xD1FF_0004, 800);
}

#[test]
fn production_capacity_agrees_on_a_long_run() {
    differential_run(
        cts_index::segmented::DEFAULT_SEGMENT_CAPACITY,
        0xD1FF_0005,
        1_500,
    );
}
