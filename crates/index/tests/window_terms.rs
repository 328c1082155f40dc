//! [`WindowTerms`] against a brute-force filter of the same documents.
//!
//! The registration-side view of the window answers "the postings of these
//! terms, in arrival order" from lazily built per-chunk term directories
//! where it has them and by one bitmap walk where it does not (DESIGN.md
//! §9). The contract pinned here: the answer is **exactly** what filtering
//! the valid documents one by one gives — same `(DocId, Weight)` pairs, same
//! order — whatever the window policy, wherever the chunk boundaries fall,
//! and whichever chunks happen to carry a directory at the time; every
//! directory ever built equals a rebuild from its documents
//! ([`WindowTerms::check_invariants`]); and a registration over built
//! directories walks fewer composition entries than one chunk holds.
//! Seeded randomness comes from [`cts_core::testkit::ScriptRng`], so every
//! run reproduces from the `u64` seed baked into each test.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use cts_core::testkit::ScriptRng;
use cts_index::{DocId, Document, SlidingWindow, TermPostings, Timestamp, WindowTerms};
use cts_text::{TermId, WeightedVector};

/// Term 0 is in every document, term 1 in none; the rest are drawn from a
/// small vocabulary so chunks share terms and single-document terms mix with
/// multi-document ones.
const HEAD: TermId = TermId(0);
const ABSENT: TermId = TermId(1);
const VOCABULARY: usize = 40;

fn random_doc(rng: &mut ScriptRng, id: u64, arrival: Timestamp) -> Arc<Document> {
    let terms = rng.range(0, 7);
    let mut weights = vec![(HEAD, 0.05 + rng.below(4) as f64 * 0.1)];
    weights.extend((0..terms).map(|_| {
        (
            TermId(rng.range(2, VOCABULARY) as u32),
            0.1 + rng.below(5) as f64 * 0.15,
        )
    }));
    Arc::new(Document::new(
        DocId(id),
        arrival,
        WeightedVector::from_weights(weights),
    ))
}

/// The reference: the valid documents in arrival order, filtered term by
/// term, document by document.
#[derive(Default)]
struct BruteForce(VecDeque<Arc<Document>>);

impl BruteForce {
    fn expire(&mut self, window: SlidingWindow, now: Timestamp) -> usize {
        let before = self.0.len();
        match window.kind() {
            cts_index::WindowKind::CountBased { size } => {
                while self.0.len() > size {
                    self.0.pop_front();
                }
            }
            cts_index::WindowKind::TimeBased { .. } => {
                while self
                    .0
                    .front()
                    .is_some_and(|doc| !window.is_fresh(doc.arrival, now))
                {
                    self.0.pop_front();
                }
            }
        }
        before - self.0.len()
    }

    fn postings(&self, term: TermId) -> Vec<(u64, u64)> {
        self.0
            .iter()
            .filter(|doc| doc.composition.contains(term))
            .map(|doc| (doc.id.0, doc.composition.weight(term).to_bits()))
            .collect()
    }
}

/// Every requested term is answered exactly as the brute-force filter
/// answers it, and no other term is.
fn assert_answer(answer: &TermPostings, wanted: &[TermId], reference: &BruteForce, context: &str) {
    let mut distinct = wanted.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(answer.terms(), distinct, "{context}: terms resolved");
    let mut total = 0;
    for term in &distinct {
        let got: Vec<(u64, u64)> = answer
            .get(*term)
            .expect("a requested term is resolved")
            .iter()
            .map(|(doc, weight)| (doc.0, weight.get().to_bits()))
            .collect();
        assert_eq!(got, reference.postings(*term), "{context}: {term}");
        total += got.len();
    }
    assert_eq!(answer.len(), total, "{context}: posting count");
    assert_eq!(answer.is_empty(), total == 0);
}

fn random_request(rng: &mut ScriptRng) -> Vec<TermId> {
    let mut wanted: Vec<TermId> = (0..rng.range(1, 9))
        .map(|_| TermId(rng.range(2, VOCABULARY + 5) as u32))
        .collect();
    if rng.chance(0.5) {
        wanted.push(HEAD);
    }
    if rng.chance(0.5) {
        wanted.push(ABSENT);
    }
    // Repeats, and no particular order.
    if let Some(first) = wanted.first().copied() {
        wanted.push(first);
    }
    wanted
}

/// One scripted session: arrivals (non-monotone ids), expiry by `window`,
/// and requests answered by three `WindowTerms` that build directories at
/// different moments — never, as the production bound allows, and all at
/// once — which must agree with the brute force and with each other.
fn run_session(seed: u64, window: SlidingWindow, chunk_docs: usize, events: usize) {
    let mut rng = ScriptRng::new(seed);
    let mut reference = BruteForce::default();
    let mut views = [
        WindowTerms::with_shape(chunk_docs, 0),
        WindowTerms::with_shape(chunk_docs, 1),
        WindowTerms::with_shape(chunk_docs, usize::MAX),
    ];
    let mut now = Timestamp::ZERO;
    for event in 0..events {
        // Ids jump around; only uniqueness within the window matters.
        let id = (event as u64 * 7_919) % 100_003 + if event % 2 == 0 { 1_000_000 } else { 0 };
        now = now.advance(Duration::from_millis(rng.range(1, 40) as u64));
        let doc = random_doc(&mut rng, id, now);
        reference.0.push_back(Arc::clone(&doc));
        let expired = reference.expire(window, now);
        for view in &mut views {
            view.push(Arc::clone(&doc));
            assert_eq!(
                view.expire(window, now),
                expired,
                "seed {seed:#x} event {event}"
            );
            assert_eq!(view.len(), reference.0.len());
        }
        // Views 1 and 2 are asked at different rhythms, so at any moment
        // they carry directories for different chunks.
        for (at, view) in views.iter_mut().enumerate() {
            if !rng.chance([0.2, 0.1, 0.3][at]) {
                continue;
            }
            let wanted = random_request(&mut rng);
            let context = format!("seed {seed:#x} event {event} view {at}");
            let answer = view.postings(wanted.iter().copied());
            assert_answer(&answer, &wanted, &reference, &context);
            view.check_invariants();
        }
    }
    // A last request to all three: same answer, whatever each has built.
    let wanted: Vec<TermId> = (0..VOCABULARY as u32 + 5).map(TermId).collect();
    let answers: Vec<TermPostings> = views
        .iter_mut()
        .map(|view| view.postings(wanted.iter().copied()))
        .collect();
    assert_answer(&answers[0], &wanted, &reference, "final");
    assert_eq!(answers[0], answers[1]);
    assert_eq!(answers[0], answers[2]);
    let documents: Vec<DocId> = reference.0.iter().map(|doc| doc.id).collect();
    for view in &views {
        view.check_invariants();
        assert!(view.iter().map(|doc| doc.id).eq(documents.iter().copied()));
    }
    assert_eq!(views[0].stats().directories, 0, "builds were off");
    assert_eq!(views[0].stats().postings_from_directories, 0);
    if reference.0.len() >= 3 * chunk_docs {
        assert!(views[2].stats().postings_from_directories > 0);
        assert!(views[1].stats().directories_built > 0);
    }
}

#[test]
fn count_windows_agree_with_the_brute_force_filter() {
    for seed in 0..6 {
        // 37 is no multiple of the chunk: the front chunk is partly expired
        // most of the time.
        run_session(0x3717_0000 + seed, SlidingWindow::count_based(37), 5, 400);
    }
}

#[test]
fn a_window_that_is_an_exact_multiple_of_the_chunk() {
    for seed in 0..4 {
        run_session(0x3717_0100 + seed, SlidingWindow::count_based(32), 8, 300);
    }
}

#[test]
fn a_window_shorter_than_one_chunk_is_always_walked() {
    for seed in 0..4 {
        run_session(0x3717_0200 + seed, SlidingWindow::count_based(6), 16, 200);
    }
}

#[test]
fn time_windows_agree_with_the_brute_force_filter() {
    for seed in 0..6 {
        // 1–40 ms between arrivals: the window holds ~25 documents, and a
        // long gap expires several chunks at once.
        let window = SlidingWindow::time_based(Duration::from_millis(500));
        run_session(0x3717_0300 + seed, window, 4, 400);
    }
}

#[test]
fn a_time_window_can_run_empty_and_refill() {
    let window = SlidingWindow::time_based(Duration::from_millis(10));
    let mut rng = ScriptRng::new(0x3717_0400);
    let mut view = WindowTerms::with_shape(3, usize::MAX);
    let mut reference = BruteForce::default();
    let mut now = Timestamp::ZERO;
    for id in 0..60u64 {
        // Every seventh gap outlasts the window: everything but the arrival
        // itself expires.
        let gap = if id % 7 == 6 { 50 } else { 2 };
        now = now.advance(Duration::from_millis(gap));
        let doc = random_doc(&mut rng, id, now);
        reference.0.push_back(Arc::clone(&doc));
        view.push(doc);
        assert_eq!(view.expire(window, now), reference.expire(window, now));
        let wanted = [HEAD, TermId(2), TermId(3), ABSENT];
        let answer = view.postings(wanted);
        assert_answer(&answer, &wanted, &reference, &format!("arrival {id}"));
        view.check_invariants();
    }
    // Draining by hand empties it; the structure stays sound and refills.
    while view.pop_front().is_some() {}
    assert!(view.is_empty());
    view.check_invariants();
    assert!(view.postings([HEAD]).is_empty());
    view.push(random_doc(&mut rng, 99, now));
    assert_eq!(view.postings([HEAD]).len(), 1);
    view.check_invariants();
}

/// The contract the sibling counter exists for: once the sealed chunks are
/// built, a registration reads its own postings out of the directories and
/// walks only the unsealed tail — fewer entries than one chunk holds —
/// while a window nobody built walks everything, every time.
#[test]
fn a_registration_over_built_directories_walks_less_than_a_chunk() {
    let chunk_docs = 16;
    let mut rng = ScriptRng::new(0x3717_0500);
    let mut built = WindowTerms::with_shape(chunk_docs, 2);
    let mut unbuilt = WindowTerms::with_shape(chunk_docs, 0);
    let mut window_entries = 0u64;
    let mut largest_chunk = 0u64;
    let mut chunk_entries = 0u64;
    for id in 0..200u64 {
        let doc = random_doc(&mut rng, id, Timestamp::from_millis(id));
        window_entries += doc.composition.len() as u64;
        chunk_entries += doc.composition.len() as u64;
        if (id + 1) % chunk_docs as u64 == 0 {
            largest_chunk = largest_chunk.max(chunk_entries);
            chunk_entries = 0;
        }
        built.push(Arc::clone(&doc));
        unbuilt.push(doc);
    }
    let wanted = [HEAD, TermId(5), TermId(9)];
    // Warm-up: two builds per call, newest first, until all 12 sealed
    // chunks carry a directory; every call before that walks what is left.
    let mut calls = 0;
    while built.stats().directories < 12 {
        let before = built.stats();
        built.postings(wanted);
        calls += 1;
        let after = built.stats();
        assert_eq!(after.directories_built - before.directories_built, 2);
        assert!(after.entries_walked > before.entries_walked);
    }
    assert_eq!(calls, 6);
    let stats = built.stats();
    assert_eq!((stats.chunks, stats.directories), (13, 12));
    assert!(stats.directory_bytes > 0);
    let before = built.stats();
    let answer = built.postings(wanted);
    let after = built.stats();
    let walked = after.entries_walked - before.entries_walked;
    assert!(
        walked < largest_chunk,
        "walked {walked} entries over built directories; a chunk holds {largest_chunk}"
    );
    assert_eq!(after.directories_built, before.directories_built);
    assert_eq!(
        (after.postings_from_directories - before.postings_from_directories)
            + (after.postings_from_walks - before.postings_from_walks),
        answer.len() as u64
    );
    assert_eq!(answer.get(HEAD).map(<[_]>::len), Some(200));
    let before = unbuilt.stats();
    assert_eq!(unbuilt.postings(wanted), answer);
    assert_eq!(
        unbuilt.stats().entries_walked - before.entries_walked,
        window_entries
    );
}
