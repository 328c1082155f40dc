//! The window as a registration reads it.
//!
//! A query registered mid-stream on a term-filtered engine needs the
//! postings of the terms it brings live — `(document, weight)` pairs over the
//! whole valid window, in arrival order — and the window stores documents,
//! not terms. [`WindowTerms`] is the arrival-ordered window cut into fixed
//! **chunks** of [`CHUNK_DOCS`] documents, and it answers
//! [`WindowTerms::postings`] chunk by chunk:
//!
//! * a chunk without a directory — the unsealed tail always, any chunk
//!   nobody has asked about yet — is read by **one bitmap walk**: every
//!   composition entry is tested against a bitmap of the wanted terms, so the
//!   cost is the chunk's entries whatever the number of terms
//!   (the one scan strategy; an index reading its own store runs the same
//!   function);
//! * a *sealed* chunk may carry a **term directory** — its distinct terms,
//!   sorted, each with the chunk-local indexes of the documents containing
//!   it in arrival order — and is then answered by a galloping merge of the
//!   sorted wanted terms against the sorted term array: a lone query costs a
//!   probe per term, a bulk batch degrades to a linear merge of the two
//!   arrays. Weights are not stored; they are read from the shared
//!   `Arc<Document>` per posting found.
//!
//! Directories are built **lazily and only here, on the registration path**:
//! each call builds them for at most [`BUILDS_PER_CALL`] of the whole sealed
//! chunks it had to walk, newest first (the oldest expire soonest). The first
//! registration after a quiet stretch costs one walk plus that bounded build;
//! steady churn finds every sealed chunk built. Arrival and expiry do no term
//! work at all: [`WindowTerms::push`] and [`WindowTerms::pop_front`] are
//! pointer pushes and pops, plus dropping a directory when its chunk's last
//! document leaves (DESIGN.md §9 has the prices that ruled per-event
//! maintenance out).

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use cts_text::{TermId, Weight};

use crate::document::{DocId, Document, Timestamp};
use crate::window::{SlidingWindow, WindowKind};

/// Documents per chunk. `ablation_register`'s shape sweep prices 128–1024:
/// shorter chunks mean more directories to probe per registration and more
/// bytes of term array per document, longer ones a longer unsealed tail to
/// walk and a longer single build.
pub const CHUNK_DOCS: usize = 256;

/// Directories one [`WindowTerms::postings`] call may build. Bounds what a
/// registration after a quiet window pays on top of the walk, while a window
/// under steady churn — a chunk seals every [`CHUNK_DOCS`] events — stays
/// fully built. At 4 a quiet 10k window is indexed ten registrations later;
/// at 2 it took twenty, which a burst of churn rarely outlasts (DESIGN.md §9).
pub const BUILDS_PER_CALL: usize = 4;

/// Bits per counting pass of the directory build's radix sort.
const RADIX_BITS: u32 = 11;

/// Set in a directory slot that holds a document count, not a local index.
const MULTI: u16 = 1 << 15;

/// Terms per recorded offset into a directory's `locals`.
const MARK_EVERY: usize = 64;

/// The postings of a set of terms over one state of the window: for each
/// term, the `(document, weight)` pairs of the valid documents containing it,
/// **in arrival order** — the insertion sequence an always-live list would
/// have seen. Resolved by [`WindowTerms::postings`] (or by an index over its
/// own store) and filed by `InvertedIndex::acquire_terms`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TermPostings {
    /// Sorted and distinct.
    terms: Vec<TermId>,
    /// Aligned with `terms`.
    lists: Vec<Vec<(DocId, Weight)>>,
}

impl TermPostings {
    /// Empty lists for `terms`, sorted and deduplicated.
    fn for_terms(terms: impl IntoIterator<Item = TermId>) -> Self {
        let mut terms: Vec<TermId> = terms.into_iter().collect();
        terms.sort_unstable();
        terms.dedup();
        let lists = vec![Vec::new(); terms.len()];
        Self { terms, lists }
    }

    /// The terms resolved, in increasing order — whether or not any valid
    /// document contains them.
    pub fn terms(&self) -> &[TermId] {
        &self.terms
    }

    /// The postings of `term` in arrival order, or `None` if `term` was not
    /// among the terms resolved (an empty slice means it was, and no valid
    /// document contains it).
    pub fn get(&self, term: TermId) -> Option<&[(DocId, Weight)]> {
        let slot = self.terms.binary_search(&term).ok()?;
        Some(&self.lists[slot])
    }

    /// Total number of postings across all terms.
    pub fn len(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }

    /// Whether no posting was found (or no term asked for).
    pub fn is_empty(&self) -> bool {
        self.lists.iter().all(Vec::is_empty)
    }
}

/// A bitmap over the wanted terms: the per-entry test of the walk.
struct WantedBits(Vec<u64>);

impl WantedBits {
    /// `terms` is sorted, so its last element sizes the bitmap.
    fn of(terms: &[TermId]) -> Self {
        let words = terms.last().map_or(0, |max| max.0 as usize / 64 + 1);
        let mut bits = vec![0u64; words];
        for term in terms {
            bits[term.0 as usize / 64] |= 1u64 << (term.0 % 64);
        }
        Self(bits)
    }

    #[inline]
    fn contains(&self, term: TermId) -> bool {
        self.0
            .get(term.0 as usize / 64)
            .is_some_and(|word| word >> (term.0 % 64) & 1 == 1)
    }
}

/// The one scan strategy: walks every composition entry of `docs` (oldest
/// first) once, tests it against the bitmap of `into`'s terms and appends
/// the hits to their lists. Returns the number of composition entries read
/// and the number of hits.
fn walk<'a>(
    docs: impl Iterator<Item = &'a Document>,
    wanted: &WantedBits,
    into: &mut TermPostings,
) -> (u64, u64) {
    let (mut walked, mut hits) = (0, 0);
    for doc in docs {
        let composition = doc.composition.as_slice();
        walked += composition.len() as u64;
        for entry in composition {
            if !wanted.contains(entry.term) {
                continue;
            }
            if let Ok(slot) = into.terms.binary_search(&entry.term) {
                into.lists[slot].push((doc.id, entry.weight));
                hits += 1;
            }
        }
    }
    (walked, hits)
}

/// Resolves `terms` over `docs` (oldest first) by one bitmap walk — how an
/// index answers from its own store when nobody supplied the postings.
/// Returns them with the number of composition entries read (none when no
/// term is asked for).
pub(crate) fn walk_postings<'a>(
    docs: impl Iterator<Item = &'a Document>,
    terms: impl IntoIterator<Item = TermId>,
) -> (TermPostings, u64) {
    let mut postings = TermPostings::for_terms(terms);
    if postings.terms.is_empty() {
        return (postings, 0);
    }
    let wanted = WantedBits::of(&postings.terms);
    let (walked, _) = walk(docs, &wanted, &mut postings);
    (postings, walked)
}

/// A sealed chunk's term directory. Three of four distinct terms of a
/// 256-document chunk occur in one document only, so those cost a term and
/// a `u16`; only terms in several documents have their indexes listed, and
/// offsets into that list are kept for every [`MARK_EVERY`]-th term and
/// summed up from there (6 bytes per distinct term and 2 per listed index,
/// where plain `u32` offsets cost 8 and 2: 9.0 MB against 12.4 MB over the
/// 10k-document window).
#[derive(Debug, Clone, PartialEq)]
struct TermDirectory {
    /// The chunk's distinct terms, increasing.
    terms: Vec<TermId>,
    /// Aligned with `terms`: the chunk-local index of the one document
    /// containing the term, or `MULTI | n` when `n >= 2` documents do and
    /// their indexes are the term's group in `locals`.
    slots: Vec<u16>,
    /// Chunk-local document indexes of the terms in several documents,
    /// grouped by term in `terms` order, increasing (arrival order) within
    /// a group.
    locals: Vec<u16>,
    /// `marks[m]` is where the groups of `terms[m * MARK_EVERY..]` start.
    marks: Vec<u32>,
}

impl TermDirectory {
    /// Builds the directory of a whole chunk: one key `term << 16 | local`
    /// per composition entry, generated document by document — so already
    /// ordered by `(local, term)` — then stably radix-sorted on the term
    /// bits alone, which leaves them ordered by `(term, local)`.
    fn build<'a>(docs: impl Iterator<Item = &'a Document>) -> Self {
        let mut keys: Vec<u64> = Vec::new();
        let mut max_term = 0u32;
        for (local, doc) in docs.enumerate() {
            let composition = doc.composition.as_slice();
            max_term = max_term.max(composition.last().map_or(0, |entry| entry.term.0));
            keys.extend(
                composition
                    .iter()
                    .map(|entry| u64::from(entry.term.0) << 16 | local as u64),
            );
        }
        let term_bits = u32::BITS - max_term.leading_zeros();
        let passes = term_bits.div_ceil(RADIX_BITS);
        if passes > 0 {
            // Equal digits of as few bits as cover the largest term: two
            // 9-bit passes at the paper's 182k-term vocabulary.
            let digit_bits = term_bits.div_ceil(passes);
            let mask = (1u64 << digit_bits) - 1;
            let mut scratch = vec![0u64; keys.len()];
            let mut counts = vec![0u32; 1 << digit_bits];
            for pass in 0..passes {
                let shift = 16 + pass * digit_bits;
                counts.fill(0);
                for key in &keys {
                    counts[(key >> shift & mask) as usize] += 1;
                }
                let mut next = 0u32;
                for count in &mut counts {
                    next += std::mem::replace(count, next);
                }
                for key in &keys {
                    let at = &mut counts[(key >> shift & mask) as usize];
                    scratch[*at as usize] = *key;
                    *at += 1;
                }
                std::mem::swap(&mut keys, &mut scratch);
            }
        }
        let same_term = |a: &u64, b: &u64| a >> 16 == b >> 16;
        let (mut distinct, mut single) = (0, 0);
        for group in keys.chunk_by(same_term) {
            distinct += 1;
            single += usize::from(group.len() == 1);
        }
        let mut terms = Vec::with_capacity(distinct);
        let mut slots = Vec::with_capacity(distinct);
        let mut locals = Vec::with_capacity(keys.len() - single);
        let mut marks = Vec::with_capacity(distinct.div_ceil(MARK_EVERY));
        for group in keys.chunk_by(same_term) {
            if terms.len().is_multiple_of(MARK_EVERY) {
                marks.push(locals.len() as u32);
            }
            terms.push(TermId((group[0] >> 16) as u32));
            if let [only] = group {
                slots.push(*only as u16);
            } else {
                slots.push(MULTI | group.len() as u16);
                locals.extend(group.iter().map(|key| *key as u16));
            }
        }
        Self {
            terms,
            slots,
            locals,
            marks,
        }
    }

    /// Heap bytes held.
    fn bytes(&self) -> usize {
        self.terms.capacity() * std::mem::size_of::<TermId>()
            + (self.slots.capacity() + self.locals.capacity()) * std::mem::size_of::<u16>()
            + self.marks.capacity() * std::mem::size_of::<u32>()
    }

    /// The local indexes of the documents containing the `at`-th term.
    fn locals_of(&self, at: usize) -> &[u16] {
        let slot = self.slots[at];
        if slot & MULTI == 0 {
            return std::slice::from_ref(&self.slots[at]);
        }
        let skipped: usize = self.slots[at - at % MARK_EVERY..at]
            .iter()
            .filter(|slot| **slot & MULTI != 0)
            .map(|slot| usize::from(slot & !MULTI))
            .sum();
        let start = self.marks[at / MARK_EVERY] as usize + skipped;
        &self.locals[start..start + usize::from(slot & !MULTI)]
    }

    /// Calls `found(slot in wanted, slot in self.terms)` for every wanted
    /// term the chunk contains: a galloping merge of two sorted arrays, so a
    /// few wanted terms cost a logarithmic probe each and many cost no more
    /// than a linear merge.
    fn merge(&self, wanted: &[TermId], mut found: impl FnMut(usize, usize)) {
        let terms = &self.terms;
        let mut from = 0;
        for (slot, term) in wanted.iter().enumerate() {
            let mut step = 1;
            let mut to = from;
            while to < terms.len() && terms[to] < *term {
                from = to + 1;
                to += step;
                step *= 2;
            }
            let to = to.min(terms.len());
            from += terms[from..to].partition_point(|t| t < term);
            if from == terms.len() {
                break;
            }
            if terms[from] == *term {
                found(slot, from);
            }
        }
    }
}

/// Counters and sizes of a [`WindowTerms`]. The counters are monotone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowTermsStats {
    /// Chunks the window currently spans, the partly expired front one and
    /// the unsealed tail included.
    pub chunks: usize,
    /// Chunks that currently carry a term directory.
    pub directories: usize,
    /// Heap bytes those directories hold.
    pub directory_bytes: usize,
    /// Composition entries read by bitmap walks.
    pub entries_walked: u64,
    /// Postings answered out of directories.
    pub postings_from_directories: u64,
    /// Postings answered by bitmap walks.
    pub postings_from_walks: u64,
    /// Directories built so far (each by a [`WindowTerms::postings`] call).
    pub directories_built: u64,
}

/// The valid documents in arrival order, with lazily built per-chunk term
/// directories — see the module documentation.
#[derive(Debug)]
pub struct WindowTerms {
    docs: VecDeque<Arc<Document>>,
    /// One slot per chunk the window spans, oldest first. Chunk `c` covers
    /// the documents at positions `c * chunk_docs - front_offset ..` of
    /// `docs`, clipped to it.
    directories: VecDeque<Option<TermDirectory>>,
    /// How many documents of the front chunk have expired.
    front_offset: usize,
    chunk_docs: usize,
    builds_per_call: usize,
    entries_walked: u64,
    postings_from_directories: u64,
    postings_from_walks: u64,
    directories_built: u64,
}

impl Default for WindowTerms {
    fn default() -> Self {
        Self::new()
    }
}

impl WindowTerms {
    /// An empty window with the production shape ([`CHUNK_DOCS`],
    /// [`BUILDS_PER_CALL`]).
    pub fn new() -> Self {
        Self::with_shape(CHUNK_DOCS, BUILDS_PER_CALL)
    }

    /// An empty window with another chunk length and build bound — for the
    /// sweep in `ablation_register` that chose the two constants, and for
    /// tests that need chunks of a few documents or directories that are
    /// never (0) or always built.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= chunk_docs < 32768` (a directory slot is a `u16`
    /// with one bit spoken for).
    pub fn with_shape(chunk_docs: usize, builds_per_call: usize) -> Self {
        assert!(
            (1..usize::from(MULTI)).contains(&chunk_docs),
            "a chunk holds between 1 and 32767 documents"
        );
        Self {
            docs: VecDeque::new(),
            directories: VecDeque::new(),
            front_offset: 0,
            chunk_docs,
            builds_per_call,
            entries_walked: 0,
            postings_from_directories: 0,
            postings_from_walks: 0,
            directories_built: 0,
        }
    }

    /// Appends an arriving document: a pointer push, plus an empty directory
    /// slot when the document opens a chunk.
    pub fn push(&mut self, doc: Arc<Document>) {
        if (self.front_offset + self.docs.len()).is_multiple_of(self.chunk_docs) {
            self.directories.push_back(None);
        }
        self.docs.push_back(doc);
    }

    /// Removes and returns the oldest document: a pointer pop, plus dropping
    /// the front chunk's directory when this was its last document.
    pub fn pop_front(&mut self) -> Option<Arc<Document>> {
        let doc = self.docs.pop_front()?;
        self.front_offset += 1;
        if self.front_offset == self.chunk_docs {
            self.front_offset = 0;
            self.directories.pop_front();
        }
        Some(doc)
    }

    /// Drops what `window` no longer holds at time `now` — the policy the
    /// engines apply to their stores ([`SlidingWindow::expired`]) — and
    /// returns how many documents went.
    pub fn expire(&mut self, window: SlidingWindow, now: Timestamp) -> usize {
        let capacity = match window.kind() {
            WindowKind::CountBased { size } => size,
            WindowKind::TimeBased { .. } => usize::MAX,
        };
        let before = self.docs.len();
        while self.docs.len() > capacity
            || (self.docs.front()).is_some_and(|doc| !window.is_fresh(doc.arrival, now))
        {
            self.pop_front();
        }
        before - self.docs.len()
    }

    /// Number of valid documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// The valid documents, oldest first.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &Arc<Document>> {
        self.docs.iter()
    }

    /// The positions in `docs` of chunk `chunk`'s documents.
    fn chunk_range(&self, chunk: usize) -> std::ops::Range<usize> {
        let start = (chunk * self.chunk_docs).saturating_sub(self.front_offset);
        let end = ((chunk + 1) * self.chunk_docs - self.front_offset).min(self.docs.len());
        start..end
    }

    /// The postings of `terms` (repeats allowed) over the current window, in
    /// arrival order per term: chunks with a directory answer from it, the
    /// rest are walked once, and up to the build bound of the whole chunks
    /// walked get their directory built afterwards, newest first. The answer
    /// does not depend on which chunks have a directory.
    pub fn postings(&mut self, terms: impl IntoIterator<Item = TermId>) -> TermPostings {
        let mut postings = TermPostings::for_terms(terms);
        if postings.terms.is_empty() {
            return postings;
        }
        let wanted = WantedBits::of(&postings.terms);
        let mut walked_whole = Vec::new();
        let (mut entries_walked, mut from_walks, mut from_directories) = (0, 0, 0);
        for (chunk, directory) in self.directories.iter().enumerate() {
            let range = self.chunk_range(chunk);
            let Some(directory) = directory else {
                // Sealed and not yet expiring: a candidate for a build.
                if range.len() == self.chunk_docs {
                    walked_whole.push(chunk);
                }
                let docs = self.docs.range(range).map(|doc| &**doc);
                let (walked, hits) = walk(docs, &wanted, &mut postings);
                entries_walked += walked;
                from_walks += hits;
                continue;
            };
            // Local index `l` of this chunk sits at `range.start + l -
            // expired`, where only the front chunk has `expired > 0`.
            let expired = self.chunk_docs - range.len();
            let (docs, lists) = (&self.docs, &mut postings.lists);
            directory.merge(&postings.terms, |slot, at| {
                let term = directory.terms[at];
                let locals = directory.locals_of(at);
                let live = locals.partition_point(|local| usize::from(*local) < expired);
                for local in &locals[live..] {
                    let doc = &docs[range.start + usize::from(*local) - expired];
                    lists[slot].push((doc.id, doc.composition.impact(term)));
                }
                from_directories += locals.len() - live;
            });
        }
        self.entries_walked += entries_walked;
        self.postings_from_walks += from_walks;
        self.postings_from_directories += from_directories as u64;
        for chunk in walked_whole.into_iter().rev().take(self.builds_per_call) {
            let docs = self.docs.range(self.chunk_range(chunk)).map(|doc| &**doc);
            self.directories[chunk] = Some(TermDirectory::build(docs));
            self.directories_built += 1;
        }
        postings
    }

    /// Sizes and counters.
    pub fn stats(&self) -> WindowTermsStats {
        let built = self.directories.iter().flatten();
        WindowTermsStats {
            chunks: self.directories.len(),
            directories: built.clone().count(),
            directory_bytes: built.map(TermDirectory::bytes).sum(),
            entries_walked: self.entries_walked,
            postings_from_directories: self.postings_from_directories,
            postings_from_walks: self.postings_from_walks,
            directories_built: self.directories_built,
        }
    }

    /// Audits the structure, panicking with a description on violation:
    /// there is one directory slot per chunk the window spans; only a sealed
    /// chunk carries a directory; and every directory, cut down to the
    /// documents still valid, is what a plain re-derivation from those
    /// documents gives — sorted distinct terms, each with its documents'
    /// local indexes in arrival order.
    pub fn check_invariants(&self) {
        let arrived = self.front_offset + self.docs.len();
        assert!(
            self.front_offset < self.chunk_docs,
            "the front chunk expired whole but was not dropped"
        );
        assert_eq!(
            self.directories.len(),
            arrived.div_ceil(self.chunk_docs),
            "directory slots disagree with the chunks the window spans"
        );
        for (chunk, directory) in self.directories.iter().enumerate() {
            let Some(directory) = directory else {
                continue;
            };
            assert!(
                (chunk + 1) * self.chunk_docs <= arrived,
                "unsealed chunk {chunk} carries a directory"
            );
            let range = self.chunk_range(chunk);
            let expired = self.chunk_docs - range.len();
            let mut expected: BTreeMap<TermId, Vec<u16>> = BTreeMap::new();
            for (at, doc) in self.docs.range(range).enumerate() {
                for entry in doc.composition.as_slice() {
                    let local = (expired + at) as u16;
                    expected.entry(entry.term).or_default().push(local);
                }
            }
            assert!(
                directory.terms.windows(2).all(|pair| pair[0] < pair[1]),
                "chunk {chunk}'s directory terms are not strictly increasing"
            );
            let mut held: BTreeMap<TermId, Vec<u16>> = BTreeMap::new();
            for (slot, term) in directory.terms.iter().enumerate() {
                let live: Vec<u16> = directory
                    .locals_of(slot)
                    .iter()
                    .copied()
                    .filter(|local| usize::from(*local) >= expired)
                    .collect();
                if !live.is_empty() {
                    held.insert(*term, live);
                }
            }
            assert_eq!(
                held, expected,
                "chunk {chunk}'s directory is not a rebuild from its documents"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_text::WeightedVector;

    fn doc(id: u64, terms: &[(u32, f64)]) -> Arc<Document> {
        Arc::new(Document::new(
            DocId(id),
            Timestamp::from_millis(id),
            WeightedVector::from_weights(terms.iter().map(|&(t, w)| (TermId(t), w))),
        ))
    }

    fn ids(postings: &TermPostings, term: u32) -> Vec<u64> {
        let list = postings.get(TermId(term)).expect("term was asked for");
        list.iter().map(|(doc, _)| doc.0).collect()
    }

    #[test]
    fn push_and_pop_keep_one_slot_per_spanned_chunk() {
        let mut window = WindowTerms::with_shape(4, usize::MAX);
        assert_eq!(window.stats(), WindowTermsStats::default());
        for i in 0..10 {
            window.push(doc(i, &[(1, 0.5)]));
            window.check_invariants();
        }
        assert_eq!((window.len(), window.stats().chunks), (10, 3));
        for expected in 0..10 {
            assert_eq!(window.pop_front().map(|d| d.id), Some(DocId(expected)));
            window.check_invariants();
        }
        assert!(window.is_empty() && window.pop_front().is_none());
        // Ten documents came and went: the tail chunk (8..12) is still open.
        assert_eq!(window.stats().chunks, 1);
        window.push(doc(10, &[(1, 0.5)]));
        window.push(doc(11, &[(1, 0.5)]));
        window.push(doc(12, &[(1, 0.5)]));
        window.check_invariants();
        assert_eq!(window.stats().chunks, 2);
    }

    #[test]
    fn directory_answer_equals_walk_answer_over_front_sealed_and_tail_chunks() {
        // Chunks of 4 over ids 0..14; the front chunk loses two documents.
        let make = |builds| {
            let mut window = WindowTerms::with_shape(4, builds);
            for i in 0..14u64 {
                let t = (i % 3) as u32;
                window.push(doc(i, &[(t, 0.1 + i as f64 * 0.01), (7, 0.3)]));
            }
            window
        };
        let mut walked = make(0);
        let mut built = make(usize::MAX);
        // The first call walks everything and builds the three sealed chunks.
        let wanted = [TermId(7), TermId(0), TermId(2), TermId(7), TermId(99)];
        assert_eq!(built.postings(wanted), walked.postings(wanted));
        assert_eq!(built.stats().directories, 3);
        assert_eq!(walked.stats().directories, 0);
        for window in [&mut walked, &mut built] {
            window.pop_front();
            window.pop_front();
            window.check_invariants();
        }
        let from_directories = built.postings(wanted);
        assert_eq!(from_directories, walked.postings(wanted));
        assert_eq!(ids(&from_directories, 7), (2..14).collect::<Vec<_>>());
        assert_eq!(ids(&from_directories, 0), vec![3, 6, 9, 12]);
        assert_eq!(ids(&from_directories, 99), Vec::<u64>::new());
        assert!(from_directories.get(TermId(1)).is_none(), "not asked for");
        assert_eq!(from_directories.terms().len(), 4, "repeats collapse");
        // Only the two-document tail was walked the second time.
        let stats = built.stats();
        assert_eq!(stats.postings_from_directories, 10 + 4 + 3);
        assert_eq!(stats.entries_walked, 14 * 2 + 2 * 2);
    }

    #[test]
    fn builds_are_bounded_per_call_and_run_newest_first() {
        let mut window = WindowTerms::with_shape(2, 1);
        for i in 0..7 {
            window.push(doc(i, &[(i as u32, 0.5)]));
        }
        let built = |window: &WindowTerms| -> Vec<bool> {
            window.directories.iter().map(Option::is_some).collect()
        };
        window.postings([TermId(0)]);
        assert_eq!(built(&window), [false, false, true, false]);
        window.postings([TermId(0)]);
        assert_eq!(built(&window), [false, true, true, false]);
        // A partly expired front chunk is never built, only walked.
        window.pop_front();
        window.postings([TermId(0)]);
        window.postings([TermId(0)]);
        assert_eq!(built(&window), [false, true, true, false]);
        assert_eq!(window.stats().directories_built, 2);
        window.check_invariants();
    }

    #[test]
    fn offsets_are_summed_from_the_nearest_mark() {
        // 200 distinct terms over one 6-document chunk, single- and
        // multi-document terms interleaved across several mark blocks.
        let mut window = WindowTerms::with_shape(6, usize::MAX);
        for i in 0..6u64 {
            let terms: Vec<(u32, f64)> = (0..200u32)
                .filter(|t| t % 6 == i as u32 || t % (i as u32 + 2) == 0)
                .map(|t| (t * 3, 0.1 + f64::from(t % 5) * 0.1))
                .collect();
            window.push(doc(i, &terms));
        }
        let all = || (0..600).map(TermId);
        let walked = window.postings(all());
        assert_eq!(window.stats().directories, 1);
        window.check_invariants();
        let directory = window.directories[0].as_ref().expect("just built");
        assert!(directory.marks.len() > 2, "one block would test nothing");
        assert_eq!(window.postings(all()), walked);
        assert_eq!(
            window.stats().postings_from_directories,
            walked.len() as u64
        );
    }

    #[test]
    fn the_radix_build_handles_wide_and_degenerate_term_ids() {
        let docs = [
            doc(0, &[(u32::MAX, 0.5), (0, 0.1), (70_000, 0.2)]),
            doc(1, &[(0, 0.3)]),
            doc(2, &[(70_000, 0.9), (u32::MAX, 0.4), (5, 0.1)]),
        ];
        let directory = TermDirectory::build(docs.iter().map(|d| &**d));
        let terms: Vec<u32> = directory.terms.iter().map(|t| t.0).collect();
        assert_eq!(terms, vec![0, 5, 70_000, u32::MAX]);
        assert_eq!(directory.slots, vec![MULTI | 2, 2, MULTI | 2, MULTI | 2]);
        assert_eq!(directory.locals, vec![0, 1, 0, 2, 0, 2]);
        assert_eq!(directory.locals_of(1), [2]);
        assert_eq!(directory.locals_of(3), [0, 2]);
        // Every term is 0: no radix pass runs at all.
        let zeros = [doc(0, &[(0, 0.5)]), doc(1, &[(0, 0.5)])];
        let directory = TermDirectory::build(zeros.iter().map(|d| &**d));
        assert_eq!(directory.locals_of(0), [0, 1]);
        let empty = TermDirectory::build(std::iter::empty());
        assert!(empty.terms.is_empty() && empty.marks.is_empty());
    }
}
