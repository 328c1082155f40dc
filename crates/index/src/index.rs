//! The streaming inverted index.
//!
//! An [`InvertedIndex`] owns the valid-document store and one impact-ordered
//! [`InvertedList`] per term seen in the window (the segmented impact
//! list). Document arrival inserts one impact entry per composition-list
//! term; expiration removes them again and frees empty lists, so memory
//! tracks the window contents exactly (Figure 1 of the paper).
//!
//! Lists live in a [`DenseArena`] keyed through the index's [`LiveTerms`] —
//! the set of terms the owner's registered queries use, which also fixes the
//! arena's key space (see [`crate::arena`]). A full index
//! ([`InvertedIndex::new`]) keys its lists by the interned [`TermId`], so
//! the per-term lookup performed for *every* term of *every* arriving and
//! expiring document is a single bounds-checked array index, not a hash.
//! Composition entries already carry validated [`cts_text::Weight`]s
//! (`cts_text::WeightedTerm`), so filing them into the lists is free of
//! per-entry `f64` re-validation.
//!
//! The sharded engine builds **term-filtered shadow indexes**
//! ([`InvertedIndex::term_filtered`]): each worker shard mirrors the full
//! window in its store (shared `Arc`s, one copy in memory) but files impact
//! entries only for the live terms, under compact live-slot keys, so both
//! the work per event and the memory follow the terms its own queries
//! reference, not the vocabulary. An arriving or expiring document is cut
//! down to its live entries **once** ([`InvertedIndex::insert_arrival`],
//! [`InvertedIndex::remove_expired`]) and the filing loop, the engine's
//! threshold probe and its scoring all walk that short slice. A query
//! registered mid-stream may bring a term live that the shadow never
//! indexed; [`InvertedIndex::acquire_terms`] files such a term's postings in
//! arrival order, and [`InvertedIndex::release_term`] retires a
//! list once the last referencing query deregisters. A term therefore has
//! two states on a term-filtered index and no third: no query uses it and
//! it has no list, or it is live and its list holds **exactly** the window's
//! postings for it — which is what lets expiry re-intersect a document with
//! the live set as it is *now*, and what [`InvertedIndex::check_invariants`]
//! audits. (The caller-filtered form —
//! [`InvertedIndex::insert_shared_filtered`] over an identity-keyed index,
//! which the replica passes of `ctsbench` drive — is for full indexes only:
//! a term-filtered index owns its filter.)
//!
//! **Who resolves those postings.** Reading them out of the stored window
//! is a pass over every composition entry of every valid document — the
//! *registration cliff* (DESIGN.md §9) — so the index does not do it when
//! someone else already has: `acquire_terms` takes a [`TermPostings`]
//! resolved by the window's owner (the sharded coordinator's
//! [`crate::WindowTerms`], which answers from per-chunk term directories
//! and is shared by every shard) and files from it, for registrations and
//! migrations alike. Only for terms nobody supplied — a stand-alone filtered
//! engine — does the index walk its own store, once per call however many
//! terms it brings, each composition entry tested against a bitmap of the
//! wanted terms ([`InvertedIndex::register_entries_walked`] counts those
//! entries).

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use cts_text::{TermId, WeightedTerm};

use crate::arena::{DenseArena, LiveTerms};
use crate::document::{DocId, Document};
use crate::store::DocumentStore;
use crate::window_terms::{walk_postings, TermPostings};
use crate::InvertedList;

/// The streaming inverted index over the valid documents.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InvertedIndex {
    store: DocumentStore,
    /// The terms the owner's queries reference, and the key space of
    /// `lists`: term ids on a full index, live slots on a term-filtered one.
    live: LiveTerms,
    lists: DenseArena<InvertedList>,
    /// Impact entries filed by registration-path backfills (satellite
    /// regression counter: must scale with the probed lists, never with the
    /// window × registration count product of the old eager path).
    register_postings_touched: u64,
    /// Composition entries this index read out of its own store to resolve
    /// postings nobody supplied (the sibling counter: stays 0 on a shard,
    /// whose coordinator ships them with every registration and migration).
    register_entries_walked: u64,
}

impl InvertedIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty index sized for roughly `docs` valid documents of
    /// `terms_per_doc` distinct terms each.
    pub fn with_capacity(docs: usize, terms_per_doc: usize) -> Self {
        Self {
            store: DocumentStore::with_capacity(docs),
            lists: DenseArena::with_capacity(docs.saturating_mul(terms_per_doc) / 4),
            ..Self::default()
        }
    }

    /// Creates an empty **term-filtered** index: postings are filed only for
    /// live terms — those holding a reference taken through
    /// [`InvertedIndex::acquire_terms`] — and lists are keyed by compact live
    /// slots, so the arena is sized by the live terms rather than by the
    /// vocabulary. Documents are always stored in full.
    pub fn term_filtered() -> Self {
        Self {
            live: LiveTerms::live_slots(),
            ..Self::default()
        }
    }

    /// Whether this index files live terms only (see
    /// [`InvertedIndex::term_filtered`]).
    pub fn is_term_filtered(&self) -> bool {
        self.live.keys_are_slots()
    }

    /// The live-term set: which terms registered queries reference, and the
    /// key under which per-term state is filed. The engine keys its
    /// threshold-tree arena through the same set.
    pub fn live_terms(&self) -> &LiveTerms {
        &self.live
    }

    /// Takes one reference on each of `terms` (a registering batch's query
    /// terms, repeats included). On a term-filtered index the terms this
    /// brings live get their lists filed right away — from `supplied`, the
    /// postings the window's owner resolved for this very window state, and,
    /// for newly live terms it does not cover, from **one walk** of this
    /// index's own store — so the caller may probe every one of them. This is
    /// the only way a list comes to exist other than by an arrival.
    pub fn acquire_terms(
        &mut self,
        terms: impl IntoIterator<Item = TermId>,
        supplied: &TermPostings,
    ) {
        // `acquire` is true exactly once per distinct newly-live term, so
        // `newly_live` is duplicate-free.
        let newly_live: Vec<TermId> = terms
            .into_iter()
            .filter(|term| self.live.acquire(*term))
            .collect();
        if self.is_term_filtered() && !newly_live.is_empty() {
            self.rebuild_lists(&newly_live, supplied);
        }
    }

    /// Drops one reference on `term`; `true` when it was the last. A
    /// term-filtered index then retires the term's list and recycles its key
    /// — the caller must already have let go of whatever *it* files under
    /// [`LiveTerms::key`].
    pub fn release_term(&mut self, term: TermId) -> bool {
        let Some(key) = self.live.release(term) else {
            return false;
        };
        if self.is_term_filtered() {
            self.lists.remove(key);
        }
        true
    }

    /// Inserts an arriving document: stores it and adds one impact entry per
    /// composition-list term.
    pub fn insert_document(&mut self, doc: Document) {
        self.insert_shared(Arc::new(doc));
    }

    /// Inserts an already-shared arriving document: stores the `Arc` and
    /// adds one impact entry per composition-list term (per *live* term on a
    /// term-filtered index).
    pub fn insert_shared(&mut self, doc: Arc<Document>) {
        self.file(&doc, doc.composition.as_slice(), |_| true);
    }

    /// Inserts an already-shared arriving document, filing impact entries
    /// only for composition terms accepted by `allow`; the document itself is
    /// always stored in full. For a caller that keeps a term filter of its
    /// own over a full index (the `ctsbench` replica pass). On a
    /// term-filtered index anything but an all-accepting `allow` would leave
    /// a live term's list incomplete, which the audit reports.
    pub fn insert_shared_filtered(
        &mut self,
        doc: Arc<Document>,
        allow: impl FnMut(TermId) -> bool,
    ) {
        self.file(&doc, doc.composition.as_slice(), allow);
    }

    /// The engines' arrival path: cuts `doc` down to its live entries — left
    /// in `live_entries` for the caller's threshold probe and scoring — and
    /// files them. A full index files the whole composition list instead
    /// (its lists cover every term, live or not); a term-filtered one walks
    /// only the slice, typically ~5 entries of ~230.
    pub fn insert_arrival(&mut self, doc: &Arc<Document>, live_entries: &mut Vec<WeightedTerm>) {
        let entries = self.cut(doc, live_entries);
        self.file(doc, entries, |_| true);
    }

    /// Replaces `live_entries` with `doc`'s live entries and returns the
    /// entries this index keeps postings for: those, if it is term-filtered,
    /// the whole composition list if it is full.
    fn cut<'a>(
        &self,
        doc: &'a Document,
        live_entries: &'a mut Vec<WeightedTerm>,
    ) -> &'a [WeightedTerm] {
        let composition = doc.composition.as_slice();
        self.live.intersect(composition, live_entries);
        if self.is_term_filtered() {
            live_entries
        } else {
            composition
        }
    }

    /// The one filing loop: stores `doc`, then adds an impact entry for each
    /// of `entries` that `allow` accepts and that has a key.
    ///
    /// # Panics
    ///
    /// Panics if a document with `doc`'s id is already stored — before any
    /// list is touched, so the index the unwind leaves behind is intact.
    fn file(
        &mut self,
        doc: &Arc<Document>,
        entries: &[WeightedTerm],
        mut allow: impl FnMut(TermId) -> bool,
    ) {
        self.store.push_shared(Arc::clone(doc));
        for entry in entries {
            if !allow(entry.term) {
                continue;
            }
            if let Some(key) = self.live.key(entry.term) {
                self.lists.get_or_default(key).insert(doc.id, entry.weight);
            }
        }
    }

    /// Files the lists of `terms`, which [`InvertedIndex::acquire_terms`]
    /// just brought live (so they are distinct, and the last release retired
    /// any earlier list) — the one place backfilled postings are filed, in
    /// arrival order per term, the insertion sequence a list maintained all
    /// along would have seen. A term's postings come from `supplied` if it
    /// covers the term, and otherwise from one bitmap walk of this index's
    /// store over all the uncovered terms together.
    fn rebuild_lists(&mut self, terms: &[TermId], supplied: &TermPostings) {
        let uncovered = terms.iter().filter(|term| supplied.get(**term).is_none());
        let (walked, entries) = walk_postings(self.store.iter(), uncovered.copied());
        self.register_entries_walked += entries;
        for term in terms {
            let postings = supplied.get(*term).or_else(|| walked.get(*term));
            let Some(postings) = postings.filter(|postings| !postings.is_empty()) else {
                continue;
            };
            let Some(key) = self.live.key(*term) else {
                // cts-lint: allow(panic-in-hot-path, the only caller took a reference on every term it passes, so each has a key)
                panic!("backfill of {term}, which no registered query references");
            };
            let list = self.lists.get_or_default(key);
            for (doc, weight) in postings {
                list.insert(*doc, *weight);
            }
            self.register_postings_touched += postings.len() as u64;
        }
    }

    /// Impact entries filed by registration-path backfills so far (monotone).
    ///
    /// The registration-cost regression tests pin this to the size of the
    /// lists actually probed: re-registering shared terms must add nothing,
    /// and growing the window with documents that do not contain a query's
    /// terms must not grow the counter.
    pub fn register_postings_touched(&self) -> u64 {
        self.register_postings_touched
    }

    /// Composition entries this index read out of its own store to resolve
    /// postings nobody supplied (monotone). A whole-window walk adds the
    /// window's entry count whatever the number of terms; a registration
    /// whose postings were all supplied adds nothing.
    pub fn register_entries_walked(&self) -> u64 {
        self.register_entries_walked
    }

    /// Removes the document with id `id` (normally the oldest, on expiration):
    /// deletes its impact entries and returns the (shared) document for
    /// further processing by the engines. Returns `None` if `id` is not
    /// valid. On a filtered index, composition terms that were never indexed
    /// simply have no list and are skipped.
    pub fn remove_document(&mut self, id: DocId) -> Option<Arc<Document>> {
        let doc = self.store.remove(id)?;
        self.unfile(id, doc.composition.as_slice());
        Some(doc)
    }

    /// The engines' expiration path, the mirror of
    /// [`InvertedIndex::insert_arrival`]: removes the document, cuts it down
    /// to the entries live **now** — left in `live_entries` for the caller's
    /// threshold probe — and deletes their impact entries. The live set may
    /// have changed since the document arrived; that is sound because a list
    /// exists exactly for the live terms, whatever they were then: a term
    /// that went live later was backfilled with this document's entry, and a
    /// term that died took its list with it.
    pub fn remove_expired(
        &mut self,
        id: DocId,
        live_entries: &mut Vec<WeightedTerm>,
    ) -> Option<Arc<Document>> {
        let doc = self.store.remove(id)?;
        let entries = self.cut(&doc, live_entries);
        self.unfile(id, entries);
        Some(doc)
    }

    /// The one removal loop: deletes document `id`'s impact entry from the
    /// list of each of `entries` that has one, vacating emptied lists.
    fn unfile(&mut self, id: DocId, entries: &[WeightedTerm]) {
        for entry in entries {
            let Some(key) = self.live.key(entry.term) else {
                continue;
            };
            let emptied = self.lists.get_mut(key).is_some_and(|list| {
                list.remove(id, entry.weight);
                list.is_empty()
            });
            if emptied {
                self.lists.remove(key);
            }
        }
    }

    /// Brings `self` up to date with `src` at a cost of `O(lists dirtied +
    /// FIFO delta)`: the store replays its pops and pushes
    /// ([`DocumentStore::sync_from`]), the list arena copies the lists an
    /// arrival, expiration, backfill or retirement touched
    /// ([`DenseArena::sync_from`]), the live-term set is copied if a
    /// registration changed it ([`LiveTerms::sync_from`]), and the backfill
    /// counters are copied outright. Clears `src`'s change records.
    ///
    /// `self` must hold what `src` held when it was last synced from — both
    /// freshly created, or `self` last written by this very call.
    pub fn sync_from(&mut self, src: &mut InvertedIndex) {
        self.store.sync_from(&mut src.store);
        self.live.sync_from(&mut src.live);
        self.lists.sync_from(&mut src.lists);
        self.register_postings_touched = src.register_postings_touched;
        self.register_entries_walked = src.register_entries_walked;
    }

    /// The valid-document store.
    pub fn store(&self) -> &DocumentStore {
        &self.store
    }

    /// The inverted list for `term`, if any valid document contains it.
    pub fn list(&self, term: TermId) -> Option<&InvertedList> {
        self.lists.get(self.live.key(term)?)
    }

    /// Number of valid documents.
    pub fn num_documents(&self) -> usize {
        self.store.len()
    }

    /// Number of non-empty inverted lists (distinct terms in the window).
    pub fn num_terms(&self) -> usize {
        self.lists.len()
    }

    /// Iterates over `(term, list)` pairs in key order — increasing term id
    /// on a full index, live-slot order on a term-filtered one.
    pub fn lists(&self) -> impl Iterator<Item = (TermId, &InvertedList)> {
        self.lists
            .iter()
            .map(|(key, list)| (self.live.term_of(key), list))
    }

    /// Audits the index's structural invariants, panicking with a
    /// description on violation:
    ///
    /// * every inverted list is non-empty (an emptied list's arena slot is
    ///   vacated on removal, never left behind) and internally well-formed
    ///   ([`crate::InvertedList`]'s own `check_invariants`);
    /// * every posting is an entry of a stored document — that document's
    ///   weight for the list's term — and no list holds more postings than
    ///   there are valid documents;
    /// * the live-term set's own invariants ([`LiveTerms::check_invariants`]),
    ///   and on a term-filtered index every list sits under the key of a
    ///   term that is live now — a recycled slot never inherits a list;
    /// * **complete lists**, on a term-filtered index: the lists hold as many
    ///   postings as the stored documents have live entries (one
    ///   [`LiveTerms::intersect`] per document). Postings are distinct and
    ///   each is a true one, so equal counts mean a term is live **iff** its
    ///   list holds exactly the window's postings for it.
    ///
    /// Driven per-op by the testkit lockstep runner under the
    /// `invariant-checks` feature (and in unit tests); not called on hot
    /// paths.
    pub fn check_invariants(&self) {
        let documents = self.store.len();
        self.live.check_invariants();
        for (key, list) in self.lists.iter() {
            let term = self.live.term_of(key);
            assert_eq!(
                self.live.key(term),
                Some(key),
                "a list is filed under key {key}, which no live term holds (last: {term})"
            );
            assert!(!list.is_empty(), "empty list for {term} was not vacated");
            assert!(
                list.len() <= documents,
                "list for {term} holds {} postings over a {documents}-document window",
                list.len()
            );
            list.check_invariants();
            for posting in list.iter() {
                let Some(doc) = self.store.get(posting.doc) else {
                    // cts-lint: allow(panic-in-hot-path, audit-only diagnostics, never on a hot path)
                    panic!(
                        "list for {term} references expired document {}",
                        posting.doc
                    );
                };
                assert!(
                    doc.composition.contains(term)
                        && doc.composition.impact(term) == posting.weight,
                    "list for {term} holds {} at a weight its composition list does not",
                    posting.doc
                );
            }
        }
        if self.is_term_filtered() {
            let mut live_entries = Vec::new();
            let expected: usize = self
                .store
                .iter()
                .map(|doc| {
                    self.live
                        .intersect(doc.composition.as_slice(), &mut live_entries);
                    live_entries.len()
                })
                .sum();
            assert_eq!(
                self.stats().postings,
                expected,
                "the lists do not hold exactly the live entries of the stored documents"
            );
        }
    }

    /// A point-in-time summary of the index shape.
    pub fn stats(&self) -> IndexStats {
        let mut total_postings = 0;
        let mut longest_list = 0;
        for list in self.lists.values() {
            total_postings += list.len();
            longest_list = longest_list.max(list.len());
        }
        IndexStats {
            documents: self.store.len(),
            terms: self.lists.len(),
            postings: total_postings,
            longest_list,
            live_terms: self.live.len(),
            list_slots: self.lists.slot_capacity(),
            tree_slots: 0,
            refcount_slots: self.live.slot_capacity(),
            register_postings_touched: self.register_postings_touched,
            register_entries_walked: self.register_entries_walked,
        }
    }
}

/// Point-in-time index statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexStats {
    /// Number of valid documents.
    pub documents: usize,
    /// Number of non-empty inverted lists.
    pub terms: usize,
    /// Total number of impact entries across all lists.
    pub postings: usize,
    /// Length of the longest inverted list.
    pub longest_list: usize,
    /// Number of terms at least one registered query references.
    pub live_terms: usize,
    /// Slots allocated by the list arena, occupied or not: vocabulary-sized
    /// on a full index, within twice the peak live-term count on a
    /// term-filtered one.
    pub list_slots: usize,
    /// Slots allocated by the owning engine's threshold-tree arena (same
    /// key space as the lists). 0 when a bare index reports.
    pub tree_slots: usize,
    /// Slots allocated by the term reference-count table (same key space).
    pub refcount_slots: usize,
    /// [`InvertedIndex::register_postings_touched`] so far.
    pub register_postings_touched: u64,
    /// [`InvertedIndex::register_entries_walked`] so far (0 on a shard).
    pub register_entries_walked: u64,
}

impl IndexStats {
    /// Average inverted-list length (0 when there are no terms).
    pub fn average_list_len(&self) -> f64 {
        if self.terms == 0 {
            0.0
        } else {
            self.postings as f64 / self.terms as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::Timestamp;
    use crate::posting::Posting;
    use cts_text::WeightedVector;

    fn doc(id: u64, terms: &[(u32, f64)]) -> Document {
        Document::new(
            DocId(id),
            Timestamp::from_millis(id),
            WeightedVector::from_weights(terms.iter().map(|&(t, w)| (TermId(t), w))),
        )
    }

    /// What `term`'s list must hold: a brute-force filter of the stored
    /// documents, in list order (decreasing weight, ties by document id).
    fn window_postings(idx: &InvertedIndex, term: TermId) -> Vec<Posting> {
        let mut postings: Vec<Posting> = idx
            .store()
            .iter()
            .filter(|doc| doc.composition.contains(term))
            .map(|doc| Posting::new(doc.id, doc.composition.impact(term)))
            .collect();
        postings.sort_unstable_by(|a, b| a.rank(b));
        postings
    }

    #[test]
    fn insert_populates_store_and_lists() {
        let mut idx = InvertedIndex::new();
        idx.insert_document(doc(1, &[(11, 0.08), (20, 0.06)]));
        idx.insert_document(doc(2, &[(20, 0.09)]));
        assert_eq!(idx.num_documents(), 2);
        assert_eq!(idx.num_terms(), 2);
        let l20 = idx.list(TermId(20)).unwrap();
        let order: Vec<u64> = l20.iter().map(|p| p.doc.0).collect();
        assert_eq!(order, vec![2, 1]);
        assert!(idx.list(TermId(99)).is_none());
    }

    #[test]
    fn remove_cleans_up_postings_and_empty_lists() {
        let mut idx = InvertedIndex::new();
        idx.insert_document(doc(1, &[(11, 0.08), (20, 0.06)]));
        idx.insert_document(doc(2, &[(20, 0.09)]));
        let removed = idx.remove_document(DocId(1)).unwrap();
        assert_eq!(removed.id, DocId(1));
        assert_eq!(idx.num_documents(), 1);
        // Term 11 only appeared in document 1 → its list is dropped.
        assert!(idx.list(TermId(11)).is_none());
        assert_eq!(idx.list(TermId(20)).unwrap().len(), 1);
        assert!(idx.remove_document(DocId(1)).is_none());
    }

    #[test]
    fn removing_the_last_posting_restores_the_empty_arena_slot() {
        let mut idx = InvertedIndex::new();
        idx.insert_document(doc(1, &[(42, 0.5)]));
        assert_eq!(idx.num_terms(), 1);
        idx.remove_document(DocId(1)).unwrap();
        // The slot is vacated, not left as an empty list...
        assert!(idx.list(TermId(42)).is_none());
        assert_eq!(idx.num_terms(), 0);
        assert_eq!(idx.lists().count(), 0);
        // ...and a later arrival with the same term reclaims it.
        idx.insert_document(doc(2, &[(42, 0.7)]));
        assert_eq!(idx.num_terms(), 1);
        assert_eq!(idx.list(TermId(42)).unwrap().len(), 1);
    }

    #[test]
    fn stats_reflect_contents() {
        let mut idx = InvertedIndex::with_capacity(10, 4);
        idx.insert_document(doc(1, &[(1, 0.5), (2, 0.5)]));
        idx.insert_document(doc(2, &[(1, 0.4)]));
        let s = idx.stats();
        assert_eq!(s.documents, 2);
        assert_eq!(s.terms, 2);
        assert_eq!(s.postings, 3);
        assert_eq!(s.longest_list, 2);
        assert!((s.average_list_len() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_index_stats() {
        let idx = InvertedIndex::new();
        let s = idx.stats();
        assert_eq!(s, IndexStats::default());
        assert_eq!(s.average_list_len(), 0.0);
    }

    #[test]
    fn window_churn_keeps_index_consistent() {
        let mut idx = InvertedIndex::new();
        // Simulate a count-based window of 3 over 50 arrivals.
        for i in 0..50u64 {
            idx.insert_document(doc(i, &[((i % 7) as u32, 0.1 + (i % 5) as f64 * 0.1)]));
            if idx.num_documents() > 3 {
                let oldest = idx.store().oldest().unwrap().id;
                idx.remove_document(oldest).unwrap();
            }
        }
        assert_eq!(idx.num_documents(), 3);
        let stats = idx.stats();
        assert_eq!(stats.postings, 3);
        assert!(stats.terms <= 3);
    }

    #[test]
    fn filtered_insert_skips_lists_but_stores_the_document() {
        let mut idx = InvertedIndex::new();
        idx.insert_shared_filtered(Arc::new(doc(1, &[(1, 0.5), (2, 0.4)])), |t| t == TermId(1));
        assert_eq!(idx.num_documents(), 1);
        assert_eq!(idx.list(TermId(1)).unwrap().len(), 1);
        assert!(idx.list(TermId(2)).is_none());
        // The stored composition is complete, not the filtered projection.
        assert!(idx
            .store()
            .get(DocId(1))
            .unwrap()
            .composition
            .contains(TermId(2)));
        // Removal of a document whose terms were never indexed is a no-op on
        // the missing lists.
        idx.remove_document(DocId(1)).unwrap();
        assert_eq!(idx.num_terms(), 0);
    }

    #[test]
    fn a_duplicate_document_id_panics_before_any_list_is_touched() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut full = InvertedIndex::new();
        let mut filtered = InvertedIndex::term_filtered();
        filtered.acquire_terms([TermId(11), TermId(20)], &TermPostings::default());
        for idx in [&mut full, &mut filtered] {
            idx.insert_document(doc(1, &[(11, 0.08), (20, 0.06)]));
            idx.insert_document(doc(2, &[(20, 0.09)]));
            let before = idx.stats();
            let duplicate = Arc::new(doc(1, &[(11, 0.5), (20, 0.5), (30, 0.5)]));
            let mut scratch = Vec::new();
            for attempt in 0..3 {
                let duplicate = Arc::clone(&duplicate);
                let refused = catch_unwind(AssertUnwindSafe(|| match attempt {
                    0 => idx.insert_shared(duplicate),
                    1 => idx.insert_shared_filtered(duplicate, |_| true),
                    _ => idx.insert_arrival(&duplicate, &mut scratch),
                }));
                assert!(refused.is_err(), "attempt {attempt} filed a duplicate id");
                idx.check_invariants();
                assert_eq!(idx.stats(), before);
                // The stored document is still the first one.
                assert_eq!(idx.store().get(DocId(1)).unwrap().composition.len(), 2);
            }
        }
    }

    #[test]
    fn a_term_filtered_index_files_live_terms_under_recycled_slots() {
        let mut full = InvertedIndex::new();
        let mut shadow = InvertedIndex::term_filtered();
        assert!(shadow.is_term_filtered() && !full.is_term_filtered());
        let mut entries = Vec::new();
        let arrive = |full: &mut InvertedIndex, shadow: &mut InvertedIndex, d: Document| {
            let d = Arc::new(d);
            full.insert_shared(Arc::clone(&d));
            shadow.insert_arrival(&d, &mut Vec::new());
        };
        arrive(&mut full, &mut shadow, doc(1, &[(7, 0.3), (90_000, 0.4)]));
        assert_eq!(shadow.stats().postings, 0, "no term is live yet");
        // Going live backfills; the slot is compact whatever the term id.
        shadow.acquire_terms(
            [TermId(90_000), TermId(90_000), TermId(5)],
            &TermPostings::default(),
        );
        assert_eq!(shadow.live_terms().key(TermId(90_000)), Some(0));
        assert_eq!(shadow.list(TermId(90_000)).unwrap().len(), 1);
        arrive(
            &mut full,
            &mut shadow,
            doc(2, &[(5, 0.2), (7, 0.9), (90_000, 0.1)]),
        );
        assert_eq!(shadow.stats().postings, 3);
        // One of two references goes: still live. The second takes the list.
        assert!(!shadow.release_term(TermId(90_000)));
        assert!(shadow.release_term(TermId(90_000)));
        assert!(shadow.list(TermId(90_000)).is_none());
        // Term 7 inherits the slot, and a list rebuilt from the store.
        shadow.acquire_terms([TermId(7)], &TermPostings::default());
        assert_eq!(shadow.live_terms().key(TermId(7)), Some(0));
        for term in [5, 7] {
            let expected: Vec<_> = full.list(TermId(term)).unwrap().iter().collect();
            let actual: Vec<_> = shadow.list(TermId(term)).unwrap().iter().collect();
            assert_eq!(actual, expected);
        }
        // Expiry re-intersects with the live set as it is now.
        let removed = shadow.remove_expired(DocId(1), &mut entries).unwrap();
        assert_eq!(removed.composition.len(), 2);
        assert_eq!(entries.len(), 1, "only term 7 of d1 is live");
        assert_eq!(shadow.list(TermId(7)).unwrap().len(), 1);
        shadow.check_invariants();
        let stats = shadow.stats();
        assert_eq!((stats.live_terms, stats.postings), (2, 2));
        assert!(stats.list_slots < 16 && stats.refcount_slots < 16);
    }

    #[test]
    fn backfill_rebuilds_a_list_in_arrival_order() {
        let mut full = InvertedIndex::new();
        let mut shadow = InvertedIndex::term_filtered();
        let docs = [
            doc(1, &[(7, 0.30), (8, 0.10)]),
            doc(2, &[(7, 0.50)]),
            doc(3, &[(9, 0.20)]),
            doc(4, &[(7, 0.30)]), // tie with d1 on term 7
        ];
        for d in docs {
            full.insert_document(d.clone());
            shadow.insert_document(d);
        }
        assert!(shadow.list(TermId(7)).is_none());
        // Terms with no postings in the window backfill to nothing.
        shadow.acquire_terms([TermId(7), TermId(42)], &TermPostings::default());
        assert_eq!(shadow.register_postings_touched(), 3);
        let reference: Vec<_> = full.list(TermId(7)).unwrap().iter().collect();
        let rebuilt: Vec<_> = shadow.list(TermId(7)).unwrap().iter().collect();
        assert_eq!(reference, rebuilt);
        assert!(shadow.list(TermId(42)).is_none());
        // A second reference on a live term files nothing: the list is
        // already complete.
        shadow.acquire_terms([TermId(7)], &TermPostings::default());
        assert_eq!(shadow.register_postings_touched(), 3);
        shadow.check_invariants();
    }

    #[test]
    #[should_panic(expected = "do not hold exactly the live entries")]
    fn the_audit_reports_a_live_term_whose_list_is_incomplete() {
        let mut idx = InvertedIndex::term_filtered();
        idx.acquire_terms([TermId(7)], &TermPostings::default());
        idx.insert_document(doc(1, &[(7, 0.3)]));
        idx.check_invariants();
        // A caller-side filter over an index that owns its filter: term 7 is
        // live and this document's posting for it is never filed.
        idx.insert_shared_filtered(Arc::new(doc(2, &[(7, 0.5)])), |_| false);
        idx.check_invariants();
    }

    #[test]
    fn supplied_postings_equal_walked_postings_equal_a_brute_force_filter() {
        use crate::window_terms::WindowTerms;
        // Chunks of 8 over 29 documents, then 3 expire: the term set has hits
        // in the partly expired front chunk, in sealed chunks and in the
        // unsealed tail. `built` answers from directories, `walked` never
        // builds one, `own` walks its own store.
        let terms: Vec<TermId> = (0..12).map(TermId).collect();
        let mut built = WindowTerms::with_shape(8, usize::MAX);
        let mut walked = WindowTerms::with_shape(8, 0);
        let mut supplied = InvertedIndex::term_filtered();
        let mut own = InvertedIndex::term_filtered();
        for i in 0..29u64 {
            let t = (i % 10) as u32;
            let d = Arc::new(doc(
                i,
                &[(t, 0.1 + (i % 3) as f64 * 0.2), ((t + 5) % 10, 0.4)],
            ));
            for window in [&mut built, &mut walked] {
                window.push(Arc::clone(&d));
            }
            for idx in [&mut supplied, &mut own] {
                idx.insert_shared(Arc::clone(&d));
            }
        }
        built.postings(terms.iter().copied());
        assert_eq!(built.stats().directories, 3);
        for i in 0..3 {
            built.pop_front();
            walked.pop_front();
            supplied.remove_document(DocId(i));
            own.remove_document(DocId(i));
        }
        let walked_before = built.stats().entries_walked;
        let from_directories = built.postings(terms.iter().copied());
        assert_eq!(from_directories, walked.postings(terms.iter().copied()));
        // Over built directories only the five-document tail is walked —
        // fewer entries than one chunk holds.
        assert_eq!(built.stats().entries_walked - walked_before, 5 * 2);
        supplied.acquire_terms(terms.iter().copied(), &from_directories);
        own.acquire_terms(terms.iter().copied(), &TermPostings::default());
        assert_eq!(supplied, {
            // Equal but for who read the window.
            let mut expected = own.clone();
            expected.register_entries_walked = 0;
            expected
        });
        assert_eq!(own.register_entries_walked(), 26 * 2);
        assert_eq!(own.register_postings_touched(), 26 * 2);
        assert_eq!(supplied.register_postings_touched(), 26 * 2);
        for term in &terms {
            let filed: Vec<_> = supplied
                .list(*term)
                .map(|l| l.iter().collect())
                .unwrap_or_default();
            assert_eq!(
                filed,
                window_postings(&own, *term),
                "lists diverge for {term}"
            );
        }
        supplied.check_invariants();
        own.check_invariants();
    }

    #[test]
    fn partly_supplied_postings_are_completed_by_one_walk() {
        let mut window = crate::window_terms::WindowTerms::new();
        let mut idx = InvertedIndex::term_filtered();
        for i in 0..6u64 {
            let d = Arc::new(doc(i, &[(1, 0.5), (2, 0.1 + i as f64 * 0.1), (3, 0.2)]));
            window.push(Arc::clone(&d));
            idx.insert_shared(d);
        }
        // Terms 1 and 9 are supplied (9 occurs nowhere), 2 is not; 3 is
        // supplied but not asked for.
        let supplied = window.postings([TermId(1), TermId(9), TermId(3)]);
        idx.acquire_terms([TermId(2), TermId(1), TermId(9), TermId(2)], &supplied);
        assert_eq!(idx.register_entries_walked(), 6 * 3, "one walk for term 2");
        assert_eq!(idx.register_postings_touched(), 12);
        for term in [1, 2] {
            let filed: Vec<_> = idx.list(TermId(term)).unwrap().iter().collect();
            assert_eq!(filed, window_postings(&idx, TermId(term)));
        }
        assert!(idx.list(TermId(9)).is_none() && idx.list(TermId(3)).is_none());
        idx.check_invariants();
    }

    #[test]
    fn lists_iterator_covers_all_terms() {
        let mut idx = InvertedIndex::new();
        idx.insert_document(doc(1, &[(1, 0.5), (2, 0.4), (3, 0.3)]));
        let terms: Vec<u32> = idx.lists().map(|(t, _)| t.0).collect();
        assert_eq!(terms, vec![1, 2, 3]);
    }
}
