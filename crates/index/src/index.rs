//! The streaming inverted index.
//!
//! [`TermLists`] is the paper's inverted lists without the documents: one
//! impact-ordered [`InvertedList`] per term, each posting naming its
//! document by arrival sequence number in the [`WindowTerms`] that owns the
//! documents (Figure 1 puts one FIFO list of valid documents under all the
//! lists). Arrival files one impact entry per composition-list term;
//! expiration moves the front past the document, which kills its postings
//! where they stand: each list counts its dead, compacts once they outnumber
//! a quarter of the live, and is freed when none is left live. Every read
//! goes through [`TermLists::live_postings`], which skips the dead. The lists
//! hold no document and no front: what needs them takes them as arguments.
//!
//! Lists live in a [`DenseArena`] keyed through the [`LiveTerms`] — the terms
//! the owner's registered queries use, which also fix the arena's key space
//! (see [`crate::arena`]). Full lists ([`TermLists::new`]) are keyed by the
//! interned [`TermId`], so the per-term lookup for *every* term of *every*
//! arriving and expiring document is one bounds-checked array index.
//! **Term-filtered lists** ([`TermLists::term_filtered`]) file entries only
//! for live terms, under compact live-slot keys, so work and memory follow
//! the terms the queries reference, not the vocabulary. A document is cut
//! down to its live entries **once** per arrival and expiry, and filing, the
//! threshold probe and scoring walk that short slice. A term a registration
//! brings live gets its list from postings the window's owner resolved
//! ([`TermLists::acquire_terms`]); the last release retires it. So a term has
//! two states and no third: no query uses it and it has no list, or it is
//! live and its list holds **exactly** the window's postings for it — which
//! lets expiry re-intersect a document with the live set as it is *now*, and
//! is what [`TermLists::check_invariants`] audits.
//!
//! [`InvertedIndex`] is full lists plus the [`WindowTerms`] they are filed
//! from: a stand-alone index for callers that apply a window policy of their
//! own (the `ctsbench` replica pass, `index_micro`).

#![deny(clippy::disallowed_types)]

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use cts_text::{TermId, Weight, WeightedTerm};

use crate::arena::{DenseArena, LiveTerms};
use crate::document::{DocId, Document};
use crate::posting::Posting;
use crate::window_terms::{TermPostings, WindowTerms};
use crate::InvertedList;

/// The inverted lists of one set of queries, over documents someone else
/// holds — see the module documentation.
#[derive(Debug, Clone, Default)]
pub struct TermLists {
    /// The terms the owner's queries reference, and the key space of
    /// `lists`: term ids on full lists, live slots on term-filtered ones.
    live: LiveTerms,
    lists: DenseArena<InvertedList>,
    /// Impact entries filed by registration-path backfills (satellite
    /// regression counter: must scale with the probed lists, never with the
    /// window × registration count product of the old eager path).
    register_postings_touched: u64,
}

impl TermLists {
    /// Empty full lists: every composition term is filed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty **term-filtered** lists: postings are filed only for live terms
    /// — those holding a reference taken through
    /// [`TermLists::acquire_terms`] — and lists are keyed by compact live
    /// slots, so the arena is sized by the live terms rather than by the
    /// vocabulary.
    pub fn term_filtered() -> Self {
        Self {
            live: LiveTerms::live_slots(),
            ..Self::default()
        }
    }

    /// Whether these lists file live terms only.
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
    /// terms, repeats included). On term-filtered lists the terms this brings
    /// live get their lists filed right away from `supplied`, the postings
    /// the window's owner resolved for the window as it is now, so the caller
    /// may probe every one of them. This is the only way a list comes to
    /// exist other than by an arrival.
    ///
    /// # Panics
    ///
    /// Panics if `supplied` does not cover a term this brings live.
    pub fn acquire_terms(
        &mut self,
        terms: impl IntoIterator<Item = TermId>,
        supplied: &TermPostings,
    ) {
        // `acquire` is true exactly once per distinct newly-live term, and
        // the last release retired any earlier list of it.
        let newly_live: Vec<TermId> = terms
            .into_iter()
            .filter(|term| self.live.acquire(*term))
            .collect();
        if !self.is_term_filtered() {
            return;
        }
        for term in newly_live {
            #[expect(
                clippy::panic,
                reason = "the owner resolves every term it does not hold live; a gap would leave a live list incomplete"
            )]
            let (Some(key), Some(postings)) = (self.live.key(term), supplied.get(term)) else {
                panic!("the postings of {term}, which this call brings live, were not supplied");
            };
            if postings.is_empty() {
                continue;
            }
            let list = self.lists.get_or_default(key);
            for (seq, weight) in postings {
                list.insert(*seq, *weight);
            }
            self.register_postings_touched += postings.len() as u64;
        }
    }

    /// Drops one reference on `term`; `true` when it was the last.
    /// Term-filtered lists then retire the term's list and recycle its key —
    /// the caller must already have let go of whatever *it* files under
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

    /// The arrival path: cuts `doc`, which arrived under sequence number
    /// `seq`, down to its live entries — left in `live_entries` for the
    /// caller's threshold probe and scoring — and files them. Full lists
    /// file the whole composition list instead (they cover every term, live
    /// or not); term-filtered ones walk only the slice, typically ~5 entries
    /// of ~230.
    pub fn insert_arrival(
        &mut self,
        seq: u64,
        doc: &Document,
        live_entries: &mut Vec<WeightedTerm>,
    ) {
        let entries = self.cut(doc, live_entries);
        self.file(seq, entries, |_| true);
    }

    /// The expiry path, once the caller's front has moved past `doc` to
    /// `front`: cuts `doc` down to the entries live **now** — left in
    /// `live_entries` for the caller's threshold probe — and each of them
    /// that has a list counts one more dead posting and compacts if due; a
    /// list left with no live posting is vacated. No list is searched or
    /// shifted. The live set may have changed since the document arrived; a
    /// list exists exactly for the live terms, so a term that went live later
    /// was backfilled with this document's entry, and one that died took its
    /// list along.
    pub fn expire(&mut self, doc: &Document, front: u64, live_entries: &mut Vec<WeightedTerm>) {
        let entries = self.cut(doc, live_entries);
        self.kill(entries, front);
    }

    /// Replaces `live_entries` with `doc`'s live entries and returns the
    /// entries these lists keep postings for: those, if term-filtered, the
    /// whole composition list if full.
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

    /// The one filing loop: an impact entry under `seq` for each of
    /// `entries` that `allow` accepts and that has a key.
    fn file(&mut self, seq: u64, entries: &[WeightedTerm], mut allow: impl FnMut(TermId) -> bool) {
        for entry in entries {
            if !allow(entry.term) {
                continue;
            }
            if let Some(key) = self.live.key(entry.term) {
                self.lists.get_or_default(key).insert(seq, entry.weight);
            }
        }
    }

    /// The one expiry loop over an expired document's `entries`.
    fn kill(&mut self, entries: &[WeightedTerm], front: u64) {
        for entry in entries {
            let Some(key) = self.live.key(entry.term) else {
                continue;
            };
            let emptied = self.lists.get_mut(key).is_some_and(|list| {
                list.expire(front);
                list.is_empty()
            });
            if emptied {
                self.lists.remove(key);
            }
        }
    }

    /// The inverted list for `term`, if any valid document contains it. Its
    /// reads return dead postings too; [`TermLists::live_postings`] is the
    /// read that skips them.
    pub fn list(&self, term: TermId) -> Option<&InvertedList> {
        self.lists.get(self.live.key(term)?)
    }

    /// The postings of `term`'s list live at `front` (numbered `front` or
    /// later) with weight **at or below** `weight`, in list order
    /// (decreasing weight, ties by arrival) — every live posting at
    /// `Weight::new(f64::INFINITY)`. The one way the engine reads a list:
    /// its threshold descent opens one such cursor per query term at the
    /// term's local threshold, and its audit checks the postings above each
    /// threshold. [`WindowTerms::id_at`] and [`WindowTerms::doc_at`] read a
    /// posting's document by one index each.
    pub fn live_postings(
        &self,
        term: TermId,
        weight: Weight,
        front: u64,
    ) -> impl Iterator<Item = Posting> + '_ {
        self.list(term)
            .into_iter()
            .flat_map(move |list| list.iter_at_or_below(weight))
            .filter(move |posting| posting.seq >= front)
    }

    /// Iterates over `(term, list)` pairs in key order — increasing term id
    /// on full lists, live-slot order on term-filtered ones.
    pub fn lists(&self) -> impl Iterator<Item = (TermId, &InvertedList)> {
        self.lists
            .iter()
            .map(|(key, list)| (self.live.term_of(key), list))
    }

    /// Audits the lists against `window`, the documents their sequence
    /// numbers index (all of its documents valid), panicking with a
    /// description on violation:
    ///
    /// * every list holds a live posting (a list whose last live posting
    ///   dies is vacated, never left behind) and is internally well-formed
    ///   ([`crate::InvertedList`]'s own `check_invariants`): its dead
    ///   postings are exactly those below the window's front, and no more
    ///   than a quarter of its live ones, plus one;
    /// * every live posting names the document at its sequence number, at
    ///   that document's weight for the list's term, and no list holds more
    ///   live postings than there are valid documents;
    /// * the live-term set's own invariants ([`LiveTerms::check_invariants`]),
    ///   and on term-filtered lists every list sits under the key of a term
    ///   that is live now — a recycled slot never inherits a list;
    /// * **complete lists**, when term-filtered: the lists hold as many
    ///   postings as the valid documents have live entries (one
    ///   [`LiveTerms::intersect`] per document). Postings are distinct and
    ///   each is a true one, so equal counts mean a term is live **iff** its
    ///   list holds exactly the window's postings for it.
    ///
    /// Driven per-op by `cts-reference`'s lockstep runner under its
    /// `invariant-checks` feature (and in unit tests); not called on hot
    /// paths.
    pub fn check_invariants(&self, window: &WindowTerms) {
        let (documents, front) = (window.len(), window.front_seq());
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
                "list for {term} holds {} live postings over a {documents}-document window",
                list.len()
            );
            list.check_invariants(front);
            for posting in list.iter().filter(|posting| posting.seq >= front) {
                assert!(
                    posting.seq < front + documents as u64,
                    "list for {term} holds sequence number {}, past the window",
                    posting.seq
                );
                let doc = window.doc_at(posting.seq);
                assert!(
                    doc.composition.contains(term)
                        && doc.composition.impact(term) == posting.weight,
                    "list for {term} holds sequence number {} ({}) at a weight its composition \
                     list does not",
                    posting.seq,
                    doc.id
                );
            }
        }
        if self.is_term_filtered() {
            let mut live_entries = Vec::new();
            let expected: usize = window
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
                "the lists do not hold exactly the live entries of the valid documents"
            );
        }
    }

    /// A point-in-time summary of the lists' shape; the fields that describe
    /// the documents and the window (`documents`, `register_entries_walked`,
    /// `directory_bytes`) are the owner's to fill and read 0 here.
    pub fn stats(&self) -> IndexStats {
        let (mut postings, mut dead_postings) = (0, 0);
        let (mut longest_list, mut list_bytes) = (0, 0);
        for list in self.lists.values() {
            postings += list.len();
            dead_postings += list.dead();
            longest_list = longest_list.max(list.len());
            list_bytes += list.heap_bytes();
        }
        IndexStats {
            terms: self.lists.len(),
            postings,
            dead_postings,
            list_bytes,
            longest_list,
            live_terms: self.live.len(),
            list_slots: self.lists.slot_capacity(),
            refcount_slots: self.live.slot_capacity(),
            register_postings_touched: self.register_postings_touched,
            ..IndexStats::default()
        }
    }
}

/// A stand-alone full inverted index: the valid documents in a
/// [`WindowTerms`], and full [`TermLists`] filed from them.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    window: WindowTerms,
    lists: TermLists,
}

impl InvertedIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty index with list room for roughly `docs` valid
    /// documents of `terms_per_doc` distinct terms each.
    pub fn with_capacity(docs: usize, terms_per_doc: usize) -> Self {
        let lists = DenseArena::with_capacity(docs.saturating_mul(terms_per_doc) / 4);
        Self {
            lists: TermLists {
                lists,
                ..TermLists::default()
            },
            ..Self::default()
        }
    }

    /// Inserts an arriving document: appends it to the window and adds one
    /// impact entry per composition-list term.
    ///
    /// # Panics
    ///
    /// Panics if a document with `doc`'s id is already valid — before any
    /// list is touched, so the index the unwind leaves behind is intact.
    pub fn insert_document(&mut self, doc: Document) {
        self.insert_shared_filtered(Arc::new(doc), |_| true);
    }

    /// Inserts an already-shared arriving document, filing impact entries
    /// only for composition terms accepted by `allow`; the document itself is
    /// always stored in full. For a caller that keeps a term filter of its
    /// own (the `ctsbench` replica pass). The filter must be the same for
    /// every document: expiry counts a dead posting in every list of the
    /// expiring document's terms, so a term accepted for some documents and
    /// refused for others would miscount.
    ///
    /// # Panics
    ///
    /// As [`InvertedIndex::insert_document`].
    pub fn insert_shared_filtered(
        &mut self,
        doc: Arc<Document>,
        allow: impl FnMut(TermId) -> bool,
    ) {
        let seq = self.window.push(Arc::clone(&doc));
        self.lists.file(seq, doc.composition.as_slice(), allow);
    }

    /// Removes the window's **oldest** document, if its id is `id`: kills
    /// its impact entries as expiry does and returns the (shared) document.
    /// Returns `None` and changes nothing for any other id — a document
    /// leaves the window in arrival order or not at all. Composition terms
    /// that were never indexed simply have no list and are skipped.
    pub fn remove_document(&mut self, id: DocId) -> Option<Arc<Document>> {
        self.window.iter().next().filter(|oldest| oldest.id == id)?;
        let doc = self.window.pop_front()?;
        self.lists
            .kill(doc.composition.as_slice(), self.window.front_seq());
        Some(doc)
    }

    /// Audits the window's own invariants ([`WindowTerms::check_invariants`])
    /// and the lists' against it ([`TermLists::check_invariants`]).
    pub fn check_invariants(&self) {
        self.window.check_invariants();
        self.lists.check_invariants(&self.window);
    }

    /// A point-in-time summary of the index shape.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            documents: self.window.len(),
            ..self.lists.stats()
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
    /// Total number of live impact entries across all lists.
    pub postings: usize,
    /// Dead impact entries the lists still hold — their documents have left
    /// the window — awaiting compaction (at most a quarter of each list's
    /// live entries, plus one).
    pub dead_postings: usize,
    /// Heap bytes of the lists: every segment's capacity at 16 bytes a
    /// posting, plus the segment directories.
    pub list_bytes: usize,
    /// Live entries of the longest inverted list.
    pub longest_list: usize,
    /// Number of terms at least one registered query references.
    pub live_terms: usize,
    /// Slots allocated by the list arena, occupied or not: vocabulary-sized
    /// on full lists, within twice the peak live-term count on term-filtered
    /// ones.
    pub list_slots: usize,
    /// Slots allocated by the owning engine's threshold-tree arena (same
    /// key space as the lists). 0 when bare lists report.
    pub tree_slots: usize,
    /// Slots allocated by the term reference-count table (same key space).
    pub refcount_slots: usize,
    /// Impact entries filed by registration-path backfills so far
    /// (monotone). The registration-cost regression tests pin this to the
    /// size of the lists actually probed: re-registering shared terms adds
    /// nothing, and growing the window with documents that do not contain a
    /// query's terms does not grow it.
    pub register_postings_touched: u64,
    /// Composition entries the owner's window walked to resolve postings
    /// for registrations, so far (monotone;
    /// [`crate::WindowTermsStats::entries_walked`]). A call adds the entries
    /// of the chunks it found without a directory, whatever the number of
    /// terms. 0 on a shard, whose coordinator resolves for it, and on a full
    /// index, which never resolves any.
    pub register_entries_walked: u64,
    /// Heap bytes of the term directories the owner's window has built to
    /// resolve postings (0 on a shard and on a full index).
    pub directory_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::Timestamp;
    use crate::window::SlidingWindow;
    use cts_text::WeightedVector;

    fn doc(id: u64, terms: &[(u32, f64)]) -> Document {
        Document::new(
            DocId(id),
            Timestamp::from_millis(id),
            WeightedVector::from_weights(terms.iter().map(|&(t, w)| (TermId(t), w))),
        )
    }

    /// Term-filtered lists over a window of their own, composed as an
    /// engine composes them: the window numbers and holds the documents, its
    /// owner resolves the postings of the terms a call brings live, and the
    /// lists file them.
    struct Shadow {
        window: WindowTerms,
        lists: TermLists,
        entries: Vec<WeightedTerm>,
    }

    impl Shadow {
        fn new() -> Self {
            Shadow {
                window: WindowTerms::new(),
                lists: TermLists::term_filtered(),
                entries: Vec::new(),
            }
        }

        fn insert(&mut self, doc: Document) {
            let doc = Arc::new(doc);
            let seq = self.window.push(Arc::clone(&doc));
            self.lists.insert_arrival(seq, &doc, &mut self.entries);
        }

        /// Takes references on `terms`, resolving on the window the ones
        /// not live yet.
        fn acquire(&mut self, terms: &[TermId]) {
            let live = self.lists.live_terms();
            let fresh = terms.iter().filter(|term| !live.contains(**term));
            let postings = self.window.postings(fresh.copied().collect::<Vec<_>>());
            self.lists.acquire_terms(terms.iter().copied(), &postings);
        }

        /// Expires `popped`, which the window just popped off its front.
        fn expire(&mut self, popped: Option<Arc<Document>>) -> Option<Arc<Document>> {
            let doc = popped?;
            let front = self.window.front_seq();
            self.lists.expire(&doc, front, &mut self.entries);
            Some(doc)
        }

        fn pop_expired(&mut self, policy: SlidingWindow, now: Timestamp) -> Option<Arc<Document>> {
            let popped = self.window.pop_expired(policy, now);
            self.expire(popped)
        }

        fn remove_oldest(&mut self) -> Option<Arc<Document>> {
            let popped = self.window.pop_front();
            self.expire(popped)
        }

        fn check_invariants(&self) {
            self.window.check_invariants();
            self.lists.check_invariants(&self.window);
        }
    }

    /// What `term`'s list must hold live: a brute-force filter of the valid
    /// documents, in list order (decreasing weight, ties by arrival).
    fn window_postings(window: &WindowTerms, term: TermId) -> Vec<Posting> {
        let front = window.front_seq();
        let mut postings: Vec<Posting> = (front..)
            .zip(window.iter())
            .filter(|(_, doc)| doc.composition.contains(term))
            .map(|(seq, doc)| Posting::new(seq, doc.composition.impact(term)))
            .collect();
        postings.sort_unstable_by(|a, b| a.rank(b));
        postings
    }

    /// The ids of `term`'s live postings, in list order.
    fn live_ids(idx: &InvertedIndex, term: TermId) -> Vec<u64> {
        let (all, front) = (Weight::new(f64::INFINITY), idx.window.front_seq());
        idx.lists
            .live_postings(term, all, front)
            .map(|p| idx.window.id_at(p.seq).0)
            .collect()
    }

    #[test]
    fn insert_populates_store_and_lists() {
        let mut idx = InvertedIndex::new();
        idx.insert_document(doc(1, &[(11, 0.08), (20, 0.06)]));
        idx.insert_document(doc(2, &[(20, 0.09)]));
        assert_eq!(idx.window.len(), 2);
        assert_eq!(idx.stats().terms, 2);
        assert_eq!(live_ids(&idx, TermId(20)), vec![2, 1]);
        assert!(idx.lists.list(TermId(99)).is_none());
        assert_eq!(live_ids(&idx, TermId(99)), Vec::<u64>::new());
    }

    #[test]
    fn remove_cleans_up_postings_and_empty_lists() {
        let mut idx = InvertedIndex::new();
        idx.insert_document(doc(1, &[(11, 0.08), (20, 0.06)]));
        idx.insert_document(doc(2, &[(20, 0.09)]));
        let removed = idx.remove_document(DocId(1)).unwrap();
        assert_eq!(removed.id, DocId(1));
        assert_eq!(idx.window.len(), 1);
        // Term 11 only appeared in document 1 → its list is dropped.
        assert!(idx.lists.list(TermId(11)).is_none());
        assert_eq!(idx.lists.list(TermId(20)).unwrap().len(), 1);
        assert_eq!(live_ids(&idx, TermId(20)), vec![2]);
        assert_eq!(
            idx.stats().dead_postings,
            0,
            "1 dead beside 1 live compacts"
        );
        idx.check_invariants();
        assert!(idx.remove_document(DocId(1)).is_none());
    }

    /// The index refuses every id but the oldest; term-filtered lists,
    /// which expire only what their owner pops off the front, stay complete
    /// through the same pops.
    #[test]
    fn removing_anything_but_the_oldest_document_changes_nothing() {
        let docs = || {
            [
                doc(1, &[(11, 0.08), (20, 0.06)]),
                doc(2, &[(20, 0.09)]),
                doc(3, &[(11, 0.5)]),
            ]
        };
        let mut idx = InvertedIndex::new();
        let mut shadow = Shadow::new();
        shadow.acquire(&[TermId(20)]);
        for d in docs() {
            idx.insert_document(d.clone());
            shadow.insert(d);
        }
        let before = idx.stats();
        for id in [2, 3, 99] {
            assert!(idx.remove_document(DocId(id)).is_none(), "d{id}");
            idx.check_invariants();
            assert_eq!(idx.stats(), before, "d{id}");
        }
        assert_eq!(idx.remove_document(DocId(1)).map(|d| d.id), Some(DocId(1)));
        assert_eq!(idx.remove_document(DocId(2)).map(|d| d.id), Some(DocId(2)));
        idx.check_invariants();
        assert_eq!(idx.window.len(), 1);
        for expected in [1, 2] {
            assert_eq!(shadow.remove_oldest().map(|d| d.id), Some(DocId(expected)));
            shadow.check_invariants();
        }
        assert_eq!(shadow.window.len(), 1);
        assert!(shadow.lists.list(TermId(20)).is_none());
    }

    #[test]
    fn removing_the_last_posting_restores_the_empty_arena_slot() {
        let mut idx = InvertedIndex::new();
        idx.insert_document(doc(1, &[(42, 0.5)]));
        assert_eq!(idx.stats().terms, 1);
        idx.remove_document(DocId(1)).unwrap();
        // The slot is vacated, not left as an empty list...
        assert!(idx.lists.list(TermId(42)).is_none());
        assert_eq!(idx.stats().terms, 0);
        assert_eq!(idx.lists.lists().count(), 0);
        // ...and a later arrival with the same term reclaims it.
        idx.insert_document(doc(2, &[(42, 0.7)]));
        assert_eq!(idx.stats().terms, 1);
        assert_eq!(idx.lists.list(TermId(42)).unwrap().len(), 1);
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
    }

    #[test]
    fn empty_index_stats() {
        let idx = InvertedIndex::new();
        let s = idx.stats();
        assert_eq!(s, IndexStats::default());
    }

    #[test]
    fn window_churn_keeps_index_consistent() {
        let mut idx = InvertedIndex::new();
        // Simulate a count-based window of 3 over 50 arrivals.
        for i in 0..50u64 {
            idx.insert_document(doc(i, &[((i % 7) as u32, 0.1 + (i % 5) as f64 * 0.1)]));
            if idx.window.len() > 3 {
                idx.remove_document(DocId(i - 3)).unwrap();
            }
        }
        assert_eq!(idx.window.len(), 3);
        let stats = idx.stats();
        assert_eq!(stats.postings, 3);
        assert!(stats.terms <= 3);
        idx.check_invariants();
    }

    #[test]
    fn expiry_kills_postings_in_place_and_compacts_past_a_quarter() {
        // Term 1 in every document of a 12-document window: each expiry
        // leaves one dead posting behind, until 4 dead outnumber a quarter
        // of the 12 live and one pass drops them.
        let mut idx = InvertedIndex::new();
        let mut dead = Vec::new();
        for i in 0..39u64 {
            idx.insert_document(doc(i, &[(1, 0.1 + (i % 3) as f64 * 0.1)]));
            if i >= 12 {
                assert!(idx.remove_document(DocId(i - 12)).is_some());
            }
            dead.push(idx.stats().dead_postings);
            idx.check_invariants();
            let ids: Vec<u64> = live_ids(&idx, TermId(1));
            let mut expected: Vec<u64> = (i.saturating_sub(11)..=i).collect();
            expected.sort_by_key(|d| (std::cmp::Reverse(d % 3), *d));
            assert_eq!(ids, expected, "after arrival {i}");
        }
        assert_eq!(&dead[12..22], [1, 2, 3, 0, 1, 2, 3, 0, 1, 2]);
        let stats = idx.stats();
        assert_eq!((stats.postings, stats.dead_postings), (12, 3));
        assert_eq!(idx.lists.list(TermId(1)).unwrap().iter().count(), 15);
        assert!(stats.list_bytes >= 15 * std::mem::size_of::<Posting>());
    }

    #[test]
    fn filtered_insert_skips_lists_but_stores_the_document() {
        let mut idx = InvertedIndex::new();
        idx.insert_shared_filtered(Arc::new(doc(1, &[(1, 0.5), (2, 0.4)])), |t| t == TermId(1));
        assert_eq!(idx.window.len(), 1);
        assert_eq!(idx.lists.list(TermId(1)).unwrap().len(), 1);
        assert!(idx.lists.list(TermId(2)).is_none());
        // The stored composition is complete, not the filtered projection.
        let documents = &idx.window;
        assert!(documents
            .doc_at(documents.front_seq())
            .composition
            .contains(TermId(2)));
        // Removal of a document whose terms were never indexed is a no-op on
        // the missing lists.
        idx.remove_document(DocId(1)).unwrap();
        assert_eq!(idx.stats().terms, 0);
    }

    #[test]
    fn a_duplicate_document_id_panics_before_any_list_is_touched() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let first = [doc(1, &[(11, 0.08), (20, 0.06)]), doc(2, &[(20, 0.09)])];
        let duplicate = Arc::new(doc(1, &[(11, 0.5), (20, 0.5), (30, 0.5)]));
        let mut idx = InvertedIndex::new();
        let mut shadow = Shadow::new();
        shadow.acquire(&[TermId(11), TermId(20)]);
        for d in first {
            idx.insert_document(d.clone());
            shadow.insert(d);
        }
        let (before, shadow_before) = (idx.stats(), shadow.lists.stats());
        for attempt in 0..3 {
            let duplicate = Arc::clone(&duplicate);
            let refused = catch_unwind(AssertUnwindSafe(|| match attempt {
                0 => idx.insert_document(Document::clone(&duplicate)),
                1 => idx.insert_shared_filtered(duplicate, |_| true),
                _ => shadow.insert(Document::clone(&duplicate)),
            }));
            assert!(refused.is_err(), "attempt {attempt} filed a duplicate id");
            idx.check_invariants();
            shadow.check_invariants();
            assert_eq!(idx.stats(), before);
            assert_eq!(shadow.lists.stats(), shadow_before);
            // The stored document is still the first one.
            for documents in [&idx.window, &shadow.window] {
                let first = documents.doc_at(documents.front_seq());
                assert_eq!((first.id, first.composition.len()), (DocId(1), 2));
            }
        }
    }

    #[test]
    fn a_term_filtered_index_files_live_terms_under_recycled_slots() {
        let mut full = InvertedIndex::new();
        let mut shadow = Shadow::new();
        let full_lists = TermLists::new();
        assert!(shadow.lists.is_term_filtered() && !full_lists.is_term_filtered());
        let arrive = |full: &mut InvertedIndex, shadow: &mut Shadow, d: Document| {
            full.insert_shared_filtered(Arc::new(d.clone()), |_| true);
            shadow.insert(d);
        };
        arrive(&mut full, &mut shadow, doc(1, &[(7, 0.3), (90_000, 0.4)]));
        assert_eq!(shadow.lists.stats().postings, 0, "no term is live yet");
        // Going live backfills; the slot is compact whatever the term id.
        shadow.acquire(&[TermId(90_000), TermId(90_000), TermId(5)]);
        assert_eq!(shadow.lists.live_terms().key(TermId(90_000)), Some(0));
        assert_eq!(shadow.lists.list(TermId(90_000)).unwrap().len(), 1);
        arrive(
            &mut full,
            &mut shadow,
            doc(2, &[(5, 0.2), (7, 0.9), (90_000, 0.1)]),
        );
        assert_eq!(shadow.lists.stats().postings, 3);
        // One of two references goes: still live. The second takes the list.
        assert!(!shadow.lists.release_term(TermId(90_000)));
        assert!(shadow.lists.release_term(TermId(90_000)));
        assert!(shadow.lists.list(TermId(90_000)).is_none());
        // Term 7 inherits the slot, and a list rebuilt from the window.
        shadow.acquire(&[TermId(7)]);
        assert_eq!(shadow.lists.live_terms().key(TermId(7)), Some(0));
        for term in [5, 7] {
            let expected: Vec<_> = full.lists.list(TermId(term)).unwrap().iter().collect();
            let actual: Vec<_> = shadow.lists.list(TermId(term)).unwrap().iter().collect();
            assert_eq!(actual, expected);
        }
        // Expiry re-intersects with the live set as it is now.
        let (one, now) = (SlidingWindow::count_based(1), Timestamp::from_millis(2));
        let removed = shadow.pop_expired(one, now).unwrap();
        assert_eq!(shadow.entries.len(), 1, "only term 7 of d1 is live");
        assert!(shadow.pop_expired(one, now).is_none());
        assert_eq!(removed.composition.len(), 2);
        assert_eq!(shadow.lists.list(TermId(7)).unwrap().len(), 1);
        shadow.check_invariants();
        let stats = shadow.lists.stats();
        assert_eq!((stats.live_terms, stats.postings), (2, 2));
        assert!(stats.list_slots < 16 && stats.refcount_slots < 16);
    }

    #[test]
    fn backfill_rebuilds_a_list_in_arrival_order() {
        let mut full = InvertedIndex::new();
        let mut shadow = Shadow::new();
        let docs = [
            doc(1, &[(7, 0.30), (8, 0.10)]),
            doc(2, &[(7, 0.50)]),
            doc(3, &[(9, 0.20)]),
            doc(4, &[(7, 0.30)]), // tie with d1 on term 7
        ];
        for d in docs {
            full.insert_document(d.clone());
            shadow.insert(d);
        }
        assert!(shadow.lists.list(TermId(7)).is_none());
        // Terms with no postings in the window backfill to nothing.
        shadow.acquire(&[TermId(7), TermId(42)]);
        assert_eq!(shadow.lists.stats().register_postings_touched, 3);
        let reference: Vec<_> = full.lists.list(TermId(7)).unwrap().iter().collect();
        let rebuilt: Vec<_> = shadow.lists.list(TermId(7)).unwrap().iter().collect();
        assert_eq!(reference, rebuilt);
        assert!(shadow.lists.list(TermId(42)).is_none());
        // A second reference on a live term files nothing: the list is
        // already complete.
        shadow.acquire(&[TermId(7)]);
        assert_eq!(shadow.lists.stats().register_postings_touched, 3);
        shadow.check_invariants();
    }

    #[test]
    #[should_panic(expected = "do not hold exactly the live entries")]
    fn the_audit_reports_a_live_term_whose_list_is_incomplete() {
        let mut shadow = Shadow::new();
        shadow.acquire(&[TermId(7)]);
        shadow.insert(doc(1, &[(7, 0.3)]));
        shadow.check_invariants();
        // A document the window holds and the lists never filed: term 7 is
        // live and this document's posting for it is missing.
        shadow.window.push(Arc::new(doc(2, &[(7, 0.5)])));
        shadow.check_invariants();
    }

    #[test]
    fn supplied_postings_equal_walked_postings_equal_a_brute_force_filter() {
        // Chunks of 8 over 29 documents, then 3 expire: the term set has hits
        // in the partly expired front chunk, in sealed chunks and in the
        // unsealed tail. `built` answers from directories, `walked` never
        // builds one; `supplied` files what `built` answers, `own` resolves
        // on a window of its own as an engine does.
        let terms: Vec<TermId> = (0..12).map(TermId).collect();
        let mut built = WindowTerms::with_shape(8, usize::MAX);
        let mut walked = WindowTerms::with_shape(8, 0);
        let mut supplied = TermLists::term_filtered();
        let mut own = Shadow::new();
        let mut entries = Vec::new();
        for i in 0..29u64 {
            let t = (i % 10) as u32;
            let d = doc(i, &[(t, 0.1 + (i % 3) as f64 * 0.2), ((t + 5) % 10, 0.4)]);
            walked.push(Arc::new(d.clone()));
            let seq = built.push(Arc::new(d.clone()));
            supplied.insert_arrival(seq, &d, &mut entries);
            own.insert(d);
        }
        built.postings(terms.iter().copied());
        assert_eq!(built.stats().directories, 3);
        for _ in 0..3 {
            let d = built.pop_front().unwrap();
            supplied.expire(&d, built.front_seq(), &mut entries);
            walked.pop_front();
            own.remove_oldest();
        }
        let walked_before = built.stats().entries_walked;
        let from_directories = built.postings(terms.iter().copied());
        assert_eq!(from_directories, walked.postings(terms.iter().copied()));
        // Over built directories only the five-document tail is walked —
        // fewer entries than one chunk holds.
        assert_eq!(built.stats().entries_walked - walked_before, 5 * 2);
        supplied.acquire_terms(terms.iter().copied(), &from_directories);
        own.acquire(&terms);
        // Equal but for who read the window.
        let lists = |lists: &TermLists| -> Vec<(TermId, Vec<Posting>)> {
            lists
                .lists()
                .map(|(t, l)| (t, l.iter().collect()))
                .collect()
        };
        assert_eq!(lists(&supplied), lists(&own.lists));
        assert_eq!(supplied.stats().register_entries_walked, 0);
        assert_eq!(own.window.stats().entries_walked, 26 * 2);
        assert_eq!(own.lists.stats().register_postings_touched, 26 * 2);
        assert_eq!(supplied.stats().register_postings_touched, 26 * 2);
        for term in &terms {
            let filed: Vec<_> = supplied
                .list(*term)
                .map(|l| l.iter().collect())
                .unwrap_or_default();
            assert_eq!(
                filed,
                window_postings(&own.window, *term),
                "lists diverge for {term}"
            );
        }
        supplied.check_invariants(&built);
        own.check_invariants();
    }

    /// A registration whose terms are partly live already: the owner
    /// resolves only the rest, in one walk, and the lists file those; a
    /// term the postings cover but the call does not name is not filed.
    #[test]
    fn partly_supplied_postings_are_completed_by_one_walk() {
        let mut shadow = Shadow::new();
        for i in 0..6u64 {
            shadow.insert(doc(i, &[(1, 0.5), (2, 0.1 + i as f64 * 0.1), (3, 0.2)]));
        }
        shadow.acquire(&[TermId(1)]);
        assert_eq!(shadow.window.stats().entries_walked, 6 * 3);
        let walked = shadow.window.stats().entries_walked;
        // Terms 2 and 9 are new (9 occurs nowhere), 1 is live; 3 is
        // resolved but not asked for.
        let supplied = shadow.window.postings([TermId(2), TermId(9), TermId(3)]);
        assert_eq!(
            shadow.window.stats().entries_walked - walked,
            6 * 3,
            "one walk for terms 2 and 9"
        );
        let terms = [TermId(2), TermId(1), TermId(9), TermId(2)];
        shadow.lists.acquire_terms(terms, &supplied);
        assert_eq!(shadow.lists.stats().register_postings_touched, 12);
        for term in [1, 2] {
            let filed: Vec<_> = shadow.lists.list(TermId(term)).unwrap().iter().collect();
            assert_eq!(filed, window_postings(&shadow.window, TermId(term)));
        }
        assert!(shadow.lists.list(TermId(9)).is_none() && shadow.lists.list(TermId(3)).is_none());
        shadow.check_invariants();
    }

    #[test]
    fn lists_iterator_covers_all_terms() {
        let mut idx = InvertedIndex::new();
        idx.insert_document(doc(1, &[(1, 0.5), (2, 0.4), (3, 0.3)]));
        let terms: Vec<u32> = idx.lists.lists().map(|(t, _)| t.0).collect();
        assert_eq!(terms, vec![1, 2, 3]);
    }
}
