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
//! list once the last referencing query deregisters. (The caller-filtered
//! form — [`InvertedIndex::insert_shared_filtered`] over an identity-keyed
//! index, which the replica passes of `ctsbench` drive, with
//! [`InvertedIndex::backfill_term`], [`InvertedIndex::mark_cold`] and
//! [`InvertedIndex::drop_list`] for the index-level differential suites —
//! is refused by a term-filtered index, whose lists move only with its
//! references.)
//!
//! **Who resolves those postings.** Reading them out of the stored window
//! is a pass over every composition entry of every valid document — the
//! *registration cliff* (DESIGN.md §9) — so the index does not do it when
//! someone else already has: `acquire_terms` takes a [`TermPostings`]
//! resolved by the window's owner (the sharded coordinator's
//! [`crate::WindowTerms`], which answers from per-chunk term directories
//! and is shared by every shard) and files from it. Only for terms nobody
//! supplied — a stand-alone filtered engine, a caller-filtered backfill, a
//! cold term's first touch — does the index walk its own store, once per
//! call however many terms it brings, each composition entry tested against
//! a bitmap of the wanted terms ([`InvertedIndex::register_entries_walked`]
//! counts those entries).
//!
//! The index also supports **cold** terms: [`InvertedIndex::acquire_term_cold`]
//! ([`InvertedIndex::mark_cold`] on a caller-filtered index) records that a
//! term is live without building its list,
//! [`InvertedIndex::probe_shared`] answers a one-off read from the
//! `Arc`-shared window without materialising anything, and
//! [`InvertedIndex::materialise_terms`] promotes cold terms to private
//! segmented lists on first real touch — in one store walk for the whole
//! batch. While a term is cold the store remains the single source of truth:
//! arrivals skip filing it and expirations have no list to clean, so a later
//! materialisation over the current store yields exactly the postings an
//! always-warm list would hold.

use std::collections::BTreeSet;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use cts_text::{TermId, WeightedTerm};

use crate::arena::{DenseArena, LiveTerms};
use crate::document::{DocId, Document};
use crate::posting::Posting;
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
    /// Terms live in the owner's filter but intentionally without a private
    /// list yet — served from the shared store until first touch. A `BTreeSet`
    /// on purpose: anything that sweeps the cold set (idle materialisation,
    /// diagnostics) observes the terms in sorted order, so no replayed or
    /// differential path can depend on hash-iteration order.
    cold: BTreeSet<TermId>,
    /// Impact entries filed by registration-path backfills (satellite
    /// regression counter: must scale with the probed lists, never with the
    /// window × registration count product of the old eager path).
    register_postings_touched: u64,
    /// Composition entries this index read out of its own store to resolve
    /// postings nobody supplied (the sibling counter: stays 0 on a shard
    /// whose coordinator ships every registration's postings).
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
    /// [`InvertedIndex::acquire_terms`] / [`InvertedIndex::acquire_term_cold`]
    /// — and lists are keyed by compact live slots, so the arena is sized by
    /// the live terms rather than by the vocabulary. Documents are always
    /// stored in full.
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
    /// index's own store (as [`InvertedIndex::backfill_terms`] does for a
    /// caller-filtered index) — so the caller may probe every one of them.
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

    /// Takes one reference on `term` without building anything: on a
    /// term-filtered index a term this brings live is marked cold (what
    /// [`InvertedIndex::mark_cold`] is to a caller-filtered index), so the
    /// caller pays no window scan until (unless) something probes the list.
    pub fn acquire_term_cold(&mut self, term: TermId) {
        if self.live.acquire(term) && self.is_term_filtered() {
            self.set_cold(term);
        }
    }

    /// Drops one reference on `term`; `true` when it was the last. A
    /// term-filtered index then retires the term's list (or cold mark) and
    /// recycles its key — the caller must already have let go of whatever
    /// *it* files under [`LiveTerms::key`].
    pub fn release_term(&mut self, term: TermId) -> bool {
        let Some(key) = self.live.release(term) else {
            return false;
        };
        if self.is_term_filtered() {
            self.cold.remove(&term);
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
    /// only for composition terms accepted by `allow`. The document itself is
    /// always stored in full, so later [`InvertedIndex::backfill_term`] calls
    /// can recover the skipped terms — this is what makes a term-filtered
    /// shadow index exactly equivalent to the full index *for the filtered
    /// term set* under arbitrary register/feed interleavings.
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
    /// of `entries` that `allow` accepts, that has a key and is not cold.
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
        // Cold terms are live but must stay unmaterialised: filing only
        // post-registration arrivals would leave a partial list that a later
        // materialisation would double-count. The `is_empty` check keeps the
        // fully-warm hot path a single branch.
        let any_cold = !self.cold.is_empty();
        for entry in entries {
            if !allow(entry.term) || (any_cold && self.cold.contains(&entry.term)) {
                continue;
            }
            if let Some(key) = self.live.key(entry.term) {
                self.lists.get_or_default(key).insert(doc.id, entry.weight);
            }
        }
    }

    /// Builds the inverted list for `term` from the stored documents, in
    /// arrival order — the exact insertion sequence the unfiltered index
    /// would have performed. Used when a newly registered query references a
    /// term the filtered index has not been maintaining. Returns the number
    /// of postings filed.
    ///
    /// # Panics
    ///
    /// Panics if a non-empty list for `term` already exists: backfilling on
    /// top of live postings would duplicate them, which means the caller's
    /// term bookkeeping is corrupt.
    pub fn backfill_term(&mut self, term: TermId) -> usize {
        self.backfill_terms(&[term])
    }

    /// Backfills several terms in **one walk of the store** — the
    /// registration path of a caller-filtered shadow index, where a new query
    /// typically brings several terms live at once and per-term store scans
    /// would multiply the (window-sized) traversal cost by the query length.
    /// Postings are filed in arrival order per term, exactly as
    /// [`InvertedIndex::backfill_term`] would. Returns the total number of
    /// postings filed.
    ///
    /// # Panics
    ///
    /// Panics if any of the terms already has a non-empty list (see
    /// [`InvertedIndex::backfill_term`]), if `terms` contains duplicates, or
    /// on a [`InvertedIndex::term_filtered`] index, which backfills by itself
    /// when [`InvertedIndex::acquire_terms`] brings a term live.
    pub fn backfill_terms(&mut self, terms: &[TermId]) -> usize {
        self.assert_caller_filtered("backfill_terms");
        self.rebuild_lists(terms, &TermPostings::default())
    }

    /// `backfill_term(s)`, `mark_cold` and `drop_list` are the protocol of a
    /// caller that keeps the term filter itself, over a full (term-id keyed)
    /// index. A term-filtered index owns its filter: its lists, cold marks
    /// and slots move only with the references taken and dropped through
    /// `acquire_terms` / `acquire_term_cold` / `release_term`, so the
    /// caller-side calls — which would retire a list without releasing its
    /// term, or mark a term cold that is not live — are refused.
    fn assert_caller_filtered(&self, method: &str) {
        assert!(
            !self.is_term_filtered(),
            "{method} on a term-filtered index: acquire or release the term instead"
        );
    }

    /// Files the lists of `terms` — the one place backfilled postings are
    /// filed (see [`InvertedIndex::backfill_terms`] for the contract). Each
    /// term's postings come from `supplied` if it covers the term, and
    /// otherwise from one bitmap walk of this index's store over all the
    /// uncovered terms together.
    fn rebuild_lists(&mut self, terms: &[TermId], supplied: &TermPostings) -> usize {
        for (i, term) in terms.iter().enumerate() {
            assert!(
                self.list(*term).is_none_or(|list| list.is_empty()),
                "backfill of {term} would duplicate an existing list"
            );
            assert!(
                !self.cold.contains(term),
                "backfill of cold {term} without clearing its cold mark"
            );
            assert!(
                !terms[..i].contains(term),
                "backfill of {term} requested twice"
            );
        }
        let uncovered = terms.iter().filter(|term| supplied.get(**term).is_none());
        let (walked, entries) = walk_postings(self.store.iter(), uncovered.copied());
        self.register_entries_walked += entries;
        let mut filed = 0;
        for term in terms {
            let postings = supplied.get(*term).or_else(|| walked.get(*term));
            let Some(postings) = postings.filter(|postings| !postings.is_empty()) else {
                continue;
            };
            let Some(key) = self.live.key(*term) else {
                panic!("backfill of {term}, which no registered query references");
            };
            let list = self.lists.get_or_default(key);
            for (doc, weight) in postings {
                list.insert(*doc, *weight);
            }
            filed += postings.len();
        }
        self.register_postings_touched += filed as u64;
        filed
    }

    /// Marks `term` **cold**: live in the caller's term filter, but with its
    /// private list deliberately not built. Arrivals skip filing the term and
    /// expirations find nothing to clean, so the shared store stays the
    /// single source of truth until [`InvertedIndex::materialise_terms`] (or
    /// a direct [`InvertedIndex::probe_shared`]) reads it. Marking an
    /// already-cold term is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if a non-empty list for `term` exists — a term cannot be both
    /// warm and cold, so the caller's bookkeeping is corrupt — or on a
    /// [`InvertedIndex::term_filtered`] index, where only
    /// [`InvertedIndex::acquire_term_cold`] may mark a term.
    pub fn mark_cold(&mut self, term: TermId) {
        self.assert_caller_filtered("mark_cold");
        self.set_cold(term);
    }

    fn set_cold(&mut self, term: TermId) {
        assert!(
            self.list(term).is_none_or(|list| list.is_empty()),
            "cannot mark {term} cold: a live list exists"
        );
        self.cold.insert(term);
    }

    /// Whether `term` is currently marked cold.
    pub fn is_cold(&self, term: TermId) -> bool {
        self.cold.contains(&term)
    }

    /// Number of currently cold terms (0 means every live term is warm and
    /// the arrival path runs exactly as before lazy registration existed).
    pub fn num_cold(&self) -> usize {
        self.cold.len()
    }

    /// The currently cold terms, in increasing term-id order — for batch-idle
    /// materialisation sweeps. The order is deterministic (the cold set is a
    /// `BTreeSet`), so sweeps driven off this list replay identically.
    pub fn cold_terms(&self) -> Vec<TermId> {
        self.cold.iter().copied().collect()
    }

    /// Read-only probe of `term` against the `Arc`-shared window: the impact
    /// entries a private list would hold right now, in list order
    /// (decreasing weight, ties by increasing document id). This is how a
    /// cold term's *first* read can be served without mutating the index; it
    /// works identically for warm or unfiltered terms (and is differentially
    /// tested against the maintained lists).
    pub fn probe_shared(&self, term: TermId) -> Vec<Posting> {
        let mut postings: Vec<Posting> = self
            .store
            .iter()
            .filter_map(|doc| {
                let weight = doc.composition.impact(term);
                (weight > cts_text::Weight::ZERO).then(|| Posting::new(doc.id, weight))
            })
            .collect();
        postings.sort_unstable_by(|a, b| a.rank(b));
        postings
    }

    /// Promotes every currently-cold term in `terms` to a private list, in
    /// **one walk of the store** regardless of how many terms the batch
    /// brings. Terms that are not cold (already warm, or never marked) are
    /// skipped, so materialisation is idempotent. Returns the number of
    /// postings filed.
    pub fn materialise_terms(&mut self, terms: &[TermId]) -> usize {
        let mut promoted: Vec<TermId> = Vec::new();
        for term in terms {
            // `remove` both filters to cold terms and dedups repeats.
            if self.cold.remove(term) {
                promoted.push(*term);
            }
        }
        if promoted.is_empty() {
            0
        } else {
            self.rebuild_lists(&promoted, &TermPostings::default())
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

    /// Drops the inverted list for `term` entirely (the stored documents are
    /// untouched) — what [`InvertedIndex::release_term`] does when the last
    /// query referencing `term` deregisters, for callers that keep the term
    /// filter themselves. A cold `term` just sheds its cold
    /// mark — deregistering a never-probed term must not trigger the
    /// materialisation it existed to avoid. Returns `true` if a list or a
    /// cold mark existed.
    ///
    /// # Panics
    ///
    /// Panics on a [`InvertedIndex::term_filtered`] index: dropping a live
    /// term's list without releasing the term would let later arrivals
    /// refile a partial one.
    pub fn drop_list(&mut self, term: TermId) -> bool {
        self.assert_caller_filtered("drop_list");
        let was_cold = self.cold.remove(&term);
        let list = self.live.key(term).and_then(|key| self.lists.remove(key));
        list.is_some() || was_cold
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
    /// exists exactly for the live, non-cold terms, whatever they were then:
    /// a term that went live later was backfilled with this document's entry,
    /// and a term that died took its list with it.
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
    /// registration changed it ([`LiveTerms::sync_from`]), and the (normally
    /// empty) cold set and the backfill counters are copied outright. Clears
    /// `src`'s change records.
    ///
    /// `self` must hold what `src` held when it was last synced from — both
    /// freshly created, or `self` last written by this very call.
    pub fn sync_from(&mut self, src: &mut InvertedIndex) {
        self.store.sync_from(&mut src.store);
        self.live.sync_from(&mut src.live);
        self.lists.sync_from(&mut src.lists);
        self.cold.clone_from(&src.cold);
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
    /// * no posting refers to a document outside the store, and no list holds
    ///   more postings than there are valid documents;
    /// * the **cold-term lifecycle**: a cold term never owns a list — cold
    ///   means "the shared store is the single source of truth", so a
    ///   coexisting private list would double-count on materialisation;
    /// * the live-term set's own invariants ([`LiveTerms::check_invariants`]),
    ///   and on a term-filtered index every list sits under the key of a
    ///   term that is live now — a recycled slot never inherits a list.
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
                assert!(
                    self.store.get(posting.doc).is_some(),
                    "list for {term} references expired document {}",
                    posting.doc
                );
            }
            assert!(
                !self.cold.contains(&term),
                "{term} is cold but owns a materialised list"
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
    use cts_text::WeightedVector;

    fn doc(id: u64, terms: &[(u32, f64)]) -> Document {
        Document::new(
            DocId(id),
            Timestamp::from_millis(id),
            WeightedVector::from_weights(terms.iter().map(|&(t, w)| (TermId(t), w))),
        )
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
        let mut shadow = InvertedIndex::new();
        let docs = [
            doc(1, &[(7, 0.30), (8, 0.10)]),
            doc(2, &[(7, 0.50)]),
            doc(3, &[(9, 0.20)]),
            doc(4, &[(7, 0.30)]), // tie with d1 on term 7
        ];
        for d in docs {
            full.insert_document(d.clone());
            shadow.insert_shared_filtered(Arc::new(d), |_| false);
        }
        assert!(shadow.list(TermId(7)).is_none());
        assert_eq!(shadow.backfill_term(TermId(7)), 3);
        let reference: Vec<_> = full.list(TermId(7)).unwrap().iter().collect();
        let rebuilt: Vec<_> = shadow.list(TermId(7)).unwrap().iter().collect();
        assert_eq!(reference, rebuilt);
        // Terms with no postings in the window backfill to nothing.
        assert_eq!(shadow.backfill_term(TermId(42)), 0);
        assert!(shadow.list(TermId(42)).is_none());
    }

    #[test]
    #[should_panic(expected = "would duplicate an existing list")]
    fn backfill_onto_a_live_list_panics() {
        let mut idx = InvertedIndex::new();
        idx.insert_document(doc(1, &[(7, 0.3)]));
        idx.backfill_term(TermId(7));
    }

    #[test]
    fn drop_list_retires_a_term_without_touching_the_store() {
        let mut idx = InvertedIndex::new();
        idx.insert_document(doc(1, &[(7, 0.3), (8, 0.2)]));
        assert!(idx.drop_list(TermId(7)));
        assert!(!idx.drop_list(TermId(7)));
        assert!(idx.list(TermId(7)).is_none());
        assert_eq!(idx.num_documents(), 1);
        // A later backfill restores exactly the dropped postings.
        assert_eq!(idx.backfill_term(TermId(7)), 1);
        assert_eq!(idx.list(TermId(7)).unwrap().len(), 1);
    }

    #[test]
    fn directory_answer_equals_walk_answer_equals_probe_shared() {
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
            assert_eq!(filed, own.probe_shared(*term), "lists diverge for {term}");
        }
        supplied.check_invariants();
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
            assert_eq!(filed, idx.probe_shared(TermId(term)));
        }
        assert!(idx.list(TermId(9)).is_none() && idx.list(TermId(3)).is_none());
        idx.check_invariants();
    }

    #[test]
    fn cold_terms_are_skipped_by_arrivals_and_materialise_exactly() {
        let mut full = InvertedIndex::new();
        let mut shadow = InvertedIndex::new();
        let t = TermId(7);
        // Half the window arrives, the term goes cold (registered), the rest
        // of the window arrives while cold, one document expires while cold.
        for i in 0..4u64 {
            let d = doc(i, &[(7, 0.1 + i as f64 * 0.1), (8, 0.2)]);
            full.insert_document(d.clone());
            shadow.insert_shared_filtered(Arc::new(d), |_| true);
        }
        shadow.drop_list(t); // simulate the term never having been live
        shadow.mark_cold(t);
        assert!(shadow.is_cold(t));
        assert_eq!(shadow.num_cold(), 1);
        assert_eq!(shadow.cold_terms(), vec![t]);
        for i in 4..8u64 {
            let d = doc(i, &[(7, 0.05 + i as f64 * 0.1)]);
            full.insert_document(d.clone());
            shadow.insert_shared_filtered(Arc::new(d), |_| true);
        }
        full.remove_document(DocId(1)).unwrap();
        shadow.remove_document(DocId(1)).unwrap();
        // While cold: no list, but the shared probe answers correctly.
        assert!(shadow.list(t).is_none());
        let reference: Vec<_> = full.list(t).unwrap().iter().collect();
        assert_eq!(shadow.probe_shared(t), reference);
        // Materialisation over the churned store equals the always-warm list.
        shadow.materialise_terms(&[t]);
        assert!(!shadow.is_cold(t));
        let rebuilt: Vec<_> = shadow.list(t).unwrap().iter().collect();
        assert_eq!(rebuilt, reference);
        // Idempotent: a second materialisation files nothing.
        let before = shadow.register_postings_touched();
        assert_eq!(shadow.materialise_terms(&[t]), 0);
        assert_eq!(shadow.register_postings_touched(), before);
    }

    #[test]
    fn dropping_a_cold_term_never_materialises_it() {
        let mut idx = InvertedIndex::new();
        for i in 0..6u64 {
            idx.insert_shared_filtered(Arc::new(doc(i, &[(3, 0.5)])), |_| false);
        }
        idx.mark_cold(TermId(3));
        assert!(idx.drop_list(TermId(3)));
        assert!(!idx.is_cold(TermId(3)));
        assert!(idx.list(TermId(3)).is_none());
        assert_eq!(idx.register_postings_touched(), 0);
        assert!(!idx.drop_list(TermId(3)));
    }

    #[test]
    #[should_panic(expected = "a live list exists")]
    fn marking_a_warm_term_cold_panics() {
        let mut idx = InvertedIndex::new();
        idx.insert_document(doc(1, &[(7, 0.3)]));
        idx.mark_cold(TermId(7));
    }

    #[test]
    fn a_term_filtered_index_refuses_the_caller_filtered_protocol() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut idx = InvertedIndex::term_filtered();
        idx.acquire_terms([TermId(7)], &TermPostings::default());
        idx.insert_document(doc(1, &[(7, 0.3), (8, 0.2)]));
        let before = idx.clone();
        type Call = fn(&mut InvertedIndex);
        let calls: [(&str, Call); 4] = [
            ("drop_list", |idx| {
                idx.drop_list(TermId(7));
            }),
            ("mark_cold", |idx| idx.mark_cold(TermId(8))),
            ("backfill_term", |idx| {
                idx.backfill_term(TermId(8));
            }),
            ("backfill_terms", |idx| {
                idx.backfill_terms(&[TermId(8)]);
            }),
        ];
        for (name, call) in calls {
            let refused = catch_unwind(AssertUnwindSafe(|| call(&mut idx)));
            assert!(refused.is_err(), "{name} ran on a term-filtered index");
            assert_eq!(idx, before, "{name} changed the index before refusing");
        }
        // The live-term protocol is the one way in: cold, then materialised.
        idx.acquire_term_cold(TermId(8));
        assert!(idx.is_cold(TermId(8)));
        assert_eq!(idx.materialise_terms(&[TermId(8)]), 1);
        assert!(idx.release_term(TermId(7)));
        assert!(idx.list(TermId(7)).is_none());
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
