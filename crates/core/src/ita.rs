//! The Incremental Threshold Algorithm (paper §III).
//!
//! [`ItaEngine`] maintains, for every registered query `Q`:
//!
//! * a result set `R` holding the verified top-k **and** every other valid
//!   document lying above the query's search frontier (the paper's
//!   *unverified* documents): the top-k in rank order, the rest in window
//!   order (`crate::result`, DESIGN.md §6 "The layout of R");
//! * one *local threshold* `θ_{Q,t}` per query term, the impact weight down
//!   to which the threshold search has examined the inverted list `L_t`; and
//! * the *influence threshold* `τ = Σ_t w_{Q,t}·θ_{Q,t}`, an upper bound on
//!   the score of any document outside `R`.
//!
//! The local thresholds are mirrored into per-list [`ThresholdTree`]s so that
//! a stream event touches only the queries whose frontier it crosses:
//!
//! * **Registration** runs a threshold (TA-style) search down the query's
//!   inverted lists, stopping as soon as `S_k ≥ τ` — usually after reading a
//!   small prefix of each list.
//! * **Arrival** of document `d` probes, for every term `t` of `d` that some
//!   registered query uses (one pass over `d` against the live-term bitmap
//!   finds them), the threshold tree of `L_t` for queries with
//!   `θ_{Q,t} ≤ w_{d,t}`. Only those queries score `d` — against those same
//!   few entries — and all others provably cannot have `d` in their top-k.
//!   An arrival enters `R` and moves no threshold.
//! * **Expiration** probes the same trees; affected queries drop the expired
//!   document from `R`, and if it was in the top-k the threshold search
//!   *resumes* below the recorded thresholds (an incremental *refill*)
//!   instead of restarting from the top of the lists.
//!
//! A local threshold therefore moves in one place only — the threshold
//! search, at registration and refill — and only downward. The paper's
//! §III-C also *rolls thresholds up* after an improving arrival, evicting
//! unverified documents to keep `R` small; at the paper's operating point
//! that costs more per event than the larger `R` it saves, so this engine
//! does not (a measured deviation, DESIGN.md §6 "No roll-up").
//!
//! The engine's per-query invariant is exactly the paper's: every posting
//! strictly above `θ_{Q,t}` in `L_t` is in `R`, so every valid document
//! outside `R` scores at most `τ ≤ S_k`, and the top-k inside `R` is the
//! true top-k. [`ItaEngine::check_invariants`] audits both halves.
//!
//! **A window owner and a windowless core.** Every structure ITA reads for
//! a query is per query term. An [`ItaEngine`] is the one [`WindowTerms`] of
//! valid documents plus one `ItaCore` — lists (`cts_index::TermLists`),
//! trees and queries — which reads the window only through a borrow; the
//! sharded coordinator owns one window and one core per shard. A posting
//! names its document by the window's arrival sequence number, and so does
//! an entry of `R`: the descent tests membership by sequence number, and
//! reads the id and the composition of a document it scores by one index
//! each into the window. Descent cursors cross segment boundaries of the
//! *segmented* impact lists, tie runs straddling two segments included
//! (`ita_brute_force_agreement_beyond_segment_capacity`).

#![deny(clippy::disallowed_types)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use cts_index::{
    DenseArena, DocId, Document, IndexStats, QueryId, SlidingWindow, TermLists, TermPostings,
    ThresholdTree, Timestamp, WindowTerms,
};
use cts_text::{TermId, Weight, WeightedTerm};

use crate::engine::{Engine, EventOutcome};
use crate::query::ContinuousQuery;
use crate::result::{Entry, RankedDocument, Results};
use crate::slab::QuerySlab;

/// The [`ItaEngine`]'s configuration, which has no fields: its one field
/// switched roll-up on and off, and roll-up is gone (DESIGN.md §6 "No
/// roll-up"). The type stays because [`ItaEngine::new`] and
/// [`crate::ShardedItaEngine::new`] take one and existing callers build
/// `ItaConfig::default()`; both constructors ignore it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ItaConfig {}

/// A point-in-time snapshot of one query's ITA bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ItaQueryStats {
    /// Current size of the result set `R` (top-k plus unverified documents).
    pub result_set_size: usize,
    /// The current `k`-th best score `S_k` (0 when fewer than `k` results).
    pub kth_score: f64,
    /// The current influence threshold `τ = Σ_t w_{Q,t}·θ_{Q,t}`.
    pub influence_threshold: f64,
    /// Stream arrivals that crossed this query's frontier and were scored.
    pub arrivals_examined: u64,
    /// Expirations that crossed this query's frontier and were processed.
    pub expirations_examined: u64,
    /// Incremental refills performed after top-k expirations.
    pub refills: u64,
    /// Inverted-list postings scored by this query's threshold searches.
    pub postings_examined: u64,
}

/// Per-query mutable state.
#[derive(Debug, Clone)]
struct QueryState {
    /// Shared with whoever registered it (the sharded coordinator's
    /// registry): a query never changes after registration, so every holder
    /// keeps the one allocation.
    query: Arc<ContinuousQuery>,
    results: Results,
    /// `⟨t, θ_{Q,t}⟩`, aligned with the query's term order.
    thresholds: Vec<(TermId, Weight)>,
    arrivals_examined: u64,
    expirations_examined: u64,
    refills: u64,
    postings_examined: u64,
}

impl QueryState {
    fn tau(&self) -> f64 {
        self.thresholds
            .iter()
            .map(|(t, theta)| self.query.weight(*t).get() * theta.get())
            .sum()
    }
}

/// The windowless query core: everything ITA keeps for a set of queries,
/// over documents its owner's [`WindowTerms`] holds. The core holds valid
/// the documents numbered `front..end`; its owner moves both, one event at a
/// time ([`ItaCore::process`]), and keeps those documents in the window
/// until the core has read them.
#[derive(Debug, Clone)]
pub(crate) struct ItaCore {
    /// The inverted lists, which also own the core's **live-term set**
    /// (`lists.live_terms()`): one reference per (registered query, term),
    /// a bit per term flipped where a count crosses zero, and the key space
    /// of every per-term arena — term ids on full lists, compact live slots
    /// on term-filtered ones (see `cts_index::arena`).
    lists: TermLists,
    /// One threshold tree per live term, keyed like the lists.
    trees: DenseArena<ThresholdTree>,
    queries: QuerySlab<QueryState>,
    /// Reused per-event buffer for the affected-query probe; kept on the
    /// core so steady-state event processing allocates nothing.
    scratch: Vec<QueryId>,
    /// Reused per-event buffer: the live entries of the document being
    /// handled — its one intersection with the live-term set, which the
    /// filing loop, the threshold probe and arrival scoring all walk.
    live_entries: Vec<WeightedTerm>,
    /// Reused buffers of the threshold descent.
    descent: DescentScratch,
    /// The sequence number the core has expired through: its oldest valid
    /// document's (the next arrival's, when none is valid).
    front: u64,
    /// The next arrival's sequence number.
    end: u64,
}

impl ItaCore {
    /// A core over `lists` (which fix the key space) holding valid exactly
    /// the documents `window` holds now, with no query registered.
    pub(crate) fn new(lists: TermLists, window: &WindowTerms) -> Self {
        let front = window.front_seq();
        Self {
            lists,
            trees: DenseArena::new(),
            queries: QuerySlab::new(),
            scratch: Vec::new(),
            live_entries: Vec::new(),
            descent: DescentScratch::default(),
            front,
            end: front + window.len() as u64,
        }
    }

    pub(crate) fn num_queries(&self) -> usize {
        self.queries.len()
    }

    pub(crate) fn current_results(&self, query: QueryId) -> Vec<RankedDocument> {
        self.queries
            .get(query)
            .map(|state| state.results.top())
            .unwrap_or_default()
    }

    pub(crate) fn query_stats(&self, query: QueryId) -> Option<ItaQueryStats> {
        let state = self.queries.get(query)?;
        Some(ItaQueryStats {
            result_set_size: state.results.len(),
            kth_score: state.results.kth_score(),
            influence_threshold: state.tau(),
            arrivals_examined: state.arrivals_examined,
            expirations_examined: state.expirations_examined,
            refills: state.refills,
            postings_examined: state.postings_examined,
        })
    }

    /// The lists' shape, the tree arena's size and the valid document count.
    pub(crate) fn index_stats(&self) -> IndexStats {
        IndexStats {
            documents: (self.end - self.front) as usize,
            tree_slots: self.trees.slot_capacity(),
            ..self.lists.stats()
        }
    }

    /// Runs (or resumes) the threshold search for `qid` until `S_k ≥ τ`,
    /// then reconciles the per-list threshold trees with the new frontier.
    fn run_threshold_search(&mut self, window: &WindowTerms, qid: QueryId, register: bool) {
        #[expect(
            clippy::expect_used,
            reason = "callers pass ids taken from the live query slab"
        )]
        let state = self.queries.get_mut(qid).expect("query exists");
        let before: Vec<Weight> = state.thresholds.iter().map(|(_, theta)| *theta).collect();
        let view = View {
            lists: &self.lists,
            window,
            front: self.front,
            end: self.end,
        };
        // Unit-test builds run every search twice, once by the restart-at-θ
        // reference, and hold the two to the same θ, R and count.
        #[cfg(test)]
        let reference = tests::restart_descent(&view, state.clone());
        threshold_descent(&view, state, &mut self.descent);
        #[cfg(test)]
        tests::assert_same_search(state, &reference);
        let live = self.lists.live_terms();
        for ((term, after), before) in state.thresholds.iter().zip(before) {
            #[expect(
                clippy::expect_used,
                reason = "registration takes a reference on every query term before any search runs"
            )]
            let key = live.key(*term).expect("query terms are live");
            let tree = self.trees.get_or_default(key);
            if register {
                tree.insert(qid, *after);
            } else if before != *after {
                tree.update(qid, before, *after);
            }
        }
    }

    /// Fills `self.scratch` with the queries whose frontier the document in
    /// `self.live_entries` crosses — every `Q` with `θ_{Q,t} ≤ w_{d,t}` for
    /// at least one term `t` of the document — sorted by query id and
    /// deduplicated. Only a live term can have a tree, so the probe walks
    /// the document's live entries (≈ 10 of ≈ 230 at the paper point), each
    /// costing one key lookup, one arena index and one `partition_point`; the
    /// buffer is reused across events so the hot path performs no allocation.
    fn collect_affected_queries(&mut self) {
        self.scratch.clear();
        let live = self.lists.live_terms();
        for entry in &self.live_entries {
            if let Some(tree) = live.key(entry.term).and_then(|key| self.trees.get(key)) {
                self.scratch
                    .extend(tree.affected_by(entry.weight).map(|hit| hit.query));
            }
        }
        self.scratch.sort_unstable();
        self.scratch.dedup();
    }

    /// Handles the arrival side of one stream event. The document `doc` is
    /// already filed under sequence number `seq` and its live entries are in
    /// `self.live_entries` — all an affected query needs to score it, bit for
    /// bit (every term of a registered query is live). Returns
    /// `(queries_touched, results_changed)`.
    fn handle_arrival(&mut self, doc: DocId, seq: u64) -> (usize, usize) {
        self.collect_affected_queries();
        let affected = std::mem::take(&mut self.scratch);
        let entries = std::mem::take(&mut self.live_entries);
        let touched = affected.len();
        let mut changed = 0;
        for &qid in &affected {
            #[expect(
                clippy::expect_used,
                reason = "deregistration removes tree entries, so probes only yield live queries"
            )]
            let state = self.queries.get_mut(qid).expect("tree entries are live");
            state.arrivals_examined += 1;
            state.postings_examined += 1;
            let score = state.query.score_entries(&entries);
            if state.results.insert(seq, doc, score) {
                changed += 1;
            }
        }
        self.scratch = affected;
        self.live_entries = entries;
        (touched, changed)
    }

    /// Handles one expiration: the document with sequence number `seq` has
    /// just left the front, which left its entries live *now* in
    /// `self.live_entries`. Every member of `R` has a posting at or above
    /// its query's frontier, so this probe reaches every query holding the
    /// document. Returns `(queries_touched, results_changed)`.
    fn handle_expiration(&mut self, window: &WindowTerms, seq: u64) -> (usize, usize) {
        self.collect_affected_queries();
        let affected = std::mem::take(&mut self.scratch);
        let touched = affected.len();
        let mut changed = 0;
        for &qid in &affected {
            #[expect(
                clippy::expect_used,
                reason = "deregistration removes tree entries, so probes only yield live queries"
            )]
            let state = self.queries.get_mut(qid).expect("tree entries are live");
            state.expirations_examined += 1;
            // `None`: the document sat exactly on the frontier without
            // having been examined, so there is nothing to repair.
            if state.results.expire(seq) == Some(true) {
                changed += 1;
                state.refills += 1;
                self.run_threshold_search(window, qid, false);
            }
        }
        self.scratch = affected;
        (touched, changed)
    }

    /// Processes one stream event: the arrival of the document numbered
    /// `seq` (the core's `end`), then the expiry of every document below
    /// `front`, the front the window policy left at that arrival — oldest
    /// first, each re-intersected with the live set as it is *now*. The
    /// window must hold all of them.
    pub(crate) fn process(&mut self, window: &WindowTerms, seq: u64, front: u64) -> EventOutcome {
        debug_assert_eq!(seq, self.end, "a core sees arrivals in sequence order");
        self.end = seq + 1;
        let doc = window.doc_at(seq);
        // One pass over the composition list, against the live-term bitmap;
        // from here on the event walks the document's live entries.
        self.lists.insert_arrival(seq, doc, &mut self.live_entries);
        let (touched, changed) = self.handle_arrival(doc.id, seq);
        let mut outcome = EventOutcome {
            arrived: doc.id,
            queries_touched_by_arrival: touched,
            results_changed: changed,
            ..EventOutcome::default()
        };
        while self.front < front {
            let expired = self.front;
            self.front += 1;
            self.lists
                .expire(window.doc_at(expired), self.front, &mut self.live_entries);
            let (touched, changed) = self.handle_expiration(window, expired);
            outcome.expired += 1;
            outcome.queries_touched_by_expiration += touched;
            outcome.results_changed += changed;
        }
        outcome
    }

    /// Registers a batch of queries under ids no registered query holds,
    /// over queries the caller keeps a handle on: the core stores a refcount
    /// bump per query, not a copy. All of the batch's newly-live terms are
    /// filed first, from `postings` — the window's postings as its owner
    /// resolved them, which must cover every term the batch brings live —
    /// and only then do the per-query threshold searches run, each
    /// byte-identical to the one a burst of one would have run, because
    /// registration reads the lists and writes only the registering query's
    /// own state. Full lists keep every term current and ignore `postings`.
    pub(crate) fn register(
        &mut self,
        window: &WindowTerms,
        batch: &[(QueryId, Arc<ContinuousQuery>)],
        postings: &TermPostings,
    ) {
        debug_assert!(
            batch
                .iter()
                .all(|(qid, _)| self.queries.get(*qid).is_none()),
            "a registered id registers again"
        );
        self.lists.acquire_terms(
            batch
                .iter()
                .flat_map(|(_, query)| query.terms().map(|(term, _)| term)),
            postings,
        );
        for (qid, query) in batch {
            let thresholds = query
                .terms()
                .map(|(t, _)| (t, Weight::new(f64::INFINITY)))
                .collect();
            self.queries.insert(
                *qid,
                QueryState {
                    results: Results::new(query.k()),
                    query: Arc::clone(query),
                    thresholds,
                    arrivals_examined: 0,
                    expirations_examined: 0,
                    refills: 0,
                    postings_examined: 0,
                },
            );
            self.run_threshold_search(window, *qid, true);
        }
    }

    /// Removes the query's threshold-tree entries (retiring empty trees) and
    /// releases its term references (term-filtered lists drop the lists of
    /// terms it held the last reference on).
    pub(crate) fn deregister(&mut self, query: QueryId) -> bool {
        let Some(state) = self.queries.remove(query) else {
            return false;
        };
        for (term, theta) in &state.thresholds {
            // The tree goes before the reference: releasing the last one
            // recycles the key the tree is filed under.
            if let Some(key) = self.lists.live_terms().key(*term) {
                if let Some(tree) = self.trees.get_mut(key) {
                    tree.remove(query, *theta);
                    if tree.is_empty() {
                        self.trees.remove(key);
                    }
                }
            }
            self.lists.release_term(*term);
        }
        true
    }

    /// Audits the core against `window`, which must hold exactly the
    /// documents the core holds valid, panicking on violation (DESIGN.md
    /// §11): the lists' invariants (`TermLists::check_invariants`), every
    /// tree's ordering, a tree for every live term and under no other key,
    /// two-way agreement between tree entries and the queries' thresholds,
    /// reference counts equal to the referencing queries, and per query:
    /// `R`'s layout, every entry naming a valid document by its sequence
    /// number and having *support* — a weight at or above `θ_{Q,t}` in some
    /// query term, which lets expiry find an unverified entry at the rest's
    /// front — and the paper's invariant: every posting strictly above
    /// `θ_{Q,t}` is in `R`, and `τ ≤ S_k`.
    pub(crate) fn check_invariants(&self, window: &WindowTerms) {
        assert_eq!(
            (self.front, self.end - self.front),
            (window.front_seq(), window.len() as u64),
            "the core holds valid other documents than its window (front, count)"
        );
        self.lists.check_invariants(window);
        let live = self.lists.live_terms();
        for (key, tree) in self.trees.iter() {
            let term = live.term_of(key);
            assert!(
                live.contains(term) && live.key(term) == Some(key),
                "a threshold tree is filed under key {key}, which no live term holds (last: {term})"
            );
            assert!(
                !tree.is_empty(),
                "empty threshold tree for {term} was not retired"
            );
            tree.check_invariants();
            for entry in tree.iter() {
                #[expect(clippy::panic, reason = "audit-only diagnostics, never on a hot path")]
                let Some(state) = self.queries.get(entry.query) else {
                    panic!(
                        "threshold tree for {term} references dead query {}",
                        entry.query
                    );
                };
                assert!(
                    state
                        .thresholds
                        .iter()
                        .any(|(t, theta)| *t == term && *theta == entry.threshold),
                    "tree entry θ={} for {} in {term} disagrees with the query's recorded thresholds",
                    entry.threshold,
                    entry.query
                );
            }
        }
        assert_eq!(
            self.trees.len(),
            live.len(),
            "a live term has no threshold tree"
        );
        let mut live_refs: Vec<u32> = Vec::new();
        assert!(
            self.descent.members.iter().all(|word| *word == 0) && self.descent.searched.is_empty(),
            "the threshold descent left its membership bitmap or its filing buffer dirty"
        );
        for (qid, state) in self.queries.iter() {
            state.results.check_invariants();
            let mut members: Vec<u64> = state.results.iter().map(|e| e.seq).collect();
            members.sort_unstable();
            for entry in state.results.iter() {
                let (seq, doc) = (entry.seq, entry.doc);
                assert!(
                    (self.front..self.end).contains(&seq),
                    "{qid}'s R holds {doc} under sequence number {seq}, which is not in the window"
                );
                assert_eq!(
                    window.id_at(seq),
                    doc,
                    "{qid}'s R names {doc} by the wrong sequence number {seq}"
                );
                let composition = &window.doc_at(seq).composition;
                assert!(
                    state.thresholds.iter().any(|(term, theta)| {
                        let weight = composition.impact(*term);
                        weight > Weight::ZERO && weight >= *theta
                    }),
                    "{qid}'s R holds {doc}, which has no weight at or above θ in any query term"
                );
            }
            for (term, theta) in &state.thresholds {
                #[expect(clippy::panic, reason = "audit-only diagnostics, never on a hot path")]
                let Some(tree) = live.key(*term).and_then(|key| self.trees.get(key)) else {
                    panic!("no threshold tree covers {qid}'s term {term}");
                };
                assert!(
                    tree.iter().any(|e| e.query == qid && e.threshold == *theta),
                    "{qid}'s recorded threshold θ={theta} for {term} is missing from the tree"
                );
                let slot = term.0 as usize;
                if slot >= live_refs.len() {
                    live_refs.resize(slot + 1, 0);
                }
                live_refs[slot] += 1;
                // The paper's invariant, first half: the search has examined
                // every live posting strictly above θ_{Q,t}, and an arrival up
                // there is touched, so each of them is in R.
                let all = Weight::new(f64::INFINITY);
                let live = self.lists.live_postings(*term, all, self.front);
                for posting in live.take_while(|p| p.weight > *theta) {
                    let doc = window.id_at(posting.seq);
                    assert!(
                        members.binary_search(&posting.seq).is_ok(),
                        "{doc} lies above {qid}'s θ={theta} in {term} but is not in R",
                    );
                }
            }
            // Second half: τ ≤ S_k, exactly. Only the descent sets a threshold,
            // and it stops on τ < S_k (or with every θ at zero); S_k falls
            // only when a top-k document expires, which runs the descent.
            let (tau, s_k) = (state.tau(), state.results.kth_score());
            assert!(tau <= s_k, "{qid}'s τ={tau} exceeds S_k={s_k}");
        }
        let referenced = live_refs.iter().filter(|count| **count > 0).count();
        assert_eq!(
            referenced,
            live.len(),
            "a term is live but no registered query references it"
        );
        for (slot, referencing) in live_refs.iter().enumerate() {
            let term = TermId(slot as u32);
            assert_eq!(
                live.count(term),
                *referencing,
                "{term}'s reference count disagrees with the live queries referencing it"
            );
        }
    }
}

/// What a threshold search reads: a core's lists, the window its postings
/// index, and the valid sequence numbers `front..end`.
struct View<'a> {
    lists: &'a TermLists,
    window: &'a WindowTerms,
    front: u64,
    end: u64,
}

/// The threshold descent's buffers, kept on the core like `scratch` so
/// that a descent allocates only while they grow.
#[derive(Debug, Clone, Default)]
struct DescentScratch {
    /// Membership in `R` while a descent runs: bit `seq − front` of the
    /// valid documents (1.25 KB at 10k documents). All clear between
    /// descents: a descent clears the whole bitmap when it stops, one short
    /// `memset` where clearing `R`'s bits one by one would walk all of `R`
    /// again.
    members: Vec<u64>,
    /// The examined entries a running descent files into the rest, unsorted.
    searched: Vec<Entry>,
}

/// The word and the bit of sequence number `seq` in a membership bitmap
/// whose bit 0 is the oldest valid document, `front`.
fn member_bit(seq: u64, front: u64) -> (usize, u64) {
    let at = seq - front;
    ((at / 64) as usize, 1 << (at % 64))
}

/// Runs the (initial or resumed) threshold search: repeatedly examines the
/// highest-impact unexamined posting among the query's lists, maintaining
/// `R` and the frontier, until `S_k ≥ τ` or the lists are exhausted.
///
/// Each list is read through **one cursor** for the whole search, opened at
/// its frontier (`live_postings(term, θ)`: ties at the frontier may or may
/// not have been examined). `R` only grows while the search runs and every
/// posting behind a cursor is in `R`, so a step skips `R`-members only from
/// where each cursor stands, and only the chosen list advances — through its
/// whole tie group, so the order within a group (arrival) decides nothing.
/// No posting is read twice. A list's θ only moves down, so a tie group
/// above it means the list is out of order: debug builds stop there instead
/// of searching on.
///
/// Membership in `R` is a bitmap over the valid documents
/// (`DescentScratch::members`), set for `R`'s entries when the search starts
/// and for each document as it is examined, and cleared when it stops: one
/// load per posting passed. An examined document enters the top-k at once
/// when it ranks there, since `S_k` decides the stop; it, or the entry it
/// demotes, otherwise waits unsorted until the stop
/// (`Results::file_searched`). A registration that builds an `R` of
/// thousands therefore files it with one sort, `O(|R| log |R|)`, not
/// `O(|R|²)`.
fn threshold_descent(view: &View, state: &mut QueryState, scratch: &mut DescentScratch) {
    let (window, front) = (view.window, view.front);
    let members = &mut scratch.members;
    let words = (view.end - front).div_ceil(64) as usize;
    members.resize(members.len().max(words), 0);
    state.results.iter().for_each(|entry| {
        let (word, bit) = member_bit(entry.seq, front);
        members[word] |= bit;
    });
    let query_weights = state.query.weights().as_slice();
    let mut cursors: Vec<_> = state
        .thresholds
        .iter()
        .map(|&(term, theta)| view.lists.live_postings(term, theta, front).peekable())
        .collect();
    loop {
        // The bound over the best unexamined posting of each list, and the
        // list whose posting contributes most — the last of equal maxima.
        let mut tau_next = 0.0;
        let mut best: Option<(usize, f64, Weight)> = None;
        for (slot, cursor) in cursors.iter_mut().enumerate() {
            while cursor
                .next_if(|p| {
                    let (word, bit) = member_bit(p.seq, front);
                    members[word] & bit != 0
                })
                .is_some()
            {}
            let Some(peek) = cursor.peek() else {
                continue;
            };
            // `thresholds` is aligned with the query's terms.
            let contribution = query_weights[slot].weight.get() * peek.weight.get();
            tau_next += contribution;
            if best.is_none_or(|(_, most, _)| contribution >= most) {
                best = Some((slot, contribution, peek.weight));
            }
        }

        // Stop only when `S_k` STRICTLY exceeds the bound (or nothing is
        // left to examine): synthetic integer term frequencies make exact
        // score ties common, and a document tied with `S_k` at the frontier
        // may out-rank an in-R document under the doc-id tie-break, so the
        // search must keep going until ties are provably impossible.
        let Some((slot, _, group_weight)) = best.filter(|_| state.results.kth_score() <= tau_next)
        else {
            // Done: snap every local threshold to its cursor's frontier
            // (every posting strictly above it is in R).
            for ((_, theta), cursor) in state.thresholds.iter_mut().zip(&mut cursors) {
                *theta = cursor.peek().map_or(Weight::ZERO, |p| p.weight);
            }
            state.results.file_searched(&mut scratch.searched);
            members.fill(0);
            return;
        };
        debug_assert!(
            group_weight <= state.thresholds[slot].1,
            "a tie group at {group_weight} lies above θ={} of {}: the list is out of order",
            state.thresholds[slot].1,
            state.thresholds[slot].0
        );

        // Examine the full tie group at that weight so the frontier is exact:
        // afterwards, every posting strictly above θ is guaranteed to be in R.
        while let Some(posting) = cursors[slot].next_if(|p| p.weight == group_weight) {
            let (word, bit) = member_bit(posting.seq, front);
            if members[word] & bit != 0 {
                continue;
            }
            members[word] |= bit;
            let score = state.query.score(&window.doc_at(posting.seq).composition);
            let doc = window.id_at(posting.seq);
            state
                .results
                .insert_searched(posting.seq, doc, score, &mut scratch.searched);
            state.postings_examined += 1;
        }
        state.thresholds[slot].1 = group_weight;
    }
}

/// The paper's monitoring algorithm: the valid documents, and one
/// `ItaCore` over them.
#[derive(Debug, Clone)]
pub struct ItaEngine {
    policy: SlidingWindow,
    /// The valid documents, oldest first: the one container of them.
    window: WindowTerms,
    core: ItaCore,
    next_query: u32,
    clock: Timestamp,
}

impl ItaEngine {
    /// Creates an engine with the given sliding-window policy over full
    /// lists. The [`ItaConfig`] is empty and ignored.
    pub fn new(window: SlidingWindow, _config: ItaConfig) -> Self {
        Self::over(window, TermLists::new())
    }

    /// The lists fix the key space of every per-term structure, so they are
    /// the one thing the two constructors choose.
    fn over(policy: SlidingWindow, lists: TermLists) -> Self {
        let window = WindowTerms::new();
        Self {
            policy,
            core: ItaCore::new(lists, &window),
            window,
            next_query: 0,
            clock: Timestamp::ZERO,
        }
    }

    /// Creates a **term-filtered** engine: its lists file postings only for
    /// terms referenced by at least one registered query (registration
    /// resolves the postings of the terms it brings live on the engine's own
    /// window, as the sharded coordinator does, and files them;
    /// deregistration retires lists whose last referencing query left). For
    /// its registered queries it is exactly equivalent to an unfiltered
    /// engine — every list a query's threshold search or probe can touch is
    /// complete — while skipping index maintenance for the (large) majority
    /// of composition terms no query watches, and keying lists, threshold
    /// trees and reference counts by compact live slots so their memory
    /// follows the live terms instead of the vocabulary. A shard of
    /// [`crate::ShardedItaEngine`] is the same core without the window.
    pub fn term_filtered(window: SlidingWindow) -> Self {
        Self::over(window, TermLists::term_filtered())
    }

    /// Whether this engine maintains term-filtered lists.
    pub fn is_term_filtered(&self) -> bool {
        self.core.lists.is_term_filtered()
    }

    /// The sliding-window policy in force.
    pub fn window(&self) -> SlidingWindow {
        self.policy
    }

    /// A snapshot of `query`'s bookkeeping, if it is registered.
    pub fn query_stats(&self, query: QueryId) -> Option<ItaQueryStats> {
        self.core.query_stats(query)
    }

    /// A point-in-time summary of the lists (documents, lists, postings), of
    /// how the per-term tables are sized (`live_terms` against `list_slots`
    /// / `tree_slots`) and of what registrations read of the window. Exposed
    /// for the sweep harness, soak tests and the memory-shape regression
    /// test.
    pub fn index_stats(&self) -> IndexStats {
        let window = self.window.stats();
        IndexStats {
            register_entries_walked: window.entries_walked,
            directory_bytes: window.directory_bytes,
            ..self.core.index_stats()
        }
    }

    /// The valid documents, oldest first. Exposed so validation harnesses
    /// (e.g. the paper-scale soak) can re-evaluate queries against the
    /// engine's own window without keeping a second copy of it.
    pub fn documents(&self) -> &WindowTerms {
        &self.window
    }

    /// The local threshold `θ_{Q,t}`, if `query` is registered and contains
    /// `term`. Exposed for tests and benchmarks.
    pub fn local_threshold(&self, query: QueryId, term: TermId) -> Option<Weight> {
        let state = self.core.queries.get(query)?;
        let (_, theta) = state.thresholds.iter().find(|(t, _)| *t == term)?;
        Some(*theta)
    }

    /// Registers a batch under caller-chosen ids: refuses a duplicate id
    /// before anything is touched — the slab would *replace* the live
    /// query's state, under term references and tree entries taken for a
    /// query that then does not exist — keeps the ids [`Engine::register`]
    /// mints clear of the claimed ones, resolves the postings of the terms
    /// the batch brings live on the window (one [`WindowTerms::postings`]
    /// call, term-filtered lists only) and hands the batch to the core.
    ///
    /// # Panics
    ///
    /// Panics if any id is already registered or occurs twice in `batch`.
    fn register_shared(&mut self, batch: &[(QueryId, Arc<ContinuousQuery>)]) {
        let mut ids: Vec<QueryId> = batch.iter().map(|(qid, _)| *qid).collect();
        ids.sort_unstable();
        for (i, qid) in ids.iter().enumerate() {
            assert!(
                self.core.queries.get(*qid).is_none() && ids.get(i + 1) != Some(qid),
                "query id {qid} is already registered"
            );
        }
        if let Some(highest) = ids.last() {
            self.next_query = self.next_query.max(highest.0.saturating_add(1));
        }
        let terms = batch
            .iter()
            .flat_map(|(_, query)| query.terms().map(|(term, _)| term));
        let postings = if self.is_term_filtered() {
            let live = self.core.lists.live_terms();
            let fresh: Vec<TermId> = terms.filter(|term| !live.contains(*term)).collect();
            self.window.postings(fresh)
        } else {
            TermPostings::default()
        };
        self.core.register(&self.window, batch, &postings);
    }

    /// Audits the window's own structure ([`WindowTerms::check_invariants`])
    /// and the core's deep invariants against it (`ItaCore::check_invariants`,
    /// DESIGN.md §11). Driven by `cts-reference`'s lockstep runner when its
    /// `invariant-checks` feature (or its unit-test build) is active, and by
    /// this crate's unit tests; far too expensive for production paths.
    pub fn check_invariants(&self) {
        self.window.check_invariants();
        self.core.check_invariants(&self.window);
    }
}

impl Engine for ItaEngine {
    fn register(&mut self, query: ContinuousQuery) -> QueryId {
        let qid = QueryId(self.next_query);
        self.register_shared(&[(qid, Arc::new(query))]);
        qid
    }

    fn register_batch(&mut self, queries: Vec<ContinuousQuery>) -> Vec<QueryId> {
        let batch: Vec<(QueryId, Arc<ContinuousQuery>)> = (self.next_query..)
            .zip(queries)
            .map(|(id, query)| (QueryId(id), Arc::new(query)))
            .collect();
        self.register_shared(&batch);
        batch.iter().map(|(qid, _)| *qid).collect()
    }

    fn deregister(&mut self, query: QueryId) -> bool {
        self.core.deregister(query)
    }

    /// Appends the document (refusing a duplicate id before anything is
    /// touched), lets the core handle the arrival and every expiry the
    /// window policy makes at its timestamp, then pops the expired.
    fn process_document(&mut self, doc: Document) -> EventOutcome {
        let now = doc.arrival;
        let seq = self.window.push(Arc::new(doc));
        self.clock = now;
        let front = self
            .window
            .front_after(self.policy, self.window.front_seq(), seq + 1, now);
        let outcome = self.core.process(&self.window, seq, front);
        self.window.trim(front);
        outcome
    }

    fn current_results(&self, query: QueryId) -> Vec<RankedDocument> {
        self.core.current_results(query)
    }

    fn num_queries(&self) -> usize {
        self.core.num_queries()
    }

    fn num_valid_documents(&self) -> usize {
        self.window.len()
    }

    fn clock(&self) -> Timestamp {
        self.clock
    }

    fn name(&self) -> &'static str {
        "ita"
    }

    fn check_invariants(&self) {
        ItaEngine::check_invariants(self)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use cts_corpus::ScriptRng;
    use cts_index::DocId;
    use cts_text::WeightedVector;

    /// The descent before it kept a cursor per list: every step re-peeks
    /// every list from its θ, skipping the postings already in R, and
    /// collects the chosen tie group before examining it. The reference the
    /// cursor walk is held to (`run_threshold_search` runs both in unit-test
    /// builds).
    pub(super) fn restart_descent(view: &View, mut state: QueryState) -> QueryState {
        let live_postings = |term, theta| view.lists.live_postings(term, theta, view.front);
        let mut in_r: BTreeSet<u64> = state.results.iter().map(|e| e.seq).collect();
        loop {
            let mut peeks: Vec<Option<cts_index::Posting>> = Vec::new();
            let mut tau_next = 0.0;
            for (term, theta) in &state.thresholds {
                let peek = live_postings(*term, *theta).find(|p| !in_r.contains(&p.seq));
                if let Some(p) = peek {
                    tau_next += state.query.weight(*term).get() * p.weight.get();
                }
                peeks.push(peek);
            }
            let exhausted = peeks.iter().all(Option::is_none);
            if exhausted || state.results.kth_score() > tau_next {
                for ((_, theta), peek) in state.thresholds.iter_mut().zip(&peeks) {
                    *theta = peek.map(|p| p.weight).unwrap_or(Weight::ZERO);
                }
                return state;
            }
            let (slot, posting) = peeks
                .iter()
                .enumerate()
                .filter_map(|(i, p)| p.map(|p| (i, p)))
                .max_by(|(i, a), (j, b)| {
                    let ca = state.query.weight(state.thresholds[*i].0).get() * a.weight.get();
                    let cb = state.query.weight(state.thresholds[*j].0).get() * b.weight.get();
                    ca.partial_cmp(&cb).unwrap()
                })
                .unwrap();
            let (term, theta) = state.thresholds[slot];
            assert!(
                posting.weight <= theta,
                "a tie group at {} lies above θ={theta} of {term}: the list is out of order",
                posting.weight
            );
            let members: Vec<u64> = live_postings(term, posting.weight)
                .take_while(|p| p.weight == posting.weight)
                .map(|p| p.seq)
                .collect();
            for seq in members {
                if in_r.insert(seq) {
                    let doc = view.window.doc_at(seq);
                    let score = state.query.score(&doc.composition);
                    state.results.insert(seq, doc.id, score);
                    state.postings_examined += 1;
                }
            }
            state.thresholds[slot].1 = posting.weight;
        }
    }

    /// Equal θ (by bits), equal R (its layout is a function of its entries)
    /// and an equal count of postings examined.
    pub(super) fn assert_same_search(cursor: &QueryState, restart: &QueryState) {
        let thetas = |s: &QueryState| -> Vec<(TermId, u64)> {
            let bits = s
                .thresholds
                .iter()
                .map(|(t, theta)| (*t, theta.get().to_bits()));
            bits.collect()
        };
        assert_eq!(thetas(cursor), thetas(restart), "θ diverged");
        assert_eq!(cursor.results, restart.results, "R diverged");
        assert_eq!(
            cursor.postings_examined, restart.postings_examined,
            "postings examined diverged"
        );
    }

    fn doc(id: u64, terms: &[(u32, f64)]) -> Document {
        Document::new(
            DocId(id),
            Timestamp::from_millis(id),
            WeightedVector::from_weights(terms.iter().map(|&(t, w)| (TermId(t), w))),
        )
    }

    fn engine(window: usize) -> ItaEngine {
        ItaEngine::new(SlidingWindow::count_based(window), ItaConfig::default())
    }

    /// The worked example of the paper's §III (Figure 2): query {white,
    /// tower} with k = 2 over documents d1..d8.
    fn paper_lists_engine() -> (ItaEngine, QueryId) {
        let mut e = engine(100);
        // L_white (term 20) and L_tower (term 11) impact entries.
        let docs = [
            (1, vec![(11, 0.08), (20, 0.06)]),
            (2, vec![(11, 0.05), (20, 0.09)]),
            (3, vec![(20, 0.04)]),
            (5, vec![(11, 0.07)]),
            (6, vec![(11, 0.16), (20, 0.03)]),
            (7, vec![(11, 0.10)]),
            (8, vec![(11, 0.05)]),
            (9, vec![(20, 0.16)]),
        ];
        for (id, terms) in docs {
            e.process_document(doc(id, &terms));
        }
        let q = e.register(ContinuousQuery::from_weights(
            [(TermId(11), 0.447), (TermId(20), 0.894)],
            2,
        ));
        (e, q)
    }

    fn top_ids(e: &ItaEngine, q: QueryId) -> Vec<u64> {
        e.current_results(q).iter().map(|r| r.doc.0).collect()
    }

    /// Scores every valid document and ranks by score descending, then id
    /// ascending, as the reference oracle does.
    fn brute_force_top(e: &ItaEngine, query: &ContinuousQuery) -> Vec<u64> {
        let mut scored: Vec<(f64, u64)> = e
            .documents()
            .iter()
            .map(|d| (query.score(&d.composition), d.id.0))
            .filter(|(score, _)| *score > 0.0)
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        scored.iter().take(query.k()).map(|(_, id)| *id).collect()
    }

    #[test]
    fn initial_search_finds_the_true_top_k() {
        let (e, q) = paper_lists_engine();
        let top = e.current_results(q);
        assert_eq!(top.len(), 2);
        // d9 scores 0.894·0.16 ≈ 0.143; d2 scores 0.447·0.05 + 0.894·0.09 ≈ 0.103.
        assert_eq!(top[0].doc, DocId(9));
        assert_eq!(top[1].doc, DocId(2));
        assert!(top[0].score > top[1].score);
    }

    #[test]
    fn initial_search_reads_only_a_prefix() {
        let (e, q) = paper_lists_engine();
        let stats = e.query_stats(q).unwrap();
        // 8 documents are valid; the threshold search must not score all of
        // them (the paper's Figure 2 stops after 5 examinations).
        assert!(
            stats.postings_examined < 8,
            "examined {}",
            stats.postings_examined
        );
        assert!(stats.influence_threshold <= stats.kth_score + 1e-12);
    }

    #[test]
    fn arrival_crossing_the_frontier_updates_the_top_k() {
        let (mut e, q) = paper_lists_engine();
        let out = e.process_document(doc(20, &[(20, 0.17)]));
        assert_eq!(out.queries_touched_by_arrival, 1);
        assert_eq!(out.results_changed, 1);
        assert_eq!(top_ids(&e, q), vec![20, 9]);
    }

    #[test]
    fn arrival_below_the_frontier_is_ignored() {
        let (mut e, q) = paper_lists_engine();
        let before = top_ids(&e, q);
        let out = e.process_document(doc(21, &[(11, 0.001), (20, 0.001)]));
        assert_eq!(out.queries_touched_by_arrival, 0);
        assert_eq!(out.results_changed, 0);
        assert_eq!(top_ids(&e, q), before);
    }

    #[test]
    fn arrival_without_query_terms_is_ignored() {
        let (mut e, q) = paper_lists_engine();
        let out = e.process_document(doc(22, &[(99, 0.9)]));
        assert_eq!(out.queries_touched_by_arrival, 0);
        assert_eq!(top_ids(&e, q), vec![9, 2]);
    }

    #[test]
    fn expiration_of_top_k_document_triggers_refill() {
        let mut e = engine(3);
        let q = e.register(ContinuousQuery::from_weights([(TermId(1), 1.0)], 2));
        e.process_document(doc(0, &[(1, 0.9)]));
        e.process_document(doc(1, &[(1, 0.5)]));
        e.process_document(doc(2, &[(1, 0.7)]));
        assert_eq!(top_ids(&e, q), vec![0, 2]);
        // Window size 3: arrival of d3 expires d0 (the best document).
        let out = e.process_document(doc(3, &[(1, 0.1)]));
        assert_eq!(out.expired, 1);
        assert!(out.queries_touched_by_expiration >= 1);
        assert_eq!(top_ids(&e, q), vec![2, 1]);
        assert!(e.query_stats(q).unwrap().refills >= 1);
    }

    #[test]
    fn results_track_brute_force_over_a_churning_window() {
        let mut e = engine(10);
        let query = ContinuousQuery::from_weights([(TermId(2), 0.6), (TermId(5), 0.8)], 3);
        let q = e.register(query.clone());
        for i in 0..200u64 {
            let t1 = (i % 7) as u32;
            let t2 = ((i * 3 + 1) % 7) as u32;
            let w1 = 0.05 + (i % 13) as f64 * 0.03;
            let w2 = 0.05 + (i % 5) as f64 * 0.11;
            e.process_document(doc(i, &[(t1, w1), (t2, w2)]));
            assert_eq!(
                top_ids(&e, q),
                brute_force_top(&e, &query),
                "diverged at event {i}"
            );
        }
    }

    #[test]
    fn ita_brute_force_agreement_beyond_segment_capacity() {
        // A 400-document window over a 3-term vocabulary: each inverted list
        // grows far past the default segment capacity (128), and the discrete
        // weight palette produces tie runs much longer than one segment, so
        // the initial descent and the refill resume after a top-k expiration
        // both cross segment boundaries — including boundaries that cut
        // straight through a tie run.
        let mut e = engine(400);
        let query = ContinuousQuery::from_weights([(TermId(0), 0.7), (TermId(1), 0.3)], 5);
        let q = e.register(query.clone());
        for i in 0..1_200u64 {
            let w0 = 0.1 + (i % 4) as f64 * 0.2; // 4 distinct weights → long ties
            let w1 = 0.15 + (i % 3) as f64 * 0.25;
            e.process_document(doc(i, &[((i % 3) as u32, w0), (1, w1)]));
            if i % 50 == 0 || i > 1_100 {
                assert_eq!(
                    top_ids(&e, q),
                    brute_force_top(&e, &query),
                    "diverged at event {i}"
                );
            }
        }
        // The window really did force multi-segment lists. Tied to the real
        // capacity constant so this test fails loudly (instead of silently
        // losing its purpose) if the default segment size is ever raised
        // past what this window produces.
        let stats = e.index_stats();
        assert!(
            stats.longest_list > cts_index::segmented::DEFAULT_SEGMENT_CAPACITY,
            "longest list {} never crossed a segment boundary",
            stats.longest_list
        );
        let s = e.query_stats(q).unwrap();
        assert!(s.refills > 0, "no refill crossed a boundary");
    }

    /// The cursor walk against the restart-at-θ reference, on lists built to
    /// trip a cursor (every search of this build runs both, see
    /// `run_threshold_search`). A four-weight palette over a 400-document
    /// window makes tie runs of ≈ 70 postings in lists two or three segments
    /// long, so runs straddle segment boundaries; query terms weigh alike, so
    /// lists tie for the largest contribution and the tie-break decides which
    /// is read. Queries register into an empty, a filling and a full window,
    /// and the stream expires their top-k again and again: registration and
    /// refill searches both meet the reference.
    #[test]
    fn cursor_descent_matches_the_restart_descent_on_tie_runs() {
        let mut rng = ScriptRng::new(0x17A_C0DE);
        let palette = [0.2, 0.4, 0.6, 0.8];
        let mut e = engine(400);
        let mut registered = Vec::new();
        for i in 0..1_600u64 {
            if i % 80 == 0 {
                let mut terms: Vec<u32> = (0..5).filter(|_| rng.chance(0.6)).collect();
                if terms.is_empty() {
                    terms.push(rng.below(5) as u32);
                }
                let alike = *rng.pick(&[0.5, 1.0]);
                let query = ContinuousQuery::from_weights(
                    terms.iter().map(|&t| (TermId(t), alike)),
                    rng.range(1, 8),
                );
                registered.push((e.register(query.clone()), query));
            }
            let mut terms: Vec<(u32, f64)> = Vec::new();
            for t in 0..5 {
                if rng.chance(0.7) {
                    terms.push((t, *rng.pick(&palette)));
                }
            }
            if terms.is_empty() {
                terms.push((rng.below(5) as u32, *rng.pick(&palette)));
            }
            e.process_document(doc(i, &terms));
            if i % 97 == 0 {
                for (q, query) in &registered {
                    assert_eq!(top_ids(&e, *q), brute_force_top(&e, query), "event {i}");
                }
            }
        }
        let longest = e.index_stats().longest_list;
        assert!(
            longest > 2 * cts_index::segmented::DEFAULT_SEGMENT_CAPACITY,
            "longest list {longest} spans fewer than three segments"
        );
        let refills: u64 = registered
            .iter()
            .map(|(q, _)| e.query_stats(*q).unwrap().refills)
            .sum();
        assert!(refills > 100, "only {refills} refills met the reference");
    }

    /// One descent that builds an R of thousands, against the restart
    /// reference (every search of this build runs both) and the audit. Both
    /// query terms are in every document with weights that add up to about
    /// the same score, so τ stays above S_k until the lists are half read;
    /// a stream of arrivals and expiries then refills on top of that R.
    #[test]
    fn a_descent_that_builds_an_r_of_thousands_stays_exact() {
        let window = 3_000;
        let mut rng = ScriptRng::new(0x26_0001);
        let mut e = engine(window);
        let next_doc = |e: &mut ItaEngine, id: u64, rng: &mut ScriptRng| {
            let a = rng.below(100) as f64 / 250.0;
            let noise = rng.below(4) as f64 / 1_000.0;
            let filler = 3 + rng.below(50) as u32;
            e.process_document(doc(
                id,
                &[(1, 0.3 + a), (2, 0.7 - a + noise), (filler, 0.5)],
            ));
        };
        for id in 0..window as u64 {
            next_doc(&mut e, id, &mut rng);
        }
        let query = ContinuousQuery::from_weights([(TermId(1), 0.5), (TermId(2), 0.5)], 10);
        let q = e.register(query.clone());
        let size = e.query_stats(q).unwrap().result_set_size;
        assert!(size > 1_000, "the descent filed only {size} documents");
        e.check_invariants();
        assert_eq!(top_ids(&e, q), brute_force_top(&e, &query));
        for id in window as u64..window as u64 + 300 {
            next_doc(&mut e, id, &mut rng);
        }
        e.check_invariants();
        assert_eq!(top_ids(&e, q), brute_force_top(&e, &query));
        assert!(e.query_stats(q).unwrap().refills > 0, "no refill ran");
    }

    #[test]
    fn invariant_every_document_above_a_threshold_is_in_r() {
        let mut e = engine(20);
        let q = e.register(ContinuousQuery::from_weights(
            [(TermId(1), 0.5), (TermId(2), 0.5)],
            2,
        ));
        for i in 0..100u64 {
            e.process_document(doc(
                i,
                &[
                    ((i % 3) as u32, 0.1 + (i % 11) as f64 * 0.05),
                    (3 + (i % 2) as u32, 0.2),
                ],
            ));
            let state = e.core.queries.get(q).unwrap();
            for (term, theta) in &state.thresholds {
                let all = Weight::new(f64::INFINITY);
                for p in e.core.lists.live_postings(*term, all, e.core.front) {
                    let doc = e.window.id_at(p.seq);
                    if p.weight > *theta {
                        assert!(
                            state.results.iter().any(|e| e.seq == p.seq),
                            "event {i}: {doc} above θ={theta} in {term} missing from R",
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn term_filtered_engine_matches_unfiltered_through_churn() {
        let mut full = engine(12);
        let mut filtered = ItaEngine::term_filtered(SlidingWindow::count_based(12));
        assert!(filtered.is_term_filtered() && !full.is_term_filtered());
        let q1 = ContinuousQuery::from_weights([(TermId(0), 0.7), (TermId(1), 0.3)], 3);
        let q2 = ContinuousQuery::from_weights([(TermId(2), 1.0)], 2);
        let feed = |full: &mut ItaEngine, filtered: &mut ItaEngine, lo: u64, hi: u64| {
            for i in lo..hi {
                let d = doc(
                    i,
                    &[
                        ((i % 5) as u32, 0.1 + (i % 7) as f64 * 0.07),
                        (5 + (i % 3) as u32, 0.2 + (i % 4) as f64 * 0.05),
                    ],
                );
                let a = full.process_document(d.clone());
                let b = filtered.process_document(d);
                assert_eq!(a, b, "outcomes diverged at event {i}");
            }
        };
        // Pre-registration traffic: the filtered index files nothing.
        feed(&mut full, &mut filtered, 0, 30);
        assert_eq!(filtered.index_stats().postings, 0);
        assert!(full.index_stats().postings > 0);
        // Late registration must backfill the window it never indexed.
        let a1 = full.register(q1.clone());
        let b1 = filtered.register(q1);
        assert_eq!(a1, b1);
        assert_eq!(full.query_stats(a1), filtered.query_stats(b1));
        feed(&mut full, &mut filtered, 30, 60);
        assert_eq!(full.current_results(a1), filtered.current_results(b1));
        // A second query brings a new term live mid-stream...
        let a2 = full.register(q2.clone());
        let b2 = filtered.register(q2);
        feed(&mut full, &mut filtered, 60, 90);
        assert_eq!(full.current_results(a2), filtered.current_results(b2));
        // ...and deregistering the first retires its last-reference lists.
        assert!(full.deregister(a1) && filtered.deregister(b1));
        feed(&mut full, &mut filtered, 90, 120);
        assert_eq!(full.current_results(a2), filtered.current_results(b2));
        assert_eq!(full.query_stats(a2), filtered.query_stats(b2));
        // The shadow maintains strictly fewer postings than the full index.
        assert!(filtered.index_stats().postings < full.index_stats().postings);
        assert_eq!(
            filtered.index_stats().documents,
            full.index_stats().documents
        );
    }

    #[test]
    fn a_duplicate_document_id_leaves_the_engine_as_it_was() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for mut e in [
            engine(8),
            ItaEngine::term_filtered(SlidingWindow::count_based(8)),
        ] {
            let query = ContinuousQuery::from_weights([(TermId(1), 0.5), (TermId(2), 0.5)], 2);
            let q = e.register(query.clone());
            for i in 0..5u64 {
                e.process_document(doc(i, &[(1, 0.1 + i as f64 * 0.1), (3, 0.5)]));
            }
            let (postings, clock, top) = (e.index_stats().postings, e.clock(), top_ids(&e, q));
            // Same id as a valid document, other contents: refused before the
            // store, a list, a tree probe or the clock has moved.
            let duplicate = doc(3, &[(1, 0.9), (2, 0.9), (4, 0.9)]);
            let refused = catch_unwind(AssertUnwindSafe(|| e.process_document(duplicate)));
            assert!(refused.is_err(), "a duplicate id must not be accepted");
            e.check_invariants();
            assert_eq!(e.index_stats().postings, postings);
            assert_eq!((e.clock(), e.num_valid_documents()), (clock, 5));
            assert_eq!(top_ids(&e, q), top);
            // And the engine keeps working.
            e.process_document(doc(5, &[(2, 0.8)]));
            assert_eq!(top_ids(&e, q), brute_force_top(&e, &query));
            e.check_invariants();
        }
    }

    #[test]
    fn a_duplicate_query_id_leaves_the_engine_as_it_was() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for mut e in [
            engine(8),
            ItaEngine::term_filtered(SlidingWindow::count_based(8)),
        ] {
            let query = ContinuousQuery::from_weights([(TermId(1), 0.5), (TermId(2), 0.5)], 2);
            let q = e.register(query.clone());
            for i in 0..5u64 {
                e.process_document(doc(i, &[(1, 0.1 + i as f64 * 0.1), (3, 0.5)]));
            }
            // A query over other terms, some of them in the window: taking
            // its references would bring terms live and file their lists.
            let other = ContinuousQuery::from_weights([(TermId(3), 0.9), (TermId(4), 0.1)], 1);
            let (stats, top, thresholds) = (e.index_stats(), top_ids(&e, q), e.query_stats(q));
            let fresh = QueryId(q.0 + 1);
            type Attempt<'a> = Box<dyn FnOnce(&mut ItaEngine) + 'a>;
            let attempts: [(&str, Attempt); 3] = [
                (
                    "a burst of one naming the live id",
                    Box::new(|e| {
                        let batch = [(q, Arc::new(other.clone()))];
                        e.register_shared(&batch)
                    }),
                ),
                (
                    "a batch naming a live id after a fresh one",
                    Box::new(|e| {
                        let batch = [fresh, q].map(|id| (id, Arc::new(other.clone())));
                        e.register_shared(&batch)
                    }),
                ),
                (
                    "a batch naming one fresh id twice",
                    Box::new(|e| {
                        let batch = [fresh, fresh].map(|id| (id, Arc::new(other.clone())));
                        e.register_shared(&batch)
                    }),
                ),
            ];
            for (name, attempt) in attempts {
                let refused = catch_unwind(AssertUnwindSafe(|| attempt(&mut e)));
                assert!(refused.is_err(), "{name} accepted a duplicate id");
                e.check_invariants();
                assert_eq!(e.index_stats(), stats, "{name} touched the index");
                assert_eq!(e.num_queries(), 1, "{name} left a query behind");
                assert_eq!(top_ids(&e, q), top, "{name} changed the live query");
                assert_eq!(e.query_stats(q), thresholds);
            }
            // And the engine keeps working, the refused id still free.
            e.process_document(doc(5, &[(2, 0.8)]));
            assert_eq!(top_ids(&e, q), brute_force_top(&e, &query));
            assert_eq!(e.register(other.clone()), fresh);
            e.check_invariants();
        }
    }

    #[test]
    fn default_process_batch_is_the_per_event_loop() {
        let mut batched = engine(6);
        let mut singles = engine(6);
        let qa = batched.register(ContinuousQuery::from_weights([(TermId(1), 1.0)], 2));
        let qb = singles.register(ContinuousQuery::from_weights([(TermId(1), 1.0)], 2));
        let docs: Vec<Document> = (0..10u64)
            .map(|i| doc(i, &[(1, 0.1 + (i % 4) as f64 * 0.2)]))
            .collect();
        let expected: Vec<EventOutcome> = docs
            .clone()
            .into_iter()
            .map(|d| singles.process_document(d))
            .collect();
        assert_eq!(batched.process_batch(docs), expected);
        assert_eq!(batched.current_results(qa), singles.current_results(qb));
        assert!(batched.process_batch(Vec::new()).is_empty());
    }

    /// Registers `query` under a caller-chosen id, as a shard does.
    fn register_with_id(e: &mut ItaEngine, qid: QueryId, query: ContinuousQuery) {
        e.register_shared(&[(qid, Arc::new(query))]);
    }

    #[test]
    fn register_with_id_controls_the_id_space() {
        let mut e = engine(4);
        register_with_id(
            &mut e,
            QueryId(7),
            ContinuousQuery::from_weights([(TermId(1), 1.0)], 1),
        );
        // Fresh ids never collide with externally assigned ones.
        let next = e.register(ContinuousQuery::from_weights([(TermId(2), 1.0)], 1));
        assert_eq!(next, QueryId(8));
        assert_eq!(e.num_queries(), 2);
        assert!(e.deregister(QueryId(7)));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_register_with_id_panics() {
        let mut e = engine(4);
        register_with_id(
            &mut e,
            QueryId(3),
            ContinuousQuery::from_weights([(TermId(1), 1.0)], 1),
        );
        register_with_id(
            &mut e,
            QueryId(3),
            ContinuousQuery::from_weights([(TermId(2), 1.0)], 1),
        );
    }

    #[test]
    fn deregister_removes_tree_entries() {
        let (mut e, q) = paper_lists_engine();
        assert!(!e.core.trees.is_empty());
        assert!(e.deregister(q));
        assert!(!e.deregister(q));
        assert!(e.core.trees.is_empty());
        assert!(e.current_results(q).is_empty());
        assert_eq!(e.num_queries(), 0);
        // The stream keeps flowing without touching the removed query.
        let out = e.process_document(doc(30, &[(20, 0.5)]));
        assert_eq!(out.queries_touched_by_arrival, 0);
    }

    #[test]
    fn queries_registered_on_empty_window_pick_up_arrivals() {
        let mut e = engine(5);
        let q = e.register(ContinuousQuery::from_weights([(TermId(7), 1.0)], 2));
        assert!(e.current_results(q).is_empty());
        e.process_document(doc(0, &[(7, 0.4)]));
        e.process_document(doc(1, &[(8, 0.9)]));
        e.process_document(doc(2, &[(7, 0.6)]));
        assert_eq!(top_ids(&e, q), vec![2, 0]);
    }

    #[test]
    fn fewer_than_k_matches_returns_fewer_results() {
        let mut e = engine(5);
        let q = e.register(ContinuousQuery::from_weights([(TermId(7), 1.0)], 3));
        e.process_document(doc(0, &[(7, 0.4)]));
        e.process_document(doc(1, &[(9, 0.4)]));
        let top = e.current_results(q);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].doc, DocId(0));
    }

    #[test]
    fn clock_and_counts_are_reported() {
        let mut e = engine(2);
        assert_eq!(e.clock(), Timestamp::ZERO);
        assert_eq!(e.name(), "ita");
        e.process_document(doc(5, &[(0, 0.5)]));
        assert_eq!(e.clock(), Timestamp::from_millis(5));
        assert_eq!(e.num_valid_documents(), 1);
    }

    /// A term-filtered engine whose window holds `hits` documents carrying
    /// `term` among `filler` documents that do not.
    fn filtered_window(term: u32, hits: u64, filler: u64) -> ItaEngine {
        let total = hits + filler;
        let mut e = ItaEngine::term_filtered(SlidingWindow::count_based(total as usize + 1));
        for i in 0..total {
            // Spread the hits across the window; fillers use a disjoint,
            // rotating vocabulary so the window is never degenerate.
            if i % (total / hits.max(1)).max(1) == 0 && i / (total / hits.max(1)).max(1) < hits {
                e.process_document(doc(i, &[(term, 0.2 + (i % 5) as f64 * 0.1)]));
            } else {
                e.process_document(doc(i, &[(1000 + (i % 7) as u32, 0.5)]));
            }
        }
        e
    }

    /// The satellite regression this PR's counter exists for: registration
    /// cost must scale with the postings of the lists the query actually
    /// probes, never with the window size the old eager scan paid.
    #[test]
    fn registration_cost_scales_with_probed_postings_not_window_size() {
        let hits = 8u64;
        let mut small = filtered_window(7, hits, 100);
        let mut large = filtered_window(7, hits, 400);
        assert_eq!(small.index_stats().register_postings_touched, 0);
        small.register(ContinuousQuery::from_weights([(TermId(7), 1.0)], 2));
        large.register(ContinuousQuery::from_weights([(TermId(7), 1.0)], 2));
        assert_eq!(
            small.index_stats().register_postings_touched,
            hits,
            "registration filed more postings than the term occurs"
        );
        assert_eq!(
            small.index_stats().register_postings_touched,
            large.index_stats().register_postings_touched,
            "registration cost moved with window size"
        );
    }

    #[test]
    fn a_burst_of_same_term_queries_backfills_the_list_once() {
        let hits = 8u64;
        let mut e = filtered_window(7, hits, 100);
        let queries: Vec<ContinuousQuery> = (1..=20)
            .map(|k| ContinuousQuery::from_weights([(TermId(7), 1.0)], (k % 3) + 1))
            .collect();
        let ids = e.register_batch(queries);
        assert_eq!(ids.len(), 20);
        // One walk serves the whole burst: the cost is one list's postings
        // and one window's entries, not 20 of either.
        assert_eq!(e.index_stats().register_postings_touched, hits);
        assert_eq!(e.index_stats().register_entries_walked, hits + 100);
        // And the loop path agrees — the second and later registrations find
        // the term already live and file nothing.
        let mut looped = filtered_window(7, hits, 100);
        for k in 1..=20u32 {
            looped.register(ContinuousQuery::from_weights(
                [(TermId(7), 1.0)],
                ((k % 3) + 1) as usize,
            ));
        }
        assert_eq!(looped.index_stats().register_postings_touched, hits);
    }

    /// Postings resolved by another window over the same documents are
    /// filed as they are: the engine's own window walks nothing, and the
    /// core ends up in the state the engine's own resolution leaves.
    #[test]
    fn supplied_postings_replace_the_store_walk_exactly() {
        let hits = 8u64;
        let mut walked = filtered_window(7, hits, 100);
        let mut supplied = filtered_window(7, hits, 100);
        let mut window = cts_index::WindowTerms::with_shape(16, usize::MAX);
        for doc in supplied.documents().iter() {
            window.push(Arc::clone(doc));
        }
        let batch: Vec<(QueryId, Arc<ContinuousQuery>)> = (0..5u32)
            .map(|i| {
                let query = ContinuousQuery::from_weights(
                    [(TermId(7), 0.8), (TermId(1000 + i), 0.6), (TermId(5), 0.1)],
                    2,
                );
                (QueryId(i), Arc::new(query))
            })
            .collect();
        let terms: Vec<TermId> = batch
            .iter()
            .flat_map(|(_, query)| query.terms().map(|(term, _)| term))
            .collect();
        // Twice: the second answer comes out of the directories.
        window.postings(terms.iter().copied());
        let postings = window.postings(terms);
        supplied.core.register(&supplied.window, &batch, &postings);
        walked.register_shared(&batch);
        assert_eq!(supplied.index_stats().register_entries_walked, 0);
        assert_eq!(walked.index_stats().register_entries_walked, hits + 100);
        assert_eq!(
            supplied.index_stats().register_postings_touched,
            walked.index_stats().register_postings_touched
        );
        for (qid, _) in &batch {
            assert_eq!(supplied.current_results(*qid), walked.current_results(*qid));
            assert_eq!(supplied.query_stats(*qid), walked.query_stats(*qid));
        }
        supplied.check_invariants();
        for i in 200..260u64 {
            let d = doc(i, &[(7, 0.1 + (i % 7) as f64 * 0.1), (1002, 0.3)]);
            assert_eq!(
                supplied.process_document(d.clone()),
                walked.process_document(d)
            );
        }
        for (qid, _) in &batch {
            assert_eq!(supplied.current_results(*qid), walked.current_results(*qid));
        }
    }
}
