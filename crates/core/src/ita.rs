//! The Incremental Threshold Algorithm (paper §III).
//!
//! [`ItaEngine`] maintains, for every registered query `Q`:
//!
//! * a result set `R` ([`crate::ResultSet`]) holding the verified top-k
//!   **and** every other valid document lying above the query's search
//!   frontier (the paper's *unverified* documents);
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
//! Every list access above goes through the impact-list API of `cts_index`
//! (`iter_at_or_below`, …), which since PR 3 is backed by *segmented* impact
//! lists: descent cursors transparently cross segment boundaries —
//! including equal-weight tie runs that a segment split leaves straddling
//! two segments — while a head-term arrival/expiration shifts at most one
//! segment instead of a window-length `Vec` tail. The engine code is
//! layout-agnostic; the `ita_brute_force_agreement_beyond_segment_capacity`
//! test pins the boundary behaviour at engine level.

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
    DenseArena, Document, InvertedIndex, QueryId, SlidingWindow, TermPostings, ThresholdTree,
    Timestamp,
};
use cts_text::{TermId, Weight, WeightedTerm};

use crate::engine::{Engine, EventOutcome};
use crate::query::ContinuousQuery;
use crate::result::{RankedDocument, ResultSet};
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
    results: ResultSet,
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

/// The paper's monitoring algorithm.
#[derive(Debug, Clone)]
pub struct ItaEngine {
    window: SlidingWindow,
    /// The inverted index, which also owns the engine's **live-term set**
    /// (`index.live_terms()`): one reference per (registered query, term),
    /// a bit per term flipped where a count crosses zero, and the key space
    /// of every per-term arena — term ids on a plain engine, compact live
    /// slots on a term-filtered one (see `cts_index::arena`).
    index: InvertedIndex,
    /// One threshold tree per live term, keyed like the index's lists.
    trees: DenseArena<ThresholdTree>,
    queries: QuerySlab<QueryState>,
    /// Reused per-event buffer for the affected-query probe; kept on the
    /// engine so steady-state event processing allocates nothing.
    scratch: Vec<QueryId>,
    /// Reused per-event buffer: the live entries of the document being
    /// handled — its one intersection with the live-term set, which the
    /// index filing loop, the threshold probe and arrival scoring all walk.
    live_entries: Vec<WeightedTerm>,
    next_query: u32,
    clock: Timestamp,
}

impl ItaEngine {
    /// Creates an engine with the given sliding-window policy. The
    /// [`ItaConfig`] is empty and ignored.
    pub fn new(window: SlidingWindow, _config: ItaConfig) -> Self {
        Self::over(window, InvertedIndex::new())
    }

    /// The index fixes the key space of every per-term structure, so it is
    /// the one thing the two constructors choose.
    fn over(window: SlidingWindow, index: InvertedIndex) -> Self {
        Self {
            window,
            index,
            trees: DenseArena::new(),
            queries: QuerySlab::new(),
            scratch: Vec::new(),
            live_entries: Vec::new(),
            next_query: 0,
            clock: Timestamp::ZERO,
        }
    }

    /// Creates a **term-filtered** engine: the inverted index files postings
    /// only for terms referenced by at least one registered query
    /// (registration files a new term's list from postings the caller
    /// supplies or, failing that, resolves them through the index's own
    /// `cts_index::WindowTerms`, as the sharded coordinator does;
    /// deregistration retires lists whose last referencing query left). For
    /// its registered queries it is exactly equivalent to an unfiltered
    /// engine — every list a query's threshold search or probe can touch is
    /// complete — while skipping index maintenance for the (large)
    /// majority of composition terms no query watches, and keying lists,
    /// threshold trees and reference counts by compact live slots so their
    /// memory follows the live terms instead of the vocabulary. This is the
    /// shard configuration of [`crate::ShardedItaEngine`].
    pub fn term_filtered(window: SlidingWindow) -> Self {
        Self::over(window, InvertedIndex::term_filtered())
    }

    /// Whether this engine maintains a term-filtered (shadow) index.
    pub fn is_term_filtered(&self) -> bool {
        self.index.is_term_filtered()
    }

    /// The sliding-window policy in force.
    pub fn window(&self) -> SlidingWindow {
        self.window
    }

    /// A snapshot of `query`'s bookkeeping, if it is registered.
    pub fn query_stats(&self, query: QueryId) -> Option<ItaQueryStats> {
        let state = self.queries.get(query)?;
        Some(ItaQueryStats {
            result_set_size: state.results.len(),
            kth_score: state.results.kth_score(state.query.k()),
            influence_threshold: state.tau(),
            arrivals_examined: state.arrivals_examined,
            expirations_examined: state.expirations_examined,
            refills: state.refills,
            postings_examined: state.postings_examined,
        })
    }

    /// A point-in-time summary of the inverted index (documents, lists,
    /// postings) and of how the per-term tables are sized (`live_terms`
    /// against `list_slots` / `tree_slots`). Exposed for the sweep harness,
    /// soak tests and the memory-shape regression test.
    pub fn index_stats(&self) -> cts_index::IndexStats {
        cts_index::IndexStats {
            tree_slots: self.trees.slot_capacity(),
            ..self.index.stats()
        }
    }

    /// Impact entries filed by the registration-path backfills of this
    /// engine's index so far — the registration-cost regression counter (see
    /// [`cts_index::InvertedIndex::register_postings_touched`]). Always 0 on
    /// unfiltered engines.
    pub fn register_postings_touched(&self) -> u64 {
        self.index.register_postings_touched()
    }

    /// Composition entries this engine's window walked to resolve postings
    /// no caller supplied (see
    /// [`cts_index::InvertedIndex::register_entries_walked`]): the chunks
    /// without a term directory per call, and 0 on a shard whose
    /// coordinator ships them.
    pub fn register_entries_walked(&self) -> u64 {
        self.index.register_entries_walked()
    }

    /// Iterates over the currently valid documents in arrival order.
    /// Exposed so validation harnesses (e.g. the paper-scale soak) can
    /// re-evaluate queries against the engine's own window without keeping a
    /// second copy of it.
    pub fn store_documents(&self) -> impl Iterator<Item = &Document> {
        self.index.documents().iter().map(|doc| &**doc)
    }

    /// The local threshold `θ_{Q,t}`, if `query` is registered and contains
    /// `term`. Exposed for tests and benchmarks.
    pub fn local_threshold(&self, query: QueryId, term: TermId) -> Option<Weight> {
        self.queries
            .get(query)?
            .thresholds
            .iter()
            .find(|(t, _)| *t == term)
            .map(|(_, theta)| *theta)
    }

    /// Runs (or resumes) the threshold search for `qid` until `S_k ≥ τ`,
    /// then reconciles the per-list threshold trees with the new frontier.
    fn run_threshold_search(&mut self, qid: QueryId, register: bool) {
        #[expect(
            clippy::expect_used,
            reason = "callers pass ids taken from the live query slab"
        )]
        let state = self.queries.get_mut(qid).expect("query exists");
        let before: Vec<Weight> = state.thresholds.iter().map(|(_, theta)| *theta).collect();
        // Unit-test builds run every search twice, once by the restart-at-θ
        // reference, and hold the two to the same θ, R and count.
        #[cfg(test)]
        let reference = tests::restart_descent(&self.index, state.clone());
        threshold_descent(&self.index, state);
        #[cfg(test)]
        tests::assert_same_search(state, &reference);
        let live = self.index.live_terms();
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
        let live = self.index.live_terms();
        for entry in &self.live_entries {
            if let Some(tree) = live.key(entry.term).and_then(|key| self.trees.get(key)) {
                self.scratch
                    .extend(tree.affected_by(entry.weight).map(|hit| hit.query));
            }
        }
        self.scratch.sort_unstable();
        self.scratch.dedup();
    }

    /// Handles the arrival side of one stream event. The document is already
    /// in the index and its live entries are in `self.live_entries` — all an
    /// affected query needs to score it, bit for bit (every term of a
    /// registered query is live). Returns `(queries_touched, results_changed)`.
    fn handle_arrival(&mut self, doc: &Document) -> (usize, usize) {
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
            state.results.insert(doc.id, score);
            if state.results.is_in_top_k(doc.id, state.query.k()) {
                changed += 1;
            }
        }
        self.scratch = affected;
        self.live_entries = entries;
        (touched, changed)
    }

    /// Handles one expiration. The document has already been removed from
    /// the index, which left its entries live *now* in `self.live_entries`.
    /// Returns `(queries_touched, results_changed)`.
    fn handle_expiration(&mut self, doc: &Document) -> (usize, usize) {
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
            if !state.results.contains(doc.id) {
                // The document sat exactly on the frontier without having
                // been examined; nothing to repair.
                continue;
            }
            let was_top_k = state.results.is_in_top_k(doc.id, state.query.k());
            state.results.remove(doc.id);
            if was_top_k {
                changed += 1;
                state.refills += 1;
                self.run_threshold_search(qid, false);
            }
        }
        self.scratch = affected;
        (touched, changed)
    }
}

/// Runs the (initial or resumed) threshold search: repeatedly examines the
/// highest-impact unexamined posting among the query's lists, maintaining
/// `R` and the frontier, until `S_k ≥ τ` or the lists are exhausted.
///
/// Each list is read through **one cursor** for the whole search, opened at
/// its frontier (`iter_at_or_below(θ)`: ties at the frontier may or may not
/// have been examined). `R` only grows while the search runs and every
/// posting behind a cursor is in `R`, so a step skips `R`-members only from
/// where each cursor stands, and only the chosen list advances — through its
/// tie group. No posting is read twice and no step allocates.
fn threshold_descent(index: &InvertedIndex, state: &mut QueryState) {
    let k = state.query.k();
    let mut cursors: Vec<_> = state
        .thresholds
        .iter()
        .map(|&(term, theta)| {
            index
                .list(term)
                .into_iter()
                .flat_map(move |list| list.iter_at_or_below(theta))
                .peekable()
        })
        .collect();
    loop {
        // The bound over the best unexamined posting of each list, and the
        // list whose posting contributes most — the last of equal maxima.
        let mut tau_next = 0.0;
        let mut best: Option<(usize, f64, Weight)> = None;
        for (slot, cursor) in cursors.iter_mut().enumerate() {
            while cursor.next_if(|p| state.results.contains(p.doc)).is_some() {}
            let Some(peek) = cursor.peek() else {
                continue;
            };
            let (term, _) = state.thresholds[slot];
            let contribution = state.query.weight(term).get() * peek.weight.get();
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
        let Some((slot, _, group_weight)) = best.filter(|_| state.results.kth_score(k) <= tau_next)
        else {
            // Done: snap every local threshold to its cursor's frontier
            // (every posting strictly above it is in R).
            for ((_, theta), cursor) in state.thresholds.iter_mut().zip(&mut cursors) {
                *theta = cursor.peek().map_or(Weight::ZERO, |p| p.weight);
            }
            return;
        };

        // Examine the full tie group at that weight so the frontier is exact:
        // afterwards, every posting strictly above θ is guaranteed to be in R.
        while let Some(posting) = cursors[slot].next_if(|p| p.weight == group_weight) {
            if state.results.contains(posting.doc) {
                continue;
            }
            #[expect(
                clippy::expect_used,
                reason = "postings only reference valid documents"
            )]
            let composition = &index
                .documents()
                .get(posting.doc)
                .expect("indexed documents are valid")
                .composition;
            let score = state.query.score(composition);
            state.results.insert(posting.doc, score);
            state.postings_examined += 1;
        }
        state.thresholds[slot].1 = group_weight;
    }
}

impl ItaEngine {
    /// Registers `query` under a caller-chosen id — the sharded engine
    /// assigns ids globally and routes each query to one shard, so the shard
    /// must not mint its own. Ids handed out by a later [`Engine::register`]
    /// never collide with ids registered this way. A burst of one through
    /// [`ItaEngine::register_shared_batch`], with no postings supplied.
    ///
    /// # Panics
    ///
    /// Panics if `qid` is already registered — before anything is touched.
    pub fn register_with_id(&mut self, qid: QueryId, query: ContinuousQuery) {
        self.register_shared_batch(&[(qid, Arc::new(query))], &TermPostings::default());
    }

    /// Registers a whole batch of queries under caller-chosen ids, over
    /// queries the caller keeps a handle on — the engine stores a refcount
    /// bump per query, not a copy. All of the batch's newly-live terms are
    /// filed first, in one call, and only then do the per-query threshold
    /// searches run — each byte-identical to the one a lone
    /// [`ItaEngine::register_with_id`] would have run, because registration
    /// reads the index and writes only the registering query's own state.
    ///
    /// `postings` are the window's postings as the caller resolved them: the
    /// sharded coordinator resolves a burst's terms against its own copy of
    /// the window (`cts_index::WindowTerms`), so no shard resolves any.
    /// They must describe exactly the documents this engine holds; terms they
    /// do not cover (all of them, when empty — what [`Engine::register_batch`]
    /// passes) a term-filtered engine resolves in **one call** on its own
    /// `WindowTerms`, which answers from term directories where built and
    /// walks the rest (DESIGN.md §9 has the cost model). A plain engine keeps
    /// every list current and ignores them.
    ///
    /// # Panics
    ///
    /// Panics if any id is already registered or occurs twice in `batch` —
    /// before anything is touched.
    pub fn register_shared_batch(
        &mut self,
        batch: &[(QueryId, Arc<ContinuousQuery>)],
        postings: &TermPostings,
    ) {
        self.claim_ids(batch.iter().map(|(qid, _)| *qid).collect());
        self.index.acquire_terms(
            batch
                .iter()
                .flat_map(|(_, query)| query.terms().map(|(term, _)| term)),
            postings,
        );
        for (qid, query) in batch {
            self.finish_register(*qid, Arc::clone(query));
        }
    }

    /// Refuses a duplicate id before anything is touched — `QuerySlab::insert`
    /// would *replace* the live query's state, under term references and tree
    /// entries taken for a query that then does not exist — and keeps the ids
    /// [`Engine::register`] mints clear of the claimed ones.
    fn claim_ids(&mut self, mut ids: Vec<QueryId>) {
        ids.sort_unstable();
        for (i, qid) in ids.iter().enumerate() {
            assert!(
                self.queries.get(*qid).is_none() && ids.get(i + 1) != Some(qid),
                "query id {qid} is already registered"
            );
        }
        if let Some(highest) = ids.last() {
            self.next_query = self.next_query.max(highest.0.saturating_add(1));
        }
    }

    /// The tail of registration, once the query's terms are live: record the
    /// query state and run its initial threshold search.
    fn finish_register(&mut self, qid: QueryId, query: Arc<ContinuousQuery>) {
        let thresholds = query
            .terms()
            .map(|(t, _)| (t, Weight::new(f64::INFINITY)))
            .collect();
        self.queries.insert(
            qid,
            QueryState {
                query,
                results: ResultSet::new(),
                thresholds,
                arrivals_examined: 0,
                expirations_examined: 0,
                refills: 0,
                postings_examined: 0,
            },
        );
        self.run_threshold_search(qid, true);
    }

    /// Processes one already-shared stream event — the fan-out path of the
    /// sharded engine, where every shard receives the same `Arc`'d document
    /// and the window's composition lists exist once in memory no matter how
    /// many shards mirror them. [`Engine::process_document`] wraps and
    /// delegates here.
    ///
    /// The arriving document, and later each expiring one, is intersected
    /// with the live-term set **once**; filing, the threshold probe and
    /// arrival scoring then cost what the document's *matching* terms make
    /// them cost. The full `Arc<Document>` stays in the window for what needs
    /// all of it: postings resolution and `threshold_descent`'s
    /// random-access scoring. Expiry then pops the oldest documents while
    /// the window policy calls them stale, one at a time.
    ///
    /// # Panics
    ///
    /// Panics if a document with the same id is still in the window — before
    /// the index or any query state is touched.
    pub fn process_shared(&mut self, doc: Arc<Document>) -> EventOutcome {
        let mut outcome = EventOutcome {
            arrived: doc.id,
            ..EventOutcome::default()
        };

        // One pass over the composition list, against the live-term bitmap;
        // from here on the event walks the document's live entries. First,
        // because this is where a duplicate id is refused.
        self.index.insert_arrival(&doc, &mut self.live_entries);
        self.clock = doc.arrival;
        let (touched, changed) = self.handle_arrival(&doc);
        outcome.queries_touched_by_arrival = touched;
        outcome.results_changed += changed;

        // Each expiring document is re-intersected against the live set as
        // it is *now* — it may have changed since the document arrived.
        while let Some(doc) =
            self.index
                .pop_expired(self.window, self.clock, &mut self.live_entries)
        {
            outcome.expired += 1;
            let (touched, changed) = self.handle_expiration(&doc);
            outcome.queries_touched_by_expiration += touched;
            outcome.results_changed += changed;
        }
        outcome
    }

    /// Audits the engine's deep structural invariants, panicking with a
    /// description on violation (DESIGN.md §11): the inverted index's own
    /// invariants (the live-term set's included: bitmap bit ⇔ reference
    /// count > 0; on a term-filtered engine also that the lists hold exactly
    /// the window's postings of the live terms), every threshold tree's
    /// strict ordering, a tree for every
    /// live term and under no other key, two-way agreement between tree
    /// entries and the live queries' recorded local thresholds, result sets
    /// referencing only valid (windowed) documents, term reference counts
    /// equal to the number of live referencing queries, and the paper's
    /// per-query invariant: every posting strictly above `θ_{Q,t}` is in `R`,
    /// and `τ ≤ S_k`. Driven by the testkit
    /// lockstep runner when the
    /// `invariant-checks` feature (or a unit-test build) is active; far too
    /// expensive for production paths.
    pub fn check_invariants(&self) {
        self.index.check_invariants();
        let live = self.index.live_terms();
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
        for (qid, state) in self.queries.iter() {
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
                // every posting strictly above θ_{Q,t}, and an arrival up
                // there is touched, so each of them is in R.
                let list = self.index.list(*term).into_iter().flat_map(|l| l.iter());
                for posting in list.take_while(|p| p.weight > *theta) {
                    assert!(
                        state.results.contains(posting.doc),
                        "{} lies above {qid}'s θ={theta} in {term} but is not in R",
                        posting.doc
                    );
                }
            }
            // Second half: τ ≤ S_k, exactly. Only the descent sets a threshold,
            // and it stops on τ < S_k (or with every θ at zero); S_k falls
            // only when a top-k document expires, which runs the descent.
            let (tau, s_k) = (state.tau(), state.results.kth_score(state.query.k()));
            assert!(tau <= s_k, "{qid}'s τ={tau} exceeds S_k={s_k}");
            for ranked in state.results.iter() {
                assert!(
                    self.index.documents().contains(ranked.doc),
                    "{qid}'s result set holds expired document {}",
                    ranked.doc
                );
            }
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

impl Engine for ItaEngine {
    fn register(&mut self, query: ContinuousQuery) -> QueryId {
        let qid = QueryId(self.next_query);
        self.register_with_id(qid, query);
        qid
    }

    fn register_batch(&mut self, queries: Vec<ContinuousQuery>) -> Vec<QueryId> {
        let batch: Vec<(QueryId, Arc<ContinuousQuery>)> = queries
            .into_iter()
            .map(|query| {
                let qid = QueryId(self.next_query);
                self.next_query += 1;
                (qid, Arc::new(query))
            })
            .collect();
        self.register_shared_batch(&batch, &TermPostings::default());
        batch.iter().map(|(qid, _)| *qid).collect()
    }

    /// Removes the query's threshold-tree entries (retiring empty trees) and
    /// releases its term references (on a term-filtered engine,
    /// last-reference lists are dropped).
    fn deregister(&mut self, query: QueryId) -> bool {
        let Some(state) = self.queries.remove(query) else {
            return false;
        };
        for (term, theta) in &state.thresholds {
            // The tree goes before the reference: releasing the last one
            // recycles the key the tree is filed under.
            if let Some(key) = self.index.live_terms().key(*term) {
                if let Some(tree) = self.trees.get_mut(key) {
                    tree.remove(query, *theta);
                    if tree.is_empty() {
                        self.trees.remove(key);
                    }
                }
            }
            self.index.release_term(*term);
        }
        true
    }

    fn process_document(&mut self, doc: Document) -> EventOutcome {
        self.process_shared(Arc::new(doc))
    }

    fn current_results(&self, query: QueryId) -> Vec<RankedDocument> {
        self.queries
            .get(query)
            .map(|state| state.results.top(state.query.k()))
            .unwrap_or_default()
    }

    fn num_queries(&self) -> usize {
        self.queries.len()
    }

    fn num_valid_documents(&self) -> usize {
        self.index.num_documents()
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
    use super::*;
    use crate::testkit::ScriptRng;
    use cts_index::DocId;
    use cts_text::WeightedVector;

    /// The descent before it kept a cursor per list: every step re-peeks
    /// every list from its θ, skipping the postings already in R, and
    /// collects the chosen tie group before examining it. The reference the
    /// cursor walk is held to (`run_threshold_search` runs both in unit-test
    /// builds).
    pub(super) fn restart_descent(index: &InvertedIndex, mut state: QueryState) -> QueryState {
        let k = state.query.k();
        loop {
            let mut peeks: Vec<Option<cts_index::Posting>> = Vec::new();
            let mut tau_next = 0.0;
            for (term, theta) in &state.thresholds {
                let peek = index.list(*term).and_then(|list| {
                    list.iter_at_or_below(*theta)
                        .find(|p| !state.results.contains(p.doc))
                });
                if let Some(p) = peek {
                    tau_next += state.query.weight(*term).get() * p.weight.get();
                }
                peeks.push(peek);
            }
            let exhausted = peeks.iter().all(Option::is_none);
            if exhausted || state.results.kth_score(k) > tau_next {
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
            let (term, _) = state.thresholds[slot];
            let members: Vec<DocId> = index
                .list(term)
                .unwrap()
                .iter_at_or_below(posting.weight)
                .take_while(|p| p.weight == posting.weight)
                .map(|p| p.doc)
                .collect();
            for doc in members {
                if !state.results.contains(doc) {
                    let score = state
                        .query
                        .score(&index.documents().get(doc).unwrap().composition);
                    state.results.insert(doc, score);
                    state.postings_examined += 1;
                }
            }
            state.thresholds[slot].1 = posting.weight;
        }
    }

    /// Equal θ (by bits), equal R entries (scores by bits) and an equal
    /// count of postings examined.
    pub(super) fn assert_same_search(cursor: &QueryState, restart: &QueryState) {
        let thetas = |s: &QueryState| -> Vec<(TermId, u64)> {
            let bits = s
                .thresholds
                .iter()
                .map(|(t, theta)| (*t, theta.get().to_bits()));
            bits.collect()
        };
        let entries = |s: &QueryState| -> Vec<(DocId, u64)> {
            s.results
                .iter()
                .map(|r| (r.doc, r.score.to_bits()))
                .collect()
        };
        assert_eq!(thetas(cursor), thetas(restart), "θ diverged");
        assert_eq!(entries(cursor), entries(restart), "R diverged");
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

    fn brute_force_top(e: &ItaEngine, query: &ContinuousQuery) -> Vec<u64> {
        let mut rs = ResultSet::new();
        for d in e.index.documents().iter() {
            let s = query.score(&d.composition);
            if s > 0.0 {
                rs.insert(d.id, s);
            }
        }
        rs.top(query.k()).iter().map(|r| r.doc.0).collect()
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
            let state = e.queries.get(q).unwrap();
            for (term, theta) in &state.thresholds {
                if let Some(list) = e.index.list(*term) {
                    for p in list.iter() {
                        if p.weight > *theta {
                            assert!(
                                state.results.contains(p.doc),
                                "event {i}: {} above θ={} in {} missing from R",
                                p.doc,
                                theta,
                                term
                            );
                        }
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
                    "register_with_id",
                    Box::new(|e| e.register_with_id(q, other.clone())),
                ),
                (
                    "a batch naming a live id after a fresh one",
                    Box::new(|e| {
                        let batch = [fresh, q].map(|id| (id, Arc::new(other.clone())));
                        e.register_shared_batch(&batch, &TermPostings::default())
                    }),
                ),
                (
                    "a batch naming one fresh id twice",
                    Box::new(|e| {
                        let batch = [fresh, fresh].map(|id| (id, Arc::new(other.clone())));
                        e.register_shared_batch(&batch, &TermPostings::default())
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

    #[test]
    fn register_with_id_controls_the_id_space() {
        let mut e = engine(4);
        e.register_with_id(
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
        e.register_with_id(
            QueryId(3),
            ContinuousQuery::from_weights([(TermId(1), 1.0)], 1),
        );
        e.register_with_id(
            QueryId(3),
            ContinuousQuery::from_weights([(TermId(2), 1.0)], 1),
        );
    }

    #[test]
    fn deregister_removes_tree_entries() {
        let (mut e, q) = paper_lists_engine();
        assert!(!e.trees.is_empty());
        assert!(e.deregister(q));
        assert!(!e.deregister(q));
        assert!(e.trees.is_empty());
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
        assert_eq!(small.register_postings_touched(), 0);
        small.register(ContinuousQuery::from_weights([(TermId(7), 1.0)], 2));
        large.register(ContinuousQuery::from_weights([(TermId(7), 1.0)], 2));
        assert_eq!(
            small.register_postings_touched(),
            hits,
            "registration filed more postings than the term occurs"
        );
        assert_eq!(
            small.register_postings_touched(),
            large.register_postings_touched(),
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
        assert_eq!(e.register_postings_touched(), hits);
        assert_eq!(e.register_entries_walked(), hits + 100);
        // And the loop path agrees — the second and later registrations find
        // the term already live and file nothing.
        let mut looped = filtered_window(7, hits, 100);
        for k in 1..=20u32 {
            looped.register(ContinuousQuery::from_weights(
                [(TermId(7), 1.0)],
                ((k % 3) + 1) as usize,
            ));
        }
        assert_eq!(looped.register_postings_touched(), hits);
    }

    /// A stand-alone filtered engine resolves through its own window the way
    /// the sharded coordinator does: the first registration of a fresh term
    /// walks the window and builds the sealed chunks' term directories, and
    /// the next one — the term fresh again after its query left — walks only
    /// the unsealed tail. Both queries' results are the full-index engine's
    /// and the oracle's.
    #[test]
    fn a_stand_alone_filtered_engine_resolves_from_directories() {
        use crate::oracle::BruteForceOracle;
        use cts_index::window_terms::CHUNK_DOCS;
        let mut rng = ScriptRng::new(0xD1_2EC7);
        let window = SlidingWindow::count_based(4 * CHUNK_DOCS);
        let mut filtered = ItaEngine::term_filtered(window);
        let mut full = ItaEngine::new(window, ItaConfig::default());
        let mut oracle = BruteForceOracle::new(window);
        // Two sealed chunks and a tail of 100 documents, 3–8 terms each.
        let docs = 2 * CHUNK_DOCS as u64 + 100;
        let mut chunk_entries = 0;
        for i in 0..docs {
            let terms: Vec<(u32, f64)> = (0..rng.range(3, 9))
                .map(|_| (rng.below(60) as u32, 0.1 + rng.below(8) as f64 * 0.1))
                .collect();
            let d = doc(i, &terms);
            if i < CHUNK_DOCS as u64 {
                chunk_entries += d.composition.len() as u64;
            }
            filtered.process_document(d.clone());
            full.process_document(d.clone());
            oracle.process_document(d);
        }
        let queries = [
            ContinuousQuery::from_weights([(TermId(7), 0.8), (TermId(8), 0.6)], 5),
            ContinuousQuery::from_weights([(TermId(7), 0.3), (TermId(9), 0.95)], 3),
        ];
        let mut walks = Vec::new();
        for query in queries {
            let before = filtered.register_entries_walked();
            let q = filtered.register(query.clone());
            walks.push(filtered.register_entries_walked() - before);
            assert_eq!(full.register(query.clone()), q);
            assert_eq!(oracle.register(query), q);
            assert_eq!(filtered.current_results(q), full.current_results(q));
            assert_eq!(filtered.current_results(q), oracle.current_results(q));
            filtered.check_invariants();
            for engine in [&mut filtered as &mut dyn Engine, &mut full, &mut oracle] {
                assert!(engine.deregister(q));
            }
        }
        assert!(
            walks[0] > 2 * chunk_entries,
            "the first call walks the window"
        );
        assert!(
            walks[1] < chunk_entries,
            "the second call walked {} entries, a chunk holds {chunk_entries}",
            walks[1]
        );
    }

    /// Postings resolved by the window's owner are filed as they are: the
    /// engine's own window walks nothing, and the engine ends up in the state
    /// its own resolution would have left.
    #[test]
    fn supplied_postings_replace_the_store_walk_exactly() {
        let hits = 8u64;
        let mut walked = filtered_window(7, hits, 100);
        let mut supplied = filtered_window(7, hits, 100);
        let mut window = cts_index::WindowTerms::with_shape(16, usize::MAX);
        for doc in supplied.store_documents() {
            window.push(Arc::new(doc.clone()));
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
        supplied.register_shared_batch(&batch, &postings);
        walked.register_shared_batch(&batch, &TermPostings::default());
        assert_eq!(supplied.register_entries_walked(), 0);
        assert_eq!(walked.register_entries_walked(), hits + 100);
        assert_eq!(
            supplied.register_postings_touched(),
            walked.register_postings_touched()
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
