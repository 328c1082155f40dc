//! Differential suite for the live-term set: an arriving or expiring
//! document is cut down to the entries whose term some registered query
//! uses, and everything after that one intersection — filing, the threshold
//! probe, arrival scoring — walks the short slice. The set can change
//! between a document's arrival and its expiry, so the scripts here move it
//! exactly there, and hold three views of the same stream in lockstep:
//!
//! * a **plain** [`ItaEngine`] (full index, identity keys) hosting every
//!   query;
//! * a [`ShardedItaEngine`], whose shards are **term-filtered** cores
//!   (live-slot keys) that host one part of the queries each and read the
//!   coordinator's window: every registration files the postings the
//!   coordinator resolves on its [`cts_index::WindowTerms`], and no shard
//!   has a window to walk;
//! * the [`BruteForceOracle`].
//!
//! After every op: `check_invariants()` on both ITA engines, the sharded
//! engine's merged [`EventOutcome`]s equal to the plain engine's, and per
//! query identical [`cts_core::ItaQueryStats`] and results (scores by
//! `f64::to_bits`) on plain engine, sharded engine and oracle.
//!
//! Also here: the bit-identity of scoring a live-entry slice instead of the
//! whole composition list, and the memory shape the live-slot key space
//! promises.

use std::collections::BTreeSet;
use std::time::Duration;

use cts_core::{
    ContinuousQuery, Engine, EventOutcome, ItaConfig, ItaEngine, RankedDocument, ShardedItaEngine,
};
use cts_corpus::ScriptRng;
use cts_corpus::{CorpusConfig, DocumentStream, QueryWorkload, StreamConfig, WorkloadConfig};
use cts_index::{DocId, Document, IndexStats, LiveTerms, QueryId, SlidingWindow, Timestamp};
use cts_reference::BruteForceOracle;
use cts_text::weighting::Scoring;
use cts_text::{Dictionary, TermId, Weight, WeightedVector};

/// The three views, and the queries live in them.
struct Rig {
    plain: ItaEngine,
    sharded: ShardedItaEngine,
    oracle: BruteForceOracle,
    live: BTreeSet<QueryId>,
    next_doc: u64,
    clock_ms: u64,
}

fn bits(results: &[RankedDocument]) -> Vec<(u64, u64)> {
    results
        .iter()
        .map(|r| (r.doc.0, r.score.to_bits()))
        .collect()
}

impl Rig {
    fn new(window: SlidingWindow, shards: usize) -> Self {
        Rig {
            plain: ItaEngine::new(window, ItaConfig::default()),
            sharded: ShardedItaEngine::new(window, ItaConfig::default(), shards),
            oracle: BruteForceOracle::new(window),
            live: BTreeSet::new(),
            next_doc: 0,
            clock_ms: 0,
        }
    }

    /// Registers on every view. The sharded engine's shards file the lists
    /// of their newly-live terms from the postings the coordinator resolves,
    /// and walk no window of their own.
    fn register(&mut self, terms: &[(u32, f64)], k: usize) -> QueryId {
        let query = ContinuousQuery::from_weights(terms.iter().map(|&(t, w)| (TermId(t), w)), k);
        let qid = self.plain.register(query.clone());
        assert_eq!(self.oracle.register(query.clone()), qid);
        assert_eq!(self.sharded.register(query), qid);
        assert_eq!(
            self.stats(|shard| shard.register_entries_walked as usize),
            0
        );
        self.live.insert(qid);
        self.audit(&format!("register {qid}"));
        qid
    }

    fn deregister(&mut self, qid: QueryId) {
        assert!(self.live.remove(&qid), "query is live");
        assert!(self.plain.deregister(qid) && self.oracle.deregister(qid));
        assert!(self.sharded.deregister(qid));
        self.audit(&format!("deregister {qid}"));
    }

    /// Feeds one document, `gap_ms` after the previous one, to every view.
    fn feed(&mut self, terms: &[(u32, f64)], gap_ms: u64) -> EventOutcome {
        self.clock_ms += gap_ms;
        let doc = Document::new(
            DocId(self.next_doc),
            Timestamp::from_millis(self.clock_ms),
            WeightedVector::from_weights(terms.iter().map(|&(t, w)| (TermId(t), w))),
        );
        self.next_doc += 1;
        let expected = self.plain.process_document(doc.clone());
        let merged = self.sharded.process_document(doc.clone());
        assert_eq!(merged, expected, "outcomes diverged on {}", doc.id);
        self.oracle.process_document(doc);
        self.audit(&format!("feed d{}", self.next_doc - 1));
        expected
    }

    fn audit(&self, context: &str) {
        self.plain.check_invariants();
        self.sharded.check_invariants();
        for &qid in &self.live {
            assert_eq!(
                self.sharded.query_stats(qid),
                self.plain.query_stats(qid),
                "{context}: stats of {qid} diverged"
            );
            let expected = bits(&self.plain.current_results(qid));
            assert_eq!(
                bits(&self.sharded.current_results(qid)),
                expected,
                "{context}: sharded results of {qid} diverged"
            );
            assert_eq!(
                bits(&self.oracle.current_results(qid)),
                expected,
                "{context}: {qid} diverged from the oracle"
            );
        }
    }

    /// `field` of the shards' list statistics, summed over the shards.
    fn stats(&self, field: impl Fn(&IndexStats) -> usize) -> usize {
        self.sharded.shard_index_stats().iter().map(field).sum()
    }

    /// Live postings the shards' lists hold.
    fn postings(&self) -> usize {
        self.stats(|shard| shard.postings)
    }

    /// Postings the coordinator has resolved for registrations so far.
    fn shipped(&self) -> u64 {
        let resolved = self.sharded.window_terms_stats();
        resolved.postings_from_walks + resolved.postings_from_directories
    }
}

const T: u32 = 181_000;
const U: u32 = 7;

#[test]
fn a_term_going_live_after_arrival_is_backfilled_and_cleaned_on_expiry() {
    let mut rig = Rig::new(SlidingWindow::count_based(3), 1);
    rig.feed(&[(T, 0.4), (U, 0.2)], 1);
    rig.feed(&[(T, 0.7)], 1);
    assert_eq!(rig.postings(), 0, "nothing is live, nothing is filed");
    let q = rig.register(&[(T, 1.0)], 2);
    assert_eq!(rig.postings(), 2, "the backfill found both documents");
    assert_eq!(rig.sharded.current_results(q).len(), 2);
    rig.feed(&[(U, 0.9)], 1);
    // The two documents that arrived before T was live now expire: the
    // re-intersection finds T live and removes the backfilled postings.
    let out = rig.feed(&[(U, 0.1)], 1);
    assert_eq!(out.expired, 1);
    rig.feed(&[(U, 0.1)], 1);
    assert_eq!(rig.postings(), 0);
    assert!(rig.sharded.current_results(q).is_empty());
}

#[test]
fn a_term_whose_last_query_left_is_skipped_on_expiry() {
    let mut rig = Rig::new(SlidingWindow::count_based(2), 1);
    let q = rig.register(&[(T, 0.6), (U, 0.4)], 1);
    rig.feed(&[(T, 0.5), (U, 0.5)], 1);
    assert_eq!(rig.postings(), 2);
    rig.deregister(q);
    assert_eq!(rig.postings(), 0, "the last reference took the lists along");
    assert_eq!(rig.stats(|shard| shard.live_terms), 0);
    rig.feed(&[(T, 0.1)], 1);
    // d0 was filed under two lists that no longer exist.
    let out = rig.feed(&[(T, 0.1)], 1);
    assert_eq!((out.expired, out.queries_touched_by_expiration), (1, 0));
}

/// Feeds a low, a middle and a high `T` document, then registers `{T}` with
/// `k = 1` late on the one shard, which no query ever made `T` live on: the
/// registration lists all three documents at once from the shipped
/// postings, and the descent examines the high one and stops at the middle
/// one, so `θ_T` = 0.6 lies strictly above the low posting.
fn rig_with_t_registered_late_on_shard_1() -> (Rig, QueryId) {
    let mut rig = Rig::new(SlidingWindow::count_based(4), 1);
    rig.feed(&[(T, 0.2)], 1);
    rig.feed(&[(T, 0.6)], 1);
    rig.feed(&[(T, 0.9)], 1);
    let q = rig.register(&[(T, 1.0)], 1);
    assert_eq!(
        rig.plain.local_threshold(q, TermId(T)),
        Some(Weight::new(0.6))
    );
    // A one-term query's τ is its θ: the shard's equals the plain engine's.
    let tau = rig
        .sharded
        .query_stats(q)
        .map(|stats| stats.influence_threshold);
    assert_eq!(tau, Some(0.6));
    assert_eq!((rig.shipped(), rig.postings()), (3, 3));
    assert_eq!(
        rig.stats(|shard| shard.register_postings_touched as usize),
        3
    );
    (rig, q)
}

#[test]
fn a_term_a_late_registration_brings_live_is_listed_at_once_later_arrivals_included() {
    let (mut rig, _) = rig_with_t_registered_late_on_shard_1();
    // Arrives below θ_T, so nothing probes — and is filed all the same: the
    // list is complete from the registration on.
    let out = rig.feed(&[(T, 0.5)], 1);
    assert_eq!(out.queries_touched_by_arrival, 0);
    assert_eq!(rig.postings(), 4);
    // A second query on T registers on the same shard and finds the list as
    // it is.
    rig.register(&[(T, 0.5), (U, 0.5)], 2);
    assert_eq!(
        rig.stats(|shard| shard.register_postings_touched as usize),
        3
    );
    assert_eq!(rig.postings(), 4);
    // Slide until every T document has expired out of the list.
    for _ in 0..4 {
        rig.feed(&[(U, 0.3)], 1);
    }
    assert_eq!(rig.postings(), 4, "only the four U postings remain");
}

#[test]
fn a_shipped_posting_expires_out_of_its_list_below_the_threshold_and_above() {
    let (mut rig, q) = rig_with_t_registered_late_on_shard_1();
    rig.feed(&[(U, 0.3)], 1);
    // d0 (T: 0.2) expires below θ_T = 0.6: no query is touched, and the
    // posting the registration shipped leaves the list.
    let out = rig.feed(&[(U, 0.3)], 1);
    assert_eq!((out.expired, out.queries_touched_by_expiration), (1, 0));
    assert_eq!(rig.postings(), 2);
    // d1 (T: 0.6) sits on the frontier, never examined and not in R: the
    // probe touches the query, which has nothing to repair.
    let out = rig.feed(&[(U, 0.3)], 1);
    assert_eq!((out.expired, out.queries_touched_by_expiration), (1, 1));
    assert_eq!(out.results_changed, 0);
    assert_eq!(rig.postings(), 1);
    // d2 (T: 0.9) is the top-1: its expiry refills from a list now empty.
    let out = rig.feed(&[(U, 0.3)], 1);
    assert_eq!((out.expired, out.queries_touched_by_expiration), (1, 1));
    assert_eq!(rig.postings(), 0);
    assert!(rig.sharded.current_results(q).is_empty());
}

#[test]
fn a_term_that_dies_and_is_reregistered_is_rebuilt_under_a_recycled_slot() {
    let mut rig = Rig::new(SlidingWindow::time_based(Duration::from_millis(10)), 1);
    let first = rig.register(&[(T, 1.0)], 1);
    rig.feed(&[(T, 0.6)], 1);
    rig.feed(&[(T, 0.3), (U, 0.3)], 1);
    rig.deregister(first);
    // U takes the slot T vacated; T comes back under a new one.
    rig.register(&[(U, 1.0)], 1);
    let second = rig.register(&[(T, 1.0)], 2);
    assert_eq!(rig.postings(), 3);
    assert_eq!(rig.sharded.current_results(second).len(), 2);
    // Both documents arrived while the *first* T was live; they expire out
    // of the second T's list (equal timestamps expire together).
    let out = rig.feed(&[(U, 0.1)], 20);
    assert_eq!(out.expired, 2);
    assert_eq!(rig.postings(), 1);
}

/// Seeded scripts over a small vocabulary, so that every op keeps moving
/// terms across the live/dead boundary under documents in the window.
fn random_script(window: SlidingWindow, seed: u64) {
    let mut rng = ScriptRng::new(seed);
    let mut rig = Rig::new(window, 2);
    let weights = [0.1, 0.25, 0.4, 0.55, 0.7];
    for _ in 0..260 {
        let live: Vec<QueryId> = rig.live.iter().copied().collect();
        match rng.below(10) {
            0 | 1 if live.len() < 8 => {
                let terms: Vec<(u32, f64)> = (0..rng.range(1, 4))
                    .map(|_| (rng.below(9) as u32 * 97, *rng.pick(&weights)))
                    .collect();
                rig.register(&terms, rng.range(1, 4));
            }
            2 if !live.is_empty() => rig.deregister(*rng.pick(&live)),
            _ => {
                let terms: Vec<(u32, f64)> = (0..rng.range(1, 5))
                    .map(|_| (rng.below(9) as u32 * 97, *rng.pick(&weights)))
                    .collect();
                // A gap of zero gives equal timestamps, the time-window edge.
                rig.feed(&terms, rng.below(3) as u64);
            }
        }
    }
    assert!(
        rig.shipped() > 20,
        "seed {seed:#x} exercised nothing: registrations shipped {} postings",
        rig.shipped()
    );
}

#[test]
fn random_live_set_churn_stays_in_lockstep_over_a_count_window() {
    for seed in 0..12u64 {
        random_script(SlidingWindow::count_based(7), 0x11FE_0000 + seed);
    }
}

#[test]
fn random_live_set_churn_stays_in_lockstep_over_a_time_window() {
    for seed in 0..12u64 {
        random_script(
            SlidingWindow::time_based(Duration::from_millis(9)),
            0x11FE_1000 + seed,
        );
    }
}

fn paper_queries(num_queries: usize, query_length: usize, seed: u64) -> Vec<ContinuousQuery> {
    let workload = QueryWorkload::new(
        WorkloadConfig {
            num_queries,
            query_length,
            seed,
            ..WorkloadConfig::default()
        },
        CorpusConfig::default().vocabulary_size,
    );
    let dict = Dictionary::new();
    workload
        .generate()
        .iter()
        .map(|spec| {
            ContinuousQuery::from_term_frequencies(&spec.terms, spec.k, Scoring::Cosine, &dict)
        })
        .collect()
}

#[test]
fn scoring_the_live_entries_is_bit_identical_to_scoring_the_composition() {
    // The paper's query set, plus longer queries so that the full
    // composition list is scored on both sides of the lookup/merge switch
    // (`LOOKUP_ASYMMETRY` = 16 in `cts_text::score`: |Q|·16 < |d| probes).
    let mut queries = paper_queries(1_000, 10, 0x5C0E_0001);
    queries.extend(paper_queries(100, 30, 0x5C0E_0002));
    let mut live = LiveTerms::live_slots();
    for query in &queries {
        for (term, _) in query.terms() {
            live.acquire(term);
        }
    }
    let mut stream = DocumentStream::new(CorpusConfig::default(), StreamConfig::default());
    let mut entries = Vec::new();
    let (mut probed, mut merged, mut matched) = (0u64, 0u64, 0u64);
    for _ in 0..2_000 {
        let doc = stream.next_document();
        live.intersect(doc.composition.as_slice(), &mut entries);
        assert!(entries.len() < doc.composition.len());
        for query in &queries {
            let full = query.score(&doc.composition);
            let cut = query.score_entries(&entries);
            assert_eq!(
                cut.to_bits(),
                full.to_bits(),
                "{} scored {cut:e} over its live entries and {full:e} in full",
                doc.id
            );
            if query.num_terms() * 16 < doc.composition.len() {
                probed += 1;
            } else {
                merged += 1;
            }
            matched += u64::from(full > 0.0);
        }
    }
    assert!(
        probed > 100_000 && merged > 100_000 && matched > 10_000,
        "one side went untested: {probed} probed, {merged} merged, {matched} matched"
    );
}

#[test]
fn a_filtered_engine_sizes_its_term_tables_by_live_terms() {
    let window = SlidingWindow::count_based(120);
    let mut engine = ItaEngine::term_filtered(window);
    let mut stream = DocumentStream::new(CorpusConfig::default(), StreamConfig::default());
    let queries = paper_queries(1_500, 10, 0x5C0E_0003);
    let highest = queries
        .iter()
        .flat_map(|query| query.terms().map(|(term, _)| term.0))
        .max();
    assert!(
        highest > Some(181_000),
        "queries reach the top of the id space"
    );
    for _ in 0..120 {
        engine.process_document(stream.next_document());
    }
    let mut ids = engine.register_batch(queries[..500].to_vec());
    let mut peak = engine.index_stats().live_terms;
    // Churn: every round retires 100 queries and brings 100 new ones, so
    // ~1,000 terms die and ~1,000 others take over their slots.
    for round in 0..10 {
        for qid in ids.drain(..100) {
            assert!(engine.deregister(qid));
        }
        let fresh = 500 + round * 100;
        ids.extend(engine.register_batch(queries[fresh..fresh + 100].to_vec()));
        for _ in 0..20 {
            engine.process_document(stream.next_document());
        }
        peak = peak.max(engine.index_stats().live_terms);
    }
    engine.check_invariants();
    let shape = engine.index_stats();
    assert!(shape.live_terms > 4_000 && shape.postings > 0);
    for (table, slots) in [
        ("list", shape.list_slots),
        ("tree", shape.tree_slots),
        ("refcount", shape.refcount_slots),
    ] {
        assert!(
            slots <= 2 * peak,
            "{table} arena allocates {slots} slots for a peak of {peak} live terms"
        );
    }
    // The same queries on a plain engine cost a slot per term id.
    let mut plain = ItaEngine::new(window, ItaConfig::default());
    plain.register_batch(queries[..500].to_vec());
    assert!(plain.index_stats().tree_slots > 181_000);
}

/// A stand-alone filtered engine resolves through its own window the way
/// the sharded coordinator does: the first registration of a fresh term
/// walks the window and builds the sealed chunks' term directories, and
/// the next one — the term fresh again after its query left — walks only
/// the unsealed tail. Both queries' results are the full-index engine's
/// and the oracle's.
#[test]
fn a_stand_alone_filtered_engine_resolves_from_directories() {
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
        let terms: Vec<(TermId, f64)> = (0..rng.range(3, 9))
            .map(|_| {
                (
                    TermId(rng.below(60) as u32),
                    0.1 + rng.below(8) as f64 * 0.1,
                )
            })
            .collect();
        let d = Document::new(
            DocId(i),
            Timestamp::from_millis(i),
            WeightedVector::from_weights(terms),
        );
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
        let before = filtered.index_stats().register_entries_walked;
        let q = filtered.register(query.clone());
        walks.push(filtered.index_stats().register_entries_walked - before);
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
