//! Differential suite for the live-term set: an arriving or expiring
//! document is cut down to the entries whose term some registered query
//! uses, and everything after that one intersection — filing, the threshold
//! probe, arrival scoring — walks the short slice. The set can change
//! between a document's arrival and its expiry, so the scripts here move it
//! exactly there, and hold three views of the same stream in lockstep:
//!
//! * a **plain** [`ItaEngine`] (full index, identity keys) hosting every
//!   query;
//! * two **term-filtered** engines (live-slot keys) that both see every
//!   document and host one part of the queries each — the shard
//!   configuration, so queries can migrate between them, their postings
//!   resolved by a [`WindowTerms`] mirror as the sharded coordinator's are;
//! * the [`BruteForceOracle`].
//!
//! After every op: `check_invariants()` on all three ITA engines, merged
//! filtered [`EventOutcome`]s equal to the plain engine's, and per query
//! identical [`cts_core::ItaQueryStats`] and results (scores by
//! `f64::to_bits`) on plain engine, hosting filtered engine and oracle.
//!
//! Also here: the bit-identity of scoring a live-entry slice instead of the
//! whole composition list, and the memory shape the live-slot key space
//! promises.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use cts_core::testkit::ScriptRng;
use cts_core::{
    BruteForceOracle, ContinuousQuery, Engine, EventOutcome, ItaConfig, ItaEngine, RankedDocument,
};
use cts_corpus::{CorpusConfig, DocumentStream, QueryWorkload, StreamConfig, WorkloadConfig};
use cts_index::{DocId, Document, LiveTerms, QueryId, SlidingWindow, Timestamp, WindowTerms};
use cts_text::weighting::Scoring;
use cts_text::{Dictionary, TermId, WeightedVector};

/// The three views, plus where each query lives among the filtered pair.
struct Rig {
    plain: ItaEngine,
    filtered: [ItaEngine; 2],
    /// The window as its owner sees it: what a migration's postings are
    /// resolved against.
    window: SlidingWindow,
    mirror: WindowTerms,
    /// Postings shipped with migrations so far.
    shipped: usize,
    oracle: BruteForceOracle,
    host: BTreeMap<QueryId, usize>,
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
    fn new(window: SlidingWindow) -> Self {
        let config = ItaConfig::default();
        Rig {
            plain: ItaEngine::new(window, config),
            filtered: [
                ItaEngine::term_filtered(window, config),
                ItaEngine::term_filtered(window, config),
            ],
            window,
            mirror: WindowTerms::new(),
            shipped: 0,
            oracle: BruteForceOracle::new(window),
            host: BTreeMap::new(),
            next_doc: 0,
            clock_ms: 0,
        }
    }

    fn register(&mut self, terms: &[(u32, f64)], k: usize, shard: usize) -> QueryId {
        let query = ContinuousQuery::from_weights(terms.iter().map(|&(t, w)| (TermId(t), w)), k);
        let qid = self.plain.register(query.clone());
        assert_eq!(self.oracle.register(query.clone()), qid);
        self.filtered[shard].register_with_id(qid, query);
        self.host.insert(qid, shard);
        self.audit(&format!("register {qid} on shard {shard}"));
        qid
    }

    fn deregister(&mut self, qid: QueryId) {
        let shard = self.host.remove(&qid).expect("query is live");
        assert!(self.plain.deregister(qid) && self.oracle.deregister(qid));
        assert!(self.filtered[shard].deregister(qid));
        self.audit(&format!("deregister {qid}"));
    }

    /// Moves `qid` to the other filtered engine, which files the lists of
    /// its newly-live terms from the mirror's postings and reads no store.
    fn migrate(&mut self, qid: QueryId) {
        let from = self.host[&qid];
        let migration = self.filtered[from]
            .extract_query(qid)
            .expect("query is live");
        let postings = self.mirror.postings(migration.terms());
        self.shipped += postings.len();
        let walked = self.filtered[1 - from].register_entries_walked();
        self.filtered[1 - from].install_query(qid, migration, &postings);
        assert_eq!(self.filtered[1 - from].register_entries_walked(), walked);
        self.host.insert(qid, 1 - from);
        self.audit(&format!("migrate {qid} to shard {}", 1 - from));
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
        let [a, b] = &mut self.filtered;
        let mut merged = a.process_document(doc.clone());
        merged.merge_shard(&b.process_document(doc.clone()));
        assert_eq!(merged, expected, "outcomes diverged on {}", doc.id);
        self.mirror.push(Arc::new(doc.clone()));
        assert_eq!(
            self.mirror.expire(self.window, doc.arrival),
            expected.expired
        );
        self.oracle.process_document(doc);
        self.audit(&format!("feed d{}", self.next_doc - 1));
        expected
    }

    fn audit(&self, context: &str) {
        self.plain.check_invariants();
        for engine in &self.filtered {
            engine.check_invariants();
        }
        for (&qid, &shard) in &self.host {
            let hosted = &self.filtered[shard];
            assert_eq!(
                hosted.query_stats(qid),
                self.plain.query_stats(qid),
                "{context}: stats of {qid} diverged"
            );
            let expected = bits(&self.plain.current_results(qid));
            assert_eq!(
                bits(&hosted.current_results(qid)),
                expected,
                "{context}: filtered results of {qid} diverged"
            );
            assert_eq!(
                bits(&self.oracle.current_results(qid)),
                expected,
                "{context}: {qid} diverged from the oracle"
            );
        }
    }

    fn postings(&self, shard: usize) -> usize {
        self.filtered[shard].index_stats().postings
    }
}

const T: u32 = 181_000;
const U: u32 = 7;

#[test]
fn a_term_going_live_after_arrival_is_backfilled_and_cleaned_on_expiry() {
    let mut rig = Rig::new(SlidingWindow::count_based(3));
    rig.feed(&[(T, 0.4), (U, 0.2)], 1);
    rig.feed(&[(T, 0.7)], 1);
    assert_eq!(rig.postings(0), 0, "nothing is live, nothing is filed");
    let q = rig.register(&[(T, 1.0)], 2, 0);
    assert_eq!(rig.postings(0), 2, "the backfill found both documents");
    assert_eq!(rig.filtered[0].current_results(q).len(), 2);
    rig.feed(&[(U, 0.9)], 1);
    // The two documents that arrived before T was live now expire: the
    // re-intersection finds T live and removes the backfilled postings.
    let out = rig.feed(&[(U, 0.1)], 1);
    assert_eq!(out.expired, 1);
    rig.feed(&[(U, 0.1)], 1);
    assert_eq!(rig.postings(0), 0);
    assert!(rig.filtered[0].current_results(q).is_empty());
}

#[test]
fn a_term_whose_last_query_left_is_skipped_on_expiry() {
    let mut rig = Rig::new(SlidingWindow::count_based(2));
    let q = rig.register(&[(T, 0.6), (U, 0.4)], 1, 1);
    rig.feed(&[(T, 0.5), (U, 0.5)], 1);
    assert_eq!(rig.postings(1), 2);
    rig.deregister(q);
    assert_eq!(
        rig.postings(1),
        0,
        "the last reference took the lists along"
    );
    assert_eq!(rig.filtered[1].index_stats().live_terms, 0);
    rig.feed(&[(T, 0.1)], 1);
    // d0 was filed under two lists that no longer exist.
    let out = rig.feed(&[(T, 0.1)], 1);
    assert_eq!((out.expired, out.queries_touched_by_expiration), (1, 0));
}

/// Registers `{T}` with `k = 1` on shard 0 over a low and a high document
/// (the roll-up leaves `θ_T` at the high weight), then migrates the query to
/// shard 1, which no query ever made `T` live on: the install lists both
/// documents at once.
fn rig_with_t_migrated_to_shard_1() -> (Rig, QueryId) {
    let mut rig = Rig::new(SlidingWindow::count_based(4));
    let q = rig.register(&[(T, 1.0)], 1, 0);
    rig.feed(&[(T, 0.2)], 1);
    rig.feed(&[(T, 0.9)], 1);
    rig.migrate(q);
    assert_eq!((rig.shipped, rig.postings(1)), (2, 2));
    assert_eq!(rig.filtered[1].register_postings_touched(), 2);
    (rig, q)
}

#[test]
fn a_term_a_migration_brings_live_is_listed_at_once_later_arrivals_included() {
    let (mut rig, _) = rig_with_t_migrated_to_shard_1();
    // Arrives below θ_T, so nothing probes — and is filed all the same: the
    // list is complete from the install on.
    rig.feed(&[(T, 0.5)], 1);
    assert_eq!(rig.postings(1), 3);
    // A second query on T registers on shard 1 and finds the list as it is.
    rig.register(&[(T, 0.5), (U, 0.5)], 2, 1);
    assert_eq!(rig.filtered[1].register_postings_touched(), 2);
    assert_eq!(rig.postings(1), 3);
    // Slide until every T document has expired out of the list.
    for _ in 0..4 {
        rig.feed(&[(U, 0.3)], 1);
    }
    assert_eq!(rig.postings(1), 4, "only the four U postings remain");
}

#[test]
fn a_shipped_posting_expires_out_of_its_list_below_the_threshold_and_above() {
    let (mut rig, q) = rig_with_t_migrated_to_shard_1();
    rig.feed(&[(U, 0.3)], 1);
    rig.feed(&[(U, 0.3)], 1);
    // d0 (T: 0.2) expires below θ_T = 0.9: no query is touched, and the
    // posting the migration shipped leaves the list.
    let out = rig.feed(&[(U, 0.3)], 1);
    assert_eq!((out.expired, out.queries_touched_by_expiration), (1, 0));
    assert_eq!(rig.postings(1), 1);
    // d1 (T: 0.9) is the top-1: its expiry refills from a list now empty.
    let out = rig.feed(&[(U, 0.3)], 1);
    assert_eq!((out.expired, out.queries_touched_by_expiration), (1, 1));
    assert_eq!(rig.postings(1), 0);
    assert!(rig.filtered[1].current_results(q).is_empty());
}

#[test]
fn a_term_that_dies_and_is_reregistered_is_rebuilt_under_a_recycled_slot() {
    let mut rig = Rig::new(SlidingWindow::time_based(Duration::from_millis(10)));
    let first = rig.register(&[(T, 1.0)], 1, 0);
    rig.feed(&[(T, 0.6)], 1);
    rig.feed(&[(T, 0.3), (U, 0.3)], 1);
    rig.deregister(first);
    // U takes the slot T vacated; T comes back under a new one.
    rig.register(&[(U, 1.0)], 1, 0);
    let second = rig.register(&[(T, 1.0)], 2, 0);
    assert_eq!(rig.postings(0), 3);
    assert_eq!(rig.filtered[0].current_results(second).len(), 2);
    // Both documents arrived while the *first* T was live; they expire out
    // of the second T's list (equal timestamps expire together).
    let out = rig.feed(&[(U, 0.1)], 20);
    assert_eq!(out.expired, 2);
    assert_eq!(rig.postings(0), 1);
}

/// Seeded scripts over a small vocabulary, so that every op keeps moving
/// terms across the live/dead boundary under documents in the window.
fn random_script(window: SlidingWindow, seed: u64) {
    let mut rng = ScriptRng::new(seed);
    let mut rig = Rig::new(window);
    let weights = [0.1, 0.25, 0.4, 0.55, 0.7];
    let mut migrations = 0usize;
    for _ in 0..260 {
        let live: Vec<QueryId> = rig.host.keys().copied().collect();
        match rng.below(10) {
            0 | 1 if live.len() < 8 => {
                let terms: Vec<(u32, f64)> = (0..rng.range(1, 4))
                    .map(|_| (rng.below(9) as u32 * 97, *rng.pick(&weights)))
                    .collect();
                rig.register(&terms, rng.range(1, 4), rng.below(2));
            }
            2 if !live.is_empty() => rig.deregister(*rng.pick(&live)),
            3 if !live.is_empty() => {
                rig.migrate(*rng.pick(&live));
                migrations += 1;
            }
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
        migrations > 5 && rig.shipped > 20,
        "seed {seed:#x} exercised nothing: {migrations} migrations shipped {} postings",
        rig.shipped
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
    let mut engine = ItaEngine::term_filtered(window, ItaConfig::default());
    let mut checkpoint = ItaEngine::term_filtered(window, ItaConfig::default());
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
        engine.sync_checkpoint(&mut checkpoint);
        assert_eq!(engine.state_mismatch(&checkpoint), None, "round {round}");
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
