//! Cross-engine validation over seeded synthetic streams.
//!
//! For each configured stream this test registers the same query workload
//! with [`ItaEngine`], [`NaiveEngine`] and [`BruteForceOracle`], feeds all
//! three the identical document sequence and asserts, **after every single
//! event**, that both incremental engines report exactly the oracle's top-k.
//! It also checks the paper's headline claim in counter form: ITA examines
//! strictly fewer (query, update) pairs than the naïve baseline in
//! aggregate, because threshold trees prune the queries an update cannot
//! affect.

use std::time::Duration;

use cts_core::validate::assert_engines_agree;
use cts_core::{
    BruteForceOracle, ContinuousQuery, Engine, ItaConfig, ItaEngine, NaiveConfig, NaiveEngine,
};
use cts_corpus::{CorpusConfig, DocumentStream, QueryWorkload, StreamConfig, WorkloadConfig};
use cts_index::{QueryId, SlidingWindow};
use cts_text::weighting::Scoring;
use cts_text::Dictionary;

const EVENTS: usize = 500;
const NUM_QUERIES: usize = 50;

struct StreamOutcome {
    ita_pairs: u64,
    naive_pairs: u64,
    ita_changed: u64,
    naive_changed: u64,
}

/// Streams `EVENTS` documents through all three engines, validating after
/// every event, and returns the aggregate work counters.
fn run_cross_validation(window: SlidingWindow, seed: u64) -> StreamOutcome {
    let corpus = CorpusConfig {
        vocabulary_size: 2_000,
        seed,
        ..CorpusConfig::small()
    };
    let stream_config = StreamConfig {
        arrival_rate_per_sec: 200.0,
        seed: seed.wrapping_add(1),
    };
    let workload = QueryWorkload::new(
        WorkloadConfig {
            num_queries: NUM_QUERIES,
            query_length: 4,
            k: 5,
            popularity_biased: false,
            seed: seed.wrapping_add(2),
        },
        corpus.vocabulary_size,
    );

    let mut ita = ItaEngine::new(window, ItaConfig::default());
    let mut naive = NaiveEngine::new(window, NaiveConfig::default());
    let mut oracle = BruteForceOracle::new(window);

    let dict = Dictionary::new();
    let mut queries: Vec<QueryId> = Vec::with_capacity(NUM_QUERIES);
    for spec in workload.generate() {
        let query =
            ContinuousQuery::from_term_frequencies(&spec.terms, spec.k, Scoring::Cosine, &dict);
        let a = ita.register(query.clone());
        let b = naive.register(query.clone());
        let c = oracle.register(query);
        assert_eq!(a, b, "engines must assign identical query ids");
        assert_eq!(a, c, "engines must assign identical query ids");
        queries.push(a);
    }

    let mut stream = DocumentStream::new(corpus, stream_config);
    let mut outcome = StreamOutcome {
        ita_pairs: 0,
        naive_pairs: 0,
        ita_changed: 0,
        naive_changed: 0,
    };
    for event in 0..EVENTS {
        let doc = stream.next_document();
        let oa = ita.process_document(doc.clone());
        let ob = naive.process_document(doc.clone());
        let oc = oracle.process_document(doc);

        assert_eq!(oa.expired, oc.expired, "window divergence at event {event}");
        assert_eq!(ob.expired, oc.expired, "window divergence at event {event}");
        assert_eq!(ita.num_valid_documents(), oracle.num_valid_documents());
        assert_eq!(naive.num_valid_documents(), oracle.num_valid_documents());

        outcome.ita_pairs +=
            (oa.queries_touched_by_arrival + oa.queries_touched_by_expiration) as u64;
        outcome.naive_pairs +=
            (ob.queries_touched_by_arrival + ob.queries_touched_by_expiration) as u64;
        outcome.ita_changed += oa.results_changed as u64;
        outcome.naive_changed += ob.results_changed as u64;

        assert_engines_agree(&oracle, &ita, &queries);
        assert_engines_agree(&oracle, &naive, &queries);
    }
    outcome
}

fn check_work_counters(outcome: &StreamOutcome) {
    assert!(
        outcome.ita_pairs < outcome.naive_pairs,
        "ITA must touch strictly fewer (query, update) pairs: ita={} naive={}",
        outcome.ita_pairs,
        outcome.naive_pairs
    );
    // Sanity: the streams are dense enough that work actually happened.
    assert!(outcome.ita_pairs > 0, "ITA never touched a query");
    assert!(
        outcome.ita_changed > 0,
        "the stream never changed a top-k result"
    );
    // Both engines observe top-k changes on the same stream; they count them
    // at different granularities but neither may sleep through the churn.
    assert!(outcome.naive_changed > 0);
}

#[test]
fn count_based_window_stream_a() {
    let outcome = run_cross_validation(SlidingWindow::count_based(50), 0xA11CE);
    check_work_counters(&outcome);
}

#[test]
fn count_based_window_stream_b() {
    let outcome = run_cross_validation(SlidingWindow::count_based(80), 0xB0B);
    check_work_counters(&outcome);
}

#[test]
fn time_based_window_stream_a() {
    // 250ms at ~200 docs/s keeps roughly 50 documents valid.
    let outcome = run_cross_validation(
        SlidingWindow::time_based(Duration::from_millis(250)),
        0xCAFE,
    );
    check_work_counters(&outcome);
}

#[test]
fn time_based_window_stream_b() {
    let outcome = run_cross_validation(
        SlidingWindow::time_based(Duration::from_millis(400)),
        0xD00D,
    );
    check_work_counters(&outcome);
}
