//! Cross-engine validation over seeded synthetic streams.
//!
//! For each configured stream this test registers the same query workload
//! with [`ItaEngine`], [`NaiveEngine`] and [`BruteForceOracle`], feeds all
//! three the identical document sequence and asserts, **after every single
//! event**, that both incremental engines report exactly the oracle's top-k.
//! It also checks the paper's headline claim in counter form: ITA examines
//! strictly fewer (query, update) pairs than the naïve baseline in
//! aggregate, because threshold trees prune the queries an update cannot
//! affect. Under the `invariant-checks` feature ITA's structural audit runs
//! after every event too.
//!
//! `count_based_window_popular_terms` draws query terms by document
//! popularity instead (the regime of ROADMAP item 16): each query's `R`
//! holds a large part of the window, so arrivals, expiries and the
//! promotion that follows a top-k expiry all work on a long arrival-ordered
//! rest.

use std::time::Duration;

use cts_core::{ContinuousQuery, Engine, ItaConfig, ItaEngine};
use cts_corpus::{CorpusConfig, DocumentStream, QueryWorkload, StreamConfig, WorkloadConfig};
use cts_index::{QueryId, SlidingWindow};
use cts_reference::{assert_engines_agree, BruteForceOracle, NaiveConfig, NaiveEngine};
use cts_text::weighting::Scoring;
use cts_text::Dictionary;

const EVENTS: usize = 500;
const NUM_QUERIES: usize = 50;

struct StreamOutcome {
    ita_pairs: u64,
    naive_pairs: u64,
    ita_changed: u64,
    naive_changed: u64,
    /// ITA's `|R|`, summed over queries and events.
    result_set_entries: u64,
    /// ITA's refills (top-k expiries), summed over queries.
    refills: u64,
}

/// Streams `EVENTS` documents through all three engines, validating after
/// every event, and returns the aggregate work counters.
fn run_cross_validation(
    window: SlidingWindow,
    seed: u64,
    popularity_biased: bool,
) -> StreamOutcome {
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
            popularity_biased,
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
        result_set_entries: 0,
        refills: 0,
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
        if cfg!(feature = "invariant-checks") {
            ita.check_invariants();
        }
        outcome.result_set_entries += queries
            .iter()
            .filter_map(|q| ita.query_stats(*q))
            .map(|stats| stats.result_set_size as u64)
            .sum::<u64>();
    }
    outcome.refills = queries
        .iter()
        .filter_map(|q| ita.query_stats(*q))
        .map(|stats| stats.refills)
        .sum();
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
    let outcome = run_cross_validation(SlidingWindow::count_based(50), 0xA11CE, false);
    check_work_counters(&outcome);
}

#[test]
fn count_based_window_stream_b() {
    let outcome = run_cross_validation(SlidingWindow::count_based(80), 0xB0B, false);
    check_work_counters(&outcome);
}

#[test]
fn time_based_window_stream_a() {
    // 250ms at ~200 docs/s keeps roughly 50 documents valid.
    let outcome = run_cross_validation(
        SlidingWindow::time_based(Duration::from_millis(250)),
        0xCAFE,
        false,
    );
    check_work_counters(&outcome);
}

#[test]
fn time_based_window_stream_b() {
    let outcome = run_cross_validation(
        SlidingWindow::time_based(Duration::from_millis(400)),
        0xD00D,
        false,
    );
    check_work_counters(&outcome);
}

#[test]
fn count_based_window_popular_terms() {
    const WINDOW: usize = 300;
    let outcome = run_cross_validation(SlidingWindow::count_based(WINDOW), 0x90B, true);
    let mean_r = outcome.result_set_entries as f64 / (EVENTS * NUM_QUERIES) as f64;
    eprintln!(
        "popular terms: mean |R| {mean_r:.1} of a {WINDOW}-document window, {} refills, \
         {} ITA touches against {} naive",
        outcome.refills, outcome.ita_pairs, outcome.naive_pairs
    );
    assert!(
        mean_r > WINDOW as f64 / 4.0,
        "mean |R| {mean_r:.1}: the popular workload no longer fills R"
    );
    assert!(outcome.refills > 100, "only {} refills", outcome.refills);
    assert!(outcome.ita_changed > 0 && outcome.naive_changed > 0);
}
