//! Release-mode paper-scale soak: the ROADMAP's "1,000 queries, 10k+
//! windows, 182k terms" configuration, run as an `#[ignore]`d test so the
//! default `cargo test` stays fast. CI runs it in a dedicated job:
//!
//! ```text
//! cargo test --release -p cts-reference --test paper_scale_soak -- --ignored
//! ```
//!
//! `dead_postings_stay_within_a_quarter_over_a_hundred_turnovers` soaks the
//! lazy expiry of impact entries at a 2,500-document window instead: the
//! dead postings it leaves in the lists, and what they cost in bytes.
//! `popular_queries_stay_exact_at_paper_scale` runs the paper point with
//! query terms drawn by document popularity, where each query's `R` holds
//! thousands of documents.
//!
//! The soak fills a 10,000-document count-based window from the synthetic
//! WSJ-like stream (181,978-term vocabulary, log-normal document lengths),
//! registers 1,000 ten-term queries with `k = 10`, streams thousands of
//! steady-state events through [`ItaEngine`], and periodically verifies a
//! sample of queries against a from-scratch brute-force evaluation of the
//! engine's own window — plus the ITA frontier invariant (`τ ≤ S_k` for
//! every saturated query). A full per-event oracle at this scale would cost
//! ~10M score evaluations per event; sampling keeps the soak to a couple of
//! minutes while still catching any incremental-maintenance drift.

use cts_core::{ContinuousQuery, Engine, ItaConfig, ItaEngine};
use cts_corpus::{CorpusConfig, DocumentStream, QueryWorkload, StreamConfig, WorkloadConfig};
use cts_index::{QueryId, SlidingWindow};
use cts_text::weighting::Scoring;
use cts_text::Dictionary;

const NUM_QUERIES: usize = 1_000;
const WINDOW_DOCS: usize = 10_000;
const SOAK_EVENTS: usize = 4_000;
const CHECK_EVERY: usize = 500;
/// Queries re-verified per checkpoint (spread across the id space).
const SAMPLE: usize = 25;

/// Recomputes `query`'s true top-k by scoring every valid document in the
/// engine's own window, as `BruteForceOracle` does, without paying for a
/// second copy of the 10k-document window.
fn brute_force_top(engine: &ItaEngine, query: &ContinuousQuery) -> Vec<(u64, f64)> {
    let mut scored: Vec<(u64, f64)> = engine
        .documents()
        .iter()
        .map(|doc| (doc.id.0, query.score(&doc.composition)))
        .filter(|(_, score)| *score > 0.0)
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(query.k());
    scored
}

#[test]
#[ignore = "paper-scale soak: minutes in release mode; run via scripts/verify.sh soak"]
fn ita_survives_a_paper_scale_soak() {
    let corpus = CorpusConfig {
        seed: 0x50AC_0001,
        ..CorpusConfig::default()
    };
    assert_eq!(corpus.vocabulary_size, 181_978, "paper-scale vocabulary");
    let workload = QueryWorkload::new(
        WorkloadConfig {
            num_queries: NUM_QUERIES,
            query_length: 10,
            k: 10,
            popularity_biased: false,
            seed: 0x50AC_0002,
        },
        corpus.vocabulary_size,
    );
    let dict = Dictionary::new();
    let queries: Vec<ContinuousQuery> = workload
        .generate()
        .iter()
        .map(|spec| {
            ContinuousQuery::from_term_frequencies(&spec.terms, spec.k, Scoring::Cosine, &dict)
        })
        .collect();

    let mut stream = DocumentStream::new(
        corpus,
        StreamConfig {
            arrival_rate_per_sec: 200.0,
            seed: 0x50AC_0003,
        },
    );
    let mut engine = ItaEngine::new(
        SlidingWindow::count_based(WINDOW_DOCS),
        ItaConfig::default(),
    );

    // Fill the window, then install the paper's workload.
    for _ in 0..WINDOW_DOCS {
        engine.process_document(stream.next_document());
    }
    let qids: Vec<QueryId> = queries.iter().map(|q| engine.register(q.clone())).collect();
    assert_eq!(engine.num_queries(), NUM_QUERIES);
    assert_eq!(engine.num_valid_documents(), WINDOW_DOCS);

    let sample_stride = (NUM_QUERIES / SAMPLE).max(1);
    for event in 1..=SOAK_EVENTS {
        let outcome = engine.process_document(stream.next_document());
        assert_eq!(outcome.expired, 1, "steady state expires exactly one doc");
        assert_eq!(engine.num_valid_documents(), WINDOW_DOCS);

        if event % CHECK_EVERY != 0 {
            continue;
        }
        // Spot-check: sampled queries must match a from-scratch evaluation.
        for (qid, query) in qids.iter().zip(&queries).step_by(sample_stride) {
            let reported: Vec<(u64, f64)> = engine
                .current_results(*qid)
                .iter()
                .map(|r| (r.doc.0, r.score))
                .collect();
            let expected = brute_force_top(&engine, query);
            assert_eq!(
                reported.len(),
                expected.len(),
                "event {event}, {qid}: result length diverged"
            );
            for (i, ((rd, rs), (ed, es))) in reported.iter().zip(&expected).enumerate() {
                assert_eq!(rd, ed, "event {event}, {qid}: rank {i} document diverged");
                assert!(
                    (rs - es).abs() <= 1e-9,
                    "event {event}, {qid}: rank {i} score diverged ({rs} vs {es})"
                );
            }
            // The paper's frontier invariant: for a saturated top-k,
            // τ = Σ w_{Q,t}·θ_{Q,t} never exceeds S_k.
            let stats = engine.query_stats(*qid).expect("query registered");
            if stats.result_set_size >= query.k() {
                assert!(
                    stats.influence_threshold <= stats.kth_score + 1e-9,
                    "event {event}, {qid}: τ={} > S_k={}",
                    stats.influence_threshold,
                    stats.kth_score
                );
            }
        }
        eprintln!("soak: event {event}/{SOAK_EVENTS} verified");
    }

    // The index tracked the churn exactly: stats stay at window scale.
    let stats = engine.index_stats();
    assert_eq!(stats.documents, WINDOW_DOCS);
    assert!(stats.postings > WINDOW_DOCS, "postings track the window");
    assert!(stats.longest_list <= WINDOW_DOCS);
}

/// Sharded spot-check at paper scale: a 4-shard [`cts_core::ShardedItaEngine`]
/// and the single-shard reference stream the same fill + workload +
/// steady-state events — **as a corpus-built [`cts_reference::testkit`] op
/// script** driven by the shared lockstep runner, with the steady state
/// split between single events and 64-document bursts so the batched
/// fan-out is exercised at full scale too. Outcomes are compared on every
/// event; results on a sample of queries at checkpoints
/// (`RunOptions { check_every, sample_stride }` keeps the pair of
/// paper-scale engines to soak-job runtime). Minimization is deliberately
/// skipped at this scale — the failure still reports the offending op.
#[test]
#[ignore = "paper-scale soak: minutes in release mode; run via scripts/verify.sh soak"]
fn sharded_ita_stays_exact_at_paper_scale() {
    use cts_core::ShardedItaEngine;
    use cts_reference::testkit::{run_script, Op, OpScript, RunOptions};

    const SHARDS: usize = 4;
    const EVENTS: usize = 1_000;
    const BATCH: usize = 64;

    let corpus = CorpusConfig {
        seed: 0x50AC_0001,
        ..CorpusConfig::default()
    };
    let workload = QueryWorkload::new(
        WorkloadConfig {
            num_queries: NUM_QUERIES,
            query_length: 10,
            k: 10,
            popularity_biased: false,
            seed: 0x50AC_0002,
        },
        corpus.vocabulary_size,
    );
    let dict = Dictionary::new();
    let mut stream = DocumentStream::new(
        corpus,
        StreamConfig {
            arrival_rate_per_sec: 200.0,
            seed: 0x50AC_0003,
        },
    );

    // Build the whole soak as one op script: window fill, workload
    // registration, then a steady state alternating singles and bursts.
    let mut script = OpScript::new(0x50AC_0004);
    for _ in 0..WINDOW_DOCS {
        script.push(Op::Feed(stream.next_document()));
    }
    for spec in workload.generate() {
        script.push(Op::Register(ContinuousQuery::from_term_frequencies(
            &spec.terms,
            spec.k,
            Scoring::Cosine,
            &dict,
        )));
    }
    let mut emitted = 0;
    while emitted < EVENTS {
        if emitted % (4 * BATCH) < BATCH {
            // One burst per four batch-lengths of stream.
            let size = BATCH.min(EVENTS - emitted);
            let docs: Vec<_> = (0..size).map(|_| stream.next_document()).collect();
            emitted += docs.len();
            script.push(Op::FeedBatch(docs));
        } else {
            script.push(Op::Feed(stream.next_document()));
            emitted += 1;
        }
    }

    let window = SlidingWindow::count_based(WINDOW_DOCS);
    let mut reference = ItaEngine::new(window, ItaConfig::default());
    let mut sharded = ShardedItaEngine::new(window, ItaConfig::default(), SHARDS);
    {
        // `&mut E` is an Engine, so the runner drives borrowed engines and
        // the concrete types stay available for the stats checks below.
        let mut engines: Vec<Box<dyn cts_core::Engine + '_>> =
            vec![Box::new(&mut reference), Box::new(&mut sharded)];
        let options = RunOptions {
            compare_outcomes: true,
            check_every: CHECK_EVERY,
            sample_stride: (NUM_QUERIES / SAMPLE).max(1),
        };
        if let Err(failure) = run_script(&mut engines, &script, &options) {
            panic!(
                "sharded paper-scale soak diverged (seed {:#x}): {failure}",
                script.seed
            );
        }
    }
    assert_eq!(reference.num_queries(), NUM_QUERIES);
    assert_eq!(sharded.num_queries(), NUM_QUERIES);
    assert_eq!(sharded.num_valid_documents(), WINDOW_DOCS);

    // Every shard holds the full window valid; the postings across all
    // shards stay below the full index (most composition terms are watched
    // by no query at this workload).
    let full = reference.index_stats();
    let shadow = sharded.shard_index_stats();
    assert!(shadow.iter().all(|s| s.documents == WINDOW_DOCS));
    let shadow_postings: usize = shadow.iter().map(|s| s.postings).sum();
    assert!(
        shadow_postings < full.postings,
        "shadow {shadow_postings} >= full {}",
        full.postings
    );
}

/// Resident set size in MiB, from `/proc/self/statm` (resident pages of
/// 4 KiB); `None` where that file does not exist.
fn rss_mib() -> Option<f64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages as f64 * 4096.0 / (1024.0 * 1024.0))
}

/// Expiry leaves an expired document's postings in place as dead ones, and
/// a list compacts once its dead outnumber a quarter of its live. Over 100
/// turnovers of a 2,500-document window, with 1,000 queries registered on a
/// full-index engine and a term-filtered one fed the same stream, this pins
/// the memory that costs: from turnover 2 on, every list of both engines
/// holds at most a quarter of its live postings dead, plus one (their
/// `check_invariants`), so the lists hold at most 1.25 × the live
/// postings; and the filtered engine's per-term tables and term
/// directories do not grow. It prints the resident set per turnover
/// without bounding it. Sampled queries are checked against a brute-force
/// evaluation, and every query's results agree between the two engines.
#[test]
#[ignore = "release-tier soak: about a minute in release mode; run via scripts/verify.sh soak"]
fn dead_postings_stay_within_a_quarter_over_a_hundred_turnovers() {
    const WINDOW: usize = 2_500;
    const TURNOVERS: usize = 100;
    let corpus = CorpusConfig {
        seed: 0x50AC_0011,
        ..CorpusConfig::default()
    };
    let workload = QueryWorkload::new(
        WorkloadConfig {
            num_queries: NUM_QUERIES,
            query_length: 10,
            k: 10,
            popularity_biased: false,
            seed: 0x50AC_0012,
        },
        corpus.vocabulary_size,
    );
    let dict = Dictionary::new();
    let queries: Vec<ContinuousQuery> = workload
        .generate()
        .iter()
        .map(|spec| {
            ContinuousQuery::from_term_frequencies(&spec.terms, spec.k, Scoring::Cosine, &dict)
        })
        .collect();
    let mut stream = DocumentStream::new(
        corpus,
        StreamConfig {
            arrival_rate_per_sec: 200.0,
            seed: 0x50AC_0013,
        },
    );
    let window = SlidingWindow::count_based(WINDOW);
    let mut full = ItaEngine::new(window, ItaConfig::default());
    let mut filtered = ItaEngine::term_filtered(window);
    for _ in 0..WINDOW {
        let doc = stream.next_document();
        full.process_document(doc.clone());
        filtered.process_document(doc);
    }
    let qids: Vec<QueryId> = full.register_batch(queries.clone());
    assert_eq!(filtered.register_batch(queries.clone()), qids);

    let sample_stride = (NUM_QUERIES / SAMPLE).max(1);
    let mut settled = None;
    for turnover in 1..=TURNOVERS {
        for _ in 0..WINDOW {
            let doc = stream.next_document();
            assert_eq!(
                full.process_document(doc.clone()),
                filtered.process_document(doc),
                "turnover {turnover}: outcomes diverged"
            );
        }
        let (f, s) = (full.index_stats(), filtered.index_stats());
        eprintln!(
            "turnover {turnover:3}: rss {} MiB; full {} live + {} dead postings, {:.1} MiB of \
             lists; filtered {} live + {} dead, {:.2} MiB",
            rss_mib().map_or("?".to_string(), |mib| format!("{mib:.1}")),
            f.postings,
            f.dead_postings,
            f.list_bytes as f64 / (1024.0 * 1024.0),
            s.postings,
            s.dead_postings,
            s.list_bytes as f64 / (1024.0 * 1024.0),
        );
        for (qid, query) in qids.iter().zip(&queries) {
            assert_eq!(
                full.current_results(*qid),
                filtered.current_results(*qid),
                "turnover {turnover}, {qid}: the engines disagree"
            );
            if (qid.0 as usize).is_multiple_of(sample_stride) {
                let reported: Vec<(u64, f64)> = (full.current_results(*qid).iter())
                    .map(|r| (r.doc.0, r.score))
                    .collect();
                assert_eq!(
                    reported,
                    brute_force_top(&full, query),
                    "turnover {turnover}, {qid}: results diverged from brute force"
                );
            }
        }
        if turnover < 2 {
            continue;
        }
        // Per list: the engines' audits hold dead ≤ live / 4 + 1. In total
        // the quarter rule leaves at most a quarter of the live dead.
        full.check_invariants();
        filtered.check_invariants();
        for stats in [f, s] {
            assert!(
                4 * stats.dead_postings <= stats.postings,
                "turnover {turnover}: {} dead beside {} live postings",
                stats.dead_postings,
                stats.postings
            );
        }
        let shape = (
            s.list_slots,
            s.tree_slots,
            s.refcount_slots,
            s.directory_bytes,
        );
        let first = *settled.get_or_insert(shape);
        assert!(
            shape.0 <= first.0 && shape.1 <= first.1 && shape.2 <= first.2 && shape.3 <= first.3,
            "turnover {turnover}: the filtered engine's tables grew from {first:?} to {shape:?}"
        );
    }
}

/// The popular-term regime (ROADMAP item 16) at the paper point: 1,000
/// ten-term queries whose terms follow document popularity, over a
/// 10,000-document window on the term-filtered engine. Each query's `R`
/// then holds thousands of documents, so every arrival, expiry and
/// top-k promotion works on a long arrival-ordered rest. Sampled queries
/// are checked against brute force twice and the engine is audited once;
/// the test prints the registration time, ms/event and mean `|R|`.
#[test]
#[ignore = "release-tier soak: popular queries at the paper point; run via scripts/verify.sh soak"]
fn popular_queries_stay_exact_at_paper_scale() {
    const EVENTS: usize = 300;
    let corpus = CorpusConfig {
        seed: 0x50AC_0021,
        ..CorpusConfig::default()
    };
    let workload = QueryWorkload::new(
        WorkloadConfig {
            num_queries: NUM_QUERIES,
            query_length: 10,
            k: 10,
            popularity_biased: true,
            seed: 0x50AC_0022,
        },
        corpus.vocabulary_size,
    );
    let dict = Dictionary::new();
    let queries: Vec<ContinuousQuery> = workload
        .generate()
        .iter()
        .map(|spec| {
            ContinuousQuery::from_term_frequencies(&spec.terms, spec.k, Scoring::Cosine, &dict)
        })
        .collect();
    let mut stream = DocumentStream::new(
        corpus,
        StreamConfig {
            arrival_rate_per_sec: 200.0,
            seed: 0x50AC_0023,
        },
    );
    let mut engine = ItaEngine::term_filtered(SlidingWindow::count_based(WINDOW_DOCS));
    for _ in 0..WINDOW_DOCS {
        engine.process_document(stream.next_document());
    }
    let registering = std::time::Instant::now();
    let qids = engine.register_batch(queries.clone());
    let register_s = registering.elapsed().as_secs_f64();
    let mean_r = |engine: &ItaEngine| {
        let total: usize = (qids.iter())
            .filter_map(|qid| engine.query_stats(*qid))
            .map(|stats| stats.result_set_size)
            .sum();
        total as f64 / qids.len() as f64
    };
    let registered_r = mean_r(&engine);

    let check = |engine: &ItaEngine, event: usize| {
        for (qid, query) in qids.iter().zip(&queries).step_by(NUM_QUERIES / SAMPLE) {
            let reported: Vec<(u64, f64)> = (engine.current_results(*qid).iter())
                .map(|r| (r.doc.0, r.score))
                .collect();
            assert_eq!(
                reported,
                brute_force_top(engine, query),
                "event {event}, {qid}: results diverged from brute force"
            );
        }
    };
    let mut busy = std::time::Duration::ZERO;
    let (mut touched, mut refills_before) = (0usize, 0u64);
    for qid in &qids {
        refills_before += engine.query_stats(*qid).map_or(0, |stats| stats.refills);
    }
    for event in 1..=EVENTS {
        let doc = stream.next_document();
        let start = std::time::Instant::now();
        let outcome = engine.process_document(doc);
        busy += start.elapsed();
        assert_eq!(outcome.expired, 1, "steady state expires exactly one doc");
        touched += outcome.queries_touched_by_arrival + outcome.queries_touched_by_expiration;
        if event == EVENTS / 2 {
            check(&engine, event);
        }
    }
    check(&engine, EVENTS);
    engine.check_invariants();
    let refills: u64 = (qids.iter())
        .filter_map(|qid| engine.query_stats(*qid))
        .map(|stats| stats.refills)
        .sum::<u64>()
        - refills_before;
    let ms_per_event = busy.as_secs_f64() * 1e3 / EVENTS as f64;
    let final_r = mean_r(&engine);
    eprintln!(
        "popular soak: registration {register_s:.1} s; {ms_per_event:.2} ms/event over {EVENTS} \
         events, {:.0} touches/event, {refills} refills; mean |R| {registered_r:.0} after \
         registration, {final_r:.0} at the end (ROADMAP item 16 read 34.7 ms/event at mean \
         |R| 9,004 before R's two-part layout)",
        touched as f64 / EVENTS as f64
    );
    assert!(
        final_r > 1_000.0,
        "mean |R| {final_r:.0}: the popular workload no longer fills R"
    );
    assert!(refills > 0, "no top-k expiry promoted from the rest");
}
