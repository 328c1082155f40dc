//! Ablation: what recovering a faulted shard worker costs.
//!
//! There is one recovery path (DESIGN.md §10): a caught panic ends the
//! shard's worker, and the coordinator rebuilds the shard from its durable
//! registry and window mirror — it joins the old thread, resolves the
//! postings of the shard's queries against the mirror and spawns a worker
//! seeded with them, which loads the mirror's documents into a fresh engine
//! (no query is live yet, so nothing is filed) and then registers the
//! queries in one batch. Cost scales with the window (the load and the
//! resolve) and with the shard's queries (their threshold searches), not
//! with history; the thread start is tens of microseconds.
//!
//! Fixes a 2-shard engine over a filled count-based window at two points —
//! 500 queries over 5k documents (where the deleted warm restore was priced)
//! and the paper point, 1,000 queries over 10k — and runs two arms:
//!
//! * `none` — one steady-state event per iteration, no fault;
//! * `cold` — one fault armed on shard 0 per iteration, so the iteration is
//!   the event plus the rebuild.
//!
//! The engine's own `recovery_micros` counter is printed per fault,
//! isolating time inside the rebuild (resolve, load, registration) from the
//! surrounding dispatch.
//!
//! Run with `cargo bench --bench ablation_recovery`. Set
//! `CTS_ABLATION_RECOVERY_QUICK=1` for reduced points (50 queries, a
//! 400-document window) when iterating on the harness itself.

#![expect(
    missing_docs,
    reason = "a bench binary has no API; criterion_group! emits an undocumented pub fn"
)]

use criterion::{criterion_group, criterion_main, Criterion};

use cts_core::{ContinuousQuery, Engine, ItaConfig, ShardedItaEngine};
use cts_corpus::{CorpusConfig, DocumentStream, QueryWorkload, StreamConfig, WorkloadConfig};
use cts_index::SlidingWindow;
use cts_text::weighting::Scoring;
use cts_text::Dictionary;

struct Point {
    num_queries: usize,
    window_docs: usize,
    corpus: CorpusConfig,
}

/// The point the recovery arms run at (`num_queries`, `window_docs` in the
/// full run; the quick run shrinks both and the corpus).
fn operating_point(num_queries: usize, window_docs: usize) -> Point {
    let quick = std::env::var_os("CTS_ABLATION_RECOVERY_QUICK").is_some();
    let corpus = CorpusConfig {
        seed: 0x4E60_0011,
        ..if quick {
            CorpusConfig::small()
        } else {
            CorpusConfig::default()
        }
    };
    Point {
        num_queries: if quick { 50 } else { num_queries },
        window_docs: if quick { 400 } else { window_docs },
        corpus,
    }
}

fn build_queries(point: &Point) -> Vec<ContinuousQuery> {
    let workload = QueryWorkload::new(
        WorkloadConfig {
            num_queries: point.num_queries,
            query_length: 10,
            k: 10,
            popularity_biased: false,
            seed: 0x4E60_0012,
        },
        point.corpus.vocabulary_size,
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

/// A 2-shard engine with the workload registered and the window filled
/// (untimed setup), plus the stream to keep feeding from.
fn prepared_engine(point: &Point) -> (ShardedItaEngine, DocumentStream) {
    let mut engine = ShardedItaEngine::new(
        SlidingWindow::count_based(point.window_docs),
        ItaConfig::default(),
        2,
    );
    let mut stream = DocumentStream::new(
        point.corpus,
        StreamConfig {
            arrival_rate_per_sec: 200.0,
            seed: 0x4E60_0013,
        },
    );
    engine.register_batch(build_queries(point));
    for _ in 0..point.window_docs {
        engine.process_document(stream.next_document());
    }
    (engine, stream)
}

fn bench_recovery(c: &mut Criterion) {
    for (num_queries, window_docs) in [(500, 5_000), (1_000, 10_000)] {
        let point = operating_point(num_queries, window_docs);
        for (label, fault) in [("none", false), ("cold", true)] {
            let (mut engine, mut stream) = prepared_engine(&point);
            eprintln!(
                "ablation_recovery: {label} ready ({} queries, {}-doc window, 2 shards)",
                point.num_queries, point.window_docs
            );
            c.bench_function(
                &format!(
                    "sharded_ita/recovery/q{}w{}/{label}",
                    point.num_queries, point.window_docs
                ),
                |b| {
                    b.iter(|| {
                        if fault {
                            // The next event is applied, the worker panics,
                            // and the measured time includes the rebuild.
                            engine.inject_fault(0);
                        }
                        engine.process_document(stream.next_document())
                    })
                },
            );
            let stats = engine.fault_stats().expect("sharded engines track faults");
            assert_eq!(
                stats.faults, stats.recoveries,
                "{label}: some faults were not rebuilt"
            );
            eprintln!(
                "sharded_ita/recovery/q{}w{}/{label}: {} faults, {} rebuilds, \
                 {} µs total inside rebuilds ({:.1} µs per fault)",
                point.num_queries,
                point.window_docs,
                stats.faults,
                stats.recoveries,
                stats.recovery_micros,
                if stats.faults > 0 {
                    stats.recovery_micros as f64 / stats.faults as f64
                } else {
                    0.0
                },
            );
        }
    }
}

criterion_group!(benches, bench_recovery);
criterion_main!(benches);
