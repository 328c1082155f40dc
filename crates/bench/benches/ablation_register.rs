//! Ablation: what a query registration costs under each strategy.
//!
//! Fixes a term-filtered shadow engine (the shard-side configuration, where
//! registration must bring newly-live terms up from the shared window) over
//! a filled count-based window and prices the two registration protocols of
//! DESIGN.md §9 against each other:
//!
//! * `lazy-loop`  — one [`Engine::register`] call per query: each is a
//!   burst of one, so every registration that brings terms live pays one
//!   store pass for its own newly-live terms.
//! * `bulk`       — one [`Engine::register_batch`] call for the whole
//!   workload: all newly-live terms across the batch are brought up in one
//!   sorted merge over the window before any threshold search runs.
//!
//! The measured routine registers the full workload and then deregisters it
//! (restoring the engine for the next iteration); a manual clock around the
//! registration half plus the engine's `register_postings_touched` counter
//! are printed per arm, so the readout separates register-only time from
//! the teardown and ties it to the postings actually filed. The
//! registration-burst differential tests hold both protocols
//! byte-identical; this bench prices them.
//!
//! A third arm, `single/len{10,16,17}`, prices the case the service sees
//! most — **one** query registering alone on an engine that already holds
//! half the workload — at the paper's query length and on either side of
//! `cts_index`'s `BACKFILL_DIRECTORY_THRESHOLD` (16 newly-live terms): up to
//! it the window pass probes each composition list per term, above it the
//! pass walks every composition entry against a term directory.
//!
//! Run with `cargo bench --bench ablation_register`. Set
//! `CTS_ABLATION_REGISTER_QUICK=1` for a reduced point (50 queries,
//! 400-document window) when iterating on the harness itself.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use cts_core::{ContinuousQuery, Engine, ItaConfig, ItaEngine};
use cts_corpus::{CorpusConfig, DocumentStream, QueryWorkload, StreamConfig, WorkloadConfig};
use cts_index::SlidingWindow;
use cts_text::weighting::Scoring;
use cts_text::Dictionary;

struct Point {
    num_queries: usize,
    window_docs: usize,
    corpus: CorpusConfig,
}

fn operating_point() -> Point {
    let quick = std::env::var_os("CTS_ABLATION_REGISTER_QUICK").is_some();
    let corpus = CorpusConfig {
        seed: 0x4E60_0001,
        ..if quick {
            CorpusConfig::small()
        } else {
            CorpusConfig::default()
        }
    };
    Point {
        num_queries: if quick { 50 } else { 1_000 },
        window_docs: if quick { 400 } else { 10_000 },
        corpus,
    }
}

fn build_queries(point: &Point) -> Vec<ContinuousQuery> {
    build_queries_of(point, point.num_queries, 10, 0x4E60_0002)
}

fn build_queries_of(
    point: &Point,
    num_queries: usize,
    query_length: usize,
    seed: u64,
) -> Vec<ContinuousQuery> {
    let workload = QueryWorkload::new(
        WorkloadConfig {
            num_queries,
            query_length,
            k: 10,
            popularity_biased: false,
            seed,
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

/// A term-filtered engine with a freshly filled window (untimed setup).
fn filled_engine(point: &Point) -> ItaEngine {
    let mut engine = ItaEngine::term_filtered(
        SlidingWindow::count_based(point.window_docs),
        ItaConfig::default(),
    );
    let mut stream = DocumentStream::new(
        point.corpus,
        StreamConfig {
            arrival_rate_per_sec: 200.0,
            seed: 0x4E60_0003,
        },
    );
    for _ in 0..point.window_docs {
        engine.process_document(stream.next_document());
    }
    engine
}

/// One registration strategy: how it registers the workload.
type RegisterFn = fn(&mut ItaEngine, &[ContinuousQuery]) -> Vec<cts_index::QueryId>;

fn register_looped(engine: &mut ItaEngine, queries: &[ContinuousQuery]) -> Vec<cts_index::QueryId> {
    queries.iter().map(|q| engine.register(q.clone())).collect()
}

fn register_bulk(engine: &mut ItaEngine, queries: &[ContinuousQuery]) -> Vec<cts_index::QueryId> {
    engine.register_batch(queries.to_vec())
}

fn bench_registration_strategies(c: &mut Criterion) {
    let point = operating_point();
    let queries = build_queries(&point);
    let arms: [(&str, RegisterFn); 2] = [("lazy-loop", register_looped), ("bulk", register_bulk)];
    for (label, register) in arms {
        let mut engine = filled_engine(&point);
        eprintln!(
            "ablation_register: {label} ready ({} queries, {}-doc window)",
            point.num_queries, point.window_docs
        );
        let mut register_time = std::time::Duration::ZERO;
        let mut iterations = 0u64;
        let postings_before = engine.register_postings_touched();
        c.bench_function(
            &format!(
                "ita_term_filtered/register/q{}w{}/{label}",
                point.num_queries, point.window_docs
            ),
            |b| {
                b.iter(|| {
                    // The registration half is what this ablation prices;
                    // the deregister half restores the engine for the next
                    // iteration and is deliberately inside the criterion
                    // clock but outside the manual one.
                    let start = Instant::now();
                    let ids = register(&mut engine, &queries);
                    register_time += start.elapsed();
                    iterations += 1;
                    for id in &ids {
                        engine.deregister(*id);
                    }
                })
            },
        );
        if iterations > 0 {
            let per_workload = register_time.as_secs_f64() / iterations as f64;
            let filed = engine.register_postings_touched() - postings_before;
            eprintln!(
                "ita_term_filtered/register/{label}: {:.3} s per {}-query workload \
                 ({:.1} µs/query, {} postings filed across {iterations} iteration(s))",
                per_workload,
                point.num_queries,
                per_workload * 1e6 / point.num_queries as f64,
                filed,
            );
        }
    }
}

/// One query registering alone, at lengths on both sides of the backfill
/// strategy switch.
fn bench_single_registration(c: &mut Criterion) {
    let point = operating_point();
    let mut engine = filled_engine(&point);
    let resident = build_queries(&point);
    engine.register_batch(resident[..point.num_queries / 2].to_vec());
    for (length, pass) in [
        (10, "per-term probes"),
        (16, "per-term probes"),
        (17, "directory walk"),
    ] {
        let fresh = build_queries_of(&point, 64, length, 0x4E60_0100 + length as u64);
        let mut register_time = std::time::Duration::ZERO;
        let mut iterations = 0usize;
        c.bench_function(
            &format!(
                "ita_term_filtered/register/q{}w{}/single/len{length}",
                point.num_queries, point.window_docs
            ),
            |b| {
                b.iter(|| {
                    let query = fresh[iterations % fresh.len()].clone();
                    let start = Instant::now();
                    let id = engine.register(query);
                    register_time += start.elapsed();
                    iterations += 1;
                    engine.deregister(id);
                })
            },
        );
        if iterations > 0 {
            eprintln!(
                "ita_term_filtered/register/single/len{length}: {:.2} ms per lone \
                 registration over a {}-document window ({pass}, {iterations} iteration(s))",
                register_time.as_secs_f64() * 1e3 / iterations as f64,
                point.window_docs,
            );
        }
    }
}

criterion_group!(
    benches,
    bench_registration_strategies,
    bench_single_registration
);
criterion_main!(benches);
