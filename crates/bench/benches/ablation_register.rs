//! Ablation: what a query registration costs, and what it reads.
//!
//! A term-filtered shadow engine (the shard-side configuration) must file
//! the window postings of every term a registration brings live. DESIGN.md
//! §9 has the cost model; this bench prices its three parts.
//!
//! **Stand-alone engine** (`ita_term_filtered/register/…`) — nobody supplies
//! postings, so the engine reads them out of its own store, one bitmap walk
//! of the whole window per call:
//!
//! * `lazy-loop` — one [`Engine::register`] call per query, a walk each;
//! * `bulk` — one [`Engine::register_batch`] call, one walk for the lot;
//! * `single/len10` — one ten-term query registering alone on an engine
//!   that already holds half the workload.
//!
//! **Resolved by the window's owner** (`window_terms/register/…`) — what the
//! sharded coordinator does: a [`WindowTerms`] over the same documents
//! answers [`WindowTerms::postings`] and the engine files the answer
//! ([`ItaEngine::register_shared_batch`]). Arms: a lone query, bursts of 16
//! and 64, the 1,000-query workload × a 10k- and a 40k-document window ×
//! directories *cold* (a fresh `WindowTerms` per call: everything is walked,
//! then the bounded builds run) and *warm* (every sealed chunk built). Each
//! arm prints the time per call split into resolve and file-and-search, the
//! composition entries walked and the postings answered from directories —
//! a warm lone registration must follow the chunk count and its own
//! postings, not the window's 2.3M / 9.2M entries.
//!
//! **Migration** (`window_terms/migrate/…`) — one ten-term query moving
//! between two filtered engines over the same 10k window (the two-shard
//! rebalancer's unit of work), timed from extracted state to installed:
//! `walk` — nobody supplies postings, so the destination reads its own store
//! (what a shard did at a migrated term's first probe before migrations
//! shipped their postings, and what a stand-alone engine still does);
//! `shipped/cold` and `shipped/warm` — the window's owner resolves the
//! query's terms ([`WindowTerms::postings`], directories cold / built) and
//! the destination files the answer ([`ItaEngine::install_query`]).
//!
//! **Shape sweep** (`window_terms/shape/…`) — chunk length × builds per call
//! on the 10k window, `WindowTerms` alone: the cold and the warm lone call,
//! a warm burst of 16, the directory build per document, the directories'
//! bytes and the calls a fresh window needs before it is fully built. This
//! is what `cts_index::window_terms::{CHUNK_DOCS, BUILDS_PER_CALL}` were
//! read off.
//!
//! The routines register and then deregister (restoring the engine for the
//! next iteration); a manual clock around the registration half separates it
//! from the teardown. Run with `cargo bench --bench ablation_register`. Set
//! `CTS_ABLATION_REGISTER_QUICK=1` for a reduced point (50 queries, 400- and
//! 1,600-document windows, chunks of 16) when iterating on the harness.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};

use cts_core::{ContinuousQuery, Engine, ItaConfig, ItaEngine};
use cts_corpus::{CorpusConfig, DocumentStream, QueryWorkload, StreamConfig, WorkloadConfig};
use cts_index::window_terms::{BUILDS_PER_CALL, CHUNK_DOCS};
use cts_index::{Document, QueryId, SlidingWindow, TermPostings, WindowTerms};
use cts_text::weighting::Scoring;
use cts_text::{Dictionary, TermId};

struct Point {
    quick: bool,
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
        quick,
        num_queries: if quick { 50 } else { 1_000 },
        window_docs: if quick { 400 } else { 10_000 },
        corpus,
    }
}

fn build_queries(point: &Point) -> Vec<ContinuousQuery> {
    build_queries_of(point, point.num_queries, 0x4E60_0002)
}

fn build_queries_of(point: &Point, num_queries: usize, seed: u64) -> Vec<ContinuousQuery> {
    let workload = QueryWorkload::new(
        WorkloadConfig {
            num_queries,
            query_length: 10,
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

/// The first `count` documents of the bench's stream, shared.
fn window_documents(point: &Point, count: usize) -> Vec<Arc<Document>> {
    let mut stream = DocumentStream::new(
        point.corpus,
        StreamConfig {
            arrival_rate_per_sec: 200.0,
            seed: 0x4E60_0003,
        },
    );
    (0..count)
        .map(|_| Arc::new(stream.next_document()))
        .collect()
}

/// A term-filtered engine whose window holds exactly `docs` (untimed setup).
fn filled_engine(docs: &[Arc<Document>]) -> ItaEngine {
    let mut engine =
        ItaEngine::term_filtered(SlidingWindow::count_based(docs.len()), ItaConfig::default());
    for doc in docs {
        engine.process_shared(Arc::clone(doc));
    }
    engine
}

fn window_over(docs: &[Arc<Document>], chunk_docs: usize, builds_per_call: usize) -> WindowTerms {
    let mut window = WindowTerms::with_shape(chunk_docs, builds_per_call);
    for doc in docs {
        window.push(Arc::clone(doc));
    }
    window
}

fn terms_of(queries: &[ContinuousQuery]) -> Vec<TermId> {
    queries
        .iter()
        .flat_map(|query| query.terms().map(|(term, _)| term))
        .collect()
}

fn ms(duration: Duration, calls: u64) -> f64 {
    duration.as_secs_f64() * 1e3 / calls.max(1) as f64
}

/// One registration strategy: how it registers the workload.
type RegisterFn = fn(&mut ItaEngine, &[ContinuousQuery]) -> Vec<QueryId>;

fn register_looped(engine: &mut ItaEngine, queries: &[ContinuousQuery]) -> Vec<QueryId> {
    queries.iter().map(|q| engine.register(q.clone())).collect()
}

fn register_bulk(engine: &mut ItaEngine, queries: &[ContinuousQuery]) -> Vec<QueryId> {
    engine.register_batch(queries.to_vec())
}

fn bench_registration_strategies(c: &mut Criterion) {
    let point = operating_point();
    let queries = build_queries(&point);
    let docs = window_documents(&point, point.window_docs);
    let arms: [(&str, RegisterFn); 2] = [("lazy-loop", register_looped), ("bulk", register_bulk)];
    for (label, register) in arms {
        let mut engine = filled_engine(&docs);
        eprintln!(
            "ablation_register: {label} ready ({} queries, {}-doc window)",
            point.num_queries, point.window_docs
        );
        let mut register_time = Duration::ZERO;
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
                 ({:.1} µs/query, {} postings filed and {} composition entries walked \
                 across {iterations} iteration(s))",
                per_workload,
                point.num_queries,
                per_workload * 1e6 / point.num_queries as f64,
                filed,
                engine.register_entries_walked(),
            );
        }
    }
}

/// One query registering alone on a stand-alone filtered engine: the walk
/// that remains where nobody supplies postings.
fn bench_single_registration(c: &mut Criterion) {
    let point = operating_point();
    let docs = window_documents(&point, point.window_docs);
    let mut engine = filled_engine(&docs);
    let resident = build_queries(&point);
    engine.register_batch(resident[..point.num_queries / 2].to_vec());
    let fresh = build_queries_of(&point, 64, 0x4E60_010A);
    let mut register_time = Duration::ZERO;
    let mut iterations = 0u64;
    c.bench_function(
        &format!(
            "ita_term_filtered/register/q{}w{}/single/len10",
            point.num_queries, point.window_docs
        ),
        |b| {
            b.iter(|| {
                let query = fresh[iterations as usize % fresh.len()].clone();
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
            "ita_term_filtered/register/single/len10: {:.2} ms per lone registration \
             over a {}-document window (one bitmap walk of the engine's own store, \
             {iterations} iteration(s))",
            ms(register_time, iterations),
            point.window_docs,
        );
    }
}

/// Registration as the sharded coordinator performs it — postings resolved
/// by a `WindowTerms`, filed by the engine — across burst sizes, window
/// sizes and directory states.
fn bench_resolved_registration(c: &mut Criterion) {
    let point = operating_point();
    let chunk_docs = if point.quick { 16 } else { CHUNK_DOCS };
    for window_docs in [point.window_docs, 4 * point.window_docs] {
        let docs = window_documents(&point, window_docs);
        let entries: usize = docs.iter().map(|doc| doc.composition.len()).sum();
        let mut engine = filled_engine(&docs);
        let resident = build_queries(&point);
        engine.register_batch(resident[..point.num_queries / 2].to_vec());
        // The resident half registered stand-alone: that one walk is all
        // this engine ever reads out of its own store.
        let own_walk = engine.register_entries_walked();
        let mut warm = window_over(&docs, chunk_docs, usize::MAX);
        warm.postings([TermId(0)]);
        let built = warm.stats();
        eprintln!(
            "ablation_register: {window_docs}-doc window = {entries} composition entries; \
             {} of {} chunks carry a directory, {:.2} MB",
            built.directories,
            built.chunks,
            built.directory_bytes as f64 / 1e6,
        );
        for burst in [1, 16, 64, point.num_queries] {
            let arm = if burst == 1 {
                "lone".to_string()
            } else {
                format!("q{burst}")
            };
            // 64 distinct bursts, cycled, so no call re-registers the terms
            // the previous one just released.
            let bursts: Vec<Vec<ContinuousQuery>> = (0..if burst > 64 { 2 } else { 64 })
                .map(|i| build_queries_of(&point, burst, 0x4E60_0200 + i))
                .collect();
            for state in ["cold", "warm"] {
                let (mut resolve, mut file) = (Duration::ZERO, Duration::ZERO);
                let mut calls = 0u64;
                let (mut walked, mut from_directories, mut filed) = (0u64, 0u64, 0u64);
                c.bench_function(
                    &format!("window_terms/register/w{window_docs}/{arm}/{state}"),
                    |b| {
                        b.iter(|| {
                            let queries = &bursts[calls as usize % bursts.len()];
                            // Ids above the resident ones, reused call
                            // after call: each burst leaves before the next.
                            let batch: Vec<(QueryId, Arc<ContinuousQuery>)> = (point.num_queries
                                as u32..)
                                .zip(queries)
                                .map(|(id, query)| (QueryId(id), Arc::new(query.clone())))
                                .collect();
                            // Cold: a window nobody has asked anything yet.
                            let mut fresh = (state == "cold")
                                .then(|| window_over(&docs, chunk_docs, BUILDS_PER_CALL));
                            let window = fresh.as_mut().unwrap_or(&mut warm);
                            let before = window.stats();
                            let filed_before = engine.register_postings_touched();
                            let start = Instant::now();
                            let postings = window.postings(terms_of(queries));
                            let resolved = start.elapsed();
                            engine.register_shared_batch(&batch, &postings);
                            let done = start.elapsed();
                            resolve += resolved;
                            file += done - resolved;
                            calls += 1;
                            let after = window.stats();
                            walked += after.entries_walked - before.entries_walked;
                            from_directories +=
                                after.postings_from_directories - before.postings_from_directories;
                            filed += engine.register_postings_touched() - filed_before;
                            for (id, _) in &batch {
                                engine.deregister(*id);
                            }
                        })
                    },
                );
                assert_eq!(
                    engine.register_entries_walked(),
                    own_walk,
                    "the engine walked"
                );
                eprintln!(
                    "window_terms/register/w{window_docs}/{arm}/{state}: {:.3} ms per call \
                     = {:.3} resolve + {:.3} file and search ({:.1} µs/query); per call {} \
                     entries walked, {} postings from directories, {} filed ({calls} calls)",
                    ms(resolve + file, calls),
                    ms(resolve, calls),
                    ms(file, calls),
                    ms(resolve + file, calls) * 1e3 / burst as f64,
                    walked / calls.max(1),
                    from_directories / calls.max(1),
                    filed / calls.max(1),
                );
            }
        }
    }
}

/// One query migrating between two filtered engines over the same window:
/// the destination walking its own store against the window's owner
/// resolving the postings (directories cold and warm) and shipping them.
fn bench_migration(c: &mut Criterion) {
    let point = operating_point();
    let chunk_docs = if point.quick { 16 } else { CHUNK_DOCS };
    let docs = window_documents(&point, point.window_docs);
    let mut source = filled_engine(&docs);
    let mut destination = filled_engine(&docs);
    // The destination hosts half the workload, so a migrated query finds
    // some of its terms live already, as on a running shard.
    let resident = build_queries(&point);
    destination.register_batch(resident[..point.num_queries / 2].to_vec());
    let movers: Vec<(QueryId, Arc<ContinuousQuery>)> = (point.num_queries as u32..)
        .zip(build_queries_of(&point, 64, 0x4E60_0400))
        .map(|(id, query)| (QueryId(id), Arc::new(query)))
        .collect();
    source.register_shared_batch(&movers, &TermPostings::default());
    let mut warm = window_over(&docs, chunk_docs, usize::MAX);
    warm.postings([TermId(0)]);
    for arm in ["walk", "shipped/cold", "shipped/warm"] {
        let (mut resolve, mut install) = (Duration::ZERO, Duration::ZERO);
        let mut calls = 0u64;
        let walked_before = destination.register_entries_walked();
        let filed_before = destination.register_postings_touched();
        c.bench_function(&format!("window_terms/migrate/{arm}"), |b| {
            b.iter(|| {
                let (qid, _) = movers[calls as usize % movers.len()];
                let migration = source.extract_query(qid).expect("the mover is home");
                let mut fresh = (arm == "shipped/cold")
                    .then(|| window_over(&docs, chunk_docs, BUILDS_PER_CALL));
                let start = Instant::now();
                let postings = match arm {
                    "walk" => TermPostings::default(),
                    _ => fresh
                        .as_mut()
                        .unwrap_or(&mut warm)
                        .postings(migration.terms()),
                };
                let resolved = start.elapsed();
                destination.install_query(qid, migration, &postings);
                let done = start.elapsed();
                resolve += resolved;
                install += done - resolved;
                calls += 1;
                // Home again, outside the manual clock.
                let back = destination.extract_query(qid).expect("just installed");
                source.install_query(qid, back, &TermPostings::default());
            })
        });
        eprintln!(
            "window_terms/migrate/{arm}: {:.3} ms per migration = {:.3} resolve + {:.3} \
             install over a {}-document window; per migration {} entries walked by the \
             destination, {} postings filed ({calls} migrations)",
            ms(resolve + install, calls),
            ms(resolve, calls),
            ms(install, calls),
            point.window_docs,
            (destination.register_entries_walked() - walked_before) / calls.max(1),
            (destination.register_postings_touched() - filed_before) / calls.max(1),
        );
    }
}

/// Median of `calls` timings of `routine`, in microseconds.
fn median_us(calls: usize, mut routine: impl FnMut(usize) -> Duration) -> f64 {
    let mut timings: Vec<Duration> = (0..calls).map(&mut routine).collect();
    timings.sort_unstable();
    timings[timings.len() / 2].as_secs_f64() * 1e6
}

/// Chunk length × builds per call on the 10k window, `WindowTerms` alone.
fn bench_window_shape(_c: &mut Criterion) {
    let point = operating_point();
    let docs = window_documents(&point, point.window_docs);
    let lone: Vec<Vec<TermId>> = build_queries_of(&point, 40, 0x4E60_0300)
        .iter()
        .map(|query| terms_of(std::slice::from_ref(query)))
        .collect();
    let bursts: Vec<Vec<TermId>> = (0..10)
        .map(|i| terms_of(&build_queries_of(&point, 16, 0x4E60_0400 + i)))
        .collect();
    let chunk_lengths: &[usize] = if point.quick {
        &[8, 16, 32]
    } else {
        &[128, 256, 512, 1024]
    };
    for &chunk_docs in chunk_lengths {
        for builds_per_call in [1, 2, 4] {
            let cold = median_us(lone.len().min(12), |i| {
                let mut window = window_over(&docs, chunk_docs, builds_per_call);
                let start = Instant::now();
                window.postings(lone[i].iter().copied());
                start.elapsed()
            });
            let mut window = window_over(&docs, chunk_docs, builds_per_call);
            let sealed = docs.len() / chunk_docs;
            let mut warming_calls = 0;
            let mut warming = Duration::ZERO;
            while window.stats().directories < sealed {
                let start = Instant::now();
                window.postings(lone[warming_calls % lone.len()].iter().copied());
                warming += start.elapsed();
                warming_calls += 1;
            }
            let walked = window.stats().entries_walked;
            let warm_lone = median_us(lone.len(), |i| {
                let start = Instant::now();
                window.postings(lone[i].iter().copied());
                start.elapsed()
            });
            let walked_per_warm_call = (window.stats().entries_walked - walked) / lone.len() as u64;
            let warm_burst = median_us(bursts.len(), |i| {
                let start = Instant::now();
                window.postings(bursts[i].iter().copied());
                start.elapsed()
            });
            // What the builds alone cost: everything built in one call.
            let mut all_at_once = window_over(&docs, chunk_docs, usize::MAX);
            let mut never = window_over(&docs, chunk_docs, 0);
            let start = Instant::now();
            all_at_once.postings(lone[0].iter().copied());
            let with_builds = start.elapsed();
            let start = Instant::now();
            never.postings(lone[0].iter().copied());
            let walk_only = start.elapsed();
            eprintln!(
                "window_terms/shape/chunk{chunk_docs}/builds{builds_per_call}: lone cold \
                 {cold:.0} µs, lone warm {warm_lone:.0} µs ({walked_per_warm_call} entries \
                 walked), q16 warm {warm_burst:.0} µs; fully built after {warming_calls} \
                 calls ({:.1} ms in all), build {:.2} µs/doc, {sealed} directories = \
                 {:.2} MB",
                warming.as_secs_f64() * 1e3,
                with_builds.saturating_sub(walk_only).as_secs_f64() * 1e6
                    / (sealed * chunk_docs).max(1) as f64,
                window.stats().directory_bytes as f64 / 1e6,
            );
        }
    }
}

criterion_group!(
    benches,
    bench_registration_strategies,
    bench_single_registration,
    bench_resolved_registration,
    bench_migration,
    bench_window_shape
);
criterion_main!(benches);
