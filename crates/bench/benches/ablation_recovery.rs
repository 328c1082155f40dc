//! Ablation: what recovering a faulted shard worker costs, warm vs cold —
//! and what being able to costs when nothing faults.
//!
//! Fixes a sharded engine over a filled count-based window and prices the
//! two recovery paths of DESIGN.md §10 against each other:
//!
//! * `warm` — the default checkpoint + op-log configuration: a caught panic
//!   clones the worker's checkpoint and replays the logged mutations. Cost
//!   scales with engine-state size (the clone) plus log length, independent
//!   of the window.
//! * `cold` — `checkpoint_interval: 0`: every caught panic poisons the
//!   shard, so the coordinator rebuilds it from the durable registry and
//!   the window mirror — re-registration plus a full window replay. Cost
//!   scales with window size × resident queries.
//!
//! Each measured iteration arms one fault and feeds one document through
//! the engine, so the criterion number is (event + recovery); the fault-free
//! `none` arm prices the same event without a fault for the baseline. The
//! engine's own `recovery_micros` counter is printed per arm, isolating
//! time inside restore/rebuild from the surrounding dispatch.
//!
//! The `steady` arms are the first column of the ROADMAP's `robustness_tax`:
//! the same fault-free stream, in bursts of 64, at the paper point (1,000
//! queries, 10k-document window, 2 shards) with `checkpoint_interval` 0 and
//! 256. The difference is the price of warm recovery in steady state — one
//! delta sync of each worker's checkpoint per 256 mutations — and the
//! workers' own `checkpoint_time / events` is printed beside it.
//!
//! Run with `cargo bench --bench ablation_recovery`. Set
//! `CTS_ABLATION_RECOVERY_QUICK=1` for reduced points (50 queries, a
//! 400-document window) when iterating on the harness itself.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use cts_core::{
    ContinuousQuery, Engine, FaultConfig, ItaConfig, RebalanceConfig, ShardedItaEngine,
};
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
fn prepared_engine(point: &Point, faults: FaultConfig) -> (ShardedItaEngine, DocumentStream) {
    let mut engine = ShardedItaEngine::with_faults(
        SlidingWindow::count_based(point.window_docs),
        ItaConfig::default(),
        2,
        RebalanceConfig::default(),
        faults,
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

fn bench_recovery_paths(c: &mut Criterion) {
    let point = operating_point(500, 5_000);
    let arms: [(&str, Option<FaultConfig>); 3] = [
        // Baseline: the same steady-state event with no fault at all.
        ("none", None),
        ("warm", Some(FaultConfig::default())),
        (
            "cold",
            Some(FaultConfig {
                checkpoint_interval: 0,
                ..FaultConfig::default()
            }),
        ),
    ];
    for (label, faults) in arms {
        let (mut engine, mut stream) = prepared_engine(&point, faults.unwrap_or_default());
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
                    if faults.is_some() {
                        // One fault on one shard per iteration: the next
                        // event is applied, the worker panics, and the
                        // measured time includes the recovery.
                        engine.inject_fault(0);
                    }
                    engine.process_document(stream.next_document())
                })
            },
        );
        let stats = engine.fault_stats().expect("sharded engines track faults");
        assert_eq!(
            stats.faults, stats.recoveries,
            "{label}: some faults did not recover"
        );
        eprintln!(
            "sharded_ita/recovery/{label}: {} faults, {} recoveries, \
             {} µs total inside restore/rebuild ({:.1} µs/recovery)",
            stats.faults,
            stats.recoveries,
            stats.recovery_micros,
            if stats.recoveries > 0 {
                stats.recovery_micros as f64 / stats.recoveries as f64
            } else {
                0.0
            },
        );
    }
}

/// Events per `process_batch` call in the steady-state arms.
const STEADY_BURST: usize = 64;

fn bench_steady_state_price(c: &mut Criterion) {
    let point = operating_point(1_000, 10_000);
    for checkpoint_interval in [0usize, 256] {
        let faults = FaultConfig {
            checkpoint_interval,
            ..FaultConfig::default()
        };
        let (mut engine, mut stream) = prepared_engine(&point, faults);
        engine.reset_shard_stats();
        c.bench_function(
            &format!(
                "sharded_ita/steady/q{}w{}/checkpoint_interval_{checkpoint_interval}/burst{STEADY_BURST}",
                point.num_queries, point.window_docs
            ),
            |b| {
                b.iter_batched(
                    || stream.take_documents(STEADY_BURST),
                    |burst| engine.process_batch(burst),
                    BatchSize::PerIteration,
                )
            },
        );
        let faults = engine.fault_stats().expect("sharded engines track faults");
        assert_eq!(faults.faults, 0, "the steady-state arm must not fault");
        // Every worker sees every event; the slowest worker's syncs are what
        // the stream waits for.
        let slowest = engine
            .shard_stats()
            .into_iter()
            .max_by_key(|stats| stats.checkpoint_time)
            .expect("at least one shard");
        let per_event =
            |total: std::time::Duration| total.as_secs_f64() * 1e6 / slowest.events.max(1) as f64;
        eprintln!(
            "sharded_ita/steady/checkpoint_interval_{checkpoint_interval}: {} events per worker, \
             {} syncs, {:.2} µs/event inside syncs ({:.1} µs/sync) beside {:.2} µs/event \
             inside events",
            slowest.events,
            slowest.checkpoints,
            per_event(slowest.checkpoint_time),
            if slowest.checkpoints > 0 {
                slowest.checkpoint_time.as_secs_f64() * 1e6 / slowest.checkpoints as f64
            } else {
                0.0
            },
            per_event(slowest.total_time),
        );
    }
}

criterion_group!(benches, bench_recovery_paths, bench_steady_state_price);
criterion_main!(benches);
