//! Ablation: ITA with and without threshold roll-up (§III-C).
//!
//! Roll-up reclaims the slack between `τ` and `S_k` after an arrival
//! improves a top-k, shrinking the result sets that every later event has to
//! maintain. This bench streams the same fixture through both
//! configurations; the roll-up variant should win on a churning stream.
//!
//! Run with `cargo bench --bench ablation_rollup`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use cts_bench::fixture;
use cts_core::{Engine, ItaConfig, ItaEngine};
use cts_index::SlidingWindow;

fn stream_events(c: &mut Criterion, label: &str, config: ItaConfig) {
    let fixture = fixture(400, 50);
    c.bench_function(label, |b| {
        b.iter_batched(
            || {
                let mut engine = ItaEngine::new(SlidingWindow::count_based(100), config);
                for query in &fixture.queries {
                    engine.register(query.clone());
                }
                engine
            },
            |mut engine| {
                for doc in &fixture.documents {
                    engine.process_document(doc.clone());
                }
                engine
            },
            BatchSize::LargeInput,
        )
    });
}

fn bench_rollup(c: &mut Criterion) {
    stream_events(
        c,
        "ita/rollup_on",
        ItaConfig {
            enable_rollup: true,
        },
    );
    stream_events(
        c,
        "ita/rollup_off",
        ItaConfig {
            enable_rollup: false,
        },
    );
}

criterion_group!(benches, bench_rollup);
criterion_main!(benches);
