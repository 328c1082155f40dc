//! Micro-benchmarks of the index substrate: the operations on the paper's
//! hot path.
//!
//! * `inverted_list/insert_expire` — one posting insertion plus one removal
//!   on a realistically sized impact-ordered list (the per-term cost of a
//!   document arrival + expiration pair).
//! * `inverted_list/resume_below` — the refill access path: resume a
//!   descent at a recorded local threshold.
//! * `threshold_tree/probe` — the `θ_{Q,t} ≤ w` range probe executed for
//!   every term of every arriving document.
//! * `threshold_tree/update` — moving a query's local threshold.
//! * `inverted_index/churn` — a full document arrival + oldest-expiration
//!   cycle through the composite index.
//! * `live_terms/intersect` — cutting one paper-point document (≈ 230
//!   composition entries) down to its live entries against the bitmap of the
//!   ≈ 9.7k terms that 1,000 ten-term queries use: the one pass an event
//!   still makes over a whole composition list, once on arrival and once on
//!   expiry.
//!
//! Run with `cargo bench --bench index_micro`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cts_bench::fixture;
use cts_corpus::{CorpusConfig, DocumentStream, QueryWorkload, StreamConfig, WorkloadConfig};
use cts_index::{DocId, Document, InvertedIndex, InvertedList, LiveTerms, QueryId, ThresholdTree};
use cts_text::Weight;

fn bench_inverted_list(c: &mut Criterion) {
    // A list the size of a busy term's: 1,000 postings.
    let mut list = InvertedList::new();
    for i in 0..1_000u64 {
        list.insert(DocId(i), Weight::new(0.001 + (i % 997) as f64 * 0.00097));
    }
    let mut next = 1_000u64;
    c.bench_function("inverted_list/insert_expire", |b| {
        b.iter(|| {
            let id = DocId(next);
            let w = Weight::new(0.001 + (next % 997) as f64 * 0.00097);
            list.insert(id, w);
            list.remove(id, w);
            next += 1;
        })
    });

    c.bench_function("inverted_list/resume_below", |b| {
        b.iter(|| {
            // The refill access path: resume at a mid-list threshold and
            // read one tie group's worth of postings.
            black_box(
                list.iter_at_or_below(Weight::new(0.5))
                    .take(4)
                    .map(|p| p.doc.0)
                    .sum::<u64>(),
            )
        })
    });
}

fn bench_threshold_tree(c: &mut Criterion) {
    // One tree entry per query containing the term — the paper registers
    // 1,000 queries, and a popular term appears in a few hundred of them.
    let mut tree = ThresholdTree::new();
    for i in 0..500u32 {
        tree.insert(QueryId(i), Weight::new((i % 97) as f64 * 0.01));
    }
    c.bench_function("threshold_tree/probe", |b| {
        b.iter(|| {
            // A mid-range impact weight: roughly half the entries match.
            black_box(tree.affected_by(Weight::new(0.48)).count())
        })
    });
    c.bench_function("threshold_tree/update", |b| {
        // Move the entry away and back in one iteration so the tree state is
        // identical across iterations (and across harness warm-up passes).
        b.iter(|| {
            tree.update(QueryId(7), Weight::new(0.07), Weight::new(0.93));
            tree.update(QueryId(7), Weight::new(0.93), Weight::new(0.07));
        })
    });
}

fn bench_index_churn(c: &mut Criterion) {
    let fixture = fixture(512, 0);
    let mut index = InvertedIndex::with_capacity(256, 40);
    for doc in &fixture.documents[..256] {
        index.insert_document(doc.clone());
    }
    let mut cursor = 256usize;
    c.bench_function("inverted_index/churn", |b| {
        b.iter(|| {
            let template = &fixture.documents[cursor % fixture.documents.len()];
            // Re-id the document so ids never collide as the fixture wraps.
            let doc = Document::new(
                DocId(cursor as u64 + 1_000_000),
                template.arrival,
                template.composition.clone(),
            );
            index.insert_document(doc);
            let oldest = index.store().oldest().expect("window is non-empty").id;
            index.remove_document(oldest).expect("oldest is valid");
            cursor += 1;
        })
    });
}

fn bench_live_term_intersection(c: &mut Criterion) {
    // The paper point: the default corpus (182k-term vocabulary) and the
    // default workload (1,000 uniformly drawn ten-term queries).
    let corpus = CorpusConfig::default();
    let workload = QueryWorkload::new(WorkloadConfig::default(), corpus.vocabulary_size);
    let mut live = LiveTerms::live_slots();
    for spec in workload.generate() {
        for (term, _) in spec.terms.iter() {
            live.acquire(term);
        }
    }
    let documents = DocumentStream::new(corpus, StreamConfig::default()).take_documents(256);
    let entries: usize = documents.iter().map(|d| d.composition.len()).sum();
    let mut scratch = Vec::new();
    let mut kept = 0usize;
    let mut cursor = 0usize;
    c.bench_function("live_terms/intersect", |b| {
        b.iter(|| {
            let doc = &documents[cursor % documents.len()];
            live.intersect(black_box(doc.composition.as_slice()), &mut scratch);
            kept += black_box(&scratch).len();
            cursor += 1;
        })
    });
    eprintln!(
        "live_terms/intersect: {} live terms; {:.1} composition entries per document, {:.1} of them live",
        live.len(),
        entries as f64 / documents.len() as f64,
        kept as f64 / cursor.max(1) as f64,
    );
}

criterion_group!(
    benches,
    bench_inverted_list,
    bench_threshold_tree,
    bench_index_churn,
    bench_live_term_intersection
);
criterion_main!(benches);
