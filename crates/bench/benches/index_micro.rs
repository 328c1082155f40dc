//! Micro-benchmarks of the index substrate: the operations on the paper's
//! hot path.
//!
//! * `inverted_list/insert_expire` — one posting insertion plus one expiry
//!   on a realistically sized impact-ordered list sliding under a
//!   1,000-arrival window (the per-term cost of a document arrival +
//!   expiration pair): the expiry counts a dead posting, and every 251st
//!   compacts the list in one pass.
//! * `inverted_list/resume_below` — the refill access path: resume a
//!   descent at a recorded local threshold.
//! * `threshold_tree/probe` — the `θ_{Q,t} ≤ w` range probe executed for
//!   every term of every arriving document.
//! * `threshold_tree/update` — moving a query's local threshold.
//! * `inverted_index/churn` — a full document arrival + oldest-expiration
//!   cycle through the composite index: filing every composition entry, then
//!   killing the expiring document's postings in place (and the compactions
//!   that come due). Its 256-document window over the small fixture corpus
//!   keeps every list in L2, so a change of list layout barely shows here.
//! * `inverted_index/churn_paper` — the same cycle where a layout change
//!   is paid: a full index over the paper-point corpus (the default
//!   `CorpusConfig` at seed 7) with a 10k-document window, ≈ 230 postings
//!   filed and ≈ 230 killed per iteration across ≈ 167k lists, most of
//!   them a few postings long. Generating the next document is setup, not
//!   measured.
//! * `live_terms/intersect` — cutting one paper-point document (≈ 230
//!   composition entries) down to its live entries against the bitmap of the
//!   ≈ 9.7k terms that 1,000 ten-term queries use: the one pass an event
//!   still makes over a whole composition list, once on arrival and once on
//!   expiry.
//!
//! Run with `cargo bench --bench index_micro`.

#![expect(
    missing_docs,
    reason = "a bench binary has no API; criterion_group! emits an undocumented pub fn"
)]

use std::collections::VecDeque;

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};

use cts_bench::fixture;
use cts_corpus::{CorpusConfig, DocumentStream, QueryWorkload, StreamConfig, WorkloadConfig};
use cts_index::{DocId, Document, InvertedIndex, InvertedList, LiveTerms, QueryId, ThresholdTree};

/// Live postings of the `inverted_list` arms' list.
const LIST_LEN: u64 = 1_000;
use cts_text::Weight;

fn bench_inverted_list(c: &mut Criterion) {
    // A list the size of a busy term's: 1,000 live postings, one per
    // arrival of a window that every arrival slides by one.
    let weight = |seq: u64| Weight::new(0.001 + (seq % 997) as f64 * 0.00097);
    let mut list = InvertedList::new();
    for seq in 0..LIST_LEN {
        list.insert(seq, weight(seq));
    }
    let mut next = LIST_LEN;
    c.bench_function("inverted_list/insert_expire", |b| {
        b.iter(|| {
            list.insert(next, weight(next));
            next += 1;
            // The window's front passes the oldest posting.
            list.expire(next - LIST_LEN);
        })
    });

    c.bench_function("inverted_list/resume_below", |b| {
        b.iter(|| {
            // The refill access path: resume at a mid-list threshold and
            // read one tie group's worth of postings.
            black_box(
                list.iter_at_or_below(Weight::new(0.5))
                    .take(4)
                    .map(|p| p.seq)
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
    // The window's ids, oldest first: `remove_document` takes the oldest.
    let mut ids: VecDeque<DocId> = VecDeque::new();
    for doc in &fixture.documents[..256] {
        index.insert_document(doc.clone());
        ids.push_back(doc.id);
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
            ids.push_back(doc.id);
            index.insert_document(doc);
            let oldest = ids.pop_front().expect("window is non-empty");
            index.remove_document(oldest).expect("oldest is valid");
            cursor += 1;
        })
    });
}

/// Documents in `inverted_index/churn_paper`'s window: the paper point's.
const PAPER_WINDOW: usize = 10_000;

fn bench_index_churn_paper(c: &mut Criterion) {
    let corpus = CorpusConfig {
        seed: 7,
        ..CorpusConfig::default()
    };
    let mut stream = DocumentStream::new(corpus, StreamConfig::default());
    let mut index = InvertedIndex::new();
    // The window's ids, oldest first: `remove_document` takes the oldest.
    let mut ids: VecDeque<DocId> = VecDeque::with_capacity(PAPER_WINDOW + 1);
    for doc in stream.by_ref().take(PAPER_WINDOW) {
        ids.push_back(doc.id);
        index.insert_document(doc);
    }
    c.bench_function("inverted_index/churn_paper", |b| {
        b.iter_batched(
            || stream.next_document(),
            |doc| {
                ids.push_back(doc.id);
                index.insert_document(doc);
                let oldest = ids.pop_front().expect("window is non-empty");
                index.remove_document(oldest).expect("oldest is valid");
            },
            BatchSize::SmallInput,
        )
    });
    let stats = index.stats();
    eprintln!(
        "inverted_index/churn_paper: {} lists, {} live and {} dead postings, {:.1} MB of lists \
         ({:.1} bytes per stored posting)",
        stats.terms,
        stats.postings,
        stats.dead_postings,
        stats.list_bytes as f64 / 1e6,
        stats.list_bytes as f64 / (stats.postings + stats.dead_postings) as f64,
    );
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
    bench_index_churn_paper,
    bench_live_term_intersection
);
criterion_main!(benches);
