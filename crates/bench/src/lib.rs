//! Shared harness utilities for the benchmarks and figure-reproduction
//! binaries.
//!
//! Everything here is deterministic: fixtures are generated from fixed seeds
//! through `cts-corpus`, so two benchmark runs (or a benchmark and a test)
//! see byte-identical documents and queries.

pub mod sweep;

use cts_core::ContinuousQuery;
use cts_corpus::{CorpusConfig, DocumentStream, QueryWorkload, StreamConfig, WorkloadConfig};
use cts_index::Document;
use cts_text::weighting::Scoring;
use cts_text::Dictionary;

/// A deterministic benchmark fixture: a document stream prefix plus a query
/// workload over the same vocabulary.
#[derive(Debug, Clone)]
pub struct Fixture {
    /// The first `n` documents of the stream, ready to feed any engine.
    pub documents: Vec<Document>,
    /// The registered continuous queries.
    pub queries: Vec<ContinuousQuery>,
}

/// Builds a fixture with `documents` stream events and `queries` continuous
/// queries, over a reduced (test-sized) corpus. All randomness is seeded.
pub fn fixture(documents: usize, queries: usize) -> Fixture {
    let corpus = CorpusConfig {
        vocabulary_size: 5_000,
        seed: 0xBE7C_0001,
        ..CorpusConfig::small()
    };
    let workload = QueryWorkload::new(
        WorkloadConfig {
            num_queries: queries,
            query_length: 4,
            k: 10,
            popularity_biased: false,
            seed: 0xBE7C_0002,
        },
        corpus.vocabulary_size,
    );
    let dict = Dictionary::new();
    let queries = workload
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
            seed: 0xBE7C_0003,
        },
    );
    Fixture {
        documents: stream.take_documents(documents),
        queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_is_deterministic_and_sized() {
        let a = fixture(50, 10);
        let b = fixture(50, 10);
        assert_eq!(a.documents.len(), 50);
        assert_eq!(a.queries.len(), 10);
        assert_eq!(a.documents, b.documents);
        for (x, y) in a.queries.iter().zip(&b.queries) {
            assert_eq!(x, y);
        }
    }
}
