//! The document stream.
//!
//! A [`DocumentStream`] combines a [`SyntheticCorpus`] with a
//! [`PoissonArrivals`] process and the paper's cosine weights (Equation 1),
//! yielding ready-to-index [`Document`]s: each carries a unique id, its
//! Poisson arrival timestamp and its composition list (`⟨t, w_{d,t}⟩`
//! pairs). This is the exact shape of a stream element in the paper's model
//! (§II).

use cts_index::{DocId, Document, Timestamp};
use cts_text::weighting::Scoring;
use cts_text::Dictionary;

use crate::arrivals::PoissonArrivals;
use crate::config::{CorpusConfig, StreamConfig};
use crate::generator::SyntheticCorpus;

/// An infinite, deterministic stream of synthetic documents.
#[derive(Debug, Clone)]
pub struct DocumentStream {
    corpus: SyntheticCorpus,
    arrivals: PoissonArrivals,
    next_id: u64,
}

impl DocumentStream {
    /// Creates a stream from corpus and stream configurations.
    pub fn new(corpus_config: CorpusConfig, stream_config: StreamConfig) -> Self {
        Self {
            corpus: SyntheticCorpus::new(corpus_config),
            arrivals: PoissonArrivals::from_config(&stream_config),
            next_id: 0,
        }
    }

    /// A small, fast stream for tests and examples.
    pub fn small() -> Self {
        Self::new(CorpusConfig::small(), StreamConfig::default())
    }

    /// The vocabulary size of the underlying corpus.
    pub fn vocabulary_size(&self) -> usize {
        self.corpus.config().vocabulary_size
    }

    /// Produces the next document of the stream.
    pub fn next_document(&mut self) -> Document {
        let arrival = self.arrivals.next_arrival();
        self.next_document_at(arrival)
    }

    /// Produces the next document with an explicit arrival timestamp.
    fn next_document_at(&mut self, arrival: Timestamp) -> Document {
        let raw = self.corpus.next_term_vector();
        // The cosine weights read no dictionary; the parameter is pinned.
        let composition = Scoring::Cosine.document_weights(&raw, &Dictionary::new());
        let id = DocId(self.next_id);
        self.next_id += 1;
        Document::new(id, arrival, composition)
    }

    /// Produces the next `n` documents.
    pub fn take_documents(&mut self, n: usize) -> Vec<Document> {
        (0..n).map(|_| self.next_document()).collect()
    }
}

impl Iterator for DocumentStream {
    type Item = Document;

    fn next(&mut self) -> Option<Document> {
        Some(self.next_document())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documents_have_unique_increasing_ids_and_times() {
        let mut s = DocumentStream::small();
        let docs = s.take_documents(100);
        for (i, d) in docs.iter().enumerate() {
            assert_eq!(d.id, DocId(i as u64));
        }
        for pair in docs.windows(2) {
            assert!(pair[0].arrival < pair[1].arrival);
        }
    }

    #[test]
    fn cosine_compositions_are_unit_norm() {
        let mut s = DocumentStream::small();
        for d in s.take_documents(20) {
            let norm = d.composition.l2_norm();
            assert!((norm - 1.0).abs() < 1e-9, "norm {norm}");
            assert!(!d.composition.is_empty());
        }
    }

    #[test]
    fn streams_are_reproducible() {
        let a: Vec<_> = DocumentStream::small().take(25).collect();
        let b: Vec<_> = DocumentStream::small().take(25).collect();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.composition, y.composition);
        }
    }

    #[test]
    fn explicit_arrival_times_are_respected() {
        let mut s = DocumentStream::small();
        let d = s.next_document_at(Timestamp::from_secs(42));
        assert_eq!(d.arrival, Timestamp::from_secs(42));
    }

    #[test]
    fn arrival_rate_matches_configuration() {
        let mut s = DocumentStream::new(
            CorpusConfig::small(),
            StreamConfig {
                arrival_rate_per_sec: 200.0,
                seed: 5,
            },
        );
        let docs = s.take_documents(5_000);
        let elapsed = docs.last().unwrap().arrival.as_secs_f64();
        let rate = docs.len() as f64 / elapsed;
        assert!((rate - 200.0).abs() / 200.0 < 0.1, "rate {rate}");
    }
}
