//! The synthetic document generator.
//!
//! [`SyntheticCorpus`] produces raw term-frequency vectors whose statistics
//! mimic a newswire collection: term popularity follows a Zipf law over the
//! configured vocabulary and document lengths follow a clamped log-normal.
//! The generator is deterministic for a given [`CorpusConfig`] seed.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use cts_text::{TermId, TermVector};

use crate::config::CorpusConfig;
use crate::distributions::{LogNormal, Zipf};
use crate::vocabulary::Vocabulary;

/// A deterministic generator of synthetic newswire-like documents.
#[derive(Debug, Clone)]
pub struct SyntheticCorpus {
    config: CorpusConfig,
    zipf: Zipf,
    doc_len: LogNormal,
    rng: SmallRng,
    generated: u64,
}

impl SyntheticCorpus {
    /// Creates a generator from a configuration.
    pub fn new(config: CorpusConfig) -> Self {
        assert!(config.vocabulary_size > 0, "vocabulary must be non-empty");
        assert!(
            config.min_doc_len >= 1 && config.min_doc_len <= config.max_doc_len,
            "document length bounds must satisfy 1 <= min <= max"
        );
        Self {
            zipf: Zipf::new(config.vocabulary_size, config.zipf_exponent),
            doc_len: LogNormal::new(config.doc_len_mu, config.doc_len_sigma),
            rng: SmallRng::seed_from_u64(config.seed),
            config,
            generated: 0,
        }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &CorpusConfig {
        &self.config
    }

    /// Number of documents generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Builds the matching human-readable vocabulary (used by examples).
    pub fn vocabulary(&self) -> Vocabulary {
        Vocabulary::synthetic(self.config.vocabulary_size)
    }

    /// Samples the next document's raw term-frequency vector.
    pub fn next_term_vector(&mut self) -> TermVector {
        let target_len = self.doc_len.sample(&mut self.rng).round().clamp(
            self.config.min_doc_len as f64,
            self.config.max_doc_len as f64,
        ) as usize;
        let mut v = TermVector::new();
        for _ in 0..target_len {
            let rank = self.zipf.sample(&mut self.rng);
            v.add(TermId(rank as u32));
        }
        self.generated += 1;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documents_respect_length_bounds() {
        let mut g = SyntheticCorpus::new(CorpusConfig::small());
        for _ in 0..200 {
            let v = g.next_term_vector();
            let occurrences = v.total_occurrences() as usize;
            assert!(occurrences >= g.config().min_doc_len);
            assert!(occurrences <= g.config().max_doc_len);
            assert!(v.len() <= occurrences);
        }
        assert_eq!(g.generated(), 200);
    }

    #[test]
    fn term_ids_stay_within_vocabulary() {
        let cfg = CorpusConfig {
            vocabulary_size: 100,
            ..CorpusConfig::small()
        };
        let mut g = SyntheticCorpus::new(cfg);
        for _ in 0..50 {
            let v = g.next_term_vector();
            assert!(v.iter().all(|(t, _)| (t.0 as usize) < 100));
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut a = SyntheticCorpus::new(CorpusConfig::small());
        let mut b = SyntheticCorpus::new(CorpusConfig::small());
        for _ in 0..20 {
            assert_eq!(a.next_term_vector(), b.next_term_vector());
        }
        let mut c = SyntheticCorpus::new(CorpusConfig {
            seed: 12345,
            ..CorpusConfig::small()
        });
        assert_ne!(a.next_term_vector(), c.next_term_vector());
    }

    #[test]
    fn popular_terms_dominate() {
        let mut g = SyntheticCorpus::new(CorpusConfig::small());
        let mut low_rank = 0u64;
        let mut high_rank = 0u64;
        for _ in 0..200 {
            let v = g.next_term_vector();
            for (t, c) in v.iter() {
                if t.0 < 20 {
                    low_rank += u64::from(c);
                } else if t.0 >= 1000 {
                    high_rank += u64::from(c);
                }
            }
        }
        // The 20 most popular terms must out-weigh the entire tail beyond
        // rank 1000 under a Zipf(1.0) law over 2000 terms.
        assert!(low_rank > high_rank, "low {low_rank} vs high {high_rank}");
    }

    #[test]
    #[should_panic(expected = "vocabulary must be non-empty")]
    fn empty_vocabulary_is_rejected() {
        let _ = SyntheticCorpus::new(CorpusConfig {
            vocabulary_size: 0,
            ..CorpusConfig::small()
        });
    }
}
