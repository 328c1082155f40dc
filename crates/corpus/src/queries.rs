//! Continuous-query workload generation.
//!
//! The paper registers 1,000 queries with `k = 10` whose search terms are
//! "selected randomly from the dictionary". [`QueryWorkload`] reproduces that
//! setting (uniform term selection) and additionally offers popularity-biased
//! selection — drawing query terms from the same Zipf law as the documents —
//! which is useful for ablations because popular query terms make far more
//! documents relevant to each query.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use cts_text::{TermId, TermVector};

use crate::config::WorkloadConfig;
use crate::distributions::Zipf;

/// The Zipf exponent of popularity-biased term selection.
const ZIPF_EXPONENT: f64 = 1.0;

/// How query terms are drawn from the vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TermSelection {
    /// Uniformly at random from the whole dictionary (the paper's setting).
    Uniform,
    /// Proportionally to term popularity (Zipf rank), with the given exponent.
    PopularityBiased,
}

/// One continuous query to register: its raw term frequencies and `k`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuerySpec {
    /// Raw query term frequencies `f_{Q,t}` (each selected term appears once
    /// unless the generator drew it twice, mimicking repeated words in a
    /// query string such as "white white tower").
    pub terms: TermVector,
    /// Number of result documents to maintain.
    pub k: usize,
}

impl QuerySpec {
    /// Number of distinct search terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }
}

/// Generator of query workloads.
#[derive(Debug, Clone)]
pub struct QueryWorkload {
    config: WorkloadConfig,
    vocabulary_size: usize,
}

impl QueryWorkload {
    /// Creates a workload generator for a vocabulary of `vocabulary_size`
    /// terms.
    pub fn new(config: WorkloadConfig, vocabulary_size: usize) -> Self {
        assert!(vocabulary_size > 0, "vocabulary must be non-empty");
        assert!(
            config.query_length > 0,
            "queries must have at least one term"
        );
        assert!(config.k > 0, "k must be at least 1");
        Self {
            config,
            vocabulary_size,
        }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// Generates the configured number of query specifications.
    pub fn generate(&self) -> Vec<QuerySpec> {
        let mut rng = SmallRng::seed_from_u64(self.config.seed);
        let selection = if self.config.popularity_biased {
            TermSelection::PopularityBiased
        } else {
            TermSelection::Uniform
        };
        let zipf = if selection == TermSelection::PopularityBiased {
            Some(Zipf::new(self.vocabulary_size, ZIPF_EXPONENT))
        } else {
            None
        };
        (0..self.config.num_queries)
            .map(|_| self.generate_one(&mut rng, zipf.as_ref()))
            .collect()
    }

    fn generate_one(&self, rng: &mut SmallRng, zipf: Option<&Zipf>) -> QuerySpec {
        let mut terms = TermVector::new();
        // Draw until the query has the configured number of *distinct* terms;
        // duplicates simply raise the frequency of the already-chosen term,
        // which matches how a repeated word in a query string behaves, but we
        // cap the number of draws to keep termination obvious.
        let mut draws = 0;
        while terms.len() < self.config.query_length && draws < self.config.query_length * 20 {
            let term = match zipf {
                Some(z) => TermId(z.sample(rng) as u32),
                None => TermId(rng.gen_range(0..self.vocabulary_size) as u32),
            };
            terms.add(term);
            draws += 1;
        }
        QuerySpec {
            terms,
            k: self.config.k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: usize, len: usize) -> WorkloadConfig {
        WorkloadConfig {
            num_queries: n,
            query_length: len,
            k: 10,
            popularity_biased: false,
            seed: 7,
        }
    }

    #[test]
    fn generates_requested_number_of_queries() {
        let w = QueryWorkload::new(cfg(50, 4), 10_000);
        let qs = w.generate();
        assert_eq!(qs.len(), 50);
        assert!(qs.iter().all(|q| q.k == 10));
    }

    #[test]
    fn queries_have_the_requested_length() {
        let w = QueryWorkload::new(cfg(100, 10), 100_000);
        let qs = w.generate();
        assert!(qs.iter().all(|q| q.num_terms() == 10));
    }

    #[test]
    fn terms_are_within_the_vocabulary() {
        let w = QueryWorkload::new(cfg(100, 6), 500);
        let qs = w.generate();
        for q in qs {
            assert!(q.terms.iter().all(|(t, _)| (t.0 as usize) < 500));
        }
    }

    #[test]
    fn workload_is_deterministic_per_seed() {
        let a = QueryWorkload::new(cfg(20, 5), 1_000).generate();
        let b = QueryWorkload::new(cfg(20, 5), 1_000).generate();
        assert_eq!(a, b);
        let c = QueryWorkload::new(
            WorkloadConfig {
                seed: 8,
                ..cfg(20, 5)
            },
            1_000,
        )
        .generate();
        assert_ne!(a, c);
    }

    #[test]
    fn popularity_bias_prefers_low_ranks() {
        let uniform = QueryWorkload::new(cfg(200, 5), 100_000).generate();
        let biased = QueryWorkload::new(
            WorkloadConfig {
                popularity_biased: true,
                ..cfg(200, 5)
            },
            100_000,
        )
        .generate();
        let mean_rank = |qs: &[QuerySpec]| {
            let (sum, count) = qs
                .iter()
                .flat_map(|q| q.terms.iter())
                .fold((0u64, 0u64), |(s, c), (t, _)| (s + u64::from(t.0), c + 1));
            sum as f64 / count as f64
        };
        assert!(
            mean_rank(&biased) < mean_rank(&uniform) / 4.0,
            "biased {} vs uniform {}",
            mean_rank(&biased),
            mean_rank(&uniform)
        );
    }

    #[test]
    fn small_vocabulary_queries_terminate_even_with_duplicates() {
        // Query length 5 over a 3-term vocabulary cannot reach 5 distinct
        // terms; the generator must still terminate with ≥1 term.
        let w = QueryWorkload::new(cfg(10, 5), 3);
        let qs = w.generate();
        assert_eq!(qs.len(), 10);
        assert!(qs.iter().all(|q| q.num_terms() >= 1 && q.num_terms() <= 3));
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_is_rejected() {
        let _ = QueryWorkload::new(
            WorkloadConfig {
                k: 0,
                ..WorkloadConfig::default()
            },
            100,
        );
    }
}
