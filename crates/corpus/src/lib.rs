//! Synthetic corpus, document-stream and query-workload generation.
//!
//! The paper's experiments stream the WSJ corpus (172,961 Wall Street Journal
//! articles; 181,978 dictionary terms after stop-word removal) into the
//! monitoring system following a Poisson process with a mean arrival rate of
//! 200 documents/second, and register 1,000 queries of `k = 10` whose terms
//! are selected at random from the dictionary. The WSJ corpus is proprietary
//! (TREC disks 1–2), so this crate builds the closest synthetic equivalent:
//!
//! * [`SyntheticCorpus`] — a document generator over a Zipf-distributed
//!   vocabulary with log-normally distributed document lengths, calibrated to
//!   newswire statistics (see [`CorpusConfig`]). The generator is fully
//!   deterministic given a seed.
//! * [`PoissonArrivals`] — exponential inter-arrival times with a configurable
//!   mean rate (default 200 documents/second, as in the paper).
//! * [`DocumentStream`] — an iterator of [`cts_index::Document`]s combining
//!   the two, ready to feed any engine.
//! * [`QueryWorkload`] — random continuous-query generation (uniform term
//!   selection as in the paper, or popularity-biased for ablations).
//! * [`Vocabulary`] — optional human-readable synthetic word strings so that
//!   examples can show real-looking text while the benchmarks work directly
//!   with term ids.
//!
//! DESIGN.md §3 documents why these substitutions preserve the behaviour the
//! paper measures.
//!
//! # Quick example
//!
//! ```
//! use cts_corpus::{CorpusConfig, DocumentStream, QueryWorkload, StreamConfig, WorkloadConfig};
//!
//! // A reduced corpus and a 200 docs/s Poisson stream, fully seeded.
//! let mut stream = DocumentStream::new(CorpusConfig::small(), StreamConfig::default());
//! let docs = stream.take_documents(10);
//! assert_eq!(docs.len(), 10);
//! assert!(docs.windows(2).all(|w| w[0].arrival < w[1].arrival));
//!
//! // A workload of 5 queries with 4 search terms each, over the same
//! // vocabulary.
//! let workload = QueryWorkload::new(
//!     WorkloadConfig { num_queries: 5, query_length: 4, ..WorkloadConfig::default() },
//!     stream.vocabulary_size(),
//! );
//! assert_eq!(workload.generate().len(), 5);
//! ```

pub mod arrivals;
pub mod config;
pub mod distributions;
pub mod generator;
pub mod queries;
pub mod stream;
pub mod vocabulary;

pub use arrivals::PoissonArrivals;
pub use config::{CorpusConfig, StreamConfig, WorkloadConfig};
pub use distributions::{LogNormal, Zipf};
pub use generator::SyntheticCorpus;
pub use queries::{QuerySpec, QueryWorkload, TermSelection};
pub use stream::DocumentStream;
pub use vocabulary::Vocabulary;
