//! Continuous top-k text search over document streams.
//!
//! This crate implements the contribution of the ICDE 2009 paper
//! *"An Incremental Threshold Method for Continuous Text Search Queries"*
//! (Mouratidis & Pang): the **Incremental Threshold Algorithm (ITA)**, plus
//! the baselines it is evaluated against, and the one layer a caller puts
//! around an engine.
//!
//! * [`ContinuousQuery`] — a registered query: weighted search terms and `k`.
//! * [`ItaEngine`] — the paper's algorithm. Maintains, per query, a result
//!   set `R` (verified top-k plus the unverified documents needed for
//!   incremental maintenance), per-term *local thresholds* `θ_{Q,t}` stored in
//!   per-list threshold trees, and the *influence threshold* `τ`. Document
//!   arrivals and expirations touch only the queries whose thresholds they
//!   cross; an expired top-k document is replaced by an incremental
//!   *refill* instead of recomputation.
//! * [`NaiveEngine`] — the §II baseline enhanced with the top-`k_max`
//!   materialised-view technique of Yi et al. (the competitor measured in the
//!   paper's §IV).
//! * [`BruteForceOracle`] — an exhaustive re-evaluator used by the test suite
//!   to validate both engines.
//! * [`ShardedItaEngine`] — ITA across query-partitioned worker shards, with
//!   results byte-identical to [`ItaEngine`]'s, and event outcomes too up
//!   to a shard's first fault (a faulted shard is rebuilt from the
//!   coordinator's window mirror).
//! * [`StreamService`] — admission control in front of any engine: a
//!   bounded ingest queue with explicit accept/shed answers, registrations
//!   that run at once, and each burst it hands the engine timed into
//!   [`ProcessingStats`] (the paper's "processing time" metric).
//!
//! # Quick example
//!
//! ```
//! use cts_core::{ContinuousQuery, Engine, ItaEngine, ItaConfig};
//! use cts_index::{DocId, Document, SlidingWindow, Timestamp};
//! use cts_text::{TermId, WeightedVector};
//!
//! let mut engine = ItaEngine::new(SlidingWindow::count_based(3), ItaConfig::default());
//! let q = engine.register(ContinuousQuery::from_weights(
//!     [(TermId(1), 0.8), (TermId(2), 0.6)], 2));
//!
//! for i in 0..5u64 {
//!     let doc = Document::new(
//!         DocId(i),
//!         Timestamp::from_millis(i),
//!         WeightedVector::from_weights([(TermId(1), 0.1 * (i + 1) as f64)]),
//!     );
//!     engine.process_document(doc);
//! }
//! let top = engine.current_results(q);
//! assert_eq!(top.len(), 2);
//! assert!(top[0].score >= top[1].score);
//! ```

pub mod engine;
pub mod fault;
pub mod ita;
pub mod naive;
pub mod oracle;
pub mod query;
pub mod result;
pub mod service;
pub mod sharded;
pub mod slab;
pub mod stats;
pub mod testkit;
pub mod validate;

pub use engine::{Engine, EventOutcome, IngestEvent, RankedDocument};
pub use fault::{EngineError, FaultStats, ShardFault};
pub use ita::{ItaConfig, ItaEngine, ItaQueryStats};
pub use naive::{NaiveConfig, NaiveEngine};
pub use oracle::BruteForceOracle;
pub use query::ContinuousQuery;
pub use result::ResultSet;
pub use service::{Admission, DrainReport, ServiceConfig, ShedReason, StreamService};
pub use sharded::ShardedItaEngine;
pub use slab::QuerySlab;
pub use stats::{OverloadStats, ProcessingStats};
