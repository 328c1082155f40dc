//! Continuous top-k text search over document streams.
//!
//! This crate implements the contribution of the ICDE 2009 paper
//! *"An Incremental Threshold Method for Continuous Text Search Queries"*
//! (Mouratidis & Pang): the **Incremental Threshold Algorithm (ITA)**, plus
//! the baselines it is evaluated against, and the two layers a caller puts
//! around an engine.
//!
//! * [`ContinuousQuery`] — a registered query: weighted search terms and `k`.
//! * [`ItaEngine`] — the paper's algorithm. Maintains, per query, a result
//!   set `R` (verified top-k plus the unverified documents needed for
//!   incremental maintenance), per-term *local thresholds* `θ_{Q,t}` stored in
//!   per-list threshold trees, and the *influence threshold* `τ`. Document
//!   arrivals and expirations touch only the queries whose thresholds they
//!   cross; results are repaired by threshold *roll-up* (arrivals) and
//!   incremental *refill* (expirations) instead of recomputation.
//! * [`NaiveEngine`] — the §II baseline enhanced with the top-`k_max`
//!   materialised-view technique of Yi et al. (the competitor measured in the
//!   paper's §IV).
//! * [`BruteForceOracle`] — an exhaustive re-evaluator used by the test suite
//!   to validate both engines.
//! * [`ShardedItaEngine`] — ITA across query-partitioned worker shards, with
//!   results and event outcomes byte-identical to [`ItaEngine`]'s.
//! * [`Monitor`] — times every stream event (the paper's "processing time"
//!   metric) around any engine; it is an [`Engine`] itself.
//! * [`StreamService`] — admission control in front of a monitored engine: a
//!   bounded ingest queue with explicit accept/coalesce/shed/retry answers.
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

#![forbid(unsafe_code)]
#![deny(missing_docs, unused_must_use)]

pub mod engine;
pub mod fault;
pub mod ita;
pub mod monitor;
pub mod naive;
pub mod oracle;
pub mod query;
pub mod result;
pub mod service;
pub mod sharded;
pub mod slab;
pub mod testkit;
pub mod validate;

pub use engine::{Engine, EventOutcome, IngestEvent, RankedDocument};
pub use fault::{
    is_poison_document, poison_document, EngineError, FaultConfig, FaultPolicy, FaultStats,
    ShardFault, POISON_DOC_TEXT,
};
pub use ita::{ItaConfig, ItaEngine, ItaQueryStats, QueryMigration};
pub use monitor::{Monitor, OverloadStats, ProcessingStats};
pub use naive::{NaiveConfig, NaiveEngine};
pub use oracle::BruteForceOracle;
pub use query::ContinuousQuery;
pub use result::ResultSet;
pub use service::{Admission, DrainReport, ServiceConfig, ShedReason, StreamService};
pub use sharded::{RebalanceConfig, ShardedItaEngine};
pub use slab::QuerySlab;
