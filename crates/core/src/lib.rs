//! Continuous top-k text search over document streams.
//!
//! This crate implements the contribution of the ICDE 2009 paper
//! *"An Incremental Threshold Method for Continuous Text Search Queries"*
//! (Mouratidis & Pang): the **Incremental Threshold Algorithm (ITA)**, its
//! query-partitioned form, and the one layer a caller puts around an engine.
//! The references it is checked and measured against — the brute-force
//! oracle, the top-`k_max` baseline of the paper's §IV and the lockstep
//! testkit — live in the dev-only `cts-reference` crate.
//!
//! * [`ContinuousQuery`] — a registered query: weighted search terms and `k`.
//! * [`ItaEngine`] — the paper's algorithm. Maintains, per query, a result
//!   set `R` (verified top-k plus the unverified documents needed for
//!   incremental maintenance), per-term *local thresholds* `θ_{Q,t}` stored in
//!   per-list threshold trees, and the *influence threshold* `τ`. Document
//!   arrivals and expirations touch only the queries whose thresholds they
//!   cross; an expired top-k document is replaced by an incremental
//!   *refill* instead of recomputation.
//! * [`ShardedItaEngine`] — ITA across query-partitioned shards, with
//!   results byte-identical to [`ItaEngine`]'s, and event outcomes too up
//!   to a shard's first fault (a faulted shard is rebuilt as a registration
//!   over the coordinator's window).
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
pub mod query;
pub mod result;
pub mod service;
pub mod sharded;
pub mod slab;
pub mod stats;

pub use engine::{Engine, EventOutcome, IngestEvent, RankedDocument};
pub use fault::{EngineError, FaultStats, ShardFault};
pub use ita::{ItaConfig, ItaEngine, ItaQueryStats};
pub use query::ContinuousQuery;
pub use service::{Admission, DrainReport, ServiceConfig, ShedReason, StreamService};
pub use sharded::ShardedItaEngine;
pub use slab::QuerySlab;
pub use stats::{OverloadStats, ProcessingStats};
