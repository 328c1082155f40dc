//! Fault taxonomy, recovery policy and fault counters for the sharded
//! engine.
//!
//! A production continuous-search service cannot let one poisoned event take
//! down every registered query. This module holds the types the fault-
//! tolerant [`crate::ShardedItaEngine`] surfaces to callers:
//!
//! * [`ShardFault`] / [`EngineError`] — what went wrong, as data instead of
//!   a process abort. The `try_*` coordinator methods return these; the
//!   infallible [`crate::Engine`] trait methods only panic under
//!   [`FaultPolicy::FailFast`], on a refused input (a duplicate document
//!   id), or when recovery itself is impossible.
//! * [`FaultPolicy`] — what the coordinator does between a shard's fault
//!   and its rebuild: block and rebuild it synchronously, serve the
//!   remaining shards and mark the affected queries stale, or fail fast with
//!   a typed error.
//! * [`FaultStats`] — counters for faults seen, rebuilds performed, time
//!   spent rebuilding, events served while degraded, and spawn
//!   retries/fallbacks at construction.
//! * [`POISON_DOC_TEXT`] / [`poison_document`] — the testkit's
//!   poison-document mechanism: a marked document makes every shard worker
//!   panic mid-mutation the first time it sees it, while fault-free
//!   reference engines score it normally (the marker lives in the payload
//!   text, which scoring ignores), so chaos scripts stay runnable in
//!   lockstep.
//!
//! The recovery design itself — one path: a faulted shard is rebuilt as a
//! registration of its queries over the coordinator's window mirror — is
//! documented in DESIGN.md §10 and implemented in [`crate::sharded`].

use std::fmt;

use cts_index::{DocId, Document, QueryId};

/// A shard worker panicked: the shard's engine state is gone until the
/// coordinator rebuilds it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFault {
    /// Which shard faulted (coordinator shard index).
    pub shard: usize,
    /// The panic message (or a description of where recovery gave up).
    pub context: String,
}

impl fmt::Display for ShardFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard {} faulted: {}", self.shard, self.context)
    }
}

impl std::error::Error for ShardFault {}

/// Typed errors the sharded coordinator's `try_*` paths surface instead of
/// panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A worker panicked; the shard is degraded until
    /// [`crate::ShardedItaEngine::recover_degraded`] rebuilds it.
    ShardFault(ShardFault),
    /// A worker thread is gone (its channel disconnected); the shard is
    /// degraded until resurrected.
    ShardUnavailable {
        /// Which shard's worker is unreachable.
        shard: usize,
    },
    /// The query id is not registered.
    UnknownQuery(QueryId),
    /// A document of the burst has the id of a document still in the
    /// window, or of another document of the same burst. Refused before any
    /// shard or the window mirror saw the burst.
    DuplicateDocument(DocId),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::ShardFault(fault) => fault.fmt(f),
            EngineError::ShardUnavailable { shard } => {
                write!(f, "shard {shard} worker is unavailable (disconnected)")
            }
            EngineError::UnknownQuery(query) => write!(f, "{query} is not registered"),
            EngineError::DuplicateDocument(id) => write!(f, "duplicate document id {id}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::ShardFault(fault) => Some(fault),
            _ => None,
        }
    }
}

impl From<ShardFault> for EngineError {
    fn from(fault: ShardFault) -> Self {
        EngineError::ShardFault(fault)
    }
}

/// What the coordinator does when a shard becomes *degraded* — a panic its
/// worker caught poisoned it, or its thread is gone entirely — until the
/// shard is rebuilt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FaultPolicy {
    /// Surface a typed [`EngineError`] from the `try_*` paths (the
    /// infallible [`crate::Engine`] methods panic). Nothing is rebuilt until
    /// [`crate::ShardedItaEngine::recover_degraded`] is called explicitly.
    FailFast,
    /// Rebuild degraded shards synchronously before (or during) the next
    /// operation: respawn the worker if needed, load the window mirror and
    /// register the shard's queries from the durable registry. Callers never
    /// observe a degraded shard; they just pay the rebuild latency.
    #[default]
    BlockUntilRecovered,
    /// Keep serving from the healthy shards. Queries hosted on a degraded
    /// shard report empty (stale) results and
    /// [`crate::ShardedItaEngine::query_is_stale`] returns `true` for them;
    /// events processed meanwhile are counted in
    /// [`FaultStats::events_during_degraded`]. Recovery happens only when
    /// [`crate::ShardedItaEngine::recover_degraded`] is called.
    ServeDegraded,
}

/// Fault and recovery counters of a sharded engine
/// ([`crate::Engine::fault_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Times a shard went from healthy to degraded, by a caught panic or a
    /// disconnect.
    pub faults: u64,
    /// Shard rebuilds performed.
    pub recoveries: u64,
    /// Total time spent rebuilding shards, in microseconds.
    pub recovery_micros: u64,
    /// Stream events processed while at least one shard was degraded
    /// (only possible under [`FaultPolicy::ServeDegraded`]).
    pub events_during_degraded: u64,
    /// Shards currently degraded (worker poisoned or gone).
    pub degraded_shards: usize,
    /// Worker-spawn attempts that failed once and were retried.
    pub spawn_retries: u64,
    /// Shards dropped at construction because spawning failed twice (the
    /// engine degraded to fewer shards instead of aborting).
    pub spawn_fallbacks: u64,
}

impl FaultStats {
    /// Folds another engine's fault counters into this one — the combinator
    /// for aggregating fault stats across engines (e.g. a fleet report over
    /// several sharded instances). Event-shaped counters add exactly;
    /// `degraded_shards` is a *current-state* gauge, not a counter, and also
    /// adds: each source reports its own currently-degraded shard count and
    /// the shard sets are disjoint.
    pub fn absorb(&mut self, other: &FaultStats) {
        self.faults += other.faults;
        self.recoveries += other.recoveries;
        self.recovery_micros += other.recovery_micros;
        self.events_during_degraded += other.events_during_degraded;
        self.degraded_shards += other.degraded_shards;
        self.spawn_retries += other.spawn_retries;
        self.spawn_fallbacks += other.spawn_fallbacks;
    }

    /// Whether any shard is currently degraded — the signal the bounded
    /// ingest queue ([`crate::StreamService`]) converts into backpressure
    /// (`Retry` admissions) instead of letting a recovery block behind a
    /// growing queue.
    pub fn any_degraded(&self) -> bool {
        self.degraded_shards > 0
    }
}

/// The payload-text marker of a *poison document*: the first time a shard
/// worker processes a document carrying this text it panics mid-mutation
/// (exercising the recovery path), while engines without fault injection
/// score the document normally — the marker rides in [`Document::text`],
/// which no engine's scoring reads.
pub const POISON_DOC_TEXT: &str = "__cts_poison__";

/// Marks `doc` as a poison document (see [`POISON_DOC_TEXT`]).
pub fn poison_document(doc: Document) -> Document {
    doc.with_text(POISON_DOC_TEXT)
}

/// Whether `doc` carries the poison marker.
pub fn is_poison_document(doc: &Document) -> bool {
    doc.text.as_deref() == Some(POISON_DOC_TEXT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_index::{DocId, Timestamp};
    use cts_text::WeightedVector;

    #[test]
    fn errors_render_their_context() {
        let fault = ShardFault {
            shard: 3,
            context: "index out of bounds".to_string(),
        };
        assert_eq!(fault.to_string(), "shard 3 faulted: index out of bounds");
        let err: EngineError = fault.clone().into();
        assert_eq!(err.to_string(), fault.to_string());
        assert!(std::error::Error::source(&err).is_some());
        assert_eq!(
            EngineError::ShardUnavailable { shard: 1 }.to_string(),
            "shard 1 worker is unavailable (disconnected)"
        );
        assert!(EngineError::UnknownQuery(QueryId(9))
            .to_string()
            .contains("not registered"));
        assert_eq!(
            EngineError::DuplicateDocument(DocId(4)).to_string(),
            "duplicate document id d4"
        );
    }

    #[test]
    fn poison_marking_round_trips() {
        let doc = Document::new(DocId(1), Timestamp::ZERO, WeightedVector::from_weights([]));
        assert!(!is_poison_document(&doc));
        let doc = poison_document(doc);
        assert!(is_poison_document(&doc));
        // The marker does not touch anything scoring reads.
        assert_eq!(doc.id, DocId(1));
        assert!(doc.composition.as_slice().is_empty());
    }

    #[test]
    fn fault_stats_absorb_is_an_exact_merge() {
        let mut a = FaultStats {
            faults: 3,
            recoveries: 2,
            recovery_micros: 40,
            events_during_degraded: 7,
            degraded_shards: 1,
            spawn_retries: 1,
            spawn_fallbacks: 0,
        };
        let b = FaultStats {
            faults: 1,
            recoveries: 1,
            recovery_micros: 5,
            events_during_degraded: 0,
            degraded_shards: 2,
            spawn_retries: 0,
            spawn_fallbacks: 1,
        };
        a.absorb(&b);
        assert_eq!(a.faults, 4);
        assert_eq!(a.recoveries, 3);
        assert_eq!(a.recovery_micros, 45);
        assert_eq!(a.events_during_degraded, 7);
        assert_eq!(a.degraded_shards, 3);
        assert_eq!(a.spawn_retries, 1);
        assert_eq!(a.spawn_fallbacks, 1);
        assert!(a.any_degraded());
        assert!(!FaultStats::default().any_degraded());
        // Absorbing the zero stats is the identity.
        let before = a;
        a.absorb(&FaultStats::default());
        assert_eq!(a, before);
    }

    #[test]
    fn the_default_policy_blocks_until_recovered() {
        assert_eq!(FaultPolicy::default(), FaultPolicy::BlockUntilRecovered);
        assert_eq!(FaultStats::default().faults, 0);
    }
}
