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
//!   [`FaultPolicy::FailFast`] (or when recovery itself is impossible).
//! * [`FaultPolicy`] / [`FaultConfig`] — what the coordinator does when a
//!   shard cannot be recovered in place: block and resurrect it
//!   synchronously, serve the remaining shards and mark the affected
//!   queries stale, or fail fast with a typed error.
//! * [`FaultStats`] — counters for faults seen, recoveries performed, time
//!   spent recovering, events served while degraded, and spawn
//!   retries/fallbacks at construction.
//! * [`POISON_DOC_TEXT`] / [`poison_document`] — the testkit's
//!   poison-document mechanism: a marked document makes every shard worker
//!   panic mid-mutation the first time it sees it, while fault-free
//!   reference engines score it normally (the marker lives in the payload
//!   text, which scoring ignores), so chaos scripts stay runnable in
//!   lockstep.
//!
//! The recovery design itself (worker-local checkpoint + op-log replay for
//! *warm* recovery; coordinator registry + window-mirror replay for *cold*
//! resurrection) is documented in DESIGN.md §10 and implemented in
//! [`crate::sharded`].

use std::fmt;

use cts_index::{Document, QueryId};

/// A shard worker panicked and could not be recovered in place: the shard's
/// engine state is gone until the coordinator cold-resurrects it.
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
    /// A worker panicked beyond in-place recovery; the shard is degraded
    /// until [`crate::ShardedItaEngine::recover_degraded`] resurrects it.
    ShardFault(ShardFault),
    /// A worker thread is gone (its channel disconnected); the shard is
    /// degraded until resurrected.
    ShardUnavailable {
        /// Which shard's worker is unreachable.
        shard: usize,
    },
    /// The query id is not registered.
    UnknownQuery(QueryId),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::ShardFault(fault) => fault.fmt(f),
            EngineError::ShardUnavailable { shard } => {
                write!(f, "shard {shard} worker is unavailable (disconnected)")
            }
            EngineError::UnknownQuery(query) => write!(f, "{query} is not registered"),
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

/// What the coordinator does when a shard becomes *degraded* — its worker
/// poisoned (a panic that in-place checkpoint recovery could not undo) or
/// its thread gone entirely.
///
/// This policy governs only unrecoverable faults. The common case — a panic
/// caught by the worker's own guard — is repaired *inside* the worker from
/// its checkpoint + op log before the reply is sent, under every policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FaultPolicy {
    /// Surface a typed [`EngineError`] from the `try_*` paths (the
    /// infallible [`crate::Engine`] methods panic). Nothing is rebuilt until
    /// [`crate::ShardedItaEngine::recover_degraded`] is called explicitly.
    FailFast,
    /// Resurrect degraded shards synchronously before (or during) the next
    /// operation: respawn the worker if needed, replay the window mirror and
    /// re-register the shard's queries from the durable registry. Callers
    /// never observe a degraded shard; they just pay the rebuild latency.
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

/// Fault-tolerance configuration of the sharded engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// Degraded-mode policy for unrecoverable faults.
    pub policy: FaultPolicy,
    /// Worker-local checkpoint cadence, in state mutations (events +
    /// registration ops). Each worker keeps a second engine — the checkpoint
    /// — that it brings up to date every this-many mutations by copying what
    /// those mutations changed ([`crate::ItaEngine::sync_checkpoint`]: the
    /// lists, trees and query states they touched and the window's FIFO
    /// delta, not the engine), plus a log of the mutations since; a caught
    /// panic clones the checkpoint and replays the log, which is
    /// byte-identical to the pre-fault state because every op is
    /// deterministic. A shorter interval means shorter replays and more
    /// syncs; the syncs' cost is reported as
    /// [`crate::ProcessingStats::checkpoint_time`]. `0` disables warm
    /// recovery entirely: any caught panic poisons the shard and only cold
    /// resurrection (window replay + re-registration, exact results but
    /// re-derived thresholds) can bring it back.
    pub checkpoint_interval: usize,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            policy: FaultPolicy::default(),
            checkpoint_interval: 256,
        }
    }
}

/// Fault and recovery counters of a sharded engine
/// ([`crate::Engine::fault_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Worker panics and disconnects observed (recovered or not).
    pub faults: u64,
    /// Recoveries performed: in-place checkpoint restores plus cold shard
    /// resurrections.
    pub recoveries: u64,
    /// Total time spent restoring/rebuilding shard state, in microseconds.
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
    fn defaults_block_until_recovered_with_checkpointing_on() {
        let config = FaultConfig::default();
        assert_eq!(config.policy, FaultPolicy::BlockUntilRecovered);
        assert!(config.checkpoint_interval > 0);
        assert_eq!(FaultStats::default().faults, 0);
    }
}
