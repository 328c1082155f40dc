//! Fault taxonomy and fault counters for the sharded engine.
//!
//! A production continuous-search service cannot let one faulting worker
//! take down every registered query. This module holds the types the fault-
//! tolerant [`crate::ShardedItaEngine`] surfaces to callers:
//!
//! * [`ShardFault`] / [`EngineError`] — what went wrong, as data instead of
//!   a process abort. A worker that faults exits, and its shard is rebuilt
//!   by a freshly started worker before the mutating call that found it
//!   returns, so a `try_*` coordinator method returns a fault only when
//!   that worker fails to start (its thread fails to spawn, or it panics
//!   while building; the next mutating call tries again). The infallible
//!   [`crate::Engine`] trait methods panic then, and on a refused input (a
//!   duplicate document id).
//! * [`FaultStats`] — counters for faults seen, rebuilds performed, time
//!   spent rebuilding and shards currently degraded. Construction has no
//!   counters: a worker that fails to start fails construction.
//!
//! Faults are injected only through [`crate::Engine::inject_fault`] and the
//! sharded engine's `inject_disconnect` test hook; no document or query a
//! caller passes in can fault a worker on purpose. The recovery design
//! itself — one path: a faulted shard is rebuilt as a registration of its
//! queries over the coordinator's window mirror — is documented in
//! DESIGN.md §10 and implemented in [`crate::sharded`].

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fmt;

use cts_index::{DocId, QueryId};

/// A shard worker panicked and exited: the shard's engine state is gone
/// until the coordinator rebuilds it.
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
    /// A worker panicked while building its shard from the coordinator's
    /// state; the shard stays degraded and the next mutating call tries the
    /// rebuild again.
    ShardFault(ShardFault),
    /// A worker thread is gone (its channel disconnected) and a new one
    /// could not be spawned; the next mutating call tries again.
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
    /// Shards currently degraded (worker gone). Only a read
    /// through `&self` can leave one degraded past its call; the next
    /// mutating call rebuilds it.
    pub degraded_shards: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
