//! The engine abstraction shared by ITA, the baselines and the oracle.
//!
//! All monitoring strategies expose the same interface: register continuous
//! queries, feed stream events (each document arrival may trigger window
//! expirations), and read the current top-k of any query. Benchmarks, tests
//! and the [`crate::StreamService`] front-end are generic over this trait,
//! which is what makes the paper's ITA-vs-Naïve comparison a one-line swap.

#![deny(clippy::disallowed_types)]

use cts_index::{DocId, Document, QueryId, Timestamp};

use crate::fault::FaultStats;
use crate::query::ContinuousQuery;

pub use crate::result::RankedDocument;

/// Summary of the work performed for one stream event (an arrival plus the
/// expirations it caused).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventOutcome {
    /// Id of the arriving document.
    pub arrived: DocId,
    /// Number of documents that expired from the sliding window.
    pub expired: usize,
    /// Number of (query, update) pairs examined while handling the arrival —
    /// i.e. how many queries were identified as potentially affected.
    pub queries_touched_by_arrival: usize,
    /// Number of (query, update) pairs examined while handling expirations.
    pub queries_touched_by_expiration: usize,
    /// Number of queries whose top-k actually changed.
    pub results_changed: usize,
}

impl EventOutcome {
    /// Folds another shard's view of the **same stream event** into this one.
    ///
    /// Queries are partitioned across shards, so per-query work counters are
    /// disjoint and sum exactly; the arrival and the expiration set are
    /// global facts every shard observes identically, so those fields must
    /// already agree (checked in debug builds) and are left untouched. The
    /// merged outcome is therefore field-for-field what a single-shard engine
    /// would have reported.
    pub fn merge_shard(&mut self, other: &EventOutcome) {
        debug_assert_eq!(self.arrived, other.arrived, "shards saw different arrivals");
        debug_assert_eq!(
            self.expired, other.expired,
            "shards disagreed on the expiration set for {}",
            self.arrived
        );
        self.queries_touched_by_arrival += other.queries_touched_by_arrival;
        self.queries_touched_by_expiration += other.queries_touched_by_expiration;
        self.results_changed += other.results_changed;
    }
}

/// A stream event offered to a bounded ingest queue: the document plus an
/// optional **ingest deadline** in stream time.
///
/// The deadline is the admission contract of the overload-robust front-end
/// ([`crate::StreamService`]): an event whose deadline lies strictly before
/// the service's logical clock when shedding runs is dropped (oldest first)
/// instead of processed late. Deadlines live in *stream time*
/// ([`Timestamp`], the same clock as [`Document::arrival`]), never wall
/// clock, so admission decisions — and therefore the set of accepted events
/// — are a pure function of the offered sequence and replay exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestEvent {
    /// The arriving document.
    pub doc: Document,
    /// Latest stream time at which processing this event is still useful;
    /// `None` means the event never expires in the queue.
    pub deadline: Option<Timestamp>,
}

impl IngestEvent {
    /// An event without an ingest deadline (it may still be displaced when
    /// the queue is full, but never expires).
    pub fn new(doc: Document) -> Self {
        Self {
            doc,
            deadline: None,
        }
    }

    /// An event that expires at `deadline` (stream time).
    pub fn with_deadline(doc: Document, deadline: Timestamp) -> Self {
        Self {
            doc,
            deadline: Some(deadline),
        }
    }

    /// An event that expires `slack` after its own arrival timestamp — the
    /// common "process me within Δ of arrival" freshness contract.
    pub fn deadline_in(doc: Document, slack: std::time::Duration) -> Self {
        let deadline = doc.arrival.advance(slack);
        Self::with_deadline(doc, deadline)
    }

    /// Whether this event is past its deadline at stream time `now`
    /// (deadline strictly before `now`; an event is still processable at
    /// exactly its deadline).
    pub fn is_expired(&self, now: Timestamp) -> bool {
        self.deadline.is_some_and(|deadline| deadline < now)
    }
}

/// A continuous top-k monitoring engine.
pub trait Engine {
    /// Registers a continuous query, returning its id. The query's initial
    /// result is computed immediately over the currently valid documents.
    fn register(&mut self, query: ContinuousQuery) -> QueryId;

    /// Registers a burst of queries in order, returning their ids —
    /// **byte-identical** to calling [`Engine::register`] once per query, in
    /// order (ids, initial results and all future event processing must come
    /// out the same; the registration-burst differential tests enforce it).
    /// The default implementation is that loop. Engines with a cheaper bulk
    /// path override it: the ITA engine brings all of the batch's newly-live
    /// shadow terms up in one window merge instead of one backfill scan per
    /// query, and the sharded engine registers with a single fan-out
    /// round-trip per shard.
    fn register_batch(&mut self, queries: Vec<ContinuousQuery>) -> Vec<QueryId> {
        queries.into_iter().map(|q| self.register(q)).collect()
    }

    /// Removes a query from the system. Returns `true` if it existed.
    fn deregister(&mut self, query: QueryId) -> bool;

    /// Processes one stream event: the arrival of `doc` and every expiration
    /// it triggers under the engine's sliding window.
    fn process_document(&mut self, doc: Document) -> EventOutcome;

    /// Processes a burst of stream events in arrival order, returning one
    /// [`EventOutcome`] per document — **byte-identical** to calling
    /// [`Engine::process_document`] once per document, in order. That
    /// equivalence is the contract every override must keep (and the
    /// batch-vs-singles differential tests enforce): batching may only
    /// amortise *dispatch* cost, never change what is computed. The default
    /// implementation is the per-event loop itself; engines with a cheaper
    /// burst path (the sharded engine fans a whole batch out in one channel
    /// round-trip per shard) override it.
    fn process_batch(&mut self, docs: Vec<Document>) -> Vec<EventOutcome> {
        docs.into_iter()
            .map(|doc| self.process_document(doc))
            .collect()
    }

    /// The current top-k of `query`, best first. Fewer than `k` entries are
    /// returned when fewer than `k` valid documents match the query at all.
    fn current_results(&self, query: QueryId) -> Vec<RankedDocument>;

    /// Number of registered queries.
    fn num_queries(&self) -> usize;

    /// Number of currently valid (windowed) documents.
    fn num_valid_documents(&self) -> usize;

    /// The engine's current stream clock (arrival time of the latest event).
    fn clock(&self) -> Timestamp;

    /// A short, stable name for reporting ("ita", "naive", …).
    fn name(&self) -> &'static str;

    /// Arms one injected fault on `shard`, for engines that support fault
    /// injection: the next stream event that shard processes is applied and
    /// then the shard's work panics, exercising the recovery path. The arm
    /// lives in the shard's state and is dropped with it: arming a shard
    /// twice before an event faults it once, and the rebuilt shard starts
    /// with nothing armed. Returns whether a fault was armed. The default is a no-op returning
    /// `false` — which is what lets `cts-reference`'s chaos scripts run in
    /// lockstep against fault-free reference engines.
    fn inject_fault(&mut self, _shard: usize) -> bool {
        false
    }

    /// Fault and recovery counters, for engines that track them (`None`
    /// otherwise).
    fn fault_stats(&self) -> Option<FaultStats> {
        None
    }

    /// Audits the engine's internal structural invariants, panicking with a
    /// description on violation. `cts-reference`'s lockstep runner calls
    /// this on every engine after every op when that crate's
    /// `invariant-checks` feature (or its unit-test build) is active, so a
    /// differential suite catches a
    /// corrupted structure at the op that corrupted it instead of at the
    /// first divergent result. Engines without deep checks inherit this
    /// no-op default.
    fn check_invariants(&self) {}
}

/// Mutable references to engines are engines: harnesses that want to drive
/// an engine they do not own (e.g. `cts-reference`'s lockstep runner over a
/// caller-owned pair, so the caller can inspect concrete state afterwards)
/// box `&mut E` instead of `E`. Every method delegates — including
/// [`Engine::process_batch`], which must reach the engine's native override
/// rather than fall back to the default per-event loop.
impl<E: Engine + ?Sized> Engine for &mut E {
    fn register(&mut self, query: ContinuousQuery) -> QueryId {
        (**self).register(query)
    }

    fn register_batch(&mut self, queries: Vec<ContinuousQuery>) -> Vec<QueryId> {
        (**self).register_batch(queries)
    }

    fn deregister(&mut self, query: QueryId) -> bool {
        (**self).deregister(query)
    }

    fn process_document(&mut self, doc: Document) -> EventOutcome {
        (**self).process_document(doc)
    }

    fn process_batch(&mut self, docs: Vec<Document>) -> Vec<EventOutcome> {
        (**self).process_batch(docs)
    }

    fn current_results(&self, query: QueryId) -> Vec<RankedDocument> {
        (**self).current_results(query)
    }

    fn num_queries(&self) -> usize {
        (**self).num_queries()
    }

    fn num_valid_documents(&self) -> usize {
        (**self).num_valid_documents()
    }

    fn clock(&self) -> Timestamp {
        (**self).clock()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn inject_fault(&mut self, shard: usize) -> bool {
        (**self).inject_fault(shard)
    }

    fn fault_stats(&self) -> Option<FaultStats> {
        (**self).fault_stats()
    }

    fn check_invariants(&self) {
        (**self).check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_outcome_default_is_zeroed() {
        let o = EventOutcome::default();
        assert_eq!(o.expired, 0);
        assert_eq!(o.queries_touched_by_arrival, 0);
        assert_eq!(o.queries_touched_by_expiration, 0);
        assert_eq!(o.results_changed, 0);
        assert_eq!(o.arrived, DocId(0));
    }

    #[test]
    fn ingest_event_deadlines_are_stream_time() {
        use cts_text::WeightedVector;
        let doc = Document::new(
            DocId(1),
            Timestamp::from_millis(100),
            WeightedVector::from_weights([]),
        );
        let no_deadline = IngestEvent::new(doc.clone());
        assert!(!no_deadline.is_expired(Timestamp::from_millis(u64::MAX / 1_000_000)));
        let ev = IngestEvent::deadline_in(doc.clone(), std::time::Duration::from_millis(50));
        assert_eq!(ev.deadline, Some(Timestamp::from_millis(150)));
        // Processable at exactly the deadline, expired strictly past it.
        assert!(!ev.is_expired(Timestamp::from_millis(150)));
        assert!(ev.is_expired(Timestamp::from_millis(151)));
        let pinned = IngestEvent::with_deadline(doc, Timestamp::from_millis(90));
        assert!(pinned.is_expired(Timestamp::from_millis(100)));
    }

    #[test]
    fn merge_shard_sums_partitioned_counters_only() {
        let mut merged = EventOutcome {
            arrived: DocId(7),
            expired: 2,
            queries_touched_by_arrival: 3,
            queries_touched_by_expiration: 1,
            results_changed: 1,
        };
        let other = EventOutcome {
            arrived: DocId(7),
            expired: 2,
            queries_touched_by_arrival: 5,
            queries_touched_by_expiration: 4,
            results_changed: 2,
        };
        merged.merge_shard(&other);
        assert_eq!(merged.arrived, DocId(7));
        assert_eq!(merged.expired, 2); // global fact, not summed
        assert_eq!(merged.queries_touched_by_arrival, 8);
        assert_eq!(merged.queries_touched_by_expiration, 5);
        assert_eq!(merged.results_changed, 3);
    }
}
