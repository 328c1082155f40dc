//! Overload-robust streaming front-end: a bounded ingest queue with
//! explicit admission control, deadline-aware load shedding and burst
//! coalescing around any [`Engine`].
//!
//! A bare [`Monitor`] assumes a polite caller that feeds events no faster
//! than the engine drains them. [`StreamService`] drops that assumption: it
//! sits between an abusive stream source and the engine, admits events into
//! a **bounded queue** ([`ServiceConfig::queue_capacity`]) and answers every
//! offer with an explicit [`Admission`]:
//!
//! * [`Admission::Accepted`] — the event was enqueued (or a registration ran
//!   immediately). The service now owns it.
//! * [`Admission::Coalesced`] — a registration was queued and will be
//!   flushed through one [`Engine::register_batch`] call at the next
//!   [`StreamService::pump`] (registration storms amortise into the bulk
//!   path instead of paying the per-query cliff).
//! * [`Admission::Shed`] — the event was dropped, with a [`ShedReason`].
//!   Queued events past their [`IngestEvent`] deadline are dropped
//!   **oldest-first**; a full queue displaces its oldest event to admit the
//!   fresher arrival.
//! * [`Admission::Retry`] — backpressure: the caller keeps the event and
//!   should retry after the hint. Raised while the engine reports a degraded
//!   shard and the queue is already deep
//!   ([`ServiceConfig::backpressure_watermark`]), so a recovery never ends up
//!   blocked behind an unbounded backlog — the degraded-shard ⇄ backpressure
//!   interplay of DESIGN.md §12.
//!
//! Draining is explicit: [`StreamService::pump`] (or the budgeted
//! [`StreamService::pump_budget`], which models a slow consumer) flushes
//! pending registrations, sheds expired events and processes the survivors —
//! whatever is queued goes to the engine as one [`Engine::process_batch`]
//! burst (of at most [`ServiceConfig::max_coalesce`] events), so a deep queue
//! is **coalesced** and a queue one deep is a burst of one, which every
//! engine processes — and [`Monitor`] records — as the single event it is.
//!
//! # Exactness of the accepted sequence
//!
//! Shedding changes *which* events run, never *what they compute*: the
//! drained sequence is a subsequence of the offered sequence in arrival
//! order, processed through the same [`Engine`] entry points, and
//! [`Engine::process_batch`] is contractually byte-identical to the per-event
//! loop. Feeding the [`DrainReport`]'s processed sequence to an unbounded
//! reference engine therefore reproduces the service's results exactly — the
//! lockstep contract the testkit's overload axis
//! ([`crate::testkit::run_overload_session`]) enforces.
//!
//! Accounting is exact and checked on every operation:
//! `offered == accepted + coalesced + shed + queue depth`
//! (see [`OverloadStats::check_accounting`]).
//!
//! All admission decisions run in *stream time* ([`cts_index::Timestamp`]):
//! the service's logical clock is the latest arrival it has seen (or the
//! caller-passed `now` of a pump), never the wall clock, so the accepted set
//! is a pure function of the offered sequence and replays exactly.

use std::collections::VecDeque;
use std::time::Duration;

use cts_index::{DocId, Document, QueryId, Timestamp};

use crate::engine::{Engine, EventOutcome, IngestEvent};
use crate::monitor::{Monitor, OverloadStats, ProcessingStats};
use crate::query::ContinuousQuery;
use crate::result::RankedDocument;

/// Why a queue-owned event was dropped instead of processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The event's ingest deadline passed before it could be drained
    /// (checked in stream time; sheds run oldest-first).
    DeadlineExpired,
    /// The queue was full and this (oldest) event was displaced to admit a
    /// fresher arrival.
    QueueFull,
}

/// The admission decision for one offered event or registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The service took ownership: the event was enqueued, or the
    /// registration ran immediately.
    Accepted,
    /// A registration was queued for the next pump's coalesced
    /// [`Engine::register_batch`] flush; its id arrives in
    /// [`DrainReport::registered`].
    Coalesced,
    /// The service took ownership and dropped the event on the spot.
    Shed(ShedReason),
    /// Backpressure: the service did **not** take ownership. Retry after the
    /// hint (typically once the degraded shard has recovered or the queue
    /// has drained).
    Retry {
        /// Suggested backoff before re-offering.
        after: Duration,
    },
}

impl Admission {
    /// Whether the service took ownership of the offered item (it will be
    /// processed, coalesced or shed — but not silently lost).
    pub fn is_owned(&self) -> bool {
        !matches!(self, Admission::Retry { .. })
    }

    /// Whether this is a backpressure refusal.
    pub fn is_retry(&self) -> bool {
        matches!(self, Admission::Retry { .. })
    }
}

/// Tuning of the bounded ingest pipeline. Every bound is in events (or
/// queries, for the registration queue); every watermark compares against the
/// current queue depth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Ingest queue bound. A full queue sheds expired events first, then
    /// displaces its oldest survivor per fresh admission — memory is bounded
    /// by construction. Clamped to at least 1.
    pub queue_capacity: usize,
    /// Largest burst per [`Engine::process_batch`] call. Clamped to at
    /// least 1.
    pub max_coalesce: usize,
    /// Default ingest deadline applied (as arrival + slack) to events
    /// offered without one; `None` means such events never expire.
    pub default_deadline: Option<Duration>,
    /// Pending-register queue bound; at capacity, registrations get
    /// [`Admission::Retry`].
    pub register_capacity: usize,
    /// Ingest-queue depth at which registrations stop running immediately
    /// and queue for batch coalescing instead (registration storms under
    /// event pressure amortise into [`Engine::register_batch`]).
    pub register_pressure: usize,
    /// Queue depth at or above which a degraded engine
    /// ([`crate::FaultStats::any_degraded`]) raises backpressure: offers get
    /// [`Admission::Retry`] instead of deepening the backlog behind a
    /// pending recovery.
    pub backpressure_watermark: usize,
    /// The backoff hint carried by every [`Admission::Retry`].
    pub retry_after: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self::bounded(1024)
    }
}

impl ServiceConfig {
    /// A config with all bounds scaled from one queue capacity: bursts of up
    /// to a quarter of the queue, backpressure from half, a half-capacity
    /// register queue deferring from a sixteenth.
    pub fn bounded(queue_capacity: usize) -> Self {
        let queue_capacity = queue_capacity.max(1);
        Self {
            queue_capacity,
            max_coalesce: (queue_capacity / 4).max(2),
            default_deadline: None,
            register_capacity: (queue_capacity / 2).max(1),
            register_pressure: (queue_capacity / 16).max(2),
            backpressure_watermark: (queue_capacity / 2).max(1),
            retry_after: Duration::from_millis(2),
        }
    }

    /// Normalised copy with every bound clamped to its documented minimum.
    fn normalized(&self) -> Self {
        let mut config = self.clone();
        config.queue_capacity = config.queue_capacity.max(1);
        config.max_coalesce = config.max_coalesce.max(1);
        config.register_capacity = config.register_capacity.max(1);
        config.backpressure_watermark = config.backpressure_watermark.max(1);
        config
    }
}

/// What one [`StreamService::pump`] did, in order: the exact record a
/// lockstep harness needs to replay the accepted sequence against an
/// unbounded reference engine.
#[derive(Debug, Clone, Default)]
pub struct DrainReport {
    /// Ids of the events processed, in processing order (a subsequence of
    /// the offered order).
    pub processed: Vec<DocId>,
    /// One outcome per processed event, parallel to `processed`.
    pub outcomes: Vec<EventOutcome>,
    /// Events shed since the previous report (at offer time or by this
    /// pump), with reasons.
    pub shed: Vec<(DocId, ShedReason)>,
    /// Ids assigned to the coalesced registrations this pump flushed, in
    /// offer order.
    pub registered: Vec<QueryId>,
    /// Bursts of two or more events this pump sent through
    /// [`Engine::process_batch`].
    pub batches: u64,
    /// Bursts of one: events this pump found alone in the queue (or was
    /// left a budget of one for).
    pub singletons: u64,
}

/// A bounded-queue, overload-robust front-end over any [`Engine`]. See the
/// [module docs](crate::service) for the admission and shedding model.
#[derive(Debug)]
pub struct StreamService<E: Engine> {
    monitor: Monitor<E>,
    config: ServiceConfig,
    queue: VecDeque<IngestEvent>,
    pending_registers: VecDeque<ContinuousQuery>,
    shed_log: Vec<(DocId, ShedReason)>,
    overload: OverloadStats,
    clock: Timestamp,
}

impl<E: Engine> StreamService<E> {
    /// Wraps `engine` behind a bounded ingest queue. Bounds below their
    /// documented minima are clamped (see [`ServiceConfig`]).
    pub fn new(engine: E, config: ServiceConfig) -> Self {
        Self {
            monitor: Monitor::new(engine),
            config: config.normalized(),
            queue: VecDeque::new(),
            pending_registers: VecDeque::new(),
            shed_log: Vec::new(),
            overload: OverloadStats::default(),
            clock: Timestamp::ZERO,
        }
    }

    /// The normalised configuration in force.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Current ingest-queue depth, in events.
    pub fn depth(&self) -> usize {
        self.queue.len()
    }

    /// Registrations currently queued for the next coalesced flush.
    pub fn pending_registers(&self) -> usize {
        self.pending_registers.len()
    }

    /// The service's logical clock: the latest stream time it has observed
    /// (arrival of an offered event, or the `now` of a pump).
    pub fn admission_clock(&self) -> Timestamp {
        self.clock
    }

    /// Whether the next offer would be refused with [`Admission::Retry`]:
    /// the engine reports a degraded shard **and** the queue is at or past
    /// the backpressure watermark. Reading this never touches the engine
    /// mutably, so it cannot trigger (or block on) a recovery.
    pub fn is_backpressured(&self) -> bool {
        self.queue.len() >= self.config.backpressure_watermark
            && self
                .monitor
                .fault_stats()
                .is_some_and(|faults| faults.any_degraded())
    }

    /// Offers one document without an explicit deadline (the configured
    /// [`ServiceConfig::default_deadline`] still applies).
    pub fn offer_document(&mut self, doc: Document) -> Admission {
        self.offer(IngestEvent::new(doc))
    }

    /// Offers one stream event. Never blocks and never calls into the
    /// engine: admission is pure queue arithmetic plus a read of the fault
    /// gauge, which is what keeps the shed path live while a degraded shard
    /// waits for recovery.
    pub fn offer(&mut self, event: IngestEvent) -> Admission {
        let arrival = event.doc.arrival;
        self.advance_clock(arrival);
        if self.is_backpressured() {
            self.overload.retry_hints += 1;
            return Admission::Retry {
                after: self.config.retry_after,
            };
        }
        let mut event = event;
        if event.deadline.is_none() {
            event.deadline = self
                .config
                .default_deadline
                .map(|slack| arrival.advance(slack));
        }
        self.overload.offered += 1;
        if event.is_expired(self.clock) {
            // Dead on arrival: a deadline already in the past (the stream
            // source lagged its own clock).
            self.overload.shed_deadline += 1;
            self.shed_log
                .push((event.doc.id, ShedReason::DeadlineExpired));
            self.check_accounting();
            return Admission::Shed(ShedReason::DeadlineExpired);
        }
        if self.queue.len() >= self.config.queue_capacity {
            // Make room: expired events go first (oldest-first), then the
            // oldest survivor is displaced — fresh data wins, memory stays
            // bounded.
            self.shed_expired();
            if self.queue.len() >= self.config.queue_capacity {
                if let Some(oldest) = self.queue.pop_front() {
                    self.overload.shed_queue_full += 1;
                    self.shed_log.push((oldest.doc.id, ShedReason::QueueFull));
                }
            }
        }
        self.queue.push_back(event);
        self.note_depth();
        self.check_accounting();
        Admission::Accepted
    }

    /// Offers one registration. Under low pressure (no queued registrations
    /// and an ingest queue below [`ServiceConfig::register_pressure`]) the
    /// query registers immediately and its id is returned alongside
    /// [`Admission::Accepted`]. Under pressure it queues for the next pump's
    /// single [`Engine::register_batch`] flush ([`Admission::Coalesced`];
    /// the id arrives in [`DrainReport::registered`], in offer order). A
    /// full pending queue — or active backpressure — yields
    /// [`Admission::Retry`].
    pub fn offer_register(&mut self, query: ContinuousQuery) -> (Admission, Option<QueryId>) {
        if self.is_backpressured() {
            self.overload.register_retry_hints += 1;
            return (
                Admission::Retry {
                    after: self.config.retry_after,
                },
                None,
            );
        }
        if self.pending_registers.is_empty() && self.queue.len() < self.config.register_pressure {
            self.overload.register_offered += 1;
            self.overload.register_immediate += 1;
            let id = self.monitor.register(query);
            return (Admission::Accepted, Some(id));
        }
        if self.pending_registers.len() >= self.config.register_capacity {
            self.overload.register_retry_hints += 1;
            return (
                Admission::Retry {
                    after: self.config.retry_after,
                },
                None,
            );
        }
        self.overload.register_offered += 1;
        self.overload.register_coalesced += 1;
        self.pending_registers.push_back(query);
        self.overload.register_high_water = self
            .overload
            .register_high_water
            .max(self.pending_registers.len() as u64);
        (Admission::Coalesced, None)
    }

    /// Removes a query immediately (registration admission control never
    /// delays removals — freeing capacity must not queue behind a storm).
    /// Returns `true` if it existed. A query still pending coalesced
    /// registration has no id yet and cannot be addressed here.
    pub fn deregister(&mut self, query: QueryId) -> bool {
        self.monitor.deregister(query)
    }

    /// Drains the whole queue at stream time `now`: flushes pending
    /// registrations, sheds expired events oldest-first, processes every
    /// survivor (in [`Engine::process_batch`] bursts of whatever is queued,
    /// up to [`ServiceConfig::max_coalesce`]).
    pub fn pump(&mut self, now: Timestamp) -> DrainReport {
        self.pump_budget(now, usize::MAX)
    }

    /// [`StreamService::pump`] with a drain budget: at most `budget` events
    /// are processed (shedding and registration flushing are not budgeted —
    /// they are how an overloaded service gets *cheaper*, and throttling
    /// them would let a slow consumer grow the backlog unboundedly). This is
    /// the slow-consumer model of the overload tests.
    pub fn pump_budget(&mut self, now: Timestamp, budget: usize) -> DrainReport {
        self.advance_clock(now);
        let mut report = DrainReport::default();
        if !self.pending_registers.is_empty() {
            let queries: Vec<ContinuousQuery> = self.pending_registers.drain(..).collect();
            report.registered = self.monitor.register_batch(queries);
        }
        self.shed_expired();
        let mut budget = budget;
        while budget > 0 && !self.queue.is_empty() {
            let take = self.queue.len().min(self.config.max_coalesce).min(budget);
            let batch: Vec<Document> = self.queue.drain(..take).map(|event| event.doc).collect();
            report.processed.extend(batch.iter().map(|doc| doc.id));
            report.outcomes.extend(self.monitor.process_batch(batch));
            // A burst of one is a single event, counted as one.
            if take == 1 {
                self.overload.accepted += 1;
                report.singletons += 1;
            } else {
                self.overload.coalesced += take as u64;
                report.batches += 1;
            }
            budget -= take;
        }
        report.shed = std::mem::take(&mut self.shed_log);
        self.check_accounting();
        report
    }

    /// Asserts the exact shed-accounting identity
    /// `offered == accepted + coalesced + shed + depth` (see
    /// [`OverloadStats::check_accounting`]). Runs after every offer and
    /// pump; also callable by harnesses at quiescence, where the identity
    /// collapses to `offered == accepted + coalesced + shed`.
    pub fn check_accounting(&self) {
        self.overload.check_accounting(self.queue.len() as u64);
    }

    /// The admission-control counters.
    pub fn overload_stats(&self) -> OverloadStats {
        self.overload
    }

    /// Cumulative processing statistics with the overload counters folded
    /// in (see [`ProcessingStats::overload`]).
    pub fn stats(&self) -> ProcessingStats {
        let mut stats = *self.monitor.stats();
        stats.overload = self.overload;
        stats
    }

    /// The current top-k of `query`, best first.
    pub fn results(&self, query: QueryId) -> Vec<RankedDocument> {
        self.monitor.current_results(query)
    }

    /// Number of registered queries (pending coalesced registrations are not
    /// yet registered).
    pub fn num_queries(&self) -> usize {
        self.monitor.num_queries()
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &E {
        self.monitor.engine()
    }

    /// Mutable access to the wrapped engine (fault injection, explicit
    /// recovery). Events processed directly on the engine bypass the queue,
    /// the accounting and the timing.
    pub fn engine_mut(&mut self) -> &mut E {
        self.monitor.engine_mut()
    }

    fn advance_clock(&mut self, now: Timestamp) {
        if now > self.clock {
            self.clock = now;
        }
    }

    fn note_depth(&mut self) {
        self.overload.queue_high_water =
            self.overload.queue_high_water.max(self.queue.len() as u64);
    }

    /// Drops every queued event whose deadline lies strictly before the
    /// logical clock, oldest first; survivors keep their relative order.
    fn shed_expired(&mut self) {
        if self.queue.iter().all(|event| !event.is_expired(self.clock)) {
            return;
        }
        let mut kept = VecDeque::with_capacity(self.queue.len());
        while let Some(event) = self.queue.pop_front() {
            if event.is_expired(self.clock) {
                self.overload.shed_deadline += 1;
                self.shed_log
                    .push((event.doc.id, ShedReason::DeadlineExpired));
            } else {
                kept.push_back(event);
            }
        }
        self.queue = kept;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultPolicy};
    use crate::ita::{ItaConfig, ItaEngine};
    use crate::query::ContinuousQuery;
    use crate::sharded::ShardedItaEngine;
    use cts_index::SlidingWindow;
    use cts_text::{TermId, WeightedVector};

    fn doc(id: u64, millis: u64, weight: f64) -> Document {
        Document::new(
            DocId(id),
            Timestamp::from_millis(millis),
            WeightedVector::from_weights([(TermId(1), weight)]),
        )
    }

    fn query(k: usize) -> ContinuousQuery {
        ContinuousQuery::from_weights([(TermId(1), 1.0)], k)
    }

    fn small_service(capacity: usize) -> StreamService<ItaEngine> {
        let engine = ItaEngine::new(SlidingWindow::count_based(8), ItaConfig::default());
        StreamService::new(engine, ServiceConfig::bounded(capacity))
    }

    #[test]
    fn accepted_events_process_and_match_an_unbounded_reference() {
        let mut service = small_service(16);
        let (admission, id) = service.offer_register(query(3));
        assert_eq!(admission, Admission::Accepted);
        let q = id.expect("immediate registration returns an id");
        let mut reference = ItaEngine::new(SlidingWindow::count_based(8), ItaConfig::default());
        let rq = reference.register(query(3));
        assert_eq!(q, rq);
        let docs: Vec<Document> = (0..10)
            .map(|i| doc(i, i * 5, 0.1 * (i % 4 + 1) as f64))
            .collect();
        for d in &docs {
            assert_eq!(service.offer_document(d.clone()), Admission::Accepted);
        }
        let report = service.pump(Timestamp::from_millis(100));
        assert_eq!(report.processed.len(), 10);
        assert!(report.shed.is_empty());
        for (d, outcome) in docs.iter().zip(&report.outcomes) {
            let expected = reference.process_document(d.clone());
            assert_eq!(&expected, outcome);
        }
        assert_eq!(service.results(q), reference.current_results(rq));
        let overload = service.overload_stats();
        assert_eq!(overload.offered, 10);
        assert_eq!(overload.accepted + overload.coalesced, 10);
        assert_eq!(overload.shed(), 0);
        service.check_accounting();
    }

    #[test]
    fn a_full_queue_displaces_oldest_first_and_accounts_exactly() {
        let mut service = small_service(4);
        assert_eq!(service.config().queue_capacity, 4);
        for i in 0..9u64 {
            assert_eq!(
                service.offer_document(doc(i, i, 0.5)),
                Admission::Accepted,
                "fresh arrivals are always admitted; the oldest is displaced"
            );
        }
        let overload = service.overload_stats();
        assert_eq!(overload.offered, 9);
        assert_eq!(overload.shed_queue_full, 5);
        assert_eq!(overload.queue_high_water, 4);
        assert_eq!(service.depth(), 4);
        service.check_accounting();
        // The survivors are the 4 freshest, in arrival order.
        let report = service.pump(Timestamp::from_millis(20));
        assert_eq!(
            report.processed,
            vec![DocId(5), DocId(6), DocId(7), DocId(8)]
        );
        // Displacements are reported with their reason.
        assert_eq!(report.shed.len(), 5);
        assert!(report
            .shed
            .iter()
            .all(|(_, reason)| *reason == ShedReason::QueueFull));
        let overload = service.overload_stats();
        assert_eq!(
            overload.offered,
            overload.accepted + overload.coalesced + overload.shed()
        );
    }

    #[test]
    fn deadline_shedding_drops_expired_events_oldest_first() {
        let mut service = small_service(16);
        // Three events expiring 10ms after arrival, then a late pump.
        for i in 0..3u64 {
            let event = IngestEvent::deadline_in(doc(i, i, 0.5), Duration::from_millis(10));
            assert_eq!(service.offer(event), Admission::Accepted);
        }
        let event = IngestEvent::deadline_in(doc(3, 50, 0.5), Duration::from_millis(10));
        assert_eq!(service.offer(event), Admission::Accepted);
        let report = service.pump(Timestamp::from_millis(50));
        assert_eq!(report.processed, vec![DocId(3)]);
        assert_eq!(
            report.shed,
            vec![
                (DocId(0), ShedReason::DeadlineExpired),
                (DocId(1), ShedReason::DeadlineExpired),
                (DocId(2), ShedReason::DeadlineExpired),
            ]
        );
        let overload = service.overload_stats();
        assert_eq!(overload.shed_deadline, 3);
        service.check_accounting();
    }

    #[test]
    fn an_event_dead_on_arrival_is_shed_at_offer_time() {
        let mut service = small_service(16);
        // Advance the logical clock to 100ms…
        assert_eq!(
            service.offer_document(doc(0, 100, 0.5)),
            Admission::Accepted
        );
        // …then offer an event whose deadline is already in the past.
        let stale = IngestEvent::with_deadline(doc(1, 40, 0.5), Timestamp::from_millis(60));
        assert_eq!(
            service.offer(stale),
            Admission::Shed(ShedReason::DeadlineExpired)
        );
        let overload = service.overload_stats();
        assert_eq!(overload.offered, 2);
        assert_eq!(overload.shed_deadline, 1);
        service.check_accounting();
    }

    #[test]
    fn default_deadline_applies_to_events_offered_without_one() {
        let engine = ItaEngine::new(SlidingWindow::count_based(8), ItaConfig::default());
        let mut config = ServiceConfig::bounded(16);
        config.default_deadline = Some(Duration::from_millis(5));
        let mut service = StreamService::new(engine, config);
        assert_eq!(service.offer_document(doc(0, 0, 0.5)), Admission::Accepted);
        assert_eq!(
            service.offer_document(doc(1, 100, 0.5)),
            Admission::Accepted
        );
        let report = service.pump(Timestamp::from_millis(100));
        assert_eq!(report.processed, vec![DocId(1)]);
        assert_eq!(report.shed, vec![(DocId(0), ShedReason::DeadlineExpired)]);
    }

    #[test]
    fn deep_queues_coalesce_into_batches_and_shallow_queues_do_not() {
        let engine = ItaEngine::new(SlidingWindow::count_based(32), ItaConfig::default());
        let mut config = ServiceConfig::bounded(64);
        config.max_coalesce = 8;
        let mut service = StreamService::new(engine, config);
        // 17 queued events: two bursts of 8, then the one left is a single.
        for i in 0..17u64 {
            service.offer_document(doc(i, i, 0.5));
        }
        let report = service.pump(Timestamp::from_millis(100));
        assert_eq!(report.batches, 2);
        assert_eq!(report.singletons, 1);
        assert_eq!(report.processed.len(), 17);
        let overload = service.overload_stats();
        assert_eq!(overload.coalesced, 16);
        assert_eq!(overload.accepted, 1);
        let stats = service.stats();
        assert_eq!(stats.events, 17);
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.overload, overload);
    }

    #[test]
    fn budgeted_pumps_model_a_slow_consumer() {
        let mut service = small_service(64);
        for i in 0..10u64 {
            service.offer_document(doc(i, i, 0.5));
        }
        let report = service.pump_budget(Timestamp::from_millis(10), 3);
        assert_eq!(report.processed.len(), 3);
        assert_eq!(service.depth(), 7);
        service.check_accounting();
        let report = service.pump(Timestamp::from_millis(10));
        assert_eq!(report.processed.len(), 7);
        assert_eq!(service.depth(), 0);
        let overload = service.overload_stats();
        assert_eq!(
            overload.offered,
            overload.accepted + overload.coalesced + overload.shed()
        );
    }

    #[test]
    fn registration_storms_coalesce_under_pressure() {
        let engine = ItaEngine::new(SlidingWindow::count_based(8), ItaConfig::default());
        let mut config = ServiceConfig::bounded(16);
        config.register_pressure = 2;
        config.register_capacity = 3;
        let mut service = StreamService::new(engine, config);
        // No pressure: immediate.
        let (admission, id) = service.offer_register(query(1));
        assert_eq!(admission, Admission::Accepted);
        assert!(id.is_some());
        // Raise event pressure past register_pressure.
        service.offer_document(doc(0, 0, 0.5));
        service.offer_document(doc(1, 1, 0.5));
        // Under pressure: queue for coalescing, up to capacity.
        for _ in 0..3 {
            let (admission, id) = service.offer_register(query(2));
            assert_eq!(admission, Admission::Coalesced);
            assert!(id.is_none());
        }
        let (admission, id) = service.offer_register(query(2));
        assert!(admission.is_retry(), "register queue at capacity");
        assert!(id.is_none());
        assert_eq!(service.pending_registers(), 3);
        // The pump flushes all three in one register_batch, ids in order.
        let report = service.pump(Timestamp::from_millis(5));
        assert_eq!(report.registered.len(), 3);
        assert_eq!(service.pending_registers(), 0);
        assert_eq!(service.num_queries(), 4);
        let overload = service.overload_stats();
        assert_eq!(overload.register_offered, 4);
        assert_eq!(overload.register_immediate, 1);
        assert_eq!(overload.register_coalesced, 3);
        assert_eq!(overload.register_retry_hints, 1);
        assert_eq!(overload.register_high_water, 3);
        // Once queued registrations exist, later offers queue behind them to
        // keep id assignment in offer order, even with pressure gone.
        service.pump(Timestamp::from_millis(6));
        let (admission, _) = service.offer_register(query(1));
        assert_eq!(admission, Admission::Accepted);
    }

    #[test]
    fn degraded_shard_raises_backpressure_instead_of_deepening_the_queue() {
        let engine = ShardedItaEngine::with_faults(
            SlidingWindow::count_based(8),
            ItaConfig::default(),
            2,
            crate::sharded::RebalanceConfig::default(),
            FaultConfig {
                policy: FaultPolicy::ServeDegraded,
                ..FaultConfig::default()
            },
        );
        let mut config = ServiceConfig::bounded(8);
        config.backpressure_watermark = 2;
        let mut service = StreamService::new(engine, config);
        let (_, id) = service.offer_register(query(2));
        let q = id.expect("immediate registration");
        // Kill a worker and let an op discover the disconnect.
        service.engine_mut().inject_disconnect(0);
        service.offer_document(doc(0, 0, 0.5));
        service.pump(Timestamp::from_millis(1));
        assert!(service
            .engine()
            .fault_stats()
            .is_some_and(|faults| faults.any_degraded()));
        // Below the watermark offers still land; at the watermark they retry.
        assert_eq!(service.offer_document(doc(1, 1, 0.5)), Admission::Accepted);
        assert_eq!(service.offer_document(doc(2, 2, 0.5)), Admission::Accepted);
        assert!(service.is_backpressured());
        for i in 3..6u64 {
            let admission = service.offer_document(doc(i, i, 0.5));
            assert_eq!(
                admission,
                Admission::Retry {
                    after: service.config().retry_after
                },
                "deterministic backpressure while degraded"
            );
        }
        let overload = service.overload_stats();
        assert_eq!(overload.retry_hints, 3);
        // Retries are not owned: accounting stays exact without them.
        service.check_accounting();
        // The queue still drains (ServeDegraded keeps healthy shards live)…
        service.pump(Timestamp::from_millis(10));
        assert_eq!(service.depth(), 0);
        // …and recovery lifts the backpressure.
        service
            .engine_mut()
            .recover_degraded()
            .expect("resurrection succeeds");
        assert!(!service.is_backpressured());
        assert_eq!(service.offer_document(doc(9, 9, 0.5)), Admission::Accepted);
        let _ = service.results(q);
    }

    #[test]
    fn bounds_are_clamped_to_their_minima() {
        let config = ServiceConfig {
            queue_capacity: 0,
            max_coalesce: 0,
            default_deadline: None,
            register_capacity: 0,
            register_pressure: 0,
            backpressure_watermark: 0,
            retry_after: Duration::ZERO,
        };
        let engine = ItaEngine::new(SlidingWindow::count_based(2), ItaConfig::default());
        let service = StreamService::new(engine, config);
        let normalized = service.config();
        assert_eq!(normalized.queue_capacity, 1);
        assert_eq!(normalized.max_coalesce, 1);
        assert_eq!(normalized.register_capacity, 1);
        assert_eq!(normalized.backpressure_watermark, 1);
    }
}
