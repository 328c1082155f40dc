//! Overload-robust streaming front-end: a bounded ingest queue with
//! explicit admission control, deadline-aware load shedding and burst
//! coalescing around any [`Engine`].
//!
//! A bare [`Engine`] assumes a polite caller that feeds events no faster
//! than it drains them. [`StreamService`] drops that assumption: it
//! sits between an abusive stream source and the engine, admits events into
//! a **bounded queue** ([`ServiceConfig::queue_capacity`]) and answers every
//! offer with an explicit [`Admission`]:
//!
//! * [`Admission::Accepted`] — the event was enqueued (or a registration ran
//!   immediately). The service now owns it.
//! * [`Admission::Shed`] — the event was dropped, with a [`ShedReason`].
//!   Queued events past their [`IngestEvent`] deadline are dropped
//!   **oldest-first**; a full queue displaces its oldest event to admit the
//!   fresher arrival.
//!
//! Nothing is ever refused: the queue is bounded by shedding, a sharded
//! engine rebuilds a faulted shard inside the pump's engine call that finds
//! it, and a registration ([`StreamService::offer_register`]) runs at once.
//! Registering at offer time takes the stream position a deferred
//! registration would: after every event already processed, before every
//! event still queued.
//!
//! Draining is explicit: [`StreamService::pump`] (or the budgeted
//! [`StreamService::pump_budget`], which models a slow consumer) sheds
//! expired events and processes the survivors — whatever is queued goes to
//! the engine as one [`Engine::process_batch`] burst (of at most
//! [`ServiceConfig::max_coalesce`] events), so a deep queue is
//! **coalesced** and a queue one deep is a burst of one, which every
//! engine processes — and the service records — as the single event it is.
//! The service times each burst's engine call, and nothing else (no
//! registration, no shedding), into [`StreamService::stats`].
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

#![deny(clippy::disallowed_types)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::VecDeque;
use std::time::Duration;

use cts_index::{DocId, Document, QueryId, Timestamp};

use crate::engine::{Engine, EventOutcome, IngestEvent};
use crate::query::ContinuousQuery;
use crate::result::RankedDocument;
use crate::stats::{OverloadStats, ProcessingStats};

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
    /// The service took ownership and dropped the event on the spot.
    Shed(ShedReason),
}

/// Tuning of the bounded ingest pipeline. Every bound is in events.
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
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self::bounded(1024)
    }
}

impl ServiceConfig {
    /// A config with all bounds scaled from one queue capacity: bursts of up
    /// to a quarter of the queue.
    pub fn bounded(queue_capacity: usize) -> Self {
        let queue_capacity = queue_capacity.max(1);
        Self {
            queue_capacity,
            max_coalesce: (queue_capacity / 4).max(2),
            default_deadline: None,
        }
    }

    /// Normalised copy with every bound clamped to its documented minimum.
    fn normalized(&self) -> Self {
        let mut config = self.clone();
        config.queue_capacity = config.queue_capacity.max(1);
        config.max_coalesce = config.max_coalesce.max(1);
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
    engine: E,
    /// What the engine's event calls cost; the admission ledger lives in
    /// `overload` and joins it in [`StreamService::stats`].
    stats: ProcessingStats,
    config: ServiceConfig,
    queue: VecDeque<IngestEvent>,
    shed_log: Vec<(DocId, ShedReason)>,
    overload: OverloadStats,
    clock: Timestamp,
}

impl<E: Engine> StreamService<E> {
    /// Wraps `engine` behind a bounded ingest queue. Bounds below their
    /// documented minima are clamped (see [`ServiceConfig`]).
    pub fn new(engine: E, config: ServiceConfig) -> Self {
        Self {
            engine,
            stats: ProcessingStats::default(),
            config: config.normalized(),
            queue: VecDeque::new(),
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

    /// Offers one document without an explicit deadline (the configured
    /// [`ServiceConfig::default_deadline`] still applies).
    pub fn offer_document(&mut self, doc: Document) -> Admission {
        self.offer(IngestEvent::new(doc))
    }

    /// Offers one stream event: [`Admission::Accepted`] or
    /// [`Admission::Shed`], never a refusal (so [`OverloadStats::retry_hints`]
    /// stays 0). Never blocks and never calls into the engine: admission is
    /// pure queue arithmetic, so the shed path stays live whatever the engine
    /// is doing.
    pub fn offer(&mut self, event: IngestEvent) -> Admission {
        let arrival = event.doc.arrival;
        self.advance_clock(arrival);
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

    /// Offers one registration: the query registers at once, whatever the
    /// queue holds, and its id comes back with [`Admission::Accepted`]. It
    /// sees every event already processed and none still queued — the stream
    /// position a registration deferred to the next pump would take, and
    /// [`Engine::register_batch`] is byte-identical to registering one by
    /// one, so there is nothing to gain by deferring it. The answer is always
    /// `(Accepted, Some(id))`; the pair keeps the shape callers already read.
    pub fn offer_register(&mut self, query: ContinuousQuery) -> (Admission, Option<QueryId>) {
        (Admission::Accepted, Some(self.engine.register(query)))
    }

    /// Removes a query immediately. Returns `true` if it existed.
    pub fn deregister(&mut self, query: QueryId) -> bool {
        self.engine.deregister(query)
    }

    /// Drains the whole queue at stream time `now`: sheds expired events
    /// oldest-first, processes every survivor (in [`Engine::process_batch`]
    /// bursts of whatever is queued, up to [`ServiceConfig::max_coalesce`]).
    pub fn pump(&mut self, now: Timestamp) -> DrainReport {
        self.pump_budget(now, usize::MAX)
    }

    /// [`StreamService::pump`] with a drain budget: at most `budget` events
    /// are processed (shedding is not budgeted — it is how an overloaded
    /// service gets *cheaper*, and throttling it would let a slow consumer
    /// grow the backlog unboundedly). This is the slow-consumer model of the
    /// overload tests.
    pub fn pump_budget(&mut self, now: Timestamp, budget: usize) -> DrainReport {
        self.advance_clock(now);
        let mut report = DrainReport::default();
        self.shed_expired();
        let mut budget = budget;
        while budget > 0 && !self.queue.is_empty() {
            let take = self.queue.len().min(self.config.max_coalesce).min(budget);
            let batch: Vec<Document> = self.queue.drain(..take).map(|event| event.doc).collect();
            report.processed.extend(batch.iter().map(|doc| doc.id));
            #[expect(
                clippy::disallowed_types,
                reason = "times the burst for stats; never read by admission"
            )]
            let start = std::time::Instant::now();
            let outcomes = self.engine.process_batch(batch);
            let elapsed = start.elapsed();
            // A burst of one is a single event, counted and timed as one.
            if let [outcome] = outcomes.as_slice() {
                self.stats.record(outcome, elapsed);
                self.overload.accepted += 1;
                report.singletons += 1;
            } else {
                self.stats.record_batch(&outcomes, elapsed);
                self.overload.coalesced += take as u64;
                report.batches += 1;
            }
            report.outcomes.extend(outcomes);
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
    /// in (see [`ProcessingStats::overload`]). `total_time` is the wall clock
    /// of the engine's event calls alone: a burst of one is recorded as one
    /// event, a larger burst as one batch.
    pub fn stats(&self) -> ProcessingStats {
        ProcessingStats {
            overload: self.overload,
            ..self.stats
        }
    }

    /// The current top-k of `query`, best first.
    pub fn results(&self, query: QueryId) -> Vec<RankedDocument> {
        self.engine.current_results(query)
    }

    /// Number of registered queries.
    pub fn num_queries(&self) -> usize {
        self.engine.num_queries()
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Mutable access to the wrapped engine (fault injection). Events
    /// processed directly on the engine bypass the queue, the accounting and
    /// the timing.
    pub fn engine_mut(&mut self) -> &mut E {
        &mut self.engine
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
    use crate::ita::{ItaConfig, ItaEngine};
    use crate::query::ContinuousQuery;
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
    fn a_registration_behind_a_deep_queue_registers_at_once() {
        let mut service = small_service(16);
        let mut reference = ItaEngine::new(SlidingWindow::count_based(8), ItaConfig::default());
        let processed: Vec<Document> = (0..3u64).map(|i| doc(i, i, 0.1 * (i + 1) as f64)).collect();
        for d in &processed {
            service.offer_document(d.clone());
            reference.process_document(d.clone());
        }
        service.pump(Timestamp::from_millis(3));
        // Six queued events: past a sixteenth of the queue, the depth from
        // which registrations were once deferred to the next pump.
        let queued: Vec<Document> = (3..9u64).map(|i| doc(i, i, 0.9)).collect();
        for d in &queued {
            service.offer_document(d.clone());
        }
        assert_eq!(service.depth(), 6);
        let (admission, id) = service.offer_register(query(4));
        assert_eq!(admission, Admission::Accepted);
        let q = id.expect("a registration is answered with its id");
        // It sees every processed event and none of the queued ones …
        let results = service.results(q);
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(|r| r.doc.0 < 3), "{results:?}");
        // … exactly as a reference registering at the same stream position.
        let rq = reference.register(query(4));
        assert_eq!(q, rq);
        assert_eq!(results, reference.current_results(rq));
        let report = service.pump(Timestamp::from_millis(9));
        let queued_ids: Vec<DocId> = queued.iter().map(|d| d.id).collect();
        assert_eq!(report.processed, queued_ids);
        for d in queued {
            reference.process_document(d);
        }
        assert_eq!(service.results(q), reference.current_results(rq));
    }

    #[test]
    fn bounds_are_clamped_to_their_minima() {
        let config = ServiceConfig {
            queue_capacity: 0,
            max_coalesce: 0,
            default_deadline: None,
        };
        let engine = ItaEngine::new(SlidingWindow::count_based(2), ItaConfig::default());
        let service = StreamService::new(engine, config);
        let normalized = service.config();
        assert_eq!(normalized.queue_capacity, 1);
        assert_eq!(normalized.max_coalesce, 1);
    }
}
