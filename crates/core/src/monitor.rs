//! Event timing around any [`Engine`].
//!
//! The paper's headline metric is *processing time per stream event*
//! (arrival plus the expirations it triggers). [`Monitor`] wraps an engine,
//! times every [`Engine::process_document`] call with a monotonic clock and
//! accumulates [`ProcessingStats`]. It implements [`Engine`] itself, so a
//! monitored engine drops into any harness unchanged.

use std::time::{Duration, Instant};

use cts_index::{Document, QueryId, Timestamp};

use crate::engine::{Engine, EventOutcome};
use crate::query::ContinuousQuery;
use crate::result::RankedDocument;

/// Admission-control and load-shedding counters of a bounded-queue
/// streaming front-end ([`crate::StreamService`]).
///
/// The counters obey an exact accounting identity, checked by the service
/// after every admission and drain:
///
/// ```text
/// offered == accepted + coalesced + shed() + queue depth
/// ```
///
/// which collapses to the quiescent form `offered == accepted + coalesced +
/// shed()` once the queue has drained. `Retry` refusals are *not* part of
/// `offered` — a retried caller still owns its event — and are tracked
/// separately as hints.
///
/// Embedded in [`ProcessingStats`] so overload counters ride through every
/// aggregation path ([`ProcessingStats::absorb`],
/// [`ProcessingStats::delta_since`]) instead of silently zeroing when stats
/// are folded across shards or batches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadStats {
    /// Events the ingest queue took ownership of (enqueued, or shed on the
    /// spot); excludes `Retry` refusals, which the caller retains.
    pub offered: u64,
    /// Owned events processed as a burst of one (drained alone). Disjoint
    /// from `coalesced`.
    pub accepted: u64,
    /// Owned events processed as members of an [`Engine::process_batch`]
    /// burst of two or more. Disjoint from `accepted`.
    pub coalesced: u64,
    /// Owned events dropped because their ingest deadline passed
    /// (oldest-first).
    pub shed_deadline: u64,
    /// Owned events displaced from a full queue to admit fresher arrivals
    /// (oldest-first).
    pub shed_queue_full: u64,
    /// `Retry { after }` hints issued under backpressure (degraded shard
    /// with a deep queue). Not counted in `offered`.
    pub retry_hints: u64,
    /// Deepest the ingest queue has ever been (high-water mark; cumulative
    /// like the timing maxima).
    pub queue_high_water: u64,
    /// Registrations the admission path took ownership of (immediate or
    /// queued); excludes `Retry` refusals.
    pub register_offered: u64,
    /// Registrations performed immediately (no pressure).
    pub register_immediate: u64,
    /// Registrations queued and later flushed through one
    /// [`Engine::register_batch`] call (coalesced under pressure).
    pub register_coalesced: u64,
    /// `Retry { after }` hints issued because the pending-register queue was
    /// at capacity. Not counted in `register_offered`.
    pub register_retry_hints: u64,
    /// Deepest the pending-register queue has ever been.
    pub register_high_water: u64,
}

impl OverloadStats {
    /// Total events shed, across every reason.
    pub fn shed(&self) -> u64 {
        self.shed_deadline + self.shed_queue_full
    }

    /// Asserts the exact accounting identity at the given queue depth:
    /// `offered == accepted + coalesced + shed() + depth`. Panics with the
    /// full ledger on violation — a lost or double-counted event is a bug,
    /// never a rounding artifact, because every counter is an exact integer.
    pub fn check_accounting(&self, queue_depth: u64) {
        let settled = self.accepted + self.coalesced + self.shed();
        assert!(
            self.offered == settled + queue_depth,
            "overload accounting violated: offered {} != accepted {} + coalesced {} \
             + shed {} + depth {}",
            self.offered,
            self.accepted,
            self.coalesced,
            self.shed(),
            queue_depth
        );
    }

    /// Folds another accumulator into this one: counters add exactly,
    /// high-water marks take the maximum — the same discipline as
    /// [`ProcessingStats::absorb`].
    pub fn absorb(&mut self, other: &OverloadStats) {
        self.offered += other.offered;
        self.accepted += other.accepted;
        self.coalesced += other.coalesced;
        self.shed_deadline += other.shed_deadline;
        self.shed_queue_full += other.shed_queue_full;
        self.retry_hints += other.retry_hints;
        self.queue_high_water = self.queue_high_water.max(other.queue_high_water);
        self.register_offered += other.register_offered;
        self.register_immediate += other.register_immediate;
        self.register_coalesced += other.register_coalesced;
        self.register_retry_hints += other.register_retry_hints;
        self.register_high_water = self.register_high_water.max(other.register_high_water);
    }

    /// The change in counters since `earlier` (saturating). High-water marks
    /// stay cumulative, the same wart [`ProcessingStats::delta_since`]
    /// documents for its timing maxima.
    pub fn delta_since(&self, earlier: &OverloadStats) -> OverloadStats {
        OverloadStats {
            offered: self.offered.saturating_sub(earlier.offered),
            accepted: self.accepted.saturating_sub(earlier.accepted),
            coalesced: self.coalesced.saturating_sub(earlier.coalesced),
            shed_deadline: self.shed_deadline.saturating_sub(earlier.shed_deadline),
            shed_queue_full: self.shed_queue_full.saturating_sub(earlier.shed_queue_full),
            retry_hints: self.retry_hints.saturating_sub(earlier.retry_hints),
            queue_high_water: self.queue_high_water,
            register_offered: self
                .register_offered
                .saturating_sub(earlier.register_offered),
            register_immediate: self
                .register_immediate
                .saturating_sub(earlier.register_immediate),
            register_coalesced: self
                .register_coalesced
                .saturating_sub(earlier.register_coalesced),
            register_retry_hints: self
                .register_retry_hints
                .saturating_sub(earlier.register_retry_hints),
            register_high_water: self.register_high_water,
        }
    }
}

/// Accumulated cost of the stream events processed so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessingStats {
    /// Number of stream events (arrivals) processed.
    pub events: u64,
    /// Number of expirations those events triggered.
    pub expirations: u64,
    /// Sum of `queries_touched_by_arrival` over all events.
    pub queries_touched_by_arrival: u64,
    /// Sum of `queries_touched_by_expiration` over all events.
    pub queries_touched_by_expiration: u64,
    /// Sum of `results_changed` over all events.
    pub results_changed: u64,
    /// Total wall-clock time spent inside `process_document` /
    /// `process_batch`.
    pub total_time: Duration,
    /// The most expensive single event. Individually-timed events always
    /// contribute; batches contribute when the engine times its batched
    /// events internally and surfaces the in-batch maximum (the sharded
    /// engine's workers do — see [`crate::Engine::batched_max_event_time`]
    /// and the `max_event` parameter of [`ProcessingStats::record_batch`]).
    /// Whole-batch wall clock is tracked separately as
    /// [`ProcessingStats::max_batch_time`].
    pub max_event_time: Duration,
    /// Number of [`crate::Engine::process_batch`] calls recorded (singleton
    /// batches are recorded through the per-event path and do not count).
    pub batches: u64,
    /// Largest batch recorded, in events.
    pub largest_batch: u64,
    /// The most expensive single batch (whole-batch wall clock).
    pub max_batch_time: Duration,
    /// Recovery-checkpoint syncs taken ([`crate::ItaEngine::sync_checkpoint`],
    /// once per [`crate::FaultConfig::checkpoint_interval`] mutations on each
    /// shard worker). Zero for engines that keep no checkpoint.
    pub checkpoints: u64,
    /// Time spent inside those syncs. The worker takes one *after* timing
    /// the event that triggered it, so this is not part of `total_time`:
    /// `checkpoint_time / events` is what fault tolerance adds per event.
    pub checkpoint_time: Duration,
    /// Admission-control counters when the events flowed through a bounded
    /// ingest queue ([`crate::StreamService`]); all-zero for unbounded
    /// monitors. Carried through [`ProcessingStats::absorb`] and
    /// [`ProcessingStats::delta_since`] like every other counter.
    pub overload: OverloadStats,
}

impl ProcessingStats {
    /// Folds one event's outcome and duration into the totals.
    pub fn record(&mut self, outcome: &EventOutcome, elapsed: Duration) {
        self.events += 1;
        self.expirations += outcome.expired as u64;
        self.queries_touched_by_arrival += outcome.queries_touched_by_arrival as u64;
        self.queries_touched_by_expiration += outcome.queries_touched_by_expiration as u64;
        self.results_changed += outcome.results_changed as u64;
        self.total_time += elapsed;
        if elapsed > self.max_event_time {
            self.max_event_time = elapsed;
        }
    }

    /// Folds one batch's outcomes and its whole-batch duration into the
    /// totals. Counters sum exactly as if each event had been recorded
    /// individually; `elapsed` goes to `total_time` (keeping
    /// [`ProcessingStats::mean_event_time`] exact) and to the batch-level
    /// maximum. `max_event` is the most expensive single event *within* the
    /// batch when the engine timed its batched events internally (see
    /// [`crate::Engine::batched_max_event_time`]); it folds into
    /// `max_event_time` via max, so pass [`Duration::ZERO`] when the split is
    /// unknown and the field is simply left alone.
    pub fn record_batch(
        &mut self,
        outcomes: &[EventOutcome],
        elapsed: Duration,
        max_event: Duration,
    ) {
        self.events += outcomes.len() as u64;
        for outcome in outcomes {
            self.expirations += outcome.expired as u64;
            self.queries_touched_by_arrival += outcome.queries_touched_by_arrival as u64;
            self.queries_touched_by_expiration += outcome.queries_touched_by_expiration as u64;
            self.results_changed += outcome.results_changed as u64;
        }
        self.total_time += elapsed;
        if max_event > self.max_event_time {
            self.max_event_time = max_event;
        }
        self.batches += 1;
        self.largest_batch = self.largest_batch.max(outcomes.len() as u64);
        if elapsed > self.max_batch_time {
            self.max_batch_time = elapsed;
        }
    }

    /// Mean processing time per event (zero when no events were processed).
    ///
    /// Computed in integer nanoseconds: `Duration / u32` would need the event
    /// count clamped to `u32::MAX`, silently inflating the mean once more
    /// than 2^32 events have been recorded — exactly the regime a
    /// long-running monitor is for.
    pub fn mean_event_time(&self) -> Duration {
        if self.events == 0 {
            return Duration::ZERO;
        }
        let mean_nanos = self.total_time.as_nanos() / u128::from(self.events);
        // A per-event mean cannot overflow u64 nanoseconds (~584 years)
        // unless total_time already did; saturate rather than wrap.
        Duration::from_nanos(u64::try_from(mean_nanos).unwrap_or(u64::MAX))
    }

    /// Events processed per second of processing time (the paper's
    /// throughput view of the same metric).
    pub fn events_per_second(&self) -> f64 {
        let secs = self.total_time.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.events as f64 / secs
        }
    }

    /// Total (query, update) pairs examined, the paper's work measure.
    pub fn total_queries_touched(&self) -> u64 {
        self.queries_touched_by_arrival + self.queries_touched_by_expiration
    }

    /// Folds another accumulator into this one — the combinator behind every
    /// multi-source aggregation (the sharded engine's per-worker stats, batch
    /// deltas in [`Monitor::run`]).
    ///
    /// The merge is exact: counters and `total_time` (integer nanoseconds)
    /// add, `max_event_time` takes the maximum, and derived quantities like
    /// [`ProcessingStats::mean_event_time`] are recomputed from the merged
    /// totals — never averaged across sources, so there is no mean-of-means
    /// drift when the sources saw different event counts.
    pub fn absorb(&mut self, other: &ProcessingStats) {
        self.events += other.events;
        self.expirations += other.expirations;
        self.queries_touched_by_arrival += other.queries_touched_by_arrival;
        self.queries_touched_by_expiration += other.queries_touched_by_expiration;
        self.results_changed += other.results_changed;
        self.total_time += other.total_time;
        self.max_event_time = self.max_event_time.max(other.max_event_time);
        self.batches += other.batches;
        self.largest_batch = self.largest_batch.max(other.largest_batch);
        self.max_batch_time = self.max_batch_time.max(other.max_batch_time);
        self.checkpoints += other.checkpoints;
        self.checkpoint_time += other.checkpoint_time;
        self.overload.absorb(&other.overload);
    }

    /// The change in counters since `earlier` (saturating; `earlier` should
    /// be a previous snapshot of the same monitor).
    ///
    /// Note the wart this pattern carries: `max_event_time` is the
    /// *cumulative* maximum, not the interval's. Batch aggregation should
    /// prefer recording into a fresh accumulator and
    /// [`ProcessingStats::absorb`]ing it (what [`Monitor::run`] does), which
    /// keeps every field exact.
    pub fn delta_since(&self, earlier: &ProcessingStats) -> ProcessingStats {
        ProcessingStats {
            events: self.events.saturating_sub(earlier.events),
            expirations: self.expirations.saturating_sub(earlier.expirations),
            queries_touched_by_arrival: self
                .queries_touched_by_arrival
                .saturating_sub(earlier.queries_touched_by_arrival),
            queries_touched_by_expiration: self
                .queries_touched_by_expiration
                .saturating_sub(earlier.queries_touched_by_expiration),
            results_changed: self.results_changed.saturating_sub(earlier.results_changed),
            total_time: self.total_time.saturating_sub(earlier.total_time),
            max_event_time: self.max_event_time,
            batches: self.batches.saturating_sub(earlier.batches),
            largest_batch: self.largest_batch,
            max_batch_time: self.max_batch_time,
            checkpoints: self.checkpoints.saturating_sub(earlier.checkpoints),
            checkpoint_time: self.checkpoint_time.saturating_sub(earlier.checkpoint_time),
            overload: self.overload.delta_since(&earlier.overload),
        }
    }
}

/// An [`Engine`] wrapper that times every stream event.
#[derive(Debug, Clone)]
pub struct Monitor<E> {
    engine: E,
    stats: ProcessingStats,
}

impl<E: Engine> Monitor<E> {
    /// Wraps `engine`.
    pub fn new(engine: E) -> Self {
        Self {
            engine,
            stats: ProcessingStats::default(),
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Mutable access to the wrapped engine. Events processed directly on
    /// the inner engine bypass timing.
    pub fn engine_mut(&mut self) -> &mut E {
        &mut self.engine
    }

    /// Consumes the monitor, returning the engine.
    pub fn into_inner(self) -> E {
        self.engine
    }

    /// The statistics accumulated so far.
    pub fn stats(&self) -> &ProcessingStats {
        &self.stats
    }

    /// Processes a whole batch of documents, returning the statistics for
    /// exactly this batch. The batch is recorded into a fresh accumulator and
    /// [`ProcessingStats::absorb`]ed into the cumulative stats, so cumulative
    /// and per-batch views are built from the same exact integer totals.
    pub fn run<I>(&mut self, docs: I) -> ProcessingStats
    where
        I: IntoIterator<Item = Document>,
    {
        let mut batch = ProcessingStats::default();
        for doc in docs {
            let start = Instant::now();
            let outcome = self.engine.process_document(doc);
            batch.record(&outcome, start.elapsed());
        }
        self.stats.absorb(&batch);
        batch
    }

    /// Drives the whole document iterator through the engine's batched path,
    /// `batch` events per [`Engine::process_batch`] call (the final batch may
    /// be shorter), returning the statistics for exactly this run. Outcomes
    /// are byte-identical to [`Monitor::run`] — batching only amortises
    /// dispatch — but timing is recorded per batch, not per event. A `batch`
    /// of 1 (or 0, treated as 1) degenerates to [`Monitor::run`] exactly,
    /// per-event maxima included.
    pub fn run_batched<I>(&mut self, docs: I, batch: usize) -> ProcessingStats
    where
        I: IntoIterator<Item = Document>,
    {
        let batch = batch.max(1);
        if batch == 1 {
            return self.run(docs);
        }
        let mut stats = ProcessingStats::default();
        let mut docs = docs.into_iter().peekable();
        let mut buffer = Vec::with_capacity(batch);
        while docs.peek().is_some() {
            buffer.extend(docs.by_ref().take(batch));
            if buffer.len() == 1 {
                // A trailing partial batch of one is a single event, and is
                // recorded as one (per-event maxima included, `batches` not
                // bumped) — the same singleton routing Engine::process_batch
                // on Monitor performs.
                let doc = buffer.pop().expect("len checked");
                let start = Instant::now();
                let outcome = self.engine.process_document(doc);
                stats.record(&outcome, start.elapsed());
                continue;
            }
            let (outcomes, elapsed, in_batch_max) = self.timed_batch(std::mem::take(&mut buffer));
            stats.record_batch(&outcomes, elapsed, in_batch_max);
            buffer = Vec::with_capacity(batch);
        }
        self.stats.absorb(&stats);
        stats
    }

    /// Resets the accumulated statistics to zero.
    pub fn reset_stats(&mut self) {
        self.stats = ProcessingStats::default();
    }

    /// Times one [`Engine::process_batch`] call, returning the outcomes, the
    /// whole-batch wall clock, and the most expensive single event *within*
    /// this batch when the engine surfaces one.
    ///
    /// The engine only reports a *cumulative* per-event maximum
    /// ([`Engine::batched_max_event_time`]), so the batch's own maximum is
    /// recovered by snapshotting around the call: if the cumulative maximum
    /// grew, an event in this batch set it and the new value is exactly this
    /// batch's maximum; if it did not, this batch's maximum is unknown but
    /// cannot exceed what `max_event_time` already holds, so reporting ZERO
    /// keeps the fold exact.
    fn timed_batch(&mut self, docs: Vec<Document>) -> (Vec<EventOutcome>, Duration, Duration) {
        let before = self
            .engine
            .batched_max_event_time()
            .unwrap_or(Duration::ZERO);
        let start = Instant::now();
        let outcomes = self.engine.process_batch(docs);
        let elapsed = start.elapsed();
        let after = self
            .engine
            .batched_max_event_time()
            .unwrap_or(Duration::ZERO);
        let in_batch_max = if after > before {
            after
        } else {
            Duration::ZERO
        };
        (outcomes, elapsed, in_batch_max)
    }
}

impl<E: Engine> Engine for Monitor<E> {
    fn register(&mut self, query: ContinuousQuery) -> QueryId {
        self.engine.register(query)
    }

    fn register_batch(&mut self, queries: Vec<ContinuousQuery>) -> Vec<QueryId> {
        self.engine.register_batch(queries)
    }

    fn deregister(&mut self, query: QueryId) -> bool {
        self.engine.deregister(query)
    }

    fn process_document(&mut self, doc: Document) -> EventOutcome {
        let start = Instant::now();
        let outcome = self.engine.process_document(doc);
        self.stats.record(&outcome, start.elapsed());
        outcome
    }

    fn process_batch(&mut self, docs: Vec<Document>) -> Vec<EventOutcome> {
        // An empty batch is a no-op and must not touch the stats (a timed
        // zero-event batch would inflate `batches` and drift the mean); a
        // singleton batch is recorded through the per-event path, so the
        // batch==1 protocol produces stats indistinguishable from singles
        // (per-event maxima included).
        if docs.is_empty() {
            return Vec::new();
        }
        if docs.len() == 1 {
            let doc = docs.into_iter().next().expect("len checked");
            return vec![self.process_document(doc)];
        }
        let (outcomes, elapsed, in_batch_max) = self.timed_batch(docs);
        self.stats.record_batch(&outcomes, elapsed, in_batch_max);
        outcomes
    }

    fn current_results(&self, query: QueryId) -> Vec<RankedDocument> {
        self.engine.current_results(query)
    }

    fn num_queries(&self) -> usize {
        self.engine.num_queries()
    }

    fn num_valid_documents(&self) -> usize {
        self.engine.num_valid_documents()
    }

    fn clock(&self) -> Timestamp {
        self.engine.clock()
    }

    fn name(&self) -> &'static str {
        self.engine.name()
    }

    fn batched_max_event_time(&self) -> Option<Duration> {
        self.engine.batched_max_event_time()
    }

    fn inject_fault(&mut self, shard: usize) -> bool {
        self.engine.inject_fault(shard)
    }

    fn fault_stats(&self) -> Option<crate::fault::FaultStats> {
        self.engine.fault_stats()
    }

    fn check_invariants(&self) {
        self.engine.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ita::{ItaConfig, ItaEngine};
    use cts_index::{DocId, SlidingWindow};
    use cts_text::{TermId, WeightedVector};

    fn doc(id: u64, weight: f64) -> Document {
        Document::new(
            DocId(id),
            Timestamp::from_millis(id),
            WeightedVector::from_weights([(TermId(1), weight)]),
        )
    }

    fn monitored() -> Monitor<ItaEngine> {
        Monitor::new(ItaEngine::new(
            SlidingWindow::count_based(2),
            ItaConfig::default(),
        ))
    }

    #[test]
    fn events_are_counted_and_timed() {
        let mut m = monitored();
        let q = m.register(ContinuousQuery::from_weights([(TermId(1), 1.0)], 1));
        for i in 0..5 {
            m.process_document(doc(i, 0.1 * (i + 1) as f64));
        }
        let stats = m.stats();
        assert_eq!(stats.events, 5);
        assert_eq!(stats.expirations, 3);
        assert!(stats.total_time >= stats.max_event_time);
        assert!(stats.mean_event_time() <= stats.max_event_time);
        assert!(stats.events_per_second() > 0.0);
        assert_eq!(m.current_results(q).len(), 1);
        assert_eq!(m.name(), "ita");
    }

    #[test]
    fn reset_clears_the_counters() {
        let mut m = monitored();
        m.register(ContinuousQuery::from_weights([(TermId(1), 1.0)], 1));
        m.process_document(doc(0, 0.5));
        assert_eq!(m.stats().events, 1);
        m.reset_stats();
        assert_eq!(m.stats(), &ProcessingStats::default());
    }

    #[test]
    fn delta_since_subtracts_counters() {
        let mut m = monitored();
        m.register(ContinuousQuery::from_weights([(TermId(1), 1.0)], 1));
        m.process_document(doc(0, 0.5));
        let snapshot = *m.stats();
        m.process_document(doc(1, 0.6));
        m.process_document(doc(2, 0.7));
        let delta = m.stats().delta_since(&snapshot);
        assert_eq!(delta.events, 2);
        assert_eq!(delta.expirations, 1);
    }

    #[test]
    fn mean_event_time_is_exact_past_u32_max_events() {
        // 3·2^32 events of exactly 1s each: the old `Duration / u32` path
        // clamped the divisor to u32::MAX and reported ~3s.
        let events = 3 * (1u64 << 32);
        let stats = ProcessingStats {
            events,
            total_time: Duration::from_secs(events),
            ..ProcessingStats::default()
        };
        assert_eq!(stats.mean_event_time(), Duration::from_secs(1));
        // Sub-nanosecond means truncate to zero rather than misreport.
        let tiny = ProcessingStats {
            events: u64::MAX,
            total_time: Duration::from_nanos(7),
            ..ProcessingStats::default()
        };
        assert_eq!(tiny.mean_event_time(), Duration::ZERO);
    }

    #[test]
    fn absorb_is_an_exact_integer_merge() {
        let mut a = ProcessingStats {
            events: 3,
            expirations: 2,
            queries_touched_by_arrival: 7,
            queries_touched_by_expiration: 1,
            results_changed: 4,
            total_time: Duration::from_nanos(10),
            max_event_time: Duration::from_nanos(6),
            checkpoints: 2,
            checkpoint_time: Duration::from_nanos(40),
            ..ProcessingStats::default()
        };
        let b = ProcessingStats {
            events: 5,
            expirations: 1,
            queries_touched_by_arrival: 2,
            queries_touched_by_expiration: 9,
            results_changed: 1,
            total_time: Duration::from_nanos(11),
            max_event_time: Duration::from_nanos(4),
            checkpoints: 1,
            checkpoint_time: Duration::from_nanos(2),
            ..ProcessingStats::default()
        };
        let before = a;
        a.absorb(&b);
        assert_eq!(a.checkpoints, 3);
        assert_eq!(a.checkpoint_time, Duration::from_nanos(42));
        let since = a.delta_since(&before);
        assert_eq!(since.checkpoints, 1);
        assert_eq!(since.checkpoint_time, Duration::from_nanos(2));
        assert_eq!(a.events, 8);
        assert_eq!(a.expirations, 3);
        assert_eq!(a.queries_touched_by_arrival, 9);
        assert_eq!(a.queries_touched_by_expiration, 10);
        assert_eq!(a.results_changed, 5);
        assert_eq!(a.total_time, Duration::from_nanos(21));
        assert_eq!(a.max_event_time, Duration::from_nanos(6));
        // The merged mean is 21 ns / 8 events = 2 ns, computed from the exact
        // totals. A mean-of-means would have reported
        // (10/3 + 11/5) / 2 ≈ 2.77 ns — the drift absorb exists to avoid.
        assert_eq!(a.mean_event_time(), Duration::from_nanos(2));
    }

    #[test]
    fn absorb_matches_recording_the_same_events_in_one_accumulator() {
        let outcome = |touched: usize| EventOutcome {
            queries_touched_by_arrival: touched,
            expired: 1,
            ..EventOutcome::default()
        };
        let mut merged = ProcessingStats::default();
        let mut left = ProcessingStats::default();
        let mut right = ProcessingStats::default();
        for i in 0..6u64 {
            let (elapsed, o) = (Duration::from_nanos(100 + i), outcome(i as usize));
            merged.record(&o, elapsed);
            if i % 2 == 0 {
                left.record(&o, elapsed);
            } else {
                right.record(&o, elapsed);
            }
        }
        let mut absorbed = ProcessingStats::default();
        absorbed.absorb(&left);
        absorbed.absorb(&right);
        assert_eq!(absorbed, merged);
        // Absorbing empty stats is the identity.
        absorbed.absorb(&ProcessingStats::default());
        assert_eq!(absorbed, merged);
    }

    #[test]
    fn run_returns_batch_stats_and_absorbs_them_into_the_cumulative_view() {
        let mut m = monitored();
        m.register(ContinuousQuery::from_weights([(TermId(1), 1.0)], 1));
        let first = m.run((0..3u64).map(|i| doc(i, 0.5)));
        assert_eq!(first.events, 3);
        assert_eq!(m.stats().events, 3);
        let second = m.run((3..8u64).map(|i| doc(i, 0.5)));
        assert_eq!(second.events, 5);
        assert_eq!(second.expirations, 5);
        assert_eq!(m.stats().events, 8);
        assert_eq!(m.stats().total_time, first.total_time + second.total_time);
    }

    #[test]
    fn record_batch_sums_counters_like_singles_and_tracks_batch_shape() {
        let outcome = |touched: usize| EventOutcome {
            queries_touched_by_arrival: touched,
            expired: 1,
            results_changed: touched / 2,
            ..EventOutcome::default()
        };
        let outcomes: Vec<EventOutcome> = (0..5).map(outcome).collect();
        let mut singles = ProcessingStats::default();
        for o in &outcomes {
            singles.record(o, Duration::from_nanos(20));
        }
        let mut batched = ProcessingStats::default();
        batched.record_batch(
            &outcomes,
            Duration::from_nanos(100),
            Duration::from_nanos(40),
        );
        // Same counters, same total time; only the per-event/batch timing
        // split differs.
        assert_eq!(batched.events, singles.events);
        assert_eq!(batched.expirations, singles.expirations);
        assert_eq!(
            batched.queries_touched_by_arrival,
            singles.queries_touched_by_arrival
        );
        assert_eq!(batched.results_changed, singles.results_changed);
        assert_eq!(batched.total_time, singles.total_time);
        assert_eq!(batched.mean_event_time(), singles.mean_event_time());
        assert_eq!(batched.batches, 1);
        assert_eq!(batched.largest_batch, 5);
        assert_eq!(batched.max_batch_time, Duration::from_nanos(100));
        // The engine-reported in-batch maximum lands in max_event_time …
        assert_eq!(batched.max_event_time, Duration::from_nanos(40));
        // … and a ZERO (split unknown) leaves it untouched.
        batched.record_batch(&outcomes, Duration::from_nanos(50), Duration::ZERO);
        assert_eq!(batched.max_event_time, Duration::from_nanos(40));
        // Batch bookkeeping merges through absorb: totals add, maxima max.
        let mut merged = batched;
        let mut more = ProcessingStats::default();
        more.record_batch(
            &outcomes[..2],
            Duration::from_nanos(300),
            Duration::from_nanos(90),
        );
        merged.absorb(&more);
        assert_eq!(merged.batches, 3);
        assert_eq!(merged.largest_batch, 5);
        assert_eq!(merged.max_batch_time, Duration::from_nanos(300));
        assert_eq!(merged.max_event_time, Duration::from_nanos(90));
    }

    #[test]
    fn monitor_process_batch_times_batches_and_degenerates_to_singles_at_one() {
        let mut m = monitored();
        m.register(ContinuousQuery::from_weights([(TermId(1), 1.0)], 1));
        // A singleton batch goes through the per-event path.
        let outcomes = m.process_batch(vec![doc(0, 0.5)]);
        assert_eq!(outcomes.len(), 1);
        assert_eq!(m.stats().batches, 0);
        assert!(m.stats().max_event_time > Duration::ZERO);
        // A real batch is timed as a whole.
        let outcomes = m.process_batch((1..5u64).map(|i| doc(i, 0.5)).collect());
        assert_eq!(outcomes.len(), 4);
        assert_eq!(m.stats().events, 5);
        assert_eq!(m.stats().batches, 1);
        assert_eq!(m.stats().largest_batch, 4);
        assert!(m.stats().max_batch_time > Duration::ZERO);
        // Empty batches are a full no-op: no event, no batch, no time.
        let before = *m.stats();
        assert!(m.process_batch(Vec::new()).is_empty());
        assert_eq!(m.stats(), &before);
    }

    #[test]
    fn run_batched_routes_a_trailing_singleton_through_the_per_event_path() {
        let mut m = monitored();
        m.register(ContinuousQuery::from_weights([(TermId(1), 1.0)], 1));
        // 7 events at batch 3: two real batches (3 + 3) and one trailing
        // single event — recorded as an event, not a phantom batch, so its
        // per-event maximum is kept.
        let stats = m.run_batched((0..7u64).map(|i| doc(i, 0.5)), 3);
        assert_eq!(stats.events, 7);
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.largest_batch, 3);
        assert!(stats.max_event_time > Duration::ZERO);
    }

    #[test]
    fn run_batched_matches_run_event_for_event() {
        let mut batched = monitored();
        let mut singles = monitored();
        let qa = batched.register(ContinuousQuery::from_weights([(TermId(1), 1.0)], 2));
        let qb = singles.register(ContinuousQuery::from_weights([(TermId(1), 1.0)], 2));
        let docs = |lo: u64, hi: u64| (lo..hi).map(|i| doc(i, 0.1 + (i % 4) as f64 * 0.2));
        // Batch size 3 over 8 events: batches of 3, 3 and 2.
        let stats = batched.run_batched(docs(0, 8), 3);
        singles.run(docs(0, 8));
        assert_eq!(stats.events, 8);
        assert_eq!(stats.batches, 3);
        assert_eq!(stats.largest_batch, 3);
        assert_eq!(batched.current_results(qa), singles.current_results(qb));
        assert_eq!(batched.stats().expirations, singles.stats().expirations);
        // batch <= 1 degenerates to the per-event path exactly.
        let stats = batched.run_batched(docs(8, 10), 1);
        assert_eq!(stats.batches, 0);
        assert!(stats.max_event_time > Duration::ZERO);
    }

    fn sample_overload() -> OverloadStats {
        OverloadStats {
            offered: 10,
            accepted: 4,
            coalesced: 3,
            shed_deadline: 2,
            shed_queue_full: 1,
            retry_hints: 5,
            queue_high_water: 7,
            register_offered: 6,
            register_immediate: 2,
            register_coalesced: 4,
            register_retry_hints: 1,
            register_high_water: 3,
        }
    }

    #[test]
    fn overload_counters_survive_every_folding_path() {
        let overload = sample_overload();
        overload.check_accounting(0); // 10 == 4 + 3 + (2 + 1) + 0
        assert_eq!(overload.shed(), 3);

        // Path 1: absorb — counters add exactly, high waters take the max.
        let mut a = ProcessingStats {
            overload,
            ..ProcessingStats::default()
        };
        let mut other = overload;
        other.queue_high_water = 2;
        other.register_high_water = 9;
        let b = ProcessingStats {
            overload: other,
            ..ProcessingStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.overload.offered, 20);
        assert_eq!(a.overload.accepted, 8);
        assert_eq!(a.overload.coalesced, 6);
        assert_eq!(a.overload.shed(), 6);
        assert_eq!(a.overload.retry_hints, 10);
        assert_eq!(a.overload.queue_high_water, 7);
        assert_eq!(a.overload.register_offered, 12);
        assert_eq!(a.overload.register_high_water, 9);
        a.overload.check_accounting(0);

        // Path 2: event recording (record / record_batch) must leave the
        // admission-side counters untouched — recording a batch into an
        // accumulator that already carries overload counters may not zero
        // them.
        let snapshot = a.overload;
        a.record(&EventOutcome::default(), Duration::from_nanos(3));
        let outcomes = [EventOutcome::default(), EventOutcome::default()];
        a.record_batch(&outcomes, Duration::from_nanos(9), Duration::ZERO);
        assert_eq!(a.overload, snapshot);

        // Path 3: delta_since — counts subtract (saturating), high waters
        // stay cumulative like the timing maxima.
        let delta = a.delta_since(&b);
        assert_eq!(delta.overload.offered, 10);
        assert_eq!(delta.overload.accepted, 4);
        assert_eq!(delta.overload.coalesced, 3);
        assert_eq!(delta.overload.shed_deadline, 2);
        assert_eq!(delta.overload.register_coalesced, 4);
        assert_eq!(delta.overload.queue_high_water, 7);
        assert_eq!(delta.overload.register_high_water, 9);
    }

    #[test]
    #[should_panic(expected = "overload accounting violated")]
    fn accounting_check_catches_a_lost_event() {
        let mut overload = sample_overload();
        overload.accepted -= 1; // one event vanished from the ledger
        overload.check_accounting(0);
    }

    #[test]
    fn empty_stats_are_well_behaved() {
        let stats = ProcessingStats::default();
        assert_eq!(stats.mean_event_time(), Duration::ZERO);
        assert_eq!(stats.events_per_second(), 0.0);
        assert_eq!(stats.total_queries_touched(), 0);
    }

    #[test]
    fn monitor_passes_engine_calls_through() {
        let mut m = monitored();
        let q = m.register(ContinuousQuery::from_weights([(TermId(1), 1.0)], 1));
        assert_eq!(m.num_queries(), 1);
        m.process_document(doc(0, 0.5));
        assert_eq!(m.num_valid_documents(), 1);
        assert_eq!(m.clock(), Timestamp::ZERO.advance(Duration::ZERO));
        assert!(m.deregister(q));
        assert_eq!(m.engine().num_queries(), 0);
        let inner = m.into_inner();
        assert_eq!(inner.num_valid_documents(), 1);
    }
}
