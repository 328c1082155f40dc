//! Event-processing statistics.
//!
//! The paper's headline metric is *processing time per stream event*
//! (arrival plus the expirations it triggers). [`ProcessingStats`]
//! accumulates it, with the work counters of every [`EventOutcome`], at the
//! one place each figure is measured: a shard worker times each event it
//! processes, [`crate::StreamService`] times each burst it hands its engine,
//! and a bench harness times its own loop. [`OverloadStats`] is the
//! service's admission ledger, carried inside.

use std::time::Duration;

use crate::engine::EventOutcome;

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
/// shed()` once the queue has drained. Registrations are not counted:
/// every one runs at once ([`crate::StreamService::offer_register`]).
///
/// Embedded in [`ProcessingStats`] so overload counters ride through every
/// aggregation path ([`ProcessingStats::absorb`],
/// [`ProcessingStats::delta_since`]) instead of silently zeroing when stats
/// are folded across shards or batches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadStats {
    /// Events the ingest queue took ownership of: every offered event is
    /// enqueued or shed on the spot.
    pub offered: u64,
    /// Owned events processed as a burst of one (drained alone). Disjoint
    /// from `coalesced`.
    pub accepted: u64,
    /// Owned events processed as members of a
    /// [`crate::Engine::process_batch`] burst of two or more. Disjoint from
    /// `accepted`.
    pub coalesced: u64,
    /// Owned events dropped because their ingest deadline passed
    /// (oldest-first).
    pub shed_deadline: u64,
    /// Owned events displaced from a full queue to admit fresher arrivals
    /// (oldest-first).
    pub shed_queue_full: u64,
    /// Refusals with a retry hint. Always 0: an event offer is accepted or
    /// shed and a registration runs at once, so nothing is ever refused.
    /// Kept because `ctsbench` reports it.
    pub retry_hints: u64,
    /// Deepest the ingest queue has ever been (high-water mark; cumulative
    /// like the timing maxima).
    pub queue_high_water: u64,
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
    /// The most expensive single event recorded through
    /// [`ProcessingStats::record`]. A batch has no per-event split, so
    /// [`ProcessingStats::record_batch`] leaves this alone; whoever times
    /// the events one by one inside a batch (the sharded engine's workers,
    /// read through [`crate::ShardedItaEngine::shard_stats`]) holds that
    /// maximum. Whole-batch wall clock is tracked separately as
    /// [`ProcessingStats::max_batch_time`].
    pub max_event_time: Duration,
    /// Number of [`crate::Engine::process_batch`] calls recorded (singleton
    /// batches are recorded through the per-event path and do not count).
    pub batches: u64,
    /// Largest batch recorded, in events.
    pub largest_batch: u64,
    /// The most expensive single batch (whole-batch wall clock).
    pub max_batch_time: Duration,
    /// Admission-control counters when the events flowed through a bounded
    /// ingest queue ([`crate::StreamService`]); all-zero everywhere else.
    /// Carried through [`ProcessingStats::absorb`] and
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
    /// maximum; `max_event_time` is left alone.
    pub fn record_batch(&mut self, outcomes: &[EventOutcome], elapsed: Duration) {
        self.events += outcomes.len() as u64;
        for outcome in outcomes {
            self.expirations += outcome.expired as u64;
            self.queries_touched_by_arrival += outcome.queries_touched_by_arrival as u64;
            self.queries_touched_by_expiration += outcome.queries_touched_by_expiration as u64;
            self.results_changed += outcome.results_changed as u64;
        }
        self.total_time += elapsed;
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
    /// long-running service is in.
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
    /// multi-source aggregation (the sharded engine's per-worker stats).
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
        self.overload.absorb(&other.overload);
    }

    /// The change in counters since `earlier` (saturating; `earlier` should
    /// be a previous snapshot of the same accumulator).
    ///
    /// Note the wart this pattern carries: `max_event_time` is the
    /// *cumulative* maximum, not the interval's. Interval aggregation should
    /// prefer recording into a fresh accumulator and
    /// [`ProcessingStats::absorb`]ing it, which keeps every field exact.
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
            overload: self.overload.delta_since(&earlier.overload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::ita::{ItaConfig, ItaEngine};
    use crate::query::ContinuousQuery;
    use cts_index::{DocId, Document, SlidingWindow, Timestamp};
    use cts_text::{TermId, WeightedVector};

    fn doc(id: u64, weight: f64) -> Document {
        Document::new(
            DocId(id),
            Timestamp::from_millis(id),
            WeightedVector::from_weights([(TermId(1), weight)]),
        )
    }

    /// Five events through a two-document window, each recorded with a
    /// known duration: 10, 20, … 50 ns.
    fn five_recorded_events() -> Vec<ProcessingStats> {
        let mut engine = ItaEngine::new(SlidingWindow::count_based(2), ItaConfig::default());
        engine.register(ContinuousQuery::from_weights([(TermId(1), 1.0)], 1));
        let mut stats = ProcessingStats::default();
        let mut snapshots = Vec::new();
        for i in 0..5u64 {
            let outcome = engine.process_document(doc(i, 0.1 * (i + 1) as f64));
            stats.record(&outcome, Duration::from_nanos(10 * (i + 1)));
            snapshots.push(stats);
        }
        snapshots
    }

    #[test]
    fn events_are_counted_and_timed() {
        let stats = *five_recorded_events().last().expect("five events");
        assert_eq!(stats.events, 5);
        assert_eq!(stats.expirations, 3);
        assert_eq!(stats.total_time, Duration::from_nanos(150));
        assert_eq!(stats.max_event_time, Duration::from_nanos(50));
        assert_eq!(stats.mean_event_time(), Duration::from_nanos(30));
        assert!(stats.events_per_second() > 0.0);
        assert!(stats.queries_touched_by_arrival > 0);
        assert_eq!(stats.batches, 0);
    }

    #[test]
    fn delta_since_subtracts_counters() {
        let snapshots = five_recorded_events();
        let delta = snapshots[2].delta_since(&snapshots[0]);
        assert_eq!(delta.events, 2);
        assert_eq!(delta.expirations, 1);
        assert_eq!(delta.total_time, Duration::from_nanos(50));
        // The wart: the maximum stays cumulative, not the interval's.
        assert_eq!(delta.max_event_time, Duration::from_nanos(30));
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
            ..ProcessingStats::default()
        };
        let before = a;
        a.absorb(&b);
        let since = a.delta_since(&before);
        assert_eq!(
            (since.events, since.total_time),
            (5, Duration::from_nanos(11))
        );
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
        batched.record_batch(&outcomes, Duration::from_nanos(100));
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
        // A batch has no per-event split: the per-event maximum is left
        // alone …
        assert_eq!(batched.max_event_time, Duration::ZERO);
        // … and comes from whoever timed the events one by one.
        let mut merged = batched;
        let mut more = ProcessingStats::default();
        more.record_batch(&outcomes[..2], Duration::from_nanos(300));
        merged.absorb(&more);
        merged.absorb(&singles);
        assert_eq!(merged.batches, 2);
        assert_eq!(merged.largest_batch, 5);
        assert_eq!(merged.max_batch_time, Duration::from_nanos(300));
        assert_eq!(merged.max_event_time, Duration::from_nanos(20));
        assert_eq!(merged.events, 12);
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
        a.overload.check_accounting(0);

        // Path 2: event recording (record / record_batch) must leave the
        // admission-side counters untouched — recording a batch into an
        // accumulator that already carries overload counters may not zero
        // them.
        let snapshot = a.overload;
        a.record(&EventOutcome::default(), Duration::from_nanos(3));
        let outcomes = [EventOutcome::default(), EventOutcome::default()];
        a.record_batch(&outcomes, Duration::from_nanos(9));
        assert_eq!(a.overload, snapshot);

        // Path 3: delta_since — counts subtract (saturating), high waters
        // stay cumulative like the timing maxima.
        let delta = a.delta_since(&b);
        assert_eq!(delta.overload.offered, 10);
        assert_eq!(delta.overload.accepted, 4);
        assert_eq!(delta.overload.coalesced, 3);
        assert_eq!(delta.overload.shed_deadline, 2);
        assert_eq!(delta.overload.retry_hints, 5);
        assert_eq!(delta.overload.queue_high_water, 7);
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
}
