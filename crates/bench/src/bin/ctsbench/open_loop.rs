//! The open-loop schedule: events come due on a fixed wall-clock timetable
//! whether or not the system has caught up.
//!
//! Latency is counted from the instant an event was *due*, never from when
//! the driver got round to offering it: a stall in the system delays the
//! offers of the events that came due meanwhile, and counting from the offer
//! would hide exactly the wait the stall imposed on them. The driver is
//! generic over its clock and system so the accounting can be tested against
//! a fake pump that stalls on purpose.

/// A monotonic clock in nanoseconds.
pub trait Clock {
    fn now_ns(&mut self) -> u64;
}

pub struct WallClock(std::time::Instant);

impl WallClock {
    pub fn start() -> Self {
        WallClock(std::time::Instant::now())
    }
}

impl Clock for WallClock {
    fn now_ns(&mut self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// The system behind the schedule, addressed by event index.
pub trait OpenSystem {
    /// Prepares and offers event `index` (for the service: analyse, weigh,
    /// offer).
    fn offer(&mut self, index: usize);
    /// Events offered and not yet processed.
    fn depth(&self) -> usize;
    /// Runs one drain step; returns the indices whose results are ready
    /// when it returns, in processing order.
    fn pump(&mut self) -> Vec<usize>;
}

/// Offers the driver makes before it pumps again, so a backlog of due
/// events cannot starve the drain.
const OFFERS_PER_PUMP: usize = 256;

/// Per-event timings of one open-loop run, indexed like the schedule.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct OpenLoopRecord {
    /// Result-ready time minus due time.
    pub latency_ns: Vec<u64>,
    /// Start of the pump that processed the event minus its due time: the
    /// wait before the system even looked at it.
    pub queue_wait_ns: Vec<u64>,
    /// How late the generator itself ran: offer start minus the later of the
    /// due time and the moment the driver became free. Waiting behind a busy
    /// system is the system's latency, not generator lateness.
    pub lateness_ns: Vec<u64>,
    /// Duration of every pump, in order.
    pub pump_ns: Vec<u64>,
    /// Events each pump processed, parallel to `pump_ns`.
    pub pump_events: Vec<usize>,
}

impl OpenLoopRecord {
    /// Appends the record of a later slice of the same run.
    pub fn append(&mut self, later: OpenLoopRecord) {
        self.latency_ns.extend(later.latency_ns);
        self.queue_wait_ns.extend(later.queue_wait_ns);
        self.lateness_ns.extend(later.lateness_ns);
        self.pump_ns.extend(later.pump_ns);
        self.pump_events.extend(later.pump_events);
    }
}

/// Runs the schedule `due_ns` (ascending) to completion. Events the system
/// never reports as processed (shed) keep a latency of `u64::MAX`.
pub fn run(due_ns: &[u64], clock: &mut impl Clock, system: &mut impl OpenSystem) -> OpenLoopRecord {
    let n = due_ns.len();
    let mut record = OpenLoopRecord {
        latency_ns: vec![u64::MAX; n],
        queue_wait_ns: vec![u64::MAX; n],
        lateness_ns: vec![0; n],
        ..OpenLoopRecord::default()
    };
    let mut next = 0;
    let mut settled = 0;
    let mut free_at = clock.now_ns();
    while settled < n {
        let mut offered = 0;
        while next < n && offered < OFFERS_PER_PUMP {
            let now = clock.now_ns();
            if due_ns[next] > now {
                break;
            }
            record.lateness_ns[next] = now - due_ns[next].max(free_at);
            system.offer(next);
            free_at = clock.now_ns();
            next += 1;
            offered += 1;
        }
        if system.depth() > 0 {
            let start = clock.now_ns();
            let processed = system.pump();
            let ready = clock.now_ns();
            record.pump_ns.push(ready - start);
            record.pump_events.push(processed.len());
            for index in processed {
                record.queue_wait_ns[index] = start.saturating_sub(due_ns[index]);
                record.latency_ns[index] = ready - due_ns[index];
                settled += 1;
            }
            free_at = ready;
        } else if next == n {
            // Everything was offered and nothing is queued: whatever is
            // still unsettled was shed and will never be reported.
            break;
        } else {
            // Nothing queued and nothing due: spin on the clock until the
            // next due time. The driver is free the whole while.
            free_at = clock.now_ns();
        }
    }
    record
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::collections::VecDeque;
    use std::rc::Rc;

    const US: u64 = 1_000;
    const MS: u64 = 1_000_000;

    /// A clock that only moves when the fake system spends time, plus a
    /// small step per read so spinning makes progress.
    struct FakeClock(Rc<Cell<u64>>);

    impl Clock for FakeClock {
        fn now_ns(&mut self) -> u64 {
            self.0.set(self.0.get() + 100);
            self.0.get()
        }
    }

    /// Offers cost 10 µs, a pump processes one event in 100 µs — except the
    /// pump that processes event `stall_on`, which takes `stall_ns`.
    struct FakeSystem {
        time: Rc<Cell<u64>>,
        queue: VecDeque<usize>,
        stall_on: usize,
        stall_ns: u64,
    }

    impl OpenSystem for FakeSystem {
        fn offer(&mut self, index: usize) {
            self.time.set(self.time.get() + 10 * US);
            self.queue.push_back(index);
        }

        fn depth(&self) -> usize {
            self.queue.len()
        }

        fn pump(&mut self) -> Vec<usize> {
            let index = self.queue.pop_front().expect("pumped with a queue");
            let cost = if index == self.stall_on {
                self.stall_ns
            } else {
                100 * US
            };
            self.time.set(self.time.get() + cost);
            vec![index]
        }
    }

    fn run_fake(stall_ns: u64) -> (OpenLoopRecord, Vec<u64>) {
        let time = Rc::new(Cell::new(0));
        // 400 events, one due every 500 µs (2,000 events/s).
        let due: Vec<u64> = (1..=400).map(|i| i * 500 * US).collect();
        let mut system = FakeSystem {
            time: Rc::clone(&time),
            queue: VecDeque::new(),
            stall_on: 20,
            stall_ns,
        };
        let record = run(&due, &mut FakeClock(time), &mut system);
        (record, due)
    }

    #[test]
    fn latency_counts_from_the_due_time_across_a_stall() {
        let (record, _) = run_fake(50 * MS);
        // Before the stall: offer (10 µs) + pump (100 µs) + clock reads.
        for &latency in &record.latency_ns[..20] {
            assert!((110 * US..130 * US).contains(&latency), "{latency}");
        }
        // The stalled event itself takes the stall.
        assert!(record.latency_ns[20] >= 50 * MS);
        // Event 21 came due 500 µs into the 50 ms stall. Its *offer* only
        // happened after the stall, so offer-time accounting would report
        // ~110 µs; due-time accounting must report the ~49.5 ms it waited.
        assert!(record.latency_ns[21] > 49 * MS, "{}", record.latency_ns[21]);
        assert!(record.queue_wait_ns[21] > 49 * MS);
        // The backlog drains at 110 µs per event against 500 µs arrivals,
        // so latency decays and later events are unaffected again.
        assert!(record.latency_ns[40] < record.latency_ns[22]);
        assert!(
            record.latency_ns[399] < 130 * US,
            "{}",
            record.latency_ns[399]
        );
        // 100 events came due during the stall (50 ms / 500 µs) and the
        // backlog takes another ~14 ms of arrivals to drain.
        let delayed = record.latency_ns.iter().filter(|&&l| l > MS).count();
        assert!((100..=135).contains(&delayed), "{delayed}");
    }

    #[test]
    fn waiting_behind_the_system_is_not_generator_lateness() {
        let (record, _) = run_fake(50 * MS);
        // The generator itself is never late by more than its own clock
        // reads, even for events offered 49 ms after their due time.
        assert!(
            record.lateness_ns.iter().all(|&l| l < US),
            "{:?}",
            record.lateness_ns
        );
        assert_eq!(record.pump_ns.len(), 400);
        assert_eq!(record.pump_ns.iter().filter(|&&p| p >= 50 * MS).count(), 1);
    }

    #[test]
    fn without_a_stall_every_event_sees_the_service_time() {
        let (record, _) = run_fake(100 * US);
        assert!(record.latency_ns.iter().all(|&l| l < 130 * US));
        assert!(record.queue_wait_ns.iter().all(|&w| w < 20 * US));
    }

    #[test]
    fn shed_events_keep_the_sentinel_and_the_run_ends() {
        struct Shedding {
            queued: Vec<usize>,
        }
        impl OpenSystem for Shedding {
            fn offer(&mut self, index: usize) {
                if index.is_multiple_of(2) {
                    self.queued.push(index);
                }
            }
            fn depth(&self) -> usize {
                self.queued.len()
            }
            fn pump(&mut self) -> Vec<usize> {
                std::mem::take(&mut self.queued)
            }
        }
        let due: Vec<u64> = (0..10).map(|i| i * US).collect();
        let record = run(
            &due,
            &mut FakeClock(Rc::new(Cell::new(0))),
            &mut Shedding { queued: Vec::new() },
        );
        let lost = record.latency_ns.iter().filter(|&&l| l == u64::MAX).count();
        assert_eq!(lost, 5);
    }
}
