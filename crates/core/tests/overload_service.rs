//! Overload differential and degraded-admission tests for the bounded
//! [`StreamService`] front-end.
//!
//! The correctness contract under overload: the service may shed whatever
//! its bounds dictate, but the events it reports processed must produce
//! byte-identical results to feeding exactly that sequence to an unbounded
//! reference engine, across shard counts and fault policies — and admission
//! must stay explicit and deterministic (`Retry`/`Shed`, never a deadlock or
//! a silently dropped ack) even while a shard is degraded.

use cts_core::testkit::{run_overload_session, OverloadConfig, ScriptRng};
use cts_core::{
    Admission, ContinuousQuery, Engine, FaultPolicy, IngestEvent, ItaConfig, ItaEngine,
    RebalanceConfig, ServiceConfig, ShardedItaEngine, ShedReason, StreamService,
};
use cts_index::{DocId, Document, SlidingWindow, Timestamp};
use cts_text::{TermId, WeightedVector};

fn sharded(window: SlidingWindow, shards: usize, policy: FaultPolicy) -> ShardedItaEngine {
    ShardedItaEngine::with_faults(window, shards, RebalanceConfig::default(), policy)
}

/// Recovers a degraded candidate for [`run_overload_session`], counting the
/// degraded intervals it ended.
fn recover_into(intervals: &mut usize) -> impl FnMut(&mut ShardedItaEngine) + '_ {
    |engine| {
        *intervals += engine
            .recover_degraded()
            .expect("a degraded shard rebuilds");
    }
}

fn doc(id: u64, millis: u64, weight: f64) -> Document {
    Document::new(
        DocId(id),
        Timestamp::from_millis(millis),
        WeightedVector::from_weights([(TermId((id % 4) as u32), weight)]),
    )
}

fn query(term: u32) -> ContinuousQuery {
    ContinuousQuery::from_weights([(TermId(term), 1.0)], 2)
}

#[test]
fn overload_lockstep_holds_across_shards_and_policies() {
    let window = SlidingWindow::count_based(32);
    let config = OverloadConfig {
        bursts: 25,
        inject_fault_probability: 0.05,
        ..OverloadConfig::default()
    };
    let mut degraded_intervals = 0;
    for shards in [1usize, 2, 4, 8] {
        for policy in [FaultPolicy::BlockUntilRecovered, FaultPolicy::ServeDegraded] {
            let candidate = sharded(window, shards, policy);
            let mut reference = ItaEngine::new(window, ItaConfig::default());
            let mut intervals = 0;
            let overload = run_overload_session(
                candidate,
                &mut reference,
                &config,
                0x0BAD_0001 + shards as u64,
                recover_into(&mut intervals),
            );
            assert!(
                overload.shed() > 0,
                "{shards} shards / {policy:?}: bursty session never shed"
            );
            if policy == FaultPolicy::BlockUntilRecovered {
                assert_eq!(intervals, 0, "{shards} shards: a blocking engine degraded");
            }
            degraded_intervals += intervals;
        }
    }
    // Under ServeDegraded an injected fault leaves its shard down until the
    // session recovers it, and the session still ended byte-exact.
    assert!(degraded_intervals > 0, "no session served a degraded round");
}

/// The acceptance burst: arrival rate 10× the drain budget at the
/// 1,000-query/10k-window point, across shard counts and both fault
/// policies. Release-only (run by the soak job via `--ignored`).
#[test]
#[ignore = "acceptance-scale overload soak; run with --release -- --ignored"]
fn ten_x_burst_stays_live_and_exact_at_paper_scale() {
    let window = SlidingWindow::count_based(10_000);
    let config = OverloadConfig::ten_x();
    let mut rng = ScriptRng::new(0x0BAD_5CA1);
    let upfront: Vec<ContinuousQuery> = (0..1_000)
        .map(|_| {
            let terms = rng.range(1, 4);
            let weights: Vec<(TermId, f64)> = (0..terms)
                .map(|_| {
                    (
                        TermId(rng.below(24) as u32),
                        0.1 + rng.below(8) as f64 * 0.1,
                    )
                })
                .collect();
            ContinuousQuery::from_weights(weights, rng.range(1, 4))
        })
        .collect();
    for shards in [1usize, 2, 4, 8] {
        for policy in [FaultPolicy::BlockUntilRecovered, FaultPolicy::ServeDegraded] {
            let mut candidate = sharded(window, shards, policy);
            let mut reference = ItaEngine::new(window, ItaConfig::default());
            let ids = candidate.register_batch(upfront.clone());
            assert_eq!(ids, reference.register_batch(upfront.clone()));
            let mut intervals = 0;
            let overload = run_overload_session(
                candidate,
                &mut reference,
                &config,
                0x0BAD_0100 + shards as u64,
                recover_into(&mut intervals),
            );
            // 10× overload must actually shed, and the ledger must settle
            // exactly (run_overload_session asserts the identity and the
            // byte-identical results; this pins the profile's shape).
            assert!(
                overload.shed() > overload.offered / 2,
                "{shards} shards / {policy:?}: a 10x profile should shed most \
                 of its offers, got {overload:?}"
            );
        }
    }
}

#[test]
fn serve_degraded_with_a_full_queue_refuses_deterministically() {
    let window = SlidingWindow::count_based(16);
    let mut config = ServiceConfig::bounded(8);
    // Backpressure exactly at capacity: a degraded engine with a full queue
    // must refuse every further offer the same way.
    config.backpressure_watermark = config.queue_capacity;
    let mut service = StreamService::new(
        sharded(window, 2, FaultPolicy::ServeDegraded),
        config.clone(),
    );
    let q = service
        .offer_register(query(0))
        .1
        .expect("immediate registration under no pressure");
    // Degrade shard 0 and let an op discover the dead worker.
    assert!(service.engine_mut().inject_disconnect(0));
    service.offer_document(doc(0, 0, 0.5));
    service.pump(Timestamp::from_millis(1));
    assert!(
        service
            .engine()
            .fault_stats()
            .is_some_and(|faults| faults.degraded_shards > 0),
        "disconnect was not discovered"
    );
    // Fill the queue to capacity: every offer below the watermark is an
    // explicit Accepted ack.
    for i in 1..=config.queue_capacity as u64 {
        assert_eq!(service.offer_document(doc(i, i, 0.5)), Admission::Accepted);
    }
    assert_eq!(service.depth(), config.queue_capacity);
    // Full queue × degraded shard: deterministic Retry, no deadlock, depth
    // frozen, accounting exact — for as long as the caller keeps offering.
    for i in 0..20u64 {
        let admission = service.offer_document(doc(100 + i, 100 + i, 0.5));
        assert_eq!(
            admission,
            Admission::Retry {
                after: config.retry_after
            },
            "offer {i} while degraded+full was not a deterministic Retry"
        );
        assert_eq!(service.depth(), config.queue_capacity);
        service.check_accounting();
    }
    // The queue still drains under ServeDegraded (healthy shards serve)…
    let report = service.pump(Timestamp::from_millis(200));
    assert_eq!(report.processed.len(), config.queue_capacity);
    assert_eq!(service.depth(), 0);
    // …results for queries on healthy shards remain served…
    let _ = service.results(q);
    // …and explicit recovery restores normal admission.
    service
        .engine_mut()
        .recover_degraded()
        .expect("resurrection succeeds");
    assert_eq!(
        service.offer_document(doc(500, 500, 0.5)),
        Admission::Accepted
    );
}

#[test]
fn block_until_recovered_does_not_block_the_shed_path() {
    let window = SlidingWindow::count_based(16);
    let mut service = StreamService::new(
        sharded(window, 2, FaultPolicy::BlockUntilRecovered),
        ServiceConfig::bounded(8),
    );
    let q = service
        .offer_register(query(0))
        .1
        .expect("immediate registration");
    let mut reference = ItaEngine::new(window, ItaConfig::default());
    let rq = reference.register(query(0));
    assert_eq!(q, rq);
    // Kill a worker. BlockUntilRecovered repairs it at the next *engine*
    // op — but offers never touch the engine, so admission (including
    // shedding) keeps answering instantly while the shard is down.
    assert!(service.engine_mut().inject_disconnect(0));
    // An offer whose deadline already passed is shed at offer time, with an
    // explicit ack and no engine call (nothing here can block on recovery).
    service.offer_document(doc(0, 100, 0.5)); // advances the logical clock
    let stale = IngestEvent::with_deadline(doc(1, 40, 0.5), Timestamp::from_millis(60));
    assert_eq!(
        service.offer(stale),
        Admission::Shed(ShedReason::DeadlineExpired)
    );
    service.check_accounting();
    // The pump is where BlockUntilRecovered pays the rebuild, and the
    // drained events still match the unbounded reference exactly.
    let report = service.pump(Timestamp::from_millis(100));
    assert_eq!(report.processed, vec![DocId(0)]);
    assert_eq!(report.shed, vec![(DocId(1), ShedReason::DeadlineExpired)]);
    reference.process_document(doc(0, 100, 0.5));
    assert_eq!(service.results(q), reference.current_results(rq));
    assert!(
        service
            .engine()
            .fault_stats()
            .is_some_and(|faults| faults.degraded_shards == 0),
        "BlockUntilRecovered left a degraded shard behind"
    );
}

#[test]
fn retry_refusals_are_never_counted_as_owned() {
    let window = SlidingWindow::count_based(16);
    let mut config = ServiceConfig::bounded(4);
    config.backpressure_watermark = 2;
    let mut service = StreamService::new(sharded(window, 2, FaultPolicy::ServeDegraded), config);
    assert!(service.engine_mut().inject_disconnect(1));
    service.offer_document(doc(0, 0, 0.5));
    service.pump(Timestamp::from_millis(1));
    service.offer_document(doc(1, 1, 0.5));
    service.offer_document(doc(2, 2, 0.5));
    let offered_before = service.overload_stats().offered;
    for i in 3..10u64 {
        assert!(service.offer_document(doc(i, i, 0.5)).is_retry());
    }
    let overload = service.overload_stats();
    assert_eq!(
        overload.offered, offered_before,
        "Retry refusals must not enter the offered ledger"
    );
    assert_eq!(overload.retry_hints, 7);
    service.check_accounting();
    // A retried registration is refused the same way, hint counted apart.
    let (admission, id) = service.offer_register(query(1));
    assert!(admission.is_retry());
    assert!(id.is_none());
    assert_eq!(service.overload_stats().register_retry_hints, 1);
}
