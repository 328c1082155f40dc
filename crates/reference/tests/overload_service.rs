//! Overload differential and fault-admission tests for the bounded
//! [`StreamService`] front-end.
//!
//! The correctness contract under overload: the service may shed whatever
//! its bounds dictate, but the events it reports processed must produce
//! byte-identical results to feeding exactly that sequence to an unbounded
//! reference engine, across shard counts and through shard faults — and
//! admission must stay explicit (`Accepted`/`Shed`, never a deadlock or a
//! silently dropped ack) even while a shard is lost.

use cts_core::{
    Admission, ContinuousQuery, Engine, IngestEvent, ItaConfig, ItaEngine, ServiceConfig,
    ShardedItaEngine, ShedReason, StreamService,
};
use cts_corpus::ScriptRng;
use cts_index::{DocId, Document, SlidingWindow, Timestamp};
use cts_reference::testkit::{run_overload_session, OverloadConfig};
use cts_text::{TermId, WeightedVector};

fn sharded(window: SlidingWindow, shards: usize) -> ShardedItaEngine {
    ShardedItaEngine::new(window, ItaConfig::default(), shards)
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
    let mut faults = 0;
    for shards in [1usize, 2, 4, 8] {
        let mut candidate = sharded(window, shards);
        let mut reference = ItaEngine::new(window, ItaConfig::default());
        let overload = run_overload_session(
            &mut candidate,
            &mut reference,
            &config,
            0x0BAD_0001 + shards as u64,
        );
        assert!(
            overload.shed() > 0,
            "{shards} shards: bursty session never shed"
        );
        let stats = candidate
            .fault_stats()
            .expect("sharded engines track faults");
        assert_eq!(
            stats.recoveries, stats.faults,
            "{shards} shards: a fault was not rebuilt"
        );
        faults += stats.faults;
    }
    // The session asserted after every pump that no shard was left degraded;
    // this makes sure some pump had a fault to rebuild.
    assert!(faults > 0, "no session saw a fault");
}

/// The acceptance burst: arrival rate 10× the drain budget at the
/// 1,000-query/10k-window point, across shard counts, with injected faults.
/// Release-only (run by the `overload` tier of `scripts/verify.sh`).
#[test]
#[ignore = "acceptance-scale overload soak; run via scripts/verify.sh overload"]
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
        let mut candidate = sharded(window, shards);
        let mut reference = ItaEngine::new(window, ItaConfig::default());
        let ids = candidate.register_batch(upfront.clone());
        assert_eq!(ids, reference.register_batch(upfront.clone()));
        let overload = run_overload_session(
            candidate,
            &mut reference,
            &config,
            0x0BAD_0100 + shards as u64,
        );
        // 10× overload must actually shed, and the ledger must settle
        // exactly (run_overload_session asserts the identity and the
        // byte-identical results; this pins the profile's shape).
        assert!(
            overload.shed() > overload.offered / 2,
            "{shards} shards: a 10x profile should shed most of its offers, \
             got {overload:?}"
        );
    }
}

#[test]
fn a_dead_worker_does_not_block_the_shed_path() {
    let window = SlidingWindow::count_based(16);
    let mut service = StreamService::new(sharded(window, 2), ServiceConfig::bounded(8));
    let q = service
        .offer_register(query(0))
        .1
        .expect("immediate registration");
    let mut reference = ItaEngine::new(window, ItaConfig::default());
    let rq = reference.register(query(0));
    assert_eq!(q, rq);
    // Lose a shard. The engine rebuilds it at its next mutating call — but
    // offers never touch the engine, so admission (including shedding)
    // keeps answering instantly while the shard is down.
    assert!(service.engine_mut().inject_loss(0));
    // An offer whose deadline already passed is shed at offer time, with an
    // explicit ack and no engine call (nothing here can block on recovery).
    service.offer_document(doc(0, 100, 0.5)); // advances the logical clock
    let stale = IngestEvent::with_deadline(doc(1, 40, 0.5), Timestamp::from_millis(60));
    assert_eq!(
        service.offer(stale),
        Admission::Shed(ShedReason::DeadlineExpired)
    );
    service.check_accounting();
    // The pump is where the rebuild is paid, and the drained events still
    // match the unbounded reference exactly.
    let report = service.pump(Timestamp::from_millis(100));
    assert_eq!(report.processed, vec![DocId(0)]);
    assert_eq!(report.shed, vec![(DocId(1), ShedReason::DeadlineExpired)]);
    reference.process_document(doc(0, 100, 0.5));
    assert_eq!(service.results(q), reference.current_results(rq));
    let faults = service.engine().fault_stats().expect("tracked");
    assert_eq!(
        (faults.faults, faults.recoveries, faults.degraded_shards),
        (1, 1, 0),
        "the pump left the dead worker unrebuilt"
    );
    assert_eq!(service.overload_stats().retry_hints, 0);
}
