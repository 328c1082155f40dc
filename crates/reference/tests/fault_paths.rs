//! Coordinator error-path and lifecycle tests for the sharded engine: the
//! unglamorous edges the differential suites rarely pin down exactly —
//! unknown-query deregistration, typed `try_*` errors, empty batches,
//! duplicate document ids and id minting under interleaved churn.

use cts_core::{ContinuousQuery, Engine, EngineError, ItaConfig, ShardedItaEngine};
use cts_index::{DocId, Document, QueryId, SlidingWindow, Timestamp};
use cts_reference::{assert_engines_agree, BruteForceOracle};
use cts_text::{TermId, WeightedVector};

fn engine(shards: usize) -> ShardedItaEngine {
    ShardedItaEngine::new(SlidingWindow::count_based(8), ItaConfig::default(), shards)
}

fn doc(id: u64) -> Document {
    Document::new(
        DocId(id),
        Timestamp::from_millis(id),
        WeightedVector::from_weights([(TermId((id % 5) as u32), 0.1 + (id % 4) as f64 * 0.2)]),
    )
}

fn query(term: u32) -> ContinuousQuery {
    ContinuousQuery::from_weights([(TermId(term), 1.0)], 2)
}

#[test]
fn deregistering_an_unknown_query_is_false_not_fatal() {
    let mut sharded = engine(3);
    // Never registered.
    assert!(!sharded.deregister(QueryId(42)));
    // Registered then removed: the second removal is the unknown case too.
    let q = sharded.register(query(1));
    assert!(sharded.deregister(q));
    assert!(!sharded.deregister(q));
    // The typed path names the query.
    match sharded.try_deregister(q) {
        Err(EngineError::UnknownQuery(named)) => assert_eq!(named, q),
        other => panic!("expected UnknownQuery, got {other:?}"),
    }
    // The engine is fully usable afterwards.
    sharded.process_document(doc(0));
    assert_eq!(sharded.num_queries(), 0);
}

#[test]
fn empty_bursts_are_no_ops() {
    let mut sharded = engine(2);
    assert!(sharded.process_batch(Vec::new()).is_empty());
    assert!(sharded.register_batch(Vec::new()).is_empty());
    assert!(sharded
        .try_process_batch(Vec::new())
        .expect("empty batch is fine")
        .is_empty());
    assert!(sharded
        .try_register_batch(Vec::new())
        .expect("empty burst is fine")
        .is_empty());
    assert_eq!(sharded.aggregate_shard_stats().events, 0);
    assert_eq!(sharded.num_queries(), 0);
}

#[test]
fn minted_ids_stay_unique_across_interleaved_bursts_and_removals() {
    let mut sharded = engine(4);
    let mut seen = std::collections::HashSet::new();
    let mut live: Vec<QueryId> = Vec::new();
    for round in 0..10u32 {
        // A single registration, a burst, then a removal — the id counter
        // must never reuse an id, deregistered or not.
        let single = sharded.register(query(round % 6));
        assert!(seen.insert(single), "{single} minted twice");
        live.push(single);
        let burst = sharded.register_batch((0..3).map(|t| query((round + t) % 6)).collect());
        assert_eq!(burst.len(), 3);
        for qid in burst {
            assert!(seen.insert(qid), "{qid} minted twice");
            live.push(qid);
        }
        let victim = live.swap_remove((round as usize * 7) % live.len());
        assert!(sharded.deregister(victim));
        sharded.process_document(doc(round as u64));
    }
    assert_eq!(sharded.num_queries(), live.len());
    // Every live query is still served by its shard; a removed one by none.
    for q in (0..seen.len() as u32).map(QueryId) {
        let registered = live.contains(&q);
        assert_eq!(sharded.query_stats(q).is_some(), registered, "{q}");
        if !registered {
            assert!(
                sharded.current_results(q).is_empty(),
                "{q} outlived its removal"
            );
        }
    }
}

#[test]
fn duplicate_queries_in_one_burst_get_distinct_ids() {
    let mut sharded = engine(2);
    let same = query(1);
    let ids = sharded.register_batch(vec![same.clone(), same.clone(), same]);
    assert_eq!(ids.len(), 3);
    let unique: std::collections::HashSet<QueryId> = ids.iter().copied().collect();
    assert_eq!(
        unique.len(),
        3,
        "identical queries must still get fresh ids"
    );
    sharded.process_document(doc(0));
    // All three are independent registrations with identical results.
    assert_eq!(
        sharded.current_results(ids[0]),
        sharded.current_results(ids[1])
    );
    assert_eq!(
        sharded.current_results(ids[1]),
        sharded.current_results(ids[2])
    );
}

/// A duplicate id would panic in every shard and, once in the window, in
/// every rebuild — a fault no recovery repairs. The coordinator refuses it,
/// inside one burst or against the window, before any shard or the window
/// sees the burst: nothing faults, nothing moves, and an id that has left
/// the window is fresh again.
#[test]
fn a_duplicate_document_id_is_refused_before_any_shard_sees_it() {
    for shards in [1usize, 2, 4, 8] {
        let window = SlidingWindow::count_based(8);
        let mut sharded = engine(shards);
        let mut oracle = BruteForceOracle::new(window);
        let queries: Vec<QueryId> = (0..6)
            .map(|t| {
                let id = sharded.register(query(t % 5));
                assert_eq!(oracle.register(query(t % 5)), id);
                id
            })
            .collect();
        for i in 0..12u64 {
            sharded.process_document(doc(i));
            oracle.process_document(doc(i));
        }
        let faults = sharded.fault_stats();
        let events = sharded.aggregate_shard_stats().events;
        let clock = sharded.clock();
        for (burst, duplicate) in [
            (vec![doc(9)], 9),
            (vec![doc(20), doc(21), doc(20)], 20),
            (vec![doc(22), doc(23), doc(11)], 11),
        ] {
            assert_eq!(
                sharded.try_process_batch(burst),
                Err(EngineError::DuplicateDocument(DocId(duplicate))),
                "{shards} shards"
            );
        }
        assert_eq!(sharded.fault_stats(), faults, "{shards} shards");
        assert_eq!(faults.map(|stats| stats.degraded_shards), Some(0));
        assert_eq!(sharded.aggregate_shard_stats().events, events);
        assert_eq!((sharded.clock(), sharded.num_valid_documents()), (clock, 8));
        sharded.check_invariants();
        assert_engines_agree(&oracle, &sharded, &queries);
        // Ids 0 and 3 left the window long ago.
        for i in [12u64, 0, 13, 3] {
            sharded.process_document(doc(i));
            oracle.process_document(doc(i));
            assert_engines_agree(&oracle, &sharded, &queries);
        }
        sharded.check_invariants();
    }
}
