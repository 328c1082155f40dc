//! The fault-injection differential axis: a fault-tolerant
//! [`ShardedItaEngine`] must stay in lockstep with a fault-free
//! single-shard [`ItaEngine`] *through* injected worker panics, poison
//! documents and killed worker threads, across shard counts {1, 2, 4, 8}.
//!
//! There is one recovery path (DESIGN.md §10): a faulted shard is rebuilt as
//! a registration of its queries over the coordinator's window mirror. ITA's
//! reported top-k is a function of (window contents, registered queries), so
//! results are exact throughout. Its thresholds are history-dependent — a
//! query registered mid-stream carries thresholds derived from documents
//! that have since expired — so a rebuilt shard's work counters, and the
//! event outcomes built from them, may differ from a fault-free history.
//! The suites therefore compare outcomes up to the first fault and results
//! always; `a_rebuild_keeps_results_exact_while_counters_may_differ` states
//! that contract on the engine itself.

use std::time::Duration;

use cts_core::testkit::{
    assert_script_equivalence, generate_script, run_script, Op, RunOptions, ScriptConfig, ScriptRng,
};
use cts_core::validate::assert_engines_agree;
use cts_core::{
    BruteForceOracle, ContinuousQuery, Engine, FaultPolicy, ItaConfig, ItaEngine, RebalanceConfig,
    ShardedItaEngine,
};
use cts_index::{DocId, Document, QueryId, SlidingWindow, Timestamp, WindowTerms};
use cts_text::{TermId, WeightedVector};

fn faulty(window: SlidingWindow, shards: usize, policy: FaultPolicy) -> ShardedItaEngine {
    ShardedItaEngine::with_faults(window, shards, RebalanceConfig::default(), policy)
}

fn faults(sharded: &ShardedItaEngine) -> u64 {
    sharded
        .fault_stats()
        .expect("sharded engines track faults")
        .faults
}

/// Feeds `doc` to both engines: outcomes must agree until the sharded
/// engine's first fault, results on `queries` always.
fn assert_exact_event(
    reference: &mut impl Engine,
    sharded: &mut ShardedItaEngine,
    doc: &Document,
    queries: &[QueryId],
) {
    let expected = reference.process_document(doc.clone());
    let actual = sharded.process_document(doc.clone());
    if faults(sharded) == 0 {
        assert_eq!(
            expected, actual,
            "outcomes diverged on {} before any fault",
            doc.id
        );
    }
    assert_engines_agree(&*reference, &*sharded, queries);
}

/// Runs a chaos-storm script over (reference, sharded-with-faults) and
/// asserts lockstep held *and* that the script actually made the sharded
/// engine fault and recover — a chaos suite that never faults tests
/// nothing.
fn assert_chaos_lockstep(shards: usize, seed: u64) {
    let window = SlidingWindow::count_based(30);
    let config = ScriptConfig {
        events: 160,
        ..ScriptConfig::chaos_storm()
    };
    let script = generate_script(&config, seed);
    let injections = script
        .ops
        .iter()
        .filter(|op| matches!(op, Op::InjectFault { .. }))
        .count();
    assert!(injections > 0, "seed {seed:#x} armed no faults");
    let mut reference = ItaEngine::new(window, ItaConfig::default());
    let mut sharded = faulty(window, shards, FaultPolicy::default());
    {
        let mut engines: Vec<Box<dyn Engine>> = vec![
            Box::new(&mut reference) as Box<dyn Engine>,
            Box::new(&mut sharded),
        ];
        if let Err(failure) = run_script(&mut engines, &script, &RunOptions::default()) {
            panic!("chaos lockstep broke (shards {shards}, seed {seed:#x})\n  {failure}\n{script}");
        }
    }
    let stats = sharded.fault_stats().expect("sharded engines track faults");
    assert!(
        stats.faults > 0,
        "shards {shards}, seed {seed:#x}: chaos script caused no faults"
    );
    assert_eq!(
        stats.recoveries, stats.faults,
        "shards {shards}, seed {seed:#x}: a fault was not rebuilt"
    );
    assert!(stats.recovery_micros > 0);
    assert_eq!(
        stats.degraded_shards, 0,
        "shards {shards}, seed {seed:#x}: run ended with degraded shards under BlockUntilRecovered"
    );
}

#[test]
fn chaos_storm_locksteps_across_shard_counts() {
    for shards in [1usize, 2, 4, 8] {
        assert_chaos_lockstep(shards, 0xC4A0_0000 + shards as u64);
    }
}

/// The chaos shape with the registration-burst knobs turned up: every burst
/// brings a batch of terms live mid-stream — lists filed from postings the
/// coordinator shipped — and the elevated fault rate rebuilds each shard
/// several times per script from postings resolved the same way. Run with
/// `--features invariant-checks`, every op is followed by every engine's
/// structural audit, the complete-lists one included.
#[test]
fn registration_bursts_survive_cold_rebuilds_across_shard_counts() {
    let config = ScriptConfig {
        events: 220,
        burst_register_probability: 0.18,
        max_burst_registers: 10,
        ..ScriptConfig::chaos_storm()
    };
    for shards in [1usize, 2, 4, 8] {
        let window = SlidingWindow::count_based(24);
        assert_script_equivalence(
            &|| -> Vec<Box<dyn Engine>> {
                vec![
                    Box::new(ItaEngine::new(window, ItaConfig::default())),
                    Box::new(ShardedItaEngine::new(window, ItaConfig::default(), shards)),
                ]
            },
            &config,
            0x5EED_7000 + shards as u64,
        );
    }
}

fn tie_heavy_doc(rng: &mut ScriptRng, id: u64) -> Document {
    let palette = [0.1, 0.2, 0.2, 0.4, 0.7];
    let terms = rng.range(1, 5);
    let weights: Vec<(TermId, f64)> = (0..terms)
        .map(|_| (TermId(rng.below(12) as u32), *rng.pick(&palette)))
        .collect();
    Document::new(
        DocId(id),
        Timestamp::from_millis(id),
        WeightedVector::from_weights(weights),
    )
}

fn small_query(rng: &mut ScriptRng) -> ContinuousQuery {
    ContinuousQuery::from_weights(
        [
            (TermId(rng.below(12) as u32), 0.6),
            (TermId(rng.below(12) as u32), 0.4),
        ],
        rng.range(1, 4),
    )
}

/// Right after a resurrection a rebuilt shard is "these queries registered
/// over this window" and nothing else: no rebuilt query has examined an
/// arrival or an expiration, no shard read its own store (the rebuild ships
/// its postings), and results are the oracle's — under the blocking policy
/// (rebuilt inside the faulting event) and after an explicit recovery.
#[test]
fn a_rebuilt_shard_is_a_registration_over_the_mirror() {
    for policy in [FaultPolicy::BlockUntilRecovered, FaultPolicy::ServeDegraded] {
        for shards in [1usize, 2, 4, 8] {
            let window = SlidingWindow::count_based(20);
            let mut rng = ScriptRng::new(0x4E61_0000 + shards as u64);
            let mut oracle = BruteForceOracle::new(window);
            let mut sharded = faulty(window, shards, policy);
            let mut qids: Vec<QueryId> = Vec::new();
            let mut register = |oracle: &mut BruteForceOracle, sharded: &mut ShardedItaEngine| {
                let query = small_query(&mut rng);
                let qid = oracle.register(query.clone());
                assert_eq!(sharded.register(query), qid);
                qids.push(qid);
            };
            for _ in 0..8 {
                register(&mut oracle, &mut sharded);
            }
            let mut doc_rng = ScriptRng::new(0x4E61_1000 + shards as u64);
            let mut feed = |oracle: &mut BruteForceOracle, sharded: &mut ShardedItaEngine, id| {
                let doc = tie_heavy_doc(&mut doc_rng, id);
                oracle.process_document(doc.clone());
                sharded.process_document(doc);
            };
            for id in 0..30 {
                feed(&mut oracle, &mut sharded, id);
                if id % 10 == 5 {
                    // Registered mid-stream, so its thresholds carry history.
                    register(&mut oracle, &mut sharded);
                }
            }
            for shard in 0..shards {
                assert!(sharded.inject_fault(shard));
            }
            feed(&mut oracle, &mut sharded, 30);
            if policy == FaultPolicy::ServeDegraded {
                feed(&mut oracle, &mut sharded, 31);
                assert_eq!(sharded.recover_degraded(), Ok(shards));
            }
            let stats = sharded.fault_stats().expect("tracked");
            let context = format!("{policy:?}, {shards} shards");
            assert_eq!(
                (stats.faults, stats.recoveries, stats.degraded_shards),
                (shards as u64, shards as u64, 0),
                "{context}"
            );
            for &q in &qids {
                let rebuilt = sharded.query_stats(q).expect("registered");
                assert_eq!(
                    (
                        rebuilt.arrivals_examined,
                        rebuilt.expirations_examined,
                        rebuilt.refills
                    ),
                    (0, 0, 0),
                    "{context}: {q} was rebuilt by replaying the window"
                );
            }
            for index in sharded.shard_index_stats() {
                assert_eq!(index.register_entries_walked, 0, "{context}");
                assert_eq!(index.documents, 20, "{context}");
            }
            assert_engines_agree(&oracle, &sharded, &qids);
            sharded.check_invariants();
            // And the rebuilt shards keep the results exact.
            for id in 32..60 {
                feed(&mut oracle, &mut sharded, id);
                assert_engines_agree(&oracle, &sharded, &qids);
            }
        }
    }
}

/// A fault right after a rebuild: a killed worker is found by the next
/// event, respawned and rebuilt, and the event after that faults in the
/// freshly rebuilt worker, which is rebuilt again. Results are compared
/// after every event.
#[test]
fn fault_right_after_a_rebuild_rebuilds_again_exactly() {
    let window = SlidingWindow::count_based(10);
    let mut rng = ScriptRng::new(0xC01D_0000);
    let mut reference = ItaEngine::new(window, ItaConfig::default());
    let mut sharded = faulty(window, 2, FaultPolicy::default());
    let qids: Vec<QueryId> = (0..6)
        .map(|_| {
            let query = small_query(&mut rng);
            let qid = reference.register(query.clone());
            assert_eq!(qid, sharded.register(query));
            qid
        })
        .collect();
    let mut feed = |reference: &mut ItaEngine, sharded: &mut ShardedItaEngine, id: u64| {
        let doc = tie_heavy_doc(&mut rng, id);
        assert_exact_event(reference, sharded, &doc, &qids);
        sharded.check_invariants();
    };
    let mut id = 0u64;
    let mut armed = 0u64;
    for round in 0..4usize {
        for _ in 0..7 + round {
            feed(&mut reference, &mut sharded, id);
            id += 1;
        }
        let shard = round % 2;
        assert!(sharded.inject_disconnect(shard));
        // This event finds the worker gone and rebuilds the shard…
        feed(&mut reference, &mut sharded, id);
        id += 1;
        // …and the next one faults in the freshly rebuilt worker.
        assert!(sharded.inject_fault(shard), "rebuilt shard refused arming");
        armed += 1;
        feed(&mut reference, &mut sharded, id);
        id += 1;
    }
    let stats = sharded.fault_stats().expect("tracked");
    assert_eq!(
        stats.faults,
        armed + 4,
        "4 disconnects plus the armed faults"
    );
    assert_eq!(stats.recoveries, stats.faults);
    assert_eq!(stats.degraded_shards, 0);
}

/// A fault right after the rebalancer moved queries: the destination shard
/// faults on the event after its `Install`, and its rebuild registers the
/// migrated query from the registry with postings the coordinator resolves —
/// no shard, rebuilt or not, reads its own store.
#[test]
fn fault_right_after_a_migration_rebuilds_the_installed_query() {
    let shards = 4;
    let window = SlidingWindow::count_based(12);
    let mut rng = ScriptRng::new(0x316A_0000);
    let mut reference = ItaEngine::new(window, ItaConfig::default());
    let mut sharded = faulty(window, shards, FaultPolicy::default());
    let qids: Vec<QueryId> = (0..24)
        .map(|_| {
            let query = small_query(&mut rng);
            let qid = reference.register(query.clone());
            assert_eq!(qid, sharded.register(query));
            qid
        })
        .collect();
    let mut id = 0u64;
    for _ in 0..30 {
        let doc = tie_heavy_doc(&mut rng, id);
        assert_exact_event(&mut reference, &mut sharded, &doc, &qids);
        id += 1;
    }
    // Concentrate the survivors on shard 0: every deregistration that tips
    // the balance makes the rebalancer migrate — and right after each
    // migration every shard faults on the next event.
    let survivors: Vec<QueryId> = qids
        .iter()
        .copied()
        .filter(|&q| sharded.shard_of(q) == 0)
        .collect();
    assert!(survivors.len() >= 2, "need at least two survivors");
    let mut live = qids.clone();
    let mut armed = 0u64;
    let mut migrations = 0;
    for &q in &qids {
        if survivors.contains(&q) {
            continue;
        }
        assert!(sharded.deregister(q) && reference.deregister(q));
        live.retain(|&other| other != q);
        if sharded.migrations() > migrations {
            migrations = sharded.migrations();
            for shard in 0..shards {
                assert!(sharded.inject_fault(shard));
                armed += 1;
            }
            let doc = tie_heavy_doc(&mut rng, id);
            assert_exact_event(&mut reference, &mut sharded, &doc, &live);
            sharded.check_invariants();
            id += 1;
        }
    }
    assert!(migrations > 0, "nothing migrated");
    let index = sharded.shard_index_stats();
    assert!(
        index.iter().all(|shard| shard.register_entries_walked == 0),
        "a shard walked its store: {index:?}"
    );
    assert!(
        index
            .iter()
            .any(|shard| shard.register_postings_touched > 0),
        "no rebuild filed a posting"
    );
    // The migrated queries keep living exactly, through one more round of
    // faults.
    for step in 0..30 {
        if step == 10 {
            for shard in 0..shards {
                assert!(sharded.inject_fault(shard));
                armed += 1;
            }
        }
        let doc = tie_heavy_doc(&mut rng, id);
        assert_exact_event(&mut reference, &mut sharded, &doc, &live);
        id += 1;
    }
    sharded.check_invariants();
    let stats = sharded.fault_stats().expect("tracked");
    assert_eq!(stats.faults, armed);
    assert_eq!(stats.recoveries, armed);
    assert_eq!(stats.degraded_shards, 0);
}

/// A fault on the event right after a registration burst: the burst brought
/// terms live mid-stream from postings the coordinator shipped, and the
/// rebuild ships them again — the rebuilt shard never reads its store. A
/// registration is a function of the window and the query, so the burst's
/// initial bookkeeping matches the reference's even on shards rebuilt
/// before it.
#[test]
fn fault_right_after_a_registration_burst_replays_the_shipped_postings() {
    let shards = 2;
    let window = SlidingWindow::count_based(14);
    let mut rng = ScriptRng::new(0x5EA1_0000);
    let mut reference = ItaEngine::new(window, ItaConfig::default());
    let mut sharded = faulty(window, shards, FaultPolicy::default());
    let mut live: Vec<QueryId> = Vec::new();
    let mut id = 0u64;
    let mut armed = 0u64;
    for round in 0..12 {
        for _ in 0..rng.range(1, 6) {
            let doc = tie_heavy_doc(&mut rng, id);
            assert_exact_event(&mut reference, &mut sharded, &doc, &live);
            id += 1;
        }
        // Terms die and come back live: the oldest burst leaves.
        if round >= 3 {
            for q in live.drain(..3) {
                assert!(reference.deregister(q) && sharded.deregister(q));
            }
        }
        let burst: Vec<ContinuousQuery> = (0..3).map(|_| small_query(&mut rng)).collect();
        let ids = reference.register_batch(burst.clone());
        assert_eq!(ids, sharded.register_batch(burst));
        for &q in &ids {
            assert_eq!(reference.current_results(q), sharded.current_results(q));
            assert_eq!(reference.query_stats(q), sharded.query_stats(q));
        }
        live.extend(ids);
        for shard in 0..shards {
            assert!(sharded.inject_fault(shard));
            armed += 1;
        }
        let doc = tie_heavy_doc(&mut rng, id);
        assert_exact_event(&mut reference, &mut sharded, &doc, &live);
        id += 1;
        sharded.check_invariants();
        assert!(sharded
            .shard_index_stats()
            .iter()
            .all(|shard| shard.register_entries_walked == 0));
    }
    let stats = sharded.fault_stats().expect("tracked");
    assert_eq!(stats.faults, armed, "a fault never fired");
    assert_eq!(stats.recoveries, armed, "a fault was not rebuilt");
    assert_eq!(stats.degraded_shards, 0);
    let resolved = sharded.window_terms_stats();
    assert!(
        resolved.postings_from_walks + resolved.postings_from_directories > 0,
        "no registration shipped a posting"
    );
}

/// Under [`FaultPolicy::ServeDegraded`] a registration whose hash shard is
/// down goes to the healthy shard, with postings resolved against the
/// mirror — which kept sliding while the shard was gone — so the new
/// queries answer exactly at once, and still do after the dead shard is
/// rebuilt.
#[test]
fn serve_degraded_registration_is_rerouted_with_postings_from_the_mirror() {
    let window = SlidingWindow::count_based(12);
    let mut rng = ScriptRng::new(0x5EA1_0100);
    let mut reference = ItaEngine::new(window, ItaConfig::default());
    let mut sharded = faulty(window, 2, FaultPolicy::ServeDegraded);
    let mut qids = Vec::new();
    for _ in 0..4 {
        let query = small_query(&mut rng);
        let qid = reference.register(query.clone());
        assert_eq!(qid, sharded.register(query));
        qids.push(qid);
    }
    let mut id = 0u64;
    let mut feed = |reference: &mut ItaEngine, sharded: &mut ShardedItaEngine, events: usize| {
        for _ in 0..events {
            let doc = tie_heavy_doc(&mut rng, id);
            reference.process_document(doc.clone());
            sharded.process_document(doc);
            id += 1;
        }
    };
    feed(&mut reference, &mut sharded, 10);
    assert!(sharded.inject_fault(0));
    // The window slides on while shard 0 is down.
    feed(&mut reference, &mut sharded, 9);
    assert_eq!(sharded.fault_stats().expect("tracked").degraded_shards, 1);
    let before = sharded.window_terms_stats();
    let burst: Vec<ContinuousQuery> = (0..6)
        .map(|t| {
            ContinuousQuery::from_weights(
                [(TermId(t), 0.7), (TermId(11 - t), 0.3)],
                1 + t as usize % 3,
            )
        })
        .collect();
    let late = reference.register_batch(burst.clone());
    assert_eq!(late, sharded.register_batch(burst));
    let after = sharded.window_terms_stats();
    assert!(
        after.postings_from_walks + after.postings_from_directories
            > before.postings_from_walks + before.postings_from_directories,
        "the rerouted registration resolved nothing"
    );
    assert!(
        late.iter().any(|&q| sharded.shard_of(q) == 0),
        "no late query hashed to the dead shard"
    );
    for &q in &late {
        assert_eq!(sharded.assigned_shard(q), Some(1), "{q} was not rerouted");
        assert!(!sharded.query_is_stale(q));
        assert_eq!(reference.current_results(q), sharded.current_results(q));
    }
    // The healthy shard's store is still the mirror, document for document.
    sharded.check_invariants();
    feed(&mut reference, &mut sharded, 7);
    for &q in &late {
        assert_eq!(reference.current_results(q), sharded.current_results(q));
    }
    assert_eq!(sharded.recover_degraded().expect("recovery succeeds"), 1);
    sharded.check_invariants();
    feed(&mut reference, &mut sharded, 5);
    for &q in qids.iter().chain(&late) {
        assert!(!sharded.query_is_stale(q));
        assert_eq!(reference.current_results(q), sharded.current_results(q));
    }
}

/// One explicit, readable fault-recovery scenario (the differential above
/// is the strong check; this one is the debuggable one): arm a fault, feed
/// a document, and verify the armed shard panicked, was rebuilt, and
/// reports the same results as a never-faulted reference.
#[test]
fn injected_fault_is_applied_then_recovered_exactly() {
    let window = SlidingWindow::count_based(8);
    let mut reference = ItaEngine::new(window, ItaConfig::default());
    let mut sharded = faulty(window, 2, FaultPolicy::default());
    let query = ContinuousQuery::from_weights([(TermId(1), 0.7), (TermId(2), 0.3)], 2);
    let qr = reference.register(query.clone());
    let qs = sharded.register(query);
    assert_eq!(qr, qs);
    for i in 0..20u64 {
        if i == 5 || i == 11 {
            assert!(sharded.inject_fault((i % 2) as usize));
        }
        let doc = Document::new(
            DocId(i),
            Timestamp::from_millis(i),
            WeightedVector::from_weights([(
                TermId(1 + (i % 2) as u32),
                0.1 + (i % 5) as f64 * 0.1,
            )]),
        );
        assert_exact_event(&mut reference, &mut sharded, &doc, &[qr]);
    }
    let stats = sharded.fault_stats().expect("tracked");
    assert_eq!(stats.faults, 2);
    assert_eq!(stats.recoveries, 2);
    assert_eq!(stats.degraded_shards, 0);
}

/// Poison documents detonate once per shard (the event is applied, then the
/// worker panics) and the shard is rebuilt; the rebuild loads the poison
/// document from the mirror without processing it, so it never re-detonates.
#[test]
fn poison_documents_detonate_once_and_recover() {
    let window = SlidingWindow::count_based(6);
    let mut reference = ItaEngine::new(window, ItaConfig::default());
    let mut sharded = faulty(window, 2, FaultPolicy::default());
    let query = ContinuousQuery::from_weights([(TermId(3), 1.0)], 2);
    let qr = reference.register(query.clone());
    let qs = sharded.register(query);
    assert_eq!(qr, qs);
    for i in 0..15u64 {
        let mut doc = Document::new(
            DocId(i),
            Timestamp::from_millis(i),
            WeightedVector::from_weights([(TermId(3), 0.1 + (i % 4) as f64 * 0.2)]),
        );
        if i == 4 || i == 9 {
            doc = cts_core::poison_document(doc);
        }
        assert_exact_event(&mut reference, &mut sharded, &doc, &[qr]);
    }
    let stats = sharded.fault_stats().expect("tracked");
    // Each of the 2 poison docs detonates once in each of the 2 shards.
    assert_eq!(stats.faults, 4);
    assert_eq!(stats.recoveries, 4);
}

/// Random injected faults on three shards under the blocking policy: every
/// caught panic poisons its shard and the coordinator rebuilds it before the
/// event returns, with exact results after every event.
#[test]
fn cold_rebuild_restores_exact_results_under_block_policy() {
    let window = SlidingWindow::count_based(10);
    let mut reference = ItaEngine::new(window, ItaConfig::default());
    let mut sharded = faulty(window, 3, FaultPolicy::BlockUntilRecovered);
    let mut rng = ScriptRng::new(0xC01D);
    let mut qids: Vec<QueryId> = Vec::new();
    for t in 0..9u32 {
        let q = ContinuousQuery::from_weights([(TermId(t % 5), 0.6), (TermId(5 + t % 3), 0.4)], 2);
        let qr = reference.register(q.clone());
        assert_eq!(qr, sharded.register(q));
        qids.push(qr);
    }
    for i in 0..60u64 {
        if rng.chance(0.15) {
            sharded.inject_fault(rng.below(3));
        }
        let doc = Document::new(
            DocId(i),
            Timestamp::from_millis(i),
            WeightedVector::from_weights([
                (TermId((i % 8) as u32), 0.1 + (i % 5) as f64 * 0.12),
                (TermId((2 + i % 3) as u32), 0.3),
            ]),
        );
        assert_exact_event(&mut reference, &mut sharded, &doc, &qids);
    }
    let stats = sharded.fault_stats().expect("tracked");
    assert!(stats.faults > 0, "no faults fired");
    assert_eq!(stats.recoveries, stats.faults, "a fault was not rebuilt");
    assert_eq!(stats.degraded_shards, 0);
}

/// A killed worker thread (disconnect, not panic) is resurrected by the
/// coordinator under the blocking policy, with exact results afterwards.
#[test]
fn killed_worker_is_resurrected_with_exact_results() {
    let window = SlidingWindow::count_based(8);
    let mut reference = ItaEngine::new(window, ItaConfig::default());
    let mut sharded = faulty(window, 2, FaultPolicy::default());
    let mut qids = Vec::new();
    for t in 0..6u32 {
        let q = ContinuousQuery::from_weights([(TermId(t), 1.0)], 2);
        let qr = reference.register(q.clone());
        assert_eq!(qr, sharded.register(q));
        qids.push(qr);
    }
    for i in 0..30u64 {
        if i == 10 {
            assert!(sharded.inject_disconnect(0));
        }
        if i == 20 {
            assert!(sharded.inject_disconnect(1));
        }
        let doc = Document::new(
            DocId(i),
            Timestamp::from_millis(i),
            WeightedVector::from_weights([(TermId((i % 6) as u32), 0.2 + (i % 4) as f64 * 0.15)]),
        );
        reference.process_document(doc.clone());
        sharded.process_document(doc);
        for &q in &qids {
            assert_eq!(
                reference.current_results(q),
                sharded.current_results(q),
                "results diverged on {q} at event {i}"
            );
        }
    }
    let stats = sharded.fault_stats().expect("tracked");
    assert!(stats.faults >= 2, "disconnects were not counted as faults");
    assert!(stats.recoveries >= 2, "killed workers were not resurrected");
    assert_eq!(stats.degraded_shards, 0);
    assert_eq!(sharded.num_valid_documents(), 8);
}

/// Under [`FaultPolicy::ServeDegraded`] the healthy shards keep serving:
/// queries on the dead shard go stale (empty results, `query_is_stale`),
/// events are counted in `events_during_degraded`, and an explicit
/// `recover_degraded` brings the shard back with exact results.
#[test]
fn serve_degraded_keeps_healthy_shards_live_until_explicit_recovery() {
    let window = SlidingWindow::count_based(8);
    let mut reference = ItaEngine::new(window, ItaConfig::default());
    let mut sharded = faulty(window, 2, FaultPolicy::ServeDegraded);
    let mut qids = Vec::new();
    for t in 0..8u32 {
        let q = ContinuousQuery::from_weights([(TermId(t % 4), 1.0)], 2);
        let qr = reference.register(q.clone());
        assert_eq!(qr, sharded.register(q));
        qids.push(qr);
    }
    let feed = |engine: &mut dyn Engine, i: u64| {
        engine.process_document(Document::new(
            DocId(i),
            Timestamp::from_millis(i),
            WeightedVector::from_weights([(TermId((i % 4) as u32), 0.2 + (i % 3) as f64 * 0.2)]),
        ));
    };
    for i in 0..10u64 {
        feed(&mut reference, i);
        feed(&mut sharded, i);
    }
    // Kill shard 0 and keep serving.
    assert!(sharded.inject_fault(0));
    for i in 10..20u64 {
        feed(&mut reference, i);
        feed(&mut sharded, i);
    }
    let stats = sharded.fault_stats().expect("tracked");
    assert_eq!(stats.degraded_shards, 1);
    // The faulting event itself is applied before the panic; after it the
    // coordinator served 9 more events degraded — plus the one that faulted.
    assert_eq!(stats.events_during_degraded, 10);
    let (stale, live): (Vec<QueryId>, Vec<QueryId>) =
        qids.iter().partition(|&&q| sharded.query_is_stale(q));
    assert!(!stale.is_empty(), "no query was hosted on the dead shard");
    assert!(!live.is_empty(), "every query was hosted on the dead shard");
    for &q in &stale {
        assert!(
            sharded.current_results(q).is_empty(),
            "stale {q} served data"
        );
    }
    for &q in &live {
        assert_eq!(reference.current_results(q), sharded.current_results(q));
    }
    // Explicit recovery rebuilds the dead shard from registry + mirror;
    // results come back exact for every query.
    let resurrected = sharded.recover_degraded().expect("recovery succeeds");
    assert_eq!(resurrected, 1);
    assert_eq!(sharded.fault_stats().expect("tracked").degraded_shards, 0);
    for &q in &qids {
        assert!(!sharded.query_is_stale(q));
        assert_eq!(reference.current_results(q), sharded.current_results(q));
    }
    // And the engine is fully live again.
    for i in 20..30u64 {
        feed(&mut reference, i);
        feed(&mut sharded, i);
        for &q in &qids {
            assert_eq!(reference.current_results(q), sharded.current_results(q));
        }
    }
}

/// Under [`FaultPolicy::FailFast`] a fault surfaces as a typed error from
/// the `try_*` paths, and the engine is usable again after an explicit
/// `recover_degraded`.
#[test]
fn fail_fast_surfaces_typed_errors_and_recovers_on_request() {
    let window = SlidingWindow::count_based(6);
    let mut sharded = faulty(window, 2, FaultPolicy::FailFast);
    let q = sharded.register(ContinuousQuery::from_weights([(TermId(1), 1.0)], 1));
    let doc = |i: u64| {
        Document::new(
            DocId(i),
            Timestamp::from_millis(i),
            WeightedVector::from_weights([(TermId(1), 0.5)]),
        )
    };
    sharded.try_process(doc(0)).expect("healthy engine serves");
    assert!(sharded.inject_fault(0));
    // The faulting event returns an error naming the shard…
    let err = sharded.try_process(doc(1)).expect_err("fault must surface");
    assert!(
        matches!(err, cts_core::EngineError::ShardFault(ref fault) if fault.shard == 0),
        "unexpected error: {err}"
    );
    // …and so does every subsequent operation until recovery.
    let err = sharded.try_process(doc(2)).expect_err("still degraded");
    assert!(matches!(
        err,
        cts_core::EngineError::ShardUnavailable { shard: 0 }
    ));
    assert_eq!(sharded.recover_degraded().expect("recovers"), 1);
    sharded
        .try_process(doc(3))
        .expect("recovered engine serves");
    assert!(!sharded.current_results(q).is_empty());
}

/// The contract the suites above rely on, stated on the engine itself: a
/// term-filtered engine rebuilt the way a shard is — the window loaded, then
/// every query registered with postings resolved over it — reports exactly
/// the results of the engine it replaces, now and on every later event. Its
/// work counters need not match: a query registered mid-stream carries
/// thresholds derived from documents that have since expired, which a
/// registration over the surviving window cannot reproduce. That is why
/// outcomes are compared only up to a fault; if the counters ever stop
/// diverging, the narrowed contract can be tightened again (DESIGN.md §10).
#[test]
fn a_rebuild_keeps_results_exact_while_counters_may_differ() {
    let mut diverged = 0usize;
    for seed in 0..20u64 {
        let mut rng = ScriptRng::new(seed);
        let window = SlidingWindow::count_based(10);
        let mut reference = ItaEngine::term_filtered(window);
        let mut clock = Timestamp::ZERO;
        let random_doc = |rng: &mut ScriptRng, id: u64, clock: &mut Timestamp| {
            *clock = clock.advance(Duration::from_millis(rng.below(4) as u64));
            let terms = rng.range(1, 5);
            let palette = [0.1, 0.2, 0.2, 0.4, 0.7];
            let weights: Vec<(TermId, f64)> = (0..terms)
                .map(|_| (TermId(rng.below(16) as u32), palette[rng.below(5)]))
                .collect();
            Document::new(DocId(id), *clock, WeightedVector::from_weights(weights))
        };
        let random_query = |rng: &mut ScriptRng| {
            let terms = rng.range(1, 4);
            let weights: Vec<(TermId, f64)> = (0..terms)
                .map(|_| {
                    (
                        TermId(rng.below(16) as u32),
                        0.1 + rng.below(8) as f64 * 0.1,
                    )
                })
                .collect();
            ContinuousQuery::from_weights(weights, rng.range(1, 4))
        };
        let mut queries = Vec::new();
        for _ in 0..3 {
            let q = random_query(&mut rng);
            queries.push((reference.register(q.clone()), q));
        }
        for i in 0..40u64 {
            let d = random_doc(&mut rng, i, &mut clock);
            reference.process_document(d);
            if rng.chance(0.08) {
                let q = random_query(&mut rng);
                queries.push((reference.register(q.clone()), q));
            }
        }
        // The rebuild: the window loaded into a fresh engine, then one
        // registration with the postings its owner resolves.
        let mut mirror = WindowTerms::new();
        let mut rebuilt = ItaEngine::term_filtered(window);
        for doc in reference.store_documents() {
            let doc = std::sync::Arc::new(doc.clone());
            mirror.push(std::sync::Arc::clone(&doc));
            rebuilt.process_shared(doc);
        }
        let batch: Vec<(QueryId, std::sync::Arc<ContinuousQuery>)> = queries
            .iter()
            .map(|(qid, query)| (*qid, std::sync::Arc::new(query.clone())))
            .collect();
        let postings = mirror.postings(
            queries
                .iter()
                .flat_map(|(_, query)| query.terms().map(|(t, _)| t)),
        );
        rebuilt.register_shared_batch(&batch, &postings);
        assert_eq!(rebuilt.register_entries_walked(), 0);
        let ids: Vec<QueryId> = queries.iter().map(|(qid, _)| *qid).collect();
        // Results match now (a function of window contents and queries)…
        assert_engines_agree(&reference, &rebuilt, &ids);
        // …and on every later event, while the work done may not.
        let mut counters_differ = false;
        for i in 40..80u64 {
            let d = random_doc(&mut rng, i, &mut clock);
            counters_differ |= reference.process_document(d.clone()) != rebuilt.process_document(d);
            assert_engines_agree(&reference, &rebuilt, &ids);
        }
        diverged += usize::from(counters_differ);
    }
    assert!(
        diverged > 0,
        "rebuilt engines reproduced the work counters on all seeds; the \
         outcome comparisons could be held across faults again"
    );
}
