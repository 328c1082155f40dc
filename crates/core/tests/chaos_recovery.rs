//! The fault-injection differential axis: a fault-tolerant
//! [`ShardedItaEngine`] must stay in **exact** lockstep with a fault-free
//! single-shard [`ItaEngine`] *through* injected worker panics, poison
//! documents and killed worker threads — across shard counts {1, 2, 4, 8}
//! and across checkpoint cadences (including a cadence of 1, which
//! checkpoints on every mutation, and small odd cadences that force long
//! log replays).
//!
//! Why warm recovery must be checkpoint + op-log and not "rebuild from the
//! window": ITA per-query state is **not** observably a pure function of
//! (window contents, registered queries). The thresholds θ and τ are
//! history-dependent — a query registered mid-stream carries thresholds
//! derived from documents that have since expired, which a fresh engine fed
//! only the surviving window cannot reproduce. The
//! `window_replay_rebuild_is_not_exact` test at the bottom documents this
//! with a concrete divergence, and is the experiment that shaped the
//! recovery design (see DESIGN.md §10): warm recovery restores a cloned
//! checkpoint and replays the logged mutations (byte-identical by
//! determinism); cold resurrection rebuilds from the registry + window
//! mirror, which reproduces the *reported top-k* exactly (those are a
//! function of window contents) but not necessarily the future work
//! counters — so cold-recovery tests compare results only.

use std::time::Duration;

use cts_core::testkit::{
    assert_script_equivalence, generate_script, run_script, Op, OpScript, RunOptions, ScriptConfig,
    ScriptRng,
};
use cts_core::validate::assert_lockstep_event;
use cts_core::{
    ContinuousQuery, Engine, FaultConfig, FaultPolicy, ItaConfig, ItaEngine, RebalanceConfig,
    ShardedItaEngine,
};
use cts_index::{DocId, Document, QueryId, SlidingWindow, Timestamp};
use cts_text::{TermId, WeightedVector};

fn faulty(window: SlidingWindow, shards: usize, faults: FaultConfig) -> ShardedItaEngine {
    ShardedItaEngine::with_faults(
        window,
        ItaConfig::default(),
        shards,
        RebalanceConfig::default(),
        faults,
    )
}

/// Runs a chaos-storm script over (reference, sharded-with-faults) and
/// asserts lockstep held *and* that the script actually made the sharded
/// engine fault and recover — a chaos suite that never faults tests
/// nothing.
fn assert_chaos_lockstep(shards: usize, faults: FaultConfig, seed: u64) {
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
    let mut sharded = faulty(window, shards, faults);
    {
        let mut engines: Vec<Box<dyn Engine>> = vec![
            Box::new(&mut reference) as Box<dyn Engine>,
            Box::new(&mut sharded),
        ];
        if let Err(failure) = run_script(&mut engines, &script, &RunOptions::default()) {
            panic!(
                "chaos lockstep broke (shards {shards}, checkpoint {}, seed {seed:#x})\n  \
                 {failure}\n{script}",
                faults.checkpoint_interval
            );
        }
    }
    let stats = sharded.fault_stats().expect("sharded engines track faults");
    assert!(
        stats.faults > 0,
        "shards {shards}, seed {seed:#x}: chaos script caused no faults"
    );
    assert!(
        stats.recoveries > 0,
        "shards {shards}, seed {seed:#x}: faults happened but nothing recovered"
    );
    assert!(stats.recovery_micros > 0 || stats.recoveries == 0);
    assert_eq!(
        stats.degraded_shards, 0,
        "shards {shards}, seed {seed:#x}: run ended with degraded shards under BlockUntilRecovered"
    );
}

#[test]
fn chaos_storm_locksteps_across_shard_counts() {
    for shards in [1usize, 2, 4, 8] {
        assert_chaos_lockstep(shards, FaultConfig::default(), 0xC4A0_0000 + shards as u64);
    }
}

/// The chaos shape with the registration-burst knobs turned up: every burst
/// brings a batch of terms live mid-stream — lists filed from postings the
/// coordinator shipped — and the elevated fault rate forces each shard
/// through several checkpoint + op-log replays of those bursts per script.
/// Run with `--features invariant-checks`, every op is followed by every
/// engine's structural audit, the complete-lists one included.
#[test]
fn registration_bursts_survive_warm_replay_across_shard_counts() {
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

#[test]
fn chaos_storm_locksteps_across_checkpoint_cadences() {
    // Cadence 1 checkpoints every mutation (empty log replays); 5 and 7
    // force replays of several logged ops, including ops logged *during* a
    // batch.
    for interval in [1usize, 5, 7] {
        let faults = FaultConfig {
            checkpoint_interval: interval,
            ..FaultConfig::default()
        };
        assert_chaos_lockstep(4, faults, 0xC4A0_0100 + interval as u64);
    }
}

/// The checkpoint cadences every delta-sync scenario below runs at: 1 syncs
/// after every mutation (recovery never replays a log), 5 and 7 put syncs
/// inside batches and bursts, 256 is the production default.
const SYNC_CADENCES: [usize; 4] = [1, 5, 7, 256];

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

/// Two faults straddling a checkpoint sync: one on the event whose logging
/// triggers the sync (recovery replays a full log, the retry then syncs) and
/// one on the very next event (recovery clones a checkpoint that was written
/// by a delta sync a moment ago, with nothing to replay). A sync that missed
/// a slot the first fault's replay touched would surface in the second.
#[test]
fn two_faults_straddling_a_sync_recover_exactly() {
    const REGISTRATIONS: usize = 4;
    for interval in SYNC_CADENCES {
        for shards in [1usize, 2] {
            let faults = FaultConfig {
                checkpoint_interval: interval,
                ..FaultConfig::default()
            };
            let mut rng = ScriptRng::new(0x57AD_0000 + interval as u64);
            let mut script = OpScript::new(0);
            for _ in 0..REGISTRATIONS {
                script.push(Op::Register(small_query(&mut rng)));
            }
            // A worker syncs when its log reaches `interval` mutations, and
            // its log holds every event plus the registrations it hosts — up
            // to REGISTRATIONS of them. So the event that fills the log for
            // the k-th time is one of REGISTRATIONS + 1 candidates; fault
            // every one of them and the event after, on every shard.
            let events = 2 * interval + REGISTRATIONS;
            let mut armed = 0;
            for event in 0..events {
                let mutation = event + 1; // 1-based, before registrations
                let near_a_sync = (1..=2).any(|k| {
                    (k * interval).saturating_sub(REGISTRATIONS) <= mutation
                        && mutation <= k * interval + 1
                });
                if near_a_sync {
                    for shard in 0..shards {
                        script.push(Op::InjectFault { shard });
                        armed += 1;
                    }
                }
                script.push(Op::Feed(tie_heavy_doc(&mut rng, event as u64)));
            }
            let window = SlidingWindow::count_based(20);
            let mut reference = ItaEngine::new(window, ItaConfig::default());
            let mut sharded = faulty(window, shards, faults);
            {
                let mut engines: Vec<Box<dyn Engine>> = vec![
                    Box::new(&mut reference) as Box<dyn Engine>,
                    Box::new(&mut sharded),
                ];
                if let Err(failure) = run_script(&mut engines, &script, &RunOptions::default()) {
                    panic!("cadence {interval}, {shards} shards: {failure}");
                }
            }
            let stats = sharded.fault_stats().expect("tracked");
            assert_eq!(
                stats.faults, armed,
                "cadence {interval}: an armed fault never fired"
            );
            assert_eq!(
                stats.recoveries, armed,
                "cadence {interval}: a fault went cold"
            );
            assert_eq!(stats.degraded_shards, 0);
            let syncs: u64 = sharded.shard_stats().iter().map(|s| s.checkpoints).sum();
            assert!(
                syncs >= 2 * shards as u64,
                "cadence {interval}: only {syncs} syncs"
            );
        }
    }
}

/// A fault right after a cold rebuild: the rebuilt engine's first sync goes
/// into a brand-new checkpoint (the full copy), and the very next event
/// faults, so warm recovery runs from that checkpoint. A cold rebuild
/// promises exact results, not exact thresholds, so this compares results —
/// and has the workers audit checkpoint + log against their live state.
#[test]
fn fault_right_after_a_rebuild_recovers_from_the_new_checkpoint() {
    for interval in SYNC_CADENCES {
        let faults = FaultConfig {
            checkpoint_interval: interval,
            ..FaultConfig::default()
        };
        let window = SlidingWindow::count_based(10);
        let mut rng = ScriptRng::new(0xC01D_0000 + interval as u64);
        let mut reference = ItaEngine::new(window, ItaConfig::default());
        let mut sharded = faulty(window, 2, faults);
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
            reference.process_document(doc.clone());
            sharded.process_document(doc);
            for &q in &qids {
                assert_eq!(
                    reference.current_results(q),
                    sharded.current_results(q),
                    "cadence {interval}: results diverged on {q} at event {id}"
                );
            }
            sharded.check_invariants();
        };
        let mut id = 0u64;
        let mut armed = 0u64;
        for round in 0..4usize {
            // Run up to (and, on later rounds, across) a sync boundary.
            for _ in 0..interval.min(40) + round {
                feed(&mut reference, &mut sharded, id);
                id += 1;
            }
            let shard = round % 2;
            assert!(sharded.inject_disconnect(shard));
            // This event finds the worker gone and rebuilds the shard cold…
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
}

/// A fault after the rebalancer moved queries between two syncs: the source
/// shard's log holds an `Extract`, the destination's an `Install` carrying
/// the migrated result set and thresholds, and recovery must replay both to
/// the byte.
#[test]
fn fault_after_a_migration_between_syncs_replays_extract_and_install() {
    for interval in SYNC_CADENCES {
        let config = ItaConfig::default();
        let faults = FaultConfig {
            checkpoint_interval: interval,
            ..FaultConfig::default()
        };
        let shards = 4;
        let window = SlidingWindow::count_based(12);
        let mut rng = ScriptRng::new(0x316A_0000 + interval as u64);
        let mut reference = ItaEngine::new(window, config);
        let mut sharded = ShardedItaEngine::with_faults(
            window,
            config,
            shards,
            RebalanceConfig::default(),
            faults,
        );
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
            assert_lockstep_event(&mut reference, &mut sharded, &doc, &qids);
            id += 1;
        }
        // Concentrate the survivors on shard 0: every deregistration that
        // tips the balance makes the rebalancer migrate — and right after
        // each migration every shard faults on the next event.
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
                assert_lockstep_event(&mut reference, &mut sharded, &doc, &live);
                sharded.check_invariants();
                id += 1;
            }
        }
        assert!(migrations > 0, "cadence {interval}: nothing migrated");
        // Each destination faulted on the event right after its `Install`,
        // so the op log replayed the install with the postings it carried:
        // lists were filed, and no shard — restored or not — read its store.
        let index = sharded.shard_index_stats();
        assert!(
            index.iter().all(|shard| shard.register_entries_walked == 0),
            "cadence {interval}: a shard walked its store: {index:?}"
        );
        assert!(
            index[1..]
                .iter()
                .any(|shard| shard.register_postings_touched > 0),
            "cadence {interval}: no migration brought a term with postings live"
        );
        // The migrated queries keep living byte-identically, across
        // further syncs and one more round of faults.
        for step in 0..(interval.min(40) + 20) {
            if step == 10 {
                for shard in 0..shards {
                    assert!(sharded.inject_fault(shard));
                    armed += 1;
                }
            }
            let doc = tie_heavy_doc(&mut rng, id);
            assert_lockstep_event(&mut reference, &mut sharded, &doc, &live);
            id += 1;
        }
        sharded.check_invariants();
        let stats = sharded.fault_stats().expect("tracked");
        assert_eq!(stats.faults, armed);
        assert_eq!(stats.recoveries, armed, "a migration-era fault went cold");
        assert_eq!(stats.degraded_shards, 0);
    }
}

/// A fault on the event right after a registration burst: the burst brought
/// terms live mid-stream, so its logged `RegisterBatch` carries the window
/// postings the coordinator resolved against its mirror, and warm recovery
/// files them again on replay — the restored shard never reads its store.
/// The audit after each recovery checks checkpoint + log against the live
/// engine and every shard's store against the mirror.
#[test]
fn fault_right_after_a_registration_burst_replays_the_shipped_postings() {
    for interval in SYNC_CADENCES {
        let faults = FaultConfig {
            checkpoint_interval: interval,
            ..FaultConfig::default()
        };
        let shards = 2;
        let window = SlidingWindow::count_based(14);
        let mut rng = ScriptRng::new(0x5EA1_0000 + interval as u64);
        let mut reference = ItaEngine::new(window, ItaConfig::default());
        let mut sharded = faulty(window, shards, faults);
        let mut live: Vec<QueryId> = Vec::new();
        let mut id = 0u64;
        let mut armed = 0u64;
        for round in 0..12 {
            for _ in 0..rng.range(1, 6) {
                let doc = tie_heavy_doc(&mut rng, id);
                assert_lockstep_event(&mut reference, &mut sharded, &doc, &live);
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
            assert_lockstep_event(&mut reference, &mut sharded, &doc, &live);
            id += 1;
            sharded.check_invariants();
        }
        let stats = sharded.fault_stats().expect("tracked");
        assert_eq!(
            stats.faults, armed,
            "cadence {interval}: a fault never fired"
        );
        assert_eq!(
            stats.recoveries, armed,
            "cadence {interval}: a fault went cold"
        );
        assert_eq!(stats.degraded_shards, 0);
        let resolved = sharded.window_terms_stats();
        assert!(
            resolved.postings_from_walks + resolved.postings_from_directories > 0,
            "cadence {interval}: no registration shipped a posting"
        );
        // Recovered counters are the fault-free ones.
        for &q in &live {
            assert_eq!(reference.query_stats(q), sharded.query_stats(q));
        }
    }
}

/// Under [`FaultPolicy::ServeDegraded`] a registration whose hash shard is
/// down goes to the healthy shard, with postings resolved against the
/// mirror — which kept sliding while the shard was gone — so the new
/// queries answer exactly at once, and still do after the dead shard is
/// rebuilt.
#[test]
fn serve_degraded_registration_is_rerouted_with_postings_from_the_mirror() {
    let window = SlidingWindow::count_based(12);
    let faults = FaultConfig {
        policy: FaultPolicy::ServeDegraded,
        checkpoint_interval: 0, // every caught panic degrades the shard
    };
    let mut rng = ScriptRng::new(0x5EA1_0100);
    let mut reference = ItaEngine::new(window, ItaConfig::default());
    let mut sharded = faulty(window, 2, faults);
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
/// a document, and verify the armed shard panicked, recovered warm, and
/// reports the same results as a never-faulted reference.
#[test]
fn injected_fault_is_applied_then_recovered_exactly() {
    let window = SlidingWindow::count_based(8);
    let mut reference = ItaEngine::new(window, ItaConfig::default());
    let mut sharded = faulty(window, 2, FaultConfig::default());
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
        let expected = reference.process_document(doc.clone());
        let actual = sharded.process_document(doc);
        assert_eq!(expected, actual, "outcome diverged at event {i}");
        assert_eq!(reference.current_results(qr), sharded.current_results(qs));
    }
    let stats = sharded.fault_stats().expect("tracked");
    assert_eq!(stats.faults, 2);
    assert_eq!(stats.recoveries, 2);
    assert_eq!(stats.degraded_shards, 0);
}

/// Poison documents detonate once per shard (the event is applied, then the
/// worker panics), recover warm, and must not re-detonate when the same
/// document is replayed from the recovery log.
#[test]
fn poison_documents_detonate_once_and_recover() {
    let window = SlidingWindow::count_based(6);
    let mut reference = ItaEngine::new(window, ItaConfig::default());
    let mut sharded = faulty(window, 2, FaultConfig::default());
    let query = ContinuousQuery::from_weights([(TermId(3), 1.0)], 2);
    let qr = reference.register(query.clone());
    let qs = sharded.register(query);
    for i in 0..15u64 {
        let mut doc = Document::new(
            DocId(i),
            Timestamp::from_millis(i),
            WeightedVector::from_weights([(TermId(3), 0.1 + (i % 4) as f64 * 0.2)]),
        );
        if i == 4 || i == 9 {
            doc = cts_core::poison_document(doc);
        }
        let expected = reference.process_document(doc.clone());
        let actual = sharded.process_document(doc);
        assert_eq!(expected, actual, "outcome diverged at event {i}");
        assert_eq!(reference.current_results(qr), sharded.current_results(qs));
    }
    let stats = sharded.fault_stats().expect("tracked");
    // Each of the 2 poison docs detonates once in each of the 2 shards.
    assert_eq!(stats.faults, 4);
    assert_eq!(stats.recoveries, 4);
}

/// With checkpointing disabled every caught panic poisons the shard, so
/// recovery must go through the cold path: respawn + registry
/// re-registration + window-mirror replay. Cold resurrection guarantees
/// exact *results* (not future work counters), so this scenario compares
/// results only.
#[test]
fn cold_rebuild_restores_exact_results_under_block_policy() {
    let window = SlidingWindow::count_based(10);
    let faults = FaultConfig {
        checkpoint_interval: 0, // no warm recovery possible
        policy: FaultPolicy::BlockUntilRecovered,
    };
    let mut reference = ItaEngine::new(window, ItaConfig::default());
    let mut sharded = faulty(window, 3, faults);
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
    assert!(stats.faults > 0, "no faults fired");
    assert!(stats.recoveries > 0, "no cold resurrection happened");
    assert_eq!(stats.degraded_shards, 0);
}

/// A killed worker thread (disconnect, not panic) is resurrected by the
/// coordinator under the blocking policy, with exact results afterwards.
#[test]
fn killed_worker_is_resurrected_with_exact_results() {
    let window = SlidingWindow::count_based(8);
    let mut reference = ItaEngine::new(window, ItaConfig::default());
    let mut sharded = faulty(window, 2, FaultConfig::default());
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
    let faults = FaultConfig {
        policy: FaultPolicy::ServeDegraded,
        checkpoint_interval: 0, // every caught panic degrades the shard
    };
    let mut reference = ItaEngine::new(window, ItaConfig::default());
    let mut sharded = faulty(window, 2, faults);
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

/// Under [`FaultPolicy::FailFast`] an unrecoverable fault surfaces as a
/// typed error from the `try_*` paths, and the engine is usable again after
/// an explicit `recover_degraded`.
#[test]
fn fail_fast_surfaces_typed_errors_and_recovers_on_request() {
    let window = SlidingWindow::count_based(6);
    let faults = FaultConfig {
        policy: FaultPolicy::FailFast,
        checkpoint_interval: 0,
    };
    let mut sharded = faulty(window, 2, faults);
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

/// The experiment that shaped the recovery design, kept as a living
/// document: rebuilding an ITA engine from (window contents, registered
/// queries) alone — either replay order — does **not** reproduce the
/// pre-fault engine observably. Registered-mid-stream queries carry
/// thresholds derived from expired history. If this test ever starts
/// failing (i.e. rebuilds stop diverging), the checkpoint + op-log
/// machinery can be replaced by plain window replay — see DESIGN.md §10.
#[test]
fn window_replay_rebuild_is_not_exact() {
    let mut diverged = 0usize;
    for seed in 0..20u64 {
        let mut rng = ScriptRng::new(seed);
        let window = SlidingWindow::count_based(10);
        let mut reference = ItaEngine::term_filtered(window, ItaConfig::default());
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
        // The naive rebuild: register everything, replay the surviving
        // window (the order the cold-resurrection path uses — which is why
        // cold recovery only promises exact *results*, not exact state).
        let mut rebuilt = ItaEngine::term_filtered(window, ItaConfig::default());
        let (ids, bodies): (Vec<QueryId>, Vec<ContinuousQuery>) = queries.iter().cloned().unzip();
        assert_eq!(rebuilt.register_batch(bodies), ids);
        let window_docs: Vec<Document> = reference.store_documents().cloned().collect();
        for d in window_docs {
            rebuilt.process_document(d);
        }
        // Current results DO match (they are a function of window contents)…
        for (qid, _) in &queries {
            assert_eq!(
                reference.current_results(*qid),
                rebuilt.current_results(*qid),
                "seed {seed}: cold rebuild broke current results"
            );
        }
        // …but future behaviour may not: thresholds are history-dependent.
        for i in 40..80u64 {
            let d = random_doc(&mut rng, i, &mut clock);
            if reference.process_document(d.clone()) != rebuilt.process_document(d) {
                diverged += 1;
                break;
            }
        }
    }
    assert!(
        diverged > 0,
        "window-replay rebuilds reproduced the engine exactly on all seeds; \
         the checkpoint+log recovery design may be over-engineered now"
    );
}
