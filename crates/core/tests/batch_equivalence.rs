//! Batch-vs-singles differential test: [`cts_core::Engine::process_batch`]
//! must be **byte-identical** to the per-event loop on every engine, across
//! shard counts {1, 2, 4, 8} — including deregistrations between batches
//! and window expiries that fall mid-batch.
//!
//! Three angles, the first two driven by [`cts_core::testkit`]:
//!
//! * scripted: batched op scripts run over `[ItaEngine, ShardedItaEngine]`
//!   pairs — the reference's `process_batch` is the default per-event loop,
//!   the sharded engine's is the one-round-trip-per-shard fan-out, so any
//!   batching shortcut that changes semantics diverges immediately;
//! * flattened: the *same* sharded engine type processes the same stream
//!   once through batches and once as singles, and the outcome sequences
//!   and results must match element for element;
//! * burst of one: `process_document(d)` against `process_batch(vec![d])` on
//!   twin sharded engines, through faults, under every fault policy and
//!   checkpoint cadence — a single event *is* a burst of one.

use cts_core::testkit::{assert_script_equivalence, generate_script, Op, ScriptConfig, ScriptRng};
use cts_core::{
    poison_document, ContinuousQuery, Engine, EventOutcome, FaultConfig, FaultPolicy, FaultStats,
    ItaConfig, ItaEngine, Monitor, RebalanceConfig, ShardedItaEngine,
};
use cts_index::{DocId, Document, QueryId, SlidingWindow, Timestamp};
use cts_text::{TermId, WeightedVector};

fn pair(window: SlidingWindow, shards: usize) -> Vec<Box<dyn Engine>> {
    vec![
        Box::new(ItaEngine::new(window, ItaConfig::default())),
        Box::new(ShardedItaEngine::new(window, ItaConfig::default(), shards)),
    ]
}

/// Batched scripts with churn: deregistrations land between batches (ops
/// are sequential, so a `Deregister` is never *inside* a burst) and the
/// tight window guarantees most batches expire several documents mid-batch.
#[test]
fn batched_fanout_matches_the_per_event_loop_across_shard_counts() {
    let config = ScriptConfig {
        events: 260,
        max_batch: 24,
        register_probability: 0.12,
        deregister_probability: 0.08,
        ..ScriptConfig::batched()
    };
    for shards in [1usize, 2, 4, 8] {
        // Window of 16 with batches up to 24: a single batch routinely
        // wraps the whole window, so expiries fall mid-batch by
        // construction.
        let window = SlidingWindow::count_based(16);
        assert_script_equivalence(
            &|| pair(window, shards),
            &config,
            0xBA7C_0000 + shards as u64,
        );
    }
}

/// Registration bursts, event batches and churn all at once: the
/// [`ScriptConfig::churn_storm`] axis over the usual reference/sharded pair,
/// with a tight window so bursts of *queries* and bursts of *events* overlap
/// with mid-batch expiry.
#[test]
fn churn_storm_bursts_and_batches_hold_across_shard_counts() {
    let config = ScriptConfig {
        events: 240,
        max_batch: 24,
        ..ScriptConfig::churn_storm()
    };
    for shards in [1usize, 2, 4, 8] {
        let window = SlidingWindow::count_based(16);
        assert_script_equivalence(
            &|| pair(window, shards),
            &config,
            0xBA7C_3000 + shards as u64,
        );
    }
}

#[test]
fn time_windows_expire_mid_batch_identically() {
    let config = ScriptConfig {
        events: 220,
        max_batch: 16,
        ..ScriptConfig::batched()
    };
    for shards in [2usize, 4, 8] {
        // ~20ms window over 0–4ms gaps: a 16-event batch spans several
        // window lengths, so the expiration set changes *within* the batch.
        let window = SlidingWindow::time_based(std::time::Duration::from_millis(20));
        assert_script_equivalence(
            &|| pair(window, shards),
            &config,
            0xBA7C_1000 + shards as u64,
        );
    }
}

/// The same sharded engine type, same stream: batched vs flattened-singles
/// outcome sequences must match element for element, and so must every
/// query's results after every op.
#[test]
fn sharded_batches_equal_sharded_singles_on_the_same_stream() {
    let config = ScriptConfig {
        events: 200,
        max_batch: 20,
        register_probability: 0.1,
        burst_register_probability: 0.1,
        deregister_probability: 0.06,
        ..ScriptConfig::batched()
    };
    for shards in [2usize, 4] {
        let window = SlidingWindow::count_based(14);
        let script = generate_script(&config, 0xBA7C_2000 + shards as u64);
        let mut batched = ShardedItaEngine::new(window, ItaConfig::default(), shards);
        let mut singles = ShardedItaEngine::new(window, ItaConfig::default(), shards);
        let mut live: Vec<QueryId> = Vec::new();
        for (i, op) in script.ops.iter().enumerate() {
            match op {
                Op::Register(query) => {
                    let qa = batched.register(query.clone());
                    let qb = singles.register(query.clone());
                    assert_eq!(qa, qb, "op {i}: ids diverged");
                    live.push(qa);
                }
                Op::RegisterBurst(queries) => {
                    let qa = batched.register_batch(queries.clone());
                    let qb = singles.register_batch(queries.clone());
                    assert_eq!(qa, qb, "op {i}: burst ids diverged");
                    live.extend(qa);
                }
                Op::Deregister { victim } => {
                    if live.is_empty() {
                        continue;
                    }
                    let target = live.swap_remove(victim % live.len());
                    assert!(batched.deregister(target));
                    assert!(singles.deregister(target));
                }
                Op::Feed(doc) => {
                    let a = batched.process_document(doc.clone());
                    let b = singles.process_document(doc.clone());
                    assert_eq!(a, b, "op {i}: single-event outcome diverged");
                }
                Op::FeedBatch(docs) => {
                    let a = batched.process_batch(docs.clone());
                    let b: Vec<EventOutcome> = docs
                        .iter()
                        .map(|doc| singles.process_document(doc.clone()))
                        .collect();
                    assert_eq!(a, b, "op {i}: batch outcomes diverged from singles");
                }
                Op::InjectFault { shard } => {
                    batched.inject_fault(*shard);
                    singles.inject_fault(*shard);
                }
            }
            for &q in &live {
                assert_eq!(
                    batched.current_results(q),
                    singles.current_results(q),
                    "op {i}: results diverged on {q}"
                );
            }
            assert_eq!(batched.num_valid_documents(), singles.num_valid_documents());
            assert_eq!(batched.clock(), singles.clock());
        }
    }
}

/// A deterministic deregister-between-batches scenario, driven through
/// [`Monitor`] so the batch stats path is covered end to end.
#[test]
fn monitored_batches_with_deregistration_between_batches() {
    let window = SlidingWindow::count_based(6);
    let mut sharded = Monitor::new(ShardedItaEngine::new(window, ItaConfig::default(), 4));
    let mut reference = Monitor::new(ItaEngine::new(window, ItaConfig::default()));
    let make_doc = |id: u64, w: f64| {
        Document::new(
            DocId(id),
            Timestamp::from_millis(id),
            WeightedVector::from_weights([(TermId((id % 3) as u32), w)]),
        )
    };
    let mut qids = Vec::new();
    for t in 0..6u32 {
        let q = ContinuousQuery::from_weights([(TermId(t % 3), 0.5 + t as f64 * 0.1)], 2);
        let qa = sharded.register(q.clone());
        assert_eq!(reference.register(q), qa);
        qids.push(qa);
    }
    let first: Vec<Document> = (0..9u64)
        .map(|i| make_doc(i, 0.1 + (i % 4) as f64 * 0.2))
        .collect();
    assert_eq!(
        sharded.process_batch(first.clone()),
        reference.process_batch(first)
    );
    // Deregister between batches; the next batch must route around the gap.
    assert!(sharded.deregister(qids[2]));
    assert!(reference.deregister(qids[2]));
    let second: Vec<Document> = (9..20u64)
        .map(|i| make_doc(i, 0.05 + (i % 5) as f64 * 0.15))
        .collect();
    assert_eq!(
        sharded.process_batch(second.clone()),
        reference.process_batch(second)
    );
    for &q in qids.iter().filter(|&&q| q != qids[2]) {
        assert_eq!(sharded.current_results(q), reference.current_results(q));
    }
    assert!(sharded.current_results(qids[2]).is_empty());
    // The batch stats recorded both bursts on both monitors.
    assert_eq!(sharded.stats().events, 20);
    assert_eq!(sharded.stats().batches, 2);
    assert_eq!(sharded.stats().largest_batch, 11);
    assert_eq!(reference.stats().batches, 2);
    // Steady state: the 6-doc window expired everything the batches pushed
    // out, identically on both.
    assert_eq!(sharded.stats().expirations, reference.stats().expirations);
    assert_eq!(sharded.num_valid_documents(), 6);
}

/// One seeded stream, fed as single events to one sharded engine and as
/// bursts of one to its twin, with an armed fault, a poison document,
/// deregistrations (so the rebalancer migrates) and explicit recoveries
/// along the way. Every observable must agree after every step.
fn burst_of_one_session(window: SlidingWindow, shards: usize, faults: FaultConfig) {
    let context = format!("{shards} shards, {window:?}, {faults:?}");
    let make = || {
        ShardedItaEngine::with_faults(
            window,
            ItaConfig::default(),
            shards,
            RebalanceConfig::default(),
            faults,
        )
    };
    let (mut singles, mut bursts) = (make(), make());
    let mut rng = ScriptRng::new(0xBA7C_4000 + shards as u64);
    let mut live: Vec<QueryId> = (0..16)
        .map(|_| {
            let query = ContinuousQuery::from_weights(
                [
                    (TermId(rng.below(6) as u32), 0.6),
                    (TermId(6 + rng.below(3) as u32), 0.4),
                ],
                rng.range(1, 4),
            );
            let qid = singles.register(query.clone());
            assert_eq!(qid, bursts.register(query), "{context}");
            qid
        })
        .collect();
    let mut millis = 0u64;
    for step in 0..64u64 {
        millis += rng.below(5) as u64;
        let mut doc = Document::new(
            DocId(step),
            Timestamp::from_millis(millis),
            WeightedVector::from_weights([
                (TermId(rng.below(9) as u32), 0.1 + rng.below(5) as f64 * 0.2),
                (TermId(9), 0.3),
            ]),
        );
        match step {
            12 | 40 => {
                let shard = rng.below(shards);
                assert_eq!(
                    singles.inject_fault(shard),
                    bursts.inject_fault(shard),
                    "{context}"
                );
            }
            20 => {
                // Thin out one shard's population: the next burst boundary
                // (of one event, on both engines) may rebalance.
                let victims: Vec<QueryId> = live
                    .iter()
                    .copied()
                    .filter(|&q| singles.shard_of(q) == 0)
                    .collect();
                for victim in victims {
                    let removed = singles.try_deregister(victim);
                    assert_eq!(removed, bursts.try_deregister(victim), "{context}");
                    if removed.is_ok() {
                        live.retain(|&q| q != victim);
                    }
                }
            }
            28 | 52 => {
                assert_eq!(
                    singles.recover_degraded(),
                    bursts.recover_degraded(),
                    "{context}"
                );
            }
            32 => doc = poison_document(doc),
            _ => {}
        }
        let single = singles.try_process(doc.clone());
        let burst = bursts.try_process_batch(vec![doc]).map(|mut outcomes| {
            assert_eq!(outcomes.len(), 1, "{context}");
            outcomes.remove(0)
        });
        assert_eq!(single, burst, "{context}: step {step} outcome diverged");
        for &q in &live {
            assert_eq!(
                singles.current_results(q),
                bursts.current_results(q),
                "{context}: step {step} results diverged on {q}"
            );
            assert_eq!(singles.query_is_stale(q), bursts.query_is_stale(q));
        }
        // Recovery time is wall clock; every other fault counter is exact.
        let fault_counters = |engine: &ShardedItaEngine| FaultStats {
            recovery_micros: 0,
            ..engine.fault_stats().expect("tracked")
        };
        assert_eq!(
            fault_counters(&singles),
            fault_counters(&bursts),
            "{context}: step {step}"
        );
        assert_eq!(singles.migrations(), bursts.migrations(), "{context}");
        assert_eq!(singles.shard_loads(), bursts.shard_loads(), "{context}");
        assert_eq!(singles.clock(), bursts.clock(), "{context}");
        let per_worker = singles.shard_stats();
        for (a, b) in per_worker.iter().zip(bursts.shard_stats()) {
            // Workers count events, not bursts, whichever way they arrived.
            assert_eq!((a.batches, b.batches), (0, 0), "{context}");
            assert_eq!(
                (
                    a.events,
                    a.expirations,
                    a.queries_touched_by_arrival,
                    a.queries_touched_by_expiration,
                    a.results_changed,
                    a.checkpoints,
                ),
                (
                    b.events,
                    b.expirations,
                    b.queries_touched_by_arrival,
                    b.queries_touched_by_expiration,
                    b.results_changed,
                    b.checkpoints,
                ),
                "{context}: step {step} worker stats diverged"
            );
        }
    }
    let faults_seen = singles.fault_stats().expect("tracked").faults;
    assert!(
        faults_seen >= shards as u64,
        "{context}: the poison never fired"
    );
}

/// `process_document(d)` and `process_batch(vec![d])` are one path — a
/// burst of one — so they must agree on everything observable: outcomes
/// (typed errors included), results, fault counters, per-worker stats and
/// migrations, under each [`FaultPolicy`] and with warm recovery off (0),
/// synced after every mutation (1) and at the default cadence (256).
#[test]
fn a_burst_of_one_is_the_single_event_under_every_policy_and_cadence() {
    let windows = [
        SlidingWindow::count_based(10),
        SlidingWindow::time_based(std::time::Duration::from_millis(20)),
    ];
    for shards in [1usize, 2, 4, 8] {
        for window in windows {
            for policy in [
                FaultPolicy::BlockUntilRecovered,
                FaultPolicy::ServeDegraded,
                FaultPolicy::FailFast,
            ] {
                for checkpoint_interval in [0usize, 1, 256] {
                    burst_of_one_session(
                        window,
                        shards,
                        FaultConfig {
                            policy,
                            checkpoint_interval,
                        },
                    );
                }
            }
        }
    }
}
