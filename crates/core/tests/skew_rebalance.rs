//! Adversarial-skew stress test for the sharded engine's rebalancer.
//!
//! The attack: a query population engineered to live entirely on **one**
//! shard — built by registering under a disabled rebalancer and
//! deregistering every query whose hash placement is not shard 0, the
//! static-partitioning failure mode FAST-style frequency-adaptive systems
//! exist to avoid. The engine is then re-armed and must (a) migrate load
//! until every shard's query count is within 2× of uniform, and (b) keep
//! every result and every event outcome **byte-identical** to the
//! single-shard reference throughout — migration moves threshold trees,
//! result sets and shadow-index term filters, and none of it may be
//! observable from the outside — while (c) no shard reads its own store: the
//! coordinator ships every migrated term's window postings with the install.

use cts_core::testkit::{generate_script, Op, RunOptions, ScriptConfig};
use cts_core::validate::assert_lockstep_event;
use cts_core::{ContinuousQuery, Engine, ItaConfig, ItaEngine, RebalanceConfig, ShardedItaEngine};
use cts_index::{Document, QueryId, SlidingWindow};
use cts_text::TermId;

/// Queries to register before the cull. Large enough that every shard count
/// below keeps at least a handful of shard-0 survivors.
const REGISTERED: u32 = 64;

/// Builds the skewed pair: a sharded engine whose whole query population
/// sits on shard 0 (rebalancer disabled during construction), plus the
/// single-shard reference holding the identical surviving queries.
fn engineer_skew(
    window: SlidingWindow,
    shards: usize,
    seed: u64,
) -> (ItaEngine, ShardedItaEngine, Vec<(QueryId, ContinuousQuery)>) {
    let mut reference = ItaEngine::new(window, ItaConfig::default());
    let mut sharded = ShardedItaEngine::with_rebalance(window, shards, RebalanceConfig::disabled());
    let mut rng = cts_core::testkit::ScriptRng::new(seed);
    let mut qids = Vec::new();
    for _ in 0..REGISTERED {
        let terms = rng.range(1, 4);
        let weights: Vec<(cts_text::TermId, f64)> = (0..terms)
            .map(|_| {
                (
                    cts_text::TermId(rng.below(24) as u32),
                    0.1 + rng.below(8) as f64 * 0.1,
                )
            })
            .collect();
        let query = ContinuousQuery::from_weights(weights, rng.range(1, 4));
        let qa = reference.register(query.clone());
        let qb = sharded.register(query.clone());
        assert_eq!(qa, qb);
        qids.push((qa, query));
    }
    // Cull everything that does not hash to shard 0.
    let survivors: Vec<(QueryId, ContinuousQuery)> = qids
        .iter()
        .filter(|(q, _)| sharded.shard_of(*q) == 0)
        .cloned()
        .collect();
    assert!(
        survivors.len() >= 4,
        "hash left too few shard-0 queries to make the test meaningful"
    );
    for (q, _) in &qids {
        if !survivors.iter().any(|(survivor, _)| survivor == q) {
            assert!(reference.deregister(*q));
            assert!(sharded.deregister(*q));
        }
    }
    // The skew is real: one shard holds every query, the rest idle.
    assert_eq!(sharded.migrations(), 0);
    let loads = sharded.shard_loads();
    assert_eq!(loads[0], survivors.len(), "loads {loads:?}");
    assert!(loads[1..].iter().all(|&l| l == 0), "loads {loads:?}");
    (reference, sharded, survivors)
}

/// What each shard's installs must have filed, given that every migration
/// ran over `window` onto a shard that hosted nothing: per shard, the window
/// postings of the distinct terms of the queries it now hosts (a term two
/// migrated queries share went live, and was filed, once).
fn shipped_postings(
    sharded: &ShardedItaEngine,
    survivors: &[(QueryId, ContinuousQuery)],
    window: &[Document],
    shards: usize,
) -> Vec<u64> {
    let mut terms: Vec<Vec<TermId>> = vec![Vec::new(); shards];
    for (q, query) in survivors {
        let shard = sharded.assigned_shard(*q).expect("survivor is routable");
        if shard != 0 {
            terms[shard].extend(query.terms().map(|(term, _)| term));
        }
    }
    terms
        .iter_mut()
        .map(|terms| {
            terms.sort_unstable();
            terms.dedup();
            let postings = terms
                .iter()
                .flat_map(|term| window.iter().filter(|doc| doc.composition.contains(*term)));
            postings.count() as u64
        })
        .collect()
}

#[test]
fn rebalancer_spreads_an_all_on_one_shard_population_and_stays_exact() {
    for shards in [2usize, 4, 8] {
        let window = SlidingWindow::count_based(24);
        let (mut reference, mut sharded, survivors) =
            engineer_skew(window, shards, 0x5C3A_0000 + shards as u64);
        let qids: Vec<QueryId> = survivors.iter().map(|(q, _)| *q).collect();
        // Every query was registered over an empty window: nothing filed yet.
        let before = sharded.shard_index_stats();
        assert!(before.iter().all(|s| s.register_postings_touched == 0));
        let mut shipped: Option<(u64, Vec<u64>)> = None;

        // Re-arm the rebalancer; the next boundary repairs the skew.
        sharded.set_rebalance_config(RebalanceConfig::default());
        let config = ScriptConfig {
            initial_queries: 0,
            events: 160,
            register_probability: 0.0,
            deregister_probability: 0.0,
            max_batch: 12,
            ..ScriptConfig::batched()
        };
        let script = generate_script(&config, 0x5C3A_1000 + shards as u64);
        for op in &script.ops {
            match op {
                Op::Feed(doc) => {
                    assert_lockstep_event(&mut reference, &mut sharded, doc, &qids);
                }
                Op::FeedBatch(docs) => {
                    let expected = reference.process_batch(docs.clone());
                    let actual = sharded.process_batch(docs.clone());
                    assert_eq!(expected, actual, "batch outcomes diverged");
                    for &q in &qids {
                        assert_eq!(
                            reference.current_results(q),
                            sharded.current_results(q),
                            "results diverged on {q}"
                        );
                    }
                }
                _ => unreachable!("script has no churn"),
            }
            // The first boundary repairs the whole skew, over a window that
            // holds exactly the first op's documents.
            shipped.get_or_insert_with(|| {
                let window = match op {
                    Op::Feed(doc) => vec![doc.clone()],
                    Op::FeedBatch(docs) => docs.clone(),
                    _ => unreachable!("script has no churn"),
                };
                assert!(window.len() < 24, "the first op already slid the window");
                let expected = shipped_postings(&sharded, &survivors, &window, shards);
                (sharded.migrations(), expected)
            });
        }
        // A migration reads no shard store: the coordinator resolved every
        // migrated term's postings against its mirror, and each destination
        // filed exactly those.
        let (migrations, expected) = shipped.expect("the script fed something");
        assert_eq!(
            sharded.migrations(),
            migrations,
            "a later boundary migrated"
        );
        for (shard, stats) in sharded.shard_index_stats().iter().enumerate() {
            assert_eq!(
                stats.register_entries_walked, 0,
                "{shards} shards: shard {shard} walked its own store"
            );
            assert_eq!(
                stats.register_postings_touched, expected[shard],
                "{shards} shards: shard {shard} filed something other than what was shipped"
            );
        }
        assert!(
            expected.iter().sum::<u64>() > 0,
            "no migrated term had postings"
        );

        // The rebalancer did move load...
        assert!(
            sharded.migrations() > 0,
            "{shards} shards: no query migrated off the hot shard"
        );
        // ...to within 2× of uniform (the acceptance bound; the default
        // policy actually levels tighter than this).
        let loads = sharded.shard_loads();
        assert_eq!(loads.iter().sum::<usize>(), qids.len());
        let uniform = qids.len() as f64 / shards as f64;
        let max = *loads.iter().max().unwrap();
        assert!(
            (max as f64) <= (2.0 * uniform).max(1.0),
            "{shards} shards: loads {loads:?} exceed 2x uniform ({uniform:.2})"
        );
        // Routing survived every migration.
        for &q in &qids {
            let shard = sharded.assigned_shard(q).expect("survivor is routable");
            assert!(shard < shards);
            assert!(
                !sharded.current_results(q).is_empty() || reference.current_results(q).is_empty()
            );
        }
    }
}

/// The same skewed start driven through the generic testkit runner (with
/// churn re-enabled mid-run), as a second, fully scripted angle on
/// migration exactness.
#[test]
fn skewed_start_survives_scripted_churn() {
    for shards in [4usize, 8] {
        let window = SlidingWindow::count_based(18);
        let (reference, mut sharded, _) =
            engineer_skew(window, shards, 0x5C3A_2000 + shards as u64);
        sharded.set_rebalance_config(RebalanceConfig {
            max_over_ideal: 1.0,
            ..RebalanceConfig::default()
        });
        // Hand the pre-skewed engines to the lockstep runner for a churned,
        // batched continuation. (The runner tracks only queries registered
        // through the script; the pre-existing survivors keep being
        // maintained underneath and any divergence in their upkeep shows up
        // in the compared outcomes.)
        let mut engines: Vec<Box<dyn Engine>> = vec![Box::new(reference), Box::new(sharded)];
        let config = ScriptConfig {
            initial_queries: 2,
            events: 140,
            register_probability: 0.15,
            deregister_probability: 0.08,
            ..ScriptConfig::batched()
        };
        let script = generate_script(&config, 0x5C3A_3000 + shards as u64);
        if let Err(failure) =
            cts_core::testkit::run_script(&mut engines, &script, &RunOptions::default())
        {
            panic!(
                "skewed continuation diverged (seed {:#x})\n  {failure}\n{script}",
                script.seed
            );
        }
    }
}
