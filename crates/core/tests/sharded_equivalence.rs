//! Randomized differential test: [`ShardedItaEngine`] must be **exactly**
//! equivalent to the single-shard [`ItaEngine`] — byte-identical top-k on
//! every query after every event, and identical `EventOutcome` accounting
//! (expirations, touched queries, changed results) — across shard counts
//! {1, 2, 4, 8}, under both count- and time-based windows, with query
//! registration and deregistration interleaved into the stream, and with
//! the skew-aware rebalancer migrating queries mid-run.
//!
//! All of the mechanics — the seeded op-script generator, the lockstep
//! runner, and the failure path that echoes the seed and a minimized
//! reproduction script — live in [`cts_core::testkit`]; this file only
//! states *which* engine pairs and stream shapes must agree. The default
//! [`ScriptConfig`] is adversarial on purpose: a small vocabulary and a
//! discrete weight palette force long tie runs and dense term sharing
//! between queries, so shadow-index backfill (registration after traffic),
//! list retirement (deregistration), refill after top-k expiry and roll-up
//! all fire constantly.

use std::time::Duration;

use cts_core::testkit::{assert_script_equivalence, LoopRegister, ScriptConfig};
use cts_core::{Engine, ItaConfig, ItaEngine, RebalanceConfig, ShardedItaEngine};
use cts_index::SlidingWindow;

/// The reference/candidate pair every scenario drives: a single-shard
/// [`ItaEngine`] against a [`ShardedItaEngine`] with `shards` workers.
fn pair(window: SlidingWindow, shards: usize) -> Vec<Box<dyn Engine>> {
    vec![
        Box::new(ItaEngine::new(window, ItaConfig::default())),
        Box::new(ShardedItaEngine::new(window, ItaConfig::default(), shards)),
    ]
}

/// Same pair, but with an aggressive rebalancer so migrations fire many
/// times within a short script (trigger exactly at the uniform share).
fn eager_rebalance_pair(window: SlidingWindow, shards: usize) -> Vec<Box<dyn Engine>> {
    vec![
        Box::new(ItaEngine::new(window, ItaConfig::default())),
        Box::new(ShardedItaEngine::with_rebalance(
            window,
            ItaConfig::default(),
            shards,
            RebalanceConfig {
                max_over_ideal: 1.0,
                ..RebalanceConfig::default()
            },
        )),
    ]
}

#[test]
fn sharded_matches_single_shard_under_count_based_windows() {
    let config = ScriptConfig::default();
    for shards in [1usize, 2, 4, 8] {
        let window = SlidingWindow::count_based(30);
        assert_script_equivalence(
            &|| pair(window, shards),
            &config,
            0x5EED_0000 + shards as u64,
        );
    }
}

/// The runner compares engine-level observables, and
/// `ShardedItaEngine::num_valid_documents` is served by shard 0 — so this
/// scenario keeps the concrete engines (`&mut E` is an `Engine`) and
/// asserts afterwards that **every** shard's shadow index mirrors the
/// reference window exactly. A shard ≥ 1 mis-expiring its mirror cannot
/// hide behind a lucky query placement here.
#[test]
fn every_shard_mirrors_the_reference_window() {
    use cts_core::testkit::{generate_script, run_script, RunOptions};

    for shards in [2usize, 4, 8] {
        let window = SlidingWindow::count_based(30);
        let mut reference = ItaEngine::new(window, ItaConfig::default());
        let mut sharded = ShardedItaEngine::new(window, ItaConfig::default(), shards);
        let script = generate_script(
            &ScriptConfig {
                events: 200,
                ..ScriptConfig::batched()
            },
            0x5EED_4000 + shards as u64,
        );
        {
            let mut engines: Vec<Box<dyn Engine + '_>> =
                vec![Box::new(&mut reference), Box::new(&mut sharded)];
            if let Err(failure) = run_script(&mut engines, &script, &RunOptions::default()) {
                panic!("diverged (seed {:#x}): {failure}\n{script}", script.seed);
            }
        }
        let full_docs = reference.index_stats().documents;
        for (shard, stats) in sharded.shard_index_stats().iter().enumerate() {
            assert_eq!(
                stats.documents, full_docs,
                "{shards}-shard engine: shard {shard} window mirror drifted"
            );
        }
    }
}

#[test]
fn sharded_matches_single_shard_under_time_based_windows() {
    // ~40ms window over 0–4ms arrival gaps: bursts of multi-document expiry.
    let config = ScriptConfig::default();
    for shards in [1usize, 2, 4, 8] {
        let window = SlidingWindow::time_based(Duration::from_millis(40));
        assert_script_equivalence(
            &|| pair(window, shards),
            &config,
            0x5EED_1000 + shards as u64,
        );
    }
}

#[test]
fn sharded_matches_single_shard_with_heavy_query_churn() {
    // A tighter window and doubled churn probabilities, so
    // expiration-triggered refills dominate and the rebalancer sees the
    // query population move constantly.
    let config = ScriptConfig {
        events: 400,
        register_probability: 0.2,
        deregister_probability: 0.1,
        ..ScriptConfig::default()
    };
    for shards in [2usize, 8] {
        let window = SlidingWindow::count_based(12);
        assert_script_equivalence(
            &|| pair(window, shards),
            &config,
            0x5EED_2000 + shards as u64,
        );
    }
}

/// The registration-heavy axis: [`ScriptConfig::churn_storm`] scripts mix
/// [`cts_core::testkit::Op::RegisterBurst`]s into the churn, and the engine
/// set pits every registration strategy against the reference at once — a
/// [`LoopRegister`]-pinned twin (bulk path disabled) and the sharded engine's
/// one-round-trip-per-shard burst fan-out. Bulk merge, lists filed from
/// shipped postings and the per-shard burst protocol must all be
/// byte-invisible.
fn churn_storm_engines(window: SlidingWindow, shards: usize) -> Vec<Box<dyn Engine>> {
    vec![
        Box::new(ItaEngine::new(window, ItaConfig::default())),
        Box::new(LoopRegister(ItaEngine::new(window, ItaConfig::default()))),
        Box::new(ShardedItaEngine::new(window, ItaConfig::default(), shards)),
    ]
}

#[test]
fn churn_storm_registration_bursts_hold_across_shard_counts() {
    let config = ScriptConfig {
        events: 260,
        ..ScriptConfig::churn_storm()
    };
    for shards in [1usize, 2, 4, 8] {
        let window = SlidingWindow::count_based(24);
        assert_script_equivalence(
            &|| churn_storm_engines(window, shards),
            &config,
            0x5EED_5000 + shards as u64,
        );
    }
}

#[test]
fn churn_storm_survives_eager_migration() {
    // Registration bursts land whole shard-groups of fresh queries at once —
    // exactly the imbalance a trigger-at-uniform-share rebalancer pounces
    // on, so bursts and migrations interleave densely here.
    let config = ScriptConfig {
        events: 240,
        ..ScriptConfig::churn_storm()
    };
    for shards in [2usize, 4] {
        let window = SlidingWindow::count_based(20);
        assert_script_equivalence(
            &|| eager_rebalance_pair(window, shards),
            &config,
            0x5EED_6000 + shards as u64,
        );
    }
}

#[test]
fn sharded_matches_single_shard_with_eager_migration() {
    // Trigger ratio 1.0: any imbalance the hash placement or churn creates
    // is repaired immediately, so query state migrates (threshold trees,
    // result sets, shadow-filter references) many times per script — and
    // the results must not move by a byte.
    let config = ScriptConfig {
        events: 300,
        register_probability: 0.15,
        deregister_probability: 0.10,
        ..ScriptConfig::batched()
    };
    for shards in [2usize, 4] {
        let window = SlidingWindow::count_based(25);
        assert_script_equivalence(
            &|| eager_rebalance_pair(window, shards),
            &config,
            0x5EED_3000 + shards as u64,
        );
    }
}
