//! Differential suite pinning the determinism of the cold-shadow-term
//! lifecycle under warm recovery: registration bursts mint cold terms,
//! poison documents and injected faults kill shard workers mid-event, and
//! the supervised resurrection replays the checkpoint + op log — all while
//! staying in byte-lockstep with a fault-free single-shard reference.
//!
//! This is the suite CI runs with `--features invariant-checks`, turning on
//! the per-op structural audits in [`cts_core::testkit::run_script`]: after
//! **every** op, every engine's `check_invariants` walks the threshold
//! trees, term refcounts, cold-term filter agreement and (for the sharded
//! engine) the routing tables of every healthy shard. A replay that
//! reconstructs state that merely *answers* correctly but is structurally
//! wrong fails here, not three PRs later.

use cts_core::testkit::{assert_script_equivalence, ScriptConfig};
use cts_core::{Engine, ItaConfig, ItaEngine, ShardedItaEngine};
use cts_index::SlidingWindow;

fn pair(window: SlidingWindow, shards: usize) -> Vec<Box<dyn Engine>> {
    vec![
        Box::new(ItaEngine::new(window, ItaConfig::default())),
        Box::new(ShardedItaEngine::new(window, ItaConfig::default(), shards)),
    ]
}

#[test]
fn cold_terms_survive_warm_replay_across_shard_counts() {
    // The chaos shape with the burst knobs turned up: bursts mint batches of
    // cold terms, and the elevated fault rate forces each shard through
    // several checkpoint + op-log replays per script. Reference and
    // sharded engines must agree byte-for-byte through every recovery.
    let config = ScriptConfig {
        events: 220,
        burst_register_probability: 0.18,
        max_burst_registers: 10,
        ..ScriptConfig::chaos_storm()
    };
    for shards in [1usize, 2, 4, 8] {
        let window = SlidingWindow::count_based(24);
        assert_script_equivalence(
            &|| pair(window, shards),
            &config,
            0x5EED_7000 + shards as u64,
        );
    }
}

#[test]
fn cold_term_listing_is_sorted_however_terms_went_cold() {
    // The replay paths sweep `cold_terms()` in listing order, so that order
    // must be deterministic no matter the order in which registration marked
    // terms cold. The cold set is a BTreeSet precisely for this; pin it.
    use cts_index::InvertedIndex;
    use cts_text::TermId;

    let mut index = InvertedIndex::new();
    for term in [9u32, 2, 40, 17, 4, 31, 0, 25] {
        index.mark_cold(TermId(term));
    }
    let listed: Vec<u32> = index.cold_terms().iter().map(|t| t.0).collect();
    let mut sorted = listed.clone();
    sorted.sort_unstable();
    assert_eq!(listed, sorted, "cold_terms() must list in ascending order");
    assert_eq!(listed, vec![0, 2, 4, 9, 17, 25, 31, 40]);
}
