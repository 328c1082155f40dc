//! Time-window edge cases pushed through the batched path:
//!
//! * **equal-timestamp events inside one batch** — a burst arriving within
//!   the same clock tick must expire (or retain) its members exactly as the
//!   per-event loop does, on every shard count;
//! * **expiry exactly at the batch boundary** — a document whose lifetime
//!   ends precisely at the arrival time of a batch's first (or previous
//!   batch's last) event exercises the window rule's strict `<` cutoff at
//!   the seam where batches meet;
//! * **the saturating-micros path from PR 3** — a `Duration::MAX` window
//!   saturates to `u64::MAX` microseconds instead of wrapping; through
//!   `process_batch` it must behave as an infinite window, not expire the
//!   store;
//! * **a timestamp that steps backwards** — the one window rule (`now` is
//!   the latest event's arrival; expiry pops from the oldest arrival and
//!   stops at the first document still fresh) must be the same rule in every
//!   engine, the oracle's hand-written loop included.

use std::time::Duration;

use cts_core::{ContinuousQuery, Engine, ItaConfig, ItaEngine, ShardedItaEngine};
use cts_index::{DocId, Document, SlidingWindow, Timestamp, WindowKind};
use cts_reference::testkit::{assert_script_equivalence, ScriptConfig};
use cts_reference::{BruteForceOracle, NaiveConfig, NaiveEngine};
use cts_text::{TermId, WeightedVector};

fn pair(window: SlidingWindow, shards: usize) -> Vec<Box<dyn Engine>> {
    vec![
        Box::new(ItaEngine::new(window, ItaConfig::default())),
        Box::new(ShardedItaEngine::new(window, ItaConfig::default(), shards)),
    ]
}

fn doc_at(id: u64, at: Timestamp, term: u32, weight: f64) -> Document {
    Document::new(
        DocId(id),
        at,
        WeightedVector::from_weights([(TermId(term), weight)]),
    )
}

/// Zero arrival gap: every document in a batch (and across batches) shares
/// one timestamp, so a time window either keeps all of them or expires a
/// whole burst at once — the dense-tie case for the expiration scan.
#[test]
fn equal_timestamps_inside_one_batch_stay_exact() {
    let config = ScriptConfig {
        events: 180,
        max_gap_millis: 0,
        max_batch: 12,
        ..ScriptConfig::batched()
    };
    for shards in [1usize, 2, 4, 8] {
        let window = SlidingWindow::time_based(Duration::from_millis(25));
        assert_script_equivalence(
            &|| pair(window, shards),
            &config,
            0x71ED_0000 + shards as u64,
        );
    }
    // Mixed gaps (mostly zero, occasionally one): equal-timestamp *runs*
    // interleave with real clock advances.
    let config = ScriptConfig {
        events: 180,
        max_gap_millis: 1,
        max_batch: 10,
        ..ScriptConfig::batched()
    };
    for shards in [2usize, 4] {
        let window = SlidingWindow::time_based(Duration::from_millis(3));
        assert_script_equivalence(
            &|| pair(window, shards),
            &config,
            0x71ED_1000 + shards as u64,
        );
    }
}

/// Deterministic construction around a 100ms window: document `d0` arrives
/// at t=0, and the batch seams are placed so one batch *ends* at t=100ms
/// (cutoff exactly at `d0`'s arrival — the strict `<` keeps it valid) and
/// the next batch *begins* at t=100.001ms (one microsecond later — now it
/// must expire, as the first expiration of the new batch).
#[test]
fn expiry_exactly_at_the_batch_boundary() {
    let window = SlidingWindow::time_based(Duration::from_millis(100));
    for shards in [1usize, 3, 8] {
        let mut reference = ItaEngine::new(window, ItaConfig::default());
        let mut sharded = ShardedItaEngine::new(window, ItaConfig::default(), shards);
        let q = ContinuousQuery::from_weights([(TermId(0), 0.7), (TermId(1), 0.3)], 2);
        let qa = reference.register(q.clone());
        let qb = sharded.register(q);
        assert_eq!(qa, qb);

        // Batch 1 ends at exactly t = 100ms: cutoff = 100ms − 100ms = 0,
        // and d0 (arrival 0) is NOT strictly below it — still valid.
        let first = vec![
            doc_at(0, Timestamp::ZERO, 0, 0.9),
            doc_at(1, Timestamp::from_millis(40), 1, 0.6),
            doc_at(2, Timestamp::from_millis(100), 0, 0.2),
        ];
        let expected = reference.process_batch(first.clone());
        let actual = sharded.process_batch(first);
        assert_eq!(expected, actual);
        assert_eq!(expected.iter().map(|o| o.expired).sum::<usize>(), 0);
        assert_eq!(reference.num_valid_documents(), 3);
        assert_eq!(sharded.num_valid_documents(), 3);
        assert_eq!(reference.current_results(qa), sharded.current_results(qb));

        // Batch 2 begins one microsecond past the boundary: d0 expires as
        // the very first expiration of the batch, taking the top-scoring
        // document with it (a refill at the seam).
        let second = vec![
            doc_at(3, Timestamp::from_micros(100_001), 0, 0.5),
            doc_at(4, Timestamp::from_micros(140_001), 1, 0.4),
        ];
        let expected = reference.process_batch(second.clone());
        let actual = sharded.process_batch(second);
        assert_eq!(expected, actual);
        assert_eq!(expected[0].expired, 1, "d0 must expire at the seam");
        assert_eq!(expected[1].expired, 1, "d1 follows one event later");
        assert_eq!(reference.current_results(qa), sharded.current_results(qb));
        let top: Vec<u64> = reference
            .current_results(qa)
            .iter()
            .map(|r| r.doc.0)
            .collect();
        // Survivors: d2 (0.7·0.2), d3 (0.7·0.5), d4 (0.3·0.4) — the
        // boundary document d2 outscores the fresher d4.
        assert_eq!(top, vec![3, 2], "post-seam top-k");
    }
}

/// `Duration::MAX` saturates to a `u64::MAX`-microsecond window (PR 3's
/// fix; a wrapping cast would produce a near-zero window and expire
/// everything). Through the batched path the store must simply grow.
#[test]
fn saturating_micros_window_through_process_batch() {
    let window = SlidingWindow::time_based(Duration::MAX);
    assert_eq!(
        window.kind(),
        WindowKind::TimeBased {
            duration_micros: u64::MAX
        }
    );
    for shards in [1usize, 4] {
        let mut reference = ItaEngine::new(window, ItaConfig::default());
        let mut sharded = ShardedItaEngine::new(window, ItaConfig::default(), shards);
        let q = ContinuousQuery::from_weights([(TermId(0), 1.0)], 3);
        let qa = reference.register(q.clone());
        let qb = sharded.register(q);
        // Arrival times deep into the future, in one batch: nothing may
        // expire, even with the clock at ~3 million years.
        let batch: Vec<Document> = (0..40u64)
            .map(|i| {
                doc_at(
                    i,
                    Timestamp::from_secs(i * u64::from(u32::MAX)),
                    (i % 2) as u32,
                    0.1 + (i % 7) as f64 * 0.1,
                )
            })
            .collect();
        let expected = reference.process_batch(batch.clone());
        let actual = sharded.process_batch(batch);
        assert_eq!(expected, actual);
        assert!(expected.iter().all(|o| o.expired == 0));
        assert_eq!(reference.num_valid_documents(), 40);
        assert_eq!(sharded.num_valid_documents(), 40);
        assert_eq!(reference.current_results(qa), sharded.current_results(qb));
    }
}

/// A 100 ms time window over documents 10 ms apart, until document 40
/// arrives 250 ms *before* document 39 and the stream carries on from
/// there. `now` follows the latest arrival back, so nothing expires for a
/// while; when the old documents do go, the stepped-back ones behind them —
/// stale for some time by then — go with them, and until then expiry stops
/// at the first fresh document. Full-index, term-filtered and sharded ITA
/// and the naive baseline run in lockstep with the oracle, in bursts of one
/// to four events: results exact and the window sizes equal after every
/// burst, and every engine expires the same number of documents.
#[test]
fn a_timestamp_stepping_backwards_expires_alike_in_every_engine() {
    let window = SlidingWindow::time_based(Duration::from_millis(100));
    let mut oracle = BruteForceOracle::new(window);
    let mut engines: Vec<Box<dyn Engine>> = vec![
        Box::new(ItaEngine::new(window, ItaConfig::default())),
        Box::new(ItaEngine::term_filtered(window)),
        Box::new(ShardedItaEngine::new(window, ItaConfig::default(), 1)),
        Box::new(ShardedItaEngine::new(window, ItaConfig::default(), 2)),
        Box::new(NaiveEngine::new(window, NaiveConfig::default())),
    ];
    let queries = [
        ContinuousQuery::from_weights([(TermId(0), 0.8), (TermId(1), 0.6)], 3),
        ContinuousQuery::from_weights([(TermId(2), 1.0)], 2),
        ContinuousQuery::from_weights([(TermId(1), 0.5), (TermId(3), 0.5)], 4),
    ];
    let ids: Vec<_> = queries.iter().map(|q| oracle.register(q.clone())).collect();
    for engine in &mut engines {
        for (query, id) in queries.iter().zip(&ids) {
            assert_eq!(engine.register(query.clone()), *id);
        }
    }
    let arrival = |i: u64| {
        let millis = if i < 40 { 10 * i } else { 10 * i - 250 };
        Timestamp::from_millis(millis)
    };
    let docs: Vec<Document> = (0..90u64)
        .map(|i| {
            Document::new(
                DocId(i),
                arrival(i),
                WeightedVector::from_weights([
                    (TermId((i % 4) as u32), 0.1 + (i % 7) as f64 * 0.1),
                    (TermId(((i + 1) % 4) as u32), 0.05 + (i % 3) as f64 * 0.2),
                ]),
            )
        })
        .collect();
    let (mut sent, mut burst) = (0, 1);
    let mut expired_in_total = 0;
    while sent < docs.len() {
        let batch = docs[sent..(sent + burst).min(docs.len())].to_vec();
        sent += batch.len();
        burst = burst % 4 + 1;
        let expected: usize = (oracle.process_batch(batch.clone()).iter())
            .map(|o| o.expired)
            .sum();
        expired_in_total += expected;
        for engine in &mut engines {
            let expired: usize = (engine.process_batch(batch.clone()).iter())
                .map(|o| o.expired)
                .sum();
            let context = format!("{} after d{}", engine.name(), sent - 1);
            assert_eq!(expired, expected, "{context}: expired");
            assert_eq!(
                engine.num_valid_documents(),
                oracle.num_valid_documents(),
                "{context}: window size"
            );
            for id in &ids {
                assert_eq!(
                    engine.current_results(*id),
                    oracle.current_results(*id),
                    "{context}: {id}"
                );
            }
            engine.check_invariants();
        }
        if sent == 41 {
            // d40 arrived at 140 ms behind d39 at 390 ms: d29..=d39
            // (290..=390 ms, fresh at the 40 ms cutoff) are joined by d40.
            assert_eq!(oracle.num_valid_documents(), 12);
        }
        if sent == 54 {
            // now = 280 ms, cutoff 180 ms: d29 (290 ms) is fresh, so
            // everything behind it stays, d40..=d43 stale as they are.
            assert_eq!(oracle.num_valid_documents(), 25);
        }
    }
    assert!(expired_in_total > 40, "the window slid all the way through");
}
