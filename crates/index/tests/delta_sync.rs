//! Randomized differential test: a copy kept in step through `sync_from`
//! must equal a fresh `clone` of the source after every sync.
//!
//! The shard workers' recovery checkpoint is maintained by
//! [`DenseArena::sync_from`] / [`DocumentStore::sync_from`] — copy the slots
//! dirtied and the FIFO delta since the last sync, not the structure. That is
//! only sound if no mutation can escape the change record, so these tests
//! drive every mutating accessor in seeded random interleavings with syncs
//! and hold the synced copy against `clone()`.

use std::sync::Arc;

use cts_core::testkit::ScriptRng;
use cts_index::{DenseArena, DocId, Document, DocumentStore, LiveTerms, Timestamp};
use cts_text::{TermId, WeightedVector};

fn contents(arena: &DenseArena<Vec<u32>>) -> Vec<(usize, Vec<u32>)> {
    arena.iter().map(|(id, v)| (id, v.clone())).collect()
}

/// Asserts the synced copy is what a clone taken now would be.
fn assert_in_step(copy: &DenseArena<Vec<u32>>, live: &DenseArena<Vec<u32>>, context: &str) {
    let clone = live.clone();
    assert!(*copy == clone, "{context}: synced copy != clone");
    assert_eq!(contents(copy), contents(&clone), "{context}");
    assert_eq!(copy.len(), clone.len(), "{context}");
}

#[test]
fn arena_sync_equals_clone_under_random_interleavings() {
    for seed in 0..24u64 {
        let mut rng = ScriptRng::new(0xA7E4_0000 + seed);
        let mut live: DenseArena<Vec<u32>> = DenseArena::new();
        let mut copy: DenseArena<Vec<u32>> = DenseArena::new();
        let ids = 40;
        for step in 0..600u32 {
            let id = rng.below(ids);
            match rng.below(7) {
                0 => {
                    live.insert(id, vec![step]);
                }
                1 => live.get_or_default(id).push(step),
                2 => {
                    if let Some(value) = live.get_mut(id) {
                        value.push(step);
                    }
                }
                3 => {
                    live.remove(id);
                }
                4 => {
                    // Vacate and refill between two syncs: the copy must end
                    // up with the new value, not keep or lose the old one.
                    live.remove(id);
                    live.insert(id, vec![step, step]);
                }
                5 if rng.chance(0.2) => {
                    for value in live.values_mut() {
                        value.push(step);
                    }
                }
                6 if rng.chance(0.3) => {
                    // Take only some of the values: the rest stay unmarked
                    // and unchanged.
                    let take = rng.below(4);
                    for value in live.values_mut().take(take) {
                        value.clear();
                    }
                }
                _ => {}
            }
            if rng.chance(0.08) {
                copy.sync_from(&mut live);
                assert_in_step(&copy, &live, &format!("seed {seed} step {step}"));
                if rng.chance(0.25) {
                    // A warm recovery: the live side is replaced by a clone
                    // of the copy, which must carry no stale change record
                    // and keep syncing into the same copy.
                    live = copy.clone();
                }
            }
        }
        copy.sync_from(&mut live);
        assert_in_step(&copy, &live, &format!("seed {seed} end"));
    }
}

#[test]
fn every_mutable_accessor_is_recorded() {
    let mut live: DenseArena<Vec<u32>> = DenseArena::new();
    let mut copy = DenseArena::new();
    for id in 0..6 {
        live.insert(id, vec![id as u32]);
    }
    copy.sync_from(&mut live);
    assert_in_step(&copy, &live, "after insert");

    live.get_mut(1).unwrap().push(10);
    copy.sync_from(&mut live);
    assert_in_step(&copy, &live, "after get_mut");

    live.get_or_default(2).push(20); // occupied slot
    live.get_or_default(9).push(90); // vacant slot beyond the grown range
    copy.sync_from(&mut live);
    assert_in_step(&copy, &live, "after get_or_default");

    assert_eq!(live.insert(3, vec![30]), Some(vec![3])); // replace in place
    copy.sync_from(&mut live);
    assert_in_step(&copy, &live, "after replacing insert");

    live.remove(4);
    copy.sync_from(&mut live);
    assert_in_step(&copy, &live, "after remove");
    assert!(copy.get(4).is_none());

    for value in live.values_mut() {
        value.push(99);
    }
    copy.sync_from(&mut live);
    assert_in_step(&copy, &live, "after values_mut");

    // Reads record nothing: a sync after reads only leaves the copy alone.
    let _ = (live.get(1), live.contains(2), live.iter().count());
    let before = contents(&copy);
    copy.sync_from(&mut live);
    assert_eq!(contents(&copy), before);
}

#[test]
fn term_arena_sync_follows_the_dense_core() {
    // A per-term arena is a dense arena keyed through a live-term set; with
    // live-slot keys the pair must stay in step through slot recycling.
    let (mut keys, mut keys_copy) = (LiveTerms::live_slots(), LiveTerms::live_slots());
    let mut live: DenseArena<Vec<u32>> = DenseArena::new();
    let mut copy: DenseArena<Vec<u32>> = DenseArena::new();
    for (term, value) in [(7, 1), (3, 2)] {
        assert!(keys.acquire(TermId(term)));
        live.get_or_default(keys.key(TermId(term)).unwrap())
            .push(value);
    }
    keys_copy.sync_from(&mut keys);
    copy.sync_from(&mut live);
    assert!(copy == live.clone() && keys_copy == keys);
    live.get_mut(keys.key(TermId(7)).unwrap()).unwrap().push(3);
    // Term 3 dies and its slot goes to term 90,000 between two syncs.
    live.remove(keys.release(TermId(3)).unwrap());
    assert!(keys.acquire(TermId(90_000)));
    live.get_or_default(keys.key(TermId(90_000)).unwrap())
        .push(4);
    keys_copy.sync_from(&mut keys);
    copy.sync_from(&mut live);
    assert!(copy == live.clone() && keys_copy == keys);
    let of = |term: u32| keys_copy.key(TermId(term)).and_then(|key| copy.get(key));
    assert_eq!(of(7), Some(&vec![1, 3]));
    assert_eq!(of(3), None);
    assert_eq!(of(90_000), Some(&vec![4]));
    assert!(
        copy.slot_capacity() < 64,
        "slots follow live terms, not ids"
    );
}

fn doc(id: u64) -> Arc<Document> {
    Arc::new(Document::new(
        DocId(id),
        Timestamp::from_millis(id),
        WeightedVector::from_weights([(TermId((id % 11) as u32), 0.25)]),
    ))
}

fn order(store: &DocumentStore) -> Vec<u64> {
    store.iter().map(|d| d.id.0).collect()
}

fn assert_store_in_step(copy: &DocumentStore, live: &DocumentStore, context: &str) {
    let clone = live.clone();
    assert!(*copy == clone, "{context}: synced store != clone");
    assert_eq!(order(copy), order(&clone), "{context}");
    assert_eq!(copy.len(), clone.len(), "{context}");
    assert_eq!(copy.total_postings(), clone.total_postings(), "{context}");
    for d in clone.iter() {
        assert!(copy.contains(d.id), "{context}: copy lost {}", d.id);
    }
}

/// Slides a count-based window of `window` documents, syncing every
/// `interval` arrivals.
fn slide_and_sync(window: usize, interval: usize, arrivals: u64) {
    let mut live = DocumentStore::new();
    let mut copy = DocumentStore::new();
    for id in 0..arrivals {
        live.push_shared(doc(id));
        while live.len() > window {
            live.pop_oldest();
        }
        if (id + 1) % interval as u64 == 0 {
            copy.sync_from(&mut live);
            assert_store_in_step(&copy, &live, &format!("window {window}, arrival {id}"));
        }
    }
}

#[test]
fn store_sync_replays_the_fifo_delta() {
    // The window is longer than the interval: every sync after the first is
    // a pure delta — 256 pops from the front, 256 pushes at the back.
    slide_and_sync(1_000, 256, 3_000);
}

#[test]
fn store_sync_survives_a_window_shorter_than_the_interval() {
    // A window of 100 synced every 256 arrivals: every document the copy
    // holds is gone by the next sync, and 156 arrivals came and went unseen.
    slide_and_sync(100, 256, 1_500);
    // The boundary: exactly as many pops as the copy holds.
    slide_and_sync(256, 256, 1_500);
    slide_and_sync(255, 256, 1_500);
}

#[test]
fn store_sync_falls_back_after_an_out_of_order_removal() {
    let mut live = DocumentStore::new();
    let mut copy = DocumentStore::new();
    for id in 0..20 {
        live.push_shared(doc(id));
    }
    copy.sync_from(&mut live);
    // Front removal by id is a pop; the delta stays replayable.
    assert!(live.remove(DocId(0)).is_some());
    live.push_shared(doc(20));
    copy.sync_from(&mut live);
    assert_store_in_step(&copy, &live, "front removal");
    // A removal from the middle is not a FIFO delta.
    assert!(live.remove(DocId(9)).is_some());
    live.push_shared(doc(21));
    live.pop_oldest();
    copy.sync_from(&mut live);
    assert_store_in_step(&copy, &live, "mid-FIFO removal");
    // Nor is one from the back — of a document the copy never saw.
    live.push_shared(doc(22));
    assert!(live.remove(DocId(22)).is_some());
    copy.sync_from(&mut live);
    assert_store_in_step(&copy, &live, "back removal");
    // The fallback clears the flag: the next sync is a delta again.
    live.push_shared(doc(23));
    live.pop_oldest();
    copy.sync_from(&mut live);
    assert_store_in_step(&copy, &live, "delta after fallback");
}

#[test]
fn store_sync_equals_clone_under_random_interleavings() {
    for seed in 0..16u64 {
        let mut rng = ScriptRng::new(0x5702_0000 + seed);
        let mut live = DocumentStore::new();
        let mut copy = DocumentStore::new();
        let mut next = 0u64;
        for step in 0..800u32 {
            match rng.below(10) {
                0..=4 => {
                    live.push_shared(doc(next));
                    next += 1;
                }
                5..=7 => {
                    live.pop_oldest();
                }
                8 if !live.is_empty() && rng.chance(0.3) => {
                    // Retract an arbitrary valid document.
                    let span = next - live.oldest().unwrap().id.0;
                    let victim = live.oldest().unwrap().id.0 + rng.below(span as usize) as u64;
                    live.remove(DocId(victim));
                }
                _ => {}
            }
            if rng.chance(0.05) {
                copy.sync_from(&mut live);
                assert_store_in_step(&copy, &live, &format!("seed {seed} step {step}"));
                if rng.chance(0.25) {
                    live = copy.clone();
                }
            }
        }
        copy.sync_from(&mut live);
        assert_store_in_step(&copy, &live, &format!("seed {seed} end"));
    }
}
