//! Per-query result sets.
//!
//! For each continuous query the ITA engine maintains a result set `R`
//! containing the current top-k documents **and** every other valid document
//! that lies above at least one of the query's local thresholds (the paper's
//! "unverified" documents). Keeping the unverified documents is what makes
//! the expiration-time *refill* incremental: the threshold search can resume
//! downwards instead of restarting from the top of the inverted lists.
//!
//! `Results` lays `R` out for the accesses the engine makes (DESIGN.md §6
//! "The layout of R"; the stage timings are in CHANGES.md's "`R` becomes a
//! ranked top-k plus an arrival-ordered queue" entry). Each entry names its document by the window's arrival
//! sequence number, as postings do, and `R` is split in two:
//!
//! * the **top-k**, a `k`-slot array in rank order (score descending, ties
//!   by ascending document id), whose last slot is `S_k`;
//! * the **rest** — the unverified documents — a queue in sequence-number
//!   order.
//!
//! An arrival is the window's newest document, so an arrival that stays out
//! of the top-k is a `push_back`. Every member of `R` has a posting at or
//! above the query's frontier, so the expiry probe reaches each of them as
//! it leaves, and the window expires oldest first: an expiring unverified
//! document is the rest's front, and leaves with a `pop_front`. Only an
//! arrival that enters the top-k (re-filing the document it demotes by
//! sequence number) and a top-k expiry (promoting the rest's best entry,
//! found by one scan) pay more than O(1); both are rare next to the touches.
//!
//! The threshold descent files in a batch. Each document it examines enters
//! the top-k at once if it ranks there, since `S_k` decides when the descent
//! stops; the document, or the entry it demotes, otherwise goes onto an
//! unsorted buffer the engine owns (`Results::insert_searched`), and the
//! rest takes them when the descent stops (`Results::file_searched`). At
//! registration the rest is empty, so building an `R` of thousands costs
//! one sort by sequence number instead of a middle insertion per document;
//! a refill's few entries are filed by binary search, as a demoted entry
//! is. Membership is not asked of `R` at all: the descent keeps its own
//! bitmap over the window (`crate::ita`).

#![deny(clippy::disallowed_types)]

use std::cmp::Ordering;
use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use cts_index::DocId;
use cts_text::Weight;

/// One entry of a query result: a document and its similarity score.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RankedDocument {
    /// The document.
    pub doc: DocId,
    /// Its similarity score `S(d|Q)`.
    pub score: f64,
}

/// One member of `R`: a valid document, by sequence number and id, and its
/// score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Entry {
    /// The document's arrival sequence number in the window.
    pub(crate) seq: u64,
    /// The document's id.
    pub(crate) doc: DocId,
    /// Its similarity score `S(d|Q)`.
    pub(crate) score: Weight,
}

impl Entry {
    fn new(seq: u64, doc: DocId, score: f64) -> Self {
        Self {
            seq,
            doc,
            score: Weight::new(score),
        }
    }

    /// Rank order: descending score, ties by ascending document id.
    fn rank(&self, other: &Entry) -> Ordering {
        other
            .score
            .cmp(&self.score)
            .then_with(|| self.doc.cmp(&other.doc))
    }
}

/// The result set `R` of one continuous query: the ranked top-k and the
/// arrival-ordered rest (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Results {
    k: usize,
    /// The best `min(k, |R|)` entries, in rank order.
    top: Vec<Entry>,
    /// Every other entry, in increasing sequence-number order; each ranks
    /// after the top-k's last.
    rest: VecDeque<Entry>,
}

impl Results {
    /// An empty `R` for a query with parameter `k ≥ 1`.
    pub(crate) fn new(k: usize) -> Self {
        Self {
            k,
            top: Vec::with_capacity(k),
            rest: VecDeque::new(),
        }
    }

    /// Number of documents in `R` (top-k plus unverified).
    pub(crate) fn len(&self) -> usize {
        self.top.len() + self.rest.len()
    }

    /// `S_k`, the `k`-th best score, or `0.0` while `R` holds fewer than `k`
    /// documents (so that any positive-scoring arrival qualifies for the
    /// top-k, matching the maintenance rules of §II/§III).
    pub(crate) fn kth_score(&self) -> f64 {
        match self.top.last() {
            Some(last) if self.top.len() == self.k => last.score.get(),
            _ => 0.0,
        }
    }

    /// The top-k, best first.
    pub(crate) fn top(&self) -> Vec<RankedDocument> {
        self.top
            .iter()
            .map(|e| RankedDocument {
                doc: e.doc,
                score: e.score.get(),
            })
            .collect()
    }

    /// Adds a document that is not in `R`, returning whether it entered the
    /// top-k.
    pub(crate) fn insert(&mut self, seq: u64, doc: DocId, score: f64) -> bool {
        let (entered, leaving) = self.enter(Entry::new(seq, doc, score));
        if let Some(entry) = leaving {
            self.file(entry);
        }
        entered
    }

    /// Adds a document the threshold descent examined, which is not in `R`:
    /// into the top-k if it ranks there, and whatever leaves for the rest —
    /// the document or the entry it demotes — onto `searched`, unsorted.
    /// [`Results::file_searched`] files them when the descent stops; until
    /// then `R` is its top-k, its rest and `searched`, and only
    /// [`Results::kth_score`] may be read.
    pub(crate) fn insert_searched(
        &mut self,
        seq: u64,
        doc: DocId,
        score: f64,
        searched: &mut Vec<Entry>,
    ) {
        let (_, leaving) = self.enter(Entry::new(seq, doc, score));
        searched.extend(leaving);
    }

    /// Files the entries a descent left on `searched` into the rest, leaving
    /// it empty. At registration the rest is empty, and one sort fills it.
    /// A refill adds a few entries to a long rest, and files each by binary
    /// search as a demoted entry is: a one-pass merge would first have to
    /// make the ring buffer contiguous, moving the whole rest.
    pub(crate) fn file_searched(&mut self, searched: &mut Vec<Entry>) {
        if self.rest.is_empty() && !searched.is_empty() {
            searched.sort_unstable_by_key(|e| e.seq);
            // The power of two that filing one entry at a time would reach:
            // an exact fit would make the next arrival copy the whole rest
            // into a new allocation.
            self.rest.reserve(searched.len().next_power_of_two());
            self.rest.extend(searched.drain(..));
        }
        for entry in searched.drain(..) {
            self.file(entry);
        }
    }

    /// Places `entry` in the top-k if it ranks there. Returns whether it did,
    /// and the entry that leaves for the rest: `entry` itself, or the one it
    /// demotes from a full top-k.
    fn enter(&mut self, entry: Entry) -> (bool, Option<Entry>) {
        let mut demoted = None;
        if self.top.len() == self.k {
            match self.top.last() {
                Some(last) if entry.rank(last).is_lt() => demoted = self.top.pop(),
                _ => return (false, Some(entry)),
            }
        }
        let at = self.top.partition_point(|e| e.rank(&entry).is_lt());
        self.top.insert(at, entry);
        (true, demoted)
    }

    /// Files `entry` into the rest by sequence number: at the back for an
    /// arrival, by binary search for a demoted or searched-out document.
    fn file(&mut self, entry: Entry) {
        if self.rest.back().is_none_or(|last| last.seq < entry.seq) {
            self.rest.push_back(entry);
        } else {
            let at = self.rest.partition_point(|e| e.seq < entry.seq);
            self.rest.insert(at, entry);
        }
    }

    /// Drops the document with sequence number `seq`, which must be the
    /// oldest valid one: no member of `R` is older. Returns `None` if it was
    /// not in `R`, and otherwise whether it was in the top-k — whose freed
    /// slot the best of the rest then takes.
    pub(crate) fn expire(&mut self, seq: u64) -> Option<bool> {
        if self.rest.front().is_some_and(|e| e.seq == seq) {
            self.rest.pop_front();
            return Some(false);
        }
        let at = self.top.iter().position(|e| e.seq == seq)?;
        self.top.remove(at);
        let best = (0..self.rest.len()).reduce(|best, i| {
            if self.rest[i].rank(&self.rest[best]).is_lt() {
                i
            } else {
                best
            }
        });
        if let Some(promoted) = best.and_then(|i| self.rest.remove(i)) {
            self.top.push(promoted);
        }
        Some(true)
    }

    /// Every entry: the top-k in rank order, then the rest in sequence
    /// order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.top.iter().chain(&self.rest)
    }

    /// Audits the layout, panicking on violation: the top-k holds
    /// `min(k, |R|)` entries in strict rank order, the rest is in strictly
    /// increasing sequence-number order, and every rest entry ranks after the
    /// top-k's last.
    pub(crate) fn check_invariants(&self) {
        assert_eq!(
            self.top.len(),
            self.k.min(self.len()),
            "the top-k holds {} of R's {} entries at k = {}",
            self.top.len(),
            self.len(),
            self.k
        );
        assert!(
            self.top.windows(2).all(|w| w[0].rank(&w[1]).is_lt()),
            "the top-k is out of rank order"
        );
        assert!(
            self.rest
                .iter()
                .zip(self.rest.iter().skip(1))
                .all(|(a, b)| a.seq < b.seq),
            "the rest is out of sequence-number order"
        );
        if let Some(last) = self.top.last() {
            assert!(
                self.rest.iter().all(|e| last.rank(e).is_lt()),
                "an entry of the rest out-ranks the top-k's last"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_corpus::ScriptRng;

    /// The paper's §III example: R = {⟨d6,0.19⟩, ⟨d2,0.17⟩, ⟨d7,0.15⟩}
    /// with k = 2 gives S_k = 0.17; d9 (0.20) arriving lifts it to 0.19.
    #[test]
    fn kth_score_matches_paper_example() {
        let mut r = Results::new(2);
        assert!(r.insert(0, DocId(6), 0.19));
        assert!(r.insert(1, DocId(2), 0.17));
        assert!(!r.insert(2, DocId(7), 0.15));
        assert_eq!(r.kth_score(), 0.17);
        assert!(r.insert(3, DocId(9), 0.20));
        assert_eq!(r.kth_score(), 0.19);
        let top: Vec<u64> = r.top().iter().map(|e| e.doc.0).collect();
        assert_eq!(top, vec![9, 6]);
        assert_eq!(r.len(), 4);
        r.check_invariants();
    }

    #[test]
    fn kth_score_with_too_few_documents_is_zero() {
        let mut r = Results::new(3);
        assert_eq!(r.kth_score(), 0.0);
        r.insert(0, DocId(1), 0.4);
        assert_eq!(r.kth_score(), 0.0);
        let mut r = Results::new(1);
        r.insert(0, DocId(1), 0.4);
        assert_eq!(r.kth_score(), 0.4);
    }

    /// The reference: every entry in one `Vec`, sorted per read.
    fn ranked(model: &[Entry]) -> Vec<Entry> {
        let mut ranked = model.to_vec();
        ranked.sort_by(Entry::rank);
        ranked
    }

    /// Random interleavings of the engine's operations — arrival inserts
    /// (the newest sequence number), single inserts of any valid document
    /// not in R (filed by binary search, as a demoted entry is), descent
    /// batches (several such documents through `insert_searched`, then one
    /// `file_searched`, on an empty and on a non-empty R), expiries of the
    /// oldest sequence number, among them top-k expiries that promote —
    /// against a flat list sorted by rank, read back after every op. A small
    /// score palette makes ties routine.
    #[test]
    fn random_operations_track_a_sorted_reference() {
        let palette = [0.1, 0.2, 0.2, 0.4, 0.7, 0.9];
        let mut top_k_expiries = 0;
        let mut batches = [0usize; 2];
        let mut searched = Vec::new();
        for k in [1usize, 2, 10] {
            for seed in 0..12u64 {
                let mut rng = ScriptRng::new(0x2E5_0000 + seed * 16 + k as u64);
                let mut r = Results::new(k);
                let mut model: Vec<Entry> = Vec::new();
                // The window holds the sequence numbers `front..next`; each
                // run opens with a descent batch on an empty R over a
                // window of up to 40 documents, as a registration does.
                let (mut front, mut next) = (0u64, 1 + rng.below(40) as u64);
                for step in 0..600 {
                    let context = format!("k {k} seed {seed} step {step}");
                    let random_entry = |rng: &mut ScriptRng, seq: u64| Entry {
                        seq,
                        doc: DocId(rng.below(1_000) as u64 * 1_000 + seq),
                        score: Weight::new(*rng.pick(&palette)),
                    };
                    let mut absent: Vec<u64> = (front..next)
                        .filter(|s| model.iter().all(|e| e.seq != *s))
                        .collect();
                    match if step == 0 { 6 } else { rng.below(10) } {
                        0..=3 => {
                            let seq = next;
                            next += 1;
                            if rng.chance(0.6) {
                                let e = random_entry(&mut rng, seq);
                                let entered = r.insert(e.seq, e.doc, e.score.get());
                                model.push(e);
                                assert_eq!(
                                    entered,
                                    ranked(&model)[..k.min(model.len())].contains(&e)
                                );
                            }
                        }
                        4..=5 => {
                            if let Some(&seq) = absent.get(rng.below(absent.len().max(1))) {
                                let e = random_entry(&mut rng, seq);
                                r.insert(e.seq, e.doc, e.score.get());
                                model.push(e);
                            }
                        }
                        6 => {
                            let count = if step == 0 || rng.chance(0.2) {
                                absent.len()
                            } else {
                                rng.below(5)
                            }
                            .min(absent.len());
                            if count > 0 {
                                batches[usize::from(!model.is_empty())] += 1;
                            }
                            for _ in 0..count {
                                let seq = absent.swap_remove(rng.below(absent.len()));
                                let e = random_entry(&mut rng, seq);
                                r.insert_searched(e.seq, e.doc, e.score.get(), &mut searched);
                                model.push(e);
                                // The descent's stop test reads S_k mid-batch.
                                let kth = ranked(&model).get(k - 1).map_or(0.0, |e| e.score.get());
                                assert_eq!(r.kth_score(), kth, "{context}: mid-batch S_k");
                            }
                            r.file_searched(&mut searched);
                            assert!(searched.is_empty(), "{context}: the batch was not filed");
                        }
                        _ if front < next => {
                            let member = model.iter().any(|e| e.seq == front);
                            let in_top = ranked(&model).iter().take(k).any(|e| e.seq == front);
                            let expected = member.then_some(in_top);
                            assert_eq!(r.expire(front), expected, "{context}");
                            top_k_expiries += usize::from(expected == Some(true));
                            model.retain(|e| e.seq != front);
                            front += 1;
                        }
                        _ => {}
                    }
                    r.check_invariants();
                    let expected = ranked(&model);
                    let expected_top: Vec<RankedDocument> = expected
                        .iter()
                        .take(k)
                        .map(|e| RankedDocument {
                            doc: e.doc,
                            score: e.score.get(),
                        })
                        .collect();
                    assert_eq!(r.top(), expected_top, "{context}");
                    assert_eq!(r.len(), model.len(), "{context}");
                    let kth = expected.get(k - 1).map_or(0.0, |e| e.score.get());
                    assert_eq!(r.kth_score(), kth, "{context}");
                    let mut members: Vec<Entry> = r.iter().copied().collect();
                    members.sort_by_key(|e| e.seq);
                    let mut expected_members = model.clone();
                    expected_members.sort_by_key(|e| e.seq);
                    assert_eq!(members, expected_members, "{context}");
                }
            }
        }
        assert!(
            batches[0] >= 36 && batches[1] > 500,
            "descent batches on an empty and a non-empty R: {batches:?}"
        );
        assert!(top_k_expiries > 100, "only {top_k_expiries} top-k expiries");
    }
}
