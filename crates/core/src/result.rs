//! Per-query result sets.
//!
//! For each continuous query the ITA engine maintains a result set `R`
//! containing the current top-k documents **and** every other valid document
//! that lies above at least one of the query's local thresholds (the paper's
//! "unverified" documents). Keeping the unverified documents is what makes
//! the expiration-time *refill* incremental: the threshold search can resume
//! downwards instead of restarting from the top of the inverted lists.
//!
//! [`ResultSet`] is an ordered set of `(score, document)` pairs with
//! by-document lookup, supporting the operations the engines need:
//! score-ordered traversal, `S_k` (the k-th best score), membership tests and
//! point updates. It is two sorted `Vec`s — one in rank order, one in
//! document-id order — because `R` is small (median ≈ 50 entries at the
//! paper's operating point, a few thousand at most): lookups are a binary
//! search over a few cache lines, `S_k` is an index, and a point update
//! shifts a short tail.

#![deny(clippy::disallowed_types)]

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

/// Internal ordering key: descending score, ascending document id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ScoreKey {
    score: Weight,
    doc: DocId,
}

impl Ord for ScoreKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .score
            .cmp(&self.score)
            .then_with(|| self.doc.cmp(&other.doc))
    }
}

impl PartialOrd for ScoreKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl From<&ScoreKey> for RankedDocument {
    fn from(key: &ScoreKey) -> Self {
        RankedDocument {
            doc: key.doc,
            score: key.score.get(),
        }
    }
}

/// The result set `R` of one continuous query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResultSet {
    /// Every entry in rank order (descending score, ties by ascending
    /// document id).
    ranked: Vec<ScoreKey>,
    /// The same entries in ascending document-id order.
    by_doc: Vec<(DocId, Weight)>,
}

impl ResultSet {
    /// Creates an empty result set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Position of `doc` in `by_doc`, or where it would be inserted.
    #[inline]
    fn locate(&self, doc: DocId) -> Result<usize, usize> {
        self.by_doc.binary_search_by_key(&doc, |(d, _)| *d)
    }

    /// Drops `key` from the rank order.
    fn unrank(&mut self, key: ScoreKey) {
        if let Ok(at) = self.ranked.binary_search(&key) {
            self.ranked.remove(at);
        }
    }

    /// Inserts (or updates) `doc` with `score`.
    pub fn insert(&mut self, doc: DocId, score: f64) {
        let score = Weight::new(score);
        match self.locate(doc) {
            Ok(at) => {
                let old = std::mem::replace(&mut self.by_doc[at].1, score);
                self.unrank(ScoreKey { score: old, doc });
            }
            Err(at) => self.by_doc.insert(at, (doc, score)),
        }
        let key = ScoreKey { score, doc };
        if let Err(at) = self.ranked.binary_search(&key) {
            self.ranked.insert(at, key);
        }
    }

    /// Removes `doc`, returning its score if it was present.
    pub fn remove(&mut self, doc: DocId) -> Option<f64> {
        let at = self.locate(doc).ok()?;
        let (_, score) = self.by_doc.remove(at);
        self.unrank(ScoreKey { score, doc });
        Some(score.get())
    }

    /// Whether `doc` is in the result set.
    pub fn contains(&self, doc: DocId) -> bool {
        self.locate(doc).is_ok()
    }

    /// Number of documents in the set (top-k plus unverified extras).
    pub fn len(&self) -> usize {
        self.ranked.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ranked.is_empty()
    }

    /// The `k`-th best score `S_k`, or `0.0` when fewer than `k` documents
    /// are present (so that any positive-scoring arrival qualifies for the
    /// top-k, matching the maintenance rules of §II/§III).
    pub fn kth_score(&self, k: usize) -> f64 {
        if k == 0 {
            return f64::INFINITY;
        }
        self.ranked.get(k - 1).map_or(0.0, |e| e.score.get())
    }

    /// The top `k` documents in descending score order.
    pub fn top(&self, k: usize) -> Vec<RankedDocument> {
        self.ranked
            .iter()
            .take(k)
            .map(RankedDocument::from)
            .collect()
    }

    /// Whether `doc` currently ranks within the top `k` (ties broken by
    /// ascending document id, consistently with [`ResultSet::top`]).
    pub fn is_in_top_k(&self, doc: DocId, k: usize) -> bool {
        self.ranked.iter().take(k).any(|e| e.doc == doc)
    }

    /// Iterates over all entries in descending score order.
    pub fn iter(&self) -> impl Iterator<Item = RankedDocument> + '_ {
        self.ranked.iter().map(RankedDocument::from)
    }

    /// The lowest-ranked entry (lowest score, ties broken by highest
    /// document id — the exact inverse of [`ResultSet::top`]'s order), if
    /// any. This is the admission boundary of a bounded view: a newcomer
    /// belongs in the set iff it ranks above this entry.
    pub fn worst(&self) -> Option<RankedDocument> {
        self.ranked.last().map(RankedDocument::from)
    }

    /// Removes and returns the lowest-scored entry (used by bounded buffers
    /// such as the Naïve engine's top-`k_max` view).
    pub fn pop_worst(&mut self) -> Option<RankedDocument> {
        let worst = self.ranked.pop()?;
        if let Ok(at) = self.locate(worst.doc) {
            self.by_doc.remove(at);
        }
        Some(RankedDocument::from(&worst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: u64) -> DocId {
        DocId(i)
    }

    /// The score `r` records for `doc`, if present.
    fn score_of(r: &ResultSet, doc: DocId) -> Option<f64> {
        r.locate(doc).ok().map(|at| r.by_doc[at].1.get())
    }

    #[test]
    fn insert_and_rank_order() {
        let mut r = ResultSet::new();
        r.insert(d(6), 0.19);
        r.insert(d(2), 0.17);
        r.insert(d(7), 0.15);
        let top = r.top(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].doc, d(6));
        assert_eq!(top[1].doc, d(2));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn kth_score_matches_paper_example() {
        // Initial result {⟨d6,0.19⟩, ⟨d2,0.17⟩} with k = 2 → S_k = 0.17.
        let mut r = ResultSet::new();
        r.insert(d(6), 0.19);
        r.insert(d(2), 0.17);
        r.insert(d(7), 0.15);
        assert!((r.kth_score(2) - 0.17).abs() < 1e-12);
        // After d9 (0.20) arrives → S_k becomes 0.19.
        r.insert(d(9), 0.20);
        assert!((r.kth_score(2) - 0.19).abs() < 1e-12);
    }

    #[test]
    fn kth_score_with_too_few_documents_is_zero() {
        let mut r = ResultSet::new();
        assert_eq!(r.kth_score(3), 0.0);
        r.insert(d(1), 0.4);
        assert_eq!(r.kth_score(3), 0.0);
        assert_eq!(r.kth_score(1), 0.4);
        assert_eq!(r.kth_score(0), f64::INFINITY);
    }

    #[test]
    fn update_replaces_previous_score() {
        let mut r = ResultSet::new();
        r.insert(d(1), 0.2);
        r.insert(d(1), 0.5);
        assert_eq!(r.len(), 1);
        assert_eq!(score_of(&r, d(1)), Some(0.5));
        assert_eq!(r.top(1)[0].score, 0.5);
    }

    #[test]
    fn remove_and_membership() {
        let mut r = ResultSet::new();
        r.insert(d(1), 0.2);
        assert!(r.contains(d(1)));
        assert_eq!(r.remove(d(1)), Some(0.2));
        assert!(!r.contains(d(1)));
        assert_eq!(r.remove(d(1)), None);
        assert!(r.is_empty());
    }

    #[test]
    fn ties_are_broken_by_document_id() {
        let mut r = ResultSet::new();
        r.insert(d(30), 0.5);
        r.insert(d(10), 0.5);
        r.insert(d(20), 0.5);
        let order: Vec<u64> = r.iter().map(|e| e.doc.0).collect();
        assert_eq!(order, vec![10, 20, 30]);
        assert!(r.is_in_top_k(d(10), 1));
        assert!(!r.is_in_top_k(d(30), 2));
        assert!(r.is_in_top_k(d(30), 3));
    }

    #[test]
    fn best_worst_and_pop_worst() {
        let mut r = ResultSet::new();
        r.insert(d(1), 0.9);
        r.insert(d(2), 0.1);
        r.insert(d(3), 0.5);
        assert_eq!(r.iter().next().map(|e| e.score), Some(0.9));
        assert_eq!(r.worst().unwrap().doc, d(2));
        assert_eq!(r.worst().unwrap().score, 0.1);
        let popped = r.pop_worst().unwrap();
        assert_eq!(popped.doc, d(2));
        assert_eq!(r.len(), 2);
        assert_eq!(r.worst().unwrap().score, 0.5);
    }

    #[test]
    fn worst_breaks_ties_by_highest_doc_id() {
        let mut r = ResultSet::new();
        r.insert(d(10), 0.5);
        r.insert(d(30), 0.5);
        r.insert(d(20), 0.5);
        assert_eq!(r.worst().unwrap().doc, d(30));
        assert!(ResultSet::new().worst().is_none());
    }

    #[test]
    fn is_in_top_k_for_absent_document() {
        let r = ResultSet::new();
        assert!(!r.is_in_top_k(d(1), 5));
    }

    #[test]
    fn iter_is_descending() {
        let mut r = ResultSet::new();
        for i in 0..20u64 {
            r.insert(d(i), (i as f64) * 0.01);
        }
        let scores: Vec<f64> = r.iter().map(|e| e.score).collect();
        assert!(scores.windows(2).all(|w| w[0] >= w[1]));
    }

    /// The reference model: every entry in one `Vec`, re-sorted per read.
    fn model_ranked(model: &[(u64, f64)]) -> Vec<(u64, f64)> {
        let mut ranked = model.to_vec();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        ranked
    }

    #[test]
    fn random_updates_track_a_sorted_model() {
        use cts_corpus::ScriptRng;
        // A small score palette makes ties (ranked by document id) routine.
        let palette = [0.1, 0.2, 0.2, 0.4, 0.7, 0.9];
        for seed in 0..16u64 {
            let mut rng = ScriptRng::new(0x7E57_0000 + seed);
            let mut live = ResultSet::new();
            let mut model: Vec<(u64, f64)> = Vec::new();
            for step in 0..500 {
                let id = rng.below(60) as u64;
                match rng.below(8) {
                    0..=3 => {
                        let score = *rng.pick(&palette);
                        live.insert(d(id), score);
                        model.retain(|(doc, _)| *doc != id);
                        model.push((id, score));
                    }
                    4 | 5 => {
                        let expected = model.iter().find(|(doc, _)| *doc == id).map(|e| e.1);
                        assert_eq!(live.remove(d(id)), expected);
                        model.retain(|(doc, _)| *doc != id);
                    }
                    6 => {
                        let worst = model_ranked(&model).last().copied();
                        assert_eq!(live.pop_worst().map(|e| (e.doc.0, e.score)), worst);
                        if let Some((doc, _)) = worst {
                            model.retain(|(other, _)| *other != doc);
                        }
                    }
                    _ => {}
                }
                let ranked = model_ranked(&model);
                let k = rng.range(1, 6);
                let context = format!("seed {seed} step {step}");
                assert_eq!(live.len(), ranked.len(), "{context}");
                let all: Vec<(u64, f64)> = live.iter().map(|e| (e.doc.0, e.score)).collect();
                assert_eq!(all, ranked, "{context}");
                let top: Vec<(u64, f64)> = live.top(k).iter().map(|e| (e.doc.0, e.score)).collect();
                assert_eq!(top, ranked[..k.min(ranked.len())], "{context}");
                assert_eq!(
                    live.kth_score(k),
                    ranked.get(k - 1).map_or(0.0, |e| e.1),
                    "{context}"
                );
                assert_eq!(
                    live.is_in_top_k(d(id), k),
                    ranked.iter().take(k).any(|e| e.0 == id),
                    "{context}"
                );
                assert_eq!(
                    score_of(&live, d(id)),
                    model.iter().find(|e| e.0 == id).map(|e| e.1),
                    "{context}"
                );
                assert_eq!(live.contains(d(id)), model.iter().any(|e| e.0 == id));
            }
        }
    }
}
