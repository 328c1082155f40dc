//! The naïve baseline's materialised top-`k_max` view.
//!
//! `ResultSet` is an ordered set of `(score, document)` pairs with
//! by-document lookup: two sorted `Vec`s, one in rank order and one in
//! document-id order. A view holds at most `k_max` entries (a small multiple
//! of `k`), so a lookup is a binary search over a few cache lines and a
//! point update shifts a short tail.

use cts_core::RankedDocument;
use cts_index::DocId;
use cts_text::Weight;

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

/// One query's view: its best documents in rank order.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ResultSet {
    /// Every entry in rank order (descending score, ties by ascending
    /// document id).
    ranked: Vec<ScoreKey>,
    /// The same entries in ascending document-id order.
    by_doc: Vec<(DocId, Weight)>,
}

impl ResultSet {
    /// Creates an empty view.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Position of `doc` in `by_doc`, or where it would be inserted.
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
    pub(crate) fn insert(&mut self, doc: DocId, score: f64) {
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
    pub(crate) fn remove(&mut self, doc: DocId) -> Option<f64> {
        let at = self.locate(doc).ok()?;
        let (_, score) = self.by_doc.remove(at);
        self.unrank(ScoreKey { score, doc });
        Some(score.get())
    }

    /// Whether `doc` is in the view.
    pub(crate) fn contains(&self, doc: DocId) -> bool {
        self.locate(doc).is_ok()
    }

    /// Number of documents in the view.
    pub(crate) fn len(&self) -> usize {
        self.ranked.len()
    }

    /// The top `k` documents in descending score order.
    pub(crate) fn top(&self, k: usize) -> Vec<RankedDocument> {
        self.ranked
            .iter()
            .take(k)
            .map(RankedDocument::from)
            .collect()
    }

    /// Whether `doc` currently ranks within the top `k` (ties broken by
    /// ascending document id, consistently with [`ResultSet::top`]).
    pub(crate) fn is_in_top_k(&self, doc: DocId, k: usize) -> bool {
        self.ranked.iter().take(k).any(|e| e.doc == doc)
    }

    /// The lowest-ranked entry (lowest score, ties broken by highest
    /// document id — the exact inverse of [`ResultSet::top`]'s order), if
    /// any: a newcomer belongs in a full view iff it ranks above this entry.
    pub(crate) fn worst(&self) -> Option<RankedDocument> {
        self.ranked.last().map(RankedDocument::from)
    }

    /// Removes and returns the lowest-ranked entry.
    pub(crate) fn pop_worst(&mut self) -> Option<RankedDocument> {
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
    use cts_corpus::ScriptRng;

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
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn ties_are_broken_by_document_id() {
        let mut r = ResultSet::new();
        r.insert(d(30), 0.5);
        r.insert(d(10), 0.5);
        r.insert(d(20), 0.5);
        let order: Vec<u64> = r.top(3).iter().map(|e| e.doc.0).collect();
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
        assert_eq!(r.top(1)[0].score, 0.9);
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
        let scores: Vec<f64> = r.top(usize::MAX).iter().map(|e| e.score).collect();
        assert_eq!(scores.len(), 20);
        assert!(scores.windows(2).all(|w| w[0] >= w[1]));
    }

    /// The reference model: every entry in one `Vec`, re-sorted per read.
    fn model_ranked(model: &[(u64, f64)]) -> Vec<(u64, f64)> {
        let mut ranked = model.to_vec();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked
    }

    #[test]
    fn random_updates_track_a_sorted_model() {
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
                let all: Vec<(u64, f64)> = live
                    .top(usize::MAX)
                    .iter()
                    .map(|e| (e.doc.0, e.score))
                    .collect();
                assert_eq!(all, ranked, "{context}");
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
