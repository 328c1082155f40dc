//! Continuous-query representation.
//!
//! A text search query specifies a set of terms and a parameter `k`; the
//! query string is translated to `Q = {⟨t, w_{Q,t}⟩, …}` where the weights
//! follow the similarity measure in use (paper §II). A [`ContinuousQuery`]
//! stores exactly that translated form, so the engines never re-derive
//! weights.

use serde::Serialize;

use cts_text::weighting::Scoring;
use cts_text::{
    query_document_score, Dictionary, TermId, TermVector, Weight, WeightedTerm, WeightedVector,
};

/// A registered continuous top-k text query.
///
/// It serialises but does not deserialise: the constructors are the only
/// way in, so `k = 0`, NaN weights and unsorted or duplicate terms (which
/// the binary-probe dot product would silently mis-score) never reach an
/// engine. Neither do they through [`cts_index::Document`] or any other type
/// holding a [`Weight`].
///
/// ```compile_fail
/// fn deserialisable<T: serde::Deserialize>() {}
/// deserialisable::<cts_core::ContinuousQuery>();
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ContinuousQuery {
    /// The weighted query terms `⟨t, w_{Q,t}⟩`, sorted by term id.
    weights: WeightedVector,
    /// Number of result documents to maintain.
    k: usize,
}

impl ContinuousQuery {
    /// Builds a query directly from `(term, weight)` pairs. Non-positive
    /// weights are dropped (consistent with [`WeightedVector`] semantics).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or no term has a positive weight.
    pub fn from_weights<I>(weights: I, k: usize) -> Self
    where
        I: IntoIterator<Item = (TermId, f64)>,
    {
        let weights = WeightedVector::from_weights(weights);
        Self::from_weighted_vector(weights, k)
    }

    /// Builds a query from an already-weighted vector.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or the vector is empty.
    pub fn from_weighted_vector(weights: WeightedVector, k: usize) -> Self {
        assert!(k > 0, "k must be at least 1");
        assert!(
            !weights.is_empty(),
            "a query needs at least one weighted term"
        );
        Self { weights, k }
    }

    /// Builds a query from raw term frequencies (e.g. the output of
    /// [`cts_text::Analyzer::analyze_query`] or a workload generator), using
    /// the given similarity measure to derive `w_{Q,t}`. `dict` is unread;
    /// the frozen `ctsbench` adapter pins the signature (ROADMAP item 4).
    pub fn from_term_frequencies(
        terms: &TermVector,
        k: usize,
        scoring: Scoring,
        dict: &Dictionary,
    ) -> Self {
        Self::from_weighted_vector(scoring.query_weights(terms, dict), k)
    }

    /// The number of results to maintain.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The weighted query terms.
    pub fn weights(&self) -> &WeightedVector {
        &self.weights
    }

    /// Number of distinct query terms.
    pub fn num_terms(&self) -> usize {
        self.weights.len()
    }

    /// The weight `w_{Q,t}` of `term` (0 if the query does not contain it).
    pub fn weight(&self, term: TermId) -> Weight {
        self.weights.impact(term)
    }

    /// Iterates over the query terms and their weights.
    pub fn terms(&self) -> impl Iterator<Item = (TermId, Weight)> + '_ {
        self.weights.iter().map(|e| (e.term, e.weight))
    }

    /// Scores a document composition list against this query:
    /// `S(d|Q) = Σ_{t∈Q} w_{Q,t} · w_{d,t}`.
    ///
    /// Queries are short (the paper uses 4–40 terms) while newswire
    /// composition lists run to hundreds of entries, so this uses the
    /// asymmetry-adaptive product: per-term binary probes of the composition
    /// list when the query is much shorter, the linear merge otherwise. Both
    /// paths are bit-identical (see `cts_text::score`).
    pub fn score(&self, composition: &WeightedVector) -> f64 {
        self.score_entries(composition.as_slice())
    }

    /// [`ContinuousQuery::score`] over a term-id-sorted slice of composition
    /// entries. The engines pass the document's *live* entries (those naming
    /// a term some registered query uses): every term of this query is live,
    /// so the slice holds every entry the query can match and the score is
    /// bit-identical to scoring the whole composition list.
    pub fn score_entries(&self, entries: &[WeightedTerm]) -> f64 {
        query_document_score(self.weights.as_slice(), entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_text::weighting::Scoring;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    #[test]
    fn from_weights_builds_sorted_query() {
        let q = ContinuousQuery::from_weights([(t(20), 0.894), (t(11), 0.447)], 2);
        assert_eq!(q.k(), 2);
        assert_eq!(q.num_terms(), 2);
        let ids: Vec<u32> = q.terms().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![11, 20]);
    }

    #[test]
    fn from_term_frequencies_applies_cosine_weighting() {
        // "white white tower": f_white = 2, f_tower = 1.
        let dict = Dictionary::new();
        let tv = TermVector::from_counts([(t(20), 2), (t(11), 1)]);
        let q = ContinuousQuery::from_term_frequencies(&tv, 2, Scoring::Cosine, &dict);
        let denom = 5.0f64.sqrt();
        assert!((q.weight(t(20)).get() - 2.0 / denom).abs() < 1e-12);
        assert!((q.weight(t(11)).get() - 1.0 / denom).abs() < 1e-12);
        assert_eq!(q.weight(t(99)), Weight::ZERO);
    }

    #[test]
    fn score_is_the_sparse_dot_product() {
        let q = ContinuousQuery::from_weights([(t(11), 0.447), (t(20), 0.894)], 2);
        let d = WeightedVector::from_weights([(t(11), 0.16), (t(20), 0.08), (t(3), 0.9)]);
        let expected = 0.447 * 0.16 + 0.894 * 0.08;
        assert!((q.score(&d) - expected).abs() < 1e-12);
    }

    #[test]
    fn score_of_disjoint_document_is_zero() {
        let q = ContinuousQuery::from_weights([(t(1), 1.0)], 1);
        let d = WeightedVector::from_weights([(t(2), 1.0)]);
        assert_eq!(q.score(&d), 0.0);
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_is_rejected() {
        let _ = ContinuousQuery::from_weights([(t(1), 1.0)], 0);
    }

    #[test]
    #[should_panic(expected = "at least one weighted term")]
    fn empty_query_is_rejected() {
        let _ = ContinuousQuery::from_weights([(t(1), 0.0)], 3);
    }
}
