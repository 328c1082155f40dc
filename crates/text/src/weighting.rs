//! Impact weighting: the paper's cosine measure.
//!
//! The paper scores a document `d` against a query `Q` as
//! `S(d|Q) = Σ_{t∈Q} w_{Q,t} · w_{d,t}` (Equation 1), where both sides are
//! L2-normalised term frequencies. The engine never looks at raw
//! frequencies: documents enter the system already carrying a *composition
//! list* of `⟨t, w_{d,t}⟩` pairs, and queries are translated to
//! `⟨t, w_{Q,t}⟩` pairs. [`Scoring`] performs exactly this translation.

use serde::{Deserialize, Serialize};

use crate::dictionary::Dictionary;
use crate::vector::{TermVector, WeightedVector};

/// The similarity measure: cosine (the paper's Equation 1).
///
/// * `w_{Q,t} = f_{Q,t} / sqrt(Σ_{t'∈Q} f_{Q,t'}²)` — normalised over the
///   *query* terms only.
/// * `w_{d,t} = f_{d,t} / sqrt(Σ_{t'∈T} f_{d,t'}²)` — normalised over **all**
///   terms of the document.
///
/// With both sides normalised this way, `S(d|Q) ∈ [0, 1]`.
///
/// A one-variant enum because the frozen `ctsbench` adapter names
/// `Scoring::Cosine`; ROADMAP item 4 unpins it.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub enum Scoring {
    /// Cosine similarity (the paper's Equation 1).
    #[default]
    Cosine,
}

impl Scoring {
    /// Computes the document-side weights `w_{d,t}` (the composition list).
    ///
    /// `_dict` is unread; the frozen `ctsbench` adapter pins the signature
    /// (ROADMAP item 4).
    pub fn document_weights(&self, doc: &TermVector, _dict: &Dictionary) -> WeightedVector {
        l2_normalised(doc)
    }

    /// Computes the query-side weights `w_{Q,t}`.
    ///
    /// `_dict` is unread; the frozen `ctsbench` adapter pins the signature
    /// (ROADMAP item 4).
    pub fn query_weights(&self, query: &TermVector, _dict: &Dictionary) -> WeightedVector {
        l2_normalised(query)
    }
}

fn l2_normalised(v: &TermVector) -> WeightedVector {
    let norm = v.l2_norm_squared().sqrt();
    if norm <= 0.0 {
        return WeightedVector::new();
    }
    WeightedVector::from_weights(v.iter().map(|(t, f)| (t, f64::from(f) / norm)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::Dictionary;
    use crate::score::dot_product;
    use crate::TermId;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    #[test]
    fn cosine_document_weights_are_unit_norm() {
        let dict = Dictionary::new();
        let doc = TermVector::from_counts([(t(0), 2), (t(1), 1), (t(2), 2)]);
        let w = Scoring::Cosine.document_weights(&doc, &dict);
        assert!((w.l2_norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_query_weights_match_paper_formula() {
        // Query {white white tower}: f_white = 2, f_tower = 1.
        let dict = Dictionary::new();
        let q = TermVector::from_counts([(t(20), 2), (t(11), 1)]);
        let w = Scoring::Cosine.query_weights(&q, &dict);
        let denom = (2.0f64 * 2.0 + 1.0).sqrt();
        assert!((w.weight(t(20)) - 2.0 / denom).abs() < 1e-12);
        assert!((w.weight(t(11)) - 1.0 / denom).abs() < 1e-12);
    }

    #[test]
    fn cosine_score_of_identical_vectors_is_one() {
        let dict = Dictionary::new();
        let v = TermVector::from_counts([(t(0), 3), (t(1), 4)]);
        let d = Scoring::Cosine.document_weights(&v, &dict);
        let q = Scoring::Cosine.query_weights(&v, &dict);
        assert!((dot_product(q.as_slice(), d.as_slice()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_empty_vector_gives_empty_weights() {
        let dict = Dictionary::new();
        let w = Scoring::Cosine.document_weights(&TermVector::new(), &dict);
        assert!(w.is_empty());
    }
}
