//! Impact weighting models.
//!
//! The paper scores a document `d` against a query `Q` as
//! `S(d|Q) = Σ_{t∈Q} w_{Q,t} · w_{d,t}` (Equation 1), where for the cosine
//! model both sides are L2-normalised term frequencies. The engine never
//! looks at raw frequencies: documents enter the system already carrying a
//! *composition list* of `⟨t, w_{d,t}⟩` pairs, and queries are translated to
//! `⟨t, w_{Q,t}⟩` pairs. A [`WeightingModel`] performs exactly this
//! translation, so the rest of the system is agnostic to the similarity
//! measure in use (the paper notes the approach also works for Okapi-style
//! measures, which we provide as [`Bm25Model`]).

use serde::{Deserialize, Serialize};

use crate::dictionary::Dictionary;
use crate::vector::{TermVector, WeightedVector};

/// Converts raw term-frequency vectors into impact-weighted vectors.
pub trait WeightingModel {
    /// Computes the document-side weights `w_{d,t}` (the composition list).
    fn document_weights(&self, doc: &TermVector, dict: &Dictionary) -> WeightedVector;

    /// Computes the query-side weights `w_{Q,t}`.
    fn query_weights(&self, query: &TermVector, dict: &Dictionary) -> WeightedVector;

    /// A short, stable name for reporting.
    fn name(&self) -> &'static str;
}

/// The paper's cosine similarity weighting (Equation 1).
///
/// * `w_{Q,t} = f_{Q,t} / sqrt(Σ_{t'∈Q} f_{Q,t'}²)` — normalised over the
///   *query* terms only.
/// * `w_{d,t} = f_{d,t} / sqrt(Σ_{t'∈T} f_{d,t'}²)` — normalised over **all**
///   terms of the document.
///
/// With both sides normalised this way, `S(d|Q) ∈ [0, 1]`.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct CosineModel;

impl CosineModel {
    /// Creates the cosine model.
    pub fn new() -> Self {
        Self
    }
}

impl WeightingModel for CosineModel {
    fn document_weights(&self, doc: &TermVector, _dict: &Dictionary) -> WeightedVector {
        l2_normalised(doc)
    }

    fn query_weights(&self, query: &TermVector, _dict: &Dictionary) -> WeightedVector {
        l2_normalised(query)
    }

    fn name(&self) -> &'static str {
        "cosine"
    }
}

fn l2_normalised(v: &TermVector) -> WeightedVector {
    let norm = v.l2_norm_squared().sqrt();
    if norm <= 0.0 {
        return WeightedVector::new();
    }
    WeightedVector::from_weights(v.iter().map(|(t, f)| (t, f64::from(f) / norm)))
}

/// Okapi BM25 weighting.
///
/// The document-side impact is the classic BM25 term contribution
/// `((k1 + 1)·f) / (k1·(1 − b + b·len/avg_len) + f)` scaled by the term's
/// inverse document frequency; the query side uses the (rarely material)
/// query-frequency saturation `((k3 + 1)·f) / (k3 + f)`. The IDF component is
/// folded into the document side so that, as in the cosine model, the final
/// score is a plain dot product of the two weighted vectors — which is what
/// lets the inverted-list/threshold machinery work unchanged.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Bm25Model {
    /// Term-frequency saturation parameter (typically 1.2–2.0).
    pub k1: f64,
    /// Length-normalisation strength (0 = none, 1 = full).
    pub b: f64,
    /// Query-frequency saturation parameter.
    pub k3: f64,
    /// Average document length (in term occurrences) used for normalisation.
    pub average_doc_len: f64,
    /// Total number of documents assumed for the IDF component. Together with
    /// the dictionary's per-term document frequencies this yields a standard
    /// BM25 IDF; when a term has no statistics yet a neutral IDF of 1 is used.
    pub collection_size: u64,
}

impl Default for Bm25Model {
    fn default() -> Self {
        Self {
            k1: 1.2,
            b: 0.75,
            k3: 8.0,
            average_doc_len: 400.0,
            collection_size: 100_000,
        }
    }
}

impl Bm25Model {
    /// Creates a BM25 model with the given average document length, keeping
    /// the standard parameter defaults.
    pub fn with_average_doc_len(average_doc_len: f64) -> Self {
        Self {
            average_doc_len,
            ..Self::default()
        }
    }

    fn idf(&self, dict: &Dictionary, term: crate::TermId) -> f64 {
        let df = dict.stats(term).map(|s| s.document_frequency).unwrap_or(0);
        if df == 0 {
            return 1.0;
        }
        let n = self.collection_size.max(df) as f64;
        let df = df as f64;
        // The "plus one" form keeps the weight strictly positive.
        (1.0 + (n - df + 0.5) / (df + 0.5)).ln()
    }
}

impl WeightingModel for Bm25Model {
    fn document_weights(&self, doc: &TermVector, dict: &Dictionary) -> WeightedVector {
        let len = doc.total_occurrences() as f64;
        let avg = if self.average_doc_len > 0.0 {
            self.average_doc_len
        } else {
            1.0
        };
        let norm = self.k1 * (1.0 - self.b + self.b * len / avg);
        WeightedVector::from_weights(doc.iter().map(|(t, f)| {
            let f = f64::from(f);
            let tf = ((self.k1 + 1.0) * f) / (norm + f);
            (t, tf * self.idf(dict, t))
        }))
    }

    fn query_weights(&self, query: &TermVector, _dict: &Dictionary) -> WeightedVector {
        WeightedVector::from_weights(query.iter().map(|(t, f)| {
            let f = f64::from(f);
            (t, ((self.k3 + 1.0) * f) / (self.k3 + f))
        }))
    }

    fn name(&self) -> &'static str {
        "bm25"
    }
}

/// The similarity measures available to the engines, as a plain enum so that
/// configurations remain serialisable.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub enum Scoring {
    /// Cosine similarity (the paper's Equation 1). The default.
    #[default]
    Cosine,
    /// Okapi BM25 with the given parameters.
    Bm25(Bm25Model),
}

impl Scoring {
    /// Computes document-side weights under this measure.
    pub fn document_weights(&self, doc: &TermVector, dict: &Dictionary) -> WeightedVector {
        match self {
            Scoring::Cosine => CosineModel.document_weights(doc, dict),
            Scoring::Bm25(m) => m.document_weights(doc, dict),
        }
    }

    /// Computes query-side weights under this measure.
    pub fn query_weights(&self, query: &TermVector, dict: &Dictionary) -> WeightedVector {
        match self {
            Scoring::Cosine => CosineModel.query_weights(query, dict),
            Scoring::Bm25(m) => m.query_weights(query, dict),
        }
    }

    /// A short, stable name for reporting.
    pub fn name(&self) -> &'static str {
        match self {
            Scoring::Cosine => "cosine",
            Scoring::Bm25(_) => "bm25",
        }
    }
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
        let w = CosineModel.document_weights(&doc, &dict);
        assert!((w.l2_norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_query_weights_match_paper_formula() {
        // Query {white white tower}: f_white = 2, f_tower = 1.
        let dict = Dictionary::new();
        let q = TermVector::from_counts([(t(20), 2), (t(11), 1)]);
        let w = CosineModel.query_weights(&q, &dict);
        let denom = (2.0f64 * 2.0 + 1.0).sqrt();
        assert!((w.weight(t(20)) - 2.0 / denom).abs() < 1e-12);
        assert!((w.weight(t(11)) - 1.0 / denom).abs() < 1e-12);
    }

    #[test]
    fn cosine_score_of_identical_vectors_is_one() {
        let dict = Dictionary::new();
        let v = TermVector::from_counts([(t(0), 3), (t(1), 4)]);
        let d = CosineModel.document_weights(&v, &dict);
        let q = CosineModel.query_weights(&v, &dict);
        assert!((dot_product(q.as_slice(), d.as_slice()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_empty_vector_gives_empty_weights() {
        let dict = Dictionary::new();
        let w = CosineModel.document_weights(&TermVector::new(), &dict);
        assert!(w.is_empty());
    }

    #[test]
    fn bm25_weights_are_positive_and_saturate() {
        let mut dict = Dictionary::new();
        let a = dict.intern("market");
        dict.record_occurrences(a, 5);
        let model = Bm25Model::with_average_doc_len(10.0);
        let low = model.document_weights(&TermVector::from_counts([(a, 1)]), &dict);
        let high = model.document_weights(&TermVector::from_counts([(a, 50)]), &dict);
        assert!(low.weight(a) > 0.0);
        assert!(high.weight(a) > low.weight(a));
        // Saturation: 50 occurrences are worth far less than 50x one occurrence.
        assert!(high.weight(a) < 50.0 * low.weight(a));
    }

    #[test]
    fn bm25_rare_terms_outweigh_common_terms() {
        let mut dict = Dictionary::new();
        let rare = dict.intern("anthrax");
        let common = dict.intern("market");
        dict.record_occurrences(rare, 1);
        for _ in 0..1000 {
            dict.record_occurrences(common, 1);
        }
        let model = Bm25Model {
            collection_size: 10_000,
            ..Bm25Model::with_average_doc_len(10.0)
        };
        let doc = TermVector::from_counts([(rare, 1), (common, 1)]);
        let w = model.document_weights(&doc, &dict);
        assert!(w.weight(rare) > w.weight(common));
    }

    #[test]
    fn bm25_query_weights_saturate_with_frequency() {
        let dict = Dictionary::new();
        let model = Bm25Model::default();
        let q1 = model.query_weights(&TermVector::from_counts([(t(0), 1)]), &dict);
        let q9 = model.query_weights(&TermVector::from_counts([(t(0), 9)]), &dict);
        assert!(q9.weight(t(0)) > q1.weight(t(0)));
        assert!(q9.weight(t(0)) < 9.0 * q1.weight(t(0)));
    }

    #[test]
    fn scoring_enum_dispatches() {
        let dict = Dictionary::new();
        let doc = TermVector::from_counts([(t(0), 1)]);
        let c = Scoring::Cosine.document_weights(&doc, &dict);
        let b = Scoring::Bm25(Bm25Model::default()).document_weights(&doc, &dict);
        assert_eq!(Scoring::Cosine.name(), "cosine");
        assert_eq!(Scoring::Bm25(Bm25Model::default()).name(), "bm25");
        assert!(c.weight(t(0)) > 0.0);
        assert!(b.weight(t(0)) > 0.0);
    }
}
