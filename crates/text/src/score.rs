//! Similarity evaluation and the total-order weight wrapper.
//!
//! The similarity of a document to a query is the sparse dot product of their
//! weighted vectors (`S(d|Q) = Σ_{t∈Q} w_{Q,t} · w_{d,t}`). This module also
//! provides [`Weight`], a `f64` wrapper with a total order that rejects NaN
//! at construction — impact weights, local thresholds and scores are all kept
//! in ordered collections (inverted lists, threshold trees, result sets), so
//! a well-defined `Ord` is essential.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Sub};

use serde::Serialize;

use crate::vector::WeightedTerm;

/// Computes the sparse dot product of two term-id-sorted entry slices
/// (whole weighted vectors via [`crate::WeightedVector::as_slice`], or any
/// sub-sequence of one — the engines pass only the document entries whose
/// term some query uses).
///
/// Both sides are sorted by term id, so this is a linear merge. The query
/// side is conventionally the first argument but the operation is symmetric.
pub fn dot_product(xs: &[WeightedTerm], ys: &[WeightedTerm]) -> f64 {
    let mut i = 0;
    let mut j = 0;
    let mut acc = 0.0;
    while i < xs.len() && j < ys.len() {
        match xs[i].term.cmp(&ys[j].term) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                acc += xs[i].weight.get() * ys[j].weight.get();
                i += 1;
                j += 1;
            }
        }
    }
    acc
}

/// When a query has `asymmetry × |Q|` fewer terms than the document, probing
/// the document by binary search beats the linear merge. 16 keeps the probe
/// path (`|Q|·log |d|` comparisons) comfortably ahead of the merge's
/// `|Q| + |d|` at newswire document lengths.
const LOOKUP_ASYMMETRY: usize = 16;

/// Computes the sparse dot product by probing `ys` (binary search) for each
/// term of `xs`. Equivalent to [`dot_product`] — both accumulate matched
/// terms in ascending term-id order, so the results are bit-identical — but
/// `O(|xs| log |ys|)` instead of `O(|xs| + |ys|)`, a large win when a short
/// query meets a long document composition list.
pub fn dot_product_lookup(xs: &[WeightedTerm], ys: &[WeightedTerm]) -> f64 {
    xs.iter()
        .map(|x| {
            let matched = ys.binary_search_by_key(&x.term, |y| y.term);
            x.weight.get() * matched.map_or(0.0, |i| ys[i].weight.get())
        })
        .sum()
}

/// Scores a (short) query against a (long) document composition list, both
/// as term-id-sorted entry slices, choosing between the linear merge and
/// per-term lookup by size asymmetry. Both paths produce bit-identical sums,
/// and so does dropping document entries whose term the query does not
/// contain: every path adds the matched products in ascending term-id order,
/// and an unmatched term contributes nothing or an exact `+ 0.0`.
pub fn query_document_score(query: &[WeightedTerm], doc: &[WeightedTerm]) -> f64 {
    if query.len().saturating_mul(LOOKUP_ASYMMETRY) < doc.len() {
        dot_product_lookup(query, doc)
    } else {
        dot_product(query, doc)
    }
}

/// A finite, non-NaN `f64` with a total order.
///
/// Construction via [`Weight::new`] panics on NaN (a NaN weight is always a
/// programming error upstream — weights come from normalised term
/// frequencies).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
#[serde(transparent)]
pub struct Weight(f64);

impl Weight {
    /// The zero weight.
    pub const ZERO: Weight = Weight(0.0);

    /// Wraps `value`, panicking if it is NaN.
    pub fn new(value: f64) -> Self {
        assert!(!value.is_nan(), "weight must not be NaN");
        Weight(value)
    }

    /// Returns the inner `f64`.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }

    /// Returns the larger of two weights.
    pub fn max(self, other: Weight) -> Weight {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two weights.
    pub fn min(self, other: Weight) -> Weight {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Eq for Weight {}

impl PartialOrd for Weight {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Weight {
    fn cmp(&self, other: &Self) -> Ordering {
        // Neither side can be NaN by construction.
        self.0.partial_cmp(&other.0).expect("weights are not NaN")
    }
}

impl fmt::Display for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.0)
    }
}

impl From<Weight> for f64 {
    fn from(w: Weight) -> f64 {
        w.0
    }
}

impl Add for Weight {
    type Output = Weight;
    fn add(self, rhs: Weight) -> Weight {
        Weight::new(self.0 + rhs.0)
    }
}

impl Sub for Weight {
    type Output = Weight;
    fn sub(self, rhs: Weight) -> Weight {
        Weight::new(self.0 - rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::WeightedVector;
    use crate::TermId;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    #[test]
    fn dot_product_of_disjoint_vectors_is_zero() {
        let a = WeightedVector::from_weights([(t(0), 0.5), (t(1), 0.5)]);
        let b = WeightedVector::from_weights([(t(2), 0.9)]);
        assert_eq!(dot_product(a.as_slice(), b.as_slice()), 0.0);
    }

    #[test]
    fn dot_product_matches_manual_computation() {
        let q = WeightedVector::from_weights([(t(11), 0.447), (t(20), 0.894)]);
        let d = WeightedVector::from_weights([(t(11), 0.16), (t(20), 0.10), (t(30), 0.5)]);
        let expected = 0.447 * 0.16 + 0.894 * 0.10;
        assert!((dot_product(q.as_slice(), d.as_slice()) - expected).abs() < 1e-12);
    }

    #[test]
    fn dot_product_is_symmetric() {
        let a = WeightedVector::from_weights([(t(1), 0.3), (t(4), 0.7)]);
        let b = WeightedVector::from_weights([(t(1), 0.2), (t(3), 0.8), (t(4), 0.1)]);
        assert!(
            (dot_product(a.as_slice(), b.as_slice()) - dot_product(b.as_slice(), a.as_slice()))
                .abs()
                < 1e-15
        );
    }

    #[test]
    fn dot_product_with_empty_is_zero() {
        let a = WeightedVector::from_weights([(t(1), 0.3)]);
        assert_eq!(dot_product(a.as_slice(), &[]), 0.0);
        assert_eq!(dot_product(&[], a.as_slice()), 0.0);
    }

    #[test]
    fn lookup_and_merge_dot_products_are_bit_identical() {
        let q = WeightedVector::from_weights([(t(3), 0.447), (t(40), 0.894), (t(99), 0.1)]);
        let d = WeightedVector::from_weights((0..100u32).map(|i| (t(i), 0.001 + i as f64 * 0.003)));
        assert_eq!(
            dot_product(q.as_slice(), d.as_slice()),
            dot_product_lookup(q.as_slice(), d.as_slice())
        );
        assert_eq!(
            query_document_score(q.as_slice(), d.as_slice()),
            dot_product(q.as_slice(), d.as_slice())
        );
        // Symmetric sizes take the merge path; tiny-vs-large takes lookup.
        let small = WeightedVector::from_weights([(t(1), 0.5)]);
        assert_eq!(
            query_document_score(small.as_slice(), d.as_slice()),
            dot_product_lookup(small.as_slice(), d.as_slice())
        );
    }

    #[test]
    fn weight_ordering_is_total() {
        let mut ws = vec![
            Weight::new(0.3),
            Weight::new(-1.0),
            Weight::new(2.5),
            Weight::ZERO,
        ];
        ws.sort();
        let raw: Vec<f64> = ws.into_iter().map(Weight::get).collect();
        assert_eq!(raw, vec![-1.0, 0.0, 0.3, 2.5]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn weight_new_panics_on_nan() {
        let _ = Weight::new(f64::NAN);
    }

    #[test]
    fn weight_arithmetic_and_minmax() {
        let a = Weight::new(0.25);
        let b = Weight::new(0.5);
        assert_eq!((a + b).get(), 0.75);
        assert_eq!((b - a).get(), 0.25);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn weight_display_is_stable() {
        assert_eq!(Weight::new(0.1).to_string(), "0.100000");
    }
}
