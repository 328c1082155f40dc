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

/// Query terms whose binary searches [`dot_product_lookup`] runs side by
/// side. 16 holds a whole query wherever the lookup path is taken at
/// newswire document lengths (`|Q|·LOOKUP_ASYMMETRY < |d|` ≈ 230).
const LANES: usize = 16;

/// Computes the sparse dot product by probing `ys` (binary search) for each
/// term of `xs`. Equivalent to [`dot_product`] — both accumulate matched
/// terms in ascending term-id order, so the results are bit-identical — but
/// `O(|xs| log |ys|)` instead of `O(|xs| + |ys|)`, a large win when a short
/// query meets a long document composition list.
///
/// The searches run in lockstep, `LANES` query terms at a time: each round
/// halves every lane's range by one comparison, so a round issues one load
/// per lane, none waiting on another, where a search per term would chain
/// `log |ys|` dependent loads each. A scored document is mostly cold, so the
/// loads, not the comparisons, are the cost.
pub fn dot_product_lookup(xs: &[WeightedTerm], ys: &[WeightedTerm]) -> f64 {
    let mut acc = 0.0;
    if ys.is_empty() {
        return acc;
    }
    for group in xs.chunks(LANES) {
        // Lane `l` keeps `ys[base[l]].term ≤ group[l].term` whenever any
        // entry of `ys` is, over a range whose length halves each round.
        let mut base = [0usize; LANES];
        let mut len = ys.len();
        while len > 1 {
            let half = len / 2;
            for (lane, x) in base.iter_mut().zip(group) {
                let probe = *lane + half;
                *lane = if ys[probe].term <= x.term {
                    probe
                } else {
                    *lane
                };
            }
            len -= half;
        }
        for (&at, x) in base.iter().zip(group) {
            let y = ys[at];
            if y.term == x.term {
                acc += x.weight.get() * y.weight.get();
            }
        }
    }
    acc
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

    /// A splitmix64 stream: reproducible draws for the property test, in a
    /// crate that has no random number generator of its own.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u32) -> u32 {
            (self.next() % u64::from(n)) as u32
        }

        /// A positive weight spanning six orders of magnitude, so that a
        /// different summation order would round differently.
        fn weight(&mut self) -> Weight {
            let unit = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
            Weight::new((unit + 1e-3) * 10f64.powi(self.below(6) as i32 - 3))
        }

        /// `len` distinct terms of `pool`, ascending, each with a weight.
        fn entries(&mut self, pool: &[u32], len: usize) -> Vec<WeightedTerm> {
            let mut terms = pool.to_vec();
            for i in 0..len.min(terms.len()) {
                let j = i + self.below((terms.len() - i) as u32) as usize;
                terms.swap(i, j);
            }
            terms.truncate(len);
            terms.sort_unstable();
            terms
                .into_iter()
                .map(|term| WeightedTerm {
                    term: t(term),
                    weight: self.weight(),
                })
                .collect()
        }
    }

    /// The lockstep lookup against the merge, by `to_bits`, over query
    /// lengths 1..=40 (within one lane group, exactly one, and across two
    /// and three) and documents of 0, 1, ≈ 230 and 4,000 entries; each query
    /// is drawn three ways: around and beyond the document's term range
    /// (below its first term and above its last), from its terms only (every
    /// term matches), and with both extremes of the term space.
    #[test]
    fn lookup_and_merge_dot_products_are_bit_identical() {
        let mut rng = SplitMix(0x5C0_4E00);
        let mut all_matched = 0;
        for doc_len in [0usize, 1, 229, 230, 231, 4_000] {
            // Terms 100.. with gaps, so misses fall between entries too.
            let mut next = 100;
            let doc_terms: Vec<u32> = (0..doc_len)
                .map(|_| {
                    next += 1 + rng.below(3);
                    next
                })
                .collect();
            let doc = rng.entries(&doc_terms, doc_len);
            let around: Vec<u32> = (0..next + 100).collect();
            for query_len in 1..=40usize {
                for _ in 0..4 {
                    let mut extremes = rng.entries(&around, query_len.saturating_sub(2));
                    extremes.insert(
                        0,
                        WeightedTerm {
                            term: t(0),
                            weight: rng.weight(),
                        },
                    );
                    if query_len > 1 {
                        extremes.push(WeightedTerm {
                            term: t(u32::MAX),
                            weight: rng.weight(),
                        });
                    }
                    let mut queries = vec![rng.entries(&around, query_len), extremes];
                    if query_len <= doc_len {
                        queries.push(rng.entries(&doc_terms, query_len));
                    }
                    for (kind, query) in queries.iter().enumerate() {
                        let merge = dot_product(query, &doc);
                        let lookup = dot_product_lookup(query, &doc);
                        assert_eq!(
                            lookup.to_bits(),
                            merge.to_bits(),
                            "query kind {kind} of {query_len} terms on a {doc_len}-entry document"
                        );
                        assert_eq!(query_document_score(query, &doc).to_bits(), merge.to_bits());
                        if kind == 2 {
                            assert!(merge > 0.0);
                            all_matched += 1;
                        }
                    }
                }
            }
        }
        assert!(all_matched > 400, "only {all_matched} all-matching queries");
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
