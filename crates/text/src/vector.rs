//! Sparse term vectors.
//!
//! A [`TermVector`] holds raw term frequencies (`f_{d,t}` / `f_{Q,t}` of the
//! paper's Equation 1); a [`WeightedVector`] holds the derived impact weights
//! (`w_{d,t}` / `w_{Q,t}`) produced by a [`crate::weighting::WeightingModel`].
//! Both are stored as term-id-sorted `Vec`s so that merging, dot products and
//! iteration are cache-friendly and allocation-free in the hot path.

use serde::{Deserialize, Serialize};

use crate::dictionary::TermId;
use crate::score::Weight;

/// A sparse vector of raw term frequencies, sorted by [`TermId`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TermVector {
    entries: Vec<(TermId, u32)>,
}

impl TermVector {
    /// Creates an empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a vector from unsorted `(term, count)` pairs, merging duplicates.
    pub fn from_counts<I>(counts: I) -> Self
    where
        I: IntoIterator<Item = (TermId, u32)>,
    {
        let mut entries: Vec<(TermId, u32)> = counts.into_iter().collect();
        entries.sort_unstable_by_key(|(t, _)| *t);
        // Merge duplicate term ids.
        let mut merged: Vec<(TermId, u32)> = Vec::with_capacity(entries.len());
        for (t, c) in entries {
            match merged.last_mut() {
                Some((last, count)) if *last == t => *count += c,
                _ => merged.push((t, c)),
            }
        }
        Self { entries: merged }
    }

    /// Builds a vector from one id per term *occurrence*, in any order: the
    /// slice is sorted in place and each run of equal ids becomes one entry.
    /// One sort and two passes, against a binary search and a shifting
    /// insert per occurrence with [`TermVector::add`].
    pub fn from_occurrences(occurrences: &mut [TermId]) -> Self {
        occurrences.sort_unstable();
        let distinct = occurrences.chunk_by(|a, b| a == b).count();
        let mut entries = Vec::with_capacity(distinct);
        for run in occurrences.chunk_by(|a, b| a == b) {
            entries.push((run[0], run.len() as u32));
        }
        Self { entries }
    }

    /// Increments the count of `term` by one.
    pub fn add(&mut self, term: TermId) {
        self.add_count(term, 1);
    }

    /// Increments the count of `term` by `count`.
    pub fn add_count(&mut self, term: TermId, count: u32) {
        match self.entries.binary_search_by_key(&term, |(t, _)| *t) {
            Ok(i) => self.entries[i].1 += count,
            Err(i) => self.entries.insert(i, (term, count)),
        }
    }

    /// Returns the frequency of `term` (0 if absent).
    pub fn frequency(&self, term: TermId) -> u32 {
        self.entries
            .binary_search_by_key(&term, |(t, _)| *t)
            .map(|i| self.entries[i].1)
            .unwrap_or(0)
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the vector has no terms.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of term occurrences (sum of frequencies).
    pub fn total_occurrences(&self) -> u64 {
        self.entries.iter().map(|(_, c)| u64::from(*c)).sum()
    }

    /// Iterates over `(term, frequency)` pairs in term-id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, u32)> + '_ {
        self.entries.iter().copied()
    }

    /// The squared L2 norm of the raw frequency vector, `Σ f_t²`.
    pub fn l2_norm_squared(&self) -> f64 {
        self.entries
            .iter()
            .map(|(_, c)| {
                let f = f64::from(*c);
                f * f
            })
            .sum()
    }
}

impl FromIterator<(TermId, u32)> for TermVector {
    fn from_iter<I: IntoIterator<Item = (TermId, u32)>>(iter: I) -> Self {
        Self::from_counts(iter)
    }
}

/// A single `(term, weight)` pair of a [`WeightedVector`].
///
/// The weight is stored as a ready-made [`Weight`] (finite, non-NaN by
/// construction) so the index layer can file impact entries into its ordered
/// structures without re-validating the `f64` on every document arrival and
/// expiration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WeightedTerm {
    /// The term.
    pub term: TermId,
    /// The impact weight (`w_{d,t}` or `w_{Q,t}`).
    pub weight: Weight,
}

/// A sparse vector of impact weights, sorted by [`TermId`].
///
/// This is the "composition list" attached to every streamed document in the
/// paper's model, and also the representation of a weighted query.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct WeightedVector {
    entries: Vec<WeightedTerm>,
}

impl WeightedVector {
    /// Creates an empty weighted vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a weighted vector from `(term, weight)` pairs, sorting by term.
    /// Zero, negative and non-finite weights are dropped; duplicate terms
    /// keep the sum of their weights. Input that is already strictly
    /// increasing by term — what the weighting models produce from a
    /// [`TermVector`] — is collected once and neither sorted nor copied.
    pub fn from_weights<I>(weights: I) -> Self
    where
        I: IntoIterator<Item = (TermId, f64)>,
    {
        // The lower size bound is exact for the slice-backed iterators the
        // models pass, so the usual input is one allocation of the right
        // size; a composition list lives as long as its document does.
        let weights = weights.into_iter();
        let mut entries: Vec<WeightedTerm> = Vec::with_capacity(weights.size_hint().0);
        let mut strictly_increasing = true;
        for (term, weight) in weights {
            if weight > 0.0 && weight.is_finite() {
                strictly_increasing &= entries.last().is_none_or(|last| last.term < term);
                entries.push(WeightedTerm {
                    term,
                    weight: Weight::new(weight),
                });
            }
        }
        if strictly_increasing {
            entries.shrink_to_fit();
            return Self { entries };
        }
        entries.sort_unstable_by_key(|e| e.term);
        let mut merged: Vec<WeightedTerm> = Vec::with_capacity(entries.len());
        for e in entries {
            match merged.last_mut() {
                Some(last) if last.term == e.term => last.weight = last.weight + e.weight,
                _ => merged.push(e),
            }
        }
        Self { entries: merged }
    }

    /// Returns the weight of `term` (0.0 if absent).
    pub fn weight(&self, term: TermId) -> f64 {
        self.impact(term).get()
    }

    /// Returns the weight of `term` as a [`Weight`] ([`Weight::ZERO`] if
    /// absent). One binary search over the sorted entries.
    pub fn impact(&self, term: TermId) -> Weight {
        self.entries
            .binary_search_by_key(&term, |e| e.term)
            .map(|i| self.entries[i].weight)
            .unwrap_or(Weight::ZERO)
    }

    /// Whether `term` is present with a positive weight.
    pub fn contains(&self, term: TermId) -> bool {
        self.entries.binary_search_by_key(&term, |e| e.term).is_ok()
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the entries in term-id order.
    pub fn iter(&self) -> impl Iterator<Item = WeightedTerm> + '_ {
        self.entries.iter().copied()
    }

    /// Returns the entries as a slice.
    pub fn as_slice(&self) -> &[WeightedTerm] {
        &self.entries
    }

    /// The L2 norm of the weights.
    pub fn l2_norm(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| e.weight.get() * e.weight.get())
            .sum::<f64>()
            .sqrt()
    }

    /// The largest weight in the vector (0.0 if empty).
    pub fn max_weight(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| e.weight.get())
            .fold(0.0, f64::max)
    }
}

impl FromIterator<(TermId, f64)> for WeightedVector {
    fn from_iter<I: IntoIterator<Item = (TermId, f64)>>(iter: I) -> Self {
        Self::from_weights(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    #[test]
    fn term_vector_counts_and_merges() {
        let v = TermVector::from_counts([(t(5), 1), (t(2), 2), (t(5), 3)]);
        assert_eq!(v.len(), 2);
        assert_eq!(v.frequency(t(5)), 4);
        assert_eq!(v.frequency(t(2)), 2);
        assert_eq!(v.frequency(t(9)), 0);
        assert_eq!(v.total_occurrences(), 6);
    }

    #[test]
    fn term_vector_add_keeps_sorted_order() {
        let mut v = TermVector::new();
        v.add(t(7));
        v.add(t(3));
        v.add(t(7));
        let ids: Vec<u32> = v.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![3, 7]);
        assert_eq!(v.frequency(t(7)), 2);
    }

    #[test]
    fn from_occurrences_counts_runs() {
        let mut ids = [t(7), t(3), t(7), t(0), t(7), t(3)];
        let v = TermVector::from_occurrences(&mut ids);
        assert_eq!(
            v.iter().collect::<Vec<_>>(),
            vec![(t(0), 1), (t(3), 2), (t(7), 3)]
        );
        let mut by_add = TermVector::new();
        for id in [7, 3, 7, 0, 7, 3] {
            by_add.add(t(id));
        }
        assert_eq!(v, by_add);
        assert!(TermVector::from_occurrences(&mut []).is_empty());
    }

    #[test]
    fn term_vector_l2_norm() {
        let v = TermVector::from_counts([(t(0), 3), (t(1), 4)]);
        assert!((v.l2_norm_squared() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_vector_drops_nonpositive_and_nonfinite() {
        let v = WeightedVector::from_weights([
            (t(0), 0.5),
            (t(1), 0.0),
            (t(2), -1.0),
            (t(3), f64::NAN),
            (t(4), f64::INFINITY),
        ]);
        assert_eq!(v.len(), 1);
        assert!(v.contains(t(0)));
        assert!(!v.contains(t(1)));
    }

    /// What `from_weights` did before it learnt to recognise sorted input:
    /// filter, sort, merge. The fast path must be indistinguishable from it.
    fn from_weights_by_sorting(weights: &[(TermId, f64)]) -> Vec<(TermId, f64)> {
        let mut kept: Vec<(TermId, f64)> = weights
            .iter()
            .copied()
            .filter(|(_, w)| *w > 0.0 && w.is_finite())
            .collect();
        kept.sort_by_key(|(term, _)| *term);
        let mut merged: Vec<(TermId, f64)> = Vec::new();
        for (term, w) in kept {
            match merged.last_mut() {
                Some((last, sum)) if *last == term => *sum += w,
                _ => merged.push((term, w)),
            }
        }
        merged
    }

    #[test]
    fn from_weights_drops_the_same_weights_on_either_path() {
        let droppable = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            -1.0,
            -f64::MIN_POSITIVE,
        ];
        // Each droppable weight at the front, in the middle and at the end
        // of (a) strictly increasing input, (b) the same reversed, (c) input
        // with a duplicated term — so a dropped entry is also what sits
        // between two kept ones when sortedness is judged.
        for bad in droppable {
            for at in [0usize, 2, 4] {
                let mut sorted: Vec<(TermId, f64)> = (0..5)
                    .map(|i| (t(10 * i), 0.125 * f64::from(i + 1)))
                    .collect();
                sorted[at].1 = bad;
                let reversed: Vec<_> = sorted.iter().rev().copied().collect();
                let mut duplicated = sorted.clone();
                duplicated.push((t(10), 0.5));
                for input in [&sorted, &reversed, &duplicated] {
                    let got: Vec<(TermId, f64)> =
                        WeightedVector::from_weights(input.iter().copied())
                            .iter()
                            .map(|e| (e.term, e.weight.get()))
                            .collect();
                    assert_eq!(
                        got,
                        from_weights_by_sorting(input),
                        "{bad} at {at} in {input:?}"
                    );
                    assert_eq!(got.len(), 4);
                    assert!(got.iter().all(|(_, w)| *w > 0.0 && w.is_finite()));
                    assert!(got.iter().all(|(term, _)| *term != t(10 * at as u32)));
                }
            }
        }
        // All dropped: empty, not a panic.
        assert!(WeightedVector::from_weights(droppable.iter().map(|w| (t(1), *w))).is_empty());
        // A term whose only kept weight arrives out of order after a dropped
        // one is still filed in order.
        let v = WeightedVector::from_weights([(t(9), f64::NAN), (t(4), 0.5), (t(2), 0.25)]);
        assert_eq!(
            v.iter().map(|e| e.term).collect::<Vec<_>>(),
            vec![t(2), t(4)]
        );
    }

    #[test]
    fn weighted_vector_merges_duplicates() {
        let v = WeightedVector::from_weights([(t(1), 0.25), (t(1), 0.25)]);
        assert_eq!(v.len(), 1);
        assert!((v.weight(t(1)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weighted_vector_norm_and_max() {
        let v = WeightedVector::from_weights([(t(0), 0.6), (t(1), 0.8)]);
        assert!((v.l2_norm() - 1.0).abs() < 1e-12);
        assert!((v.max_weight() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_vectors_behave() {
        let v = WeightedVector::new();
        assert!(v.is_empty());
        assert_eq!(v.weight(t(0)), 0.0);
        assert_eq!(v.max_weight(), 0.0);
        assert_eq!(v.l2_norm(), 0.0);
        let tv = TermVector::new();
        assert!(tv.is_empty());
        assert_eq!(tv.total_occurrences(), 0);
    }
}
