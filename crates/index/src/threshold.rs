//! Threshold trees.
//!
//! For every inverted list `L_t` the system keeps a *threshold tree*: an
//! ordered collection of `⟨θ_{Q,t}, Q⟩` entries, one per registered query `Q`
//! that contains term `t`. `θ_{Q,t}` is `Q`'s **local threshold** in `L_t` —
//! the impact weight down to which `Q`'s threshold search has already examined
//! the list. The tree answers the probe used on every document arrival and
//! expiration: *which queries have `θ_{Q,t} ≤ w`*, i.e. which queries might be
//! affected by an impact entry of weight `w` (paper §III-B).
//!
//! Despite the name (kept from the paper), the structure is a sorted
//! `Vec<ThresholdEntry>` in increasing `(θ, Q)` order: the arrival-time probe
//! is one `partition_point` binary search plus a contiguous prefix scan —
//! the single hottest operation in the whole system runs at memory-stream
//! speed instead of walking B-tree nodes. Threshold moves (insert + remove)
//! pay a tail `memmove`; DESIGN.md §6 records the trade as measured against
//! the `BTreeSet` layout this replaced.

#![deny(clippy::disallowed_types)]

use serde::Serialize;

use cts_text::Weight;

use crate::document::QueryId;

/// One `⟨θ_{Q,t}, Q⟩` entry of a threshold tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub struct ThresholdEntry {
    /// The query's local threshold in this list.
    pub threshold: Weight,
    /// The query.
    pub query: QueryId,
}

/// The per-list threshold tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThresholdTree {
    /// Sorted ascending by `(threshold, query)`.
    entries: Vec<ThresholdEntry>,
}

impl ThresholdTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts an entry for `query` with local threshold `threshold`.
    /// Returns `false` if that exact entry was already present.
    pub fn insert(&mut self, query: QueryId, threshold: Weight) -> bool {
        let entry = ThresholdEntry { threshold, query };
        match self.entries.binary_search(&entry) {
            Ok(_) => false,
            Err(at) => {
                self.entries.insert(at, entry);
                true
            }
        }
    }

    /// Removes the entry for `query` with local threshold `threshold`.
    /// Returns `true` if it was present. The caller must pass the same
    /// threshold value it previously inserted (queries track their own local
    /// thresholds, so this is always known).
    pub fn remove(&mut self, query: QueryId, threshold: Weight) -> bool {
        let entry = ThresholdEntry { threshold, query };
        match self.entries.binary_search(&entry) {
            Ok(at) => {
                self.entries.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    /// Moves `query`'s entry from `old` to `new` in one call.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the old entry was not present — a missing
    /// entry means the caller's book-keeping has diverged from the tree.
    pub fn update(&mut self, query: QueryId, old: Weight, new: Weight) {
        let removed = self.remove(query, old);
        debug_assert!(removed, "threshold update for absent entry {query}");
        self.insert(query, new);
    }

    /// All queries whose local threshold is **at or below** `weight`
    /// (`θ_{Q,t} ≤ w`), i.e. the queries potentially affected by an impact
    /// entry of weight `w`. Yields entries in increasing threshold order.
    /// One `partition_point` plus a contiguous prefix scan.
    pub fn affected_by(&self, weight: Weight) -> impl Iterator<Item = ThresholdEntry> + '_ {
        let end = self.entries.partition_point(|e| e.threshold <= weight);
        self.entries[..end].iter().copied()
    }

    /// Number of registered entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the tree has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over all entries in increasing threshold order.
    pub fn iter(&self) -> impl Iterator<Item = ThresholdEntry> + '_ {
        self.entries.iter().copied()
    }

    /// Audits the tree's structural invariants, panicking with a description
    /// on violation: entries strictly ascending by `(θ, Q)` — which implies
    /// no duplicate entry — so `affected_by`'s `partition_point` + prefix
    /// scan is sound. Driven by the engine-level `check_invariants` audits
    /// (`invariant-checks` feature) and tests; not called on hot paths.
    pub fn check_invariants(&self) {
        for pair in self.entries.windows(2) {
            assert!(
                pair[0] < pair[1],
                "threshold tree is not strictly ordered: {:?} precedes {:?}",
                pair[0],
                pair[1]
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(x: f64) -> Weight {
        Weight::new(x)
    }

    fn q(i: u32) -> QueryId {
        QueryId(i)
    }

    #[test]
    fn affected_by_returns_queries_at_or_below_weight() {
        let mut t = ThresholdTree::new();
        t.insert(q(1), w(0.05));
        t.insert(q(2), w(0.10));
        t.insert(q(3), w(0.20));
        let affected: Vec<u32> = t.affected_by(w(0.10)).map(|e| e.query.0).collect();
        assert_eq!(affected, vec![1, 2]);
        let none: Vec<u32> = t.affected_by(w(0.01)).map(|e| e.query.0).collect();
        assert!(none.is_empty());
        let all: Vec<u32> = t.affected_by(w(0.9)).map(|e| e.query.0).collect();
        assert_eq!(all, vec![1, 2, 3]);
    }

    #[test]
    fn equal_thresholds_are_both_reported() {
        let mut t = ThresholdTree::new();
        t.insert(q(7), w(0.08));
        t.insert(q(9), w(0.08));
        let affected: Vec<u32> = t.affected_by(w(0.08)).map(|e| e.query.0).collect();
        assert_eq!(affected, vec![7, 9]);
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut t = ThresholdTree::new();
        assert!(t.insert(q(1), w(0.3)));
        assert!(!t.insert(q(1), w(0.3)));
        assert_eq!(t.len(), 1);
        assert!(t.remove(q(1), w(0.3)));
        assert!(!t.remove(q(1), w(0.3)));
        assert!(t.is_empty());
    }

    #[test]
    fn update_moves_the_entry() {
        let mut t = ThresholdTree::new();
        t.insert(q(4), w(0.05));
        t.update(q(4), w(0.05), w(0.10));
        assert_eq!(t.affected_by(w(0.07)).count(), 0);
        assert_eq!(t.affected_by(w(0.10)).count(), 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn same_query_may_not_hold_two_entries_with_same_threshold() {
        // A query has exactly one local threshold per list; inserting the same
        // (θ, Q) twice is a no-op, and different thresholds for the same query
        // are considered distinct entries (the engine always removes the old
        // one via `update`).
        let mut t = ThresholdTree::new();
        t.insert(q(1), w(0.2));
        t.insert(q(1), w(0.3));
        assert_eq!(t.len(), 2);
        let affected: Vec<(f64, u32)> = t
            .affected_by(w(1.0))
            .map(|e| (e.threshold.get(), e.query.0))
            .collect();
        assert_eq!(affected, vec![(0.2, 1), (0.3, 1)]);
    }

    #[test]
    fn zero_weight_probe_matches_zero_thresholds() {
        let mut t = ThresholdTree::new();
        t.insert(q(1), Weight::ZERO);
        let affected: Vec<u32> = t.affected_by(Weight::ZERO).map(|e| e.query.0).collect();
        assert_eq!(affected, vec![1]);
    }

    #[test]
    fn probe_order_breaks_threshold_ties_by_query_id() {
        let mut t = ThresholdTree::new();
        t.insert(q(9), w(0.1));
        t.insert(q(3), w(0.1));
        t.insert(q(5), w(0.05));
        let order: Vec<u32> = t.affected_by(w(0.2)).map(|e| e.query.0).collect();
        assert_eq!(order, vec![5, 3, 9]);
    }
}
