//! Slab-backed per-query state tables.
//!
//! Engines hand out [`QueryId`]s from a monotone counter, so query state does
//! not need an ordered map: [`QuerySlab`] is the query-id-keyed face of
//! `cts_index`'s [`DenseArena`] — `O(1)` lookup with no tree descent, and
//! iteration (the naïve engine walks *every* query on *every* stream event)
//! is a contiguous sweep instead of a pointer chase. Deregistration vacates
//! the slot (ids are never reused, so a long-lived engine with heavy query
//! churn should be compacted by re-registration; the paper's workloads
//! register once and stream forever).

use cts_index::{DenseArena, QueryId};

/// A dense map from [`QueryId`] to per-query state `T`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuerySlab<T> {
    inner: DenseArena<T>,
}

impl<T> QuerySlab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Self {
            inner: DenseArena::new(),
        }
    }

    /// Stores `state` for `query`, growing the slab as needed. Returns the
    /// previous state if the slot was occupied.
    pub fn insert(&mut self, query: QueryId, state: T) -> Option<T> {
        self.inner.insert(query.index(), state)
    }

    /// Removes and returns `query`'s state, vacating the slot.
    pub fn remove(&mut self, query: QueryId) -> Option<T> {
        self.inner.remove(query.index())
    }

    /// The state for `query`, if registered.
    #[inline]
    pub fn get(&self, query: QueryId) -> Option<&T> {
        self.inner.get(query.index())
    }

    /// Mutable state for `query`, if registered.
    #[inline]
    pub fn get_mut(&mut self, query: QueryId) -> Option<&mut T> {
        self.inner.get_mut(query.index())
    }

    /// Number of registered queries.
    #[inline]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether no query is registered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Iterates over `(query, state)` pairs in increasing query-id order.
    pub fn iter(&self) -> impl Iterator<Item = (QueryId, &T)> {
        self.inner.iter().map(|(i, s)| (QueryId(i as u32), s))
    }

    /// Iterates over the registered states in increasing query-id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.inner.values()
    }

    /// Mutably iterates over the registered states in increasing query-id
    /// order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.inner.values_mut()
    }

    /// Copies the states `src` handed out mutably, added or removed since its
    /// last sync into `self` and clears `src`'s record — see
    /// [`DenseArena::sync_from`] for the contract.
    pub fn sync_from(&mut self, src: &mut QuerySlab<T>)
    where
        T: Clone,
    {
        self.inner.sync_from(&mut src.inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: u32) -> QueryId {
        QueryId(i)
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut slab: QuerySlab<&'static str> = QuerySlab::new();
        assert!(slab.is_empty());
        assert_eq!(slab.insert(q(2), "two"), None);
        assert_eq!(slab.insert(q(0), "zero"), None);
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(q(2)), Some(&"two"));
        assert!(slab.get(q(1)).is_none());
        assert_eq!(slab.remove(q(2)), Some("two"));
        assert_eq!(slab.remove(q(2)), None);
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn replacing_a_slot_returns_the_old_state() {
        let mut slab = QuerySlab::new();
        slab.insert(q(1), 10u32);
        assert_eq!(slab.insert(q(1), 20), Some(10));
        assert_eq!(slab.len(), 1);
        *slab.get_mut(q(1)).unwrap() += 1;
        assert_eq!(slab.get(q(1)), Some(&21));
    }

    #[test]
    fn iteration_is_in_query_id_order_and_skips_vacant_slots() {
        let mut slab = QuerySlab::new();
        for i in [4u32, 1, 3] {
            slab.insert(q(i), i * 10);
        }
        slab.remove(q(3));
        let pairs: Vec<(u32, u32)> = slab.iter().map(|(id, v)| (id.0, *v)).collect();
        assert_eq!(pairs, vec![(1, 10), (4, 40)]);
        let values: Vec<u32> = slab.values().copied().collect();
        assert_eq!(values, vec![10, 40]);
        for v in slab.values_mut() {
            *v += 1;
        }
        assert_eq!(slab.get(q(1)), Some(&11));
    }
}
