//! The valid-document store.
//!
//! Documents in the sliding window ("valid" documents, the set `D` of the
//! paper) are kept in arrival order in a FIFO list, and their full
//! composition lists are reachable by [`DocId`] for random-access scoring
//! (the threshold algorithm computes `S(d|Q)` the moment a document is first
//! encountered in *any* inverted list) and for expiration handling (the
//! expiring document's composition list drives the removal of its impact
//! entries).
//!
//! Documents are held behind [`Arc`]: the sharded engine fans every stream
//! event out to N worker shards, each owning its own store, and the shared
//! ownership keeps the window's composition lists in memory **once** no
//! matter how many shards mirror it ([`DocumentStore::push_shared`] is a
//! refcount bump, not a deep copy). Single-engine callers are unaffected:
//! [`DocumentStore::push`] still accepts an owned [`Document`] and the
//! accessors still hand out plain `&Document`.

// cts-lint: allow(nondet-iteration, the id map is point-lookup only; all traversal follows the FIFO order)
use std::collections::{hash_map::Entry, HashMap, VecDeque};
use std::sync::Arc;

use crate::document::{DocId, Document, Timestamp};

/// FIFO store of the currently valid documents.
///
/// The store counts how it changed since [`DocumentStore::sync_from`] last
/// read it — documents popped from the front, documents pushed at the back —
/// so a copy kept in step (the shard workers' recovery checkpoint) replays
/// that FIFO delta instead of copying the window.
#[derive(Debug, Clone, Default)]
pub struct DocumentStore {
    fifo: VecDeque<DocId>,
    by_id: HashMap<DocId, Arc<Document>>, // cts-lint: allow(nondet-iteration, point lookups only; iteration follows the FIFO)
    /// Documents removed from the front since the last sync.
    popped: usize,
    /// Documents appended at the back since the last sync.
    pushed: usize,
    /// A document was removed from somewhere other than the front since the
    /// last sync, so the change is not a FIFO delta.
    irregular: bool,
}

/// Equality of contents: the same documents in the same arrival order. The
/// delta counters are bookkeeping, not state.
impl PartialEq for DocumentStore {
    fn eq(&self, other: &Self) -> bool {
        self.fifo == other.fifo
            && self.by_id.len() == other.by_id.len()
            && self.fifo.iter().all(|id| {
                matches!(
                    (self.by_id.get(id), other.by_id.get(id)),
                    (Some(a), Some(b)) if Arc::ptr_eq(a, b) || a == b
                )
            })
    }
}

impl DocumentStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store with capacity hints for `n` documents.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            fifo: VecDeque::with_capacity(n),
            by_id: HashMap::with_capacity(n), // cts-lint: allow(nondet-iteration, point lookups only; iteration follows the FIFO)
            ..Self::default()
        }
    }

    /// Appends a newly arrived document at the tail of the FIFO.
    ///
    /// # Panics
    ///
    /// Panics if a document with the same id is already stored — document ids
    /// are unique by construction in the streaming model.
    pub fn push(&mut self, doc: Document) {
        self.push_shared(Arc::new(doc));
    }

    /// Appends an already-shared document at the tail of the FIFO — a
    /// refcount bump, so N shards mirroring the same window hold one copy of
    /// each composition list between them.
    ///
    /// # Panics
    ///
    /// Panics if a document with the same id is already stored — before
    /// anything is changed, so the store behind the unwind is intact.
    pub fn push_shared(&mut self, doc: Arc<Document>) {
        let id = doc.id;
        match self.by_id.entry(id) {
            Entry::Occupied(_) => panic!("duplicate document id {id}"),
            Entry::Vacant(slot) => slot.insert(doc),
        };
        self.fifo.push_back(id);
        self.pushed += 1;
    }

    /// Removes and returns the oldest valid document, if any.
    pub fn pop_oldest(&mut self) -> Option<Arc<Document>> {
        let id = self.fifo.pop_front()?;
        let doc = self
            .by_id
            .remove(&id)
            .expect("FIFO id must exist in the id map");
        self.popped += 1;
        Some(doc)
    }

    /// Removes the document with the given id, wherever it sits in the FIFO.
    ///
    /// Expirations normally remove the oldest document (`O(1)`); removal from
    /// the middle (used when a caller retracts a specific document) costs a
    /// linear scan of the FIFO order.
    pub fn remove(&mut self, id: DocId) -> Option<Arc<Document>> {
        let doc = self.by_id.remove(&id)?;
        if self.fifo.front() == Some(&id) {
            self.fifo.pop_front();
            self.popped += 1;
        } else {
            self.irregular = true;
            if self.fifo.back() == Some(&id) {
                self.fifo.pop_back();
            } else if let Some(pos) = self.fifo.iter().position(|&d| d == id) {
                self.fifo.remove(pos);
            }
        }
        Some(doc)
    }

    /// Brings `self` up to date with `src` by replaying `src`'s FIFO delta —
    /// its pops from `self`'s front, its last `pushed` arrivals onto
    /// `self`'s back (refcount bumps) — and clears the delta. Cost is
    /// `O(pops + pushes)`, not `O(window)`.
    ///
    /// Falls back to a full copy when the delta is not replayable: a
    /// document left `src` from the middle or the back, or `src` popped
    /// more documents than `self` holds (the window turned over completely,
    /// so some arrival came and went between two syncs).
    ///
    /// `self` must hold what `src` held when its delta was last cleared —
    /// both freshly created, or `self` last written by this very call.
    pub fn sync_from(&mut self, src: &mut DocumentStore) {
        if src.irregular || src.popped > self.fifo.len() {
            self.fifo.clone_from(&src.fifo);
            self.by_id.clone_from(&src.by_id);
        } else {
            for id in self.fifo.drain(..src.popped) {
                self.by_id.remove(&id);
            }
            for id in src.fifo.range(src.fifo.len() - src.pushed..) {
                let doc = src.by_id.get(id).expect("FIFO id must exist in the id map");
                self.by_id.insert(*id, Arc::clone(doc));
                self.fifo.push_back(*id);
            }
        }
        (src.popped, src.pushed, src.irregular) = (0, 0, false);
    }

    /// The oldest valid document without removing it.
    pub fn oldest(&self) -> Option<&Document> {
        self.fifo
            .front()
            .and_then(|id| self.by_id.get(id))
            .map(Arc::as_ref)
    }

    /// The most recently arrived document.
    pub fn newest(&self) -> Option<&Document> {
        self.fifo
            .back()
            .and_then(|id| self.by_id.get(id))
            .map(Arc::as_ref)
    }

    /// Looks up a valid document by id.
    pub fn get(&self, id: DocId) -> Option<&Document> {
        self.by_id.get(&id).map(Arc::as_ref)
    }

    /// Whether `id` is currently valid.
    pub fn contains(&self, id: DocId) -> bool {
        self.by_id.contains_key(&id)
    }

    /// Number of valid documents.
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Iterates over the valid documents in arrival (FIFO) order.
    pub fn iter(&self) -> impl Iterator<Item = &Document> {
        self.fifo
            .iter()
            .filter_map(move |id| self.by_id.get(id))
            .map(Arc::as_ref)
    }

    /// Arrival time of the oldest valid document, if any.
    pub fn oldest_arrival(&self) -> Option<Timestamp> {
        self.oldest().map(|d| d.arrival)
    }

    /// Total number of composition-list entries across all valid documents
    /// (an indicator of index memory footprint).
    pub fn total_postings(&self) -> usize {
        self.by_id.values().map(|d| d.composition.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_text::{TermId, WeightedVector};

    fn doc(id: u64, arrival_secs: u64) -> Document {
        Document::new(
            DocId(id),
            Timestamp::from_secs(arrival_secs),
            WeightedVector::from_weights([(TermId(id as u32 % 5), 1.0)]),
        )
    }

    #[test]
    fn push_and_pop_preserve_fifo_order() {
        let mut s = DocumentStore::new();
        for i in 0..5 {
            s.push(doc(i, i));
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.oldest().unwrap().id, DocId(0));
        assert_eq!(s.newest().unwrap().id, DocId(4));
        let popped: Vec<u64> = std::iter::from_fn(|| s.pop_oldest())
            .map(|d| d.id.0)
            .collect();
        assert_eq!(popped, vec![0, 1, 2, 3, 4]);
        assert!(s.is_empty());
    }

    #[test]
    fn get_and_contains() {
        let mut s = DocumentStore::new();
        s.push(doc(10, 0));
        assert!(s.contains(DocId(10)));
        assert!(!s.contains(DocId(11)));
        assert_eq!(s.get(DocId(10)).unwrap().arrival, Timestamp::ZERO);
        assert!(s.get(DocId(11)).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate document id")]
    fn duplicate_push_panics() {
        let mut s = DocumentStore::new();
        s.push(doc(1, 0));
        s.push(doc(1, 1));
    }

    #[test]
    fn iter_follows_arrival_order() {
        let mut s = DocumentStore::new();
        for i in [3, 1, 2] {
            s.push(doc(i, i));
        }
        let order: Vec<u64> = s.iter().map(|d| d.id.0).collect();
        assert_eq!(order, vec![3, 1, 2]);
    }

    #[test]
    fn oldest_arrival_and_total_postings() {
        let mut s = DocumentStore::with_capacity(4);
        assert!(s.oldest_arrival().is_none());
        s.push(doc(1, 7));
        s.push(doc(2, 9));
        assert_eq!(s.oldest_arrival(), Some(Timestamp::from_secs(7)));
        assert_eq!(s.total_postings(), 2);
    }

    #[test]
    fn push_shared_stores_the_same_allocation() {
        let mut a = DocumentStore::new();
        let mut b = DocumentStore::new();
        let shared = Arc::new(doc(1, 0));
        a.push_shared(Arc::clone(&shared));
        b.push_shared(Arc::clone(&shared));
        // Both stores (and the caller) point at one allocation.
        assert_eq!(Arc::strong_count(&shared), 3);
        let out = a.pop_oldest().unwrap();
        assert!(Arc::ptr_eq(&out, &shared));
        assert_eq!(b.get(DocId(1)).unwrap().id, DocId(1));
    }

    #[test]
    fn pop_from_empty_is_none() {
        let mut s = DocumentStore::new();
        assert!(s.pop_oldest().is_none());
    }

    #[test]
    fn remove_by_id_from_head_middle_and_tail() {
        let mut s = DocumentStore::new();
        for i in 0..5 {
            s.push(doc(i, i));
        }
        assert_eq!(s.remove(DocId(0)).unwrap().id, DocId(0)); // head
        assert_eq!(s.remove(DocId(4)).unwrap().id, DocId(4)); // tail
        assert_eq!(s.remove(DocId(2)).unwrap().id, DocId(2)); // middle
        assert!(s.remove(DocId(2)).is_none());
        let order: Vec<u64> = s.iter().map(|d| d.id.0).collect();
        assert_eq!(order, vec![1, 3]);
        assert_eq!(s.len(), 2);
    }
}
