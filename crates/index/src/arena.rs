//! Dense, small-integer-indexed arenas.
//!
//! Interned identifiers ([`TermId`] from `cts_text::Dictionary`, `QueryId`
//! from the engines' monotone counters) are dense small integers, so
//! per-id state — an inverted list, a threshold tree, a query's view — does
//! not need a hash map or an ordered tree: a `Vec<Option<T>>` indexed by the
//! id gives a one-instruction lookup with no hashing, no probing and no
//! pointer chase, at the cost of one `Option` slot per id ever seen. For
//! the paper's 182k-term dictionary that is a few megabytes of slots against
//! hundreds of megabytes of postings — a trade every in-memory filter system
//! (e.g. FAST, arXiv:1709.02529) makes.
//!
//! [`DenseArena`] is the untyped core; [`TermArena`] is its [`TermId`]-keyed
//! face used by the index layer (`cts-core` wraps the same core as its
//! query-state slab). Arenas grow lazily to the highest id seen, count live
//! slots (so `len` is `O(1)`), and free a slot when its value is removed —
//! removal of a term's last posting really does return the term to the
//! "not in the window" state observable via [`TermArena::get`].

use cts_text::TermId;

/// A dense map from `usize` ids to `T`, backed by `Vec<Option<T>>`.
///
/// The arena also records **which slots may have changed** since the last
/// [`DenseArena::sync_from`] read it: every path that yields a `&mut T` or
/// fills or vacates a slot sets a per-slot bit and pushes the id once, so a
/// mutation cannot escape the record by construction. A copy kept in step
/// through `sync_from` (the shard workers' recovery checkpoint) then costs
/// the slots dirtied, not the id range. An arena nobody syncs from pays one
/// bit test per mutable access and at most one pushed id per slot.
#[derive(Debug, Clone)]
pub struct DenseArena<T> {
    slots: Vec<Option<T>>,
    live: usize,
    /// One bit per slot, set iff the slot's id is in `dirty`.
    marked: Vec<u64>,
    /// Ids whose slot was handed out mutably, filled or vacated since the
    /// last sync read this arena, each at most once.
    dirty: Vec<usize>,
}

impl<T> Default for DenseArena<T> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            live: 0,
            marked: Vec::new(),
            dirty: Vec::new(),
        }
    }
}

/// Equality of contents: the same live ids holding equal values. The dirty
/// record and trailing vacant slots are bookkeeping, not state.
impl<T: PartialEq> PartialEq for DenseArena<T> {
    fn eq(&self, other: &Self) -> bool {
        self.live == other.live && self.iter().eq(other.iter())
    }
}

/// Records `id` as dirty unless it already is. A free function over the two
/// bookkeeping fields so callers can hold a `&mut` into `slots` meanwhile.
#[inline]
fn mark(marked: &mut [u64], dirty: &mut Vec<usize>, id: usize) {
    let bit = 1u64 << (id % 64);
    let word = &mut marked[id / 64];
    if *word & bit == 0 {
        *word |= bit;
        dirty.push(id);
    }
}

impl<T> DenseArena<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty arena with slot capacity for `ids` identifiers.
    pub fn with_capacity(ids: usize) -> Self {
        Self {
            slots: Vec::with_capacity(ids),
            ..Self::default()
        }
    }

    /// The value stored for `id`, if any.
    #[inline]
    pub fn get(&self, id: usize) -> Option<&T> {
        self.slots.get(id).and_then(Option::as_ref)
    }

    /// Mutable access to the value stored for `id`, if any.
    #[inline]
    pub fn get_mut(&mut self, id: usize) -> Option<&mut T> {
        let value = self.slots.get_mut(id)?.as_mut()?;
        mark(&mut self.marked, &mut self.dirty, id);
        Some(value)
    }

    /// Whether `id` has a value.
    #[inline]
    pub fn contains(&self, id: usize) -> bool {
        self.get(id).is_some()
    }

    /// Grows the slot vector (and its dirty bits) to hold `slots` slots.
    fn grow_to(&mut self, slots: usize) {
        if slots > self.slots.len() {
            self.slots.resize_with(slots, || None);
            self.marked.resize(slots.div_ceil(64), 0);
        }
    }

    /// Stores `value` for `id`, growing the arena as needed. Returns the
    /// previous value if the slot was occupied.
    pub fn insert(&mut self, id: usize, value: T) -> Option<T> {
        self.grow_to(id + 1);
        mark(&mut self.marked, &mut self.dirty, id);
        let previous = self.slots[id].replace(value);
        if previous.is_none() {
            self.live += 1;
        }
        previous
    }

    /// Mutable access to `id`'s value, inserting `T::default()` into a
    /// vacant slot first (the `HashMap::entry(..).or_default()` equivalent).
    pub fn get_or_default(&mut self, id: usize) -> &mut T
    where
        T: Default,
    {
        self.grow_to(id + 1);
        mark(&mut self.marked, &mut self.dirty, id);
        let slot = &mut self.slots[id];
        if slot.is_none() {
            self.live += 1;
        }
        slot.get_or_insert_with(T::default)
    }

    /// Removes and returns `id`'s value, freeing the slot.
    pub fn remove(&mut self, id: usize) -> Option<T> {
        let value = self.slots.get_mut(id)?.take()?;
        mark(&mut self.marked, &mut self.dirty, id);
        self.live -= 1;
        Some(value)
    }

    /// Number of live (occupied) slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no slot is occupied.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates over `(id, value)` pairs in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|v| (i, v)))
    }

    /// Iterates over the live values in increasing id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Mutably iterates over the live values in increasing id order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        let (marked, dirty) = (&mut self.marked, &mut self.dirty);
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(move |(id, slot)| {
                let value = slot.as_mut()?;
                mark(marked, dirty, id);
                Some(value)
            })
    }

    /// Brings `self` up to date with `src` by copying only the slots `src`
    /// recorded dirty, reusing each destination value's allocations
    /// (`clone_from`), and clears `src`'s record. Cost is `O(slots dirtied)`.
    ///
    /// `self` must hold what `src` held when its record was last cleared —
    /// both freshly created, or `self` last written by this very call. Two
    /// new arenas qualify, so the first sync is the full copy.
    pub fn sync_from(&mut self, src: &mut DenseArena<T>)
    where
        T: Clone,
    {
        self.grow_to(src.slots.len());
        for id in src.dirty.drain(..) {
            src.marked[id / 64] &= !(1u64 << (id % 64));
            match (&src.slots[id], &mut self.slots[id]) {
                (Some(from), Some(into)) => into.clone_from(from),
                (from, into) => *into = from.clone(),
            }
        }
        self.live = src.live;
    }
}

/// A dense map from [`TermId`] to `T`: the [`DenseArena`] keyed by the
/// interned term id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TermArena<T> {
    inner: DenseArena<T>,
}

impl<T> TermArena<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self {
            inner: DenseArena::new(),
        }
    }

    /// Creates an empty arena with slot capacity for `terms` term ids.
    pub fn with_capacity(terms: usize) -> Self {
        Self {
            inner: DenseArena::with_capacity(terms),
        }
    }

    /// The value stored for `term`, if any.
    #[inline]
    pub fn get(&self, term: TermId) -> Option<&T> {
        self.inner.get(term.0 as usize)
    }

    /// Mutable access to the value stored for `term`, if any.
    #[inline]
    pub fn get_mut(&mut self, term: TermId) -> Option<&mut T> {
        self.inner.get_mut(term.0 as usize)
    }

    /// Whether `term` has a value.
    #[inline]
    pub fn contains(&self, term: TermId) -> bool {
        self.inner.contains(term.0 as usize)
    }

    /// Mutable access to `term`'s value, inserting `T::default()` into a
    /// vacant slot first.
    pub fn get_or_default(&mut self, term: TermId) -> &mut T
    where
        T: Default,
    {
        self.inner.get_or_default(term.0 as usize)
    }

    /// Removes and returns `term`'s value, freeing the slot.
    pub fn remove(&mut self, term: TermId) -> Option<T> {
        self.inner.remove(term.0 as usize)
    }

    /// Number of live (occupied) slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether no slot is occupied.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Iterates over `(term, value)` pairs in increasing term-id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &T)> {
        self.inner.iter().map(|(i, v)| (TermId(i as u32), v))
    }

    /// Copies the slots `src` dirtied since its last sync into `self` and
    /// clears `src`'s record — see [`DenseArena::sync_from`] for the
    /// contract.
    pub fn sync_from(&mut self, src: &mut TermArena<T>)
    where
        T: Clone,
    {
        self.inner.sync_from(&mut src.inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    #[test]
    fn get_or_default_fills_and_reuses_slots() {
        let mut arena: TermArena<Vec<u32>> = TermArena::new();
        assert!(arena.is_empty());
        arena.get_or_default(t(5)).push(1);
        arena.get_or_default(t(5)).push(2);
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.get(t(5)), Some(&vec![1, 2]));
        assert!(arena.get(t(4)).is_none());
        assert!(!arena.contains(t(6)));
    }

    #[test]
    fn remove_frees_the_slot_and_the_slot_is_reusable() {
        let mut arena: TermArena<u64> = TermArena::with_capacity(8);
        *arena.get_or_default(t(3)) = 7;
        assert_eq!(arena.remove(t(3)), Some(7));
        assert_eq!(arena.len(), 0);
        assert!(arena.get(t(3)).is_none());
        assert_eq!(arena.remove(t(3)), None);
        // The freed slot accepts a fresh value.
        *arena.get_or_default(t(3)) = 9;
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.get(t(3)), Some(&9));
    }

    #[test]
    fn remove_beyond_the_grown_range_is_none() {
        let mut arena: TermArena<u64> = TermArena::new();
        assert_eq!(arena.remove(t(1_000_000)), None);
        assert_eq!(arena.len(), 0);
    }

    #[test]
    fn iter_visits_live_slots_in_term_order() {
        let mut arena: TermArena<&'static str> = TermArena::new();
        *arena.get_or_default(t(9)) = "nine";
        *arena.get_or_default(t(2)) = "two";
        *arena.get_or_default(t(5)) = "five";
        arena.remove(t(5));
        let pairs: Vec<(u32, &str)> = arena.iter().map(|(t, v)| (t.0, *v)).collect();
        assert_eq!(pairs, vec![(2, "two"), (9, "nine")]);
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut arena: TermArena<u64> = TermArena::new();
        *arena.get_or_default(t(0)) = 1;
        *arena.get_mut(t(0)).unwrap() += 41;
        assert_eq!(arena.get(t(0)), Some(&42));
        assert!(arena.get_mut(t(7)).is_none());
    }

    #[test]
    fn dense_arena_insert_replaces_and_counts() {
        let mut arena: DenseArena<u32> = DenseArena::new();
        assert_eq!(arena.insert(2, 20), None);
        assert_eq!(arena.insert(2, 21), Some(20));
        assert_eq!(arena.insert(0, 1), None);
        assert_eq!(arena.len(), 2);
        let values: Vec<u32> = arena.values().copied().collect();
        assert_eq!(values, vec![1, 21]);
        for v in arena.values_mut() {
            *v += 1;
        }
        assert_eq!(arena.get(0), Some(&2));
        assert_eq!(arena.get(2), Some(&22));
    }
}
