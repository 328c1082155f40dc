//! Dense, small-integer-indexed arenas and the live-term key space.
//!
//! Interned identifiers ([`TermId`] from `cts_text::Dictionary`, `QueryId`
//! from the engines' monotone counters) are dense small integers, so
//! per-id state — an inverted list, a threshold tree, a query's view — does
//! not need a hash map or an ordered tree: a `Vec<Option<T>>` indexed by a
//! small key gives a one-instruction lookup with no hashing, no probing and
//! no pointer chase, at the cost of one `Option` slot per key ever seen.
//! [`DenseArena`] is that one arena type (`cts-core` wraps it as its
//! query-state slab). Arenas grow lazily to the highest key seen, count live
//! slots (so `len` is `O(1)`), and free a slot when its value is removed.
//!
//! What a slot costs depends on what the keys are, and [`LiveTerms`] — the
//! set of terms some registered query uses — is where a per-term arena's
//! key space is chosen, once, when its owner is built:
//!
//! * **Identity keys** ([`LiveTerms::identity`]): the key is the term id.
//!   This is right for the *full* index, which files every term of every
//!   document: a 182k-term dictionary costs 7 MB of list slots against
//!   hundreds of megabytes of postings, and the ~460 list lookups of an
//!   arrival + expiration pair are each one array index. Putting a
//!   `term → slot` indirection under them was measured at one extra
//!   dependent cache miss per lookup (`paper_single.event_us` 198–218 →
//!   228–240 µs), so the full index stays directly id-indexed.
//! * **Live-slot keys** ([`LiveTerms::live_slots`]): the key is a compact
//!   slot handed out when a term's reference count leaves zero and recycled
//!   when it returns there. This is right for a *term-filtered* index, which
//!   files ~5k of the 182k terms: id-indexed arenas would spend 12 MB of
//!   empty `Option` slots around 1.7 MB of postings — per shard, and again
//!   per recovery checkpoint — where slot keys make list arena, tree arena
//!   and refcount table track the live terms (FAST, arXiv:1709.02529: spend
//!   memory by frequency of *use*). Only the `term → slot` table (one `u32`
//!   per term id) is vocabulary-sized, and it is read only for the handful
//!   of a document's terms that pass the bitmap.
//!
//! Either way the set keeps one bit per term id, flipped exactly where a
//! reference count crosses zero: [`LiveTerms::intersect`] cuts a ~230-entry
//! composition list down to the ~10 entries that can matter to any query
//! against a 22 KB bitmap, before any arena is touched.

use cts_text::{TermId, WeightedTerm};

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

    /// Slots allocated, occupied or not — what the arena costs in memory
    /// beyond the values it holds.
    pub fn slot_capacity(&self) -> usize {
        self.slots.capacity()
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

/// The terms referenced by at least one registered query, and the key under
/// which each term's per-term state (inverted list, threshold tree, the
/// reference count itself) is filed in a [`DenseArena`] — see the module
/// documentation for the two key spaces.
///
/// Reference counts are the owner's to keep: one [`LiveTerms::acquire`] per
/// (query, term) at registration or migration-in, one [`LiveTerms::release`]
/// at deregistration or migration-out.
#[derive(Debug, Clone, Default)]
pub struct LiveTerms {
    /// One bit per term id, set iff the term's reference count is positive.
    bits: Vec<u64>,
    /// Reference counts, indexed by key.
    counts: Vec<u32>,
    /// `Some` when keys are live slots, `None` when they are term ids.
    slots: Option<SlotTable>,
    /// Number of terms with a positive count.
    live: usize,
    /// A count changed since [`LiveTerms::sync_from`] last read this set.
    /// Only registration, deregistration and migration do that, so a steady
    /// stream never pays for the copy.
    changed: bool,
}

/// The `term → slot` assignment of a live-slot key space.
#[derive(Debug, Clone, Default, PartialEq)]
struct SlotTable {
    /// `slot + 1` of each live term and 0 for every other, by term id.
    of_term: Vec<u32>,
    /// The term that holds (or, for a vacant slot, last held) each slot.
    term_of: Vec<TermId>,
    /// Vacant slots, reused last-in-first-out before a new one is minted.
    free: Vec<u32>,
}

/// Equality of contents: the same counts under the same keys. The change
/// flag is bookkeeping, not state.
impl PartialEq for LiveTerms {
    fn eq(&self, other: &Self) -> bool {
        self.bits == other.bits && self.counts == other.counts && self.slots == other.slots
    }
}

impl LiveTerms {
    /// An empty set whose keys are the term ids themselves.
    pub fn identity() -> Self {
        Self::default()
    }

    /// An empty set whose keys are compact, recycled slots: only a live
    /// term has a key, and keys stay below the peak number of live terms.
    pub fn live_slots() -> Self {
        Self {
            slots: Some(SlotTable::default()),
            ..Self::default()
        }
    }

    /// Whether keys are live slots (as opposed to term ids).
    #[inline]
    pub fn keys_are_slots(&self) -> bool {
        self.slots.is_some()
    }

    /// Whether any registered query references `term`: one bit test.
    #[inline]
    pub fn contains(&self, term: TermId) -> bool {
        let id = term.0 as usize;
        self.bits
            .get(id / 64)
            .is_some_and(|word| word >> (id % 64) & 1 == 1)
    }

    /// The arena key of `term`. With identity keys every term has one; with
    /// live-slot keys only a live term does.
    #[inline]
    pub fn key(&self, term: TermId) -> Option<usize> {
        match &self.slots {
            None => Some(term.0 as usize),
            Some(table) => {
                let slot = *table.of_term.get(term.0 as usize)?;
                slot.checked_sub(1).map(|slot| slot as usize)
            }
        }
    }

    /// The term filed under `key` (for a vacant live slot, the term that
    /// last held it). Audits and statistics walk arenas by key and name
    /// what they find through this.
    pub fn term_of(&self, key: usize) -> TermId {
        match &self.slots {
            None => TermId(key as u32),
            Some(table) => table.term_of[key],
        }
    }

    /// How many references `term` holds.
    pub fn count(&self, term: TermId) -> u32 {
        self.key(term)
            .and_then(|key| self.counts.get(key))
            .copied()
            .unwrap_or(0)
    }

    /// Number of live terms.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no term is live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Reference-count slots allocated — vocabulary-sized with identity
    /// keys, bounded by twice the peak live-term count with live-slot keys.
    pub fn slot_capacity(&self) -> usize {
        self.counts.capacity()
    }

    /// The live terms in increasing term-id order.
    pub fn iter(&self) -> impl Iterator<Item = TermId> + '_ {
        self.bits.iter().enumerate().flat_map(|(word, bits)| {
            (0..64)
                .filter(move |bit| bits >> bit & 1 == 1)
                .map(move |bit| TermId((word * 64 + bit) as u32))
        })
    }

    /// Takes one reference on `term`; `true` when it is the first — the
    /// term just became live (and, with live-slot keys, was given a slot).
    pub fn acquire(&mut self, term: TermId) -> bool {
        self.changed = true;
        if let (true, Some(key)) = (self.contains(term), self.key(term)) {
            self.counts[key] += 1;
            return false;
        }
        let id = term.0 as usize;
        let key = match &mut self.slots {
            None => id,
            Some(table) => {
                let slot = table.free.pop().unwrap_or(table.term_of.len() as u32);
                if slot as usize == table.term_of.len() {
                    table.term_of.push(term);
                } else {
                    table.term_of[slot as usize] = term;
                }
                if id >= table.of_term.len() {
                    table.of_term.resize(id + 1, 0);
                }
                table.of_term[id] = slot + 1;
                slot as usize
            }
        };
        if key >= self.counts.len() {
            self.counts.resize(key + 1, 0);
        }
        self.counts[key] = 1;
        if id / 64 >= self.bits.len() {
            self.bits.resize(id / 64 + 1, 0);
        }
        self.bits[id / 64] |= 1u64 << (id % 64);
        self.live += 1;
        true
    }

    /// Drops one reference on `term`. Returns the term's key when that was
    /// the last one: the term just died, and whatever the owner filed under
    /// the key must go before the next [`LiveTerms::acquire`] can hand a
    /// recycled slot to another term.
    ///
    /// # Panics
    ///
    /// Panics if `term` holds no reference — the owner's bookkeeping is
    /// corrupt.
    pub fn release(&mut self, term: TermId) -> Option<usize> {
        let key = self
            .key(term)
            .filter(|key| self.counts.get(*key).is_some_and(|count| *count > 0));
        let Some(key) = key else {
            panic!("release of unreferenced term {term}");
        };
        self.changed = true;
        self.counts[key] -= 1;
        if self.counts[key] > 0 {
            return None;
        }
        let id = term.0 as usize;
        self.bits[id / 64] &= !(1u64 << (id % 64));
        self.live -= 1;
        if let Some(table) = &mut self.slots {
            table.of_term[id] = 0;
            table.free.push(key as u32);
        }
        Some(key)
    }

    /// Replaces `out` with the entries of `composition` whose term is live,
    /// in order — the one pass an arriving or expiring document makes over
    /// its full composition list; everything after it (filing, the threshold
    /// probe, scoring) walks `out`.
    #[inline]
    pub fn intersect(&self, composition: &[WeightedTerm], out: &mut Vec<WeightedTerm>) {
        out.clear();
        out.extend(
            composition
                .iter()
                .filter(|entry| self.contains(entry.term))
                .copied(),
        );
    }

    /// Brings `self` up to date with `src` — a whole copy, but only if a
    /// count changed since the previous call — and clears `src`'s flag.
    pub fn sync_from(&mut self, src: &mut LiveTerms) {
        if src.changed {
            self.bits.clone_from(&src.bits);
            self.counts.clone_from(&src.counts);
            self.slots.clone_from(&src.slots);
            self.live = src.live;
            src.changed = false;
        }
    }

    /// Audits the set, panicking with a description on violation: a term's
    /// bit is set iff its count is positive, `len` is the number of set
    /// bits, and — with live-slot keys — every live term holds a slot of its
    /// own, every other slot is on the free list exactly once, and a vacant
    /// slot's count is zero.
    pub fn check_invariants(&self) {
        assert_eq!(self.iter().count(), self.live, "live-term count is off");
        for term in self.iter() {
            assert!(
                self.count(term) > 0,
                "{term} has its bit set but no reference"
            );
        }
        let referenced = self.counts.iter().filter(|count| **count > 0).count();
        assert_eq!(referenced, self.live, "a positive count has no bit set");
        let Some(table) = &self.slots else {
            return;
        };
        assert_eq!(
            table.term_of.len(),
            self.counts.len(),
            "slot tables disagree on length"
        );
        let held = table.of_term.iter().filter(|slot| **slot > 0).count();
        assert_eq!(held, self.live, "a dead term still holds a slot");
        for term in self.iter() {
            let key = self.key(term);
            assert!(
                key.is_some_and(|key| table.term_of.get(key) == Some(&term)),
                "{term} is live but its slot {key:?} belongs to another term"
            );
        }
        let mut vacant = vec![false; table.term_of.len()];
        for slot in &table.free {
            let slot = *slot as usize;
            assert_eq!(self.counts[slot], 0, "free slot {slot} holds references");
            assert!(
                !std::mem::replace(&mut vacant[slot], true),
                "slot {slot} is free twice"
            );
        }
        assert_eq!(
            table.free.len() + self.live,
            table.term_of.len(),
            "a slot is neither held nor free"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_text::Weight;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    #[test]
    fn get_or_default_fills_and_reuses_slots() {
        let mut arena: DenseArena<Vec<u32>> = DenseArena::new();
        assert!(arena.is_empty());
        arena.get_or_default(5).push(1);
        arena.get_or_default(5).push(2);
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.get(5), Some(&vec![1, 2]));
        assert!(arena.get(4).is_none());
        assert!(!arena.contains(6));
    }

    #[test]
    fn remove_frees_the_slot_and_the_slot_is_reusable() {
        let mut arena: DenseArena<u64> = DenseArena::with_capacity(8);
        *arena.get_or_default(3) = 7;
        assert_eq!(arena.remove(3), Some(7));
        assert_eq!(arena.len(), 0);
        assert!(arena.get(3).is_none());
        assert_eq!(arena.remove(3), None);
        // The freed slot accepts a fresh value.
        *arena.get_or_default(3) = 9;
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.get(3), Some(&9));
    }

    #[test]
    fn remove_beyond_the_grown_range_is_none() {
        let mut arena: DenseArena<u64> = DenseArena::new();
        assert_eq!(arena.remove(1_000_000), None);
        assert_eq!(arena.len(), 0);
    }

    #[test]
    fn iter_visits_live_slots_in_term_order() {
        let mut arena: DenseArena<&'static str> = DenseArena::new();
        *arena.get_or_default(9) = "nine";
        *arena.get_or_default(2) = "two";
        *arena.get_or_default(5) = "five";
        arena.remove(5);
        let pairs: Vec<(usize, &str)> = arena.iter().map(|(t, v)| (t, *v)).collect();
        assert_eq!(pairs, vec![(2, "two"), (9, "nine")]);
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut arena: DenseArena<u64> = DenseArena::new();
        *arena.get_or_default(0) = 1;
        *arena.get_mut(0).unwrap() += 41;
        assert_eq!(arena.get(0), Some(&42));
        assert!(arena.get_mut(7).is_none());
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

    #[test]
    fn identity_keys_are_term_ids_and_the_bitmap_follows_the_counts() {
        let mut live = LiveTerms::identity();
        assert!(!live.keys_are_slots());
        assert_eq!(live.key(t(181_977)), Some(181_977), "every term is keyed");
        assert!(live.acquire(t(70)));
        assert!(!live.acquire(t(70)));
        assert!(live.acquire(t(3)));
        assert!(live.contains(t(70)) && live.contains(t(3)) && !live.contains(t(4)));
        assert_eq!(
            (live.count(t(70)), live.count(t(3)), live.count(t(4))),
            (2, 1, 0)
        );
        assert_eq!(live.iter().collect::<Vec<_>>(), vec![t(3), t(70)]);
        assert_eq!(live.release(t(70)), None);
        assert!(live.contains(t(70)));
        assert_eq!(live.release(t(70)), Some(70));
        assert!(!live.contains(t(70)));
        assert_eq!(live.len(), 1);
        live.check_invariants();
    }

    #[test]
    fn live_slots_are_compact_and_recycled() {
        let mut live = LiveTerms::live_slots();
        assert!(live.keys_are_slots());
        assert_eq!(live.key(t(181_977)), None, "a dead term has no key");
        for term in [181_977, 5, 90_000] {
            assert!(live.acquire(t(term)));
        }
        assert!(!live.acquire(t(5)));
        let keys: Vec<_> = [181_977, 5, 90_000].map(|term| live.key(t(term))).to_vec();
        assert_eq!(keys, vec![Some(0), Some(1), Some(2)]);
        assert_eq!(live.term_of(1), t(5));
        // The last release vacates the slot; the next newly-live term gets it.
        assert_eq!(live.release(t(181_977)), Some(0));
        assert_eq!(live.key(t(181_977)), None);
        assert_eq!(live.release(t(5)), None);
        assert!(live.acquire(t(42)));
        assert_eq!(live.key(t(42)), Some(0));
        assert_eq!(live.term_of(0), t(42));
        assert_eq!(live.len(), 3);
        assert!(live.slot_capacity() <= 6, "slots track live terms, not ids");
        live.check_invariants();
    }

    #[test]
    #[should_panic(expected = "release of unreferenced term")]
    fn releasing_a_dead_term_panics() {
        let mut live = LiveTerms::live_slots();
        live.acquire(t(1));
        live.release(t(1));
        live.release(t(1));
    }

    #[test]
    fn intersect_keeps_the_live_entries_in_order() {
        let mut live = LiveTerms::live_slots();
        for term in [2, 64, 65, 200] {
            live.acquire(t(term));
        }
        let composition: Vec<WeightedTerm> = [1u32, 2, 63, 64, 66, 200, 9_999]
            .iter()
            .map(|&term| WeightedTerm {
                term: t(term),
                weight: Weight::new(f64::from(term) + 0.5),
            })
            .collect();
        let mut out = vec![composition[0]];
        live.intersect(&composition, &mut out);
        let terms: Vec<u32> = out.iter().map(|entry| entry.term.0).collect();
        assert_eq!(terms, vec![2, 64, 200]);
        assert_eq!(out[1].weight, Weight::new(64.5));
        live.release(t(64));
        live.intersect(&composition, &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn live_terms_sync_copies_only_after_a_change() {
        for mut live in [LiveTerms::identity(), LiveTerms::live_slots()] {
            let mut copy = live.clone();
            live.acquire(t(9));
            live.acquire(t(4));
            live.release(t(9));
            copy.sync_from(&mut live);
            assert!(copy == live);
            assert_eq!(copy.len(), 1);
            // A recycled slot lands where the copy expects it.
            live.acquire(t(77));
            copy.sync_from(&mut live);
            assert!(copy == live);
            assert_eq!(copy.key(t(77)), live.key(t(77)));
            copy.check_invariants();
            // The copy carries no change record of its own: a set restored
            // from it keeps syncing into it.
            let mut restored = copy.clone();
            restored.acquire(t(4));
            copy.sync_from(&mut restored);
            assert_eq!(copy.count(t(4)), 2);
        }
    }
}
