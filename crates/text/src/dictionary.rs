//! Term dictionary: interning of terms into dense [`TermId`]s.
//!
//! Every distinct (post-analysis) term in the system is assigned a dense
//! integer id. The engine, index and corpus crates operate exclusively on
//! `TermId`s; the dictionary is the single place where term strings live.
//! A realistic dictionary for a newswire stream holds on the order of
//! 100,000–200,000 terms (the paper's WSJ dictionary has 181,978), so lookups
//! must be cheap and the per-term overhead small.
//!
//! Each term is stored once. Id → term is one string arena plus a `u32` end
//! offset per term; term → id is an inline-key table (see `table.rs`) whose
//! slot *is* the term for anything up to 15 bytes, so neither direction boxes
//! a string per term.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use crate::table::InlineKeyTable;

/// Dense identifier of an interned term.
///
/// Internally a `u32`, which comfortably covers realistic dictionary sizes
/// (the paper's WSJ dictionary has 181,978 terms) while keeping postings and
/// composition lists compact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TermId(pub u32);

impl TermId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Per-term statistics tracked by the dictionary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TermStats {
    /// Number of documents this term has been observed in (monotonic; not
    /// decremented on expiration — it reflects the whole history seen so far
    /// and is only used for reporting and for IDF-style weighting models).
    pub document_frequency: u64,
    /// Total number of occurrences observed across all documents.
    pub collection_frequency: u64,
}

/// Source of [`Dictionary::identity`]: starts at 1, so 0 names no dictionary.
static NEXT_IDENTITY: AtomicU64 = AtomicU64::new(1);

fn fresh_identity() -> u64 {
    // A label, not a publication: nothing is read through it.
    NEXT_IDENTITY.fetch_add(1, Ordering::Relaxed)
}

/// A bidirectional term ↔ id mapping with per-term statistics.
#[derive(Debug)]
pub struct Dictionary {
    identity: u64,
    /// Every term's bytes, in id order, back to back.
    arena: String,
    /// `ends[i]` is where term `i` ends in `arena`; it starts where term
    /// `i − 1` ended.
    ends: Vec<u32>,
    by_term: InlineKeyTable,
    /// The id of the empty term, which the table cannot key.
    empty_term: Option<TermId>,
    stats: Vec<TermStats>,
}

impl Default for Dictionary {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

/// A clone is a *different* dictionary that happens to start with the same
/// ids: it gets its own [`Dictionary::identity`], so nothing cached against
/// the original is ever served to the copy once the two diverge.
impl Clone for Dictionary {
    fn clone(&self) -> Self {
        Self {
            identity: fresh_identity(),
            arena: self.arena.clone(),
            ends: self.ends.clone(),
            by_term: self.by_term.clone(),
            empty_term: self.empty_term,
            stats: self.stats.clone(),
        }
    }
}

/// The one place a dictionary may panic: past `u32::MAX − 1` terms or 4 GiB
/// of term text there is no valid [`TermId`] or offset left to issue, and
/// returning a wrong one would silently merge terms.
#[expect(
    clippy::expect_used,
    reason = "no valid id or offset exists past u32 and a wrong one merges terms"
)]
fn to_u32(n: usize) -> u32 {
    u32::try_from(n).expect("dictionary exceeds u32 terms")
}

impl Dictionary {
    /// Ids are issued below this value, which leaves `u32::MAX` free for
    /// callers that pack "no term" into the same word as an id.
    pub const MAX_TERMS: usize = u32::MAX as usize;

    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty dictionary with capacity for `n` terms.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            identity: fresh_identity(),
            arena: String::new(),
            ends: Vec::with_capacity(n),
            by_term: InlineKeyTable::with_capacity(n),
            empty_term: None,
            stats: Vec::with_capacity(n),
        }
    }

    /// A number no other dictionary in this process has or will have: fresh
    /// from every constructor and from [`Clone`]. An id cached under one
    /// identity is valid for exactly that dictionary, for as long as it
    /// lives, because ids are never reassigned.
    pub fn identity(&self) -> u64 {
        self.identity
    }

    /// Interns `term`, returning its id. Existing terms return their existing
    /// id; new terms are appended.
    pub fn intern(&mut self, term: &str) -> TermId {
        if let Some(id) = self.lookup(term) {
            return id;
        }
        // `MAX_TERMS` itself is out of range: `len + 1` must still fit.
        let id = TermId(to_u32(self.ends.len() + 1) - 1);
        self.arena.push_str(term);
        self.ends.push(to_u32(self.arena.len()));
        if term.is_empty() {
            self.empty_term = Some(id);
        } else {
            self.by_term.insert(term.as_bytes(), id.0);
        }
        self.stats.push(TermStats::default());
        id
    }

    /// Looks up the id of `term` without interning it.
    pub fn lookup(&self, term: &str) -> Option<TermId> {
        if term.is_empty() {
            return self.empty_term;
        }
        self.by_term.get(term.as_bytes()).map(TermId)
    }

    /// Returns the term string for `id`, if it exists.
    pub fn term(&self, id: TermId) -> Option<&str> {
        let end = *self.ends.get(id.index())? as usize;
        let start = match id.index().checked_sub(1) {
            Some(previous) => *self.ends.get(previous)? as usize,
            None => 0,
        };
        self.arena.get(start..end)
    }

    /// Returns the statistics recorded for `id`.
    pub fn stats(&self, id: TermId) -> Option<TermStats> {
        self.stats.get(id.index()).copied()
    }

    /// Records that `id` occurred `count` times in one (new) document.
    pub fn record_occurrences(&mut self, id: TermId, count: u64) {
        if let Some(s) = self.stats.get_mut(id.index()) {
            s.document_frequency += 1;
            s.collection_frequency += count;
        }
    }

    /// Number of distinct terms interned.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterates over `(TermId, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &str)> {
        let mut start = 0usize;
        self.ends.iter().enumerate().map(move |(i, &end)| {
            let term = self.arena.get(start..end as usize).unwrap_or_default();
            start = end as usize;
            (TermId(i as u32), term)
        })
    }

    /// Total number of term occurrences recorded across all documents.
    pub fn total_collection_frequency(&self) -> u64 {
        self.stats.iter().map(|s| s.collection_frequency).sum()
    }

    /// Heap bytes this dictionary owns, from capacities: the term arena, the
    /// offsets, the term → id table and the statistics. Plain arithmetic, no
    /// allocator or clock involved.
    pub fn heap_bytes(&self) -> usize {
        self.arena.capacity()
            + self.ends.capacity() * std::mem::size_of::<u32>()
            + self.by_term.heap_bytes()
            + self.stats.capacity() * std::mem::size_of::<TermStats>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern("tower");
        let b = d.intern("white");
        let a2 = d.intern("tower");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn ids_are_dense_and_ordered_by_insertion() {
        let mut d = Dictionary::new();
        for (i, t) in ["alpha", "beta", "gamma"].iter().enumerate() {
            let id = d.intern(t);
            assert_eq!(id.index(), i);
        }
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut d = Dictionary::new();
        assert!(d.lookup("missing").is_none());
        assert_eq!(d.len(), 0);
        d.intern("present");
        assert!(d.lookup("present").is_some());
    }

    #[test]
    fn term_roundtrip() {
        let mut d = Dictionary::new();
        let id = d.intern("explosives");
        assert_eq!(d.term(id), Some("explosives"));
        assert_eq!(d.term(TermId(999)), None);
    }

    #[test]
    fn stats_accumulate() {
        let mut d = Dictionary::new();
        let id = d.intern("market");
        d.record_occurrences(id, 3);
        d.record_occurrences(id, 2);
        let s = d.stats(id).unwrap();
        assert_eq!(s.document_frequency, 2);
        assert_eq!(s.collection_frequency, 5);
        assert_eq!(d.total_collection_frequency(), 5);
    }

    #[test]
    fn iter_yields_all_terms() {
        let mut d = Dictionary::new();
        d.intern("a");
        d.intern("b");
        let collected: Vec<_> = d.iter().map(|(id, t)| (id.0, t.to_string())).collect();
        assert_eq!(collected, vec![(0, "a".to_string()), (1, "b".to_string())]);
    }

    #[test]
    fn display_format() {
        assert_eq!(TermId(11).to_string(), "t11");
    }

    #[test]
    fn empty_and_long_terms_roundtrip() {
        let mut d = Dictionary::new();
        let long = "a-term-well-past-the-fifteen-inline-bytes";
        let a = d.intern("short");
        let e = d.intern("");
        let l = d.intern(long);
        let z = d.intern("zürich");
        assert_eq!(d.intern(""), e);
        assert_eq!(d.intern(long), l);
        assert_eq!(d.lookup(long), Some(l));
        assert_eq!(
            d.iter().collect::<Vec<_>>(),
            vec![(a, "short"), (e, ""), (l, long), (z, "zürich")]
        );
        assert_eq!(d.term(e), Some(""));
        assert_eq!(d.term(z), Some("zürich"));
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn identity_is_unique_and_refreshed_by_clone() {
        let mut a = Dictionary::new();
        let b = Dictionary::with_capacity(8);
        assert_ne!(a.identity(), 0);
        assert_ne!(a.identity(), b.identity());
        a.intern("tower");
        let before = a.identity();
        let mut c = a.clone();
        assert_eq!(a.identity(), before, "interning does not change identity");
        assert_ne!(c.identity(), a.identity());
        // The copy starts equal and diverges on its own.
        assert_eq!(c.lookup("tower"), a.lookup("tower"));
        assert_eq!(c.intern("white"), a.intern("black"));
        assert_eq!(std::mem::take(&mut a).identity(), before);
        assert_ne!(a.identity(), before, "a replaced dictionary is a new one");
    }

    #[test]
    fn heap_bytes_counts_every_structure() {
        let mut d = Dictionary::new();
        assert_eq!(d.heap_bytes(), 0);
        for i in 0..1_000 {
            d.intern(&format!("term{i}"));
        }
        // 6,890 bytes of text, 1,000 offsets, 1,000 stats and a 2,048-slot
        // table of 20-byte slots are the floor; capacities may round up.
        let floor = 6_890 + 4 * 1_000 + 16 * 1_000 + 20 * 2_048;
        assert!(d.heap_bytes() >= floor, "{}", d.heap_bytes());
        assert!(d.heap_bytes() < 2 * floor, "{}", d.heap_bytes());
    }

    #[test]
    fn with_capacity_starts_empty() {
        let d = Dictionary::with_capacity(1000);
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
    }
}
