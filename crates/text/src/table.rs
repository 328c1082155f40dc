//! An append-only `bytes → u32` table whose slots hold the key inline.
//!
//! Both maps on the raw-text path are this table: the [`crate::Analyzer`]'s
//! surface-form memo (token → stop / term id) and the
//! [`crate::Dictionary`]'s term → id direction. A key of up to
//! [`INLINE_KEY_BYTES`] bytes is packed with its length into two `u64`s, so a
//! probe reads one 20-byte slot and compares two words — no pointer to a
//! boxed key, no separate control bytes. Longer keys (rare: the default
//! tokenizer stops at 40 characters and English words over 15 letters are
//! under 1% of a newswire vocabulary) spill to a std `HashMap`.
//!
//! Open addressing with linear probing over a power-of-two slot array that
//! doubles at 3/4 load, where a successful probe reads 2.5 slots on average.
//! The hash is two folded 64×64→128 multiplies: the key words, each xored
//! with a seed drawn per table from [`RandomState`], multiplied together,
//! then the fold multiplied by a constant. Keys come from the document
//! stream, so the seeds are never constants and two tables in one process do
//! not share them. Entries are never removed, only
//! [`InlineKeyTable::clear`]ed wholesale.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// Longest key stored inline; the sixteenth byte of a slot's key words is
/// the key's length.
pub(crate) const INLINE_KEY_BYTES: usize = 15;

/// Slots allocated by the first inline insert.
const FIRST_SLOTS: usize = 64;

/// Twenty bytes, four-byte aligned: padding the `u32` out to the `u64`s'
/// alignment would make every table a fifth larger for nothing — an
/// unaligned eight-byte load costs the same as an aligned one here.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, packed(4))]
struct Slot {
    /// Key bytes 0..8, little-endian, zero-padded.
    lo: u64,
    /// Key bytes 8..15 in the low seven bytes, the key length in the top
    /// byte. Zero marks an empty slot: a stored key has length ≥ 1.
    hi: u64,
    value: u32,
}

/// See the module documentation.
#[derive(Debug, Clone)]
pub(crate) struct InlineKeyTable {
    slots: Vec<Slot>,
    inline_len: usize,
    seeds: (u64, u64),
    spill: HashMap<Box<[u8]>, u32>,
    spill_key_bytes: usize,
}

/// Packs a key of 1..=15 bytes into its two slot words.
#[inline]
fn pack(key: &[u8]) -> Option<(u64, u64)> {
    if key.is_empty() || key.len() > INLINE_KEY_BYTES {
        return None;
    }
    let mut lo = [0u8; 8];
    let mut hi = [0u8; 8];
    if let Some((head, tail)) = key.split_at_checked(8) {
        lo.copy_from_slice(head);
        hi[..tail.len()].copy_from_slice(tail);
    } else {
        lo[..key.len()].copy_from_slice(key);
    }
    hi[7] = key.len() as u8;
    Some((u64::from_le_bytes(lo), u64::from_le_bytes(hi)))
}

/// The 128-bit product of two words, high half xored into the low.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

/// One value from a freshly keyed std hasher: the process's source of hash
/// seeds, with no dependency on a random-number crate.
fn random_seed() -> u64 {
    RandomState::new().build_hasher().finish()
}

impl InlineKeyTable {
    /// An empty table; allocates on first insert.
    pub(crate) fn new() -> Self {
        Self {
            slots: Vec::new(),
            inline_len: 0,
            seeds: (random_seed(), random_seed()),
            spill: HashMap::new(),
            spill_key_bytes: 0,
        }
    }

    /// An empty table that holds `n` inline keys without growing.
    pub(crate) fn with_capacity(n: usize) -> Self {
        let mut table = Self::new();
        if n > 0 {
            table.slots = vec![Slot::default(); slots_for(n)];
        }
        table
    }

    #[inline]
    fn hash(&self, lo: u64, hi: u64) -> usize {
        // One seeded multiply alone is a lattice: on structured keys (one
        // word constant, the other counting) it probes anywhere between 1.0
        // and 3.6 slots depending on the seeds drawn. The second round makes
        // it 2.5, the figure for a random function, on every key set tried.
        let keyed = folded_multiply(lo ^ self.seeds.0, hi ^ self.seeds.1);
        folded_multiply(keyed, 0x9E37_79B9_7F4A_7C15) as usize
    }

    /// The value stored for `key`.
    #[inline]
    pub(crate) fn get(&self, key: &[u8]) -> Option<u32> {
        let Some((lo, hi)) = pack(key) else {
            return self.spill.get(key).copied();
        };
        let mask = self.slots.len().wrapping_sub(1);
        let mut at = self.hash(lo, hi) & mask;
        // An empty table has no slot to read; a full one cannot exist (it
        // doubles at 3/4), so the walk ends at a match or an empty slot.
        while let Some(slot) = self.slots.get(at) {
            if slot.hi == hi && slot.lo == lo {
                return Some(slot.value);
            }
            if slot.hi == 0 {
                return None;
            }
            at = (at + 1) & mask;
        }
        None
    }

    /// Stores `value` for `key`, replacing any earlier value. The empty key
    /// is not storable and is ignored (no tokenizer emits it; the dictionary
    /// keeps it out of the table).
    pub(crate) fn insert(&mut self, key: &[u8], value: u32) {
        let Some((lo, hi)) = pack(key) else {
            if !key.is_empty() && self.spill.insert(key.into(), value).is_none() {
                self.spill_key_bytes += key.len();
            }
            return;
        };
        if (self.inline_len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let hash = self.hash(lo, hi);
        if place(&mut self.slots, hash, Slot { lo, hi, value }) {
            self.inline_len += 1;
        }
    }

    fn grow(&mut self) {
        let doubled = (self.slots.len() * 2).max(FIRST_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![Slot::default(); doubled]);
        for slot in old.into_iter().filter(|slot| slot.hi != 0) {
            let hash = self.hash(slot.lo, slot.hi);
            place(&mut self.slots, hash, slot);
        }
    }

    /// Forgets every entry and keeps the allocation and the seeds.
    pub(crate) fn clear(&mut self) {
        self.slots.fill(Slot::default());
        self.inline_len = 0;
        self.spill.clear();
        self.spill_key_bytes = 0;
    }

    /// Entries stored, inline and spilled.
    pub(crate) fn len(&self) -> usize {
        self.inline_len + self.spill.len()
    }

    /// Inline slots allocated.
    pub(crate) fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Entries whose key was too long for a slot.
    pub(crate) fn spilled(&self) -> usize {
        self.spill.len()
    }

    /// Heap bytes owned: the slot array exactly; for the spill map its
    /// buckets (key pointer and length, value, one control byte) and the key
    /// bytes, without allocator rounding.
    pub(crate) fn heap_bytes(&self) -> usize {
        const SPILL_BUCKET: usize = std::mem::size_of::<(Box<[u8]>, u32)>() + 1;
        self.slots.capacity() * std::mem::size_of::<Slot>()
            + self.spill.capacity() * SPILL_BUCKET
            + self.spill_key_bytes
    }
}

/// Smallest power-of-two slot count that holds `n` keys under 3/4 load.
fn slots_for(n: usize) -> usize {
    (n * 4 / 3 + 1).next_power_of_two().max(FIRST_SLOTS)
}

/// Files `new` at the first slot from `hash` that is empty or holds its key;
/// returns whether the key was new. `slots` is a non-empty power of two with
/// at least one empty slot.
fn place(slots: &mut [Slot], hash: usize, new: Slot) -> bool {
    let mask = slots.len() - 1;
    let mut at = hash & mask;
    loop {
        let slot = &mut slots[at];
        let vacant = slot.hi == 0;
        if vacant || (slot.hi == new.hi && slot.lo == new.lo) {
            *slot = new;
            return vacant;
        }
        at = (at + 1) & mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl InlineKeyTable {
        /// Slots read by a successful lookup, averaged over every inline key.
        fn mean_probe_length(&self) -> f64 {
            let mask = self.slots.len() - 1;
            let mut reads = 0usize;
            for (at, slot) in self.slots.iter().enumerate() {
                if slot.hi != 0 {
                    let home = self.hash(slot.lo, slot.hi) & mask;
                    reads += (at.wrapping_sub(home) & mask) + 1;
                }
            }
            reads as f64 / self.inline_len as f64
        }
    }

    /// 3/4 of 131,072 slots: the load just before the table doubles, the
    /// worst a lookup ever sees.
    const FULLEST: usize = 98_304;

    /// Mean probe length over 100k distinct keys, taken where it is worst:
    /// at the shipped maximum load on the way there, and at the end.
    fn worst_mean_probe_length(keys: impl Iterator<Item = Vec<u8>>) -> f64 {
        let mut table = InlineKeyTable::new();
        let mut at_fullest = 0.0;
        for (i, key) in keys.take(100_000).enumerate() {
            table.insert(&key, i as u32);
            if table.len() == FULLEST {
                assert_eq!(table.slots(), 131_072);
                at_fullest = table.mean_probe_length();
            }
        }
        assert_eq!(table.len(), 100_000, "keys must be distinct and inline");
        assert_eq!(table.spilled(), 0);
        table.mean_probe_length().max(at_fullest)
    }

    /// The bench generator's word shape: two consonant-vowel syllables
    /// counted in mixed radix, so neighbours differ in their first letters.
    fn synthetic_words() -> impl Iterator<Item = String> {
        const ONSETS: [&str; 8] = ["b", "ch", "dr", "fl", "k", "pl", "st", "th"];
        const VOWELS: [&str; 5] = ["a", "e", "io", "ou", "u"];
        const CODAS: [&str; 5] = ["", "n", "rk", "st", "m"];
        (0usize..).map(|index| {
            let mut word = String::new();
            let mut rest = index;
            for _ in 0..3 {
                word.push_str(ONSETS[rest % 8]);
                word.push_str(VOWELS[rest / 8 % 5]);
                word.push_str(CODAS[rest / 40 % 5]);
                rest /= 200;
            }
            word
        })
    }

    #[test]
    fn sequential_synthetic_words_probe_short() {
        let mean = worst_mean_probe_length(
            synthetic_words()
                .filter(|w| w.len() <= INLINE_KEY_BYTES)
                .map(String::into_bytes),
        );
        assert!(mean < 3.0, "mean probe length {mean}");
    }

    #[test]
    fn keys_sharing_a_twelve_byte_prefix_probe_short() {
        // The first key word is the same for every key; only the last three
        // bytes of the second differ.
        let mean = worst_mean_probe_length((0u32..).map(|i| {
            let mut key = b"commonprefix".to_vec();
            key.extend_from_slice(&i.to_le_bytes()[..3]);
            key
        }));
        assert!(mean < 3.0, "mean probe length {mean}");
    }

    #[test]
    fn same_length_keys_probe_short() {
        let mean = worst_mean_probe_length((0u32..).map(|i| format!("{i:08}").into_bytes()));
        assert!(mean < 3.0, "mean probe length {mean}");
    }

    #[test]
    fn doubling_never_loses_an_entry() {
        let mut table = InlineKeyTable::new();
        let mut slot_counts = vec![table.slots()];
        for i in 0..20_000u32 {
            // Every sixteenth key is too long for a slot and spills.
            let key = if i % 16 == 0 {
                format!("a-key-longer-than-fifteen-bytes-{i}")
            } else {
                format!("k{i}")
            };
            table.insert(key.as_bytes(), i);
            if slot_counts.last() != Some(&table.slots()) {
                slot_counts.push(table.slots());
                // Right after a doubling, everything inserted so far is
                // still there.
                for j in (0..=i).step_by(7) {
                    let earlier = if j % 16 == 0 {
                        format!("a-key-longer-than-fifteen-bytes-{j}")
                    } else {
                        format!("k{j}")
                    };
                    assert_eq!(table.get(earlier.as_bytes()), Some(j), "after {i}");
                }
            }
        }
        assert!(slot_counts.windows(2).skip(1).all(|w| w[1] == w[0] * 2));
        assert!(slot_counts.len() >= 9, "grew {slot_counts:?}");
        assert_eq!(table.len(), 20_000);
        assert_eq!(table.spilled(), 1_250);
        assert_eq!(table.get(b"k20000"), None);
    }

    #[test]
    fn boundary_lengths_go_inline_or_spill() {
        let mut table = InlineKeyTable::new();
        let fifteen = "abcdefghijklmno";
        let sixteen = "abcdefghijklmnop";
        table.insert(fifteen.as_bytes(), 15);
        table.insert(sixteen.as_bytes(), 16);
        table.insert(&fifteen.as_bytes()[..8], 8);
        table.insert(&fifteen.as_bytes()[..9], 9);
        assert_eq!(table.spilled(), 1);
        assert_eq!(table.len(), 4);
        assert_eq!(table.get(fifteen.as_bytes()), Some(15));
        assert_eq!(table.get(sixteen.as_bytes()), Some(16));
        assert_eq!(table.get(b"abcdefgh"), Some(8));
        assert_eq!(table.get(b"abcdefghi"), Some(9));
        // A key is its bytes and its length: trailing NULs are not padding.
        assert_eq!(table.get(b"abcdefgh\0"), None);
        assert_eq!(table.get(b""), None);
    }

    #[test]
    fn insert_replaces_and_clear_forgets() {
        let mut table = InlineKeyTable::with_capacity(10);
        let slots = table.slots();
        table.insert(b"term", 1);
        table.insert(b"term", 2);
        assert_eq!((table.len(), table.get(b"term")), (1, Some(2)));
        table.clear();
        assert_eq!((table.len(), table.get(b"term")), (0, None));
        assert_eq!(table.slots(), slots);
    }

    #[test]
    fn two_tables_in_one_process_draw_different_seeds() {
        let a = InlineKeyTable::new();
        let b = InlineKeyTable::new();
        assert_ne!(a.seeds, b.seeds);
        // A clone is the same table and must keep finding its entries.
        assert_eq!(a.clone().seeds, a.seeds);
    }
}
