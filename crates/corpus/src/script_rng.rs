//! A tiny seeded generator for differential test scripts.

/// A tiny deterministic pseudo-random generator (SplitMix64) for building
/// reproducible op scripts from a single `u64` seed.
///
/// Deliberately not `rand`: the differential suites of every crate draw
/// their scripts from it, and a 10-line generator keeps those scripts
/// byte-identical whatever `rand` does, while remaining statistically fine
/// for fuzzing-style interleavings.
#[derive(Debug, Clone)]
pub struct ScriptRng {
    state: u64,
}

impl ScriptRng {
    /// Creates a generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, bound)`. `bound` must be positive.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "empty range");
        // Multiply-shift keeps the draw uniform enough for test scripts
        // without a rejection loop.
        ((u128::from(self.next_u64()) * bound as u128) >> 64) as usize
    }

    /// A uniform draw from `[lo, hi)`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo)
    }

    /// A Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64) / ((1u64 << 53) as f64) < p
    }

    /// A uniform pick from `values`.
    pub fn pick<'a, T>(&mut self, values: &'a [T]) -> &'a T {
        &values[self.below(values.len())]
    }
}
