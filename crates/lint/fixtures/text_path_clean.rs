// Fixture: the same sites as `text_path_panics.rs` the way the rewrite
// leaves them, linted as each `cts-text` hot module in turn. Must produce no
// finding: fallbacks instead of panics, and the dictionary's `u32` overflow
// as the one reasoned pragma.
pub fn run_start(start: &mut Option<usize>, end: usize) -> usize {
    start.take().unwrap_or(end)
}

pub fn stemmed<'a>(word: &'a str, buf: &'a [u8]) -> &'a str {
    std::str::from_utf8(buf).unwrap_or(word)
}

pub fn to_u32(n: usize) -> u32 {
    // cts-lint: allow(panic-in-hot-path, no valid id or offset exists past u32 and a wrong one merges terms)
    u32::try_from(n).expect("dictionary exceeds u32 terms")
}
