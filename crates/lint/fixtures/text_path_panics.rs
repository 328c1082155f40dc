// Fixture: the per-token panic sites `cts-text` shipped with until the
// raw-text rewrite, linted as each of the crate's hot modules in turn
// (`analyze.rs`, `token.rs`, `stem.rs`, `dictionary.rs`, `table.rs`). Must
// trip `panic-in-hot-path` — twice — and nothing else under every one of
// them, and nothing at all under a `cts-text` module that is not on the
// per-token path.
pub fn run_start(start: &mut Option<usize>) -> usize {
    start.take().expect("start set")
}

pub fn stemmed(word: Vec<u8>) -> String {
    String::from_utf8(word).expect("stemmer output is ASCII")
}
