//! The generator's documents as text, the way `ctsbench`'s `TextGenerator`
//! renders them for `service_open` — every occurrence spelled out, a term's
//! repeats adjacent, terms in id order — and the same documents with their
//! tokens shuffled, which is what text looks like when nobody sorted it
//! first. Shared by `analyze_generator_text` and, by path, the
//! `text_analyze` bench.

use cts_corpus::{CorpusConfig, SyntheticCorpus, Vocabulary};

/// `count` documents of `config`'s corpus, as rendered and shuffled.
pub fn rendered_and_shuffled(config: CorpusConfig, count: usize) -> (Vec<String>, Vec<String>) {
    let vocabulary = Vocabulary::synthetic(config.vocabulary_size);
    let mut corpus = SyntheticCorpus::new(config);
    let mut state = 0x5EED ^ config.seed;
    let mut rendered = Vec::with_capacity(count);
    let mut shuffled = Vec::with_capacity(count);
    for _ in 0..count {
        let mut tokens: Vec<&str> = corpus
            .next_term_vector()
            .iter()
            .flat_map(|(term, n)| std::iter::repeat_n(vocabulary.word(term), n as usize))
            .collect();
        rendered.push(tokens.join(" "));
        shuffle(&mut tokens, &mut state);
        shuffled.push(tokens.join(" "));
    }
    (rendered, shuffled)
}

/// Fisher–Yates with a 64-bit LCG: order only, no statistical claims.
fn shuffle(tokens: &mut [&str], state: &mut u64) {
    for i in (1..tokens.len()).rev() {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        tokens.swap(i, (*state >> 33) as usize % (i + 1));
    }
}
