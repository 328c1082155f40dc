//! Synthetic vocabularies.
//!
//! The benchmark workloads operate directly on [`cts_text::TermId`]s, but the
//! examples want readable text. A [`Vocabulary`] deterministically maps every
//! term id to a pronounceable synthetic word (alternating consonant/vowel
//! syllables, suffixed with the id when needed to guarantee uniqueness) and
//! can render a composition of term ids back into a string.

use cts_text::TermId;

/// A deterministic term-id → word mapping.
#[derive(Debug, Clone)]
pub struct Vocabulary {
    words: Vec<String>,
}

const ONSETS: &[&str] = &[
    "b", "br", "c", "ch", "d", "dr", "f", "fl", "g", "gr", "h", "j", "k", "l", "m", "n", "p", "pl",
    "pr", "r", "s", "sh", "st", "t", "th", "tr", "v", "w", "z",
];
const VOWELS: &[&str] = &["a", "e", "i", "o", "u", "ai", "ea", "io", "ou"];
const CODAS: &[&str] = &["", "n", "r", "s", "t", "l", "m", "nd", "rk", "st"];

/// Builds the deterministic synthetic word for a term index.
fn synth_word(index: usize) -> String {
    // Three positional digits in mixed radix over (onset, vowel, coda) per
    // syllable; two syllables cover ~6.8M combinations, far more than any
    // realistic vocabulary, so words are unique without a suffix.
    let mut word = String::new();
    let mut rest = index;
    for syllable in 0..2 {
        let onset = ONSETS[rest % ONSETS.len()];
        rest /= ONSETS.len();
        let vowel = VOWELS[rest % VOWELS.len()];
        rest /= VOWELS.len();
        let coda = CODAS[rest % CODAS.len()];
        rest /= CODAS.len();
        word.push_str(onset);
        word.push_str(vowel);
        if syllable == 1 || !coda.is_empty() {
            word.push_str(coda);
        }
        if rest == 0 && syllable == 0 {
            break;
        }
    }
    if rest > 0 {
        word.push_str(&rest.to_string());
    }
    word
}

impl Vocabulary {
    /// Builds a vocabulary of `size` synthetic words. Words are guaranteed
    /// unique: on the rare syllable-boundary collision the term index is
    /// appended to disambiguate.
    pub fn synthetic(size: usize) -> Self {
        let mut seen = std::collections::HashSet::with_capacity(size);
        let mut words = Vec::with_capacity(size);
        for i in 0..size {
            let mut w = synth_word(i);
            if !seen.insert(w.clone()) {
                w.push_str(&format!("x{i}"));
                seen.insert(w.clone());
            }
            words.push(w);
        }
        Self { words }
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The word for term id `t` (panics if out of range).
    pub fn word(&self, t: TermId) -> &str {
        &self.words[t.index()]
    }

    /// Renders a sequence of term ids as a space-separated string.
    pub fn render<I>(&self, terms: I) -> String
    where
        I: IntoIterator<Item = TermId>,
    {
        let mut out = String::new();
        for t in terms {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(self.word(t));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn words_are_unique_and_nonempty() {
        let v = Vocabulary::synthetic(5_000);
        let set: HashSet<&str> = v.words.iter().map(String::as_str).collect();
        assert_eq!(set.len(), 5_000);
        assert!(v.words.iter().all(|w| !w.is_empty()));
    }

    #[test]
    fn words_are_deterministic() {
        let a = Vocabulary::synthetic(100);
        let b = Vocabulary::synthetic(100);
        assert_eq!(a.words, b.words);
    }

    #[test]
    fn words_are_lowercase_ascii() {
        let v = Vocabulary::synthetic(2_000);
        assert!(v.words.iter().all(|w| w
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit())));
    }

    #[test]
    fn render_joins_words() {
        let v = Vocabulary::synthetic(10);
        let text = v.render([TermId(0), TermId(3), TermId(7)]);
        let expected = format!(
            "{} {} {}",
            v.word(TermId(0)),
            v.word(TermId(3)),
            v.word(TermId(7))
        );
        assert_eq!(text, expected);
    }

    #[test]
    fn empty_vocabulary() {
        let v = Vocabulary::synthetic(0);
        assert!(v.is_empty());
        assert_eq!(v.render([]), "");
    }
}
