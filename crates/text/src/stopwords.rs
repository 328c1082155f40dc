//! English stop-word removal.
//!
//! The ICDE 2009 experimental setup applies "standard stopword removal" to
//! the WSJ corpus before building its 181,978-term dictionary. This module
//! embeds the classic English stop-word list (articles, prepositions,
//! pronouns, auxiliary verbs and other function words) and exposes a cheap
//! membership test.

use std::collections::HashSet;

/// The embedded default English stop-word list.
///
/// This is the widely used SMART-style list trimmed to the function words
/// that dominate newswire text; it intentionally contains only lower-case
/// ASCII entries because the [`crate::Tokenizer`] lower-cases its output.
pub const DEFAULT_ENGLISH: &[&str] = &[
    "a",
    "about",
    "above",
    "after",
    "again",
    "against",
    "all",
    "also",
    "am",
    "an",
    "and",
    "any",
    "are",
    "aren",
    "as",
    "at",
    "be",
    "because",
    "been",
    "before",
    "being",
    "below",
    "between",
    "both",
    "but",
    "by",
    "can",
    "cannot",
    "could",
    "couldn",
    "did",
    "didn",
    "do",
    "does",
    "doesn",
    "doing",
    "don",
    "down",
    "during",
    "each",
    "few",
    "for",
    "from",
    "further",
    "had",
    "hadn",
    "has",
    "hasn",
    "have",
    "haven",
    "having",
    "he",
    "her",
    "here",
    "hers",
    "herself",
    "him",
    "himself",
    "his",
    "how",
    "i",
    "if",
    "in",
    "into",
    "is",
    "isn",
    "it",
    "its",
    "itself",
    "just",
    "let",
    "ll",
    "me",
    "more",
    "most",
    "mustn",
    "my",
    "myself",
    "no",
    "nor",
    "not",
    "now",
    "of",
    "off",
    "on",
    "once",
    "only",
    "or",
    "other",
    "ought",
    "our",
    "ours",
    "ourselves",
    "out",
    "over",
    "own",
    "re",
    "s",
    "same",
    "shan",
    "she",
    "should",
    "shouldn",
    "so",
    "some",
    "such",
    "t",
    "than",
    "that",
    "the",
    "their",
    "theirs",
    "them",
    "themselves",
    "then",
    "there",
    "these",
    "they",
    "this",
    "those",
    "through",
    "to",
    "too",
    "under",
    "until",
    "up",
    "ve",
    "very",
    "was",
    "wasn",
    "we",
    "were",
    "weren",
    "what",
    "when",
    "where",
    "which",
    "while",
    "who",
    "whom",
    "why",
    "will",
    "with",
    "won",
    "would",
    "wouldn",
    "you",
    "your",
    "yours",
    "yourself",
    "yourselves",
    "mr",
    "mrs",
    "ms",
    "said",
    "say",
    "says",
    "one",
    "two",
    "new",
    "may",
    "much",
    "many",
    "upon",
    "us",
    "yet",
    "however",
    "since",
    "per",
    "via",
    "among",
    "within",
    "without",
    "according",
    "although",
    "might",
    "must",
    "shall",
    "still",
    "already",
];

/// A set of stop words used to filter tokens before indexing.
#[derive(Debug, Clone)]
pub struct StopWords {
    words: HashSet<Box<str>>,
}

impl StopWords {
    /// Creates the standard English stop-word set, [`DEFAULT_ENGLISH`].
    pub fn english() -> Self {
        Self {
            words: DEFAULT_ENGLISH.iter().map(|&word| word.into()).collect(),
        }
    }

    /// Returns `true` if `word` (assumed lower-case) is a stop word.
    pub fn contains(&self, word: &str) -> bool {
        self.words.contains(word)
    }

    /// Number of stop words in the set.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

impl Default for StopWords {
    fn default() -> Self {
        Self::english()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn english_contains_common_function_words() {
        let sw = StopWords::english();
        for w in ["the", "of", "and", "to", "in", "is", "was", "that"] {
            assert!(sw.contains(w), "expected stop word: {w}");
        }
    }

    #[test]
    fn english_does_not_contain_content_words() {
        let sw = StopWords::english();
        for w in ["weapons", "tower", "white", "market", "explosives"] {
            assert!(!sw.contains(w), "unexpected stop word: {w}");
        }
    }

    #[test]
    fn default_list_has_no_duplicates() {
        let sw = StopWords::english();
        assert_eq!(sw.len(), DEFAULT_ENGLISH.len());
    }
}
