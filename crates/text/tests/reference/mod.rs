//! The analysis pipeline as it stood before the surface-form memo, kept as
//! the reference the differential suites and `text_analyze` compare against.
//!
//! Everything the rewrite replaced is reproduced here the way it was: the
//! `char_indices().peekable()` tokenizer with its `Vec` of `Cow` tokens, the
//! `HashMap<Box<str>, TermId>` + `Vec<Box<str>>` dictionary, a stop-word
//! probe, a stemmed `String` and a dictionary probe per token *occurrence*,
//! and a binary-search insert per occurrence into the vector. What it shares
//! with the crate is what the rewrite did not touch: the stop-word list and
//! the Porter steps (through `PorterStemmer::stem`, itself pinned by the
//! classic vectors in `stem.rs`).
//!
//! Included by path from `crates/corpus/tests/` and `crates/bench/benches/`
//! as well; not every includer uses every item.
#![expect(
    dead_code,
    reason = "included by path into several test and bench crates, none of which uses every item"
)]

use std::borrow::Cow;
use std::collections::HashMap;

use cts_text::{PorterStemmer, StopWords, TermId, TermVector};

/// The seed dictionary: every term boxed twice.
#[derive(Debug, Clone, Default)]
pub struct ReferenceDictionary {
    by_term: HashMap<Box<str>, TermId>,
    terms: Vec<Box<str>>,
}

impl ReferenceDictionary {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn intern(&mut self, term: &str) -> TermId {
        if let Some(&id) = self.by_term.get(term) {
            return id;
        }
        let id = TermId(u32::try_from(self.terms.len()).expect("dictionary exceeds u32 terms"));
        let boxed: Box<str> = term.into();
        self.by_term.insert(boxed.clone(), id);
        self.terms.push(boxed);
        id
    }

    pub fn term(&self, id: TermId) -> Option<&str> {
        self.terms.get(id.index()).map(|t| t.as_ref())
    }

    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Bytes this layout asks the allocator for: hash buckets (boxed key,
    /// id, one control byte), the `Vec` of boxed terms and every term's text
    /// twice. What the allocator adds per boxed string
    /// (a 16-byte header and rounding, on glibc) is not in here.
    pub fn requested_bytes(&self) -> usize {
        let text: usize = self.terms.iter().map(|term| term.len()).sum();
        self.by_term.capacity() * (std::mem::size_of::<(Box<str>, TermId)>() + 1)
            + self.terms.capacity() * std::mem::size_of::<Box<str>>()
            + 2 * text
    }
}

/// The seed tokenizer's output under the filters the crate's tokenizer
/// applies (2 to 40 characters, ASCII-digit tokens dropped): lower-cased
/// text, borrowed when the source was already lower-case ASCII.
pub fn reference_tokens(input: &str) -> Vec<Cow<'_, str>> {
    let mut out = Vec::new();
    let bytes = input.as_bytes();
    let mut start: Option<usize> = None;
    let mut iter = input.char_indices().peekable();
    while let Some((idx, ch)) = iter.next() {
        let is_word = ch.is_alphanumeric();
        if is_word && start.is_none() {
            start = Some(idx);
        }
        let at_end = iter.peek().is_none();
        if (!is_word || at_end) && start.is_some() {
            let begin = start.take().expect("start set");
            let end = if is_word && at_end { input.len() } else { idx };
            let raw = &input[begin..end];
            let char_len = raw.chars().count();
            if !(2..=40).contains(&char_len) {
                continue;
            }
            if raw.bytes().all(|b| b.is_ascii_digit()) {
                continue;
            }
            let needs_fold = bytes[begin..end]
                .iter()
                .any(|b| b.is_ascii_uppercase() || !b.is_ascii());
            out.push(if needs_fold {
                Cow::Owned(raw.to_lowercase())
            } else {
                Cow::Borrowed(raw)
            });
        }
    }
    out
}

/// The seed English `Analyzer`: no state between calls.
#[derive(Debug, Clone)]
pub struct ReferenceAnalyzer {
    pub stopwords: StopWords,
    pub stemmer: PorterStemmer,
}

impl ReferenceAnalyzer {
    pub fn english() -> Self {
        Self {
            stopwords: StopWords::english(),
            stemmer: PorterStemmer::new(),
        }
    }

    /// The seed `Analyzer::analyze` body.
    pub fn analyze(&self, text: &str, dict: &mut ReferenceDictionary) -> TermVector {
        let mut vector = TermVector::new();
        for token in reference_tokens(text) {
            let word: &str = &token;
            if self.stopwords.contains(word) {
                continue;
            }
            let stemmed = self.stemmer.stem(word);
            vector.add(dict.intern(&stemmed));
        }
        vector
    }
}

/// Everything the differential suites hold equal between the two pipelines'
/// dictionaries: length, id → term and term → id.
pub fn assert_same_dictionary(
    new: &cts_text::Dictionary,
    reference: &ReferenceDictionary,
    context: &str,
) {
    assert_eq!(new.len(), reference.len(), "dictionary length, {context}");
    for (id, term) in new.iter() {
        assert_eq!(Some(term), reference.term(id), "term of {id}, {context}");
        assert_eq!(new.lookup(term), Some(id), "lookup of {term:?}, {context}");
    }
}
