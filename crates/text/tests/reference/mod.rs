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

use cts_text::{PorterStemmer, StopWords, TermId, TermStats, TermVector, Tokenizer};

/// The seed dictionary: every term boxed twice.
#[derive(Debug, Clone, Default)]
pub struct ReferenceDictionary {
    by_term: HashMap<Box<str>, TermId>,
    terms: Vec<Box<str>>,
    stats: Vec<TermStats>,
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
        self.stats.push(TermStats::default());
        id
    }

    pub fn term(&self, id: TermId) -> Option<&str> {
        self.terms.get(id.index()).map(|t| t.as_ref())
    }

    pub fn stats(&self, id: TermId) -> Option<TermStats> {
        self.stats.get(id.index()).copied()
    }

    pub fn record_occurrences(&mut self, id: TermId, count: u64) {
        if let Some(s) = self.stats.get_mut(id.index()) {
            s.document_frequency += 1;
            s.collection_frequency += count;
        }
    }

    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Bytes this layout asks the allocator for: hash buckets (boxed key,
    /// id, one control byte), the `Vec` of boxed terms, every term's text
    /// twice, and the statistics. What the allocator adds per boxed string
    /// (a 16-byte header and rounding, on glibc) is not in here.
    pub fn requested_bytes(&self) -> usize {
        let text: usize = self.terms.iter().map(|term| term.len()).sum();
        self.by_term.capacity() * (std::mem::size_of::<(Box<str>, TermId)>() + 1)
            + self.terms.capacity() * std::mem::size_of::<Box<str>>()
            + 2 * text
            + self.stats.capacity() * std::mem::size_of::<TermStats>()
    }
}

/// The seed tokenizer's output: lower-cased text, borrowed when the source
/// was already lower-case ASCII.
pub fn reference_tokens<'a>(tokenizer: &Tokenizer, input: &'a str) -> Vec<Cow<'a, str>> {
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
            if char_len < tokenizer.min_len || char_len > tokenizer.max_len {
                continue;
            }
            if tokenizer.drop_numeric && raw.bytes().all(|b| b.is_ascii_digit()) {
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

/// The seed `Analyzer`: no state between calls.
#[derive(Debug, Clone)]
pub struct ReferenceAnalyzer {
    pub tokenizer: Tokenizer,
    pub stopwords: StopWords,
    pub stemmer: Option<PorterStemmer>,
}

impl ReferenceAnalyzer {
    pub fn english() -> Self {
        Self {
            tokenizer: Tokenizer::new(),
            stopwords: StopWords::english(),
            stemmer: Some(PorterStemmer::new()),
        }
    }

    pub fn plain() -> Self {
        Self {
            tokenizer: Tokenizer::new(),
            stopwords: StopWords::none(),
            stemmer: None,
        }
    }

    /// The seed `Analyzer::analyze` body.
    pub fn analyze(&self, text: &str, dict: &mut ReferenceDictionary) -> TermVector {
        let mut vector = TermVector::new();
        for token in reference_tokens(&self.tokenizer, text) {
            let word: &str = &token;
            if self.stopwords.contains(word) {
                continue;
            }
            let id = match &self.stemmer {
                Some(stemmer) => {
                    let stemmed = stemmer.stem(word);
                    dict.intern(&stemmed)
                }
                None => dict.intern(word),
            };
            vector.add(id);
        }
        vector
    }

    /// The seed `Analyzer::analyze_document` body.
    pub fn analyze_document(&self, text: &str, dict: &mut ReferenceDictionary) -> TermVector {
        let vector = self.analyze(text, dict);
        for (term, count) in vector.iter() {
            dict.record_occurrences(term, u64::from(count));
        }
        vector
    }
}

/// Everything the differential suites hold equal between the two pipelines'
/// dictionaries: length, id → term, and per-term statistics.
pub fn assert_same_dictionary(
    new: &cts_text::Dictionary,
    reference: &ReferenceDictionary,
    context: &str,
) {
    assert_eq!(new.len(), reference.len(), "dictionary length, {context}");
    for (id, term) in new.iter() {
        assert_eq!(Some(term), reference.term(id), "term of {id}, {context}");
        assert_eq!(new.lookup(term), Some(id), "lookup of {term:?}, {context}");
        assert_eq!(
            new.stats(id),
            reference.stats(id),
            "stats of {id} ({term:?}), {context}"
        );
    }
}
