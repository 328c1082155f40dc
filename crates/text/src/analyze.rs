//! The analysis pipeline: raw text → [`TermVector`].
//!
//! An [`Analyzer`] chains the [`Tokenizer`], the English [`StopWords`] and
//! the [`PorterStemmer`] and interns the surviving terms in a
//! [`Dictionary`]. This is the "standard stopword removal" preprocessing of
//! the paper's experimental setup, and the one pipeline that turns raw text
//! (documents and queries alike) into the term-id world the engine operates
//! in. Analysis records nothing in the dictionary beyond the terms it
//! interns.
//!
//! # The surface-form memo
//!
//! Word frequencies in text are Zipfian: almost every token of a document is
//! a word the pipeline has resolved before. The analyzer therefore remembers,
//! per *surface form* (the lower-cased token, before stop-word test and
//! stemming), what the pipeline concluded — "stop word" or "term id `t`" — in
//! an inline-key table (`table.rs`). A token seen before costs one probe of
//! that table; the stop-word set, the stemmer and the dictionary run only the
//! first time a surface form appears. Because that first time is also the
//! first *occurrence*, the dictionary hands out ids in exactly the order it
//! would without the memo.
//!
//! A memoised id is only meaningful to the dictionary that issued it, so the
//! memo records that dictionary's [`Dictionary::identity`] and forgets
//! everything when handed a different one. Identities are never reused and a
//! cloned dictionary gets a fresh one, so no sequence of clones, swaps or
//! replacements can make the memo answer for the wrong dictionary; ids are
//! never reassigned, so it cannot go stale for the right one. The memo holds
//! one entry per distinct accepted token — the same population that bounds
//! the dictionary, since numeric and over-long tokens are dropped by the
//! tokenizer before either sees them.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use crate::dictionary::{Dictionary, TermId};
use crate::stem::PorterStemmer;
use crate::stopwords::StopWords;
use crate::table::InlineKeyTable;
use crate::token::Tokenizer;
use crate::vector::TermVector;

/// Memo value for a stop word: the one `u32` the dictionary never issues as
/// an id.
const STOP: u32 = Dictionary::MAX_TERMS as u32;

/// Size and traffic of an [`Analyzer`]'s surface-form memo. Plain counters,
/// kept without reading a clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Surface forms remembered (stop words included).
    pub entries: usize,
    /// Inline slots allocated; `entries − spilled` of them are in use.
    pub slots: usize,
    /// Surface forms longer than 15 bytes, kept in the overflow map.
    pub spilled: usize,
    /// Heap bytes the memo owns.
    pub bytes: usize,
    /// Tokens answered from the memo since the analyzer was built.
    pub hits: u64,
    /// Tokens that ran the full pipeline (and were then remembered).
    pub misses: u64,
}

/// The English text-analysis pipeline: tokenise, drop stop words, Porter
/// stem, intern, count.
///
/// Analysis takes `&mut self`: the analyzer owns the memo and the scratch
/// buffers that make a repeated token cheap. A clone carries a copy of the
/// memo and stays valid for the same dictionary.
#[derive(Debug, Clone)]
pub struct Analyzer {
    tokenizer: Tokenizer,
    stopwords: StopWords,
    stemmer: PorterStemmer,
    memo: InlineKeyTable,
    /// [`Dictionary::identity`] of the dictionary the memo's ids belong to;
    /// 0 (no dictionary has it) until the first call.
    memo_owner: u64,
    hits: u64,
    misses: u64,
    fold_buf: String,
    stem_buf: Vec<u8>,
    occurrences: Vec<TermId>,
}

impl Analyzer {
    /// The English pipeline: the tokenizer, English stop words, Porter
    /// stemming. The frozen `ctsbench` adapter names this constructor
    /// (ROADMAP item 4).
    pub fn english() -> Self {
        Self {
            tokenizer: Tokenizer::new(),
            stopwords: StopWords::english(),
            stemmer: PorterStemmer::new(),
            memo: InlineKeyTable::new(),
            memo_owner: 0,
            hits: 0,
            misses: 0,
            fold_buf: String::new(),
            stem_buf: Vec::new(),
            occurrences: Vec::new(),
        }
    }

    /// Analyses `text`: tokenise, filter stop words, stem, intern, count.
    /// Terms are interned into `dict` (new terms extend the dictionary).
    pub fn analyze(&mut self, text: &str, dict: &mut Dictionary) -> TermVector {
        let mut occurrences = std::mem::take(&mut self.occurrences);
        occurrences.clear();
        self.analyze_occurrences(text, dict, &mut occurrences);
        let vector = TermVector::from_occurrences(&mut occurrences);
        self.occurrences = occurrences;
        vector
    }

    /// The pipeline up to, not including, the counting: appends to `out` the
    /// id of every token of `text` that survives stop-word removal, one per
    /// occurrence, in text order. [`Analyzer::analyze`] is this plus
    /// [`TermVector::from_occurrences`].
    pub fn analyze_occurrences(
        &mut self,
        text: &str,
        dict: &mut Dictionary,
        out: &mut Vec<TermId>,
    ) {
        if self.memo_owner != dict.identity() {
            self.memo.clear();
            self.memo_owner = dict.identity();
        }
        let Self {
            tokenizer,
            stopwords,
            stemmer,
            memo,
            hits,
            misses,
            fold_buf,
            stem_buf,
            ..
        } = self;
        tokenizer.for_each_token(text, fold_buf, |token| {
            let resolved = match memo.get(token.as_bytes()) {
                Some(known) => {
                    *hits += 1;
                    known
                }
                None => {
                    *misses += 1;
                    let fresh = if stopwords.contains(token) {
                        STOP
                    } else {
                        dict.intern(stemmer.stem_into(token, stem_buf)).0
                    };
                    memo.insert(token.as_bytes(), fresh);
                    fresh
                }
            };
            if resolved != STOP {
                out.push(TermId(resolved));
            }
        });
    }

    /// [`Analyzer::analyze`] under a second name, which the frozen
    /// `ctsbench` adapter calls for documents (ROADMAP item 4).
    pub fn analyze_document(&mut self, text: &str, dict: &mut Dictionary) -> TermVector {
        self.analyze(text, dict)
    }

    /// [`Analyzer::analyze`] under a second name, which the frozen
    /// `ctsbench` adapter calls for queries (ROADMAP item 4).
    pub fn analyze_query(&mut self, text: &str, dict: &mut Dictionary) -> TermVector {
        self.analyze(text, dict)
    }

    /// Size and hit counts of the surface-form memo.
    pub fn memo_stats(&self) -> MemoStats {
        MemoStats {
            entries: self.memo.len(),
            slots: self.memo.slots(),
            spilled: self.memo.spilled(),
            bytes: self.memo.heap_bytes(),
            hits: self.hits,
            misses: self.misses,
        }
    }
}

impl Default for Analyzer {
    fn default() -> Self {
        Self::english()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_pipeline_filters_and_stems() {
        let mut dict = Dictionary::new();
        let mut a = Analyzer::english();
        let v = a.analyze("The markets are monitoring the weapons reports", &mut dict);
        // "the", "are" removed; "markets"→"market", "monitoring"→"monitor",
        // "weapons"→"weapon", "reports"→"report".
        let terms: Vec<&str> = v.iter().map(|(t, _)| dict.term(t).unwrap()).collect();
        assert!(terms.contains(&"market"));
        assert!(terms.contains(&"monitor"));
        assert!(terms.contains(&"weapon"));
        assert!(terms.contains(&"report"));
        assert!(!terms.contains(&"the"));
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn repeated_terms_are_counted() {
        let mut dict = Dictionary::new();
        let mut a = Analyzer::english();
        let v = a.analyze("white white tower", &mut dict);
        let white = dict.lookup("white").unwrap();
        let tower = dict.lookup("tower").unwrap();
        assert_eq!(v.frequency(white), 2);
        assert_eq!(v.frequency(tower), 1);
    }

    #[test]
    fn inflections_map_to_same_term_id() {
        let mut dict = Dictionary::new();
        let mut a = Analyzer::english();
        let v1 = a.analyze("explosive", &mut dict);
        let v2 = a.analyze("explosives", &mut dict);
        let id1: Vec<_> = v1.iter().map(|(t, _)| t).collect();
        let id2: Vec<_> = v2.iter().map(|(t, _)| t).collect();
        assert_eq!(id1, id2);
    }

    #[test]
    fn empty_and_stopword_only_text_yields_empty_vector() {
        let mut dict = Dictionary::new();
        let mut a = Analyzer::english();
        assert!(a.analyze("", &mut dict).is_empty());
        assert!(a.analyze("the of and to", &mut dict).is_empty());
    }

    #[test]
    fn memo_answers_repeats_and_counts_them() {
        let mut dict = Dictionary::new();
        let mut a = Analyzer::english();
        a.analyze("the markets and the market", &mut dict);
        // the, markets, and, market resolved once each; the second "the" hit.
        let s = a.memo_stats();
        assert_eq!((s.entries, s.misses, s.hits, s.spilled), (4, 4, 1, 0));
        assert_eq!(dict.len(), 1);
        a.analyze("Markets, MARKET; the internationalisations", &mut dict);
        let s = a.memo_stats();
        assert_eq!((s.entries, s.misses, s.hits, s.spilled), (5, 5, 4, 1));
        assert!(s.slots >= 4 && s.bytes >= s.slots * 20);
    }

    #[test]
    fn memo_never_serves_one_dictionary_the_ids_of_another() {
        let mut a = Analyzer::english();
        let mut first = Dictionary::new();
        let mut second = Dictionary::new();
        second.intern("padding");
        let in_first = a.analyze("tower", &mut first);
        let in_second = a.analyze("tower", &mut second);
        assert_eq!(in_first.iter().next(), Some((TermId(0), 1)));
        assert_eq!(in_second.iter().next(), Some((TermId(1), 1)));
        assert_eq!(second.term(TermId(1)), Some("tower"));
        // Back to the first: nothing of the second's numbering survives.
        let again = a.analyze("tower white", &mut first);
        assert_eq!(
            again.iter().map(|(t, _)| t.0).collect::<Vec<_>>(),
            vec![0, 1]
        );
        // A clone starts equal but is a different dictionary from then on.
        let mut copy = first.clone();
        copy.intern("wedge");
        a.analyze("city", &mut first);
        let in_copy = a.analyze("city", &mut copy);
        assert_eq!(in_copy.iter().next(), Some((TermId(3), 1)));
        assert_eq!(first.lookup("citi"), Some(TermId(2)));
    }

    #[test]
    fn occurrences_come_in_text_order() {
        let mut dict = Dictionary::new();
        let mut a = Analyzer::english();
        let mut ids = vec![TermId(99)];
        a.analyze_occurrences("white tower of the white city", &mut dict, &mut ids);
        let ids: Vec<u32> = ids.iter().map(|t| t.0).collect();
        assert_eq!(ids, vec![99, 0, 1, 0, 2]);
    }
}
