//! Tokenisation of raw text into lower-cased word tokens.
//!
//! The tokenizer splits on any character that is not alphanumeric, folds
//! upper-case to lower-case, and optionally drops purely-numeric and very
//! short/long tokens. One scanner finds the tokens; it has two front ends:
//!
//! * [`Tokenizer::for_each_token`] — the analysis path. Tokens are handed to
//!   a callback as `&str`: a slice of the input when the token is already
//!   lower-case ASCII, otherwise a view of one caller-owned buffer the token
//!   was folded into. Nothing is allocated per token or per call for ASCII
//!   text; a token with a non-ASCII character pays `str::to_lowercase`.
//! * [`Tokenizer::tokenize`] / [`Tokenizer::tokenize_into`] — a `Vec` of
//!   [`Token`]s with offsets and positions, for callers that want to keep
//!   them. This one allocates: the vector, and a `String` per token that
//!   needed folding.
//!
//! ASCII input (the common case, detected once per call) is scanned as bytes
//! through a 256-entry class table; anything else is walked by `char` with
//! Unicode `is_alphanumeric` and full Unicode lower-casing, so both paths
//! accept exactly the same tokens on ASCII text.

use std::borrow::Cow;

/// A single token produced by the [`Tokenizer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token<'a> {
    /// The token text, lower-cased. Borrowed when the source was already
    /// lower-case ASCII, owned otherwise.
    pub text: Cow<'a, str>,
    /// Byte offset of the token start in the original input.
    pub offset: usize,
    /// Ordinal position of the token in the token stream (0-based).
    pub position: usize,
}

impl<'a> Token<'a> {
    /// Returns the token text as a string slice.
    pub fn as_str(&self) -> &str {
        &self.text
    }
}

/// Configuration and entry point for tokenisation.
#[derive(Debug, Clone)]
pub struct Tokenizer {
    /// Minimum token length (in characters) to emit. Shorter tokens are dropped.
    pub min_len: usize,
    /// Maximum token length (in characters) to emit. Longer tokens are dropped.
    pub max_len: usize,
    /// Whether tokens consisting only of ASCII digits are dropped.
    pub drop_numeric: bool,
}

impl Default for Tokenizer {
    fn default() -> Self {
        Self {
            min_len: 2,
            max_len: 40,
            drop_numeric: true,
        }
    }
}

/// What it takes to lower-case an accepted token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fold {
    /// Already lower-case ASCII.
    None,
    /// ASCII with at least one upper-case letter.
    Ascii,
    /// Contains a non-ASCII character.
    Unicode,
}

/// Byte classes of the ASCII scanner, or-ed over a token's bytes.
const WORD: u8 = 1;
const UPPER: u8 = 2;
const NOT_DIGIT: u8 = 4;

const BYTE_CLASS: [u8; 256] = {
    let mut class = [0u8; 256];
    let mut b = 0usize;
    while b < 128 {
        let byte = b as u8;
        if byte.is_ascii_digit() {
            class[b] = WORD;
        } else if byte.is_ascii_lowercase() {
            class[b] = WORD | NOT_DIGIT;
        } else if byte.is_ascii_uppercase() {
            class[b] = WORD | NOT_DIGIT | UPPER;
        }
        b += 1;
    }
    class
};

impl Tokenizer {
    /// Creates a tokenizer with the default settings (length 2..=40, numeric
    /// tokens dropped), matching common IR preprocessing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a permissive tokenizer that keeps every alphanumeric run,
    /// including single characters and numbers.
    pub fn permissive() -> Self {
        Self {
            min_len: 1,
            max_len: usize::MAX,
            drop_numeric: false,
        }
    }

    /// Calls `visit` with each accepted token of `input`, lower-cased, in
    /// order. `fold` is scratch space: a token that needs case folding is
    /// written there and `visit` sees that copy, so the `&str` is only good
    /// for the duration of the call. Reuse one buffer across calls.
    #[inline]
    pub fn for_each_token<F>(&self, input: &str, fold: &mut String, mut visit: F)
    where
        F: FnMut(&str),
    {
        self.scan(input, |raw, _, how| match how {
            Fold::None => visit(raw),
            Fold::Ascii => {
                fold.clear();
                fold.push_str(raw);
                fold.make_ascii_lowercase();
                visit(fold);
            }
            Fold::Unicode => {
                fold.clear();
                fold.push_str(&raw.to_lowercase());
                visit(fold);
            }
        });
    }

    /// Tokenises `input`, returning the accepted tokens in order.
    pub fn tokenize<'a>(&self, input: &'a str) -> Vec<Token<'a>> {
        let mut out = Vec::new();
        self.tokenize_into(input, &mut out);
        out
    }

    /// Tokenises `input`, appending accepted tokens to `out` (which is cleared
    /// first). Reusing the output vector saves its allocation, not the
    /// per-token `String` of a folded token; the analysis path uses
    /// [`Tokenizer::for_each_token`] instead.
    pub fn tokenize_into<'a>(&self, input: &'a str, out: &mut Vec<Token<'a>>) {
        out.clear();
        self.scan(input, |raw, offset, how| {
            let text = match how {
                Fold::None => Cow::Borrowed(raw),
                Fold::Ascii => Cow::Owned(raw.to_ascii_lowercase()),
                Fold::Unicode => Cow::Owned(raw.to_lowercase()),
            };
            out.push(Token {
                text,
                offset,
                position: out.len(),
            });
        });
    }

    /// The scanner: `emit(raw token, byte offset, fold needed)` for every
    /// alphanumeric run that passes the length and numeric filters.
    #[inline]
    fn scan<'a, F>(&self, input: &'a str, emit: F)
    where
        F: FnMut(&'a str, usize, Fold),
    {
        if input.is_ascii() {
            self.scan_ascii(input, emit);
        } else {
            self.scan_unicode(input, emit);
        }
    }

    /// The length and numeric filters, and what folding an accepted token
    /// needs. `seen` is the or of the token's ASCII byte classes.
    #[inline]
    fn accept(&self, chars: usize, seen: u8, non_ascii: bool) -> Option<Fold> {
        if chars < self.min_len || chars > self.max_len {
            return None;
        }
        if self.drop_numeric && !non_ascii && seen & NOT_DIGIT == 0 {
            return None;
        }
        Some(if non_ascii {
            Fold::Unicode
        } else if seen & UPPER != 0 {
            Fold::Ascii
        } else {
            Fold::None
        })
    }

    #[inline]
    fn scan_ascii<'a, F>(&self, input: &'a str, mut emit: F)
    where
        F: FnMut(&'a str, usize, Fold),
    {
        let bytes = input.as_bytes();
        let mut at = 0;
        while at < bytes.len() {
            if BYTE_CLASS[usize::from(bytes[at])] == 0 {
                at += 1;
                continue;
            }
            let begin = at;
            let mut seen = 0u8;
            while at < bytes.len() && BYTE_CLASS[usize::from(bytes[at])] != 0 {
                seen |= BYTE_CLASS[usize::from(bytes[at])];
                at += 1;
            }
            // One byte is one character here.
            if let Some(how) = self.accept(at - begin, seen, false) {
                emit(&input[begin..at], begin, how);
            }
        }
    }

    fn scan_unicode<'a, F>(&self, input: &'a str, mut emit: F)
    where
        F: FnMut(&'a str, usize, Fold),
    {
        /// An alphanumeric run in progress.
        struct Run {
            begin: usize,
            chars: usize,
            seen: u8,
            non_ascii: bool,
        }
        let mut finish = |run: Run, end: usize| {
            if let Some(how) = self.accept(run.chars, run.seen, run.non_ascii) {
                emit(&input[run.begin..end], run.begin, how);
            }
        };
        let mut run: Option<Run> = None;
        for (idx, ch) in input.char_indices() {
            if ch.is_alphanumeric() {
                let run = run.get_or_insert(Run {
                    begin: idx,
                    chars: 0,
                    seen: 0,
                    non_ascii: false,
                });
                run.chars += 1;
                if ch.is_ascii() {
                    run.seen |= BYTE_CLASS[ch as usize];
                } else {
                    run.non_ascii = true;
                }
            } else if let Some(run) = run.take() {
                finish(run, idx);
            }
        }
        if let Some(run) = run {
            finish(run, input.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts<'a>(tokens: &'a [Token<'a>]) -> Vec<&'a str> {
        tokens.iter().map(|t| t.as_str()).collect()
    }

    #[test]
    fn splits_on_whitespace_and_punctuation() {
        let t = Tokenizer::new();
        let toks = t.tokenize("Weapons of mass-destruction, reported!");
        assert_eq!(
            texts(&toks),
            vec!["weapons", "of", "mass", "destruction", "reported"]
        );
    }

    #[test]
    fn lowercases_tokens() {
        let t = Tokenizer::new();
        let toks = t.tokenize("Wall Street JOURNAL");
        assert_eq!(texts(&toks), vec!["wall", "street", "journal"]);
    }

    #[test]
    fn borrowed_when_already_lowercase_ascii() {
        let t = Tokenizer::new();
        let toks = t.tokenize("simple lowercase words");
        assert!(toks.iter().all(|tok| matches!(tok.text, Cow::Borrowed(_))));
    }

    #[test]
    fn owned_when_case_folding_needed() {
        let t = Tokenizer::new();
        let toks = t.tokenize("Mixed");
        assert!(matches!(toks[0].text, Cow::Owned(_)));
    }

    #[test]
    fn drops_single_characters_by_default() {
        let t = Tokenizer::new();
        let toks = t.tokenize("a b c word");
        assert_eq!(texts(&toks), vec!["word"]);
    }

    #[test]
    fn drops_numeric_tokens_by_default() {
        let t = Tokenizer::new();
        let toks = t.tokenize("profits rose 1992 by 12 percent");
        assert_eq!(texts(&toks), vec!["profits", "rose", "by", "percent"]);
    }

    #[test]
    fn keeps_alphanumeric_mixtures() {
        let t = Tokenizer::new();
        let toks = t.tokenize("boeing 747s and b2b deals");
        assert_eq!(texts(&toks), vec!["boeing", "747s", "and", "b2b", "deals"]);
    }

    #[test]
    fn permissive_keeps_everything() {
        let t = Tokenizer::permissive();
        let toks = t.tokenize("a 1 22 xyz");
        assert_eq!(texts(&toks), vec!["a", "1", "22", "xyz"]);
    }

    #[test]
    fn handles_unicode_words() {
        let t = Tokenizer::new();
        let toks = t.tokenize("Zürich café économie");
        assert_eq!(texts(&toks), vec!["zürich", "café", "économie"]);
    }

    #[test]
    fn empty_input_yields_no_tokens() {
        let t = Tokenizer::new();
        assert!(t.tokenize("").is_empty());
        assert!(t.tokenize("   \t\n ").is_empty());
        assert!(t.tokenize("!!! --- ???").is_empty());
    }

    #[test]
    fn offsets_and_positions_are_recorded() {
        let t = Tokenizer::new();
        let toks = t.tokenize("alpha beta");
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[0].position, 0);
        assert_eq!(toks[1].offset, 6);
        assert_eq!(toks[1].position, 1);
    }

    #[test]
    fn token_at_end_of_input_is_emitted() {
        let t = Tokenizer::new();
        let toks = t.tokenize("trailing token");
        assert_eq!(texts(&toks), vec!["trailing", "token"]);
    }

    #[test]
    fn overlong_tokens_are_dropped() {
        let mut t = Tokenizer::new();
        t.max_len = 5;
        let toks = t.tokenize("short elongatedword tiny");
        assert_eq!(texts(&toks), vec!["short", "tiny"]);
    }

    /// What `for_each_token` shows its visitor.
    fn visited(t: &Tokenizer, input: &str) -> Vec<String> {
        let mut fold = String::new();
        let mut seen = Vec::new();
        t.for_each_token(input, &mut fold, |token| seen.push(token.to_string()));
        seen
    }

    #[test]
    fn both_front_ends_see_the_same_tokens() {
        for t in [Tokenizer::new(), Tokenizer::permissive()] {
            for input in [
                "Weapons of mass-destruction, reported!",
                "boeing 747s and B2B deals in 1992",
                "Zürich café ÉCONOMIE İstanbul straße ΟΔΟΣ x",
                "trailing Token",
                "ends in é",
                "",
                " \t ",
            ] {
                let owned: Vec<String> = t
                    .tokenize(input)
                    .iter()
                    .map(|tok| tok.as_str().to_string())
                    .collect();
                assert_eq!(visited(&t, input), owned, "for {input:?}");
            }
        }
    }

    #[test]
    fn ascii_tokens_in_unicode_input_follow_the_ascii_rules() {
        let t = Tokenizer::new();
        // One non-ASCII character anywhere sends the whole input down the
        // char-by-char scanner; ASCII tokens must come out as they would
        // from the byte scanner.
        let ascii = "Profits rose 1992 by 12 Percent at b2b firms a";
        let mixed = format!("{ascii} — né");
        let mut expected = visited(&t, ascii);
        expected.push("né".to_string());
        assert_eq!(visited(&t, &mixed), expected);
        let toks = t.tokenize(&mixed);
        assert!(matches!(toks[1].text, Cow::Borrowed("rose")));
        assert_eq!(toks[1].offset, 8);
    }

    #[test]
    fn length_limits_count_characters_not_bytes() {
        let mut t = Tokenizer::new();
        t.max_len = 4;
        // Four characters, eight bytes: kept. Five characters: dropped.
        assert_eq!(visited(&t, "éééé ééééé abcd abcde"), vec!["éééé", "abcd"]);
        t.min_len = 4;
        assert_eq!(visited(&t, "ééé éééé abc"), vec!["éééé"]);
    }

    #[test]
    fn unicode_lowercasing_may_change_byte_length() {
        let t = Tokenizer::new();
        // U+0130 lower-cases to "i" + U+0307 (2 → 3 bytes); final sigma is
        // context-sensitive, which only `str::to_lowercase` gets right.
        assert_eq!(visited(&t, "İx"), vec!["i\u{307}x"]);
        assert_eq!(visited(&t, "ΟΔΟΣ"), vec!["οδος"]);
        // Non-ASCII digits are alphanumeric but not "numeric" for the
        // drop_numeric filter, which is about ASCII digits only.
        assert_eq!(visited(&t, "٣٤ 34"), vec!["٣٤"]);
    }

    #[test]
    fn tokenize_into_reuses_buffer() {
        let t = Tokenizer::new();
        let mut buf = Vec::new();
        t.tokenize_into("first call here", &mut buf);
        assert_eq!(buf.len(), 3);
        t.tokenize_into("second", &mut buf);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf[0].as_str(), "second");
    }
}
