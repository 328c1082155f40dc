//! Tokenisation of raw text into lower-cased word tokens.
//!
//! The tokenizer splits on any character that is not alphanumeric, folds
//! upper-case to lower-case, and drops tokens shorter than 2 or longer than
//! 40 characters and tokens made of ASCII digits only. The filters are
//! fixed, so the tokens a text can produce — and with them the analyzer's
//! memo and the dictionary — are bounded by the vocabulary, not by the
//! stream.
//!
//! [`Tokenizer::for_each_token`] hands each token to a callback as `&str`:
//! a slice of the input when the token is already lower-case ASCII,
//! otherwise a view of one caller-owned buffer the token was folded into.
//! Nothing is allocated per token or per call for ASCII text; a token with a
//! non-ASCII character pays `str::to_lowercase`.
//!
//! ASCII input (the common case, detected once per call) is scanned as bytes
//! through a 256-entry class table; anything else is walked by `char` with
//! Unicode `is_alphanumeric` and full Unicode lower-casing, so both paths
//! accept exactly the same tokens on ASCII text.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

/// Shortest token kept, in characters.
const MIN_LEN: usize = 2;
/// Longest token kept, in characters.
const MAX_LEN: usize = 40;

/// The tokenizer; it has no settings.
#[derive(Debug, Clone, Default)]
pub struct Tokenizer;

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
    /// Creates the tokenizer.
    pub fn new() -> Self {
        Self
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
        self.scan(input, |raw, how| match how {
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

    /// The scanner: `emit(raw token, fold needed)` for every alphanumeric
    /// run that passes the length and numeric filters.
    #[inline]
    fn scan<'a, F>(&self, input: &'a str, emit: F)
    where
        F: FnMut(&'a str, Fold),
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
        if !(MIN_LEN..=MAX_LEN).contains(&chars) {
            return None;
        }
        if !non_ascii && seen & NOT_DIGIT == 0 {
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
        F: FnMut(&'a str, Fold),
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
                emit(&input[begin..at], how);
            }
        }
    }

    fn scan_unicode<'a, F>(&self, input: &'a str, mut emit: F)
    where
        F: FnMut(&'a str, Fold),
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
                emit(&input[run.begin..end], how);
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

    /// What `for_each_token` shows its visitor.
    fn visited(input: &str) -> Vec<String> {
        let mut fold = String::new();
        let mut seen = Vec::new();
        Tokenizer::new().for_each_token(input, &mut fold, |token| seen.push(token.to_string()));
        seen
    }

    /// Whether `token` is a slice of `input`'s bytes.
    fn inside(input: &str, token: &str) -> bool {
        input.as_bytes().as_ptr_range().contains(&token.as_ptr())
    }

    #[test]
    fn splits_on_whitespace_and_punctuation() {
        assert_eq!(
            visited("Weapons of mass-destruction, reported!"),
            vec!["weapons", "of", "mass", "destruction", "reported"]
        );
    }

    #[test]
    fn lowercases_tokens() {
        assert_eq!(
            visited("Wall Street JOURNAL"),
            vec!["wall", "street", "journal"]
        );
    }

    #[test]
    fn borrowed_when_already_lowercase_ascii() {
        let input = "simple lowercase words";
        let (mut fold, mut count) = (String::new(), 0);
        Tokenizer::new().for_each_token(input, &mut fold, |token| {
            assert!(
                inside(input, token),
                "{token:?} is not a slice of the input"
            );
            count += 1;
        });
        assert_eq!(count, 3);
        assert!(fold.is_empty(), "nothing needed folding");
    }

    #[test]
    fn owned_when_case_folding_needed() {
        let input = "Mixed";
        let (mut fold, mut count) = (String::new(), 0);
        Tokenizer::new().for_each_token(input, &mut fold, |token| {
            assert!(!inside(input, token), "{token:?} should be the fold buffer");
            assert_eq!(token, "mixed");
            count += 1;
        });
        assert_eq!(count, 1);
        assert_eq!(fold, "mixed", "the visitor saw the fold buffer");
    }

    #[test]
    fn drops_single_characters_by_default() {
        assert_eq!(visited("a b c word"), vec!["word"]);
    }

    #[test]
    fn drops_numeric_tokens_by_default() {
        assert_eq!(
            visited("profits rose 1992 by 12 percent"),
            vec!["profits", "rose", "by", "percent"]
        );
    }

    #[test]
    fn keeps_alphanumeric_mixtures() {
        assert_eq!(
            visited("boeing 747s and b2b deals"),
            vec!["boeing", "747s", "and", "b2b", "deals"]
        );
    }

    #[test]
    fn handles_unicode_words() {
        assert_eq!(
            visited("Zürich café économie"),
            vec!["zürich", "café", "économie"]
        );
    }

    #[test]
    fn empty_input_yields_no_tokens() {
        assert!(visited("").is_empty());
        assert!(visited("   \t\n ").is_empty());
        assert!(visited("!!! --- ???").is_empty());
    }

    #[test]
    fn token_at_end_of_input_is_emitted() {
        assert_eq!(visited("trailing token"), vec!["trailing", "token"]);
    }

    #[test]
    fn overlong_tokens_are_dropped() {
        let forty = "abcdefghijklmnopqrstuvwxyzabcdefghijklmn";
        let forty_one = format!("{forty}o");
        assert_eq!(
            visited(&format!("short {forty_one} {forty} tiny")),
            vec!["short", forty, "tiny"]
        );
    }

    #[test]
    fn ascii_tokens_in_unicode_input_follow_the_ascii_rules() {
        // One non-ASCII character anywhere sends the whole input down the
        // char-by-char scanner; ASCII tokens must come out as they would
        // from the byte scanner.
        let ascii = "Profits rose 1992 by 12 Percent at b2b firms a";
        let mixed = format!("{ascii} — né");
        let mut expected = visited(ascii);
        expected.push("né".to_string());
        assert_eq!(visited(&mixed), expected);
        let mut fold = String::new();
        let mut borrowed = Vec::new();
        Tokenizer::new().for_each_token(&mixed, &mut fold, |token| {
            if inside(&mixed, token) {
                borrowed.push(token.to_string());
            }
        });
        assert_eq!(borrowed, vec!["rose", "by", "at", "b2b", "firms"]);
    }

    #[test]
    fn length_limits_count_characters_not_bytes() {
        // Forty characters, eighty bytes: kept. Forty-one: dropped. One
        // two-byte character is still too short.
        let forty = "é".repeat(40);
        let forty_one = "é".repeat(41);
        assert_eq!(
            visited(&format!("{forty} {forty_one} é ée")),
            vec![forty.as_str(), "ée"]
        );
    }

    #[test]
    fn unicode_lowercasing_may_change_byte_length() {
        // U+0130 lower-cases to "i" + U+0307 (2 → 3 bytes); final sigma is
        // context-sensitive, which only `str::to_lowercase` gets right.
        assert_eq!(visited("İx"), vec!["i\u{307}x"]);
        assert_eq!(visited("ΟΔΟΣ"), vec!["οδος"]);
        // Non-ASCII digits are alphanumeric but not "numeric" for the
        // numeric filter, which is about ASCII digits only.
        assert_eq!(visited("٣٤ 34"), vec!["٣٤"]);
    }
}
