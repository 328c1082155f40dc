//! The memoised analysis pipeline against the one it replaced.
//!
//! `reference/` holds the seed `Analyzer::analyze`, tokenizer and dictionary
//! verbatim. Every arm feeds the same texts to both and requires the same
//! `TermVector` per text and, at the end, the same dictionary: length, every
//! id → term and every term → id. Term ids are assigned
//! in first-occurrence order by both, so "the same" is `==`, not "up to
//! renumbering".
//!
//! The generator-text arm (5k `SyntheticCorpus` documents, as rendered and
//! shuffled) lives in `crates/corpus/tests/analyze_generator_text.rs`, where
//! the generator is visible.

mod reference;

use cts_text::{Analyzer, Dictionary};
use reference::{assert_same_dictionary, ReferenceAnalyzer, ReferenceDictionary};

const ENGLISH: &str = include_str!("reference/english.txt");

/// splitmix64: the suite's only randomness, so a failure names its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }
}

/// Both pipelines side by side, each with its own dictionary.
struct Pair {
    new: Analyzer,
    reference: ReferenceAnalyzer,
}

impl Pair {
    fn english() -> Self {
        Self {
            new: Analyzer::english(),
            reference: ReferenceAnalyzer::english(),
        }
    }

    /// One text as a document through both.
    fn document(&mut self, text: &str, dict: &mut Dictionary, ref_dict: &mut ReferenceDictionary) {
        let got = self.new.analyze_document(text, dict);
        let want = self.reference.analyze(text, ref_dict);
        assert_eq!(got, want, "document vector for {text:?}");
    }

    /// One text as a query through both.
    fn query(&mut self, text: &str, dict: &mut Dictionary, ref_dict: &mut ReferenceDictionary) {
        let got = self.new.analyze_query(text, dict);
        let want = self.reference.analyze(text, ref_dict);
        assert_eq!(got, want, "query vector for {text:?}");
    }
}

#[test]
fn english_fixture() {
    let mut pair = Pair::english();
    let (mut dict, mut ref_dict) = (Dictionary::new(), ReferenceDictionary::new());
    // Line by line, then the whole text as one document, then again line by
    // line as queries: the second and third pass are all memo hits for the
    // new pipeline and must change nothing.
    for line in ENGLISH.lines() {
        pair.document(line, &mut dict, &mut ref_dict);
    }
    let terms_after_first_pass = dict.len();
    pair.document(ENGLISH, &mut dict, &mut ref_dict);
    for line in ENGLISH.lines() {
        pair.query(line, &mut dict, &mut ref_dict);
    }
    assert_eq!(dict.len(), terms_after_first_pass);
    assert_same_dictionary(&dict, &ref_dict, "english");
    let memo = pair.new.memo_stats();
    assert!(memo.hits > 2 * memo.misses, "{memo:?}");
    // What the fixture is there to exercise, spelled out once.
    let (mut dict, mut english) = (Dictionary::new(), Analyzer::english());
    english.analyze(ENGLISH, &mut dict);
    for kept in ["747", "b2b", "monitor", "weapon", "explos", "boe", "verifi"] {
        assert!(dict.lookup(kept).is_some(), "{kept} should be a term");
    }
    let forty = "abcdefghijklmnopqrstuvwxyzabcdefghijklmn";
    assert!(dict.lookup(forty).is_some(), "a 40-character token is kept");
    for dropped in [
        "1992",
        "the",
        "42",
        "007",
        "abcdefghijklmnopqrstuvwxyzabcdefghijklmno",
    ] {
        assert!(
            dict.lookup(dropped).is_none(),
            "{dropped} should not be a term"
        );
    }
    assert!(
        english.memo_stats().spilled > 0,
        "the fixture has words over 15 bytes"
    );
}

/// Hand-picked inputs for the edges the seeded set may not hit on a given
/// seed.
const EDGE_CASES: &[&str] = &[
    "",
    " ",
    "the of and to",
    "The OF And tO",
    "a",
    "é",
    "aé",
    // `to_lowercase` changes byte length: İ (2 bytes) → i̇ (3), ǅ → ǆ.
    "İ İstanbul İİ ǅ ǅungla ǄUNGLA ǆungla",
    // ß has no single-character upper case; ẞ lower-cases to it.
    "straße STRASSE Straße ẞ ẞtraẞe",
    // Final sigma is context-sensitive.
    "ΟΔΟΣ ΟΔΟΣΑ οδος ΣΣ",
    // Combining marks are not alphanumeric: they split tokens.
    "cafe\u{301} café e\u{301}e x\u{307}x",
    // Inline/spill boundary: 15 and 16 bytes, ASCII and not.
    "abcdefghijklmno abcdefghijklmnop ABCDEFGHIJKLMNO ABCDEFGHIJKLMNOP",
    "abcdefghijklmé abcdefghijklmné ééééééé éééééééé",
    // 40 and 41 characters, in bytes and in multi-byte characters.
    "abcdefghijklmnopqrstuvwxyzabcdefghijklmn abcdefghijklmnopqrstuvwxyzabcdefghijklmno",
    "éééééééééééééééééééééééééééééééééééééééé ééééééééééééééééééééééééééééééééééééééééé",
    // Numeric filter is about ASCII digits only.
    "1992 007 ٣٤ 12é ４２ 747s b2b 0x1f",
    // Stemming applies to ASCII words only, after folding.
    "Monitoring MONITORED monitors monitoringé",
    "trailing token at the end",
    "ends with a non-ascii letter é",
    "tabs\tand\nnewlines\r\nand\u{a0}no-break\u{2003}spaces—dashes…",
    "emoji 🚀rocket🚀 flags 🇬🇧 zero\u{200d}width",
    "中文 分词 не работает здесь 中文",
];

#[test]
fn edge_cases() {
    let mut pair = Pair::english();
    let (mut dict, mut ref_dict) = (Dictionary::new(), ReferenceDictionary::new());
    // Twice: cold, then with every surface form memoised.
    for _ in 0..2 {
        for text in EDGE_CASES {
            pair.document(text, &mut dict, &mut ref_dict);
            pair.query(text, &mut dict, &mut ref_dict);
        }
    }
    assert_same_dictionary(&dict, &ref_dict, "english");
    let (mut dict, mut english) = (Dictionary::new(), Analyzer::english());
    assert!(english.analyze("", &mut dict).is_empty());
    assert!(english.analyze("The OF And tO", &mut dict).is_empty());
    assert!(dict.is_empty());
}

const LETTERS: &[&str] = &[
    "a", "b", "e", "i", "n", "s", "t", "y", "g", "d", "A", "E", "S", "T", "Z", "0", "7", "é", "ü",
    "ß", "ẞ", "İ", "ı", "ǅ", "Σ", "σ", "ς", "ж", "Ж", "中", "٣", "ﬁ",
];
const SUFFIXES: &[&str] = &[
    "", "", "s", "ing", "ed", "ies", "ational", "ness", "ING", "Ed",
];
const SEPARATORS: &[&str] = &[
    " ", " ", " ", "-", ", ", ".\n", "—", "\u{a0}", "\u{301}", "\u{307} ", "'", "🚀", "",
];

/// A random word: letters drawn from a small mixed alphabet so that words
/// repeat, fold, stem, stop and spill.
fn random_word(rng: &mut Rng) -> String {
    let chars = match rng.below(16) {
        0 => 40,
        1 => 41,
        2 => 15,
        3 => 16,
        _ => 1 + rng.below(6),
    };
    // Mostly from the first few (ASCII) letters, so the vocabulary is small
    // enough for memo hits to dominate.
    let alphabet = if rng.below(4) == 0 { LETTERS.len() } else { 8 };
    let mut word: String = (0..chars).map(|_| LETTERS[rng.below(alphabet)]).collect();
    word.push_str(rng.pick(SUFFIXES));
    word
}

/// A random text: two words in three come from a fixed list or from a
/// 400-word vocabulary that depends only on the text's position in the
/// seed's sequence (so they repeat across texts, skewed towards the front);
/// the rest are fresh.
fn random_text(rng: &mut Rng) -> String {
    const COMMON: &[&str] = &[
        "the", "The", "of", "markets", "Markets", "market", "be", "an",
    ];
    let mut text = String::new();
    for _ in 0..rng.below(60) {
        match rng.below(6) {
            0 => text.push_str(rng.pick(COMMON)),
            1 => text.push_str(&random_word(rng)),
            _ => {
                let rank = rng.below(20) * rng.below(20);
                text.push_str(&random_word(&mut Rng(rank as u64)));
            }
        }
        text.push_str(rng.pick(SEPARATORS));
    }
    text
}

#[test]
fn seeded_utf8_texts() {
    for seed in [1u64, 0xC75, 20_090_329] {
        let mut pair = Pair::english();
        let mut rng = Rng(seed);
        let (mut dict, mut ref_dict) = (Dictionary::new(), ReferenceDictionary::new());
        for round in 0..600 {
            let text = random_text(&mut rng);
            if round % 5 == 0 {
                pair.query(&text, &mut dict, &mut ref_dict);
            } else {
                pair.document(&text, &mut dict, &mut ref_dict);
            }
        }
        assert_same_dictionary(&dict, &ref_dict, &format!("seed {seed}"));
        let memo = pair.new.memo_stats();
        assert!(
            memo.spilled > 0 && memo.hits > memo.misses,
            "seed {seed}: {memo:?}"
        );
    }
}

#[test]
fn two_dictionaries_alternated_through_one_analyser() {
    let mut pair = Pair::english();
    let mut rng = Rng(7);
    let (mut a, mut ref_a) = (Dictionary::new(), ReferenceDictionary::new());
    let (mut b, mut ref_b) = (Dictionary::new(), ReferenceDictionary::new());
    // Skew the numbering so an id leaking from one to the other shows.
    pair.document("unrelated padding words first", &mut b, &mut ref_b);
    for round in 0..200 {
        let text = random_text(&mut rng);
        // Runs of varying length on each side, including back-to-back
        // switches.
        if (round / (1 + round % 3)) % 2 == 0 {
            pair.document(&text, &mut a, &mut ref_a);
        } else {
            pair.document(&text, &mut b, &mut ref_b);
        }
    }
    assert_same_dictionary(&a, &ref_a, "first of two");
    assert_same_dictionary(&b, &ref_b, "second of two");
    assert!(a.len() > 50 && b.len() > 50);
}

#[test]
fn cloned_dictionary_that_then_diverges() {
    let mut pair = Pair::english();
    let mut rng = Rng(11);
    let (mut original, mut ref_original) = (Dictionary::new(), ReferenceDictionary::new());
    for _ in 0..50 {
        pair.document(&random_text(&mut rng), &mut original, &mut ref_original);
    }
    let (mut copy, mut ref_copy) = (original.clone(), ref_original.clone());
    // The copy meets new words the original never sees, then each meets
    // words the other already numbered differently.
    for line in ENGLISH.lines() {
        pair.document(line, &mut copy, &mut ref_copy);
    }
    for _ in 0..50 {
        let text = random_text(&mut rng);
        pair.document(&text, &mut original, &mut ref_original);
        pair.query(&text, &mut copy, &mut ref_copy);
    }
    for line in ENGLISH.lines().rev() {
        pair.document(line, &mut original, &mut ref_original);
    }
    assert_same_dictionary(&original, &ref_original, "original");
    assert_same_dictionary(&copy, &ref_copy, "copy");
    assert_ne!(
        original.iter().map(|(_, t)| t).collect::<Vec<_>>(),
        copy.iter().map(|(_, t)| t).collect::<Vec<_>>(),
        "the two must actually have diverged"
    );
}

#[test]
fn cloned_analyser() {
    let mut pair = Pair::english();
    let mut rng = Rng(13);
    let (mut dict, mut ref_dict) = (Dictionary::new(), ReferenceDictionary::new());
    for _ in 0..50 {
        pair.document(&random_text(&mut rng), &mut dict, &mut ref_dict);
    }
    // The clone carries the memo; both keep working on the same dictionary,
    // interleaved, and on a different one.
    let mut twin = Pair {
        new: pair.new.clone(),
        reference: pair.reference.clone(),
    };
    assert_eq!(twin.new.memo_stats(), pair.new.memo_stats());
    let (mut other, mut ref_other) = (Dictionary::new(), ReferenceDictionary::new());
    for round in 0..100 {
        let text = random_text(&mut rng);
        match round % 3 {
            0 => pair.document(&text, &mut dict, &mut ref_dict),
            1 => twin.document(&text, &mut dict, &mut ref_dict),
            _ => twin.document(&text, &mut other, &mut ref_other),
        }
    }
    assert_same_dictionary(&dict, &ref_dict, "shared by both analysers");
    assert_same_dictionary(&other, &ref_other, "seen by the clone only");
}
