//! The Porter (1980) suffix-stripping stemmer.
//!
//! Conflating morphological variants ("monitor", "monitors", "monitoring" →
//! "monitor") keeps the dictionary compact and makes a query term match every
//! inflection of the word in the document stream, which is the standard IR
//! preprocessing assumed by the paper's experimental setup.
//!
//! The implementation follows M. F. Porter, "An algorithm for suffix
//! stripping", *Program* 14(3), 1980, steps 1a–5b. It operates on lower-case
//! ASCII words; words containing non-ASCII characters are returned unchanged.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

/// The Porter stemmer. Stateless; construct once and reuse.
#[derive(Debug, Clone, Copy, Default)]
pub struct PorterStemmer;

impl PorterStemmer {
    /// Creates a new stemmer.
    pub fn new() -> Self {
        Self
    }

    /// Stems `word`, returning the stemmed form. The input is expected to be
    /// lower-case; words shorter than 3 characters or containing non-ASCII
    /// bytes are returned unchanged.
    pub fn stem(&self, word: &str) -> String {
        if !stemmable(word) {
            return word.to_string();
        }
        let mut w = word.as_bytes().to_vec();
        run_steps(&mut w);
        String::from_utf8(w).unwrap_or_else(|_| word.to_string())
    }

    /// [`PorterStemmer::stem`] without an allocation per call: the word is
    /// stemmed in `buf` (overwritten; reuse one across calls) and the result
    /// borrows from it — or from `word` itself when there is nothing to do.
    pub fn stem_into<'a>(&self, word: &'a str, buf: &'a mut Vec<u8>) -> &'a str {
        if !stemmable(word) {
            return word;
        }
        buf.clear();
        buf.extend_from_slice(word.as_bytes());
        run_steps(buf);
        std::str::from_utf8(buf).unwrap_or(word)
    }
}

fn stemmable(word: &str) -> bool {
    word.len() > 2 && word.is_ascii()
}

/// Steps 1a–5b on an ASCII word. The steps only truncate the word or append
/// ASCII letters to it, so the buffer stays valid UTF-8; both callers fall
/// back to the unstemmed word rather than panic should a future step break
/// that.
fn run_steps(w: &mut Vec<u8>) {
    step_1a(w);
    step_1b(w);
    step_1c(w);
    step_2(w);
    step_3(w);
    step_4(w);
    step_5a(w);
    step_5b(w);
}

/// Returns `true` if `w[i]` acts as a consonant in Porter's definition.
fn is_consonant(w: &[u8], i: usize) -> bool {
    match w[i] {
        b'a' | b'e' | b'i' | b'o' | b'u' => false,
        b'y' => {
            if i == 0 {
                true
            } else {
                // 'y' is a consonant iff the preceding letter is a vowel.
                !is_consonant(w, i - 1)
            }
        }
        _ => true,
    }
}

/// Computes `m`, the number of vowel–consonant sequences (the "measure") of
/// the stem `w[..len]`.
fn measure(w: &[u8], len: usize) -> usize {
    let mut m = 0;
    let mut i = 0;
    // Skip initial consonants.
    while i < len && is_consonant(w, i) {
        i += 1;
    }
    loop {
        // Skip vowels.
        while i < len && !is_consonant(w, i) {
            i += 1;
        }
        if i >= len {
            return m;
        }
        // Skip consonants — one full VC block seen.
        while i < len && is_consonant(w, i) {
            i += 1;
        }
        m += 1;
        if i >= len {
            return m;
        }
    }
}

/// Whether the stem `w[..len]` contains a vowel.
fn has_vowel(w: &[u8], len: usize) -> bool {
    (0..len).any(|i| !is_consonant(w, i))
}

/// Whether the stem `w[..len]` ends with a double consonant.
fn ends_double_consonant(w: &[u8], len: usize) -> bool {
    len >= 2 && w[len - 1] == w[len - 2] && is_consonant(w, len - 1)
}

/// Whether the stem `w[..len]` ends consonant-vowel-consonant, where the final
/// consonant is not `w`, `x` or `y` (Porter's *o condition).
fn ends_cvc(w: &[u8], len: usize) -> bool {
    if len < 3 {
        return false;
    }
    let c = w[len - 1];
    is_consonant(w, len - 3)
        && !is_consonant(w, len - 2)
        && is_consonant(w, len - 1)
        && c != b'w'
        && c != b'x'
        && c != b'y'
}

/// Whether `w` ends with `suffix`.
fn ends_with(w: &[u8], suffix: &str) -> bool {
    w.len() >= suffix.len() && &w[w.len() - suffix.len()..] == suffix.as_bytes()
}

/// Length of the stem obtained by removing `suffix` from `w` (caller must have
/// checked `ends_with`).
fn stem_len(w: &[u8], suffix: &str) -> usize {
    w.len() - suffix.len()
}

/// Replaces the trailing `suffix` with `replacement`.
fn replace_suffix(w: &mut Vec<u8>, suffix: &str, replacement: &str) {
    let new_len = w.len() - suffix.len();
    w.truncate(new_len);
    w.extend_from_slice(replacement.as_bytes());
}

/// Step 1a: plural removal (sses→ss, ies→i, ss→ss, s→"").
fn step_1a(w: &mut Vec<u8>) {
    if ends_with(w, "sses") {
        replace_suffix(w, "sses", "ss");
    } else if ends_with(w, "ies") {
        replace_suffix(w, "ies", "i");
    } else if ends_with(w, "ss") {
        // keep
    } else if ends_with(w, "s") && w.len() > 1 {
        replace_suffix(w, "s", "");
    }
}

/// Step 1b: -eed/-ed/-ing removal with cleanup of the exposed stem.
fn step_1b(w: &mut Vec<u8>) {
    let mut cleanup = false;
    if ends_with(w, "eed") {
        if measure(w, stem_len(w, "eed")) > 0 {
            replace_suffix(w, "eed", "ee");
        }
    } else if ends_with(w, "ed") && has_vowel(w, stem_len(w, "ed")) {
        replace_suffix(w, "ed", "");
        cleanup = true;
    } else if ends_with(w, "ing") && has_vowel(w, stem_len(w, "ing")) {
        replace_suffix(w, "ing", "");
        cleanup = true;
    }
    if cleanup {
        if ends_with(w, "at") {
            replace_suffix(w, "at", "ate");
        } else if ends_with(w, "bl") {
            replace_suffix(w, "bl", "ble");
        } else if ends_with(w, "iz") {
            replace_suffix(w, "iz", "ize");
        } else if ends_double_consonant(w, w.len()) {
            let last = w[w.len() - 1];
            if last != b'l' && last != b's' && last != b'z' {
                w.truncate(w.len() - 1);
            }
        } else if measure(w, w.len()) == 1 && ends_cvc(w, w.len()) {
            w.push(b'e');
        }
    }
}

/// Step 1c: terminal y → i when the stem contains a vowel.
fn step_1c(w: &mut [u8]) {
    if ends_with(w, "y") && has_vowel(w, w.len() - 1) {
        let n = w.len();
        w[n - 1] = b'i';
    }
}

/// Applies the first matching (suffix, replacement) rule whose stem measure
/// exceeds `min_measure`.
fn apply_rules(w: &mut Vec<u8>, rules: &[(&str, &str)], min_measure: usize) {
    for (suffix, replacement) in rules {
        if ends_with(w, suffix) {
            if measure(w, stem_len(w, suffix)) > min_measure {
                replace_suffix(w, suffix, replacement);
            }
            return;
        }
    }
}

/// Step 2: double-suffix reduction (ational→ate, iveness→ive, ...), m > 0.
fn step_2(w: &mut Vec<u8>) {
    apply_rules(
        w,
        &[
            ("ational", "ate"),
            ("tional", "tion"),
            ("enci", "ence"),
            ("anci", "ance"),
            ("izer", "ize"),
            ("abli", "able"),
            ("alli", "al"),
            ("entli", "ent"),
            ("eli", "e"),
            ("ousli", "ous"),
            ("ization", "ize"),
            ("ation", "ate"),
            ("ator", "ate"),
            ("alism", "al"),
            ("iveness", "ive"),
            ("fulness", "ful"),
            ("ousness", "ous"),
            ("aliti", "al"),
            ("iviti", "ive"),
            ("biliti", "ble"),
        ],
        0,
    );
}

/// Step 3: -icate/-ative/-alize/... reduction, m > 0.
fn step_3(w: &mut Vec<u8>) {
    apply_rules(
        w,
        &[
            ("icate", "ic"),
            ("ative", ""),
            ("alize", "al"),
            ("iciti", "ic"),
            ("ical", "ic"),
            ("ful", ""),
            ("ness", ""),
        ],
        0,
    );
}

/// Step 4: suffix deletion for m > 1.
fn step_4(w: &mut Vec<u8>) {
    // "ion" requires the stem to end in 's' or 't'.
    const RULES: &[&str] = &[
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement", "ment", "ent", "ion",
        "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    ];
    for suffix in RULES {
        if ends_with(w, suffix) {
            let sl = stem_len(w, suffix);
            if *suffix == "ion" {
                if sl > 0 && (w[sl - 1] == b's' || w[sl - 1] == b't') && measure(w, sl) > 1 {
                    w.truncate(sl);
                }
            } else if measure(w, sl) > 1 {
                w.truncate(sl);
            }
            return;
        }
    }
}

/// Step 5a: remove a final 'e' if m > 1, or if m == 1 and the stem does not
/// end cvc.
fn step_5a(w: &mut Vec<u8>) {
    if ends_with(w, "e") {
        let sl = w.len() - 1;
        let m = measure(w, sl);
        if m > 1 || (m == 1 && !ends_cvc(w, sl)) {
            w.truncate(sl);
        }
    }
}

/// Step 5b: reduce a final double 'l' if m > 1.
fn step_5b(w: &mut Vec<u8>) {
    if w.len() >= 2
        && w[w.len() - 1] == b'l'
        && ends_double_consonant(w, w.len())
        && measure(w, w.len() - 1) > 1
    {
        w.truncate(w.len() - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(word: &str) -> String {
        PorterStemmer::new().stem(word)
    }

    #[test]
    fn classic_porter_examples() {
        assert_eq!(s("caresses"), "caress");
        assert_eq!(s("ponies"), "poni");
        assert_eq!(s("caress"), "caress");
        assert_eq!(s("cats"), "cat");
        assert_eq!(s("feed"), "feed");
        assert_eq!(s("agreed"), "agre");
        assert_eq!(s("plastered"), "plaster");
        assert_eq!(s("bled"), "bled");
        assert_eq!(s("motoring"), "motor");
        assert_eq!(s("sing"), "sing");
    }

    #[test]
    fn step1b_cleanup_examples() {
        assert_eq!(s("conflated"), "conflat");
        assert_eq!(s("troubled"), "troubl");
        assert_eq!(s("sized"), "size");
        assert_eq!(s("hopping"), "hop");
        assert_eq!(s("tanned"), "tan");
        assert_eq!(s("falling"), "fall");
        assert_eq!(s("hissing"), "hiss");
        assert_eq!(s("fizzed"), "fizz");
        assert_eq!(s("failing"), "fail");
        assert_eq!(s("filing"), "file");
    }

    #[test]
    fn y_to_i() {
        assert_eq!(s("happy"), "happi");
        assert_eq!(s("sky"), "sky");
    }

    #[test]
    fn step2_examples() {
        assert_eq!(s("relational"), "relat");
        assert_eq!(s("conditional"), "condit");
        assert_eq!(s("rational"), "ration");
        assert_eq!(s("valenci"), "valenc");
        assert_eq!(s("digitizer"), "digit");
        assert_eq!(s("operator"), "oper");
        assert_eq!(s("feudalism"), "feudal");
        assert_eq!(s("decisiveness"), "decis");
        assert_eq!(s("hopefulness"), "hope");
        assert_eq!(s("callousness"), "callous");
        assert_eq!(s("formaliti"), "formal");
        assert_eq!(s("sensitiviti"), "sensit");
        assert_eq!(s("sensibiliti"), "sensibl");
    }

    #[test]
    fn step3_examples() {
        assert_eq!(s("triplicate"), "triplic");
        assert_eq!(s("formative"), "form");
        assert_eq!(s("formalize"), "formal");
        assert_eq!(s("electriciti"), "electr");
        assert_eq!(s("electrical"), "electr");
        assert_eq!(s("hopeful"), "hope");
        assert_eq!(s("goodness"), "good");
    }

    #[test]
    fn step4_examples() {
        assert_eq!(s("revival"), "reviv");
        assert_eq!(s("allowance"), "allow");
        assert_eq!(s("inference"), "infer");
        assert_eq!(s("airliner"), "airlin");
        assert_eq!(s("gyroscopic"), "gyroscop");
        assert_eq!(s("adjustable"), "adjust");
        assert_eq!(s("defensible"), "defens");
        assert_eq!(s("irritant"), "irrit");
        assert_eq!(s("replacement"), "replac");
        assert_eq!(s("adjustment"), "adjust");
        assert_eq!(s("dependent"), "depend");
        assert_eq!(s("adoption"), "adopt");
        assert_eq!(s("communism"), "commun");
        assert_eq!(s("activate"), "activ");
        assert_eq!(s("angulariti"), "angular");
        assert_eq!(s("homologous"), "homolog");
        assert_eq!(s("effective"), "effect");
        assert_eq!(s("bowdlerize"), "bowdler");
    }

    #[test]
    fn step5_examples() {
        assert_eq!(s("probate"), "probat");
        assert_eq!(s("rate"), "rate");
        assert_eq!(s("cease"), "ceas");
        assert_eq!(s("controll"), "control");
        assert_eq!(s("roll"), "roll");
    }

    #[test]
    fn domain_words_conflate() {
        // Query terms and their inflections map to the same stem, which is
        // what makes continuous queries robust to morphology.
        assert_eq!(s("weapons"), s("weapon"));
        assert_eq!(s("monitoring"), s("monitored"));
        assert_eq!(s("explosives"), s("explosive"));
        assert_eq!(s("investments"), s("investment"));
    }

    #[test]
    fn short_and_non_ascii_words_pass_through() {
        assert_eq!(s("be"), "be");
        assert_eq!(s("a"), "a");
        assert_eq!(s("zürich"), "zürich");
    }

    #[test]
    fn stem_into_reuses_one_buffer_and_matches_stem() {
        let stemmer = PorterStemmer::new();
        let mut buf = Vec::new();
        for w in [
            "relational",
            "be",
            "zürich",
            "hopping",
            "a",
            "controll",
            "sky",
            "caresses",
        ] {
            let owned = stemmer.stem(w);
            assert_eq!(stemmer.stem_into(w, &mut buf), owned, "for {w}");
        }
    }

    #[test]
    fn stemming_is_idempotent_on_common_vocabulary() {
        let stemmer = PorterStemmer::new();
        for w in [
            "market",
            "markets",
            "marketing",
            "industry",
            "industries",
            "company",
            "companies",
            "reporting",
            "reported",
            "analyst",
            "analysts",
            "security",
            "securities",
        ] {
            let once = stemmer.stem(w);
            let twice = stemmer.stem(&once);
            // Porter is not idempotent for every English word, but it is for
            // this kind of newswire vocabulary; treat a violation as a bug.
            assert_eq!(once, twice, "not idempotent for {w}");
        }
    }
}
