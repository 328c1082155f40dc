//! The generator-text arm of `cts-text`'s analysis differential: the text
//! `service_open` feeds the analyser, through the memoised pipeline and the
//! seed one (`crates/text/tests/reference/`), vector by vector.
//!
//! It lives here because this is where the generator and `cts-text` are both
//! visible without a new dependency edge. Both forms of the text run: as
//! rendered, and shuffled — the pipeline must not lean on a term's repeats
//! being adjacent for correctness, and `text_analyze` checks it does not for
//! speed.

mod generator_text;
#[path = "../../text/tests/reference/mod.rs"]
mod reference;

use cts_corpus::CorpusConfig;
use cts_text::{Analyzer, Dictionary};
use reference::{assert_same_dictionary, ReferenceAnalyzer, ReferenceDictionary};

fn assert_pipelines_agree(texts: &[String], context: &str) {
    let (mut new, reference) = (Analyzer::english(), ReferenceAnalyzer::english());
    let (mut dict, mut ref_dict) = (Dictionary::new(), ReferenceDictionary::new());
    for (i, text) in texts.iter().enumerate() {
        let got = new.analyze_document(text, &mut dict);
        let want = reference.analyze_document(text, &mut ref_dict);
        assert_eq!(got, want, "{context}: document {i}");
    }
    assert_same_dictionary(&dict, &ref_dict, context);
    let memo = new.memo_stats();
    assert!(
        memo.hits > 5 * memo.misses,
        "{context}: a Zipfian stream should mostly hit the memo, got {memo:?}"
    );
}

#[test]
fn generator_text_as_rendered_and_shuffled() {
    // The paper-point corpus under the seed `ctsbench --seed 7` gives it.
    let config = CorpusConfig {
        seed: 7 ^ 0xC0_4B05,
        ..CorpusConfig::default()
    };
    let (rendered, shuffled) = generator_text::rendered_and_shuffled(config, 5_000);
    assert_ne!(rendered, shuffled);
    assert_pipelines_agree(&rendered, "as rendered");
    assert_pipelines_agree(&shuffled, "shuffled");
}
