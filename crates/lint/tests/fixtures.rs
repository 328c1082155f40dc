//! Self-test: every rule has a known-bad fixture that trips it — and only
//! it. Each fixture is linted under a masquerade path chosen so exactly one
//! rule is in scope; the fixture sources avoid the other rules' tokens.

use std::collections::BTreeSet;

use cts_lint::{lint_source, Finding, RULES};

fn lint_fixture(fixture: &str, masquerade: &str) -> Vec<Finding> {
    let path = format!("{}/fixtures/{fixture}", env!("CARGO_MANIFEST_DIR"));
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|err| panic!("cannot read fixture {path}: {err}"));
    lint_source(masquerade, &source)
}

/// (fixture file, masquerade path, the single rule it must trip).
const CASES: [(&str, &str, &str); 7] = [
    (
        "nondet_iteration.rs",
        "crates/core/src/result.rs",
        "nondet-iteration",
    ),
    (
        "clock_in_apply.rs",
        "crates/core/src/testkit.rs",
        "clock-in-apply",
    ),
    (
        "panic_in_hot_path.rs",
        "crates/index/src/segmented.rs",
        "panic-in-hot-path",
    ),
    // The index's filing and removal loops run per event on every shard.
    (
        "panic_in_hot_path.rs",
        "crates/index/src/index.rs",
        "panic-in-hot-path",
    ),
    (
        "spawn_outside_supervisor.rs",
        "crates/core/src/monitor.rs",
        "spawn-outside-supervisor",
    ),
    (
        "crate_hygiene.rs",
        "crates/fake/src/lib.rs",
        "crate-hygiene",
    ),
    (
        "unwrap_in_service.rs",
        "crates/core/src/fault.rs",
        "unwrap-in-service",
    ),
];

#[test]
fn every_rule_has_a_fixture_that_trips_it_and_only_it() {
    for (fixture, masquerade, rule) in CASES {
        let findings = lint_fixture(fixture, masquerade);
        assert!(
            !findings.is_empty(),
            "{fixture}: expected at least one {rule} finding, got none"
        );
        for f in &findings {
            assert_eq!(
                f.rule, rule,
                "{fixture}: expected only {rule} findings, got {f:?}"
            );
        }
    }
}

/// The `cts-text` modules every token of every document passes through.
const TEXT_HOT_MODULES: [&str; 5] = [
    "crates/text/src/analyze.rs",
    "crates/text/src/token.rs",
    "crates/text/src/stem.rs",
    "crates/text/src/dictionary.rs",
    "crates/text/src/table.rs",
];

#[test]
fn the_text_path_is_hot_and_its_rewritten_sites_pass() {
    for module in TEXT_HOT_MODULES {
        let findings = lint_fixture("text_path_panics.rs", module);
        let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, ["panic-in-hot-path"; 2], "{module}: {findings:?}");
        let findings = lint_fixture("text_path_clean.rs", module);
        assert!(findings.is_empty(), "{module}: {findings:?}");
    }
    // Scoring and weighting run per document, not per token, and are not
    // (yet) under the rule: the same source is silent there.
    for module in ["crates/text/src/score.rs", "crates/text/src/weighting.rs"] {
        let findings = lint_fixture("text_path_panics.rs", module);
        assert!(findings.is_empty(), "{module}: {findings:?}");
    }
}

#[test]
fn the_fixture_set_covers_every_rule() {
    let covered: BTreeSet<&str> = CASES.iter().map(|(_, _, rule)| *rule).collect();
    let all: BTreeSet<&str> = RULES.iter().copied().collect();
    assert_eq!(covered, all, "a rule has no fixture");
}

#[test]
fn reasonless_pragma_is_reported_and_does_not_suppress() {
    let findings = lint_fixture("reasonless_pragma.rs", "crates/core/src/ita.rs");
    let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    assert!(
        rules.contains(&"invalid-pragma"),
        "the reason-less pragma must itself be a finding: {findings:?}"
    );
    assert!(
        rules.contains(&"panic-in-hot-path"),
        "an invalid pragma must not suppress the underlying finding: {findings:?}"
    );
}
