//! The rule engine: six module-path-aware rules plus the pragma parser.
//!
//! Rules are deliberately narrow: each one targets the module set where its
//! property is load-bearing (see `DESIGN.md` §11), so a finding is a real
//! claim about the engine's guarantees rather than style noise. Suppression
//! requires an inline pragma **with a reason**:
//!
//! ```text
//! // cts-lint: allow(<rule>, <reason>)
//! ```
//!
//! A trailing pragma suppresses its own line; a pragma alone on a line
//! (empty code channel) suppresses the next line. A pragma without a reason,
//! or naming an unknown rule, is itself reported as `invalid-pragma` and
//! suppresses nothing.

use crate::lexer::{split_channels, Line};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-indexed line number.
    pub line: usize,
    /// The rule slug (one of [`RULES`] or [`INVALID_PRAGMA`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// `HashMap`/`HashSet` in a replay-relevant module: iteration order is
/// nondeterministic, which would break lockstep replay of op scripts across
/// engines.
pub const NONDET_ITERATION: &str = "nondet-iteration";
/// Wall-clock reads inside apply/replay paths: a lockstep replay must
/// reproduce state bit-for-bit, so time may only enter through the op stream.
pub const CLOCK_IN_APPLY: &str = "clock-in-apply";
/// `unwrap`/`expect`/`panic!`/`unreachable!` in the hot event-processing
/// modules: a panic there kills a shard worker mid-event.
pub const PANIC_IN_HOT_PATH: &str = "panic-in-hot-path";
/// Thread spawns outside the shard supervisor: every worker thread must be
/// owned by the supervision/recovery machinery in `sharded.rs`.
pub const SPAWN_OUTSIDE_SUPERVISOR: &str = "spawn-outside-supervisor";
/// Crate roots must carry `#![forbid(unsafe_code)]` and
/// `#![deny(missing_docs, unused_must_use)]`.
pub const CRATE_HYGIENE: &str = "crate-hygiene";
/// `unwrap`/`expect` in the service/admission and fault-policy modules:
/// these paths sit between an abusive stream source and the engine, and must
/// surface typed errors or explicit `Admission` refusals — a panic there
/// converts overload into an outage.
pub const UNWRAP_IN_SERVICE: &str = "unwrap-in-service";
/// A malformed `cts-lint:` pragma: missing reason, unknown rule, or
/// unparseable syntax. Not suppressible.
pub const INVALID_PRAGMA: &str = "invalid-pragma";

/// Every enforced rule slug, in reporting order.
pub const RULES: [&str; 6] = [
    NONDET_ITERATION,
    CLOCK_IN_APPLY,
    PANIC_IN_HOT_PATH,
    SPAWN_OUTSIDE_SUPERVISOR,
    CRATE_HYGIENE,
    UNWRAP_IN_SERVICE,
];

/// Modules on the lockstep replay path: state they build must be a pure
/// function of the op sequence — the testkit replays one script against
/// several engines and demands identical answers — so unordered iteration
/// and wall-clock reads are forbidden (`nondet-iteration`, `clock-in-apply`).
const REPLAY_MODULES: &[&str] = &[
    "crates/core/src/ita.rs",
    "crates/core/src/service.rs",
    "crates/core/src/sharded.rs",
    "crates/core/src/testkit.rs",
    "crates/core/src/engine.rs",
    "crates/core/src/result.rs",
    "crates/core/src/slab.rs",
    "crates/index/src/index.rs",
    "crates/index/src/window_terms.rs",
    "crates/index/src/segmented.rs",
    "crates/index/src/window.rs",
    "crates/index/src/arena.rs",
    "crates/index/src/posting.rs",
    "crates/index/src/threshold.rs",
];

/// Modules on the per-event hot path, where a stray panic kills a shard
/// worker mid-event — or, for the `cts-text` modules every token of every
/// document passes through, the ingest thread (`panic-in-hot-path`).
const HOT_MODULES: &[&str] = &[
    "crates/core/src/ita.rs",
    "crates/core/src/sharded.rs",
    "crates/index/src/index.rs",
    "crates/index/src/segmented.rs",
    "crates/text/src/analyze.rs",
    "crates/text/src/token.rs",
    "crates/text/src/stem.rs",
    "crates/text/src/dictionary.rs",
    "crates/text/src/table.rs",
];

/// The only module allowed to spawn threads: the shard supervisor.
const SUPERVISOR_MODULE: &str = "crates/core/src/sharded.rs";

/// Modules on the service/admission and fault-policy surface, where queue
/// paths must refuse (`Admission`) or return typed `EngineError`s instead of
/// panicking (`unwrap-in-service`).
const SERVICE_MODULES: &[&str] = &[
    "crates/core/src/service.rs",
    "crates/core/src/sharded.rs",
    "crates/core/src/fault.rs",
];

fn in_module_set(path: &str, set: &[&str]) -> bool {
    set.iter().any(|m| path == *m || path.ends_with(m))
}

/// Whether `path` is test or bench code (integration tests, benches), where
/// the runtime rules do not apply.
fn is_test_path(path: &str) -> bool {
    path.contains("/tests/") || path.contains("/benches/")
}

/// Whole-word occurrence of `word` in `code` (both neighbours must be
/// non-identifier characters).
fn has_word(code: &str, word: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let before = code[..start]
            .chars()
            .next_back()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        let after = code[end..]
            .chars()
            .next()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if before && after {
            return true;
        }
        from = end;
    }
    false
}

/// Occurrence of macro-like `name!` where the preceding character is not an
/// identifier character (so `debug_unreachable!` does not match
/// `unreachable!`).
fn has_macro(code: &str, name: &str) -> bool {
    let token = format!("{name}!");
    let mut from = 0;
    while let Some(pos) = code[from..].find(&token) {
        let start = from + pos;
        let before = code[..start]
            .chars()
            .next_back()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if before {
            return true;
        }
        from = start + token.len();
    }
    false
}

/// A parsed, *valid* pragma: suppresses `rule` findings on `line`
/// (1-indexed).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Allow {
    line: usize,
    rule: String,
}

/// Scans comment channels for `cts-lint: allow(rule, reason)` pragmas.
/// Returns the valid suppressions and a finding for every malformed pragma.
fn parse_pragmas(path: &str, lines: &[Line]) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut findings = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        // Doc comments (`///`, `//!`) never carry pragmas — they may quote
        // the pragma syntax when documenting it.
        if matches!(line.comment.chars().next(), Some('/' | '!')) {
            continue;
        }
        let Some(at) = line.comment.find("cts-lint:") else {
            continue;
        };
        let lineno = idx + 1;
        let rest = line.comment[at + "cts-lint:".len()..].trim_start();
        let mut invalid = |message: String| {
            findings.push(Finding {
                path: path.to_string(),
                line: lineno,
                rule: INVALID_PRAGMA,
                message,
            });
        };
        let Some(body) = rest.strip_prefix("allow(") else {
            invalid(format!(
                "malformed pragma (expected `cts-lint: allow(<rule>, <reason>)`): `{}`",
                rest.trim_end()
            ));
            continue;
        };
        let Some(close) = body.rfind(')') else {
            invalid("pragma is missing its closing `)`".to_string());
            continue;
        };
        let body = &body[..close];
        let Some((rule, reason)) = body.split_once(',') else {
            invalid(format!(
                "pragma for `{}` has no reason; every suppression must say why it is sound",
                body.trim()
            ));
            continue;
        };
        let rule = rule.trim();
        let reason = reason.trim();
        if !RULES.contains(&rule) {
            invalid(format!("pragma names unknown rule `{rule}`"));
            continue;
        }
        if reason.is_empty() {
            invalid(format!(
                "pragma for `{rule}` has an empty reason; every suppression must say why it is sound"
            ));
            continue;
        }
        // A trailing pragma covers its own line; a pragma on a line of its
        // own covers the next line.
        let covered = if line.code.trim().is_empty() {
            lineno + 1
        } else {
            lineno
        };
        allows.push(Allow {
            line: covered,
            rule: rule.to_string(),
        });
    }
    (allows, findings)
}

/// Marks every line that is inside a `#[cfg(test)]`-gated item (the
/// attribute line itself, through the matching closing brace). Runtime rules
/// skip these lines: unit-test modules may unwrap and hash freely.
fn test_region_mask(lines: &[Line]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut depth: i64 = 0;
    let mut pending = false;
    let mut region: Option<i64> = None;
    for (idx, line) in lines.iter().enumerate() {
        if line.code.contains("#[cfg(test)]") {
            pending = true;
        }
        let entered_as_test = pending || region.is_some();
        for c in line.code.chars() {
            match c {
                '{' => {
                    if pending {
                        if region.is_none() {
                            region = Some(depth);
                        }
                        pending = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if region == Some(depth) {
                        region = None;
                    }
                }
                _ => {}
            }
        }
        mask[idx] = entered_as_test || pending || region.is_some();
    }
    mask
}

/// Whether a `#![deny(...)]` attribute in `code` lists `lint`.
fn denies(code: &str, lint: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find("#![deny(") {
        let start = from + pos + "#![deny(".len();
        let inner = match code[start..].find(')') {
            Some(end) => &code[start..start + end],
            None => &code[start..],
        };
        if inner.split(',').any(|l| l.trim() == lint) {
            return true;
        }
        from = start;
    }
    false
}

/// Lints one source file. `path` must be workspace-relative with `/`
/// separators (e.g. `crates/core/src/ita.rs`) — the rules decide relevance
/// by module path.
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    let path = path.replace('\\', "/");
    let lines = split_channels(source);
    let (allows, mut findings) = parse_pragmas(&path, &lines);
    let in_test = test_region_mask(&lines);

    let replay = in_module_set(&path, REPLAY_MODULES) && !is_test_path(&path);
    let hot = in_module_set(&path, HOT_MODULES) && !is_test_path(&path);
    let may_spawn = path.ends_with(SUPERVISOR_MODULE) || is_test_path(&path);
    let service = in_module_set(&path, SERVICE_MODULES) && !is_test_path(&path);

    let mut report = |line: usize, rule: &'static str, message: String| {
        findings.push(Finding {
            path: path.clone(),
            line,
            rule,
            message,
        });
    };

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = line.code.as_str();
        if in_test[idx] || code.trim().is_empty() {
            continue;
        }
        if replay {
            for ty in ["HashMap", "HashSet"] {
                if has_word(code, ty) {
                    report(
                        lineno,
                        NONDET_ITERATION,
                        format!(
                            "{ty} in a replay-relevant module: iteration order is \
                             nondeterministic; use BTreeMap/BTreeSet or justify with a pragma"
                        ),
                    );
                }
            }
            for token in ["Instant::now", "SystemTime"] {
                if code.contains(token) {
                    report(
                        lineno,
                        CLOCK_IN_APPLY,
                        format!(
                            "{token} on a replay-relevant path: wall-clock reads make \
                             lockstep replay irreproducible; time must enter via the op stream"
                        ),
                    );
                }
            }
        }
        if hot {
            let mut panic_token = None;
            if code.contains(".unwrap()") {
                panic_token = Some(".unwrap()");
            } else if code.contains(".expect(") {
                panic_token = Some(".expect(..)");
            } else if has_macro(code, "panic") {
                panic_token = Some("panic!");
            } else if has_macro(code, "unreachable") {
                panic_token = Some("unreachable!");
            }
            if let Some(token) = panic_token {
                report(
                    lineno,
                    PANIC_IN_HOT_PATH,
                    format!(
                        "{token} in a hot event-processing module: a panic here kills a \
                         shard worker mid-event; return a typed error or justify with a pragma"
                    ),
                );
            }
        }
        if service {
            let unwrap_token = if code.contains(".unwrap()") {
                Some(".unwrap()")
            } else if code.contains(".expect(") {
                Some(".expect(..)")
            } else {
                None
            };
            if let Some(token) = unwrap_token {
                report(
                    lineno,
                    UNWRAP_IN_SERVICE,
                    format!(
                        "{token} on the service/admission surface: overload and fault \
                         handling must refuse (Admission) or return a typed error; a \
                         panic here turns backpressure into an outage"
                    ),
                );
            }
        }
        if !may_spawn && (code.contains("thread::spawn") || code.contains(".spawn(")) {
            report(
                lineno,
                SPAWN_OUTSIDE_SUPERVISOR,
                "thread spawn outside the shard supervisor: worker threads must be owned \
                 by the supervision machinery in sharded.rs"
                    .to_string(),
            );
        }
    }

    if path.ends_with("/src/lib.rs") && path.contains("crates/") && !path.contains("/compat/") {
        let code: String = lines
            .iter()
            .map(|l| l.code.as_str())
            .collect::<Vec<_>>()
            .join("\n");
        if !code.contains("#![forbid(unsafe_code)]") {
            report(
                1,
                CRATE_HYGIENE,
                "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
            );
        }
        for lint in ["missing_docs", "unused_must_use"] {
            if !denies(&code, lint) {
                report(
                    1,
                    CRATE_HYGIENE,
                    format!("crate root is missing `#![deny({lint})]`"),
                );
            }
        }
    }

    findings.retain(|f| {
        f.rule == INVALID_PRAGMA || !allows.iter().any(|a| a.line == f.line && a.rule == f.rule)
    });
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOT: &str = "crates/core/src/ita.rs";
    const REPLAY: &str = "crates/core/src/testkit.rs";

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn unwrap_in_hot_module_is_flagged() {
        let f = lint_source(HOT, "pub fn f(v: &[u8]) -> u8 { *v.first().unwrap() }\n");
        assert_eq!(rules_of(&f), vec![PANIC_IN_HOT_PATH]);
    }

    #[test]
    fn unwrap_or_variants_are_not_flagged() {
        let src = "pub fn f(v: Option<u8>) -> u8 { v.unwrap_or(0) }\n\
                   pub fn g(v: Option<u8>) -> u8 { v.unwrap_or_else(|| 1) }\n\
                   pub fn h(v: Option<u8>) -> u8 { v.unwrap_or_default() }\n";
        assert!(lint_source(HOT, src).is_empty());
    }

    #[test]
    fn asserts_are_not_flagged() {
        let src = "pub fn f(n: usize) { assert!(n > 0); debug_assert!(n < 10); }\n";
        assert!(lint_source(HOT, src).is_empty());
    }

    #[test]
    fn trailing_pragma_with_reason_suppresses_same_line() {
        let src = "pub fn f(v: &[u8]) -> u8 { *v.first().unwrap() } \
                   // cts-lint: allow(panic-in-hot-path, slice is never empty here)\n";
        assert!(lint_source(HOT, src).is_empty());
    }

    #[test]
    fn standalone_pragma_suppresses_next_line() {
        let src = "// cts-lint: allow(panic-in-hot-path, slice is never empty here)\n\
                   pub fn f(v: &[u8]) -> u8 { *v.first().unwrap() }\n";
        assert!(lint_source(HOT, src).is_empty());
    }

    #[test]
    fn pragma_does_not_leak_past_its_line() {
        let src = "// cts-lint: allow(panic-in-hot-path, only covers the next line)\n\
                   pub fn f(v: &[u8]) -> u8 { *v.first().unwrap() }\n\
                   pub fn g(v: &[u8]) -> u8 { *v.last().unwrap() }\n";
        let f = lint_source(HOT, src);
        assert_eq!(rules_of(&f), vec![PANIC_IN_HOT_PATH]);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn pragma_without_reason_is_invalid_and_suppresses_nothing() {
        let src = "// cts-lint: allow(panic-in-hot-path)\n\
                   pub fn f(v: &[u8]) -> u8 { *v.first().unwrap() }\n";
        let f = lint_source(HOT, src);
        assert_eq!(rules_of(&f), vec![INVALID_PRAGMA, PANIC_IN_HOT_PATH]);
    }

    #[test]
    fn unwrap_on_the_service_surface_is_flagged() {
        for path in ["crates/core/src/service.rs", "crates/core/src/fault.rs"] {
            let f = lint_source(path, "pub fn f(v: Option<u8>) -> u8 { v.unwrap() }\n");
            assert_eq!(rules_of(&f), vec![UNWRAP_IN_SERVICE], "for {path}");
        }
        let f = lint_source(
            "crates/core/src/fault.rs",
            "pub fn f(v: Option<u8>) -> u8 { v.expect(\"present\") }\n",
        );
        assert_eq!(rules_of(&f), vec![UNWRAP_IN_SERVICE]);
    }

    #[test]
    fn service_rule_leaves_panic_macros_to_the_hot_path_rule() {
        // fault.rs is service-surface but not a hot module: explicit panics
        // there are assertion-style and stay out of unwrap-in-service scope.
        let f = lint_source(
            "crates/core/src/fault.rs",
            "pub fn f() { panic!(\"boom\"); }\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn sharded_unwrap_trips_both_hot_and_service_rules() {
        let f = lint_source(
            "crates/core/src/sharded.rs",
            "pub fn f(v: Option<u8>) -> u8 { v.unwrap() }\n",
        );
        assert_eq!(rules_of(&f), vec![PANIC_IN_HOT_PATH, UNWRAP_IN_SERVICE]);
    }

    #[test]
    fn a_pragma_naming_only_one_rule_leaves_the_other_finding() {
        let src = "pub fn f(v: Option<u8>) -> u8 { v.unwrap() } \
                   // cts-lint: allow(panic-in-hot-path, checked by caller)\n";
        let f = lint_source("crates/core/src/sharded.rs", src);
        assert_eq!(rules_of(&f), vec![UNWRAP_IN_SERVICE]);
    }

    #[test]
    fn unwrap_outside_service_modules_is_not_service_flagged() {
        let f = lint_source(
            "crates/core/src/stats.rs",
            "pub fn f(v: Option<u8>) -> u8 { v.unwrap() }\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn unwrap_in_service_pragma_with_reason_suppresses() {
        let src = "// cts-lint: allow(unwrap-in-service, config invariant guarantees Some)\n\
                   pub fn f(v: Option<u8>) -> u8 { v.unwrap() }\n";
        assert!(lint_source("crates/core/src/service.rs", src).is_empty());
    }

    #[test]
    fn doc_comments_quoting_pragma_syntax_are_not_pragmas() {
        let src = "//! Suppress with `// cts-lint: allow(rule)` — documented, not used.\n\
                   /// See also `cts-lint: allow(panic-in-hot-path)`.\n\
                   pub fn f() {}\n";
        assert!(lint_source(HOT, src).is_empty());
    }

    #[test]
    fn pragma_with_unknown_rule_is_invalid() {
        let src = "// cts-lint: allow(made-up-rule, because reasons)\nfn f() {}\n";
        let f = lint_source(HOT, src);
        assert_eq!(rules_of(&f), vec![INVALID_PRAGMA]);
    }

    #[test]
    fn pragma_reason_may_contain_commas() {
        let src = "pub fn f(v: &[u8]) -> u8 { *v.first().unwrap() } \
                   // cts-lint: allow(panic-in-hot-path, checked above, twice, carefully)\n";
        assert!(lint_source(HOT, src).is_empty());
    }

    #[test]
    fn pragma_for_wrong_rule_does_not_suppress() {
        let src = "pub fn f(v: &[u8]) -> u8 { *v.first().unwrap() } \
                   // cts-lint: allow(nondet-iteration, wrong rule named)\n";
        let f = lint_source(HOT, src);
        assert_eq!(rules_of(&f), vec![PANIC_IN_HOT_PATH]);
    }

    #[test]
    fn hashmap_in_replay_module_is_flagged_but_btreemap_is_not() {
        let src = "use std::collections::{BTreeMap, HashMap};\n";
        let f = lint_source(REPLAY, src);
        assert_eq!(rules_of(&f), vec![NONDET_ITERATION]);
        assert!(lint_source(REPLAY, "use std::collections::BTreeMap;\n").is_empty());
    }

    #[test]
    fn hashmap_as_substring_of_identifier_is_not_flagged() {
        let src = "struct MyHashMapLike; fn f(_: MyHashMapLike) {}\n";
        assert!(lint_source(REPLAY, src).is_empty());
    }

    #[test]
    fn clock_reads_in_replay_module_are_flagged() {
        let src = "pub fn stamp() -> std::time::Instant { std::time::Instant::now() }\n";
        let f = lint_source(REPLAY, src);
        assert_eq!(rules_of(&f), vec![CLOCK_IN_APPLY]);
    }

    #[test]
    fn rules_do_not_apply_outside_their_module_sets() {
        // stats.rs is neither replay-relevant nor hot: clocks and unwraps
        // are fine there; spawning still is not.
        let src =
            "pub fn f() { let _ = std::time::Instant::now(); let _ = [1].first().unwrap(); }\n\
                   pub fn g() { std::thread::spawn(|| {}); }\n";
        let f = lint_source("crates/core/src/stats.rs", src);
        assert_eq!(rules_of(&f), vec![SPAWN_OUTSIDE_SUPERVISOR]);
    }

    #[test]
    fn supervisor_module_may_spawn() {
        let src = "pub fn f() { std::thread::spawn(|| {}); }\n";
        let f = lint_source("crates/core/src/sharded.rs", src);
        assert!(rules_of(&f).iter().all(|r| *r != SPAWN_OUTSIDE_SUPERVISOR));
    }

    #[test]
    fn test_and_bench_paths_skip_runtime_rules() {
        let src = "pub fn f() { std::thread::spawn(|| {}).join().unwrap(); }\n";
        assert!(lint_source("crates/core/tests/chaos.rs", src).is_empty());
        assert!(lint_source("crates/bench/benches/sweep.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_module_is_exempt() {
        let src = "pub fn f(v: &[u8]) -> Option<u8> { v.first().copied() }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       use super::*;\n\
                       #[test]\n\
                       fn t() { assert_eq!(f(&[1]).unwrap(), 1); }\n\
                   }\n";
        assert!(lint_source(HOT, src).is_empty());
    }

    #[test]
    fn code_after_cfg_test_module_is_checked_again() {
        let src = "#[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { let _ = [1].first().unwrap(); }\n\
                   }\n\
                   pub fn f(v: &[u8]) -> u8 { *v.first().unwrap() }\n";
        let f = lint_source(HOT, src);
        assert_eq!(rules_of(&f), vec![PANIC_IN_HOT_PATH]);
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn tokens_inside_strings_and_comments_are_ignored() {
        let src = "// HashMap would be wrong here, as would .unwrap()\n\
                   pub fn f() -> &'static str { \"HashMap Instant::now .unwrap()\" }\n\
                   pub fn g() -> &'static str { r\"thread::spawn // .expect(\" }\n";
        assert!(lint_source(HOT, src).is_empty());
        assert!(lint_source(REPLAY, src).is_empty());
    }

    #[test]
    fn crate_hygiene_requires_forbid_and_deny() {
        let good = "#![forbid(unsafe_code)]\n#![deny(missing_docs, unused_must_use)]\n\
                    //! Docs.\npub fn f() {}\n";
        assert!(lint_source("crates/fake/src/lib.rs", good).is_empty());
        let bad = "//! Docs.\npub fn f() {}\n";
        let f = lint_source("crates/fake/src/lib.rs", bad);
        assert_eq!(rules_of(&f), vec![CRATE_HYGIENE; 3]);
        let partial = "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\npub fn f() {}\n";
        let f = lint_source("crates/fake/src/lib.rs", partial);
        assert_eq!(rules_of(&f), vec![CRATE_HYGIENE]);
        assert!(f[0].message.contains("unused_must_use"));
    }

    #[test]
    fn hygiene_skips_compat_and_non_roots() {
        let bare = "pub fn f() {}\n";
        assert!(lint_source("crates/compat/rand/src/lib.rs", bare).is_empty());
        assert!(lint_source("crates/core/src/engine.rs", bare).is_empty());
    }
}
