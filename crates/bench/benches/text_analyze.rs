//! The raw-text path, stage by stage: `cts_text::Analyzer` (surface-form
//! memo, borrowing tokenizer, store-once dictionary) against the pipeline it
//! replaced (`crates/text/tests/reference/`, the seed `analyze` verbatim).
//!
//! Arms — `text_analyze/{generator,shuffled,english}/{warm,cold}/{reference,new}`:
//!
//! * **generator** — paper-point `SyntheticCorpus` documents rendered the way
//!   `ctsbench`'s `TextGenerator` renders them (a term's repeats adjacent,
//!   terms in id order): what `service_open` analyses.
//! * **shuffled** — the same documents, tokens shuffled within each. Nothing
//!   in the pipeline may depend on that adjacency; this arm shows it.
//! * **english** — `reference/english.txt`, a document per line: mixed case,
//!   punctuation, numbers, words past the 15-byte inline key.
//! * **warm** — dictionary (and memo) have met every word before the clock
//!   starts: for the generator arms the whole 182k-word vocabulary, which is
//!   the state of a service that has been up for a while. **cold** — fresh
//!   dictionary and analyser for every pass, so first occurrences, interning
//!   and table growth are inside the clock.
//!
//! One iteration is one pass over the arm's documents; the line printed
//! after each arm divides by the document count. For the new pipeline it
//! also prints the stages cumulatively on the warm state (tokenise only, then
//! with the memo through [`Analyzer::analyze_occurrences`], then with the
//! vector through [`Analyzer::analyze`]) and the memo's hit rate over the
//! measured passes. Before any of that it prints what the warm dictionaries
//! cost: the seed dictionary's resident-set growth beside
//! `Dictionary::heap_bytes` + `MemoStats::bytes` (and their resident-set
//! growth) for the new pair — each built in a child process of its own
//! (`text_analyze --memory-of seed|new`), because resident-set growth inside
//! a process that has already built and freed a vocabulary mostly measures
//! which holes the allocator had to hand.
//!
//! `cargo bench --bench text_analyze`; `CTS_TEXT_ANALYZE_QUICK=1` runs every
//! arm on the small corpus in a few seconds.

#![expect(
    missing_docs,
    reason = "a bench binary has no API; criterion_group! emits an undocumented pub fn"
)]

#[path = "../../corpus/tests/generator_text/mod.rs"]
mod generator_text;
#[path = "../../text/tests/reference/mod.rs"]
mod reference;

use std::process::Command;
use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, BatchSize, Criterion};

use cts_corpus::{CorpusConfig, Vocabulary};
use cts_text::{Analyzer, Dictionary, MemoStats, TermId, Tokenizer};
use reference::{ReferenceAnalyzer, ReferenceDictionary};

const ENGLISH: &str = include_str!("../../text/tests/reference/english.txt");

struct TextSet {
    name: &'static str,
    /// What a warm state has already analysed.
    warm_up: Vec<String>,
    /// What the clock runs over.
    documents: Vec<String>,
}

fn quick() -> bool {
    std::env::var_os("CTS_TEXT_ANALYZE_QUICK").is_some()
}

/// The paper-point corpus under the seed `ctsbench --seed 7` gives it.
fn corpus_config() -> CorpusConfig {
    CorpusConfig {
        seed: 7 ^ 0xC0_4B05,
        ..if quick() {
            CorpusConfig::small()
        } else {
            CorpusConfig::default()
        }
    }
}

fn text_sets() -> Vec<TextSet> {
    let config = corpus_config();
    let vocabulary = vocabulary_texts(&Vocabulary::synthetic(config.vocabulary_size));
    let (rendered, shuffled) =
        generator_text::rendered_and_shuffled(config, if quick() { 300 } else { 5_000 });
    let english: Vec<String> = ENGLISH.lines().map(str::to_string).collect();
    vec![
        TextSet {
            name: "generator",
            warm_up: vocabulary.clone(),
            documents: rendered,
        },
        TextSet {
            name: "shuffled",
            warm_up: vocabulary,
            documents: shuffled,
        },
        TextSet {
            name: "english",
            warm_up: english.clone(),
            documents: english,
        },
    ]
}

/// The generator's whole vocabulary, 300 words to a text.
fn vocabulary_texts(vocabulary: &Vocabulary) -> Vec<String> {
    let ids: Vec<TermId> = (0..vocabulary.len() as u32).map(TermId).collect();
    ids.chunks(300)
        .map(|chunk| vocabulary.render(chunk.iter().copied()))
        .collect()
}

/// Resident set of this process in bytes, where `/proc` says.
fn resident_bytes() -> Option<usize> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: usize = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096)
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

/// Child mode, `text_analyze --memory-of seed|new`: builds that pipeline's
/// warm dictionary over the generator's vocabulary and prints what it cost.
/// Everything allocated before the first reading stays alive past the
/// second, so the growth is the dictionary's and not a refill of freed
/// memory.
fn memory_of(layout: &str) {
    let vocabulary = Vocabulary::synthetic(corpus_config().vocabulary_size);
    let warm_up = vocabulary_texts(&vocabulary);
    let before = resident_bytes();
    let grown = || match (before, resident_bytes()) {
        (Some(before), Some(after)) => format!("{:.1} MB", mb(after.saturating_sub(before))),
        _ => "n/a".to_string(),
    };
    if layout == "seed" {
        let (seed, mut dict) = (ReferenceAnalyzer::english(), ReferenceDictionary::new());
        reference_pass(&seed, &mut dict, &warm_up);
        println!(
            "seed (HashMap<Box<str>, TermId> + Vec<Box<str>>), {} terms: resident set \
             grew {}; {:.2} MB by what it asks the allocator for",
            dict.len(),
            grown(),
            mb(dict.requested_bytes()),
        );
    } else {
        let (mut analyzer, mut dict) = (Analyzer::english(), Dictionary::new());
        new_pass(&mut analyzer, &mut dict, &warm_up);
        let memo = analyzer.memo_stats();
        println!(
            "new, {} terms and {} surface forms ({} spilled) in {} memo slots: \
             Dictionary::heap_bytes {:.2} MB + MemoStats::bytes {:.2} MB = {:.2} MB; resident \
             set grew {}",
            dict.len(),
            memo.entries,
            memo.spilled,
            memo.slots,
            mb(dict.heap_bytes()),
            mb(memo.bytes),
            mb(dict.heap_bytes() + memo.bytes),
            grown(),
        );
    }
    black_box((&vocabulary, &warm_up));
}

/// Runs [`memory_of`] for both layouts, each in a fresh process.
fn report_memory() {
    for layout in ["seed", "new"] {
        let child = std::env::current_exe()
            .and_then(|exe| Command::new(exe).args(["--memory-of", layout]).output());
        match child {
            Ok(output) if output.status.success() => eprint!(
                "text_analyze/memory: {}",
                String::from_utf8_lossy(&output.stdout)
            ),
            other => eprintln!("text_analyze/memory: {layout}: n/a ({other:?})"),
        }
    }
}

fn us_per_doc(total: Duration, passes: u64, documents: usize) -> f64 {
    total.as_secs_f64() * 1e6 / (passes.max(1) as f64 * documents as f64)
}

fn hit_rate(from: MemoStats, to: MemoStats) -> f64 {
    let hits = (to.hits - from.hits) as f64;
    let misses = (to.misses - from.misses) as f64;
    hits / (hits + misses).max(1.0)
}

/// One pass of the seed pipeline over `documents`.
fn reference_pass(seed: &ReferenceAnalyzer, dict: &mut ReferenceDictionary, documents: &[String]) {
    for text in documents {
        black_box(seed.analyze(text, dict));
    }
}

/// One pass of the new pipeline over `documents`.
fn new_pass(analyzer: &mut Analyzer, dict: &mut Dictionary, documents: &[String]) {
    for text in documents {
        black_box(analyzer.analyze_document(text, dict));
    }
}

/// Mean µs/doc of `passes` runs of `pass` over `documents`.
fn timed(passes: u64, documents: usize, mut pass: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..passes {
        pass();
    }
    us_per_doc(start.elapsed(), passes, documents)
}

fn bench_text_analyze(c: &mut Criterion) {
    report_memory();
    let sets = text_sets();

    for set in &sets {
        let documents = &set.documents;
        let n = documents.len();
        let tokens: usize = {
            let (tokenizer, mut fold, mut count) = (Tokenizer::new(), String::new(), 0usize);
            for text in documents {
                tokenizer.for_each_token(text, &mut fold, |_| count += 1);
            }
            count
        };
        eprintln!(
            "text_analyze/{}: {n} documents, {:.0} tokens and {:.0} bytes each",
            set.name,
            tokens as f64 / n as f64,
            documents.iter().map(String::len).sum::<usize>() as f64 / n as f64,
        );
        // µs/doc of [warm reference, warm new], for the ratio line.
        let mut warm = [0.0f64; 2];

        // Warm: state built once, outside every clock.
        {
            let seed = ReferenceAnalyzer::english();
            let mut dict = ReferenceDictionary::new();
            reference_pass(&seed, &mut dict, &set.warm_up);
            let (mut time, mut passes) = (Duration::ZERO, 0u64);
            c.bench_function(&format!("text_analyze/{}/warm/reference", set.name), |b| {
                b.iter(|| {
                    let start = Instant::now();
                    reference_pass(&seed, &mut dict, documents);
                    time += start.elapsed();
                    passes += 1;
                })
            });
            warm[0] = us_per_doc(time, passes, n);
            eprintln!(
                "text_analyze/{}/warm/reference: {:.1} µs/doc ({} dictionary terms)",
                set.name,
                warm[0],
                dict.len()
            );
        }
        {
            let (mut analyzer, mut dict) = (Analyzer::english(), Dictionary::new());
            new_pass(&mut analyzer, &mut dict, &set.warm_up);
            let before = analyzer.memo_stats();
            let (mut time, mut passes) = (Duration::ZERO, 0u64);
            c.bench_function(&format!("text_analyze/{}/warm/new", set.name), |b| {
                b.iter(|| {
                    let start = Instant::now();
                    new_pass(&mut analyzer, &mut dict, documents);
                    time += start.elapsed();
                    passes += 1;
                })
            });
            warm[1] = us_per_doc(time, passes, n);
            let after = analyzer.memo_stats();
            // The cumulative stages, on the same warm state.
            let stage_passes = passes.clamp(1, 5);
            let (tokenizer, mut fold) = (Tokenizer::new(), String::new());
            let tokenise = timed(stage_passes, n, || {
                for text in documents {
                    tokenizer.for_each_token(text, &mut fold, |token| {
                        black_box(token);
                    });
                }
            });
            let mut ids = Vec::new();
            let with_memo = timed(stage_passes, n, || {
                for text in documents {
                    ids.clear();
                    analyzer.analyze_occurrences(text, &mut dict, &mut ids);
                    black_box(&ids);
                }
            });
            let with_vector = timed(stage_passes, n, || {
                for text in documents {
                    black_box(analyzer.analyze(text, &mut dict));
                }
            });
            eprintln!(
                "text_analyze/{}/warm/new: {:.1} µs/doc ({} dictionary terms); stages: \
                 tokenise {tokenise:.1} / + memo {with_memo:.1} / + vector {with_vector:.1} \
                 µs/doc; memo hit rate {:.4}, {:.2} MB in {} slots for {} entries",
                set.name,
                warm[1],
                dict.len(),
                hit_rate(before, after),
                mb(after.bytes),
                after.slots,
                after.entries,
            );
        }

        // Cold: a fresh state per pass, built outside the clock, used inside.
        {
            let seed = ReferenceAnalyzer::english();
            let (mut time, mut passes) = (Duration::ZERO, 0u64);
            c.bench_function(&format!("text_analyze/{}/cold/reference", set.name), |b| {
                b.iter_batched(
                    ReferenceDictionary::new,
                    |mut dict| {
                        let start = Instant::now();
                        reference_pass(&seed, &mut dict, documents);
                        time += start.elapsed();
                        passes += 1;
                        dict
                    },
                    BatchSize::LargeInput,
                )
            });
            eprintln!(
                "text_analyze/{}/cold/reference: {:.1} µs/doc",
                set.name,
                us_per_doc(time, passes, n)
            );
        }
        {
            let (mut time, mut passes) = (Duration::ZERO, 0u64);
            let mut last = MemoStats::default();
            c.bench_function(&format!("text_analyze/{}/cold/new", set.name), |b| {
                b.iter_batched(
                    || (Analyzer::english(), Dictionary::new()),
                    |(mut analyzer, mut dict)| {
                        let start = Instant::now();
                        new_pass(&mut analyzer, &mut dict, documents);
                        time += start.elapsed();
                        passes += 1;
                        last = analyzer.memo_stats();
                        (analyzer, dict)
                    },
                    BatchSize::LargeInput,
                )
            });
            eprintln!(
                "text_analyze/{}/cold/new: {:.1} µs/doc; memo hit rate {:.4}, {:.2} MB in {} \
                 slots for {} entries",
                set.name,
                us_per_doc(time, passes, n),
                hit_rate(MemoStats::default(), last),
                mb(last.bytes),
                last.slots,
                last.entries,
            );
        }
        eprintln!(
            "text_analyze/{}: warm reference / new = {:.1} / {:.1} = {:.2}x",
            set.name,
            warm[0],
            warm[1],
            warm[0] / warm[1]
        );
    }
}

criterion_group!(benches, bench_text_analyze);

fn main() {
    // Cargo passes harness flags (`--bench`); the only argument this binary
    // gives itself is the child mode of `report_memory`.
    let mut args = std::env::args().skip(1);
    if args.next().as_deref() == Some("--memory-of") {
        memory_of(&args.next().unwrap_or_default());
    } else {
        benches();
    }
}
