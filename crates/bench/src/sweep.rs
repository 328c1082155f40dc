//! The paper-scale Figure 3 sweep harness behind the `fig3` binary.
//!
//! Reproduces the experimental protocol of §IV: fill a count-based sliding
//! window from the synthetic WSJ-like stream, register the continuous-query
//! workload, then measure the mean per-event processing time of each engine
//! over steady-state events (each arrival expires the oldest document, so
//! every event exercises both maintenance paths). Figure 3(a) grows the query
//! count at a fixed window; Figure 3(b) grows the window at the paper's 1,000
//! queries.
//!
//! **Steady state.** A cell measures exactly two window turnovers
//! ([`SweepSettings::measured_events`]): every document that was in the
//! window when measurement began has expired, twice over, so the top-`k_max`
//! baseline pays its defining cost — recomputing views that expirations
//! drained — inside the measured mean, and [`run_cell`] refuses a naive cell
//! that never recomputed.
//!
//! **Arms.** Every cell runs four engines, one after another:
//! `ita` (the term-filtered [`ItaEngine`], indexing only query terms),
//! `ita-full-index` (the full-index engine, [`ItaEngine::new`]), `naive` (the
//! top-`k_max` baseline) and `sharded-ita` (the query-partitioned engine on
//! `--shards` workers, one event per call). Each reads its own
//! identically-seeded (hence identical) document stream — nothing is
//! materialised, so peak memory stays at one engine's footprint — and the
//! harness cross-checks them anyway: `ita`'s final top-k for a sample of
//! queries is snapshotted and every other arm must reproduce it exactly
//! ([`cts_core::validate::compare_to_snapshot`]). A cell that diverges
//! panics; the sweep is therefore also a paper-scale integration test.
//!
//! Reports serialise to machine-readable JSON (`BENCH_fig3a.json` /
//! `BENCH_fig3b.json`); see README §"Reproducing Figure 3".

use std::time::{Instant, SystemTime, UNIX_EPOCH};

use cts_core::validate::{
    compare_to_snapshot, sample_queries, snapshot_results, DEFAULT_TOLERANCE,
};
use cts_core::{
    ContinuousQuery, Engine, ItaConfig, ItaEngine, NaiveConfig, NaiveEngine, ProcessingStats,
    RankedDocument, ShardedItaEngine,
};
use cts_corpus::{CorpusConfig, DocumentStream, QueryWorkload, StreamConfig, WorkloadConfig};
use cts_index::{QueryId, SlidingWindow};
use cts_text::weighting::Scoring;
use cts_text::Dictionary;
use serde::Serialize;

/// Window turnovers measured per cell: enough that every document valid
/// when measurement starts expires inside it, so the naive baseline's view
/// recomputations are part of its measured mean.
pub const MEASURED_TURNOVERS: usize = 2;

/// One cell of a Figure 3 sweep: a fully specified experiment.
#[derive(Debug, Clone)]
pub struct SweepSettings {
    /// Number of registered continuous queries (paper default: 1,000).
    pub num_queries: usize,
    /// Count-based window size in documents (paper default: 10,000+).
    pub window_docs: usize,
    /// Corpus shape (vocabulary, document lengths).
    pub corpus: CorpusConfig,
    /// Mean Poisson arrival rate in documents/second (paper: 200).
    pub arrival_rate_per_sec: f64,
    /// Search terms per query (paper default: 10).
    pub query_length: usize,
    /// Results maintained per query (paper: 10).
    pub k: usize,
    /// Base seed; the stream and workload derive their own from it.
    pub seed: u64,
    /// Compare every `stride`-th query between the engines after the run.
    pub self_check_stride: usize,
    /// Worker shards for the sharded-ITA arm (1 = a single worker thread).
    pub shards: usize,
}

impl SweepSettings {
    /// A paper-scale cell: WSJ-like corpus (181,978-term vocabulary), 200
    /// docs/s, 10-term queries with `k = 10`.
    pub fn paper(num_queries: usize, window_docs: usize) -> Self {
        Self {
            num_queries,
            window_docs,
            corpus: CorpusConfig {
                seed: 0xF16_3000,
                ..CorpusConfig::default()
            },
            arrival_rate_per_sec: 200.0,
            query_length: 10,
            k: 10,
            seed: 0xF16_3100,
            self_check_stride: 20,
            shards: 1,
        }
    }

    /// A reduced cell for CI smoke runs: small vocabulary, short documents,
    /// everything finishes in seconds.
    pub fn quick(num_queries: usize, window_docs: usize) -> Self {
        Self {
            corpus: CorpusConfig {
                seed: 0xF16_3000,
                ..CorpusConfig::small()
            },
            self_check_stride: 5,
            ..Self::paper(num_queries, window_docs)
        }
    }

    /// Steady-state events measured per arm: [`MEASURED_TURNOVERS`] full
    /// window turnovers.
    pub fn measured_events(&self) -> usize {
        MEASURED_TURNOVERS * self.window_docs
    }
}

/// Measured outcome of one engine in one cell.
#[derive(Debug, Clone, Serialize)]
pub struct CellReport {
    /// Arm name: `ita`, `ita-full-index`, `naive` or `sharded-ita`.
    pub engine: String,
    /// Registered queries.
    pub num_queries: usize,
    /// Window size in documents.
    pub window_docs: usize,
    /// Steady-state events measured ([`SweepSettings::measured_events`]).
    pub measured_events: u64,
    /// Expirations triggered by the measured events.
    pub expirations: u64,
    /// Wall-clock seconds to stream the window full (no queries registered).
    pub fill_seconds: f64,
    /// Wall-clock seconds to register the full query workload in one
    /// `register_batch` call.
    pub register_seconds: f64,
    /// Mean per-event processing time, microseconds (the paper's metric).
    pub mean_event_micros: f64,
    /// Slowest single event, microseconds.
    pub max_event_micros: f64,
    /// Steady-state throughput in events/second of processing time.
    pub events_per_second: f64,
    /// Mean (query, update) pairs examined per event — the paper's work
    /// measure, where ITA's pruning shows up directly.
    pub queries_touched_per_event: f64,
    /// Top-k changes observed during measurement.
    pub results_changed: u64,
    /// Full view recomputations during measurement (naive arm only; > 0 in
    /// every cell).
    pub recomputations: Option<u64>,
    /// Impact entries held in the inverted index at the end of the run (ITA
    /// arms; sharded ITA sums its term-filtered shadow indexes).
    pub index_postings: Option<usize>,
    /// Worker shards (sharded-ITA arm only).
    pub shards: Option<usize>,
    /// Mean per-event worker busy time summed across shards, microseconds
    /// (sharded-ITA arm only). Divide by `mean_event_micros` for parallel
    /// utilisation; at 1 shard the difference to `mean_event_micros` is the
    /// channel fan-out overhead.
    pub shard_busy_per_event_micros: Option<f64>,
    /// Outcome of the cross-engine self-check (`"reference"` for the `ita`
    /// arm, which produced the snapshot, `"ok (n queries)"` for every arm
    /// checked against it).
    pub self_check: String,
}

/// A complete sweep: shared setup plus one [`CellReport`] per (cell, engine).
#[derive(Debug, Clone, Serialize)]
pub struct SweepReport {
    /// Which figure this reproduces (`fig3a` / `fig3b`).
    pub figure: String,
    /// Human-readable description of the protocol.
    pub description: String,
    /// Seconds since the Unix epoch when the sweep finished.
    pub unix_time_secs: u64,
    /// Vocabulary size of the synthetic corpus.
    pub vocabulary_size: usize,
    /// Mean Poisson arrival rate, documents/second.
    pub arrival_rate_per_sec: f64,
    /// Search terms per query.
    pub query_length: usize,
    /// Results maintained per query.
    pub k: usize,
    /// Worker shards used by the sharded-ITA arm of every cell.
    pub shards: usize,
    /// One entry per (cell, engine), in execution order.
    pub cells: Vec<CellReport>,
}

impl SweepReport {
    /// Creates an empty report that cells are appended to.
    pub fn new(figure: &str, description: &str, template: &SweepSettings) -> Self {
        Self {
            figure: figure.to_string(),
            description: description.to_string(),
            unix_time_secs: 0,
            vocabulary_size: template.corpus.vocabulary_size,
            arrival_rate_per_sec: template.arrival_rate_per_sec,
            query_length: template.query_length,
            k: template.k,
            shards: template.shards,
            cells: Vec::new(),
        }
    }

    /// Stamps the completion time and serialises the report to `path`.
    ///
    /// A system clock before the Unix epoch cannot be represented in the
    /// report's `unix_time_secs` field; rather than silently recording 0 (an
    /// apparently valid timestamp), the failure is surfaced as an error so
    /// no sweep ships a corrupted timing field.
    pub fn write(mut self, path: &str) -> std::io::Result<()> {
        self.unix_time_secs = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "system clock is before the Unix epoch by {:?}",
                        e.duration()
                    ),
                )
            })?
            .as_secs();
        let json = serde_json::to_string(&self).expect("report serialises");
        std::fs::write(path, json)
    }
}

/// Generates the cell's continuous-query workload (deterministic in the
/// settings' seed).
fn build_queries(settings: &SweepSettings) -> Vec<ContinuousQuery> {
    let workload = QueryWorkload::new(
        WorkloadConfig {
            num_queries: settings.num_queries,
            query_length: settings.query_length,
            k: settings.k,
            popularity_biased: false,
            seed: settings.seed ^ 0x51,
        },
        settings.corpus.vocabulary_size,
    );
    let dict = Dictionary::new();
    workload
        .generate()
        .iter()
        .map(|spec| {
            ContinuousQuery::from_term_frequencies(&spec.terms, spec.k, Scoring::Cosine, &dict)
        })
        .collect()
}

/// The cell's document stream. Fully deterministic in the settings' seed,
/// so each engine gets its own instance and reads an identical sequence —
/// nothing is materialised, and peak memory really is one engine's
/// footprint as the module docs promise.
fn build_stream(settings: &SweepSettings) -> DocumentStream {
    DocumentStream::new(
        settings.corpus,
        StreamConfig {
            arrival_rate_per_sec: settings.arrival_rate_per_sec,
            seed: settings.seed ^ 0xD0C,
        },
    )
}

/// Streams one engine through fill → register → measured events and
/// returns its report (the arm-specific fields left `None` for the caller)
/// and the registered query ids. Each measured `process_document` call is
/// timed on its own, after its document is generated, so the timings never
/// include document generation (`fill_seconds`, an informational total,
/// does). `on_measure_start` runs after fill + registration and before the
/// first measured event — the hook the sharded arm uses to zero its
/// per-worker statistics, so worker busy time covers exactly the measured
/// events.
fn drive<E: Engine>(
    arm: &str,
    engine: &mut E,
    settings: &SweepSettings,
    queries: &[ContinuousQuery],
    on_measure_start: impl FnOnce(&mut E),
) -> (CellReport, Vec<QueryId>) {
    let mut stream = build_stream(settings);
    let start = Instant::now();
    for _ in 0..settings.window_docs {
        engine.process_document(stream.next_document());
    }
    let fill_seconds = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let query_ids = engine.register_batch(queries.to_vec());
    let register_seconds = start.elapsed().as_secs_f64();

    on_measure_start(engine);
    let mut stats = ProcessingStats::default();
    for _ in 0..settings.measured_events() {
        let doc = stream.next_document();
        let start = Instant::now();
        let outcome = engine.process_document(doc);
        stats.record(&outcome, start.elapsed());
    }

    let events = stats.events.max(1);
    let report = CellReport {
        engine: arm.to_string(),
        num_queries: settings.num_queries,
        window_docs: settings.window_docs,
        measured_events: stats.events,
        expirations: stats.expirations,
        fill_seconds,
        register_seconds,
        mean_event_micros: stats.total_time.as_secs_f64() * 1e6 / events as f64,
        max_event_micros: stats.max_event_time.as_secs_f64() * 1e6,
        events_per_second: stats.events_per_second(),
        queries_touched_per_event: stats.total_queries_touched() as f64 / events as f64,
        results_changed: stats.results_changed,
        recomputations: None,
        index_postings: None,
        shards: None,
        shard_busy_per_event_micros: None,
        self_check: String::new(),
    };
    (report, query_ids)
}

/// The `ita` arm's final top-k for every `stride`-th query: what every other
/// arm of the cell must reproduce exactly.
struct Reference {
    queries: Vec<QueryId>,
    snapshot: Vec<Vec<RankedDocument>>,
}

impl Reference {
    /// Checks `engine` against the snapshot and stamps `report` with the
    /// outcome.
    ///
    /// # Panics
    ///
    /// Panics on the first divergence.
    fn check<E: Engine>(&self, engine: &E, report: &mut CellReport) {
        if let Err(divergence) = compare_to_snapshot(
            "ita",
            &self.snapshot,
            engine,
            &self.queries,
            DEFAULT_TOLERANCE,
        ) {
            panic!("{} self-check failed: {divergence}", report.engine);
        }
        report.self_check = format!("ok ({} queries)", self.queries.len());
    }
}

fn log_arm(report: &CellReport) {
    eprintln!(
        "    {:<15} mean {:.1} µs/event, {:.1} queries touched/event, registration {:.2} s",
        report.engine,
        report.mean_event_micros,
        report.queries_touched_per_event,
        report.register_seconds
    );
}

/// Runs one cell: `ita` first (its final top-k sample becomes the reference
/// snapshot), then `ita-full-index`, `naive` and `sharded-ita`
/// (`settings.shards` worker threads), each of which must reproduce the
/// snapshot exactly. Returns the four [`CellReport`]s in that order.
///
/// # Panics
///
/// Panics if the engines diverge on any sampled query — the sweep doubles as
/// a paper-scale correctness check — or if the naive arm never recomputed a
/// view, i.e. the cell did not reach the baseline's steady state.
pub fn run_cell(settings: &SweepSettings) -> Vec<CellReport> {
    let queries = build_queries(settings);
    let window = SlidingWindow::count_based(settings.window_docs);

    eprintln!(
        "  cell: {} queries, {}-doc window, {} events, {} shard(s)",
        settings.num_queries,
        settings.window_docs,
        settings.measured_events(),
        settings.shards,
    );

    // Each engine is dropped before the next one fills its store.
    let mut engine = ItaEngine::term_filtered(window);
    let (mut ita, query_ids) = drive("ita", &mut engine, settings, &queries, |_| {});
    let sampled = sample_queries(&query_ids, settings.self_check_stride);
    let reference = Reference {
        snapshot: snapshot_results(&engine, &sampled),
        queries: sampled,
    };
    ita.index_postings = Some(engine.index_stats().postings);
    ita.self_check = "reference".to_string();
    drop(engine);
    log_arm(&ita);

    let mut engine = ItaEngine::new(window, ItaConfig::default());
    let (mut full, _) = drive("ita-full-index", &mut engine, settings, &queries, |_| {});
    reference.check(&engine, &mut full);
    full.index_postings = Some(engine.index_stats().postings);
    drop(engine);
    log_arm(&full);

    let mut engine = NaiveEngine::new(window, NaiveConfig::default());
    let (mut naive, _) = drive("naive", &mut engine, settings, &queries, |_| {});
    reference.check(&engine, &mut naive);
    // Views built by registration are fresh, so every recomputation happened
    // during the measured events.
    let recomputations = engine.recomputations();
    assert!(
        recomputations > 0,
        "naive arm never recomputed a view in {} events: not at steady state",
        naive.measured_events
    );
    naive.recomputations = Some(recomputations);
    drop(engine);
    log_arm(&naive);

    let mut engine = ShardedItaEngine::new(window, ItaConfig::default(), settings.shards);
    let (mut sharded, _) = drive(
        "sharded-ita",
        &mut engine,
        settings,
        &queries,
        ShardedItaEngine::reset_shard_stats,
    );
    reference.check(&engine, &mut sharded);
    sharded.shards = Some(engine.num_shards());
    sharded.index_postings = Some(
        engine
            .shard_index_stats()
            .iter()
            .map(|stats| stats.postings)
            .sum(),
    );
    let busy = engine.aggregate_shard_stats();
    sharded.shard_busy_per_event_micros =
        Some(busy.total_time.as_secs_f64() * 1e6 / sharded.measured_events.max(1) as f64);
    drop(engine);
    log_arm(&sharded);

    vec![ita, full, naive, sharded]
}

/// Which panel of Figure 3 to reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// Figure 3(a): the query count grows at a fixed window.
    A,
    /// Figure 3(b): the window grows at the paper's 1,000 queries.
    B,
}

impl Figure {
    /// The report's `figure` field, and the default output's stem.
    pub fn name(self) -> &'static str {
        match self {
            Figure::A => "fig3a",
            Figure::B => "fig3b",
        }
    }

    fn description(self) -> &'static str {
        match self {
            Figure::A => {
                "Mean event processing time vs. number of continuous queries \
                 (count-based window, two window turnovers per cell)"
            }
            Figure::B => {
                "Mean event processing time vs. sliding-window size \
                 (1,000 continuous queries, two window turnovers per cell)"
            }
        }
    }
}

/// Command-line options of the `fig3` binary.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// The panel to reproduce.
    pub figure: Figure,
    /// Run the reduced CI-smoke grid instead of the paper-scale one.
    pub quick: bool,
    /// Worker shards for the sharded-ITA arm of every cell.
    pub shards: usize,
    /// Output path for the JSON report.
    pub out: String,
}

/// The usage text printed when `fig3` is invoked with bad arguments.
pub const USAGE: &str = "usage: fig3 --figure a|b [--quick] [--shards N] [--out PATH]
  --figure a|b  the panel: (a) query count at a 10k window, (b) window size
                at 1,000 queries
  --quick       run the reduced CI-smoke grid instead of the paper-scale one
  --shards N    worker shards for the sharded-ITA arm (positive integer,
                default 1)
  --out PATH    output path for the JSON report (default BENCH_fig3a.json /
                BENCH_fig3b.json)";

impl SweepOptions {
    /// Parses the process arguments. On a missing `--figure`, an unknown
    /// flag or a malformed value, prints the error and [`USAGE`] to stderr
    /// and exits with status 2 — CI fails loudly on typos rather than
    /// silently running the wrong grid, and a human gets usage instead of a
    /// panic backtrace.
    pub fn from_args() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(options) => options,
            Err(message) => {
                eprintln!("error: {message}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// The argument grammar behind [`SweepOptions::from_args`], split out so
    /// it can be unit-tested without touching the process environment.
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut figure = None;
        let mut quick = false;
        let mut shards = 1;
        let mut out = None;
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--figure" => {
                    let value = args.next().ok_or("--figure requires a or b")?;
                    figure = Some(match value.as_str() {
                        "a" => Figure::A,
                        "b" => Figure::B,
                        _ => return Err(format!("--figure requires a or b, got {value:?}")),
                    });
                }
                "--quick" => quick = true,
                "--out" => out = Some(args.next().ok_or("--out requires a path")?),
                "--shards" => {
                    let value = args.next().ok_or("--shards requires a count")?;
                    let parsed: usize = value
                        .parse()
                        .map_err(|_| format!("--shards requires an integer, got {value:?}"))?;
                    if parsed == 0 {
                        return Err("--shards requires a positive count".to_string());
                    }
                    shards = parsed;
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        let figure = figure.ok_or("--figure a|b is required")?;
        Ok(Self {
            figure,
            quick,
            shards,
            out: out.unwrap_or_else(|| format!("BENCH_{}.json", figure.name())),
        })
    }
}

/// The grid of the chosen panel: Figure 3(a) sweeps the query count at a
/// 10k-document window, Figure 3(b) the window at 1,000 queries. `--quick`
/// shrinks both to seconds on the small corpus.
pub fn grid(options: &SweepOptions) -> Vec<SweepSettings> {
    let cells: Vec<SweepSettings> = match (options.figure, options.quick) {
        (Figure::A, false) => [100, 250, 500, 1_000, 2_500, 10_000]
            .iter()
            .map(|&n| SweepSettings::paper(n, 10_000))
            .collect(),
        (Figure::B, false) => [2_500, 5_000, 10_000, 20_000, 40_000]
            .iter()
            .map(|&w| SweepSettings::paper(1_000, w))
            .collect(),
        (Figure::A, true) => [10, 25, 50]
            .iter()
            .map(|&n| SweepSettings::quick(n, 200))
            .collect(),
        (Figure::B, true) => [100, 200, 400]
            .iter()
            .map(|&w| SweepSettings::quick(25, w))
            .collect(),
    };
    cells
        .into_iter()
        .map(|cell| SweepSettings {
            shards: options.shards,
            ..cell
        })
        .collect()
}

/// Runs the chosen panel's grid and writes the JSON report to
/// `options.out`.
pub fn run_sweep(options: &SweepOptions) {
    let figure = options.figure.name();
    let grid = grid(options);
    let template = grid.first().expect("grid has at least one cell");
    let mut report = SweepReport::new(figure, options.figure.description(), template);
    eprintln!(
        "{figure}: {} cell(s), vocabulary {}, {} docs/s",
        grid.len(),
        template.corpus.vocabulary_size,
        template.arrival_rate_per_sec
    );
    for settings in &grid {
        report.cells.extend(run_cell(settings));
    }
    report.write(&options.out).expect("report file is writable");
    eprintln!("{figure}: wrote {}", options.out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tiny_cell_runs_end_to_end_and_self_checks() {
        // The quick grid's first cell: at 8 queries on a 60-document window
        // no view runs dry in two turnovers.
        let mut settings = SweepSettings::quick(10, 200);
        settings.shards = 2;
        let cells = run_cell(&settings);
        let arms: Vec<&str> = cells.iter().map(|cell| cell.engine.as_str()).collect();
        assert_eq!(arms, ["ita", "ita-full-index", "naive", "sharded-ita"]);
        let (ita, full, naive, sharded) = (&cells[0], &cells[1], &cells[2], &cells[3]);
        for cell in &cells {
            // Steady state: two turnovers, every arrival expiring exactly
            // one document.
            assert_eq!(cell.measured_events, 2 * 200);
            assert_eq!(cell.expirations, 2 * 200);
            assert!(cell.mean_event_micros > 0.0);
        }
        assert_eq!(ita.self_check, "reference");
        for cell in [full, naive, sharded] {
            assert!(cell.self_check.starts_with("ok ("), "{}", cell.engine);
        }
        // The baseline paid its defining cost inside the measured events.
        assert!(naive.recomputations.unwrap() > 0);
        // The term-filtered engine indexes only query terms.
        assert!(ita.index_postings.unwrap() < full.index_postings.unwrap());
        // The sharded arm reports its shard count, shadow footprint and
        // worker busy time; query partitioning keeps the per-event work
        // measure identical, and the filtering leaves it unchanged.
        assert_eq!(sharded.shards, Some(2));
        assert!(sharded.index_postings.unwrap() > 0);
        assert!(sharded.shard_busy_per_event_micros.unwrap() > 0.0);
        for cell in [full, sharded] {
            assert_eq!(
                cell.queries_touched_per_event,
                ita.queries_touched_per_event
            );
        }
        // The headline claim, visible even at toy scale: ITA touches fewer
        // (query, update) pairs per event than the all-queries baseline.
        assert!(ita.queries_touched_per_event < naive.queries_touched_per_event);
    }

    #[test]
    fn reports_serialise_to_json() {
        let settings = SweepSettings::quick(25, 100);
        let mut report = SweepReport::new("fig3x", "test sweep", &settings);
        report.cells.extend(run_cell(&settings));
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"figure\":\"fig3x\""));
        assert!(json.contains("\"engine\":\"ita-full-index\""));
        assert!(json.contains("\"mean_event_micros\""));
    }

    fn parse(args: &[&str]) -> Result<SweepOptions, String> {
        SweepOptions::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn argument_grammar_accepts_the_documented_flags() {
        let options = parse(&[
            "--figure", "b", "--quick", "--shards", "4", "--out", "x.json",
        ])
        .unwrap();
        assert_eq!(options.figure, Figure::B);
        assert!(options.quick);
        assert_eq!(options.shards, 4);
        assert_eq!(options.out, "x.json");
        let defaults = parse(&["--figure", "a"]).unwrap();
        assert_eq!(defaults.figure, Figure::A);
        assert!(!defaults.quick);
        assert_eq!(defaults.shards, 1);
        assert_eq!(defaults.out, "BENCH_fig3a.json");
        assert_eq!(parse(&["--figure", "b"]).unwrap().out, "BENCH_fig3b.json");
        for flag in ["--figure", "--quick", "--shards", "--out"] {
            assert!(USAGE.contains(flag), "{flag}");
        }
    }

    #[test]
    fn argument_grammar_rejects_bad_input_with_a_message() {
        // Unknown flags and malformed values must produce an error (rendered
        // with USAGE by from_args), never a panic or a silently-wrong grid.
        assert!(parse(&[]).unwrap_err().contains("--figure"));
        assert!(parse(&["--quick"]).unwrap_err().contains("--figure"));
        assert!(parse(&["--figure"]).unwrap_err().contains("a or b"));
        assert!(parse(&["--figure", "c"]).unwrap_err().contains("\"c\""));
        assert!(parse(&["--typo"]).unwrap_err().contains("--typo"));
        assert!(parse(&["--shards"]).unwrap_err().contains("count"));
        assert!(parse(&["--shards", "no"]).unwrap_err().contains("no"));
        assert!(parse(&["--shards", "0"]).unwrap_err().contains("positive"));
        assert!(parse(&["--out"]).unwrap_err().contains("path"));
        // The measured-event count is derived, and no other sweep mode
        // exists.
        for gone in [
            "--events",
            "--batch",
            "--register-burst",
            "--chaos",
            "--full",
        ] {
            let error = parse(&["--figure", "a", gone]).unwrap_err();
            assert!(error.contains("unknown argument"), "{gone}: {error}");
            assert!(!USAGE.contains(gone), "{gone}");
        }
    }

    #[test]
    fn written_reports_carry_a_real_timestamp() {
        let settings = SweepSettings::quick(4, 30);
        let report = SweepReport::new("fig3t", "timestamp test", &settings);
        let path = std::env::temp_dir().join("cts_sweep_timestamp_test.json");
        report.write(path.to_str().unwrap()).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        // unix_time_secs is stamped from the real clock, not the 0 sentinel.
        assert!(!json.contains("\"unix_time_secs\":0,"));
    }

    #[test]
    fn grids_have_the_documented_shape() {
        let options = |figure, quick| SweepOptions {
            figure,
            quick,
            shards: 4,
            out: String::new(),
        };
        let a = grid(&options(Figure::A, false));
        assert_eq!(
            a.iter().map(|s| s.num_queries).collect::<Vec<_>>(),
            vec![100, 250, 500, 1_000, 2_500, 10_000]
        );
        assert!(a.iter().all(|s| s.window_docs == 10_000));
        let b = grid(&options(Figure::B, false));
        assert_eq!(
            b.iter().map(|s| s.window_docs).collect::<Vec<_>>(),
            vec![2_500, 5_000, 10_000, 20_000, 40_000]
        );
        assert!(b.iter().all(|s| s.num_queries == 1_000));
        for cell in a.iter().chain(&b) {
            assert_eq!(cell.corpus.vocabulary_size, 181_978);
            assert_eq!(cell.measured_events(), 2 * cell.window_docs);
        }
        for figure in [Figure::A, Figure::B] {
            assert!(grid(&options(figure, true))
                .iter()
                .all(|s| s.window_docs < 1_000 && s.corpus.vocabulary_size < 10_000));
            assert!(grid(&options(figure, false)).iter().all(|s| s.shards == 4));
        }
    }
}
