//! The paper-scale Figure 3 sweep harness.
//!
//! Reproduces the experimental protocol of §IV: fill a count-based sliding
//! window from the synthetic WSJ-like stream, register the continuous-query
//! workload, then measure the mean per-event processing time of
//! [`ItaEngine`] and [`NaiveEngine`] over a run of steady-state events
//! (each arrival expires the oldest document, so every event exercises both
//! maintenance paths). Figure 3(a) grows the query count at a fixed window;
//! Figure 3(b) grows the window at the paper's 1,000 queries.
//!
//! Engines run **sequentially**, each reading its own identically-seeded
//! (hence identical) document stream — nothing is materialised, so peak
//! memory stays at one engine's footprint — and the harness
//! cross-checks them anyway: ITA's final top-k for a sample of queries is
//! snapshotted and the naïve engine must reproduce it exactly
//! ([`cts_core::validate::compare_to_snapshot`]). A cell that diverges
//! panics; the sweep binaries are therefore also paper-scale integration
//! tests.
//!
//! Reports serialise to machine-readable JSON (`BENCH_fig3a.json` /
//! `BENCH_fig3b.json`) so the performance trajectory of this repository is
//! recorded run over run; see README §"Reproducing Figure 3".

use std::time::{Instant, SystemTime, UNIX_EPOCH};

use cts_core::validate::{
    compare_to_snapshot, sample_queries, snapshot_results, DEFAULT_TOLERANCE,
};
use cts_core::{
    ContinuousQuery, Engine, ItaConfig, ItaEngine, NaiveConfig, NaiveEngine, ProcessingStats,
    ShardedItaEngine,
};
use cts_corpus::{CorpusConfig, DocumentStream, QueryWorkload, StreamConfig, WorkloadConfig};
use cts_index::{QueryId, SlidingWindow};
use cts_text::weighting::Scoring;
use cts_text::Dictionary;
use serde::Serialize;

/// One cell of a Figure 3 sweep: a fully specified experiment.
#[derive(Debug, Clone)]
pub struct SweepSettings {
    /// Number of registered continuous queries (paper default: 1,000).
    pub num_queries: usize,
    /// Count-based window size in documents (paper default: 10,000+).
    pub window_docs: usize,
    /// Steady-state events to measure after the window is full.
    pub measured_events: usize,
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
    /// Events per `process_batch` call on the sharded-ITA arm (1 = the
    /// per-event protocol). The ITA and naive arms always run per-event;
    /// when `batch > 1` the cell grows an extra `sharded-ita` arm at batch
    /// 1, so the handoff-overhead reduction is recorded side by side.
    pub batch: usize,
    /// Queries per [`Engine::register_batch`] call during setup. 0 registers
    /// the whole workload in **one** bulk call (the cheapest protocol);
    /// a positive value chunks registration into bursts of that size — the
    /// `register_burst` sweep mode, pricing bursty online registration.
    pub register_burst: usize,
    /// Arm two injected worker faults per shard at the start of the
    /// measured phase of the sharded arm (the chaos sweep mode): the first
    /// events each shard processes are applied and then the worker panics,
    /// so the measured mean includes the shards' rebuilds — and the
    /// self-check still has to come out exact.
    pub chaos: bool,
}

impl SweepSettings {
    /// A paper-scale cell: WSJ-like corpus (181,978-term vocabulary), 200
    /// docs/s, 10-term queries with `k = 10`.
    pub fn paper(num_queries: usize, window_docs: usize, measured_events: usize) -> Self {
        Self {
            num_queries,
            window_docs,
            measured_events,
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
            batch: 1,
            register_burst: 0,
            chaos: false,
        }
    }

    /// A reduced cell for CI smoke runs: small vocabulary, short documents,
    /// everything finishes in seconds.
    pub fn quick(num_queries: usize, window_docs: usize, measured_events: usize) -> Self {
        Self {
            corpus: CorpusConfig {
                seed: 0xF16_3000,
                ..CorpusConfig::small()
            },
            self_check_stride: 5,
            ..Self::paper(num_queries, window_docs, measured_events)
        }
    }
}

/// Measured outcome of one engine in one cell.
#[derive(Debug, Clone, Serialize)]
pub struct CellReport {
    /// Engine name (`ita` or `naive`).
    pub engine: String,
    /// Registered queries.
    pub num_queries: usize,
    /// Window size in documents.
    pub window_docs: usize,
    /// Steady-state events measured.
    pub measured_events: u64,
    /// Expirations triggered by the measured events.
    pub expirations: u64,
    /// Wall-clock seconds to stream the window full (no queries registered).
    pub fill_seconds: f64,
    /// Wall-clock seconds to register the full query workload.
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
    /// Full view recomputations (naïve engine only).
    pub recomputations: Option<u64>,
    /// Total impact entries in the inverted index (ITA: the full index;
    /// sharded ITA: summed across the term-filtered shadow indexes).
    pub index_postings: Option<usize>,
    /// Worker shards (sharded-ITA arm only).
    pub shards: Option<usize>,
    /// Events per `process_batch` call this arm was driven with (1 = the
    /// per-event protocol).
    pub batch: usize,
    /// Queries per `register_batch` call during setup (0 = the whole
    /// workload in one bulk call).
    pub register_burst: usize,
    /// Slowest single batch, microseconds (0 when `batch == 1`; the
    /// per-event maximum is `max_event_micros` in that case).
    pub max_batch_micros: f64,
    /// Mean per-event worker busy time summed across shards, microseconds
    /// (sharded-ITA arm only). Divide by `mean_event_micros` for parallel
    /// utilisation; at 1 shard the difference to `mean_event_micros` is the
    /// channel fan-out overhead.
    pub shard_busy_per_event_micros: Option<f64>,
    /// Worker faults observed during the run (sharded-ITA arm only;
    /// non-zero only in chaos mode).
    pub faults: Option<u64>,
    /// Recoveries performed during the run (sharded-ITA arm only; in chaos
    /// mode every fault must have recovered, so this equals `faults`).
    pub recoveries: Option<u64>,
    /// Total time spent recovering shard state, microseconds (sharded-ITA
    /// arm only).
    pub recovery_micros: Option<u64>,
    /// Events shed by a bounded ingest queue in front of this arm (deadline
    /// expiries plus queue-full displacements). The sweep arms run
    /// unbounded, so this records 0 — the column exists so a cell run with a
    /// bounded queue reports what was dropped instead of reading as full
    /// coverage; the bounded-queue profile itself lives in
    /// `BENCH_loadgen.json`.
    pub shed: u64,
    /// Events processed as members of coalesced `process_batch` bursts by a
    /// bounded ingest queue (0 for the unbounded sweep arms; distinct from
    /// `batch`, which is the *driver's* fixed batching protocol).
    pub coalesced: u64,
    /// Deepest the bounded ingest queue got during the run (0 when
    /// unbounded).
    pub queue_high_water: u64,
    /// Outcome of the cross-engine self-check (`"reference"` for the engine
    /// that produced the snapshot, `"ok (n queries)"` for the one checked
    /// against it).
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
    /// Batch size used by the batched sharded-ITA arm of every cell.
    pub batch: usize,
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
            batch: template.batch,
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

struct DriveOutcome<E: Engine> {
    engine: E,
    /// The measured events, timed by [`drive`]'s own loop.
    stats: ProcessingStats,
    query_ids: Vec<QueryId>,
    fill_seconds: f64,
    register_seconds: f64,
}

/// Streams one engine through fill → register → measured events. Each
/// measured `process_document`/`process_batch` call is timed on its own, and
/// the burst it gets is generated before its clock starts, so the timings
/// never include document generation (fill_seconds, an informational
/// total, does). `on_measure_start` runs after fill + registration and
/// before the first measured event — the hook the sharded arm uses to zero
/// its per-worker statistics, so worker busy time covers exactly the
/// measured events the wall-clock mean covers. `batch` > 1 drives the
/// measured events through the engine's batched path, `batch` events per
/// round-trip; a trailing burst of one is a single event, recorded as one.
fn drive<E: Engine>(
    mut engine: E,
    settings: &SweepSettings,
    queries: &[ContinuousQuery],
    batch: usize,
    on_measure_start: impl FnOnce(&mut E),
) -> DriveOutcome<E> {
    let mut stream = build_stream(settings);
    let start = Instant::now();
    for _ in 0..settings.window_docs {
        engine.process_document(stream.next_document());
    }
    let fill_seconds = start.elapsed().as_secs_f64();

    // Registration goes through the bulk path (`Engine::register_batch`),
    // either as one call over the whole workload or — in the
    // `register_burst` sweep mode — chunked into bursts, pricing bursty
    // online registration. Both are differential-tested byte-identical to
    // the one-by-one loop this harness used before DESIGN.md §9.
    let start = Instant::now();
    let query_ids: Vec<QueryId> = if settings.register_burst == 0 {
        engine.register_batch(queries.to_vec())
    } else {
        let mut ids = Vec::with_capacity(queries.len());
        for chunk in queries.chunks(settings.register_burst) {
            ids.extend(engine.register_batch(chunk.to_vec()));
        }
        ids
    };
    let register_seconds = start.elapsed().as_secs_f64();

    on_measure_start(&mut engine);
    let mut stats = ProcessingStats::default();
    let mut remaining = settings.measured_events;
    while remaining > 0 {
        let mut burst = stream.take_documents(remaining.min(batch.max(1)));
        remaining -= burst.len();
        if burst.len() == 1 {
            let doc = burst.remove(0);
            let start = Instant::now();
            let outcome = engine.process_document(doc);
            stats.record(&outcome, start.elapsed());
        } else {
            let start = Instant::now();
            let outcomes = engine.process_batch(burst);
            stats.record_batch(&outcomes, start.elapsed());
        }
    }
    DriveOutcome {
        engine,
        stats,
        query_ids,
        fill_seconds,
        register_seconds,
    }
}

fn base_report<E: Engine>(settings: &SweepSettings, outcome: &DriveOutcome<E>) -> CellReport {
    let stats = &outcome.stats;
    let events = stats.events.max(1);
    CellReport {
        engine: outcome.engine.name().to_string(),
        num_queries: settings.num_queries,
        window_docs: settings.window_docs,
        measured_events: stats.events,
        expirations: stats.expirations,
        fill_seconds: outcome.fill_seconds,
        register_seconds: outcome.register_seconds,
        mean_event_micros: stats.total_time.as_secs_f64() * 1e6 / events as f64,
        max_event_micros: stats.max_event_time.as_secs_f64() * 1e6,
        events_per_second: stats.events_per_second(),
        queries_touched_per_event: stats.total_queries_touched() as f64 / events as f64,
        results_changed: stats.results_changed,
        recomputations: None,
        index_postings: None,
        shards: None,
        batch: 1,
        register_burst: settings.register_burst,
        max_batch_micros: stats.max_batch_time.as_secs_f64() * 1e6,
        shard_busy_per_event_micros: None,
        faults: None,
        recoveries: None,
        recovery_micros: None,
        shed: stats.overload.shed(),
        coalesced: stats.overload.coalesced,
        queue_high_water: stats.overload.queue_high_water,
        self_check: String::new(),
    }
}

/// Runs one cell: ITA first (its final top-k sample becomes the reference
/// snapshot), then the naïve baseline and the sharded-ITA arm
/// (`settings.shards` worker threads), each of which must reproduce the
/// snapshot exactly. When `settings.batch > 1`, the sharded arm runs
/// **twice** — once per-event and once batched — so the JSON records the
/// handoff-overhead reduction side by side. Returns the [`CellReport`]s in
/// execution order.
///
/// # Panics
///
/// Panics if the engines diverge on any sampled query — the sweep doubles as
/// a paper-scale correctness check.
pub fn run_cell(settings: &SweepSettings) -> Vec<CellReport> {
    let queries = build_queries(settings);
    let window = SlidingWindow::count_based(settings.window_docs);

    eprintln!(
        "  cell: {} queries, {}-doc window, {} events, {} shard(s), batch {}",
        settings.num_queries,
        settings.window_docs,
        settings.measured_events,
        settings.shards,
        settings.batch
    );

    // ITA.
    let outcome = drive(
        ItaEngine::new(window, ItaConfig::default()),
        settings,
        &queries,
        1,
        |_| {},
    );
    let sampled = sample_queries(&outcome.query_ids, settings.self_check_stride);
    let snapshot = snapshot_results(&outcome.engine, &sampled);
    let mut ita_report = base_report(settings, &outcome);
    ita_report.index_postings = Some(outcome.engine.index_stats().postings);
    ita_report.self_check = "reference".to_string();
    eprintln!(
        "    ita:     mean {:.1} µs/event, {:.1} queries touched/event",
        ita_report.mean_event_micros, ita_report.queries_touched_per_event
    );
    drop(outcome); // Free the index before the next engine fills its store.

    // Naïve baseline, over its own identically-seeded stream.
    let outcome = drive(
        NaiveEngine::new(window, NaiveConfig::default()),
        settings,
        &queries,
        1,
        |_| {},
    );
    if let Err(divergence) = compare_to_snapshot(
        "ita",
        &snapshot,
        &outcome.engine,
        &sampled,
        DEFAULT_TOLERANCE,
    ) {
        panic!("paper-scale self-check failed: {divergence}");
    }
    let mut naive_report = base_report(settings, &outcome);
    naive_report.recomputations = Some(outcome.engine.recomputations());
    naive_report.self_check = format!("ok ({} queries)", sampled.len());
    eprintln!(
        "    naive:   mean {:.1} µs/event, {:.1} queries touched/event",
        naive_report.mean_event_micros, naive_report.queries_touched_per_event
    );
    drop(outcome);

    // Sharded ITA: query-partitioned worker threads over term-filtered
    // shadow indexes, cross-checked against the same ITA snapshot — once
    // per-event, and (when configured) once batched.
    let mut reports = vec![ita_report, naive_report];
    let mut batches = vec![1usize];
    if settings.batch > 1 {
        batches.push(settings.batch);
    }
    for batch in batches {
        let outcome = drive(
            ShardedItaEngine::new(window, ItaConfig::default(), settings.shards),
            settings,
            &queries,
            batch,
            // Fill and registration are untimed setup; zero the worker stats
            // so shard_busy_per_event_micros covers exactly the measured
            // events. In chaos mode, also arm two faults per shard: the
            // first measured events detonate them, so the measured mean
            // prices the rebuilds and the self-check proves they were exact.
            |engine: &mut ShardedItaEngine| {
                engine.reset_shard_stats();
                if settings.chaos {
                    for shard in 0..engine.num_shards() {
                        for _ in 0..2 {
                            assert!(engine.inject_fault(shard), "arming chaos fault failed");
                        }
                    }
                }
            },
        );
        if let Err(divergence) = compare_to_snapshot(
            "ita",
            &snapshot,
            &outcome.engine,
            &sampled,
            DEFAULT_TOLERANCE,
        ) {
            panic!("sharded-vs-single-shard self-check failed (batch {batch}): {divergence}");
        }
        let mut sharded_report = base_report(settings, &outcome);
        sharded_report.batch = batch;
        let engine = &outcome.engine;
        sharded_report.shards = Some(engine.num_shards());
        sharded_report.index_postings = Some(
            engine
                .shard_index_stats()
                .iter()
                .map(|stats| stats.postings)
                .sum(),
        );
        let busy = engine.aggregate_shard_stats();
        let events = outcome.stats.events.max(1);
        sharded_report.shard_busy_per_event_micros =
            Some(busy.total_time.as_secs_f64() * 1e6 / events as f64);
        if batch > 1 {
            // A batch has no per-event split on the caller's side; the
            // workers timed every event of it.
            sharded_report.max_event_micros = busy.max_event_time.as_secs_f64() * 1e6;
        }
        let fault_stats = engine.fault_stats().expect("sharded engines track faults");
        sharded_report.faults = Some(fault_stats.faults);
        sharded_report.recoveries = Some(fault_stats.recoveries);
        sharded_report.recovery_micros = Some(fault_stats.recovery_micros);
        if settings.chaos {
            assert!(
                fault_stats.faults > 0,
                "chaos mode armed faults but none fired"
            );
            assert_eq!(
                fault_stats.faults, fault_stats.recoveries,
                "chaos mode: some faults did not recover"
            );
            assert_eq!(fault_stats.degraded_shards, 0, "run ended degraded");
        }
        sharded_report.self_check = format!("ok ({} queries)", sampled.len());
        eprintln!(
            "    sharded: mean {:.1} µs/event ({} shards, batch {}, {:.1} µs busy/event), \
             {:.1} queries touched/event",
            sharded_report.mean_event_micros,
            settings.shards,
            batch,
            sharded_report.shard_busy_per_event_micros.unwrap(),
            sharded_report.queries_touched_per_event
        );
        if settings.chaos {
            eprintln!(
                "             chaos: {} faults, {} recoveries, {} µs recovering \
                 (self_check still exact)",
                fault_stats.faults, fault_stats.recoveries, fault_stats.recovery_micros
            );
        }
        reports.push(sharded_report);
    }

    reports
}

/// Shared command-line options of the sweep binaries.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Run the reduced CI-smoke grid instead of the paper-scale one.
    pub quick: bool,
    /// Extend the grid to its largest (slowest) configuration.
    pub full: bool,
    /// Output path for the JSON report.
    pub out: String,
    /// Override for measured events per cell.
    pub events: Option<usize>,
    /// Worker shards for the sharded-ITA arm of every cell.
    pub shards: usize,
    /// Events per `process_batch` round-trip for the batched sharded arm
    /// (1 disables the extra batched arm).
    pub batch: usize,
    /// Register the query workload in bursts of `batch` queries per
    /// `register_batch` call instead of one bulk call (the `register_burst`
    /// sweep mode).
    pub register_burst: bool,
    /// Arm injected worker faults during the measured phase of the sharded
    /// arm (the chaos sweep mode; the self-check must still pass).
    pub chaos: bool,
}

/// The usage text printed when a sweep binary is invoked with bad arguments.
pub const USAGE: &str =
    "usage: <sweep binary> [--quick] [--full] [--events N] [--shards N] [--batch N] [--register-burst] [--chaos] [--out PATH]
  --quick     run the reduced CI-smoke grid instead of the paper-scale one
  --full      extend the grid to its largest (slowest) configuration
  --events N  measured events per cell (positive integer)
  --shards N  worker shards for the sharded-ITA arm (positive integer, default 1)
  --batch N   events per process_batch round-trip on the sharded arm (positive
              integer, default 1; values > 1 add a second, batched sharded arm
              to every cell next to the per-event one)
  --register-burst
              register the query workload in bursts of `--batch` queries per
              register_batch call instead of one bulk call, pricing bursty
              online registration
  --chaos     arm injected worker faults during the measured phase of the
              sharded arm; the run must recover every fault and still pass
              the exact self-check
  --out PATH  output path for the JSON report";

impl SweepOptions {
    /// Parses `--quick`, `--full`, `--events N`, `--shards N`, `--batch N`
    /// and `--out PATH` from the
    /// process arguments; `default_out` names the report file. On an unknown
    /// flag or a malformed value, prints the error and [`USAGE`] to stderr
    /// and exits with status 2 — CI fails loudly on typos rather than
    /// silently running the wrong grid, and a human gets usage instead of a
    /// panic backtrace.
    pub fn from_args(default_out: &str) -> Self {
        match Self::parse(default_out, std::env::args().skip(1)) {
            Ok(options) => options,
            Err(message) => {
                eprintln!("error: {message}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// The argument grammar behind [`SweepOptions::from_args`], split out so
    /// it can be unit-tested without touching the process environment.
    fn parse(default_out: &str, args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut options = Self {
            quick: false,
            full: false,
            out: default_out.to_string(),
            events: None,
            shards: 1,
            batch: 1,
            register_burst: false,
            chaos: false,
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => options.quick = true,
                "--full" => options.full = true,
                "--out" => {
                    options.out = args.next().ok_or("--out requires a path")?;
                }
                "--events" => {
                    let value = args.next().ok_or("--events requires a count")?;
                    let parsed: usize = value
                        .parse()
                        .map_err(|_| format!("--events requires an integer, got {value:?}"))?;
                    if parsed == 0 {
                        return Err("--events requires a positive count".to_string());
                    }
                    options.events = Some(parsed);
                }
                "--shards" => {
                    let value = args.next().ok_or("--shards requires a count")?;
                    let parsed: usize = value
                        .parse()
                        .map_err(|_| format!("--shards requires an integer, got {value:?}"))?;
                    if parsed == 0 {
                        return Err("--shards requires a positive count".to_string());
                    }
                    options.shards = parsed;
                }
                "--batch" => {
                    let value = args.next().ok_or("--batch requires a count")?;
                    let parsed: usize = value
                        .parse()
                        .map_err(|_| format!("--batch requires an integer, got {value:?}"))?;
                    if parsed == 0 {
                        return Err("--batch requires a positive count".to_string());
                    }
                    options.batch = parsed;
                }
                "--register-burst" => options.register_burst = true,
                "--chaos" => options.chaos = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(options)
    }
}

/// The Figure 3(a) grid: query count sweep at a fixed window.
pub fn fig3a_grid(options: &SweepOptions) -> Vec<SweepSettings> {
    let mut cells: Vec<SweepSettings> = if options.quick {
        let events = options.events.unwrap_or(200);
        [10, 25, 50]
            .iter()
            .map(|&n| SweepSettings::quick(n, 200, events))
            .collect()
    } else {
        let events = options.events.unwrap_or(2_000);
        [100, 250, 500, 1_000]
            .iter()
            .map(|&n| SweepSettings::paper(n, 10_000, events))
            .collect()
    };
    for cell in &mut cells {
        cell.shards = options.shards;
        cell.batch = options.batch;
        cell.register_burst = if options.register_burst {
            options.batch
        } else {
            0
        };
        cell.chaos = options.chaos;
    }
    cells
}

/// The Figure 3(b) grid: window sweep at the paper's 1,000 queries
/// (`--full` extends to the 80k-document window).
pub fn fig3b_grid(options: &SweepOptions) -> Vec<SweepSettings> {
    let mut cells: Vec<SweepSettings> = if options.quick {
        let events = options.events.unwrap_or(200);
        [100, 200, 400]
            .iter()
            .map(|&w| SweepSettings::quick(25, w, events))
            .collect()
    } else {
        let events = options.events.unwrap_or(2_000);
        let mut windows = vec![10_000, 20_000, 40_000];
        if options.full {
            windows.push(80_000);
        }
        windows
            .into_iter()
            .map(|w| SweepSettings::paper(1_000, w, events))
            .collect()
    };
    for cell in &mut cells {
        cell.shards = options.shards;
        cell.batch = options.batch;
        cell.register_burst = if options.register_burst {
            options.batch
        } else {
            0
        };
        cell.chaos = options.chaos;
    }
    cells
}

/// Runs a full grid and writes the JSON report to `options.out`.
pub fn run_sweep(
    figure: &str,
    description: &str,
    grid: Vec<SweepSettings>,
    options: &SweepOptions,
) {
    let template = grid.first().expect("grid has at least one cell").clone();
    let mut report = SweepReport::new(figure, description, &template);
    eprintln!(
        "{figure}: {} cell(s), vocabulary {}, {} docs/s",
        grid.len(),
        template.corpus.vocabulary_size,
        template.arrival_rate_per_sec
    );
    for settings in &grid {
        report.cells.extend(run_cell(settings));
    }
    let out = options.out.clone();
    report.write(&out).expect("report file is writable");
    eprintln!("{figure}: wrote {out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tiny_cell_runs_end_to_end_and_self_checks() {
        let mut settings = SweepSettings::quick(8, 60, 40);
        settings.shards = 2;
        let cells = run_cell(&settings);
        assert_eq!(cells.len(), 3);
        let (ita, naive, sharded) = (&cells[0], &cells[1], &cells[2]);
        assert_eq!(ita.engine, "ita");
        assert_eq!(naive.engine, "naive");
        assert_eq!(sharded.engine, "sharded-ita");
        assert_eq!(ita.measured_events, 40);
        assert_eq!(naive.measured_events, 40);
        assert_eq!(sharded.measured_events, 40);
        // Steady state: every arrival expires exactly one document.
        assert_eq!(ita.expirations, 40);
        assert_eq!(sharded.expirations, 40);
        assert!(ita.mean_event_micros > 0.0);
        assert!(ita.index_postings.unwrap() > 0);
        assert!(naive.recomputations.is_some());
        assert!(naive.self_check.starts_with("ok ("));
        // The sharded arm reproduced the ITA snapshot exactly and reports
        // its shard count, shadow footprint and worker busy time.
        assert!(sharded.self_check.starts_with("ok ("));
        assert_eq!(sharded.shards, Some(2));
        assert!(sharded.index_postings.unwrap() > 0);
        assert!(sharded.shard_busy_per_event_micros.unwrap() > 0.0);
        // Query partitioning keeps the per-event work measure identical.
        assert_eq!(
            sharded.queries_touched_per_event,
            ita.queries_touched_per_event
        );
        // The headline claim, visible even at toy scale: ITA touches fewer
        // (query, update) pairs per event than the all-queries baseline.
        assert!(ita.queries_touched_per_event < naive.queries_touched_per_event);
        // The sweep arms run unbounded: the overload columns exist (so a
        // bounded-queue cell can report its drops) and record zero here.
        for cell in &cells {
            assert_eq!(
                (cell.shed, cell.coalesced, cell.queue_high_water),
                (0, 0, 0)
            );
        }
    }

    #[test]
    fn a_batched_cell_grows_a_second_sharded_arm_that_matches() {
        let mut settings = SweepSettings::quick(8, 60, 40);
        settings.shards = 2;
        settings.batch = 16;
        let cells = run_cell(&settings);
        assert_eq!(cells.len(), 4);
        let (singles, batched) = (&cells[2], &cells[3]);
        assert_eq!(singles.engine, "sharded-ita");
        assert_eq!(batched.engine, "sharded-ita");
        assert_eq!(singles.batch, 1);
        assert_eq!(batched.batch, 16);
        // Both sharded arms processed every event and reproduced the ITA
        // snapshot; the batched arm was really driven through
        // process_batch (it recorded whole-batch maxima) — and since the
        // sharded workers time their batched events individually, its
        // per-event maximum is populated too, not the 0.0 this field used
        // to ship on batched arms.
        assert_eq!(singles.measured_events, 40);
        assert_eq!(batched.measured_events, 40);
        assert!(batched.self_check.starts_with("ok ("));
        assert!(batched.max_batch_micros > 0.0);
        assert!(batched.max_event_micros > 0.0);
        assert!(batched.max_event_micros <= batched.max_batch_micros);
        assert!(singles.max_event_micros > 0.0);
        assert_eq!(singles.max_batch_micros, 0.0);
        assert!(batched.shard_busy_per_event_micros.is_some());
        // The per-event work measure is protocol-independent.
        assert_eq!(
            singles.queries_touched_per_event,
            batched.queries_touched_per_event
        );
    }

    #[test]
    fn register_burst_mode_chunks_registration_and_still_self_checks() {
        let mut settings = SweepSettings::quick(9, 60, 30);
        settings.shards = 2;
        settings.register_burst = 4; // 9 queries → bursts of 4, 4, 1.
        let cells = run_cell(&settings);
        assert_eq!(cells.len(), 3);
        for cell in &cells {
            assert_eq!(cell.register_burst, 4);
            assert!(cell.register_seconds >= 0.0);
            assert!(cell.self_check == "reference" || cell.self_check.starts_with("ok ("));
        }
    }

    #[test]
    fn a_chaos_cell_recovers_every_fault_and_still_self_checks() {
        let mut settings = SweepSettings::quick(8, 60, 40);
        settings.shards = 2;
        settings.chaos = true;
        let cells = run_cell(&settings);
        let sharded = &cells[2];
        assert_eq!(sharded.engine, "sharded-ita");
        // run_cell already asserts faults == recoveries > 0 and a clean
        // self-check; here we additionally pin down what the JSON records.
        assert_eq!(sharded.faults, sharded.recoveries);
        assert!(sharded.faults.unwrap() >= 4, "2 faults/shard armed");
        assert!(sharded.recovery_micros.unwrap() > 0);
        assert!(sharded.self_check.starts_with("ok ("));
        // The fault-free arms carry no fault counters.
        assert_eq!(cells[0].faults, None);
        assert_eq!(cells[1].faults, None);
    }

    #[test]
    fn reports_serialise_to_json() {
        let settings = SweepSettings::quick(4, 30, 10);
        let mut report = SweepReport::new("fig3x", "test sweep", &settings);
        report.cells.extend(run_cell(&settings));
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"figure\":\"fig3x\""));
        assert!(json.contains("\"engine\":\"ita\""));
        assert!(json.contains("\"mean_event_micros\""));
    }

    fn parse(args: &[&str]) -> Result<SweepOptions, String> {
        SweepOptions::parse("DEFAULT.json", args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn argument_grammar_accepts_the_documented_flags() {
        let options = parse(&[
            "--quick",
            "--events",
            "50",
            "--shards",
            "4",
            "--batch",
            "64",
            "--register-burst",
            "--chaos",
            "--out",
            "x.json",
        ])
        .unwrap();
        assert!(options.quick);
        assert!(!options.full);
        assert_eq!(options.events, Some(50));
        assert_eq!(options.shards, 4);
        assert_eq!(options.batch, 64);
        assert!(options.register_burst);
        assert!(options.chaos);
        assert_eq!(options.out, "x.json");
        let defaults = parse(&[]).unwrap();
        assert_eq!(defaults.out, "DEFAULT.json");
        assert_eq!(defaults.events, None);
        assert_eq!(defaults.shards, 1);
        assert_eq!(defaults.batch, 1);
        assert!(!defaults.register_burst);
        assert!(!defaults.chaos);
        assert!(USAGE.contains("--chaos"));
    }

    #[test]
    fn argument_grammar_rejects_bad_input_with_a_message() {
        // Unknown flags and malformed values must produce an error (rendered
        // with USAGE by from_args), never a panic or a silently-wrong grid.
        assert!(parse(&["--typo"]).unwrap_err().contains("--typo"));
        assert!(parse(&["--events"]).unwrap_err().contains("count"));
        assert!(parse(&["--events", "many"]).unwrap_err().contains("many"));
        assert!(parse(&["--events", "0"]).unwrap_err().contains("positive"));
        assert!(parse(&["--shards"]).unwrap_err().contains("count"));
        assert!(parse(&["--shards", "no"]).unwrap_err().contains("no"));
        assert!(parse(&["--shards", "0"]).unwrap_err().contains("positive"));
        assert!(parse(&["--batch"]).unwrap_err().contains("count"));
        assert!(parse(&["--batch", "half"]).unwrap_err().contains("half"));
        assert!(parse(&["--batch", "0"]).unwrap_err().contains("positive"));
        assert!(parse(&["--out"]).unwrap_err().contains("path"));
        assert!(USAGE.contains("--events"));
        assert!(USAGE.contains("--shards"));
        assert!(USAGE.contains("--batch"));
        assert!(USAGE.contains("--register-burst"));
    }

    #[test]
    fn written_reports_carry_a_real_timestamp() {
        let settings = SweepSettings::quick(4, 30, 10);
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
        let paper = SweepOptions {
            quick: false,
            full: false,
            out: String::new(),
            events: None,
            shards: 4,
            batch: 64,
            register_burst: false,
            chaos: true,
        };
        let quick = SweepOptions {
            quick: true,
            ..paper.clone()
        };
        let full = SweepOptions {
            full: true,
            ..paper.clone()
        };
        let a = fig3a_grid(&paper);
        assert!(a
            .iter()
            .all(|s| s.shards == 4 && s.batch == 64 && s.register_burst == 0 && s.chaos));
        assert!(fig3b_grid(&paper)
            .iter()
            .all(|s| s.shards == 4 && s.batch == 64 && s.register_burst == 0));
        // --register-burst chunks registration at the --batch size.
        let bursty = SweepOptions {
            register_burst: true,
            ..paper.clone()
        };
        assert!(fig3a_grid(&bursty).iter().all(|s| s.register_burst == 64));
        assert!(fig3b_grid(&bursty).iter().all(|s| s.register_burst == 64));
        assert_eq!(
            a.iter().map(|s| s.num_queries).collect::<Vec<_>>(),
            vec![100, 250, 500, 1_000]
        );
        assert!(a.iter().all(|s| s.window_docs == 10_000));
        assert!(fig3a_grid(&quick).iter().all(|s| s.window_docs < 1_000));
        let b = fig3b_grid(&paper);
        assert_eq!(
            b.iter().map(|s| s.window_docs).collect::<Vec<_>>(),
            vec![10_000, 20_000, 40_000]
        );
        assert!(b.iter().all(|s| s.num_queries == 1_000));
        assert_eq!(fig3b_grid(&full).last().unwrap().window_docs, 80_000);
    }
}
