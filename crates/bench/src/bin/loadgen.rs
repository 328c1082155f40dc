//! Overload load generator: replays a seeded bursty session against the
//! bounded [`StreamService`] front-end and reports end-to-end latency
//! percentiles and shed rates.
//!
//! Protocol: fill nothing — the service starts cold with the full query
//! workload registered (via one `register_batch` on both the candidate and
//! the unbounded ITA reference), then offer the synthetic WSJ-like stream
//! in bursts of `--burst` events while draining only `--drain` events per
//! round (`burst/10` by default — a sustained 10× overload), plus one
//! mid-run registration storm through the service, mirrored into the
//! reference as it is offered. Every processed event is replayed into the
//! reference in lockstep (outcomes must match exactly), the shed-accounting
//! identity `offered == accepted + coalesced + shed` is asserted at
//! quiescence, and a sample of query results is compared exactly before the
//! report is written.
//!
//! Usage:
//!   cargo run --release -p cts-bench --bin loadgen             # paper scale
//!   cargo run --release -p cts-bench --bin loadgen -- --quick  # CI smoke
//!   options: --queries N (default 1000), --window N (count-based window of
//!   the engines, default 10000), --events N (events offered, default
//!   20000), --burst N (offers per round, default 64), --drain N (events
//!   drained per round, default burst/10), --queue N (ingest-queue bound,
//!   default 256), --shards N (default 2), --seed N, --deadline-ms N
//!   (stream-time ingest deadline, default 200, 0 disables),
//!   --out PATH (default BENCH_loadgen.json)
//!
//! The JSON fields are documented in README §"Service mode".

use std::collections::BTreeMap;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use cts_bench::sweep::sample_queries;
use cts_core::{
    Admission, ContinuousQuery, Engine, ItaConfig, ItaEngine, ServiceConfig, ShardedItaEngine,
    StreamService,
};
use cts_corpus::{CorpusConfig, DocumentStream, QueryWorkload, StreamConfig, WorkloadConfig};
use cts_index::{QueryId, SlidingWindow};
use cts_text::weighting::Scoring;
use cts_text::Dictionary;
use serde::Serialize;

#[derive(Debug, Clone)]
struct Options {
    quick: bool,
    queries: usize,
    window: usize,
    events: usize,
    burst: usize,
    drain: Option<usize>,
    queue: usize,
    shards: usize,
    seed: u64,
    deadline_ms: u64,
    out: String,
}

const USAGE: &str = "usage: loadgen [--quick] [--queries N] [--window N] [--events N] \
[--burst N] [--drain N] [--queue N] [--shards N] [--seed N] [--deadline-ms N] [--out PATH]";

impl Options {
    fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut options = Self {
            quick: false,
            queries: 1_000,
            window: 10_000,
            events: 20_000,
            burst: 64,
            drain: None,
            queue: 256,
            shards: 2,
            seed: 0x10AD_0001,
            deadline_ms: 200,
            out: "BENCH_loadgen.json".to_string(),
        };
        fn numeric(name: &str, args: &mut dyn Iterator<Item = String>) -> Result<u64, String> {
            let value = args
                .next()
                .ok_or_else(|| format!("{name} requires a value"))?;
            value
                .parse()
                .map_err(|_| format!("{name} requires an integer, got {value:?}"))
        }
        let mut args = args.peekable();
        let mut sized = false;
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => options.quick = true,
                "--queries" => {
                    options.queries = numeric("--queries", &mut args)? as usize;
                    sized = true;
                }
                "--window" => {
                    options.window = numeric("--window", &mut args)?.max(1) as usize;
                    sized = true;
                }
                "--events" => {
                    options.events = numeric("--events", &mut args)?.max(1) as usize;
                    sized = true;
                }
                "--burst" => options.burst = numeric("--burst", &mut args)?.max(1) as usize,
                "--drain" => options.drain = Some(numeric("--drain", &mut args)?.max(1) as usize),
                "--queue" => options.queue = numeric("--queue", &mut args)?.max(1) as usize,
                "--shards" => options.shards = numeric("--shards", &mut args)?.max(1) as usize,
                "--seed" => options.seed = numeric("--seed", &mut args)?,
                "--deadline-ms" => options.deadline_ms = numeric("--deadline-ms", &mut args)?,
                "--out" => {
                    options.out = args.next().ok_or("--out requires a path")?;
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if options.quick && !sized {
            options.queries = 50;
            options.window = 200;
            options.events = 2_000;
        }
        Ok(options)
    }

    fn drain_budget(&self) -> usize {
        self.drain.unwrap_or_else(|| (self.burst / 10).max(1))
    }

    fn corpus(&self) -> CorpusConfig {
        if self.quick {
            CorpusConfig {
                seed: 0x10AD_C0DE,
                ..CorpusConfig::small()
            }
        } else {
            CorpusConfig {
                seed: 0x10AD_C0DE,
                ..CorpusConfig::default()
            }
        }
    }
}

/// The machine-readable outcome of one loadgen session.
#[derive(Debug, Serialize)]
struct LoadgenReport {
    figure: String,
    description: String,
    unix_time_secs: u64,
    seed: u64,
    num_queries: usize,
    window_docs: usize,
    shards: usize,
    queue_capacity: usize,
    burst: usize,
    drain_budget: usize,
    deadline_ms: u64,
    offered: u64,
    accepted: u64,
    coalesced: u64,
    shed: u64,
    shed_deadline: u64,
    shed_queue_full: u64,
    shed_rate: f64,
    retry_hints: u64,
    queue_high_water: u64,
    latency_p50_micros: f64,
    latency_p99_micros: f64,
    latency_p999_micros: f64,
    latency_max_micros: f64,
    drained_events: usize,
    accounting: String,
    self_check: String,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn build_queries(options: &Options, vocabulary: usize, salt: u64) -> Vec<ContinuousQuery> {
    let workload = QueryWorkload::new(
        WorkloadConfig {
            num_queries: options.queries,
            query_length: if options.quick { 4 } else { 10 },
            k: 10,
            popularity_biased: false,
            seed: options.seed ^ salt,
        },
        vocabulary,
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

fn main() {
    let options = match Options::parse(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let corpus = options.corpus();
    let window = SlidingWindow::count_based(options.window);
    let drain_budget = options.drain_budget();
    eprintln!(
        "loadgen: {} queries, {}-doc window, {} events in bursts of {} vs drain {} \
         ({}x overload), queue {}, {} shard(s)",
        options.queries,
        options.window,
        options.events,
        options.burst,
        drain_budget,
        options.burst / drain_budget.max(1),
        options.queue,
        options.shards
    );

    // The full workload registers upfront through the bulk path on both the
    // candidate and the unbounded reference; id assignment must agree.
    let upfront = build_queries(&options, corpus.vocabulary_size, 0x51);
    let mut candidate = ShardedItaEngine::new(window, ItaConfig::default(), options.shards);
    let mut reference = ItaEngine::new(window, ItaConfig::default());
    let ids = candidate.register_batch(upfront.clone());
    assert_eq!(
        ids,
        reference.register_batch(upfront),
        "upfront registration ids diverged"
    );
    let mut live: Vec<QueryId> = ids;

    let mut config = ServiceConfig::bounded(options.queue);
    if options.deadline_ms > 0 {
        config.default_deadline = Some(Duration::from_millis(options.deadline_ms));
    }
    let mut service = StreamService::new(candidate, config);

    let mut stream = DocumentStream::new(
        corpus,
        StreamConfig {
            arrival_rate_per_sec: 200.0,
            seed: options.seed ^ 0xD0C,
        },
    );

    // One mid-run registration storm while the queue is under pressure: each
    // query registers at once and mirrors into the reference as it does.
    let storm_queries = build_queries(
        &Options {
            queries: 32.min(options.queries.max(1)),
            ..options.clone()
        },
        corpus.vocabulary_size,
        0x570,
    );
    let mut storm_queries = Some(storm_queries);

    // Wall-clock offer instants of the events the queue owns, by doc id:
    // end-to-end latency is offer → drain completion.
    let mut offered_at: BTreeMap<u64, (Instant, cts_index::Document)> = BTreeMap::new();
    let mut latencies_micros: Vec<f64> = Vec::new();
    let rounds = options.events.div_ceil(options.burst);
    let mut clock = cts_index::Timestamp::ZERO;

    let drain = |service: &mut StreamService<ShardedItaEngine>,
                 reference: &mut ItaEngine,
                 offered_at: &mut BTreeMap<u64, (Instant, cts_index::Document)>,
                 latencies: &mut Vec<f64>,
                 clock: cts_index::Timestamp,
                 budget: usize| {
        let report = service.pump_budget(clock, budget);
        for (doc_id, _reason) in &report.shed {
            offered_at.remove(&doc_id.0);
        }
        let drained_at = Instant::now();
        for (index, doc_id) in report.processed.iter().enumerate() {
            let (offered, doc) = offered_at
                .remove(&doc_id.0)
                .unwrap_or_else(|| panic!("processed unowned document {doc_id:?}"));
            latencies.push(drained_at.duration_since(offered).as_secs_f64() * 1e6);
            let expected = reference.process_document(doc);
            assert_eq!(
                expected, report.outcomes[index],
                "outcome diverged on {doc_id:?}"
            );
        }
    };

    for round in 0..rounds {
        if round == rounds / 2 {
            if let Some(storm) = storm_queries.take() {
                for query in storm {
                    let answer = service.offer_register(query.clone());
                    let id = reference.register(query);
                    assert_eq!(
                        answer,
                        (Admission::Accepted, Some(id)),
                        "storm ids diverged"
                    );
                    live.push(id);
                }
            }
        }
        let burst = options.burst.min(options.events - round * options.burst);
        for _ in 0..burst {
            let doc = stream.next_document();
            clock = clock.max(doc.arrival);
            let id = doc.id.0;
            match service.offer_document(doc.clone()) {
                Admission::Accepted => {
                    offered_at.insert(id, (Instant::now(), doc));
                }
                Admission::Shed(_) => {}
            }
        }
        drain(
            &mut service,
            &mut reference,
            &mut offered_at,
            &mut latencies_micros,
            clock,
            drain_budget,
        );
    }
    // Quiesce.
    drain(
        &mut service,
        &mut reference,
        &mut offered_at,
        &mut latencies_micros,
        clock,
        usize::MAX,
    );
    assert_eq!(service.depth(), 0, "final pump left a backlog");
    assert!(offered_at.is_empty(), "events neither processed nor shed");

    let overload = service.overload_stats();
    assert_eq!(
        overload.offered,
        overload.accepted + overload.coalesced + overload.shed(),
        "shed accounting violated at quiescence: {overload:?}"
    );

    // Exact self-check on a sample of live queries against the unbounded
    // reference fed exactly the accepted sequence.
    let sampled = sample_queries(&live, 20);
    for &query in &sampled {
        assert_eq!(
            service.results(query),
            reference.current_results(query),
            "self-check diverged on {query:?}"
        );
    }

    latencies_micros.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let report = LoadgenReport {
        figure: "loadgen".to_string(),
        description: "Bounded-queue service under sustained burst overload: \
                      end-to-end latency percentiles, shed rates and exact \
                      accepted-sequence self-check vs an unbounded reference"
            .to_string(),
        unix_time_secs: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .expect("system clock after the epoch")
            .as_secs(),
        seed: options.seed,
        num_queries: options.queries,
        window_docs: options.window,
        shards: options.shards,
        queue_capacity: options.queue,
        burst: options.burst,
        drain_budget,
        deadline_ms: options.deadline_ms,
        offered: overload.offered,
        accepted: overload.accepted,
        coalesced: overload.coalesced,
        shed: overload.shed(),
        shed_deadline: overload.shed_deadline,
        shed_queue_full: overload.shed_queue_full,
        shed_rate: overload.shed() as f64 / overload.offered.max(1) as f64,
        retry_hints: overload.retry_hints,
        queue_high_water: overload.queue_high_water,
        latency_p50_micros: percentile(&latencies_micros, 0.50),
        latency_p99_micros: percentile(&latencies_micros, 0.99),
        latency_p999_micros: percentile(&latencies_micros, 0.999),
        latency_max_micros: latencies_micros.last().copied().unwrap_or(0.0),
        drained_events: latencies_micros.len(),
        accounting: "ok (offered == accepted + coalesced + shed)".to_string(),
        self_check: format!("ok ({} queries sampled)", sampled.len()),
    };
    eprintln!(
        "loadgen: offered {} → accepted {} + coalesced {} + shed {} ({:.1}% shed, \
         high water {}), p50 {:.0} µs, p99 {:.0} µs, p999 {:.0} µs",
        report.offered,
        report.accepted,
        report.coalesced,
        report.shed,
        report.shed_rate * 100.0,
        report.queue_high_water,
        report.latency_p50_micros,
        report.latency_p99_micros,
        report.latency_p999_micros
    );
    let json = serde_json::to_string(&report).expect("report serialises");
    std::fs::write(&options.out, json).expect("report file is writable");
    eprintln!("loadgen: wrote {}", options.out);
}
