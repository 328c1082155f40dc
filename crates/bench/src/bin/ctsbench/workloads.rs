//! The four workloads and the metrics each one yields.
//!
//! Every workload has the same shape — generate inputs from the seed, set
//! the system up (timed, several times), stream events for the measured
//! interval, turn some queries over, check the final results against a
//! brute-force reference — and reports the same end-to-end metrics, so any
//! change can be judged on all four. What differs is which layer carries the
//! load; the README says which and why.
//!
//! Document generation is never inside a timed interval: closed loops
//! generate the next chunk untimed and then time its processing, the open
//! loop pre-generates its schedule.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::adapter::{
    self, Doc, Engine, Generator, IndexReplica, Query, QueryId, Ranked, RawEvent, Service,
    ShardProbe, Sharded, Single, TextGenerator, TextPipeline, ThresholdReplica, Touch, Window,
    WindowCopy,
};
use crate::open_loop::{self, OpenLoopRecord, OpenSystem, WallClock};
use crate::stats::{lower_quartile, median, segment_percentile, Stat};
use crate::trace::Tracer;

/// Workload names, in report order.
pub const WORKLOADS: [&str; 4] = [
    "paper_single",
    "paper_sharded",
    "service_open",
    "register_churn",
];

/// End-to-end metrics: name, unit, whether lower is better. Every workload
/// reports every one of them. Bounds live in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str, bool); 4] = [
    ("setup_s", "s", true),
    ("event_us", "us/event", true),
    ("register_us", "us/query", true),
    ("peak_rss_mb", "MiB", true),
];

/// Per-layer metrics of the traced run: name and unit. A workload reports 0
/// for a layer it does not exercise.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("event_mean_us", "us/event"),
    ("gen.doc_us", "us/doc"),
    ("gen.lateness_p99_us", "us"),
    ("text.analyze_us", "us/doc"),
    ("text.weigh_us", "us/doc"),
    ("text.tokens_per_doc", "count"),
    ("text.terms_per_doc", "count"),
    ("text.dict_terms", "count"),
    ("index.insert_us", "us/event"),
    ("index.remove_us", "us/event"),
    ("index.postings", "count"),
    ("index.filtered_insert_us", "us/event"),
    ("index.filtered_remove_us", "us/event"),
    ("index.filtered_postings", "count"),
    ("index.threshold_probe_us", "us/event"),
    ("ita.self_us", "us/event"),
    ("ita.event_p99_us", "us"),
    ("ita.event_p999_us", "us"),
    ("ita.queries_touched_per_event", "count"),
    ("ita.results_changed_per_event", "count"),
    ("ita.useful_touch_ratio", "ratio"),
    ("ita.expired_per_event", "count"),
    ("ita.fill_us_per_doc", "us/doc"),
    ("ita.bulk_register_us", "us/query"),
    ("ita.deregister_us", "us/query"),
    ("sharded.worker_busy_sum_us", "us/event"),
    ("sharded.worker_busy_max_us", "us/event"),
    ("sharded.unattributed_us", "us/event"),
    ("sharded.parallel_utilisation", "ratio"),
    ("sharded.busy_skew", "ratio"),
    ("sharded.batch_p99_us", "us"),
    ("sharded.stall_count", "count"),
    ("sharded.stall_us_per_event", "us/event"),
    ("sharded.shadow_postings", "count"),
    ("sharded.migrations", "count"),
    ("sharded.faults", "count"),
    ("sharded.recoveries", "count"),
    ("sharded.register_burst_p99_us", "us"),
    ("service.offer_us", "us/event"),
    ("service.pump_us", "us/event"),
    ("service.engine_us", "us/event"),
    ("service.self_us", "us/event"),
    ("service.queue_wait_p50_us", "us"),
    ("service.queue_wait_p99_us", "us"),
    ("service.queue_high_water", "count"),
    ("service.coalesced_share", "ratio"),
    ("service.singletons", "count"),
    ("service.batches", "count"),
    ("service.shed", "count"),
    ("service.retry_hints", "count"),
    ("service.latency_p50_us", "us"),
    ("service.latency_p99_us", "us"),
    ("service.latency_p999_us", "us"),
    ("service.latency_max_us", "us"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
];

/// Worker shards of the sharded engine: the box has two cores.
const SHARDS: usize = 2;
/// Events per closed-loop segment: the 256-mutation checkpoint cadence, so
/// every segment pays exactly one checkpoint clone per shard.
const CHUNK: usize = 256;
/// Events per `process_batch` call on the sharded engine.
const BURST: usize = 64;
/// Phase A of `service_open`: events per second on the fixed schedule, and
/// events per segment.
const OPEN_RATE: f64 = 1_000.0;
const OPEN_SEGMENT: usize = 100;
/// Phase B of `service_open`: events offered at once and pumped dry.
const CAPACITY_BURST: usize = 256;
const QUEUE_CAPACITY: usize = 4_096;
const PUMP_BUDGET: usize = 256;
/// A call this long is a stall (the checkpoint clone, a descheduled worker),
/// not ordinary work.
const STALL_US: f64 = 5_000.0;
/// Slices of churn rounds spread over a closed loop's interval
/// (`service_open` has one per [`OPEN_SLICES`] slice).
const CHURN_SLICES: usize = 8;
/// Untimed chunks between set-up and the measured interval (2,048 events).
const WARM_UP_CHUNKS: usize = 8;
/// Alternations of phase A and phase B within `service_open`'s interval.
const OPEN_SLICES: usize = 6;
/// Every this-many-th live query is checked against the reference.
const CHECK_STRIDE: usize = 20;

/// Sizes of one run. `paper` is the benchmark; `quick` is the smoke the unit
/// tests run in a debug build.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub quick: bool,
    pub window_docs: usize,
    pub queries: usize,
    pub query_terms: usize,
    pub churn_batch: usize,
    /// Queries per churn round on `service_open`, where each one registers
    /// through the service's admission path on its own (about 20 ms apiece
    /// on two shards), so a full `churn_batch` would take the whole run.
    pub service_churn_batch: usize,
    /// Seconds of register/deregister rounds on the workloads whose main
    /// phase has no churn, in slices spread evenly over the measured interval
    /// (one round per slice at least) so that `register_us` samples the same
    /// stretch of the host's moods as `event_us`; bunched into two seconds
    /// after the stream it read 35% apart between two identical runs. A
    /// time, not a count, because a round costs 3 ms on the plain engine and
    /// 90 ms through the service.
    pub churn_seconds: f64,
    /// Set-ups an untraced run times; `setup_s` is their lower quartile.
    pub setup_repeats: usize,
    /// Events the traced run replays through the stand-alone index replicas.
    pub replica_events: usize,
}

impl Scale {
    pub fn paper() -> Self {
        Scale {
            quick: false,
            window_docs: 10_000,
            queries: 1_000,
            query_terms: 10,
            churn_batch: 16,
            service_churn_batch: 4,
            churn_seconds: 2.0,
            setup_repeats: 9,
            replica_events: 8_192,
        }
    }

    pub fn quick() -> Self {
        Scale {
            quick: true,
            window_docs: 200,
            queries: 50,
            query_terms: 4,
            churn_batch: 4,
            service_churn_batch: 2,
            churn_seconds: 0.02,
            setup_repeats: 1,
            replica_events: 512,
        }
    }

    fn time_window(&self) -> Window {
        Window::Time(Duration::from_secs_f64(
            self.window_docs as f64 / adapter::STREAM_RATE,
        ))
    }
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// What one workload run produced.
pub struct Outcome {
    pub workload: String,
    pub end_to_end: Vec<(&'static str, Stat)>,
    /// Empty on an untraced run.
    pub per_layer: Vec<(&'static str, Stat)>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable facts for the report (identities, check summary).
    pub notes: Vec<String>,
    pub wall_s: f64,
    pub tracer: Tracer,
}

#[cfg(test)]
impl Outcome {
    pub fn metric(&self, name: &str) -> Option<&Stat> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|(n, _)| *n == name)
            .map(|(_, stat)| stat)
    }
}

pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let started = Instant::now();
    let tracer = Tracer::new(false);
    let mut run = Run {
        config,
        tracer,
        layer: Vec::new(),
        notes: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let mut end_to_end = match config.workload.as_str() {
        "paper_single" => run.paper::<Single>(1),
        "paper_sharded" => run.paper::<Sharded>(BURST),
        "service_open" => run.service_open(),
        "register_churn" => run.register_churn(),
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {WORKLOADS:?}"
            ))
        }
    };
    end_to_end.push(("peak_rss_mb", Stat::single(peak_rss_mib())));
    debug_assert!(END_TO_END
        .iter()
        .all(|(name, ..)| end_to_end.iter().any(|(n, _)| n == name)));
    let per_layer = if config.trace {
        run.set("trace.spans", run.tracer.span_count() as f64);
        PER_LAYER
            .iter()
            .map(|(name, _)| {
                let stat = run
                    .layer
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or_else(|| Stat::single(0.0), |(_, stat)| stat.clone());
                (*name, stat)
            })
            .collect()
    } else {
        Vec::new()
    };
    Ok(Outcome {
        workload: config.workload.clone(),
        end_to_end,
        per_layer,
        attempted: run.attempted.max(1),
        failed: run.failed,
        notes: run.notes,
        wall_s: started.elapsed().as_secs_f64(),
        tracer: run.tracer,
    })
}

/// `VmHWM` of this process: the most resident memory it ever held.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn us(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e6
}

/// The resident queries with their ids, oldest first.
type Live = VecDeque<(QueryId, Query)>;

/// Registration-side operations, which the service offers too.
trait Registry {
    fn register(&mut self, queries: Vec<Query>) -> Vec<QueryId>;
    fn deregister(&mut self, query: QueryId) -> bool;
    fn results(&self, query: QueryId) -> Vec<Ranked>;
}

impl<E: Engine> Registry for E {
    fn register(&mut self, queries: Vec<Query>) -> Vec<QueryId> {
        Engine::register(self, queries)
    }
    fn deregister(&mut self, query: QueryId) -> bool {
        Engine::deregister(self, query)
    }
    fn results(&self, query: QueryId) -> Vec<Ranked> {
        Engine::results(self, query)
    }
}

impl Registry for Service {
    fn register(&mut self, queries: Vec<Query>) -> Vec<QueryId> {
        Service::register(self, queries)
    }
    fn deregister(&mut self, query: QueryId) -> bool {
        Service::deregister(self, query)
    }
    fn results(&self, query: QueryId) -> Vec<Ranked> {
        Service::results(self, query)
    }
}

/// Timings of the repeated set-up.
#[derive(Default)]
struct SetupTimes {
    total_s: Vec<f64>,
    fill_us_per_doc: Vec<f64>,
    register_us_per_query: Vec<f64>,
}

impl SetupTimes {
    /// Records one set-up of `docs` documents and `queries` queries that
    /// had filled the window after `filled` and was done after `total`.
    fn push(&mut self, filled: Duration, total: Duration, docs: usize, queries: usize) {
        self.total_s.push(total.as_secs_f64());
        self.fill_us_per_doc.push(us(filled) / docs.max(1) as f64);
        self.register_us_per_query
            .push(us(total - filled) / queries.max(1) as f64);
    }
}

/// One timed closed-loop segment.
#[derive(Default)]
struct Chunk {
    /// Duration of every engine call, in µs.
    calls_us: Vec<f64>,
    events: usize,
    touch: Touch,
    /// Per-shard busy time over the chunk.
    busy_ns: Vec<u64>,
    traced: bool,
    gen_us_per_doc: f64,
}

impl Chunk {
    fn event_us(&self) -> f64 {
        self.calls_us.iter().sum::<f64>() / self.events.max(1) as f64
    }
}

/// The call durations of a run, chunk by chunk.
fn calls_of(chunks: &[Chunk]) -> Vec<&[f64]> {
    chunks.iter().map(|c| c.calls_us.as_slice()).collect()
}

/// One register → read → deregister round.
#[derive(Default, Clone, Copy)]
struct ChurnRound {
    register_call_us: f64,
    read_us: f64,
    deregister_us: f64,
    queries: usize,
}

struct Run<'a> {
    config: &'a RunConfig,
    tracer: Tracer,
    layer: Vec<(&'static str, Stat)>,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Run<'_> {
    fn scale(&self) -> Scale {
        self.config.scale
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.set_stat(name, Stat::single(value));
    }

    fn set_stat(&mut self, name: &'static str, stat: Stat) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layer.retain(|(n, _)| *n != name);
        self.layer.push((name, stat));
    }

    /// The traced run records spans on every other chunk, so the chunks
    /// without them price the spans.
    fn trace_chunk(&mut self, index: usize) -> bool {
        let traced = self.config.trace && index.is_multiple_of(2);
        self.tracer.set_enabled(traced);
        traced
    }

    /// An untraced run sets up several times; the traced run spends that
    /// time on the replica pass instead.
    fn setup_repeats(&self) -> usize {
        if self.config.trace {
            1
        } else {
            self.scale().setup_repeats
        }
    }

    // -- phases shared by the closed-loop workloads ------------------------

    /// Builds the engine, fills the window and bulk-registers the resident
    /// queries, `setup_repeats` times; keeps the last engine.
    fn setup_engine<E: Engine>(
        &mut self,
        build: impl Fn() -> E,
        fill: &[Doc],
        queries: &[Query],
        burst: usize,
    ) -> (E, Live, SetupTimes) {
        let mut times = SetupTimes::default();
        let mut built = None;
        for _ in 0..self.setup_repeats() {
            // Dropping the previous engine (joining its workers) and
            // cloning the inputs are not part of anyone's set-up.
            drop(built.take());
            let bursts: Vec<Vec<Doc>> = fill.chunks(burst).map(<[Doc]>::to_vec).collect();
            let batch = queries.to_vec();
            let start = Instant::now();
            let mut engine = build();
            for burst in bursts {
                engine.process(burst);
            }
            let filled = start.elapsed();
            let ids = Engine::register(&mut engine, batch);
            let total = start.elapsed();
            times.push(filled, total, fill.len(), queries.len());
            built = Some((engine, ids));
        }
        let (engine, ids) = built.expect("at least one set-up");
        self.attempted += (fill.len() + queries.len()) as u64;
        self.failed += (queries.len() - ids.len().min(queries.len())) as u64;
        let live = ids.into_iter().zip(queries.iter().cloned()).collect();
        (engine, live, times)
    }

    /// `setup_s` and its two parts, each the lower quartile over the
    /// repeats like every other timing: the repeats come in a slow and a
    /// fast mode on the sharded engine, and a median of few flips between
    /// them from run to run.
    fn report_setup(&mut self, times: SetupTimes) -> Stat {
        let repeats = times.total_s.len();
        let over_repeats = |values: Vec<f64>| Stat::of_segments(values, repeats);
        self.set_stat("ita.fill_us_per_doc", over_repeats(times.fill_us_per_doc));
        self.set_stat(
            "ita.bulk_register_us",
            over_repeats(times.register_us_per_query),
        );
        over_repeats(times.total_s)
    }

    /// Generates one chunk (untimed), mirrors it into the window copy and
    /// times its processing burst by burst.
    fn timed_chunk<E: Engine>(
        &mut self,
        engine: &mut E,
        generator: &mut Generator,
        window: &mut WindowCopy,
        burst: usize,
        index: usize,
        requests: &mut u64,
    ) -> Chunk {
        let generating = Instant::now();
        let docs = generator.docs(CHUNK);
        let gen_us_per_doc = us(generating.elapsed()) / docs.len() as f64;
        window.extend(&docs);
        let mut chunk = Chunk {
            events: docs.len(),
            traced: self.trace_chunk(index),
            gen_us_per_doc,
            ..Chunk::default()
        };
        let mut bursts: Vec<Vec<Doc>> = Vec::with_capacity(docs.len().div_ceil(burst));
        let mut docs = docs.into_iter();
        loop {
            let next: Vec<Doc> = docs.by_ref().take(burst).collect();
            if next.is_empty() {
                break;
            }
            bursts.push(next);
        }
        let before = engine.busy_ns();
        for burst in bursts {
            // A single event's request id is its document id, a burst's is
            // its number in the run.
            let request = if burst.len() == 1 {
                adapter::doc_id(&burst[0])
            } else {
                *requests
            };
            *requests += 1;
            self.timed_burst(engine, burst, request, &mut chunk);
        }
        chunk.busy_ns = busy_delta(&before, &engine.busy_ns());
        self.attempted += chunk.events as u64;
        chunk
    }

    /// One timed engine call, recorded into `chunk`.
    fn timed_burst<E: Engine>(
        &mut self,
        engine: &mut E,
        burst: Vec<Doc>,
        request: u64,
        chunk: &mut Chunk,
    ) {
        let open = self.tracer.begin("engine.process", request);
        let start = Instant::now();
        let touch = engine.process(burst);
        let elapsed = start.elapsed();
        self.tracer.end(open);
        chunk.calls_us.push(us(elapsed));
        chunk.touch.add(touch);
    }

    /// Streams chunks until the measured interval is used up (at least two,
    /// so a traced run has a chunk of each kind), after an untimed warm-up
    /// that puts lazily built state (cold terms, allocator pools) in place.
    /// [`CHURN_SLICES`] slices of churn rounds, the last one at the end,
    /// divide the interval.
    fn stream<E: Engine>(
        &mut self,
        engine: &mut E,
        generator: &mut Generator,
        window: &mut WindowCopy,
        live: &mut Live,
        burst: usize,
    ) -> (Vec<Chunk>, Vec<ChurnRound>) {
        let scale = self.scale();
        let mut requests = 0;
        for _ in 0..WARM_UP_CHUNKS {
            self.timed_chunk(engine, generator, window, burst, 1, &mut requests);
        }
        let slice = Duration::from_secs_f64(self.config.seconds / CHURN_SLICES as f64);
        let started = Instant::now();
        let mut chunks = Vec::new();
        let mut rounds = Vec::new();
        for churn_due in (1..=CHURN_SLICES as u32).map(|i| started + slice * i) {
            while chunks.len() < 2 || Instant::now() < churn_due {
                let index = chunks.len();
                chunks.push(self.timed_chunk(
                    engine,
                    generator,
                    window,
                    burst,
                    index,
                    &mut requests,
                ));
            }
            self.churn_slice(engine, live, &mut rounds, CHURN_SLICES, |round| {
                generator.queries(scale.churn_batch, scale.query_terms, 1 + round)
            });
        }
        (chunks, rounds)
    }

    /// One churn round: register a batch, read the new queries' results,
    /// deregister as many of the oldest.
    fn churn_round(
        &mut self,
        system: &mut impl Registry,
        live: &mut Live,
        batch: Vec<Query>,
        round: u64,
    ) -> ChurnRound {
        let count = batch.len();
        let kept = batch.clone();
        let open = self.tracer.begin("engine.register", round);
        let start = Instant::now();
        let ids = system.register(batch);
        let registered = start.elapsed();
        self.tracer.end(open);
        let mut read = 0;
        for &id in &ids {
            read += system.results(id).len();
        }
        std::hint::black_box(read);
        let read_done = start.elapsed();
        self.attempted += 2 * count as u64;
        self.failed += (count - ids.len().min(count)) as u64;
        live.extend(ids.into_iter().zip(kept));
        let oldest: Vec<QueryId> = live
            .drain(..count.min(live.len()))
            .map(|(id, _)| id)
            .collect();
        let open = self.tracer.begin("engine.deregister", round);
        let start = Instant::now();
        let mut removed = 0;
        for &id in &oldest {
            removed += usize::from(system.deregister(id));
        }
        let deregistered = start.elapsed();
        self.tracer.end(open);
        self.failed += (oldest.len() - removed) as u64;
        ChurnRound {
            register_call_us: us(registered),
            read_us: us(read_done - registered),
            deregister_us: us(deregistered),
            queries: count,
        }
    }

    /// One of `slices` slices of churn on a workload whose main phase has
    /// none: rounds for that share of `churn_seconds`, one at least.
    /// `batch(round)` generates the round's new queries, untimed.
    fn churn_slice(
        &mut self,
        system: &mut impl Registry,
        live: &mut Live,
        rounds: &mut Vec<ChurnRound>,
        slices: usize,
        mut batch: impl FnMut(u64) -> Vec<Query>,
    ) {
        self.tracer.set_enabled(self.config.trace);
        let deadline =
            Instant::now() + Duration::from_secs_f64(self.scale().churn_seconds / slices as f64);
        loop {
            let round = rounds.len() as u64;
            let queries = batch(round);
            rounds.push(self.churn_round(system, live, queries, round));
            if Instant::now() >= deadline {
                break;
            }
        }
        self.tracer.set_enabled(false);
    }

    /// `register_us` (and, per layer, the deregistration cost and the
    /// register-burst tail) from churn rounds, one segment per `per_segment`
    /// rounds.
    fn churn_metrics(&mut self, rounds: &[ChurnRound], per_segment: usize) -> (&'static str, Stat) {
        let queries: usize = rounds.iter().map(|r| r.queries).sum();
        let per_query = |pick: fn(&ChurnRound) -> f64| {
            let segments = rounds
                .chunks(per_segment.max(1))
                .map(|segment| {
                    segment.iter().map(pick).sum::<f64>()
                        / segment.iter().map(|r| r.queries).sum::<usize>().max(1) as f64
                })
                .collect();
            Stat::of_segments(segments, queries)
        };
        let bursts: Vec<f64> = rounds.iter().map(|r| r.register_call_us).collect();
        self.set_stat(
            "sharded.register_burst_p99_us",
            segment_percentile(&[bursts], 0.99),
        );
        self.set_stat("ita.deregister_us", per_query(|r| r.deregister_us));
        ("register_us", per_query(|r| r.register_call_us + r.read_us))
    }

    /// Compares the final top-k of every [`CHECK_STRIDE`]-th live query with
    /// the reference over the harness's own window copy.
    fn check_results(&mut self, live: &Live, window: &WindowCopy, system: &impl Registry) {
        let mut checked = 0u64;
        let mut wrong = 0u64;
        for (id, query) in live.iter().step_by(CHECK_STRIDE) {
            checked += 1;
            if !adapter::results_agree(&system.results(*id), &window.reference_top_k(query)) {
                wrong += 1;
            }
        }
        self.attempted += checked;
        self.failed += wrong;
        self.notes.push(format!(
            "correctness: {checked} of {} live queries recomputed over {} valid documents, {wrong} differ",
            live.len(),
            window.len()
        ));
    }

    /// Fault counters must be zero on a workload that injects none.
    fn check_faults(&mut self, probe: &ShardProbe) {
        self.failed += probe.faults;
        self.set("sharded.shadow_postings", probe.shadow_postings as f64);
        self.set("sharded.migrations", probe.migrations as f64);
        self.set("sharded.faults", probe.faults as f64);
        self.set("sharded.recoveries", probe.recoveries as f64);
    }

    /// `event_us` of a closed loop, and the layer metrics behind it.
    fn stream_metrics(&mut self, chunks: &[Chunk]) -> (&'static str, Stat) {
        let events: usize = chunks.iter().map(|c| c.events).sum();
        let event_us = Stat::of_segments(chunks.iter().map(Chunk::event_us).collect(), events);
        self.set("event_mean_us", event_us.mean());
        self.touch_metrics(chunks.iter().fold(Touch::default(), |mut sum, c| {
            sum.add(c.touch);
            sum
        }));
        self.set(
            "gen.doc_us",
            median(&chunks.iter().map(|c| c.gen_us_per_doc).collect::<Vec<_>>()),
        );
        self.trace_overhead(chunks);
        self.shard_metrics(chunks);
        ("event_us", event_us)
    }

    /// Work counters per event, as the engines report them.
    fn touch_metrics(&mut self, touch: Touch) {
        let per_event = |count: u64| count as f64 / touch.events.max(1) as f64;
        self.set("ita.queries_touched_per_event", per_event(touch.touched));
        self.set("ita.results_changed_per_event", per_event(touch.changed));
        self.set("ita.expired_per_event", per_event(touch.expired));
        self.set(
            "ita.useful_touch_ratio",
            touch.changed as f64 / touch.touched.max(1) as f64,
        );
    }

    /// Traced against untraced chunks of the same run.
    fn trace_overhead(&mut self, chunks: &[Chunk]) {
        let of = |traced: bool| {
            lower_quartile(
                &chunks
                    .iter()
                    .filter(|c| c.traced == traced)
                    .map(Chunk::event_us)
                    .collect::<Vec<_>>(),
            )
        };
        let (with, without) = (of(true), of(false));
        if self.config.trace && without > 0.0 {
            self.set("trace.overhead_share", with / without - 1.0);
        }
    }

    /// Where the wall time of a sharded burst went: the busiest worker, and
    /// everything that is not a worker working (fan-out, merge, wake-ups,
    /// the checkpoint clone).
    fn shard_metrics(&mut self, chunks: &[Chunk]) {
        if chunks.iter().all(|c| c.busy_ns.is_empty()) {
            return;
        }
        let shards = chunks[0].busy_ns.len() as f64;
        let events: usize = chunks.iter().map(|c| c.events).sum();
        let per_chunk = |f: &dyn Fn(&Chunk) -> f64| -> Stat {
            Stat::of_segments(chunks.iter().map(f).collect(), events)
        };
        let busy_sum = |c: &Chunk| c.busy_ns.iter().sum::<u64>() as f64 / 1e3 / c.events as f64;
        let busy_max =
            |c: &Chunk| c.busy_ns.iter().copied().max().unwrap_or(0) as f64 / 1e3 / c.events as f64;
        self.set_stat("sharded.worker_busy_sum_us", per_chunk(&busy_sum));
        self.set_stat("sharded.worker_busy_max_us", per_chunk(&busy_max));
        self.set_stat(
            "sharded.unattributed_us",
            per_chunk(&|c| c.event_us() - busy_max(c)),
        );
        self.set_stat(
            "sharded.parallel_utilisation",
            per_chunk(&|c| busy_sum(c) / (c.event_us() * shards)),
        );
        self.set_stat(
            "sharded.busy_skew",
            per_chunk(&|c| busy_max(c) / (busy_sum(c) / shards)),
        );
        let calls: Vec<f64> = chunks
            .iter()
            .flat_map(|c| c.calls_us.iter().copied())
            .collect();
        self.stall_metrics(&calls, events);
        self.set_stat(
            "sharded.batch_p99_us",
            segment_percentile(&calls_of(chunks), 0.99),
        );
    }

    /// Calls over [`STALL_US`]: how many, and their excess over the median
    /// call amortised over every event.
    fn stall_metrics(&mut self, calls_us: &[f64], events: usize) {
        let typical = median(calls_us);
        let stalls: Vec<f64> = calls_us.iter().copied().filter(|&c| c > STALL_US).collect();
        self.set("sharded.stall_count", stalls.len() as f64);
        self.set(
            "sharded.stall_us_per_event",
            stalls.iter().map(|s| s - typical).sum::<f64>() / events.max(1) as f64,
        );
    }

    /// The replica pass of a traced run: the same stream replayed through
    /// stand-alone index structures, so `cts-index` has figures of its own.
    /// The three replicas are replayed one after the other, not interleaved,
    /// so they do not evict each other's cache lines.
    fn replica_pass(
        &mut self,
        window: &WindowCopy,
        fresh: Vec<Doc>,
        live: &Live,
        thresholds: &ThresholdReplica,
    ) {
        self.tracer.set_enabled(true);
        let mut affected = 0;
        let mut probe_us = Vec::with_capacity(fresh.len());
        for doc in &fresh {
            let (hits, elapsed) =
                self.tracer
                    .timed_span("index.threshold_probe", adapter::doc_id(doc), || {
                        thresholds.probe(doc)
                    });
            affected += hits;
            probe_us.push(elapsed);
        }
        self.set_replica_stat("index.threshold_probe_us", &probe_us);
        let queries: Vec<Query> = live.iter().map(|(_, q)| q.clone()).collect();
        for (mut index, postings, insert, remove) in [
            (
                IndexReplica::full(),
                "index.postings",
                ("index.insert", "index.insert_us"),
                ("index.remove", "index.remove_us"),
            ),
            (
                IndexReplica::filtered_to(&queries),
                "index.filtered_postings",
                ("index.filtered_insert", "index.filtered_insert_us"),
                ("index.filtered_remove", "index.filtered_remove_us"),
            ),
        ] {
            self.tracer.set_enabled(false);
            let mut oldest: VecDeque<u64> = VecDeque::new();
            for doc in window.docs() {
                index.insert(doc.clone());
                oldest.push_back(adapter::doc_id(doc));
            }
            self.set(postings, index.postings() as f64);
            self.tracer.set_enabled(true);
            let (mut insert_us, mut remove_us) = (Vec::new(), Vec::new());
            for doc in fresh.iter().cloned() {
                let request = adapter::doc_id(&doc);
                oldest.push_back(request);
                let tracer = &mut self.tracer;
                insert_us.push(tracer.timed_span(insert.0, request, || index.insert(doc)).1);
                if let Some(id) = oldest.pop_front() {
                    remove_us.push(tracer.timed_span(remove.0, request, || index.remove(id)).1);
                }
            }
            self.set_replica_stat(insert.1, &insert_us);
            self.set_replica_stat(remove.1, &remove_us);
        }
        self.tracer.set_enabled(false);
        self.notes.push(format!(
            "replica: {} threshold entries probed, {affected} (query, posting) pairs at or above a local threshold",
            thresholds.entries()
        ));
    }

    /// Per-event durations of a replica operation, summarised like
    /// `event_us` (mean per 256-event segment, lower quartile over segments)
    /// so that they can be subtracted from it.
    fn set_replica_stat(&mut self, metric: &'static str, durations_us: &[f64]) {
        let segments = durations_us
            .chunks(CHUNK)
            .map(|s| s.iter().sum::<f64>() / s.len() as f64)
            .collect();
        self.set_stat(metric, Stat::of_segments(segments, durations_us.len()));
    }

    /// Threshold trees for the replica pass of a workload that does not run
    /// the plain engine: a plain engine brought to the same window and
    /// queries, read once.
    fn thresholds_via_plain_engine(
        &self,
        window_kind: Window,
        window: &WindowCopy,
        live: &Live,
    ) -> ThresholdReplica {
        let mut plain = Single::new(window_kind);
        for doc in window.docs() {
            plain.process(vec![doc.clone()]);
        }
        let ids = Engine::register(&mut plain, live.iter().map(|(_, q)| q.clone()).collect());
        let registered: Vec<(QueryId, Query)> = ids
            .into_iter()
            .zip(live.iter().map(|(_, q)| q.clone()))
            .collect();
        ThresholdReplica::seeded_from(&plain, &registered)
    }

    // -- the workloads -----------------------------------------------------

    /// `paper_single` (burst 1, plain engine) and `paper_sharded` (bursts
    /// of 64, two shards): the paper's Fig. 3 operating point, closed loop.
    fn paper<E: Engine + MaybeSingle>(&mut self, burst: usize) -> Vec<(&'static str, Stat)> {
        let scale = self.scale();
        let window_kind = Window::Count(scale.window_docs);
        let mut generator = Generator::new(scale.quick, self.config.seed);
        let fill = generator.docs(scale.window_docs);
        let resident = generator.queries(scale.queries, scale.query_terms, 0);
        let mut window = WindowCopy::new(window_kind);
        window.extend(&fill);

        let (mut engine, mut live, times) =
            self.setup_engine(|| E::build(window_kind), &fill, &resident, burst);
        drop(fill);
        let setup = self.report_setup(times);
        let (chunks, rounds) =
            self.stream(&mut engine, &mut generator, &mut window, &mut live, burst);
        let mut metrics = vec![("setup_s", setup)];
        metrics.push(self.stream_metrics(&chunks));
        metrics.push(self.churn_metrics(&rounds, 1));

        self.check_results(&live, &window, &engine);
        if let Some(probe) = engine.probe() {
            self.check_faults(&probe);
        }
        if self.config.trace {
            let thresholds = match engine.as_single() {
                Some(single) => {
                    let calls = calls_of(&chunks);
                    self.set_stat("ita.event_p99_us", segment_percentile(&calls, 0.99));
                    self.set_stat("ita.event_p999_us", segment_percentile(&calls, 0.999));
                    ThresholdReplica::seeded_from(single, &live.iter().cloned().collect::<Vec<_>>())
                }
                None => self.thresholds_via_plain_engine(window_kind, &window, &live),
            };
            let fresh = generator.docs(scale.replica_events);
            self.replica_pass(&window, fresh, &live, &thresholds);
            let event_us = value_of(&metrics, "event_us");
            if engine.as_single().is_some() {
                let index =
                    self.layer_value("index.insert_us") + self.layer_value("index.remove_us");
                self.set("ita.self_us", event_us - index);
                self.notes.push(format!(
                    "identity: event_us {event_us:.1} = index.insert_us {:.1} + index.remove_us {:.1} + ita.self_us {:.1}; postings maintenance is {:.0}% of an event",
                    self.layer_value("index.insert_us"),
                    self.layer_value("index.remove_us"),
                    event_us - index,
                    100.0 * index / event_us
                ));
            } else {
                self.notes.push(format!(
                    "identity: event_us {event_us:.1} = sharded.worker_busy_max_us {:.1} + sharded.unattributed_us {:.1} (segment quartiles); stalls cost {:.1} us/event",
                    self.layer_value("sharded.worker_busy_max_us"),
                    self.layer_value("sharded.unattributed_us"),
                    self.layer_value("sharded.stall_us_per_event"),
                ));
            }
        }
        metrics
    }

    fn layer_value(&self, name: &str) -> f64 {
        self.layer
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, stat)| stat.value)
    }

    /// `register_churn`: every burst of events is followed by a burst of
    /// registrations, result reads and deregistrations.
    fn register_churn(&mut self) -> Vec<(&'static str, Stat)> {
        let scale = self.scale();
        let window_kind = Window::Count(scale.window_docs);
        let mut generator = Generator::new(scale.quick, self.config.seed);
        let fill = generator.docs(scale.window_docs);
        let resident = generator.queries(scale.queries, scale.query_terms, 0);
        let mut window = WindowCopy::new(window_kind);
        window.extend(&fill);
        let (mut engine, mut live, times) = self.setup_engine(
            || Sharded::new(window_kind, SHARDS),
            &fill,
            &resident,
            BURST,
        );
        drop(fill);
        let setup = self.report_setup(times);

        let rounds_per_chunk = CHUNK / BURST;
        let mut chunks: Vec<Chunk> = Vec::new();
        let mut rounds: Vec<ChurnRound> = Vec::new();
        let mut requests = 0u64;
        let mut deadline = None;
        // The first chunks are the untimed warm-up.
        for index in 0.. {
            let measured = index >= WARM_UP_CHUNKS;
            if measured {
                let deadline = *deadline.get_or_insert_with(|| {
                    Instant::now() + Duration::from_secs_f64(self.config.seconds)
                });
                if chunks.len() >= 2 && Instant::now() >= deadline {
                    break;
                }
            }
            let generating = Instant::now();
            let docs = generator.docs(CHUNK);
            let gen_us_per_doc = us(generating.elapsed()) / docs.len() as f64;
            window.extend(&docs);
            let new_queries = generator.queries(
                rounds_per_chunk * scale.churn_batch,
                scale.query_terms,
                1 + index as u64,
            );
            let traced = measured && self.trace_chunk(chunks.len());
            let mut chunk = Chunk {
                events: docs.len(),
                traced,
                gen_us_per_doc,
                ..Chunk::default()
            };
            let before = engine.busy_ns();
            let mut docs = docs.into_iter();
            for batch in new_queries.chunks(scale.churn_batch) {
                let burst: Vec<Doc> = docs.by_ref().take(BURST).collect();
                self.timed_burst(&mut engine, burst, requests, &mut chunk);
                let round = self.churn_round(&mut engine, &mut live, batch.to_vec(), requests);
                requests += 1;
                if measured {
                    rounds.push(round);
                }
            }
            chunk.busy_ns = busy_delta(&before, &engine.busy_ns());
            self.attempted += chunk.events as u64;
            if measured {
                chunks.push(chunk);
            }
        }
        self.tracer.set_enabled(false);

        let mut metrics = vec![("setup_s", setup)];
        metrics.push(self.stream_metrics(&chunks));
        metrics.push(self.churn_metrics(&rounds, rounds_per_chunk));
        self.check_results(&live, &window, &engine);
        if let Some(probe) = engine.probe() {
            self.check_faults(&probe);
        }
        if self.config.trace {
            let thresholds = self.thresholds_via_plain_engine(window_kind, &window, &live);
            let fresh = generator.docs(scale.replica_events);
            self.replica_pass(&window, fresh, &live, &thresholds);
            self.notes.push(format!(
                "registration: register_us {:.0} us/query on {SHARDS} shards against ita.bulk_register_us {:.0} us/query at set-up",
                value_of(&metrics, "register_us"),
                self.layer_value("ita.bulk_register_us"),
            ));
        }
        metrics
    }

    /// `service_open`: raw text through `cts-text` into the bounded service,
    /// first on a fixed schedule (latency), then flat out (capacity).
    fn service_open(&mut self) -> Vec<(&'static str, Stat)> {
        let scale = self.scale();
        let window_kind = scale.time_window();
        let mut generator = TextGenerator::new(scale.quick, self.config.seed);
        let generating = Instant::now();
        let fill = generator.events(scale.window_docs);
        let gen_us_per_doc = us(generating.elapsed()) / fill.len().max(1) as f64;
        self.set("gen.doc_us", gen_us_per_doc);
        let query_texts = generator.query_texts(scale.queries, scale.query_terms, 0);
        // Phase A gets three fifths of the measured interval, phase B the
        // rest, in alternating slices of whole segments.
        let segments = ((self.config.seconds * 0.6 * OPEN_RATE) as usize / OPEN_SEGMENT).max(1);
        let slices = OPEN_SLICES.min(segments);
        let per_slice = segments / slices * OPEN_SEGMENT;

        // Set-up: analyse and weigh the fill from text, fill the engine,
        // bulk-register the analysed queries, wrap it in the service.
        let mut times = SetupTimes::default();
        let mut built = None;
        let mut window = WindowCopy::new(window_kind);
        for _ in 0..self.setup_repeats() {
            drop(built.take());
            window = WindowCopy::new(window_kind);
            let start = Instant::now();
            let mut text = TextPipeline::new();
            let mut engine = Sharded::new(window_kind, SHARDS);
            for events in fill.chunks(BURST) {
                let burst: Vec<Doc> = events
                    .iter()
                    .map(|event| {
                        let terms = text.analyze(&event.text);
                        adapter::document(event, text.weigh(&terms))
                    })
                    .collect();
                // Mirroring into the window copy is harness work inside the
                // timed set-up: one clone per document, under 1% of it.
                window.extend(&burst);
                engine.process(burst);
            }
            let filled = start.elapsed();
            let queries: Vec<Query> = query_texts
                .iter()
                .filter_map(|query| text.query(query))
                .collect();
            let ids = Engine::register(&mut engine, queries.clone());
            let total = start.elapsed();
            times.push(filled, total, fill.len(), queries.len());
            let live: Live = ids.into_iter().zip(queries).collect();
            built = Some((Service::new(engine, QUEUE_CAPACITY), text, live));
        }
        let (service, text, mut live) = built.expect("at least one set-up");
        self.attempted += (fill.len() + live.len()) as u64;
        let mut tokens = fill.iter().map(|e| e.tokens).sum::<usize>();
        let mut docs_analysed = fill.len();
        drop(fill);
        let setup = self.report_setup(times);

        // The measured interval alternates slices of phase A (the fixed
        // schedule) and phase B (closed-loop capacity), so both phases sample
        // the whole interval and a noisy stretch cannot swallow either.
        let due_ns: Vec<u64> = (0..per_slice)
            .map(|i| (i as f64 * 1e9 / OPEN_RATE) as u64)
            .collect();
        let phase_a_events = per_slice * slices;
        let mut system = ServiceUnderLoad {
            service,
            text,
            events: Vec::new(),
            first_id: 0,
            now_micros: 0,
            window,
            tracer: std::mem::replace(&mut self.tracer, Tracer::new(false)),
            terms: 0,
            refused: 0,
            shed: 0,
            touch: Touch::default(),
            singletons: 0,
            batches: 0,
            pumps: 0,
        };
        let mut record = OpenLoopRecord::default();
        // Engine time, events and coalesced events of the phase-A slices.
        let mut phase_a = (0u64, 0u64, 0u64);
        let mut chunks: Vec<Chunk> = Vec::new();
        let mut warm = false;
        let capacity_slice = Duration::from_secs_f64(self.config.seconds * 0.4 / slices as f64);
        let mut rounds = Vec::new();
        for _ in 0..slices {
            // Phase A: events come due at the fixed rate. The slice's
            // schedule is generated just before it, so the stream reaches
            // the service in arrival order across both phases.
            system.events = generator.events(per_slice);
            tokens += system.events.iter().map(|e| e.tokens).sum::<usize>();
            docs_analysed += per_slice;
            system.first_id = system.events.first().map_or(0, |e| e.id);
            system.tracer.set_enabled(self.config.trace);
            let before = system.service.counters();
            record.append(open_loop::run(
                &due_ns,
                &mut WallClock::start(),
                &mut system,
            ));
            let after = system.service.counters();
            system.tracer.set_enabled(false);
            phase_a.0 += after.engine_ns - before.engine_ns;
            phase_a.1 += after.events - before.events;
            phase_a.2 += after.coalesced - before.coalesced;

            // Phase B: bursts offered and pumped dry, as fast as they go.
            let deadline = Instant::now() + capacity_slice;
            let mut bursts = 0;
            while !warm || bursts == 0 || Instant::now() < deadline {
                let events = generator.events(CAPACITY_BURST);
                tokens += events.iter().map(|e| e.tokens).sum::<usize>();
                docs_analysed += events.len();
                let traced = warm && self.config.trace && chunks.len().is_multiple_of(2);
                system.tracer.set_enabled(traced);
                system.first_id = events.first().map_or(0, |e| e.id);
                system.events = events;
                let before = system.service.busy_ns();
                let start = Instant::now();
                for index in 0..system.events.len() {
                    system.offer(index);
                }
                while system.depth() > 0 {
                    system.pump_with(usize::MAX);
                }
                let elapsed = start.elapsed();
                system.tracer.set_enabled(false);
                let chunk = Chunk {
                    calls_us: vec![us(elapsed)],
                    events: system.events.len(),
                    busy_ns: busy_delta(&before, &system.service.busy_ns()),
                    traced,
                    ..Chunk::default()
                };
                self.attempted += chunk.events as u64;
                if warm {
                    chunks.push(chunk);
                    bursts += 1;
                } else {
                    // The first burst is untimed: it moves the service from
                    // the singleton to the coalesced path.
                    warm = true;
                }
            }

            // Churn through the service's own registration path, with the
            // queue pumped dry. Its spans go to the run's tracer.
            std::mem::swap(&mut self.tracer, &mut system.tracer);
            let ServiceUnderLoad { service, text, .. } = &mut system;
            self.churn_slice(service, &mut live, &mut rounds, slices, |round| {
                generator
                    .query_texts(scale.service_churn_batch, scale.query_terms, 1 + round)
                    .iter()
                    .filter_map(|query| text.query(query))
                    .collect()
            });
            std::mem::swap(&mut self.tracer, &mut system.tracer);
        }
        self.attempted += phase_a_events as u64;
        let lost = record.latency_ns.iter().filter(|&&l| l == u64::MAX).count();
        self.failed += lost as u64;

        let to_us = |ns: &[u64]| -> Vec<f64> {
            ns.iter()
                .filter(|&&v| v != u64::MAX)
                .map(|&v| v as f64 / 1e3)
                .collect()
        };
        let by_segment =
            |ns: &[u64]| -> Vec<Vec<f64>> { ns.chunks(OPEN_SEGMENT).map(&to_us).collect() };
        let latency = by_segment(&record.latency_ns);
        let latency_p50 = segment_percentile(&latency, 0.5);
        self.set_stat("service.latency_p50_us", latency_p50.clone());
        let latency_p99 = segment_percentile(&latency, 0.99);
        self.set_stat("service.latency_p99_us", latency_p99.clone());
        let waits = by_segment(&record.queue_wait_ns);
        self.set_stat("service.queue_wait_p50_us", segment_percentile(&waits, 0.5));
        self.set_stat(
            "service.queue_wait_p99_us",
            segment_percentile(&waits, 0.99),
        );
        self.set_stat(
            "service.latency_p999_us",
            segment_percentile(&latency, 0.999),
        );
        self.set(
            "service.latency_max_us",
            to_us(&record.latency_ns).into_iter().fold(0.0, f64::max),
        );
        self.set_stat(
            "gen.lateness_p99_us",
            segment_percentile(&by_segment(&record.lateness_ns), 0.99),
        );
        let pumped: usize = record.pump_events.iter().sum();
        let pump_us = record.pump_ns.iter().sum::<u64>() as f64 / 1e3 / pumped.max(1) as f64;
        let engine_us = phase_a.0 as f64 / 1e3 / phase_a.1.max(1) as f64;
        self.set("service.pump_us", pump_us);
        self.set("service.engine_us", engine_us);
        self.set("service.self_us", pump_us - engine_us);
        self.set("service.singletons", system.singletons as f64);
        self.set("service.batches", system.batches as f64);
        self.set(
            "service.coalesced_share",
            phase_a.2 as f64 / phase_a_events.max(1) as f64,
        );

        let events_b: usize = chunks.iter().map(|c| c.events).sum();
        let event_us = Stat::of_segments(chunks.iter().map(Chunk::event_us).collect(), events_b);
        self.set("event_mean_us", event_us.mean());
        self.trace_overhead(&chunks);
        self.shard_metrics(&chunks);
        // On this workload a "call" of phase B is a 256-event offer-and-drain,
        // so the stall figures come from phase A's pumps instead: on the
        // singleton path a pump is one event, and its excess over the median
        // pump is the stall itself.
        let pumps_us: Vec<f64> = record.pump_ns.iter().map(|&p| p as f64 / 1e3).collect();
        self.stall_metrics(&pumps_us, phase_a_events);
        self.set("sharded.batch_p99_us", 0.0);

        self.touch_metrics(system.touch);

        self.tracer = std::mem::replace(&mut system.tracer, Tracer::new(false));
        let churn = self.churn_metrics(&rounds, 1);

        // Quiescence: nothing queued, every owned event accounted for.
        let counters = system.service.counters();
        let settled = counters.accepted + counters.coalesced + counters.shed;
        if system.service.depth() != 0 || counters.offered != settled {
            self.failed += 1;
            self.notes.push(format!(
                "accounting violated at quiescence: offered {} != accepted {} + coalesced {} + shed {}",
                counters.offered, counters.accepted, counters.coalesced, counters.shed
            ));
        }
        self.failed += system.refused + system.shed + counters.shed;
        self.set("service.shed", counters.shed as f64);
        self.set("service.retry_hints", counters.retry_hints as f64);
        self.set("service.queue_high_water", counters.queue_high_water as f64);
        self.set(
            "service.offer_us",
            self.tracer.total("service.offer").mean_us(),
        );
        self.set(
            "text.analyze_us",
            self.tracer.total("text.analyze").mean_us(),
        );
        self.set("text.weigh_us", self.tracer.total("text.weigh").mean_us());
        self.set(
            "text.tokens_per_doc",
            tokens as f64 / docs_analysed.max(1) as f64,
        );
        self.set(
            "text.terms_per_doc",
            system.terms as f64 / (docs_analysed - scale.window_docs).max(1) as f64,
        );
        self.set("text.dict_terms", system.text.dict_terms() as f64);

        self.check_results(&live, &system.window, &system.service);
        let probe = system.service.probe();
        self.check_faults(&probe);
        if self.config.trace {
            let thresholds = self.thresholds_via_plain_engine(window_kind, &system.window, &live);
            let fresh: Vec<Doc> = generator
                .events(scale.replica_events)
                .iter()
                .map(|event| {
                    let terms = system.text.analyze(&event.text);
                    adapter::document(event, system.text.weigh(&terms))
                })
                .collect();
            self.replica_pass(&system.window, fresh, &live, &thresholds);
            let offer_self = self.tracer.self_times().get("event.offer").copied();
            self.notes.push(format!(
                "offer side: event.offer spans text.analyze, text.weigh and service.offer; its self time, the harness's own work inside the latency path, is {:.2} us/event",
                offer_self.unwrap_or_default().mean_us()
            ));
            self.notes.push(format!(
                "open loop at {:.0} events/s: latency p50 {:.0} us, p99 {:.0} us over {} events; capacity {:.0} events/s; {} pumps over {:.0} ms cost {:.1} us/event",
                OPEN_RATE,
                latency_p50.value,
                latency_p99.value,
                phase_a_events,
                1e6 / event_us.value,
                self.layer_value("sharded.stall_count"),
                STALL_US / 1e3,
                self.layer_value("sharded.stall_us_per_event"),
            ));
        }
        vec![("setup_s", setup), ("event_us", event_us), churn]
    }
}

fn value_of(metrics: &[(&'static str, Stat)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, stat)| stat.value)
}

fn busy_delta(before: &[u64], after: &[u64]) -> Vec<u64> {
    after
        .iter()
        .zip(before)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect()
}

/// Lets the generic `paper` driver build either engine and reach the plain
/// one for its local thresholds.
trait MaybeSingle: Sized {
    fn build(window: Window) -> Self;
    fn as_single(&self) -> Option<&Single> {
        None
    }
}

impl MaybeSingle for Single {
    fn build(window: Window) -> Self {
        Single::new(window)
    }
    fn as_single(&self) -> Option<&Single> {
        Some(self)
    }
}

impl MaybeSingle for Sharded {
    fn build(window: Window) -> Self {
        Sharded::new(window, SHARDS)
    }
}

/// The service with everything the open loop drives in front of it: text
/// analysis, weighting, the offer, and the budgeted pump.
struct ServiceUnderLoad {
    service: Service,
    text: TextPipeline,
    events: Vec<RawEvent>,
    first_id: u64,
    now_micros: u64,
    window: WindowCopy,
    tracer: Tracer,
    terms: usize,
    refused: u64,
    shed: u64,
    touch: Touch,
    singletons: u64,
    batches: u64,
    pumps: u64,
}

impl ServiceUnderLoad {
    fn pump_with(&mut self, budget: usize) -> Vec<usize> {
        // A pump serves many events, so its span carries the pump's ordinal.
        self.pumps += 1;
        let open = self.tracer.begin("service.pump", self.pumps);
        let pumped = self.service.pump(self.now_micros, budget);
        self.tracer.end(open);
        self.touch.add(pumped.touch);
        self.singletons += pumped.singletons;
        self.batches += pumped.batches;
        self.shed += pumped.shed as u64;
        pumped
            .processed
            .iter()
            .map(|id| (id - self.first_id) as usize)
            .collect()
    }
}

impl OpenSystem for ServiceUnderLoad {
    fn offer(&mut self, index: usize) {
        let event = &self.events[index];
        let request = event.id;
        // The root span of the event's offer side: its self time is the
        // harness's own work inside the latency path (the window copy).
        let offer = self.tracer.begin("event.offer", request);
        let text = &mut self.text;
        let terms = self
            .tracer
            .span("text.analyze", request, || text.analyze(&event.text));
        self.terms += terms.distinct();
        let weights = self
            .tracer
            .span("text.weigh", request, || text.weigh(&terms));
        let doc = adapter::document(event, weights);
        self.now_micros = self.now_micros.max(event.arrival_micros);
        self.window.push(doc.clone());
        let service = &mut self.service;
        let accepted = self
            .tracer
            .span("service.offer", request, || service.offer(doc));
        self.tracer.end(offer);
        self.refused += u64::from(!accepted);
    }

    fn depth(&self) -> usize {
        self.service.depth()
    }

    fn pump(&mut self) -> Vec<usize> {
        self.pump_with(PUMP_BUDGET)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(workload: &str, seed: u64, trace: bool) -> Outcome {
        run(&RunConfig {
            workload: workload.to_string(),
            seed,
            seconds: 0.05,
            trace,
            scale: Scale::quick(),
        })
        .expect("known workload")
    }

    #[test]
    fn quick_smoke_runs_all_four_drivers_end_to_end() {
        for workload in WORKLOADS {
            let outcome = quick(workload, 0xC75B, false);
            assert_eq!(outcome.failed, 0, "{workload}: {:?}", outcome.notes);
            assert!(outcome.attempted > 500, "{workload}");
            assert!(outcome.per_layer.is_empty());
            let names: Vec<&str> = outcome.end_to_end.iter().map(|(n, _)| *n).collect();
            let expected: Vec<&str> = END_TO_END.iter().map(|(n, ..)| *n).collect();
            assert_eq!(names, expected, "{workload}");
            for (name, stat) in &outcome.end_to_end {
                assert!(
                    stat.value.is_finite() && stat.value > 0.0,
                    "{workload}.{name} = {}",
                    stat.value
                );
            }
        }
    }

    #[test]
    fn traced_runs_fill_every_layer_metric_and_keep_the_identities() {
        for workload in WORKLOADS {
            let outcome = quick(workload, 7, true);
            assert_eq!(outcome.failed, 0, "{workload}: {:?}", outcome.notes);
            let names: Vec<&str> = outcome.per_layer.iter().map(|(n, _)| *n).collect();
            let expected: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, expected);
            assert!(outcome.per_layer.iter().all(|(_, s)| s.value.is_finite()));
            let value = |name: &str| outcome.metric(name).unwrap().value;
            assert!(value("trace.spans") > 0.0, "{workload}");
            assert!(value("index.postings") > value("index.filtered_postings"));
            assert!(value("index.insert_us") > 0.0 && value("index.threshold_probe_us") > 0.0);
            assert!(!outcome.tracer.spans().is_empty());
            match workload {
                "paper_single" => {
                    let sum =
                        value("index.insert_us") + value("index.remove_us") + value("ita.self_us");
                    assert!((sum - value("event_us")).abs() < 1e-9);
                    assert_eq!(value("sharded.worker_busy_max_us"), 0.0);
                    assert_eq!(value("service.pump_us"), 0.0);
                }
                "service_open" => {
                    assert!(value("text.analyze_us") > 0.0 && value("service.pump_us") > 0.0);
                    assert!(value("text.dict_terms") > 100.0);
                    assert!(value("service.singletons") > 0.0);
                    // Every offer-side span hangs under its event's root.
                    let spans = outcome.tracer.spans();
                    assert!(spans
                        .iter()
                        .filter(|s| s.name.starts_with("text.") || s.name == "service.offer")
                        .all(|s| s.parent.is_some_and(|p| {
                            let root = spans[p as usize];
                            root.name == "event.offer" && root.request == s.request
                        })));
                }
                _ => {
                    assert!(value("sharded.worker_busy_max_us") > 0.0);
                    assert!(value("sharded.shadow_postings") > 0.0);
                    assert_eq!(value("text.analyze_us"), 0.0);
                }
            }
        }
    }

    #[test]
    fn the_same_seed_generates_identical_inputs_and_another_seed_still_checks_out() {
        let inputs = |seed: u64| {
            let mut generator = Generator::new(true, seed);
            let docs = generator.docs(40);
            let queries = generator.queries(10, 4, 3);
            let mut text = TextGenerator::new(true, seed);
            let events: Vec<(u64, u64, String)> = text
                .events(20)
                .into_iter()
                .map(|e| (e.id, e.arrival_micros, e.text))
                .collect();
            (docs, queries, events, text.query_texts(5, 4, 0))
        };
        assert_eq!(inputs(11), inputs(11));
        let (docs_a, queries_a, events_a, _) = inputs(11);
        let (docs_b, queries_b, events_b, _) = inputs(12);
        assert_ne!(docs_a, docs_b);
        assert_ne!(queries_a, queries_b);
        assert_ne!(events_a, events_b);
        for workload in WORKLOADS {
            let outcome = quick(workload, 12, false);
            assert_eq!(outcome.failed, 0, "{workload}: {:?}", outcome.notes);
        }
    }

    #[test]
    fn unknown_workloads_are_refused() {
        let config = RunConfig {
            workload: "nope".to_string(),
            seed: 1,
            seconds: 0.01,
            trace: false,
            scale: Scale::quick(),
        };
        assert!(run(&config).is_err());
    }
}
