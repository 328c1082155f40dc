//! The only module that names the measured crates.
//!
//! Everything the benchmark needs from `cts-corpus` (load generation),
//! `cts-text`, `cts-index` and `cts-core::{ita, sharded, service}` goes
//! through the types below, so a later change to one of their public
//! signatures is absorbed in this file and the drivers, metrics and reports
//! stay as they are. The pinned surface is listed in the README.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use cts_core::{
    Admission, Engine as _, ItaConfig, ItaEngine, ServiceConfig, ShardedItaEngine, StreamService,
};
use cts_corpus::{
    CorpusConfig, DocumentStream, PoissonArrivals, QueryWorkload, StreamConfig, SyntheticCorpus,
    Vocabulary, WorkloadConfig,
};
use cts_index::{DocId, InvertedIndex, SlidingWindow, ThresholdTree, Timestamp};
use cts_text::weighting::Scoring;
use cts_text::{Analyzer, Dictionary, TermId, TermVector, WeightedVector};

pub use cts_core::{ContinuousQuery as Query, RankedDocument as Ranked};
pub use cts_index::{Document as Doc, QueryId};

/// Results every query maintains (the paper's `k`).
pub const TOP_K: usize = 10;
/// The stream's logical arrival rate (documents per second of stream time).
pub const STREAM_RATE: f64 = 200.0;
const SCORING: Scoring = Scoring::Cosine;

// ---------------------------------------------------------------------------
// Load generation (cts-corpus; not under test)
// ---------------------------------------------------------------------------

fn corpus_config(quick: bool, seed: u64) -> CorpusConfig {
    let base = if quick {
        CorpusConfig::small()
    } else {
        CorpusConfig::default()
    };
    CorpusConfig {
        seed: seed ^ 0xC0_4B05,
        ..base
    }
}

fn stream_config(seed: u64) -> StreamConfig {
    StreamConfig {
        arrival_rate_per_sec: STREAM_RATE,
        seed: seed ^ 0xA4_41FE,
    }
}

fn query_specs(
    quick: bool,
    seed: u64,
    count: usize,
    terms: usize,
    salt: u64,
) -> Vec<cts_corpus::QuerySpec> {
    QueryWorkload::new(
        WorkloadConfig {
            num_queries: count,
            query_length: terms,
            k: TOP_K,
            popularity_biased: false,
            seed: seed ^ 0x9E_37 ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        },
        corpus_config(quick, seed).vocabulary_size,
    )
    .generate()
}

/// Seeded generator of already-weighted documents and term-id queries.
pub struct Generator {
    quick: bool,
    seed: u64,
    stream: DocumentStream,
}

impl Generator {
    pub fn new(quick: bool, seed: u64) -> Self {
        Generator {
            quick,
            seed,
            stream: DocumentStream::new(corpus_config(quick, seed), stream_config(seed)),
        }
    }

    pub fn docs(&mut self, count: usize) -> Vec<Doc> {
        self.stream.take_documents(count)
    }

    /// `count` queries of `terms` uniformly drawn terms; `salt` separates
    /// the resident workload from later churn batches.
    pub fn queries(&self, count: usize, terms: usize, salt: u64) -> Vec<Query> {
        let dict = Dictionary::new();
        query_specs(self.quick, self.seed, count, terms, salt)
            .iter()
            .map(|spec| Query::from_term_frequencies(&spec.terms, spec.k, SCORING, &dict))
            .collect()
    }
}

/// One stream event as raw text, before any of `cts-text` has run.
pub struct RawEvent {
    pub id: u64,
    pub arrival_micros: u64,
    pub text: String,
    pub tokens: usize,
}

/// Seeded generator of raw-text events and query strings: the same corpus
/// statistics as [`Generator`], rendered to words.
pub struct TextGenerator {
    quick: bool,
    seed: u64,
    corpus: SyntheticCorpus,
    arrivals: PoissonArrivals,
    vocabulary: Vocabulary,
    next_id: u64,
}

impl TextGenerator {
    pub fn new(quick: bool, seed: u64) -> Self {
        let config = corpus_config(quick, seed);
        let stream = stream_config(seed);
        TextGenerator {
            quick,
            seed,
            corpus: SyntheticCorpus::new(config),
            arrivals: PoissonArrivals::new(stream.arrival_rate_per_sec, stream.seed),
            vocabulary: Vocabulary::synthetic(config.vocabulary_size),
            next_id: 0,
        }
    }

    pub fn events(&mut self, count: usize) -> Vec<RawEvent> {
        (0..count)
            .map(|_| {
                let raw = self.corpus.next_term_vector();
                let text = self.vocabulary.render(
                    raw.iter()
                        .flat_map(|(term, n)| std::iter::repeat_n(term, n as usize)),
                );
                let id = self.next_id;
                self.next_id += 1;
                RawEvent {
                    id,
                    arrival_micros: self.arrivals.next_arrival().as_micros(),
                    text,
                    tokens: raw.total_occurrences() as usize,
                }
            })
            .collect()
    }

    pub fn query_texts(&self, count: usize, terms: usize, salt: u64) -> Vec<String> {
        query_specs(self.quick, self.seed, count, terms, salt)
            .iter()
            .map(|spec| {
                self.vocabulary.render(
                    spec.terms
                        .iter()
                        .flat_map(|(term, n)| std::iter::repeat_n(term, n as usize)),
                )
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// cts-text
// ---------------------------------------------------------------------------

/// The text layer as the service path uses it: one analyzer and one
/// dictionary shared by documents and queries.
pub struct TextPipeline {
    analyzer: Analyzer,
    dictionary: Dictionary,
}

/// An analysed document before weighting.
pub struct Terms(TermVector);

impl Terms {
    pub fn distinct(&self) -> usize {
        self.0.len()
    }
}

pub struct Weights(WeightedVector);

impl TextPipeline {
    pub fn new() -> Self {
        TextPipeline {
            analyzer: Analyzer::english(),
            dictionary: Dictionary::new(),
        }
    }

    pub fn analyze(&mut self, text: &str) -> Terms {
        Terms(self.analyzer.analyze_document(text, &mut self.dictionary))
    }

    pub fn weigh(&self, terms: &Terms) -> Weights {
        Weights(SCORING.document_weights(&terms.0, &self.dictionary))
    }

    /// A query from its text; `None` when every word was a stop word.
    pub fn query(&mut self, text: &str) -> Option<Query> {
        let terms = self.analyzer.analyze_query(text, &mut self.dictionary);
        let weights = SCORING.query_weights(&terms, &self.dictionary);
        (!weights.is_empty()).then(|| Query::from_weighted_vector(weights, TOP_K))
    }

    pub fn dict_terms(&self) -> usize {
        self.dictionary.len()
    }
}

pub fn document(event: &RawEvent, weights: Weights) -> Doc {
    Doc::new(
        DocId(event.id),
        Timestamp::from_micros(event.arrival_micros),
        weights.0,
    )
}

pub fn doc_id(doc: &Doc) -> u64 {
    doc.id.0
}

// ---------------------------------------------------------------------------
// Windows and the brute-force reference
// ---------------------------------------------------------------------------

/// The sliding-window policy of a workload.
#[derive(Debug, Clone, Copy)]
pub enum Window {
    Count(usize),
    Time(Duration),
}

impl Window {
    fn sliding(self) -> SlidingWindow {
        match self {
            Window::Count(size) => SlidingWindow::count_based(size),
            Window::Time(duration) => SlidingWindow::time_based(duration),
        }
    }
}

/// The harness's own copy of the valid documents, maintained from the
/// generated stream alone (never read back from the system under test), for
/// the reference top-k and the index replica.
pub struct WindowCopy {
    window: Window,
    docs: VecDeque<Doc>,
}

impl WindowCopy {
    pub fn new(window: Window) -> Self {
        WindowCopy {
            window,
            docs: VecDeque::new(),
        }
    }

    pub fn push(&mut self, doc: Doc) {
        self.docs.push_back(doc);
        match self.window {
            Window::Count(size) => {
                while self.docs.len() > size {
                    self.docs.pop_front();
                }
            }
            Window::Time(duration) => {
                let newest = self.docs.back().map_or(0, |d| d.arrival.as_micros());
                let cutoff = newest.saturating_sub(duration.as_micros() as u64);
                while self
                    .docs
                    .front()
                    .is_some_and(|d| d.arrival.as_micros() < cutoff)
                {
                    self.docs.pop_front();
                }
            }
        }
    }

    pub fn extend(&mut self, docs: &[Doc]) {
        for doc in docs {
            self.push(doc.clone());
        }
    }

    pub fn len(&self) -> usize {
        self.docs.len()
    }

    pub fn docs(&self) -> impl Iterator<Item = &Doc> {
        self.docs.iter()
    }

    /// The exact top-k of `query` over the copy: every valid document
    /// scored from scratch, ranked as `RankedDocument`s are (score
    /// descending, ties by ascending document id).
    pub fn reference_top_k(&self, query: &Query) -> Vec<Ranked> {
        let mut scored: Vec<Ranked> = self
            .docs
            .iter()
            .filter_map(|doc| {
                let score = query.score(&doc.composition);
                (score > 0.0).then_some(Ranked { doc: doc.id, score })
            })
            .collect();
        scored.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc)));
        scored.truncate(query.k());
        scored
    }
}

/// Same documents in the same order, scores equal to round-off.
pub fn results_agree(a: &[Ranked], b: &[Ranked]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.doc == y.doc && (x.score - y.score).abs() <= 1e-9)
}

// ---------------------------------------------------------------------------
// cts-core::{ita, sharded}
// ---------------------------------------------------------------------------

/// Work counters of the events one call processed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Touch {
    pub events: u64,
    pub touched: u64,
    pub changed: u64,
    pub expired: u64,
}

impl Touch {
    pub fn add(&mut self, other: Touch) {
        self.events += other.events;
        self.touched += other.touched;
        self.changed += other.changed;
        self.expired += other.expired;
    }
}

fn touch_of(outcomes: &[cts_core::EventOutcome]) -> Touch {
    let mut touch = Touch::default();
    for outcome in outcomes {
        touch.events += 1;
        touch.touched +=
            (outcome.queries_touched_by_arrival + outcome.queries_touched_by_expiration) as u64;
        touch.changed += outcome.results_changed as u64;
        touch.expired += outcome.expired as u64;
    }
    touch
}

/// End-of-run figures of a sharded engine.
#[derive(Debug, Clone, Default)]
pub struct ShardProbe {
    pub shadow_postings: usize,
    pub migrations: u64,
    pub faults: u64,
    pub recoveries: u64,
}

/// What the closed-loop drivers need from an engine.
pub trait Engine {
    /// Processes one burst of events in order: one `process_document` call
    /// for a single event, one `process_batch` call otherwise.
    fn process(&mut self, burst: Vec<Doc>) -> Touch;
    fn register(&mut self, queries: Vec<Query>) -> Vec<QueryId>;
    fn deregister(&mut self, query: QueryId) -> bool;
    fn results(&self, query: QueryId) -> Vec<Ranked>;
    /// Nanoseconds each worker shard has spent processing events so far
    /// (empty for the plain engine). Costs one round-trip per shard, so never
    /// call it inside a timed interval.
    fn busy_ns(&self) -> Vec<u64>;
    /// `None` for the plain engine, which has no shards.
    fn probe(&self) -> Option<ShardProbe>;
}

fn process_on(engine: &mut impl cts_core::Engine, mut burst: Vec<Doc>) -> Touch {
    if burst.len() == 1 {
        let doc = burst.pop().expect("length checked");
        touch_of(&[engine.process_document(doc)])
    } else {
        touch_of(&engine.process_batch(burst))
    }
}

/// The single-threaded baseline: `ItaEngine::new` over the full index.
pub struct Single(ItaEngine);

impl Single {
    pub fn new(window: Window) -> Self {
        Single(ItaEngine::new(window.sliding(), ItaConfig::default()))
    }
}

impl Engine for Single {
    fn process(&mut self, burst: Vec<Doc>) -> Touch {
        process_on(&mut self.0, burst)
    }

    fn register(&mut self, queries: Vec<Query>) -> Vec<QueryId> {
        self.0.register_batch(queries)
    }

    fn deregister(&mut self, query: QueryId) -> bool {
        self.0.deregister(query)
    }

    fn results(&self, query: QueryId) -> Vec<Ranked> {
        self.0.current_results(query)
    }

    fn busy_ns(&self) -> Vec<u64> {
        Vec::new()
    }

    fn probe(&self) -> Option<ShardProbe> {
        None
    }
}

/// The production engine: `ShardedItaEngine` with default fault handling
/// (checkpoint every 256 mutations) and rebalancing.
pub struct Sharded(ShardedItaEngine);

impl Sharded {
    pub fn new(window: Window, shards: usize) -> Self {
        Sharded(ShardedItaEngine::new(
            window.sliding(),
            ItaConfig::default(),
            shards,
        ))
    }
}

fn busy_ns_of(engine: &ShardedItaEngine) -> Vec<u64> {
    engine
        .shard_stats()
        .iter()
        .map(|stats| stats.total_time.as_nanos() as u64)
        .collect()
}

fn probe_sharded(engine: &ShardedItaEngine) -> ShardProbe {
    let faults = engine.fault_stats().unwrap_or_default();
    ShardProbe {
        shadow_postings: engine
            .shard_index_stats()
            .iter()
            .map(|stats| stats.postings)
            .sum(),
        migrations: engine.migrations(),
        faults: faults.faults,
        recoveries: faults.recoveries,
    }
}

impl Engine for Sharded {
    fn process(&mut self, burst: Vec<Doc>) -> Touch {
        process_on(&mut self.0, burst)
    }

    fn register(&mut self, queries: Vec<Query>) -> Vec<QueryId> {
        self.0.register_batch(queries)
    }

    fn deregister(&mut self, query: QueryId) -> bool {
        self.0.deregister(query)
    }

    fn results(&self, query: QueryId) -> Vec<Ranked> {
        self.0.current_results(query)
    }

    fn busy_ns(&self) -> Vec<u64> {
        busy_ns_of(&self.0)
    }

    fn probe(&self) -> Option<ShardProbe> {
        Some(probe_sharded(&self.0))
    }
}

// ---------------------------------------------------------------------------
// cts-core::service
// ---------------------------------------------------------------------------

/// Cumulative service counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceCounters {
    /// Nanoseconds the service's monitor has spent inside the engine.
    pub engine_ns: u64,
    pub events: u64,
    pub offered: u64,
    pub accepted: u64,
    pub coalesced: u64,
    pub shed: u64,
    pub retry_hints: u64,
    pub queue_high_water: u64,
}

/// What one pump did.
#[derive(Debug, Default)]
pub struct Pumped {
    /// Document ids processed, in order; their results are ready when the
    /// pump returns.
    pub processed: Vec<u64>,
    pub touch: Touch,
    pub singletons: u64,
    pub batches: u64,
    pub shed: usize,
}

/// The streaming front-end over the sharded engine, with no ingest deadline.
pub struct Service(StreamService<ShardedItaEngine>);

impl Service {
    pub fn new(engine: Sharded, queue_capacity: usize) -> Self {
        Service(StreamService::new(
            engine.0,
            ServiceConfig {
                queue_capacity,
                ..ServiceConfig::default()
            },
        ))
    }

    /// Offers one event; false when the service shed or refused it.
    pub fn offer(&mut self, doc: Doc) -> bool {
        matches!(self.0.offer_document(doc), Admission::Accepted)
    }

    pub fn depth(&self) -> usize {
        self.0.depth()
    }

    /// Drains up to `budget` events at stream time `now_micros`.
    pub fn pump(&mut self, now_micros: u64, budget: usize) -> Pumped {
        let report = self
            .0
            .pump_budget(Timestamp::from_micros(now_micros), budget);
        Pumped {
            processed: report.processed.iter().map(|id| id.0).collect(),
            touch: touch_of(&report.outcomes),
            singletons: report.singletons,
            batches: report.batches,
            shed: report.shed.len(),
        }
    }

    pub fn counters(&self) -> ServiceCounters {
        let stats = self.0.stats();
        let overload = self.0.overload_stats();
        ServiceCounters {
            engine_ns: stats.total_time.as_nanos() as u64,
            events: stats.events,
            offered: overload.offered,
            accepted: overload.accepted,
            coalesced: overload.coalesced,
            shed: overload.shed(),
            retry_hints: overload.retry_hints,
            queue_high_water: overload.queue_high_water,
        }
    }

    /// Registers through the service's admission path. With an empty ingest
    /// queue (the only state the benchmark registers in) every query
    /// registers immediately; a coalesced or refused one yields no id and
    /// counts as a failure upstream.
    pub fn register(&mut self, queries: Vec<Query>) -> Vec<QueryId> {
        queries
            .into_iter()
            .filter_map(|query| self.0.offer_register(query).1)
            .collect()
    }

    pub fn deregister(&mut self, query: QueryId) -> bool {
        self.0.deregister(query)
    }

    pub fn results(&self, query: QueryId) -> Vec<Ranked> {
        self.0.results(query)
    }

    pub fn busy_ns(&self) -> Vec<u64> {
        busy_ns_of(self.0.engine())
    }

    pub fn probe(&self) -> ShardProbe {
        probe_sharded(self.0.engine())
    }
}

// ---------------------------------------------------------------------------
// cts-index (replica pass)
// ---------------------------------------------------------------------------

/// A stand-alone `InvertedIndex` fed the same stream as the engine, either
/// in full or filtered to a set of query terms (what a shard's shadow index
/// maintains).
pub struct IndexReplica {
    index: InvertedIndex,
    filter: Option<HashSet<TermId>>,
}

impl IndexReplica {
    pub fn full() -> Self {
        IndexReplica {
            index: InvertedIndex::new(),
            filter: None,
        }
    }

    pub fn filtered_to(queries: &[Query]) -> Self {
        IndexReplica {
            index: InvertedIndex::new(),
            filter: Some(
                queries
                    .iter()
                    .flat_map(|query| query.terms().map(|(term, _)| term))
                    .collect(),
            ),
        }
    }

    pub fn insert(&mut self, doc: Doc) {
        match &self.filter {
            None => self.index.insert_document(doc),
            Some(allowed) => self
                .index
                .insert_shared_filtered(Arc::new(doc), |term| allowed.contains(&term)),
        }
    }

    pub fn remove(&mut self, id: u64) -> bool {
        self.index.remove_document(DocId(id)).is_some()
    }

    pub fn postings(&self) -> usize {
        self.index.stats().postings
    }
}

/// Replica threshold trees seeded with the plain engine's live local
/// thresholds: probing them with a document's postings is the arrival-side
/// "which queries does this affect" step on its own.
pub struct ThresholdReplica {
    trees: HashMap<TermId, ThresholdTree>,
}

impl ThresholdReplica {
    pub fn seeded_from(engine: &Single, queries: &[(QueryId, Query)]) -> Self {
        let mut trees: HashMap<TermId, ThresholdTree> = HashMap::new();
        for (id, query) in queries {
            for (term, _) in query.terms() {
                if let Some(threshold) = engine.0.local_threshold(*id, term) {
                    trees.entry(term).or_default().insert(*id, threshold);
                }
            }
        }
        ThresholdReplica { trees }
    }

    /// Probes every posting of `doc`; returns how many (query, posting)
    /// pairs lie at or above a local threshold.
    pub fn probe(&self, doc: &Doc) -> usize {
        doc.composition
            .as_slice()
            .iter()
            .filter_map(|entry| {
                self.trees
                    .get(&entry.term)
                    .map(|tree| tree.affected_by(entry.weight).count())
            })
            .sum()
    }

    pub fn entries(&self) -> usize {
        self.trees.values().map(ThresholdTree::len).sum()
    }
}
