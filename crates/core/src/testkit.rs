//! Reusable randomized differential-test machinery.
//!
//! Every differential suite in this repository follows the same shape: a
//! seeded source of adversarial randomness, an interleaved script of
//! operations (query registration/deregistration, single stream events,
//! whole bursts) applied in lockstep to several engines, equality asserted
//! after every step, and — on failure — output that lets a human reproduce
//! and understand the divergence. Before this module, that machinery was
//! re-implemented in `tests/sharded_equivalence.rs`,
//! `tests/paper_scale_soak.rs` and `cts-index`'s
//! `tests/differential_impact_list.rs`; now they all share it:
//!
//! * [`ScriptRng`] — a tiny deterministic SplitMix64 generator, so scripts
//!   are reproducible from a single `u64` seed with no external dependency
//!   (the suites in other crates reuse it too).
//! * [`Op`] / [`OpScript`] / [`generate_script`] — a concrete, printable op
//!   script: register/deregister/feed/feed-batch with tie-heavy documents
//!   and arbitrary arrival gaps (a gap of zero produces equal timestamps,
//!   the time-window edge case). Scripts either come out of the seeded
//!   generator or are assembled by hand/by a corpus stream
//!   ([`OpScript::push`]) — the paper-scale soak builds its script from the
//!   synthetic WSJ stream and runs it through the same runner.
//! * [`run_script`] — the lockstep runner over `N` boxed [`Engine`]s:
//!   engine 0 is the reference; every op must produce identical query-id
//!   assignment, identical [`crate::EventOutcome`]s (optional, for engines
//!   with identical accounting, e.g. ITA vs sharded ITA, and only up to a
//!   candidate's first fault) and identical top-k on every (sampled) live
//!   query. Failures are returned as data, not panics, so the minimizer can
//!   re-run candidate scripts.
//! * [`assert_script_equivalence`] — the test-facing entry point: generate,
//!   run, and on divergence shrink the script with [`minimize_script`]
//!   (greedy delta debugging over fresh engines) and panic with the **seed**
//!   and the **minimized script** — small enough to read, sufficient to
//!   replay.

#![deny(clippy::disallowed_types)]

use std::fmt;

use cts_index::{DocId, Document, QueryId, Timestamp};
use cts_text::{TermId, WeightedVector};

use crate::engine::{Engine, IngestEvent};
use crate::query::ContinuousQuery;
use crate::service::{Admission, ServiceConfig, StreamService};
use crate::stats::OverloadStats;
use crate::validate::{results_match, DEFAULT_TOLERANCE};

/// A tiny deterministic pseudo-random generator (SplitMix64) for building
/// reproducible op scripts from a single `u64` seed.
///
/// Deliberately not `rand`: the testkit ships in the library crate (so
/// other crates' test suites can reuse it) and a 10-line generator keeps it
/// dependency-free while remaining statistically fine for fuzzing-style
/// interleavings.
#[derive(Debug, Clone)]
pub struct ScriptRng {
    state: u64,
}

impl ScriptRng {
    /// Creates a generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, bound)`. `bound` must be positive.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "empty range");
        // Multiply-shift keeps the draw uniform enough for test scripts
        // without a rejection loop.
        ((u128::from(self.next_u64()) * bound as u128) >> 64) as usize
    }

    /// A uniform draw from `[lo, hi)`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo)
    }

    /// A Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64) / ((1u64 << 53) as f64) < p
    }

    /// A uniform pick from `values`.
    pub fn pick<'a, T>(&mut self, values: &'a [T]) -> &'a T {
        &values[self.below(values.len())]
    }
}

/// One operation of a differential script.
#[derive(Debug, Clone)]
pub enum Op {
    /// Register this query on every engine (ids must come out identical).
    Register(ContinuousQuery),
    /// Register a whole burst through [`Engine::register_batch`] (the id
    /// *vectors* must come out identical). Pairing a bulk-registering engine
    /// against a [`LoopRegister`]-wrapped twin turns this op into the
    /// bulk-vs-loop registration differential.
    RegisterBurst(Vec<ContinuousQuery>),
    /// Deregister the live query at `victim % live.len()` (skipped while no
    /// query is live). Indexing into the live list instead of naming a
    /// `QueryId` keeps scripts valid under minimization: removing an earlier
    /// `Register` re-targets, never invalidates, later deregistrations.
    Deregister {
        /// Pseudo-index into the live-query list.
        victim: usize,
    },
    /// Feed one stream event through [`Engine::process_document`].
    Feed(Document),
    /// Feed a whole burst through [`Engine::process_batch`].
    FeedBatch(Vec<Document>),
    /// Arm one injected fault on `shard % num_shards` via
    /// [`Engine::inject_fault`] on **every** engine. Engines without fault
    /// injection (the plain reference) treat it as a no-op, which is what
    /// lets a chaos script run in lockstep: the faulting engine must come
    /// back with exact results while the reference never faulted at all. No
    /// cross-engine comparison is made for this op.
    InjectFault {
        /// Pseudo-index of the shard to fault (taken modulo the engine's
        /// shard count).
        shard: usize,
    },
}

fn write_composition(f: &mut fmt::Formatter<'_>, composition: &WeightedVector) -> fmt::Result {
    write!(f, "{{")?;
    for (i, entry) in composition.as_slice().iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{}:{}", entry.term, entry.weight)?;
    }
    write!(f, "}}")
}

fn write_doc(f: &mut fmt::Formatter<'_>, doc: &Document) -> fmt::Result {
    write!(f, "{} @{}us ", doc.id, doc.arrival.as_micros())?;
    write_composition(f, &doc.composition)
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Register(query) => {
                write!(f, "register k={} ", query.k())?;
                write_composition(f, query.weights())
            }
            Op::RegisterBurst(queries) => {
                write!(f, "register_burst x{}:", queries.len())?;
                for query in queries {
                    write!(f, "\n    k={} ", query.k())?;
                    write_composition(f, query.weights())?;
                }
                Ok(())
            }
            Op::Deregister { victim } => write!(f, "deregister victim%{victim}"),
            Op::Feed(doc) => {
                write!(f, "feed ")?;
                write_doc(f, doc)
            }
            Op::FeedBatch(docs) => {
                write!(f, "feed_batch x{}:", docs.len())?;
                for doc in docs {
                    write!(f, "\n    ")?;
                    write_doc(f, doc)?;
                }
                Ok(())
            }
            Op::InjectFault { shard } => write!(f, "inject_fault shard%{shard}"),
        }
    }
}

/// A reproducible differential script: the seed it came from (0 for
/// hand-built scripts) and the concrete operations. Ops carry fully
/// materialised documents and queries, so replaying a (possibly minimized)
/// script never depends on regenerating the same randomness.
#[derive(Debug, Clone, Default)]
pub struct OpScript {
    /// The generator seed, echoed in failure output.
    pub seed: u64,
    /// The operations, applied in order.
    pub ops: Vec<Op>,
}

impl OpScript {
    /// An empty script tagged with `seed` (use 0 for hand-built scripts).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ops: Vec::new(),
        }
    }

    /// Appends an operation (builder for corpus-driven or hand-built
    /// scripts).
    pub fn push(&mut self, op: Op) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// Number of stream events the script feeds (counting batch members).
    pub fn num_events(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                Op::Feed(_) => 1,
                Op::FeedBatch(docs) => docs.len(),
                _ => 0,
            })
            .sum()
    }
}

impl fmt::Display for OpScript {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# seed {:#x}, {} ops", self.seed, self.ops.len())?;
        for (i, op) in self.ops.iter().enumerate() {
            writeln!(f, "  [{i}] {op}")?;
        }
        Ok(())
    }
}

/// Shard pseudo-indices [`generate_script`] arms, taken modulo an engine's
/// shard count: one run of `0..ARMED_SHARDS` arms every shard of an engine
/// with up to this many.
pub const ARMED_SHARDS: usize = 8;

/// Shape of the scripts [`generate_script`] produces. The defaults mirror
/// the adversarial stream the sharded-equivalence suite has used since PR 4:
/// a small vocabulary and a discrete weight palette force long tie runs and
/// dense term sharing, so backfill, list retirement and refill all fire
/// constantly.
#[derive(Debug, Clone)]
pub struct ScriptConfig {
    /// Vocabulary size for documents and queries.
    pub vocabulary: u32,
    /// The discrete weight palette documents draw from (ties on purpose).
    pub palette: Vec<f64>,
    /// Queries registered before the first stream event.
    pub initial_queries: usize,
    /// Stream events to generate (single feeds plus batch members).
    pub events: usize,
    /// Per-op probability of registering another query mid-stream.
    pub register_probability: f64,
    /// Per-op probability of registering a whole burst of queries through
    /// [`Engine::register_batch`] mid-stream.
    pub burst_register_probability: f64,
    /// Largest registration burst generated (at least 2 when bursts are
    /// enabled).
    pub max_burst_registers: usize,
    /// Per-op probability of deregistering a live query mid-stream.
    pub deregister_probability: f64,
    /// Probability that a chunk of events ships as one [`Op::FeedBatch`].
    pub batch_probability: f64,
    /// Largest batch generated (at least 2 when batching is enabled).
    pub max_batch: usize,
    /// Maximum arrival gap between consecutive documents, in milliseconds;
    /// gaps draw uniformly from `[0, max]`, so **equal timestamps occur**
    /// whenever this is positive and routinely when it is small.
    pub max_gap_millis: usize,
    /// Terms per query draw from `[1, max_query_terms]`.
    pub max_query_terms: usize,
    /// `k` draws from `[1, max_k]`.
    pub max_k: usize,
    /// Terms per document draw from `[1, max_doc_terms]`.
    pub max_doc_terms: usize,
    /// Per-op probability of arming an injected fault on a random shard
    /// ([`Op::InjectFault`]): the next event that shard processes is applied
    /// and then the worker panics mid-request, forcing a rebuild.
    pub inject_fault_probability: f64,
    /// Per-document probability of arming every shard at once: one
    /// [`Op::InjectFault`] per pseudo-index below [`ARMED_SHARDS`], just
    /// before the feed op that carries the document, so every shard of an
    /// engine with up to that many faults on one event.
    pub fault_every_shard_probability: f64,
}

impl Default for ScriptConfig {
    fn default() -> Self {
        Self {
            vocabulary: 24,
            palette: vec![0.1, 0.2, 0.2, 0.4, 0.7],
            initial_queries: 3,
            events: 320,
            register_probability: 0.10,
            burst_register_probability: 0.0,
            max_burst_registers: 8,
            deregister_probability: 0.05,
            batch_probability: 0.0,
            max_batch: 16,
            max_gap_millis: 4,
            max_query_terms: 3,
            max_k: 3,
            max_doc_terms: 5,
            inject_fault_probability: 0.0,
            fault_every_shard_probability: 0.0,
        }
    }
}

impl ScriptConfig {
    /// The default shape with batches mixed in: roughly
    /// `batch_probability` of the stream ships as bursts of up to
    /// `max_batch` events.
    pub fn batched() -> Self {
        Self {
            batch_probability: 0.5,
            ..Self::default()
        }
    }

    /// The registration-heavy shape: frequent single registrations, frequent
    /// [`Op::RegisterBurst`]s, aggressive deregistration and a batched
    /// stream. This is the axis that exercises bulk registration, lists
    /// filed mid-stream and list retirement under churn, all at once.
    pub fn churn_storm() -> Self {
        Self {
            initial_queries: 6,
            register_probability: 0.15,
            burst_register_probability: 0.12,
            max_burst_registers: 12,
            deregister_probability: 0.12,
            batch_probability: 0.35,
            ..Self::default()
        }
    }

    /// The chaos shape: the churn storm with faults mixed in — frequent
    /// injected faults on one shard and occasional ones on every shard at
    /// once, on top of the registration churn and batching. This is the
    /// fault-injection differential axis: a fault-tolerant engine must stay in lockstep with
    /// a fault-free reference *through* its own crashes and recoveries.
    pub fn chaos_storm() -> Self {
        Self {
            inject_fault_probability: 0.10,
            fault_every_shard_probability: 0.02,
            ..Self::churn_storm()
        }
    }
}

fn random_query(rng: &mut ScriptRng, config: &ScriptConfig) -> ContinuousQuery {
    let terms = rng.range(1, config.max_query_terms + 1);
    let weights: Vec<(TermId, f64)> = (0..terms)
        .map(|_| {
            (
                TermId(rng.below(config.vocabulary as usize) as u32),
                0.1 + rng.below(8) as f64 * 0.1,
            )
        })
        .collect();
    ContinuousQuery::from_weights(weights, rng.range(1, config.max_k + 1))
}

fn random_document(
    rng: &mut ScriptRng,
    config: &ScriptConfig,
    id: u64,
    arrival: Timestamp,
) -> Document {
    let terms = rng.range(1, config.max_doc_terms + 1);
    let weights = (0..terms).map(|_| {
        (
            TermId(rng.below(config.vocabulary as usize) as u32),
            *rng.pick(&config.palette),
        )
    });
    Document::new(DocId(id), arrival, WeightedVector::from_weights(weights))
}

/// Generates a reproducible script for `config` from `seed`.
pub fn generate_script(config: &ScriptConfig, seed: u64) -> OpScript {
    let mut rng = ScriptRng::new(seed);
    let mut script = OpScript::new(seed);
    for _ in 0..config.initial_queries {
        script.push(Op::Register(random_query(&mut rng, config)));
    }
    let mut clock = Timestamp::ZERO;
    let mut next_doc = 0u64;
    let mut emitted = 0usize;
    let mut next_document = |rng: &mut ScriptRng| {
        clock = clock.advance(std::time::Duration::from_millis(
            rng.below(config.max_gap_millis + 1) as u64,
        ));
        let doc = random_document(rng, config, next_doc, clock);
        let fault_every_shard = rng.chance(config.fault_every_shard_probability);
        next_doc += 1;
        (doc, fault_every_shard)
    };
    while emitted < config.events {
        if rng.chance(config.register_probability) {
            script.push(Op::Register(random_query(&mut rng, config)));
        }
        if rng.chance(config.inject_fault_probability) {
            script.push(Op::InjectFault {
                shard: rng.below(ARMED_SHARDS),
            });
        }
        if rng.chance(config.burst_register_probability) {
            let size = rng.range(2, config.max_burst_registers.max(2) + 1);
            let queries: Vec<ContinuousQuery> =
                (0..size).map(|_| random_query(&mut rng, config)).collect();
            script.push(Op::RegisterBurst(queries));
        }
        if rng.chance(config.deregister_probability) {
            script.push(Op::Deregister {
                victim: rng.below(64),
            });
        }
        let (feed, fault_every_shard) = if rng.chance(config.batch_probability) {
            let size = rng
                .range(2, config.max_batch.max(2) + 1)
                .min(config.events - emitted)
                .max(1);
            let (docs, faults): (Vec<Document>, Vec<bool>) =
                (0..size).map(|_| next_document(&mut rng)).unzip();
            emitted += docs.len();
            (Op::FeedBatch(docs), faults.contains(&true))
        } else {
            let (doc, fault_every_shard) = next_document(&mut rng);
            emitted += 1;
            (Op::Feed(doc), fault_every_shard)
        };
        if fault_every_shard {
            let arms = (0..ARMED_SHARDS).map(|shard| Op::InjectFault { shard });
            script.ops.extend(arms);
        }
        script.push(feed);
    }
    script
}

/// An [`Engine`] adapter that forwards everything except
/// [`Engine::register_batch`], which it pins to the one-query-at-a-time
/// loop (the trait's default). Pairing an engine with a
/// `LoopRegister`-wrapped twin turns any script containing
/// [`Op::RegisterBurst`] into a bulk-vs-loop registration differential:
/// whatever shortcut the engine's bulk path takes (the ITA engine's single
/// window merge, the sharded engine's one-round-trip fan-out) must remain
/// byte-identical to the loop it replaces.
#[derive(Debug, Clone)]
pub struct LoopRegister<E>(pub E);

impl<E: Engine> Engine for LoopRegister<E> {
    fn register(&mut self, query: ContinuousQuery) -> QueryId {
        self.0.register(query)
    }

    fn register_batch(&mut self, queries: Vec<ContinuousQuery>) -> Vec<QueryId> {
        queries.into_iter().map(|q| self.0.register(q)).collect()
    }

    fn deregister(&mut self, query: QueryId) -> bool {
        self.0.deregister(query)
    }

    fn process_document(&mut self, doc: Document) -> crate::EventOutcome {
        self.0.process_document(doc)
    }

    fn process_batch(&mut self, docs: Vec<Document>) -> Vec<crate::EventOutcome> {
        self.0.process_batch(docs)
    }

    fn current_results(&self, query: QueryId) -> Vec<crate::RankedDocument> {
        self.0.current_results(query)
    }

    fn num_queries(&self) -> usize {
        self.0.num_queries()
    }

    fn num_valid_documents(&self) -> usize {
        self.0.num_valid_documents()
    }

    fn clock(&self) -> Timestamp {
        self.0.clock()
    }

    fn name(&self) -> &'static str {
        "loop-register"
    }

    fn inject_fault(&mut self, shard: usize) -> bool {
        self.0.inject_fault(shard)
    }

    fn fault_stats(&self) -> Option<crate::fault::FaultStats> {
        self.0.fault_stats()
    }

    fn check_invariants(&self) {
        self.0.check_invariants()
    }
}

/// Knobs of [`run_script`].
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Compare per-event [`crate::EventOutcome`]s across engines. Enable
    /// for engines with identical work accounting (ITA vs sharded ITA;
    /// batch vs singles); disable when comparing engines that count work
    /// differently (ITA vs the naïve baseline). Either way a candidate's
    /// outcomes are compared only until its [`Engine::fault_stats`] `faults`
    /// first rises: from there on they are a rebuilt engine's, whose results
    /// are exact and whose work counters need not be (DESIGN.md §10).
    pub compare_outcomes: bool,
    /// Compare live-query results every `check_every`-th feed op (outcome
    /// checks, when enabled, still run on every op). 1 = every feed.
    pub check_every: usize,
    /// Compare every `sample_stride`-th live query at a checkpoint (always
    /// including the first). 1 = all live queries — paper-scale scripts use
    /// a larger stride to keep checkpoints affordable.
    pub sample_stride: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            compare_outcomes: true,
            check_every: 1,
            sample_stride: 1,
        }
    }
}

/// A divergence found by [`run_script`]: which op tripped it and what
/// disagreed. Carried as data (not a panic) so minimization can re-run
/// candidate scripts cheaply.
#[derive(Debug, Clone)]
pub struct ScriptFailure {
    /// Index into [`OpScript::ops`] of the offending operation.
    pub op_index: usize,
    /// Human-readable description of the disagreement.
    pub message: String,
}

impl fmt::Display for ScriptFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op [{}]: {}", self.op_index, self.message)
    }
}

fn check_results<'e>(
    engines: &[Box<dyn Engine + 'e>],
    live: &[QueryId],
    stride: usize,
    op_index: usize,
) -> Result<(), ScriptFailure> {
    for &query in live.iter().step_by(stride.max(1)) {
        let expected = engines[0].current_results(query);
        for candidate in &engines[1..] {
            let actual = candidate.current_results(query);
            if !results_match(&expected, &actual, DEFAULT_TOLERANCE) {
                return Err(ScriptFailure {
                    op_index,
                    message: format!(
                        "{} on {}: {} reports {:?}, {} reports {:?}",
                        "results diverged",
                        query,
                        engines[0].name(),
                        expected,
                        candidate.name(),
                        actual
                    ),
                });
            }
        }
    }
    Ok(())
}

/// Applies `script` to every engine in lockstep (engine 0 is the
/// reference), returning the first divergence: query-id assignment,
/// deregistration success, per-event/batch outcomes (when
/// `options.compare_outcomes`, up to a candidate's first fault) and
/// (sampled) live-query results must all agree. The engines must share a
/// window policy; the runner does not construct engines — pair it with a
/// factory closure for minimization (see
/// [`assert_script_equivalence`]). To keep ownership of concrete engines
/// for post-run assertions (index stats, fault counters), box mutable
/// references instead — `&mut E` is itself an [`Engine`]:
/// `vec![Box::new(&mut reference) as Box<dyn Engine + '_>, ...]`.
pub fn run_script<'e>(
    engines: &mut [Box<dyn Engine + 'e>],
    script: &OpScript,
    options: &RunOptions,
) -> Result<(), ScriptFailure> {
    assert!(
        engines.len() >= 2,
        "a differential run needs a reference and at least one candidate"
    );
    let mut live: Vec<QueryId> = Vec::new();
    let mut feeds = 0usize;
    let unfaulted: Vec<u64> = engines.iter().map(|engine| faults(&**engine)).collect();
    let outcomes_held = |i: usize, candidate: &dyn Engine| {
        options.compare_outcomes && faults(candidate) == unfaulted[i]
    };
    for (op_index, op) in script.ops.iter().enumerate() {
        let fail = |message: String| ScriptFailure { op_index, message };
        match op {
            Op::Register(query) => {
                let expected = engines[0].register(query.clone());
                for candidate in &mut engines[1..] {
                    let actual = candidate.register(query.clone());
                    if actual != expected {
                        return Err(fail(format!(
                            "query ids diverged: reference assigned {expected}, {} assigned {actual}",
                            candidate.name()
                        )));
                    }
                }
                live.push(expected);
            }
            Op::RegisterBurst(queries) => {
                let expected = engines[0].register_batch(queries.clone());
                for candidate in &mut engines[1..] {
                    let actual = candidate.register_batch(queries.clone());
                    if actual != expected {
                        return Err(fail(format!(
                            "burst query ids diverged: reference assigned {expected:?}, {} assigned {actual:?}",
                            candidate.name()
                        )));
                    }
                }
                live.extend(&expected);
                // Initial results are part of the byte-identical registration
                // contract — check them right away rather than waiting for
                // the next feed checkpoint, so a registration-path divergence
                // is pinned to the burst that caused it.
                check_results(engines, &expected, 1, op_index)?;
            }
            Op::Deregister { victim } => {
                if live.is_empty() {
                    continue;
                }
                let target = live.swap_remove(victim % live.len());
                for engine in engines.iter_mut() {
                    if !engine.deregister(target) {
                        return Err(fail(format!("{} lost {target}", engine.name())));
                    }
                }
            }
            Op::Feed(doc) => {
                feeds += 1;
                let expected = engines[0].process_document(doc.clone());
                for (i, candidate) in engines.iter_mut().enumerate().skip(1) {
                    let actual = candidate.process_document(doc.clone());
                    if outcomes_held(i, &**candidate) && actual != expected {
                        return Err(fail(format!(
                            "outcomes diverged on {}: reference {expected:?}, {} {actual:?}",
                            doc.id,
                            candidate.name()
                        )));
                    }
                }
            }
            Op::FeedBatch(docs) => {
                feeds += 1;
                let expected = engines[0].process_batch(docs.clone());
                for (i, candidate) in engines.iter_mut().enumerate().skip(1) {
                    let actual = candidate.process_batch(docs.clone());
                    if outcomes_held(i, &**candidate) && actual != expected {
                        let at = expected
                            .iter()
                            .zip(&actual)
                            .position(|(a, b)| a != b)
                            .map_or("length".to_string(), |i| format!("member {i}"));
                        return Err(fail(format!(
                            "batch outcomes diverged at {at}: reference {expected:?}, {} {actual:?}",
                            candidate.name()
                        )));
                    }
                }
            }
            Op::InjectFault { shard } => {
                // Armed on every engine; engines without fault injection
                // no-op. Deliberately no comparison — whether a fault was
                // armed is engine-specific, but every *subsequent* op's
                // checks still must agree, which is the whole point.
                for engine in engines.iter_mut() {
                    engine.inject_fault(*shard);
                }
            }
        }
        // Deep structural audit of every engine after every op, active in
        // unit-test builds and under the `invariant-checks` feature (the CI
        // arm integration suites use — integration tests link the lib
        // *without* cfg(test)). An `Engine::check_invariants` panic here
        // pins a corrupted structure to the op that corrupted it, instead of
        // the first divergent result many ops later.
        #[cfg(any(test, feature = "invariant-checks"))]
        for engine in engines.iter() {
            engine.check_invariants();
        }
        let feed_op = matches!(op, Op::Feed(_) | Op::FeedBatch(_));
        if feed_op && feeds.is_multiple_of(options.check_every.max(1)) {
            check_results(engines, &live, options.sample_stride, op_index)?;
            let expected = engines[0].num_valid_documents();
            for candidate in &engines[1..] {
                let actual = candidate.num_valid_documents();
                if actual != expected {
                    return Err(fail(format!(
                        "window sizes diverged: reference {expected}, {} {actual}",
                        candidate.name()
                    )));
                }
            }
        }
    }
    // Final structural audit regardless of feature gating: even a plain
    // integration-test build gets one end-of-script audit per engine.
    for engine in engines.iter() {
        engine.check_invariants();
    }
    // Final checkpoint regardless of stride/cadence.
    check_results(engines, &live, 1, script.ops.len().saturating_sub(1))
}

/// The faults `engine` has counted so far (0 for engines that count none).
fn faults(engine: &dyn Engine) -> u64 {
    engine.fault_stats().map_or(0, |stats| stats.faults)
}

/// Shrinks a failing script by greedy delta debugging: repeatedly re-runs
/// candidate scripts (on fresh engines from `make_engines`) with chunks of
/// ops removed, keeping any removal that still fails, halving the chunk
/// size until single ops cannot be removed — or `budget` re-runs have been
/// spent. The result still fails; it is what
/// [`assert_script_equivalence`] prints.
pub fn minimize_script(
    make_engines: &dyn Fn() -> Vec<Box<dyn Engine>>,
    script: &OpScript,
    options: &RunOptions,
    budget: usize,
) -> OpScript {
    let still_fails = |ops: &[Op], spent: &mut usize| -> bool {
        *spent += 1;
        let candidate = OpScript {
            seed: script.seed,
            ops: ops.to_vec(),
        };
        run_script(&mut make_engines(), &candidate, options).is_err()
    };
    let mut ops = script.ops.clone();
    let mut spent = 0usize;
    let mut chunk = (ops.len() / 2).max(1);
    loop {
        let mut removed_any = false;
        let mut at = 0;
        while at < ops.len() && spent < budget {
            let end = (at + chunk).min(ops.len());
            let candidate: Vec<Op> = ops[..at].iter().chain(&ops[end..]).cloned().collect();
            if !candidate.is_empty() && still_fails(&candidate, &mut spent) {
                ops = candidate;
                removed_any = true;
                // Re-scan from the same offset: the tail shifted left.
            } else {
                at = end;
            }
        }
        if spent >= budget || (!removed_any && chunk == 1) {
            break;
        }
        if !removed_any {
            chunk = (chunk / 2).max(1);
        }
    }
    OpScript {
        seed: script.seed,
        ops,
    }
}

/// Generates a script for `(config, seed)`, runs it over the engines from
/// `make_engines`, and on divergence panics with the **seed** and a
/// **minimized** reproduction script. This is the entry point the
/// differential suites call in a loop over seeds/shard counts.
pub fn assert_script_equivalence(
    make_engines: &dyn Fn() -> Vec<Box<dyn Engine>>,
    config: &ScriptConfig,
    seed: u64,
) {
    let script = generate_script(config, seed);
    assert_script_runs(make_engines, &script, &RunOptions::default());
}

/// Runs an existing script (generated or hand-/corpus-built) over fresh
/// engines, panicking with seed + minimized script on divergence.
pub fn assert_script_runs(
    make_engines: &dyn Fn() -> Vec<Box<dyn Engine>>,
    script: &OpScript,
    options: &RunOptions,
) {
    if let Err(failure) = run_script(&mut make_engines(), script, options) {
        let minimized = minimize_script(make_engines, script, options, 256);
        panic!(
            "testkit: engines diverged (seed {:#x})\n  {failure}\n\
             minimized reproduction ({} of {} ops):\n{minimized}",
            script.seed,
            minimized.ops.len(),
            script.ops.len(),
        );
    }
}

/// Shape of one overload session for [`run_overload_session`]: seeded bursty
/// arrivals against a bounded [`StreamService`], with slow-drain phases,
/// registration storms and optional fault injection.
///
/// This is the overload differential axis: the service may shed or displace
/// whatever its bounds dictate, but the events it *reports as processed*
/// must produce byte-identical results to feeding exactly that sequence to
/// an unbounded reference engine — shedding changes *which* events run,
/// never *what they compute*.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Document/query shape (vocabulary, palette, gaps) reused from the
    /// script generator so overload sessions hit the same tie-heavy corpus.
    pub script: ScriptConfig,
    /// Bounds of the service under test.
    pub service: ServiceConfig,
    /// Offer/pump rounds in the session.
    pub bursts: usize,
    /// Largest burst of offers per round (size draws from `[1, max]`).
    pub max_burst: usize,
    /// Probability that a round drains with [`StreamService::pump_budget`]
    /// (a slow consumer) instead of a full pump.
    pub slow_drain_probability: f64,
    /// Events a slow-drain round is allowed to process.
    pub drain_budget: usize,
    /// Per-round probability of a registration storm.
    pub register_storm_probability: f64,
    /// Largest registration storm (size draws from `[1, max]`).
    pub max_storm: usize,
    /// Per-round probability of deregistering a live query.
    pub deregister_probability: f64,
    /// Ingest deadline slack applied to every offered event, in stream-time
    /// milliseconds; `0` offers events without deadlines.
    pub deadline_slack_millis: u64,
    /// Per-round probability of arming an injected fault on the candidate
    /// (a worker panic and the shard's rebuild; results must stay exact
    /// through it).
    pub inject_fault_probability: f64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        Self {
            script: ScriptConfig::default(),
            service: ServiceConfig::bounded(64),
            bursts: 60,
            max_burst: 24,
            slow_drain_probability: 0.4,
            drain_budget: 6,
            register_storm_probability: 0.2,
            max_storm: 6,
            deregister_probability: 0.1,
            deadline_slack_millis: 12,
            inject_fault_probability: 0.0,
        }
    }
}

impl OverloadConfig {
    /// The acceptance shape: every round is a slow drain with a budget a
    /// tenth of the maximum burst — arrival rate ≥ 10× drain rate — so the
    /// bounded queue must shed hard while staying live and exact.
    pub fn ten_x() -> Self {
        Self {
            service: ServiceConfig::bounded(256),
            bursts: 120,
            max_burst: 100,
            slow_drain_probability: 1.0,
            drain_budget: 10,
            register_storm_probability: 0.05,
            max_storm: 8,
            deregister_probability: 0.02,
            deadline_slack_millis: 40,
            inject_fault_probability: 0.05,
            ..Self::default()
        }
    }
}

/// Drives `candidate` (behind a bounded [`StreamService`]) and an unbounded
/// `reference` engine through one seeded overload session, asserting the
/// overload correctness contract at every round:
///
/// * every admission is an explicit [`Admission`] (no silently dropped
///   acks), and shed accounting stays exact
///   (`offered == accepted + coalesced + shed + depth`);
/// * the service's own timing stats count exactly what it drained:
///   `stats().events == accepted + coalesced`, and `stats().batches` is the
///   sum of every [`crate::service::DrainReport::batches`];
/// * registrations and deregistrations mirror to the reference at offer
///   time, with identical id assignment;
/// * every event the service reports processed is replayed into the
///   reference, with identical [`crate::EventOutcome`]s up to the
///   candidate's first fault, and periodically identical top-k results on
///   all live queries (and, under the `invariant-checks` feature or a
///   unit-test build, a clean [`Engine::check_invariants`] audit of the
///   candidate at each comparison);
/// * no pump returns with a shard left degraded: a fault is rebuilt inside
///   the engine call that found it;
/// * at final quiescence the identity collapses to
///   `offered == accepted + coalesced + shed` and all live results match
///   exactly.
///
/// Returns the session's [`OverloadStats`] so callers can assert shape
/// (e.g. that a 10× profile actually shed).
pub fn run_overload_session<C: Engine, R: Engine>(
    candidate: C,
    reference: &mut R,
    config: &OverloadConfig,
    seed: u64,
) -> OverloadStats {
    use std::collections::BTreeMap;

    let mut rng = ScriptRng::new(seed);
    let mut service = StreamService::new(candidate, config.service.clone());
    // Documents the queue owns, by id: processed ids replay into the
    // reference, shed ids are dropped. BTreeMap, not HashMap — the testkit
    // is replay-deterministic code.
    let mut queued: BTreeMap<u64, Document> = BTreeMap::new();
    let mut live: Vec<QueryId> = Vec::new();
    let mut clock = Timestamp::ZERO;
    let mut next_doc = 0u64;
    let unfaulted = faults(service.engine());
    // Bursts of two or more the pumps have reported. The service's own
    // stats must agree with them and with its admission ledger, and no pump
    // may return with a shard still degraded.
    let mut drained_batches = 0u64;
    let check_stats = |service: &StreamService<C>, drained_batches: u64, round: usize| {
        let degraded = service
            .engine()
            .fault_stats()
            .map_or(0, |stats| stats.degraded_shards);
        assert_eq!(
            degraded, 0,
            "seed {seed:#x} round {round}: the pump returned with {degraded} shards degraded"
        );
        let stats = service.stats();
        let processed = stats.overload.accepted + stats.overload.coalesced;
        assert_eq!(
            stats.events, processed,
            "seed {seed:#x} round {round}: the service timed {} events but drained {processed}",
            stats.events
        );
        assert_eq!(
            stats.batches, drained_batches,
            "seed {seed:#x} round {round}: the service timed {} batches but its pumps \
             reported {drained_batches}",
            stats.batches
        );
    };

    let mirror_report = |report: &crate::service::DrainReport,
                         reference: &mut R,
                         queued: &mut BTreeMap<u64, Document>,
                         outcomes_held: bool,
                         round: usize| {
        for (doc_id, _reason) in &report.shed {
            queued.remove(&doc_id.0);
        }
        for (index, doc_id) in report.processed.iter().enumerate() {
            let doc = queued.remove(&doc_id.0).unwrap_or_else(|| {
                panic!(
                    "seed {seed:#x} round {round}: service processed {doc_id:?} \
                     it never accepted"
                )
            });
            let expected = reference.process_document(doc);
            assert!(
                !outcomes_held || expected == report.outcomes[index],
                "seed {seed:#x} round {round}: outcome diverged on {doc_id:?}: \
                 reference {expected:?}, candidate {:?}",
                report.outcomes[index]
            );
        }
    };

    for round in 0..config.bursts {
        if rng.chance(config.register_storm_probability) {
            let storm = rng.range(1, config.max_storm.max(1) + 1);
            for _ in 0..storm {
                let query = random_query(&mut rng, &config.script);
                let answer = service.offer_register(query.clone());
                let expected = reference.register(query);
                assert_eq!(
                    answer,
                    (Admission::Accepted, Some(expected)),
                    "seed {seed:#x} round {round}: registration diverged"
                );
                live.push(expected);
            }
        }
        if rng.chance(config.deregister_probability) && !live.is_empty() {
            let victim = live.swap_remove(rng.below(live.len()));
            let removed = service.deregister(victim);
            assert_eq!(
                removed,
                reference.deregister(victim),
                "seed {seed:#x} round {round}: deregister({victim:?}) diverged"
            );
        }
        if rng.chance(config.inject_fault_probability) {
            service.engine_mut().inject_fault(rng.below(8));
        }
        let burst = rng.range(1, config.max_burst.max(1) + 1);
        for _ in 0..burst {
            clock = clock.advance(std::time::Duration::from_millis(
                rng.below(config.script.max_gap_millis + 1) as u64,
            ));
            let doc = random_document(&mut rng, &config.script, next_doc, clock);
            next_doc += 1;
            let event = if config.deadline_slack_millis > 0 {
                IngestEvent::deadline_in(
                    doc.clone(),
                    std::time::Duration::from_millis(config.deadline_slack_millis),
                )
            } else {
                IngestEvent::new(doc.clone())
            };
            match service.offer(event) {
                Admission::Accepted => {
                    queued.insert(doc.id.0, doc);
                }
                Admission::Shed(_) => {}
            }
        }
        let report = if rng.chance(config.slow_drain_probability) {
            service.pump_budget(clock, config.drain_budget.max(1))
        } else {
            service.pump(clock)
        };
        let outcomes_held = faults(service.engine()) == unfaulted;
        mirror_report(&report, reference, &mut queued, outcomes_held, round);
        service.check_accounting();
        drained_batches += report.batches;
        check_stats(&service, drained_batches, round);
        if round % 8 == 0 {
            // The same deep audit, under the same gate, `run_script` runs
            // per op — here wherever live results are compared.
            #[cfg(any(test, feature = "invariant-checks"))]
            service.engine().check_invariants();
            for &query in &live {
                assert_eq!(
                    service.results(query),
                    reference.current_results(query),
                    "seed {seed:#x} round {round}: results diverged on {query:?}"
                );
            }
        }
    }
    // Quiesce: drain everything still queued and settle the ledger.
    let report = service.pump(clock);
    let outcomes_held = faults(service.engine()) == unfaulted;
    mirror_report(
        &report,
        reference,
        &mut queued,
        outcomes_held,
        config.bursts,
    );
    assert_eq!(
        service.depth(),
        0,
        "seed {seed:#x}: final pump left a backlog"
    );
    assert!(
        queued.is_empty(),
        "seed {seed:#x}: {} accepted events were neither processed nor shed",
        queued.len()
    );
    let overload = service.overload_stats();
    assert_eq!(
        overload.offered,
        overload.accepted + overload.coalesced + overload.shed(),
        "seed {seed:#x}: quiescent shed accounting violated"
    );
    check_stats(&service, drained_batches + report.batches, config.bursts);
    #[cfg(any(test, feature = "invariant-checks"))]
    service.engine().check_invariants();
    for &query in &live {
        assert_eq!(
            service.results(query),
            reference.current_results(query),
            "seed {seed:#x}: final results diverged on {query:?}"
        );
    }
    overload
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ita::{ItaConfig, ItaEngine};
    use crate::sharded::ShardedItaEngine;
    use cts_index::SlidingWindow;

    #[test]
    fn script_rng_is_deterministic_and_in_range() {
        let mut a = ScriptRng::new(42);
        let mut b = ScriptRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut rng = ScriptRng::new(7);
        for _ in 0..200 {
            let v = rng.range(3, 9);
            assert!((3..9).contains(&v));
            assert!(rng.below(1) == 0);
        }
        // Different seeds diverge immediately.
        assert_ne!(ScriptRng::new(1).next_u64(), ScriptRng::new(2).next_u64());
        let heads = (0..1000).filter(|_| rng.chance(0.5)).count();
        assert!((300..700).contains(&heads), "biased coin: {heads}/1000");
    }

    #[test]
    fn generated_scripts_are_reproducible_and_respect_the_config() {
        let config = ScriptConfig {
            events: 50,
            batch_probability: 0.4,
            ..ScriptConfig::default()
        };
        let a = generate_script(&config, 0xABCD);
        let b = generate_script(&config, 0xABCD);
        assert_eq!(a.ops.len(), b.ops.len());
        assert_eq!(a.num_events(), 50);
        assert!(a.ops.iter().any(|op| matches!(op, Op::FeedBatch(_))));
        assert!(a
            .ops
            .iter()
            .take(config.initial_queries)
            .all(|op| matches!(op, Op::Register(_))));
        // Rendering mentions the seed and every op index.
        let rendered = a.to_string();
        assert!(rendered.contains("seed 0xabcd"), "{rendered}");
        assert!(rendered.contains(&format!("[{}]", a.ops.len() - 1)));
    }

    fn engines(shards: usize) -> Vec<Box<dyn Engine>> {
        let window = SlidingWindow::count_based(20);
        vec![
            Box::new(ItaEngine::new(window, ItaConfig::default())),
            Box::new(ShardedItaEngine::new(window, ItaConfig::default(), shards)),
        ]
    }

    #[test]
    fn equivalent_engines_pass_a_batched_script() {
        let config = ScriptConfig {
            events: 120,
            ..ScriptConfig::batched()
        };
        assert_script_equivalence(&|| engines(3), &config, 0x7E57_0001);
    }

    #[test]
    fn churn_storm_scripts_contain_registration_bursts() {
        let config = ScriptConfig {
            events: 120,
            ..ScriptConfig::churn_storm()
        };
        let script = generate_script(&config, 0x7E57_0004);
        let bursts: usize = script
            .ops
            .iter()
            .filter(|op| matches!(op, Op::RegisterBurst(_)))
            .count();
        assert!(bursts > 0, "churn storm generated no registration bursts");
        assert!(script.to_string().contains("register_burst"));
    }

    #[test]
    fn churn_storm_holds_across_bulk_loop_and_sharded_registration() {
        let make: &dyn Fn() -> Vec<Box<dyn Engine>> = &|| {
            let window = SlidingWindow::count_based(20);
            vec![
                Box::new(ItaEngine::new(window, ItaConfig::default())) as Box<dyn Engine>,
                Box::new(LoopRegister(ItaEngine::new(window, ItaConfig::default()))),
                Box::new(ShardedItaEngine::new(window, ItaConfig::default(), 3)),
            ]
        };
        let config = ScriptConfig {
            events: 120,
            ..ScriptConfig::churn_storm()
        };
        assert_script_equivalence(make, &config, 0x7E57_0005);
    }

    #[test]
    fn chaos_storm_scripts_arm_one_shard_and_every_shard() {
        let config = ScriptConfig {
            events: 200,
            ..ScriptConfig::chaos_storm()
        };
        let script = generate_script(&config, 0x7E57_0006);
        let armed: Vec<Option<usize>> = script
            .ops
            .iter()
            .map(|op| match op {
                Op::InjectFault { shard } => Some(*shard),
                _ => None,
            })
            .collect();
        assert!(
            armed.iter().any(Option::is_some),
            "chaos storm armed no faults"
        );
        let every_shard: Vec<Option<usize>> = (0..ARMED_SHARDS).map(Some).collect();
        assert!(
            armed.windows(ARMED_SHARDS).any(|run| run == every_shard),
            "chaos storm never armed every shard at once"
        );
        assert!(script.to_string().contains("inject_fault shard%"));
    }

    #[test]
    fn divergence_is_caught_and_minimized() {
        // A candidate with a *different window* diverges as soon as an
        // expiration differs; the harness must catch it, and minimization
        // must shrink the script while keeping it failing.
        let make: &dyn Fn() -> Vec<Box<dyn Engine>> = &|| {
            vec![
                Box::new(ItaEngine::new(
                    SlidingWindow::count_based(4),
                    ItaConfig::default(),
                )) as Box<dyn Engine>,
                Box::new(ItaEngine::new(
                    SlidingWindow::count_based(5),
                    ItaConfig::default(),
                )) as Box<dyn Engine>,
            ]
        };
        let config = ScriptConfig {
            events: 40,
            ..ScriptConfig::default()
        };
        let script = generate_script(&config, 0x7E57_0002);
        let failure =
            run_script(&mut make(), &script, &RunOptions::default()).expect_err("must diverge");
        assert!(failure.op_index < script.ops.len());
        let minimized = minimize_script(make, &script, &RunOptions::default(), 256);
        assert!(minimized.ops.len() < script.ops.len());
        assert!(run_script(&mut make(), &minimized, &RunOptions::default()).is_err());
    }

    #[test]
    #[should_panic(expected = "testkit: engines diverged")]
    fn assert_script_equivalence_panics_with_the_seed() {
        let make: &dyn Fn() -> Vec<Box<dyn Engine>> = &|| {
            vec![
                Box::new(ItaEngine::new(
                    SlidingWindow::count_based(4),
                    ItaConfig::default(),
                )) as Box<dyn Engine>,
                Box::new(ItaEngine::new(
                    SlidingWindow::count_based(6),
                    ItaConfig::default(),
                )) as Box<dyn Engine>,
            ]
        };
        assert_script_equivalence(&make, &ScriptConfig::default(), 0x7E57_0003);
    }

    #[test]
    fn overload_session_holds_lockstep_while_shedding() {
        let window = SlidingWindow::count_based(20);
        let config = OverloadConfig {
            bursts: 30,
            ..OverloadConfig::default()
        };
        let candidate = ShardedItaEngine::new(window, ItaConfig::default(), 2);
        let mut reference = ItaEngine::new(window, ItaConfig::default());
        let overload = run_overload_session(candidate, &mut reference, &config, 0x7E57_0B01);
        assert!(overload.offered > 0, "session offered nothing");
        assert!(
            overload.shed() > 0,
            "a bursty session against a 64-slot queue must shed: {overload:?}"
        );
        assert!(reference.num_queries() > 0, "no registration storms ran");
    }

    /// An engine that is nothing but a failing audit: whoever drops the
    /// `check_invariants` call on the way to it goes unnoticed no longer.
    struct AuditPanics;

    impl Engine for AuditPanics {
        fn register(&mut self, _: ContinuousQuery) -> QueryId {
            unimplemented!("audit-only stub")
        }
        fn deregister(&mut self, _: QueryId) -> bool {
            unimplemented!("audit-only stub")
        }
        fn process_document(&mut self, _: Document) -> crate::EventOutcome {
            unimplemented!("audit-only stub")
        }
        fn current_results(&self, _: QueryId) -> Vec<crate::RankedDocument> {
            unimplemented!("audit-only stub")
        }
        fn num_queries(&self) -> usize {
            0
        }
        fn num_valid_documents(&self) -> usize {
            0
        }
        fn clock(&self) -> Timestamp {
            Timestamp::ZERO
        }
        fn name(&self) -> &'static str {
            "audit-panics"
        }
        fn check_invariants(&self) {
            panic!("the audit reached the engine");
        }
    }

    #[test]
    #[should_panic(expected = "the audit reached the engine")]
    fn overload_sessions_audit_the_candidate() {
        // No rounds: the session goes straight to its quiescence checks, so
        // the stub is never asked to be an engine.
        let config = OverloadConfig {
            bursts: 0,
            ..OverloadConfig::default()
        };
        let mut reference = ItaEngine::new(SlidingWindow::count_based(4), ItaConfig::default());
        run_overload_session(AuditPanics, &mut reference, &config, 0x7E57_0B02);
    }

    #[test]
    fn hand_built_scripts_run_through_the_same_runner() {
        let mut script = OpScript::new(0);
        script.push(Op::Register(ContinuousQuery::from_weights(
            [(TermId(1), 1.0)],
            2,
        )));
        for i in 0..6u64 {
            let doc = Document::new(
                DocId(i),
                Timestamp::from_millis(i),
                WeightedVector::from_weights([(TermId(1), 0.1 * (i % 3 + 1) as f64)]),
            );
            script.push(if i % 2 == 0 {
                Op::Feed(doc)
            } else {
                Op::FeedBatch(vec![doc])
            });
        }
        script.push(Op::Deregister { victim: 0 });
        assert_eq!(script.num_events(), 6);
        assert_script_runs(&|| engines(2), &script, &RunOptions::default());
    }
}
