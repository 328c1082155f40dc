//! Query-sharded parallel execution of the Incremental Threshold Algorithm.
//!
//! [`ShardedItaEngine`] partitions the registered queries across `N` worker
//! shards by a deterministic hash of the query id. Each shard owns, for its
//! query subset, **everything** the single-shard [`ItaEngine`] owns for the
//! full set: the per-query result sets and local thresholds, the per-term
//! threshold trees, and a *term-filtered shadow* inverted index — segmented
//! impact lists for only the terms its queries reference, mirrored over the
//! shared window (the document store holds `Arc`s, so the window's
//! composition lists exist once in memory no matter how many shards mirror
//! them).
//!
//! Stream events cross the coordinator/worker boundary in **bursts**, and a
//! single event is a burst of one (DESIGN.md §8 has the traffic numbers that
//! make this the only protocol): the coordinator wraps each document in an
//! `Arc` and ships the burst down every shard's SPSC request channel in
//! **one request/reply round-trip per shard**. Every worker probes its own
//! trees, repairs its own result sets and slides its own window mirror with
//! **zero cross-shard locking on the hot path** — the channel handoff at the
//! burst boundary is the only synchronisation — processing (and timing) the
//! events one by one, in order, so outcomes are byte-identical whatever the
//! burst length (the batch-vs-singles differential tests enforce it). The
//! per-shard [`crate::EventOutcome`]s are folded back with
//! [`crate::EventOutcome::merge_shard`] into exactly what a single-shard
//! engine would have reported, and per-worker [`ProcessingStats`] merge
//! through [`ProcessingStats::absorb`], so a caller reads exact aggregate
//! numbers, per-event maxima of batched runs included.
//!
//! ## Static placement
//!
//! A query lives on the shard [`ShardedItaEngine::shard_of`] hashes its id
//! to, from registration to deregistration; that hash is the whole routing.
//! The coordinator mints
//! the ids, and the multiply-shift over their Fibonacci hash levels the query
//! count across shards for sequential and churned id sets alike, so nothing
//! moves a query afterwards (DESIGN.md §8 has the measured spread and what a
//! rebalancer would still level).
//!
//! ## Fault tolerance
//!
//! A production service cannot let one poisoned event take every registered
//! query down, so a worker panic is **data, not death** (DESIGN.md §10):
//!
//! * **Panic isolation** — every request a worker handles runs under one
//!   [`std::panic::catch_unwind`]. A panic never unwinds the worker thread:
//!   it drops the shard's engine state and comes back as a typed
//!   [`ShardFault`]; the shard is *degraded* (so is one whose thread is
//!   gone).
//! * **One recovery path, the rebuild** — the coordinator keeps durable
//!   state updated **before** any fan-out — a query registry
//!   (id → [`ContinuousQuery`]), whose ids hash to their shards, and a window
//!   mirror of `Arc`'d documents ([`WindowTerms`]) — and rebuilds a degraded shard
//!   from it: respawn the thread if it is gone, load the mirror's documents
//!   into a fresh engine (no query is live, so nothing is filed), then one
//!   registration of the shard's queries with the postings the coordinator
//!   resolves against the mirror. A rebuilt shard is "these queries
//!   registered over this window", the state any registration produces.
//!   Its top-k results are exact (ITA's reported top-k is a function of the
//!   window contents and the queries); its thresholds are a fresh
//!   registration's, not the faulted history's, so its work counters — and
//!   the event outcomes built from them — are a rebuilt engine's from the
//!   shard's first fault on (DESIGN.md §10).
//! * **Rebuilt before the call returns** — a mutating call rebuilds every
//!   degraded shard before it fans out, and again before it returns, so it
//!   surfaces a typed [`EngineError`] only when a rebuild itself fails. A
//!   read through `&self` cannot rebuild: it answers a degraded shard with
//!   its fallback (empty results, zeroed stats) and leaves the shard to the
//!   next mutating call.
//!
//! A document whose id is already in the window (or twice in one burst) is
//! refused with [`EngineError::DuplicateDocument`] before any shard or the
//! mirror sees it: every worker would panic on it, and the mirror would
//! hand it to every rebuild.
//!
//! Workers are **persistent**: one spawned thread per shard, living until
//! the engine shuts down. Construction panics if any of them fails to
//! spawn, so an engine always runs on the shards it was asked for; a failed
//! respawn during a rebuild leaves the shard degraded for the next mutating
//! call to try again. Shutdown drains
//! each worker's final [`ProcessingStats`] through a handshake before
//! joining, so no timing data is lost on drop.
//!
//! ## Why this is exact
//!
//! Every structure the ITA maintenance paths read is *per query term*:
//! registration and refill descend the query's own inverted lists, and
//! arrivals/expirations consult the threshold trees of the arriving
//! document's terms. A shard that keeps complete lists for the
//! union of its queries' terms therefore reproduces, query for query, the
//! exact reads the single-shard engine performs — the shadow index is
//! complete for that term set by construction: filtered inserts for live
//! terms, and when a registration brings a term live mid-stream, its
//! postings over the whole window filed in arrival order.
//!
//! **Who resolves those postings.** The coordinator does, once, for every
//! shard: its window mirror is a [`WindowTerms`] — the arrival-ordered
//! `Arc`s plus lazily built per-chunk term directories, which exist once
//! however many shards there are. [`ShardedItaEngine::try_register_batch`]
//! resolves the terms of a burst against it while no event burst is in
//! flight (so the mirror and every healthy shard's store hold the same
//! documents) and ships the [`TermPostings`] with the request, and so does a
//! rebuild; the shard files
//! what it finds newly live and never reads its own store
//! ([`ItaEngine::register_entries_walked`] stays 0 on every shard). Arrival
//! and expiry do no term work on the mirror (DESIGN.md §9). The randomized
//! differential test in `tests/sharded_equivalence.rs` enforces
//! byte-identical results and event outcomes against [`ItaEngine`] across
//! shard counts, deregistration and window expiry; `tests/chaos_recovery.rs`
//! enforces exact results with faults injected and rebuilt mid-stream, and
//! identical outcomes up to the first fault.

use std::cell::RefCell;
// cts-lint: allow(nondet-iteration, the one set below is membership-only; nothing iterates its order)
use std::collections::{BTreeMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cts_index::{
    DocId, Document, IndexStats, QueryId, SlidingWindow, TermPostings, Timestamp, WindowTerms,
    WindowTermsStats,
};

use crate::engine::{Engine, EventOutcome};
use crate::fault::{is_poison_document, EngineError, FaultStats, ShardFault};
use crate::ita::{ItaConfig, ItaEngine, ItaQueryStats};
use crate::query::ContinuousQuery;
use crate::result::RankedDocument;
use crate::stats::ProcessingStats;

/// A registration burst as it travels: each query under its globally
/// assigned id, every query one allocation shared by the coordinator's
/// registry and the worker's engine.
type SharedQueries = Arc<[(QueryId, Arc<ContinuousQuery>)]>;

/// A request travelling coordinator → shard on the shard's SPSC channel.
enum ShardRequest {
    /// Register a burst of queries, each under its globally assigned id, in
    /// one round-trip (synchronous), with the window postings of the whole
    /// burst's terms as the coordinator resolved them against its mirror.
    /// The shard files the ones its own queries bring live
    /// ([`ItaEngine::register_shared_batch`]) and reads nothing out of its
    /// store. Single registrations are a one-element burst (the
    /// [`Engine::register_batch`] contract makes that byte-identical). The
    /// queries are shared with the coordinator's registry, the postings with
    /// the other shards.
    RegisterBatch(SharedQueries, Arc<TermPostings>),
    /// Remove a query (synchronous; replies whether it existed).
    Deregister(QueryId),
    /// Process a fanned-out burst of stream events — a single event is a
    /// burst of one — in one round-trip (synchronous; replies with one
    /// [`EventOutcome`] per document, in order). The burst itself is shared:
    /// `N` shards cost one refcount bump each, not one per document each.
    ProcessBatch(Arc<[Arc<Document>]>),
    /// Read a query's current top-k.
    Results(QueryId),
    /// Read a query's ITA bookkeeping snapshot.
    QueryStats(QueryId),
    /// Read the shard's shadow-index statistics.
    IndexStats,
    /// Read the shard's accumulated per-worker processing statistics.
    Stats,
    /// Zero the shard's processing statistics (e.g. after an untimed
    /// fill/register phase, so later readings cover only measured events).
    ResetStats,
    /// Arm one injected fault: the next stream event is applied for real and
    /// the worker then panics mid-request, poisoning the shard.
    ArmFault,
    /// Rebuild the shard from the coordinator's durable state: a fresh
    /// term-filtered engine loaded with the given window (the mirror's
    /// documents, oldest first), then the given queries registered with the
    /// postings the coordinator resolved for their terms over that window.
    /// Clears any poisoning.
    Rebuild(Vec<Arc<Document>>, SharedQueries, Arc<TermPostings>),
    /// Audit the shard engine's deep structural invariants, that its store
    /// holds exactly the given documents (the coordinator's mirror, oldest
    /// first) and that it hosts exactly the given queries (the registry's
    /// ids that hash to this shard) (synchronous; replies
    /// [`ShardReply::InvariantsChecked`]). A violation panics inside the
    /// worker's guard and surfaces as a [`ShardReply::Fault`] carrying the
    /// assertion message. Driven by the testkit lockstep runner under the
    /// `invariant-checks` feature; never sent on production paths.
    CheckInvariants(Arc<[DocId]>, Vec<QueryId>),
    /// Drain the worker's final stats and exit the thread (the shutdown
    /// handshake that keeps stats from being lost on drop).
    Shutdown,
    /// Test hook: exit the worker thread *without* replying, exactly as a
    /// killed thread would look from the coordinator's side.
    Crash,
}

/// A reply travelling shard → coordinator, always in request order (each
/// channel pair carries at most one outstanding request per shard).
enum ShardReply {
    Registered,
    Deregistered(bool),
    /// The per-document outcomes, in order.
    ProcessedBatch(Vec<EventOutcome>),
    Results(Vec<RankedDocument>),
    QueryStats(Option<ItaQueryStats>),
    IndexStats(IndexStats),
    Stats(ProcessingStats),
    StatsReset,
    Armed,
    Rebuilt,
    /// The shard's engine passed its structural audit.
    InvariantsChecked,
    /// The worker's final stats, sent once in response to
    /// [`ShardRequest::Shutdown`] just before the thread exits.
    ShuttingDown(ProcessingStats),
    /// The request could not be served: the worker caught a panic serving it
    /// (or its state is already gone). The shard is degraded until the
    /// coordinator rebuilds it.
    Fault(ShardFault),
}

/// Renders a caught panic payload as the fault context string.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The per-thread state of one shard worker: the engine (or the fault that
/// poisoned it), local processing stats, and the fault-injection hooks.
struct ShardWorker {
    shard: usize,
    window: SlidingWindow,
    /// The engine — or, while the shard is poisoned, the fault that dropped
    /// it, replayed to every request that needs the engine until a rebuild.
    engine: Result<ItaEngine, ShardFault>,
    stats: ProcessingStats,
    /// Injected faults armed via [`ShardRequest::ArmFault`]; each is
    /// consumed by one stream event, and a rebuild on this thread keeps the
    /// rest armed.
    armed_faults: u32,
    /// Poison documents already detonated once on this thread — a document
    /// a rebuild loads from the mirror is never processed again anyway.
    seen_poison: HashSet<u64>, // cts-lint: allow(nondet-iteration, membership probes only; never iterated)
}

impl ShardWorker {
    fn new(shard: usize, window: SlidingWindow) -> Self {
        Self {
            shard,
            window,
            engine: Ok(ItaEngine::term_filtered(window)),
            stats: ProcessingStats::default(),
            armed_faults: 0,
            seen_poison: HashSet::new(), // cts-lint: allow(nondet-iteration, membership probes only; never iterated)
        }
    }

    /// Whether this event should detonate: an armed injected fault, or the
    /// first sighting of a poison document. The injection models a
    /// *partial* failure: the event is applied for real, then the panic
    /// fires.
    fn take_injection(&mut self, doc: &Document) -> bool {
        if self.armed_faults > 0 {
            self.armed_faults -= 1;
            return true;
        }
        is_poison_document(doc) && self.seen_poison.insert(doc.id.0)
    }

    /// Processes and times one stream event. A panic — the engine's or an
    /// injected one, which fires after the event is applied — unwinds to
    /// [`ShardWorker::guarded`], which poisons the shard.
    fn process_one(&mut self, doc: Arc<Document>) -> Result<EventOutcome, ShardFault> {
        let inject = self.take_injection(&doc);
        let doc_id = doc.id;
        let engine = self.live_mut()?;
        let start = Instant::now(); // cts-lint: allow(clock-in-apply, times the event for stats; never read by engine state)
        let outcome = engine.process_shared(doc);
        let elapsed = start.elapsed();
        if inject {
            // cts-lint: allow(panic-in-hot-path, deliberate injected fault; the recovery machinery under test)
            panic!("injected fault while processing document {}", doc_id.0);
        }
        self.stats.record(&outcome, elapsed);
        Ok(outcome)
    }

    /// The engine, for a request that only reads it — or the fault to
    /// report while the shard's state is gone.
    fn live(&self) -> Result<&ItaEngine, ShardFault> {
        self.engine.as_ref().map_err(ShardFault::clone)
    }

    /// The engine, for a request that changes it.
    fn live_mut(&mut self) -> Result<&mut ItaEngine, ShardFault> {
        self.engine.as_mut().map_err(|fault| fault.clone())
    }

    /// Serves [`ShardRequest::CheckInvariants`]. A violation panics right
    /// here; `guarded` converts it into a `Fault` reply carrying the message.
    fn audit(&self, mirror: &[DocId], hosted: &[QueryId]) -> Result<ShardReply, ShardFault> {
        let engine = self.live()?;
        engine.check_invariants();
        // Shipped postings are only right if the coordinator resolved them
        // over the very documents this store holds.
        assert!(
            engine
                .store_documents()
                .map(|doc| doc.id)
                .eq(mirror.iter().copied()),
            "the shard's store and the coordinator's mirror hold different documents"
        );
        // Placement is the hash: the registry's distinct ids that hash here,
        // and no other query.
        assert!(
            engine.num_queries() == hosted.len()
                && hosted.iter().all(|qid| engine.query_stats(*qid).is_some()),
            "shard {} hosts {} queries, not the {} the registry places on it",
            self.shard,
            engine.num_queries(),
            hosted.len()
        );
        Ok(ShardReply::InvariantsChecked)
    }

    /// Serves one request under the worker's one panic guard: a panic
    /// anywhere in it poisons the shard — the engine state is dropped, every
    /// engine-touching request replies `fault` until the coordinator
    /// rebuilds the shard — instead of unwinding the thread. The one place a
    /// fault becomes a reply.
    fn guarded(&mut self, request: ShardRequest) -> ShardReply {
        match catch_unwind(AssertUnwindSafe(|| self.handle(request))) {
            Ok(reply) => reply.unwrap_or_else(ShardReply::Fault),
            Err(payload) => {
                let fault = ShardFault {
                    shard: self.shard,
                    context: panic_message(payload.as_ref()),
                };
                self.engine = Err(fault.clone());
                ShardReply::Fault(fault)
            }
        }
    }

    fn handle(&mut self, request: ShardRequest) -> Result<ShardReply, ShardFault> {
        Ok(match request {
            ShardRequest::RegisterBatch(batch, postings) => {
                self.live_mut()?.register_shared_batch(&batch, &postings);
                ShardReply::Registered
            }
            ShardRequest::Deregister(qid) => {
                ShardReply::Deregistered(self.live_mut()?.deregister(qid))
            }
            ShardRequest::ProcessBatch(docs) => {
                // One channel round-trip covers the whole burst; the worker
                // still processes and times each event individually, so the
                // outcomes and the per-worker stats do not depend on how the
                // stream was cut into bursts. A mid-batch fault fails the
                // whole batch reply (the shard is degraded anyway).
                let mut outcomes = Vec::with_capacity(docs.len());
                for doc in docs.iter() {
                    outcomes.push(self.process_one(Arc::clone(doc))?);
                }
                ShardReply::ProcessedBatch(outcomes)
            }
            ShardRequest::Results(qid) => ShardReply::Results(self.live()?.current_results(qid)),
            ShardRequest::QueryStats(qid) => ShardReply::QueryStats(self.live()?.query_stats(qid)),
            ShardRequest::IndexStats => ShardReply::IndexStats(self.live()?.index_stats()),
            ShardRequest::Stats => ShardReply::Stats(self.stats),
            ShardRequest::ResetStats => {
                self.stats = ProcessingStats::default();
                ShardReply::StatsReset
            }
            ShardRequest::ArmFault => {
                self.armed_faults += 1;
                ShardReply::Armed
            }
            ShardRequest::CheckInvariants(mirror, hosted) => self.audit(&mirror, &hosted)?,
            ShardRequest::Rebuild(window_docs, queries, postings) => {
                // The mirror holds only currently valid documents, so loading
                // them triggers no expiration, and with no query live it
                // files nothing and runs no threshold work. Then the shard's
                // queries register as any burst does, with their postings
                // resolved over those documents. No injection check and no
                // stats recording: recovery work is not stream work.
                let mut engine = ItaEngine::term_filtered(self.window);
                for doc in window_docs {
                    engine.process_shared(doc);
                }
                engine.register_shared_batch(&queries, &postings);
                self.engine = Ok(engine);
                ShardReply::Rebuilt
            }
            ShardRequest::Shutdown | ShardRequest::Crash => {
                // cts-lint: allow(panic-in-hot-path, the worker loop intercepts lifecycle requests before handle)
                unreachable!("lifecycle requests are handled by the worker loop")
            }
        })
    }
}

/// How long a worker that has just replied keeps polling its queue before
/// it parks. The coordinator's requests come in runs — a burst, then a
/// registration, its result reads and deregistrations, one shard at a time —
/// and a worker parked between two of them is woken wherever the scheduler
/// finds an idle core, which on a box with fewer cores than threads is the
/// core the *other* parked worker last ran on: the next fan-out then starts
/// both on one core, one after the other (74% of bursts on the 2-core
/// sandbox once registration stopped keeping the workers busy;
/// `register_churn.event_us` 28 → 40). Polling through the run keeps each
/// worker where it is. 20 µs does not bridge the gaps, 50 µs and up do
/// (DESIGN.md §9 has the sweep); the poll yields, so a thread waiting for
/// the core gets it.
const LINGER: Duration = Duration::from_micros(100);

/// The worker's next request: polled for while [`LINGER`] lasts, then
/// awaited. `None` once the coordinator has hung up.
fn next_request(requests: &Receiver<ShardRequest>) -> Option<ShardRequest> {
    let lingering = Instant::now(); // cts-lint: allow(clock-in-apply, bounds the poll before parking; never read by engine state)
    while lingering.elapsed() < LINGER {
        match requests.try_recv() {
            Ok(request) => return Some(request),
            Err(TryRecvError::Empty) => std::thread::yield_now(),
            Err(TryRecvError::Disconnected) => return None,
        }
    }
    requests.recv().ok()
}

/// The persistent worker loop: one guarded [`ShardWorker`] driven by the
/// shard's request channel until the coordinator hangs up or sends the
/// shutdown handshake. A panic while serving a request is caught and
/// reported as [`ShardReply::Fault`]; it never unwinds the thread.
fn worker_loop(
    shard: usize,
    window: SlidingWindow,
    requests: Receiver<ShardRequest>,
    replies: Sender<ShardReply>,
) {
    let mut worker = ShardWorker::new(shard, window);
    while let Some(request) = next_request(&requests) {
        let reply = match request {
            ShardRequest::Shutdown => {
                // Final-stats handshake: surrendering the accumulated stats
                // in the reply is what keeps them from dying with the
                // thread.
                let _ = replies.send(ShardReply::ShuttingDown(worker.stats));
                return;
            }
            ShardRequest::Crash => return,
            request => worker.guarded(request),
        };
        if replies.send(reply).is_err() {
            // The coordinator is gone; nothing left to serve.
            break;
        }
    }
}

/// One shard's channels and thread handle, as owned by the coordinator.
#[derive(Debug)]
struct ShardHandle {
    sender: Sender<ShardRequest>,
    receiver: Receiver<ShardReply>,
    thread: Option<JoinHandle<()>>,
}

/// Fault counters and per-shard degradation flags, behind a [`RefCell`] so
/// the `&self` read paths (which may *observe* a fault but cannot repair
/// it) can still account for what they saw. The engine is not `Sync` (its
/// channel `Sender`s already are not), so the single-threaded `RefCell`
/// discipline costs nothing.
#[derive(Debug)]
struct FaultState {
    stats: FaultStats,
    degraded: Vec<bool>,
}

/// The paper's ITA, executed across `N` query-partitioned worker shards
/// with panic isolation and supervised recovery.
///
/// Implements [`Engine`] with results byte-identical to the single-shard
/// [`ItaEngine`] over any stream — including streams with worker faults —
/// and event outcomes byte-identical up to the first fault, after which they
/// are a rebuilt shard's. See the module docs for the partitioning rule, the
/// fan-out and batch protocols, the fault model and the exactness argument.
#[derive(Debug)]
pub struct ShardedItaEngine {
    /// Per-shard channels + thread handles. Workers are respawned in place
    /// by a rebuild, so the vector length is the shard count.
    workers: Vec<ShardHandle>,
    window: SlidingWindow,
    /// Durable copy of every registered query, in id order. Its keys are the
    /// registered set, each living on the shard its id hashes to
    /// ([`ShardedItaEngine::shard_of`]) — with `mirror`, everything a
    /// rebuild needs. Updated **before**
    /// any fan-out, so a request lost to a crashed worker is still
    /// reconstructible.
    registry: BTreeMap<QueryId, Arc<ContinuousQuery>>,
    /// Durable mirror of the sliding window (oldest first), pruned with the
    /// exact policy the workers apply. The `Arc`s are shared with the
    /// workers' stores, so the mirror costs pointers, not documents — plus
    /// the term directories registrations have built over its sealed chunks,
    /// which is what makes it the one place a registration's postings are
    /// resolved, and (with its id set) where duplicate ids are refused.
    mirror: WindowTerms,
    fault_state: RefCell<FaultState>,
    next_query: u32,
    clock: Timestamp,
}

impl ShardedItaEngine {
    /// Creates an engine with `shards` persistent worker shards, each
    /// running a term-filtered [`ItaEngine`] under the given window policy.
    /// The [`ItaConfig`] is empty and ignored.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`, or with the io error if any worker thread
    /// fails to spawn: an engine runs on exactly the shards it was asked for.
    pub fn new(window: SlidingWindow, _config: ItaConfig, shards: usize) -> Self {
        assert!(shards > 0, "a sharded engine needs at least one shard");
        let workers: Vec<ShardHandle> = (0..shards)
            .map(|shard| match Self::spawn_worker(shard, window) {
                Ok(handle) => handle,
                // cts-lint: allow(panic-in-hot-path, construction fails loudly rather than run on fewer shards than asked for)
                Err(error) => panic!("could not spawn shard worker {shard}: {error}"),
            })
            .collect();
        Self {
            workers,
            window,
            registry: BTreeMap::new(),
            mirror: WindowTerms::new(),
            fault_state: RefCell::new(FaultState {
                stats: FaultStats::default(),
                degraded: vec![false; shards],
            }),
            next_query: 0,
            clock: Timestamp::ZERO,
        }
    }

    fn spawn_worker(shard: usize, window: SlidingWindow) -> std::io::Result<ShardHandle> {
        let (request_tx, request_rx) = std::sync::mpsc::channel();
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        let thread = std::thread::Builder::new()
            .name(format!("cts-shard-{shard}"))
            .spawn(move || worker_loop(shard, window, request_rx, reply_tx))?;
        Ok(ShardHandle {
            sender: request_tx,
            receiver: reply_rx,
            thread: Some(thread),
        })
    }

    /// Number of worker shards: always the count [`ShardedItaEngine::new`]
    /// was given.
    pub fn num_shards(&self) -> usize {
        self.workers.len()
    }

    /// The sliding-window policy in force.
    pub fn window(&self) -> SlidingWindow {
        self.window
    }

    /// Queries moved between shards: always 0, since a query lives on its
    /// hash shard for life. Kept only because the frozen `ctsbench` adapter
    /// reports it as `sharded.migrations`.
    pub fn migrations(&self) -> u64 {
        0
    }

    /// The placement rule, and the whole routing: the shard that hosts
    /// `query` from registration to deregistration.
    /// Fibonacci-hashing the id spreads both sequential registration order
    /// and arbitrary (churned) id sets evenly across shards, and stays
    /// stable for a given id across deregistrations. The shard is taken from
    /// the hash's **high** bits via a multiply-shift — `hash % N` would keep
    /// only the low bits, which for power-of-two `N` degenerate to a
    /// permutation of the id's own low bits (an all-even surviving id set
    /// would then occupy only half the shards).
    pub fn shard_of(&self, query: QueryId) -> usize {
        let hashed = (u64::from(query.0)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((u128::from(hashed) * self.workers.len() as u128) >> 64) as usize
    }

    /// The shard hosting `query`, if it is registered.
    fn host(&self, query: QueryId) -> Option<usize> {
        self.registry
            .contains_key(&query)
            .then(|| self.shard_of(query))
    }

    fn is_degraded(&self, shard: usize) -> bool {
        self.fault_state.borrow().degraded[shard]
    }

    /// Marks `shard` degraded, counting a fault when it was healthy — the
    /// same for a `Fault` reply as for a disconnect.
    fn mark_degraded(&self, shard: usize) {
        let mut state = self.fault_state.borrow_mut();
        if !state.degraded[shard] {
            state.stats.faults += 1;
            state.degraded[shard] = true;
        }
    }

    /// Sends one request to `shard`, marking it degraded on disconnect.
    fn send(&self, shard: usize, request: ShardRequest) -> Result<(), EngineError> {
        if self.workers[shard].sender.send(request).is_err() {
            self.mark_degraded(shard);
            return Err(EngineError::ShardUnavailable { shard });
        }
        Ok(())
    }

    /// Receives one reply from `shard`, converting faults and disconnects
    /// into typed errors (marking the shard degraded).
    fn recv_reply(&self, shard: usize) -> Result<ShardReply, EngineError> {
        match self.workers[shard].receiver.recv() {
            Ok(ShardReply::Fault(fault)) => {
                self.mark_degraded(shard);
                Err(EngineError::ShardFault(fault))
            }
            Ok(reply) => Ok(reply),
            Err(_) => {
                self.mark_degraded(shard);
                Err(EngineError::ShardUnavailable { shard })
            }
        }
    }

    /// Sends one request to `shard` and blocks for its reply.
    fn call_shard(&self, shard: usize, request: ShardRequest) -> Result<ShardReply, EngineError> {
        self.send(shard, request)?;
        self.recv_reply(shard)
    }

    /// Sends `request` to `shard` and says whether a reply is now pending —
    /// the one place a fan-out meets a worker that died unseen, which marks
    /// the shard degraded. A registration needs nothing more (`resend`
    /// false): the caller's closing [`ShardedItaEngine::recover_degraded`]
    /// runs it from the registry. Stream events cannot wait for that — they
    /// reach the mirror only after the fan-out — so the shard is rebuilt on
    /// the spot and sent the burst again: it holds the exact pre-burst
    /// window, and its share of the outcome survives.
    fn send_or_resurrect(&mut self, shard: usize, request: ShardRequest, resend: bool) -> bool {
        let Err(std::sync::mpsc::SendError(request)) = self.workers[shard].sender.send(request)
        else {
            return true;
        };
        self.mark_degraded(shard);
        resend && self.resurrect(shard).is_ok() && self.send(shard, request).is_ok()
    }

    /// Rebuilds every degraded shard from the durable registry + window
    /// mirror. Every mutating call runs it before its fan-out, for shards a
    /// read or a failed rebuild left degraded, and again after its receive
    /// loop, for shards the call itself degraded — never in between: an
    /// early return mid-broadcast would leave replies in the channels for
    /// the next call to read as its own (DESIGN.md §10).
    fn recover_degraded(&mut self) -> Result<(), EngineError> {
        for shard in 0..self.workers.len() {
            if self.is_degraded(shard) {
                self.resurrect(shard)?;
            }
        }
        Ok(())
    }

    /// The one recovery path, for one shard: respawn the worker thread if it
    /// is gone, then rebuild its engine as a registration of its queries —
    /// the registry's ids that hash to it, in id order — over the mirror,
    /// with their postings resolved here as
    /// [`ShardedItaEngine::try_register_batch`] resolves a burst's. Rebuilt
    /// results are exact; the thresholds are a fresh registration's, so
    /// future work counters need not match a fault-free history — see
    /// DESIGN.md §10.
    fn resurrect(&mut self, shard: usize) -> Result<(), EngineError> {
        let start = Instant::now(); // cts-lint: allow(clock-in-apply, measures recovery cost only; never read by engine state)
        let queries: SharedQueries = self
            .registry
            .iter()
            .filter(|(qid, _)| self.shard_of(**qid) == shard)
            .map(|(qid, query)| (*qid, Arc::clone(query)))
            .collect();
        let terms = queries
            .iter()
            .flat_map(|(_, query)| query.terms().map(|(term, _)| term));
        let postings = Arc::new(self.mirror.postings(terms));
        let rebuild = |engine: &Self| {
            let window = engine.mirror.iter().cloned().collect();
            ShardRequest::Rebuild(window, queries.clone(), Arc::clone(&postings))
        };
        let mut reply = self.call_shard(shard, rebuild(self));
        if matches!(reply, Err(EngineError::ShardUnavailable { .. })) {
            // The thread is gone, not just poisoned — and an exiting thread
            // can still accept the request before it hangs up, so a
            // disconnect on either leg means respawn, then resend.
            self.respawn(shard)?;
            self.send(shard, rebuild(self))?;
            reply = self.recv_reply(shard);
        }
        match reply? {
            ShardReply::Rebuilt => {
                let mut state = self.fault_state.borrow_mut();
                state.degraded[shard] = false;
                state.stats.recoveries += 1;
                state.stats.recovery_micros += start.elapsed().as_micros() as u64;
                Ok(())
            }
            _ => unreachable!("shard replied out of order"), // cts-lint: allow(panic-in-hot-path, the SPSC protocol pairs every reply with its request)
        }
    }

    /// Replaces a dead worker thread with a fresh one (empty engine, same
    /// shard index). The caller follows up with a [`ShardRequest::Rebuild`].
    /// A failed spawn is not retried here: the shard stays degraded, the call
    /// returns [`EngineError::ShardUnavailable`], and the next mutating call
    /// tries again.
    fn respawn(&mut self, shard: usize) -> Result<(), EngineError> {
        if let Some(thread) = self.workers[shard].thread.take() {
            // The thread already exited (its channel disconnected); reap it.
            let _ = thread.join();
        }
        self.workers[shard] = Self::spawn_worker(shard, self.window)
            .map_err(|_| EngineError::ShardUnavailable { shard })?;
        Ok(())
    }

    /// Appends `doc` to the durable window mirror and prunes it with the
    /// exact policy the workers apply, returning how many documents expired
    /// (cross-checked against the shards' outcomes in debug builds).
    fn push_mirror(&mut self, doc: Arc<Document>) -> usize {
        let now = doc.arrival;
        self.mirror.push(doc);
        self.mirror.expire(self.window, now)
    }

    /// An id of `docs` that is still in the window or occurs twice among
    /// them: every worker would refuse it mid-burst by panicking, and the
    /// mirror would hand it to every rebuild.
    fn first_duplicate(&self, docs: &[Document]) -> Option<DocId> {
        let mut ids: Vec<DocId> = docs.iter().map(|doc| doc.id).collect();
        ids.sort_unstable();
        ids.windows(2)
            .find(|pair| pair[0] == pair[1])
            .map(|pair| pair[0])
            .or_else(|| ids.into_iter().find(|id| self.mirror.contains(*id)))
    }

    /// Fallible single-event processing: the `try_*` twin of
    /// [`Engine::process_document`] — a burst of one through
    /// [`ShardedItaEngine::try_process_batch`].
    pub fn try_process(&mut self, doc: Document) -> Result<EventOutcome, EngineError> {
        let outcome = self.try_process_batch(vec![doc])?.pop();
        // cts-lint: allow(panic-in-hot-path, try_process_batch returns exactly one outcome per document)
        Ok(outcome.expect("one outcome per document")) // cts-lint: allow(unwrap-in-service, try_process_batch returns exactly one outcome per document)
    }

    /// Fallible burst processing: the `try_*` twin of
    /// [`Engine::process_batch`], and the one path a stream event takes to
    /// the shards. A burst that repeats an id, or names one still in the
    /// window, is refused whole with [`EngineError::DuplicateDocument`]
    /// before anything moves. Every degraded shard is rebuilt before the
    /// fan-out, and a mid-burst fault before returning: a worker found dead
    /// at the send is rebuilt and sent the burst again, so its share of the
    /// outcomes survives; a worker that faults on the burst is rebuilt from
    /// the mirror, which holds the burst by then, and its share of the
    /// burst's outcomes is lost (results stay exact).
    pub fn try_process_batch(
        &mut self,
        docs: Vec<Document>,
    ) -> Result<Vec<EventOutcome>, EngineError> {
        let Some(last) = docs.last() else {
            return Ok(Vec::new());
        };
        if let Some(id) = self.first_duplicate(&docs) {
            return Err(EngineError::DuplicateDocument(id));
        }
        self.recover_degraded()?;
        self.clock = last.arrival;
        let docs: Arc<[Arc<Document>]> = docs.into_iter().map(Arc::new).collect();
        let mut pending = Vec::with_capacity(self.workers.len());
        for shard in 0..self.workers.len() {
            let request = ShardRequest::ProcessBatch(Arc::clone(&docs));
            if self.send_or_resurrect(shard, request, true) {
                pending.push(shard);
            }
        }
        // The burst becomes durable before outcomes are read: any recovery
        // from here on replays it from the mirror. The mirror's view seeds
        // the merge: `merge_shard` debug-checks every shard's expirations
        // against it, and a burst no shard answered still reports them.
        let mut merged: Vec<EventOutcome> = docs
            .iter()
            .map(|doc| EventOutcome {
                arrived: doc.id,
                expired: self.push_mirror(Arc::clone(doc)),
                ..EventOutcome::default()
            })
            .collect();
        for shard in pending {
            match self.recv_reply(shard) {
                Ok(ShardReply::ProcessedBatch(outcomes)) => {
                    debug_assert_eq!(outcomes.len(), merged.len(), "shards saw different bursts");
                    for (into, outcome) in merged.iter_mut().zip(&outcomes) {
                        into.merge_shard(outcome);
                    }
                }
                Ok(_) => unreachable!("shard replied out of order"), // cts-lint: allow(panic-in-hot-path, the SPSC protocol pairs every reply with its request)
                // The shard is marked degraded and rebuilt below.
                Err(_) => {}
            }
        }
        self.recover_degraded()?;
        Ok(merged)
    }

    /// Fallible registration burst: the `try_*` twin of
    /// [`Engine::register_batch`]. The window postings of the burst's terms
    /// are resolved here, once, against the mirror — no event burst is in
    /// flight, so every healthy shard's store holds the mirror's documents —
    /// and shipped to the shards, which file them instead of reading the
    /// window themselves. Each query goes to its hash shard
    /// ([`ShardedItaEngine::shard_of`]). The registry is updated **before**
    /// the fan-out, so a worker fault during registration is recoverable:
    /// the rebuild re-registers the batch from the registry. On error the
    /// registry keeps the minted registrations; the next mutating call's
    /// rebuild makes the workers agree.
    pub fn try_register_batch(
        &mut self,
        queries: Vec<ContinuousQuery>,
    ) -> Result<Vec<QueryId>, EngineError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        self.recover_degraded()?;
        let mut per_shard: Vec<Vec<(QueryId, Arc<ContinuousQuery>)>> =
            vec![Vec::new(); self.workers.len()];
        let mut ids = Vec::with_capacity(queries.len());
        for query in queries {
            let qid = QueryId(self.next_query);
            self.next_query += 1;
            let query = Arc::new(query);
            per_shard[self.shard_of(qid)].push((qid, Arc::clone(&query)));
            // Durable state first: a fault from here on resurrects with the
            // new queries included.
            self.registry.insert(qid, query);
            ids.push(qid);
        }
        // One resolve serves every shard: the union of the burst's terms,
        // sorted, so nothing depends on which shard a term's query went to.
        let postings = Arc::new(
            self.mirror.postings(
                per_shard
                    .iter()
                    .flatten()
                    .flat_map(|(_, query)| query.terms().map(|(term, _)| term)),
            ),
        );
        // Send every shard's group before awaiting any reply, so the shards
        // file their lists and run their threshold searches in parallel.
        let mut pending = Vec::new();
        for (shard, group) in per_shard.iter_mut().enumerate() {
            if group.is_empty() {
                continue;
            }
            let request =
                ShardRequest::RegisterBatch(std::mem::take(group).into(), Arc::clone(&postings));
            if self.send_or_resurrect(shard, request, false) {
                pending.push(shard);
            }
        }
        for shard in pending {
            match self.recv_reply(shard) {
                Ok(ShardReply::Registered) => {}
                Ok(_) => unreachable!("shard replied out of order"), // cts-lint: allow(panic-in-hot-path, the SPSC protocol pairs every reply with its request)
                // The shard is marked degraded; its rebuild below registers
                // the burst from the registry.
                Err(_) => {}
            }
        }
        self.recover_degraded()?;
        Ok(ids)
    }

    /// Fallible deregistration: the `try_*` twin of [`Engine::deregister`],
    /// surfacing [`EngineError::UnknownQuery`] instead of `false`. Durable
    /// state is updated first, so a worker fault during removal is
    /// recoverable (the rebuild simply omits the query).
    pub fn try_deregister(&mut self, query: QueryId) -> Result<bool, EngineError> {
        self.recover_degraded()?;
        if self.registry.remove(&query).is_none() {
            return Err(EngineError::UnknownQuery(query));
        }
        let shard = self.shard_of(query);
        match self.call_shard(shard, ShardRequest::Deregister(query)) {
            Ok(ShardReply::Deregistered(removed)) => {
                assert!(
                    removed,
                    "shard {shard} did not host {query}, its hash shard"
                );
            }
            Ok(_) => unreachable!("shard replied out of order"), // cts-lint: allow(panic-in-hot-path, the SPSC protocol pairs every reply with its request)
            // Durable state already dropped the query; the rebuild leaves
            // it out.
            Err(_) => self.recover_degraded()?,
        }
        Ok(true)
    }

    /// A query's ITA bookkeeping snapshot, if it is registered and its shard
    /// is healthy (served by its hash shard; `None` while the shard is
    /// degraded).
    pub fn query_stats(&self, query: QueryId) -> Option<ItaQueryStats> {
        let shard = self.host(query)?;
        if self.is_degraded(shard) {
            return None;
        }
        match self.call_shard(shard, ShardRequest::QueryStats(query)) {
            Ok(ShardReply::QueryStats(stats)) => stats,
            Ok(_) => unreachable!("shard replied out of order"), // cts-lint: allow(panic-in-hot-path, the SPSC protocol pairs every reply with its request)
            Err(_) => None,
        }
    }

    /// Per-shard shadow-index statistics, in shard order. Postings sum to
    /// the sharded system's total index footprint (terms referenced by
    /// queries in two shards are mirrored in both); every healthy shard
    /// reports the same document count. Degraded shards report zeroed
    /// stats.
    pub fn shard_index_stats(&self) -> Vec<IndexStats> {
        self.broadcast_collect(
            || ShardRequest::IndexStats,
            |reply| match reply {
                ShardReply::IndexStats(stats) => stats,
                _ => unreachable!("shard replied out of order"), // cts-lint: allow(panic-in-hot-path, the SPSC protocol pairs every reply with its request)
            },
            |_| IndexStats::default(),
        )
    }

    /// Sizes and counters of the coordinator's [`WindowTerms`] — the window
    /// mirror every registration's postings are resolved against: how many
    /// chunks it spans and how many carry a term directory (and their
    /// bytes), composition entries read by walks, postings answered from
    /// directories and from walks, directories built.
    pub fn window_terms_stats(&self) -> WindowTermsStats {
        self.mirror.stats()
    }

    /// Per-shard processing statistics (each worker times its own event
    /// handling), in shard order. Degraded shards report zeroed stats.
    pub fn shard_stats(&self) -> Vec<ProcessingStats> {
        self.broadcast_collect(
            || ShardRequest::Stats,
            |reply| match reply {
                ShardReply::Stats(stats) => stats,
                _ => unreachable!("shard replied out of order"), // cts-lint: allow(panic-in-hot-path, the SPSC protocol pairs every reply with its request)
            },
            |_| ProcessingStats::default(),
        )
    }

    /// Zeroes every worker's processing statistics. Call after an untimed
    /// setup phase (window fill, workload registration) so
    /// [`ShardedItaEngine::shard_stats`] and
    /// [`ShardedItaEngine::aggregate_shard_stats`] cover only the events
    /// processed afterwards.
    pub fn reset_shard_stats(&mut self) {
        let acks = self.broadcast_collect(
            || ShardRequest::ResetStats,
            |reply| matches!(reply, ShardReply::StatsReset),
            // A degraded shard's eventual rebuild starts from zeroed stats
            // anyway.
            |_| true,
        );
        assert!(acks.iter().all(|ok| *ok), "shard replied out of order");
    }

    /// The exact aggregate of every worker's processing statistics, merged
    /// with [`ProcessingStats::absorb`]. `events` counts each stream event
    /// once per shard (every shard handles every event); `total_time` is the
    /// summed busy time across workers — divide by the caller's own
    /// wall-clock event time to read parallel utilisation;
    /// `max_event_time` is the slowest single event any worker processed,
    /// whatever the bursts were.
    pub fn aggregate_shard_stats(&self) -> ProcessingStats {
        let mut merged = ProcessingStats::default();
        for stats in self.shard_stats() {
            merged.absorb(&stats);
        }
        merged
    }

    /// Consumes the engine, draining and returning the exact aggregate of
    /// the workers' final [`ProcessingStats`] through the shutdown
    /// handshake (what a plain drop would discard).
    pub fn shutdown(mut self) -> ProcessingStats {
        self.drain()
    }

    /// The shutdown path shared by [`ShardedItaEngine::shutdown`] and
    /// `Drop`: handshake each worker's final stats out, close the channels,
    /// join the threads. Idempotent — the second call sees no workers.
    fn drain(&mut self) -> ProcessingStats {
        let mut merged = ProcessingStats::default();
        for mut handle in self.workers.drain(..) {
            if handle.sender.send(ShardRequest::Shutdown).is_ok() {
                while let Ok(reply) = handle.receiver.recv() {
                    if let ShardReply::ShuttingDown(stats) = reply {
                        merged.absorb(&stats);
                        break;
                    }
                }
            }
            if let Some(thread) = handle.thread.take() {
                if thread.join().is_err() && !std::thread::panicking() {
                    // cts-lint: allow(panic-in-hot-path, shutdown path surfacing a worker panic that escaped the guards)
                    panic!("a shard worker panicked; see stderr for the root cause");
                }
            }
        }
        merged
    }

    /// Fans one request to every healthy shard, then collects the replies
    /// in shard order, substituting `fallback` for degraded or faulting
    /// shards (the fan-out/fan-in of the read-only requests: index and
    /// processing statistics, and the stats reset).
    fn broadcast_collect<T>(
        &self,
        mut request: impl FnMut() -> ShardRequest,
        mut unwrap: impl FnMut(ShardReply) -> T,
        mut fallback: impl FnMut(usize) -> T,
    ) -> Vec<T> {
        let shards = self.workers.len();
        let mut sent = vec![false; shards];
        for (shard, sent) in sent.iter_mut().enumerate() {
            if self.is_degraded(shard) {
                continue;
            }
            *sent = self.send(shard, request()).is_ok();
        }
        (0..shards)
            .map(|shard| {
                if !sent[shard] {
                    return fallback(shard);
                }
                match self.recv_reply(shard) {
                    Ok(reply) => unwrap(reply),
                    Err(_) => fallback(shard),
                }
            })
            .collect()
    }

    /// Test hook for the chaos suite: makes `shard`'s worker thread exit
    /// without replying, exactly as a killed thread would look from the
    /// coordinator's side. The next operation that touches the shard
    /// observes the disconnect: a mutating one rebuilds the shard before it
    /// returns, a read answers with its fallback and leaves the rebuild to
    /// the next mutating call. Returns whether the crash request reached the
    /// worker.
    pub fn inject_disconnect(&mut self, shard: usize) -> bool {
        let shard = shard % self.workers.len();
        self.workers[shard].sender.send(ShardRequest::Crash).is_ok()
    }
}

impl Engine for ShardedItaEngine {
    fn register(&mut self, query: ContinuousQuery) -> QueryId {
        self.register_batch(vec![query])
            .pop()
            // cts-lint: allow(panic-in-hot-path, register_batch returns exactly one id per query)
            .expect("one id per registered query") // cts-lint: allow(unwrap-in-service, register_batch returns exactly one id per query)
    }

    fn register_batch(&mut self, queries: Vec<ContinuousQuery>) -> Vec<QueryId> {
        self.try_register_batch(queries)
            // cts-lint: allow(panic-in-hot-path, the infallible Engine surface; typed errors live on the try_* twin)
            .unwrap_or_else(|err| panic!("sharded engine could not register: {err}"))
    }

    fn deregister(&mut self, query: QueryId) -> bool {
        match self.try_deregister(query) {
            Ok(removed) => removed,
            Err(EngineError::UnknownQuery(_)) => false,
            // cts-lint: allow(panic-in-hot-path, the infallible Engine surface; typed errors live on the try_* twin)
            Err(err) => panic!("sharded engine could not deregister: {err}"),
        }
    }

    fn process_document(&mut self, doc: Document) -> EventOutcome {
        self.try_process(doc)
            // cts-lint: allow(panic-in-hot-path, the infallible Engine surface; typed errors live on the try_* twin)
            .unwrap_or_else(|err| panic!("sharded engine could not serve the event: {err}"))
    }

    fn process_batch(&mut self, docs: Vec<Document>) -> Vec<EventOutcome> {
        self.try_process_batch(docs)
            // cts-lint: allow(panic-in-hot-path, the infallible Engine surface; typed errors live on the try_* twin)
            .unwrap_or_else(|err| panic!("sharded engine could not serve the batch: {err}"))
    }

    fn current_results(&self, query: QueryId) -> Vec<RankedDocument> {
        let Some(shard) = self.host(query) else {
            return Vec::new();
        };
        if self.is_degraded(shard) {
            // A read cannot rebuild; the next mutating call does.
            return Vec::new();
        }
        match self.call_shard(shard, ShardRequest::Results(query)) {
            Ok(ShardReply::Results(results)) => results,
            Ok(_) => unreachable!("shard replied out of order"), // cts-lint: allow(panic-in-hot-path, the SPSC protocol pairs every reply with its request)
            Err(_) => Vec::new(),
        }
    }

    fn num_queries(&self) -> usize {
        self.registry.len()
    }

    fn num_valid_documents(&self) -> usize {
        // Every healthy shard's store equals the mirror (`check_invariants`
        // audits it), so the coordinator answers without a round-trip.
        self.mirror.len()
    }

    fn clock(&self) -> Timestamp {
        self.clock
    }

    fn name(&self) -> &'static str {
        "sharded-ita"
    }

    fn inject_fault(&mut self, shard: usize) -> bool {
        let shard = shard % self.workers.len();
        if self.is_degraded(shard) {
            return false;
        }
        match self.call_shard(shard, ShardRequest::ArmFault) {
            Ok(ShardReply::Armed) => true,
            Ok(_) => unreachable!("shard replied out of order"), // cts-lint: allow(panic-in-hot-path, the SPSC protocol pairs every reply with its request)
            Err(_) => false,
        }
    }

    fn fault_stats(&self) -> Option<FaultStats> {
        let state = self.fault_state.borrow();
        let mut stats = state.stats;
        stats.degraded_shards = state.degraded.iter().filter(|down| **down).count();
        Some(stats)
    }

    /// Audits the window mirror's own structure (only sealed chunks carry a
    /// term directory, each equal to a rebuild from its documents) and then
    /// has every healthy worker audit its own engine, that its store holds
    /// the mirror's documents in arrival order, and that it hosts exactly
    /// the registry's queries that hash to it, via a `CheckInvariants`
    /// request; a worker-side violation comes back
    /// as a fault carrying the assertion message and is re-raised here.
    /// Degraded shards are skipped — their state is gone by definition and
    /// the rebuild starts from the registry and the mirror.
    fn check_invariants(&self) {
        self.mirror.check_invariants();
        let mirrored: Arc<[DocId]> = self.mirror.iter().map(|doc| doc.id).collect();
        let mut hosted = vec![Vec::new(); self.workers.len()];
        for &qid in self.registry.keys() {
            hosted[self.shard_of(qid)].push(qid);
        }
        for (shard, hosted) in hosted.into_iter().enumerate() {
            if self.is_degraded(shard) {
                continue;
            }
            let request = ShardRequest::CheckInvariants(Arc::clone(&mirrored), hosted);
            match self.call_shard(shard, request) {
                Ok(ShardReply::InvariantsChecked) => {}
                Ok(_) => unreachable!("shard replied out of order"), // cts-lint: allow(panic-in-hot-path, the SPSC protocol pairs every reply with its request)
                Err(err) => {
                    // cts-lint: allow(panic-in-hot-path, audit-only path re-raising a worker-side assertion)
                    panic!("shard {shard} failed its invariant audit: {err}")
                }
            }
        }
    }
}

impl Drop for ShardedItaEngine {
    fn drop(&mut self) {
        let _ = self.drain();
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::assert_lockstep_event;
    use cts_text::{TermId, WeightedVector};

    fn doc(id: u64, terms: &[(u32, f64)]) -> Document {
        Document::new(
            DocId(id),
            Timestamp::from_millis(id),
            WeightedVector::from_weights(terms.iter().map(|&(t, w)| (TermId(t), w))),
        )
    }

    fn query(terms: &[(u32, f64)], k: usize) -> ContinuousQuery {
        ContinuousQuery::from_weights(terms.iter().map(|&(t, w)| (TermId(t), w)), k)
    }

    #[test]
    fn single_shard_locksteps_with_the_plain_engine() {
        let window = SlidingWindow::count_based(8);
        let mut reference = ItaEngine::new(window, ItaConfig::default());
        let mut sharded = ShardedItaEngine::new(window, ItaConfig::default(), 1);
        let qa = reference.register(query(&[(1, 0.6), (2, 0.8)], 2));
        let qb = sharded.register(query(&[(1, 0.6), (2, 0.8)], 2));
        assert_eq!(qa, qb);
        for i in 0..40u64 {
            let d = doc(i, &[((i % 4) as u32, 0.1 + (i % 6) as f64 * 0.1)]);
            assert_lockstep_event(&mut reference, &mut sharded, &d, &[qa]);
        }
        assert_eq!(sharded.name(), "sharded-ita");
        assert_eq!(sharded.num_shards(), 1);
        assert_eq!(sharded.clock(), reference.clock());
        assert_eq!(sharded.num_valid_documents(), 8);
    }

    #[test]
    fn queries_are_spread_across_shards_and_results_survive_routing() {
        let window = SlidingWindow::count_based(16);
        let mut sharded = ShardedItaEngine::new(window, ItaConfig::default(), 4);
        let mut reference = ItaEngine::new(window, ItaConfig::default());
        let mut qids = Vec::new();
        for t in 0..8u32 {
            let q = query(&[(t % 5, 0.5), (5 + t % 3, 0.5)], 3);
            let qs = sharded.register(q.clone());
            let qr = reference.register(q);
            assert_eq!(qs, qr);
            qids.push(qs);
        }
        // The hash really does use more than one shard for 8 sequential ids.
        let used: std::collections::HashSet<usize> =
            qids.iter().map(|&q| sharded.shard_of(q)).collect();
        assert!(used.len() > 1, "all queries landed on one shard");
        for i in 0..60u64 {
            let d = doc(
                i,
                &[
                    ((i % 7) as u32, 0.1 + (i % 9) as f64 * 0.08),
                    ((3 + i % 4) as u32, 0.3),
                ],
            );
            assert_lockstep_event(&mut reference, &mut sharded, &d, &qids);
        }
        assert_eq!(sharded.num_queries(), 8);
        assert!(sharded.deregister(qids[3]));
        assert!(!sharded.deregister(qids[3]));
        assert_eq!(sharded.num_queries(), 7);
        assert!(reference.deregister(qids[3]));
        for i in 60..90u64 {
            let d = doc(i, &[((i % 7) as u32, 0.2), (8, 0.4)]);
            let live: Vec<QueryId> = qids.iter().copied().filter(|&q| q != qids[3]).collect();
            assert_lockstep_event(&mut reference, &mut sharded, &d, &live);
        }
        assert!(sharded.current_results(qids[3]).is_empty());
    }

    #[test]
    fn shard_statistics_aggregate_exactly() {
        let mut sharded =
            ShardedItaEngine::new(SlidingWindow::count_based(6), ItaConfig::default(), 3);
        for t in 0..6u32 {
            sharded.register(query(&[(t, 1.0)], 2));
        }
        let mut events = 0u64;
        for i in 0..25u64 {
            sharded.process_document(doc(i, &[((i % 6) as u32, 0.1 + (i % 5) as f64 * 0.1)]));
            events += 1;
        }
        let per_shard = sharded.shard_stats();
        assert_eq!(per_shard.len(), 3);
        // Every shard sees every event.
        for stats in &per_shard {
            assert_eq!(stats.events, events);
        }
        let merged = sharded.aggregate_shard_stats();
        assert_eq!(merged.events, events * 3);
        assert_eq!(
            merged.total_time,
            per_shard.iter().map(|s| s.total_time).sum()
        );
        // Shadow indexes: same window everywhere, query terms partitioned.
        let index = sharded.shard_index_stats();
        assert!(index.iter().all(|s| s.documents == 6));
        assert!(index.iter().map(|s| s.postings).sum::<usize>() > 0);
        // The queries' stats are served by the owning shard.
        let q0 = QueryId(0);
        assert!(sharded.query_stats(q0).is_some());
        assert!(sharded.query_stats(QueryId(99)).is_none());
        // Resetting zeroes every worker's accumulator; later events are
        // counted from the reset point only.
        sharded.reset_shard_stats();
        assert_eq!(sharded.aggregate_shard_stats(), ProcessingStats::default());
        sharded.process_document(doc(25, &[(0, 0.5)]));
        let after = sharded.shard_stats();
        assert!(after.iter().all(|s| s.events == 1));
    }

    /// Static placement rests on this: the hash alone levels the query count.
    /// The failure mode of a low-bits partition is a churned workload whose
    /// surviving ids share low bits (all even, or one residue mod 8) and
    /// collapse onto a fraction of the shards. The multiply-shift over the
    /// Fibonacci hash keys on the high bits instead, so sequential ids and
    /// such sets alike land within 3% of the uniform share (the worst is
    /// 1.024, stride 8 on 8 shards).
    #[test]
    fn hash_partition_spreads_stride_patterned_id_sets() {
        for shards in [2usize, 4, 8] {
            let sharded =
                ShardedItaEngine::new(SlidingWindow::count_based(4), ItaConfig::default(), shards);
            for stride in [1u32, 2, 4, 8] {
                let mut loads = vec![0usize; shards];
                for i in 0..1_000u32 {
                    loads[sharded.shard_of(QueryId(i * stride))] += 1;
                }
                let worst = *loads.iter().max().unwrap() as f64 / (1_000.0 / shards as f64);
                assert!(
                    worst <= 1.03,
                    "stride-{stride} ids on {shards} shards: loads {loads:?}, {worst:.3}× uniform"
                );
            }
        }
    }

    #[test]
    fn process_batch_matches_the_per_event_loop() {
        let window = SlidingWindow::count_based(10);
        let mut singles = ShardedItaEngine::new(window, ItaConfig::default(), 3);
        let mut batched = ShardedItaEngine::new(window, ItaConfig::default(), 3);
        let mut qids = Vec::new();
        for t in 0..6u32 {
            let q = query(&[(t, 0.5), (6 + t % 2, 0.5)], 2);
            let qa = singles.register(q.clone());
            let qb = batched.register(q);
            assert_eq!(qa, qb);
            qids.push(qa);
        }
        let make = |lo: u64, hi: u64| -> Vec<Document> {
            (lo..hi)
                .map(|i| doc(i, &[((i % 8) as u32, 0.1 + (i % 5) as f64 * 0.15)]))
                .collect()
        };
        for chunk in [(0u64, 7u64), (7, 8), (8, 20), (20, 33)] {
            let batch = make(chunk.0, chunk.1);
            let expected: Vec<EventOutcome> = batch
                .clone()
                .into_iter()
                .map(|d| singles.process_document(d))
                .collect();
            let actual = batched.process_batch(batch);
            assert_eq!(expected, actual, "chunk {chunk:?} diverged");
            for &q in &qids {
                assert_eq!(singles.current_results(q), batched.current_results(q));
            }
        }
        assert_eq!(batched.clock(), singles.clock());
        assert!(batched.process_batch(Vec::new()).is_empty());
    }

    /// A worker that died unseen is found by the fan-out itself: the shard is
    /// rebuilt from the mirror, which does not hold the burst yet, and the
    /// burst — here of one event, through either entry point — is sent
    /// again, so the shard's share of the outcome survives. (A rebuild after
    /// mirroring would have replayed the event unrecorded.)
    #[test]
    fn a_singleton_sent_to_a_dead_worker_is_resent_after_resurrection() {
        let window = SlidingWindow::count_based(8);
        let mut reference = ItaEngine::new(window, ItaConfig::default());
        let mut singles = ShardedItaEngine::new(window, ItaConfig::default(), 2);
        let mut bursts = ShardedItaEngine::new(window, ItaConfig::default(), 2);
        let mut qids = Vec::new();
        for k in 0..6usize {
            let q = query(&[(0, 1.0)], 1 + k % 3);
            qids.push(reference.register(q.clone()));
            singles.register(q.clone());
            bursts.register(q);
        }
        assert!(
            qids.iter().any(|&q| singles.shard_of(q) == 1),
            "shard 1 hosts nothing"
        );
        for i in 0..12u64 {
            let d = doc(i, &[((i % 3) as u32, 0.1 + (i % 4) as f64 * 0.1)]);
            reference.process_document(d.clone());
            singles.process_document(d.clone());
            bursts.process_document(d);
        }
        for engine in [&mut singles, &mut bursts] {
            // Joined, so the next send fails instead of racing the exit.
            assert!(engine.inject_disconnect(1));
            let thread = engine.workers[1].thread.take().expect("worker thread");
            thread.join().expect("the crash hook exits cleanly");
        }
        // The new best document of every query, on both shards.
        let d = doc(12, &[(0, 0.9)]);
        let expected = reference.process_document(d.clone());
        assert_eq!(expected.results_changed, qids.len());
        let single = singles.process_document(d.clone());
        assert_eq!(bursts.process_batch(vec![d]), vec![single]);
        assert_eq!(
            (single.arrived, single.expired, single.results_changed),
            (expected.arrived, expected.expired, expected.results_changed)
        );
        for engine in [&singles, &bursts] {
            // The respawned worker loaded the window unrecorded; the one
            // event it counts is the resent one.
            assert_eq!(engine.shard_stats()[1].events, 1);
            let stats = engine.fault_stats().expect("tracked");
            assert_eq!(
                (stats.faults, stats.recoveries, stats.degraded_shards),
                (1, 1, 0)
            );
            for &q in &qids {
                assert_eq!(engine.current_results(q), reference.current_results(q));
            }
        }
    }

    /// Placement is the hash for life: a population churned down to one
    /// shard's ids stays on that shard — the others hold no query and file
    /// no list — and stays exact.
    #[test]
    fn a_skewed_population_stays_on_its_hash_shard_exactly() {
        let window = SlidingWindow::count_based(12);
        let mut sharded = ShardedItaEngine::new(window, ItaConfig::default(), 4);
        let mut reference = ItaEngine::new(window, ItaConfig::default());
        let mut qids = Vec::new();
        for t in 0..24u32 {
            let q = query(&[(t % 7, 0.6), (7 + t % 5, 0.4)], 2);
            qids.push(sharded.register(q.clone()));
            reference.register(q);
        }
        for i in 0..30u64 {
            let d = doc(i, &[((i % 12) as u32, 0.1 + (i % 6) as f64 * 0.12)]);
            assert_lockstep_event(&mut reference, &mut sharded, &d, &qids);
        }
        let survivors: Vec<QueryId> = qids
            .iter()
            .copied()
            .filter(|&q| sharded.shard_of(q) == 0)
            .collect();
        assert!(survivors.len() >= 2, "need at least two survivors");
        for &q in &qids {
            if !survivors.contains(&q) {
                assert!(sharded.deregister(q));
                assert!(reference.deregister(q));
            }
        }
        assert_eq!(sharded.num_queries(), survivors.len());
        assert_eq!(sharded.migrations(), 0);
        let index = sharded.shard_index_stats();
        assert!(index[0].live_terms > 0, "shard 0 lost its queries");
        assert!(
            index[1..]
                .iter()
                .all(|s| s.live_terms == 0 && s.postings == 0),
            "a query left its hash shard: {index:?}"
        );
        sharded.check_invariants();
        for i in 30..60u64 {
            let d = doc(i, &[((i % 12) as u32, 0.2 + (i % 4) as f64 * 0.2)]);
            assert_lockstep_event(&mut reference, &mut sharded, &d, &survivors);
        }
        sharded.check_invariants();
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let _ = ShardedItaEngine::new(SlidingWindow::count_based(4), ItaConfig::default(), 0);
    }

    #[test]
    fn dropping_the_engine_joins_its_workers() {
        let handle = {
            let sharded =
                ShardedItaEngine::new(SlidingWindow::count_based(4), ItaConfig::default(), 2);
            sharded.num_shards()
        };
        // Reaching here without hanging means the workers exited and the
        // supervisor joined them.
        assert_eq!(handle, 2);
    }

    /// A fault poisons the shard, and the coordinator rebuilds it before the
    /// event returns: the faulted shard's share of that event's outcome is
    /// lost, so outcomes match up to the first fault and results always.
    #[test]
    fn an_injected_fault_is_rebuilt_with_exact_results() {
        let window = SlidingWindow::count_based(8);
        let mut reference = ItaEngine::new(window, ItaConfig::default());
        let mut sharded = ShardedItaEngine::new(window, ItaConfig::default(), 2);
        let mut qids = Vec::new();
        for t in 0..6u32 {
            let q = query(&[(t % 4, 0.6), (4 + t % 3, 0.4)], 2);
            let qr = reference.register(q.clone());
            let qs = sharded.register(q);
            assert_eq!(qr, qs);
            qids.push(qr);
        }
        for i in 0..40u64 {
            if i % 9 == 3 {
                assert!(sharded.inject_fault((i % 2) as usize), "arming failed");
            }
            let d = doc(i, &[((i % 6) as u32, 0.1 + (i % 5) as f64 * 0.12)]);
            let expected = reference.process_document(d.clone());
            let actual = sharded.process_document(d);
            if sharded.fault_stats().expect("tracked").faults == 0 {
                assert_eq!(expected, actual, "outcome diverged at event {i}");
            }
            for &q in &qids {
                assert_eq!(reference.current_results(q), sharded.current_results(q));
            }
        }
        let stats = sharded.fault_stats().expect("sharded engine tracks faults");
        assert_eq!(stats.faults, 5, "every armed fault fires on its event");
        assert_eq!(stats.recoveries, stats.faults, "every fault is rebuilt");
        assert_eq!(stats.degraded_shards, 0);
    }

    #[test]
    fn shutdown_drains_final_worker_stats() {
        let mut sharded =
            ShardedItaEngine::new(SlidingWindow::count_based(4), ItaConfig::default(), 3);
        sharded.register(query(&[(0, 1.0)], 1));
        for i in 0..10u64 {
            sharded.process_document(doc(i, &[(0, 0.5)]));
        }
        let merged = sharded.shutdown();
        // Every shard saw every event, and the handshake preserved the
        // counters a plain drop would discard.
        assert_eq!(merged.events, 30);
        assert!(merged.total_time > Duration::ZERO);
    }
}
