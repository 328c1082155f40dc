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
//! through [`ProcessingStats::absorb`], so the sweep harness sees exact
//! aggregate numbers, per-event maxima of batched runs included.
//!
//! ## Skew-aware rebalancing
//!
//! Static hash partitioning can be defeated by churn: if the surviving query
//! population happens to concentrate on one shard, that worker carries the
//! whole load while the rest idle. The coordinator therefore tracks the
//! per-shard query count and, at load-change and burst boundaries (never
//! mid-event), **migrates** queries from the heaviest to the lightest shard
//! while the heaviest exceeds [`RebalanceConfig::max_over_ideal`] times the
//! uniform share. A migration moves the query's complete ITA state —
//! result set, local thresholds, counters — via
//! [`ItaEngine::extract_query`]/[`ItaEngine::install_query`], with the
//! window postings of its terms resolved against the coordinator's mirror as
//! for a registration; the receiving shard files the lists of the terms that
//! just became live from them and the migrated thresholds verbatim, so
//! processing resumes byte-identically on the new shard (no threshold search
//! is re-run, no shard store is read). The routing table
//! ([`ShardedItaEngine::assigned_shard`]) supersedes the initial hash
//! placement ([`ShardedItaEngine::shard_of`]) once a query has moved.
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
//!   (id → [`ContinuousQuery`]), the placement table and a window mirror of
//!   `Arc`'d documents ([`WindowTerms`]) — and rebuilds a degraded shard
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
//! * **Degraded-mode policy** — [`FaultPolicy`] decides what happens between
//!   a fault and the rebuild: rebuild synchronously (default), serve the
//!   healthy shards and mark the affected queries stale, or fail fast with
//!   a typed [`EngineError`] from the `try_*` paths.
//!
//! A document whose id is already in the window (or twice in one burst) is
//! refused with [`EngineError::DuplicateDocument`] before any shard or the
//! mirror sees it: every worker would panic on it, and the mirror would
//! hand it to every rebuild.
//!
//! Workers are **persistent**: one spawned thread per shard, living until
//! the engine shuts down. Construction retries a failed spawn once and then
//! degrades to fewer shards (counted in [`FaultStats::spawn_retries`] /
//! [`FaultStats::spawn_fallbacks`]) instead of aborting. Shutdown drains
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
//! terms, and when a registration or a migration brings a term live
//! mid-stream, its postings over the whole window filed in arrival order.
//!
//! **Who resolves those postings.** The coordinator does, once, for every
//! shard: its window mirror is a [`WindowTerms`] — the arrival-ordered
//! `Arc`s plus lazily built per-chunk term directories, which exist once
//! however many shards there are. [`ShardedItaEngine::try_register_batch`]
//! and the rebalancer's `migrate` resolve the terms of what they are about to
//! place against it while no event burst is in flight (so the mirror and
//! every healthy shard's store hold the same documents) and ship the
//! [`TermPostings`] with the request, and so does a rebuild; the shard files
//! what it finds newly live and never reads its own store
//! ([`ItaEngine::register_entries_walked`] stays 0 on every shard). Arrival
//! and expiry do no term work on the mirror (DESIGN.md §9). The randomized
//! differential test in `tests/sharded_equivalence.rs` enforces
//! byte-identical results and event outcomes against [`ItaEngine`] across
//! shard counts, deregistration and window expiry; `tests/chaos_recovery.rs`
//! enforces exact results with faults injected and rebuilt mid-stream, and
//! identical outcomes up to the first fault.

use std::cell::RefCell;
// cts-lint: allow(nondet-iteration, every map below is point-lookup only; nothing iterates their order)
use std::collections::{HashMap, HashSet};
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
use crate::fault::{is_poison_document, EngineError, FaultPolicy, FaultStats, ShardFault};
use crate::ita::{ItaConfig, ItaEngine, ItaQueryStats, QueryMigration};
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
    /// Extract a query's complete ITA state for migration (synchronous).
    Extract(QueryId),
    /// Install a migrated query under its existing id (synchronous), with
    /// the window postings of its terms, resolved as for `RegisterBatch`.
    Install(QueryId, Box<QueryMigration>, Arc<TermPostings>),
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
    /// Read the shard's valid-document count (identical across shards).
    NumValidDocuments,
    /// Arm one injected fault: the next stream event is applied for real and
    /// the worker then panics mid-request, poisoning the shard.
    ArmFault,
    /// Rebuild the shard from the coordinator's durable state: a fresh
    /// term-filtered engine loaded with the given window (the mirror's
    /// documents, oldest first), then the given queries registered with the
    /// postings the coordinator resolved for their terms over that window.
    /// Clears any poisoning.
    Rebuild(Vec<Arc<Document>>, SharedQueries, Arc<TermPostings>),
    /// Audit the shard engine's deep structural invariants and that its
    /// store holds exactly the given documents (the coordinator's mirror,
    /// oldest first) (synchronous; replies
    /// [`ShardReply::InvariantsChecked`]). A violation panics inside the
    /// worker's guard and surfaces as a [`ShardReply::Fault`] carrying the
    /// assertion message. Driven by the testkit lockstep runner under the
    /// `invariant-checks` feature; never sent on production paths.
    CheckInvariants(Arc<[DocId]>),
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
    Extracted(Option<Box<QueryMigration>>),
    Installed,
    Results(Vec<RankedDocument>),
    QueryStats(Option<ItaQueryStats>),
    IndexStats(IndexStats),
    Stats(ProcessingStats),
    StatsReset,
    NumValidDocuments(usize),
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
    fn audit(&self, mirror: &[DocId]) -> Result<ShardReply, ShardFault> {
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
            ShardRequest::Extract(qid) => {
                ShardReply::Extracted(self.live_mut()?.extract_query(qid).map(Box::new))
            }
            ShardRequest::Install(qid, migration, postings) => {
                self.live_mut()?.install_query(qid, *migration, &postings);
                ShardReply::Installed
            }
            ShardRequest::Results(qid) => ShardReply::Results(self.live()?.current_results(qid)),
            ShardRequest::QueryStats(qid) => ShardReply::QueryStats(self.live()?.query_stats(qid)),
            ShardRequest::IndexStats => ShardReply::IndexStats(self.live()?.index_stats()),
            ShardRequest::Stats => ShardReply::Stats(self.stats),
            ShardRequest::ResetStats => {
                self.stats = ProcessingStats::default();
                ShardReply::StatsReset
            }
            ShardRequest::NumValidDocuments => {
                ShardReply::NumValidDocuments(self.live()?.num_valid_documents())
            }
            ShardRequest::ArmFault => {
                self.armed_faults += 1;
                ShardReply::Armed
            }
            ShardRequest::CheckInvariants(mirror) => self.audit(&mirror)?,
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

/// Spawns `requested` workers through `spawn`, assigning contiguous slot
/// indices. A failed spawn is retried once; a slot that fails twice is
/// dropped (the engine degrades to fewer shards) instead of aborting
/// construction. Returns the spawned handles plus the retry and fallback
/// counts for [`FaultStats::spawn_retries`] / [`FaultStats::spawn_fallbacks`].
fn spawn_with_retry<T, E>(
    requested: usize,
    spawn: &mut dyn FnMut(usize) -> Result<T, E>,
) -> (Vec<T>, u64, u64) {
    let mut spawned = Vec::with_capacity(requested);
    let mut retries = 0u64;
    let mut fallbacks = 0u64;
    for _ in 0..requested {
        // Slots stay contiguous: a dropped slot's index is reused by the
        // next attempt, so shard indices always equal 0..spawned.len().
        let slot = spawned.len();
        match spawn(slot) {
            Ok(handle) => spawned.push(handle),
            Err(_) => {
                retries += 1;
                match spawn(slot) {
                    Ok(handle) => spawned.push(handle),
                    Err(_) => fallbacks += 1,
                }
            }
        }
    }
    (spawned, retries, fallbacks)
}

/// Policy of the coordinator's skew-aware query rebalancer.
///
/// The coordinator evaluates balance whenever the load distribution can have
/// changed and a migration is safe — after a registration, after a
/// deregistration and after each processed burst, never inside an event —
/// and migrates queries from the heaviest to the lightest shard while
/// **both** hold:
///
/// * the heaviest shard's query count exceeds
///   `max_over_ideal × (num_queries / shards)` (the uniform share), and
/// * moving one query actually reduces imbalance
///   (`heaviest − lightest ≥ 2`).
///
/// Each migration strictly decreases the load distribution's sum of squares,
/// so a rebalance pass always terminates; `max_migrations_per_check` is a
/// safety valve bounding how much migration cost (state transfer plus the
/// coordinator's resolve of the query's window postings and the receiving
/// shard's filing of them) a single boundary may absorb.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceConfig {
    /// Whether the rebalancer runs at all. Disabled, placement is the
    /// static hash of [`ShardedItaEngine::shard_of`] forever.
    pub enabled: bool,
    /// Trigger ratio over the uniform per-shard query count. Must be at
    /// least 1; values close to 1 level aggressively, larger values tolerate
    /// more skew before paying migration cost.
    pub max_over_ideal: f64,
    /// Upper bound on migrations performed per balance check.
    pub max_migrations_per_check: usize,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            max_over_ideal: 1.25,
            max_migrations_per_check: usize::MAX,
        }
    }
}

impl RebalanceConfig {
    /// A configuration with rebalancing switched off (static hash
    /// placement).
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
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
/// fan-out and batch protocols, the skew-aware rebalancer, the fault model
/// and the exactness argument.
#[derive(Debug)]
pub struct ShardedItaEngine {
    /// Per-shard channels + thread handles. Workers are respawned in place
    /// by a rebuild, so the vector length is the shard count.
    workers: Vec<ShardHandle>,
    window: SlidingWindow,
    rebalance: RebalanceConfig,
    policy: FaultPolicy,
    /// The routing table: which shard currently hosts each registered query.
    /// Starts as the hash placement of [`ShardedItaEngine::shard_of`];
    /// migrations move entries.
    assignment: HashMap<QueryId, usize>, // cts-lint: allow(nondet-iteration, point lookups only; never iterated)
    /// Per-shard resident query ids (registration order). `placement[s].len()`
    /// is shard `s`'s query load.
    placement: Vec<Vec<QueryId>>,
    /// Durable copy of every registered query — with `placement` and
    /// `mirror`, everything a rebuild needs. Updated **before** any
    /// fan-out, so a request lost to a crashed worker is still
    /// reconstructible.
    registry: HashMap<QueryId, Arc<ContinuousQuery>>, // cts-lint: allow(nondet-iteration, indexed in placement order; never iterated)
    /// Durable mirror of the sliding window (oldest first), pruned with the
    /// exact policy the workers apply. The `Arc`s are shared with the
    /// workers' stores, so the mirror costs pointers, not documents — plus
    /// the term directories registrations have built over its sealed chunks,
    /// which is what makes it the one place a registration's postings are
    /// resolved, and (with its id set) where duplicate ids are refused.
    mirror: WindowTerms,
    fault_state: RefCell<FaultState>,
    /// Total queries migrated by the rebalancer since construction.
    migrations: u64,
    num_queries: usize,
    next_query: u32,
    clock: Timestamp,
}

impl ShardedItaEngine {
    /// Creates an engine with `shards` persistent worker shards, each
    /// running a term-filtered [`ItaEngine`] under the given window policy,
    /// with the default [`RebalanceConfig`] and [`FaultPolicy`]. The
    /// [`ItaConfig`] is empty and ignored.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(window: SlidingWindow, _config: ItaConfig, shards: usize) -> Self {
        Self::with_rebalance(window, shards, RebalanceConfig::default())
    }

    /// Creates an engine with an explicit rebalancing policy.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `rebalance.max_over_ideal < 1`.
    pub fn with_rebalance(
        window: SlidingWindow,
        shards: usize,
        rebalance: RebalanceConfig,
    ) -> Self {
        Self::with_faults(window, shards, rebalance, FaultPolicy::default())
    }

    /// Creates an engine with explicit rebalancing and degraded-mode
    /// policies. A worker spawn that fails is retried once and then its
    /// shard is dropped — the engine degrades to fewer shards (counted in
    /// [`FaultStats::spawn_fallbacks`]) rather than aborting.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`, if `rebalance.max_over_ideal < 1`, or if
    /// not a single worker could be spawned.
    pub fn with_faults(
        window: SlidingWindow,
        shards: usize,
        rebalance: RebalanceConfig,
        policy: FaultPolicy,
    ) -> Self {
        assert!(shards > 0, "a sharded engine needs at least one shard");
        assert!(
            rebalance.max_over_ideal >= 1.0,
            "a rebalance trigger below the uniform share would thrash"
        );
        let mut spawn = |slot: usize| Self::spawn_worker(slot, window);
        let (workers, spawn_retries, spawn_fallbacks) = spawn_with_retry(shards, &mut spawn);
        assert!(
            !workers.is_empty(),
            "could not spawn any shard worker (all {shards} spawn attempts failed twice)"
        );
        if spawn_fallbacks > 0 {
            eprintln!(
                "cts-shard: degraded to {} of {} requested shards ({} spawn attempts failed twice)",
                workers.len(),
                shards,
                spawn_fallbacks
            );
        }
        let spawned = workers.len();
        Self {
            workers,
            window,
            rebalance,
            policy,
            assignment: HashMap::new(), // cts-lint: allow(nondet-iteration, point lookups only; never iterated)
            placement: vec![Vec::new(); spawned],
            registry: HashMap::new(), // cts-lint: allow(nondet-iteration, indexed in placement order; never iterated)
            mirror: WindowTerms::new(),
            fault_state: RefCell::new(FaultState {
                stats: FaultStats {
                    spawn_retries,
                    spawn_fallbacks,
                    ..FaultStats::default()
                },
                degraded: vec![false; spawned],
            }),
            migrations: 0,
            num_queries: 0,
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

    /// Number of worker shards (after any construction-time spawn
    /// fallbacks).
    pub fn num_shards(&self) -> usize {
        self.workers.len()
    }

    /// The sliding-window policy in force.
    pub fn window(&self) -> SlidingWindow {
        self.window
    }

    /// The configured rebalancing policy.
    pub fn rebalance_config(&self) -> RebalanceConfig {
        self.rebalance
    }

    /// The configured degraded-mode policy.
    pub fn fault_policy(&self) -> FaultPolicy {
        self.policy
    }

    /// Replaces the rebalancing policy at runtime. Takes effect at the next
    /// balance check (the next registration, deregistration or burst
    /// boundary — a single event is a burst of one) — an already-skewed
    /// placement is repaired then, not immediately.
    ///
    /// # Panics
    ///
    /// Panics if `rebalance.max_over_ideal < 1`.
    pub fn set_rebalance_config(&mut self, rebalance: RebalanceConfig) {
        assert!(
            rebalance.max_over_ideal >= 1.0,
            "a rebalance trigger below the uniform share would thrash"
        );
        self.rebalance = rebalance;
    }

    /// Total queries the rebalancer has migrated between shards.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Per-shard resident query counts, in shard order — the load measure
    /// the rebalancer levels.
    pub fn shard_loads(&self) -> Vec<usize> {
        self.placement.iter().map(Vec::len).collect()
    }

    /// The shard currently hosting `query`, if it is registered. This is the
    /// routing table every query-addressed request consults; it starts at
    /// the hash placement of [`ShardedItaEngine::shard_of`] and diverges
    /// from it once the rebalancer migrates the query.
    pub fn assigned_shard(&self, query: QueryId) -> Option<usize> {
        self.assignment.get(&query).copied()
    }

    /// The **initial placement** rule: which shard a freshly registered
    /// `query` is routed to (the rebalancer may move it later —
    /// [`ShardedItaEngine::assigned_shard`] is the live routing table).
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

    /// Whether `query` is registered but hosted on a degraded shard — its
    /// reported results are stale (empty) until
    /// [`ShardedItaEngine::recover_degraded`] rebuilds the shard. Only
    /// observable under [`FaultPolicy::ServeDegraded`] (or
    /// [`FaultPolicy::FailFast`] before an explicit recovery).
    pub fn query_is_stale(&self, query: QueryId) -> bool {
        self.assigned_shard(query)
            .is_some_and(|shard| self.is_degraded(shard))
    }

    fn is_degraded(&self, shard: usize) -> bool {
        self.fault_state.borrow().degraded[shard]
    }

    fn any_degraded(&self) -> bool {
        self.fault_state.borrow().degraded.iter().any(|d| *d)
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
    /// the one place a fan-out meets a worker that died unseen. Under
    /// [`FaultPolicy::BlockUntilRecovered`] the shard is rebuilt on the
    /// spot; a registration needs no more (`resend` false: the rebuild runs
    /// it from the registry), stream events are sent again — they reach the
    /// mirror only after the fan-out, so the rebuilt shard holds the exact
    /// pre-burst window and its share of the outcome survives. Otherwise the
    /// disconnect is noted in `first_error`.
    fn send_or_resurrect(
        &mut self,
        shard: usize,
        request: ShardRequest,
        resend: bool,
        first_error: &mut Option<EngineError>,
    ) -> bool {
        let Err(std::sync::mpsc::SendError(request)) = self.workers[shard].sender.send(request)
        else {
            return true;
        };
        self.mark_degraded(shard);
        if self.policy == FaultPolicy::BlockUntilRecovered && self.resurrect(shard).is_ok() {
            if !resend {
                return false;
            }
            if self.send(shard, request).is_ok() {
                return true;
            }
        }
        first_error.get_or_insert(EngineError::ShardUnavailable { shard });
        false
    }

    /// Applies the degraded-mode policy to shards degraded by *previous*
    /// operations, at the start of every mutating operation.
    fn ensure_serviceable(&mut self) -> Result<(), EngineError> {
        let degraded = self.fault_state.borrow().degraded.iter().position(|d| *d);
        match degraded {
            Some(shard) => self.handle_shard_failure(EngineError::ShardUnavailable { shard }),
            None => Ok(()),
        }
    }

    /// Applies the degraded-mode policy to a fault observed *during* the
    /// current operation (the shard is already marked degraded).
    fn handle_shard_failure(&mut self, error: EngineError) -> Result<(), EngineError> {
        match self.policy {
            FaultPolicy::FailFast => Err(error),
            FaultPolicy::BlockUntilRecovered => self.recover_degraded().map(|_| ()),
            FaultPolicy::ServeDegraded => Ok(()),
        }
    }

    /// Rebuilds every degraded shard from the durable registry + window
    /// mirror, returning how many shards were rebuilt. Under
    /// [`FaultPolicy::BlockUntilRecovered`] this happens automatically; the
    /// other policies require this explicit call.
    pub fn recover_degraded(&mut self) -> Result<usize, EngineError> {
        let mut recovered = 0;
        for shard in 0..self.workers.len() {
            if self.is_degraded(shard) {
                self.resurrect(shard)?;
                recovered += 1;
            }
        }
        Ok(recovered)
    }

    /// The one recovery path, for one shard: respawn the worker thread if it
    /// is gone, then rebuild its engine as a registration of its queries
    /// over the mirror, with their postings resolved here as
    /// [`ShardedItaEngine::try_register_batch`] resolves a burst's. Rebuilt
    /// results are exact; the thresholds are a fresh registration's, so
    /// future work counters need not match a fault-free history — see
    /// DESIGN.md §10.
    fn resurrect(&mut self, shard: usize) -> Result<(), EngineError> {
        let start = Instant::now(); // cts-lint: allow(clock-in-apply, measures recovery cost only; never read by engine state)
        let queries: SharedQueries = self.placement[shard]
            .iter()
            .map(|qid| (*qid, Arc::clone(&self.registry[qid])))
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
    /// shard index), retrying the spawn once. The caller follows up with a
    /// [`ShardRequest::Rebuild`].
    fn respawn(&mut self, shard: usize) -> Result<(), EngineError> {
        if let Some(thread) = self.workers[shard].thread.take() {
            // The thread already exited (its channel disconnected); reap it.
            let _ = thread.join();
        }
        let handle = Self::spawn_worker(shard, self.window).or_else(|_| {
            self.fault_state.borrow_mut().stats.spawn_retries += 1;
            Self::spawn_worker(shard, self.window)
        });
        self.workers[shard] = handle.map_err(|_| EngineError::ShardUnavailable { shard })?;
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

    /// The healthy shard with the fewest resident queries (registration
    /// reroute target while another shard is degraded).
    fn lightest_healthy_shard(&self) -> Option<usize> {
        let state = self.fault_state.borrow();
        (0..self.workers.len())
            .filter(|&shard| !state.degraded[shard])
            .min_by_key(|&shard| self.placement[shard].len())
    }

    /// Fallible single-event processing: the `try_*` twin of
    /// [`Engine::process_document`] — a burst of one through
    /// [`ShardedItaEngine::try_process_batch`], with its policy semantics.
    pub fn try_process(&mut self, doc: Document) -> Result<EventOutcome, EngineError> {
        let outcome = self.try_process_batch(vec![doc])?.pop();
        // cts-lint: allow(panic-in-hot-path, try_process_batch returns exactly one outcome per document)
        Ok(outcome.expect("one outcome per document")) // cts-lint: allow(unwrap-in-service, try_process_batch returns exactly one outcome per document)
    }

    /// Fallible burst processing: the `try_*` twin of
    /// [`Engine::process_batch`], and the one path a stream event takes to
    /// the shards. A burst that repeats an id, or names one still in the
    /// window, is refused whole with [`EngineError::DuplicateDocument`]
    /// before anything moves. Under [`FaultPolicy::BlockUntilRecovered`] (the
    /// default) a mid-burst fault is repaired before returning: a worker
    /// found dead at the send is rebuilt and sent the burst again, so its
    /// share of the outcomes survives; a worker that faults on the burst is
    /// rebuilt from the mirror, which holds the burst by then, and its share
    /// of the burst's outcomes is lost (results stay exact). Under
    /// [`FaultPolicy::ServeDegraded`] the healthy shards' partial outcomes
    /// are returned; under [`FaultPolicy::FailFast`] the first fault
    /// surfaces as a typed error.
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
        self.ensure_serviceable()?;
        self.clock = last.arrival;
        let docs: Arc<[Arc<Document>]> = docs.into_iter().map(Arc::new).collect();
        let mut first_error: Option<EngineError> = None;
        let mut pending = Vec::with_capacity(self.workers.len());
        for shard in 0..self.workers.len() {
            let request = ShardRequest::ProcessBatch(Arc::clone(&docs));
            if !self.is_degraded(shard)
                && self.send_or_resurrect(shard, request, true, &mut first_error)
            {
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
                Err(err) => {
                    first_error.get_or_insert(err);
                }
            }
        }
        if let Some(err) = first_error {
            self.handle_shard_failure(err)?;
        }
        if self.policy == FaultPolicy::ServeDegraded && self.any_degraded() {
            self.fault_state.borrow_mut().stats.events_during_degraded += docs.len() as u64;
        }
        // The burst boundary is a safe point to repair skew: no event is in
        // flight, so a migration cannot split an arrival from its
        // expirations.
        self.maybe_rebalance();
        Ok(merged)
    }

    /// Fallible registration burst: the `try_*` twin of
    /// [`Engine::register_batch`]. The window postings of the burst's terms
    /// are resolved here, once, against the mirror — no event burst is in
    /// flight, so every healthy shard's store holds the mirror's documents —
    /// and shipped to the shards, which file them instead of reading the
    /// window themselves. Durable state (registry, placement,
    /// routing) is updated **before** the fan-out, so a worker fault during
    /// registration is recoverable: the rebuild re-registers the batch from
    /// the registry. Under [`FaultPolicy::ServeDegraded`], queries whose
    /// hash shard is degraded are rerouted to the lightest healthy shard.
    /// On error the durable state keeps the minted registrations; a later
    /// [`ShardedItaEngine::recover_degraded`] makes the workers agree.
    pub fn try_register_batch(
        &mut self,
        queries: Vec<ContinuousQuery>,
    ) -> Result<Vec<QueryId>, EngineError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        self.ensure_serviceable()?;
        let shards = self.workers.len();
        if !(0..shards).any(|shard| !self.is_degraded(shard)) {
            return Err(EngineError::ShardUnavailable { shard: 0 });
        }
        let mut per_shard: Vec<Vec<(QueryId, Arc<ContinuousQuery>)>> = vec![Vec::new(); shards];
        let mut ids = Vec::with_capacity(queries.len());
        for query in queries {
            let qid = QueryId(self.next_query);
            self.next_query += 1;
            let mut shard = self.shard_of(qid);
            if self.is_degraded(shard) {
                shard = self
                    .lightest_healthy_shard()
                    // cts-lint: allow(panic-in-hot-path, guarded by the all-degraded early return above)
                    .expect("a healthy shard exists (checked above)"); // cts-lint: allow(unwrap-in-service, guarded by the all-degraded early return above)
            }
            let query = Arc::new(query);
            per_shard[shard].push((qid, Arc::clone(&query)));
            self.registry.insert(qid, query);
            ids.push(qid);
        }
        // Durable state first: a fault from here on resurrects with the new
        // queries included.
        for (shard, group) in per_shard.iter().enumerate() {
            for (qid, _) in group {
                self.assignment.insert(*qid, shard);
                self.placement[shard].push(*qid);
                self.num_queries += 1;
            }
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
        let mut first_error: Option<EngineError> = None;
        for (shard, group) in per_shard.iter_mut().enumerate() {
            if group.is_empty() {
                continue;
            }
            let request =
                ShardRequest::RegisterBatch(std::mem::take(group).into(), Arc::clone(&postings));
            if self.send_or_resurrect(shard, request, false, &mut first_error) {
                pending.push(shard);
            }
        }
        for shard in pending {
            match self.recv_reply(shard) {
                Ok(ShardReply::Registered) => {}
                Ok(_) => unreachable!("shard replied out of order"), // cts-lint: allow(panic-in-hot-path, the SPSC protocol pairs every reply with its request)
                Err(err) => {
                    first_error.get_or_insert(err);
                }
            }
        }
        if let Some(err) = first_error {
            self.handle_shard_failure(err)?;
        }
        // One balance check for the whole burst: rebalancing is
        // outcome-invisible (migration is behaviour-preserving), so checking
        // once here instead of after every query changes placement only.
        self.maybe_rebalance();
        Ok(ids)
    }

    /// Fallible deregistration: the `try_*` twin of [`Engine::deregister`],
    /// surfacing [`EngineError::UnknownQuery`] instead of `false`. Durable
    /// state is updated first, so a worker fault during removal is
    /// recoverable (the rebuild simply omits the query); removing a query
    /// hosted on a degraded shard under [`FaultPolicy::ServeDegraded`] is
    /// registry-only — the worker's copy dies with the eventual rebuild.
    pub fn try_deregister(&mut self, query: QueryId) -> Result<bool, EngineError> {
        self.ensure_serviceable()?;
        let Some(shard) = self.assigned_shard(query) else {
            return Err(EngineError::UnknownQuery(query));
        };
        self.assignment.remove(&query);
        self.registry.remove(&query);
        let at = self.placement[shard]
            .iter()
            .position(|&resident| resident == query)
            // cts-lint: allow(panic-in-hot-path, assignment and placement move together; check_invariants audits the agreement)
            .expect("routing table lists the query on its shard"); // cts-lint: allow(unwrap-in-service, a missing placement entry is routing corruption; panicking beats serving wrong shards)
        self.placement[shard].swap_remove(at);
        self.num_queries -= 1;
        if !self.is_degraded(shard) {
            match self.call_shard(shard, ShardRequest::Deregister(query)) {
                Ok(ShardReply::Deregistered(removed)) => {
                    assert!(
                        removed,
                        "routing table said shard {shard} hosts {query}, shard disagreed"
                    );
                }
                Ok(_) => unreachable!("shard replied out of order"), // cts-lint: allow(panic-in-hot-path, the SPSC protocol pairs every reply with its request)
                Err(err) => {
                    // Durable state already dropped the query; recovery
                    // rebuilds the shard without it.
                    self.handle_shard_failure(err)?;
                }
            }
        }
        self.maybe_rebalance();
        Ok(true)
    }

    /// A query's ITA bookkeeping snapshot, if it is registered and its shard
    /// is healthy (served by the shard currently hosting it; `None` while
    /// the shard is degraded).
    pub fn query_stats(&self, query: QueryId) -> Option<ItaQueryStats> {
        let shard = self.assigned_shard(query)?;
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

    /// Runs one balance check (see [`RebalanceConfig`]): while the heaviest
    /// shard exceeds the trigger ratio over the uniform share **and** a
    /// migration reduces imbalance, move the heaviest shard's most recently
    /// placed query to the lightest shard. Called at load-change and burst
    /// boundaries only — never between an arrival and its expirations — so
    /// migration can never split an event. Skipped entirely while any shard
    /// is degraded (migration would touch unrecovered state).
    fn maybe_rebalance(&mut self) {
        if !self.rebalance.enabled || self.workers.len() < 2 || self.any_degraded() {
            return;
        }
        let ideal = self.num_queries as f64 / self.workers.len() as f64;
        let trigger = self.rebalance.max_over_ideal * ideal;
        for _ in 0..self.rebalance.max_migrations_per_check {
            let Some((heavy, _)) = self
                .placement
                .iter()
                .enumerate()
                .max_by_key(|(_, resident)| resident.len())
            else {
                break;
            };
            let Some((light, _)) = self
                .placement
                .iter()
                .enumerate()
                .min_by_key(|(_, resident)| resident.len())
            else {
                break;
            };
            let (high, low) = (self.placement[heavy].len(), self.placement[light].len());
            if (high as f64) <= trigger || high - low < 2 {
                break;
            }
            let slot = self.placement[heavy].len() - 1;
            if self.migrate(heavy, slot, light).is_err() {
                // The faulting shard is marked degraded; the next
                // operation's policy deals with it.
                break;
            }
        }
    }

    /// Moves the complete ITA state of the query at `placement[from][slot]`
    /// to shard `to` (extract, reroute, install). Outcome-neutral by
    /// construction: the migrated thresholds and result set are installed
    /// verbatim and the receiving shadow index files the list of any term
    /// that just became live from the postings resolved here — between
    /// bursts, when the mirror holds what every healthy shard's store does —
    /// so every subsequent event is processed as on the old shard. The routing tables
    /// move **between** extract and install, so a fault on either side leaves
    /// durable state pointing at the shard that should (re)build the query.
    fn migrate(&mut self, from: usize, slot: usize, to: usize) -> Result<(), EngineError> {
        let qid = self.placement[from][slot];
        let migration = match self.call_shard(from, ShardRequest::Extract(qid))? {
            ShardReply::Extracted(Some(migration)) => migration,
            ShardReply::Extracted(None) => {
                // cts-lint: allow(panic-in-hot-path, a corrupt routing table is unrecoverable; check_invariants audits it)
                panic!("rebalance: shard {from} does not host {qid} (routing table corrupt)")
            }
            _ => unreachable!("shard replied out of order"), // cts-lint: allow(panic-in-hot-path, the SPSC protocol pairs every reply with its request)
        };
        self.placement[from].swap_remove(slot);
        self.placement[to].push(qid);
        self.assignment.insert(qid, to);
        self.migrations += 1;
        let postings = Arc::new(self.mirror.postings(migration.terms()));
        match self.call_shard(to, ShardRequest::Install(qid, migration, postings))? {
            ShardReply::Installed => Ok(()),
            _ => unreachable!("shard replied out of order"), // cts-lint: allow(panic-in-hot-path, the SPSC protocol pairs every reply with its request)
        }
    }

    /// Test hook for the chaos suite: makes `shard`'s worker thread exit
    /// without replying, exactly as a killed thread would look from the
    /// coordinator's side. The next operation that touches the shard
    /// observes the disconnect and applies the fault policy. Returns whether
    /// the crash request reached the worker.
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
        let Some(shard) = self.assigned_shard(query) else {
            return Vec::new();
        };
        if self.is_degraded(shard) {
            // Stale under ServeDegraded: the caller can distinguish "no
            // matches" from "shard down" via `query_is_stale`.
            return Vec::new();
        }
        match self.call_shard(shard, ShardRequest::Results(query)) {
            Ok(ShardReply::Results(results)) => results,
            Ok(_) => unreachable!("shard replied out of order"), // cts-lint: allow(panic-in-hot-path, the SPSC protocol pairs every reply with its request)
            Err(_) => Vec::new(),
        }
    }

    fn num_queries(&self) -> usize {
        self.num_queries
    }

    fn num_valid_documents(&self) -> usize {
        for shard in 0..self.workers.len() {
            if self.is_degraded(shard) {
                continue;
            }
            match self.call_shard(shard, ShardRequest::NumValidDocuments) {
                Ok(ShardReply::NumValidDocuments(count)) => return count,
                Ok(_) => unreachable!("shard replied out of order"), // cts-lint: allow(panic-in-hot-path, the SPSC protocol pairs every reply with its request)
                Err(_) => continue,
            }
        }
        // Every worker is down; the mirror is the authoritative window.
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

    /// Audits the coordinator's durable state (registry, routing table and
    /// placement must agree exactly — they are what cold resurrection
    /// rebuilds shards from — and the window mirror's own structure: only
    /// sealed chunks carry a term directory, each equal to a rebuild from
    /// its documents) and then has every healthy worker audit its own
    /// engine, and that its store holds the mirror's documents in arrival
    /// order, via [`ShardRequest::CheckInvariants`]; a worker-side violation
    /// comes back as a fault carrying the assertion message and is re-raised
    /// here. Degraded shards are skipped — their state is gone by
    /// definition and the rebuild starts from the durable state just
    /// audited.
    fn check_invariants(&self) {
        assert_eq!(
            self.assignment.len(),
            self.num_queries,
            "routing table size disagrees with the query count"
        );
        assert_eq!(
            self.registry.len(),
            self.num_queries,
            "query registry size disagrees with the query count"
        );
        let placed: usize = self.placement.iter().map(Vec::len).sum();
        assert_eq!(
            placed, self.num_queries,
            "placement tables hold {placed} residents over {} queries",
            self.num_queries
        );
        for (shard, resident) in self.placement.iter().enumerate() {
            for qid in resident {
                assert_eq!(
                    self.assignment.get(qid).copied(),
                    Some(shard),
                    "{qid} is resident on shard {shard} but routed elsewhere"
                );
                assert!(
                    self.registry.contains_key(qid),
                    "{qid} is placed but missing from the durable registry"
                );
            }
        }
        self.mirror.check_invariants();
        let mirrored: Arc<[DocId]> = self.mirror.iter().map(|doc| doc.id).collect();
        for shard in 0..self.workers.len() {
            if self.is_degraded(shard) {
                continue;
            }
            match self.call_shard(shard, ShardRequest::CheckInvariants(Arc::clone(&mirrored))) {
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

    #[test]
    fn hash_partition_spreads_stride_patterned_id_sets() {
        // The failure mode of a low-bits partition: a churned workload whose
        // surviving ids share low bits (all even, or one residue mod 8)
        // collapses onto a fraction of the shards. The multiply-shift over
        // the Fibonacci hash keys on the high bits instead, so such sets
        // still spread.
        let sharded = ShardedItaEngine::new(SlidingWindow::count_based(4), ItaConfig::default(), 8);
        for stride in [2u32, 4, 8] {
            let used: std::collections::HashSet<usize> = (0..64u32)
                .map(|i| sharded.shard_of(QueryId(i * stride)))
                .collect();
            assert!(
                used.len() >= 6,
                "stride-{stride} ids reached only {} of 8 shards",
                used.len()
            );
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
        assert!(singles.shard_loads()[1] > 0, "shard 1 hosts nothing");
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

    #[test]
    fn rebalancer_levels_an_engineered_skew() {
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
        // Concentrate the surviving population on the initial-hash shard 0,
        // then make sure the rebalancer spread it back out.
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
        assert!(sharded.migrations() > 0, "no migration happened");
        let loads = sharded.shard_loads();
        assert_eq!(loads.iter().sum::<usize>(), survivors.len());
        let uniform = survivors.len() as f64 / 4.0;
        assert!(
            *loads.iter().max().unwrap() as f64 <= (2.0 * uniform).max(1.0),
            "loads {loads:?} not within 2x of uniform {uniform}"
        );
        // Routing follows the migrations: some survivor no longer lives on
        // its hash shard, yet every survivor is still routable.
        assert!(survivors
            .iter()
            .any(|&q| sharded.assigned_shard(q) != Some(0)));
        assert!(survivors
            .iter()
            .all(|&q| sharded.assigned_shard(q).is_some()));
        for i in 30..60u64 {
            let d = doc(i, &[((i % 12) as u32, 0.2 + (i % 4) as f64 * 0.2)]);
            assert_lockstep_event(&mut reference, &mut sharded, &d, &survivors);
        }
    }

    #[test]
    fn disabled_rebalancer_keeps_the_static_hash_placement() {
        let window = SlidingWindow::count_based(8);
        let mut sharded = ShardedItaEngine::with_rebalance(window, 4, RebalanceConfig::disabled());
        assert!(!sharded.rebalance_config().enabled);
        let qids: Vec<QueryId> = (0..16u32)
            .map(|t| sharded.register(query(&[(t % 5, 1.0)], 1)))
            .collect();
        let survivors: Vec<QueryId> = qids
            .iter()
            .copied()
            .filter(|&q| sharded.shard_of(q) == 0)
            .collect();
        for &q in &qids {
            if !survivors.contains(&q) {
                assert!(sharded.deregister(q));
            }
        }
        assert_eq!(sharded.migrations(), 0);
        for &q in &survivors {
            assert_eq!(sharded.assigned_shard(q), Some(0));
        }
        assert_eq!(sharded.shard_loads()[0], survivors.len());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let _ = ShardedItaEngine::new(SlidingWindow::count_based(4), ItaConfig::default(), 0);
    }

    #[test]
    #[should_panic(expected = "would thrash")]
    fn sub_uniform_rebalance_trigger_is_rejected() {
        let _ = ShardedItaEngine::with_rebalance(
            SlidingWindow::count_based(4),
            2,
            RebalanceConfig {
                max_over_ideal: 0.5,
                ..RebalanceConfig::default()
            },
        );
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

    #[test]
    fn spawn_with_retry_counts_retries_and_keeps_slots_contiguous() {
        // Call 1 (slot 1) fails once then succeeds; calls 3 and 4 both fail,
        // dropping one requested shard.
        let mut calls = 0u32;
        let mut spawn = |slot: usize| -> Result<usize, ()> {
            calls += 1;
            match calls {
                2 | 4 | 5 => Err(()),
                _ => Ok(slot),
            }
        };
        let (spawned, retries, fallbacks) = spawn_with_retry(4, &mut spawn);
        // The engine degrades to 3 shards; their slot indices stay 0..3
        // because a dropped slot's index is reused by the next attempt.
        assert_eq!(spawned, vec![0, 1, 2]);
        assert_eq!(retries, 2);
        assert_eq!(fallbacks, 1);
    }

    #[test]
    fn spawn_with_retry_all_failures_yields_no_workers() {
        let mut spawn = |_slot: usize| -> Result<usize, ()> { Err(()) };
        let (spawned, retries, fallbacks) = spawn_with_retry(3, &mut spawn);
        assert!(spawned.is_empty());
        assert_eq!(retries, 3);
        assert_eq!(fallbacks, 3);
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
        assert_eq!(stats.events_during_degraded, 0);
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
