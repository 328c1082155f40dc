//! Query-sharded parallel execution of the Incremental Threshold Algorithm.
//!
//! [`ShardedItaEngine`] partitions the registered queries across `N` worker
//! shards by a deterministic hash of the query id. Each shard owns, for its
//! query subset, **everything** the single-shard [`ItaEngine`] owns for the
//! full set: the per-query result sets and local thresholds, the per-term
//! threshold trees, and a *term-filtered shadow* inverted index — segmented
//! impact lists for only the terms its queries reference, mirrored over the
//! shared window (every shard's `WindowTerms` holds `Arc`s, so the window's
//! composition lists exist once in memory no matter how many shards mirror
//! them).
//!
//! ## Calls
//!
//! The coordinator talks to a worker in **calls**: it ships a closure over
//! the worker's state down the shard's job queue and receives the closure's
//! typed result on a reply channel that belongs to that one call, so an
//! operation is one closure at its call site and no reply can be read by
//! another call. A fan-out submits its call to every shard before it waits
//! on any, so the shards work in parallel.
//!
//! Stream events cross the boundary in **bursts**, and a single event is a
//! burst of one (DESIGN.md §8 has the traffic numbers that make this the
//! only path): the coordinator wraps each document in an `Arc` and ships the
//! burst to every shard in **one call per shard**. Every worker probes its
//! own trees, repairs its own result sets and slides its own window mirror
//! with **zero cross-shard locking on the hot path** — the channel handoff
//! at the burst boundary is the only synchronisation — processing (and
//! timing) the events one by one, in order, so outcomes are byte-identical
//! whatever the burst length (the batch-vs-singles differential tests
//! enforce it). The per-shard [`crate::EventOutcome`]s are folded back with
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
//! A production service cannot let one faulting worker take every
//! registered query down, so a worker panic is **data, not death of the
//! process** (DESIGN.md §10):
//!
//! * **A shard is only ever built** — one function starts every worker: a
//!   fresh thread seeded with the mirror's documents, the shard's queries
//!   and their postings, which builds its engine from the seed and answers
//!   once on a ready channel. [`ShardedItaEngine::new`] seeds every worker
//!   empty; recovery seeds one from the coordinator's durable state.
//! * **A faulted worker exits** — the build and every call run under
//!   [`std::panic::catch_unwind`]. A panic answers with a typed
//!   [`ShardFault`] and ends the thread, so a shard is either healthy or
//!   gone; the coordinator marks it *degraded* alike for a fault, a failed
//!   submit and a reply channel that closes unanswered.
//! * **One recovery path, the seeded rebuild** — the coordinator keeps
//!   durable state updated **before** any fan-out — a query registry
//!   (id → [`ContinuousQuery`]), whose ids hash to their shards, and a window
//!   mirror of `Arc`'d documents ([`WindowTerms`]) — and rebuilds a degraded
//!   shard from it: join the old thread, resolve the postings of the shard's
//!   queries against the mirror, spawn a worker seeded with them. The worker
//!   loads the mirror's documents into a fresh engine (no query is live, so
//!   nothing is filed), then registers the queries in one batch. A rebuilt
//!   shard is "these queries registered over this window", the state any
//!   registration produces. Its top-k results are exact (ITA's reported
//!   top-k is a function of the window contents and the queries); its
//!   thresholds are a fresh registration's, not the faulted history's, so
//!   its work counters — and the event outcomes built from them — are a
//!   rebuilt engine's from the shard's first fault on (DESIGN.md §10).
//! * **Rebuilt before the call returns** — a mutating call rebuilds every
//!   degraded shard before it fans out, and again before it returns, so a
//!   shard that faults during a call loses its share of that call's
//!   outcomes and nothing else. The call surfaces a typed [`EngineError`]
//!   only when a rebuild itself fails. A read through `&self` cannot
//!   rebuild: it answers a degraded shard with its fallback (empty results,
//!   zeroed stats) and leaves the shard to the next mutating call.
//!
//! A document whose id is already in the window (or twice in one burst) is
//! refused with [`EngineError::DuplicateDocument`] before any shard or the
//! mirror sees it: every worker would panic on it, and the mirror would
//! hand it to every rebuild.
//!
//! Workers are **persistent**: one thread per shard, living until the engine
//! is dropped or the worker faults. Construction panics if any of them
//! fails to start, so an engine always runs on the shards it was asked for;
//! a worker that fails to start during a rebuild leaves the shard degraded
//! for the next mutating call to try again. Dropping the engine closes
//! every job queue and joins the threads; a worker's [`ProcessingStats`]
//! are read while the engine lives
//! ([`ShardedItaEngine::aggregate_shard_stats`]).
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
//! documents) and ships the [`TermPostings`] with the call, and so does a
//! rebuild's seed; the shard files
//! what it finds newly live and never resolves through its own window
//! ([`ItaEngine::register_entries_walked`] stays 0 on every shard). Arrival
//! and expiry do no term work on the mirror (DESIGN.md §9). The randomized
//! differential test in `tests/sharded_equivalence.rs` enforces
//! byte-identical results and event outcomes against [`ItaEngine`] across
//! shard counts, deregistration and window expiry; `tests/chaos_recovery.rs`
//! enforces exact results with faults injected and rebuilt mid-stream, and
//! identical outcomes up to the first fault.

#![deny(clippy::disallowed_types)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use cts_index::{
    DocId, Document, IndexStats, QueryId, SlidingWindow, TermPostings, Timestamp, WindowTerms,
    WindowTermsStats,
};

use crate::engine::{Engine, EventOutcome};
use crate::fault::{EngineError, FaultStats, ShardFault};
use crate::ita::{ItaConfig, ItaEngine, ItaQueryStats};
use crate::query::ContinuousQuery;
use crate::result::RankedDocument;
use crate::stats::ProcessingStats;

/// What a worker builds its engine from: the mirror's documents (oldest
/// first) and the mirror's sequence number of the first of them, then the
/// shard's queries registered with the postings the coordinator resolved
/// for their terms over those documents — which name documents by those
/// numbers. Empty for a worker [`ShardedItaEngine::new`] starts.
#[derive(Default)]
struct Seed {
    first_seq: u64,
    window: Vec<Arc<Document>>,
    queries: Vec<(QueryId, Arc<ContinuousQuery>)>,
    postings: TermPostings,
}

/// One unit of work on a shard's job queue, run on the worker's thread
/// against its state; it returns whether the worker keeps serving.
type Job = Box<dyn FnOnce(&mut ShardWorker) -> bool + Send>;

/// A call submitted to a shard and not yet waited on: the receiving end of
/// the reply channel that belongs to this one call.
struct Pending<T> {
    shard: usize,
    reply: Receiver<Result<T, ShardFault>>,
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

/// Runs `work` under a panic guard, turning a caught panic into `shard`'s
/// typed fault.
fn guarded<T>(shard: usize, work: impl FnOnce() -> T) -> Result<T, ShardFault> {
    catch_unwind(AssertUnwindSafe(work)).map_err(|payload| ShardFault {
        shard,
        context: panic_message(payload.as_ref()),
    })
}

/// The per-thread state of one shard worker: the engine, local processing
/// stats, and whether an injected fault is armed.
struct ShardWorker {
    shard: usize,
    engine: ItaEngine,
    stats: ProcessingStats,
    /// Whether [`Engine::inject_fault`] armed an injected fault. The next
    /// stream event fires it, and the worker dies with it: arming twice
    /// still faults once.
    fault_armed: bool,
}

impl ShardWorker {
    /// Builds the shard's engine from its seed. The mirror holds only
    /// currently valid documents, so loading them triggers no expiration,
    /// and with no query live it files nothing and runs no threshold work.
    /// Then the shard's queries register as any burst does, with their
    /// postings resolved over those documents. No injection check and no
    /// stats recording: building is not stream work.
    fn build(shard: usize, window: SlidingWindow, seed: Seed) -> Self {
        let mut engine = ItaEngine::term_filtered_from(window, seed.first_seq);
        for doc in seed.window {
            engine.process_shared(doc);
        }
        engine.register_shared_batch(&seed.queries, &seed.postings);
        Self {
            shard,
            engine,
            stats: ProcessingStats::default(),
            fault_armed: false,
        }
    }

    /// Processes and times a burst of stream events one by one, so the
    /// outcomes and the per-worker stats do not depend on how the stream
    /// was cut into bursts. An armed injected fault models a *partial*
    /// failure: the event is applied for real, then the panic fires and
    /// ends the worker.
    fn process_burst(&mut self, docs: &[Arc<Document>]) -> Vec<EventOutcome> {
        docs.iter()
            .map(|doc| {
                let doc_id = doc.id;
                #[expect(
                    clippy::disallowed_types,
                    reason = "times the event for stats; never read by engine state"
                )]
                let start = std::time::Instant::now();
                let outcome = self.engine.process_shared(Arc::clone(doc));
                let elapsed = start.elapsed();
                #[expect(
                    clippy::panic,
                    reason = "deliberate injected fault; the recovery machinery under test"
                )]
                if self.fault_armed {
                    panic!("injected fault while processing document {}", doc_id.0);
                }
                self.stats.record(&outcome, elapsed);
                outcome
            })
            .collect()
    }

    /// Audits the shard engine's deep structural invariants, that its store
    /// holds exactly `mirror` (the coordinator's documents, oldest first)
    /// numbered from `front_seq` as the mirror numbers them, and that it
    /// hosts exactly `hosted` (the registry's ids that hash to this shard).
    /// A violation panics right here, which ends the worker with a fault
    /// carrying the message.
    fn audit(&self, front_seq: u64, mirror: &[DocId], hosted: &[QueryId]) {
        let engine = &self.engine;
        engine.check_invariants();
        // Shipped postings are only right if the coordinator resolved them
        // over the very documents this store holds, numbered alike.
        assert!(
            engine
                .store_documents()
                .map(|doc| doc.id)
                .eq(mirror.iter().copied()),
            "the shard's store and the coordinator's mirror hold different documents"
        );
        assert_eq!(
            engine.front_seq(),
            front_seq,
            "the shard numbers its documents apart from the coordinator's mirror"
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
    }
}

/// How long a worker that has just finished a job keeps polling its queue
/// before it parks. The coordinator's calls come in runs — a burst, then a
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

/// The worker's next job: polled for while [`LINGER`] lasts, then awaited.
/// `None` once the coordinator has hung up.
fn next_job(jobs: &Receiver<Job>) -> Option<Job> {
    #[expect(
        clippy::disallowed_types,
        reason = "bounds the poll before parking; never read by engine state"
    )]
    let lingering = std::time::Instant::now();
    while lingering.elapsed() < LINGER {
        match jobs.try_recv() {
            Ok(job) => return Some(job),
            Err(TryRecvError::Empty) => std::thread::yield_now(),
            Err(TryRecvError::Disconnected) => return None,
        }
    }
    jobs.recv().ok()
}

/// A worker thread's whole life: build the engine from `seed` under a panic
/// guard and answer `ready` with the outcome, then run jobs until the
/// coordinator hangs up or a job says to stop — a call that panicked, or
/// the disconnect test hook.
fn worker_loop(
    shard: usize,
    window: SlidingWindow,
    seed: Seed,
    jobs: Receiver<Job>,
    ready: SyncSender<Result<(), ShardFault>>,
) {
    match guarded(shard, || ShardWorker::build(shard, window, seed)) {
        Ok(mut worker) => {
            // A failed send means the coordinator is gone; nothing to serve.
            if ready.send(Ok(())).is_ok() {
                while let Some(job) = next_job(&jobs) {
                    if !job(&mut worker) {
                        return;
                    }
                }
            }
        }
        Err(fault) => {
            let _ = ready.send(Err(fault));
        }
    }
}

/// One shard's job queue and thread handle, as owned by the coordinator.
#[derive(Debug)]
struct ShardHandle {
    jobs: Sender<Job>,
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
/// call protocol, the fault model and the exactness argument.
#[derive(Debug)]
pub struct ShardedItaEngine {
    /// Per-shard job queues + thread handles. A rebuild replaces a shard's
    /// handle in place, so the vector length is the shard count.
    workers: Vec<ShardHandle>,
    window: SlidingWindow,
    /// Durable copy of every registered query, in id order. Its keys are the
    /// registered set, each living on the shard its id hashes to
    /// ([`ShardedItaEngine::shard_of`]) — with `mirror`, everything a
    /// rebuild needs. Updated **before**
    /// any fan-out, so a call lost to a crashed worker is still
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
    /// Panics if `shards == 0`, or if any worker fails to start: an engine
    /// runs on exactly the shards it was asked for.
    pub fn new(window: SlidingWindow, _config: ItaConfig, shards: usize) -> Self {
        assert!(shards > 0, "a sharded engine needs at least one shard");
        let start = |shard| match Self::spawn_worker(shard, window, Seed::default()) {
            Ok(handle) => handle,
            #[expect(
                clippy::panic,
                reason = "construction fails loudly rather than run on fewer shards than asked for"
            )]
            Err(error) => panic!("could not start shard worker {shard}: {error}"),
        };
        let workers: Vec<ShardHandle> = (0..shards).map(start).collect();
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

    /// The one way a shard worker comes to be: spawns a fresh thread that
    /// builds its engine from `seed`, and returns once it answered that it
    /// is ready. A thread that fails to spawn is
    /// [`EngineError::ShardUnavailable`]; a build that panics is the
    /// worker's [`EngineError::ShardFault`], its thread joined.
    fn spawn_worker(
        shard: usize,
        window: SlidingWindow,
        seed: Seed,
    ) -> Result<ShardHandle, EngineError> {
        let (jobs, job_queue) = mpsc::channel();
        let (ready_tx, ready) = mpsc::sync_channel(1);
        #[expect(
            clippy::disallowed_methods,
            reason = "the shard supervisor: every worker thread is spawned here, and rebuilt here after a fault"
        )]
        let thread = std::thread::Builder::new()
            .name(format!("cts-shard-{shard}"))
            .spawn(move || worker_loop(shard, window, seed, job_queue, ready_tx))
            .map_err(|_| EngineError::ShardUnavailable { shard })?;
        let failed = match ready.recv() {
            Ok(Ok(())) => {
                return Ok(ShardHandle {
                    jobs,
                    thread: Some(thread),
                })
            }
            Ok(Err(fault)) => EngineError::ShardFault(fault),
            Err(_) => EngineError::ShardUnavailable { shard },
        };
        let _ = thread.join();
        Err(failed)
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
    /// same for a fault as for a disconnect.
    fn mark_degraded(&self, shard: usize) {
        let mut state = self.fault_state.borrow_mut();
        if !state.degraded[shard] {
            state.stats.faults += 1;
            state.degraded[shard] = true;
        }
    }

    /// Ships `work` to `shard`'s worker, which runs it under the panic
    /// guard and answers on this call's own reply channel: the result, or
    /// the fault that ends the worker. A worker found gone marks the shard
    /// degraded.
    fn submit<T: Send + 'static>(
        &self,
        shard: usize,
        work: impl FnOnce(&mut ShardWorker) -> T + Send + 'static,
    ) -> Result<Pending<T>, EngineError> {
        let (answer, reply) = mpsc::sync_channel(1);
        let job: Job = Box::new(move |worker| {
            let result = guarded(shard, || work(worker));
            let serving = result.is_ok();
            let _ = answer.send(result);
            serving
        });
        if self.workers[shard].jobs.send(job).is_err() {
            self.mark_degraded(shard);
            return Err(EngineError::ShardUnavailable { shard });
        }
        Ok(Pending { shard, reply })
    }

    /// Blocks for a submitted call's answer, converting a fault and a reply
    /// channel closed unanswered (the worker exited) into typed errors that
    /// mark the shard degraded.
    fn wait<T>(&self, call: Pending<T>) -> Result<T, EngineError> {
        let shard = call.shard;
        let error = match call.reply.recv() {
            Ok(Ok(value)) => return Ok(value),
            Ok(Err(fault)) => EngineError::ShardFault(fault),
            Err(_) => EngineError::ShardUnavailable { shard },
        };
        self.mark_degraded(shard);
        Err(error)
    }

    /// Runs `work` on `shard`'s worker and blocks for its result.
    fn call<T: Send + 'static>(
        &self,
        shard: usize,
        work: impl FnOnce(&mut ShardWorker) -> T + Send + 'static,
    ) -> Result<T, EngineError> {
        self.wait(self.submit(shard, work)?)
    }

    /// Rebuilds every degraded shard from the durable registry + window
    /// mirror. Every mutating call runs it before its fan-out, for shards a
    /// read or a failed rebuild left degraded, and again after it has
    /// waited on every shard, for shards the call itself degraded.
    fn recover_degraded(&mut self) -> Result<(), EngineError> {
        for shard in 0..self.workers.len() {
            if self.is_degraded(shard) {
                self.rebuild(shard)?;
            }
        }
        Ok(())
    }

    /// The one recovery path, for one shard: join the old worker thread —
    /// a degraded shard's worker faulted or hung up, so it has exited —
    /// then spawn a worker seeded with the mirror's documents and
    /// the shard's queries (the registry's ids that hash to it, in id
    /// order), their postings resolved here as
    /// [`ShardedItaEngine::try_register_batch`] resolves a burst's. Rebuilt
    /// results are exact; the thresholds are a fresh registration's, so
    /// future work counters need not match a fault-free history — see
    /// DESIGN.md §10.
    fn rebuild(&mut self, shard: usize) -> Result<(), EngineError> {
        #[expect(
            clippy::disallowed_types,
            reason = "measures recovery cost only; never read by engine state"
        )]
        let start = std::time::Instant::now();
        if let Some(thread) = self.workers[shard].thread.take() {
            // An error here is a panic that escaped the worker's guard; the
            // panic hook has reported it, and the shard is rebuilt anyway.
            let _ = thread.join();
        }
        let queries: Vec<(QueryId, Arc<ContinuousQuery>)> = self
            .registry
            .iter()
            .filter(|(qid, _)| self.shard_of(**qid) == shard)
            .map(|(qid, query)| (*qid, Arc::clone(query)))
            .collect();
        let postings = self.mirror.postings(
            queries
                .iter()
                .flat_map(|(_, query)| query.terms().map(|(term, _)| term)),
        );
        let seed = Seed {
            first_seq: self.mirror.front_seq(),
            window: self.mirror.iter().cloned().collect(),
            queries,
            postings,
        };
        self.workers[shard] = Self::spawn_worker(shard, self.window, seed)?;
        let mut state = self.fault_state.borrow_mut();
        state.degraded[shard] = false;
        state.stats.recoveries += 1;
        state.stats.recovery_micros += start.elapsed().as_micros() as u64;
        Ok(())
    }

    /// Appends `doc` to the durable window mirror and prunes it with the
    /// exact policy the workers apply, returning how many documents expired
    /// (cross-checked against the shards' outcomes in debug builds).
    fn push_mirror(&mut self, doc: Arc<Document>) -> usize {
        let now = doc.arrival;
        self.mirror.push(doc);
        std::iter::from_fn(|| self.mirror.pop_expired(self.window, now)).count()
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
    #[expect(
        clippy::expect_used,
        reason = "try_process_batch returns exactly one outcome per document"
    )]
    pub fn try_process(&mut self, doc: Document) -> Result<EventOutcome, EngineError> {
        let outcome = self.try_process_batch(vec![doc])?.pop();
        Ok(outcome.expect("one outcome per document"))
    }

    /// Fallible burst processing: the `try_*` twin of
    /// [`Engine::process_batch`], and the one path a stream event takes to
    /// the shards. A burst that repeats an id, or names one still in the
    /// window, is refused whole with [`EngineError::DuplicateDocument`]
    /// before anything moves. Every degraded shard is rebuilt before the
    /// fan-out, and every shard that faults during it — a worker found gone
    /// at the submit, or one that faults on the burst — before returning,
    /// from the mirror, which holds the burst by then: that shard's share
    /// of the burst's outcomes is lost (results stay exact).
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
        let pending: Vec<Pending<Vec<EventOutcome>>> = (0..self.workers.len())
            .filter_map(|shard| {
                let docs = Arc::clone(&docs);
                self.submit(shard, move |w| w.process_burst(&docs)).ok()
            })
            .collect();
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
        for call in pending {
            // A faulted shard is marked degraded and rebuilt below.
            if let Ok(outcomes) = self.wait(call) {
                debug_assert_eq!(outcomes.len(), merged.len(), "shards saw different bursts");
                for (into, outcome) in merged.iter_mut().zip(&outcomes) {
                    into.merge_shard(outcome);
                }
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
    /// the fan-out, so a shard that faults during registration is rebuilt
    /// with the burst's queries from the registry. On error the registry
    /// keeps the minted registrations; the next mutating call's rebuild
    /// makes the workers agree.
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
            // Durable state first: a fault from here on rebuilds with the
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
        // Submit every shard's group before awaiting any answer, so the
        // shards file their lists and run their threshold searches in
        // parallel. The queries are shared with the registry, the postings
        // with the other shards.
        let pending: Vec<Pending<()>> = per_shard
            .into_iter()
            .enumerate()
            .filter(|(_, group)| !group.is_empty())
            .filter_map(|(shard, group)| {
                let postings = Arc::clone(&postings);
                self.submit(shard, move |w| {
                    w.engine.register_shared_batch(&group, &postings)
                })
                .ok()
            })
            .collect();
        for call in pending {
            // A faulted shard is marked degraded; its rebuild below
            // registers the burst from the registry.
            let _ = self.wait(call);
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
        match self.call(shard, move |w| w.engine.deregister(query)) {
            Ok(removed) => assert!(
                removed,
                "shard {shard} did not host {query}, its hash shard"
            ),
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
        self.call(shard, move |w| w.engine.query_stats(query))
            .ok()
            .flatten()
    }

    /// Per-shard shadow-index statistics, in shard order. Postings sum to
    /// the sharded system's total index footprint (terms referenced by
    /// queries in two shards are mirrored in both); every healthy shard
    /// reports the same document count. Degraded shards report zeroed
    /// stats.
    pub fn shard_index_stats(&self) -> Vec<IndexStats> {
        self.broadcast_collect(|w| w.engine.index_stats())
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
    /// handling), in shard order. Degraded shards report zeroed stats, and a
    /// rebuilt shard counts from its rebuild: a worker's stats die with it.
    pub fn shard_stats(&self) -> Vec<ProcessingStats> {
        self.broadcast_collect(|w| w.stats)
    }

    /// Zeroes every worker's processing statistics. Call after an untimed
    /// setup phase (window fill, workload registration) so
    /// [`ShardedItaEngine::shard_stats`] and
    /// [`ShardedItaEngine::aggregate_shard_stats`] cover only the events
    /// processed afterwards. A degraded shard's rebuild starts from zeroed
    /// stats anyway.
    pub fn reset_shard_stats(&mut self) {
        self.broadcast_collect(|w| w.stats = ProcessingStats::default());
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

    /// Runs `work` on every healthy shard — submitted to all before any is
    /// waited on — and returns the results in shard order, with the default
    /// value for a degraded or faulting shard (the read-only fan-outs: index
    /// and processing statistics, and the stats reset).
    fn broadcast_collect<T: Default + Send + 'static>(
        &self,
        work: impl FnOnce(&mut ShardWorker) -> T + Send + Copy + 'static,
    ) -> Vec<T> {
        let pending: Vec<Option<Pending<T>>> = (0..self.workers.len())
            .map(|shard| {
                if self.is_degraded(shard) {
                    return None;
                }
                self.submit(shard, work).ok()
            })
            .collect();
        pending
            .into_iter()
            .map(|call| {
                call.and_then(|call| self.wait(call).ok())
                    .unwrap_or_default()
            })
            .collect()
    }

    /// Test hook for the chaos suite: makes `shard`'s worker thread exit
    /// without answering, exactly as a killed thread would look from the
    /// coordinator's side. The next operation that touches the shard
    /// observes the disconnect: a mutating one rebuilds the shard before it
    /// returns, a read answers with its fallback and leaves the rebuild to
    /// the next mutating call. Returns whether the exit job reached the
    /// worker's queue.
    pub fn inject_disconnect(&mut self, shard: usize) -> bool {
        let shard = shard % self.workers.len();
        self.workers[shard].jobs.send(Box::new(|_| false)).is_ok()
    }
}

impl Engine for ShardedItaEngine {
    #[expect(
        clippy::expect_used,
        reason = "register_batch returns exactly one id per query"
    )]
    fn register(&mut self, query: ContinuousQuery) -> QueryId {
        self.register_batch(vec![query])
            .pop()
            .expect("one id per registered query")
    }

    #[expect(
        clippy::panic,
        reason = "the infallible Engine surface; typed errors live on the try_* twin"
    )]
    fn register_batch(&mut self, queries: Vec<ContinuousQuery>) -> Vec<QueryId> {
        self.try_register_batch(queries)
            .unwrap_or_else(|err| panic!("sharded engine could not register: {err}"))
    }

    fn deregister(&mut self, query: QueryId) -> bool {
        match self.try_deregister(query) {
            Ok(removed) => removed,
            Err(EngineError::UnknownQuery(_)) => false,
            #[expect(
                clippy::panic,
                reason = "the infallible Engine surface; typed errors live on the try_* twin"
            )]
            Err(err) => panic!("sharded engine could not deregister: {err}"),
        }
    }

    #[expect(
        clippy::panic,
        reason = "the infallible Engine surface; typed errors live on the try_* twin"
    )]
    fn process_document(&mut self, doc: Document) -> EventOutcome {
        self.try_process(doc)
            .unwrap_or_else(|err| panic!("sharded engine could not serve the event: {err}"))
    }

    #[expect(
        clippy::panic,
        reason = "the infallible Engine surface; typed errors live on the try_* twin"
    )]
    fn process_batch(&mut self, docs: Vec<Document>) -> Vec<EventOutcome> {
        self.try_process_batch(docs)
            .unwrap_or_else(|err| panic!("sharded engine could not serve the batch: {err}"))
    }

    fn current_results(&self, query: QueryId) -> Vec<RankedDocument> {
        match self.host(query) {
            // A read cannot rebuild a degraded shard; the next mutating
            // call does.
            Some(shard) if !self.is_degraded(shard) => self
                .call(shard, move |w| w.engine.current_results(query))
                .unwrap_or_default(),
            _ => Vec::new(),
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
        !self.is_degraded(shard) && self.call(shard, |w| w.fault_armed = true).is_ok()
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
    /// the registry's queries that hash to it; a worker-side violation
    /// comes back as a fault carrying the assertion message and is
    /// re-raised here. Degraded shards are skipped — their worker is gone
    /// by definition and the rebuild starts from the registry and the
    /// mirror.
    fn check_invariants(&self) {
        self.mirror.check_invariants();
        let mirrored: Arc<[DocId]> = self.mirror.iter().map(|doc| doc.id).collect();
        let front_seq = self.mirror.front_seq();
        let mut hosted = vec![Vec::new(); self.workers.len()];
        for &qid in self.registry.keys() {
            hosted[self.shard_of(qid)].push(qid);
        }
        for (shard, hosted) in hosted.into_iter().enumerate() {
            if self.is_degraded(shard) {
                continue;
            }
            let mirrored = Arc::clone(&mirrored);
            #[expect(
                clippy::panic,
                reason = "audit-only path re-raising a worker-side assertion"
            )]
            if let Err(err) = self.call(shard, move |w| w.audit(front_seq, &mirrored, &hosted)) {
                panic!("shard {shard} failed its invariant audit: {err}");
            }
        }
    }
}

impl Drop for ShardedItaEngine {
    /// Hangs up every worker's job queue, which ends its loop, and joins
    /// the threads.
    fn drop(&mut self) {
        for ShardHandle { jobs, thread } in self.workers.drain(..) {
            drop(jobs);
            #[expect(
                clippy::panic,
                reason = "drop path surfacing a worker panic that escaped its guard"
            )]
            if let Some(thread) = thread {
                if thread.join().is_err() && !std::thread::panicking() {
                    panic!("a shard worker panicked; see stderr for the root cause");
                }
            }
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
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

    /// Feeds `doc` to both engines and asserts that they stay in lockstep:
    /// the same event outcome (so a shard double-counting touched queries
    /// fails even where results agree) and the same top-k on every query in
    /// `queries`.
    fn assert_lockstep_event(
        reference: &mut ItaEngine,
        sharded: &mut ShardedItaEngine,
        doc: &Document,
        queries: &[QueryId],
    ) {
        let expected = reference.process_document(doc.clone());
        let actual = sharded.process_document(doc.clone());
        assert_eq!(expected, actual, "event outcomes diverged on {}", doc.id);
        for &query in queries {
            assert_eq!(
                reference.current_results(query),
                sharded.current_results(query),
                "results diverged on {query}"
            );
        }
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
        let used: std::collections::BTreeSet<usize> =
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
        // Each shard reports what its lists hold, bytes and dead postings
        // included: within the quarter rule.
        assert!(index.iter().all(|s| (s.list_bytes > 0) == (s.postings > 0)));
        assert!(index.iter().all(|s| 4 * s.dead_postings <= s.postings));
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

    /// The one fault rule: a shard that faults during a call is rebuilt
    /// before the call returns and loses its share of that call's outcomes.
    /// Here the worker is killed and joined before the event, so the fan-out
    /// finds it gone at the send, through either entry point. The rebuild
    /// loads the event from the mirror unrecorded, so the rebuilt shard
    /// counts no event, and the outcome is shard 0's share alone — the
    /// window's arrival and expirations are the reference's — while results
    /// stay exact.
    #[test]
    fn a_worker_gone_before_an_event_is_rebuilt_and_loses_its_share() {
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
        let on_shard_0 = qids.iter().filter(|&&q| singles.shard_of(q) == 0).count();
        assert!(
            on_shard_0 > 0 && on_shard_0 < qids.len(),
            "both shards must host a query"
        );
        for i in 0..12u64 {
            let d = doc(i, &[((i % 3) as u32, 0.1 + (i % 4) as f64 * 0.1)]);
            reference.process_document(d.clone());
            singles.process_document(d.clone());
            bursts.process_document(d);
        }
        for engine in [&mut singles, &mut bursts] {
            // Joined, so the send fails instead of racing the exit.
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
            (expected.arrived, expected.expired, on_shard_0)
        );
        for engine in [&singles, &bursts] {
            assert_eq!(engine.shard_stats()[1].events, 0);
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

    /// A fault ends the shard's worker, and the coordinator rebuilds it before the
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

    /// A panic inside a call reaches the caller as a fault that carries the
    /// worker's own message. Here a query is deregistered on its worker's
    /// engine behind the coordinator's back, so the worker's placement audit
    /// fails; the next mutating call rebuilds the shard from the registry,
    /// and every query's results are exact again.
    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_message() {
        let window = SlidingWindow::count_based(8);
        let mut reference = ItaEngine::new(window, ItaConfig::default());
        let mut sharded = ShardedItaEngine::new(window, ItaConfig::default(), 2);
        let mut qids = Vec::new();
        for t in 0..2u32 {
            let q = query(&[(t, 0.6), (2 + t, 0.4)], 2);
            let qid = reference.register(q.clone());
            assert_eq!(sharded.register(q), qid);
            qids.push(qid);
        }
        let lone = qids[0];
        let shard = sharded.shard_of(lone);
        assert_ne!(
            sharded.shard_of(qids[1]),
            shard,
            "the shard must host one query"
        );
        for i in 0..10u64 {
            let d = doc(i, &[((i % 4) as u32, 0.1 + (i % 5) as f64 * 0.1)]);
            reference.process_document(d.clone());
            sharded.process_document(d);
        }
        let removed = sharded.call(shard, move |w| w.engine.deregister(lone));
        assert!(matches!(removed, Ok(true)));
        let audit = catch_unwind(AssertUnwindSafe(|| sharded.check_invariants()));
        let message = panic_message(audit.expect_err("the audit must fail").as_ref());
        assert!(message.contains("failed its invariant audit"), "{message}");
        let worker_text =
            format!("shard {shard} hosts 0 queries, not the 1 the registry places on it");
        assert!(message.contains(&worker_text), "{message}");
        assert_eq!(sharded.fault_stats().expect("tracked").degraded_shards, 1);
        let d = doc(10, &[(0, 0.9), (1, 0.9)]);
        reference.process_document(d.clone());
        sharded.process_document(d);
        let stats = sharded.fault_stats().expect("tracked");
        assert_eq!(
            (stats.faults, stats.recoveries, stats.degraded_shards),
            (1, 1, 0)
        );
        for &q in &qids {
            assert_eq!(sharded.current_results(q), reference.current_results(q));
        }
        sharded.check_invariants();
    }
}
