//! Query-sharded parallel execution of the Incremental Threshold Algorithm.
//!
//! [`ShardedItaEngine`] partitions the registered queries across `N` shards
//! by a hash of the query id. The coordinator owns the one window of valid
//! documents (a [`WindowTerms`]); each shard owns, for its query subset,
//! everything else the single-shard [`crate::ItaEngine`] owns for the full
//! set: result sets, local thresholds, threshold trees, and
//! *term-filtered* impact lists for only the terms its queries reference,
//! whose postings name the coordinator's documents by sequence number.
//!
//! ## Calls and fan-outs
//!
//! A shard is data the coordinator owns: its core, its processing stats
//! and an armed-fault flag, in one slot of a `Vec`. Reads (results, stats,
//! the audit) are direct calls on it. A mutating call reaches its shards
//! through one **fan-out**, in **steps** (a burst's step is one event, a
//! registration batch is one step), and every shard reads the coordinator's
//! window through a shared borrow. A call carrying one event, or reaching
//! one shard, runs its shards one after another on the caller's thread. A
//! larger burst or registration batch gives the first shard to the caller
//! and every other shard to a thread of one [`std::thread::scope`], which
//! takes its shard over when it starts; until then the caller steps that
//! shard in turn with its own. No thread outlives a call. Every shard runs
//! a burst's events one by one, in order, timing each, so outcomes are
//! byte-identical whatever the burst length; the per-shard
//! [`crate::EventOutcome`]s fold with [`crate::EventOutcome::merge_shard`]
//! into exactly the single-shard engine's, and per-shard
//! [`ProcessingStats`] merge with [`ProcessingStats::absorb`].
//!
//! A query lives on the shard [`ShardedItaEngine::shard_of`] hashes its id
//! to, from registration to deregistration (DESIGN.md §8).
//!
//! ## Fault tolerance
//!
//! A panic in a shard's work is **data, not death of the process**
//! (DESIGN.md §10):
//!
//! * **Every step runs under [`std::panic::catch_unwind`]**, whichever
//!   thread runs it. A panic drops that shard's state — its slot is empty
//!   until the shard is rebuilt — and counts one fault.
//! * **One recovery path: a rebuild is a registration.** The coordinator
//!   updates its durable state **before** any fan-out — a query registry
//!   (id → [`ContinuousQuery`]) and the window — and rebuilds a shard from
//!   it in place: a fresh core, and the shard's queries registered in one
//!   batch with postings resolved on the window. No document is replayed.
//!   Its top-k results are exact; its thresholds are a fresh
//!   registration's, so its work counters, and the outcomes built from
//!   them, are a rebuilt engine's from the shard's first fault on.
//! * **Rebuilt before the call returns.** A mutating call rebuilds every
//!   shard that faulted in its fan-out before it returns, so such a shard
//!   loses its share of that call's outcomes and nothing else, and every
//!   mutating call first rebuilds a shard left degraded. A shard stays
//!   degraded between calls only when its rebuild panicked, which the call
//!   returns as [`EngineError::ShardFault`]; reads answer it with their
//!   fallback (empty results, zeroed stats).
//!
//! ## Why this is exact
//!
//! Every structure the ITA maintenance paths read is *per query term*:
//! registration and refill descend the query's own lists, and arrivals and
//! expirations consult the threshold trees of the document's terms. A
//! shard whose lists are complete for its queries' terms therefore makes the
//! single-shard engine's reads for those queries. The coordinator resolves
//! the postings of a registration's terms once for all shards, on its
//! window, between bursts — when every shard holds valid exactly the
//! window's documents. A burst is pushed whole before its fan-out and the
//! expired are popped only after it, before any rebuild: a refill at event
//! *i* reads documents that leave before the burst ends.
//! `sharded_equivalence` holds results and outcomes byte-identical to
//! [`crate::ItaEngine`]'s across shard counts; `chaos_recovery` holds
//! results exact through faults and outcomes identical up to the first.

#![deny(clippy::disallowed_types)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};

use cts_index::{
    DocId, Document, IndexStats, QueryId, SlidingWindow, TermLists, TermPostings, Timestamp,
    WindowTerms, WindowTermsStats,
};

use crate::engine::{Engine, EventOutcome};
use crate::fault::{EngineError, FaultStats, ShardFault};
use crate::ita::{ItaConfig, ItaCore, ItaQueryStats};
use crate::query::ContinuousQuery;
use crate::result::RankedDocument;
use crate::stats::ProcessingStats;

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

/// The state of one shard: its core, local processing stats, and whether
/// an injected fault is armed. It holds no documents: its core reads the
/// coordinator's window.
#[derive(Debug)]
struct ShardWorker {
    shard: usize,
    core: ItaCore,
    stats: ProcessingStats,
    /// Whether [`Engine::inject_fault`] armed an injected fault. The next
    /// stream event fires it, and the shard's state is dropped with it:
    /// arming twice still faults once.
    fault_armed: bool,
}

impl ShardWorker {
    /// A fresh core over `window` with `queries` registered in one batch,
    /// from `postings` the coordinator resolved on that window. No
    /// injection check and no stats recording: building is not stream work.
    fn build(
        shard: usize,
        window: &WindowTerms,
        queries: &[(QueryId, Arc<ContinuousQuery>)],
        postings: &TermPostings,
    ) -> Self {
        let mut core = ItaCore::new(TermLists::term_filtered(), window);
        core.register(window, queries, postings);
        Self {
            shard,
            core,
            stats: ProcessingStats::default(),
            fault_armed: false,
        }
    }

    /// Processes and times one stream event — the arrival numbered `seq`,
    /// then the expiries up to `front` — so the outcomes and the per-shard
    /// stats do not depend on how the stream was cut into bursts. An armed
    /// injected fault models a *partial* failure: the event is applied for
    /// real, then the panic fires.
    fn process_event(&mut self, window: &WindowTerms, seq: u64, front: u64) -> EventOutcome {
        #[expect(
            clippy::disallowed_types,
            reason = "times the event for stats; never read by engine state"
        )]
        let start = std::time::Instant::now();
        let outcome = self.core.process(window, seq, front);
        let elapsed = start.elapsed();
        #[expect(
            clippy::panic,
            reason = "deliberate injected fault; the recovery machinery under test"
        )]
        if self.fault_armed {
            panic!(
                "injected fault while processing document {}",
                outcome.arrived.0
            );
        }
        self.stats.record(&outcome, elapsed);
        outcome
    }

    /// Audits the shard's core against the coordinator's `window`, and that
    /// it hosts exactly `hosted` (the registry's ids that hash to this
    /// shard). A violation panics with its message.
    fn audit(&self, window: &WindowTerms, hosted: &[QueryId]) {
        let core = &self.core;
        core.check_invariants(window);
        // Placement is the hash: the registry's distinct ids that hash here,
        // and no other query.
        assert!(
            core.num_queries() == hosted.len()
                && hosted.iter().all(|qid| core.query_stats(*qid).is_some()),
            "shard {} hosts {} queries, not the {} the registry places on it",
            self.shard,
            core.num_queries(),
            hosted.len()
        );
    }
}

/// One shard's share of a fan-out: its state, the answers of the steps it
/// has run, and the fault that stopped it, if one did.
struct Lane<'a, T> {
    worker: &'a mut ShardWorker,
    answers: Vec<T>,
    fault: Option<ShardFault>,
    /// Set by the scoped thread that takes the lane over; until then the
    /// caller steps it.
    claimed: bool,
}

impl<T> Lane<'_, T> {
    /// Whether the lane has a step left: fewer than `steps` run, no fault.
    fn open(&self, steps: usize) -> bool {
        self.fault.is_none() && self.answers.len() < steps
    }

    /// Runs the lane's next step under the panic guard; a panic stops the
    /// lane with the shard's fault.
    fn step(&mut self, work: &impl Fn(&mut ShardWorker, usize) -> T) {
        let at = self.answers.len();
        let worker = &mut *self.worker;
        match guarded(worker.shard, || work(worker, at)) {
            Ok(answer) => self.answers.push(answer),
            Err(fault) => self.fault = Some(fault),
        }
    }

    /// Runs the lane's remaining steps.
    fn run(&mut self, steps: usize, work: &impl Fn(&mut ShardWorker, usize) -> T) {
        while self.open(steps) {
            self.step(work);
        }
    }

    /// The lane's shard and its answer: the step answers, or the fault.
    fn finish(self) -> (usize, Result<Vec<T>, ShardFault>) {
        let answer = match self.fault {
            Some(fault) => Err(fault),
            None => Ok(self.answers),
        };
        (self.worker.shard, answer)
    }
}

/// Takes a lane over from the caller, waiting out its one step unparked.
fn claim<'l, T>(lane: &'l Mutex<T>) -> MutexGuard<'l, T> {
    loop {
        match lane.try_lock() {
            Ok(lane) => return lane,
            Err(TryLockError::Poisoned(poisoned)) => return poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => std::thread::yield_now(),
        }
    }
}

/// The paper's ITA, executed across `N` query-partitioned shards with panic
/// isolation and in-place recovery.
///
/// Implements [`Engine`] with results byte-identical to the single-shard
/// [`crate::ItaEngine`] over any stream — including streams with faults —
/// and event outcomes byte-identical up to the first fault, after which
/// they are a rebuilt shard's. See the module docs for the partitioning rule,
/// the call model, the fault model and the exactness argument.
#[derive(Debug)]
pub struct ShardedItaEngine {
    /// One slot per shard, so the vector length is the shard count. A slot
    /// is `None` while its shard is degraded: a fault dropped its state and
    /// no rebuild has restored it yet.
    shards: Vec<Option<ShardWorker>>,
    policy: SlidingWindow,
    /// Durable copy of every registered query, in id order, each on the
    /// shard its id hashes to — with `window`, everything a rebuild needs.
    /// Updated **before** any fan-out, so a call lost to a fault is still
    /// reconstructible.
    registry: BTreeMap<QueryId, Arc<ContinuousQuery>>,
    /// The valid documents, oldest first: the engine's one window, which
    /// every shard's core reads and nobody else holds. Updated before any
    /// fan-out; its term directories make it the one place a registration's
    /// postings are resolved, and its id set refuses duplicate ids.
    window: WindowTerms,
    /// Fault counters; `degraded_shards` is counted from `shards` on read.
    faults: FaultStats,
    next_query: u32,
    clock: Timestamp,
}

impl ShardedItaEngine {
    /// Creates an engine with `shards` shards, each a term-filtered core
    /// under the given window policy. The [`ItaConfig`] is empty and
    /// ignored.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(window: SlidingWindow, _config: ItaConfig, shards: usize) -> Self {
        assert!(shards > 0, "a sharded engine needs at least one shard");
        let documents = WindowTerms::new();
        let empty = TermPostings::default();
        Self {
            shards: (0..shards)
                .map(|shard| Some(ShardWorker::build(shard, &documents, &[], &empty)))
                .collect(),
            policy: window,
            registry: BTreeMap::new(),
            window: documents,
            faults: FaultStats::default(),
            next_query: 0,
            clock: Timestamp::ZERO,
        }
    }

    /// Number of shards: always the count [`ShardedItaEngine::new`] was
    /// given.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The sliding-window policy in force.
    pub fn window(&self) -> SlidingWindow {
        self.policy
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
        ((u128::from(hashed) * self.shards.len() as u128) >> 64) as usize
    }

    /// The healthy shard hosting `query`, if it is registered.
    fn host(&self, query: QueryId) -> Option<&ShardWorker> {
        if !self.registry.contains_key(&query) {
            return None;
        }
        self.shards[self.shard_of(query)].as_ref()
    }

    /// Drops `shard`'s state, counting a fault when it was healthy.
    fn drop_shard(&mut self, shard: usize) -> bool {
        let dropped = self.shards[shard].take().is_some();
        self.faults.faults += u64::from(dropped);
        dropped
    }

    /// The one fan-out: runs `steps` steps of `work` (step `i` of a burst is
    /// its `i`-th event), each under the panic guard, on every healthy shard
    /// `touches` names, with the window lent to every step, and answers per
    /// shard with the step answers or the fault that stopped it. Without
    /// `spread`, or on one shard, the caller runs the shards in turn.
    /// Otherwise the first shard is the caller's and each other shard's
    /// scoped thread takes it over when it starts; until then the caller
    /// steps it with its own, so a thread that starts late costs half its
    /// delay (DESIGN.md §7, §9). A shard that panicked is dropped; the
    /// caller rebuilds it ([`ShardedItaEngine::recover_degraded`]) once the
    /// window is as the call leaves it.
    fn fan_out<T: Send>(
        &mut self,
        steps: usize,
        spread: bool,
        touches: impl Fn(usize) -> bool,
        work: impl Fn(&mut ShardWorker, &WindowTerms, usize) -> T + Sync,
    ) -> Vec<Result<Vec<T>, ShardFault>> {
        let window = &self.window;
        let work = |worker: &mut ShardWorker, at| work(worker, window, at);
        let mut lanes: Vec<Lane<T>> = self
            .shards
            .iter_mut()
            .enumerate()
            .filter(|(shard, _)| touches(*shard))
            .filter_map(|(_, slot)| slot.as_mut())
            .map(|worker| Lane {
                worker,
                answers: Vec::new(),
                fault: None,
                claimed: false,
            })
            .collect();
        if spread && lanes.len() > 1 {
            let others: Vec<Mutex<Lane<T>>> = lanes.drain(1..).map(Mutex::new).collect();
            std::thread::scope(|scope| {
                let threads: Vec<_> = others
                    .iter()
                    .filter_map(|lane| {
                        #[expect(
                            clippy::disallowed_methods,
                            reason = "the one fan-out: every shard thread is scoped to the call that spawns it"
                        )]
                        let thread = std::thread::Builder::new().spawn_scoped(scope, || {
                            let mut lane = claim(lane);
                            lane.claimed = true;
                            lane.run(steps, &work);
                        });
                        // A thread that fails to spawn leaves its lane to
                        // the caller.
                        thread.ok()
                    })
                    .collect();
                let own = &mut lanes[0];
                loop {
                    let mut stepped = own.open(steps);
                    if stepped {
                        own.step(&work);
                    }
                    for lane in &others {
                        if let Ok(mut lane) = lane.try_lock() {
                            if !lane.claimed && lane.open(steps) {
                                lane.step(&work);
                                stepped = true;
                            }
                        }
                    }
                    if !stepped {
                        break;
                    }
                }
                // Waiting without parking keeps the caller's core awake for
                // the answer, which is never more than one lane away.
                for thread in &threads {
                    while !thread.is_finished() {
                        std::thread::yield_now();
                    }
                }
            });
            lanes.extend(
                others
                    .into_iter()
                    .map(|lane| lane.into_inner().unwrap_or_else(PoisonError::into_inner)),
            );
        } else {
            for lane in &mut lanes {
                lane.run(steps, &work);
            }
        }
        let answers: Vec<(usize, Result<Vec<T>, ShardFault>)> =
            lanes.into_iter().map(Lane::finish).collect();
        for (shard, answer) in &answers {
            if answer.is_err() {
                self.drop_shard(*shard);
            }
        }
        answers.into_iter().map(|(_, answer)| answer).collect()
    }

    /// Rebuilds every degraded shard from the durable registry and window.
    /// Every mutating call runs it before its fan-out, for a shard a failed
    /// call left degraded, and after it, for the shards that faulted in it.
    fn recover_degraded(&mut self) -> Result<(), EngineError> {
        for shard in 0..self.shards.len() {
            if self.shards[shard].is_none() {
                self.rebuild(shard)?;
            }
        }
        Ok(())
    }

    /// The one recovery path, run in place: a fresh core with the shard's
    /// queries (the registry's ids that hash to it, in id order) registered
    /// in one batch, their postings resolved on the window as
    /// [`ShardedItaEngine::try_register_batch`] resolves a burst's. A build
    /// that panics is the shard's [`EngineError::ShardFault`], and the shard
    /// stays degraded (DESIGN.md §10).
    fn rebuild(&mut self, shard: usize) -> Result<(), EngineError> {
        #[expect(
            clippy::disallowed_types,
            reason = "measures recovery cost only; never read by engine state"
        )]
        let start = std::time::Instant::now();
        let queries: Vec<(QueryId, Arc<ContinuousQuery>)> = self
            .registry
            .iter()
            .filter(|(qid, _)| self.shard_of(**qid) == shard)
            .map(|(qid, query)| (*qid, Arc::clone(query)))
            .collect();
        let postings = self.window.postings(
            queries
                .iter()
                .flat_map(|(_, query)| query.terms().map(|(term, _)| term)),
        );
        let window = &self.window;
        let worker = guarded(shard, || {
            ShardWorker::build(shard, window, &queries, &postings)
        })?;
        self.shards[shard] = Some(worker);
        self.faults.recoveries += 1;
        self.faults.recovery_micros += start.elapsed().as_micros() as u64;
        Ok(())
    }

    /// An id of `docs` that is still in the window or occurs twice among
    /// them: the window would refuse it mid-burst by panicking.
    fn first_duplicate(&self, docs: &[Document]) -> Option<DocId> {
        let mut ids: Vec<DocId> = docs.iter().map(|doc| doc.id).collect();
        ids.sort_unstable();
        ids.windows(2)
            .find(|pair| pair[0] == pair[1])
            .map(|pair| pair[0])
            .or_else(|| ids.into_iter().find(|id| self.window.contains(*id)))
    }

    /// Fallible burst processing: the `try_*` twin of
    /// [`Engine::process_batch`] and [`Engine::process_document`], and the
    /// one path a stream event takes to the shards. A burst that repeats an
    /// id, or names one still in the window, is refused whole with
    /// [`EngineError::DuplicateDocument`] before any shard or the window
    /// sees it. Every degraded shard is rebuilt before the fan-out, and
    /// every shard that faults on the burst before returning, over the
    /// window as the burst leaves it: that shard's share of the burst's
    /// outcomes is lost (results stay exact).
    pub fn try_process_batch(
        &mut self,
        docs: Vec<Document>,
    ) -> Result<Vec<EventOutcome>, EngineError> {
        self.process_burst(docs).map(|(merged, _)| merged)
    }

    /// [`ShardedItaEngine::try_process_batch`], also answering the faults
    /// its fan-out caught (and rebuilt), in shard order.
    fn process_burst(
        &mut self,
        docs: Vec<Document>,
    ) -> Result<(Vec<EventOutcome>, Vec<ShardFault>), EngineError> {
        let Some(last) = docs.last() else {
            return Ok((Vec::new(), Vec::new()));
        };
        if let Some(id) = self.first_duplicate(&docs) {
            return Err(EngineError::DuplicateDocument(id));
        }
        self.recover_degraded()?;
        self.clock = last.arrival;
        // The burst becomes durable before any shard sees it: the window
        // takes every document, and each event's front is the policy's at
        // its arrival. That view seeds the merge: `merge_shard` debug-checks
        // every shard's expirations against it, and a burst no shard
        // answered still reports them.
        let mut front = self.window.front_seq();
        let mut events = Vec::with_capacity(docs.len());
        let mut merged = Vec::with_capacity(docs.len());
        for doc in docs {
            let (arrived, now) = (doc.id, doc.arrival);
            let seq = self.window.push(Arc::new(doc));
            let after = self.window.front_after(self.policy, front, seq + 1, now);
            merged.push(EventOutcome {
                arrived,
                expired: (after - front) as usize,
                ..EventOutcome::default()
            });
            events.push((seq, after));
            front = after;
        }
        let answers = self.fan_out(
            events.len(),
            events.len() > 1,
            |_| true,
            |w, window, at| {
                let (seq, front) = events[at];
                w.process_event(window, seq, front)
            },
        );
        // Only now has every shard read what it needs of the expired.
        self.window.trim(front);
        self.recover_degraded()?;
        let mut faults = Vec::new();
        for answer in answers {
            match answer {
                Ok(outcomes) => {
                    debug_assert_eq!(outcomes.len(), merged.len(), "shards saw different bursts");
                    for (into, outcome) in merged.iter_mut().zip(&outcomes) {
                        into.merge_shard(outcome);
                    }
                }
                Err(fault) => faults.push(fault),
            }
        }
        Ok((merged, faults))
    }

    /// Fallible registration burst: the `try_*` twin of
    /// [`Engine::register_batch`]. The window postings of the burst's terms
    /// are resolved here, once — no event burst is in flight, so every
    /// healthy shard holds valid exactly the window's documents — and handed
    /// to the shards, which file them. Each query goes to its hash shard
    /// ([`ShardedItaEngine::shard_of`]). The registry is updated **before**
    /// the fan-out, so a shard that faults during registration is rebuilt
    /// with the burst's queries from the registry. On error the registry
    /// keeps the minted registrations; the next mutating call's rebuild
    /// makes the shards agree.
    pub fn try_register_batch(
        &mut self,
        queries: Vec<ContinuousQuery>,
    ) -> Result<Vec<QueryId>, EngineError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        self.recover_degraded()?;
        let mut per_shard: Vec<Vec<(QueryId, Arc<ContinuousQuery>)>> =
            vec![Vec::new(); self.shards.len()];
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
        let postings = self.window.postings(
            per_shard
                .iter()
                .flatten()
                .flat_map(|(_, query)| query.terms().map(|(term, _)| term)),
        );
        // A shard that faults is rebuilt after the fan-out, and its rebuild
        // registers the burst from the registry.
        self.fan_out(
            1,
            true,
            |shard| !per_shard[shard].is_empty(),
            |w, window, _| w.core.register(window, &per_shard[w.shard], &postings),
        );
        self.recover_degraded()?;
        Ok(ids)
    }

    /// Fallible deregistration: the `try_*` twin of [`Engine::deregister`],
    /// surfacing [`EngineError::UnknownQuery`] instead of `false`. Durable
    /// state is updated first, so a fault during removal is recoverable
    /// (the rebuild simply omits the query).
    pub fn try_deregister(&mut self, query: QueryId) -> Result<bool, EngineError> {
        self.recover_degraded()?;
        if self.registry.remove(&query).is_none() {
            return Err(EngineError::UnknownQuery(query));
        }
        let host = self.shard_of(query);
        let answers = self.fan_out(
            1,
            false,
            |shard| shard == host,
            |w, _, _| w.core.deregister(query),
        );
        self.recover_degraded()?;
        // A shard that faulted was rebuilt without the query.
        for removed in answers.into_iter().flatten().flatten() {
            assert!(removed, "shard {host} did not host {query}, its hash shard");
        }
        Ok(true)
    }

    /// A query's ITA bookkeeping snapshot, if it is registered and its shard
    /// is healthy (served by its hash shard; `None` while the shard is
    /// degraded).
    pub fn query_stats(&self, query: QueryId) -> Option<ItaQueryStats> {
        self.host(query)?.core.query_stats(query)
    }

    /// Per-shard list statistics, in shard order. Postings sum to the
    /// sharded system's total index footprint (terms referenced by queries
    /// in two shards are filed in both); every healthy shard reports the
    /// window's document count. Degraded shards report zeroed stats.
    pub fn shard_index_stats(&self) -> Vec<IndexStats> {
        self.shards
            .iter()
            .map(|slot| {
                slot.as_ref()
                    .map(|w| w.core.index_stats())
                    .unwrap_or_default()
            })
            .collect()
    }

    /// Sizes and counters of the coordinator's [`WindowTerms`] — the window
    /// every registration's postings are resolved against: how many
    /// chunks it spans and how many carry a term directory (and their
    /// bytes), composition entries read by walks, postings answered from
    /// directories and from walks, directories built.
    pub fn window_terms_stats(&self) -> WindowTermsStats {
        self.window.stats()
    }

    /// Per-shard processing statistics (each shard times its own event
    /// handling), in shard order. Degraded shards report zeroed stats, and
    /// a rebuilt shard counts from its rebuild: a shard's stats are dropped
    /// with its state.
    pub fn shard_stats(&self) -> Vec<ProcessingStats> {
        self.shards
            .iter()
            .map(|slot| slot.as_ref().map(|w| w.stats).unwrap_or_default())
            .collect()
    }

    /// Zeroes every shard's processing statistics. Call after an untimed
    /// setup phase (window fill, workload registration) so
    /// [`ShardedItaEngine::shard_stats`] and
    /// [`ShardedItaEngine::aggregate_shard_stats`] cover only the events
    /// processed afterwards. A degraded shard's rebuild starts from zeroed
    /// stats anyway.
    pub fn reset_shard_stats(&mut self) {
        for worker in self.shards.iter_mut().flatten() {
            worker.stats = ProcessingStats::default();
        }
    }

    /// The exact aggregate of every shard's processing statistics, merged
    /// with [`ProcessingStats::absorb`]. `events` counts each stream event
    /// once per shard (every shard handles every event); `total_time` is the
    /// summed busy time across shards — divide by the caller's own
    /// wall-clock event time to read parallel utilisation;
    /// `max_event_time` is the slowest single event any shard processed,
    /// whatever the bursts were.
    pub fn aggregate_shard_stats(&self) -> ProcessingStats {
        let mut merged = ProcessingStats::default();
        for stats in self.shard_stats() {
            merged.absorb(&stats);
        }
        merged
    }

    /// Test hook for the chaos suite: drops `shard`'s state and marks it
    /// degraded, counting one fault, as a fault the call that caused it
    /// could not rebuild would leave it. Reads answer the shard with their
    /// fallback until the next mutating call rebuilds it. Returns whether
    /// the shard was healthy.
    pub fn inject_loss(&mut self, shard: usize) -> bool {
        self.drop_shard(shard % self.shards.len())
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
        let outcome = self
            .try_process_batch(vec![doc])
            .map(|mut one| one.remove(0));
        outcome.unwrap_or_else(|err| panic!("sharded engine could not serve the event: {err}"))
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
        // A degraded shard answers empty until the next mutating call
        // rebuilds it.
        self.host(query)
            .map(|w| w.core.current_results(query))
            .unwrap_or_default()
    }

    fn num_queries(&self) -> usize {
        self.registry.len()
    }

    fn num_valid_documents(&self) -> usize {
        self.window.len()
    }

    fn clock(&self) -> Timestamp {
        self.clock
    }

    fn name(&self) -> &'static str {
        "sharded-ita"
    }

    fn inject_fault(&mut self, shard: usize) -> bool {
        let shard = shard % self.shards.len();
        let Some(worker) = self.shards[shard].as_mut() else {
            return false;
        };
        worker.fault_armed = true;
        true
    }

    fn fault_stats(&self) -> Option<FaultStats> {
        Some(FaultStats {
            degraded_shards: self.shards.iter().filter(|slot| slot.is_none()).count(),
            ..self.faults
        })
    }

    /// Audits the window's own structure (only sealed chunks carry a term
    /// directory, each equal to a rebuild from its documents) and then every
    /// healthy shard's core against it, and that the shard hosts exactly the
    /// registry's queries that hash to it. A shard's violation panics with
    /// the shard named and its message. Degraded shards are skipped — their
    /// state is gone, and the rebuild starts from the registry and the
    /// window.
    fn check_invariants(&self) {
        self.window.check_invariants();
        let mut hosted = vec![Vec::new(); self.shards.len()];
        for &qid in self.registry.keys() {
            hosted[self.shard_of(qid)].push(qid);
        }
        for (shard, worker) in self.shards.iter().enumerate() {
            let Some(worker) = worker else { continue };
            #[expect(
                clippy::panic,
                reason = "audit-only path re-raising a shard's assertion with the shard named"
            )]
            if let Err(fault) = guarded(shard, || worker.audit(&self.window, &hosted[shard])) {
                panic!("shard {shard} failed its invariant audit: {fault}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ita::ItaEngine;
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

    /// A shard left degraded between calls (here by the loss hook) is
    /// rebuilt by the next mutating call before its fan-out, through either
    /// entry point, and so keeps its share of the event: the outcome is the
    /// reference's in every field the rebuild cannot change, the rebuilt
    /// shard counts the event, and results stay exact.
    #[test]
    fn a_lost_shard_is_rebuilt_before_an_event_and_keeps_its_share() {
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
            assert!(engine.inject_loss(1));
            assert!(!engine.inject_loss(1), "a lost shard is lost once");
            assert!(engine.shard_stats()[1] == ProcessingStats::default());
        }
        // The new best document of every query, on both shards.
        let d = doc(12, &[(0, 0.9)]);
        let expected = reference.process_document(d.clone());
        assert_eq!(expected.results_changed, qids.len());
        let single = singles.process_document(d.clone());
        assert_eq!(bursts.process_batch(vec![d]), vec![single]);
        assert_eq!(
            (single.arrived, single.expired, single.results_changed),
            (expected.arrived, expected.expired, qids.len())
        );
        for engine in [&singles, &bursts] {
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

    /// The four places an armed fault can fire: on shard 0, always the
    /// caller's, or on shard 1, whose scoped thread takes it over during a
    /// multi-event burst and which the caller runs for a single event.
    const FAULT_CASES: [(usize, usize); 4] = [(0, 5), (1, 5), (0, 1), (1, 1)];

    /// Fresh engines, outcomes checked equal event by event; then `shard`
    /// is armed and the next `len` events go in as one call. The fault
    /// fires on the call's first event and the shard is rebuilt before the
    /// call returns: the arrivals and expirations are the reference's, the
    /// results exact, and no shard is left degraded. Returns the faults
    /// the call's fan-out caught.
    fn fault_case(shard: usize, len: usize) -> Vec<ShardFault> {
        let window = SlidingWindow::count_based(8);
        let mut reference = ItaEngine::new(window, ItaConfig::default());
        let mut sharded = ShardedItaEngine::new(window, ItaConfig::default(), 2);
        let qids: Vec<QueryId> = (0..6u32)
            .map(|t| {
                let q = query(&[(t % 4, 0.6), (4 + t % 3, 0.4)], 2);
                let qid = reference.register(q.clone());
                assert_eq!(sharded.register(q), qid);
                qid
            })
            .collect();
        let event = |i: u64| doc(i, &[((i % 6) as u32, 0.1 + (i % 5) as f64 * 0.12)]);
        for i in 0..12 {
            assert_lockstep_event(&mut reference, &mut sharded, &event(i), &qids);
        }
        let context = format!("shard {shard}, {len} events");
        assert!(sharded.inject_fault(shard), "{context}");
        let burst: Vec<Document> = (12..12 + len as u64).map(event).collect();
        let expected: Vec<EventOutcome> = burst
            .iter()
            .map(|d| reference.process_document(d.clone()))
            .collect();
        let (actual, faults) = sharded.process_burst(burst).expect("rebuilt in place");
        for (expected, actual) in expected.iter().zip(&actual) {
            assert_eq!(
                (actual.arrived, actual.expired),
                (expected.arrived, expected.expired),
                "{context}"
            );
        }
        let stats = sharded.fault_stats().expect("tracked");
        assert_eq!(
            (stats.faults, stats.recoveries, stats.degraded_shards),
            (1, 1, 0),
            "{context}: the call returned with the shard unrebuilt"
        );
        assert!(sharded.shards[shard].is_some(), "{context}");
        for i in 12 + len as u64..30 {
            let d = event(i);
            reference.process_document(d.clone());
            sharded.process_document(d);
            for &q in &qids {
                assert_eq!(
                    reference.current_results(q),
                    sharded.current_results(q),
                    "{context}: results diverged on {q}"
                );
            }
        }
        sharded.check_invariants();
        faults
    }

    /// A fault drops the shard's state, and the fan-out rebuilds it before
    /// the event returns: the faulted shard's share of that event's outcome
    /// is lost, so outcomes match up to the first fault and results always
    /// — on the caller's thread and on a scoped one, in bursts and singly.
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
        for (shard, len) in FAULT_CASES {
            let faults = fault_case(shard, len);
            let caught: Vec<usize> = faults.iter().map(|fault| fault.shard).collect();
            assert_eq!(caught, vec![shard], "shard {shard}, {len} events");
        }
    }

    /// A fan-out runs shard 0 on the caller's thread, and hands the other
    /// shards to scoped threads only for a call carrying more than one
    /// event or query; a call reaching one shard runs it in place. Here
    /// shard 0's step waits until every other shard has run its own, which
    /// only a scoped thread can do while the caller is inside that step.
    #[test]
    fn a_fan_out_spreads_only_multi_shard_bursts() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let mut sharded =
            ShardedItaEngine::new(SlidingWindow::count_based(4), ItaConfig::default(), 3);
        let caller = std::thread::current().id();
        let mut on_caller = |spread: bool, touches: fn(usize) -> bool| -> Vec<bool> {
            let others = (1..3).filter(|&shard| touches(shard)).count();
            let ran = AtomicUsize::new(0);
            sharded
                .fan_out(1, spread, touches, |w, _, _| {
                    if spread && w.shard == 0 {
                        while ran.load(Ordering::SeqCst) < others {
                            std::thread::yield_now();
                        }
                    } else {
                        ran.fetch_add(1, Ordering::SeqCst);
                    }
                    std::thread::current().id() == caller
                })
                .into_iter()
                .map(|answer| answer.expect("no shard faults") == vec![true])
                .collect()
        };
        assert_eq!(on_caller(true, |_| true), vec![true, false, false]);
        assert_eq!(on_caller(false, |_| true), vec![true, true, true]);
        assert_eq!(on_caller(true, |shard| shard == 2), vec![true]);
        assert_eq!(on_caller(true, |shard| shard != 1), vec![true, false]);
    }

    /// A panic in a shard's work reaches the caller with its own message:
    /// as a [`ShardFault`] of the fan-out — for an armed fault wherever it
    /// fires, and for a panic on the caller's thread and on a scoped one —
    /// and as the audit's panic for a violated invariant. The fan-out
    /// rebuilds the shard before it returns. For the audit, a query is
    /// deregistered on its shard's engine behind the coordinator's back, so
    /// the shard's placement audit fails; an audit only reads, so the shard
    /// stays as it is until it is lost and rebuilt from the registry, and
    /// every query's results are exact again.
    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_message() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let caller = std::thread::current().id();
        for spread in [false, true] {
            let window = SlidingWindow::count_based(8);
            let mut reference = ItaEngine::new(window, ItaConfig::default());
            let mut sharded = ShardedItaEngine::new(window, ItaConfig::default(), 2);
            let qids: Vec<QueryId> = (0..4u32)
                .map(|t| {
                    let q = query(&[(t % 3, 0.7), (3, 0.3)], 2);
                    let qid = reference.register(q.clone());
                    assert_eq!(sharded.register(q), qid);
                    qid
                })
                .collect();
            for i in 0..10u64 {
                let d = doc(i, &[((i % 4) as u32, 0.1 + (i % 5) as f64 * 0.1)]);
                assert_lockstep_event(&mut reference, &mut sharded, &d, &qids);
            }
            // Spread, shard 0's step waits for shard 1's, so shard 1 runs on
            // its scoped thread; in place, shard 1 runs on the caller's.
            let ran = AtomicBool::new(false);
            let answers = sharded.fan_out(
                1,
                spread,
                |_| true,
                |w, _, _| {
                    if w.shard == 0 {
                        while spread && !ran.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                        return;
                    }
                    ran.store(true, Ordering::SeqCst);
                    let scoped = std::thread::current().id() != caller;
                    panic!("shard {} panicked, scoped: {scoped}", w.shard);
                },
            );
            sharded.recover_degraded().expect("the rebuild succeeds");
            assert!(answers[0].is_ok());
            let fault = answers[1].clone().expect_err("shard 1 panicked");
            assert_eq!(fault.shard, 1);
            assert_eq!(fault.context, format!("shard 1 panicked, scoped: {spread}"));
            let stats = sharded.fault_stats().expect("tracked");
            assert_eq!(
                (stats.faults, stats.recoveries, stats.degraded_shards),
                (1, 1, 0),
                "spread {spread}: the fan-out returned with the shard unrebuilt"
            );
            for i in 10..20u64 {
                let d = doc(i, &[((i % 4) as u32, 0.2 + (i % 3) as f64 * 0.2)]);
                reference.process_document(d.clone());
                sharded.process_document(d);
                for &q in &qids {
                    assert_eq!(sharded.current_results(q), reference.current_results(q));
                }
            }
            sharded.check_invariants();
        }
        for (shard, len) in FAULT_CASES {
            let faults = fault_case(shard, len);
            let contexts: Vec<&str> = faults.iter().map(|fault| fault.context.as_str()).collect();
            assert_eq!(
                contexts,
                vec!["injected fault while processing document 12"],
                "shard {shard}, {len} events"
            );
        }
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
        let worker = sharded.shards[shard].as_mut().expect("healthy");
        assert!(worker.core.deregister(lone));
        let audit = catch_unwind(AssertUnwindSafe(|| sharded.check_invariants()));
        let message = panic_message(audit.expect_err("the audit must fail").as_ref());
        assert!(message.contains("failed its invariant audit"), "{message}");
        let worker_text =
            format!("shard {shard} hosts 0 queries, not the 1 the registry places on it");
        assert!(message.contains(&worker_text), "{message}");
        assert_eq!(sharded.fault_stats().expect("tracked").degraded_shards, 0);
        assert!(sharded.inject_loss(shard));
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

    /// A count window of 4 under bursts of 16 whose first seven documents
    /// (and last) outrank the rest: top-k documents expire at every one of
    /// a burst's events 3–10, and the refill each expiry runs reads
    /// documents that leave the window before the burst ends. The coordinator pops the
    /// expired only after the fan-out, so outcomes and results equal the
    /// plain engine's, event by event. With a fault armed before the third
    /// burst, the shard drops at that burst's first event and is rebuilt
    /// over the window as the burst leaves it: arrivals and expiries stay
    /// the plain engine's and the results exact.
    #[test]
    fn a_mid_burst_refill_reads_documents_that_leave_before_the_burst_ends() {
        let window = SlidingWindow::count_based(4);
        let event = |i: u64| {
            let at = i % 16;
            let high = at < 7 || at == 15;
            let weight = if high {
                0.9 - at as f64 * 0.03
            } else {
                0.1 + at as f64 * 0.01
            };
            doc(i, &[((i % 3) as u32, weight), (3, weight / 2.0)])
        };
        for shards in [2, 4] {
            for armed in [None, Some(shards - 1)] {
                let context = format!("{shards} shards, fault on {armed:?}");
                let mut reference = ItaEngine::new(window, ItaConfig::default());
                let mut sharded = ShardedItaEngine::new(window, ItaConfig::default(), shards);
                let qids: Vec<QueryId> = (0..8u32)
                    .map(|t| {
                        let q = query(&[(t % 3, 0.8), (3, 0.2)], 1 + (t % 2) as usize);
                        let qid = reference.register(q.clone());
                        assert_eq!(sharded.register(q), qid, "{context}");
                        qid
                    })
                    .collect();
                let refills = |engine: &ItaEngine| -> u64 {
                    let stats = qids.iter().map(|q| engine.query_stats(*q).expect("live"));
                    stats.map(|stats| stats.refills).sum()
                };
                for burst in 0..4u64 {
                    if burst == 2 {
                        if let Some(shard) = armed {
                            assert!(sharded.inject_fault(shard), "{context}");
                        }
                    }
                    let docs: Vec<Document> = (burst * 16..burst * 16 + 16).map(event).collect();
                    let mut refilled_at = Vec::new();
                    let expected: Vec<EventOutcome> = (0..16u64)
                        .zip(&docs)
                        .map(|(at, d)| {
                            let before = refills(&reference);
                            let outcome = reference.process_document(d.clone());
                            if refills(&reference) > before {
                                refilled_at.push(at);
                            }
                            outcome
                        })
                        .collect();
                    if burst > 0 {
                        let mid_burst = (3..=10).all(|at| refilled_at.contains(&at));
                        assert!(mid_burst, "{context}: refills at {refilled_at:?}");
                    }
                    let actual = sharded.process_batch(docs);
                    if armed.is_none() || burst < 2 {
                        assert_eq!(actual, expected, "{context}: burst {burst}");
                    }
                    for (actual, expected) in actual.iter().zip(&expected) {
                        assert_eq!(
                            (actual.arrived, actual.expired),
                            (expected.arrived, expected.expired),
                            "{context}: burst {burst}"
                        );
                    }
                    for &q in &qids {
                        assert_eq!(
                            sharded.current_results(q),
                            reference.current_results(q),
                            "{context}: burst {burst}, {q}"
                        );
                    }
                    sharded.check_invariants();
                }
                let stats = sharded.fault_stats().expect("tracked");
                let faults = u64::from(armed.is_some());
                assert_eq!(
                    (stats.faults, stats.recoveries),
                    (faults, faults),
                    "{context}"
                );
            }
        }
    }
}
