//! A brute-force reference evaluator.
//!
//! [`BruteForceOracle`] keeps no per-query state at all: it stores the valid
//! documents and, when asked for a query's results, scores **every** valid
//! document from scratch and ranks them with a plain sort. It is the slowest
//! possible correct implementation, which is precisely what makes it the
//! ground truth the test suites validate [`cts_core::ItaEngine`] and
//! [`crate::NaiveEngine`] against — any divergence is a bug in the
//! incremental machinery, never in the oracle. It shares no scoring code
//! with them either: it scores by the plain merge ([`cts_text::dot_product`]),
//! where the engines' `ContinuousQuery::score` probes the composition list
//! by lockstep binary searches. Both add the matched products in ascending
//! term order, so the scores agree bit for bit.

use std::collections::{BTreeMap, VecDeque};

use cts_core::{ContinuousQuery, Engine, EventOutcome, RankedDocument};
use cts_index::{Document, QueryId, SlidingWindow, Timestamp};
use cts_text::dot_product;

/// The exhaustive re-evaluation engine.
#[derive(Debug, Clone)]
pub struct BruteForceOracle {
    window: SlidingWindow,
    /// The valid documents, oldest first — a plain list, kept apart from the
    /// engines' `WindowTerms` (and ranked by its own sort) so the
    /// reference shares no container code with what it checks.
    store: VecDeque<Document>,
    queries: BTreeMap<QueryId, ContinuousQuery>,
    next_query: u32,
    clock: Timestamp,
}

impl BruteForceOracle {
    /// Creates an oracle with the given sliding-window policy.
    pub fn new(window: SlidingWindow) -> Self {
        Self {
            window,
            store: VecDeque::new(),
            queries: BTreeMap::new(),
            next_query: 0,
            clock: Timestamp::ZERO,
        }
    }
}

impl Engine for BruteForceOracle {
    fn register(&mut self, query: ContinuousQuery) -> QueryId {
        let qid = QueryId(self.next_query);
        self.next_query += 1;
        self.queries.insert(qid, query);
        qid
    }

    fn deregister(&mut self, query: QueryId) -> bool {
        self.queries.remove(&query).is_some()
    }

    /// Stores the arrival and applies expirations. Evaluation is lazy (done
    /// in [`Engine::current_results`]), so the outcome's
    /// `queries_touched_*` counters report the conceptual cost of full
    /// re-evaluation — every query, on every update — and `results_changed`
    /// is always 0 (the oracle does not track deltas).
    fn process_document(&mut self, doc: Document) -> EventOutcome {
        self.clock = doc.arrival;
        let mut outcome = EventOutcome {
            arrived: doc.id,
            queries_touched_by_arrival: self.queries.len(),
            ..EventOutcome::default()
        };
        self.store.push_back(doc);
        // The window rule, applied here by hand: pop the oldest while it is
        // stale, stop at the first fresh one.
        while let Some(oldest) = self.store.front() {
            if !self
                .window
                .is_stale(self.store.len(), oldest.arrival, self.clock)
            {
                break;
            }
            self.store.pop_front();
            outcome.expired += 1;
        }
        outcome.queries_touched_by_expiration = outcome.expired * self.queries.len();
        outcome
    }

    fn current_results(&self, query: QueryId) -> Vec<RankedDocument> {
        let Some(query) = self.queries.get(&query) else {
            return Vec::new();
        };
        let mut results: Vec<RankedDocument> = self
            .store
            .iter()
            .map(|doc| RankedDocument {
                doc: doc.id,
                score: dot_product(query.weights().as_slice(), doc.composition.as_slice()),
            })
            .filter(|ranked| ranked.score > 0.0)
            .collect();
        // The ranking rule (DESIGN §4), written out: score descending, ties
        // by ascending document id.
        results.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc)));
        results.truncate(query.k());
        results
    }

    fn num_queries(&self) -> usize {
        self.queries.len()
    }

    fn num_valid_documents(&self) -> usize {
        self.store.len()
    }

    fn clock(&self) -> Timestamp {
        self.clock
    }

    fn name(&self) -> &'static str {
        "brute-force"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_index::DocId;
    use cts_text::{TermId, WeightedVector};

    fn doc(id: u64, terms: &[(u32, f64)]) -> Document {
        Document::new(
            DocId(id),
            Timestamp::from_millis(id),
            WeightedVector::from_weights(terms.iter().map(|&(t, w)| (TermId(t), w))),
        )
    }

    #[test]
    fn evaluates_the_window_exhaustively() {
        let mut o = BruteForceOracle::new(SlidingWindow::count_based(3));
        let q = o.register(ContinuousQuery::from_weights([(TermId(1), 1.0)], 2));
        for (i, w) in [0.5, 0.9, 0.1, 0.7].into_iter().enumerate() {
            o.process_document(doc(i as u64, &[(1, w)]));
        }
        // Window holds d1 (0.9), d2 (0.1), d3 (0.7).
        let top: Vec<u64> = o.current_results(q).iter().map(|r| r.doc.0).collect();
        assert_eq!(top, vec![1, 3]);
        assert_eq!(o.num_valid_documents(), 3);
    }

    #[test]
    fn counters_report_full_reevaluation_cost() {
        let mut o = BruteForceOracle::new(SlidingWindow::count_based(1));
        o.register(ContinuousQuery::from_weights([(TermId(1), 1.0)], 1));
        o.register(ContinuousQuery::from_weights([(TermId(2), 1.0)], 1));
        o.process_document(doc(0, &[(1, 0.5)]));
        let out = o.process_document(doc(1, &[(1, 0.5)]));
        assert_eq!(out.queries_touched_by_arrival, 2);
        assert_eq!(out.expired, 1);
        assert_eq!(out.queries_touched_by_expiration, 2);
        assert_eq!(out.results_changed, 0);
    }

    #[test]
    fn nonmatching_documents_are_excluded() {
        let mut o = BruteForceOracle::new(SlidingWindow::count_based(10));
        let q = o.register(ContinuousQuery::from_weights([(TermId(1), 1.0)], 5));
        o.process_document(doc(0, &[(2, 0.9)]));
        o.process_document(doc(1, &[(1, 0.2)]));
        let top = o.current_results(q);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].doc, DocId(1));
    }

    #[test]
    fn unknown_query_yields_no_results() {
        let o = BruteForceOracle::new(SlidingWindow::count_based(10));
        assert!(o.current_results(QueryId(7)).is_empty());
    }

    #[test]
    fn deregister_and_name() {
        let mut o = BruteForceOracle::new(SlidingWindow::count_based(10));
        let q = o.register(ContinuousQuery::from_weights([(TermId(1), 1.0)], 1));
        assert_eq!(o.name(), "brute-force");
        assert!(o.deregister(q));
        assert!(!o.deregister(q));
    }
}
