//! Cross-engine equivalence checking.
//!
//! Every engine in this crate must produce the same top-k for the same
//! stream — ITA and the naïve baseline are *exact* algorithms, not
//! approximations. The helpers here compare engines query by query (same
//! document ids in the same rank order, scores equal up to a floating-point
//! tolerance) and produce a readable [`Divergence`] report on mismatch.
//! They are used by the unit tests, by the `cross_validation` integration
//! test and by the figure-reproduction binaries' self-checks.

use std::fmt;

use cts_index::QueryId;

use crate::engine::Engine;
use crate::result::RankedDocument;

/// The default score tolerance: engines compute scores with the same dot
/// product over the same `f64` inputs, so they agree to round-off.
pub const DEFAULT_TOLERANCE: f64 = 1e-9;

/// A description of the first disagreement found between two engines.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// The query whose results disagree.
    pub query: QueryId,
    /// The reference engine's name.
    pub reference_name: &'static str,
    /// The candidate engine's name.
    pub candidate_name: &'static str,
    /// The reference engine's top-k.
    pub reference: Vec<RankedDocument>,
    /// The candidate engine's top-k.
    pub candidate: Vec<RankedDocument>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "results diverge on {} ({} vs {}):",
            self.query, self.reference_name, self.candidate_name
        )?;
        let rows = self.reference.len().max(self.candidate.len());
        for i in 0..rows {
            let render = |r: Option<&RankedDocument>| match r {
                Some(r) => format!("{} @ {:.9}", r.doc, r.score),
                None => "-".to_string(),
            };
            writeln!(
                f,
                "  #{i}: {:<24} | {}",
                render(self.reference.get(i)),
                render(self.candidate.get(i))
            )?;
        }
        Ok(())
    }
}

/// Whether two ranked lists agree: same documents, same order, scores within
/// `tolerance`.
pub fn results_match(a: &[RankedDocument], b: &[RankedDocument], tolerance: f64) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.doc == y.doc && (x.score - y.score).abs() <= tolerance)
}

/// Compares `candidate` against `reference` on every query in `queries`,
/// returning the first divergence found.
fn compare_engines<R, C>(
    reference: &R,
    candidate: &C,
    queries: &[QueryId],
    tolerance: f64,
) -> Result<(), Box<Divergence>>
where
    R: Engine,
    C: Engine,
{
    for &query in queries {
        let expected = reference.current_results(query);
        let actual = candidate.current_results(query);
        if !results_match(&expected, &actual, tolerance) {
            return Err(Box::new(Divergence {
                query,
                reference_name: reference.name(),
                candidate_name: candidate.name(),
                reference: expected,
                candidate: actual,
            }));
        }
    }
    Ok(())
}

/// Panics with a formatted [`Divergence`] if the engines disagree on any
/// query. Test-suite convenience around `compare_engines`.
pub fn assert_engines_agree<R, C>(reference: &R, candidate: &C, queries: &[QueryId])
where
    R: Engine,
    C: Engine,
{
    if let Err(divergence) = compare_engines(reference, candidate, queries, DEFAULT_TOLERANCE) {
        panic!("{divergence}");
    }
}

/// Feeds the same stream event to both engines and asserts they stay in
/// lockstep: identical [`crate::EventOutcome`] (same expiration count, same
/// number of touched queries, same number of changed results) **and**
/// identical current top-k on every query in `queries`. This is the
/// per-event probe of the sharded-vs-single-shard differential tests, where
/// result equality alone would let work-accounting bugs (e.g. a shard
/// double-counting touched queries) slip through.
pub fn assert_lockstep_event<R, C>(
    reference: &mut R,
    candidate: &mut C,
    doc: &cts_index::Document,
    queries: &[QueryId],
) where
    R: Engine,
    C: Engine,
{
    let expected = reference.process_document(doc.clone());
    let actual = candidate.process_document(doc.clone());
    assert_eq!(
        expected,
        actual,
        "event outcomes diverged on {} ({} vs {})",
        doc.id,
        reference.name(),
        candidate.name()
    );
    assert_engines_agree(reference, candidate, queries);
}

/// Captures the current top-k of every query in `queries`, in order. Use
/// this when two engines cannot be alive at the same time (e.g. the
/// paper-scale sweep harness runs them sequentially to halve peak memory):
/// snapshot the first engine, drop it, then compare the snapshot against the
/// second with [`compare_to_snapshot`].
pub fn snapshot_results<E: Engine>(engine: &E, queries: &[QueryId]) -> Vec<Vec<RankedDocument>> {
    queries.iter().map(|&q| engine.current_results(q)).collect()
}

/// Compares `candidate`'s current results against a snapshot previously
/// taken with [`snapshot_results`] over the same `queries`, returning the
/// first divergence found.
pub fn compare_to_snapshot<C: Engine>(
    reference_name: &'static str,
    snapshot: &[Vec<RankedDocument>],
    candidate: &C,
    queries: &[QueryId],
    tolerance: f64,
) -> Result<(), Box<Divergence>> {
    assert_eq!(
        snapshot.len(),
        queries.len(),
        "snapshot and query list must be parallel"
    );
    for (&query, expected) in queries.iter().zip(snapshot) {
        let actual = candidate.current_results(query);
        if !results_match(expected, &actual, tolerance) {
            return Err(Box::new(Divergence {
                query,
                reference_name,
                candidate_name: candidate.name(),
                reference: expected.clone(),
                candidate: actual,
            }));
        }
    }
    Ok(())
}

/// Every `stride`-th query of `queries` (always including the first), the
/// sampling used by paper-scale self-checks where comparing all 1,000
/// queries after every cell would dominate the run.
pub fn sample_queries(queries: &[QueryId], stride: usize) -> Vec<QueryId> {
    queries.iter().step_by(stride.max(1)).copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ita::{ItaConfig, ItaEngine};
    use crate::naive::{NaiveConfig, NaiveEngine};
    use crate::oracle::BruteForceOracle;
    use crate::query::ContinuousQuery;
    use cts_index::{DocId, Document, SlidingWindow, Timestamp};
    use cts_text::{TermId, WeightedVector};

    fn rd(id: u64, score: f64) -> RankedDocument {
        RankedDocument {
            doc: DocId(id),
            score,
        }
    }

    #[test]
    fn results_match_requires_same_docs_order_and_scores() {
        let a = vec![rd(1, 0.9), rd(2, 0.5)];
        assert!(results_match(&a, &a.clone(), 0.0));
        assert!(!results_match(&a, &[rd(2, 0.5), rd(1, 0.9)], 1e-9));
        assert!(!results_match(&a, &[rd(1, 0.9)], 1e-9));
        assert!(results_match(&a, &[rd(1, 0.9 + 1e-12), rd(2, 0.5)], 1e-9));
        assert!(!results_match(&a, &[rd(1, 0.8), rd(2, 0.5)], 1e-9));
    }

    #[test]
    fn agreeing_engines_pass() {
        let window = SlidingWindow::count_based(5);
        let mut ita = ItaEngine::new(window, ItaConfig::default());
        let mut naive = NaiveEngine::new(window, NaiveConfig::default());
        let mut oracle = BruteForceOracle::new(window);
        let query = ContinuousQuery::from_weights([(TermId(1), 0.8), (TermId(2), 0.6)], 2);
        let q = ita.register(query.clone());
        naive.register(query.clone());
        oracle.register(query);
        let queries = [q];
        for i in 0..20u64 {
            let d = Document::new(
                DocId(i),
                Timestamp::from_millis(i),
                WeightedVector::from_weights([(
                    TermId(1 + (i % 2) as u32),
                    0.1 + (i % 5) as f64 * 0.15,
                )]),
            );
            ita.process_document(d.clone());
            naive.process_document(d.clone());
            oracle.process_document(d);
            assert_engines_agree(&oracle, &ita, &queries);
            assert_engines_agree(&oracle, &naive, &queries);
        }
    }

    #[test]
    fn snapshot_comparison_matches_live_comparison() {
        let window = SlidingWindow::count_based(5);
        let mut a = BruteForceOracle::new(window);
        let mut b = BruteForceOracle::new(window);
        let q = a.register(ContinuousQuery::from_weights([(TermId(1), 1.0)], 2));
        b.register(ContinuousQuery::from_weights([(TermId(1), 1.0)], 2));
        for i in 0..8u64 {
            let d = Document::new(
                DocId(i),
                Timestamp::from_millis(i),
                WeightedVector::from_weights([(TermId(1), 0.1 * (i % 4 + 1) as f64)]),
            );
            a.process_document(d.clone());
            b.process_document(d);
        }
        let queries = [q];
        let snap = snapshot_results(&a, &queries);
        compare_to_snapshot("oracle-a", &snap, &b, &queries, DEFAULT_TOLERANCE)
            .expect("identical streams must match");
        // Perturb b and the snapshot comparison must notice.
        b.process_document(Document::new(
            DocId(99),
            Timestamp::from_millis(99),
            WeightedVector::from_weights([(TermId(1), 9.0)]),
        ));
        let err = compare_to_snapshot("oracle-a", &snap, &b, &queries, DEFAULT_TOLERANCE)
            .expect_err("divergence must be reported");
        assert_eq!(err.query, q);
        assert_eq!(err.reference_name, "oracle-a");
    }

    #[test]
    fn lockstep_helper_accepts_agreeing_engines() {
        let window = SlidingWindow::count_based(4);
        let mut ita = ItaEngine::new(window, ItaConfig::default());
        let mut naive = NaiveEngine::new(window, NaiveConfig::default());
        let q = ita.register(ContinuousQuery::from_weights([(TermId(1), 1.0)], 2));
        naive.register(ContinuousQuery::from_weights([(TermId(1), 1.0)], 2));
        for i in 0..12u64 {
            let d = Document::new(
                DocId(i),
                Timestamp::from_millis(i),
                WeightedVector::from_weights([(TermId(1), 0.1 + (i % 3) as f64 * 0.2)]),
            );
            // ITA and the naïve baseline touch different numbers of queries
            // per event, so lockstep them against equally-configured twins.
            let mut ita_twin = ita.clone();
            assert_lockstep_event(&mut ita, &mut ita_twin, &d, &[q]);
            naive.process_document(d);
            assert_engines_agree(&ita, &naive, &[q]);
        }
    }

    #[test]
    #[should_panic(expected = "event outcomes diverged")]
    fn lockstep_helper_rejects_diverging_outcomes() {
        let window = SlidingWindow::count_based(4);
        let mut a = ItaEngine::new(window, ItaConfig::default());
        let mut b = ItaEngine::new(window, ItaConfig::default());
        a.register(ContinuousQuery::from_weights([(TermId(1), 1.0)], 1));
        // b has no query registered: the arrival touches 0 of its queries.
        let d = Document::new(
            DocId(0),
            Timestamp::ZERO,
            WeightedVector::from_weights([(TermId(1), 0.5)]),
        );
        assert_lockstep_event(&mut a, &mut b, &d, &[]);
    }

    #[test]
    fn sample_queries_takes_every_stride_th() {
        let ids: Vec<QueryId> = (0..10).map(QueryId).collect();
        let sampled = sample_queries(&ids, 4);
        assert_eq!(sampled, vec![QueryId(0), QueryId(4), QueryId(8)]);
        assert_eq!(sample_queries(&ids, 0).len(), 10);
        assert!(sample_queries(&[], 3).is_empty());
    }

    #[test]
    fn divergence_is_detected_and_displayed() {
        let window = SlidingWindow::count_based(5);
        let mut a = BruteForceOracle::new(window);
        let mut b = BruteForceOracle::new(window);
        let q = a.register(ContinuousQuery::from_weights([(TermId(1), 1.0)], 1));
        b.register(ContinuousQuery::from_weights([(TermId(1), 1.0)], 1));
        let d1 = Document::new(
            DocId(0),
            Timestamp::ZERO,
            WeightedVector::from_weights([(TermId(1), 0.5)]),
        );
        let d2 = Document::new(
            DocId(1),
            Timestamp::ZERO,
            WeightedVector::from_weights([(TermId(1), 0.7)]),
        );
        a.process_document(d1);
        b.process_document(d2);
        let err = compare_engines(&a, &b, &[q], DEFAULT_TOLERANCE).unwrap_err();
        assert_eq!(err.query, q);
        let rendered = err.to_string();
        assert!(rendered.contains("diverge"), "{rendered}");
        assert!(rendered.contains("d0"), "{rendered}");
        assert!(rendered.contains("d1"), "{rendered}");
    }
}
