//! The references the production engines are checked against.
//!
//! Nothing in production depends on this crate: it holds what the test
//! suites and the benchmarks compare `cts-core`'s engines with.
//!
//! * [`BruteForceOracle`] — an exhaustive re-evaluator: it scores every valid
//!   document on every read and ranks on its own, sharing no container code
//!   with the engines it checks.
//! * [`NaiveEngine`] — the §II baseline enhanced with the top-`k_max`
//!   materialised-view technique of Yi et al. (the competitor measured in the
//!   paper's §IV, and the `naive` arm of the Figure 3 harness).
//! * [`testkit`] — seeded op scripts, the lockstep runner over any number of
//!   engines, the delta-debugging minimizer and the overload sessions.
//! * [`results_match`] / [`assert_engines_agree`] — the one comparison every
//!   check uses: same documents in the same rank order, scores equal up to
//!   [`DEFAULT_TOLERANCE`]; a mismatch is rendered as a [`Divergence`].
//!
//! Every engine must produce the same top-k for the same stream — ITA and
//! the naïve baseline are *exact* algorithms, not approximations.
//!
//! The `invariant-checks` feature makes the testkit's lockstep runner and
//! overload sessions audit every engine's structural invariants
//! ([`cts_core::Engine::check_invariants`]) after every op; unit-test
//! builds always do.

use std::fmt;

use cts_core::{Engine, RankedDocument};
use cts_index::QueryId;

pub mod naive;
pub mod oracle;
mod result;
pub mod testkit;

pub use naive::{NaiveConfig, NaiveEngine};
pub use oracle::BruteForceOracle;

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

/// Panics with a formatted [`Divergence`] at the first query in `queries`
/// on which `candidate`'s top-k does not match `reference`'s.
pub fn assert_engines_agree<R, C>(reference: &R, candidate: &C, queries: &[QueryId])
where
    R: Engine,
    C: Engine,
{
    for &query in queries {
        let expected = reference.current_results(query);
        let actual = candidate.current_results(query);
        if !results_match(&expected, &actual, DEFAULT_TOLERANCE) {
            let divergence = Divergence {
                query,
                reference_name: reference.name(),
                candidate_name: candidate.name(),
                reference: expected,
                candidate: actual,
            };
            panic!("{divergence}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_core::{ContinuousQuery, ItaConfig, ItaEngine};
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

    /// A clone of an engine is a twin: fed the same events it reports the
    /// same outcomes and the same results, while the naïve baseline, whose
    /// outcomes count other work, agrees on the results alone.
    #[test]
    fn a_cloned_engine_locksteps_with_its_original() {
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
            let mut ita_twin = ita.clone();
            assert_eq!(
                ita.process_document(d.clone()),
                ita_twin.process_document(d.clone())
            );
            assert_engines_agree(&ita, &ita_twin, &[q]);
            naive.process_document(d);
            assert_engines_agree(&ita, &naive, &[q]);
        }
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
        let panic = std::panic::catch_unwind(|| assert_engines_agree(&a, &b, &[q]))
            .expect_err("the engines disagree");
        let rendered = panic
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert!(rendered.contains(&format!("diverge on {q}")), "{rendered}");
        assert!(rendered.contains("d0"), "{rendered}");
        assert!(rendered.contains("d1"), "{rendered}");
    }
}
