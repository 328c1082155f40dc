//! Sliding-window policies.
//!
//! The paper considers **count-based** windows ("the N most recent
//! documents", the default in its experiments) and **time-based** windows
//! ("documents received in the last T time units"). A [`SlidingWindow`] is
//! the policy alone: [`SlidingWindow::is_stale`] says whether the oldest
//! valid document has ceased to be valid, and [`crate::WindowTerms`] — the
//! one container of valid documents — pops while it does.

#![deny(clippy::disallowed_types)]

use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::document::Timestamp;

/// The window policy in force.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WindowKind {
    /// Keep the `N` most recent documents.
    CountBased {
        /// Window size in documents.
        size: usize,
    },
    /// Keep documents that arrived within the last `duration`.
    TimeBased {
        /// Window length in microseconds.
        duration_micros: u64,
    },
}

impl WindowKind {
    /// A count-based window of `size` documents.
    pub fn count(size: usize) -> Self {
        WindowKind::CountBased { size }
    }

    /// A time-based window of the given duration, saturating at `u64::MAX`
    /// microseconds (~584,000 years). A plain `as u64` cast here would *wrap*
    /// a pathological `Duration` (anything above `u64::MAX` µs) to a tiny
    /// window and silently expire the entire store.
    pub fn time(duration: Duration) -> Self {
        WindowKind::TimeBased {
            duration_micros: u64::try_from(duration.as_micros()).unwrap_or(u64::MAX),
        }
    }
}

/// A sliding window over the document stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlidingWindow {
    kind: WindowKind,
}

impl SlidingWindow {
    /// Creates a window with the given policy.
    pub fn new(kind: WindowKind) -> Self {
        Self { kind }
    }

    /// A count-based window of `size` documents (the paper's default).
    pub fn count_based(size: usize) -> Self {
        assert!(size > 0, "window size must be positive");
        Self::new(WindowKind::count(size))
    }

    /// A time-based window of the given duration.
    pub fn time_based(duration: Duration) -> Self {
        assert!(!duration.is_zero(), "window duration must be positive");
        Self::new(WindowKind::time(duration))
    }

    /// The policy in force.
    pub fn kind(&self) -> WindowKind {
        self.kind
    }

    /// The one expiry rule, as a predicate: whether the oldest of `len`
    /// valid documents, which arrived at `oldest`, has left the window at
    /// `now`. `now` is the latest event's arrival — not the largest arrival
    /// seen, so a timestamp that steps backwards moves it back too. Expiry
    /// pops from the oldest arrival while this holds and stops at the first
    /// document still fresh, even if a later one is older by timestamp
    /// ([`crate::WindowTerms::pop_expired`]). A count-based window looks only
    /// at `len`, a time-based one only at the timestamps; the cutoff is
    /// strict, so a document exactly `duration` old is still valid.
    pub fn is_stale(&self, len: usize, oldest: Timestamp, now: Timestamp) -> bool {
        match self.kind {
            WindowKind::CountBased { size } => len > size,
            WindowKind::TimeBased { duration_micros } => {
                oldest.as_micros() < now.as_micros().saturating_sub(duration_micros)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::document::{DocId, Document};
    use crate::WindowTerms;
    use cts_text::{TermId, WeightedVector};

    /// Pushes documents `0..` arriving at `arrivals_ms` and returns the ids
    /// expiry pops at `now`, oldest first.
    fn expired(w: SlidingWindow, arrivals_ms: &[u64], now: Timestamp) -> Vec<DocId> {
        let mut docs = WindowTerms::new();
        for (id, arrival) in arrivals_ms.iter().enumerate() {
            docs.push(Arc::new(Document::new(
                DocId(id as u64),
                Timestamp::from_millis(*arrival),
                WeightedVector::from_weights([(TermId(0), 1.0)]),
            )));
        }
        std::iter::from_fn(|| docs.pop_expired(w, now))
            .map(|doc| doc.id)
            .collect()
    }

    #[test]
    fn count_based_window_expires_excess_oldest_first() {
        let w = SlidingWindow::count_based(3);
        let expired = expired(w, &[0, 1, 2, 3, 4], Timestamp::from_millis(4));
        assert_eq!(expired, vec![DocId(0), DocId(1)]);
        // The count rule ignores the timestamps.
        assert!(w.is_stale(4, Timestamp::from_secs(9), Timestamp::ZERO));
    }

    #[test]
    fn count_based_window_with_room_expires_nothing() {
        let w = SlidingWindow::count_based(10);
        assert!(expired(w, &[0], Timestamp::ZERO).is_empty());
    }

    #[test]
    fn time_based_window_expires_stale_documents() {
        let w = SlidingWindow::time_based(Duration::from_millis(100));
        // At t=170ms the cutoff is 70ms: documents 0 and 1 expire.
        let expired = expired(w, &[0, 50, 120, 160], Timestamp::from_millis(170));
        assert_eq!(expired, vec![DocId(0), DocId(1)]);
    }

    #[test]
    fn time_based_window_boundary_is_inclusive_for_documents_exactly_at_cutoff() {
        let w = SlidingWindow::time_based(Duration::from_millis(100));
        // cutoff = 200 - 100 = 100; arrival 100 is NOT strictly below the
        // cutoff, so the document is still valid.
        assert!(expired(w, &[100], Timestamp::from_millis(200)).is_empty());
        // One microsecond later it expires.
        let expired = expired(w, &[100], Timestamp::from_micros(200_001));
        assert_eq!(expired, vec![DocId(0)]);
    }

    #[test]
    fn is_fresh_matches_expiration_rule() {
        let w = SlidingWindow::time_based(Duration::from_secs(1));
        let (secs, now) = (Timestamp::from_secs, Timestamp::from_secs(10));
        assert!(!w.is_stale(1, secs(9), now));
        assert!(w.is_stale(1, secs(8), now));
        // The time rule ignores the count.
        assert!(!w.is_stale(usize::MAX, secs(9), now));
        assert!(!SlidingWindow::count_based(5).is_stale(5, Timestamp::ZERO, secs(100)));
        // Expiry stops at the first fresh document: a stale one behind it
        // (its timestamp stepped back) stays until that one goes. `now`
        // earlier than every arrival keeps everything.
        let arrivals = [8_000, 9_500, 7_000, 9_800];
        assert_eq!(expired(w, &arrivals, now), vec![DocId(0)]);
        assert!(expired(w, &arrivals, secs(1)).is_empty());
        assert_eq!(expired(w, &arrivals, secs(11)).len(), 4);
    }

    #[test]
    #[should_panic(expected = "window size must be positive")]
    fn zero_count_window_is_rejected() {
        let _ = SlidingWindow::count_based(0);
    }

    #[test]
    #[should_panic(expected = "window duration must be positive")]
    fn zero_duration_window_is_rejected() {
        let _ = SlidingWindow::time_based(Duration::ZERO);
    }

    #[test]
    fn oversized_duration_saturates_instead_of_wrapping() {
        // Duration::MAX is ~5.8e14 µs beyond u64: `as u64` would wrap this to
        // a near-zero window that expires everything. Saturation keeps it an
        // effectively infinite window.
        let w = SlidingWindow::time_based(Duration::MAX);
        assert_eq!(
            w.kind(),
            WindowKind::TimeBased {
                duration_micros: u64::MAX
            }
        );
        assert!(!w.is_stale(1, Timestamp::ZERO, Timestamp::from_secs(1_000_000)));
        // The largest representable-in-µs duration still converts exactly.
        let exact = SlidingWindow::time_based(Duration::from_micros(u64::MAX));
        assert_eq!(
            exact.kind(),
            WindowKind::TimeBased {
                duration_micros: u64::MAX
            }
        );
    }

    #[test]
    fn kind_roundtrip() {
        let w = SlidingWindow::count_based(7);
        assert_eq!(w.kind(), WindowKind::CountBased { size: 7 });
        let t = SlidingWindow::time_based(Duration::from_secs(2));
        assert_eq!(
            t.kind(),
            WindowKind::TimeBased {
                duration_micros: 2_000_000
            }
        );
    }
}
