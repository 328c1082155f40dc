//! Core identifiers and the streamed document representation.
//!
//! Each element of the input stream comprises a document identifier, an
//! arrival timestamp and a *composition list*: one `⟨t, w_{d,t}⟩` pair per
//! term appearing in the document (paper §II). The optional raw text is kept
//! only when the caller wants it for display; the engines never read it.

use std::fmt;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use cts_text::WeightedVector;

/// Unique identifier of a streamed document.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct DocId(pub u64);

impl DocId {
    /// The largest possible document id (used as an upper bound in ordered
    /// range scans).
    pub const MAX: DocId = DocId(u64::MAX);

    /// Returns the id as `u64`.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// Unique identifier of a registered continuous query.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct QueryId(pub u32);

impl QueryId {
    /// The largest possible query id (used as an upper bound in ordered
    /// range scans).
    pub const MAX: QueryId = QueryId(u32::MAX);

    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}", self.0)
    }
}

/// A point on the stream's logical clock, in microseconds.
///
/// The monitoring model only needs a monotone clock shared by document
/// arrivals and time-based windows; microsecond resolution comfortably covers
/// the paper's 200 documents/second arrival rates.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The zero timestamp (stream start).
    pub const ZERO: Timestamp = Timestamp(0);

    /// Builds a timestamp from whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        Timestamp(secs * 1_000_000)
    }

    /// Builds a timestamp from milliseconds.
    pub fn from_millis(millis: u64) -> Self {
        Timestamp(millis * 1_000)
    }

    /// Builds a timestamp from microseconds.
    pub fn from_micros(micros: u64) -> Self {
        Timestamp(micros)
    }

    /// Microseconds since stream start.
    #[inline]
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since stream start, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The timestamp `duration` after this one.
    pub fn advance(self, duration: Duration) -> Timestamp {
        Timestamp(self.0 + duration.as_micros() as u64)
    }

    /// The duration elapsed since `earlier` (zero if `earlier` is later).
    pub fn since(self, earlier: Timestamp) -> Duration {
        Duration::from_micros(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// A document as it travels through the monitoring system.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Document {
    /// Unique identifier.
    pub id: DocId,
    /// Arrival time on the stream clock.
    pub arrival: Timestamp,
    /// The composition list: `⟨t, w_{d,t}⟩` for every term in the document.
    pub composition: WeightedVector,
    /// Optional raw text (kept for display in examples; never used by the
    /// engines).
    pub text: Option<String>,
}

impl Document {
    /// Creates a document from its id, arrival time and composition list.
    pub fn new(id: DocId, arrival: Timestamp, composition: WeightedVector) -> Self {
        Self {
            id,
            arrival,
            composition,
            text: None,
        }
    }

    /// Attaches the raw text to the document (builder style).
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.text = Some(text.into());
        self
    }

    /// Number of distinct terms in the composition list.
    pub fn term_count(&self) -> usize {
        self.composition.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_text::TermId;

    #[test]
    fn doc_id_display_and_ordering() {
        assert_eq!(DocId(7).to_string(), "d7");
        assert!(DocId(3) < DocId(10));
        assert_eq!(DocId::MAX.get(), u64::MAX);
    }

    #[test]
    fn query_id_display_and_index() {
        assert_eq!(QueryId(1).to_string(), "Q1");
        assert_eq!(QueryId(42).index(), 42);
    }

    #[test]
    fn timestamp_conversions() {
        assert_eq!(Timestamp::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(Timestamp::from_millis(5).as_micros(), 5_000);
        assert!((Timestamp::from_secs(1).as_secs_f64() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn timestamp_advance_and_since() {
        let t0 = Timestamp::from_secs(10);
        let t1 = t0.advance(Duration::from_millis(1500));
        assert_eq!(t1.as_micros(), 11_500_000);
        assert_eq!(t1.since(t0), Duration::from_millis(1500));
        assert_eq!(t0.since(t1), Duration::ZERO);
    }

    #[test]
    fn timestamp_ordering() {
        assert!(Timestamp::from_secs(1) < Timestamp::from_secs(2));
        assert_eq!(Timestamp::ZERO, Timestamp::from_micros(0));
    }

    #[test]
    fn document_construction() {
        let comp = WeightedVector::from_weights([(TermId(1), 0.5), (TermId(2), 0.5)]);
        let d = Document::new(DocId(9), Timestamp::from_secs(1), comp).with_text("white tower");
        assert_eq!(d.id, DocId(9));
        assert_eq!(d.term_count(), 2);
        assert_eq!(d.text.as_deref(), Some("white tower"));
    }
}
