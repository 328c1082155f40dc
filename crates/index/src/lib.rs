//! Streaming inverted-index substrate for continuous text search.
//!
//! This crate implements the data structures of Figure 1 of the ICDE 2009
//! paper "An Incremental Threshold Method for Continuous Text Search
//! Queries":
//!
//! * [`DocumentStore`] — the first-in-first-out list of *valid* documents
//!   (the sliding window contents), holding each document's full composition
//!   list for random-access scoring.
//! * [`InvertedList`] / [`InvertedIndex`] — one impact-ordered inverted list
//!   per dictionary term, holding `⟨d, w_{d,t}⟩` entries sorted by decreasing
//!   weight, maintained under document arrival and expiration.
//! * [`ThresholdTree`] — the per-list book-keeping structure holding one
//!   `⟨θ_{Q,t}, Q⟩` entry per query that contains the list's term, supporting
//!   the probe "all queries whose local threshold is ≤ w".
//! * [`SlidingWindow`] — count-based and time-based window policies deciding
//!   which documents expire when a new one arrives (or when time advances).
//! * [`WindowTerms`] — the window as a *registration* reads it: the valid
//!   documents in arrival-ordered chunks with lazily built per-chunk term
//!   directories, answering "the postings of these terms, in arrival order"
//!   ([`TermPostings`]) without a pass over the whole window.
//!
//! The crate knows nothing about queries' result sets or the ITA algorithm
//! itself; that lives in `cts-core`. Everything here is deterministic, purely
//! in-memory and designed for high update rates: the hot structures are
//! sorted arrays (one binary search to locate, contiguous scans to traverse)
//! held in dense arenas ([`DenseArena`]) keyed through the live-term set
//! ([`LiveTerms`]: term ids under the full index, compact live slots under a
//! term-filtered one) — see DESIGN.md §6
//! ("Memory layout & cost model"). The production [`InvertedList`] is the
//! **segmented** impact list ([`SegmentedImpactList`]), which bounds the
//! point-update `memmove` by the segment capacity. The single sorted-`Vec`
//! layout ([`FlatImpactList`]) stays as the reference arm of the impact-list
//! differential test; DESIGN.md §6 records what the retired `BTreeSet`
//! layouts measured against both.

#![forbid(unsafe_code)]
#![deny(missing_docs, unused_must_use)]

pub mod arena;
pub mod document;
pub mod index;
pub mod posting;
pub mod segmented;
pub mod store;
pub mod threshold;
pub mod window;
pub mod window_terms;

pub use arena::{DenseArena, LiveTerms};
pub use document::{DocId, Document, QueryId, Timestamp};
pub use index::{IndexStats, InvertedIndex};
pub use posting::{FlatImpactList, Posting};
pub use segmented::SegmentedImpactList;
pub use store::DocumentStore;
pub use threshold::{ThresholdEntry, ThresholdTree};
pub use window::{SlidingWindow, WindowKind};
pub use window_terms::{TermPostings, WindowTerms, WindowTermsStats};

/// The impact-list layout the engines run on: the segmented impact list.
pub use segmented::SegmentedImpactList as InvertedList;
