//! Streaming inverted-index substrate for continuous text search.
//!
//! This crate implements the data structures of Figure 1 of the ICDE 2009
//! paper "An Incremental Threshold Method for Continuous Text Search
//! Queries":
//!
//! * [`WindowTerms`] — the first-in-first-out list of *valid* documents
//!   (the sliding window contents), the one container of them, held once
//!   per engine: it holds each document's full composition list for
//!   random-access scoring by sequence number, applies the window policy
//!   ([`WindowTerms::front_after`]) and resolves a registration's postings —
//!   "the postings of these terms, in arrival order" ([`TermPostings`]) —
//!   from lazily built per-chunk term directories, without a pass over the
//!   whole window.
//! * [`InvertedList`] / [`TermLists`] — one impact-ordered inverted list per
//!   term, holding `⟨w_{d,t}, seq⟩` entries ([`Posting`]: the document named
//!   by its arrival sequence number in the window) sorted by decreasing
//!   weight, filed on arrival and killed in place on expiration: a posting
//!   is live iff its number is at or past the front. The lists hold no
//!   documents; [`InvertedIndex`] is full lists plus their window, for
//!   stand-alone use.
//! * [`ThresholdTree`] — the per-list book-keeping structure holding one
//!   `⟨θ_{Q,t}, Q⟩` entry per query that contains the list's term, supporting
//!   the probe "all queries whose local threshold is ≤ w".
//! * [`SlidingWindow`] — count-based and time-based window policies: the
//!   one rule ([`SlidingWindow::is_stale`]) deciding whether the oldest valid
//!   document has expired at the latest event's arrival.
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
//! insert `memmove` by the segment capacity and drops dead postings in bulk.
//! A single sorted-`Vec` layout lives in `tests/differential_impact_list.rs`
//! as the reference arm of the impact-list differential test; DESIGN.md §6
//! records what the retired `BTreeSet` layouts measured against both.

// Every entry point of the crate runs on some engine's per-event path, so
// the panic lints hold crate-wide (DESIGN.md §11).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod arena;
pub mod document;
pub mod index;
pub mod posting;
pub mod segmented;
pub mod threshold;
pub mod window;
pub mod window_terms;

pub use arena::{DenseArena, LiveTerms};
pub use document::{DocId, Document, QueryId, Timestamp};
pub use index::{IndexStats, InvertedIndex, TermLists};
pub use posting::Posting;
pub use segmented::SegmentedImpactList;
pub use threshold::{ThresholdEntry, ThresholdTree};
pub use window::{SlidingWindow, WindowKind};
pub use window_terms::{TermPostings, WindowTerms, WindowTermsStats};

/// The impact-list layout the engines run on: the segmented impact list.
pub use segmented::SegmentedImpactList as InvertedList;
