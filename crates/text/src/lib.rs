//! Text processing substrate for continuous text search.
//!
//! This crate provides every text-side building block required by the
//! Incremental Threshold Algorithm (ITA) reproduction:
//!
//! * [`Tokenizer`] — Unicode-aware word splitting with ASCII case folding.
//! * [`StopWords`] — the standard English stop-word list used for the
//!   "standard stopword removal" step of the paper's experimental setup.
//! * [`PorterStemmer`] — the classic Porter (1980) suffix-stripping stemmer.
//! * [`Dictionary`] — a term interner mapping terms to dense [`TermId`]s,
//!   plus per-term corpus statistics (document frequency).
//! * [`TermVector`] — a sparse term-frequency vector for a document or query.
//! * [`Analyzer`] — the full pipeline (tokenise → stop → stem → count) that
//!   turns raw text into a [`TermVector`], with a surface-form memo so a
//!   token seen before costs one table probe.
//! * [`weighting`] — cosine (L2-normalised TF) and Okapi BM25 impact models
//!   producing the `w_{d,t}` / `w_{Q,t}` weights of the paper's Equation (1).
//! * [`score`] — similarity evaluation (`S(d|Q) = Σ w_{Q,t}·w_{d,t}`) plus a
//!   total-order wrapper for `f64` weights ([`Weight`]) used throughout the
//!   index and engine crates.
//!
//! # Quick example
//!
//! ```
//! use cts_text::{Analyzer, Dictionary, weighting::{CosineModel, WeightingModel}};
//!
//! let mut dict = Dictionary::new();
//! let mut analyzer = Analyzer::english();
//! let doc = analyzer.analyze("The white tower stood over the white city", &mut dict);
//! let query = analyzer.analyze("white white tower", &mut dict);
//!
//! let model = CosineModel::default();
//! let doc_w = model.document_weights(&doc, &dict);
//! let query_w = model.query_weights(&query, &dict);
//! let s = cts_text::score::dot_product(query_w.as_slice(), doc_w.as_slice());
//! assert!(s > 0.0 && s <= 1.0 + 1e-9);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs, unused_must_use)]

pub mod analyze;
pub mod dictionary;
pub mod score;
pub mod stem;
pub mod stopwords;
mod table;
pub mod token;
pub mod vector;
pub mod weighting;

pub use analyze::{Analyzer, MemoStats};
pub use dictionary::{Dictionary, TermId, TermStats};
pub use score::{dot_product, dot_product_lookup, query_document_score, Weight};
pub use stem::PorterStemmer;
pub use stopwords::StopWords;
pub use token::{Token, Tokenizer};
pub use vector::{TermVector, WeightedTerm, WeightedVector};
