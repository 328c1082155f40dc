#![forbid(unsafe_code)]
#![deny(missing_docs, unused_must_use)]

//! `cts-lint` — workspace static analysis for the CTS engine.
//!
//! The engine's correctness argument leans on four source-level properties
//! that the compiler does not check: **determinism** of everything on the
//! lockstep replay path, **panic-safety** of the hot event-processing modules,
//! **refusal-over-panic** on the service/admission surface, and a handful of
//! **structural conventions** (thread ownership, crate hygiene). This crate
//! proves them with a hand-rolled lexer and six module-path-aware rules —
//! see `DESIGN.md` §11 for the rationale behind each rule and the pragma
//! policy.
//!
//! Run it over the workspace with:
//!
//! ```text
//! cargo run -p cts-lint -- --deny-all
//! ```

mod lexer;
mod rules;

pub use lexer::{split_channels, Line};
pub use rules::{
    lint_source, Finding, CLOCK_IN_APPLY, CRATE_HYGIENE, INVALID_PRAGMA, NONDET_ITERATION,
    PANIC_IN_HOT_PATH, RULES, SPAWN_OUTSIDE_SUPERVISOR, UNWRAP_IN_SERVICE,
};
