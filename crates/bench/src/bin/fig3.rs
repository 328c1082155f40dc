//! Reproduction of the paper's Figure 3: mean processing time per stream
//! event, ITA vs the top-`k_max` naïve baseline, as the number of installed
//! continuous queries grows (`--figure a`) or the sliding window grows
//! (`--figure b`).
//!
//! Protocol (§IV): fill a count-based window from the synthetic WSJ-like
//! stream (181,978-term vocabulary, 200 docs/s Poisson arrivals), register
//! the queries (10 terms, k = 10) in one bulk call, then time two full window
//! turnovers of steady-state events — each arrival expires the oldest
//! document — one engine call at a time.
//!
//! - (a): {100, 250, 500, 1,000, 2,500, 10,000} queries at a 10k window;
//! - (b): {2.5k, 5k, 10k, 20k, 40k} windows at 1,000 queries.
//!
//! Every cell runs four arms: `ita` (term-filtered), `ita-full-index`,
//! `naive` and `sharded-ita` (`--shards N` workers). The `ita` arm's final
//! top-k for a sample of queries is the reference, and every other arm must
//! reproduce it exactly or the run panics; so must a naive arm that never
//! recomputed a view.
//!
//! Usage:
//!   cargo run --release -p cts-bench --bin fig3 -- --figure a            # paper scale
//!   cargo run --release -p cts-bench --bin fig3 -- --figure b --quick    # CI smoke grid
//!   options: --shards N (sharded-ITA workers, default 1), --out PATH
//!   (default BENCH_fig3a.json / BENCH_fig3b.json)
//!
//! The JSON report schema is documented in README §"Reproducing Figure 3".

use cts_bench::sweep::{run_sweep, SweepOptions};

fn main() {
    run_sweep(&SweepOptions::from_args());
}
