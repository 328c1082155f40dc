//! Reproduction of the paper's Figure 3(a): mean processing time per stream
//! event, ITA vs the top-`k_max` naïve baseline, as the number of installed
//! continuous queries grows.
//!
//! Protocol (§IV): fill a 10,000-document count-based window from the
//! synthetic WSJ-like stream (181,978-term vocabulary, 200 docs/s Poisson
//! arrivals), register N ∈ {100, 250, 500, 1000} queries (10 terms, k = 10),
//! then time steady-state events — each arrival expires the oldest
//! document — one engine call at a time. ITA's final top-k for a sample of
//! queries is the reference; the naïve engine **and** the sharded-ITA arm
//! (`--shards N` worker threads over term-filtered shadow indexes) must
//! reproduce it exactly or the run panics.
//!
//! Usage:
//!   cargo run --release -p cts-bench --bin fig3a            # paper scale
//!   cargo run --release -p cts-bench --bin fig3a -- --quick # CI smoke grid
//!   cargo run --release -p cts-bench --bin fig3a -- --shards 4 --batch 64
//!   options: --events N (measured events/cell), --shards N (sharded-ITA
//!   workers, default 1), --batch N (events per sharded process_batch
//!   round-trip, default 1; > 1 adds a second, batched sharded arm per cell
//!   next to the per-event one), --register-burst (register the workload in
//!   bursts of --batch queries per register_batch call instead of one bulk
//!   call), --chaos (arm injected worker faults during the measured phase of
//!   the sharded arm; every fault must recover and the self-check must still
//!   come out exact), --out PATH (default BENCH_fig3a.json)
//!
//! The JSON report schema is documented in README §"Reproducing Figure 3".

use cts_bench::sweep::{fig3a_grid, run_sweep, SweepOptions};

fn main() {
    let options = SweepOptions::from_args("BENCH_fig3a.json");
    let grid = fig3a_grid(&options);
    run_sweep(
        "fig3a",
        "Mean event processing time vs. number of continuous queries \
         (count-based window, ITA vs top-kmax naive baseline)",
        grid,
        &options,
    );
}
