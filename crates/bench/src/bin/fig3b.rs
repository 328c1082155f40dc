//! Reproduction of the paper's Figure 3(b): mean processing time per stream
//! event, ITA vs the top-`k_max` naïve baseline, as the sliding window
//! grows.
//!
//! Protocol (§IV): fix 1,000 continuous queries (10 terms, k = 10) and vary
//! the count-based window over {10k, 20k, 40k} documents (80k with
//! `--full`) on the 200 docs/s synthetic WSJ-like stream, timing
//! steady-state events one engine call at a time. ITA's final top-k for a
//! sample of queries is the reference; the naïve engine **and** the
//! sharded-ITA arm (`--shards N` worker threads over term-filtered shadow
//! indexes) must reproduce it exactly or the run panics.
//!
//! Usage:
//!   cargo run --release -p cts-bench --bin fig3b            # paper scale
//!   cargo run --release -p cts-bench --bin fig3b -- --quick # CI smoke grid
//!   options: --full (adds the 80k window), --events N, --shards N
//!   (sharded-ITA workers, default 1), --batch N (events per sharded
//!   process_batch round-trip, default 1; > 1 adds a second, batched
//!   sharded arm per cell), --register-burst (register the workload in
//!   bursts of --batch queries per register_batch call instead of one bulk
//!   call), --out PATH (default BENCH_fig3b.json)
//!
//! The JSON report schema is documented in README §"Reproducing Figure 3".

use cts_bench::sweep::{fig3b_grid, run_sweep, SweepOptions};

fn main() {
    let options = SweepOptions::from_args("BENCH_fig3b.json");
    let grid = fig3b_grid(&options);
    run_sweep(
        "fig3b",
        "Mean event processing time vs. sliding-window size \
         (1,000 continuous queries, ITA vs top-kmax naive baseline)",
        grid,
        &options,
    );
}
