#!/usr/bin/env bash
# The workspace's one verification entry point: every check that CI runs is
# written here, once, grouped into named tiers.
#
#   scripts/verify.sh <tier>     tier: lint | test | chaos | soak | overload | bench
#
# Each CI job (.github/workflows/ci.yml) runs exactly one tier, and the
# `lint` tier fails if ci.yml runs a cargo command of its own or if a tier
# defined here is run by no job. Reports go under the ignored target/verify/,
# never over a tracked file, so a run leaves `git status` clean. Nothing
# here needs the network: every dependency is a path dependency.
set -euo pipefail

cd "$(dirname "$0")/.."
out=target/verify
mkdir -p "$out"

tier_lint() {
    cargo fmt --all --check
    # The workspace's static analysis (DESIGN.md §11): [workspace.lints]
    # and clippy.toml at the root, per-module #![deny]s for the replay,
    # hot-path and service scopes, and every suppression an #[expect] with
    # a reason (a bare #[allow], a reasonless or a stale #[expect] fails).
    # Clippy reads only compiled code, so it runs once more with the
    # feature that compiles testkit's invariant-checks-only blocks.
    cargo clippy --workspace --all-targets -- -D warnings
    cargo clippy --workspace --all-targets --features cts-reference/invariant-checks -- -D warnings
    # A member that does not inherit [workspace.lints] is checked by
    # clippy's defaults only, and nothing above would notice: every
    # workspace member outside the vendored crates/compat/ stand-ins must
    # set `[lints] workspace = true` in its manifest.
    cargo metadata --no-deps --format-version 1 | python3 -c '
import json, sys, tomllib
missing = []
for package in json.load(sys.stdin)["packages"]:
    path = package["manifest_path"]
    if "/crates/compat/" in path:
        continue
    with open(path, "rb") as manifest:
        lints = tomllib.load(manifest).get("lints", {})
    if lints.get("workspace") is not True:
        missing.append(path)
for path in missing:
    print(f"{path}: no [lints] workspace = true")
sys.exit(1 if missing else 0)
'
    # Layering: no member may reach a crate above it, not even for its
    # tests. A member whose dev-dependency depends, through normal
    # dependencies, back on that member would compile against a second copy
    # of itself (e.g. cts-core's tests reaching for cts-reference), so the
    # references stay a layer above what they check.
    cargo metadata --no-deps --format-version 1 | python3 -c '
import json, sys
packages = json.load(sys.stdin)["packages"]
normal = {p["name"]: [d["name"] for d in p["dependencies"] if d["kind"] is None]
          for p in packages}
cycles = []
for package in packages:
    name = package["name"]
    for dev in (d["name"] for d in package["dependencies"] if d["kind"] == "dev"):
        closure, stack = set(), [dev]
        while stack:
            member = stack.pop()
            if member in closure:
                continue
            closure.add(member)
            stack.extend(normal.get(member, []))
        if name in closure:
            cycles.append(f"{name} dev-depends on {dev}, which depends on {name}")
for cycle in cycles:
    print(cycle)
sys.exit(1 if cycles else 0)
'
    # Intra-doc links: a deleted or private item that a public doc still
    # links to is a broken link, and only rustdoc sees it.
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
    # Drift guard: this script is the only place a check is written. CI may
    # not run cargo itself, and every tier defined here must be some job's.
    local ci=.github/workflows/ci.yml tier
    if grep -nw cargo "$ci"; then
        echo "$ci runs cargo itself: move the step into a tier of $0" >&2
        return 1
    fi
    for tier in $(compgen -A function tier_); do
        tier=${tier#tier_}
        if ! grep -Eq "^ +run: scripts/verify\.sh $tier$" "$ci"; then
            echo "tier '$tier' is run by no job in $ci" >&2
            return 1
        fi
    done
    # Each #[ignore]d test runs in exactly the tier that names it: a file
    # holding one must be the --test target of some `-- --ignored` command
    # in this script, so no tier has to build every release test target to
    # find them.
    local file target script=scripts/verify.sh
    for file in $(grep -rlE --include='*.rs' '^\s*#\[ignore' crates); do
        target=$(basename "$file" .rs)
        if [[ $file != crates/*/tests/"$target".rs ]] ||
            ! grep -Eq -- "--test $target( .*)? -- --ignored$" "$script"; then
            echo "$file holds an #[ignore]d test that no '--test $target ... -- --ignored' command in $script runs" >&2
            return 1
        fi
    done
}

tier_test() {
    # The tier-1 verification command from ROADMAP.md, verbatim.
    cargo build --release
    # RUST_BACKTRACE on: the testkit differential suites panic with the
    # seed and a minimized op script on divergence — the backtrace plus
    # that seed is the whole reproduction recipe.
    RUST_BACKTRACE=1 cargo test -q
    # The registration-heavy differential axis, run by name so a failure
    # is attributable at a glance: churn-storm scripts interleave
    # register_batch bursts with churn and hold bulk, per-query-loop and
    # sharded registration byte-identical across shard counts {1, 2, 4, 8}.
    RUST_BACKTRACE=1 cargo test -q -p cts-reference --test sharded_equivalence --test batch_equivalence churn_storm
    # The same lockstep runner with the per-op structural audits compiled
    # in: after every op, every engine's check_invariants walks threshold
    # trees, term refcounts, the complete-lists invariant of every
    # term-filtered core (a live term's list holds exactly the window's
    # postings for it)
    # and each shard's hash placement (integration tests link the lib
    # without cfg(test), so the feature is what turns the audits on here).
    # Shard counts {1, 2, 4, 8} via the suites' own loops.
    # overload_service rides along: its sessions audit the service-hosted
    # candidate wherever they compare live results. live_terms is the
    # sharded-vs-plain-vs-oracle lockstep whose scripts move the live-term
    # set between a document's arrival and its expiry (it calls
    # check_invariants after every op itself, feature or not; it runs here
    # so that every differential suite is green in this configuration).
    # The sharded audit also checks the coordinator's WindowTerms (only
    # sealed chunks carry a term directory, each equal to a rebuild from
    # its documents), every shard's core against that one window (the
    # shards hold no documents: their postings name the window's) and
    # that every shard hosts exactly the registry's queries that hash to it.
    # Every engine holds one WindowTerms and expires through its one
    # advance-while-stale rule: cross_validation (ITA vs naive
    # vs oracle after every event, ITA audited after every event, one
    # stream with popular query terms and a long R), batch_time_windows (time windows, a timestamp stepping
    # backwards) and cts-index's unit tests cover the window and the lists
    # with the audits on.
    RUST_BACKTRACE=1 cargo test -q -p cts-reference --test sharded_equivalence --test batch_equivalence --test overload_service --test live_terms --test cross_validation --test batch_time_windows --features invariant-checks
    RUST_BACKTRACE=1 cargo test -q -p cts-index --lib
    # The threshold descent's one cursor per list against the restart-at-θ
    # descent it replaced (kept in ita::tests): unit-test builds run every
    # search both ways and compare θ, R and the postings examined. This
    # test builds tie runs that straddle segment boundaries and expires
    # top-k results, so registrations and refills both meet the reference.
    RUST_BACKTRACE=1 cargo test -q -p cts-core --lib cursor_descent_matches_the_restart_descent
    # WindowTerms against a brute-force filter of the same documents
    # (count and time windows, every chunk-boundary case, directories built
    # at different moments, a document too long for a u16 position that
    # keeps its chunk walked).
    RUST_BACKTRACE=1 cargo test -q -p cts-reference --test window_terms
    # The benchmark is a package of its own (BENCHMARK.json builds it from
    # inside its directory), so nothing above compiles it: build it the way
    # the pipeline does, so that a public item it uses going missing fails
    # here, and run the one workload that takes the singleton drain path,
    # which must report no failed operation.
    CARGO_TARGET_DIR=target/ctsbench cargo build --release --manifest-path crates/bench/src/bin/ctsbench/Cargo.toml
    CARGO_TARGET_DIR=target/ctsbench cargo run --release --quiet --manifest-path crates/bench/src/bin/ctsbench/Cargo.toml -- --workload service_open --quick --seconds 3 --trace 0 > "$out/ctsbench_smoke.out"
    cat "$out/ctsbench_smoke.out"
    tail -n 1 "$out/ctsbench_smoke.out" | grep -q '"failed": *0[,}]'
}

tier_chaos() {
    # Fault-injection differential axis, run by name so a failure is
    # attributable at a glance: chaos-storm scripts arm shard panics on
    # one shard and on every shard at once mid-stream across shard counts
    # {1, 2, 4, 8}; every fault drops its shard's state, which must be
    # rebuilt — a registration of its queries over the coordinator's
    # window — before the call returns, and the engine must report the
    # fault-free single-shard reference's results throughout (and its
    # event outcomes up to the first fault). fault_paths covers the coordinator's typed error
    # surface (a duplicate document id included); sharded::tests the
    # fan-out and its fault path (a lost shard rebuilt before an event,
    # faults on the caller's thread and on a scoped one, in bursts and
    # singly, a panic's message reaching the caller, a refill mid-burst
    # reading documents that leave before the burst ends).
    RUST_BACKTRACE=1 cargo test -q -p cts-reference --test chaos_recovery --test fault_paths
    RUST_BACKTRACE=1 cargo test -q -p cts-core --lib sharded::tests
    # The same suites with the per-op structural audits on: after every
    # script op every engine runs check_invariants() — the coordinator's
    # window, and on every healthy shard its trees and lists against that
    # window and that it hosts exactly the queries that hash to it —
    # through faults and rebuilds.
    RUST_BACKTRACE=1 cargo test -q -p cts-reference --test chaos_recovery --test fault_paths --features invariant-checks
}

tier_soak() {
    # 1,000 queries, 10k-document window, 182k-term vocabulary: the
    # ROADMAP's paper-scale configuration, with periodic brute-force
    # spot-checks, plus the sharded spot-check (a 4-shard engine and the
    # single-shard reference driven through a corpus-built testkit op
    # script, bursts included), the 100-turnover dead-postings soak, and
    # the popular-term soak (1,000 queries drawn by document popularity,
    # each R thousands of documents long; it prints ms/event and mean |R|).
    # #[ignore]d so the test tier stays fast. Only this target is built:
    # overload_service's #[ignore]d soak is the overload tier's.
    RUST_BACKTRACE=1 cargo test --release -p cts-reference --test paper_scale_soak -- --ignored
}

tier_overload() {
    # The admission differential axis, run by name so a failure is
    # attributable at a glance: shedding sessions lockstepped against an
    # unbounded reference across shard counts {1, 2, 4, 8} with injected
    # faults (no pump may return with a shard left degraded), and the shed
    # path staying non-blocking while a shard is lost.
    RUST_BACKTRACE=1 cargo test -q -p cts-reference --test overload_service
    # The 10x-burst soak at the paper's 1,000-query / 10k-window point,
    # release-only (it is #[ignore]d out of the test tier).
    RUST_BACKTRACE=1 cargo test --release -p cts-reference --test overload_service -- --ignored
    # Loadgen at a fixed seed: drives a 10x-overload burst profile through
    # the bounded service, mirrors every accepted event into an unbounded
    # reference (panics on divergence), and writes the latency/shed report.
    # The greps are the belt-and-suspenders check that the exact accounting
    # identity and the sampled top-k self-check came out clean.
    cargo run --release -p cts-bench --bin loadgen -- --quick --seed 279773185 --out "$out/BENCH_loadgen.json"
    grep -q '"accounting": *"ok (' "$out/BENCH_loadgen.json"
    grep -q '"self_check": *"ok (' "$out/BENCH_loadgen.json"
}

tier_bench() {
    cargo bench -p cts-bench --bench index_micro
    # The reduced Figure 3 grids, 4 sharded workers: every cell measures
    # two window turnovers, runs the term-filtered, full-index, naive and
    # sharded arms, cross-checks each against the term-filtered engine's
    # exact top-k and panics on divergence or on a naive arm that never
    # recomputed a view. The greps check that the exact self-checks came
    # out clean. The paper grids' committed BENCH_fig3{a,b}.json at the
    # root are not touched.
    cargo run --release -p cts-bench --bin fig3 -- --figure a --quick --shards 4 --out "$out/BENCH_fig3a.json"
    grep -q '"self_check": *"ok (' "$out/BENCH_fig3a.json"
    cargo run --release -p cts-bench --bin fig3 -- --figure b --quick --shards 4 --out "$out/BENCH_fig3b.json"
    grep -q '"self_check": *"ok (' "$out/BENCH_fig3b.json"
    # Registration pricing: the loop-vs-bulk ablation at the reduced
    # point.
    CTS_ABLATION_REGISTER_QUICK=1 cargo bench -p cts-bench --bench ablation_register
    # The raw-text path: memoised analyser vs the seed pipeline on
    # generator text (as rendered and shuffled) and the English fixture,
    # warm and cold, with the stage split, memo hit rate and bytes.
    CTS_TEXT_ANALYZE_QUICK=1 cargo bench -p cts-bench --bench text_analyze
    # Recovery pricing: one fault-free event against one event plus the
    # shard's rebuild (the one recovery path: the shard's queries
    # registered on a fresh core with postings resolved on the
    # coordinator's window), at the reduced
    # point, with the engine's own recovery_micros per fault printed.
    CTS_ABLATION_RECOVERY_QUICK=1 cargo bench -p cts-bench --bench ablation_recovery
}

tier=${1:-}
if [[ $# -ne 1 ]] || ! declare -F "tier_$tier" > /dev/null; then
    echo "usage: $0 <tier>   tiers: $(compgen -A function tier_ | sed 's/^tier_//' | xargs)" >&2
    exit 2
fi
"tier_$tier"
echo "verify $tier: ok in ${SECONDS}s"
