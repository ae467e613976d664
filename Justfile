# Development targets. Each recipe is a plain cargo invocation, so
# everything here also works without `just` by copying the command.

# Build + test everything.
default: test

build:
    cargo build --workspace

test:
    cargo test --workspace

# Documentation, formatting, and lint gate — keep these warning-free.
# Also verifies every relative link/anchor in README.md and docs/.
# Test code may use wall clocks, std hash containers and float-built
# SimTime literals, hence the three `-A`s; `lint` below holds the rest.
docs:
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
    cargo fmt --check
    cargo clippy --workspace --all-targets -- -D warnings \
        -A clippy::disallowed_methods -A clippy::disallowed_types -A clippy::iter_over_hash_type
    cargo run -p mgrid-linkcheck

# The determinism gate on lib and bin targets (clippy.toml, rule table:
# docs/LINTS.md).
lint:
    cargo clippy --workspace -- -D warnings

fmt:
    cargo fmt --all

# Lines of Rust per crate (src/ and tests/ apart), root tests + examples,
# vendor/ and benchmark/: the number a PR's "deleted line to show for it"
# is read from. CI appends the same table to the job summary.
loc:
    bash scripts/loc.sh

# The same table with what each row gained or lost against `tree`, a
# `git archive` export of the parent: the one output a simplification PR
# quotes in CHANGES.md.
loc-diff tree:
    bash scripts/loc.sh --against {{tree}}

# Regenerate the paper's figures (fast, shrunken parameters).
figures:
    MGRID_FAST=1 cargo run --release -p mgrid-bench --bin repro -- all

# Regenerate every figure (`scale` and the two chaos scenarios included)
# at full scale, diff it byte-for-byte against results/<id>.json and hold
# it to its claims (`repro --bless figN` re-anchors after intended
# changes). 152 simulations on one job list: 21 s on two threads, 39 s on
# one.
check-figures:
    cargo run --release -p mgrid-bench --bin repro -- --check all

# The repo benchmark (BENCHMARK.json, benchmark/README.md), the one place
# wall time is measured: every end-to-end metric on all six workloads,
# about 11 minutes. Performance claims name one of its metrics on one of
# its workloads.
benchmark:
    bash benchmark/run.sh

# One traced run per workload: the per-layer table and
# benchmark/out/trace-<workload>.json.
benchmark-trace:
    bash benchmark/run.sh trace

# The one workload where the observability layer works (spans + streamed
# trace, capture, profile, critical path, Perfetto export): first untraced,
# for `wall_s` and `peak_rss_mb` (a traced run reports neither), then
# traced, for the `obs.*` phase times and `obs.record_overhead_ratio`.
# About 40 seconds.
observed:
    bash benchmark/run.sh --workload observed_lu --seed 0 --seconds 16 --trace 0
    bash benchmark/run.sh --workload observed_lu --seed 0 --seconds 16 --trace 1

# What a performance claim is judged by: alternating parent/change pairs
# of one workload at seed 0 and again at seed 7, with each side's median,
# quartiles, wins and failed/attempted (e.g. `just pairs HEAD~1 npb_lan`;
# ten pairs at both seeds take about twelve minutes).
pairs parent workload pairs="10":
    bash scripts/pairs.sh {{parent}} {{workload}} {{pairs}}

# The same suite at class S and 64 hosts, one short repetition: a dozen
# seconds, not comparable; checks that every workload still runs, verifies
# and reproduces its blessed counters.
benchmark-smoke:
    bash benchmark/run.sh suite --smoke --reps 1 --seconds 1
