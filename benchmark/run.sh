#!/usr/bin/env bash
# The one command of the repo benchmark (see BENCHMARK.json and
# benchmark/README.md): build the harness, then run it.
#
#   benchmark/run.sh                       # suite: every end-to-end metric, all six workloads
#   benchmark/run.sh trace                 # per-layer table + benchmark/out/trace-<workload>.json
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh bless
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1    # one run (what the driver calls)
set -euo pipefail

cd "$(dirname "$0")/.."

# These switch other harnesses of this repo into shrunken or parallel
# modes. Nothing here reads them, but a shell that has them set is not
# the shell to record comparable numbers from.
for var in MGRID_FAST MGRID_SHARDS MGRID_PROFILE MGRID_REPRO_THREADS; do
    if [ -n "${!var:-}" ]; then
        echo "benchmark/run.sh: $var is set; unset it before measuring" >&2
        exit 2
    fi
done

# mgrid-lint skips only the root target/, so the build stays under it.
target="${CARGO_TARGET_DIR:-target/benchmark}"
# Source paths end up in the binary (panic locations) and shift its layout;
# config loading is one tight loop whose speed moves by half with that
# layout. Remapping makes the same source give the same binary wherever
# the checkout lives.
export RUSTFLAGS="${RUSTFLAGS:-} --remap-path-prefix=$PWD=."
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2

if [ "$#" -eq 0 ]; then
    set -- suite
fi
exec "$target/release/benchmark" "$@"
