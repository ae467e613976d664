#!/usr/bin/env bash
# Parent-vs-change pairs of one benchmark workload: the protocol a
# performance claim is judged by (benchmark/README.md, "Sizing, and the
# machine the numbers came from").
#
#   scripts/pairs.sh <parent-rev> <workload> [pairs=10]
#
# Exports <parent-rev> into target/pairs/ (a plain `git archive` copy, so
# nothing is registered in .git), builds it and the working tree through
# `benchmark/run.sh` (same flags, one target directory each), then runs
# <pairs> alternating parent/change pairs at `--seed 0 --seconds 16
# --trace 0` and the same series once more at `--seed 7`, a seed no change
# was tuned on. For each seed and end-to-end metric it prints both sides'
# median and quartiles, the wins, and failed/attempted operations. Reads
# nothing but the JSON line that ends each run; a run that prints none
# stops the script with the tail of its stderr (target/pairs/stderr-*.log).
# Ten pairs at two seeds take about twelve minutes; do not edit sources
# meanwhile (`run.sh` rebuilds from the working tree on every call).
set -euo pipefail

if [ "$#" -lt 2 ] || [ "$#" -gt 3 ]; then
    echo "usage: scripts/pairs.sh <parent-rev> <workload> [pairs=10]" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
root=$PWD
sha=$(git rev-parse --verify --quiet "$1^{commit}") || {
    echo "scripts/pairs.sh: no such commit: $1" >&2
    exit 2
}
workload=$2
pairs=${3:-10}

work="$root/target/pairs"
parent="$work/src-$sha"
if [ ! -d "$parent" ]; then
    mkdir -p "$parent.tmp"
    git archive "$sha" | tar -x -C "$parent.tmp"
    mv "$parent.tmp" "$parent"
fi

# One run: prints "<side> <seed> <json line>".
run_one() {
    local side=$1 seed=$2 dir
    if [ "$side" = parent ]; then dir=$parent; else dir=$root; fi
    local line log="$work/stderr-$side.log"
    line=$(cd "$dir" && CARGO_TARGET_DIR="$work/target-$side" bash benchmark/run.sh \
        --workload "$workload" --seed "$seed" --seconds 16 --trace 0 2>"$log" | tail -n 1) || true
    case $line in
    "{"*) echo "$side $seed $line" ;;
    *)
        echo "scripts/pairs.sh: the $side run of $workload at seed $seed printed no JSON line; $log ends:" >&2
        tail -n 20 "$log" >&2
        exit 1
        ;;
    esac
}

runs="$work/runs-$workload-$sha.txt"
: >"$runs"
for seed in 0 7; do
    for i in $(seq 1 "$pairs"); do
        if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            run_one "$side" "$seed" | tee -a "$runs" | cut -c1-160 >&2
        done
    done
done

python3 - "$runs" "$workload" "${sha:0:7}" <<'EOF'
import json, statistics, sys

path, workload, sha = sys.argv[1:]
runs = {}  # seed -> side -> [json], in run order (pair i is index i on both sides)
for row in open(path):
    side, seed, line = row.split(" ", 2)
    runs.setdefault(int(seed), {}).setdefault(side, []).append(json.loads(line))

# Must agree with the spread `benchmark compare` judges by (compare.rs
# `quartiles`, benchmark/README.md): Python's default, exclusive, method,
# and the extremes below four values.
def quartiles(xs):
    if len(xs) < 4:
        return min(xs), statistics.median(xs), max(xs)
    return statistics.quantiles(xs, n=4)

for seed, sides in sorted(runs.items()):
    parent, change = sides["parent"], sides["change"]
    print(f"\n{workload}, seed {seed}: parent {sha} vs working tree, {len(parent)} pairs")
    for side, rs in (("parent", parent), ("change", change)):
        failed = sum(r["failed"] for r in rs)
        attempted = sum(r["attempted"] for r in rs)
        wrong = sum(not r["correct"] for r in rs)
        print(f"  {side}: {failed}/{attempted} operations failed, {wrong} runs incorrect")
    print(f"  {'metric':<12} {'side':<7} {'q1':>10} {'median':>10} {'q3':>10}   wins")
    for name in sorted(parent[0]["metrics"]):
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        wins = sum(b < a for a, b in zip(p, c))
        losses = sum(b > a for a, b in zip(p, c))
        (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(p), quartiles(c)
        unit = parent[0]["metrics"][name]["unit"]
        print(f"  {name:<12} parent  {pq1:>10.4g} {pmed:>10.4g} {pq3:>10.4g}   {unit}")
        print(f"  {'':<12} change  {cq1:>10.4g} {cmed:>10.4g} {cq3:>10.4g}   "
              f"change lower in {wins}, higher in {losses} of {len(p)}")
        if pmed:
            print(f"  {'':<12} change median {(cmed - pmed) / pmed:+.1%}; "
                  f"gap {abs(cmed - pmed):.4g}, parent IQR {pq3 - pq1:.4g}")
EOF
