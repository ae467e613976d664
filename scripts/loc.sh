#!/usr/bin/env bash
# Lines of Rust, where they are: one row per crate split into src/ and
# tests/, then the root package (src/, tests/, examples/), the vendored
# stubs and the standalone benchmark crate. Plain `find` and `wc`: blank
# lines and comments count, build output does not (no target/ is read).
# A number to record per PR, not a gate (ROADMAP north star: "a deleted
# line to show for it").
#
#   scripts/loc.sh [tree]      # tree defaults to this checkout; pass a
#                              # `git archive` export to count a parent
set -euo pipefail

cd "${1:-$(dirname "$0")/..}"

# Rust lines under the given directories (missing ones count as 0).
rust_lines() {
    local dirs=()
    for d in "$@"; do
        [ -d "$d" ] && dirs+=("$d")
    done
    [ "${#dirs[@]}" -eq 0 ] && { echo 0; return; }
    find "${dirs[@]}" -name target -prune -o -name '*.rs' -type f -print0 |
        xargs -0 cat | wc -l
}

printf '%-14s %8s %8s %8s\n' crate src tests total
crates_src=0
crates_tests=0
for dir in crates/*/; do
    src=$(rust_lines "$dir/src")
    tests=$(rust_lines "$dir/tests")
    printf '%-14s %8d %8d %8d\n' "$(basename "$dir")" "$src" "$tests" $((src + tests))
    crates_src=$((crates_src + src))
    crates_tests=$((crates_tests + tests))
done
crates=$((crates_src + crates_tests))
printf '%-14s %8d %8d %8d\n' "all crates" "$crates_src" "$crates_tests" "$crates"

root_src=$(rust_lines src)
root_tests=$(rust_lines tests examples)
printf '%-14s %8d %8d %8d\n' "root package" "$root_src" "$root_tests" $((root_src + root_tests))
printf '%-14s %26d\n' "workspace" $((crates + root_src + root_tests))
printf '%-14s %26d\n' "vendor" "$(rust_lines vendor)"
printf '%-14s %26d\n' "benchmark" "$(rust_lines benchmark)"
