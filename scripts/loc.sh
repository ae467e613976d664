#!/usr/bin/env bash
# Lines of Rust, where they are: one row per crate split into src/ and
# tests/, then the root package (src/, tests/, examples/), the vendored
# stubs and the standalone benchmark crate. Plain `find` and `wc`: blank
# lines and comments count, build output does not (no target/ is read).
# A number to record per PR, not a gate (ROADMAP north star: "a deleted
# line to show for it").
#
# A second table follows: per crate (src/ and tests/ together), the uses
# of the `unsafe` keyword and the `#[allow(` and `#[expect(` lint
# exemptions, comment lines not counted.
#
#   scripts/loc.sh [tree]            # tree defaults to this checkout
#   scripts/loc.sh --against <tree>  # this checkout, plus what each row
#                                    # gained or lost against <tree>: a
#                                    # `git archive` export of the parent
set -euo pipefail

against=
if [ "${1:-}" = --against ]; then
    against=${2:?usage: scripts/loc.sh --against <tree>}
    shift 2
fi
tree=${1:-$(dirname "$0")/..}

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

# One tree as "<tag> <row> <src> <tests>" lines: its crates, then the root
# package, the vendored stubs and the benchmark crate.
rows() {
    (
        cd "$2"
        for dir in crates/*/; do
            echo "$1 $(basename "$dir") $(rust_lines "$dir/src") $(rust_lines "$dir/tests")"
        done
        echo "$1 root $(rust_lines src) $(rust_lines tests examples)"
        echo "$1 vendor $(rust_lines vendor) 0"
        echo "$1 benchmark $(rust_lines benchmark) 0"
    )
}

{
    [ -n "$against" ] && rows base "$against"
    rows here "$tree"
} | awk -v diff="${against:+1}" '
    function is_crate(name) { return name != "root" && name != "vendor" && name != "benchmark" }
    $1 == "base" {
        base_src[$2] = $3; base_tests[$2] = $4
        if (is_crate($2)) { base_all_src += $3; base_all_tests += $4 }
        next
    }
    { order[++n] = $2; src[$2] = $3; tests[$2] = $4 }
    # The signed change of a row against the base tree, or nothing.
    function delta(now, before) { return diff ? sprintf(" %+8d", now - before) : "" }
    function split_row(label, s, t, bs, bt) {
        printf "%-14s %8d %8d %8d%s%s\n", label, s, t, s + t, delta(s, bs), delta(t, bt)
    }
    function total_row(label, now, before) {
        printf "%-14s %26d%s\n", label, now, diff ? sprintf(" %17s", delta(now, before)) : ""
    }
    END {
        printf "%-14s %8s %8s %8s%s\n", "crate", "src", "tests", "total",
            diff ? sprintf(" %8s %8s", "d(src)", "d(tests)") : ""
        for (i = 1; i <= n; i++) {
            name = order[i]
            if (!is_crate(name)) continue
            split_row(name, src[name], tests[name], base_src[name], base_tests[name])
            all_src += src[name]; all_tests += tests[name]
        }
        # A crate only the base tree has is all loss.
        for (name in base_src)
            if (!(name in src)) split_row(name, 0, 0, base_src[name], base_tests[name])
        split_row("all crates", all_src, all_tests, base_all_src, base_all_tests)
        split_row("root package", src["root"], tests["root"], base_src["root"], base_tests["root"])
        total_row("workspace", all_src + all_tests + src["root"] + tests["root"],
            base_all_src + base_all_tests + base_src["root"] + base_tests["root"])
        total_row("vendor", src["vendor"], base_src["vendor"])
        total_row("benchmark", src["benchmark"], base_src["benchmark"])
    }'

# Lines of Rust under the given directory that match the extended regex,
# comment lines not counted.
rust_matches() {
    [ -d "$1" ] || { echo 0; return; }
    find "$1" -name target -prune -o -name '*.rs' -type f -print0 |
        xargs -0 cat | grep -v '^[[:space:]]*//' | grep -cE "$2" || true
}

# One tree as "<tag> <crate> <unsafe> <allow> <expect>" lines.
exemptions() {
    (
        cd "$2"
        for dir in crates/*/; do
            echo "$1 $(basename "$dir")" \
                "$(rust_matches "$dir" '\bunsafe[[:space:]]*(\{|impl|fn|trait|extern)')" \
                "$(rust_matches "$dir" '#!?\[allow\(')" \
                "$(rust_matches "$dir" '#!?\[expect\(')"
        done
    )
}

echo
{
    [ -n "$against" ] && exemptions base "$against"
    exemptions here "$tree"
} | awk -v diff="${against:+1}" '
    $1 == "base" { bu[$2] = $3; ba[$2] = $4; be[$2] = $5; tbu += $3; tba += $4; tbe += $5; next }
    { order[++n] = $2; u[$2] = $3; a[$2] = $4; e[$2] = $5 }
    function delta(now, before) { return diff ? sprintf(" %+9d", now - before) : "" }
    function row(label, x, y, z, bx, by, bz) {
        printf "%-14s %8d %8d %8d%s%s%s\n", label, x, y, z, delta(x, bx), delta(y, by), delta(z, bz)
    }
    END {
        printf "%-14s %8s %8s %8s%s\n", "crate", "unsafe", "allow", "expect",
            diff ? sprintf(" %9s %9s %9s", "d(unsafe)", "d(allow)", "d(expect)") : ""
        for (i = 1; i <= n; i++) {
            c = order[i]
            row(c, u[c], a[c], e[c], bu[c], ba[c], be[c])
            tu += u[c]; ta += a[c]; te += e[c]
        }
        for (c in bu)
            if (!(c in u)) row(c, 0, 0, 0, bu[c], ba[c], be[c])
        row("all crates", tu, ta, te, tbu, tba, tbe)
    }'
