#!/bin/sh
# Non-test source lines per crate: for every .rs file under the listed
# source roots, the lines before its `mod tests` (the whole file when it
# has none). A file declared as a test-only module (`#[cfg(test)] mod
# name;`, on one line or two) is test code and not counted, nor is any
# file below it. Usage: scripts/loc.sh [repo-root]
set -eu
cd "${1:-$(dirname "$0")/..}"

testonly=$(mktemp)
trap 'rm -f "$testonly"' EXIT

total=0
for root in crates/core/src crates/bsp/src crates/dist/src crates/miner/src \
    crates/serve/src crates/baselines/src src; do
    [ -d "$root" ] || continue
    # The paths a test-only `mod name;` declaration can load: `name.rs` and
    # `name/` next to a `lib.rs` / `main.rs` / `mod.rs`, below `stem/` for
    # any other `stem.rs`.
    find "$root" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { prev = "" }
        /^[ \t]*(#\[cfg\(test\)\][ \t]*)?(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/ &&
            ($0 ~ /#\[cfg\(test\)\]/ || prev ~ /^[ \t]*#\[cfg\(test\)\][ \t]*$/) {
            name = $0; sub(/.*mod /, "", name); sub(/;.*/, "", name)
            dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
            base = FILENAME; sub(/.*\//, "", base)
            if (base != "lib.rs" && base != "main.rs" && base != "mod.rs") {
                sub(/\.rs$/, "", base); dir = dir "/" base
            }
            print dir "/" name ".rs"; print dir "/" name "/"
        }
        { prev = $0 }' >"$testonly"
    files=$(find "$root" -name '*.rs' | grep -vF -f "$testonly" || true)
    n=0
    if [ -n "$files" ]; then
        # shellcheck disable=SC2086 # one path per word; paths have no spaces
        n=$(awk '/^(#\[cfg\(test\)\] *)?(pub )?mod tests( *\{|;)/ { nextfile } { n++ } END { print n + 0 }' $files)
    fi
    printf '%-32s %6d\n' "$root" "$n"
    total=$((total + n))
done
printf '%-32s %6d\n' total "$total"
