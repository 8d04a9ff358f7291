#!/bin/sh
# Non-test source lines per crate: for every .rs file under the listed
# source roots, the lines before its `mod tests` (the whole file when it
# has none). Usage: scripts/loc.sh [repo-root]
set -eu
cd "${1:-$(dirname "$0")/..}"

total=0
for root in crates/core/src crates/bsp/src crates/dist/src crates/miner/src \
    crates/serve/src crates/baselines/src src; do
    [ -d "$root" ] || continue
    n=$(find "$root" -name '*.rs' -print0 |
        xargs -0 awk '/^(#\[cfg\(test\)\] *)?(pub )?mod tests( *\{|;)/ { nextfile } { n++ } END { print n + 0 }')
    printf '%-32s %6d\n' "$root" "$n"
    total=$((total + n))
done
printf '%-32s %6d\n' total "$total"
