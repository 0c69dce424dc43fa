#!/bin/sh
# Prints the non-test size of each crate under crates/ and the total:
# every .rs file under a crate's src/, counted up to its first
# `#[cfg(test)]` line.
#
# Usage: scripts/loc.sh [repo-root]   (default: this script's repo)
set -eu
cd "${1:-$(dirname "$0")/..}"
total=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    lines=$(find "$dir"src -name '*.rs' -exec awk '
        FNR == 1 { test = 0 }
        /#\[cfg\(test\)\]/ { test = 1 }
        !test { n++ }
        END { print n + 0 }' {} + | awk '{ n += $1 } END { print n + 0 }')
    printf '%7d %s\n' "$lines" "$crate"
    total=$((total + lines))
done
printf '%7d total\n' "$total"
