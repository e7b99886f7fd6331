#!/bin/sh
# Non-test lines under crates/: every `.rs` file outside a `tests/`
# directory, counted up to its first `#[cfg(test)]` line.  Prints the total,
# then one line per crate.  Run from anywhere in the repository:
#
#   sh .github/scripts/nontest_lines.sh
set -eu
cd "$(dirname "$0")/../.."
find crates -name '*.rs' -not -path '*/tests/*' | sort | while IFS= read -r file; do
  crate=${file#crates/}
  printf '%s ' "${crate%%/*}"
  awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file"
done | awk '{ lines[$1] += $2; total += $2 }
  END {
    printf "total %d\n", total
    for (crate in lines) printf "%s %d\n", crate, lines[crate] | "sort"
  }'
