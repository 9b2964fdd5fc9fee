#!/bin/sh
# Counts the repository's Rust code by the rule under ROADMAP.md's
# code-size table, and prints `total library`:
# - total: every tracked `*.rs` outside crates/bench/skybench, tests
#   included, as non-blank lines that are not `//` comments;
# - library: the same lines above each file's first `#[cfg(test)]`,
#   outside crates/lint and outside test directories.
# Run from anywhere inside the repository.
cd "$(git rev-parse --show-toplevel)" || exit 1
git ls-files -z -- '*.rs' ':!:crates/bench/skybench/**' | xargs -0 awk '
    FNR == 1 { lib = FILENAME !~ /(^|\/)tests\// && FILENAME !~ /^crates\/lint\// }
    $1 == "#[cfg(test)]" { lib = 0 }
    NF == 0 || $1 ~ /^\/\// { next }
    { total++; library += lib }
    END { print total, library }
'
