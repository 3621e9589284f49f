#!/usr/bin/env bash
# The size ledger: per crate, lines of product code, of test code, and of doc
# comments within the product code.
#
#   scripts/size.sh [crate...]      # default: every crate under crates/
#
# A file under crates/<crate>/src is product code down to the first
# `#[cfg(test)]` that opens a `mod` (further attributes may sit between the
# two), and test code from there on. A `#[cfg(test)]` on anything else, such as
# a helper `fn` in the middle of a file, does not end the product code. Every
# file under the crate's tests/, benches/ and examples/ is test code. "doc"
# counts the `///` and `//!` lines of the product code. Lines are physical
# lines, blank ones included; only `*.rs` files count.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

if [ $# -gt 0 ]; then
    crates=("$@")
else
    crates=()
    for d in crates/*/; do
        crates+=("$(basename "$d")")
    done
fi

# "code test doc" of one source file.
split() {
    awk '
        { line[NR] = $0 }
        END {
            cut = NR + 1
            for (i = 1; i <= NR && cut > NR; i++) {
                if (line[i] !~ /^[[:space:]]*#\[cfg\(test\)\]/) continue
                j = i + 1
                while (j <= NR && line[j] ~ /^[[:space:]]*#\[/) j++
                if (j <= NR && line[j] ~ /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/) cut = i
            }
            for (i = 1; i < cut; i++) {
                code++
                if (line[i] ~ /^[[:space:]]*\/\/[\/!]/) doc++
            }
            printf "%d %d %d\n", code, NR - cut + 1, doc
        }' "$1"
}

printf '%-12s %9s %9s %9s\n' crate non-test test doc
total_code=0 total_test=0 total_doc=0
for c in "${crates[@]}"; do
    dir="crates/$c"
    [ -d "$dir/src" ] || { echo "size.sh: no crate $c" >&2; exit 2; }
    code=0 test=0 doc=0
    while IFS= read -r f; do
        read -r fc ft fd < <(split "$f")
        code=$((code + fc)) test=$((test + ft)) doc=$((doc + fd))
    done < <(find "$dir/src" -name '*.rs' | sort)
    for sub in tests benches examples; do
        [ -d "$dir/$sub" ] || continue
        while IFS= read -r f; do
            test=$((test + $(wc -l <"$f")))
        done < <(find "$dir/$sub" -name '*.rs' | sort)
    done
    printf '%-12s %9d %9d %9d\n' "$c" "$code" "$test" "$doc"
    total_code=$((total_code + code)) total_test=$((total_test + test)) total_doc=$((total_doc + doc))
done
printf '%-12s %9d %9d %9d\n' total "$total_code" "$total_test" "$total_doc"
