#!/bin/sh
# The simplicity ledger: non-test lines of library code — every line of
# each file under crates/*/src up to (not including) its first unindented
# `#[cfg(test)]` line, i.e. its test module — per file, per crate, and in
# total.
#
#   tools/loc.sh            # from anywhere inside the repository
#
# POSIX sh + awk, no other dependencies.
set -eu
cd "$(dirname "$0")/.."

find crates/*/src -name '*.rs' | LC_ALL=C sort | xargs awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests { file[FILENAME]++ }
    END {
        for (f in file) {
            split(f, part, "/")
            crate[part[2]] += file[f]
            total += file[f]
            printf "%6d  %s\n", file[f], f | "LC_ALL=C sort -k2"
        }
        close("LC_ALL=C sort -k2")
        print ""
        for (c in crate) printf "%6d  %s\n", crate[c], c | "LC_ALL=C sort -k1,1nr -k2"
        close("LC_ALL=C sort -k1,1nr -k2")
        printf "%6d  total\n", total
    }'
