#!/bin/sh
# The options ledger: public fields of every settings struct under
# crates/*/src — each `pub struct *Config`, plus `SsdModel`, `CostModel`
# and `Scale` — per struct and in total. Every field is one independently
# settable value that tests and benchmarks have to cover; simplicity PRs
# quote the total beside tools/loc.sh.
#
#   tools/knobs.sh          # from anywhere inside the repository
#
# POSIX sh + awk, no other dependencies.
set -eu
cd "$(dirname "$0")/.."

find crates/*/src -name '*.rs' | LC_ALL=C sort | xargs awk '
    /^pub struct ([A-Za-z0-9]*Config|SsdModel|CostModel|Scale) \{/ {
        name = $3
        file[name] = FILENAME
        fields[name] = 0
        next
    }
    name != "" && /^}/ { name = "" }
    name != "" && /^    pub [a-z_0-9]+:/ { fields[name]++; total++ }
    END {
        for (n in fields) printf "%6d  %-24s %s\n", fields[n], n, file[n] | "LC_ALL=C sort -k2"
        close("LC_ALL=C sort -k2")
        printf "%6d  total\n", total
    }'
