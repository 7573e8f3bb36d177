#!/bin/sh
# The options ledger: public fields of every settings struct under
# crates/*/src — each `pub struct *Config`, plus `SsdModel`, `CostModel`
# and `Scale` — per struct and in total. Every field is one independently
# settable value that tests and benchmarks have to cover; simplicity PRs
# quote the total beside tools/loc.sh.
#
#   tools/knobs.sh             # from anywhere inside the repository
#   tools/knobs.sh --fields    # one `Struct.field` per line, sorted
#
# POSIX sh + awk, no other dependencies.
set -eu
cd "$(dirname "$0")/.."

case "${1-}" in
    "") fields=0 ;;
    --fields) fields=1 ;;
    *) echo "usage: tools/knobs.sh [--fields]" >&2; exit 2 ;;
esac

find crates/*/src -name '*.rs' | LC_ALL=C sort | xargs awk -v fields="$fields" '
    /^pub struct ([A-Za-z0-9]*Config|SsdModel|CostModel|Scale) \{/ {
        name = $3
        file[name] = FILENAME
        count[name] = 0
        next
    }
    name != "" && /^}/ { name = "" }
    name != "" && /^    pub [a-z_0-9]+:/ {
        count[name]++
        total++
        if (fields) {
            field = $2
            sub(/:.*/, "", field)
            print name "." field | "LC_ALL=C sort"
        }
    }
    END {
        if (fields) exit
        for (n in count) printf "%6d  %-24s %s\n", count[n], n, file[n] | "LC_ALL=C sort -k2"
        close("LC_ALL=C sort -k2")
        printf "%6d  total\n", total
    }'
