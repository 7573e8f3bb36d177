#!/bin/sh
# Committed benchmark readings: one `rpq-perf` set per change, with the
# machine it ran on, so that any two changes can be diffed later.
#
#   tools/bench.sh <pr>              # writes BENCH_<pr>.json at the repository root
#   tools/bench.sh compare <a> <b>   # compares two such files
#
# A set is `rpq-perf run --workload all --seed 42 --runs 5 --seconds 10`
# (about ten minutes on two cores). Its `facts` block gains `cpu_model` and
# `box_speed_sq_l2_ns`: `linalg.sq_l2_ns` of one traced one-second
# `mem-search` run, the box-speed reading (the box has no hardware
# counters to normalise by).
#
# `compare` diffs the two `facts` blocks, leaving out the git sha and the
# box speed. When they differ, or the box speeds differ by more than 10 %,
# timed metrics cannot be compared and only the exact ones are printed
# (they repeat bit for bit for a seed on any box); the exit status is 1 if
# one of them regressed. Otherwise `rpq-perf compare` runs as it is.
#
# POSIX sh + jq.
set -eu
cd "$(dirname "$0")/.."

perf() {
    cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- "$@"
}

# The exact metrics of `rpq-perf compare` (`exact: true` in
# benchmark/src/metrics.rs).
EXACT='recall_at_10 filtered_recall_at_10 bytes_per_vector io_sectors_per_query overload_goodput_frac failed_frac'

usage() {
    echo "usage: tools/bench.sh <pr> | tools/bench.sh compare <a> <b>" >&2
    exit 2
}

[ $# -ge 1 ] || usage

if [ "$1" != compare ]; then
    [ $# -eq 1 ] || usage
    out="BENCH_$1.json"
    perf run --workload all --seed 42 --runs 5 --seconds 10 --out "$out"
    speed=$(perf run --workload mem-search --seed 42 --trace 1 --seconds 1 |
        sed -n 's/^RESULT //p' | jq '.per_layer["linalg.sq_l2_ns"]')
    cpu=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -n 1)
    tmp=$(mktemp)
    jq --arg cpu "${cpu:-unknown}" --argjson speed "$speed" \
        '.facts.cpu_model = $cpu | .facts.box_speed_sq_l2_ns = $speed' "$out" >"$tmp"
    cat "$tmp" >"$out"
    rm -f "$tmp"
    echo "wrote $out (box speed: sq_l2 $speed ns)"
    exit 0
fi

[ $# -eq 3 ] || usage
a=$2
b=$3
facts_a=$(jq -S '.facts | del(.git_sha, .box_speed_sq_l2_ns)' "$a")
facts_b=$(jq -S '.facts | del(.git_sha, .box_speed_sq_l2_ns)' "$b")
speed_a=$(jq '.facts.box_speed_sq_l2_ns // 0' "$a")
speed_b=$(jq '.facts.box_speed_sq_l2_ns // 0' "$b")

why=""
if [ "$facts_a" != "$facts_b" ]; then
    why="the machine facts differ:
$(jq -nr --argjson a "$facts_a" --argjson b "$facts_b" \
        '($a | keys) + ($b | keys) | unique[] as $k
         | select($a[$k] != $b[$k]) | "  \($k): \($a[$k]) vs \($b[$k])"')"
elif ! awk -v a="$speed_a" -v b="$speed_b" \
    'BEGIN { d = b - a; if (d < 0) d = -d; exit !(a > 0 && d <= 0.10 * a) }'; then
    why="the box speeds differ by more than 10 % (sq_l2 $speed_a vs $speed_b ns)"
fi

if [ -z "$why" ]; then
    perf compare "$a" "$b"
    exit 0
fi

echo "timed metrics are not comparable: $why"
echo "exact metrics only:"
status=0
report=$(perf compare "$a" "$b") || true
echo "$report" | awk -v exact="$EXACT" '
    BEGIN { n = split(exact, names, " "); for (i = 1; i <= n; i++) keep[names[i]] = 1 }
    /^== / { print; next }
    ($1 in keep) { print; if ($NF == "Regression") bad = 1 }
    END { exit bad }' || status=1
exit "$status"
