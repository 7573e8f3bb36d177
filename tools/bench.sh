#!/bin/sh
# Committed benchmark readings: one `rpq-perf` set per change, with the
# machine it ran on, so that any two changes can be diffed later.
#
#   tools/bench.sh <pr>              # writes BENCH_<pr>.json at the repository root
#   tools/bench.sh compare <a> <b>   # compares two such files
#   tools/bench.sh check             # reruns the newest BENCH file's exact metrics
#
# A set is `rpq-perf run --workload all --seed 42 --runs 5 --seconds 10`
# (about ten minutes on two cores). Its `facts` block gains:
#   - `cpu_model`;
#   - `simd`: `avx512f` when /proc/cpuinfo lists it, else `sse2` (the tier
#     the column kernels run on; `unknown` without /proc/cpuinfo);
#   - `box_speed_sq_l2_ns`, with `box_speed_sq_l2_ns_min` and `_max`: the
#     median, min and max of `linalg.sq_l2_ns` over five traced one-second
#     `mem-search` runs, the box-speed reading (the box has no hardware
#     counters to normalise by).
#
# `compare` calls the two machines different when both files record `simd`
# and it differs, or when their box-speed ranges do not overlap (a file
# without a range counts as the one point it has). The set's shape (seed,
# seconds, runs, trace, nproc, pool width, rustc) must also match. When any
# of that fails, timed metrics cannot be compared and only the exact ones
# are printed (they repeat bit for bit for a seed on any box); the exit
# status is 1 if one of them regressed. Otherwise `rpq-perf compare` runs
# as it is, after a line naming both sets' commits: timed medians drift
# between sessions on one box by more than the bounds, so a timed verdict
# across sessions holds only beside a same-session A/B of the two commits.
#
# `check` runs every workload once at the newest BENCH file's seed and
# `--seconds` and fails when an exact metric differs from that file's.
# `stream-churn`'s depend on `--seconds`, which is why the file's own
# setting is used.
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

# Box-speed readings per set.
SPEED_RUNS=5

usage() {
    echo "usage: tools/bench.sh <pr> | tools/bench.sh compare <a> <b> | tools/bench.sh check" >&2
    exit 2
}

[ $# -ge 1 ] || usage

if [ "$1" = check ]; then
    [ $# -eq 1 ] || usage
    ref=$(ls BENCH_*.json | sort -t_ -k2 -n | tail -n 1)
    seed=$(jq '.facts.seed' "$ref")
    seconds=$(jq '.facts.seconds' "$ref")
    tmp=$(mktemp)
    trap 'rm -f "$tmp"' EXIT
    echo "checking exact metrics against $ref (seed $seed, --seconds $seconds)"
    perf run --workload all --seed "$seed" --seconds "$seconds" --runs 1 --out "$tmp" >/dev/null
    diff=$(jq -nr --slurpfile ref "$ref" --slurpfile got "$tmp" --arg exact "$EXACT" '
        ($exact | split(" ")) as $names
        | [$ref[0].results[].workload] | unique | .[] as $w
        | [$got[0].results[] | select(.workload == $w)][0] as $g
        | if $g == null then "\($w): no fresh run"
          else $ref[0].results[] | select(.workload == $w) | . as $r
               | $names[] | select($r.end_to_end[.] != $g.end_to_end[.])
               | "\($w) \(.): \($r.end_to_end[.]) vs \($g.end_to_end[.])"
          end' | sort -u)
    if [ -n "$diff" ]; then
        echo "exact metrics differ from $ref:"
        echo "$diff"
        exit 1
    fi
    echo "exact metrics identical to $ref on every workload"
    exit 0
fi

if [ "$1" != compare ]; then
    [ $# -eq 1 ] || usage
    out="BENCH_$1.json"
    perf run --workload all --seed 42 --runs 5 --seconds 10 --out "$out"
    speeds=$(i=0; while [ "$i" -lt "$SPEED_RUNS" ]; do
        perf run --workload mem-search --seed 42 --trace 1 --seconds 1 |
            sed -n 's/^RESULT //p' | jq '.per_layer["linalg.sq_l2_ns"]'
        i=$((i + 1))
    done | jq -s 'sort')
    cpu=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -n 1)
    if [ ! -r /proc/cpuinfo ]; then
        simd=unknown
    elif grep -qw avx512f /proc/cpuinfo; then
        simd=avx512f
    else
        simd=sse2
    fi
    tmp=$(mktemp)
    jq --arg cpu "${cpu:-unknown}" --arg simd "$simd" --argjson s "$speeds" \
        '.facts.cpu_model = $cpu | .facts.simd = $simd
         | .facts.box_speed_sq_l2_ns = $s[($s | length) / 2 | floor]
         | .facts.box_speed_sq_l2_ns_min = $s[0]
         | .facts.box_speed_sq_l2_ns_max = $s[-1]' "$out" >"$tmp"
    cat "$tmp" >"$out"
    rm -f "$tmp"
    echo "wrote $out (simd: $simd; box speed: sq_l2 $(echo "$speeds" | jq -c .) ns)"
    exit 0
fi

[ $# -eq 3 ] || usage
a=$2
b=$3
shape='.facts | del(.git_sha, .cpu_model, .simd, .box_speed_sq_l2_ns,
    .box_speed_sq_l2_ns_min, .box_speed_sq_l2_ns_max)'
range='.facts | [.box_speed_sq_l2_ns_min // .box_speed_sq_l2_ns // 0,
    .box_speed_sq_l2_ns_max // .box_speed_sq_l2_ns // 0] | "\(.[0]) \(.[1])"'
shape_a=$(jq -S "$shape" "$a")
shape_b=$(jq -S "$shape" "$b")
simd_a=$(jq -r '.facts.simd // ""' "$a")
simd_b=$(jq -r '.facts.simd // ""' "$b")
range_a=$(jq -r "$range" "$a")
range_b=$(jq -r "$range" "$b")

why=""
if [ "$shape_a" != "$shape_b" ]; then
    why="the sets' facts differ:
$(jq -nr --argjson a "$shape_a" --argjson b "$shape_b" \
        '($a | keys) + ($b | keys) | unique[] as $k
         | select($a[$k] != $b[$k]) | "  \($k): \($a[$k]) vs \($b[$k])"')"
elif [ -n "$simd_a" ] && [ -n "$simd_b" ] && [ "$simd_a" != "$simd_b" ]; then
    why="the column kernels ran on different tiers ($simd_a vs $simd_b)"
elif ! echo "$range_a $range_b" | awk '{ exit !($1 <= $4 && $3 <= $2) }'; then
    why="the box-speed ranges do not overlap (sq_l2 $range_a vs $range_b ns)"
fi

if [ -z "$why" ]; then
    echo "sets of $(jq -r '.facts.git_sha' "$a") and $(jq -r '.facts.git_sha' "$b"):" \
        "a timed diff across sessions needs a same-session A/B to confirm it"
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
