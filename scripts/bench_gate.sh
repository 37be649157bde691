#!/usr/bin/env bash
# Bench regression gate: diff a freshly produced BENCH_*.json against the
# committed baseline and fail on regressions of the headline metrics.
#
# Usage: scripts/bench_gate.sh <baseline.json> <fresh.json> [tolerance_pct]
#
# Headline metrics are every numeric field whose name is `throughput_ops_s`
# or ends in `_mops` (higher is better). A fresh value more than
# `tolerance_pct` percent BELOW its baseline fails the gate; improvements
# and new metrics never fail. Tolerance defaults to 15 (percent) and can
# also be set via BENCH_GATE_TOLERANCE_PCT.
#
# A headline metric that the baseline names but the fresh run lost (missing
# or null) FAILS the gate — a metric that silently disappears is a broken
# bench, not a pass. A null/non-numeric headline in the *baseline* is a
# corrupt baseline and exits 2.
#
# Exit codes: 0 pass, 1 regression, 2 usage/parse error.

set -euo pipefail

if [ "$#" -lt 2 ]; then
    echo "usage: $0 <baseline.json> <fresh.json> [tolerance_pct]" >&2
    exit 2
fi
baseline=$1
fresh=$2
tolerance=${3:-${BENCH_GATE_TOLERANCE_PCT:-15}}

for f in "$baseline" "$fresh"; do
    if [ ! -r "$f" ]; then
        echo "bench gate: cannot read $f" >&2
        exit 2
    fi
done

# Emit "dotted.path value" lines for every headline metric in a file.
headlines() {
    jq -r '
        paths(type == "number") as $p
        | select(($p[-1] | tostring) | test("^(throughput_ops_s|[a-z_]+_mops)$"))
        | [($p | map(tostring) | join(".")), (getpath($p) | tostring)]
        | join(" ")
    ' "$1"
}

# Emit the dotted path of every headline-*named* field whose value is NOT a
# number (null, string, ...): the silent-skip shapes the numeric filter in
# `headlines` would otherwise hide.
nonnumeric_headlines() {
    jq -r '
        paths as $p
        | select(($p[-1] | tostring) | test("^(throughput_ops_s|[a-z_]+_mops)$"))
        | select((getpath($p) | type) != "number")
        | ($p | map(tostring) | join("."))
    ' "$1"
}

# A corrupt baseline (null/non-numeric headline) would silently shrink the
# checked set on every future run: refuse it outright.
bad_base=$(nonnumeric_headlines "$baseline")
if [ -n "$bad_base" ]; then
    echo "bench gate: baseline $baseline has non-numeric headline metric(s):" >&2
    echo "$bad_base" >&2
    exit 2
fi

status=0
count=0
while read -r path base; do
    fresh_val=$(jq -r --arg p "$path" 'getpath($p | split(".")) // "missing"' "$fresh")
    if [ "$fresh_val" = "missing" ] || [ "$fresh_val" = "null" ]; then
        echo "bench gate: FAIL $path: in baseline but missing/null in fresh run (broken bench?)"
        status=1
        continue
    fi
    count=$((count + 1))
    # Regression percent (positive = fresh is slower than baseline).
    verdict=$(awk -v b="$base" -v f="$fresh_val" -v tol="$tolerance" 'BEGIN {
        if (b <= 0) { print "ok 0.0"; exit }
        reg = (b - f) / b * 100.0
        print (reg > tol ? "fail" : "ok"), sprintf("%.1f", reg)
    }')
    reg_pct=${verdict#* }
    if [ "${verdict%% *}" = "fail" ]; then
        echo "bench gate: FAIL $path: baseline $base -> fresh $fresh_val (${reg_pct}% regression > ${tolerance}%)"
        status=1
    else
        echo "bench gate: ok   $path: baseline $base -> fresh $fresh_val (${reg_pct}% regression)"
    fi
done < <(headlines "$baseline")

if [ "$count" -eq 0 ] && [ "$status" -eq 0 ]; then
    echo "bench gate: no headline metrics found in $baseline" >&2
    exit 2
fi

echo "bench gate: $count metrics checked against $baseline (tolerance ${tolerance}%), status $status"
exit "$status"
