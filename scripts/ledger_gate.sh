#!/usr/bin/env bash
# Ledger gate: the repository's one performance gate. Compares the
# benchmark (ledger/, declared by BENCHMARK.json) of this working tree
# against the benchmark of a parent revision, and fails on a regression.
#
# Usage: scripts/ledger_gate.sh <parent-rev>
#
# Builds the ledger twice: from `git archive <parent-rev>` in a temporary
# directory, and from this working tree, committed or not. Then:
#
# (a) Counted metrics. One traced --quick run per workload per side, at
#     seed COUNT_SEED. The metrics in COUNTED count work (warp rounds, slab
#     reads, bytes, CAS, allocations per op) rather than time, so they
#     must agree: exactly where same-tree repeats agree exactly (EXACT, and
#     every metric that reads 0), and elsewhere within COUNT_TOLERANCE,
#     since those runs end on a clock and so stop at a different op. A
#     change that adds one slab read per SEARCH fails here on any host. The
#     change's traced runs must also report a finite, positive wire tax
#     (POSITIVE). A traced pair in which either run reads a
#     host.foreign_cpu_share above FOREIGN_LIMIT stays in the record marked
#     disturbed and is rerun at COUNT_SEED; the last undisturbed pair is
#     compared.
# (b) End-to-end metrics. PAIRS interleaved pairs of untraced runs per
#     workload, RUN_SECONDS each, a fresh seed per pair, and the side that
#     runs first alternating, so host drift falls on both sides alike. The
#     gate fails when a change median is worse than the parent median by
#     more than the metric's bound in BENCHMARK.json, when a change run is
#     not correct, or when the change's runs fail more requests than the
#     parent's. A pair in which either run reads a host.foreign_cpu_share
#     above FOREIGN_LIMIT ran beside other processes: it stays in the
#     record marked disturbed, enters no median, and is rerun with the
#     workload's next seed.
#
# A workload that needs more than MAX_RERUNS reruns in either check ends the
# gate with "host too busy" and no verdict.
#
# The record, with both revisions, the host, and every run, is written to
# results/ledger/gate-<parent>.json. Exit codes: 0 pass, 1 regression,
# 2 usage or build error, 3 host too busy.

set -euo pipefail
cd "$(dirname "$0")/.."

# Seed of the traced runs of check (a).
COUNT_SEED=1
# Measured phase of each traced run, seconds.
COUNT_SECONDS=5
# Per-layer metrics that count work rather than time.
COUNTED="warp.rounds_per_op slab.reads_per_op slab.bytes_per_op slab.cas_per_op alloc.allocs_per_op"
# Nonzero counted metrics that eight same-tree repeats reproduced exactly,
# as workload:metric (a metric that reads 0 must stay 0 under the relative
# tolerance below anyway).
EXACT="ingress_open:slab.cas_per_op"
# Largest relative difference allowed elsewhere. Eight same-tree repeats of
# each workload at COUNT_SEED and COUNT_SECONDS spread at most 0.56 %
# (kernel_churn's alloc.allocs_per_op; all others under 0.37 %) on a 2-core
# x86-64 host, and up to 1.6 % in 20 s runs. One extra slab read per SEARCH
# moves kernel_search_hiutil's slab.reads_per_op by 25 %.
COUNT_TOLERANCE=0.03
# Traced metrics that must be finite and positive on the change side, as
# workload:metric: the wire tax, client time the broker does not explain.
POSITIVE="wire_closed:wire.residual_us_mean"
# Interleaved pairs per workload in check (b), and each run's measured phase.
PAIRS=5
RUN_SECONDS=5
# Each workload's pairs take seeds SEED_BASE + 1, SEED_BASE + 2, ... in
# order, reruns included.
SEED_BASE=1000
# Largest host.foreign_cpu_share of an undisturbed run. Undisturbed runs
# read 0.00 to 0.07 and one busy process beside the ledger about 0.4
# (ledger/src/main.rs); in one A/A run with other processes on a 2-core
# host, single ingress_open runs between 0.13 and 0.29 read p95 from
# 70 us to 31 ms.
FOREIGN_LIMIT=0.15
# Disturbed pairs rerun per workload and check before the gate gives up.
MAX_RERUNS=5

if [ "$#" -ne 1 ]; then
    echo "usage: $0 <parent-rev>" >&2
    exit 2
fi
parent=$(git rev-parse --verify --quiet "$1^{commit}") || {
    echo "ledger gate: $1 is not a commit" >&2
    exit 2
}
change=$(git rev-parse HEAD)
dirty=false
[ -z "$(git status --porcelain --untracked-files=no)" ] || dirty=true

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent"
git archive "$parent" | tar -x -C "$work/parent"
if [ ! -f "$work/parent/ledger/Cargo.toml" ]; then
    echo "ledger gate: $parent has no ledger/" >&2
    exit 2
fi

for tree in "$work/parent" .; do
    cargo build --release --offline --quiet --manifest-path "$tree/ledger/Cargo.toml" || {
        echo "ledger gate: building the ledger in $tree failed" >&2
        exit 2
    }
done

workloads=$(jq -r '.workloads[].name' BENCHMARK.json)
runs="$work/runs.jsonl"
: > "$runs"

# run <side> <workload> <seed> <trace> [ledger flags...]: one ledger run,
# appended to $runs as {side, workload, seed, trace, record, result}.
run() {
    local side=$1 workload=$2 seed=$3 trace=$4
    shift 4
    local dir=.
    [ "$side" = parent ] && dir="$work/parent"
    local out
    out=$(cd "$dir" && ./ledger/target/release/ledger --workload "$workload" \
        --seed "$seed" --trace "$trace" "$@") || true
    local record result
    record=$(printf '%s\n' "$out" | grep '^{"record"' | tail -1 | jq -c '.record' 2>/dev/null || true)
    result=$(printf '%s\n' "$out" | tail -1 | jq -c 'select(has("metrics"))' 2>/dev/null || true)
    jq -nc --arg side "$side" --arg w "$workload" --argjson seed "$seed" \
        --argjson trace "$trace" --argjson record "${record:-null}" \
        --argjson result "${result:-null}" \
        '{side: $side, workload: $w, seed: $seed, trace: ($trace == 1),
          record: $record, result: $result}' >> "$runs"
    printf '  %-6s %-21s seed %-5s %s\n' "$side" "$workload" "$seed" \
        "$(jq -c '{correct, failed}' <<<"${result:-null}" 2>/dev/null || echo 'no result')"
}

echo "ledger gate: parent $parent, change $change (uncommitted changes: $dirty)"
# disturbed: whether either run of the pair just appended to $runs read a
# foreign CPU share above FOREIGN_LIMIT.
disturbed() {
    tail -n 2 "$runs" | jq -se --argjson limit "$FOREIGN_LIMIT" \
        'any(.[]; (.record.diagnostics["host.foreign_cpu_share"] // 0) > $limit)' > /dev/null
}

echo "(a) counted metrics: traced --quick runs at seed $COUNT_SEED"
for w in $workloads; do
    for _ in $(seq 0 "$MAX_RERUNS"); do
        run parent "$w" "$COUNT_SEED" 1 --quick --seconds "$COUNT_SECONDS"
        run change "$w" "$COUNT_SEED" 1 --quick --seconds "$COUNT_SECONDS"
        disturbed || break
        echo "  disturbed traced pair: $w (foreign CPU share above $FOREIGN_LIMIT)"
    done
done

echo "(b) end-to-end metrics: $PAIRS interleaved pairs of ${RUN_SECONDS} s runs"
declare -A next_seed reruns
for w in $workloads; do
    next_seed[$w]=$((SEED_BASE + 1))
    reruns[$w]=0
done
for i in $(seq 1 "$PAIRS"); do
    for w in $workloads; do
        while [ "${reruns[$w]}" -le "$MAX_RERUNS" ]; do
            seed=${next_seed[$w]}
            next_seed[$w]=$((seed + 1))
            if [ $((i % 2)) -eq 1 ]; then
                run parent "$w" "$seed" 0 --seconds "$RUN_SECONDS"
                run change "$w" "$seed" 0 --seconds "$RUN_SECONDS"
            else
                run change "$w" "$seed" 0 --seconds "$RUN_SECONDS"
                run parent "$w" "$seed" 0 --seconds "$RUN_SECONDS"
            fi
            disturbed || break
            reruns[$w]=$((reruns[$w] + 1))
            echo "  disturbed pair: $w seed $seed (foreign CPU share above $FOREIGN_LIMIT)"
        done
    done
done

mkdir -p results/ledger
out="results/ledger/gate-${parent:0:12}.json"
jq -s \
    --slurpfile bench BENCHMARK.json \
    --arg parent "$parent" --arg change "$change" --argjson dirty "$dirty" \
    --arg counted "$COUNTED" --arg exact "$EXACT" --arg positive "$POSITIVE" \
    --argjson tol "$COUNT_TOLERANCE" --argjson pairs "$PAIRS" \
    --argjson seconds "$RUN_SECONDS" --argjson nproc "$(nproc)" --argjson cseed "$COUNT_SEED" \
    --argjson limit "$FOREIGN_LIMIT" --argjson max_reruns "$MAX_RERUNS" \
    --arg cpu "$(grep -m1 '^model name' /proc/cpuinfo | cut -d: -f2- | sed 's/^ *//')" '
    def sorted: map(select(. != null)) | sort;
    def quantile($p): sorted as $a | ($a | length) as $n
        | if $n == 0 then null else
            (($n - 1) * $p) as $h | ($h | floor) as $lo
            | $a[$lo] + ($h - $lo) * (($a[[$lo + 1, $n - 1] | min]) - $a[$lo])
          end;
    def stats: {median: quantile(0.5), q1: quantile(0.25), q3: quantile(0.75)};
    def share: .record.diagnostics["host.foreign_cpu_share"] // 0;
    # Runs were appended in pairs: mark both runs of a pair disturbed when
    # either read a foreign share above the limit.
    . as $all
    | [range(0; $all | length; 2) as $i | $all[$i:$i + 2]
       | any(.[]; share > $limit) as $d | .[] | . + {disturbed: $d}] as $runs
    # The result of the last undisturbed traced run of workload $w on $side.
    | def traced($w; $side):
        $runs | map(select(.trace and .workload == $w and .side == $side
                           and (.disturbed | not))) | last | .result;
    $bench[0] as $b
    | ($counted | split(" ")) as $counted
    | ($exact | split(" ")) as $exact
    | [$b.workloads[].name] as $workloads
    | [$workloads[] as $w
        | ($runs | map(select(.trace and .workload == $w and .side == "parent"))) as $t
        | ($t | map(select(.disturbed)) | length) as $disturbed_pairs
        | traced($w; "parent") as $p | traced($w; "change") as $c
        | $counted[] as $m
        | ($p.metrics[$m].value) as $pv | ($c.metrics[$m].value) as $cv
        | {workload: $w, metric: $m, parent: $pv, change: $cv,
           rule: (if ($exact | index("\($w):\($m)")) then "exact" else "tolerance" end),
           disturbed_pairs: $disturbed_pairs,
           host_too_busy: ($disturbed_pairs == ($t | length))}
        | .pass = ($pv != null and $cv != null and $p.correct and $c.correct
                   and (if .rule == "exact" then $pv == $cv
                        else (($cv - $pv) | fabs) <= $tol * ($pv | fabs) end))
      ] as $counts
    | [$positive | split(" ")[] | split(":") as [$w, $m]
        | (traced($w; "change").metrics[$m].value) as $cv
        | ($counts | map(select(.workload == $w))[0].host_too_busy) as $busy
        | {workload: $w, metric: $m, parent: null, change: $cv, rule: "positive",
           host_too_busy: $busy, pass: (($cv | type) == "number" and $cv > 0)}
      ] as $positive
    | ($counts + $positive | map(if .host_too_busy then .pass = null else . end)) as $counts
    | [$workloads[] as $w
        | ($runs | map(select((.trace | not) and .workload == $w))) as $all_pairs
        | ($all_pairs | map(select(.disturbed | not))) as $r
        | ($r | map(select(.side == "parent"))) as $pr
        | ($r | map(select(.side == "change"))) as $cr
        | {workload: $w,
           disturbed_pairs: ($all_pairs | map(select(.disturbed and .side == "parent")) | length),
           host_too_busy: (($pr | length) < $pairs or ($cr | length) < $pairs),
           correct: ($all_pairs | map(select(.side == "change")) | all(.result.correct == true)),
           parent_failed: ($pr | map(.result.failed // 0) | add),
           change_failed: ($cr | map(.result.failed // 0) | add),
           parent_foreign_cpu_share: ($all_pairs | map(select(.side == "parent") | .record.diagnostics["host.foreign_cpu_share"])),
           change_foreign_cpu_share: ($all_pairs | map(select(.side == "change") | .record.diagnostics["host.foreign_cpu_share"])),
           metrics: [$b.end_to_end[] as $e
             | ($pr | map(.result.metrics[$e.name].value) | stats) as $ps
             | ($cr | map(.result.metrics[$e.name].value) | stats) as $cs
             | {name: $e.name, better: $e.better, bound: $e.bound,
                parent: $ps, change: $cs}
             | .pass = ($ps.median != null and $cs.median != null
                 and (if $e.better == "higher"
                      then $cs.median >= $ps.median * (1 - $e.bound)
                      else $cs.median <= $ps.median * (1 + $e.bound) end))]}
        | .pass = (.correct and .change_failed <= .parent_failed
                   and (.metrics | all(.pass)))
        | if .host_too_busy then .pass = null | .metrics |= map(.pass = null) else . end
      ] as $e2e
    | ($e2e + $counts | any(.host_too_busy)) as $busy
    | {parent: $parent, change: $change, uncommitted_changes: $dirty,
       host: {nproc: $nproc,
              host_threads: ($runs | map(.record.grid_width // empty) | first),
              cpu: $cpu},
       settings: {count_seed: $cseed,
                  count_tolerance: $tol, exact: $exact,
                  pairs: $pairs, run_seconds: $seconds,
                  foreign_limit: $limit, max_reruns: $max_reruns},
       counted: $counts, end_to_end: $e2e,
       host_too_busy: $busy,
       pass: ((($busy | not) and ($counts | all(.pass)) and ($e2e | all(.pass)))),
       runs: $runs}
    ' "$runs" > "$out"

echo
jq -r '
    (.counted | map(select(.host_too_busy)) | unique_by(.workload)[]
     | "BUSY (a) \(.workload): \(.disturbed_pairs) disturbed traced pairs, no verdict on its counts"),
    (.counted[] | select(.host_too_busy | not)
     | "\(if .pass then "ok  " else "FAIL" end) (a) \(.workload) \(.metric): parent \(.parent), change \(.change) (\(.rule))\(if (.disturbed_pairs // 0) > 0 then " (\(.disturbed_pairs) disturbed pairs rerun)" else "" end)"),
    (.end_to_end[] | select(.host_too_busy)
     | "BUSY (b) \(.workload): \(.disturbed_pairs) disturbed pairs, no verdict on its medians"),
    (.end_to_end[] | select(.host_too_busy | not) as $w | $w.metrics[]
     | "\(if .pass then "ok  " else "FAIL" end) (b) \($w.workload) \(.name): parent median \(.parent.median) [\(.parent.q1) .. \(.parent.q3)], change median \(.change.median) [\(.change.q1) .. \(.change.q3)], bound \(.bound)\(if $w.disturbed_pairs > 0 then " (\($w.disturbed_pairs) disturbed pairs rerun)" else "" end)"),
    (.end_to_end[] | select(.correct | not) | "FAIL (b) \(.workload): a change run was not correct"),
    (.end_to_end[] | select((.host_too_busy | not) and .change_failed > .parent_failed)
     | "FAIL (b) \(.workload): change failed \(.change_failed) requests, parent \(.parent_failed)")
' "$out"
echo "record: $out"
if [ "$(jq -r .host_too_busy "$out")" = true ]; then
    echo "ledger gate: host too busy (more than $MAX_RERUNS disturbed pairs in a workload); no verdict" >&2
    exit 3
fi
if [ "$(jq -r .pass "$out")" = true ]; then
    echo "ledger gate passed"
else
    echo "ledger gate FAILED" >&2
    exit 1
fi
