#!/usr/bin/env bash
# Runs the benchmark suite into a temporary baseline and diffs it against
# the committed BENCH_baseline.json, flagging per-benchmark ns/op swings
# beyond a threshold. The committed baseline is never modified; refresh it
# with scripts/bench.sh once a change is accepted.
#
# Usage:
#   scripts/bench_compare.sh                    # full suite, 20% threshold
#   BENCH=BenchmarkD3 scripts/bench_compare.sh  # only matching benchmarks
#   THRESHOLD=10 BENCHTIME=1s scripts/bench_compare.sh
#
# Exit status: 0 when no benchmark regressed beyond the threshold,
# 1 otherwise (improvements and new/removed benchmarks are reported but
# do not fail the run).
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE="${BASELINE:-BENCH_baseline.json}"
THRESHOLD="${THRESHOLD:-20}"
BENCH="${BENCH:-.}"
BENCHTIME="${BENCHTIME:-0.2s}"

if [[ ! -f "$BASELINE" ]]; then
    echo "bench_compare: no baseline at $BASELINE (run scripts/bench.sh first)" >&2
    exit 2
fi

CUR="$(mktemp)"
trap 'rm -f "$CUR"' EXIT

# go test appends -GOMAXPROCS to every name unless it is 1; the baseline
# carries bare names, so strip exactly that suffix before matching.
PROCS="${GOMAXPROCS:-$(nproc)}"

go test -bench="$BENCH" -benchmem -run='^$' -benchtime="$BENCHTIME" -timeout 60m ./... \
    | awk -v procs="$PROCS" '/^Benchmark/ { if (procs != 1) sub("-" procs "$", "", $1); print $1, $3 }' > "$CUR"

awk -v threshold="$THRESHOLD" -v curfile="$CUR" -v bench="$BENCH" '
# Pass 1: current run ("name ns_op" pairs).
BEGIN {
    while ((getline line < curfile) > 0) {
        split(line, f, " ")
        cur[f[1]] = f[2]
        order[n++] = f[1]
    }
    close(curfile)
}
# Pass 2: committed baseline JSON (one benchmark object per line).
/"name": "Benchmark/ {
    name = $0; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
    ns = $0
    if (ns !~ /"ns\/op": /) next
    sub(/.*"ns\/op": /, "", ns); sub(/[,}].*/, "", ns)
    base[name] = ns
}
END {
    worst = 0
    printf "%-70s %12s %12s %9s\n", "benchmark", "baseline", "current", "delta"
    for (i = 0; i < n; i++) {
        name = order[i]
        if (!(name in base)) {
            printf "%-70s %12s %12.1f %9s\n", name, "-", cur[name], "new"
            continue
        }
        delta = (cur[name] - base[name]) / base[name] * 100
        flag = ""
        if (delta > threshold) { flag = "  << REGRESSION"; worst = 1 }
        else if (delta < -threshold) { flag = "  (improved)" }
        printf "%-70s %12.1f %12.1f %+8.1f%%%s\n", name, base[name], cur[name], delta, flag
        delete base[name]
    }
    if (bench == ".") {
        # BenchmarkHTTPSocket entries come from make bench-http, not from
        # go test -bench — never report them as gone.
        for (name in base)
            if (name !~ /^BenchmarkHTTPSocket\//)
                printf "%-70s %12.1f %12s %9s\n", name, base[name], "-", "gone"
    }
    exit worst
}' "$BASELINE"
