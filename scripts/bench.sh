#!/usr/bin/env bash
# Runs the full benchmark suite with -benchmem and refreshes
# BENCH_baseline.json, the committed performance baseline that future PRs
# diff against.
#
# `-bench=.` over ./... picks up every benchmark in the module: the
# paper-shaped suite at the root (T1, F2–F16, SFT, SAU, D1–D3, Q1–Q5,
# ablations), the store's read-path and WAL microbenchmarks, and
# internal/repl's BenchmarkR1_FollowerCatchUp (follower log catch-up:
# frames/s and fsyncs/frame).
#
# Usage:
#   scripts/bench.sh                 # default -benchtime (0.2s)
#   BENCHTIME=1s scripts/bench.sh    # longer, steadier numbers
#   OUT=/tmp/bench.json scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-0.2s}"
OUT="${OUT:-BENCH_baseline.json}"
RAW="$(mktemp)"
HTTP="$(mktemp)"
trap 'rm -f "$RAW" "$HTTP"' EXIT

# The socket-level BenchmarkHTTPSocket entries (including the
# replica-N/... rows from `make bench-http-replicas`) come from
# cmd/bfabric-loadbench, not from `go test -bench`; carry them over so a
# baseline refresh does not silently drop them.
if [ -f "$OUT" ]; then
    grep '"name": "BenchmarkHTTPSocket/' "$OUT" | sed 's/,[[:space:]]*$//' > "$HTTP" || true
fi

go test -bench=. -benchmem -run='^$' -benchtime="$BENCHTIME" -timeout 60m ./... | tee "$RAW"

# Names are recorded bare: go test's -GOMAXPROCS suffix (absent when it
# is 1) is stripped so baselines from different machines share keys.
awk -v benchtime="$BENCHTIME" -v procs="${GOMAXPROCS:-$(nproc)}" \
    -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    -v goversion="$(go version | cut -d' ' -f3)" '
/^pkg: / { pkg = $2 }
/^cpu: / { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
    name = $1
    if (procs != 1) sub("-" procs "$", "", name)
    iters = $2
    metrics = ""
    for (i = 3; i + 1 <= NF; i += 2) {
        sep = (metrics == "" ? "" : ", ")
        metrics = metrics sprintf("%s\"%s\": %s", sep, $(i + 1), $i)
    }
    recs[n++] = sprintf("    {\"package\": \"%s\", \"name\": \"%s\", \"iterations\": %s, \"metrics\": {%s}}", \
                        pkg, name, iters, metrics)
}
END {
    printf "{\n"
    printf "  \"generated\": \"%s\",\n", date
    printf "  \"go\": \"%s\",\n", goversion
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"benchmarks\": [\n"
    for (i = 0; i < n; i++) printf "%s%s\n", recs[i], (i < n - 1 ? "," : "")
    printf "  ]\n"
    printf "}\n"
}' "$RAW" > "$OUT"

if [ -s "$HTTP" ]; then
    TMP="$(mktemp)"
    awk -v httpfile="$HTTP" '
    { lines[NR] = $0 }
    END {
        close_i = 0
        for (i = 1; i <= NR; i++) if (lines[i] ~ /^  \]/) { close_i = i; break }
        m = 0
        while ((getline l < httpfile) > 0) http[m++] = l
        for (i = 1; i < close_i; i++) {
            if (i == close_i - 1 && m > 0 && lines[i] !~ /,$/) lines[i] = lines[i] ","
            print lines[i]
        }
        for (j = 0; j < m; j++) print http[j] (j < m - 1 ? "," : "")
        for (i = close_i; i <= NR; i++) print lines[i]
    }' "$OUT" > "$TMP" && mv "$TMP" "$OUT"
    echo "carried over $(wc -l < "$HTTP") BenchmarkHTTPSocket entries (refresh them with make bench-http)"
fi

echo "wrote $OUT"
