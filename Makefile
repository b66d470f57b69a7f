.PHONY: build test race bench verify fuzz-smoke bench-compare bench-ingest bench-agg bench-repl test-faults bench-faults bench-http bench-http-smoke bench-http-replicas bench-http-failover test-repl test-chaos

build:
	go build ./...

test:
	go test ./...

# The tier-1 gate: everything CI (and the next PR) must keep green. The
# -race pass covers the store's MVCC contract (snapshot readers, conflict
# detection, barrier), the query engine's iterators under writer load, and
# the entity/vocab read-then-write loops that drain a Rows before writing —
# the tests most likely to catch a concurrency regression early. gofmt
# keeps the tree formatting-clean.
verify:
	go build ./...
	go vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt: needs formatting:"; echo "$$unformatted"; exit 1; fi
	go test ./...
	go test -race ./internal/store ./internal/portal ./internal/repl ./internal/entity ./internal/vocab
	$(MAKE) bench-http-smoke

# The full randomized crash-point campaign: injects a fault at EVERY
# mutating filesystem operation of the reference workload (write, fsync,
# rename, ENOSPC, torn write — across WAL append, rotation, snapshot and
# truncation) and proves committed-prefix recovery after each, under the
# race detector. The deterministic subset (every 5th fault point) already
# runs inside `make test`/`make verify`; this target buys the exhaustive
# sweep. Seed with BFABRIC_FAULT_SEED=n for a reproducible shuffle.
test-faults:
	BFABRIC_FAULTS=full go test -race -count=1 \
		-run 'TestFaultCampaign|TestDegraded|TestPoison|TestPortalDegraded' \
		./internal/store ./internal/portal

# The replication chaos campaign, exhaustive: every fault point on the
# follower replay path (BFABRIC_FAULTS=full), the kill -9 follower
# convergence test, the Query{Cursor} pagination stress on a live follower,
# the follower durability contract (group-sync fsync and version counts,
# power-cut recovery of every reported lastApplied, durable-only
# shipping), the batched-apply equivalence and error-semantics tests,
# and the online-backup round trips — all under the race detector. The
# deterministic subsets of these already run inside `make test`/`make
# verify`; this target buys the full sweep. Seed the fault-mode shuffle
# with BFABRIC_FAULT_SEED=n for a reproducible run.
test-repl:
	BFABRIC_FAULTS=full go test -race -count=1 \
		-run 'TestFollowerFaultCampaign|TestKillNineFollowerConvergence|TestFollowerScanPaginationStress|TestDivergenceResync|TestBackup|TestFollowerGroupSync|TestFrameThenHeartbeatInOneRead|TestFollowerCrashKeepsReportedPrefix|TestPromoteDuringBurstIsDurable|TestCatchUpShipsOnlyDurable|TestFollowerTrickleVersions|TestQuickApplyBatchEquivalence|TestApplyBatch' \
		./internal/repl ./internal/store

# The promotion chaos campaign, exhaustive: every network fault mode
# (latency, throttle, torn connections, half-open stalls) injected
# against both followers mid-load, then primary partitioned away, a
# follower promoted, survivors re-pointed, and the zombie primary
# resurrected — asserting zero phantom commits, exact committed-prefix
# timelines per epoch, and byte-identical convergence after the fenced
# zombie resyncs via snapshot. The deterministic every-3rd-scenario
# subset already runs inside `make test`/`make verify`; this target buys
# the full sweep with randomized fault parameters. Seed with
# BFABRIC_CHAOS_SEED=n for a reproducible run.
test-chaos:
	BFABRIC_CHAOS=full go test -race -count=1 \
		-run 'TestPromotionChaosCampaign|TestFencedAheadRefusesZombie|TestPromoteDisconnectRepoints|TestHalfOpenFreezesLastContact' \
		./internal/repl

# Runs every Fuzz* target in the tree for FUZZTIME (default 5s) each —
# the WAL payload decoder, the snapshot reader and the row accessors
# among them. go test -fuzz takes one target at a time, so the targets are
# discovered with grep and run in turn; any failure stops the sweep and
# leaves its input under the package's testdata/fuzz.
FUZZTIME ?= 5s
fuzz-smoke:
	@set -e; for dir in $$(grep -rl --include='*_test.go' '^func Fuzz' . | xargs -n1 dirname | sort -u); do \
		for f in $$(grep -h '^func Fuzz' $$dir/*_test.go | sed 's/^func \(Fuzz[A-Za-z0-9_]*\).*/\1/'); do \
			echo "fuzz $$dir $$f"; \
			go test -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZTIME) $$dir; \
		done; \
	done

# Fence that the storefs indirection keeps the hot paths within noise:
# Q1 (filtered browse query), D3 (durable commit latency) and the bulk
# ingest benchmarks, diffed against the committed baseline.
bench-faults:
	BENCH='BenchmarkQ1_|BenchmarkD3_|BenchmarkT1_DeploymentLoad|BenchmarkD1_DurableRegisterSample' \
		scripts/bench_compare.sh

# Race-checks every package with dedicated concurrency tests (MVCC
# snapshot isolation, zero-copy read path, search flush).
race:
	go test -race ./internal/store/... ./internal/search/... ./internal/entity/... ./internal/portal/... ./internal/repl/...

# The ISUCON-style socket-level benchmark: boots the portal on a real TCP
# listener, logs in a pool of bench users, and drives a validated mixed
# read/write workload for DURATION (default 12s), merging req/s and
# p50/p95/p99 per operation class into BENCH_baseline.json as
# BenchmarkHTTPSocket entries. See docs/http-bench.md.
DURATION ?= 12s
bench-http:
	go run ./cmd/bfabric-loadbench -duration $(DURATION) \
		-merge-baseline BENCH_baseline.json

# Replicated read scaling: the same socket-level workload served by
# WAL-shipping read replicas — writers stay on the primary, readers
# spread across the follower portals (16 clients per serving instance,
# so the runs measure capacity, not a fixed load split thinner). Records
# BenchmarkHTTPSocket/replica-N/... rows next to the single-server ones;
# compare replica-1 vs replica-2 req/s for the scaling claim.
bench-http-replicas:
	go run ./cmd/bfabric-loadbench -duration $(DURATION) -replicas 1 \
		-merge-baseline BENCH_baseline.json
	go run ./cmd/bfabric-loadbench -duration $(DURATION) -replicas 2 \
		-merge-baseline BENCH_baseline.json

# The failover scenario at the socket: primary + follower under the
# mixed workload, primary portal killed mid-load, follower drained and
# promoted over HTTP, clients re-pointed. Fails if any acknowledged
# write is lost; records BenchmarkHTTPSocket/failover/... rows (req/s
# and p99 through the outage, plus the synthetic "switchover" op whose
# latency is the outage duration).
bench-http-failover:
	go run ./cmd/bfabric-loadbench -duration $(DURATION) -failover \
		-merge-baseline BENCH_baseline.json

# Short correctness-only pass over the load harness: boots the full
# server, runs the mixed workload briefly, and fails on any validation
# error. Part of `make verify`.
bench-http-smoke:
	go test ./internal/loadgen -run TestHarnessSmoke -short -count=1

# Re-runs the benchmark suite and diffs it against the committed
# BENCH_baseline.json without overwriting it.
bench-compare:
	scripts/bench_compare.sh

# Write-path benchmarks only (bulk ingest, registration, durable commit),
# diffed against the committed baseline — the quick regression fence for
# changes to the store's transaction/commit/fan-out path.
bench-ingest:
	BENCH='BenchmarkAblationTxBatchSize|BenchmarkAblationEventSubscribers|BenchmarkT1_DeploymentLoad|BenchmarkF2_RegisterSample|BenchmarkF3_RegisterExtractBatch|BenchmarkF4_ReleaseAnnotation|BenchmarkSAU_AuditLog|BenchmarkD1_DurableRegisterSample' \
		scripts/bench_compare.sh

# Aggregation-pushdown fence: the planned Count/GroupBy paths against
# their retained scan-and-fold baselines, plus the query benchmarks that
# share the planner, diffed against the committed baseline. The quick
# regression check for changes to the aggregate strategies or the index
# key walk.
bench-agg:
	BENCH='BenchmarkQ4_|BenchmarkQ5_|BenchmarkQ1_|BenchmarkQ2_' \
		scripts/bench_compare.sh

# Replication catch-up fence: an empty durable follower replaying the
# primary's log, diffed against the committed baseline. ns/op follows
# the fsyncs/frame batch ratio — one fsync per frame is ~10x slower.
bench-repl:
	BENCH='BenchmarkR1_' scripts/bench_compare.sh

# Runs the full benchmark suite with -benchmem and refreshes
# BENCH_baseline.json. Override the per-benchmark budget with
# BENCHTIME=1s make bench
bench:
	scripts/bench.sh
