#!/usr/bin/env bash
# Repository CI gate: vet, gofmt, the project's own analyzers (acic-lint),
# build, full test suite with a coverage floor, the examples, a smoke pass
# of every paper figure, the separate benchmark/ module, the race detector
# over every package, a fuzz smoke pass, the schedule-stress harness, and
# the perf pipeline (benchmark smoke + regression gate against the
# committed BENCH_N.json baseline).
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== gofmt (fails when gofmt -l lists any file) =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "FAIL: files need gofmt:"
	echo "$unformatted"
	exit 1
fi

echo "== acic-lint (project analyzers) =="
go run ./cmd/acic-lint ./...

echo "== acic-lint -noalloc (static zero-alloc gate over //acic:noalloc hot paths) =="
go run ./cmd/acic-lint -noalloc ./...

echo "== lint sabotage self-test (every plant reported by its own diagnostic) =="
scripts/lint_sabotage.sh

# The tier-1 test stages keep their whole output in ci-logs/ as well as on
# the console (CI uploads the directory). -timeout makes a hung test binary
# panic with every goroutine's stack well before the job is killed, and the
# log keeps that dump whole, however long it is. The slowest binary takes
# about 6 s plain and 40 s under -race on a 2-core host.
logs=ci-logs
mkdir -p "$logs"

echo "== build + test (with coverage) =="
go build ./...
cover_out="$(mktemp)"
trap 'rm -f "$cover_out"' EXIT
go test -timeout 5m -coverprofile="$cover_out" ./... 2>&1 | tee "$logs/test.log"

echo "== examples (each checks its answer against an oracle and exits non-zero on a mismatch) =="
for ex in examples/*/; do
	go run "./$ex" >/dev/null
done

echo "== paper figures smoke (every figure at scale 8, every run checked against Dijkstra) =="
go run ./cmd/sssp-bench -fig all -scale 8 -trials 1 -nodes 1,2 -verify -fig3window 50ms >/dev/null

echo "== coverage gate =="
# The checked-in baseline is the total statement coverage at the time the
# observability PR landed; a drop of more than 2pp fails the gate. Raise
# the baseline when coverage genuinely improves.
total="$(go tool cover -func="$cover_out" | awk '/^total:/ { sub(/%/, "", $3); print $3 }')"
baseline="$(cat scripts/coverage_baseline.txt)"
awk -v t="$total" -v b="$baseline" 'BEGIN {
  if (t + 2.0 < b) {
    printf "FAIL: total coverage %.1f%% is more than 2pp below baseline %.1f%%\n", t, b
    exit 1
  }
  printf "coverage %.1f%% (baseline %.1f%%, floor %.1f%%)\n", t, b, b - 2.0
}'

echo "== benchmark module (own go.mod: vet, 3 s -quick smoke of every pass, names equal BENCHMARK.json) =="
# benchmark/ imports the internal APIs from outside the main module, so
# ./... above never compiles it; an API refactor shows up here first.
(cd benchmark && go vet ./... && go test ./...)

echo "== race detector (all packages) =="
go test -race -timeout 8m ./... 2>&1 | tee "$logs/test-race.log"

echo "== fuzz smoke (10s per target; one target per invocation) =="
go test -run '^$' -fuzz '^FuzzGraphLoadCSV$' -fuzztime 10s ./internal/graph
go test -run '^$' -fuzz '^FuzzHistogramMerge$' -fuzztime 10s ./internal/histogram
go test -run '^$' -fuzz '^FuzzHistogramOps$' -fuzztime 10s ./internal/histogram
go test -run '^$' -fuzz '^FuzzBucketOf$' -fuzztime 10s ./internal/histogram
go test -run '^$' -fuzz '^FuzzFrameDecode$' -fuzztime 10s ./internal/wire
go test -run '^$' -fuzz '^FuzzBucketQueue$' -fuzztime 10s ./internal/pq
go test -run '^$' -fuzz '^FuzzVertexQueue$' -fuzztime 10s ./internal/core
go test -run '^$' -fuzz '^FuzzSnapshotSplice$' -fuzztime 10s ./internal/dynamic
go test -run '^$' -fuzz '^FuzzHandlerQueries$' -fuzztime 10s ./internal/engine

echo "== schedule-stress harness (short matrix, incl. fault sub-matrix) =="
go run ./cmd/acic-stress -short
go run -race ./cmd/acic-stress -short -seed 2

echo "== churn smoke (edge-mutation streams, oracle-validated per epoch) =="
# The churn sub-matrix drives mutation batches through both a bare
# dynamic.Graph (repaired in place) and an engine.NewDynamic instance,
# checking every epoch against a sequential Dijkstra recompute. The full
# (non-short) graphs keep the subtree-invalidation path hot; the -race pass
# guards the engine's version-swap and cache-repair concurrency.
go run ./cmd/acic-stress -churn only -runs 2
go run -race ./cmd/acic-stress -short -churn only -seed 3

echo "== query-service smoke (daemon: concurrent sssp+path, cache hit, 429 shed, graceful drain) =="
# TestDaemonSmoke builds the real acic-serve binary, starts it, issues
# concurrent single-source and point-to-point queries (oracle-checked),
# asserts a cache hit on a repeated source and a 429 + Retry-After under
# 16-way fan-in at capacity 2, then SIGTERMs it and requires a clean exit.
go test -count=1 -run '^TestDaemonSmoke$' ./cmd/acic-serve

echo "== multi-process loopback smoke (4 worker OS processes over TCP) =="
# acic-launch spawns four worker processes, runs SSSP over real loopback
# sockets, and verifies the merged result against Dijkstra plus the
# per-process conservation ledgers and cross-process boundary balance
# (-verify is the default). The -race build guards the codec and the
# sockfab reader/writer goroutines.
launch_bin="$(mktemp -d)/acic-launch"
go build -o "$launch_bin" ./cmd/acic-launch
"$launch_bin" -kind rmat -scale 9 -ppn 4 -pepp 2
go run -race ./cmd/acic-launch -kind random -scale 9 -ppn 4 -pepp 2
rm -rf "$(dirname "$launch_bin")"

echo "== reorder-fabric stage (per-pair FIFO broken; distances and ledger must stay exact) =="
go run ./cmd/acic-run -algo acic -kind random -scale 10 -fault reorder -verify
go run -race ./cmd/acic-run -algo acic -kind random -scale 9 -fault reorder -verify

echo "== bench smoke (every internal package's benchmarks compile and run once) =="
go test -run '^$' -bench . -benchtime=1x ./internal/... >/dev/null

echo "== perf regression gate (scripts/bench.sh vs committed baseline) =="
# Compare a fresh variance-aware record against the newest committed
# baseline. cmd/benchdiff fails the stage on any allocs/op regression on a
# zero-alloc benchmark or a benchmark missing from the record; ns/op
# deltas are reported only, because the baseline was recorded in another
# session and cross-session host noise exceeds any useful threshold.
baseline="$(ls BENCH_*.json | sort -V | tail -1)"
bench_out="$(mktemp)"
trap 'rm -f "$cover_out" "$bench_out"' EXIT
scripts/bench.sh "$bench_out"
go run ./cmd/benchdiff -gate "$baseline" "$bench_out"

echo "== ci green =="
