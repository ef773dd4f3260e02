#!/usr/bin/env bash
# Hot-path benchmark harness.
#
# Protocol (see SNIPPETS.md, "Benchmark Validation Protocol"): build fresh,
# run every benchmark RUNS times, and refuse to treat a number as meaningful
# when the run-to-run spread exceeds VARIANCE_PCT. A noisy benchmark is
# automatically re-run (up to EXTRA_RUNS additional times); statistics are
# then taken over the tightest window of RUNS values, which discards
# machine-noise outliers instead of averaging them in. A benchmark still
# noisy after the extra runs is reported but flagged. Results land in a
# JSON file that cmd/benchdiff gates the next PR against: by default the
# git-ignored bench_local.json, so a bare run never overwrites a committed
# BENCH_N.json record — pass the path to write one on purpose.
#
# Usage: [RUNS=3] [EXTRA_RUNS=3] [VARIANCE_PCT=10] scripts/bench.sh [output.json]
set -euo pipefail

cd "$(dirname "$0")/.."

OUT="${1:-bench_local.json}"
# The code measured is the tree as it stands now: a record made before its
# commit names the parent with "+dirty" appended. Read before OUT is
# written, so a new record does not count itself.
COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
  COMMIT+="+dirty"
fi
RUNS="${RUNS:-3}"
EXTRA_RUNS="${EXTRA_RUNS:-3}"
VARIANCE_PCT="${VARIANCE_PCT:-10}"

# name | package | extra go test flags
BENCHES=(
  "BenchmarkMailbox/pingpong|./internal/runtime|"
  "BenchmarkMailbox/burst64|./internal/runtime|"
  "BenchmarkRuntimeFabricSend|./internal/runtime|"
  "BenchmarkNetsimSend|./internal/netsim|"
  "BenchmarkSockfabRoundTrip|./internal/sockfab|"
  "BenchmarkTramInsertFlush|./internal/tram|"
  "BenchmarkOwner/oned|./internal/partition|"
  "BenchmarkOwner/chunked|./internal/partition|"
  "BenchmarkBucketOf|./internal/histogram|"
  "BenchmarkControlCycle|./internal/histogram|"
  "BenchmarkUpdateKernel|./internal/core|"
  "BenchmarkUpdateKernelShipped|./internal/core|"
  "BenchmarkACICSolveLarge|./internal/core|-benchtime=40x"
  "BenchmarkWireEncodeBatch|./internal/core|"
  "BenchmarkWireDecodeBatch|./internal/core|"
  "BenchmarkWireDecodeReduce|./internal/core|"
  "BenchmarkHotPathSSSP|./internal/bench|-benchtime=10x"
  "BenchmarkEngineMutate|./internal/engine|-benchtime=200x"
  "BenchmarkEngineMutate16|./internal/engine|-benchtime=200x"
  "BenchmarkEnginePath|./internal/engine|"
  "BenchmarkEngineMiss|./internal/engine|"
  "BenchmarkEngineMissShapes/random|./internal/engine|"
  "BenchmarkEngineMissShapes/rmat|./internal/engine|"
  "BenchmarkEngineMissShapes/grid|./internal/engine|"
  "BenchmarkEngineMissShapes/path|./internal/engine|"
)

echo "== fresh build =="
go build ./...

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# run_pattern NAME -> -bench regexp anchoring EVERY path element, so
# "BenchmarkMailbox/pingpong" runs exactly that case and not the whole
# Mailbox family (go test splits the pattern on "/" and matches each part
# unanchored unless ^...$ is given per part).
run_pattern() {
  local IFS=/ part out=""
  for part in $1; do
    out+="${out:+/}^${part}\$"
  done
  printf '%s' "$out"
}

# run_once NAME PKG EXTRA >> runs.txt: one benchmark execution, appending
# exactly one "ns bytes allocs" line. The awk match is exact (modulo the
# -GOMAXPROCS suffix go test appends), so a sibling whose name merely
# contains the wanted one can never be mistaken for it. Values are picked
# by their unit label, not column position: a benchmark using b.SetBytes
# inserts an MB/s column that would otherwise shift B/op and allocs/op into
# the wrong fields.
run_once() {
  local name="$1" pkg="$2" extra="$3"
  # shellcheck disable=SC2086
  go test -run='^$' -bench="$(run_pattern "$name")" -benchmem $extra "$pkg" \
    | awk -v want="$name" '$1 ~ "^"want"(-[0-9]+)?$" {
        ns = b = a = 0
        for (i = 2; i < NF; i++) {
          if ($(i+1) == "ns/op") ns = $i
          else if ($(i+1) == "B/op") b = $i
          else if ($(i+1) == "allocs/op") a = $i
        }
        print ns, b, a
      }' >>"$TMP/runs.txt"
}

# stats < runs.txt: prints "mean spread bytes allocs flag kept_list" where
# mean/spread/kept_list come from the tightest window of WINDOW values
# (ascending) and bytes/allocs are the per-run maxima (conservative for the
# zero-alloc gate).
stats() {
  awk -v pct="$VARIANCE_PCT" -v win="$RUNS" '
    { ns[NR]=$1; if ($2>b) b=$2; if ($3>a) a=$3 }
    END {
      n = NR
      # insertion sort ascending
      for (i=2; i<=n; i++) { v=ns[i]; j=i-1; while (j>=1 && ns[j]>v) { ns[j+1]=ns[j]; j-- } ns[j+1]=v }
      if (win > n) win = n
      best = -1
      for (s=1; s+win-1<=n; s++) {
        sum = 0
        for (i=s; i<s+win; i++) sum += ns[i]
        m = sum/win
        sp = m > 0 ? 100*(ns[s+win-1]-ns[s])/m : 0
        if (best < 0 || sp < best) { best = sp; bmean = m; bs = s }
      }
      kept = ""
      for (i=bs; i<bs+win; i++) kept = kept (i>bs ? ", " : "") ns[i]
      printf "%.2f %.2f %d %d %d|%s", bmean, best, b, a, (best > pct), kept
    }' "$TMP/runs.txt"
}

json_entries=()
flagged_any=0

for spec in "${BENCHES[@]}"; do
  IFS='|' read -r name pkg extra <<<"$spec"

  echo "== $name ($RUNS runs, up to $EXTRA_RUNS extra) =="
  : >"$TMP/runs.txt"
  for i in $(seq "$RUNS"); do
    run_once "$name" "$pkg" "$extra"
  done
  if [ "$(wc -l <"$TMP/runs.txt")" -ne "$RUNS" ]; then
    echo "error: expected $RUNS result lines for $name" >&2
    exit 1
  fi

  extra_used=0
  while :; do
    IFS='|' read -r nums runs_list <<<"$(stats)"
    read -r mean spread bytes allocs flag <<<"$nums"
    [ "$flag" -eq 0 ] && break
    [ "$extra_used" -ge "$EXTRA_RUNS" ] && break
    extra_used=$((extra_used + 1))
    echo "   spread ${spread}% > ${VARIANCE_PCT}%, re-running ($extra_used/$EXTRA_RUNS)"
    run_once "$name" "$pkg" "$extra"
  done

  if [ "$flag" -eq 1 ]; then
    echo "   FLAGGED: ${spread}% spread after $((RUNS + extra_used)) runs exceeds ${VARIANCE_PCT}% — do not trust ns/op"
    flagged_any=1
  else
    echo "   ok: mean ${mean} ns/op, spread ${spread}%, ${bytes} B/op, ${allocs} allocs/op ($((RUNS + extra_used)) runs)"
  fi

  json_entries+=("$(printf '    {"name": "%s", "runs_ns_per_op": [%s], "mean_ns_per_op": %s, "spread_pct": %s, "bytes_per_op": %s, "allocs_per_op": %s, "flagged": %s}' \
    "$name" "$runs_list" "$mean" "$spread" "$bytes" "$allocs" "$([ "$flag" -eq 1 ] && echo true || echo false)")")
done

{
  echo '{'
  printf '  "go": "%s",\n' "$(go env GOVERSION)"
  printf '  "commit": "%s",\n' "$COMMIT"
  printf '  "runs_per_bench": %d,\n' "$RUNS"
  printf '  "variance_threshold_pct": %d,\n' "$VARIANCE_PCT"
  echo '  "benchmarks": ['
  for i in "${!json_entries[@]}"; do
    sep=','
    [ "$i" -eq $((${#json_entries[@]} - 1)) ] && sep=''
    printf '%s%s\n' "${json_entries[$i]}" "$sep"
  done
  echo '  ]'
  echo '}'
} >"$OUT"

echo "== wrote $OUT =="
[ "$flagged_any" -eq 1 ] && echo "note: at least one benchmark exceeded the variance threshold" >&2
exit 0
