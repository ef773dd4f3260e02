#!/usr/bin/env bash
# Analyzer-suite self-test: plant violations of every rule in a scratch
# copy of the tree and assert acic-lint reports each one by its own
# diagnostic, then do the same for the -noalloc escape gate. A lint suite that silently stops
# firing is worse than none — a refactor of the analysis driver could make
# every pass vacuously green and nothing else in CI would notice. This
# script makes "the analyzers still bite" an invariant.
set -euo pipefail
cd "$(dirname "$0")/.."

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# Copy the module (sans VCS metadata) so the sabotage never touches the tree.
tar --exclude=.git -cf - . | tar -xf - -C "$work"

# One file, ten plants. internal/core is in every package-scoped rule's
# enforcement list and has the arena/tram plumbing releasecheck tracks.
cat > "$work/internal/core/zz_lint_sabotage.go" <<'EOF'
package core

import (
	"sync"
	"sync/atomic"
	"time"

	"acic/internal/runtime"
)

//acic:frobnicate planted for dircheck

var sabMuA, sabMuB sync.Mutex

type sabCounter struct{ n int64 }

type sabShard struct {
	mu sync.Mutex
	n  int
}

var sabShards [4]sabShard

func sabDetrand() time.Time { return time.Now() }

func sabGoroutine() { go func() {}() }

func sabAtomic(c *sabCounter) int64 {
	atomic.AddInt64(&c.n, 1)
	return c.n
}

func sabLockAB(pe *runtime.PE) {
	sabMuA.Lock()
	sabMuB.Lock()
	pe.Send(0, nil, 0)
	sabMuB.Unlock()
	sabMuA.Unlock()
}

func sabLockBA() {
	sabMuB.Lock()
	sabMuA.Lock()
	sabMuA.Unlock()
	sabMuB.Unlock()
}

func sabArena(st *peState) {
	chunk := st.shared.ar.Get(st.me)
	_ = len(chunk)
}

func sabRelease(m *batchMsg) int {
	n := 0
	for range m.items {
		n++
	}
	return n
}

//acic:noalloc
func sabNoalloc() *sabCounter { return &sabCounter{} }
EOF

out="$work/findings.json"
if (cd "$work" && go run ./cmd/acic-lint -json ./internal/core/... > "$out"); then
	echo "FAIL: sabotaged tree passed the analyzer suite" >&2
	exit 1
fi

# One line per plant: the analyzer that must report it, then the start of
# its diagnostic as -json prints it. Matching the message, not just the
# analyzer name, keeps a plant that went silent from hiding behind a
# sibling reported under the same name.
plants=(
	'dircheck|unknown acic directive \"frobnicate\"'
	'sharedpad|sharded element type sabShard has mutex/atomic fields'
	'simcheck|call to time.Now in deterministic package'
	'simcheck|raw go statement in runtime-managed package'
	'simcheck|call to sync/atomic.AddInt64'
	'lockorder|lock-order cycle: acquiring acic/internal/core.sabMuB while holding acic/internal/core.sabMuA'
	'lockorder|lock-order cycle: acquiring acic/internal/core.sabMuA while holding acic/internal/core.sabMuB'
	'lockorder|call to Send while holding sabMuB'
	'releasecheck|arena chunk \"chunk\" may not be released'
	'releasecheck|tram batch \"m.items\" may not be released'
)
for p in "${plants[@]}"; do
	a="${p%%|*}" msg="${p#*|}"
	if ! grep -A4 "\"analyzer\": \"$a\"" "$out" | grep -qF -- "\"message\": \"$msg"; then
		echo "FAIL: planted violation not reported by $a: $msg; findings were:" >&2
		cat "$out" >&2
		exit 1
	fi
	echo "ok: $a: $msg"
done

if (cd "$work" && go run ./cmd/acic-lint -noalloc ./internal/core/... > "$work/noalloc.txt" 2>&1); then
	echo "FAIL: sabotaged tree passed the noalloc gate" >&2
	exit 1
fi
if ! grep -q "noalloc function sabNoalloc" "$work/noalloc.txt"; then
	echo "FAIL: planted noalloc violation was not reported; output was:" >&2
	cat "$work/noalloc.txt" >&2
	exit 1
fi
echo "ok: noalloc fired"

echo "lint sabotage self-test green"
