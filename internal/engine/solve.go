package engine

// The miss path. A /sssp miss is filled by a decrease-key Dijkstra on one
// core, on the admission slot's indexed heap, writing straight into the two
// vectors the cache will keep. It is not seq.Dijkstra: that stays the
// untouched reference the tests and the benchmark compare every answer
// with, and this kernel polls its caller's context and reports its work.

import (
	"context"
	"math"
	"time"

	"acic/internal/graph"
	"acic/internal/pq"
)

// cancelPollMask sets how often the kernel reads its context: before the
// first settled vertex and then once every 1,024. A miss on 2^14 × 8
// settles a vertex every 0.35–0.65 µs on a 2-core host, so a cancelled
// miss stops within about half a millisecond, and the poll costs nothing
// measurable.
const cancelPollMask = 1<<10 - 1

// solution is one source's shortest-path tree as the cache keeps it: the
// distance and parent vectors, +Inf and -1 where a vertex is unreachable
// and -1 at the source, and what the solve that produced them cost.
type solution struct {
	dist   []float64
	parent []int32
	// elapsed is the solve's wall time, settled the vertices it settled and
	// relaxations the out-edges of those vertices it scanned. Both counts
	// are work-minimal, so they equal seq.Dijkstra's for the same source.
	elapsed     time.Duration
	settled     int64
	relaxations int64
}

// solveFunc fills one miss on g from source, using h (sized to |V|) as its
// queue. It returns ctx's error if ctx ends first.
type solveFunc func(ctx context.Context, g *graph.Graph, source int, h *pq.IndexedHeap) (solution, error)

// dijkstra is the engine's solveFunc. A cancelled search returns with h
// still holding its frontier; the next search resets it.
func dijkstra(ctx context.Context, g *graph.Graph, source int, h *pq.IndexedHeap) (solution, error) {
	start := time.Now()
	n := g.NumVertices()
	dist, parent := make([]float64, n), make([]int32, n)
	for i := range dist {
		dist[i], parent[i] = math.Inf(1), -1
	}
	sol := solution{dist: dist, parent: parent}
	h.Reset()
	dist[source] = 0
	h.Push(source, 0)
	for h.Len() > 0 {
		if sol.settled&cancelPollMask == 0 {
			if err := ctx.Err(); err != nil {
				return solution{}, err
			}
		}
		v, d := h.PopMin()
		sol.settled++
		ts, ws := g.Neighbors(v)
		sol.relaxations += int64(len(ts))
		for i, to := range ts {
			if nd := d + ws[i]; nd < dist[to] {
				dist[to], parent[to] = nd, int32(v)
				h.PushOrDecrease(int(to), nd)
			}
		}
	}
	sol.elapsed = time.Since(start)
	return sol, nil
}

// pathTo returns the tree path source..v, or nil when v is unreachable.
// A walk longer than |V| steps means the parents hold a cycle, which no
// solve or repair produces; it also answers nil rather than hang a query.
func (s *solution) pathTo(v int) []int32 {
	if math.IsInf(s.dist[v], 1) {
		return nil
	}
	hops := 0
	for u := int32(v); u >= 0; u = s.parent[u] {
		if hops++; hops > len(s.parent) {
			return nil
		}
	}
	path := make([]int32, hops)
	for u := int32(v); u >= 0; u = s.parent[u] {
		hops--
		path[hops] = u
	}
	return path
}
