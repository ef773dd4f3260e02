package engine

// The miss path. A /sssp miss is filled on one core by Dial's algorithm:
// Dijkstra with a monotone bucket queue (pq.BucketQueue) in place of a
// heap, on the admission slot's queue, writing straight into the two
// vectors the cache will keep. Relaxing an edge adds at least the smallest
// positive weight w_min, so with buckets of width w_min/2 a vertex lands at
// least one bucket past the one it was reached from: every vertex in the
// lowest non-empty bucket is final, and the queue pops it without a single
// key comparison. This is Meyer–Sanders Δ-stepping run on one core at a Δ
// small enough that it never settles a vertex twice. Each graph version
// carries its bucket width and span, set by bucketRule from the version's
// widen-only weight range when the version is made, never per miss. The
// kernel is not seq.Dijkstra: that keeps its heap and stays the
// independent reference the tests and the benchmark compare every answer
// with, while this kernel polls its caller's context and reports its work.

import (
	"context"
	"math"
	"time"

	"acic/internal/pq"
)

// cancelPollMask sets how often the kernel reads its context: before the
// first settled vertex and then once every 1,024. A miss on 2^14 × 8
// settles a vertex every 0.1–0.2 µs on a 2-core host, so a cancelled miss
// stops within a fraction of a millisecond, and the poll costs nothing
// measurable.
const cancelPollMask = 1<<10 - 1

// spanBuckets caps how many bucket widths a version's weight span may
// cover. The queue's ring holds span/width + 1 buckets; one more keeps the
// rounding of key/width within pq.MaxBuckets.
const spanBuckets = pq.MaxBuckets - 2

// bucketRule returns the bucket width and key span of a miss's queue on a
// graph whose positive weights lie in [wmin, wmax]. The span is wmax:
// every key in the queue is within it of the last key popped. The width is
// wmin/2, unless the span would then cover more than spanBuckets widths;
// past that cap the width is span/spanBuckets. A range wider than the
// graph's weights (dynamic.Version's only widens) costs speed, never
// exactness. A graph with no positive weight (wmax 0) gets width 1 and
// span 0: every key is 0, in one bucket.
func bucketRule(wmin, wmax float64) (width, span float64) {
	if wmax == 0 {
		return 1, 0
	}
	width, span = wmin/2, wmax
	if span > width*spanBuckets {
		width = span / spanBuckets
	}
	return width, span
}

// solution is one source's shortest-path tree as the cache keeps it: the
// distance and parent vectors, +Inf and -1 where a vertex is unreachable
// and -1 at the source, and what the solve that produced them cost.
type solution struct {
	dist   []float64
	parent []int32
	// elapsed is the solve's wall time, settled the vertices it popped and
	// relaxations the out-edges of those vertices it scanned. A vertex
	// whose label improves after it was popped is pushed and popped again.
	// That cannot happen while every weight is at least twice the bucket
	// width, so on such a graph both counts equal seq.Dijkstra's; a
	// zero-weight edge, or buckets widened to the span cap, may raise them.
	elapsed     time.Duration
	settled     int64
	relaxations int64
}

// solveFunc fills one miss on v's graph from source, using q (sized to
// |V|) as its queue. It returns ctx's error if ctx ends first.
type solveFunc func(ctx context.Context, v *graphVersion, source int, q *pq.BucketQueue) (solution, error)

// dijkstra is the engine's solveFunc. A cancelled search returns with q
// still holding its frontier; the next search resets it.
func dijkstra(ctx context.Context, v *graphVersion, source int, q *pq.BucketQueue) (solution, error) {
	start := time.Now()
	g := v.g
	n := g.NumVertices()
	dist, parent := make([]float64, n), make([]int32, n)
	for i := range dist {
		dist[i], parent[i] = math.Inf(1), -1
	}
	sol := solution{dist: dist, parent: parent}
	q.Reset(v.width, v.span)
	dist[source] = 0
	q.PushOrDecrease(source, 0)
	for q.Len() > 0 {
		if sol.settled&cancelPollMask == 0 {
			if err := ctx.Err(); err != nil {
				return solution{}, err
			}
		}
		u, d := q.PopMin()
		sol.settled++
		ts, ws := g.Neighbors(u)
		sol.relaxations += int64(len(ts))
		for i, to := range ts {
			if nd := d + ws[i]; nd < dist[to] {
				dist[to], parent[to] = nd, int32(u)
				q.PushOrDecrease(int(to), nd)
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
