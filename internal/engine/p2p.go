package engine

// Point-to-point queries. A /path query needs one distance, not |V| of
// them; filling a miss would compute (and cache) everything reachable.
// When the source's full vector is already resident the answer is a tree
// walk; otherwise the engine runs a bidirectional Dijkstra: a forward
// search from the source on the version's graph and a backward search from
// the target on its reverse, each step expanding the side with the
// smaller frontier. The two meet in the middle, so a query settles two
// small balls instead of one ball of the target's radius.
//
// The search keeps μ, the shortest source→target path seen where the two
// sides' labels meet, and stops once topF + topB ≥ μ. It also discards
// every relaxation whose tentative distance nd already has nd + top(other
// side) ≥ μ: the bound tightening of the heuristic-search playbook (Yu et
// al., arXiv:2506.19349, §3), with the other side's heap minimum as the
// admissible estimate of the distance still to go. Both tests stay valid
// with lazy heaps: a stale entry's key only lowers a heap's minimum, and
// the minimum of a side's heap is never above the distance between an
// unsettled vertex and that side's root.

import (
	"context"
	"fmt"
	"math"
	"time"

	"acic/internal/graph"
	"acic/internal/pq"
)

// PathResult is one answered point-to-point query.
type PathResult struct {
	Source int
	Target int
	Epoch  uint64
	// Reachable is false when no path exists; Distance is then +Inf and
	// Path is nil.
	Reachable bool
	Distance  float64
	// Path is the vertex sequence source..target.
	Path []int32
	// CacheHit is true when a resident full vector for the source answered
	// the query without a search.
	CacheHit bool
	// Settled counts the vertices the bidirectional search expanded, on
	// both sides together. Pruned counts the relaxations it discarded
	// because the tentative distance plus the other side's heap minimum
	// already reached the best meeting value μ. Both are zero on cache
	// hits.
	Settled int64
	Pruned  int64
}

// Path answers a point-to-point query. A resident (epoch, source) vector
// short-circuits it; otherwise the search runs under the same admission
// control as full queries, on the admitted slot's pathSearch.
func (e *Engine) Path(ctx context.Context, source, target int) (*PathResult, error) {
	start := time.Now()
	e.mQueries.Inc(0)
	e.mP2P.Inc(0)
	ver := e.version.Load() // one load: epoch, graph and reverse stay a consistent triple
	n := ver.g.NumVertices()
	if source < 0 || source >= n {
		e.mErrors.Inc(0)
		return nil, fmt.Errorf("%w: source %d not in [0,%d)", ErrBadVertex, source, n)
	}
	if target < 0 || target >= n {
		e.mErrors.Inc(0)
		return nil, fmt.Errorf("%w: target %d not in [0,%d)", ErrBadVertex, target, n)
	}
	epoch := ver.epoch
	key := cacheKey{epoch: epoch, source: int32(source)}

	// A completed cached vector answers without admission or search. An
	// in-flight entry is not awaited: the point of /path is a cheap
	// answer, and the search below is exactly that.
	if ent, ok := e.cache.get(key); ok {
		select {
		case <-ent.ready:
			if ent.err == nil {
				pr := &PathResult{Source: source, Target: target, Epoch: epoch, CacheHit: true, Distance: math.Inf(1)}
				if path := ent.res.pathTo(target); path != nil {
					pr.Reachable, pr.Distance, pr.Path = true, ent.res.dist[target], path
				}
				e.mHits.Inc(0)
				e.hHitMicros.Observe(0, time.Since(start).Microseconds())
				return pr, nil
			}
		default:
		}
	}

	slot, err := e.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer e.releaseSlot(slot)
	pr := e.scratch[slot].path.run(ver.g, ver.rev, source, target)
	e.hPathMicros.Observe(slot, time.Since(start).Microseconds())
	pr.Epoch = epoch
	e.mP2PPruned.Add(slot, pr.Pruned)
	e.mP2PSettled.Add(slot, pr.Settled)
	return pr, nil
}

// pathSearch is one admission slot's bidirectional search state: a label
// per vertex and a lazy heap for each side. A label is valid only while its
// gen equals the search's gen, so a query starts by advancing gen instead
// of clearing |V| labels; the labels are allocated by the slot's first
// search and kept, and the heaps keep their backing arrays. Only a wrap of
// gen clears them.
type pathSearch struct {
	gen  uint32
	side [2]searchSide // forward, backward
}

type searchSide struct {
	label []label
	heap  pq.BinaryHeap
}

// label is one vertex's tentative distance on one side, and its parent: the
// vertex it was reached from, one step closer to that side's root (the
// source going forward, the target going backward); -1 at the root.
type label struct {
	dist   float64
	parent int32
	gen    uint32
}

// top is the side's heap minimum, +Inf once the side is exhausted.
func (s *searchSide) top() float64 {
	if s.heap.Len() == 0 {
		return math.Inf(1)
	}
	return s.heap.Peek().Key
}

// begin starts a search over n vertices, side i rooted at root[i].
func (ps *pathSearch) begin(n int, root [2]int) {
	ps.gen++
	wrapped := ps.gen == 0
	if wrapped {
		ps.gen = 1
	}
	for i := range ps.side {
		s := &ps.side[i]
		if len(s.label) != n {
			s.label = make([]label, n)
		} else if wrapped {
			clear(s.label) // every old stamp could read as current again
		}
		s.heap.Reset()
		s.label[root[i]] = label{dist: 0, parent: -1, gen: ps.gen}
		s.heap.Push(pq.Item{Key: 0, Value: int64(root[i])})
	}
}

// run answers source→target on g, whose reverse is rev.
func (ps *pathSearch) run(g, rev *graph.Graph, source, target int) *PathResult {
	pr := &PathResult{Source: source, Target: target, Distance: math.Inf(1)}
	if source == target {
		pr.Reachable, pr.Distance, pr.Path = true, 0, []int32{int32(source)}
		return pr
	}
	ps.begin(g.NumVertices(), [2]int{source, target})
	gen := ps.gen
	dirs := [2]*graph.Graph{g, rev}
	mu := math.Inf(1)
	// The best path found is source ⇝ meetFrom → meetTo ⇝ target, with
	// meetFrom → meetTo an edge of g: forward labels lead back from
	// meetFrom, backward labels on from meetTo.
	meetFrom, meetTo := int32(-1), int32(-1)
	for {
		tops := [2]float64{ps.side[0].top(), ps.side[1].top()}
		if tops[0]+tops[1] >= mu {
			break
		}
		i := 0 // the side to expand: the smaller frontier, forward on a tie
		if ps.side[1].heap.Len() < ps.side[0].heap.Len() {
			i = 1
		}
		me, other, otherTop := &ps.side[i], &ps.side[1-i], tops[1-i]
		it := me.heap.Pop()
		v, d := int32(it.Value), it.Key
		if d > me.label[v].dist {
			continue // stale: v was reached more cheaply after this push
		}
		pr.Settled++
		ts, ws := dirs[i].Neighbors(int(v))
		for j, w := range ts {
			nd := d + ws[j]
			lw := &me.label[w]
			if lw.gen == gen && nd >= lw.dist {
				continue
			}
			if lo := &other.label[w]; lo.gen == gen && nd+lo.dist < mu {
				mu = nd + lo.dist
				meetFrom, meetTo = v, w
				if i == 1 {
					meetFrom, meetTo = w, v
				}
			}
			if nd+otherTop >= mu {
				pr.Pruned++
				continue
			}
			*lw = label{dist: nd, parent: v, gen: gen}
			me.heap.Push(pq.Item{Key: nd, Value: int64(w)})
		}
	}
	if meetFrom < 0 {
		return pr
	}
	pr.Reachable, pr.Distance = true, mu
	fwdHops, bwdHops := 0, 0
	for v := meetFrom; v >= 0; v = ps.side[0].label[v].parent {
		fwdHops++
	}
	for v := meetTo; v >= 0; v = ps.side[1].label[v].parent {
		bwdHops++
	}
	pr.Path = make([]int32, fwdHops+bwdHops)
	k := fwdHops
	for v := meetFrom; v >= 0; v = ps.side[0].label[v].parent {
		k--
		pr.Path[k] = v
	}
	k = fwdHops
	for v := meetTo; v >= 0; v = ps.side[1].label[v].parent {
		pr.Path[k] = v
		k++
	}
	return pr
}
