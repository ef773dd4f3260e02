package dynamic

// Incremental SSSP repair. Given a distance vector and shortest-path tree
// that were exact for the graph before a mutation batch, Repair makes them
// exact for the graph after it, touching only the affected region:
//
//   - Increases (deletes, weight increases): a vertex whose tree parent is
//     the mutated edge's source may have lost its path. The whole subtree
//     below each such vertex is invalidated (distances reset to +Inf), then
//     re-labeled by a Dijkstra pass seeded from the frontier — every edge
//     entering the invalidated set from an intact vertex. Intact vertices
//     keep exact distances: a delete cannot shorten any path, and their
//     recorded tree path survives, so their old distance is still both
//     achievable and optimal.
//
//   - Decreases (inserts, weight decreases): the new edge (u,v,w) is exact
//     at v if dist[u]+w improves it; the improvement cascades through v's
//     out-edges. These seeds join the same Dijkstra pass.
//
// The pass is plain label-setting over current labels: pop the minimum,
// skip stale entries, relax out-edges. With non-negative weights every
// vertex it settles is final, and vertices it never touches were already
// final — the classical Ramalingam–Reps argument specialized to batches.
//
// Both phases start from one rule (severs for increases, improves for
// decreases), which Affects evaluates without writing: a caller holding
// vectors that readers share copies only the ones the rule selects.
//
// A call costs the damage, not the graph: the heap is lazy (a vertex is
// pushed again on every improvement and superseded pops are skipped), the
// subtree walk finds a vertex's tree children among its out-edges, and
// both keep their storage on the Graph between calls.

import (
	"fmt"
	"math"

	"acic/internal/graph"
	"acic/internal/pq"
	"acic/internal/seq"
)

// RepairStats describes one Repair call's work, the incremental-vs-full
// bookkeeping the churn bench reports.
type RepairStats struct {
	// Invalidated is the number of subtree vertices whose labels were
	// discarded by the increase phase.
	Invalidated int
	// Seeds is the number of heap seeds planted (frontier edges plus
	// improving decreases).
	Seeds int
	// Settled is the number of vertices finalized by the repair pass.
	Settled int
	// Relaxations counts edges scanned during the pass.
	Relaxations int64
}

// Affects reports whether Repair would write to dist or parent for d: some
// increased edge is a tree edge, or some decreased edge improves its head.
// It writes nothing. Vectors for which it returns false are exact for the
// post-batch graph as they stand.
func (g *Graph) Affects(dist []float64, parent []int32, d *Delta) bool {
	for _, e := range d.Increased {
		if severs(dist, parent, e) {
			return true
		}
	}
	for _, e := range d.Decreased {
		if _, ok := g.improves(dist, e); ok {
			return true
		}
	}
	return false
}

// severs reports whether increased (or deleted) edge e may have cut e.To
// off the tree: e.To is labeled and its tree parent is e.From. With
// parallel edges the tree may actually use a surviving parallel edge;
// severing anyway is conservative and re-derives the same label.
func severs(dist []float64, parent []int32, e graph.Edge) bool {
	return parent[e.To] == e.From && !math.IsInf(dist[e.To], 1)
}

// improves returns the label decreased (or inserted) edge e proposes for
// its head, and whether it beats the head's current label. The proposal
// is re-read from the post-batch graph — never from the mutation's
// recorded weight — because a later mutation in the same batch may have
// deleted or re-raised the edge; the current cheapest parallel edge is
// always sound. An unlabeled tail proposes nothing: its out-edges are
// relaxed if the repair pass ever settles it.
func (g *Graph) improves(dist []float64, e graph.Edge) (float64, bool) {
	if math.IsInf(dist[e.From], 1) {
		return 0, false
	}
	w, ok := g.minWeight(e.From, e.To)
	if !ok {
		return 0, false // deleted again later in the batch
	}
	nd := dist[e.From] + w
	return nd, nd < dist[e.To]
}

// Repair updates dist/parent in place from the pre-batch to the post-batch
// shortest-path solution for source. The vectors must be exact for the
// graph state immediately before the batch described by d was applied, and
// g must already be in the post-batch state (Repair is called with the
// Delta returned by Apply). len(dist) and len(parent) must equal
// NumVertices. Repair writes nothing when Affects(dist, parent, d) is
// false.
func (g *Graph) Repair(source int, dist []float64, parent []int32, d *Delta) RepairStats {
	var st RepairStats
	if d.Empty() || g.NumVertices() == 0 {
		return st
	}
	h := &g.heap
	h.Reset()

	// Increase phase: collect the roots that may have lost their path,
	// close over the parent tree and discard.
	roots := g.roots[:0]
	for _, e := range d.Increased {
		if severs(dist, parent, e) {
			roots = append(roots, e.To)
		}
	}
	g.roots = roots
	if len(roots) > 0 {
		invalid := g.invalidateSubtrees(roots, dist, parent)
		st.Invalidated = len(invalid)
		// Frontier seeding: every in-edge of an invalidated vertex from an
		// intact, reachable vertex proposes a label.
		for _, v := range invalid {
			ts, ws := g.cur.In.Neighbors(int(v))
			for i, u := range ts {
				if math.IsInf(dist[u], 1) {
					continue // invalidated or unreachable
				}
				if nd := dist[u] + ws[i]; nd < dist[v] {
					dist[v] = nd
					parent[v] = u
					h.Push(pq.Item{Key: nd, Value: int64(v)})
					st.Seeds++
				}
			}
		}
	}

	// Decrease phase: each inserted or lightened edge proposes its head's
	// label directly. A head invalidated above is unlabeled, so any
	// labeled tail improves it.
	for _, e := range d.Decreased {
		if nd, ok := g.improves(dist, e); ok {
			dist[e.To] = nd
			parent[e.To] = e.From
			h.Push(pq.Item{Key: nd, Value: int64(e.To)})
			st.Seeds++
		}
	}

	// The repair pass: Dijkstra restricted to the affected region. Every
	// push carries a strictly smaller label than the last, so each vertex
	// is settled once, by the pop that matches its final label.
	for h.Len() > 0 {
		it := h.Pop()
		v, dv := int32(it.Value), it.Key
		if dv > dist[v] {
			continue // superseded while queued
		}
		st.Settled++
		ts, ws := g.cur.Out.Neighbors(int(v))
		for i, c := range ts {
			st.Relaxations++
			if nd := dv + ws[i]; nd < dist[c] {
				dist[c] = nd
				parent[c] = v
				h.Push(pq.Item{Key: nd, Value: int64(c)})
			}
		}
	}
	return st
}

// minWeight returns the smallest weight among the current from→to parallel
// edges, and whether any exists.
func (g *Graph) minWeight(from, to int32) (float64, bool) {
	w, ok := math.Inf(1), false
	ts, ws := g.cur.Out.Neighbors(int(from))
	for i, t := range ts {
		if t == to && ws[i] < w {
			w, ok = ws[i], true
		}
	}
	return w, ok
}

// invalidateSubtrees marks every vertex in the parent subtrees rooted at
// roots as unlabeled (dist +Inf, parent -1) and returns the affected
// vertices, in scratch the next call reuses. A vertex's tree children are
// found among its out-edges (parent[c] == v): every tree edge either still
// exists in the post-batch graph or was increased or deleted by the batch,
// and then its head is itself a root. The walk costs the subtree and its
// out-degree, not the graph.
func (g *Graph) invalidateSubtrees(roots []int32, dist []float64, parent []int32) []int32 {
	invalid := g.invalid[:0]
	stack := g.stack[:0]
	for _, r := range roots {
		if !math.IsInf(dist[r], 1) {
			dist[r] = math.Inf(1)
			parent[r] = -1
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		invalid = append(invalid, v)
		ts, _ := g.cur.Out.Neighbors(int(v))
		for _, c := range ts {
			if parent[c] == v && !math.IsInf(dist[c], 1) {
				dist[c] = math.Inf(1)
				parent[c] = -1
				stack = append(stack, c)
			}
		}
	}
	g.invalid, g.stack = invalid, stack
	return invalid
}

// SSSP computes the full single-source solution over the current graph —
// seq.Dijkstra on Snapshot(), with no copy of the graph — the from-scratch
// baseline the churn bench compares Repair against and the seed vector for
// freshly tracked sources. A source out of range reaches nothing.
func (g *Graph) SSSP(source int) (dist []float64, parent []int32) {
	n := g.NumVertices()
	if source < 0 || source >= n {
		dist, parent = make([]float64, n), make([]int32, n)
		for i := range dist {
			dist[i], parent[i] = math.Inf(1), -1
		}
		return dist, parent
	}
	res := seq.Dijkstra(g.Snapshot(), source)
	return res.Dist, res.Parent
}

// VerifyTree checks that (dist, parent) is a valid shortest-path certificate
// for source over g's current state, given that dist is already known to
// match the true distances: the source is labeled 0 with parent -1,
// unreachable vertices are unlabeled, and every other reachable vertex's
// parent edge exists in the graph and is tight (dist[parent]+w == dist[v]
// within float tolerance). The churn oracle pairs this with an exact
// distance comparison against a sequential recompute — distances pin the
// values, VerifyTree pins that the repaired tree actually witnesses them
// (parents may legitimately differ from the oracle's on ties).
func VerifyTree(g *Graph, source int, dist []float64, parent []int32) error {
	n := g.NumVertices()
	if len(dist) != n || len(parent) != n {
		return fmt.Errorf("dynamic: verify: vector length %d/%d, want %d", len(dist), len(parent), n)
	}
	if n == 0 {
		return nil
	}
	if dist[source] != 0 || parent[source] != -1 {
		return fmt.Errorf("dynamic: verify: source %d has dist=%g parent=%d", source, dist[source], parent[source])
	}
	for v := 0; v < n; v++ {
		if v == source {
			continue
		}
		if math.IsInf(dist[v], 1) {
			if parent[v] != -1 {
				return fmt.Errorf("dynamic: verify: unreachable vertex %d has parent %d", v, parent[v])
			}
			continue
		}
		p := parent[v]
		if p < 0 || int(p) >= n {
			return fmt.Errorf("dynamic: verify: reachable vertex %d has parent %d", v, p)
		}
		if math.IsInf(dist[p], 1) {
			return fmt.Errorf("dynamic: verify: vertex %d hangs off unreachable parent %d", v, p)
		}
		if !g.hasTightEdge(p, int32(v), dist[p], dist[v]) {
			return fmt.Errorf("dynamic: verify: no tight edge %d->%d (dist %g -> %g)", p, v, dist[p], dist[v])
		}
	}
	return nil
}

// hasTightEdge reports whether some from→to edge satisfies
// dfrom + w == dto within relative float tolerance.
func (g *Graph) hasTightEdge(from, to int32, dfrom, dto float64) bool {
	ts, ws := g.cur.Out.Neighbors(int(from))
	for i, t := range ts {
		if t != to {
			continue
		}
		sum := dfrom + ws[i]
		diff := math.Abs(sum - dto)
		scale := math.Max(1, math.Max(math.Abs(sum), math.Abs(dto)))
		if diff/scale <= 1e-9 {
			return true
		}
	}
	return false
}
