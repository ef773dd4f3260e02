// Package graph provides the weighted directed graph representation shared
// by every SSSP algorithm in this repository.
//
// A Graph is a paged CSR. Its rows — each vertex's list of out-edges, each
// edge a destination and a weight, the paper's vertex object (§II-A) — are
// cut into pages of 256 consecutive rows, and the graph is a table of
// pointers to them. A page holds its rows' edges in CSR order as targets
// and weights arrays, with 257 int32 offsets local to the page.
//
// What aliases what: Build and Reverse lay every edge out once in two flat
// arrays and cut them into pages whose targets and weights are subslices
// of those arrays, so a scan of consecutive rows (ACIC's relaxation loop,
// the oracles) walks one contiguous array. With returns a new graph that
// differs in a few rows: its table is a copy, each page holding an edited
// row is a new page with arrays of its own, and every other page is the
// old graph's, shared by pointer. No page is written after the graph that
// first holds it is returned, so every Graph is immutable and a reader may
// keep one across any number of later edits.
//
// Vertex ids are dense integers in [0, NumVertices). Edge weights are
// positive float64 values; all of the paper's termination reasoning assumes
// non-negative weights (§II-D) and Build rejects negative ones.
package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// pageShift sets the page size: 256 rows a page. An edit of one row
// rebuilds one page, about 2,000 edges at edge factor 8, and copies a
// table of |V|/256 pointers.
const (
	pageShift = 8
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Edge is one directed weighted edge in edge-list form, the interchange
// format between generators, CSV files and Build.
type Edge struct {
	From   int32
	To     int32
	Weight float64
}

// Arc is one entry of a row handed to With: the edge's target and weight.
type Arc struct {
	To     int32
	Weight float64
}

// page is pageSize consecutive rows. Row i's edges are
// targets[off[i]:off[i+1]] and the weights beside them. Rows past the
// graph's last vertex (in its last page) are empty.
type page struct {
	off     [pageSize + 1]int32
	targets []int32
	weights []float64
}

// Graph is an immutable directed weighted graph: a table of pages.
type Graph struct {
	table []*page
	n, m  int
}

// ErrNegativeWeight is returned by Build when an edge has negative weight.
var ErrNegativeWeight = errors.New("graph: negative edge weight")

// Build constructs a Graph with numVertices vertices from an edge list.
// Edges may arrive in any order; Build counting-sorts them by source. Edges
// referencing vertices outside [0, numVertices) or carrying negative or
// non-finite weights are rejected with an error, and so is a list of more
// than math.MaxInt32 edges: no page, in either direction, could then
// overflow its int32 offsets. Self-loops and duplicate edges are preserved
// (generators decide whether to emit them).
func Build(numVertices int, edges []Edge) (*Graph, error) {
	if numVertices < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", numVertices)
	}
	if len(edges) > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d edges, more than the %d int32 page offsets address", len(edges), math.MaxInt32)
	}
	offsets := make([]int, numVertices+1)
	for _, e := range edges {
		if e.From < 0 || int(e.From) >= numVertices {
			return nil, fmt.Errorf("graph: edge source %d out of range [0,%d)", e.From, numVertices)
		}
		if e.To < 0 || int(e.To) >= numVertices {
			return nil, fmt.Errorf("graph: edge target %d out of range [0,%d)", e.To, numVertices)
		}
		if e.Weight < 0 {
			return nil, fmt.Errorf("%w: %v on edge %d->%d", ErrNegativeWeight, e.Weight, e.From, e.To)
		}
		if math.IsNaN(e.Weight) || math.IsInf(e.Weight, 0) {
			return nil, fmt.Errorf("graph: non-finite weight %v on edge %d->%d", e.Weight, e.From, e.To)
		}
		offsets[e.From+1]++
	}
	for v := 0; v < numVertices; v++ {
		offsets[v+1] += offsets[v]
	}
	// Second pass: place edges. cursor tracks the next free slot per source.
	cursor := make([]int, numVertices)
	targets := make([]int32, len(edges))
	weights := make([]float64, len(edges))
	for _, e := range edges {
		slot := offsets[e.From] + cursor[e.From]
		cursor[e.From]++
		targets[slot] = e.To
		weights[slot] = e.Weight
	}
	return cut(offsets, targets, weights), nil
}

// cut returns the graph whose rows are the flat CSR offsets, targets and
// weights, as pages that alias targets and weights: it copies only each
// page's offsets, in three allocations whatever |V| is. Every page must
// hold at most math.MaxInt32 edges.
func cut(offsets []int, targets []int32, weights []float64) *Graph {
	n := len(offsets) - 1
	pages := make([]page, (n+pageMask)>>pageShift)
	g := &Graph{table: make([]*page, len(pages)), n: n, m: len(targets)}
	for k := range pages {
		pg := &pages[k]
		base := k << pageShift
		lo, hi := offsets[base], offsets[min(base+pageSize, n)]
		for i := range pg.off {
			pg.off[i] = int32(offsets[min(base+i, n)] - lo)
		}
		pg.targets, pg.weights = targets[lo:hi:hi], weights[lo:hi:hi]
		g.table[k] = pg
	}
	return g
}

// MustBuild is Build but panics on error, for tests and generators whose
// inputs are valid by construction.
func MustBuild(numVertices int, edges []Edge) *Graph {
	g, err := Build(numVertices, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return g.m }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v int) int {
	pg := g.table[v>>pageShift]
	i := v & pageMask
	return int(pg.off[i+1] - pg.off[i])
}

// Neighbors returns the out-edge targets and weights of v as slices aliasing
// the graph's internal storage; callers must not modify them.
func (g *Graph) Neighbors(v int) (targets []int32, weights []float64) {
	pg := g.table[v>>pageShift]
	i := v & pageMask
	lo, hi := pg.off[i], pg.off[i+1]
	return pg.targets[lo:hi], pg.weights[lo:hi]
}

// EachEdge calls fn for every edge (from, to, weight) in source order.
func (g *Graph) EachEdge(fn func(from, to int32, w float64)) {
	for v := 0; v < g.n; v++ {
		ts, ws := g.Neighbors(v)
		for i, to := range ts {
			fn(int32(v), to, ws[i])
		}
	}
}

// Edges returns the graph's edge list (a fresh copy).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	g.EachEdge(func(from, to int32, w float64) {
		out = append(out, Edge{From: from, To: to, Weight: w})
	})
	return out
}

// MaxWeight returns the largest edge weight, or 0 for an edgeless graph.
func (g *Graph) MaxWeight() float64 {
	var max float64
	for _, pg := range g.table {
		for _, w := range pg.weights {
			if w > max {
				max = w
			}
		}
	}
	return max
}

// Reverse returns a new graph with every edge direction flipped: row v of
// the result lists v's in-edges, in the order of their sources. It is one
// counting transpose in O(|V|+|E|) into flat arrays, cut into pages like
// Build's; the point-to-point search of internal/engine walks it backwards
// from the target.
func (g *Graph) Reverse() *Graph {
	offsets := make([]int, g.n+1)
	for _, pg := range g.table {
		for _, to := range pg.targets {
			offsets[to+1]++
		}
	}
	for v := 0; v < g.n; v++ {
		offsets[v+1] += offsets[v]
	}
	// cursor[v] is the next free slot in v's row.
	cursor := slices.Clone(offsets[:g.n])
	targets := make([]int32, g.m)
	weights := make([]float64, g.m)
	for v := 0; v < g.n; v++ {
		ts, ws := g.Neighbors(v)
		for i, to := range ts {
			slot := cursor[to]
			cursor[to]++
			targets[slot] = int32(v)
			weights[slot] = ws[i]
		}
	}
	return cut(offsets, targets, weights)
}

// Relabel returns g with its vertices renumbered: vertex order[i] of g is
// vertex i of the result, with its row in the same edge order and every
// target renumbered the same way. order must be a permutation of
// [0, NumVertices). Like Reverse it is O(|V|+|E|) into flat arrays, cut
// into pages; core runs an over-decomposed layout on the relabelled graph.
func (g *Graph) Relabel(order []int32) *Graph {
	if len(order) != g.n {
		panic(fmt.Sprintf("graph: relabelling of %d vertices on a graph of %d", len(order), g.n))
	}
	newID := make([]int32, g.n) // one more than the new id, 0 while unseen
	for i, v := range order {
		if v < 0 || int(v) >= g.n || newID[v] != 0 {
			panic(fmt.Sprintf("graph: relabelling is not a permutation: vertex %d at %d", v, i))
		}
		newID[v] = int32(i) + 1
	}
	offsets := make([]int, g.n+1)
	targets := make([]int32, 0, g.m)
	weights := make([]float64, 0, g.m)
	for i, v := range order {
		ts, ws := g.Neighbors(int(v))
		for _, t := range ts {
			targets = append(targets, newID[t]-1)
		}
		weights = append(weights, ws...)
		offsets[i+1] = len(targets)
	}
	return cut(offsets, targets, weights)
}

// With returns g with the given rows replaced: row u of the result is
// rows[u], in the order given, for each u in rows, and g's row u for every
// other u. Each page holding an edited row is rebuilt with arrays of its
// own; the table is copied and every other page is g's, shared by pointer.
// g is left as it was, and with no rows With returns g. Every u, target
// and weight must be what Build accepts, and the result may hold at most
// math.MaxInt32 edges, as Build's may; With does not check them.
func (g *Graph) With(rows map[int32][]Arc) *Graph {
	if len(rows) == 0 {
		return g
	}
	edited := make([]int32, 0, len(rows))
	for u := range rows {
		edited = append(edited, u)
	}
	slices.Sort(edited)
	next := &Graph{table: slices.Clone(g.table), n: g.n, m: g.m}
	for len(edited) > 0 {
		k := edited[0] >> pageShift
		j := 1
		for j < len(edited) && edited[j]>>pageShift == k {
			j++
		}
		old := g.table[k]
		next.table[k] = old.with(k<<pageShift, edited[:j], rows)
		next.m += len(next.table[k].targets) - len(old.targets)
		edited = edited[j:]
	}
	return next
}

// with returns a new page for rows [base, base+pageSize): pg's rows, with
// each row u in edited (ascending, all in this page) replaced by rows[u].
// Each run of unedited rows is copied at once, its offsets shifted.
func (pg *page) with(base int32, edited []int32, rows map[int32][]Arc) *page {
	size := len(pg.targets)
	for _, u := range edited {
		i := u - base
		size += len(rows[u]) - int(pg.off[i+1]-pg.off[i])
	}
	np := &page{targets: make([]int32, size), weights: make([]float64, size)}
	var pos int32
	next := int32(0) // first row of the next unedited run
	run := func(end int32) {
		lo, hi := pg.off[next], pg.off[end]
		for i := next; i < end; i++ {
			np.off[i] = pg.off[i] - lo + pos
		}
		copy(np.targets[pos:], pg.targets[lo:hi])
		copy(np.weights[pos:], pg.weights[lo:hi])
		pos += hi - lo
	}
	for _, u := range edited {
		i := u - base
		run(i)
		np.off[i] = pos
		for _, a := range rows[u] {
			np.targets[pos], np.weights[pos] = a.To, a.Weight
			pos++
		}
		next = i + 1
	}
	run(pageSize)
	np.off[pageSize] = pos
	return np
}

// DegreeStats summarizes the out-degree distribution; the power-law check in
// the RMAT generator tests uses it.
type DegreeStats struct {
	Min, Max int
	Mean     float64
	// P50, P90, P99 are out-degree percentiles.
	P50, P90, P99 int
}

// OutDegreeStats computes degree statistics over all vertices.
func (g *Graph) OutDegreeStats() DegreeStats {
	n := g.NumVertices()
	if n == 0 {
		return DegreeStats{}
	}
	degs := make([]int, n)
	sum := 0
	for v := 0; v < n; v++ {
		d := g.OutDegree(v)
		degs[v] = d
		sum += d
	}
	sort.Ints(degs)
	pct := func(p float64) int { return degs[int(p*float64(n-1))] }
	return DegreeStats{
		Min:  degs[0],
		Max:  degs[n-1],
		Mean: float64(sum) / float64(n),
		P50:  pct(0.50),
		P90:  pct(0.90),
		P99:  pct(0.99),
	}
}

// ReachableFrom returns the number of vertices reachable from src (including
// src) and the number of edges whose source is reachable. The edge count is
// the Graph500 "traversed edges" denominator used for TEPS (§IV-F). A src
// outside [0, NumVertices) reaches nothing and returns (0, 0) — callers such
// as the query service pass through untrusted sources.
func (g *Graph) ReachableFrom(src int) (vertices int, edges int64) {
	n := g.NumVertices()
	if src < 0 || src >= n {
		return 0, 0
	}
	visited := make([]bool, n)
	stack := []int32{int32(src)}
	visited[src] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		vertices++
		edges += int64(g.OutDegree(int(v)))
		ts, _ := g.Neighbors(int(v))
		for _, to := range ts {
			if !visited[to] {
				visited[to] = true
				stack = append(stack, to)
			}
		}
	}
	return vertices, edges
}
