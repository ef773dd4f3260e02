// Package graph provides the weighted directed graph representation shared
// by every SSSP algorithm in this repository.
//
// Graphs are stored in compressed sparse row (CSR) form: one offsets array
// of length |V|+1 and parallel targets/weights arrays of length |E|. This
// matches the paper's vertex object layout — each vertex owns a list of
// out-edges, each with a destination and a weight (§II-A) — while keeping
// the memory contiguous enough to hold scale-18+ graphs in a laptop-sized
// address space.
//
// Vertex ids are dense integers in [0, NumVertices). Edge weights are
// positive float64 values; all of the paper's termination reasoning assumes
// non-negative weights (§II-D) and Build rejects negative ones.
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Edge is one directed weighted edge in edge-list form, the interchange
// format between generators, CSV files and Build.
type Edge struct {
	From   int32
	To     int32
	Weight float64
}

// Graph is an immutable CSR-encoded directed weighted graph.
type Graph struct {
	offsets []int64   // len NumVertices+1
	targets []int32   // len NumEdges
	weights []float64 // len NumEdges
}

// ErrNegativeWeight is returned by Build when an edge has negative weight.
var ErrNegativeWeight = errors.New("graph: negative edge weight")

// Build constructs a Graph with numVertices vertices from an edge list.
// Edges may arrive in any order; Build counting-sorts them by source. Edges
// referencing vertices outside [0, numVertices) or carrying negative or
// non-finite weights are rejected with an error. Self-loops and duplicate
// edges are preserved (generators decide whether to emit them).
func Build(numVertices int, edges []Edge) (*Graph, error) {
	if numVertices < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", numVertices)
	}
	g := &Graph{
		offsets: make([]int64, numVertices+1),
		targets: make([]int32, len(edges)),
		weights: make([]float64, len(edges)),
	}
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
		g.offsets[e.From+1]++
	}
	for v := 0; v < numVertices; v++ {
		g.offsets[v+1] += g.offsets[v]
	}
	// Second pass: place edges. cursor tracks the next free slot per source.
	cursor := make([]int64, numVertices)
	for _, e := range edges {
		slot := g.offsets[e.From] + cursor[e.From]
		cursor[e.From]++
		g.targets[slot] = e.To
		g.weights[slot] = e.Weight
	}
	return g, nil
}

// Adopt wraps already-built CSR arrays as a Graph without copying them:
// the caller hands over ownership and must not write to them afterwards.
// offsets must be non-decreasing from 0 with offsets[len-1] equal to
// len(targets) == len(weights), and every target and weight must be what
// Build would accept; Adopt checks only the lengths and the end offsets.
// It is the constructor for builders that already hold an exact CSR
// layout (Reverse's transpose, the flat copies internal/dynamic makes of
// its paged versions), where Build's edge list and counting sort would be
// a second copy of the graph.
func Adopt(offsets []int64, targets []int32, weights []float64) *Graph {
	if len(offsets) == 0 || offsets[0] != 0 || offsets[len(offsets)-1] != int64(len(targets)) || len(targets) != len(weights) {
		panic(fmt.Sprintf("graph: Adopt of inconsistent CSR (%d offsets, %d targets, %d weights)", len(offsets), len(targets), len(weights)))
	}
	return &Graph{offsets: offsets, targets: targets, weights: weights}
}

// CSR returns the graph's offsets, targets and weights arrays, aliasing its
// internal storage; callers must not modify them.
func (g *Graph) CSR() (offsets []int64, targets []int32, weights []float64) {
	return g.offsets, g.targets, g.weights
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
func (g *Graph) NumVertices() int { return len(g.offsets) - 1 }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.targets) }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v int) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the out-edge targets and weights of v as slices aliasing
// the graph's internal storage; callers must not modify them.
func (g *Graph) Neighbors(v int) (targets []int32, weights []float64) {
	lo, hi := g.offsets[v], g.offsets[v+1]
	return g.targets[lo:hi], g.weights[lo:hi]
}

// EachEdge calls fn for every edge (from, to, weight) in source order.
func (g *Graph) EachEdge(fn func(from, to int32, w float64)) {
	for v := 0; v < g.NumVertices(); v++ {
		ts, ws := g.Neighbors(v)
		for i, to := range ts {
			fn(int32(v), to, ws[i])
		}
	}
}

// Edges returns the graph's edge list (a fresh copy).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	g.EachEdge(func(from, to int32, w float64) {
		out = append(out, Edge{From: from, To: to, Weight: w})
	})
	return out
}

// MaxWeight returns the largest edge weight, or 0 for an edgeless graph.
func (g *Graph) MaxWeight() float64 {
	var max float64
	for _, w := range g.weights {
		if w > max {
			max = w
		}
	}
	return max
}

// Reverse returns a new graph with every edge direction flipped: row v of
// the result lists v's in-edges, in the order of their sources. It is one
// counting transpose in O(|V|+|E|), adopted without a second copy; the
// point-to-point search of internal/engine walks it backwards from the
// target.
func (g *Graph) Reverse() *Graph {
	n := g.NumVertices()
	offsets := make([]int64, n+1)
	for _, to := range g.targets {
		offsets[to+1]++
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	// cursor[v] is the next free slot in v's row.
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	targets := make([]int32, len(g.targets))
	weights := make([]float64, len(g.weights))
	for v := 0; v < n; v++ {
		for i := g.offsets[v]; i < g.offsets[v+1]; i++ {
			to := g.targets[i]
			slot := cursor[to]
			cursor[to]++
			targets[slot] = int32(v)
			weights[slot] = g.weights[i]
		}
	}
	return Adopt(offsets, targets, weights)
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
