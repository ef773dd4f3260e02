// Package gen generates the input graphs used in the paper's evaluation
// (§IV-B) plus the high-diameter road-style graphs its future-work section
// motivates (§V), and small deterministic fixtures for tests.
//
// Two generator families reproduce the paper's datasets:
//
//   - RMAT: the recursive-matrix scale-free generator of Chakrabarti, Zhan
//     and Faloutsos, standing in for the PaRMAT artifact (A3). The paper
//     uses |V| = 2^26, |E| = 2^30, i.e. edge factor 16; scale is a
//     parameter here so laptop-sized reproductions can pick 2^14..2^18.
//   - Uniform: "a random, low diameter graph where for each edge, the
//     distance, origin, and destination of the edge is randomly chosen"
//     — every endpoint uniform over V.
//
// All weights are drawn uniformly from [1, MaxWeight); the paper's weight
// scheme is unspecified beyond "weighted edges", and uniform weights are
// what the Graph500 SSSP comparator uses.
package gen

import (
	"fmt"

	"acic/internal/graph"
	"acic/internal/xrand"
)

// Config holds parameters shared by the random generators.
type Config struct {
	// Seed drives both structure and weights; the paper re-seeds every
	// trial (§IV-C).
	Seed uint64
	// MaxWeight is the exclusive upper bound for uniform edge weights; the
	// lower bound is 1. Zero means the default of 256.
	MaxWeight float64
}

func (c Config) maxWeight() float64 {
	if c.MaxWeight <= 1 {
		return 256
	}
	return c.MaxWeight
}

func (c Config) weight(r *xrand.Rand) float64 {
	return r.Range(1, c.maxWeight())
}

// ByKind generates the evaluation graph family the commands and the figure
// harness name on their -kind flags, at 2^scale vertices: "rmat" (RMAT with
// the default quadrant probabilities), "random" (Uniform) — both with
// edgeFactor×2^scale edges — or "grid" (the road-style grid of
// 2^⌈scale/2⌉ rows and 2^⌊scale/2⌋ columns, square at an even scale, which
// ignores edgeFactor).
func ByKind(kind string, scale, edgeFactor int, cfg Config) (*graph.Graph, error) {
	n := 1 << scale
	switch kind {
	case "rmat":
		return RMAT(scale, edgeFactor, DefaultRMAT(), cfg), nil
	case "random":
		return Uniform(n, edgeFactor*n, cfg), nil
	case "grid":
		return Grid(1<<((scale+1)/2), 1<<(scale/2), cfg), nil
	default:
		return nil, fmt.Errorf("unknown kind %q", kind)
	}
}

// Uniform generates the paper's "random, low diameter" graph: numEdges
// edges whose origins and destinations are independently uniform over
// [0, numVertices). Self-loops and duplicates may occur, as in the paper's
// generator invoked with `1` (generate mode) in the artifact.
func Uniform(numVertices, numEdges int, cfg Config) *graph.Graph {
	r := xrand.New(cfg.Seed)
	edges := make([]graph.Edge, numEdges)
	for i := range edges {
		edges[i] = graph.Edge{
			From:   int32(r.Intn(numVertices)),
			To:     int32(r.Intn(numVertices)),
			Weight: cfg.weight(r),
		}
	}
	return graph.MustBuild(numVertices, edges)
}

// RMATParams are the recursive-matrix quadrant probabilities. They must sum
// to approximately 1.
type RMATParams struct {
	A, B, C, D float64
}

// DefaultRMAT returns the Graph500 parameters (a,b,c,d) = (.57,.19,.19,.05),
// which PaRMAT also defaults to.
func DefaultRMAT() RMATParams { return RMATParams{A: 0.57, B: 0.19, C: 0.19, D: 0.05} }

// RMAT generates a scale-free graph with 2^scale vertices and
// edgeFactor * 2^scale edges using the recursive matrix method: each edge
// picks a quadrant of the adjacency matrix with probabilities (A,B,C,D)
// recursively, scale times, with ±10% noise on the parameters per level to
// smooth the degree staircase (standard PaRMAT behaviour).
func RMAT(scale, edgeFactor int, p RMATParams, cfg Config) *graph.Graph {
	n := 1 << scale
	m := edgeFactor * n
	r := xrand.New(cfg.Seed)
	edges := make([]graph.Edge, m)
	for i := range edges {
		from, to := rmatEdge(r, scale, p)
		edges[i] = graph.Edge{From: from, To: to, Weight: cfg.weight(r)}
	}
	return graph.MustBuild(n, edges)
}

func rmatEdge(r *xrand.Rand, scale int, p RMATParams) (from, to int32) {
	var u, v int32
	a, b, c := p.A, p.B, p.C
	for level := 0; level < scale; level++ {
		u <<= 1
		v <<= 1
		x := r.Float64()
		switch {
		case x < a:
			// top-left quadrant: no bits set
		case x < a+b:
			v |= 1
		case x < a+b+c:
			u |= 1
		default:
			u |= 1
			v |= 1
		}
		// Per-level noise keeps the degree distribution smooth; resample
		// the quadrant probabilities within ±10% and renormalize.
		na := a * (0.9 + 0.2*r.Float64())
		nb := b * (0.9 + 0.2*r.Float64())
		nc := c * (0.9 + 0.2*r.Float64())
		nd := (1 - a - b - c) * (0.9 + 0.2*r.Float64())
		s := na + nb + nc + nd
		a, b, c = na/s, nb/s, nc/s
	}
	return u, v
}

// ErdosRenyi generates G(n, m): m distinct edges sampled without
// self-loops, each endpoint pair uniform. Used by the connected-components
// extension (§V cites Erdős–Rényi).
func ErdosRenyi(numVertices, numEdges int, cfg Config) *graph.Graph {
	r := xrand.New(cfg.Seed)
	seen := make(map[int64]struct{}, numEdges)
	edges := make([]graph.Edge, 0, numEdges)
	maxAttempts := numEdges * 20
	for len(edges) < numEdges && maxAttempts > 0 {
		maxAttempts--
		from := int32(r.Intn(numVertices))
		to := int32(r.Intn(numVertices))
		if from == to {
			continue
		}
		key := int64(from)<<32 | int64(uint32(to))
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		edges = append(edges, graph.Edge{From: from, To: to, Weight: cfg.weight(r)})
	}
	return graph.MustBuild(numVertices, edges)
}

// Grid generates a rows×cols 4-neighbor grid with bidirectional edges — the
// road-network stand-in for the GAP Road graph named in §V. Its diameter is
// rows+cols, orders of magnitude higher than RMAT or Uniform graphs of the
// same size, which is exactly the regime where synchronous algorithms pay
// one barrier per hop.
func Grid(rows, cols int, cfg Config) *graph.Graph {
	r := xrand.New(cfg.Seed)
	n := rows * cols
	edges := make([]graph.Edge, 0, 4*n)
	id := func(rr, cc int) int32 { return int32(rr*cols + cc) }
	for rr := 0; rr < rows; rr++ {
		for cc := 0; cc < cols; cc++ {
			if cc+1 < cols {
				w := cfg.weight(r)
				edges = append(edges,
					graph.Edge{From: id(rr, cc), To: id(rr, cc+1), Weight: w},
					graph.Edge{From: id(rr, cc+1), To: id(rr, cc), Weight: w})
			}
			if rr+1 < rows {
				w := cfg.weight(r)
				edges = append(edges,
					graph.Edge{From: id(rr, cc), To: id(rr+1, cc), Weight: w},
					graph.Edge{From: id(rr+1, cc), To: id(rr, cc), Weight: w})
			}
		}
	}
	return graph.MustBuild(n, edges)
}

// Path returns the directed path 0 -> 1 -> ... -> n-1 with unit weights, a
// worst-case-diameter fixture for termination tests.
func Path(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{From: int32(i), To: int32(i + 1), Weight: 1})
	}
	return graph.MustBuild(n, edges)
}

// Star returns a star with center 0 and unit-weight spokes to 1..n-1, the
// maximum-fan-out fixture.
func Star(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{From: 0, To: int32(i), Weight: 1})
	}
	return graph.MustBuild(n, edges)
}

// Cycle returns the directed cycle over n vertices with unit weights.
func Cycle(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, graph.Edge{From: int32(i), To: int32((i + 1) % n), Weight: 1})
	}
	return graph.MustBuild(n, edges)
}

// Complete returns the complete directed graph on n vertices (no loops)
// with weights drawn from cfg.
func Complete(n int, cfg Config) *graph.Graph {
	r := xrand.New(cfg.Seed)
	edges := make([]graph.Edge, 0, n*(n-1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				edges = append(edges, graph.Edge{From: int32(i), To: int32(j), Weight: cfg.weight(r)})
			}
		}
	}
	return graph.MustBuild(n, edges)
}
