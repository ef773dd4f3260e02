// Package bench defines the experiment harness that regenerates every
// table and figure in the paper's evaluation (§IV). Each Fig* function
// runs the corresponding experiment on the simulated machine and returns
// its data both as a typed result for tests and as a formatted table for
// cmd/sssp-bench.
//
// The paper's runs use scale-26 graphs (2^26 vertices, 2^30 edges) on up to
// 16 Delta/Frontier nodes with ten trials per point; the defaults here are
// scaled to a laptop (scale 12, up to 8 simulated nodes, 3 trials) and are
// overridable through Config. What is expected to reproduce is the *shape*
// of each figure — who wins, roughly by how much, and where the trends
// bend — not absolute numbers, since the substrate is a simulator.
package bench

import (
	"fmt"
	"time"

	"acic/internal/gen"
	"acic/internal/graph"
	"acic/internal/netsim"
)

// GraphKind selects one of the evaluation's input graph families.
type GraphKind string

// Graph kinds used across the evaluation.
const (
	// Random is the paper's uniform random, low-diameter graph (§IV-B).
	Random GraphKind = "random"
	// RMAT is the scale-free recursive-matrix graph (§IV-B).
	RMAT GraphKind = "rmat"
	// Road is the high-diameter grid standing in for the GAP Road graph
	// (§V future work).
	Road GraphKind = "road"
)

// Config scales the whole experiment suite.
type Config struct {
	// Scale: graphs have 2^Scale vertices (paper: 26; default here: 12).
	Scale int
	// EdgeFactor: edges = EdgeFactor × 2^Scale (paper: 16).
	EdgeFactor int
	// Trials per data point (paper: 10; default here: 3).
	Trials int
	// Seed is the base seed; trial t of experiment e derives its own
	// stream.
	Seed uint64
	// Nodes are the simulated node counts for scaling experiments
	// (paper: 1..16).
	Nodes []int
	// ProcsPerNode and PEsPerProc shape each simulated node (paper: 8×6).
	ProcsPerNode int
	PEsPerProc   int
	// Latency is the simulated fabric.
	Latency netsim.LatencyModel
	// ComputeCost is the simulated per-unit compute charge (per update
	// received / edge relaxed) applied to every algorithm. It makes per-PE
	// load physical even when the host has fewer cores than the simulation
	// has PEs — without it, a hub-overloaded PE costs nothing and the
	// paper's partition-imbalance effects (§IV-F) disappear.
	ComputeCost time.Duration
	// Verify re-checks every distance vector against Dijkstra (slower).
	Verify bool
}

// DefaultConfig returns the laptop-scale defaults.
func DefaultConfig() Config {
	return Config{
		Scale:        12,
		EdgeFactor:   16,
		Trials:       3,
		Seed:         42,
		Nodes:        []int{1, 2, 4, 8},
		ProcsPerNode: 2,
		PEsPerProc:   2,
		Latency:      netsim.DefaultLatency(),
		ComputeCost:  time.Microsecond,
	}
}

// PaperConfig returns the closest feasible approximation of the paper's
// setup: the full node sweep and per-node shape, ten trials. Scale remains
// memory-bound; 2^18 is the practical laptop ceiling.
func PaperConfig() Config {
	c := DefaultConfig()
	c.Scale = 16
	c.Trials = 10
	c.Nodes = []int{1, 2, 4, 8, 16}
	c.ProcsPerNode = 4
	c.PEsPerProc = 3
	return c
}

// Topo builds the simulated topology for a node count.
func (c Config) Topo(nodes int) netsim.Topology {
	return netsim.Topology{Nodes: nodes, ProcsPerNode: c.ProcsPerNode, PEsPerProc: c.PEsPerProc}
}

// NumVertices returns 2^Scale.
func (c Config) NumVertices() int { return 1 << c.Scale }

// MakeGraph generates the trial-th instance of the given graph kind.
// Different trials use different seeds for both structure and weights,
// matching §IV-C ("different random seeds are used to generate graph
// structures and edge weights for each trial").
func (c Config) MakeGraph(kind GraphKind, trial int) (*graph.Graph, error) {
	seed := c.Seed + uint64(trial)*0x9e3779b9
	name := string(kind)
	if kind == Road {
		name = "grid"
	}
	g, err := gen.ByKind(name, c.Scale, c.EdgeFactor, gen.Config{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	return g, nil
}
