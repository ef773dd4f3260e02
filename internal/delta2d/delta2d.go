// Package delta2d implements Δ-stepping over a true two-dimensional
// partitioning of the adjacency matrix — the layout of the RIKEN
// Graph500-SSSP code the paper compares against (§IV-A) and recommends as
// future work for ACIC itself (§V: "divides the adjacency matrix of the
// input graph in two dimensions across the available processors ...
// Communication only occurs within rows and within columns").
//
// Layout. The PE grid has R rows × C columns. Vertices are block-
// partitioned twice: into R row-blocks (as edge *sources*) and into C
// column-blocks (as edge *targets*). Edge (u → v) is stored on PE
// (rowOf(u), colOf(v)); vertex v's state — tentative distance and bucket —
// lives on its *owner* PE (rowOf(v), colOf(v)).
//
// A bucket phase then needs exactly two communication patterns:
//
//   - Frontier propagation along rows: when owner(v) releases v from the
//     current bucket, it announces (v, dist(v)) to the C PEs of row
//     rowOf(v), which are precisely the PEs holding v's out-edges.
//   - Relaxation delivery along columns: a PE (r, c) relaxing stored edge
//     (u → v) produces a candidate (v, nd) whose owner sits in the same
//     column c (because the edge's storage column is colOf(v)), so the
//     candidate travels down the column only.
//
// Both flows are aggregated through tramlib and synchronized by the 1-D
// baseline's own control plane (deltastep.Root and its command set): the
// same reduction-tree barriers, including the RIKEN hybrid switch to
// Bellman-Ford once the settle rate passes its local maximum.
// Compared to `internal/deltastep` (1-D), hub vertices' edge lists spread
// across a whole row of PEs instead of loading one PE — the property the
// paper credits for the RIKEN code's RMAT advantage.
package delta2d

import (
	"time"

	"acic/internal/graph"
	"acic/internal/netsim"
	"acic/internal/partition"
	"acic/internal/runtime"
	"acic/internal/simclock"
	"acic/internal/tram"
)

// Params are the 2-D Δ-stepping tunables.
type Params struct {
	// Delta is the bucket width; zero selects deltastep.HeuristicDelta.
	Delta float64
	// Hybrid enables the Bellman-Ford tail switch.
	Hybrid bool
	// Rows forces the grid's row count; zero picks the largest divisor of
	// the PE count not exceeding its square root (the squarest grid).
	Rows int
	// TramMode and TramCapacity configure aggregation.
	TramMode     tram.Mode
	TramCapacity int
	// MaxBuckets bounds the bucket array (zero: 1 << 16).
	MaxBuckets int
	// ComputeCost is the simulated per-unit compute charge (per frontier
	// entry received, candidate received, and edge relaxed).
	ComputeCost time.Duration
}

// DefaultParams mirrors the 1-D baseline's defaults.
func DefaultParams() Params {
	return Params{Hybrid: true, TramMode: tram.WP, TramCapacity: tram.DefaultCapacity}
}

// Options configure one run.
type Options struct {
	Topo    netsim.Topology
	Latency netsim.LatencyModel
	Params  Params
	// Clock times the run for Stats.Elapsed; nil means the wall clock.
	Clock simclock.Clock
	// Jitter, when non-nil, perturbs every message's delivery delay (see
	// netsim.JitterFunc) — the schedule-stress harness's hook.
	Jitter netsim.JitterFunc
}

// Stats mirrors deltastep.Stats plus grid shape.
type Stats struct {
	Elapsed          time.Duration
	GridRows         int
	GridCols         int
	Relaxations      int64
	Rejected         int64
	Supersteps       int64
	BucketsProcessed int64
	SwitchedToBF     bool
	BFRounds         int64
	FrontierMsgs     int64 // row-broadcast frontier entries
	TramStats        tram.Stats
	Network          netsim.Stats
	// Audit is the runtime's post-run conservation ledger; the stress
	// harness requires Audit.Unaccounted() == 0 and Audit.NetQueue == 0.
	Audit runtime.Audit
}

// Result is the output of a run.
type Result struct {
	Dist  []float64
	Stats Stats
}

// SquarestGrid returns the (rows, cols) factorization of pes with rows the
// largest divisor not exceeding sqrt(pes).
func SquarestGrid(pes int) (rows, cols int) {
	rows = 1
	for r := 1; r*r <= pes; r++ {
		if pes%r == 0 {
			rows = r
		}
	}
	return rows, pes / rows
}

// wire is the single message payload type: frontier announcements travel
// along rows, relaxation candidates along columns. Dest is the intended
// grid PE: under process-granularity aggregation a batch reaches one PE of
// the destination process, which re-routes by Dest — necessary for
// frontier copies, where several PEs of one process may each expect their
// own copy of the same (Vertex, Dist) announcement.
type wire struct {
	Vertex int32
	Dest   int32
	Dist   float64
	Kind   wireKind
}

type wireKind uint8

const (
	wireFrontierLight wireKind = iota // relax light edges of Vertex
	wireFrontierHeavy                 // relax heavy edges of Vertex
	wireFrontierAll                   // relax all edges (BF mode)
	wireCandidate                     // apply Dist to Vertex at its owner
)

type (
	startMsg struct{ source int32 }
	batchMsg struct{ items []wire }
)

// halfEdge is a stored out-edge half: target and weight.
type halfEdge struct {
	to int32
	w  float64
}

type sharedState struct {
	g    *graph.Graph
	grid *partition.TwoD
	tm   *tram.Manager[wire]
}
