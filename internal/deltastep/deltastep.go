// Package deltastep implements the bulk-synchronous Δ-stepping SSSP
// algorithm of Meyer and Sanders, extended with the two defining
// optimizations of the RIKEN Graph500-SSSP code the paper compares against
// (§IV-A): a hybrid switch to Bellman-Ford once the per-epoch count of
// newly settled vertices passes its local maximum, and message aggregation
// for relaxation requests.
//
// The implementation deliberately runs on the same substrate as ACIC — the
// message-driven runtime, the simulated cluster network and tramlib — so
// that measured differences between the two algorithms come from their
// synchronization structure, not from infrastructure differences. Where
// ACIC overlaps its reductions with application work, Δ-stepping uses the
// same reduction/broadcast tree as a *barrier*: every phase of every bucket
// ends with a machine-wide synchronization, and a PE that finishes its
// share early idles until the slowest PE arrives (§I's load-imbalance
// argument, visible directly in the measurements).
//
// Algorithm sketch (Meyer & Sanders): vertices with tentative distances are
// kept in buckets of width Δ. The lowest non-empty bucket k is drained
// repeatedly: light edges (weight ≤ Δ) of its vertices are relaxed, which
// may re-insert vertices into bucket k, until it stays empty; then the
// heavy edges (weight > Δ) of every vertex removed from bucket k are
// relaxed once. The RIKEN hybrid switches to plain Bellman-Ford rounds over
// the active frontier once the settle-rate peaks, which processes the
// high-diameter tail without one barrier per bucket.
package deltastep

import (
	"time"

	"acic/internal/netsim"
	"acic/internal/runtime"
	"acic/internal/tram"
)

// Params are the Δ-stepping tunables.
type Params struct {
	// Delta is the bucket width. Zero selects HeuristicDelta: the graph's
	// maximum edge weight, clamped below at 1. The Meyer-Sanders width
	// max-weight / mean-out-degree is WorkOptimalDelta; a caller that wants
	// it passes WorkOptimalDelta(g) here.
	Delta float64
	// Hybrid enables the RIKEN switch to Bellman-Ford after the newly-
	// settled-per-epoch count passes a local maximum (§IV-A).
	Hybrid bool
	// TramMode and TramCapacity configure relaxation-request aggregation,
	// matching the ACIC run being compared against.
	TramMode     tram.Mode
	TramCapacity int
	// EdgeBalanced partitions vertices so each PE owns roughly equal edge
	// counts — the repository's stand-in for the RIKEN code's 2-D
	// partitioning, which spreads hub edges instead of concentrating them
	// (§IV-A; substitution documented in DESIGN.md). ACIC keeps the
	// paper's vertex-balanced 1-D layout.
	EdgeBalanced bool
	// ComputeCost is the simulated per-unit compute time charged for each
	// request received and each edge relaxed; see core.Params.ComputeCost.
	ComputeCost time.Duration
}

// DefaultParams returns the configuration used by the figure harness:
// hybrid enabled, WP aggregation, 1024-item buffers, heuristic Δ.
func DefaultParams() Params {
	return Params{
		Hybrid:       true,
		EdgeBalanced: true,
		TramMode:     tram.WP,
		TramCapacity: tram.DefaultCapacity,
	}
}

// Options configure one run.
type Options struct {
	Topo    netsim.Topology
	Latency netsim.LatencyModel
	Params  Params
	// Jitter, when non-nil, perturbs every message's delivery delay (see
	// netsim.JitterFunc) — the schedule-stress harness's hook.
	Jitter netsim.JitterFunc
}

// Stats mirrors core.Stats where meaningful so the harness can tabulate
// both algorithms uniformly.
type Stats struct {
	Elapsed time.Duration
	// Relaxations counts relaxation requests created (edge traversals) —
	// Fig. 9's "updates" series for the Δ-stepping bars.
	Relaxations int64
	// Rejected counts requests that failed to improve a distance.
	Rejected int64
	// Supersteps counts global synchronizations (every reduction+broadcast
	// round: light-phase iterations, drain rounds, heavy phases, BF
	// rounds). The synchronization bill ACIC avoids.
	Supersteps int64
	// BucketsProcessed counts Δ-buckets fully drained.
	BucketsProcessed int64
	// SwitchedToBF records whether and when the hybrid heuristic fired.
	SwitchedToBF bool
	BFRounds     int64
	TramStats    tram.Stats
	Network      netsim.Stats
	// Audit is the runtime's post-run conservation ledger; the stress
	// harness requires Audit.Unaccounted() == 0 and Audit.NetQueue == 0.
	Audit           runtime.Audit
	SettledPerEpoch []int64 // newly settled vertices per bucket epoch
}

// Result is the output of a Δ-stepping run.
type Result struct {
	Dist  []float64
	Stats Stats
}
