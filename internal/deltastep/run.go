package deltastep

import (
	"fmt"
	"math"

	"acic/internal/graph"
	"acic/internal/machine"
	"acic/internal/partition"
	"acic/internal/runtime"
	"acic/internal/tram"
)

// HeuristicDelta returns the default bucket width: Δ = max edge weight,
// clamped below at 1.
//
// Meyer and Sanders' work-optimal prescription is Δ = Θ(max-weight /
// mean-degree), but that regime assumes cheap synchronization. On a
// distributed machine every bucket phase costs a global barrier, so
// production codes — including the Graph500 Δ-stepping lineage the paper
// compares against — run far coarser buckets, accepting extra speculative
// relaxations to buy fewer phases. Δ = max-weight makes every edge "light"
// and collapses the phase count to the distance diameter in Δ units, which
// is the runtime-optimal end of the trade-off in the barrier-dominated
// regime this simulator (and the paper's clusters) operate in. Callers can
// always set Params.Delta explicitly; the WorkOptimalDelta helper exposes
// the fine-bucket alternative used by the ablation benchmarks.
func HeuristicDelta(g *graph.Graph) float64 {
	d := g.MaxWeight()
	if d < 1 {
		d = 1
	}
	return d
}

// WorkOptimalDelta returns the Meyer-Sanders work-optimal bucket width
// Δ = max-weight / mean-out-degree, clamped below at 1. It minimizes
// wasted relaxations at the price of many more phases; the Δ ablation
// benchmark contrasts it with HeuristicDelta.
func WorkOptimalDelta(g *graph.Graph) float64 {
	n := g.NumVertices()
	if n == 0 || g.NumEdges() == 0 {
		return 1
	}
	meanDeg := float64(g.NumEdges()) / float64(n)
	if meanDeg < 1 {
		meanDeg = 1
	}
	d := g.MaxWeight() / meanDeg
	if d < 1 {
		d = 1
	}
	return d
}

// Run executes Δ-stepping on g from source over the simulated machine and
// returns distances and statistics.
func Run(g *graph.Graph, source int, opts Options) (*Result, error) {
	cfg := machine.Config{
		Config: runtime.Config{
			Topo:    opts.Topo,
			Latency: opts.Latency,
			Jitter:  opts.Jitter,
			Combine: combineStatus,
		},
	}
	topo, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	if source < 0 || source >= g.NumVertices() {
		return nil, fmt.Errorf("deltastep: source %d out of range [0,%d)", source, g.NumVertices())
	}
	params := opts.Params
	if params.Delta == 0 {
		params.Delta = HeuristicDelta(g)
	}
	if params.Delta <= 0 || math.IsNaN(params.Delta) {
		return nil, fmt.Errorf("deltastep: invalid delta %v", params.Delta)
	}
	if params.TramCapacity <= 0 {
		params.TramCapacity = tram.DefaultCapacity
	}

	tm, err := tram.New[request](topo, params.TramMode, params.TramCapacity)
	if err != nil {
		return nil, err
	}
	part := partition.NewOneD(g.NumVertices(), topo.TotalPEs())
	if params.EdgeBalanced {
		part = partition.NewEdgeBalancedOneD(g, topo.TotalPEs())
	}
	sh := &sharedState{
		g:    g,
		part: part,
		tm:   tm,
	}

	run, err := machine.Run(cfg,
		func(pe *runtime.PE) *peState { return newPEState(sh, pe, params, params.Delta) },
		func(rt *runtime.Runtime) {
			for i := 0; i < topo.TotalPEs(); i++ {
				rt.Inject(i, startMsg{source: int32(source)})
			}
		})
	if err != nil {
		return nil, err
	}

	root := run.Handlers[0]
	res := &Result{
		Dist: make([]float64, g.NumVertices()),
		Stats: Stats{
			Elapsed:          run.Elapsed,
			Supersteps:       root.supersteps,
			BucketsProcessed: root.bucketsProcessed,
			SwitchedToBF:     root.switched,
			BFRounds:         root.bfRounds,
			SettledPerEpoch:  root.settledPerEpoch,
			TramStats:        tm.Stats(),
			Network:          run.Network,
			Audit:            run.Audit,
		},
	}
	for peIdx, st := range run.Handlers {
		lo, hi := sh.part.Range(peIdx)
		copy(res.Dist[lo:hi], st.dist)
		res.Stats.Relaxations += st.relaxations
		res.Stats.Rejected += st.rejected
	}
	return res, nil
}
