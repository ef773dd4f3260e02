package delta2d

import (
	"fmt"
	"math"

	"acic/internal/deltastep"
	"acic/internal/graph"
	"acic/internal/machine"
	"acic/internal/partition"
	"acic/internal/runtime"
	"acic/internal/tram"
)

// Run executes 2-D Δ-stepping on g from source over the simulated machine.
func Run(g *graph.Graph, source int, opts Options) (*Result, error) {
	cfg := machine.Config{
		Config: runtime.Config{
			Topo:    opts.Topo,
			Latency: opts.Latency,
			Jitter:  opts.Jitter,
			Combine: deltastep.CombineStatus,
		},
		Clock: opts.Clock,
	}
	topo, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	if source < 0 || source >= g.NumVertices() {
		return nil, fmt.Errorf("delta2d: source %d out of range [0,%d)", source, g.NumVertices())
	}
	params := opts.Params
	if params.Delta == 0 {
		params.Delta = deltastep.HeuristicDelta(g)
	}
	if params.Delta <= 0 || math.IsNaN(params.Delta) {
		return nil, fmt.Errorf("delta2d: invalid delta %v", params.Delta)
	}
	if params.TramCapacity <= 0 {
		params.TramCapacity = tram.DefaultCapacity
	}
	pes := topo.TotalPEs()
	rows := params.Rows
	if rows <= 0 {
		rows, _ = SquarestGrid(pes)
	}
	if rows < 1 || pes%rows != 0 {
		return nil, fmt.Errorf("delta2d: %d PEs do not form a grid with %d rows", pes, rows)
	}
	cols := pes / rows

	tm, err := tram.New[wire](topo, params.TramMode, params.TramCapacity)
	if err != nil {
		return nil, err
	}
	sh := &sharedState{g: g, grid: partition.NewTwoD(g.NumVertices(), rows, cols), tm: tm}

	// Distribute the adjacency matrix: edge (u → v) to PE
	// (rowOf(u), colOf(v)).
	stores := make([]map[int32][]halfEdge, pes)
	for i := range stores {
		stores[i] = make(map[int32][]halfEdge)
	}
	g.EachEdge(func(from, to int32, w float64) {
		pe := sh.grid.OwnerOfEdge(from, to)
		stores[pe][from] = append(stores[pe][from], halfEdge{to: to, w: w})
	})

	run, err := machine.Run(cfg,
		func(pe *runtime.PE) *peState { return newPEState(sh, pe, params, params.Delta, stores[pe.Index()]) },
		func(rt *runtime.Runtime) {
			for i := 0; i < pes; i++ {
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
			GridRows:         rows,
			GridCols:         cols,
			Supersteps:       root.Supersteps,
			BucketsProcessed: root.BucketsProcessed,
			SwitchedToBF:     root.Switched,
			BFRounds:         root.BFRounds,
			TramStats:        tm.Stats(),
			Network:          run.Network,
			Audit:            run.Audit,
		},
	}
	for _, st := range run.Handlers {
		copy(res.Dist[st.ownerLo:st.ownerHi], st.dist)
		res.Stats.Relaxations += st.relaxations
		res.Stats.Rejected += st.rejected
		res.Stats.FrontierMsgs += st.frontierMsgs
	}
	return res, nil
}
