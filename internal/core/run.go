package core

import (
	"fmt"
	"slices"

	"acic/internal/graph"
	"acic/internal/machine"
	"acic/internal/partition"
	"acic/internal/runtime"
	"acic/internal/tram"
	"acic/internal/wire"
)

// setup is what Run and a Worker share: the validated machine description,
// the defaulted parameters, the claimed Scratch and the state every PE
// handler points at. The two differ only in the fabric they put under it
// and the PE span they host.
type setup struct {
	cfg    machine.Config
	params Params
	source int32 // in the ids the PEs run on
	sc     *Scratch
	sh     *sharedState
	order  []int32 // new id → caller's id for an over-decomposed layout, else nil
}

// newSetup validates the run and builds everything up to, but not
// including, the machine. tcp selects a real transport (Run's
// TransportTCP, or a Worker) and registers the wire codec for it. On
// success the Scratch is claimed; the caller releases it after the run.
func newSetup(g *graph.Graph, source int, opts Options, tcp bool) (*setup, error) {
	cfg := machine.Config{
		Config: runtime.Config{
			Topo:    opts.Topo,
			Latency: opts.Latency,
			Jitter:  opts.Jitter,
			Fault:   opts.Fault,
			Trace:   opts.Trace,
			Metrics: opts.Metrics,
		},
	}
	if tcp {
		cfg.Codec = wire.NewCodec()
	}
	topo, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	if source < 0 || source >= g.NumVertices() {
		return nil, fmt.Errorf("core: source %d out of range [0,%d)", source, g.NumVertices())
	}
	params, err := opts.Params.withDefaults(g.NumVertices())
	if err != nil {
		return nil, err
	}

	// Per-run pools come from the caller's Scratch when provided (repeated
	// runs then recycle the arena, contribution and per-PE state), or a
	// fresh throwaway one otherwise.
	sc := opts.Scratch
	if sc == nil {
		sc = &Scratch{}
	}
	if err := sc.acquire(); err != nil {
		return nil, err
	}
	sc.prepare(scratchKey{
		pes:     topo.TotalPEs(),
		tramCap: params.TramCapacity,
		width:   params.BucketWidth,
	})

	tm, err := tram.NewWithArena[Update](topo, params.TramMode, params.TramCapacity, opts.Metrics, sc.pools.ar)
	if err != nil {
		sc.release()
		return nil, err
	}
	// An over-decomposed layout is a block layout on a relabelled graph.
	part := partition.NewOneD(g.NumVertices(), topo.TotalPEs())
	var order []int32
	if params.OverDecomposition > 1 {
		order, part = partition.NewChunked(g.NumVertices(), topo.TotalPEs(), params.OverDecomposition)
		g = g.Relabel(order)
		source = slices.Index(order, int32(source))
	}
	sh := &sharedState{
		g:           g,
		part:        part,
		tm:          tm,
		tr:          opts.Trace,
		met:         newCoreMetrics(opts.Metrics),
		ar:          sc.pools.ar,
		pools:       sc.pools,
		bucketWidth: params.BucketWidth,
	}
	cfg.Combine = sh.combineReduce
	if tcp {
		runtime.RegisterWire(cfg.Codec)
		registerCoreWire(cfg.Codec, sh)
	}
	return &setup{cfg: cfg, params: params, source: int32(source), sc: sc, sh: sh, order: order}, nil
}

// inputID maps a vertex id the PEs ran on back to the caller's; -1 (no
// parent) stays -1.
func (s *setup) inputID(v int32) int32 {
	if s.order == nil || v < 0 {
		return v
	}
	return s.order[v]
}

// run executes the machine to termination. Each process seeds only what it
// hosts: the source relaxation if the source vertex's owner lives here,
// and the reduction-cycle start for every hosted PE. The cycle's
// reductions and broadcasts then flow across the fabric like any other
// message.
func (s *setup) run() (*machine.Result[*peState], error) {
	return machine.Run(s.cfg, s.newHandler, s.seed)
}

// newHandler builds PE pe's handler on its Scratch slot.
func (s *setup) newHandler(pe *runtime.PE) *peState {
	return newPEState(s.sh, pe, s.params, s.sc.slot(pe.Index()))
}

// seed injects this process's share of the start: the source relaxation
// and one reduction-cycle start per hosted PE.
func (s *setup) seed(rt *runtime.Runtime) {
	span := rt.HostedSpan()
	if owner := s.sh.part.Owner(s.source); owner >= span.Lo && owner < span.Hi {
		rt.Inject(owner, seedMsg{source: s.source})
	}
	for i := span.Lo; i < span.Hi; i++ {
		rt.Inject(i, startMsg{})
	}
}

// Run executes ACIC on g from source and returns the distance vector and
// run statistics. It builds the whole machine — fabric, runtime, tramlib —
// runs to termination, and tears it down.
func Run(g *graph.Graph, source int, opts Options) (*Result, error) {
	s, err := newSetup(g, source, opts, opts.Transport == TransportTCP)
	if err != nil {
		return nil, err
	}
	defer s.sc.release()
	run, err := s.run()
	if err != nil {
		return nil, err
	}
	return s.result(run), nil
}

// result gathers every PE's slice of the run into a Result in the caller's
// vertex ids.
func (s *setup) result(run *machine.Result[*peState]) *Result {
	n := s.sh.g.NumVertices()
	res := &Result{
		Dist:   make([]float64, n),
		Parent: make([]int32, n),
		Stats: Stats{
			Elapsed:   run.Elapsed,
			TramStats: s.sh.tm.Stats(),
			Network:   run.Network,
			Audit:     run.Audit,
		},
	}
	root := run.Handlers[0]
	res.Stats.Reductions = root.reductions
	res.Stats.AuditTrace = root.auditTrace
	for _, st := range run.Handlers {
		for local, d := range st.dist {
			v := s.inputID(st.lo + int32(local))
			res.Dist[v] = d
			res.Parent[v] = s.inputID(st.parent[local])
		}
		res.Stats.UpdatesCreated += st.hist.Created
		res.Stats.UpdatesSuppressed += st.suppressed
		res.Stats.UpdatesProcessed += st.hist.Processed
		res.Stats.UpdatesRejected += st.rejected
		res.Stats.Relaxations += st.relaxations
	}
	return res
}
