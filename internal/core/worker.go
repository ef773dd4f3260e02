package core

import (
	"acic/internal/graph"
	"acic/internal/runtime"
	"acic/internal/sockfab"
)

// Worker hosts one OS process's share of a multi-process ACIC run. Where
// Run (TransportTCP) keeps every process's node in one address space, a
// Worker owns exactly one sockfab node and the PEs of one topology
// process; cmd/acic-launch spawns one Worker per process and stitches the
// partial results back together.
//
// Every process must build its Worker from the same graph, source and
// options — the launcher guarantees that by regenerating the graph from
// the same seed in each worker. Lifecycle: NewWorker (binds a loopback
// listener), exchange Addr with the peers out of band, then Run with the
// full address list.
type Worker struct {
	*setup
}

// WorkerResult is one process's slice of the run: the distances and
// parents of the vertices its PEs own, in the caller's vertex ids (an
// over-decomposed run is mapped back), plus the process-local conservation
// ledger. Reductions is nonzero only on the process hosting the root PE;
// Suppressed sums the hosted PEs' Stats.UpdatesSuppressed.
type WorkerResult struct {
	Lo, Hi     int
	Vertices   []int32
	Dist       []float64
	Parent     []int32
	Reductions int64
	Suppressed int64
	Audit      runtime.Audit
}

// NewWorker validates the configuration, builds the process's share of the
// machine and binds the transport listener on 127.0.0.1. The returned
// worker is listening but not yet connected; its Addr must reach every
// peer before Run.
func NewWorker(g *graph.Graph, source int, opts Options, proc int) (*Worker, error) {
	s, err := newSetup(g, source, opts, true)
	if err != nil {
		return nil, err
	}
	topo := s.cfg.Topo
	node, err := sockfab.NewNode(sockfab.NodeConfig{
		Proc:     proc,
		NumProcs: topo.TotalProcs(),
		NumPEs:   topo.TotalPEs(),
		Owner:    topo.ProcessOf,
		Codec:    s.cfg.Codec,
	})
	if err == nil {
		_, err = node.Listen("127.0.0.1:0")
	}
	if err != nil {
		s.sc.release()
		return nil, err
	}
	s.cfg.Node = node
	s.cfg.Span.Lo, s.cfg.Span.Hi = topo.PEsOfProcess(proc)
	return &Worker{s}, nil
}

// Addr returns the worker's transport listen address.
func (w *Worker) Addr() string { return w.cfg.Node.Addr() }

// Run connects to the peers (addrs is the full per-process address list,
// indexed by proc), executes the run to termination, and returns this
// process's slice of the result. It releases the worker's Scratch; a
// Worker runs once.
func (w *Worker) Run(addrs []string) (*WorkerResult, error) {
	defer w.sc.release()
	if err := w.cfg.Node.Connect(addrs); err != nil {
		return nil, err
	}
	run, err := w.run()
	if err != nil {
		return nil, err
	}
	span := w.cfg.Span
	res := &WorkerResult{Lo: span.Lo, Hi: span.Hi, Audit: run.Audit}
	for pe := span.Lo; pe < span.Hi; pe++ {
		st := run.Handlers[pe]
		res.Suppressed += st.suppressed
		for local, d := range st.dist {
			res.Vertices = append(res.Vertices, w.inputID(st.lo+int32(local)))
			res.Dist = append(res.Dist, d)
			res.Parent = append(res.Parent, w.inputID(st.parent[local]))
		}
	}
	if span.Lo == 0 {
		res.Reductions = run.Handlers[0].reductions
	}
	return res, nil
}
