// Package distctrl implements the distributed-control SSSP baseline of
// Zalewski et al. (§I of the paper): a fully asynchronous label-correcting
// algorithm with *no* global view. Updates (vertex, distance) flow freely
// between PEs; each PE keeps a local min-priority queue and processes its
// best-known update when idle; the algorithm terminates when no messages
// remain anywhere, detected by the runtime-level quiescence detector.
//
// Relative to ACIC this strips out exactly the introspection machinery —
// histograms, thresholds, tram_hold, pq_hold and the reduction/broadcast
// cycle — so the pair forms the ablation the paper argues from: distributed
// control "has no global view of the distance value distribution of
// updates", and therefore propagates sub-optimal updates that ACIC would
// have held back.
//
// Aggregation note: with no broadcast cycle there is no periodic flush, so
// buffered updates could strand in the tail. Here a PE flushes its tramlib
// buffers when it runs out of local work (an idle-triggered flush), the
// natural asynchronous analogue.
package distctrl

import (
	"fmt"
	"math"
	"time"

	"acic/internal/graph"
	"acic/internal/machine"
	"acic/internal/netsim"
	"acic/internal/partition"
	"acic/internal/pq"
	"acic/internal/runtime"
	"acic/internal/tram"
)

// update is one edge relaxation in flight.
type update struct {
	Vertex int32
	Dist   float64
}

type (
	seedMsg  struct{ source int32 }
	batchMsg struct{ items []update }
)

// quiescencePoll is the runtime quiescence detector's poll interval.
const quiescencePoll = 200 * time.Microsecond

// Params configure distributed control.
type Params struct {
	// TramMode and TramCapacity configure aggregation; a capacity of 1
	// effectively disables batching (every update is its own message).
	TramMode     tram.Mode
	TramCapacity int
	// ComputeCost is the simulated per-unit compute time charged for each
	// update received and each edge relaxed; see core.Params.ComputeCost.
	ComputeCost time.Duration
}

// DefaultParams matches the aggregation configuration of the ACIC runs so
// comparisons isolate the control machinery.
func DefaultParams() Params {
	return Params{TramMode: tram.WP, TramCapacity: tram.DefaultCapacity}
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

// Stats reports the run's counters.
type Stats struct {
	Elapsed          time.Duration
	UpdatesCreated   int64
	UpdatesProcessed int64
	UpdatesRejected  int64
	Relaxations      int64
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

type sharedState struct {
	g    *graph.Graph
	part *partition.OneD
	tm   *tram.Manager[update]
}

type peState struct {
	runtime.NopControl
	shared *sharedState
	params Params

	base  int32
	dist  []float64
	queue *pq.BinaryHeap

	created, processed, rejected, relaxations int64
}

var _ runtime.Handler = (*peState)(nil)

func (st *peState) Deliver(pe *runtime.PE, msg any) {
	switch m := msg.(type) {
	case batchMsg:
		st.receiveBatch(pe, m.items)
	case seedMsg:
		st.created++
		st.dist[m.source-st.base] = 0
		st.relaxOutEdges(pe, m.source, 0)
		st.processed++
	case runtime.Quiescence:
		pe.Exit()
	}
}

func (st *peState) receiveBatch(pe *runtime.PE, items []update) {
	me := pe.Index()
	var forwards map[int][]update
	for _, u := range items {
		owner := st.shared.part.Owner(u.Vertex)
		if owner != me {
			if forwards == nil {
				forwards = make(map[int][]update)
			}
			forwards[owner] = append(forwards[owner], u)
			continue
		}
		if st.params.ComputeCost > 0 {
			pe.Work(st.params.ComputeCost)
		}
		li := u.Vertex - st.base
		if u.Dist < st.dist[li] {
			st.dist[li] = u.Dist
			st.queue.Push(pq.Item{Key: u.Dist, Value: int64(u.Vertex)})
		} else {
			st.rejected++
			st.processed++
		}
	}
	for owner, group := range forwards {
		pe.Send(owner, batchMsg{items: group}, len(group))
	}
	st.shared.tm.Release(items) // batch unpacked: recycle its capacity
}

// Idle drains local work best-first, then flushes stranded tram buffers.
// Only when both are exhausted does the PE block — the state the runtime's
// quiescence detector watches for.
func (st *peState) Idle(pe *runtime.PE) bool {
	if st.queue.Len() > 0 {
		it := st.queue.Pop()
		v := int32(it.Value)
		if st.dist[v-st.base] == it.Key {
			st.relaxOutEdges(pe, v, it.Key)
		}
		st.processed++
		return true
	}
	if st.shared.tm.PendingInSet(pe.Index()) > 0 {
		for _, batch := range st.shared.tm.FlushSet(pe.Index()) {
			pe.Send(batch.DestPE, batchMsg{items: batch.Items}, len(batch.Items))
		}
		return true
	}
	return false
}

func (st *peState) relaxOutEdges(pe *runtime.PE, v int32, d float64) {
	ts, ws := st.shared.g.Neighbors(int(v))
	for i, w := range ts {
		st.created++
		dst := st.shared.part.Owner(w)
		if batch := st.shared.tm.Insert(pe.Index(), dst, update{Vertex: w, Dist: d + ws[i]}); batch != nil {
			pe.Send(batch.DestPE, batchMsg{items: batch.Items}, len(batch.Items))
		}
	}
	st.relaxations += int64(len(ts))
	if st.params.ComputeCost > 0 {
		pe.Work(time.Duration(len(ts)) * st.params.ComputeCost)
	}
}

// Run executes distributed control on g from source.
func Run(g *graph.Graph, source int, opts Options) (*Result, error) {
	params := opts.Params
	if params.TramCapacity <= 0 {
		params.TramCapacity = tram.DefaultCapacity
	}
	cfg := machine.Config{
		Config: runtime.Config{
			Topo:           opts.Topo,
			Latency:        opts.Latency,
			Jitter:         opts.Jitter,
			QuiescencePoll: quiescencePoll,
		},
	}
	topo, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	if source < 0 || source >= g.NumVertices() {
		return nil, fmt.Errorf("distctrl: source %d out of range [0,%d)", source, g.NumVertices())
	}

	tm, err := tram.New[update](topo, params.TramMode, params.TramCapacity)
	if err != nil {
		return nil, err
	}
	sh := &sharedState{
		g:    g,
		part: partition.NewOneD(g.NumVertices(), topo.TotalPEs()),
		tm:   tm,
	}
	run, err := machine.Run(cfg,
		func(pe *runtime.PE) *peState {
			lo, hi := sh.part.Range(pe.Index())
			st := &peState{shared: sh, params: params, base: lo, dist: make([]float64, hi-lo), queue: pq.NewBinaryHeap(64)}
			for i := range st.dist {
				st.dist[i] = math.Inf(1)
			}
			return st
		},
		func(rt *runtime.Runtime) {
			rt.Inject(sh.part.Owner(int32(source)), seedMsg{source: int32(source)})
		})
	if err != nil {
		return nil, err
	}

	res := &Result{
		Dist:  make([]float64, g.NumVertices()),
		Stats: Stats{Elapsed: run.Elapsed, TramStats: tm.Stats(), Network: run.Network, Audit: run.Audit},
	}
	for peIdx, st := range run.Handlers {
		lo, hi := sh.part.Range(peIdx)
		copy(res.Dist[lo:hi], st.dist)
		res.Stats.UpdatesCreated += st.created
		res.Stats.UpdatesProcessed += st.processed
		res.Stats.UpdatesRejected += st.rejected
		res.Stats.Relaxations += st.relaxations
	}
	return res, nil
}
