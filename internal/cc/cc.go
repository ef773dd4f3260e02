// Package cc implements asynchronous connected components, the future-work
// direction the paper names explicitly (§V: "One candidate is the connected
// components problem for random graphs, where asynchronous reductions may
// be used to communicate information about vertices and components
// concurrently with computation").
//
// The algorithm is asynchronous min-label propagation on the same
// message-driven substrate as ACIC: every vertex starts with its own id as
// its component label; label updates (vertex, label) travel through tramlib
// and are accepted when they lower the vertex's label, triggering onward
// propagation to all neighbors (components ignore edge direction, so
// propagation uses an undirected view of the graph). At the fixed point
// every vertex carries the minimum vertex id of its weakly connected
// component.
//
// Exactly as the paper sketches, the machinery transfers from SSSP intact:
// a reduction/broadcast cycle runs concurrently with propagation, carrying
// created/processed update counters (ACIC's quiescence condition — equal
// sums in two consecutive reductions terminate the run) together with a
// per-cycle label-change count whose trace Stats exposes. The cycle is
// paced by work exactly as ACIC's is: the root broadcasts as soon as a
// reduction completes, and a PE contributes again after
// runtime.ReportAfterWork frontier pops or unpacked label updates, or at
// once when its frontier is empty.
package cc

import (
	"time"

	"acic/internal/graph"
	"acic/internal/machine"
	"acic/internal/netsim"
	"acic/internal/partition"
	"acic/internal/runtime"
	"acic/internal/simclock"
	"acic/internal/tram"
)

// labelUpdate proposes a (smaller) component label for a vertex.
type labelUpdate struct {
	Vertex int32
	Label  int32
}

type (
	startMsg struct{}
	batchMsg struct{ items []labelUpdate }
)

type ctrlMsg struct{ terminate bool }

// reduceVal is the per-PE contribution: ACIC-style quiescence counters plus
// the introspection payload (label changes since the last cycle).
type reduceVal struct {
	created, processed int64
	changes            int64
}

func combineReduce(a, b any) any {
	av, bv := a.(*reduceVal), b.(*reduceVal)
	av.created += bv.created
	av.processed += bv.processed
	av.changes += bv.changes
	return av
}

// Params configure a run.
type Params struct {
	TramMode     tram.Mode
	TramCapacity int
}

// DefaultParams mirrors the SSSP aggregation setup.
func DefaultParams() Params {
	return Params{TramMode: tram.WP, TramCapacity: tram.DefaultCapacity}
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

// Stats reports counters and the introspection trace.
type Stats struct {
	Elapsed          time.Duration
	UpdatesCreated   int64
	UpdatesProcessed int64
	Rejected         int64 // updates that did not lower a label
	Components       int   // distinct labels at the fixed point
	Reductions       int64
	ChangeTrace      []int64 // label changes observed per reduction cycle
	TramStats        tram.Stats
	Network          netsim.Stats
	// Audit is the runtime's post-run conservation ledger; the stress
	// harness requires Audit.Unaccounted() == 0 and Audit.NetQueue == 0.
	Audit runtime.Audit
}

// Result is the output of a run.
type Result struct {
	// Labels[v] is the minimum vertex id in v's weakly connected
	// component.
	Labels []int32
	Stats  Stats
}

type sharedState struct {
	und  *graph.Graph // undirected view: original plus reversed edges
	part *partition.OneD
	tm   *tram.Manager[labelUpdate]
}

type peState struct {
	shared *sharedState

	base   int32
	labels []int32

	created, processed, rejected int64
	changes                      int64 // since last contribution

	// frontier holds local vertices whose lowered label has not been
	// propagated yet; each entry corresponds to exactly one outstanding
	// (created, unprocessed) unit of work.
	frontier []int32
	inFront  []bool

	// debt is the contribution this PE owes the next reduction: OnBroadcast
	// incurs it, work pays it (see runtime.Debt).
	debt runtime.Debt

	// Root-only.
	reductions   int64
	prevEqualSum int64
	changeTrace  []int64
	terminated   bool
}

var _ runtime.Handler = (*peState)(nil)

func (st *peState) Deliver(pe *runtime.PE, msg any) {
	switch m := msg.(type) {
	case batchMsg:
		st.receiveBatch(pe, m.items)
	case startMsg:
		// Every vertex starts as its own frontier entry: its label must be
		// offered to its neighbors at least once. Each entry is one
		// created unit of work, processed when popped.
		for v := st.base; int(v-st.base) < len(st.labels); v++ {
			st.created++
			st.pushFrontier(v)
		}
		st.contribute(pe, 0)
	}
}

func (st *peState) receiveBatch(pe *runtime.PE, items []labelUpdate) {
	me := pe.Index()
	var forwards map[int][]labelUpdate
	for _, u := range items {
		owner := st.shared.part.Owner(u.Vertex)
		if owner != me {
			if forwards == nil {
				forwards = make(map[int][]labelUpdate)
			}
			forwards[owner] = append(forwards[owner], u)
			continue
		}
		li := u.Vertex - st.base
		if u.Label < st.labels[li] {
			st.labels[li] = u.Label
			st.changes++
			if st.inFront[li] {
				// The pending frontier entry will propagate the newer,
				// lower label; this update's own work is subsumed.
				st.processed++
			} else {
				st.pushFrontier(u.Vertex)
			}
		} else {
			st.rejected++
			st.processed++
		}
	}
	for owner, group := range forwards {
		pe.Send(owner, batchMsg{items: group}, len(group))
	}
	st.shared.tm.Release(items) // batch unpacked: recycle its capacity
	// Unpacking counts as work, so a PE flooded with batches still reports.
	st.worked(pe, len(items))
}

func (st *peState) pushFrontier(v int32) {
	li := v - st.base
	st.inFront[li] = true
	st.frontier = append(st.frontier, v)
}

// Idle propagates one frontier vertex's label to its (undirected)
// neighbors. With the frontier empty it pays an owed contribution at once,
// and otherwise blocks. Tram flushing happens on every broadcast, like
// ACIC, so no idle flush is needed here.
func (st *peState) Idle(pe *runtime.PE) bool {
	n := len(st.frontier)
	if n == 0 {
		epoch, owed := st.debt.Pay()
		if owed {
			st.contribute(pe, epoch)
		}
		return owed
	}
	v := st.frontier[n-1]
	st.frontier = st.frontier[:n-1]
	li := v - st.base
	st.inFront[li] = false
	label := st.labels[li]
	ts, _ := st.shared.und.Neighbors(int(v))
	for _, w := range ts {
		if label < w { // a label can never lower a vertex below its own id
			st.sendLabel(pe, w, label)
		}
	}
	st.processed++
	st.worked(pe, 1)
	return true
}

// worked credits n units of work against the owed contribution and pays it
// once it is due.
func (st *peState) worked(pe *runtime.PE, n int) {
	if epoch, due := st.debt.Worked(n); due {
		st.contribute(pe, epoch)
	}
}

func (st *peState) sendLabel(pe *runtime.PE, w int32, label int32) {
	st.created++
	dst := st.shared.part.Owner(w)
	if batch := st.shared.tm.Insert(pe.Index(), dst, labelUpdate{Vertex: w, Label: label}); batch != nil {
		pe.Send(batch.DestPE, batchMsg{items: batch.Items}, len(batch.Items))
	}
}

func (st *peState) contribute(pe *runtime.PE, epoch int64) {
	rv := &reduceVal{created: st.created, processed: st.processed, changes: st.changes}
	st.changes = 0
	pe.Contribute(epoch, rv)
}

func (st *peState) OnBroadcast(pe *runtime.PE, epoch int64, payload any) {
	ctrl := payload.(ctrlMsg)
	if ctrl.terminate {
		st.terminated = true
		pe.Exit()
		return
	}
	// Broadcast-time flush, the same tail-progress guarantee ACIC uses.
	for _, batch := range st.shared.tm.FlushSet(pe.Index()) {
		pe.Send(batch.DestPE, batchMsg{items: batch.Items}, len(batch.Items))
	}
	st.debt.Owe(epoch + 1)
}

func (st *peState) OnReduction(pe *runtime.PE, epoch int64, value any) {
	if st.terminated {
		return
	}
	rv := value.(*reduceVal)
	st.reductions++
	st.changeTrace = append(st.changeTrace, rv.changes)

	ctrl := ctrlMsg{}
	if rv.created == rv.processed && rv.created > 0 {
		if st.prevEqualSum == rv.created {
			ctrl.terminate = true
		}
		st.prevEqualSum = rv.created
	} else {
		st.prevEqualSum = -1
	}

	pe.Broadcast(epoch, ctrl)
}

// newSetup validates opts and builds the run's machine configuration and
// the state all PEs share.
func newSetup(g *graph.Graph, opts Options) (machine.Config, *sharedState, error) {
	cfg := machine.Config{
		Config: runtime.Config{
			Topo:    opts.Topo,
			Latency: opts.Latency,
			Jitter:  opts.Jitter,
			Combine: combineReduce,
		},
		Clock: opts.Clock,
	}
	topo, err := cfg.Validate()
	if err != nil {
		return cfg, nil, err
	}
	params := opts.Params
	if params.TramCapacity <= 0 {
		params.TramCapacity = tram.DefaultCapacity
	}

	// Build the undirected view once: original edges plus reversed (range
	// fixes its length before the first append, so it visits the originals).
	edges := g.Edges()
	for _, e := range edges {
		edges = append(edges, graph.Edge{From: e.To, To: e.From, Weight: e.Weight})
	}
	und, err := graph.Build(g.NumVertices(), edges)
	if err != nil {
		return cfg, nil, err
	}

	tm, err := tram.New[labelUpdate](topo, params.TramMode, params.TramCapacity)
	if err != nil {
		return cfg, nil, err
	}
	return cfg, &sharedState{
		und:  und,
		part: partition.NewOneD(g.NumVertices(), topo.TotalPEs()),
		tm:   tm,
	}, nil
}

// newPEState builds the handler of one PE, every owned vertex labelled
// with its own id.
func newPEState(sh *sharedState, pe *runtime.PE) *peState {
	lo, hi := sh.part.Range(pe.Index())
	st := &peState{
		shared:       sh,
		base:         lo,
		labels:       make([]int32, hi-lo),
		inFront:      make([]bool, hi-lo),
		prevEqualSum: -1,
	}
	for i := range st.labels {
		st.labels[i] = lo + int32(i)
	}
	return st
}

// Run computes weakly connected components of g.
func Run(g *graph.Graph, opts Options) (*Result, error) {
	cfg, sh, err := newSetup(g, opts)
	if err != nil {
		return nil, err
	}
	run, err := machine.Run(cfg,
		func(pe *runtime.PE) *peState { return newPEState(sh, pe) },
		func(rt *runtime.Runtime) {
			for i := 0; i < rt.NumPEs(); i++ {
				rt.Inject(i, startMsg{})
			}
		})
	if err != nil {
		return nil, err
	}

	root := run.Handlers[0]
	res := &Result{
		Labels: make([]int32, g.NumVertices()),
		Stats: Stats{
			Elapsed:     run.Elapsed,
			Reductions:  root.reductions,
			ChangeTrace: root.changeTrace,
			TramStats:   sh.tm.Stats(),
			Network:     run.Network,
			Audit:       run.Audit,
		},
	}
	for peIdx, st := range run.Handlers {
		lo, hi := sh.part.Range(peIdx)
		copy(res.Labels[lo:hi], st.labels)
		res.Stats.UpdatesCreated += st.created
		res.Stats.UpdatesProcessed += st.processed
		res.Stats.Rejected += st.rejected
	}
	seen := make(map[int32]struct{})
	for _, l := range res.Labels {
		seen[l] = struct{}{}
	}
	res.Stats.Components = len(seen)
	return res, nil
}

// SequentialCC is the union-find oracle: it returns min-id labels for every
// weakly connected component.
func SequentialCC(g *graph.Graph) []int32 {
	n := g.NumVertices()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	g.EachEdge(func(from, to int32, _ float64) {
		rf, rt := find(from), find(to)
		if rf != rt {
			// Union under the smaller root id so final labels are min ids.
			if rf < rt {
				parent[rt] = rf
			} else {
				parent[rf] = rt
			}
		}
	})
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = find(int32(i))
	}
	return labels
}
