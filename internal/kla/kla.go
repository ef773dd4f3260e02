// Package kla implements the K-Level Asynchronous (KLA) SSSP baseline of
// Harshvardhan et al. (§I of the paper): a compromise between
// bulk-synchronous Δ-stepping and fully asynchronous distributed control.
//
// Work proceeds in super-steps. Within a super-step, updates propagate
// asynchronously but only to a bounded depth: each update carries the
// number of edges it has traversed since the super-step began, and an
// update that would exceed k is *deferred* — its distance is applied, but
// its onward propagation waits for the next super-step. A global barrier
// ends each super-step, after which k adapts: it is doubled, halved, or
// kept constant based on how the number of distance changes moved relative
// to the previous super-step, the adaptation rule the paper attributes to
// KLA. With k = 1 KLA degenerates to level-synchronous Bellman-Ford; with
// k = ∞ it becomes distributed control.
//
// The implementation shares the substrate of the other algorithms: the
// message-driven runtime, the simulated network, and tramlib aggregation
// with a flush at every barrier round.
package kla

import (
	"fmt"
	"math"
	"time"

	"acic/internal/graph"
	"acic/internal/machine"
	"acic/internal/netsim"
	"acic/internal/partition"
	"acic/internal/runtime"
	"acic/internal/simclock"
	"acic/internal/tram"
)

// update carries a tentative distance plus its depth within the current
// super-step.
type update struct {
	Vertex int32
	Dist   float64
	Level  int32
}

type (
	startMsg struct{ source int32 }
	batchMsg struct{ items []update }
)

// ctrlMsg drives the super-step protocol.
type ctrlMsg struct {
	cmd command
	k   int32
}

type command uint8

const (
	cmdWait command = iota // barrier retry: messages still in flight
	cmdNextStep
	cmdTerminate
)

// status is the per-PE barrier contribution.
type status struct {
	sent, received int64
	deferred       int64
	changed        int64
}

func combineStatus(a, b any) any {
	av, bv := a.(*status), b.(*status)
	av.sent += bv.sent
	av.received += bv.received
	av.deferred += bv.deferred
	av.changed += bv.changed
	return av
}

// The double/halve/keep rule compares the change count of the last
// super-step against the one before: k doubles when the ratio exceeds
// growThreshold, halves when it falls below shrinkThreshold, and never
// leaves [1, maxK].
const (
	growThreshold   = 1.5
	shrinkThreshold = 0.5
	maxK            = 1 << 20
)

// Params are the KLA tunables.
type Params struct {
	// InitialK is the starting propagation depth; zero means 2.
	InitialK int32
	// Adaptive enables the double/halve/keep rule (see adaptK); when false
	// k stays at InitialK.
	Adaptive bool
	// TramMode and TramCapacity configure aggregation.
	TramMode     tram.Mode
	TramCapacity int
	// ComputeCost is the simulated per-unit compute time charged for each
	// update received and each edge relaxed; see core.Params.ComputeCost.
	ComputeCost time.Duration
}

// DefaultParams returns an adaptive configuration with k starting at 2.
func DefaultParams() Params {
	return Params{InitialK: 2, Adaptive: true, TramMode: tram.WP, TramCapacity: tram.DefaultCapacity}
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

// Stats reports the run's counters.
type Stats struct {
	Elapsed     time.Duration
	SuperSteps  int64
	Barriers    int64 // reduction rounds, including drain retries
	Relaxations int64
	Rejected    int64
	Deferred    int64 // updates whose propagation crossed a super-step
	KHistory    []int32
	TramStats   tram.Stats
	Network     netsim.Stats
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
	shared *sharedState
	params Params

	base int32
	dist []float64
	k    int32

	// deferred holds vertices whose onward propagation waits for the next
	// super-step, with the depth budget reset.
	deferredV []int32
	inDefer   []bool

	sent, received int64
	changedCount   int64
	deferredCount  int64

	relaxations, rejected, totalDeferred int64

	root rootState
}

type rootState struct {
	superSteps  int64
	barriers    int64
	prevChanged int64
	kHistory    []int32
	terminated  bool
}

var _ runtime.Handler = (*peState)(nil)

func (st *peState) Deliver(pe *runtime.PE, msg any) {
	switch m := msg.(type) {
	case batchMsg:
		st.receiveBatch(pe, m.items)
	case startMsg:
		if st.shared.part.Owner(m.source) == pe.Index() {
			st.dist[m.source-st.base] = 0
			st.relaxFrom(pe, m.source, 0, 0)
		}
		st.contribute(pe, 0)
	}
}

// Idle implements runtime.Handler; KLA processes updates eagerly on
// arrival, so there is no background work.
func (st *peState) Idle(pe *runtime.PE) bool { return false }

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
		st.received++
		if st.params.ComputeCost > 0 {
			pe.Work(st.params.ComputeCost)
		}
		li := u.Vertex - st.base
		if u.Dist >= st.dist[li] {
			st.rejected++
			continue
		}
		st.dist[li] = u.Dist
		st.changedCount++
		if u.Level < st.k {
			st.relaxFrom(pe, u.Vertex, u.Dist, u.Level)
		} else {
			// Depth budget exhausted: defer propagation to the next
			// super-step (§I: "vertices that can't be reached within the
			// next k iterations ... are deferred").
			st.deferredCount++
			st.totalDeferred++
			if !st.inDefer[li] {
				st.inDefer[li] = true
				st.deferredV = append(st.deferredV, u.Vertex)
			}
		}
	}
	for owner, group := range forwards {
		pe.Send(owner, batchMsg{items: group}, len(group))
	}
	st.shared.tm.Release(items) // batch unpacked: recycle its capacity
}

// relaxFrom sends one onward update per out-edge of v at depth level+1.
func (st *peState) relaxFrom(pe *runtime.PE, v int32, d float64, level int32) {
	ts, ws := st.shared.g.Neighbors(int(v))
	for i, w := range ts {
		st.sent++
		dst := st.shared.part.Owner(w)
		u := update{Vertex: w, Dist: d + ws[i], Level: level + 1}
		if batch := st.shared.tm.Insert(pe.Index(), dst, u); batch != nil {
			pe.Send(batch.DestPE, batchMsg{items: batch.Items}, len(batch.Items))
		}
	}
	st.relaxations += int64(len(ts))
	if st.params.ComputeCost > 0 {
		pe.Work(time.Duration(len(ts)) * st.params.ComputeCost)
	}
}

func (st *peState) contribute(pe *runtime.PE, epoch int64) {
	for _, batch := range st.shared.tm.FlushSet(pe.Index()) {
		pe.Send(batch.DestPE, batchMsg{items: batch.Items}, len(batch.Items))
	}
	s := &status{
		sent:     st.sent,
		received: st.received,
		deferred: st.deferredCount,
		changed:  st.changedCount,
	}
	pe.Contribute(epoch, s)
}

func (st *peState) OnBroadcast(pe *runtime.PE, epoch int64, payload any) {
	ctrl := payload.(ctrlMsg)
	switch ctrl.cmd {
	case cmdTerminate:
		pe.Exit()
		return
	case cmdWait:
		// Barrier retry; arrivals already handled.
	case cmdNextStep:
		st.k = ctrl.k
		st.changedCount = 0
		st.deferredCount = 0
		// Restart propagation from deferred vertices with a fresh depth
		// budget.
		defd := st.deferredV
		st.deferredV = nil
		for _, v := range defd {
			li := v - st.base
			st.inDefer[li] = false
			st.relaxFrom(pe, v, st.dist[li], 0)
		}
	}
	st.contribute(pe, epoch+1)
}

func (st *peState) OnReduction(pe *runtime.PE, epoch int64, value any) {
	if st.root.terminated {
		return
	}
	s := value.(*status)
	st.root.barriers++
	var ctrl ctrlMsg
	if s.sent != s.received {
		ctrl = ctrlMsg{cmd: cmdWait}
	} else if s.deferred == 0 {
		// Nothing left to propagate anywhere: done.
		ctrl = ctrlMsg{cmd: cmdTerminate}
		st.root.terminated = true
	} else {
		st.root.superSteps++
		ctrl = ctrlMsg{cmd: cmdNextStep, k: st.adaptK(s)}
		st.root.kHistory = append(st.root.kHistory, ctrl.k)
		st.root.prevChanged = s.changed
	}
	pe.Broadcast(epoch, ctrl)
}

// adaptK applies the double/halve/keep rule on the change counts of the
// last two super-steps.
func (st *peState) adaptK(s *status) int32 {
	k := st.k
	if !st.params.Adaptive {
		return k
	}
	prev := st.root.prevChanged
	switch {
	case prev == 0:
		// First adaptation: nothing to compare against.
	case float64(s.changed) > growThreshold*float64(prev):
		k *= 2
	case float64(s.changed) < shrinkThreshold*float64(prev):
		k /= 2
	}
	if k < 1 {
		k = 1
	}
	if k > maxK {
		k = maxK
	}
	return k
}

// Run executes KLA on g from source.
func Run(g *graph.Graph, source int, opts Options) (*Result, error) {
	cfg := machine.Config{
		Config: runtime.Config{
			Topo:    opts.Topo,
			Latency: opts.Latency,
			Jitter:  opts.Jitter,
			Combine: combineStatus,
		},
		Clock: opts.Clock,
	}
	topo, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	if source < 0 || source >= g.NumVertices() {
		return nil, fmt.Errorf("kla: source %d out of range [0,%d)", source, g.NumVertices())
	}
	params := opts.Params
	if params.InitialK <= 0 {
		params.InitialK = 2
	}
	if params.TramCapacity <= 0 {
		params.TramCapacity = tram.DefaultCapacity
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
			st := &peState{
				shared:  sh,
				params:  params,
				base:    lo,
				dist:    make([]float64, hi-lo),
				k:       params.InitialK,
				inDefer: make([]bool, hi-lo),
			}
			for i := range st.dist {
				st.dist[i] = math.Inf(1)
			}
			return st
		},
		func(rt *runtime.Runtime) {
			for i := 0; i < topo.TotalPEs(); i++ {
				rt.Inject(i, startMsg{source: int32(source)})
			}
		})
	if err != nil {
		return nil, err
	}

	root := run.Handlers[0].root
	res := &Result{
		Dist: make([]float64, g.NumVertices()),
		Stats: Stats{
			Elapsed:    run.Elapsed,
			SuperSteps: root.superSteps,
			Barriers:   root.barriers,
			KHistory:   root.kHistory,
			TramStats:  tm.Stats(),
			Network:    run.Network,
			Audit:      run.Audit,
		},
	}
	for peIdx, st := range run.Handlers {
		lo, hi := sh.part.Range(peIdx)
		copy(res.Dist[lo:hi], st.dist)
		res.Stats.Relaxations += st.relaxations
		res.Stats.Rejected += st.rejected
		res.Stats.Deferred += st.totalDeferred
	}
	return res, nil
}
