package deltastep

import (
	"math"

	"acic/internal/graph"
	"acic/internal/partition"
	"acic/internal/runtime"
	"acic/internal/tram"
)

// request is one relaxation request: "consider distance Dist for vertex
// Vertex". The Δ-stepping analogue of ACIC's Update.
type request struct {
	Vertex int32
	Dist   float64
}

type (
	startMsg struct{ source int32 }
	// batchMsg carries aggregated relaxation requests.
	batchMsg struct{ items []request }
)

// peState is the Δ-stepping handler on one PE.
type peState struct {
	shared *sharedState
	params Params
	delta  float64

	base int32
	dist []float64

	// buckets[b] holds local vertex ids whose tentative distance maps to
	// bucket b; entries are lazily invalidated when the distance moved.
	buckets   [][]int32
	minBucket int32 // lowest possibly-non-empty bucket, -1 when unknown/empty

	// inBucket[i] is the bucket the local vertex currently sits in, or -1.
	inBucket []int32

	current int32   // bucket being processed
	settled []int32 // vertices removed from `current` awaiting heavy relaxation
	wasInR  []bool  // local membership in settled set for this epoch

	// BF-mode frontier: local vertices improved since the last round.
	frontier []int32
	inFront  []bool
	bfMode   bool

	sent, received int64
	changed        bool
	epochSettled   int64 // vertices newly settled since last contribution

	relaxations int64
	rejected    int64

	// rootState is the phase state machine; it runs on PE 0 only.
	rootState
}

type sharedState struct {
	g    *graph.Graph
	part *partition.OneD
	tm   *tram.Manager[request]
}

var _ runtime.Handler = (*peState)(nil)

func newPEState(sh *sharedState, pe *runtime.PE, p Params, delta float64) *peState {
	lo, hi := sh.part.Range(pe.Index())
	n := int(hi - lo)
	st := &peState{
		shared:    sh,
		params:    p,
		delta:     delta,
		base:      lo,
		dist:      make([]float64, n),
		buckets:   make([][]int32, 1),
		minBucket: -1,
		inBucket:  make([]int32, n),
		wasInR:    make([]bool, n),
		inFront:   make([]bool, n),
		rootState: rootState{hybrid: p.Hybrid},
	}
	for i := range st.dist {
		st.dist[i] = math.Inf(1)
		st.inBucket[i] = -1
	}
	return st
}

// maxBuckets bounds the bucket index: distances beyond maxBuckets×Δ clamp
// into the last bucket and are processed together.
const maxBuckets = 1 << 16

func (st *peState) bucketOf(d float64) int32 {
	b := int32(d / st.delta)
	if b >= maxBuckets {
		b = maxBuckets - 1
	}
	if b < 0 {
		b = 0
	}
	return b
}

// place puts local vertex v (global id) into the bucket for distance d.
func (st *peState) place(v int32, d float64) {
	li := v - st.base
	b := st.bucketOf(d)
	for int(b) >= len(st.buckets) {
		st.buckets = append(st.buckets, nil)
	}
	// Lazy deletion: stale entries in the old bucket are skipped on drain.
	st.buckets[b] = append(st.buckets[b], v)
	st.inBucket[li] = b
	if st.minBucket < 0 || b < st.minBucket {
		st.minBucket = b
	}
}

// localMinBucket recomputes the lowest non-empty bucket, skipping stale
// (lazily deleted) entries.
func (st *peState) localMinBucket() int32 {
	for b := int32(0); int(b) < len(st.buckets); b++ {
		for _, v := range st.buckets[b] {
			li := v - st.base
			if st.inBucket[li] == b && st.bucketOf(st.dist[li]) == b {
				return b
			}
		}
	}
	return -1
}

// Deliver implements runtime.Handler.
func (st *peState) Deliver(pe *runtime.PE, msg any) {
	switch m := msg.(type) {
	case batchMsg:
		st.receiveBatch(pe, m.items)
	case startMsg:
		if st.shared.part.Owner(m.source) == pe.Index() {
			st.dist[m.source-st.base] = 0
			st.place(m.source, 0)
		}
		st.contribute(pe, 0)
	}
}

// Idle implements runtime.Handler. Δ-stepping has no asynchronous
// background work: between barriers an early-finishing PE simply waits,
// which is precisely the synchronization cost the paper attributes to
// bulk-synchronous algorithms.
func (st *peState) Idle(pe *runtime.PE) bool { return false }

func (st *peState) receiveBatch(pe *runtime.PE, items []request) {
	me := pe.Index()
	var forwards map[int][]request
	for _, r := range items {
		owner := st.shared.part.Owner(r.Vertex)
		if owner != me {
			if forwards == nil {
				forwards = make(map[int][]request)
			}
			forwards[owner] = append(forwards[owner], r)
			continue
		}
		st.received++
		if st.params.ComputeCost > 0 {
			pe.Work(st.params.ComputeCost)
		}
		li := r.Vertex - st.base
		if r.Dist < st.dist[li] {
			st.dist[li] = r.Dist
			st.changed = true
			if st.bfMode {
				if !st.inFront[li] {
					st.inFront[li] = true
					st.frontier = append(st.frontier, r.Vertex)
				}
			} else {
				st.place(r.Vertex, r.Dist)
			}
		} else {
			st.rejected++
		}
	}
	for owner, group := range forwards {
		pe.Send(owner, batchMsg{items: group}, len(group))
	}
	st.shared.tm.Release(items) // batch unpacked: recycle its capacity
}

// relax creates a relaxation request for edge (v -> w, weight c) given v's
// distance d, routing it through tramlib.
func (st *peState) relax(pe *runtime.PE, w int32, nd float64) {
	st.sent++
	st.relaxations++
	if st.params.ComputeCost > 0 {
		pe.Work(st.params.ComputeCost)
	}
	dst := st.shared.part.Owner(w)
	if batch := st.shared.tm.Insert(pe.Index(), dst, request{Vertex: w, Dist: nd}); batch != nil {
		pe.Send(batch.DestPE, batchMsg{items: batch.Items}, len(batch.Items))
	}
}

// drainLight removes current-bucket vertices, relaxes their light edges and
// remembers them for the heavy phase.
func (st *peState) drainLight(pe *runtime.PE) int64 {
	b := st.current
	var settledNow int64
	if int(b) < len(st.buckets) {
		entries := st.buckets[b]
		st.buckets[b] = nil
		for _, v := range entries {
			li := v - st.base
			if st.inBucket[li] != b || st.bucketOf(st.dist[li]) != b {
				continue // stale entry
			}
			st.inBucket[li] = -1
			if !st.wasInR[li] {
				st.wasInR[li] = true
				st.settled = append(st.settled, v)
				settledNow++
			}
			d := st.dist[li]
			ts, ws := st.shared.g.Neighbors(int(v))
			for i, w := range ts {
				if ws[i] <= st.delta {
					st.relax(pe, w, d+ws[i])
				}
			}
		}
	}
	return settledNow
}

// relaxHeavy relaxes the heavy edges of every vertex settled from the
// current bucket and resets the epoch state.
func (st *peState) relaxHeavy(pe *runtime.PE) {
	for _, v := range st.settled {
		li := v - st.base
		st.wasInR[li] = false
		d := st.dist[li]
		ts, ws := st.shared.g.Neighbors(int(v))
		for i, w := range ts {
			if ws[i] > st.delta {
				st.relax(pe, w, d+ws[i])
			}
		}
	}
	st.settled = st.settled[:0]
}

// enterBF moves every still-bucketed vertex into the Bellman-Ford frontier.
func (st *peState) enterBF() {
	st.bfMode = true
	for b := range st.buckets {
		for _, v := range st.buckets[b] {
			li := v - st.base
			if st.inBucket[li] == int32(b) && !st.inFront[li] {
				st.inFront[li] = true
				st.frontier = append(st.frontier, v)
				st.inBucket[li] = -1
			}
		}
		st.buckets[b] = nil
	}
	st.minBucket = -1
}

// bfRound relaxes all out-edges of the current frontier.
func (st *peState) bfRound(pe *runtime.PE) {
	front := st.frontier
	st.frontier = nil
	for _, v := range front {
		li := v - st.base
		st.inFront[li] = false
		d := st.dist[li]
		ts, ws := st.shared.g.Neighbors(int(v))
		for i, w := range ts {
			st.relax(pe, w, d+ws[i])
		}
	}
}

// contribute flushes tram (every barrier is also a flush point) and reports
// status for the next root decision.
func (st *peState) contribute(pe *runtime.PE, epoch int64) {
	for _, batch := range st.shared.tm.FlushSet(pe.Index()) {
		pe.Send(batch.DestPE, batchMsg{items: batch.Items}, len(batch.Items))
	}
	s := &status{
		Sent:      st.sent,
		Received:  st.received,
		MinBucket: -1,
		Settled:   st.epochSettled,
		Active:    int64(len(st.frontier)),
		Changed:   st.changed,
	}
	st.changed = false
	st.epochSettled = 0
	if !st.bfMode {
		s.MinBucket = st.localMinBucket()
	}
	pe.Contribute(epoch, s)
}

// OnBroadcast executes the root's command, then reports back.
func (st *peState) OnBroadcast(pe *runtime.PE, epoch int64, payload any) {
	ctrl := payload.(ctrlMsg)
	switch ctrl.cmd {
	case cmdTerminate:
		pe.Exit()
		return
	case cmdWait:
		// Barrier retry: arrivals were processed by Deliver already.
	case cmdAdvance, cmdDrainLight:
		st.current = ctrl.bucket
		st.epochSettled += st.drainLight(pe)
	case cmdHeavy:
		st.relaxHeavy(pe)
	case cmdBellmanFord:
		if !st.bfMode {
			st.enterBF()
		}
		st.bfRound(pe)
	}
	st.contribute(pe, epoch+1)
}
