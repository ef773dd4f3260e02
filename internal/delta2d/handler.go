package delta2d

import (
	"math"

	"acic/internal/deltastep"
	"acic/internal/runtime"
)

// peState is the 2-D Δ-stepping handler on one grid PE. Every PE stores an
// adjacency-matrix block; only PEs whose row-block and column-block ranges
// intersect also own vertex state (the intersection is a contiguous vertex
// interval, possibly empty).
type peState struct {
	shared *sharedState
	params Params
	delta  float64

	// Stored edges: out-edges (u → v) with rowOf(u) == row, colOf(v) == col.
	edges map[int32][]halfEdge

	// Owned vertex state over [ownerLo, ownerHi).
	ownerLo, ownerHi int32
	dist             []float64

	buckets      [][]int32
	inBucket     []int32
	wasInR       []bool
	settled      []int32
	frontier     []int32 // BF-mode improved vertices
	inFront      []bool
	bfMode       bool
	current      int32
	epochSettled int64

	sent, received int64
	changed        bool

	relaxations  int64
	rejected     int64
	frontierMsgs int64

	// Root is the 1-D baseline's phase state machine, run by PE 0.
	deltastep.Root
}

var _ runtime.Handler = (*peState)(nil)

func newPEState(sh *sharedState, pe *runtime.PE, p Params, delta float64, edges map[int32][]halfEdge) *peState {
	lo, hi := sh.grid.OwnedRange(pe.Index())
	n := int(hi - lo)
	st := &peState{
		shared:   sh,
		params:   p,
		delta:    delta,
		edges:    edges,
		ownerLo:  lo,
		ownerHi:  hi,
		dist:     make([]float64, n),
		buckets:  make([][]int32, 1),
		inBucket: make([]int32, n),
		wasInR:   make([]bool, n),
		inFront:  make([]bool, n),
		Root:     deltastep.Root{Hybrid: p.Hybrid},
	}
	for i := range st.dist {
		st.dist[i] = math.Inf(1)
		st.inBucket[i] = -1
	}
	return st
}

func (st *peState) owns(v int32) bool { return v >= st.ownerLo && v < st.ownerHi }

func (st *peState) maxBuckets() int {
	if st.params.MaxBuckets > 0 {
		return st.params.MaxBuckets
	}
	return 1 << 16
}

func (st *peState) bucketOf(d float64) int32 {
	b := int32(d / st.delta)
	if int(b) >= st.maxBuckets() {
		b = int32(st.maxBuckets() - 1)
	}
	if b < 0 {
		b = 0
	}
	return b
}

func (st *peState) place(v int32, d float64) {
	li := v - st.ownerLo
	b := st.bucketOf(d)
	for int(b) >= len(st.buckets) {
		st.buckets = append(st.buckets, nil)
	}
	st.buckets[b] = append(st.buckets[b], v)
	st.inBucket[li] = b
}

func (st *peState) localMinBucket() int32 {
	for b := int32(0); int(b) < len(st.buckets); b++ {
		for _, v := range st.buckets[b] {
			li := v - st.ownerLo
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
		if st.owns(m.source) {
			st.dist[m.source-st.ownerLo] = 0
			st.place(m.source, 0)
		}
		st.contribute(pe, 0)
	}
}

// Idle implements runtime.Handler: bulk-synchronous, no background work.
func (st *peState) Idle(pe *runtime.PE) bool { return false }

// send routes one wire item through tramlib, stamping its grid target.
func (st *peState) send(pe *runtime.PE, dst int, w wire) {
	st.sent++
	w.Dest = int32(dst)
	if batch := st.shared.tm.Insert(pe.Index(), dst, w); batch != nil {
		pe.Send(batch.DestPE, batchMsg{items: batch.Items}, len(batch.Items))
	}
}

// announce broadcasts a frontier entry along this vertex's grid row — the
// row-confined communication pattern of the 2-D layout.
func (st *peState) announce(pe *runtime.PE, v int32, d float64, kind wireKind) {
	grid := st.shared.grid
	r := grid.VertexRow(v)
	_, cols := grid.Grid()
	for c := 0; c < cols; c++ {
		st.send(pe, grid.PEAt(r, c), wire{Vertex: v, Dist: d, Kind: kind})
	}
	st.frontierMsgs += int64(cols)
}

func (st *peState) receiveBatch(pe *runtime.PE, items []wire) {
	me := pe.Index()
	var forwards map[int][]wire
	for _, w := range items {
		// Every wire carries its intended grid PE; process-granularity
		// batches are demuxed here exactly like the SMP comm thread in the
		// 1-D algorithms.
		if dest := int(w.Dest); dest != me {
			if forwards == nil {
				forwards = make(map[int][]wire)
			}
			forwards[dest] = append(forwards[dest], w)
			continue
		}
		st.received++
		if st.params.ComputeCost > 0 {
			pe.Work(st.params.ComputeCost)
		}
		if w.Kind == wireCandidate {
			st.applyCandidate(w)
		} else {
			st.relaxStored(pe, w)
		}
	}
	for dst, group := range forwards {
		pe.Send(dst, batchMsg{items: group}, len(group))
	}
	st.shared.tm.Release(items) // batch unpacked: recycle its capacity
}

// applyCandidate applies a relaxation result at the vertex owner.
func (st *peState) applyCandidate(w wire) {
	li := w.Vertex - st.ownerLo
	if w.Dist >= st.dist[li] {
		st.rejected++
		return
	}
	st.dist[li] = w.Dist
	st.changed = true
	if st.bfMode {
		if !st.inFront[li] {
			st.inFront[li] = true
			st.frontier = append(st.frontier, w.Vertex)
		}
		return
	}
	st.place(w.Vertex, w.Dist)
}

// relaxStored relaxes this PE's stored edges of the announced vertex,
// producing column-confined candidates.
func (st *peState) relaxStored(pe *runtime.PE, w wire) {
	for _, he := range st.edges[w.Vertex] {
		switch w.Kind {
		case wireFrontierLight:
			if he.w > st.delta {
				continue
			}
		case wireFrontierHeavy:
			if he.w <= st.delta {
				continue
			}
		}
		st.relaxations++
		if st.params.ComputeCost > 0 {
			pe.Work(st.params.ComputeCost)
		}
		st.send(pe, st.shared.grid.Owner(he.to), wire{Vertex: he.to, Dist: w.Dist + he.w, Kind: wireCandidate})
	}
}

// drainLight releases owned current-bucket vertices as light frontier.
func (st *peState) drainLight(pe *runtime.PE) {
	b := st.current
	if int(b) >= len(st.buckets) {
		return
	}
	entries := st.buckets[b]
	st.buckets[b] = nil
	for _, v := range entries {
		li := v - st.ownerLo
		if st.inBucket[li] != b || st.bucketOf(st.dist[li]) != b {
			continue
		}
		st.inBucket[li] = -1
		if !st.wasInR[li] {
			st.wasInR[li] = true
			st.settled = append(st.settled, v)
			st.epochSettled++
		}
		st.announce(pe, v, st.dist[li], wireFrontierLight)
	}
}

func (st *peState) relaxHeavyPhase(pe *runtime.PE) {
	for _, v := range st.settled {
		li := v - st.ownerLo
		st.wasInR[li] = false
		st.announce(pe, v, st.dist[li], wireFrontierHeavy)
	}
	st.settled = st.settled[:0]
}

func (st *peState) enterBF() {
	st.bfMode = true
	for b := range st.buckets {
		for _, v := range st.buckets[b] {
			li := v - st.ownerLo
			if st.inBucket[li] == int32(b) && !st.inFront[li] {
				st.inFront[li] = true
				st.frontier = append(st.frontier, v)
				st.inBucket[li] = -1
			}
		}
		st.buckets[b] = nil
	}
}

func (st *peState) bfRound(pe *runtime.PE) {
	front := st.frontier
	st.frontier = nil
	for _, v := range front {
		li := v - st.ownerLo
		st.inFront[li] = false
		st.announce(pe, v, st.dist[li], wireFrontierAll)
	}
}

func (st *peState) contribute(pe *runtime.PE, epoch int64) {
	for _, batch := range st.shared.tm.FlushSet(pe.Index()) {
		pe.Send(batch.DestPE, batchMsg{items: batch.Items}, len(batch.Items))
	}
	s := &deltastep.Status{
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

// OnBroadcast executes the root's command.
func (st *peState) OnBroadcast(pe *runtime.PE, epoch int64, payload any) {
	ctrl := payload.(deltastep.Ctrl)
	switch ctrl.Cmd {
	case deltastep.CmdTerminate:
		pe.Exit()
		return
	case deltastep.CmdWait:
	case deltastep.CmdDrainLight, deltastep.CmdAdvance:
		st.current = ctrl.Bucket
		st.drainLight(pe)
	case deltastep.CmdHeavy:
		st.relaxHeavyPhase(pe)
	case deltastep.CmdBellmanFord:
		if !st.bfMode {
			st.enterBF()
		}
		st.bfRound(pe)
	}
	st.contribute(pe, epoch+1)
}
