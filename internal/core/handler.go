package core

import (
	"math"
	"time"

	"acic/internal/arena"
	"acic/internal/cacheline"
	"acic/internal/graph"
	"acic/internal/histogram"
	"acic/internal/metrics"
	"acic/internal/partition"
	"acic/internal/runtime"
	"acic/internal/trace"
	"acic/internal/tram"
)

// Message types exchanged between PEs. Update batches are the only
// high-volume traffic; everything else is control.
type (
	// seedMsg starts the algorithm on the source vertex's owner.
	seedMsg struct{ source int32 }
	// startMsg makes a PE join the continuous reduction cycle.
	startMsg struct{}
	// batchMsg carries aggregated updates (a tram flush or an
	// intra-process demux forward). It travels as a pointer drawn from
	// the run's pools (ship), so a send boxes nothing; receiveBatch or the
	// wire encoder hands it back.
	batchMsg struct{ items []Update }
)

// ctrlMsg is the broadcast payload closing every reduction cycle. It
// travels as a pointer, so a broadcast boxes nothing: the root sends its
// own ctrl (only one broadcast is live at a time, because a PE contributes
// to epoch e+1 only after it handled broadcast e), and the wire decoder
// draws one from the run's pools and marks it pooled, for OnBroadcast to
// hand back.
type ctrlMsg struct {
	thresholds histogram.Thresholds
	terminate  bool
	pooled     bool
}

// reduceVal is the per-PE contribution combined up the reduction tree.
// holds carries each PE's hold accounting from the previous broadcast's
// drain, so the root's audit record sees machine-wide hold populations.
// Values (with their histograms) recycle through runPools: combineReduce
// frees the absorbed side, OnReduction frees the merged result.
type reduceVal struct {
	hist  *histogram.Histogram
	holds holdStats
}

// combineReduce merges b into a and recycles b. It may run concurrently on
// different PE goroutines; the pool is mutex-guarded.
func (sh *sharedState) combineReduce(a, b any) any {
	av, bv := a.(*reduceVal), b.(*reduceVal)
	av.hist.Merge(bv.hist)
	av.holds.add(bv.holds)
	sh.pools.putReduceVal(bv)
	return av
}

// peState is the ACIC handler living on one PE. All fields are owned by the
// PE goroutine; the tram manager handles its own cross-PE sharing.
type peState struct {
	shared *sharedState
	params Params

	me     int       // this PE's index
	lo     int32     // v is this PE's local vertex v-lo iff uint32(v-lo) < uint32(len(dist))
	dist   []float64 // tentative distances for the local vertices
	parent []int32   // predecessor on the best known path, -1 if none
	// sent is indexed by vertex id, over the whole graph: the smallest
	// distance this PE has handed to tramlib or tram_hold for the vertex,
	// +Inf if none (see createUpdate).
	sent []float64

	hist     *histogram.Histogram
	queue    *vertexQueue // accepted updates by bucket; t_pq is its cursor
	tramHold *bucketHold  // per-bucket holds above t_tram

	// tramDrainFn is tram_hold's drain callback, built once at construction
	// so OnBroadcast's drain loop allocates no closure.
	tramDrainFn func(Update)

	// fwdBufs / fwdTouched are receiveBatch's demux scratch: one slot per
	// PE, buffers borrowed from the tram pool only for owners that appear
	// in the batch. fwdTouched lists the borrowed slots so teardown is
	// O(owners present), not O(numPEs).
	fwdBufs    [][]Update
	fwdTouched []int32

	tTram, tPQ int

	// Local measurement counters, summed by the driver after the run.
	rejected    int64
	relaxations int64
	suppressed  int64

	// pendingHolds is this PE's hold accounting from the most recent
	// broadcast's drain; it rides the next contribution so the root's
	// audit record aggregates machine-wide hold movement.
	pendingHolds holdStats

	// debt is the contribution this PE owes the next reduction: OnBroadcast
	// incurs it, worked pays it after runtime.ReportAfterWork pq pops or
	// unpacked updates (one histogram snapshot, hold scan and tram flush per
	// k units of work), and Idle pays it as soon as it has nothing it may pop.
	debt runtime.Debt

	// Root-only state (PE 0). prevActive is the previous reduction's
	// active population, the direction the threshold rule reads; ctrl is
	// the payload every broadcast carries.
	ctrl         ctrlMsg
	reductions   int64
	prevEqualSum int64
	prevActive   int64
	terminated   bool
	auditTrace   []ThresholdAudit
}

// sharedState is read-mostly state shared by all PEs of one run. ar is the
// update-chunk arena shared with tramlib (see DESIGN.md, "Arena
// ownership"): hold chunks and demux buffers recycle through the same
// per-PE freelists as tram batches. pools additionally recycles reduction
// contributions. g is the graph the PEs run on, relabelled for an
// over-decomposed layout, and part its block partition.
type sharedState struct {
	g     *graph.Graph
	part  *partition.OneD
	tm    *tram.Manager[Update]
	tr    *trace.Recorder
	met   coreMetrics
	ar    *arena.Arena[Update]
	pools *runPools

	// bucketWidth is the histogram's bucket width, for allocating pooled
	// contributions.
	bucketWidth float64
}

// coreMetrics are the algorithm's own instruments, nil (free no-ops) when
// the run has no metrics registry. They mirror the per-PE fields the
// driver sums after the run, but are observable mid-run and per PE — the
// histogram additionally records the size distribution of received update
// batches, the quantity tram's aggregation trades latency for.
type coreMetrics struct {
	created     *metrics.Counter
	suppressed  *metrics.Counter
	processed   *metrics.Counter
	rejected    *metrics.Counter
	relaxations *metrics.Counter
	tramParked  *metrics.Counter
	pqParked    *metrics.Counter
	holdDrained *metrics.Counter
	reductions  *metrics.Counter
	batchItems  *metrics.Histogram
}

func newCoreMetrics(reg *metrics.Registry) coreMetrics {
	return coreMetrics{
		created:     reg.Counter("core.updates_created"),
		suppressed:  reg.Counter("core.updates_suppressed"),
		processed:   reg.Counter("core.updates_processed"),
		rejected:    reg.Counter("core.updates_rejected"),
		relaxations: reg.Counter("core.relaxations"),
		tramParked:  reg.Counter("core.tram_hold_parked"),
		pqParked:    reg.Counter("core.pq_hold_parked"),
		holdDrained: reg.Counter("core.hold_drained"),
		reductions:  reg.Counter("core.reductions"),
		batchItems:  reg.Histogram("core.batch_items"),
	}
}

var _ runtime.Handler = (*peState)(nil)

// bucketHold is tram_hold: a list of parked updates per histogram bucket,
// with the running population and the occupied prefix kept at every
// append and drain. A broadcast reads the population without recounting
// and drains only the buckets below both its threshold and top, so the
// control cycle costs the buckets in use.
type bucketHold struct {
	lists []arena.List[Update]
	held  int64 // updates parked across all buckets
	top   int   // one past the highest bucket appended to since held was last 0
}

// add parks u in bucket b.
//
//acic:noalloc
func (h *bucketHold) add(ar *arena.Arena[Update], pe, b int, u Update) {
	h.lists[b].Append(ar, pe, u)
	h.held++
	if b >= h.top {
		h.top = b + 1
	}
}

// drain releases buckets [0, upTo] in ascending order (lowest distances
// first, §II-C) through fn and returns how many updates it released. Each
// emptied chunk goes straight back to pe's freelist.
func (h *bucketHold) drain(ar *arena.Arena[Update], pe, upTo int, fn func(Update)) int64 {
	if h.held == 0 {
		return 0
	}
	var n int64
	for b, end := 0, min(upTo+1, h.top); b < end; b++ {
		if k := h.lists[b].Len(); k > 0 {
			n += int64(k)
			h.lists[b].Drain(ar, pe, fn)
		}
	}
	h.held -= n
	if h.held == 0 {
		h.top = 0
	}
	return n
}

// newPEState builds one PE's handler, drawing its large allocations from
// slot so repeated runs through a Scratch reuse them.
func newPEState(sh *sharedState, pe *runtime.PE, p Params, slot *peSlot) *peState {
	me := pe.Index()
	lo, hi := sh.part.Range(me)
	n := int(hi - lo)
	if cap(slot.dist) >= n {
		slot.dist = slot.dist[:n]
		slot.parent = slot.parent[:n]
	} else {
		slot.dist = make([]float64, n)
		slot.parent = make([]int32, n)
	}
	if nv := sh.g.NumVertices(); cap(slot.sent) >= nv {
		slot.sent = slot.sent[:nv]
	} else {
		slot.sent = make([]float64, nv)
	}
	if slot.hist == nil {
		slot.hist = histogram.New(histogram.DefaultBuckets, p.BucketWidth)
	} else {
		slot.hist.Reset()
	}
	slot.queue.reset(n, p.BucketWidth)
	if slot.tramHold.lists == nil {
		slot.tramHold.lists = make([]arena.List[Update], histogram.DefaultBuckets)
	}
	if slot.fwdBufs == nil {
		// receiveBatch rewrites both for every forwarded update; on lines
		// of their own, the small arrays of neighbouring PEs do not
		// contend (a plain make packs them side by side). Each distinct
		// owner appears at most once per batch, so the touched list can
		// never outgrow its capacity and reallocate.
		slot.fwdBufs = cacheline.Make[[]Update](sh.part.NumPEs())
		slot.fwdTouched = cacheline.Make[int32](sh.part.NumPEs())[:0]
	}
	// The state every update rewrites (counters, debt, fwdTouched's
	// header) on lines no other PE's state shares, whatever its size.
	st := cacheline.New[peState]()
	*st = peState{
		shared:       sh,
		params:       p,
		me:           me,
		lo:           lo,
		dist:         slot.dist,
		parent:       slot.parent,
		sent:         slot.sent,
		hist:         slot.hist,
		queue:        &slot.queue,
		tramHold:     &slot.tramHold,
		fwdBufs:      slot.fwdBufs,
		fwdTouched:   slot.fwdTouched[:0],
		tTram:        histogram.DefaultBuckets - 1, // everything flows until told otherwise
		tPQ:          histogram.DefaultBuckets - 1,
		prevEqualSum: -1,
	}
	for i := range st.dist {
		st.dist[i] = math.Inf(1)
		st.parent[i] = -1
	}
	for i := range st.sent {
		st.sent[i] = math.Inf(1)
	}
	st.tramDrainFn = func(u Update) {
		// A held update that a later, better one from this PE has
		// superseded would only be rejected on arrival: complete it here.
		if u.Dist > st.sent[u.Vertex] {
			st.hist.AddProcessed(u.Dist)
			st.shared.met.processed.Inc(st.me)
			return
		}
		st.tramInsert(pe, st.shared.part.Owner(u.Vertex), u)
	}
	return st
}

// Deliver implements runtime.Handler.
func (st *peState) Deliver(pe *runtime.PE, msg any) {
	switch m := msg.(type) {
	case *batchMsg:
		st.receiveBatch(pe, m)
	case seedMsg:
		st.seed(pe, m.source)
	case startMsg:
		st.contribute(pe, 0)
	}
}

// seed performs the virtual relaxation of the source vertex: distance 0,
// one onward update per out-edge (§II-A). The virtual update is counted
// created and processed so the quiescence counters can never both be zero
// after seeding, closing the empty-start termination race.
func (st *peState) seed(pe *runtime.PE, source int32) {
	st.hist.AddCreated(0)
	st.shared.met.created.Inc(st.me)
	st.dist[source-st.lo] = 0
	st.relaxOutEdges(pe, source, 0)
	st.hist.AddProcessed(0)
	st.shared.met.processed.Inc(st.me)
}

// receiveBatch demultiplexes an arriving tram batch. Under process-
// granularity aggregation the batch may hold updates for sibling PEs; those
// are re-bundled per owner and forwarded intra-process, the role of the SMP
// communication thread in the paper's configuration.
func (st *peState) receiveBatch(pe *runtime.PE, m *batchMsg) {
	me := pe.Index()
	n := len(m.items)
	st.shared.met.batchItems.Observe(me, int64(n))
	lo, size := st.lo, uint32(len(st.dist))
	for _, u := range m.items {
		if li := uint32(u.Vertex - lo); li < size {
			st.receiveUpdate(pe, li, u)
			continue
		}
		owner := st.shared.part.Owner(u.Vertex)
		// Per-owner groups go into buffers borrowed from the tram pool.
		// A batch never exceeds the tram capacity, so a group always fits
		// one full-capacity buffer.
		buf := st.fwdBufs[owner]
		if buf == nil {
			buf = st.shared.tm.Borrow(me)
			st.fwdTouched = append(st.fwdTouched, int32(owner))
		}
		st.fwdBufs[owner] = append(buf, u)
	}
	for _, owner := range st.fwdTouched {
		group := st.fwdBufs[owner]
		st.fwdBufs[owner] = nil
		// Ownership of the buffer travels with the message; the receiving
		// PE's receiveBatch returns it to the pool.
		st.ship(pe, tram.Batch[Update]{DestPE: int(owner), Items: group})
	}
	st.fwdTouched = st.fwdTouched[:0]
	// The batch is fully unpacked (items copied or applied): recycle its
	// backing array into this PE's freelist, lock-free, and its header.
	st.shared.tm.ReleaseTo(me, m.items)
	st.shared.pools.putBatch(m)
	// Unpacking counts as work: a PE that is flooded with batches and never
	// reaches its idle trigger still reports.
	st.worked(pe, n)
}

// worked credits n units of work against the contribution this PE owes and
// pays it once it is due.
func (st *peState) worked(pe *runtime.PE, n int) {
	if epoch, due := st.debt.Worked(n); due {
		st.contribute(pe, epoch)
	}
}

// receiveUpdate applies the arrival rules of §II-C to u, whose vertex is
// this PE's local vertex li: an update that improves the vertex distance is
// applied immediately and files the vertex in the queue by its bucket
// (parked when that is above t_pq); anything else is rejected and counted
// processed. A queued update the new one supersedes is complete: it would
// produce no onward updates.
//
//acic:noalloc
func (st *peState) receiveUpdate(pe *runtime.PE, li uint32, u Update) {
	if st.params.ComputeCost > 0 {
		pe.Work(st.params.ComputeCost)
	}
	b := st.hist.BucketOf(u.Dist)
	if u.Dist < st.dist[li] {
		st.dist[li] = u.Dist
		st.parent[li] = u.Pred
		if old, superseded := st.queue.push(int32(li), b, u.Dist); superseded {
			st.hist.AddProcessedIn(old)
			st.shared.met.processed.Inc(st.me)
		}
		if b > st.tPQ {
			st.shared.met.pqParked.Inc(st.me)
		}
		return
	}
	st.rejected++
	st.hist.AddProcessedIn(b)
	st.shared.met.rejected.Inc(st.me)
	st.shared.met.processed.Inc(st.me)
}

// Idle implements the paper's idle trigger: pop a vertex from the lowest
// non-empty bucket within t_pq and relax its out-edges at its distance
// (§II-C); the queue holds no superseded entries, so every pop relaxes.
// One pop per invocation keeps the PE responsive to arriving messages. A
// PE with nothing it may pop has nothing to do until a message arrives, so
// it pays an owed contribution immediately: an idle machine cycles at the
// speed of its own reduction, which is what ends the run promptly.
//
// The noalloc promise covers the pop and the relaxation. Paying a
// contribution (here, or from worked once per runtime.ReportAfterWork
// pops) draws a snapshot from the run's pool, which allocates only when
// the pool is empty: a few times per Scratch, never per pop.
//
//acic:noalloc
func (st *peState) Idle(pe *runtime.PE) bool {
	li, b, ok := st.queue.pop(st.tPQ)
	if !ok {
		epoch, owed := st.debt.Pay()
		if owed {
			st.contribute(pe, epoch)
		}
		return owed
	}
	st.relaxOutEdges(pe, st.lo+li, st.dist[li])
	st.hist.AddProcessedIn(b)
	st.shared.met.processed.Inc(st.me)
	st.worked(pe, 1)
	return true
}

// relaxOutEdges creates one onward update per out-edge of v (§II-A) and
// routes each through the tram threshold. Each chunk of the row takes two
// passes: filterChunk drops, without a branch per candidate, every one no
// better than sent (counted suppressed at once), and createUpdate takes the
// survivors, checking sent again. sent only falls, so the outcome is the
// one-at-a-time loop's exactly (DESIGN.md, "The update kernel").
//
//acic:noalloc
func (st *peState) relaxOutEdges(pe *runtime.PE, v int32, d float64) {
	ts, ws := st.shared.g.Neighbors(int(v))
	deg := len(ts)
	var keep [rowChunk]uint8
	dropped := 0
	for len(ts) > 0 {
		ct := ts[:min(len(ts), rowChunk)]
		cw := ws[:len(ct)]
		k := filterChunk(&keep, ct, cw, d, st.sent)
		dropped += len(ct) - k
		for _, i := range keep[:k] {
			st.createUpdate(pe, Update{Vertex: ct[i], Pred: v, Dist: d + cw[i]})
		}
		ts, ws = ts[len(ct):], ws[len(ct):]
	}
	st.suppressed += int64(dropped)
	st.shared.met.suppressed.Add(st.me, int64(dropped))
	st.relaxations += int64(deg)
	st.shared.met.relaxations.Add(st.me, int64(deg))
	if st.params.ComputeCost > 0 {
		pe.Work(time.Duration(deg) * st.params.ComputeCost)
	}
}

// rowChunk is the edges filterChunk takes at a time; keep indexes them in uint8.
const rowChunk = 64

// filterChunk lists in keep the index of every edge of a chunk whose
// candidate d + w is below sent[target], and returns how many. The loads of
// sent are independent, so their misses overlap; inlined, k would spill.
//
//go:noinline
//acic:noalloc
func filterChunk(keep *[rowChunk]uint8, ts []int32, ws []float64, d float64, sent []float64) int {
	ws = ws[:len(ts)]
	k := 0
	for i, t := range ts {
		keep[k&(rowChunk-1)] = uint8(i)
		k += b2i(d+ws[i] < sent[t])
	}
	return k
}

// b2i is 1 for true and 0 for false: a SETcc, not a jump.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// createUpdate registers a new update in the histogram and either hands it
// to tramlib (bucket within t_tram) or parks it in tram_hold.
//
// A candidate that cannot win is never created: one no better than an
// update this PE already handed on for the vertex (sent), or, for a vertex
// this PE owns, no better than its distance. Either would be rejected on
// arrival, because dist only falls and the earlier update is delivered on
// every fabric that terminates. The dropped candidate touches neither the
// histogram nor the quiescence counters; it is counted suppressed.
//
//acic:noalloc
func (st *peState) createUpdate(pe *runtime.PE, u Update) {
	li := uint32(u.Vertex - st.lo)
	local := li < uint32(len(st.dist))
	if !(u.Dist < st.sent[u.Vertex]) || local && u.Dist >= st.dist[li] {
		st.suppressed++
		st.shared.met.suppressed.Inc(st.me)
		return
	}
	dst := st.me
	if !local {
		dst = st.shared.part.Owner(u.Vertex)
	}
	st.sent[u.Vertex] = u.Dist
	b := st.hist.AddCreated(u.Dist)
	st.shared.met.created.Inc(st.me)
	if b <= st.tTram {
		st.tramInsert(pe, dst, u)
	} else {
		st.tramHold.add(st.shared.ar, st.me, b, u)
		st.shared.met.tramParked.Inc(st.me)
	}
}

// tramInsert feeds tramlib the update for owner dst and ships the flushed
// batch when one comes back.
//
//acic:noalloc
func (st *peState) tramInsert(pe *runtime.PE, dst int, u Update) {
	if batch := st.shared.tm.Insert(pe.Index(), dst, u); batch != nil {
		st.ship(pe, *batch)
	}
}

// ship sends b's items to b.DestPE in a header from the run's pools.
//
//acic:noalloc
func (st *peState) ship(pe *runtime.PE, b tram.Batch[Update]) {
	m := st.shared.pools.getBatch()
	m.items = b.Items
	pe.Send(b.DestPE, m, len(m.items))
}

// contribute snapshots the local histogram and the last drain's hold
// accounting into reduction epoch.
func (st *peState) contribute(pe *runtime.PE, epoch int64) {
	sh := st.shared
	rv := sh.pools.getReduceVal(sh.bucketWidth)
	st.hist.SnapshotInto(rv.hist)
	rv.holds = st.pendingHolds
	st.pendingHolds = holdStats{}
	pe.Contribute(epoch, rv)
}

// OnReduction runs at the root: Algorithm 1 plus the quiescence check.
func (st *peState) OnReduction(pe *runtime.PE, epoch int64, value any) {
	rv := value.(*reduceVal)
	// Everything below copies what it keeps (audit, trace snapshots), so
	// the merged contribution goes back to the pool on every exit path.
	defer st.shared.pools.putReduceVal(rv)
	if st.terminated {
		return
	}
	global := rv.hist
	st.reductions++
	st.shared.met.reductions.Inc(st.me)

	ctrl := &st.ctrl
	*ctrl = ctrlMsg{}

	// Quiescence: equal created/processed sums in two consecutive
	// reductions (§II-D). The paper requires two to close the race where
	// counters match while messages are still unprocessed.
	c, p := global.Created, global.Processed
	if c == p && c > 0 {
		if st.prevEqualSum == c {
			ctrl.terminate = true
		}
		st.prevEqualSum = c
	} else {
		st.prevEqualSum = -1
	}

	numPEs := pe.NumPEs()
	hp := histogram.Params{PTram: st.params.PTram, PPQ: st.params.PPQ, LowWatermarkPerPE: st.params.LowWatermarkPerPE}
	active := global.Positive()
	growing := active > st.prevActive
	st.prevActive = active
	if st.params.SmoothThresholds {
		ctrl.thresholds = histogram.ComputeSmoothThresholds(global, active, numPEs, hp, growing)
	} else {
		ctrl.thresholds = histogram.ComputeThresholds(global, active, numPEs, hp, growing)
	}

	if st.params.AuditTrace {
		st.auditTrace = append(st.auditTrace,
			newThresholdAudit(epoch, global, rv.holds, ctrl.thresholds, growing))
	}

	// Broadcast at once: what paces the cycle is the work every PE does
	// before it contributes again (runtime.ReportAfterWork).
	pe.Broadcast(epoch, ctrl)
}

// OnBroadcast applies a control broadcast on every PE: adopt the new
// thresholds, drain what the tram threshold releases (lowest buckets
// first, §II-C), explicitly flush tramlib (tail progress, §II-D), and owe
// the next reduction a contribution, paid by worked or Idle. The pq
// threshold moves nothing: it is the cursor Idle pops up to, and the
// accounting reports how many queued updates it released or re-held.
func (st *peState) OnBroadcast(pe *runtime.PE, epoch int64, payload any) {
	m := payload.(*ctrlMsg)
	ctrl := *m
	if ctrl.pooled {
		st.shared.pools.putCtrl(m)
	}
	if ctrl.terminate {
		st.terminated = true
		pe.Exit()
		return
	}
	oldPQ := st.tPQ
	st.tTram = ctrl.thresholds.Tram
	st.tPQ = ctrl.thresholds.PQ

	// Release tram_hold within the new threshold (dead-update elision
	// lives in the drain callback).
	holds := holdStats{
		tramHeldBefore: st.tramHold.held,
		pqHeldBefore:   st.queue.heldAbove(oldPQ),
		pqHeldAfter:    st.queue.heldAbove(st.tPQ),
	}
	holds.tramDrained = st.tramHold.drain(st.shared.ar, st.me, st.tTram, st.tramDrainFn)
	holds.tramHeldAfter = st.tramHold.held
	if d := holds.pqHeldBefore - holds.pqHeldAfter; d > 0 {
		holds.pqDrained = d
	} else {
		holds.pqReheld = -d
	}
	st.pendingHolds = holds
	if drained := holds.tramDrained + holds.pqDrained; drained > 0 {
		st.shared.met.holdDrained.Add(st.me, drained)
		if st.shared.tr != nil {
			st.shared.tr.Record(st.me, trace.KindHoldDrain, drained)
		}
	}
	// Explicit tram flush: guarantees buffered updates move even when the
	// tail of the graph cannot fill a buffer.
	for _, batch := range st.shared.tm.FlushSet(pe.Index()) {
		st.ship(pe, batch)
	}
	st.debt.Owe(epoch + 1)
}
