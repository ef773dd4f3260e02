package core

import (
	"math"
	"time"

	"acic/internal/arena"
	"acic/internal/graph"
	"acic/internal/histogram"
	"acic/internal/metrics"
	"acic/internal/partition"
	"acic/internal/pq"
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

// ctrlMsg is the broadcast payload closing every reduction cycle.
type ctrlMsg struct {
	thresholds histogram.Thresholds
	// lowestActive is a lower bound on the smallest distance of any active
	// update, used by the optional vertex-finalization condition.
	lowestActive float64
	terminate    bool
	finalizedAll bool
}

// reduceVal is the per-PE contribution combined up the reduction tree.
// holds carries each PE's hold accounting from the previous broadcast's
// drain, so the root's audit record sees machine-wide hold populations.
// Values (with their histograms) recycle through runPools: combineReduce
// frees the absorbed side, OnReduction frees the merged result.
type reduceVal struct {
	hist      *histogram.Histogram
	finalized int64
	holds     holdStats
}

// combineReduce merges b into a and recycles b. It may run concurrently on
// different PE goroutines; the pool is mutex-guarded.
func (sh *sharedState) combineReduce(a, b any) any {
	av, bv := a.(*reduceVal), b.(*reduceVal)
	av.hist.Merge(bv.hist)
	av.finalized += bv.finalized
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
	dist   []float64 // tentative distances for the local vertices
	parent []int32   // predecessor on the best known path, -1 if none
	// sent is indexed by global vertex: the smallest distance this PE has
	// handed to tramlib or tram_hold for it, +Inf if none (see createUpdate).
	sent []float64

	hist     *histogram.Histogram
	queue    *pq.BinaryHeap       // accepted updates, min-distance first
	pqHold   []arena.List[Update] // per-bucket holds above t_pq
	tramHold []arena.List[Update] // per-bucket holds above t_tram

	// tramDrainFn / pqDrainFn are the hold-drain callbacks, built once at
	// construction so OnBroadcast's drain loop allocates no closures.
	tramDrainFn func(Update)
	pqDrainFn   func(Update)

	// fwdBufs / fwdTouched are receiveBatch's demux scratch: one slot per
	// PE, buffers borrowed from the tram pool only for owners that appear
	// in the batch. fwdTouched lists the borrowed slots so teardown is
	// O(owners present), not O(numPEs).
	fwdBufs    [][]Update
	fwdTouched []int32

	tTram, tPQ   int
	lowestActive float64

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
	// k units of work), and Idle pays it as soon as the queue is empty.
	debt runtime.Debt

	// Root-only state (PE 0). prevActive is the previous reduction's
	// active population, the direction the threshold rule reads.
	reductions     int64
	prevEqualSum   int64
	prevActive     int64
	terminated     bool
	finalizedEarly bool
	auditTrace     []ThresholdAudit
}

// Partition abstracts vertex-to-PE placement so ACIC can run on the
// paper's vertex-balanced 1-D blocks (partition.OneD) or the future-work
// over-decomposed chunked layout (partition.Chunked, §V).
type Partition interface {
	NumPEs() int
	Owner(v int32) int
	Size(pe int) int
	LocalIndex(v int32) int
	// LocalOn is LocalIndex without the owner lookup, for the owner itself.
	LocalOn(pe int, v int32) int
	GlobalOf(pe, local int) int32
}

var (
	_ Partition = (*partition.OneD)(nil)
	_ Partition = (*partition.Chunked)(nil)
)

// sharedState is read-mostly state shared by all PEs of one run. ar is the
// update-chunk arena shared with tramlib (see DESIGN.md, "Arena
// ownership"): hold chunks and demux buffers recycle through the same
// per-PE freelists as tram batches. pools additionally recycles reduction
// contributions.
type sharedState struct {
	g     *graph.Graph
	part  Partition
	tm    *tram.Manager[Update]
	tr    *trace.Recorder
	met   coreMetrics
	ar    *arena.Arena[Update]
	pools *runPools

	// Histogram shape, for allocating pooled contributions.
	bucketCount int
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

// newPEState builds one PE's handler, drawing its large allocations from
// slot so repeated runs through a Scratch reuse them.
func newPEState(sh *sharedState, pe *runtime.PE, p Params, slot *peSlot) *peState {
	me := pe.Index()
	n := sh.part.Size(me)
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
		slot.hist = histogram.New(p.BucketCount, p.BucketWidth)
	} else {
		slot.hist.Reset()
	}
	if slot.queue == nil {
		slot.queue = pq.NewBinaryHeap(64)
	} else {
		slot.queue.Reset()
	}
	if slot.pqHold == nil {
		slot.pqHold = make([]arena.List[Update], p.BucketCount)
		slot.tramHold = make([]arena.List[Update], p.BucketCount)
	} else {
		// An early-terminated previous run (TerminateOnAllFinal) can leave
		// parked updates behind; hand their chunks back to the arena.
		for b := range slot.pqHold {
			if slot.pqHold[b].Len() > 0 {
				slot.pqHold[b].Drain(sh.ar, me, func(Update) {})
			}
			if slot.tramHold[b].Len() > 0 {
				slot.tramHold[b].Drain(sh.ar, me, func(Update) {})
			}
		}
	}
	if slot.fwdBufs == nil {
		slot.fwdBufs = make([][]Update, sh.part.NumPEs())
		// Each distinct owner appears at most once per batch, so the
		// touched list can never outgrow this.
		slot.fwdTouched = make([]int32, 0, sh.part.NumPEs())
	}
	st := &peState{
		shared:       sh,
		params:       p,
		me:           me,
		dist:         slot.dist,
		parent:       slot.parent,
		sent:         slot.sent,
		hist:         slot.hist,
		queue:        slot.queue,
		pqHold:       slot.pqHold,
		tramHold:     slot.tramHold,
		fwdBufs:      slot.fwdBufs,
		fwdTouched:   slot.fwdTouched[:0],
		tTram:        p.BucketCount - 1, // everything flows until told otherwise
		tPQ:          p.BucketCount - 1,
		lowestActive: 0,
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
	st.pqDrainFn = func(u Update) {
		// A held update whose vertex has since improved past it is dead:
		// complete it here rather than pay a heap push/pop.
		if st.localDist(u.Vertex) < u.Dist {
			st.hist.AddProcessed(u.Dist)
			st.shared.met.processed.Inc(st.me)
			return
		}
		st.queue.Push(pq.Item{Key: u.Dist, Value: int64(u.Vertex)})
	}
	return st
}

// localDist and setDist index this PE's own vertices, local by construction.
func (st *peState) localDist(v int32) float64 { return st.dist[st.shared.part.LocalOn(st.me, v)] }
func (st *peState) setDist(v int32, d float64) {
	st.dist[st.shared.part.LocalOn(st.me, v)] = d
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
	case runtime.Quiescence:
		// ACIC detects quiescence itself; the runtime-level detector is
		// not enabled for ACIC runs. Ignore defensively.
	}
}

// seed performs the virtual relaxation of the source vertex: distance 0,
// one onward update per out-edge (§II-A). The virtual update is counted
// created and processed so the quiescence counters can never both be zero
// after seeding, closing the empty-start termination race.
func (st *peState) seed(pe *runtime.PE, source int32) {
	st.hist.AddCreated(0)
	st.shared.met.created.Inc(st.me)
	st.setDist(source, 0)
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
	for _, u := range m.items {
		owner := st.shared.part.Owner(u.Vertex)
		if owner == me {
			st.receiveUpdate(pe, u)
			continue
		}
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

// receiveUpdate applies the arrival rules of §II-C: an update that improves
// the vertex distance is applied immediately and parked in pq or pq_hold by
// the pq threshold; anything else is rejected and counted processed.
//
//acic:noalloc
func (st *peState) receiveUpdate(pe *runtime.PE, u Update) {
	if st.params.ComputeCost > 0 {
		pe.Work(st.params.ComputeCost)
	}
	if li := st.shared.part.LocalOn(st.me, u.Vertex); u.Dist < st.dist[li] {
		st.dist[li] = u.Dist
		st.parent[li] = u.Pred
		if b := st.hist.BucketOf(u.Dist); b <= st.tPQ {
			st.queue.Push(pq.Item{Key: u.Dist, Value: int64(u.Vertex)})
		} else {
			st.pqHold[b].Append(st.shared.ar, st.me, u)
			st.shared.met.pqParked.Inc(st.me)
		}
		return
	}
	st.rejected++
	st.hist.AddProcessed(u.Dist)
	st.shared.met.rejected.Inc(st.me)
	st.shared.met.processed.Inc(st.me)
}

// Idle implements the paper's idle trigger: pop the lowest-distance update
// and, only if it still carries the vertex's best known distance, relax the
// out-edges (§II-C). One pop per invocation keeps the PE responsive to
// arriving messages. A PE with nothing queued has nothing to wait for, so
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
	if st.queue.Len() == 0 {
		epoch, owed := st.debt.Pay()
		if owed {
			st.contribute(pe, epoch)
		}
		return owed
	}
	it := st.queue.Pop()
	v := int32(it.Value)
	d := it.Key
	if st.localDist(v) == d {
		st.relaxOutEdges(pe, v, d)
	}
	// Either way the update's processing is now complete: superseded
	// entries produce no onward updates.
	st.hist.AddProcessed(d)
	st.shared.met.processed.Inc(st.me)
	st.worked(pe, 1)
	return true
}

// relaxOutEdges creates one onward update per out-edge of v (§II-A) and
// routes each through the tram threshold.
//
//acic:noalloc
func (st *peState) relaxOutEdges(pe *runtime.PE, v int32, d float64) {
	ts, ws := st.shared.g.Neighbors(int(v))
	for i, w := range ts {
		st.createUpdate(pe, Update{Vertex: w, Pred: v, Dist: d + ws[i]})
	}
	st.relaxations += int64(len(ts))
	st.shared.met.relaxations.Add(st.me, int64(len(ts)))
	if st.params.ComputeCost > 0 {
		pe.Work(time.Duration(len(ts)) * st.params.ComputeCost)
	}
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
	dst := -1 // not looked up: sent already dominates u
	if u.Dist < st.sent[u.Vertex] {
		dst = st.shared.part.Owner(u.Vertex)
	}
	if dst < 0 || dst == st.me && u.Dist >= st.localDist(u.Vertex) {
		st.suppressed++
		st.shared.met.suppressed.Inc(st.me)
		return
	}
	st.sent[u.Vertex] = u.Dist
	b := st.hist.AddCreated(u.Dist)
	st.shared.met.created.Inc(st.me)
	if b <= st.tTram {
		st.tramInsert(pe, dst, u)
	} else {
		st.tramHold[b].Append(st.shared.ar, st.me, u)
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

// contribute snapshots the local histogram (and, optionally, the count of
// locally finalized vertices) into reduction epoch.
func (st *peState) contribute(pe *runtime.PE, epoch int64) {
	sh := st.shared
	rv := sh.pools.getReduceVal(sh.bucketCount, sh.bucketWidth)
	st.hist.SnapshotInto(rv.hist)
	rv.finalized = 0
	rv.holds = st.pendingHolds
	st.pendingHolds = holdStats{}
	if st.params.TerminateOnAllFinal {
		rv.finalized = st.countFinalized()
	}
	pe.Contribute(epoch, rv)
}

// countHeld sums a hold's population across all buckets.
func countHeld(hold []arena.List[Update]) int64 {
	var n int64
	for i := range hold {
		n += int64(hold[i].Len())
	}
	return n
}

// countFinalized counts local vertices whose distance is already below
// every active update's distance — they can never improve (non-negative
// weights). Unreachable vertices (Inf) never qualify, the flaw that made
// the paper abandon this as the sole termination condition.
func (st *peState) countFinalized() int64 {
	var n int64
	for _, d := range st.dist {
		if d < st.lowestActive {
			n++
		}
	}
	return n
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

	ctrl := ctrlMsg{}

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

	// Experimental early termination: all vertices finalized (§II-D).
	if st.params.TerminateOnAllFinal && rv.finalized == int64(st.shared.g.NumVertices()) {
		ctrl.terminate = true
		ctrl.finalizedAll = true
		st.finalizedEarly = true
	}

	numPEs := pe.NumPEs()
	hp := histogram.Params{PTram: st.params.PTram, PPQ: st.params.PPQ, LowWatermarkPerPE: st.params.LowWatermarkPerPE}
	active := global.Positive()
	growing := active > st.prevActive
	st.prevActive = active
	if st.params.SmoothThresholds {
		ctrl.thresholds = histogram.ComputeSmoothThresholds(global, numPEs, hp, growing)
	} else {
		ctrl.thresholds = histogram.ComputeThresholds(global, numPEs, hp, growing)
	}
	if lb := global.LowestNonEmpty(); lb >= 0 {
		ctrl.lowestActive = float64(lb) * global.Width()
	} else {
		ctrl.lowestActive = math.Inf(1)
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
// thresholds, drain the holds they release (lowest buckets first, §II-C),
// explicitly flush tramlib (tail progress, §II-D), and owe the next
// reduction a contribution, paid by worked or Idle.
func (st *peState) OnBroadcast(pe *runtime.PE, epoch int64, payload any) {
	ctrl := payload.(ctrlMsg)
	if ctrl.terminate {
		st.terminated = true
		pe.Exit()
		return
	}
	st.tTram = ctrl.thresholds.Tram
	st.tPQ = ctrl.thresholds.PQ
	st.lowestActive = ctrl.lowestActive

	holds := holdStats{
		tramHeldBefore: countHeld(st.tramHold),
		pqHeldBefore:   countHeld(st.pqHold),
	}

	// Release tram holds within the new threshold, ascending buckets.
	// Drain hands each emptied chunk straight back to this PE's freelist.
	ar := st.shared.ar
	for b := 0; b <= st.tTram; b++ {
		if n := st.tramHold[b].Len(); n > 0 {
			holds.tramDrained += int64(n)
			st.tramHold[b].Drain(ar, st.me, st.tramDrainFn)
		}
	}
	// Release pq holds within the new threshold (dead-update elision lives
	// in pqDrainFn).
	for b := 0; b <= st.tPQ; b++ {
		if n := st.pqHold[b].Len(); n > 0 {
			holds.pqDrained += int64(n)
			st.pqHold[b].Drain(ar, st.me, st.pqDrainFn)
		}
	}
	holds.tramHeldAfter = holds.tramHeldBefore - holds.tramDrained
	holds.pqHeldAfter = holds.pqHeldBefore - holds.pqDrained
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
