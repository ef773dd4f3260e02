package core

import (
	"errors"
	"sync"
	"sync/atomic"

	"acic/internal/arena"
	"acic/internal/cacheline"
	"acic/internal/histogram"
)

// ErrScratchInUse is returned by Run when the Options.Scratch it was handed
// is already owned by another in-flight Run. The exclusivity contract used
// to live only in Scratch's doc comment; concurrent reuse silently corrupts
// the arena and per-PE state, so Run now fails loudly instead.
var ErrScratchInUse = errors.New("core: Scratch is already in use by a concurrent Run")

// Scratch recycles the per-run allocations of repeated Runs on the same
// machine shape: the update-chunk arena shared by tramlib and the hold
// buffers, the pooled reduction contributions and decoded broadcasts, and
// every PE's distance / parent / histogram / queue / hold state.
// Benchmark and stress drivers that execute many runs back to back pass
// one Scratch through Options.Scratch so the steady-state run performs no
// large allocations.
//
// A Scratch is keyed by the run shape (PE count, bucket width, tram
// capacity). Passing it to a run with a different shape silently
// discards the cached state and rebuilds it. A Scratch must not be shared
// by concurrent Runs — it hands out exclusive state. Run enforces that
// contract with an atomic in-use latch: the second of two overlapping Runs
// on one Scratch returns ErrScratchInUse instead of corrupting state.
type Scratch struct {
	inUse atomic.Bool
	key   scratchKey
	pools *runPools
	slots []*peSlot
}

// acquire claims exclusive ownership of the scratch for one Run, failing if
// another Run holds it.
func (sc *Scratch) acquire() error {
	if !sc.inUse.CompareAndSwap(false, true) {
		return ErrScratchInUse
	}
	return nil
}

// release returns the scratch after a Run, successful or not.
func (sc *Scratch) release() { sc.inUse.Store(false) }

type scratchKey struct {
	pes     int
	tramCap int
	width   float64
}

// runPools holds the cross-PE pools of one run: the chunk arena (shared
// with tramlib so demux buffers, hold chunks and tram batches recycle
// through one freelist), the reduction-contribution pool, the pool of
// batch headers and the pool of broadcasts the wire decoder fills.
type runPools struct {
	ar *arena.Arena[Update]

	reduceVals freelist[reduceVal]
	batches    freelist[batchMsg]
	ctrls      freelist[ctrlMsg]
}

// freelist recycles pointers across the goroutines of one run: PEs, and
// the transport's reader and writer. get allocates a zero T only on a
// miss, so a warm Scratch allocates only past its high-water mark.
type freelist[T any] struct {
	mu   sync.Mutex
	free []*T
}

func (f *freelist[T]) get() *T {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.free)
	if n == 0 {
		return new(T)
	}
	x := f.free[n-1]
	f.free[n-1] = nil
	f.free = f.free[:n-1]
	return x
}

func (f *freelist[T]) put(x *T) {
	f.mu.Lock()
	f.free = append(f.free, x)
	f.mu.Unlock()
}

// getReduceVal returns a pooled contribution value, allocating its
// histogram only when the pool missed. The caller overwrites every field,
// so no reset is needed here.
func (p *runPools) getReduceVal(width float64) *reduceVal {
	rv := p.reduceVals.get()
	if rv.hist == nil {
		rv.hist = histogram.New(histogram.DefaultBuckets, width)
	}
	return rv
}

func (p *runPools) putReduceVal(rv *reduceVal) { p.reduceVals.put(rv) }

// getBatch returns a batch header for one send. The receiver's
// receiveBatch, or the wire encoder that consumes the batch, hands it back
// with putBatch together with its items.
func (p *runPools) getBatch() *batchMsg { return p.batches.get() }

func (p *runPools) putBatch(m *batchMsg) {
	m.items = nil
	p.batches.put(m)
}

// getCtrl returns a broadcast for the wire decoder to fill; the receiving
// PE's OnBroadcast hands it back with putCtrl once it has read it.
func (p *runPools) getCtrl() *ctrlMsg { return p.ctrls.get() }

func (p *runPools) putCtrl(m *ctrlMsg) { p.ctrls.put(m) }

// peSlot is one PE's recycled state. Slices keep their backing arrays
// across runs; newPEState re-lengths and re-initializes them.
type peSlot struct {
	dist       []float64
	parent     []int32
	sent       []float64
	hist       *histogram.Histogram
	queue      vertexQueue
	tramHold   bucketHold
	fwdBufs    [][]Update
	fwdTouched []int32
}

// prepare readies the scratch for a run of the given shape, discarding
// cached state on shape mismatch.
func (sc *Scratch) prepare(key scratchKey) {
	if sc.key != key {
		sc.pools = nil
		sc.slots = nil
		sc.key = key
	}
	if sc.pools == nil {
		sc.pools = &runPools{ar: arena.New[Update](key.pes, key.tramCap)}
	}
	if sc.slots == nil {
		sc.slots = make([]*peSlot, key.pes)
	}
}

// slot returns PE pe's recycled state, creating the slot on first use.
func (sc *Scratch) slot(pe int) *peSlot {
	if sc.slots[pe] == nil {
		// The queue's cursor and counts change with every update.
		sc.slots[pe] = cacheline.New[peSlot]()
	}
	return sc.slots[pe]
}
