// Package tram reimplements tramlib, the message-aggregation library the
// paper introduces for Charm++ (§II-D).
//
// SSSP generates enormous numbers of tiny update messages; sending each one
// individually would be dominated by per-message latency. Tramlib holds
// outgoing items in per-destination buffers and sends a whole buffer as one
// batch when it reaches a configured capacity (an "automatic flush"), or
// when the application explicitly flushes — which ACIC does during the
// broadcast after every reduction, guaranteeing progress through the
// low-concurrency "tail" of the graph where buffers never fill on their own.
//
// Buffer organization follows the paper's two-letter designations: the
// first letter says who owns a buffer set (P = one set per process, shared
// by its PEs under a lock; W = one private set per worker/PE), the second
// says the destination granularity (P = one buffer per destination process;
// W = one buffer per destination PE). The paper finds WP best for SSSP and
// uses it for all experiments; all four of PP, WP, WW and PW are
// implemented here so that choice can be re-derived (see the aggregation
// mode benchmark).
//
// The manager is a pure buffering policy: it never touches the network.
// Insert and the flush methods return Batches, and the caller (the ACIC
// core, or a baseline) forwards each batch through the runtime, at once:
// the Batch headers are the manager's, reused per source PE. A batch
// destined to a process is addressed to one of the process's PEs chosen
// round-robin, standing in for the per-process communication thread that
// demultiplexes arrivals in the paper's SMP configuration.
package tram

import (
	"fmt"
	"sync"

	"acic/internal/arena"
	"acic/internal/cacheline"
	"acic/internal/metrics"
	"acic/internal/netsim"
)

// Mode selects the buffer organization, named as in the paper.
type Mode uint8

// Aggregation modes. First letter: buffer-set owner. Second: destination
// granularity.
const (
	WW Mode = iota // per-worker sets, one buffer per destination PE
	WP             // per-worker sets, one buffer per destination process (paper's choice)
	PW             // per-process sets, one buffer per destination PE
	PP             // per-process sets, one buffer per destination process
)

// String returns the paper's two-letter designation.
func (m Mode) String() string {
	switch m {
	case WW:
		return "WW"
	case WP:
		return "WP"
	case PW:
		return "PW"
	case PP:
		return "PP"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// DefaultCapacity is the middle of the three buffer sizes tramlib supports
// (512, 1024, 2048 items; §IV-E).
const DefaultCapacity = 1024

// SupportedCapacities are the buffer sizes the paper's tramlib offers.
var SupportedCapacities = []int{512, 1024, 2048}

// Batch is a group of items flushed together; the caller sends it as one
// message to DestPE.
type Batch[T any] struct {
	SrcPE  int
	DestPE int
	Items  []T
}

// Stats counts tramlib activity. All fields are cumulative.
type Stats struct {
	Inserts       int64
	AutoFlushes   int64 // buffer reached capacity
	ManualFlushes int64 // explicit flush calls that produced a batch
	Batches       int64
	Items         int64 // items carried by all batches
	// PoolGets counts backing arrays issued to buffers (recycled or
	// freshly allocated); PoolPuts counts arrays accepted back by Release.
	// At quiescence every issued array has been flushed and released, so
	// the two must match — the pool-discipline invariant releasecheck
	// enforces statically and TestPoolDiscipline checks dynamically.
	PoolGets int64
	PoolPuts int64
}

// Manager implements the buffering policy for one simulated machine.
type Manager[T any] struct {
	topo netsim.Topology
	mode Mode
	cap  int

	sets []bufferSet[T]

	// setOf[pe] is the buffer set PE pe inserts into, destOf[pe] the buffer
	// of a set that collects items for PE pe (the mode's two letters,
	// tabulated once), out[pe] the Batch headers last handed to source PE pe.
	setOf, destOf []int32
	out           []flushOut[T]

	// pool recycles the backing arrays of flushed batches through a
	// chunked arena: a receiver calls ReleaseTo (or Release) after
	// unpacking a batch, and the next buffer that starts filling reuses
	// that capacity instead of growing from nil. Pooled arrays keep stale
	// items beyond their length until reused; that is fine for the small
	// value-typed updates tram carries. The arena may be shared with other
	// chunk users of the same run (hold buffers, demux forwards) via
	// NewWithArena, so a chunk released by one subsystem refills another.
	pool *arena.Arena[T]

	// Counters live in a metrics.Registry (the caller's, or a private one
	// when none is supplied), sharded by source PE so concurrent inserters
	// never contend on a stats cache line. Stats() sums them into the
	// legacy view. All advance per batch; Stats adds the buffered items.
	inserts       *metrics.Counter
	autoFlushes   *metrics.Counter
	manualFlushes *metrics.Counter
	batches       *metrics.Counter
	items         *metrics.Counter
	poolGets      *metrics.Counter
	poolPuts      *metrics.Counter
}

// flushOut is one source PE's return storage: the header Insert hands back
// and the list FlushSet fills. Only that PE's goroutine touches it, even
// when the buffer set is shared; padded because its neighbours' do too.
type flushOut[T any] struct {
	batch Batch[T]
	flush []Batch[T]
	_     [64]byte
}

type bufferSet[T any] struct {
	mu *sync.Mutex // non-nil for process-owned (shared) sets
	// bufs is indexed by destination PE or process. Every Insert rewrites
	// one of its slice headers, so the array sits on cache lines of its
	// own (cacheline.Make): a plain make packs the small arrays of
	// neighbouring sets into one line, and their PEs then contend on every
	// insert.
	bufs [][]T
	rr   int // round-robin offset for process-granularity delivery

	// Manager stores sets contiguously ([]bufferSet, one per source PE in
	// the worker-granularity modes), so adjacent inserters would otherwise
	// false-share a cache line on every append bookkeeping write.
	_ [64]byte
}

// New creates a Manager for the given topology, mode and per-buffer
// capacity. Capacity must be positive; the paper's supported sizes are 512,
// 1024 and 2048 but any positive value is accepted for experiments.
// Counters land in a private registry and buffers recycle through a
// private arena; NewWithArena shares both with the rest of a run.
func New[T any](topo netsim.Topology, mode Mode, capacity int) (*Manager[T], error) {
	return NewWithArena[T](topo, mode, capacity, nil, nil)
}

// NewWithArena is New with the manager's counters registered in reg under
// the "tram." prefix, sharded by source PE, and its buffer recycling
// backed by a caller-provided arena, so one run's tram buffers, hold
// chunks and demux forwards all draw from a single chunk pool. reg must
// have been created for at least topo.TotalPEs() shards; a nil reg selects
// a private registry so the counters (and therefore Stats) always exist.
// Two managers sharing one registry share the counters — one manager per
// run is the intended shape. The arena's chunk capacity must equal the
// manager's buffer capacity (the uniform size is what makes
// cross-subsystem recycling loss-free); a nil arena selects a private one.
func NewWithArena[T any](topo netsim.Topology, mode Mode, capacity int, reg *metrics.Registry, ar *arena.Arena[T]) (*Manager[T], error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("tram: capacity must be positive, got %d", capacity)
	}
	if mode > PP {
		return nil, fmt.Errorf("tram: unknown mode %d", mode)
	}
	if reg == nil {
		reg = metrics.New(topo.TotalPEs())
	}
	if ar == nil {
		ar = arena.New[T](topo.TotalPEs(), capacity)
	} else if ar.ChunkCap() != capacity {
		return nil, fmt.Errorf("tram: arena chunk capacity %d != buffer capacity %d", ar.ChunkCap(), capacity)
	}
	m := &Manager[T]{
		topo:          topo,
		mode:          mode,
		cap:           capacity,
		pool:          ar,
		inserts:       reg.Counter("tram.inserts"),
		autoFlushes:   reg.Counter("tram.auto_flushes"),
		manualFlushes: reg.Counter("tram.manual_flushes"),
		batches:       reg.Counter("tram.batches"),
		items:         reg.Counter("tram.items"),
		poolGets:      reg.Counter("tram.pool_gets"),
		poolPuts:      reg.Counter("tram.pool_puts"),
	}
	numSets := topo.TotalPEs()
	if mode == PW || mode == PP {
		numSets = topo.TotalProcs()
	}
	numDests := topo.TotalPEs()
	if mode == WP || mode == PP {
		numDests = topo.TotalProcs()
	}
	m.sets = make([]bufferSet[T], numSets)
	for i := range m.sets {
		m.sets[i].bufs = cacheline.Make[[]T](numDests)
		if mode == PW || mode == PP {
			m.sets[i].mu = new(sync.Mutex)
		}
	}
	m.setOf = make([]int32, topo.TotalPEs())
	m.destOf = make([]int32, topo.TotalPEs())
	m.out = make([]flushOut[T], topo.TotalPEs())
	for pe := range m.setOf {
		m.setOf[pe], m.destOf[pe] = int32(pe), int32(pe)
		if mode == PW || mode == PP {
			m.setOf[pe] = int32(topo.ProcessOf(pe))
		}
		if mode == WP || mode == PP {
			m.destOf[pe] = int32(topo.ProcessOf(pe))
		}
	}
	return m, nil
}

// Mode returns the aggregation mode.
func (m *Manager[T]) Mode() Mode { return m.mode }

// Capacity returns the per-buffer item capacity.
func (m *Manager[T]) Capacity() int { return m.cap }

// NumBuffers returns the total number of buffers maintained — the quantity
// that grows with parallelism and drives Fig. 6's shrinking optimal size.
func (m *Manager[T]) NumBuffers() int {
	if len(m.sets) == 0 {
		return 0
	}
	return len(m.sets) * len(m.sets[0].bufs)
}

// deliveryPE resolves a destination buffer index back to a concrete PE.
// For PE-granularity buffers it is the PE itself; for process-granularity
// buffers one of the process's PEs is picked round-robin per flush,
// standing in for the process's communication thread.
func (m *Manager[T]) deliveryPE(set *bufferSet[T], destIdx int) int {
	if m.mode == WW || m.mode == PW {
		return destIdx
	}
	lo, hi := m.topo.PEsOfProcess(destIdx)
	pe := lo + set.rr%(hi-lo)
	set.rr++
	return pe
}

// Insert buffers item for dstPE on behalf of srcPE. If the buffer reaches
// capacity the filled batch is cut and returned for the caller to send;
// otherwise the returned batch is nil. The header is srcPE's own slot in
// the manager, valid until srcPE's next Insert — callers send it at once —
// and an insert that cuts nothing touches no counter.
func (m *Manager[T]) Insert(srcPE, dstPE int, item T) *Batch[T] {
	set := &m.sets[m.setOf[srcPE]]
	d := m.destOf[dstPE]
	if set.mu != nil {
		set.mu.Lock()
		defer set.mu.Unlock()
	}
	buf := set.bufs[d]
	if buf == nil {
		buf = m.newBuf(srcPE)
	}
	buf = append(buf, item)
	set.bufs[d] = buf
	if len(buf) < m.cap {
		return nil
	}
	m.autoFlushes.Add(srcPE, 1)
	out := &m.out[srcPE].batch
	*out, _ = m.cut(srcPE, set, int(d))
	return out
}

// newBuf returns an empty buffer with full batch capacity, recycled from
// the arena when a receiver has released one. srcPE attributes the
// pool-get to the inserting PE's counter shard and selects its private
// freelist (Insert always runs on the inserting PE's goroutine, so the
// freelist access is synchronization-free).
func (m *Manager[T]) newBuf(srcPE int) []T {
	m.poolGets.Add(srcPE, 1)
	return m.pool.Get(srcPE)
}

// Borrow hands out one empty full-capacity buffer from srcPE's freelist
// for uses outside the manager's own send buffers — e.g. the ACIC demux
// re-bundling arrivals for sibling PEs. The borrowed buffer participates
// in the pool-discipline ledger exactly like a flushed batch: whoever
// finishes unpacking it must hand it back through ReleaseTo or Release.
// Must be called from srcPE's goroutine.
func (m *Manager[T]) Borrow(srcPE int) []T {
	return m.newBuf(srcPE)
}

// BorrowShared is Borrow for callers with no PE goroutine of their own —
// a transport's frame decoder materializing an arriving batch on a
// socket-reader goroutine. The buffer comes from the arena's shared
// spill; the get lands on shard 0, mirroring Release's accounting, so
// PoolGets == PoolPuts still holds at quiescence when the receiving PE
// hands the decoded buffer back through Release/ReleaseTo.
func (m *Manager[T]) BorrowShared() []T {
	m.poolGets.Add(0, 1)
	return m.pool.GetShared()
}

// Release returns a flushed batch's backing array to the manager so a
// future buffer can reuse its capacity. Call it after fully unpacking
// batch.Items; the slice must not be touched afterwards. Undersized slices
// are ignored so the pool holds only full-capacity arrays. Safe for
// concurrent use from any goroutine; receivers that know their own PE
// index should prefer ReleaseTo, which skips the shared spill's lock.
func (m *Manager[T]) Release(items []T) {
	// Release runs on receiver goroutines with no natural source shard;
	// shard 0 keeps the total exact, which is all the pool-discipline
	// invariant (PoolGets == PoolPuts at quiescence) needs.
	if cap(items) < m.cap {
		return
	}
	m.poolPuts.Add(0, 1)
	m.pool.PutShared(items)
}

// ReleaseTo is Release for a receiver running on PE pe's goroutine: the
// array lands on that PE's private freelist with no synchronization, so
// the common unpack-and-release path of the ACIC hot loop touches no lock.
func (m *Manager[T]) ReleaseTo(pe int, items []T) {
	if cap(items) < m.cap {
		return
	}
	m.poolPuts.Add(pe, 1)
	m.pool.Put(pe, items)
}

// cut removes and wraps the buffer at destination index d, reporting false
// when it is empty. Caller holds the set lock if the set is shared.
func (m *Manager[T]) cut(srcPE int, set *bufferSet[T], d int) (Batch[T], bool) {
	items := set.bufs[d]
	if len(items) == 0 {
		return Batch[T]{}, false
	}
	set.bufs[d] = nil
	m.batches.Add(srcPE, 1)
	m.items.Add(srcPE, int64(len(items)))
	m.inserts.Add(srcPE, int64(len(items)))
	return Batch[T]{SrcPE: srcPE, DestPE: m.deliveryPE(set, d), Items: items}, true
}

// FlushSet performs an explicit flush of the buffer set srcPE writes to,
// returning every non-empty buffer as a batch. ACIC calls this from each
// PE's broadcast handler; note that under process-owned modes several PEs
// share a set, so a process's set may be flushed by whichever of its PEs
// handles the broadcast first — subsequent flushes find it empty, which is
// harmless. The returned slice is reused by srcPE's next FlushSet.
func (m *Manager[T]) FlushSet(srcPE int) []Batch[T] {
	set := &m.sets[m.setOf[srcPE]]
	if set.mu != nil {
		set.mu.Lock()
		defer set.mu.Unlock()
	}
	out := m.out[srcPE].flush[:0]
	for d := range set.bufs {
		if b, ok := m.cut(srcPE, set, d); ok {
			out = append(out, b)
		}
	}
	m.out[srcPE].flush = out
	if len(out) > 0 {
		m.manualFlushes.Add(srcPE, 1)
	}
	return out
}

// PendingInSet reports the number of items currently buffered in srcPE's
// set. Used by tests and by the tail-progress assertions.
func (m *Manager[T]) PendingInSet(srcPE int) int {
	return m.sets[m.setOf[srcPE]].pending()
}

func (set *bufferSet[T]) pending() int {
	if set.mu != nil {
		set.mu.Lock()
		defer set.mu.Unlock()
	}
	n := 0
	for _, b := range set.bufs {
		n += len(b)
	}
	return n
}

// Stats returns a snapshot of the counters. It is a thin view over the
// registry instruments (summing the per-PE shards); callers wanting per-PE
// resolution read the "tram." counters from the registry directly. Inserts
// is items cut plus items still buffered: the number of Insert calls, read
// while no PE is inserting (after the run, where every caller reads it).
func (m *Manager[T]) Stats() Stats {
	pending := 0
	for i := range m.sets {
		pending += m.sets[i].pending()
	}
	return Stats{
		Inserts:       m.inserts.Value() + int64(pending),
		AutoFlushes:   m.autoFlushes.Value(),
		ManualFlushes: m.manualFlushes.Value(),
		Batches:       m.batches.Value(),
		Items:         m.items.Value(),
		PoolGets:      m.poolGets.Value(),
		PoolPuts:      m.poolPuts.Value(),
	}
}
