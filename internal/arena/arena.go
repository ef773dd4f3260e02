// Package arena provides a chunked slice allocator for the messaging hot
// path: fixed-capacity backing arrays ("chunks") recycled through per-owner
// freelists, so steady-state traffic neither allocates nor contends.
//
// The design point is the per-PE ownership discipline of the runtime: each
// owner index is bound to exactly one goroutine (a PE), so Get/Put on an
// owner's freelist are plain slice operations with no synchronization at
// all. Chunks that change goroutines mid-flight — a tram batch sent to
// another PE, a demux forward — come back through PutShared, a
// mutex-guarded spill list any goroutine may use; owners whose private
// freelist runs dry refill from the spill in one lock acquisition, and a
// private freelist that outgrows privateCap sheds half of itself there, so
// an owner that keeps receiving more chunks than it uses feeds the owners
// that keep using more than they receive. The fast path therefore touches
// no lock and no atomic, and the slow path is one mutex operation per
// chunk that crossed goroutines or per batch of chunks rebalanced.
//
// Every chunk has the same capacity (Arena.ChunkCap), which is what makes
// the recycling loss-free: a chunk issued as a tram buffer can be released
// by the PE that unpacked it and reappear as a hold chunk on that PE, or
// vice versa. Undersized foreign slices offered to Put/PutShared are
// dropped rather than pooled, mirroring tram's Release rule.
//
// Ownership rules (see DESIGN.md "Arena ownership"): a chunk belongs to
// exactly one party at a time — the freelist it sits in, the List or
// buffer it backs, or the in-flight batch carrying it. Whoever finishes
// consuming the chunk's items puts it back (Put from the owning goroutine,
// PutShared from anywhere). Double-put corrupts the freelist; the
// gets/puts ledger (Stats) makes imbalances visible at quiescence.
package arena

import "sync"

// shard is one owner's private freelist, padded so neighboring owners'
// hot fields never share a cache line.
type shard[T any] struct {
	free [][]T
	// gets/puts are single-goroutine counters (the owner's); Stats sums
	// them with the shared-side counters for the pool-discipline ledger.
	gets, puts int64
	_          [64]byte
}

// Arena is a fixed-chunk-size allocator with per-owner freelists and a
// shared spill. The zero value is not usable; construct with New.
type Arena[T any] struct {
	chunkCap int
	shards   []shard[T]

	mu     sync.Mutex
	spill  [][]T
	sGets  int64 // chunks issued via the shared path (refills count here)
	sPuts  int64 // chunks accepted via PutShared
	allocs int64 // chunks newly allocated (never recycled); under mu or owner goroutine? see note
}

// Stats is the arena's chunk-conservation ledger. At quiescence every
// issued chunk has been put back, so Gets == Puts; Allocs counts how many
// chunks exist in total (the arena's footprint).
type Stats struct {
	Gets   int64 // chunks handed out (fresh or recycled)
	Puts   int64 // chunks accepted back
	Allocs int64 // chunks created fresh (footprint, monotone)
}

// New returns an Arena with one private freelist per owner in
// [0, owners) and chunks of capacity chunkCap. It panics on non-positive
// arguments.
func New[T any](owners, chunkCap int) *Arena[T] {
	if owners <= 0 {
		panic("arena: non-positive owner count")
	}
	if chunkCap <= 0 {
		panic("arena: non-positive chunk capacity")
	}
	return &Arena[T]{chunkCap: chunkCap, shards: make([]shard[T], owners)}
}

// ChunkCap returns the uniform chunk capacity.
func (a *Arena[T]) ChunkCap() int { return a.chunkCap }

// refillBatch bounds how many spilled chunks an owner pulls back under one
// lock acquisition: enough to amortize the mutex, few enough not to starve
// sibling owners.
const refillBatch = 8

// Get returns an empty chunk (len 0, cap ChunkCap). It must be called from
// the goroutine owning owner's freelist. The private freelist is tried
// first, then the shared spill (one lock, up to refillBatch chunks moved),
// and only then is a fresh chunk allocated.
//
//acic:noalloc
func (a *Arena[T]) Get(owner int) []T {
	sh := &a.shards[owner]
	sh.gets++
	if n := len(sh.free); n > 0 {
		c := sh.free[n-1]
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
		return c
	}
	// Private list dry: refill from the shared spill.
	a.mu.Lock()
	if n := len(a.spill); n > 0 {
		take := refillBatch
		if take > n {
			take = n
		}
		moved := a.spill[n-take:]
		sh.free = append(sh.free, moved...)
		for i := range moved {
			moved[i] = nil
		}
		a.spill = a.spill[:n-take]
		a.mu.Unlock()
		n = len(sh.free)
		c := sh.free[n-1]
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
		return c
	}
	a.allocs++
	a.mu.Unlock()
	return make([]T, 0, a.chunkCap) //acic:allow-alloc pool miss: the whole point of the arena is that this line runs rarely
}

// GetShared returns an empty chunk from the shared spill (or fresh),
// callable from any goroutine — the Get counterpart of PutShared. It
// exists for consumers with no owner goroutine of their own, like a
// transport's frame decoder drawing batch buffers on a socket-reader
// goroutine; steady-state traffic recycles spilled chunks and allocates
// nothing.
func (a *Arena[T]) GetShared() []T {
	a.mu.Lock()
	a.sGets++
	if n := len(a.spill); n > 0 {
		c := a.spill[n-1]
		a.spill[n-1] = nil
		a.spill = a.spill[:n-1]
		a.mu.Unlock()
		return c
	}
	a.allocs++
	a.mu.Unlock()
	return make([]T, 0, a.chunkCap)
}

// privateCap bounds an owner's private freelist. Traffic between owners is
// not symmetric: a PE that unpacks more batches than it sends puts more
// chunks than it gets, run after run, and its siblings on the other side of
// that imbalance find their lists dry and allocate. Left unbounded, the
// arena's footprint follows the number of runs a Scratch has served (1.7 MB
// per 2^10-vertex solve, measured) instead of the peak demand of one. Past
// the cap, Put moves the upper half of the list to the shared spill under
// one lock acquisition, where Get's refill finds it. Caps from 16 to 1024
// read the same on small, large and TCP solves (experiments/pr19/README.md,
// "Steadiness").
const privateCap = 4 * refillBatch

// Put returns a chunk to owner's private freelist. It must be called from
// the goroutine owning that freelist; the chunk must not be touched
// afterwards. Slices smaller than ChunkCap are dropped (only full-capacity
// chunks recycle), but still count as puts so the ledger stays balanced.
// A list that outgrows privateCap sheds half of itself to the shared spill.
//
//acic:noalloc
func (a *Arena[T]) Put(owner int, c []T) {
	sh := &a.shards[owner]
	sh.puts++
	if cap(c) < a.chunkCap {
		return
	}
	sh.free = append(sh.free, c[:0])
	if len(sh.free) > privateCap {
		a.shed(sh)
	}
}

// shed moves the upper half of sh's freelist to the shared spill. The
// chunks were already counted as puts when they arrived and will be counted
// as gets when an owner takes them, so the ledger is not touched.
func (a *Arena[T]) shed(sh *shard[T]) {
	keep := len(sh.free) / 2
	moved := sh.free[keep:]
	a.mu.Lock()
	a.spill = append(a.spill, moved...)
	a.mu.Unlock()
	for i := range moved {
		moved[i] = nil
	}
	sh.free = sh.free[:keep]
}

// PutShared returns a chunk from any goroutine via the mutex-guarded
// spill. Undersized slices are dropped but counted, as in Put.
func (a *Arena[T]) PutShared(c []T) {
	a.mu.Lock()
	a.sPuts++
	if cap(c) >= a.chunkCap {
		a.spill = append(a.spill, c[:0])
	}
	a.mu.Unlock()
}

// Stats sums the per-owner and shared ledgers. Exact only at quiescence
// (no concurrent Get/Put); mid-run reads may tear between shards.
func (a *Arena[T]) Stats() Stats {
	a.mu.Lock()
	s := Stats{Gets: a.sGets, Puts: a.sPuts, Allocs: a.allocs}
	a.mu.Unlock()
	for i := range a.shards {
		s.Gets += a.shards[i].gets
		s.Puts += a.shards[i].puts
	}
	return s
}
