package pq

import (
	"math"
	"math/bits"
)

// MaxBuckets caps a BucketQueue's ring: 2^14 buckets, 64 KiB of list heads
// and 2 KiB of occupancy bits. A caller whose keys span more bucket widths
// than that must widen its buckets.
const MaxBuckets = 1 << 14

// minBuckets is the smallest ring: one 64-bit occupancy word.
const minBuckets = 64

// BucketQueue is a monotone bucket queue over the integer ids [0, n), with
// IndexedHeap's PushOrDecrease, PopMin and Len. It serves callers whose
// keys never fall below the last key popped, as Dijkstra's do on
// nonnegative weights. A key is filed in bucket floor(key/width); PopMin
// takes the oldest entry of the lowest non-empty bucket, so two keys in
// one bucket may pop out of order, and only keys a bucket apart are
// ordered. Each id is in at most one bucket at a time: a decrease moves it.
//
// The buckets form a power-of-two ring that advances as keys are popped.
// Each is an intrusive circular doubly-linked list threaded through
// per-id arrays, so nothing is allocated per push, and an occupancy bitmap
// lets PopMin skip 64 empty buckets per word. A key beyond the ring's reach
// is filed in its farthest bucket and may pop early; a search that pushes
// an id again whenever its key improves after a pop still ends exact.
type BucketQueue struct {
	// Per id: the neighbours in its bucket's list, the ring slot it is
	// filed in (-1 when absent) and its key.
	next, prev []int32
	slot       []int32
	keys       []float64

	head []int32  // head[s] is the oldest id in bucket s, or -1
	occ  []uint64 // bit s is set when bucket s is non-empty
	mask int      // len(head) - 1
	cur  int      // ring slot of the lowest bucket that may be non-empty
	base float64  // the bucket number, floor(key·inv), of slot cur
	inv  float64  // 1/width, or 0 to file every key in one bucket
	n    int
	// anchored is false from Reset to the first push, which sets base.
	anchored bool
}

// NewBucketQueue returns an empty queue for ids in [0, n), with buckets of
// width 1 and the smallest ring until the first Reset.
func NewBucketQueue(n int) *BucketQueue {
	q := &BucketQueue{
		next: make([]int32, n),
		prev: make([]int32, n),
		slot: make([]int32, n),
		keys: make([]float64, n),
	}
	for i := range q.slot {
		q.slot[i] = -1
	}
	q.Reset(1, 0)
	return q
}

// Len reports the number of stored ids.
func (q *BucketQueue) Len() int { return q.n }

// Reset empties the queue, in time proportional to the ids it still holds
// and the ring's occupancy words, and sets its bucket width. The ring is
// sized to reach span past the last popped key: span/width + 1 buckets,
// rounded up to a power of two and capped at MaxBuckets. A width whose
// reciprocal is not a positive finite number files every key in one
// bucket. The ring only ever grows its backing arrays.
func (q *BucketQueue) Reset(width, span float64) {
	for w, b := range q.occ {
		for ; b != 0; b &= b - 1 {
			s := w<<6 | bits.TrailingZeros64(b)
			h := q.head[s]
			for v := h; ; {
				q.slot[v] = -1
				if v = q.next[v]; v == h {
					break
				}
			}
			q.head[s] = -1
		}
		q.occ[w] = 0
	}
	q.n, q.cur, q.anchored = 0, 0, false

	q.inv = 1 / width
	if !(q.inv > 0) || math.IsInf(q.inv, 1) {
		q.inv = 0
	}
	size := minBuckets
	for need := span*q.inv + 1; size < MaxBuckets && float64(size) < need; size <<= 1 {
	}
	if size > cap(q.head) {
		q.head = make([]int32, size)
		for i := range q.head {
			q.head[i] = -1
		}
		q.occ = make([]uint64, size/64)
	}
	// A shorter ring reuses a prefix; every bucket past it was emptied
	// above or has not been used since.
	q.head, q.occ = q.head[:size], q.occ[:size/64]
	q.mask = size - 1
}

// PushOrDecrease inserts id, or lowers its key if already present with a
// larger key. It returns true if the queue changed. The key must not be
// below the last key popped. The first key pushed after Reset anchors the
// ring and counts as popped, as a search's source does.
func (q *BucketQueue) PushOrDecrease(id int, key float64) bool {
	s := q.slot[id]
	if s >= 0 && key >= q.keys[id] {
		return false
	}
	if !q.anchored {
		q.base, q.anchored = math.Floor(key*q.inv), true
	}
	t := int32(q.file(key))
	q.keys[id] = key
	if s == t {
		return true
	}
	if s >= 0 {
		q.unlink(int32(id), int(s))
	} else {
		q.n++
	}
	q.link(int32(id), int(t))
	return true
}

// PopMin removes and returns the oldest id in the lowest non-empty bucket,
// plus its key, and moves the ring to that bucket. It panics if the queue
// is empty.
func (q *BucketQueue) PopMin() (id int, key float64) {
	if q.n == 0 {
		panic("pq: PopMin on empty BucketQueue")
	}
	w := q.cur >> 6
	b := q.occ[w] &^ (1<<(q.cur&63) - 1)
	for b == 0 {
		w = (w + 1) & (len(q.occ) - 1)
		b = q.occ[w]
	}
	s := w<<6 | bits.TrailingZeros64(b)
	q.base += float64((s - q.cur) & q.mask)
	q.cur = s
	v := q.head[s]
	q.unlink(v, s)
	q.n--
	return int(v), q.keys[v]
}

// file returns the ring slot of key's bucket: its distance in buckets from
// slot cur, clamped to the ring (a key below the ring's base, which a
// monotone caller never pushes, is filed in bucket cur).
func (q *BucketQueue) file(key float64) int {
	off := key*q.inv - q.base
	d := q.mask // also for NaN, which fails every comparison
	if off < float64(q.mask) {
		d = 0
		if off > 0 {
			d = int(off)
		}
	}
	return (q.cur + d) & q.mask
}

// link appends v to bucket s's list.
func (q *BucketQueue) link(v int32, s int) {
	q.slot[v] = int32(s)
	h := q.head[s]
	if h < 0 {
		q.head[s], q.next[v], q.prev[v] = v, v, v
		q.occ[s>>6] |= 1 << (s & 63)
		return
	}
	t := q.prev[h]
	q.next[t], q.prev[v], q.next[v], q.prev[h] = v, t, h, v
}

// unlink removes v from bucket s's list.
func (q *BucketQueue) unlink(v int32, s int) {
	q.slot[v] = -1
	nx := q.next[v]
	if nx == v {
		q.head[s] = -1
		q.occ[s>>6] &^= 1 << (s & 63)
		return
	}
	pv := q.prev[v]
	q.next[pv], q.prev[nx] = nx, pv
	if q.head[s] == v {
		q.head[s] = nx
	}
}
